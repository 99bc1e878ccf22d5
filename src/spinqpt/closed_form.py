"""Closed-form process matrix, fidelity, and averaged gate output.

All quantities here are explicit functions of the readout polarization r and
the dimensionless timing noise gdtau = g * delta_tau, entering only through

    d = exp(-2 gdtau^2),      a+- = (1 +- d)/2,
    b+- = (1 +- d^2)/2,       c+- = (1 +- d^4)/2.

The 16x16 process matrix assembles from eleven 4x4 blocks in the fixed
operator ordering of :mod:`spinqpt.process_matrix`; see
:func:`chi_closed_form`.  Each entry is a polynomial in r with coefficients
built from the families below.  Everything is evaluated in plain floating
point; the expressions are well conditioned for gdtau <= 1.  :func:`coefficients`
and :func:`fidelity_closed_form` also take an array of r: a whole sweep at one
gdtau is one call, equal to the scalar calls exactly.

:func:`chi_element_1111` provides the leading diagonal element through an
independent explicit polynomial, and :func:`fidelity_closed_form` the process
fidelity against the ideal CNOT.  At gdtau = 0 the fidelity collapses to
F(r, 0) = (1 + 3r)^2 / 16.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from .dynamics import dephasing_factor
from .process_matrix import ProcessMatrix


def _validated_dephasing(r, gdtau: float) -> float:
    """Check the noise point (every r of an array; NaN fails) and return d = exp(-2 gdtau^2)."""
    if not np.all((r >= 0.0) & (r <= 1.0)):
        raise ValueError(f"polarization must lie in [0, 1], got {r}")
    return dephasing_factor(gdtau)


#: The families that depend on r, each as its expression in r, r2 = r * r and the families in d
#: alone (f).  For the two-subscript alpha families the first sign picks the sign of the r-linear
#: term and the second selects the +/- member of the beta or a family it multiplies.
_R_FAMILIES = {
    "alpha1_pp": lambda f, r, r2: 1.0 + 2.0 * f.beta1_plus * r + f.beta3_plus * r2,
    "alpha1_pm": lambda f, r, r2: 1.0 + 2.0 * f.beta1_minus * r + f.beta3_minus * r2,
    "alpha1_mp": lambda f, r, r2: 1.0 - 2.0 * f.beta1_plus * r + f.beta3_plus * r2,
    "alpha1_mm": lambda f, r, r2: 1.0 - 2.0 * f.beta1_minus * r + f.beta3_minus * r2,
    "alpha2_pp": lambda f, r, r2: 1.0 + 2.0 * f.beta2_plus * r - f.beta3_minus * r2,
    "alpha2_pm": lambda f, r, r2: 1.0 + 2.0 * f.beta2_minus * r - f.beta3_plus * r2,
    "alpha2_mp": lambda f, r, r2: 1.0 - 2.0 * f.beta2_plus * r - f.beta3_minus * r2,
    "alpha2_mm": lambda f, r, r2: 1.0 - 2.0 * f.beta2_minus * r - f.beta3_plus * r2,
    "alpha3_pp": lambda f, r, r2: f.a_plus * (f.a_plus + r),
    "alpha3_pm": lambda f, r, r2: f.a_minus * (f.a_minus + r),
    "alpha3_mp": lambda f, r, r2: f.a_plus * (f.a_plus - r),
    "alpha3_mm": lambda f, r, r2: f.a_minus * (f.a_minus - r),
    "alpha4_plus": lambda f, r, r2: 2.0 * f.d + (1.0 + f.b_plus) * r,
    "alpha4_minus": lambda f, r, r2: 2.0 * f.d - (1.0 + f.b_plus) * r,
    "alpha6_plus": lambda f, r, r2: 2.0 * (1.0 + 1j) * f.d * f.b_plus + f.c_plus * r,
    "alpha6_minus": lambda f, r, r2: 2.0 * (1.0 + 1j) * f.d * f.b_plus - f.c_plus * r,
}

#: The r-dependent families that the fidelity reads.
_FIDELITY_FAMILIES = ("alpha1_pp", "alpha2_pp", "alpha3_pp", "alpha4_plus")


def coefficients(r, gdtau: float) -> SimpleNamespace:
    """Evaluate every coefficient family at the given noise point.

    r may be a float or a numpy array: the families in d alone (a, b, c, beta,
    alpha5) stay Python floats and the other alphas take the shape of r,
    elementwise the exact floats of a scalar call (same operations, same order).
    """
    return _families(r, gdtau, _R_FAMILIES)


def _families(r, gdtau: float, names) -> SimpleNamespace:
    """The families in d alone and the named ones of _R_FAMILIES at the noise point."""
    d = _validated_dephasing(r, gdtau)
    a_p, a_m = 0.5 * (1.0 + d), 0.5 * (1.0 - d)
    b_p, b_m = 0.5 * (1.0 + d ** 2), 0.5 * (1.0 - d ** 2)
    c_p, c_m = 0.5 * (1.0 + d ** 4), 0.5 * (1.0 - d ** 4)
    families = SimpleNamespace(
        r=r, gdtau=gdtau, d=d,
        a_plus=a_p, a_minus=a_m,
        b_plus=b_p, b_minus=b_m,
        c_plus=c_p, c_minus=c_m,
        beta1_plus=a_p ** 2 + c_m * a_m ** 2,
        beta1_minus=a_m ** 2 + c_m * a_p ** 2,
        beta2_plus=c_p * a_p ** 2,
        beta2_minus=c_p * a_m ** 2,
        beta3_plus=a_p - d ** 4 * a_m,
        beta3_minus=a_m - d ** 4 * a_p,
        alpha5_plus=2.0 * a_p * (1.0 + a_p),
        alpha5_minus=-2.0 * a_m * (1.0 + a_m),
    )
    r2 = r * r
    for name in names:
        setattr(families, name, _R_FAMILIES[name](families, r, r2))
    return families


def _blocks(c: SimpleNamespace) -> dict:
    r = c.r
    m1 = np.array([
        [c.alpha1_pp, c.alpha1_pm, c.alpha1_mp, c.alpha1_mm],
        [c.alpha2_pm, c.alpha2_pp, c.alpha2_mm, c.alpha2_mp],
        [c.alpha2_mm, c.alpha2_mp, c.alpha2_pm, c.alpha2_pp],
        [c.alpha1_mp, c.alpha1_mm, c.alpha1_pp, c.alpha1_pm],
    ], dtype=complex)
    m2 = 2.0 * c.c_plus * r * np.array([
        [c.alpha3_pp, c.alpha3_pm, c.alpha3_mm, c.alpha3_mp],
        [c.alpha3_pm, c.alpha3_pp, c.alpha3_mp, c.alpha3_mm],
        [c.alpha3_mp, c.alpha3_mm, c.alpha3_pm, c.alpha3_pp],
        [c.alpha3_mm, c.alpha3_mp, c.alpha3_pp, c.alpha3_pm],
    ], dtype=complex)
    br = c.b_minus * r
    m3 = c.c_plus ** 2 * r * np.array([
        [c.alpha4_plus, br, c.alpha4_minus, -br],
        [br, c.alpha4_plus, -br, c.alpha4_minus],
        [c.alpha4_minus, -br, c.alpha4_plus, br],
        [-br, c.alpha4_minus, br, c.alpha4_plus],
    ], dtype=complex)
    bm = c.b_minus
    m4 = c.c_plus * r * r * np.array([
        [c.alpha5_plus, bm, c.alpha5_minus, -bm],
        [bm, c.alpha5_plus, -bm, c.alpha5_minus],
        [c.alpha5_minus, -bm, c.alpha5_plus, bm],
        [-bm, c.alpha5_minus, bm, c.alpha5_plus],
    ], dtype=complex)
    m5 = c.b_minus * c.c_plus ** 2 * r * r * np.array([
        [-1, 1, 1, -1],
        [1, -1, -1, 1],
        [1, -1, -1, 1],
        [-1, 1, 1, -1],
    ], dtype=complex)
    a6p, a6m = c.alpha6_plus, c.alpha6_minus
    m6 = -c.b_minus * r * np.array([
        [a6p, np.conj(a6m), a6m, np.conj(a6p)],
        [a6m, np.conj(a6p), a6p, np.conj(a6m)],
        [np.conj(a6m), a6p, np.conj(a6p), a6m],
        [np.conj(a6p), a6m, np.conj(a6m), a6p],
    ], dtype=complex)
    row7a = 1.0 + c.c_minus
    m7 = c.b_minus * r * np.array([
        [row7a] * 4,
        [c.c_plus] * 4,
        [-c.c_plus] * 4,
        [-row7a] * 4,
    ], dtype=complex)
    m8 = c.b_minus * c.c_plus * r * np.array([[1, 1, -1, -1]] * 4, dtype=complex)
    m9 = c.c_minus * m8
    m10 = c.c_minus * m2
    m11 = 2.0 * c.c_minus * r * r * np.array([
        [0, 0, 0, 0],
        [0, 0, 0, 0],
        [1, 1, 1, 1],
        [1, 1, 1, 1],
    ], dtype=complex)
    return {1: m1, 2: m2, 3: m3, 4: m4, 5: m5, 6: m6, 7: m7, 8: m8, 9: m9, 10: m10, 11: m11}


def chi_closed_form(r: float, gdtau: float) -> ProcessMatrix:
    """Closed-form process matrix of the noisy CNOT at (r, gdtau).

    Block layout over 4x4 sectors of the fixed ordering, with overall factor 1/4:

        [[M1,  M7,  0,  0 ],
         [M8,  M2,  0,  0 ],
         [M9,  M10, M5, M3],
         [M11, 0,   M4, M6]]

    At r = 1, gdtau = 0 every noise block vanishes and the array reduces to
    the ideal CNOT process matrix exactly.
    """
    m = _blocks(coefficients(r, gdtau))
    zero = np.zeros((4, 4), dtype=complex)
    chi = np.block([
        [m[1], m[7], zero, zero],
        [m[8], m[2], zero, zero],
        [m[9], m[10], m[5], m[3]],
        [m[11], zero, m[4], m[6]],
    ]) / 4.0
    return ProcessMatrix(chi=chi)


def chi_element_1111(r: float, gdtau: float) -> float:
    """The (E11, E11) process-matrix element through its own explicit polynomial.

    Evaluated independently of the block assembly:

        (1/16) [ 4 + (2 (1+d)^2 + (1-d^4)(1-d)^2) r + 2 (1 + d - d^4 (1-d)) r^2 ].

    Algebraically identical to one quarter of the leading alpha coefficient.
    """
    d = _validated_dephasing(r, gdtau)
    linear = 2.0 * (1.0 + d) ** 2 + (1.0 - d ** 4) * (1.0 - d) ** 2
    quadratic = 2.0 * (1.0 + d - d ** 4 * (1.0 - d))
    return (4.0 + linear * r + quadratic * r * r) / 16.0


def averaged_cnot_output_11(gdtau: float) -> np.ndarray:
    """Ensemble-averaged CNOT output for the |1><1| (both spins up) input.

    With d = exp(-2 gdtau^2):

        (1/8) [ (1+d)(3+d) E11 + (1-d)(3-d) E22
                + (1-d^2) (E33 + E44 + E12 + E21 + E34 + E43) ].

    The diagonal weights and the (1,2) coherence follow from dephasing of the
    controlled-phase exponent; the spin-transfer populations on E33/E44 and
    the accompanying (3,4) coherence come from the flip-flop admixture that
    independent pulse-duration fluctuations reintroduce.  Unit trace for all
    gdtau.
    """
    d = dephasing_factor(gdtau)
    leak = 1.0 - d ** 2
    out = np.zeros((4, 4), dtype=complex)
    out[0, 0] = (1.0 + d) * (3.0 + d)
    out[1, 1] = (1.0 - d) * (3.0 - d)
    out[2, 2] = leak
    out[3, 3] = leak
    out[0, 1] = leak
    out[1, 0] = leak
    out[2, 3] = leak
    out[3, 2] = leak
    return out / 8.0


def fidelity_closed_form(r, gdtau: float):
    """Process fidelity of the noisy CNOT against the ideal gate.

    r may be an array; the result is then an array like r, elementwise the scalar F.

    F(r, gdtau) = (1/32) [ alpha1_pp + alpha2_pp
                           + 2 (2 c+ r alpha3_pp + c+^2 r alpha4_+ + c+ r^2 alpha5_+) ].

    At gdtau = 0 this reduces to (1 + 3r)^2 / 16; at r = 1 the loss from
    timing noise alone stays below about five percent for gdtau <= 0.1.
    """
    c = _families(r, gdtau, _FIDELITY_FAMILIES)
    cp = c.c_plus
    cross = 2.0 * cp * r * c.alpha3_pp + cp ** 2 * r * c.alpha4_plus + cp * r * r * c.alpha5_plus
    return (c.alpha1_pp + c.alpha2_pp + 2.0 * cross) / 32.0
