"""Dense two-qubit primitives: density matrices, channels, entanglement measures.

All operators are plain complex numpy arrays in the fixed product basis

    |1> = |uu>,  |2> = |ud>,  |3> = |du>,  |4> = |dd>,

where the first spin label is the edge qubit X (the only directly measurable
one) and the second is the inner qubit A.  Superoperators act on
column-stacked operators, vec(A @ P @ B) = (B.T kron A) @ vec(P), and are
stored as 16x16 arrays.

A 4x4 Hermitian matrix polynomial in r gets the coefficients of its
characteristic polynomial as exact polynomials in r, with their rounding
bounds (:func:`_characteristic_coefficients`, both stages from one Laplace
rule), and :func:`_negative_eigenvalue_test` reads them by Horner's rule, so
whether it is positive semidefinite at some r needs no eigensolver.

Everything in this module is a pure function of immutable inputs; arrays held
by the value types are marked read-only after construction.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

DIM = 4

#: Projectors onto the edge-qubit spin states (up / down), acting on X only.
PROJ_UP = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
PROJ_DOWN = np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex)
PROJ_UP.setflags(write=False)
PROJ_DOWN.setflags(write=False)


def vec(mat: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector; a (..., d, d) stack gives (..., d*d)."""
    mat = np.asarray(mat)
    return np.swapaxes(mat, -1, -2).reshape(*mat.shape[:-2], -1)


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec` for square matrices; a (..., d*d) stack gives (..., d, d)."""
    v = np.asarray(v)
    d = int(round(np.sqrt(v.shape[-1])))
    return np.swapaxes(v.reshape(*v.shape[:-1], d, d), -1, -2)


def hermitize(mat: np.ndarray) -> np.ndarray:
    """(M + M†)/2, absorbing floating-point asymmetry before eigensolves; broadcasts."""
    return 0.5 * (mat + np.swapaxes(mat.conj(), -1, -2))


def basis_state(index: int) -> np.ndarray:
    """Density matrix |i><i| of the computational basis state, 0-based index."""
    if not 0 <= index < DIM:
        raise ValueError(f"basis index must be in 0..3, got {index}")
    rho = np.zeros((DIM, DIM), dtype=complex)
    rho[index, index] = 1.0
    return rho


def pure_state(amplitudes) -> np.ndarray:
    """Density matrix of a (normalized) statevector."""
    psi = np.asarray(amplitudes, dtype=complex).reshape(DIM)
    norm = np.linalg.norm(psi)
    if norm == 0:
        raise ValueError("zero statevector")
    psi = psi / norm
    return np.outer(psi, psi.conj())


def as_density_array(rho) -> np.ndarray:
    """A 4x4 operator as a complex array; any other shape is rejected."""
    arr = np.asarray(rho, dtype=complex)
    if arr.shape != (DIM, DIM):
        raise ValueError(f"expected a 4x4 operator, got shape {arr.shape}")
    return arr


def kraus_to_superop(kraus) -> np.ndarray:
    """Superoperator of rho -> sum_i K_i rho K_i† in the column-stacking convention."""
    s = np.zeros((DIM * DIM, DIM * DIM), dtype=complex)
    for k in kraus:
        k = np.asarray(k, dtype=complex)
        s += np.kron(k.conj(), k)
    return s


@dataclass(frozen=True)
class QuantumChannel:
    """Linear map on 4x4 operators, stored as a read-only 16x16 superoperator.

    Nothing beyond the shape is checked on construction: maps that are not
    completely positive or not trace preserving (for example a bare
    projection) are representable, and :func:`is_cptp` tests a channel.
    """

    superop: np.ndarray

    def __post_init__(self):
        s = np.array(self.superop, dtype=complex)
        if s.shape != (DIM * DIM, DIM * DIM):
            raise ValueError(f"superoperator must be 16x16, got {s.shape}")
        s.setflags(write=False)
        object.__setattr__(self, "superop", s)

    @classmethod
    def from_kraus(cls, kraus) -> "QuantumChannel":
        return cls(superop=kraus_to_superop(kraus))

    @classmethod
    def from_unitary(cls, u: np.ndarray) -> "QuantumChannel":
        return cls.from_kraus([u])


def apply_channel(channel: QuantumChannel, rho: np.ndarray) -> np.ndarray:
    """Apply a channel to a 4x4 operator.  Linear in rho."""
    return unvec(channel.superop @ vec(as_density_array(rho)))


def choi_matrix(channel: QuantumChannel) -> np.ndarray:
    """Choi matrix of the channel; the channel is CP iff this is PSD.

    Normalized so that a unitary channel has a rank-1 Choi matrix of trace 4.
    """
    s4 = channel.superop.reshape(DIM, DIM, DIM, DIM)
    return s4.transpose(3, 1, 2, 0).reshape(DIM * DIM, DIM * DIM)


def is_cptp(channel: QuantumChannel, tol: float) -> bool:
    """True iff the Choi eigenvalues are >= -tol and trace preservation holds within tol."""
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    choi = choi_matrix(channel)
    if np.linalg.eigvalsh(hermitize(choi)).min() < -tol:
        return False
    # Tracing the Choi matrix over the output factor must give the identity.
    c4 = choi.reshape(DIM, DIM, DIM, DIM)
    traced = np.einsum("aibi->ab", c4)
    return bool(np.max(np.abs(traced - np.eye(DIM))) <= tol)


def partial_transpose(rho: np.ndarray, subsystem: str) -> np.ndarray:
    """Transpose on one tensor factor, "X" (edge qubit) or "A" (inner qubit).

    Broadcasts over leading axes: a (..., 4, 4) stack is transposed per operator.
    """
    arr = np.asarray(rho, dtype=complex)
    if arr.shape[-2:] != (DIM, DIM):
        raise ValueError(f"expected a 4x4 operator, got shape {arr.shape}")
    lead = arr.shape[:-2]
    r = arr.reshape(lead + (2, 2, 2, 2))
    k = len(lead)
    if subsystem == "X":
        order = (k + 2, k + 1, k, k + 3)
    elif subsystem == "A":
        order = (k, k + 3, k + 2, k + 1)
    else:
        raise ValueError(f"subsystem must be 'X' or 'A', got {subsystem!r}")
    return r.transpose(tuple(range(k)) + order).reshape(arr.shape)


def negativity(rho: np.ndarray):
    """Entanglement negativity: |sum of negative eigenvalues| of the partial transpose.

    Zero exactly on separable two-qubit states, 1/2 on Bell states.  A float
    for one 4x4 operator; for a (..., 4, 4) stack, the array of negativities.
    """
    arr = np.asarray(rho, dtype=complex)
    if np.max(np.abs(arr - np.swapaxes(arr.conj(), -1, -2))) > 1e-8:
        raise ValueError("negativity requires a Hermitian input")
    return transpose_negativity(hermitize(partial_transpose(arr, "A")))


def transpose_negativity(transposed: np.ndarray):
    """Minus the sum of the negative eigenvalues of a Hermitian partial transpose, or of a stack of them."""
    evals = np.linalg.eigvalsh(transposed)
    values = -np.where(evals < 0, evals, 0.0).sum(axis=-1)
    return float(values) if values.ndim == 0 else values


_UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _products(terms: list) -> tuple:
    """A sum-of-products stage from its terms (key, a, b, negative): output s is the sum, over the
    terms of the s-th key in sorted order, of +-values[a] * values[b].  Returns the (2, n) a and b
    indices, the (2, n) signs (the signed row, then a row of ones that sums magnitudes), the
    offsets of the keys' runs and the longest run."""
    terms = sorted(terms, key=lambda term: term[0])
    keys = [term[0] for term in terms]
    starts = [n for n, key in enumerate(keys) if n == 0 or key != keys[n - 1]]
    a, b, negative = (np.array(column) for column in list(zip(*terms))[1:])
    signs = np.stack([np.where(negative, -1.0, 1.0), np.ones(len(terms))])
    return np.stack([a, b]), signs, np.array(starts), int(np.diff(starts + [len(terms)]).max())


def _stage(values: np.ndarray, stage: tuple, out=None) -> np.ndarray:
    """One :func:`_products` stage applied to both rows of values, into out if given."""
    factors, signs, starts, _ = stage
    pairs = np.take(values, factors, axis=1)
    return np.add.reduceat(pairs[:, 0] * pairs[:, 1] * signs, starts, axis=1, out=out)


@functools.cache
def _characteristic_plan(k: int) -> tuple:
    """The two stages of :func:`_characteristic_coefficients` for a polynomial of degree k.

    Stage 1 reads the coefficients P[a, b]_i at 16i + 4a + b, then a 1, and gives the 2x2 minors that
    stage 2 reads, 2k+1 coefficients each; stage 2 reads the same values and the minors and gives
    e_1 ... e_4.  Both follow one rule, Laplace's expansion of det P[rows, cols] along its first split
    rows: the sum over the column sets q of +-det P[head, q] * det P[tail, cols - q], with the sign
    (-1)^(sum of q's positions in cols + len(q) // 2).  A determinant of 0 rows is the 1, of 1 row an
    entry, of 2 rows a minor.  Stage 2 expands each principal minor along 2 rows, stage 1 each minor along 1."""
    width, span = k + 1, 2 * k + 1
    one = DIM * DIM * width
    minors = {}                                        # (rows, cols): the minor's place in stage 1

    def det(rows, cols):
        if len(rows) < 2:
            return [DIM * DIM * i + DIM * rows[0] + cols[0] for i in range(width)] if rows else [one]
        start = one + 1 + span * minors.setdefault((rows, cols), len(minors))
        return range(start, start + span)

    def laplace(key, rows, cols, split):
        head, tail = rows[:split], rows[split:]
        terms = []
        for q in itertools.combinations(range(len(cols)), len(head)):
            heads = det(head, tuple(cols[n] for n in q))
            tails = det(tail, tuple(c for n, c in enumerate(cols) if n not in q))
            terms += [((key, x + y), a, b, (sum(q) + len(q) // 2) % 2 == 1)
                      for x, a in enumerate(heads) for y, b in enumerate(tails)]
        return terms

    second = [term for j in range(1, DIM + 1) for s in itertools.combinations(range(DIM), j)
              for term in laplace(j, s, s, 2)]
    first = [term for (rows, cols), place in minors.items() for term in laplace(place, rows, cols, 1)]
    return _products(first), _products(second)


def _characteristic_coefficients(poly: np.ndarray) -> tuple:
    """(e, bounds) for a polynomial P(r) in r with (k+1, 4, 4) Hermitian coefficients.

    e[j-1] is e_j, the sum of the principal j x j minors of P(r): a real polynomial of degree jk,
    the list of its coefficients from r^0 up, from exact polynomial products in two stages
    (:func:`_characteristic_plan`).  bounds[j-1] bounds the rounding of e_j(r), r in [0, 1], from
    those coefficients by Horner's rule: gamma_n times the same sum of products of |coefficients|
    with every sign + (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3), at r = 1
    where it is largest.  n counts the most roundings on one path from a coefficient of P to
    e_j(r): per stage a complex product (3) and the sum of its run, then Horner's 2 per degree in
    :func:`_negative_eigenvalue_test`; doubled for the rounding of the bound itself."""
    k = len(poly) - 1
    first, second = _characteristic_plan(k)
    # Both rows: P's coefficients (signed) or their magnitudes, a 1, then stage 1's minors.
    coefficients = poly.reshape(-1)
    one = coefficients.size
    values = np.ones((2, one + 1 + len(first[2])), dtype=complex)
    values[0, :one] = coefficients
    np.abs(coefficients, out=values[1, :one])
    _stage(values, first, out=values[:, one + 1:])
    ends = list(itertools.accumulate((j * k + 1 for j in range(1, DIM + 1)), initial=0))
    signed, magnitudes = ([row[lo:hi] for lo, hi in zip(ends, ends[1:])]
                          for row in _stage(values, second).real.tolist())
    n = 2 * (6 + first[-1] + second[-1] + 2 * DIM * k)
    gamma = n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
    return signed, [gamma * math.fsum(magnitude) for magnitude in magnitudes]


def _negative_eigenvalue_test(poly: np.ndarray):
    """A function of r in [0, 1] that tells whether the Hermitian poly(r), shape (k+1, 4, 4), has a
    negative eigenvalue: whether some e_j of :func:`_characteristic_coefficients`, by Horner's rule,
    lies below minus its rounding bound.  A Hermitian matrix is positive semidefinite iff every e_j
    is >= 0 (Descartes' rule of signs), so eigenvalues that cross 0 together are found as well as
    one, and rounding noise, such as that of an identically singular poly(r), decides nothing."""
    signed, bounds = _characteristic_coefficients(poly)
    # The determinant first: it is the one that usually changes sign.  Coefficients from r^jk down.
    tests = [(e[::-1], -bound) for e, bound in zip(signed[::-1], bounds[::-1])]

    def negative_at(r: float) -> bool:
        for coefficients, floor in tests:
            value = 0.0
            for c in coefficients:
                value = value * r + c
            if value < floor:
                return True
        return False
    return negative_at
