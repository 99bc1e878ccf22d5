"""Hamiltonians, gate constructors, and the operation-time fluctuation channel.

The two-qubit resource is the isotropic spin exchange coupling

    H = g (sx sx + sy sy + sz sz),

with g > 0 in units of inverse time (hbar = 1).  A CNOT with control X and
target A is compiled from this coupling in three layers:

1. term isolation: two exchange pulses of duration t/2 sandwiched between
   pi rotations of the edge qubit about z cancel the transverse (flip-flop)
   part and leave exp(-i g t sz sz), up to a global phase;
2. the isolated sz sz exponent is run for the controlled-phase time 3pi/4g;
3. local rotations and a Hadamard on the target turn the controlled phase
   into a CNOT, again up to a global phase.

Timing noise: every exchange pulse duration is Gaussian.  A free-evolution
pulse of mean t has dispersion delta_tau.  Inside the compiled CNOT the two
isolation pulses fluctuate independently, each with dispersion delta_tau/2,
so the averaged CNOT is the product of its two averaged pulses: the same
exchange channel as a free-evolution pulse, at half the dispersion.  This
calibration makes every observable depend on the single dimensionless number
g*delta_tau through d = exp(-2 (g delta_tau)^2): the flip-flop leakage of the
noisy CNOT carries (1 - d^2)/8 weights while a free-evolution pulse damps
singlet-triplet coherences by D = d^4.  Only ensemble averages are physical.
Local rotations and Hadamards are treated as noise free.

With one singlet and one triplet level, a pulse of duration tau is
EXCHANGE_PARTS weighted by (1, cos 4 tau, sin 4 tau), so no eigenbasis of
exchange is computed.  The noisy CNOT's program expands once over its two
durations (_GATE_TERMS): a sampled gate is CNOT_GATE_COORDS weighted by seven
trigonometric coordinates, and its average, CNOT_GATE_POLYNOMIAL, the same
weighted by their mean CNOT_COORD_MEAN, a quadratic in d.

The noisy engine (NoiseParams, EXCHANGE_PARTS, noisy_cnot_channel) works in
units of 1/g and sees the dispersion only as gdtau; the Hamiltonians, the gate
constructors and gaussian_averaged_channel take g or absolute times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import QuantumChannel, hermitize

SIGMA_I = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}

#: Canonical CNOT, control X, target A: flips A iff X is spin-down.
CNOT_TARGET = np.array(
    [[1, 0, 0, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0]],
    dtype=complex,
)
CNOT_TARGET.setflags(write=False)

# Reduced Planck constant in meV ps, used only by the picosecond reporting helper.
_HBAR_MEV_PS = 0.6582119569


#: From this g*delta_tau on the timing noise dephases fully: d and every damping factor are 0.
FULL_DEPHASING_GDTAU = 100.0


@dataclass(frozen=True)
class NoiseParams:
    """The two noise knobs: readout polarization r and timing noise gdtau = g * delta_tau.

    The engine works in units of 1/g, so the pulse-duration dispersion enters
    only as the dimensionless gdtau, with the derived damping d = exp(-2 gdtau^2).
    """

    r: float = 1.0
    gdtau: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.r <= 1.0:
            raise ValueError(f"polarization must lie in [0, 1], got {self.r}")
        if not 0.0 <= self.gdtau < math.inf:
            raise ValueError(f"gdtau must be finite and nonnegative, got {self.gdtau}")

    @classmethod
    def from_dimensionless(cls, r: float, gdtau: float) -> "NoiseParams":
        """The noise point (r, gdtau), the same as calling the class."""
        return cls(r=r, gdtau=gdtau)

    @property
    def dephasing(self) -> float:
        """d = exp(-2 gdtau^2), in [0, 1]."""
        return dephasing_factor(self.gdtau)

    @property
    def sampled_gdtau(self) -> float:
        """The dispersion Monte Carlo draws durations with: gdtau, capped at the full-dephasing cut.

        From that width on every sampled phase is uniform mod 2 pi to double
        precision, and the draws stay far from overflow.
        """
        return min(self.gdtau, FULL_DEPHASING_GDTAU)


def dephasing_factor(gdtau: float) -> float:
    """d = exp(-2 gdtau^2) for a finite nonnegative gdtau."""
    if not 0.0 <= gdtau < math.inf:
        raise ValueError(f"gdtau must be finite and nonnegative, got {gdtau}")
    # exp underflows to 0.0 from gdtau ~ 19.3 on, long before gdtau ** 2 overflows.
    return math.exp(-2.0 * gdtau ** 2) if gdtau < FULL_DEPHASING_GDTAU else 0.0


#: Pulse times in units of 1/g: the CNOT's controlled-phase exponent, and a full spin transfer.
CNOT_PHASE_TIME = 3.0 * math.pi / 4.0
TRANSFER_TIME = math.pi / 4.0


def _on_qubit(op2: np.ndarray, qubit: str) -> np.ndarray:
    if qubit == "X":
        return np.kron(op2, SIGMA_I)
    if qubit == "A":
        return np.kron(SIGMA_I, op2)
    raise ValueError(f"qubit must be 'X' or 'A', got {qubit!r}")


#: Unit couplings sz sz, sx sx + sy sy and their sum, the isotropic exchange; built once.
_ZZ_UNIT = np.kron(SIGMA_Z, SIGMA_Z)
_FLIPFLOP_UNIT = np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Y, SIGMA_Y)
_EXCHANGE_UNIT = _FLIPFLOP_UNIT + _ZZ_UNIT
_ZZ_UNIT.setflags(write=False)
_FLIPFLOP_UNIT.setflags(write=False)
_EXCHANGE_UNIT.setflags(write=False)
#: Projectors P_S onto the exchange singlet (level -3 in units of g) and P_T onto the triplet (level 1).
_SINGLET = (np.eye(4) - _EXCHANGE_UNIT) / 4
_TRIPLET = np.eye(4) - _SINGLET
#: rho -> P_S rho P_T and rho -> P_T rho P_S (both projectors are real and symmetric).
_SINGLET_TRIPLET = np.kron(_TRIPLET, _SINGLET)
_TRIPLET_SINGLET = np.kron(_SINGLET, _TRIPLET)
#: The exchange pulse of duration tau (units of 1/g), rho -> V rho V† with V = P_T + exp(4i tau) P_S up
#: to a global phase, as superoperator parts at 1, cos 4 tau and sin 4 tau: P_T rho P_T + P_S rho P_S,
#: P_S rho P_T + P_T rho P_S and i (P_S rho P_T - P_T rho P_S).  Read-only, shape (3, 16, 16).
EXCHANGE_PARTS = np.array([np.kron(_TRIPLET, _TRIPLET) + np.kron(_SINGLET, _SINGLET),
                           _SINGLET_TRIPLET + _TRIPLET_SINGLET, 1j * (_SINGLET_TRIPLET - _TRIPLET_SINGLET)])
EXCHANGE_PARTS.setflags(write=False)


def _positive_coupling(g: float) -> float:
    """g itself; zero, a negative coupling, an infinite one and NaN are rejected."""
    if not 0 < g < math.inf:
        raise ValueError("coupling must be positive and finite")
    return g


def exchange_hamiltonian(g: float) -> np.ndarray:
    """Isotropic exchange H = g (sx sx + sy sy + sz sz), eigenvalues {g, g, g, -3g}."""
    return _positive_coupling(g) * _EXCHANGE_UNIT


def zz_hamiltonian(g: float) -> np.ndarray:
    """Longitudinal part g sz sz of the exchange coupling."""
    return _positive_coupling(g) * _ZZ_UNIT


def flipflop_hamiltonian(g: float) -> np.ndarray:
    """Transverse part g (sx sx + sy sy); swaps antiparallel spin pairs."""
    return _positive_coupling(g) * _FLIPFLOP_UNIT


def _hermitian_eigh(hamiltonian: np.ndarray, caller: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a Hermitian generator; a non-Hermitian one is rejected."""
    h = np.asarray(hamiltonian, dtype=complex)
    scale = max(1.0, np.max(np.abs(h)))
    if np.max(np.abs(h - h.conj().T)) > 1e-10 * scale:
        raise ValueError(f"{caller} requires a Hermitian generator")
    return np.linalg.eigh(hermitize(h))


def _finite(value, name: str) -> np.ndarray:
    """value as a float array; a NaN or an infinity anywhere in it is rejected."""
    array = np.asarray(value, dtype=float)
    if not np.isfinite(array).all():
        raise ValueError(f"{name} must be finite")
    return array


def evolve_unitary(hamiltonian: np.ndarray, t) -> np.ndarray:
    """exp(-i H t) through the eigendecomposition of a Hermitian H.

    t is a finite time or an array of them; the result has shape
    t.shape + H.shape, element k the propagator for t[k].  One call makes one
    eigendecomposition, whatever the number of times.
    """
    t = _finite(t, "evolution time")
    energies, vectors = _hermitian_eigh(hamiltonian, "evolve_unitary")
    phases = np.exp(-1j * energies * t[..., None])
    return (vectors * phases[..., None, :]) @ vectors.conj().T


def local_rotation(qubit: str, axis: str, theta: float) -> np.ndarray:
    """exp(-i theta sigma_axis / 2) on one qubit, identity on the other."""
    if axis not in _PAULI:
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    _finite(theta, "rotation angle")
    half = theta / 2.0
    u2 = math.cos(half) * SIGMA_I - 1j * math.sin(half) * _PAULI[axis]
    return _on_qubit(u2, qubit)


def global_rotation(axis: str, theta: float) -> np.ndarray:
    """Simultaneous equal-angle rotation of both qubits."""
    return local_rotation("X", axis, theta) @ local_rotation("A", axis, theta)


def hadamard(qubit: str) -> np.ndarray:
    """(sx + sz)/sqrt(2) on the chosen qubit."""
    h2 = (SIGMA_X + SIGMA_Z) / math.sqrt(2.0)
    return _on_qubit(h2, qubit)


#: Rz_X(pi), the edge qubit's flip between the two exchange pulses of term isolation; built once.
_RZ_X_PI = local_rotation("X", "z", math.pi)
_RZ_X_PI.setflags(write=False)


def term_isolation_unitary(g: float, t) -> np.ndarray:
    """The isolation pulse sequence Rz_X(pi) e^{-iHt/2} Rz_X(pi) e^{-iHt/2}.

    Equals exp(-i g t sz sz) up to a global phase for every t: conjugating the
    exchange generator by sz on X flips the sign of its transverse part, so
    the two half pulses cancel it while the sz sz parts add.  Each half pulse
    is exp(-i g t/2) P_T + exp(3i g t/2) P_S, no eigensolver needed.  t is a
    finite time or an array of them; the result has shape t.shape + (4, 4).
    """
    phase = 0.5 * _positive_coupling(g) * _finite(t, "evolution time")[..., None, None]
    half = np.exp(-1j * phase) * _TRIPLET + np.exp(3j * phase) * _SINGLET
    return _RZ_X_PI @ half @ _RZ_X_PI @ half


#: Noise-free gate applied before the controlled-phase exponent, H_A.
CNOT_ENTRY = hadamard("A")
CNOT_ENTRY.setflags(write=False)

#: Noise-free gates applied after the controlled-phase exponent, H_A Rz_X(pi/2) Rz_A(pi/2).
CNOT_FRAME = CNOT_ENTRY @ local_rotation("X", "z", math.pi / 2) @ local_rotation("A", "z", math.pi / 2)
CNOT_FRAME.setflags(write=False)

#: Superoperators of the noise-free entry and exit of the noisy CNOT and of its Rz_X(pi) between pulses.
_ENTRY, _EXIT, _FLIP_X = (QuantumChannel.from_unitary(u).superop
                          for u in (CNOT_ENTRY, CNOT_FRAME, _RZ_X_PI))


def cnot_unitary(g: float) -> np.ndarray:
    """CNOT compiled from the isolated sz sz exponent and local gates.

    CNOT_FRAME exp(-i (3pi/4) sz sz) H_A, equal to CNOT_TARGET up to a global
    phase; the exponent is diagonal, one phase per basis state.
    """
    _positive_coupling(g)
    zz_exp = np.diag(np.exp(-1j * CNOT_PHASE_TIME * np.diag(_ZZ_UNIT)))
    return CNOT_FRAME @ zz_exp @ CNOT_ENTRY


def gaussian_averaged_channel(hamiltonian: np.ndarray, tau0: float, delta_tau: float) -> QuantumChannel:
    """Ensemble average of exp(-iHt) rho exp(+iHt) over t ~ Normal(tau0, delta_tau).

    Computed exactly: in the eigenbasis of H, the (j, k) coherence between
    levels split by dE = E_j - E_k acquires exp(-i dE tau0) exp(-(dE delta_tau)^2 / 2).
    delta_tau = 0 reduces to plain unitary conjugation.  Both times must be finite.
    """
    if not 0.0 <= delta_tau < math.inf:
        raise ValueError(f"time dispersion must be finite and nonnegative, got {delta_tau}")
    if not math.isfinite(tau0):
        raise ValueError(f"mean time must be finite, got {tau0}")
    energies, v = _hermitian_eigh(hamiltonian, "gaussian_averaged_channel")
    gaps = energies[:, None] - energies[None, :]
    with np.errstate(over="ignore"):     # an infinite spread is the exact 0 of full dephasing
        spread = (gaps * delta_tau) ** 2
    damp = np.exp(-1j * gaps * tau0 - 0.5 * spread)
    to_eigen = np.kron(v.T, v.conj().T)          # rho -> V† rho V
    weight = np.diag(damp.reshape(-1, order="F"))
    from_eigen = np.kron(v.conj(), v)            # rho -> V rho V†
    return QuantumChannel(superop=from_eigen @ weight @ to_eigen)


#: The noisy CNOT's pulse program _EXIT F P(s2) F P(s1) _ENTRY, F = _FLIP_X and P(s) the exchange
#: pulse of duration s, expanded over both durations: the gate is sum_jk p_j(s1) p_k(s2) _GATE_TERMS[j, k]
#: for p(s) = (1, cos 4s, sin 4s), the weights of EXCHANGE_PARTS.  Read-only, shape (3, 3, 16, 16).
_GATE_TERMS = (_EXIT @ _FLIP_X @ EXCHANGE_PARTS)[None] @ (_FLIP_X @ EXCHANGE_PARTS @ _ENTRY)[:, None]
_GATE_TERMS.setflags(write=False)

#: A sampled noisy CNOT as superoperators weighted by its seven coordinates, with a_k = 4 s_k for the
#: pulse durations s_1, s_2: 1, cos a1, sin a1, cos a2, sin a2, cos(a1 - a2) and sin(a1 - a2).
#: cos(a1 + a2) and sin(a1 + a2) would carry _GATE_TERMS[1, 1] - _GATE_TERMS[2, 2] and
#: _GATE_TERMS[2, 1] + _GATE_TERMS[1, 2], both zero.  Read-only, shape (7, 16, 16).
CNOT_GATE_COORDS = np.array([_GATE_TERMS[0, 0], _GATE_TERMS[1, 0], _GATE_TERMS[2, 0], _GATE_TERMS[0, 1],
                             _GATE_TERMS[0, 2], (_GATE_TERMS[1, 1] + _GATE_TERMS[2, 2]) / 2,
                             (_GATE_TERMS[2, 1] - _GATE_TERMS[1, 2]) / 2])
CNOT_GATE_COORDS.setflags(write=False)

#: The mean of a sampled gate's seven coordinates as coefficients of d^b, shape (3, 7): each pulse's
#: phase a_k = 4 s_k is Normal(2 CNOT_PHASE_TIME, 2 gdtau), so cos a_k and sin a_k average to d times
#: their value at the mean, cos(a1 - a2) to d^2 and sin(a1 - a2) to 0.
CNOT_COORD_MEAN = np.zeros((3, 7))
CNOT_COORD_MEAN[0, 0] = CNOT_COORD_MEAN[2, 5] = 1.0
CNOT_COORD_MEAN[1, 1:5] = 2 * [math.cos(2.0 * CNOT_PHASE_TIME), math.sin(2.0 * CNOT_PHASE_TIME)]
CNOT_COORD_MEAN.setflags(write=False)

#: The averaged CNOT superoperator G0 + d G1 + d^2 G2 as coefficients of d^b, shape (3, 16, 16): the
#: sampled gate at its mean coordinates.  Read-only.
CNOT_GATE_POLYNOMIAL = np.tensordot(CNOT_COORD_MEAN, CNOT_GATE_COORDS, axes=1)
CNOT_GATE_POLYNOMIAL.setflags(write=False)


def noisy_cnot_channel(noise: NoiseParams) -> QuantumChannel:
    """Averaged CNOT under Gaussian timing noise of the exchange pulses, in units of 1/g.

    The gate's pulse program (_GATE_TERMS) averaged over its two independent
    durations, each of mean CNOT_PHASE_TIME / 2 and dispersion gdtau/2: the
    sampled gate at its mean coordinates, the quadratic CNOT_GATE_POLYNOMIAL
    in d = noise.dephasing, evaluated here.

    Rotations and Hadamards are ideal.  gdtau = 0 gives the ideal CNOT
    conjugation to rounding.
    """
    g0, g1, g2 = CNOT_GATE_POLYNOMIAL
    d = noise.dephasing
    return QuantumChannel(superop=g0 + d * (g1 + d * g2))


def times_in_picoseconds(g_mev: float) -> dict:
    """Reporting helper: pulse times for a coupling quoted in meV.

    Purely cosmetic (the engine works in units of 1/g); a 1 meV coupling puts
    the full spin-transfer time pi/4g near half a picosecond.
    """
    ps = _HBAR_MEV_PS / _positive_coupling(g_mev)        # 1/g; inf for a subnormal coupling
    return {
        "tau0_cnot_ps": CNOT_PHASE_TIME * ps,
        "tau0_tomo_ps": TRANSFER_TIME * ps,
    }
