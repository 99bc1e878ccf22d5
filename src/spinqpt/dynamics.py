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
so the sum of the two durations carries dispersion delta_tau/sqrt(2).  This
calibration makes every observable depend on the single dimensionless number
g*delta_tau through d = exp(-2 (g delta_tau)^2): the flip-flop leakage of the
noisy CNOT carries (1 - d^2)/8 weights while a free-evolution pulse damps
singlet-triplet coherences by d^4.  Only ensemble averages are physical; the
averaged evolution is computed exactly from the eigenstructure (each coherence
between levels split by dE picks up exp(-i dE t0) exp(-(dE delta)^2 / 2)).
Local rotations and Hadamards are treated as noise free.
"""

from __future__ import annotations

import functools
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

# Reduced Planck constant in eV s, used only by the picosecond reporting helper.
_HBAR_EV_S = 6.582119569e-16


#: From this g*delta_tau on the timing noise dephases fully: d and every damping factor are 0.
FULL_DEPHASING_GDTAU = 100.0


@dataclass(frozen=True)
class NoiseParams:
    """The three noise knobs: coupling g, time dispersion delta_tau, readout polarization r.

    Only the dimensionless product g*delta_tau affects any computed quantity,
    exposed as .gdtau with the derived damping d = exp(-2 gdtau^2).
    """

    g: float = 1.0
    delta_tau: float = 0.0
    r: float = 1.0

    def __post_init__(self):
        if not self.g > 0:
            raise ValueError(f"exchange coupling g must be positive, got {self.g}")
        if not 0.0 <= self.delta_tau < math.inf:
            raise ValueError(f"time dispersion must be finite and nonnegative, got {self.delta_tau}")
        if not 0.0 <= self.r <= 1.0:
            raise ValueError(f"polarization must lie in [0, 1], got {self.r}")

    @classmethod
    def from_dimensionless(cls, r: float, gdtau: float) -> "NoiseParams":
        """Work in units of 1/g: set g = 1 and delta_tau = gdtau."""
        return cls(g=1.0, delta_tau=gdtau, r=r)

    @property
    def gdtau(self) -> float:
        return self.g * self.delta_tau

    @property
    def dephasing(self) -> float:
        """d = exp(-2 (g delta_tau)^2), in [0, 1]."""
        return dephasing_factor(self.gdtau)

    @property
    def sampled_delta_tau(self) -> float:
        """The dispersion Monte Carlo draws durations with: delta_tau, capped at the full-dephasing gdtau.

        From that width on every sampled phase is uniform mod 2 pi to double
        precision, and the draws stay far from overflow.
        """
        if self.gdtau < FULL_DEPHASING_GDTAU:
            return self.delta_tau
        return FULL_DEPHASING_GDTAU / self.g


def dephasing_factor(gdtau: float) -> float:
    """d = exp(-2 gdtau^2) for a finite nonnegative gdtau."""
    if not 0.0 <= gdtau < math.inf:
        raise ValueError(f"gdtau must be finite and nonnegative, got {gdtau}")
    # exp underflows to 0.0 from gdtau ~ 19.3 on, long before gdtau ** 2 overflows.
    return math.exp(-2.0 * gdtau ** 2) if gdtau < FULL_DEPHASING_GDTAU else 0.0


@dataclass(frozen=True)
class GateSchedule:
    """Mean pulse durations fixed by the coupling g."""

    g: float
    tau0_cnot: float   # controlled-phase exponent time, 3 pi / 4g
    tau0_tomo: float   # free-evolution (full spin transfer) time, pi / 4g

    @classmethod
    def for_coupling(cls, g: float) -> "GateSchedule":
        if not g > 0:
            raise ValueError("coupling must be positive")
        return cls(g=g, tau0_cnot=3.0 * math.pi / (4.0 * g), tau0_tomo=math.pi / (4.0 * g))


def _on_qubit(op2: np.ndarray, qubit: str) -> np.ndarray:
    if qubit == "X":
        return np.kron(op2, SIGMA_I)
    if qubit == "A":
        return np.kron(SIGMA_I, op2)
    raise ValueError(f"qubit must be 'X' or 'A', got {qubit!r}")


#: Unit exchange coupling sx sx + sy sy + sz sz, built once.
_EXCHANGE_UNIT = sum(np.kron(p, p) for p in (SIGMA_X, SIGMA_Y, SIGMA_Z))
_EXCHANGE_UNIT.setflags(write=False)


def exchange_hamiltonian(g: float) -> np.ndarray:
    """Isotropic exchange H = g (sx sx + sy sy + sz sz), eigenvalues {g, g, g, -3g}."""
    if not g > 0:
        raise ValueError("coupling must be positive")
    return g * _EXCHANGE_UNIT


def zz_hamiltonian(g: float) -> np.ndarray:
    """Longitudinal part g sz sz of the exchange coupling."""
    return g * np.kron(SIGMA_Z, SIGMA_Z)


def flipflop_hamiltonian(g: float) -> np.ndarray:
    """Transverse part g (sx sx + sy sy); swaps antiparallel spin pairs."""
    return g * (np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Y, SIGMA_Y))


def evolve_unitary(hamiltonian: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) through the eigendecomposition of a Hermitian H."""
    h = np.asarray(hamiltonian, dtype=complex)
    scale = max(1.0, np.max(np.abs(h)))
    if np.max(np.abs(h - h.conj().T)) > 1e-10 * scale:
        raise ValueError("evolve_unitary requires a Hermitian generator")
    energies, vectors = np.linalg.eigh(hermitize(h))
    phases = np.exp(-1j * energies * t)
    return (vectors * phases) @ vectors.conj().T


def local_rotation(qubit: str, axis: str, theta: float) -> np.ndarray:
    """exp(-i theta sigma_axis / 2) on one qubit, identity on the other."""
    if axis not in _PAULI:
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
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


def term_isolation_unitary(g: float, t: float) -> np.ndarray:
    """The isolation pulse sequence Rz_X(pi) e^{-iHt/2} Rz_X(pi) e^{-iHt/2}.

    Equals exp(-i g t sz sz) up to a global phase for every t: conjugating the
    exchange generator by sz on X flips the sign of its transverse part, so
    the two half pulses cancel it while the sz sz parts add.
    """
    rz = local_rotation("X", "z", math.pi)
    half = evolve_unitary(exchange_hamiltonian(g), t / 2.0)
    return rz @ half @ rz @ half


#: Noise-free gates applied after the controlled-phase exponent, H_A Rz_X(pi/2) Rz_A(pi/2).
CNOT_FRAME = hadamard("A") @ local_rotation("X", "z", math.pi / 2) @ local_rotation("A", "z", math.pi / 2)
CNOT_FRAME.setflags(write=False)


def cnot_unitary(g: float) -> np.ndarray:
    """CNOT compiled from the isolated sz sz exponent and local gates.

    CNOT_FRAME exp(-i (3pi/4) sz sz) H_A, equal to CNOT_TARGET up to a global
    phase.
    """
    zz_exp = evolve_unitary(zz_hamiltonian(g), 3.0 * math.pi / (4.0 * g))
    return CNOT_FRAME @ zz_exp @ hadamard("A")


def gaussian_averaged_channel(hamiltonian: np.ndarray, tau0: float, delta_tau: float) -> QuantumChannel:
    """Ensemble average of exp(-iHt) rho exp(+iHt) over t ~ Normal(tau0, delta_tau).

    Computed exactly: in the eigenbasis of H, the (j, k) coherence between
    levels split by dE = E_j - E_k acquires exp(-i dE tau0) exp(-(dE delta_tau)^2 / 2).
    delta_tau = 0 reduces to plain unitary conjugation.
    """
    if delta_tau < 0:
        raise ValueError("time dispersion must be nonnegative")
    h = np.asarray(hamiltonian, dtype=complex)
    scale = max(1.0, np.max(np.abs(h)))
    if np.max(np.abs(h - h.conj().T)) > 1e-10 * scale:
        raise ValueError("gaussian_averaged_channel requires a Hermitian generator")
    energies, v = np.linalg.eigh(hermitize(h))
    gaps = energies[:, None] - energies[None, :]
    with np.errstate(over="ignore"):     # an infinite spread is the exact 0 of full dephasing
        spread = (gaps * delta_tau) ** 2
    damp = np.exp(-1j * gaps * tau0 - 0.5 * spread)
    to_eigen = np.kron(v.T, v.conj().T)          # rho -> V† rho V
    weight = np.diag(damp.reshape(-1, order="F"))
    from_eigen = np.kron(v.conj(), v)            # rho -> V rho V†
    return QuantumChannel(superop=from_eigen @ weight @ to_eigen)


@functools.lru_cache(maxsize=256)
def exchange_channel(tau0: float, delta_tau: float, g: float) -> QuantumChannel:
    """gaussian_averaged_channel(exchange_hamiltonian(g), tau0, delta_tau), built once per arguments.

    The channel is immutable, so every Evolve step of that duration shares it.
    """
    return gaussian_averaged_channel(exchange_hamiltonian(g), tau0, delta_tau)


@functools.cache
def _frame_channels() -> tuple:
    """The noise-free entry H_A and exit CNOT_FRAME of the noisy CNOT as channels, built on first use."""
    return QuantumChannel.from_unitary(hadamard("A")), QuantumChannel.from_unitary(CNOT_FRAME)


def noisy_cnot_channel(noise: NoiseParams) -> QuantumChannel:
    """Averaged CNOT under Gaussian timing noise of the exchange pulses.

    The two isolation pulses inside the controlled-phase exponent fluctuate
    independently, dispersion delta_tau/2 each.  The pulse-sum and
    pulse-difference are then independent Gaussians of dispersion
    delta_tau/sqrt(2); the sum dephases the sz sz exponent while the
    difference reintroduces a flip-flop admixture, which is what populates
    the spin-transfer sector of the averaged output.

    Rotations and Hadamards are ideal.  delta_tau = 0 gives the ideal CNOT
    conjugation exactly.
    """
    g = noise.g
    schedule = GateSchedule.for_coupling(g)
    entry, exit_channel = _frame_channels()
    sigma = noise.delta_tau / math.sqrt(2.0)
    phase_part = gaussian_averaged_channel(zz_hamiltonian(g), schedule.tau0_cnot, sigma)
    leak_part = gaussian_averaged_channel(flipflop_hamiltonian(g), 0.0, sigma)
    core = phase_part.compose(leak_part)
    return exit_channel.compose(core.compose(entry))


def sample_duration(tau0: float, delta_tau: float, rng: np.random.Generator) -> float:
    """One Gaussian duration draw; negative draws are legitimate evolution times."""
    if delta_tau < 0:
        raise ValueError("time dispersion must be nonnegative")
    return float(rng.normal(tau0, delta_tau))


def sample_cnot_unitary(noise: NoiseParams, rng: np.random.Generator) -> np.ndarray:
    """One noisy-CNOT realization with freshly drawn pulse durations."""
    g = noise.g
    schedule = GateSchedule.for_coupling(g)
    rz = local_rotation("X", "z", math.pi)
    hexch = exchange_hamiltonian(g)
    s1 = sample_duration(schedule.tau0_cnot / 2.0, noise.sampled_delta_tau / 2.0, rng)
    s2 = sample_duration(schedule.tau0_cnot / 2.0, noise.sampled_delta_tau / 2.0, rng)
    core = rz @ evolve_unitary(hexch, s2) @ rz @ evolve_unitary(hexch, s1)
    return CNOT_FRAME @ core @ hadamard("A")


def times_in_picoseconds(g_mev: float) -> dict:
    """Reporting helper: pulse times for a coupling quoted in meV.

    Purely cosmetic (the engine works in units of 1/g); a 1 meV coupling puts
    the full spin-transfer time pi/4g near half a picosecond.
    """
    if not g_mev > 0:
        raise ValueError("coupling must be positive")
    inv_g_seconds = _HBAR_EV_S / (g_mev * 1e-3)
    ps = inv_g_seconds * 1e12
    return {
        "tau0_cnot_ps": 3.0 * math.pi / 4.0 * ps,
        "tau0_tomo_ps": math.pi / 4.0 * ps,
    }
