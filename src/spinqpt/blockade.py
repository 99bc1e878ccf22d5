"""Spin-blockade readout of the edge qubit and measurement-sequence evaluation.

The edge qubit X is read out through Pauli blockade of channel electrons.
With channel polarization r in [0, 1] a declared outcome is correct only with
probability (1+r)/2, so declaring "up" realizes the unnormalized map

    rho  ->  (1+r)/2 P_up rho P_up  +  (1-r)/2 P_down rho P_down,

whose trace is the probability of that declaration.  A measurement sequence
is an ordered list of primitives (edge projection, exchange evolution of a
given mean duration, local or global rotation) ending in a projection; its
success probability is the joint probability that every projection reports
its declared outcome.  Branch weights compose multiplicatively step by step
and nothing is renormalized in between; sequences with three or more
projections extend the two-projection branch bookkeeping by the same product
rule.

Evolve durations are stored in units of 1/g so that serialized sequences are
coupling independent.  The analytic evaluator back-propagates the identity
through the sequence once (Heisenberg picture): each Evolve step applies the
adjoint of the exact Gaussian-averaged exchange channel, and each projection
the self-adjoint blockade map, which is affine in r.  The result is the
sequence's noisy effect operator held as a polynomial in r of degree at most
the number of projections, so one back-propagation serves every input state
and every polarization.  The Monte Carlo evaluator draws a fresh duration
per Evolve step and a Bernoulli readout branch per projection, giving an
independent unbiased estimate.

The Monte Carlo trajectories are pure states held as four state columns.
Each run of noise-free rotations is fused into one 4x4 matrix, and since
the exchange coupling has only two levels (triplet g, singlet -3g) an
Evolve step is a single relative phase on the singlet component; no BLAS
product and no complex exponential is needed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Union

import numpy as np

from .dynamics import NoiseParams, exchange_channel, global_rotation, local_rotation
from .qcore import DIM, PROJ_DOWN, PROJ_UP, as_density_array, hermitize

UP = "up"
DOWN = "down"

_SCOPES = ("X", "A", "global")
_AXES = ("x", "y", "z")


@dataclass(frozen=True)
class Project:
    """Blockade readout of the edge qubit with a declared outcome."""

    declared: str

    def __post_init__(self):
        if self.declared not in (UP, DOWN):
            raise ValueError(f"declared outcome must be 'up' or 'down', got {self.declared!r}")


@dataclass(frozen=True)
class Evolve:
    """Free exchange evolution; mean_time is in units of 1/g, positive, and the
    singlet's exchange phase 4 * mean_time is finite."""

    mean_time: float

    def __post_init__(self):
        if not 0.0 < self.mean_time <= np.finfo(float).max / 4.0:
            raise ValueError("Evolve mean time must be positive with a finite exchange phase "
                             f"4 * mean_time, got {self.mean_time}")


@dataclass(frozen=True)
class Rotate:
    """Ideal rotation of one qubit or of both (scope 'global')."""

    scope: str
    axis: str
    theta: float

    def __post_init__(self):
        if self.scope not in _SCOPES:
            raise ValueError(f"scope must be one of {_SCOPES}, got {self.scope!r}")
        if self.axis not in _AXES:
            raise ValueError(f"axis must be one of {_AXES}, got {self.axis!r}")
        if not np.isfinite(self.theta):
            raise ValueError("rotation angle must be finite")


MeasurePrimitive = Union[Project, Evolve, Rotate]


@dataclass(frozen=True)
class MeasureSequence:
    """Ordered primitives defining one readout experiment; ends with a projection."""

    steps: tuple

    def __post_init__(self):
        steps = tuple(self.steps)
        if not steps:
            raise ValueError("a measurement sequence cannot be empty")
        for step in steps:
            if not isinstance(step, (Project, Evolve, Rotate)):
                raise ValueError(f"unknown sequence step {step!r}")
        if not isinstance(steps[-1], Project):
            raise ValueError("a measurement sequence must end with a projection")
        object.__setattr__(self, "steps", steps)

    @property
    def n_projections(self) -> int:
        return sum(isinstance(s, Project) for s in self.steps)


@functools.lru_cache(maxsize=256)
def rotation_unitary(step: Rotate) -> np.ndarray:
    """The ideal unitary of a rotation step, read-only and built once per distinct step."""
    if step.scope == "global":
        u = global_rotation(step.axis, step.theta)
    else:
        u = local_rotation(step.scope, step.axis, step.theta)
    u.setflags(write=False)
    return u


def branch_weights(r: float) -> tuple[float, float]:
    """(correct, error) readout branch probabilities, (1+r)/2 and (1-r)/2."""
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"polarization must lie in [0, 1], got {r}")
    return 0.5 * (1.0 + r), 0.5 * (1.0 - r)


def blockade_map(rho: np.ndarray, declared: str, r: float) -> np.ndarray:
    """Unnormalized post-readout operator; its trace is the declaration probability."""
    correct, error = branch_weights(r)
    arr = as_density_array(rho)
    if declared == UP:
        keep, flip = PROJ_UP, PROJ_DOWN
    elif declared == DOWN:
        keep, flip = PROJ_DOWN, PROJ_UP
    else:
        raise ValueError(f"declared outcome must be 'up' or 'down', got {declared!r}")
    return correct * keep @ arr @ keep + error * flip @ arr @ flip


# Blockade map split by powers of r: M_r(X) = M0(X) +/- r M1(X) with
# M0(X) = (PXP + QXQ)/2 and M1(X) = (PXP - QXQ)/2 for P, Q the edge up and
# down projectors; + when "up" is declared.  Both are entrywise masks.
_SAME_EDGE = 0.5 * np.kron(np.eye(2), np.ones((2, 2)))
_EDGE_SIGN = 0.5 * np.kron(np.diag([1.0, -1.0]), np.ones((2, 2)))


def effect_polynomial(seq: MeasureSequence, g: float, delta_tau: float) -> np.ndarray:
    """Noisy effect of a sequence as coefficients E_0 ... E_k in the polarization r.

    Returns an array of shape (k + 1, 4, 4), k = seq.n_projections, with
    Tr[(sum_j r^j E_j) rho] the sequence's success probability at coupling g,
    time dispersion delta_tau and readout polarization r.  Built by one
    Heisenberg back-propagation of the identity: walking the steps in
    reverse, a projection maps E_j -> M0(E_j) +/- M1(E_{j-1}) (the blockade
    map is self-adjoint and affine in r), an Evolve step applies the adjoint
    of the Gaussian-averaged exchange channel, and a rotation u maps
    E -> u† E u.  Each coefficient is Hermitian.
    """
    coeffs = np.zeros((seq.n_projections + 1, DIM, DIM), dtype=complex)
    coeffs[0] = np.eye(DIM)
    for step in reversed(seq.steps):
        if isinstance(step, Project):
            odd = coeffs[:-1] * (_EDGE_SIGN if step.declared == UP else -_EDGE_SIGN)
            coeffs *= _SAME_EDGE
            coeffs[1:] += odd
        elif isinstance(step, Evolve):
            superop = exchange_channel(step.mean_time / g, delta_tau, g).superop
            # vec(E) of each coefficient is row n*4+m of E.T; apply S† to it.
            flat = coeffs.transpose(0, 2, 1).reshape(-1, DIM * DIM) @ superop.conj()
            coeffs = flat.reshape(-1, DIM, DIM).transpose(0, 2, 1)
        else:
            u = rotation_unitary(step)
            coeffs = u.conj().T @ coeffs @ u
    return coeffs


def polynomial_value(coeffs: np.ndarray, r):
    """sum_j r^j coeffs[j] by Horner's rule; the axes of an array r go last."""
    r = np.asarray(r, dtype=float)
    coeffs = np.asarray(coeffs).reshape(np.shape(coeffs) + (1,) * r.ndim)
    value = coeffs[-1]
    for coeff in coeffs[-2::-1]:
        value = value * r + coeff
    return value


def sequence_probability(seq: MeasureSequence, rho, noise: NoiseParams) -> float:
    """Probability that every projection in the sequence reports its declared outcome.

    Evolve steps act through the Gaussian-averaged exchange channel at the
    step's mean duration and the global dispersion noise.delta_tau; rotations
    are ideal; projections apply the polarization-degraded blockade map.
    Evaluated as Re Tr[E(r) rho] on the effect of :func:`effect_polynomial`.
    """
    effect = polynomial_value(effect_polynomial(seq, noise.g, noise.delta_tau), noise.r)
    return float(np.sum(effect * as_density_array(rho).T).real)


def ideal_effect_operator(seq: MeasureSequence, g: float) -> np.ndarray:
    """Hermitian effect E with Tr[E rho] = success probability at r = 1, delta_tau = 0.

    The r = 1 value of :func:`effect_polynomial` without timing noise.
    Satisfies 0 <= E <= 1 and is independent of g because the Evolve
    durations are stored in units of 1/g.
    """
    return hermitize(effect_polynomial(seq, g, 0.0).sum(axis=0))


# ----------------------------------------------------------------------------
# Monte Carlo evaluation
# ----------------------------------------------------------------------------

_MC_CHUNK = 250_000


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo probability estimate with its binomial standard error."""

    estimate: float
    stderr: float
    n_samples: int


def sample_initial_states(rho, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n pure states from the eigen-mixture of rho, as an F-ordered (n, 4) array."""
    arr = as_density_array(rho)
    evals, evecs = np.linalg.eigh(hermitize(arr))
    probs = np.clip(evals.real, 0.0, None)
    total = probs.sum()
    if total <= 0:
        raise ValueError("cannot sample from a zero state")
    probs = probs / total
    idx = rng.choice(DIM, size=n, p=probs)
    return evecs[:, idx].T.astype(complex)


def _apply_unitary(psi: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Rows psi[i] -> u psi[i] as scalar-column multiply-adds, skipping zero entries of u."""
    out = np.empty_like(psi)
    term = np.empty(psi.shape[0], dtype=complex)
    for k in range(DIM):
        col = out[:, k]
        first, *rest = np.flatnonzero(u[k])
        np.multiply(psi[:, first], u[k, first], out=col)
        for j in rest:
            col += np.multiply(psi[:, j], u[k, j], out=term)
    return out


def propagate_sequence_samples(
    psi: np.ndarray,
    alive: np.ndarray,
    seq: MeasureSequence,
    noise: NoiseParams,
    rng: np.random.Generator,
    lead: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run one batch of pure-state trajectories through a sequence.

    psi is (n, 4), one state per row, worked on as the four contiguous
    columns of an F-ordered complex array (updated in place if psi is one,
    else copied first); alive marks trajectories whose declared outcomes have
    all occurred so far and is updated in place.  lead, if given, is a
    noise-free unitary applied before the first step.

    * Each run of noise-free unitaries (lead first, then rotations) is fused
      into one 4x4 matrix and applied column by column.
    * Exchange has the triplet level g and the singlet level -3g, so an
      Evolve of duration tau is, up to the global phase exp(-i g tau), the
      singlet phase alone: d = (c1 - c2)(exp(4i g tau) - 1)/2, c1 += d,
      c2 -= d.  States are therefore equal to the exact evolution only up
      to a global phase per trajectory.
    * A projection reads p_up = |c0|^2 + |c1|^2.  Between projections the
      trajectory collapses onto its branch and is renormalized; after the
      last one it is left as the projection read it.

    Draws, for every trajectory regardless of alive: one normal per Evolve
    (dispersion noise.sampled_delta_tau), then two uniforms per projection
    (readout branch, Born acceptance), in step order, so the stream layout
    is deterministic.
    """
    n = psi.shape[0]
    psi = np.asfortranarray(psi, dtype=complex)
    correct_weight, _ = branch_weights(noise.r)
    pending = lead
    for i, step in enumerate(seq.steps):
        if isinstance(step, Rotate):
            u = rotation_unitary(step)
            pending = u if pending is None else u @ pending
            continue
        if pending is not None:
            psi = _apply_unitary(psi, pending)
            pending = None
        c0, c1, c2, c3 = (psi[:, k] for k in range(DIM))
        if isinstance(step, Evolve):
            phase = rng.normal(step.mean_time / noise.g, noise.sampled_delta_tau, size=n)
            phase *= 4.0 * noise.g
            rotor = np.empty(n, dtype=complex)
            np.cos(phase, out=rotor.real)
            np.sin(phase, out=rotor.imag)
            rotor -= 1.0
            d = c1 - c2
            d *= 0.5
            d *= rotor
            c1 += d
            c2 -= d
            continue
        correct = rng.random(n) < correct_weight
        want_up = correct if step.declared == UP else ~correct
        p_up = c0.real ** 2 + c0.imag ** 2 + c1.real ** 2 + c1.imag ** 2
        p_phys = np.where(want_up, p_up, 1.0 - p_up)
        alive &= rng.random(n) < p_phys
        if i < len(seq.steps) - 1:
            scale = 1.0 / np.sqrt(np.maximum(p_phys, 1e-300))
            up_scale = np.where(want_up, scale, 0.0)
            down_scale = scale - up_scale
            c0 *= up_scale
            c1 *= up_scale
            c2 *= down_scale
            c3 *= down_scale
    return psi, alive


def sequence_probability_mc(
    seq: MeasureSequence,
    rho,
    noise: NoiseParams,
    n_samples: int,
    rng: np.random.Generator,
) -> McEstimate:
    """Unbiased Monte Carlo estimate of :func:`sequence_probability`.

    Each trajectory draws a Gaussian duration per Evolve step, a Bernoulli
    readout branch per projection, and a Born-rule acceptance for the branch
    projector; the estimate is the surviving fraction.
    """
    return _survival_estimates(
        [(seq, rng)], noise, n_samples, lambda m, chunk_rng: sample_initial_states(rho, m, chunk_rng)
    )[0]


def _survival_estimates(runs, noise, n_samples, sample_states, lead=None) -> list:
    """Surviving fraction of n_samples trajectories for each (sequence, rng) run.

    Trajectories go in chunks of _MC_CHUNK; sample_states(m, rng) draws a
    chunk's (m, 4) starting states from rng before the sequence draws its own,
    and lead is the noise-free unitary that precedes every sequence.
    Looping over the runs here, not per call, keeps the chunk buffers' heap in
    use between sequences; a call per sequence made Monte Carlo QPT ~15% slower.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    estimates = []
    for seq, rng in runs:
        successes = 0
        remaining = int(n_samples)
        while remaining > 0:
            m = min(remaining, _MC_CHUNK)
            psi = sample_states(m, rng)
            alive = np.ones(m, dtype=bool)
            _, alive = propagate_sequence_samples(psi, alive, seq, noise, rng, lead=lead)
            successes += int(alive.sum())
            remaining -= m
        p_hat = successes / n_samples
        stderr = float(np.sqrt(p_hat * (1.0 - p_hat) / n_samples))
        estimates.append(McEstimate(estimate=float(p_hat), stderr=stderr, n_samples=int(n_samples)))
    return estimates


# ----------------------------------------------------------------------------
# Line-oriented sequence serialization
# ----------------------------------------------------------------------------

def format_sequence(seq: MeasureSequence) -> str:
    """One primitive per line: P+, P-, E <time>, R <X|A|G> <x|y|z> <theta>."""
    lines = []
    for step in seq.steps:
        if isinstance(step, Project):
            lines.append("P+" if step.declared == UP else "P-")
        elif isinstance(step, Evolve):
            lines.append(f"E {step.mean_time!r}")
        else:
            scope = "G" if step.scope == "global" else step.scope
            lines.append(f"R {scope} {step.axis} {step.theta!r}")
    return "\n".join(lines) + "\n"


def _parse_step(raw: str) -> MeasurePrimitive:
    line = raw.strip()
    if line == "P+":
        return Project(UP)
    if line == "P-":
        return Project(DOWN)
    if line.startswith("E "):
        return Evolve(mean_time=float(line[2:]))
    if line.startswith("R "):
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"malformed rotation line: {raw!r}")
        scope = {"X": "X", "A": "A", "G": "global"}.get(parts[1])
        if scope is None:
            raise ValueError(f"unknown rotation scope in line: {raw!r}")
        return Rotate(scope=scope, axis=parts[2], theta=float(parts[3]))
    raise ValueError(f"unrecognized sequence line: {raw!r}")


def parse_sequence(text: str) -> MeasureSequence:
    """Inverse of :func:`format_sequence`; round-trips exactly."""
    steps = [_parse_step(raw) for raw in text.splitlines() if raw.strip()]
    return MeasureSequence(steps=tuple(steps))


def format_sequences(sequences) -> str:
    """Several sequences in one document, separated by blank lines."""
    return "\n".join(format_sequence(seq) for seq in sequences)


def parse_sequences(text: str) -> tuple:
    """Inverse of :func:`format_sequences`."""
    sequences = []
    block: list = []
    for raw in text.splitlines():
        if raw.strip():
            block.append(_parse_step(raw))
        elif block:
            sequences.append(MeasureSequence(steps=tuple(block)))
            block = []
    if block:
        sequences.append(MeasureSequence(steps=tuple(block)))
    return tuple(sequences)
