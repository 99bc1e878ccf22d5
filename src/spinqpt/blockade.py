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

The module works in units of 1/g: Evolve durations are g*t and the timing
noise is the dimensionless gdtau, so serialized sequences are coupling
independent.  The analytic evaluator back-propagates the identity
through the sequence once (Heisenberg picture): each Evolve step applies the
adjoint of the averaged exchange pulse, affine in its damping D = exp(-8 gdtau^2),
and each projection the self-adjoint blockade map, affine in r.  The result,
the sequence's noisy effect as an exact polynomial in D and r, serves every
input state and every noise point.  The Monte Carlo evaluators sample a duration per
Evolve step and a readout branch per projection, giving an independent
unbiased estimate: :func:`sequence_probability_mc` counts the trajectories
that also pass a Born acceptance draw, and the process-tomography driver
weights each trajectory by the Born probabilities instead.

The Monte Carlo trajectories are pure states held as four state columns.
Each run of noise-free rotations is fused into one 4x4 matrix, and since
the exchange coupling has only two levels (triplet g, singlet -3g) an
Evolve step is a single relative phase on the singlet component; no BLAS
product and no complex exponential is needed.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Union

import numpy as np

from .dynamics import _EXCHANGE_BLOCKS, NoiseParams, exchange_coherence, global_rotation, local_rotation
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


def effect_polynomial(seq: MeasureSequence) -> np.ndarray:
    """Noisy effect of a sequence as exact coefficients E_cj of D^c r^j, shape (m + 1, k + 1, 4, 4).

    m counts the Evolve steps and k = seq.n_projections.  Tr[(sum D^c r^j E_cj) rho]
    is the success probability at polarization r and timing noise gdtau (units of 1/g),
    D = exp(-8 gdtau^2); polynomial_value at D, then at r, evaluates it.  Built by one
    Heisenberg back-propagation of the identity: walking the steps in reverse, a
    projection maps E_cj -> M0(E_cj) +/- M1(E_c,j-1), an Evolve step keeps the exchange
    blocks of E_cj at D^c and adds the adjoint of its coherences at D^(c+1), and a
    rotation u maps E -> u† E u.  Each coefficient is Hermitian.
    """
    n_evolves = sum(isinstance(s, Evolve) for s in seq.steps)
    coeffs = np.zeros((n_evolves + 1, seq.n_projections + 1, DIM, DIM), dtype=complex)
    coeffs[0, 0] = np.eye(DIM)
    for step in reversed(seq.steps):
        if isinstance(step, Project):
            odd = coeffs[:, :-1] * (_EDGE_SIGN if step.declared == UP else -_EDGE_SIGN)
            coeffs *= _SAME_EDGE
            coeffs[:, 1:] += odd
        elif isinstance(step, Evolve):
            # vec(E) of each coefficient is row n*4+m of E.T; apply S† to it.
            rows = coeffs.swapaxes(-1, -2).reshape(-1, DIM * DIM)
            coeffs, coherences = ((rows @ superop.conj()).reshape(coeffs.shape).swapaxes(-1, -2)
                                  for superop in (_EXCHANGE_BLOCKS, exchange_coherence(step.mean_time)))
            coeffs[1:] += coherences[:-1]       # coherences[-1] is zero: m Evolves reach D^m
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

    Evolve steps act through the Gaussian-averaged exchange pulse at the
    step's mean duration and the dispersion noise.gdtau, both in units of
    1/g; rotations are ideal; projections apply the polarization-degraded
    blockade map.  Evaluated as Re Tr[E rho] on :func:`effect_polynomial` at D = d^4, r.
    """
    effect = polynomial_value(polynomial_value(effect_polynomial(seq), noise.dephasing ** 4), noise.r)
    return float(np.sum(effect * as_density_array(rho).T).real)


def ideal_effect_operator(seq: MeasureSequence) -> np.ndarray:
    """Hermitian effect E with Tr[E rho] = success probability at r = 1, gdtau = 0.

    The value of :func:`effect_polynomial` at r = D = 1, hermitized;
    satisfies 0 <= E <= 1.
    """
    return hermitize(effect_polynomial(seq).sum(axis=(0, 1)))


# ----------------------------------------------------------------------------
# Monte Carlo evaluation
# ----------------------------------------------------------------------------

_MC_CHUNK = 250_000
#: Most rows one kernel call takes when inputs are stacked; a larger chunk runs alone.
_MC_STACK_ROWS = 16_384


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
    return evecs[:, idx].T.astype(complex, order="F")


def _apply_unitary(psi: np.ndarray, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Rows psi[i] -> u psi[i] into out (new if None), as column multiply-adds skipping zeros of u."""
    out = np.empty_like(psi) if out is None else out
    term = np.empty(psi.shape[0], dtype=complex)
    for k in range(DIM):
        col = out[:, k]
        first, *rest = np.flatnonzero(u[k])
        np.multiply(psi[:, first], u[k, first], out=col)
        for j in rest:
            col += np.multiply(psi[:, j], u[k, j], out=term)
    return out


def _fuse(pending: np.ndarray | None, step: Rotate) -> np.ndarray:
    """The step's rotation u after the pending unitary, u @ pending; u alone if there is none."""
    u = rotation_unitary(step)
    return u if pending is None else u @ pending


def _blockwise(rngs: tuple, n: int, method: str, *args) -> np.ndarray:
    """n draws in one array, block b of n // len(rngs) of them by rngs[b].method(*args, size=...)."""
    if len(rngs) == 1:
        return getattr(rngs[0], method)(*args, size=n)
    return np.concatenate([getattr(rng, method)(*args, size=n // len(rngs)) for rng in rngs])


def _times(weight: np.ndarray | None, factor: np.ndarray) -> np.ndarray:
    """weight * factor, in place; factor itself (not copied) if there is no weight yet."""
    return factor if weight is None else np.multiply(weight, factor, out=weight)


def _evolve_rotors(durations: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(exp(4i tau) - 1) / 2 for each duration tau (units of 1/g): the kernel's Evolve factor."""
    phase = np.multiply(durations, 4.0)
    out = np.empty(phase.shape, dtype=complex) if out is None else out
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    out -= 1.0
    out *= 0.5
    return out


def propagate_sequence_samples(
    psi: np.ndarray,
    seq: MeasureSequence,
    noise: NoiseParams,
    rng: np.random.Generator | tuple,
    lead: np.ndarray | None = None,
    rotors: tuple | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run one batch of pure-state trajectories through a sequence.

    psi is (n, 4), one state per row, worked on as the four contiguous
    columns of an F-ordered complex array (updated in place if psi is a
    writeable one, else copied before the first write).  lead, if given, is
    a noise-free unitary applied before the first step.

    * Each run of noise-free unitaries (lead first, then rotations) is fused
      into one 4x4 matrix and applied column by column.
    * Exchange has the triplet level 1 and the singlet level -3 (units of
      g), so an Evolve of duration tau is, up to the global phase
      exp(-i tau), the singlet phase alone: d = (c1 - c2) rotor, c1 += d,
      c2 -= d, with rotor = (exp(4i tau) - 1)/2 (:func:`_evolve_rotors`).
      States are therefore equal to the exact evolution only up to a global
      phase per trajectory.
    * A projection reads p_up = |c0|^2 + |c1|^2.  Between projections the
      trajectory collapses onto its readout branch and is renormalized;
      after the last one it is left as the projection read it.

    Two estimators share the kernel:

    * Bernoulli (rotors None): returns the states and alive, which marks the
      trajectories whose declared outcomes all occurred.  Per generator and
      for every trajectory of its block regardless of alive: one normal per
      Evolve (dispersion noise.sampled_gdtau), then two uniforms per
      projection (readout branch, Born acceptance), in step order.
    * Weighted (rotors given, one (n,) rotor array per Evolve step in step
      order, read and never written): returns the states and float64
      weights whose mean is the success probability.  A projection before
      the last draws its readout branch, one uniform per trajectory, and
      multiplies the weight by the Born probability of that branch; the
      last projection draws nothing and multiplies it by the declaration
      probability, (1-r)/2 + r p_up for "up" and (1+r)/2 - r p_up for
      "down".  Every weight lies in [0, 1].

    rng is one generator, or a tuple of them that splits the rows into as
    many equal consecutive blocks, block b drawn by rng[b].  A block
    therefore draws exactly what the same generator would draw running
    those rows alone, and the stream layout is deterministic.
    """
    n = psi.shape[0]
    rngs = rng if isinstance(rng, tuple) else (rng,)
    psi = np.asfortranarray(psi, dtype=complex)
    weighted = rotors is not None
    if weighted:
        rotors = iter(rotors)
        weight = None
    else:
        alive = np.ones(n, dtype=bool)
    correct_weight, _ = branch_weights(noise.r)
    pending = lead
    last = len(seq.steps) - 1
    for i, step in enumerate(seq.steps):
        if isinstance(step, Rotate):
            pending = _fuse(pending, step)
            continue
        if pending is not None:
            psi = _apply_unitary(psi, pending)
            pending = None
        elif not psi.flags.writeable:
            psi = psi.copy(order="F")
        c0, c1, c2, c3 = (psi[:, k] for k in range(DIM))
        if isinstance(step, Evolve):
            if weighted:
                rotor = next(rotors)
            else:
                rotor = _evolve_rotors(_blockwise(rngs, n, "normal", step.mean_time, noise.sampled_gdtau))
            d = c1 - c2
            d *= rotor
            c1 += d
            c2 -= d
            continue
        p_up = c0.real ** 2 + c0.imag ** 2 + c1.real ** 2 + c1.imag ** 2
        if weighted:
            np.minimum(p_up, 1.0, out=p_up)         # a unit state's p_up may round past 1
            if i == last:
                signed_r = noise.r if step.declared == UP else -noise.r
                p_up *= signed_r
                p_up += 0.5 * (1.0 - signed_r)
                weight = _times(weight, p_up)
                break
        correct = _blockwise(rngs, n, "random") < correct_weight
        want_up = correct if step.declared == UP else ~correct
        p_phys = np.where(want_up, p_up, 1.0 - p_up)
        if weighted:
            weight = _times(weight, p_phys)
        else:
            alive &= _blockwise(rngs, n, "random") < p_phys
        if i < last:
            scale = 1.0 / np.sqrt(np.maximum(p_phys, 1e-300))
            up_scale = np.where(want_up, scale, 0.0)
            down_scale = scale - up_scale
            c0 *= up_scale
            c1 *= up_scale
            c2 *= down_scale
            c3 *= down_scale
    return psi, (weight if weighted else alive)


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
    projector; the estimate is the surviving fraction, so its error is
    binomial.  Per chunk, rng draws the starting states, then the
    sequence's own draws.
    """
    p_hat, cov = _survival_estimates(
        (seq,), [(lambda m: sample_initial_states(rho, m, rng), (rng,), None)], noise, n_samples
    )
    return McEstimate(estimate=float(p_hat[0, 0]), stderr=float(np.sqrt(cov[0, 0, 0])),
                      n_samples=operator.index(n_samples))


def _sample_count(n_samples) -> int:
    """n_samples as an int; anything but an integer of at least 1, True included, is rejected."""
    try:
        n = operator.index(n_samples)
    except TypeError:
        n = 0
    if isinstance(n_samples, bool) or n < 1:
        raise ValueError(f"n_samples must be an integer of at least 1, got {n_samples!r}")
    return n


def _prefix_families(sequences, lead) -> list:
    """The sequences grouped by their leading run of rotations, in order of first appearance.

    One (fused, members) pair per distinct run: fused is the run fused onto lead as the kernel
    fuses it, None if both are empty; members holds (index, the sequence after the run).
    """
    families: dict = {}
    for s, seq in enumerate(sequences):
        k = next(i for i, step in enumerate(seq.steps) if not isinstance(step, Rotate))
        families.setdefault(seq.steps[:k], []).append((s, MeasureSequence(steps=seq.steps[k:])))
    return [(functools.reduce(_fuse, run, lead), members) for run, members in families.items()]


def _evolve_slots(sequences) -> tuple[list, list]:
    """The distinct Evolve slots and, per sequence, the slot of each of its Evolve steps.

    A slot is (mean_time, k) for the k-th Evolve step of a sequence; slots are listed in
    order of first appearance.  Two steps of one sequence never share a slot.
    """
    slots: dict = {}
    members = []
    for seq in sequences:
        times = [step.mean_time for step in seq.steps if isinstance(step, Evolve)]
        members.append([slots.setdefault(key, len(slots)) for key in zip(times, itertools.count())])
    return [time for time, _ in slots], members


def _survival_estimates(sequences, inputs, noise, n_samples, lead=None) -> tuple[np.ndarray, np.ndarray]:
    """Mean success of n_samples trajectories per input and sequence, and their covariance.

    inputs holds one (sample_states, rngs, durations) triple per input:
    sample_states(m) draws its (m, 4) starting states, rngs[s] is its
    generator for sequence s, and durations is None for the Bernoulli
    estimator or the input's duration generator for the weighted one (see
    :func:`propagate_sequence_samples`); every input takes the same
    estimator.  Per chunk of _MC_CHUNK trajectories the inputs go in groups
    of up to _MC_STACK_ROWS // m, at least one; each draws its batch once,
    read-only, and the group's batches are stacked.  A weighted input then
    draws one Normal(mean_time, noise.sampled_gdtau) column per Evolve slot
    (:func:`_evolve_slots`) in slot order and turns it into rotors once;
    every sequence with that slot reads them.  lead and each distinct
    leading run of rotations are applied to the stack once; each sequence of
    that run copies the result into a reused buffer and runs its other steps
    in one kernel call, every input's block drawn by that input's generators.
    Grouping therefore changes no draw.

    An input's sequences share its batch (and its rotors), so each input
    gets the full covariance of its means, (mean(w_s w_t) - p_s p_t) / n,
    with w_s the float64 row of trajectory results for sequence s (0/1 for
    the Bernoulli estimator, weights for the other).  p_s is the row sum
    over n; the products are summed chunk by chunk in a fixed order, so
    reruns are byte-identical.  Shapes (inputs, sequences) and
    (inputs, sequences, sequences).
    """
    n = _sample_count(n_samples)
    families = _prefix_families(sequences, lead)
    slot_times, seq_slots = _evolve_slots(sequences)
    inputs = list(inputs)
    weighted = inputs[0][2] is not None
    sums = np.zeros((len(inputs), len(sequences)))
    products = np.zeros((len(inputs), len(sequences), len(sequences)))
    for done in range(0, n, _MC_CHUNK):
        m = min(n - done, _MC_CHUNK)
        per_group = max(1, _MC_STACK_ROWS // m)
        width = min(per_group, len(inputs)) * m
        results = np.empty((len(sequences), width))
        rotors = np.empty((len(slot_times) if weighted else 0, width), dtype=complex)
        buffers = [np.empty(width * DIM, dtype=complex) for _ in range(3)]
        for first in range(0, len(inputs), per_group):
            group = inputs[first:first + per_group]
            rows = len(group) * m
            stacked, prefixed, work = (b[: rows * DIM].reshape((rows, DIM), order="F") for b in buffers)
            batches = [sample_states(m) for sample_states, _, _ in group]
            for batch in batches:
                batch.setflags(write=False)
            psi = batches[0] if len(group) == 1 else np.concatenate(batches, out=stacked)
            if weighted:
                for i, (_, _, durations) in enumerate(group):
                    for slot, time in enumerate(slot_times):
                        _evolve_rotors(durations.normal(time, noise.sampled_gdtau, size=m),
                                       out=rotors[slot, i * m:(i + 1) * m])
            for fused, members in families:
                state = psi if fused is None else _apply_unitary(psi, fused, out=prefixed)
                for s, rest in members:
                    np.copyto(work, state)
                    rngs = tuple(streams[s] for _, streams, _ in group)
                    shared = tuple(rotors[slot, :rows] for slot in seq_slots[s]) if weighted else None
                    results[s, :rows] = propagate_sequence_samples(work, rest, noise, rngs, rotors=shared)[1]
            for i, block in enumerate(np.split(results[:, :rows], len(group), axis=1), start=first):
                sums[i] += block.sum(axis=1)
                products[i] += block @ block.T
            del batches, batch, psi, state      # freed before the next group draws
    p_hat = sums / n
    return p_hat, (products / n - p_hat[:, :, None] * p_hat[:, None, :]) / n


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
    """Inverse of :func:`format_sequences`: each run of non-blank lines is one sequence."""
    blocks = itertools.groupby(text.splitlines(), key=lambda raw: bool(raw.strip()))
    return tuple(parse_sequence("\n".join(lines)) for filled, lines in blocks if filled)
