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
independent.  An operator X is read by its 16 real features Tr[P_b X] over
PAULI_BASIS (:func:`_features`), so X = sum_b features(X)_b P_b / 4 and the
effect with Tr[E rho] = c . features(rho) is E = sum_b c_b P_b.  Each step is
written once, as maps on the features (:func:`_step_maps`): a rotation's
conjugation, a projection's blockade map at r^0 and r^1, an Evolve step's
exchange pulse at 1, cos 4 tau and sin 4 tau.  The analytic evaluator
back-propagates the identity's coefficients through the sequence once
(Heisenberg picture), an Evolve step's cos and sin parts read at its mean time
and damped by D = exp(-8 gdtau^2).  The result, the sequence's noisy effect as
an exact polynomial in D and r, serves every input state and every noise point;
the Monte Carlo forms back-propagate through the same maps.  The Monte Carlo
evaluators sample a duration per Evolve step and weight each trajectory by its
success probability given its durations, summed over the readout branches in
closed form, giving an unbiased estimate: the process-tomography driver
averages the weights, and :func:`sequence_probability_mc` thins them, counting
a trajectory as alive when a uniform draw falls below its weight, so its errors
stay binomial.

No weight propagates a state or draws a branch.  A trajectory's
weight is the Hermitian form psi† E psi of its starting state, E its
sequence's noisy effect at the drawn durations: each projection acts as its
blockade map, the average over its two readout branches.
:func:`compile_weight_forms` writes each E once per design, as coefficients of
the 16 features of psi psi† for each power of r and each product of
cos 4 tau and sin 4 tau of its Evolve steps, or past two Evolve steps as a step
group, which each trajectory back-propagates through all of its steps.  Every
weight is then linear in the trajectory's features (:class:`TrajectoryFeatures`),
with coefficients that are a polynomial in r built once per design
(:func:`feature_coefficients`), so the estimator keeps only their sums and Gram
matrix (:func:`_feature_moments`).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Union

import numpy as np

from .dynamics import (EXCHANGE_PARTS, SIGMA_I, SIGMA_X, SIGMA_Y, SIGMA_Z, NoiseParams, global_rotation,
                       local_rotation)
from .qcore import DIM, PROJ_DOWN, PROJ_UP, as_density_array, hermitize, unvec, vec

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


#: Pauli product basis P_b, X factor first, a read-only (16, 4, 4) stack; index 0 is the identity.
PAULI_BASIS = np.array([np.kron(p, q) for p in (SIGMA_I, SIGMA_X, SIGMA_Y, SIGMA_Z)
                        for q in (SIGMA_I, SIGMA_X, SIGMA_Y, SIGMA_Z)])
PAULI_BASIS.setflags(write=False)
#: Column b is P_b transposed and raveled, so X.ravel() @ column b is Tr[P_b X].
_PAULI_READ = PAULI_BASIS.swapaxes(-1, -2).reshape(16, 16).T.copy()


def _features(ops: np.ndarray) -> np.ndarray:
    """The 16 real features Tr[P_b X] of each Hermitian X of a (..., 4, 4) stack, so that
    X = sum_b features(X)_b P_b / 4 and an effect E = sum_b c_b P_b has Tr[E X] = c . features(X).
    For X = psi psi† they read psi† P_b psi."""
    return (np.reshape(ops, (*np.shape(ops)[:-2], 16)) @ _PAULI_READ).real


@functools.lru_cache(maxsize=256)
def _step_maps(step) -> np.ndarray:
    """A step as parts S_k on the 16 features, shape (K, 16, 16): features(S_k(X)) = maps[k] @
    features(X), so on the coefficients c of an effect, Tr[E rho] = c . features(rho), part k acts
    as c -> c @ maps[k].  Read-only, built once per distinct step.

    A rotation u has one part, X -> u X u†.  A projection has two, the r^0 and r^1 coefficients of
    its :func:`blockade_map`.  An Evolve step of duration tau has EXCHANGE_PARTS, at 1, cos 4 tau
    and sin 4 tau.
    """
    duals = PAULI_BASIS / 4                          # X = sum_j features(X)_j duals[j]
    if isinstance(step, Evolve):
        images = unvec(vec(duals) @ EXCHANGE_PARTS.swapaxes(-1, -2))      # [k, j] = S_k(duals[j])
    elif isinstance(step, Rotate):
        u = (global_rotation(step.axis, step.theta) if step.scope == "global"
             else local_rotation(step.scope, step.axis, step.theta))
        images = (u @ duals @ u.conj().T)[None]
    else:
        even, full = (np.array([blockade_map(dual, step.declared, r) for dual in duals]) for r in (0.0, 1.0))
        images = np.array([even, full - even])
    maps = np.ascontiguousarray(_features(images).swapaxes(-1, -2))
    maps.setflags(write=False)
    return maps


def effect_polynomial(seq: MeasureSequence) -> np.ndarray:
    """Noisy effect of a sequence as exact coefficients E_cj of D^c r^j, shape (m + 1, k + 1, 4, 4).

    m counts the Evolve steps and k = seq.n_projections.  Tr[(sum D^c r^j E_cj) rho]
    is the success probability at polarization r and timing noise gdtau (units of 1/g),
    D = exp(-8 gdtau^2); polynomial_value at D, then at r, evaluates it.  Built by one
    Heisenberg back-propagation of the identity's features through the steps' :func:`_step_maps`:
    a projection's r^1 part, and an Evolve step's cos and sin parts at its mean time, move a
    coefficient up one power of r or of D.  Each coefficient is real on PAULI_BASIS, so each
    E_cj is exactly Hermitian.
    """
    n_evolves = sum(isinstance(s, Evolve) for s in seq.steps)
    coeffs = np.zeros((n_evolves + 1, seq.n_projections + 1, 16))
    coeffs[0, 0, 0] = 1.0                           # Tr[1 rho] = features(rho)_0
    for step in reversed(seq.steps):
        maps = _step_maps(step)
        if isinstance(step, Evolve):
            phase = 4.0 * step.mean_time
            maps = np.array([maps[0], math.cos(phase) * maps[1] + math.sin(phase) * maps[2]])
        images = coeffs @ maps[:, None]
        coeffs = images[0]
        if isinstance(step, Project):
            coeffs[:, 1:] += images[1, :, :-1]      # images[1, :, -1] is zero: k projections reach r^k
        elif isinstance(step, Evolve):
            coeffs[1:] += images[1, :-1]            # images[1, -1] is zero: m Evolve steps reach D^m
    return np.tensordot(coeffs, PAULI_BASIS, axes=1)


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


# ----------------------------------------------------------------------------
# Monte Carlo evaluation
# ----------------------------------------------------------------------------

_MC_CHUNK = 250_000
#: Trajectories of a chunk whose features are evaluated and summed together; bounds the (features, rows) array.
_MC_BLOCK = 4096
#: Most monomials a weight form keeps, the 16 reals of one effect (r is folded in before a form is
#: evaluated, so a form costs its monomials); m Evolve steps make 3^m, at most _FORM_EVOLVES keep one.
_FORM_TERMS = 16
_FORM_EVOLVES = max(m for m in range(_FORM_TERMS) if 3 ** m <= _FORM_TERMS)


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo probability estimate with its binomial standard error."""

    estimate: float
    stderr: float
    n_samples: int


def sample_initial_states(rho, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n pure states from the eigen-mixture of the density matrix rho, as an F-ordered (n, 4) array.

    rho must have unit trace and no eigenvalue below 0, both within 1e-12; an eigenvalue in
    [-1e-12, 0) counts as 0.
    """
    evals, evecs = np.linalg.eigh(hermitize(as_density_array(rho)))
    trace = evals.sum()
    if abs(trace - 1.0) > 1e-12 or evals[0] < -1e-12:
        raise ValueError("rho must be a density matrix, of trace 1 with no negative eigenvalue (within 1e-12), "
                         f"got trace {float(trace)!r} and least eigenvalue {float(evals[0])!r}")
    probs = np.clip(evals, 0.0, None)
    idx = rng.choice(DIM, size=n, p=probs / probs.sum())
    return evecs[:, idx].T.astype(complex, order="F")


def propagate_sequence_samples(
    psi: np.ndarray,
    seq: MeasureSequence,
    noise: NoiseParams,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Thin one batch of trajectories through a sequence; return their weights and alive.

    psi is (n, 4), one starting state per row, read and never written.  rng draws one
    Normal(mean_time, noise.sampled_gdtau) row of n durations per Evolve slot of the sequence's
    forms, in slot order (for one sequence, its Evolve steps in step order), then n uniforms u.
    weights[k] is trajectory k's success probability given its durations, its sequence's weight
    form at its state (:class:`TrajectoryFeatures` and :func:`feature_coefficients` on a state
    batch, _MC_BLOCK rows at a time), and alive is u < weights.  So each trajectory is alive with
    probability the sequence's success probability, independently of the others.
    """
    n = psi.shape[0]
    forms = compile_weight_forms((seq,))
    durations = np.reshape([rng.normal(time, noise.sampled_gdtau, size=n) for time in forms.slot_times],
                           (len(forms.slot_times), n))
    u = rng.random(n)
    features = TrajectoryFeatures(forms, noise, _STATE_BASIS)
    coefficients = polynomial_value(feature_coefficients(forms, _STATE_BASIS)[:, 0, 0], noise.r)
    weights = np.empty(n)
    for start in range(0, n, _MC_BLOCK):
        rows = slice(start, min(start + _MC_BLOCK, n))
        states = psi[rows]
        weights[rows] = coefficients @ features(
            _features(states[:, :, None] * states[:, None].conj()).T, durations[:, rows])
    return weights, u < weights


def _whole_number(value, name: str, least: int) -> int:
    """value as an int; anything but an integer >= least, True included, raises a ValueError naming name."""
    try:
        n = operator.index(value)
    except TypeError:
        n = least - 1
    if isinstance(value, bool) or n < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
    return n


def sequence_probability_mc(
    seq: MeasureSequence,
    rho,
    noise: NoiseParams,
    n_samples: int,
    rng: np.random.Generator,
) -> McEstimate:
    """Unbiased Monte Carlo estimate of :func:`sequence_probability` for a density matrix rho.

    Each trajectory starts at a pure state drawn from rho's eigen-mixture, draws a Gaussian
    duration per Evolve step and is alive with probability its weight, its success probability
    given those durations (:func:`propagate_sequence_samples`).  Trajectories are alive
    independently, each with the sequence's success probability, so the estimate is the alive
    fraction and its error is binomial.  Per chunk of _MC_CHUNK trajectories, rng draws the
    starting states, then one duration row per Evolve step, then one uniform per trajectory.
    """
    n = _whole_number(n_samples, "n_samples", 1)
    hits = 0
    for done in range(0, n, _MC_CHUNK):
        m = min(n - done, _MC_CHUNK)
        hits += int(np.count_nonzero(propagate_sequence_samples(sample_initial_states(rho, m, rng),
                                                                seq, noise, rng)[1]))
    p_hat = hits / n
    return McEstimate(estimate=p_hat, stderr=math.sqrt((p_hat - p_hat * p_hat) / n), n_samples=n)


# A readout branch is drawn independently of the state, with probability (1 + r)/2 of being the
# declared one.  Along a trajectory the Born factor each collapse multiplies the weight by and the
# renormalization after it therefore cancel: the weight is the Hermitian form psi† E psi of the
# starting state psi, with E the sequence's effect along the drawn branches and durations,
# unnormalized projectors in place of the collapses.  Averaged over the branches, with their
# probabilities (1 ± r)/2, each projection becomes the blockade map and E the sequence's noisy
# effect at the drawn durations: a polynomial in r, and in (1, cos 4 tau, sin 4 tau) for each Evolve
# duration tau.  Written over the 16 real features of psi psi†, every weight is one dot product.

def _evolve_slots(sequences) -> tuple[list, list]:
    """The distinct Evolve slots and, per sequence, the slot of each of its steps, None for a step
    that is not an Evolve step.

    A slot is (mean_time, k) for the k-th Evolve step of a sequence; slots are listed in
    order of first appearance.  Two steps of one sequence never share a slot.
    """
    slots: dict = {}
    members = []
    for seq in sequences:
        evolves = itertools.count()
        members.append([slots.setdefault((step.mean_time, next(evolves)), len(slots)) if isinstance(step, Evolve)
                        else None for step in seq.steps])
    return [time for time, _ in slots], members


def _weight_form(seq: MeasureSequence, slots: list) -> dict:
    """The sequence's weight as a form of the trajectory state, for at most _FORM_EVOLVES Evolve steps.

    Back-propagates the identity through the steps, the last first.  The result maps (power,
    monomial) to the 16 coefficients of r^power times the monomial, a sorted tuple of (slot, 1) for
    cos 4 tau and (slot, 2) for sin 4 tau, () for 1.  Equal keys merge, so k projections and m
    Evolve steps make at most (k + 1) 3^m terms.
    """
    terms = {(0, ()): np.eye(16)[0]}                  # Tr[1 rho] = features(rho)_0
    for step, slot in zip(reversed(seq.steps), reversed(slots)):
        split: dict = {}
        for (power, monomial), coeffs in terms.items():
            for k, step_map in enumerate(_step_maps(step)):
                if isinstance(step, Project):
                    key = (power + k, monomial)
                else:
                    key = (power, tuple(sorted(monomial + ((slot, k),))) if k else monomial)
                split[key] = split.get(key, 0.0) + coeffs @ step_map
        terms = split
    return terms


@dataclass(frozen=True, eq=False)
class _FormGroup:
    """Sequences whose weights share one set of monomials, each of at most _FORM_EVOLVES Evolve steps.

    coeffs[j, m, :, col] holds the coefficients of r^j times monomial m of member col.
    """

    members: tuple
    monomials: tuple
    coeffs: np.ndarray


@dataclass(frozen=True, eq=False)
class _StepGroup:
    """One sequence of more than _FORM_EVOLVES Evolve steps, each step in order as (maps, slot): its
    :func:`_step_maps`, and slot None for a rotation or a projection, the Evolve slot for an Evolve step.
    """

    members: tuple
    steps: tuple


@dataclass(frozen=True, eq=False)
class WeightForms:
    """The Monte Carlo weights of a tuple of sequences as Hermitian forms, compiled once.

    slot_times holds the mean time of each Evolve slot in draw order.
    """

    slot_times: tuple
    groups: tuple

    @property
    def n_sequences(self) -> int:
        return sum(len(group.members) for group in self.groups)


def compile_weight_forms(sequences) -> WeightForms:
    """The weight forms of the sequences, built with a design and shared by all its runs.

    The sequences of at most _FORM_EVOLVES Evolve steps make one form group, the first, over the
    union of their monomials (the shipped design's 15, over 1, cos 4 tau and sin 4 tau).  Each
    longer sequence is a step group of its own.
    """
    slot_times, step_slots = _evolve_slots(sequences)
    shared = [s for s, slots in enumerate(step_slots) if len(slots) - slots.count(None) <= _FORM_EVOLVES]
    groups = [_form_group(shared, [_weight_form(sequences[s], step_slots[s]) for s in shared])] if shared else []
    groups += [_StepGroup((s,), tuple(zip(map(_step_maps, sequences[s].steps), slots)))
               for s, slots in enumerate(step_slots) if s not in shared]
    return WeightForms(tuple(slot_times), tuple(groups))


def _form_group(members, forms) -> _FormGroup:
    """The form group of the given sequences over the union of their monomials, from their forms."""
    monomials = sorted({monomial for form in forms for _, monomial in form}, key=lambda m: (len(m), m))
    index = {monomial: m for m, monomial in enumerate(monomials)}
    n_powers = 1 + max(power for form in forms for power, _ in form)
    coeffs = np.zeros((n_powers, len(monomials), 16, len(members)))
    for col, form in enumerate(forms):
        for (power, monomial), column in form.items():
            coeffs[power, index[monomial], :, col] = column
    coeffs.setflags(write=False)
    return _FormGroup(tuple(members), tuple(monomials), coeffs)


#: The basis of a state batch: one input whose coordinates are the states' own 16 features.
_STATE_BASIS = np.eye(16)[None]
_STATE_BASIS.setflags(write=False)


def feature_coefficients(forms: WeightForms, bases: np.ndarray) -> np.ndarray:
    """The coefficients of the Monte Carlo weights on the trajectory features, as a polynomial in r.

    Shape (k + 1, inputs, sequences, n_features), k the largest power of r of a form: a trajectory
    with feature vector f (:class:`TrajectoryFeatures` on the same forms and bases) weighs
    (sum_j r^j A[j, i, s]) @ f in sequence s of input i.  A form group gives its coefficients with
    the input's basis folded in, exact in r as they are linear in its coeffs[j]; a step group gives
    its member a unit coefficient on each input's own row at r^0.  Built once per design and bases.
    """
    n_inputs, _, width = bases.shape
    n_powers = max((len(group.coeffs) for group in forms.groups if isinstance(group, _FormGroup)), default=1)
    blocks = []
    for group in forms.groups:
        if isinstance(group, _StepGroup):
            block = np.zeros((n_powers, n_inputs, forms.n_sequences, n_inputs))
            block[0, range(n_inputs), group.members[0], range(n_inputs)] = 1.0
        else:                                            # c . (basis @ x) = (basis^T c) . x
            block = np.zeros((n_powers, n_inputs, forms.n_sequences, len(group.monomials) * width))
            terms = np.einsum("pmjc,ijk->picmk", group.coeffs, bases)
            block[: len(terms), :, list(group.members)] = terms.reshape(*terms.shape[:3], -1)
        blocks.append(block)
    return np.concatenate(blocks, axis=-1)


class TrajectoryFeatures:
    """The trajectory features of compiled forms at one noise point: one real vector per trajectory,
    on which every Monte Carlo weight is linear with the coefficients :func:`feature_coefficients`.

    bases is (inputs, 16, K): a trajectory with coordinates x (K reals) starts input i at the state
    whose features are bases[i] @ x (a state batch psi is one input with basis the identity and
    coords its features; a gate batch has seven coordinates per trajectory, shared by every input).

    A call takes the (K, n) coordinates of n trajectories and one row of n Evolve durations (units
    of 1/g) per slot of the forms, draws nothing and returns their (n_features, n) features, an
    array the next call reuses.  A form group gives its monomials of the durations times the
    coordinates, monomial-major.  A step group back-propagates the identity's coefficients through
    its steps, the last first, each Evolve step at each trajectory's own duration and the other
    steps' maps at r, evaluated once per noise point; that effect gives one row per input, its weight.
    """

    def __init__(self, forms: WeightForms, noise: NoiseParams, bases: np.ndarray):
        self.slot_times = forms.slot_times
        self._bases = bases
        self._groups = [(group.monomials, None) if isinstance(group, _FormGroup) else
                        (None, [(polynomial_value(maps, noise.r) if slot is None else maps, slot)
                                for maps, slot in reversed(group.steps)])
                        for group in forms.groups]
        self.n_features = sum(len(bases) if steps else len(monomials) * bases.shape[-1]
                              for monomials, steps in self._groups)
        self._buffer = np.empty(0)

    def __call__(self, coords: np.ndarray, durations) -> np.ndarray:
        n = coords.shape[1]
        phases = 4.0 * np.reshape(durations, (len(self.slot_times), n))
        trig = np.stack([np.cos(phases), np.sin(phases)], axis=1)          # cos, sin of 4 tau per slot
        if self._buffer.size < self.n_features * n:       # reused: a fresh one costs its page faults
            self._buffer = np.empty(self.n_features * n)
        features = self._buffer[: self.n_features * n].reshape(self.n_features, n)
        start = 0
        for monomials, steps in self._groups:
            if steps is None:
                rows = np.array([math.prod((trig[slot, kind - 1] for slot, kind in monomial), start=np.ones(n))
                                 for monomial in monomials])
                size = len(monomials) * len(coords)
                out = features[start:start + size].reshape(len(monomials), len(coords), n)
                np.multiply(rows[:, None], coords, out=out)
                start += size
                continue
            effect = np.eye(16)[0]                         # Tr[1 rho] = features(rho)_0
            for maps, slot in steps:
                effect = effect @ maps
                if slot is not None:
                    cos, sin = trig[slot, :, :, None]
                    effect = effect[0] + cos * effect[1] + sin * effect[2]
            for basis in self._bases:                      # effect . (basis @ x) = (effect @ basis) . x
                np.einsum("tk,kt->t", effect @ basis, coords, out=features[start])
                start += 1
        return features


def _feature_moments(features: TrajectoryFeatures, sample_coords, durations, noise, n_samples
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The mean feature vector of n_samples trajectories and the covariance of that mean.

    Per chunk of _MC_CHUNK trajectories, sample_coords(m) draws the (K, m) coordinates of the
    chunk's trajectories, read-only and shared by every input and sequence; then the generator
    durations draws one Normal(mean_time, noise.sampled_gdtau) row of m per Evolve slot
    (:func:`_evolve_slots`), in slot order, shared the same way.  Each block of _MC_BLOCK
    trajectories goes through features, and only its sums and its Gram matrix are kept.

    The moments are taken about c, the first trajectory's features: with d = f - c, the mean is
    c + mean(d) and the covariance (mean(d d^T) - mean(d) mean(d)^T) / n, exactly 0 for a feature
    that never moves.  Sums and products accumulate block by block in a fixed order, so reruns
    are byte-identical.
    """
    n = _whole_number(n_samples, "n_samples", 1)
    center, sums = np.zeros((2, features.n_features))
    gram = np.zeros((features.n_features, features.n_features))
    for done in range(0, n, _MC_CHUNK):
        m = min(n - done, _MC_CHUNK)
        coords = sample_coords(m)
        coords.setflags(write=False)
        taus = np.reshape([durations.normal(time, noise.sampled_gdtau, size=m) for time in features.slot_times],
                          (len(features.slot_times), m))
        for start in range(0, m, _MC_BLOCK):
            rows = slice(start, min(start + _MC_BLOCK, m))
            block = features(coords[:, rows], taus[:, rows])
            if not done and not start:
                center[:] = block[:, 0]
            block -= center[:, None]
            sums += block.sum(axis=1)
            gram += block @ block.T
    mean = sums / n
    return center + mean, (gram / n - np.outer(mean, mean)) / n


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
