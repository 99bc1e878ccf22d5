"""Edge-readout-only state tomography and full process tomography.

Only the edge qubit X can be measured, so information about the inner qubit
is routed to it with exchange pulses before projecting.  The shipped design
uses 15 sequences, minimal and informationally complete together with the
normalization constraint:

* one transfer-correlation sequence per axis pair (i, j): rotate i onto z on
  X and j onto z on A, project the edge, run the full spin-transfer pulse
  (duration pi/4 in units of 1/g, swapping the two spins), project again.
  The (z, z) member needs no rotations and reads the leading population
  directly; it is sequence #1.
* three single-projection sequences reading the edge-qubit axes directly;
* three sequences reading the inner-qubit axes after one transfer pulse.

Reconstruction solves the linear system built from the IDEAL effect
operators.  Readout noise is deliberately not inverted, so reconstructed
states and the process matrix inherit the (r, gdtau) degradation; at r = 1,
gdtau = 0 reconstruction is exact.  No positivity repair is applied, raw
linear-inversion outputs travel as plain arrays.

Process tomography prepares the 16 spanning pure inputs, pushes them through
the noisy gate and the tomography above, and assembles chi by linearity: one
constant 16 x 16 matrix of exact weights maps the 16 reconstructed outputs
onto chi.  The analytic route is a few array products: the 16 input vecs go
through the gate superoperator at once, the 15 x 16 probabilities are one
product with the sequences' noisy effects (back-propagated once each, see
:func:`spinqpt.blockade.effect_polynomial`), and one solve with 16
right-hand sides reconstructs every output.  A Monte Carlo mode replaces
every analytic sequence probability with a sampled estimate, each
trajectory passing through its own sampled gate, and propagates the
binomial variances exactly through the same two linear maps.

The entanglement threshold uses that the gate output does not depend on the
readout polarization r: the 15 probabilities of the reconstructed output
are then exact polynomials in r, built once per gdtau, and each point of
the search costs one small solve and one 4x4 eigenvalue problem.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import closed_form
from .blockade import (
    Evolve,
    MeasureSequence,
    Project,
    Rotate,
    UP,
    _survival_estimates,
    effect_polynomial,
    ideal_effect_operator,
    polynomial_value,
)
from .dynamics import (
    CNOT_FRAME,
    GateSchedule,
    NoiseParams,
    SIGMA_I,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    hadamard,
    noisy_cnot_channel,
)
from .process_matrix import CHI_LABELS, CHI_ORDER, CHI_PERM, ProcessMatrix
from .qcore import DIM, apply_channel, hermitize, negativity, pure_state

#: Full spin-transfer pulse duration in units of 1/g.
TRANSFER_TIME = math.pi / 4.0

#: Pauli product basis, X factor first; index 0 is the identity.
PAULI_BASIS = tuple(
    np.kron(p, q)
    for p in (SIGMA_I, SIGMA_X, SIGMA_Y, SIGMA_Z)
    for q in (SIGMA_I, SIGMA_X, SIGMA_Y, SIGMA_Z)
)
_PAULI_STACK = np.array(PAULI_BASIS)

_AXES = ("z", "x", "y")


class DesignRankError(ValueError):
    """Raised when a sequence design fails informational completeness."""

    def __init__(self, achieved_rank: int):
        super().__init__(f"tomography design reached rank {achieved_rank}, need 16")
        self.achieved_rank = achieved_rank


@dataclass(frozen=True)
class TomographyDesign:
    """Sequences, their ideal effects, and the inversion matrix."""

    g: float
    sequences: tuple
    effects: tuple
    design_matrix: np.ndarray

    @property
    def n_sequences(self) -> int:
        return len(self.sequences)


def _axis_prerotation(scope: str, axis: str) -> tuple:
    """Rotation steps mapping the given spin axis onto z for later z-readout."""
    if axis == "z":
        return ()
    if axis == "x":
        return (Rotate(scope=scope, axis="y", theta=math.pi / 2),)
    if axis == "y":
        return (Rotate(scope=scope, axis="x", theta=math.pi / 2),)
    raise ValueError(f"unknown axis {axis!r}")


def _pair_sequence(axis_x: str, axis_a: str) -> MeasureSequence:
    steps = (
        *_axis_prerotation("X", axis_x),
        *_axis_prerotation("A", axis_a),
        Project(UP),
        Evolve(TRANSFER_TIME),
        Project(UP),
    )
    return MeasureSequence(steps=steps)


def _edge_sequence(axis: str) -> MeasureSequence:
    return MeasureSequence(steps=(*_axis_prerotation("X", axis), Project(UP)))


def _inner_sequence(axis: str) -> MeasureSequence:
    return MeasureSequence(
        steps=(*_axis_prerotation("A", axis), Evolve(TRANSFER_TIME), Project(UP))
    )


def design_matrix_rows(effects) -> np.ndarray:
    """Effect operators expanded over the Pauli basis, plus the trace row."""
    ops = np.concatenate([np.reshape(effects, (-1, DIM, DIM)), [np.eye(DIM)]])
    return np.einsum("sij,bji->sb", ops, _PAULI_STACK).real.copy()


def design_from_sequences(sequences, g: float) -> TomographyDesign:
    """Build and verify a design from user-supplied sequences.

    Exactly 15 sequences are required (the trace constraint supplies the 16th
    row), and their ideal effects together with the identity must span the
    full operator space.
    """
    sequences = tuple(sequences)
    if len(sequences) != 15:
        raise ValueError(f"a design needs exactly 15 sequences, got {len(sequences)}")
    effects = tuple(ideal_effect_operator(seq, g) for seq in sequences)
    matrix = design_matrix_rows(effects)
    rank = int(np.linalg.matrix_rank(matrix, tol=1e-8))
    if rank != 16:
        raise DesignRankError(rank)
    for array in (*effects, matrix):
        array.setflags(write=False)
    return TomographyDesign(g=g, sequences=sequences, effects=effects, design_matrix=matrix)


def design_sequences(g: float) -> TomographyDesign:
    """The shipped 15-sequence design; deterministic and verified rank 16.

    Sequence #1 is the bare two-projection transfer sequence whose ideal
    effect is the |1><1| population.  Dropping any single sequence lowers the
    rank to 15 (the design is minimal).  Built once per value of g; its
    arrays are read-only.
    """
    return _shipped_design(float(g))


@functools.lru_cache(maxsize=32)
def _shipped_design(g: float) -> TomographyDesign:
    sequences = [_pair_sequence("z", "z")]
    sequences += [_edge_sequence(axis) for axis in _AXES]
    sequences += [_inner_sequence(axis) for axis in _AXES]
    sequences += [
        _pair_sequence(ax, aa)
        for ax in ("x", "y", "z")
        for aa in ("x", "y", "z")
        if (ax, aa) != ("z", "z")
    ]
    return design_from_sequences(sequences, g)


def reconstruct_state(probabilities, design: TomographyDesign) -> np.ndarray:
    """Linear inversion with ideal effects; returns the raw Hermitian solution.

    probabilities holds one probability per sequence, shape (15,), or a
    column of them per state, shape (15, m); the result is one 4x4 operator
    or an (m, 4, 4) stack.  The supplied probabilities may come from noisy
    readout, in which case the output is the noise-degraded reconstruction
    (possibly non-physical); no positivity repair is attempted.
    """
    probs = np.asarray(probabilities, dtype=float)
    if probs.ndim not in (1, 2) or probs.shape[0] != design.n_sequences:
        raise ValueError(
            f"expected {design.n_sequences} probabilities per state, got shape {probs.shape}"
        )
    rhs = np.concatenate([probs, np.ones((1,) + probs.shape[1:])])
    try:
        coeffs = np.linalg.solve(design.design_matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise DesignRankError(int(np.linalg.matrix_rank(design.design_matrix))) from exc
    return np.tensordot(coeffs, _PAULI_STACK, axes=(0, 0))


def qpt_input_states() -> dict:
    """The 16 spanning pure inputs in run_qpt's order: ("d", m) is |m>, then for m < n
    ("+", m, n) is (|m> + |n>)/sqrt2, then ("-", m, n) is (|m> + i|n>)/sqrt2."""
    e = np.eye(DIM, dtype=complex)
    pairs = [(m, n) for m in range(DIM) for n in range(m + 1, DIM)]
    states = {("d", m): pure_state(e[m]) for m in range(DIM)}
    states.update({("+", m, n): pure_state(e[m] + e[n]) for m, n in pairs})
    states.update({("-", m, n): pure_state(e[m] + 1j * e[n]) for m, n in pairs})
    return states


def _assembly_weights() -> np.ndarray:
    """A[c, i] with E_kl = sum_i A[c, i] rho_i, (k, l) = CHI_ORDER[c], rho_i the inputs in order:
    E_mn = rho(+;mn) + i rho(-;mn) - (1+i)/2 (|m><m| + |n><n|) for m < n, and E_nm = E_mn^dagger
    takes the conjugate weights as every rho_i is Hermitian."""
    index = {label: i for i, label in enumerate(qpt_input_states())}
    weights = np.zeros((16, 16), dtype=complex)
    for c, (k, l) in enumerate(CHI_ORDER):
        m, n = sorted((k, l))
        terms = {("d", m): 1.0} if m == n else {
            ("+", m, n): 1.0, ("-", m, n): 1j, ("d", m): -0.5 - 0.5j, ("d", n): -0.5 - 0.5j}
        for label, w in terms.items():
            weights[c, index[label]] = w if k <= l else np.conj(w)
    return weights


_WEIGHTS = _assembly_weights()
_WEIGHTS_ABS2 = (_WEIGHTS * _WEIGHTS.conj()).real      # exact, unlike abs(.)**2 of -(1+i)/2


def _assemble(weights: np.ndarray, outputs) -> np.ndarray:
    """chi[:, c] = vec(sum_i weights[c, i] outputs[i]), rows laid out by CHI_PERM."""
    vecs = np.transpose(np.reshape(outputs, (16, DIM, DIM)), (0, 2, 1)).reshape(16, DIM * DIM)
    return (weights @ vecs)[:, CHI_PERM].T


def assemble_channel_action(outputs) -> np.ndarray:
    """The 16x16 chi from a (16, 4, 4) stack of outputs of the qpt_input_states() inputs.

    Column (k, l) is the channel action on E_kl by linearity, row (m, n) its [m, n] entry.
    """
    return _assemble(_WEIGHTS, outputs)


def _mc_gate_batch(state: np.ndarray, n: int, noise: NoiseParams, rng: np.random.Generator) -> np.ndarray:
    """n independently sampled noisy-CNOT outputs of one pure state, CNOT_FRAME not yet applied.

    Draws s1 then s2, the two isolation-pulse durations, each Normal(tau0/2,
    delta_tau/2) with delta_tau capped as noise.sampled_delta_tau, n at a
    time.  The pulses act as exp(-i g (s1+s2) sz sz)
    times a flip-flop rotation by 2g (s1-s2) within {|ud>, |du>}; taking out
    the global phase exp(i g (s1+s2)), |uu> and |dd> carry exp(-2i g (s1+s2))
    and the middle pair only the rotation.  Returns the F-ordered (n, 4)
    columns of Rz_X(pi) U(s2) Rz_X(pi) U(s1) H_A |state>, up to a global
    phase per trajectory; the trajectory kernel applies CNOT_FRAME as its
    leading unitary.
    """
    g = noise.g
    schedule = GateSchedule.for_coupling(g)
    a = hadamard("A") @ state
    s1 = rng.normal(schedule.tau0_cnot / 2.0, noise.sampled_delta_tau / 2.0, size=n)
    s2 = rng.normal(schedule.tau0_cnot / 2.0, noise.sampled_delta_tau / 2.0, size=n)
    outer = -2.0 * g * (s1 + s2)
    angle = 2.0 * g * (s1 - s2)
    phase = np.empty(n, dtype=complex)
    np.cos(outer, out=phase.real)
    np.sin(outer, out=phase.imag)
    cos_a, sin_a = np.cos(angle), np.sin(angle)
    psi = np.empty((n, DIM), dtype=complex, order="F")
    np.multiply(phase, a[0], out=psi[:, 0])
    np.multiply(phase, a[3], out=psi[:, 3])
    psi[:, 1] = a[1] * cos_a - 1j * a[2] * sin_a
    psi[:, 2] = a[2] * cos_a - 1j * a[1] * sin_a
    return psi


def _qpt_probabilities_mc(
    rho_in: np.ndarray,
    design: TomographyDesign,
    noise: NoiseParams,
    n_samples: int,
    seed_seq: np.random.SeedSequence,
) -> tuple[np.ndarray, np.ndarray]:
    """Sampled sequence probabilities for one pure input state, with standard errors.

    Each sequence gets its own child stream of seed_seq; per chunk it draws
    the gate's s1 and s2, then the sequence's own draws.
    """
    evals, evecs = np.linalg.eigh(hermitize(rho_in))
    if not evals[-1] > 1.0 - 1e-9:
        raise ValueError("Monte Carlo process tomography needs pure input states")
    state = evecs[:, -1]
    rngs = [np.random.default_rng(child) for child in seed_seq.spawn(design.n_sequences)]
    ests = _survival_estimates(
        zip(design.sequences, rngs), noise, n_samples,
        lambda m, rng: _mc_gate_batch(state, m, noise, rng), lead=CNOT_FRAME,
    )
    return np.array([e.estimate for e in ests]), np.array([e.stderr for e in ests])


def _noisy_effects(design: TomographyDesign, g: float, delta_tau: float) -> np.ndarray:
    """The design's noisy effects as one polynomial in r, shape (k + 1, 15, 4, 4).

    k is the largest number of projections in a sequence; coefficient j of
    sequence s is E_j of :func:`spinqpt.blockade.effect_polynomial`, zero
    beyond that sequence's own degree.
    """
    polys = [effect_polynomial(seq, g, delta_tau) for seq in design.sequences]
    stacked = np.zeros((max(map(len, polys)), len(polys), DIM, DIM), dtype=complex)
    for s, poly in enumerate(polys):
        stacked[: len(poly), s] = poly
    return stacked


def _probabilities(effects: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Re Tr[E rho] for every effect in a (..., 4, 4) stack and every state in an (m, 4, 4) one."""
    return np.einsum("...ij,nji->...n", effects, states).real


def run_qpt(
    noise: NoiseParams,
    method: str = "pipeline",
    mc_samples: int = 100_000,
    seed: int = 0,
    design: TomographyDesign | None = None,
) -> ProcessMatrix:
    """Process matrix of the noisy CNOT by one of three routes.

    pipeline      one linear map: the 16 inputs go through the averaged noisy
                  gate in one superoperator product, their 15 x 16 sequence
                  probabilities are one product with the noisy effects at
                  noise.r, one solve with 16 right-hand sides reconstructs
                  them with ideal effects, and chi follows by linearity;
    closed_form   evaluate the explicit block expressions directly;
    monte_carlo   like pipeline but every probability is a sampled estimate
                  (mc_samples trajectories each, deterministic in the seed),
                  with stderr the exact propagation of their binomial errors
                  through reconstruction and assembly, sqrt(E|delta chi|^2).
    """
    if method == "closed_form":
        return closed_form.chi_closed_form(noise.r, noise.gdtau)
    if method not in ("pipeline", "monte_carlo"):
        raise ValueError(f"unknown method {method!r}")
    if design is None:
        design = design_sequences(noise.g)
    states = np.array(list(qpt_input_states().values()))
    if method == "pipeline":
        superop = noisy_cnot_channel(noise).superop
        vecs = states.transpose(0, 2, 1).reshape(16, DIM * DIM)   # row i is vec(rho_i)
        outputs = (vecs @ superop.T).reshape(16, DIM, DIM).transpose(0, 2, 1)
        effects = polynomial_value(_noisy_effects(design, noise.g, noise.delta_tau), noise.r)
        probs = _probabilities(effects, outputs)
    else:
        seeds = np.random.SeedSequence(seed).spawn(16)
        runs = [_qpt_probabilities_mc(rho, design, noise, mc_samples, s) for rho, s in zip(states, seeds)]
        probs, errs = np.array(runs).transpose(1, 2, 0)      # each (15, 16)
    chi = assemble_channel_action(reconstruct_state(probs, design))
    stderr = None
    if method == "monte_carlo":
        # Output entry [m, n] is sum_s dual_s[m, n] p_s plus a constant, and the
        # p_s are independent: their variances add with weights |dual_s[m, n]|^2.
        dual = np.tensordot(np.linalg.inv(design.design_matrix)[:, : design.n_sequences],
                            _PAULI_STACK, axes=(0, 0))
        var = np.tensordot((errs ** 2).T, np.abs(dual) ** 2, axes=1)
        stderr = np.sqrt(_assemble(_WEIGHTS_ABS2, var))
    return ProcessMatrix(chi=chi, ordering=CHI_LABELS, stderr=stderr)


# ----------------------------------------------------------------------------
# Entanglement creation threshold
# ----------------------------------------------------------------------------

#: Input for the entanglement experiment: (|up> + |down>)_X / sqrt2 on X, |up> on A.
ENTANGLEMENT_INPUT = pure_state([1.0, 0.0, 1.0, 0.0])

_NEGATIVITY_EPS = 1e-10


@dataclass(frozen=True)
class ThresholdResult:
    """Outcome of the polarization threshold search."""

    r_star: float | None
    bracket_history: tuple
    curve: tuple                 # sampled (r, negativity) pairs
    endpoint_low: float
    endpoint_high: float
    message: str


def _output_probability_polynomial(gdtau: float, design: TomographyDesign) -> np.ndarray:
    """The 15 sequence probabilities of the gate output as polynomials in r, shape (k + 1, 15).

    The averaged gate does not depend on r, so its output is computed once and
    read by the design's noisy effects coefficient by coefficient.
    """
    noise = NoiseParams(g=design.g, delta_tau=gdtau / design.g)
    rho_out = apply_channel(noisy_cnot_channel(noise), ENTANGLEMENT_INPUT)
    return _probabilities(_noisy_effects(design, noise.g, noise.delta_tau), rho_out[None])[..., 0]


def _reconstructed_negativity(r, poly: np.ndarray, design: TomographyDesign):
    """Negativity of the reconstruction at polarization r, a float or an array like r."""
    return negativity(hermitize(reconstruct_state(polynomial_value(poly, r), design)))


def reconstructed_output_negativity(
    r: float, gdtau: float, design: TomographyDesign
) -> float:
    """Negativity of the tomographically reconstructed gate output.

    The superposition input is pushed through the averaged noisy CNOT, the 15
    sequence probabilities are evaluated at readout polarization r, and the
    raw linear-inversion state is tested with the partial transpose.  This is
    one point of the polynomial :func:`entanglement_threshold` searches.
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"polarization must lie in [0, 1], got {r}")
    return _reconstructed_negativity(r, _output_probability_polynomial(gdtau, design), design)


def entanglement_threshold(
    design: TomographyDesign,
    gdtau: float,
    tol: float = 1e-4,
    sweep_steps: int = 64,
) -> ThresholdResult:
    """Smallest polarization at which the reconstructed output is entangled.

    The gate output does not depend on r, so the 15 sequence probabilities
    are built once as exact polynomials in r (degree at most the largest
    number of projections in a sequence).  A bracketing sweep over
    sweep_steps intervals, reconstructed in one solve and tested with one
    batched eigenvalue call, guards against non-monotonic pathologies before
    bisecting the first sign change of the negativity down to width tol, or
    to two adjacent doubles when tol is finer than their spacing; each
    bisection step is one 4x4 evaluation of the same polynomial.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    poly = _output_probability_polynomial(gdtau, design)
    grid = np.linspace(0.0, 1.0, sweep_steps + 1)
    values = _reconstructed_negativity(grid, poly, design).tolist()
    curve = tuple(zip(grid.tolist(), values))
    entangled = [v > _NEGATIVITY_EPS for v in values]
    if entangled[0]:
        return ThresholdResult(
            r_star=0.0, bracket_history=(), curve=curve,
            endpoint_low=values[0], endpoint_high=values[-1],
            message="entangled over the whole polarization range",
        )
    if not any(entangled):
        return ThresholdResult(
            r_star=None, bracket_history=(), curve=curve,
            endpoint_low=values[0], endpoint_high=values[-1],
            message="no threshold: reconstructed output never entangled",
        )
    first = next(i for i, flag in enumerate(entangled) if flag)
    lo, hi = float(grid[first - 1]), float(grid[first])
    history = [(lo, hi)]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:       # lo and hi are adjacent doubles: tol is below their spacing
            break
        if _reconstructed_negativity(mid, poly, design) > _NEGATIVITY_EPS:
            hi = mid
        else:
            lo = mid
        history.append((lo, hi))
    return ThresholdResult(
        r_star=hi,
        bracket_history=tuple(history),
        curve=curve,
        endpoint_low=values[0],
        endpoint_high=values[-1],
        message="threshold located",
    )
