"""Edge-readout-only state tomography and full process tomography, in units of 1/g.

Only the edge qubit X can be measured, so information about the inner qubit
is routed to it with exchange pulses before projecting.  The shipped design
uses 15 sequences, minimal and informationally complete together with the
normalization constraint:

* one transfer-correlation sequence per axis pair (i, j): rotate i onto z on
  X and j onto z on A, project the edge, run the full spin-transfer pulse
  (duration pi/4, swapping the two spins), project again.
  The (z, z) member needs no rotations and reads the leading population
  directly; it is sequence #1.
* three single-projection sequences reading the edge-qubit axes directly;
* three sequences reading the inner-qubit axes after one transfer pulse.

Reconstruction is linear inversion with the IDEAL effect operators.  The
design matrix holds their features over blockade.PAULI_BASIS, plus the trace
row, and is inverted once, when the design is built; that inverse on the
Pauli products (TomographyDesign.reconstruction) maps 15 probabilities and
the trace onto a state.  Readout noise is deliberately not inverted, so
reconstructed states and the process matrix inherit the (r, gdtau)
degradation; at r = 1, gdtau = 0 reconstruction is exact.  No positivity
repair is applied, raw linear-inversion outputs travel as plain arrays.

Process tomography prepares the 16 spanning pure inputs, pushes them through
the noisy gate and the tomography above, and assembles chi by linearity: one
constant 16 x 16 matrix of exact weights maps the 16 reconstructed outputs
onto chi.  Reconstruction is affine in the 16 x 15 probabilities, so chi is
the design's chi0, what the trace row reconstructs, plus one linear map of
them, reconstruction then assembly, applied once per design to a table of
probabilities (:func:`_chi_map`).  The analytic route reads it on the exact
probabilities: the averaged gate is an exact quadratic in
d = exp(-2 gdtau^2) and each noisy effect an exact polynomial in D = d^4 and
r, so the design carries chi's share of them as coefficients of D^c r^j d^b
(TomographyDesign.pipeline_map).  A noise point evaluates that polynomial
and adds chi0; it builds no gate channel, solves and assembles nothing.  A
Monte Carlo mode replaces every analytic sequence probability with a sampled
estimate, the mean weight of its trajectories: a trajectory's success
probability given its sampled gate and Evolve durations, the readout
branches summed over in closed form.  A trajectory is one realization of the
noisy gate and of the pulse timings, shared by all 16 inputs and 15
sequences, so the 240 estimates are correlated; their full covariance is
propagated exactly through the same two linear maps.  The seed spawns two
children, the first for the gate and the second for the Evolve durations.
No trajectory state is built: the features of a sampled gate output are
dynamics.CNOT_GATE_COORDS applied to its input, weighted by seven
trigonometric functions of the two pulse durations
(:func:`_mc_gate_coords`), every weight is linear in their products with the
duration monomials, and only the sums and the Gram matrix of those products
are kept (see :class:`spinqpt.blockade.TrajectoryFeatures`).  Their
coefficients do not depend on the draws, so the same map applied to them
gives chi per unit of each product as a polynomial in r, built on first use
(TomographyDesign.monte_carlo_map): a run draws, accumulates and evaluates
it, and adds chi0.

The entanglement threshold reads the pipeline map too: its input is one of
the 16 QPT inputs, so chi applied to it is the reconstructed output, and its
partial transpose is one more table per design (TomographyDesign.transpose_map).
At gdtau that table is a 4x4 polynomial in r.  Its 65-point sweep is one
batched eigenvalue call; each bisection step after it evaluates the
characteristic coefficients of the same polynomial, built once per search
with exact polynomial arithmetic, and solves no eigenproblem.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import closed_form
from .blockade import (
    PAULI_BASIS,
    Evolve,
    MeasureSequence,
    Project,
    Rotate,
    TrajectoryFeatures,
    UP,
    WeightForms,
    _feature_moments,
    _features,
    _whole_number,
    compile_weight_forms,
    effect_polynomial,
    feature_coefficients,
    polynomial_value,
)
from .dynamics import (
    CNOT_GATE_COORDS,
    CNOT_GATE_POLYNOMIAL,
    CNOT_PHASE_TIME,
    NoiseParams,
    TRANSFER_TIME,
    _positive_coupling,
    dephasing_factor,
)
from .process_matrix import CHI_ORDER, CHI_PERM, ProcessMatrix, chi_index
from .qcore import (DIM, _UNIT_ROUNDOFF, _negative_eigenvalue_test, hermitize, pure_state, transpose_negativity,
                    unvec, vec)

_AXES = ("z", "x", "y")


class DesignRankError(ValueError):
    """Raised when a sequence design fails informational completeness."""

    def __init__(self, achieved_rank: int):
        super().__init__(f"tomography design reached rank {achieved_rank}, need 16")
        self.achieved_rank = achieved_rank


@dataclass(frozen=True, eq=False)
class TomographyDesign:
    """Sequences, their ideal effects, the design matrix, the reconstruction, the maps to chi and the
    Monte Carlo weight forms.  design_matrix[s, b] is Tr[P_b E_s], row 15 the identity's, and
    reconstruction[s] = sum_b inv(design_matrix)[b, s] P_b, so 15 probabilities p and the trace 1
    reconstruct sum_s p_s reconstruction[s].  A QPT's raveled chi is chi0, the trace row's share,
    plus :func:`_chi_map` of its 16 x 15 probabilities: pipeline_map[c, j, b] is the coefficient of
    D^c r^j d^b of that share for the analytic probabilities, shape (m+1, k+1, 3, 256) for m the
    largest Evolve count and k the largest projection count of a sequence, monte_carlo_map the
    share of the trajectory features and transpose_map the threshold's partial transpose.
    reconstruction_bound, shape (2, 16, 16), bounds the rounding that each unit of probability s
    brings into vec(output) (:func:`_reconstruction_bound`).  chi0 and both maps to chi hold an
    exact 0.0 wherever their rounding bound covers the entry's real or imaginary part, so an
    exact zero is never written as rounding residue (:func:`_chi_map`).  Two designs compare
    equal when their sequences do."""

    sequences: tuple
    effects: tuple
    design_matrix: np.ndarray
    reconstruction: np.ndarray
    chi0: np.ndarray
    pipeline_map: np.ndarray
    weight_forms: WeightForms
    reconstruction_bound: np.ndarray

    def __eq__(self, other):
        return self.sequences == other.sequences if isinstance(other, TomographyDesign) else NotImplemented

    def __hash__(self):
        return hash(self.sequences)

    @property
    def n_sequences(self) -> int:
        return len(self.sequences)

    @functools.cached_property
    def monte_carlo_map(self) -> np.ndarray:
        """L, read-only, built on first use: a Monte Carlo QPT whose trajectory features
        (:class:`spinqpt.blockade.TrajectoryFeatures` on the gate bases) have mean z gives the
        raveled chi0 + z @ L(r).  L is raveled chi per unit of each feature as coefficients of r^j,
        shape (k+1, n_features, 256): the probabilities are A(r) z, A the
        :func:`spinqpt.blockade.feature_coefficients`, exact in r, and so is L.
        """
        coeffs = feature_coefficients(self.weight_forms, _GATE_BASES)        # (k+1, input, seq, f)
        return _chi_map(np.moveaxis(coeffs, -1, 1), self.reconstruction, self.reconstruction_bound)

    @functools.cached_property
    def transpose_map(self) -> tuple:
        """(T, T0), read-only, built on first use: the partial transpose on A of the reconstructed
        output of ENTANGLEMENT_INPUT, before it is hermitized, is T0 plus the polynomial T with
        coefficients of D^c r^j d^b, shape (m+1, k+1, 3, 4, 4); T0, shape (4, 4), is chi0's share.
        The pipeline map applied to that input, then the gather of the partial transpose."""
        rows = self.pipeline_map.reshape(*self.pipeline_map.shape[:-1], 16, 16) @ _ENTANGLEMENT_CHI
        # take, unlike rows[..., _TRANSPOSE_GRID], returns C order, which every evaluation reads faster.
        tables = tuple(np.take(table, _TRANSPOSE_GRID, axis=-1)
                       for table in (rows, self.chi0.reshape(16, 16) @ _ENTANGLEMENT_CHI))
        for table in tables:
            table.setflags(write=False)
        return tables


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
    """The features Tr[P_b E] of each effect operator E, plus the trace row, those of the identity."""
    return _features(np.concatenate([np.reshape(effects, (-1, DIM, DIM)), [np.eye(DIM)]]))


def design_from_sequences(sequences) -> TomographyDesign:
    """Build and verify a design from user-supplied sequences.

    Exactly 15 sequences are required (the trace constraint supplies the 16th
    row), and their ideal effects together with the identity must span the
    full operator space.  A sequence's ideal effect is its noisy one at r = D = 1.
    """
    sequences = tuple(sequences)
    if len(sequences) != 15:
        raise ValueError(f"a design needs exactly 15 sequences, got {len(sequences)}")
    polys = [effect_polynomial(seq) for seq in sequences]
    effects = tuple(poly.sum(axis=(0, 1)) for poly in polys)
    matrix = design_matrix_rows(effects)
    rank = int(np.linalg.matrix_rank(matrix, tol=1e-8))
    if rank != 16:
        raise DesignRankError(rank)
    inverse = np.linalg.inv(matrix)
    reconstruction = np.tensordot(inverse, PAULI_BASIS, axes=(0, 0))
    bound = _reconstruction_bound(matrix, inverse, reconstruction, sequences)
    chi0 = _chi_map(_TRACE_TABLE, reconstruction, bound)
    for array in (*effects, matrix, reconstruction, bound):
        array.setflags(write=False)
    return TomographyDesign(sequences, effects, matrix, reconstruction, chi0,
                            _chi_map(_probability_table(polys), reconstruction, bound),
                            compile_weight_forms(sequences), bound)


def _probability_table(polys) -> np.ndarray:
    """The analytic probabilities of the sequences with the effect polynomials polys, shape
    (m+1, k+1, 3, 16 inputs, 15): entry [c, j, b, i, s] is the coefficient of D^c r^j d^b of
    Tr[E_s G(rho_i)], G the averaged gate.  Each effect is read on the gate polynomial's outputs."""
    reads = np.zeros((*np.max([poly.shape[:2] for poly in polys], axis=0), 15, DIM * DIM), dtype=complex)
    for s, poly in enumerate(polys):
        reads[: len(poly), : poly.shape[1], s] = poly.reshape(*poly.shape[:2], -1)
    gate_vecs = vec(_INPUT_STATES) @ CNOT_GATE_POLYNOMIAL.swapaxes(-1, -2)          # (3, input, 16)
    return (gate_vecs @ reads[:, :, None].swapaxes(-1, -2)).real       # Tr[E rho] = E.ravel() @ vec(rho)


#: chi0's table for :func:`_chi_map`: the trace row alone, one unit for each of the 16 inputs.
_TRACE_TABLE = np.broadcast_to(np.eye(DIM * DIM)[15], (16, DIM * DIM))


def _reconstruction_bound(matrix, inverse, reconstruction, sequences) -> np.ndarray:
    """(Q, G), shape (2, 16, 16), read-only: the errors that one unit of probability s brings into entry
    q of vec(output) when the output is reconstructed, as |Re| + |Im|.  Q[s, q] bounds it for an
    exact probability, G[s, q] per unit of a table's own rounding, which is at most gamma_n max|t|
    in every entry t of the table.  To first order in the unit roundoff u (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., ch. 3), with P = vec(reconstruction):

    * G = gamma_n |P|, and gamma_n |P| in Q, for the products.  n counts the most roundings on one
      path from a constant of the build to an entry of a map to chi: at most 32 per product stage,
      since a complex inner product of 16 terms is a real one of 32 (Higham, sec. 3.1 and 3.6), four
      stages per step of the longest sequence (its map's three, the back-propagation's one) and 12
      more (the averaged gate's six, the gate outputs', the effects' features, the table's, this
      reconstruction's, and two for the assembly of chi).  Every table and the design matrix are
      built from unit-scale features by these stages, so gamma_n times their largest entry bounds
      their own rounding.  The bound's own evaluation moves it by a relative O(n u), a second-order
      change.
    * sum_b B[b, s] |P_b| in Q, for the error B of inverse = inv(matrix) as an entry of the exact
      inverse of the exact design matrix.  inverse @ matrix = I + R gives |inverse - matrix^-1|[b, s]
      <= rho max_b' |inverse[b', s]|, rho = ||R||_inf / (1 - ||R||_inf), with ||R||_inf at most that
      of |fl(R)| + gamma_17 |inverse| |matrix|; the rank check keeps it near cond(matrix) u, far
      below 1.  Row s' of the matrix, rounded by at most gamma_n m_s' in each entry, m_s' its
      largest, adds gamma_n (|inverse| m)_b (sum_b' |inverse[b', s]|), and the product with the
      Pauli basis gamma_n |inverse[b, s]|.
    """
    steps = max(len(seq.steps) for seq in sequences)
    n = 32 * (4 * steps + 12)
    gamma = n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
    magnitude, scale = np.abs(inverse), np.abs(matrix)
    residual = np.abs(inverse @ matrix - np.eye(DIM * DIM)) + (17 * _UNIT_ROUNDOFF) * (magnitude @ scale)
    norm = residual.sum(axis=1).max()
    error = (norm / (1.0 - norm)) * magnitude.max(axis=0) + gamma * (
        magnitude + np.outer(magnitude @ scale.max(axis=1), magnitude.sum(axis=0)))
    parts = vec(reconstruction)
    products = gamma * (np.abs(parts.real) + np.abs(parts.imag))
    return np.stack([products + error.T @ vec(np.abs(PAULI_BASIS.real) + np.abs(PAULI_BASIS.imag)), products])


def _chi_map(table, reconstruction: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """The raveled chi of the probabilities of a (..., 16 inputs, S sequences) table, read-only, shape
    (..., 256): each input's S probabilities reconstructed, by the first S rows of the reconstruction
    (S = 15 leaves out the trace row's share, chi0), and the 16 outputs assembled.  Linear, so a table
    of coefficients gives chi's coefficients.

    The table is real, so it is reconstructed by two real products, one per part of the
    reconstruction, each written straight into its part of the outputs.  np.matmul multiplies a
    stack matrix by matrix: one (16, S) by (S, 16) product per leading index, below the size at
    which OpenBLAS starts its thread pool, if these strided operands reach BLAS at all (contiguous
    copies of the parts give the same bits).  One complex tensordot would be a single product of
    the whole table, (rows, S) by (S, 16), large enough to wake the pool, whose workers then
    keep spinning after it.

    A real or imaginary part within its rounding bound (:func:`_rounding_limit`) of zero is set to an
    exact 0.0, so a coefficient that is zero in exact arithmetic is stored as 0.0, not as rounding
    residue.  On the shipped, cubic and long designs the largest residue is below 5e-16, every bound
    below 1e-10 and the smallest true coefficient 0.031, so the rule keeps every coefficient and
    zeroes every residue.  A true coefficient under its bound, as on some ill-conditioned custom
    design, lies below the map's own rounding error, so zeroing it moves chi by less than that
    error."""
    rows = table.shape[-1]
    parts = reconstruction[:rows].reshape(rows, DIM * DIM)
    outputs = np.empty((*table.shape[:-1], DIM * DIM), dtype=complex)
    np.matmul(table, parts.real, out=outputs.real)
    np.matmul(table, parts.imag, out=outputs.imag)
    chi = assemble_channel_action(outputs.reshape(*table.shape[:-1], DIM, DIM))
    chi = chi.reshape(*chi.shape[:-2], DIM**4)
    limit = _rounding_limit(table, bound)
    for part in (chi.real, chi.imag):
        part[np.abs(part) <= limit] = 0.0
    chi.setflags(write=False)
    return chi


def _rounding_limit(table, bound: np.ndarray) -> np.ndarray:
    """A bound on the rounding error of each entry of :func:`_chi_map`, of its real and of its
    imaginary part alike, shape (..., 256): the same products on magnitudes, |W| (|t| @ Q + max|t| J G),
    W the assembly weights, t the table, J all ones and (Q, G) the design's reconstruction_bound.  To
    first order it bounds every rounding of the build, from the constants through the inverse to
    the assembly."""
    rows = table.shape[-1]
    magnitude = np.abs(table)
    magnitude = magnitude @ bound[0, :rows] + magnitude.max() * bound[1, :rows].sum(axis=0)   # on vec(output)
    limit = np.swapaxes((_WEIGHT_MAGNITUDES @ magnitude)[..., CHI_PERM], -1, -2)
    return limit.reshape(*limit.shape[:-2], DIM**4)


def design_sequences(g: float = 1.0) -> TomographyDesign:
    """The shipped 15-sequence design; deterministic and verified rank 16.

    Sequence #1 is the bare two-projection transfer sequence whose ideal
    effect is the |1><1| population.  Dropping any single sequence lowers the
    rank to 15 (the design is minimal).  Its Evolve durations are in units of
    1/g, so every positive coupling g gets the one design, built once with
    read-only arrays; g is only checked.
    """
    _positive_coupling(g)
    return _shipped_design()


@functools.cache
def _shipped_design() -> TomographyDesign:
    sequences = [_pair_sequence("z", "z")]
    sequences += [_edge_sequence(axis) for axis in _AXES]
    sequences += [_inner_sequence(axis) for axis in _AXES]
    sequences += [
        _pair_sequence(ax, aa)
        for ax in ("x", "y", "z")
        for aa in ("x", "y", "z")
        if (ax, aa) != ("z", "z")
    ]
    return design_from_sequences(sequences)


def reconstruct_state(probabilities, design: TomographyDesign) -> np.ndarray:
    """Linear inversion with ideal effects, one product with design.reconstruction; returns the
    raw Hermitian solution.

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
    return np.tensordot(rhs, design.reconstruction, axes=(0, 0))


def qpt_input_states() -> dict:
    """The 16 spanning pure inputs in run_qpt's order: ("d", m) is |m>, then for m < n
    ("+", m, n) is (|m> + |n>)/sqrt2, then ("-", m, n) is (|m> + i|n>)/sqrt2."""
    e = np.eye(DIM, dtype=complex)
    pairs = [(m, n) for m in range(DIM) for n in range(m + 1, DIM)]
    states = {("d", m): pure_state(e[m]) for m in range(DIM)}
    states.update({("+", m, n): pure_state(e[m] + e[n]) for m, n in pairs})
    states.update({("-", m, n): pure_state(e[m] + 1j * e[n]) for m, n in pairs})
    return states


#: The qpt_input_states() inputs as one read-only (16, 4, 4) stack, in order.
_INPUT_STATES = np.array(list(qpt_input_states().values()))
_INPUT_STATES.setflags(write=False)

#: Trajectories per sequence probability of a Monte Carlo QPT unless told otherwise.
DEFAULT_MC_SAMPLES = 20_000


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
#: |Re| + |Im| of each weight, which the rounding bounds of :func:`_chi_map` assemble.
_WEIGHT_MAGNITUDES = np.abs(_WEIGHTS.real) + np.abs(_WEIGHTS.imag)


def assemble_channel_action(outputs) -> np.ndarray:
    """The 16x16 chi from a (16, 4, 4) stack of outputs of the qpt_input_states() inputs, or a
    (..., 16, 16) stack of them from a (..., 16, 4, 4) one.

    Column (k, l) is the channel action on E_kl by linearity, sum_i _WEIGHTS[c, i] outputs[i],
    row (m, n) its [m, n] entry, laid out by CHI_PERM.
    """
    return np.swapaxes((_WEIGHTS @ vec(outputs))[..., CHI_PERM], -1, -2)


def _mc_gate_coords(n: int, noise: NoiseParams, rng: np.random.Generator) -> np.ndarray:
    """The coordinates of n independently sampled noisy CNOTs on CNOT_GATE_COORDS, shape (7, n).

    Durations are in units of 1/g.  Draws s1 then s2, the two isolation-pulse
    durations, each Normal(CNOT_PHASE_TIME / 2, noise.sampled_gdtau / 2), n at
    a time.  With a_k = 4 s_k, the coordinates are 1, cos a1, sin a1, cos a2,
    sin a2, cos(a1 - a2) and sin(a1 - a2), the last two formed from the first four.
    """
    phases = 4.0 * rng.normal(CNOT_PHASE_TIME / 2.0, noise.sampled_gdtau / 2.0, size=(2, n))
    coords = np.empty((7, n))
    coords[0] = 1.0
    trig = coords[1:5].reshape(2, 2, n)          # cos and sin of each pulse's phase
    np.cos(phases, out=trig[:, 0])
    np.sin(phases, out=trig[:, 1])
    (cos1, sin1), (cos2, sin2) = trig
    np.multiply(cos1, cos2, out=coords[5])
    coords[5] += sin1 * sin2
    np.multiply(sin1, cos2, out=coords[6])
    coords[6] -= cos1 * sin2
    return coords


def _gate_feature_basis(rho: np.ndarray) -> np.ndarray:
    """The (..., 16, 7) basis with features(G rho G†) = basis @ coords for every sampled noisy CNOT G,
    coords its column of :func:`_mc_gate_coords`: CNOT_GATE_COORDS applied to each rho of a (..., 4, 4) stack."""
    images = unvec(np.einsum("qab,...b->...qa", CNOT_GATE_COORDS, vec(rho)))
    return np.swapaxes(_features(images), -1, -2)

#: The gate basis of each input of _INPUT_STATES, a read-only (16, 16, 7) stack.
_GATE_BASES = np.ascontiguousarray(_gate_feature_basis(_INPUT_STATES))
_GATE_BASES.setflags(write=False)


def run_qpt(
    noise: NoiseParams,
    method: str = "pipeline",
    mc_samples: int = DEFAULT_MC_SAMPLES,
    seed: int = 0,
    design: TomographyDesign | None = None,
) -> ProcessMatrix:
    """Process matrix of the noisy CNOT by one of three routes.

    pipeline      chi0 plus the design's pipeline_map, an exact polynomial
                  in D = d^4, r and d = noise.dephasing built with the
                  design, evaluated at the noise point.  No gate channel is
                  built and nothing is solved or assembled;
    closed_form   evaluate the explicit block expressions directly;
    monte_carlo   like pipeline but every probability is a sampled estimate,
                  the mean weight of mc_samples trajectories (an integer of
                  at least 1) drawn from seed (an integer of at least 0),
                  both checked before any draw.  A weight is the success
                  probability given the trajectory's sampled gate and
                  Evolve durations, linear in the trajectory's features z.
                  All 240 (input, sequence) pairs share the draws, so chi
                  is affine in mean(z): chi0 + mean(z) @ L(r), from the
                  design's monte_carlo_map (the weights' coefficients,
                  reconstruction and assembly, built once per design), and
                  stderr is sqrt(diag(L(r)^H Cov_z L(r))), that is
                  sqrt(E|delta chi|^2) per entry, exactly 0 when nothing
                  is sampled (noise.sampled_gdtau == 0).  Nothing is
                  inverted, solved or assembled per call.
    """
    if method == "closed_form":
        return closed_form.chi_closed_form(noise.r, noise.gdtau)
    if method not in ("pipeline", "monte_carlo"):
        raise ValueError(f"unknown method {method!r}")
    if design is None:
        design = design_sequences()
    if method == "pipeline":
        d = noise.dephasing
        share = polynomial_value(polynomial_value(polynomial_value(design.pipeline_map, d ** 4), noise.r), d)
        return ProcessMatrix(chi=(design.chi0 + share).reshape(16, 16))
    seed = _whole_number(seed, "seed", 0)
    # SeedSequence(seed).spawn(2)[0] feeds the gate and [1] the Evolve durations, built
    # directly from their spawn keys.
    gate_rng, duration_rng = (np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
                              for k in (0, 1))
    features = TrajectoryFeatures(design.weight_forms, noise, _GATE_BASES)
    mean, cov = _feature_moments(features, lambda m: _mc_gate_coords(m, noise, gate_rng), duration_rng,
                                 noise, mc_samples)
    # chi moves by lin[f] per unit of feature f, and each entry's variance is diag(lin^H cov lin).
    # Both are real products on the parts of lin: complex matrix products on a threaded BLAS can
    # stall a process at tens of milliseconds a call.
    lin = polynomial_value(design.monte_carlo_map, noise.r)
    parts = lin.real, lin.imag
    chi = (design.chi0 + (mean @ parts[0] + 1j * (mean @ parts[1]))).reshape(16, 16)
    if not noise.sampled_gdtau:
        # Every trajectory is the same; a step-group row's rounding may still vary across them.
        return ProcessMatrix(chi=chi, stderr=np.zeros((16, 16)))
    variance = sum(np.sum((cov @ part) * part, axis=0) for part in parts)
    return ProcessMatrix(chi=chi, stderr=np.sqrt(np.maximum(variance, 0.0)).reshape(16, 16))


# ----------------------------------------------------------------------------
# Entanglement creation threshold
# ----------------------------------------------------------------------------

#: QPT input of the entanglement experiment, ("+", 0, 2): (|up> + |down>)_X / sqrt2 on X, |up> on A.
_ENTANGLEMENT_LABEL = ("+", 0, 2)
ENTANGLEMENT_INPUT = qpt_input_states()[_ENTANGLEMENT_LABEL]
#: Its entries in CHI_ORDER, which chi's columns weigh; and the position in CHI_ORDER of the entry
#: (x a', x' a) that the partial transpose on A puts at (m, n) = (x a, x' a'), m = 2x + a, n = 2x' + a'.
_ENTANGLEMENT_CHI = vec(ENTANGLEMENT_INPUT)[CHI_PERM]
_TRANSPOSE_GRID = np.array([[chi_index(m - m % 2 + n % 2, n - n % 2 + m % 2) for n in range(DIM)]
                            for m in range(DIM)])

_NEGATIVITY_EPS = 1e-10

#: Intervals of the threshold's bracketing sweep over r in [0, 1], and the sweep's read-only grid.
THRESHOLD_SWEEP_STEPS = 64
_SWEEP_GRID = np.linspace(0.0, 1.0, THRESHOLD_SWEEP_STEPS + 1)
_SWEEP_GRID.setflags(write=False)


@dataclass(frozen=True, eq=False)
class ThresholdResult:
    """Outcome of the polarization threshold search; curve and bracket_history are read-only float64."""

    r_star: float | None
    bracket_history: np.ndarray  # (steps, 2): the bisection's (lo, hi) brackets, (0, 2) if none
    curve: np.ndarray            # (65, 2): the sweep's (r, negativity) rows, r from 0 to 1
    message: str


def _transpose_polynomial(gdtau: float, design: TomographyDesign) -> np.ndarray:
    """The hermitized partial transpose of the reconstructed gate output as coefficients of r^j,
    shape (k + 1, 4, 4): the design's transpose_map evaluated at D and d.

    The averaged gate does not depend on r, and the partial transpose and hermitize are linear,
    so both are taken once per coefficient.
    """
    d = dephasing_factor(gdtau)
    table, constant = design.transpose_map
    poly = polynomial_value(polynomial_value(table, d ** 4).swapaxes(0, 1), d)
    poly[0] += constant
    return hermitize(poly)


def _bisect(poly: np.ndarray, lo: float, hi: float, tol: float) -> list:
    """The (lo, hi) brackets of a bisection of [lo, hi], within [0, 1], down to width tol or to two
    adjacent doubles, for the first r at which the Hermitian polynomial poly(r), shape (k+1, 4, 4),
    has a negative eigenvalue; hi is taken to have one.

    Each step is :func:`spinqpt.qcore._negative_eigenvalue_test` at the midpoint, a test of the
    characteristic coefficients against their rounding bounds, built once per search.  At a fine
    tol the last hi lies within one rounding band above the root: the r where the first e_j to
    change sign crosses minus its bound.
    """
    negative_at = _negative_eigenvalue_test(poly)
    history = [(lo, hi)]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:           # lo and hi are adjacent doubles: tol is below their spacing
            break
        if negative_at(mid):
            hi = mid
        else:
            lo = mid
        history.append((lo, hi))
    return history


def reconstructed_output_negativity(
    r: float, gdtau: float, design: TomographyDesign
) -> float:
    """Negativity of the tomographically reconstructed gate output.

    The superposition input ENTANGLEMENT_INPUT goes through the averaged noisy
    CNOT, is read by the 15 sequences at readout polarization r and
    reconstructed by raw linear inversion; the result is tested with the
    partial transpose.  All of that is read off the design's pipeline map.  This is
    one point of the polynomial :func:`entanglement_threshold` searches.
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"polarization must lie in [0, 1], got {r}")
    return transpose_negativity(polynomial_value(_transpose_polynomial(gdtau, design), r))


def entanglement_threshold(
    design: TomographyDesign,
    gdtau: float,
    tol: float = 1e-4,
) -> ThresholdResult:
    """Smallest polarization at which the reconstructed output is entangled.

    The gate output does not depend on r, so the hermitized partial
    transpose of the reconstructed output is taken once, as an exact
    polynomial in r (degree the largest number of projections in a
    sequence).  A bracketing sweep over THRESHOLD_SWEEP_STEPS intervals,
    tested with one batched eigenvalue call, guards against non-monotonic
    pathologies before bisecting the first sign change of the negativity
    (above _NEGATIVITY_EPS) down to width tol, or to two adjacent doubles
    when tol is finer than their spacing.  Each bisection step evaluates
    the characteristic coefficients of the same polynomial, so a search
    makes one eigenvalue call and r_star converges to the root itself.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    poly = _transpose_polynomial(gdtau, design)
    negativities = transpose_negativity(np.moveaxis(polynomial_value(poly, _SWEEP_GRID), -1, 0))
    curve = np.column_stack((_SWEEP_GRID, negativities))
    entangled = negativities > _NEGATIVITY_EPS
    history = []
    if entangled[0]:
        r_star, message = 0.0, "entangled over the whole polarization range"
    elif not entangled.any():
        r_star, message = None, "no threshold: reconstructed output never entangled"
    else:
        first = int(entangled.argmax())
        history = _bisect(poly, float(_SWEEP_GRID[first - 1]), float(_SWEEP_GRID[first]), tol)
        r_star, message = history[-1][1], "threshold located"
    history = np.reshape(history, (-1, 2))
    curve.flags.writeable = history.flags.writeable = False
    return ThresholdResult(r_star=r_star, bracket_history=history, curve=curve, message=message)
