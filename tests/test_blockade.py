"""Tests for the blockade readout model and sequence evaluation."""

import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spinqpt.blockade import (
    _MC_BLOCK,
    _MC_CHUNK,
    DOWN,
    PAULI_BASIS,
    Evolve,
    MeasureSequence,
    Project,
    Rotate,
    TrajectoryFeatures,
    UP,
    _features,
    _step_maps,
    blockade_map,
    branch_weights,
    compile_weight_forms,
    effect_polynomial,
    feature_coefficients,
    format_sequence,
    format_sequences,
    parse_sequence,
    parse_sequences,
    polynomial_value,
    propagate_sequence_samples,
    sample_initial_states,
    sequence_probability,
    sequence_probability_mc,
)
from spinqpt.dynamics import NoiseParams
from spinqpt.qcore import basis_state, hermitize, pure_state

from forward_reference import (
    branch_summed_replay,
    forward_sequence_probability,
    ideal_effect_operator,
    long_sequence_sequences,
    state_features,
)

TRANSFER = math.pi / 4.0

#: The two-projection transfer sequence that reads the |uu> population.
POPULATION_SEQ = MeasureSequence(steps=(Project(UP), Evolve(TRANSFER), Project(UP)))


def transfer_readout_coefficients(r, gdtau):
    """Success probability of POPULATION_SEQ on each basis state, written out.

    Frozen closed form: with d = exp(-2 gdtau^2) the coefficients of the
    populations are {(1+r)^2, (1+r)(1 - d^4 r), (1-r)(1 + d^4 r), (1-r)^2}/4.
    """
    d4 = math.exp(-2.0 * gdtau**2) ** 4
    return (
        (1 + r) ** 2 / 4,
        (1 + r) * (1 - d4 * r) / 4,
        (1 - r) * (1 + d4 * r) / 4,
        (1 - r) ** 2 / 4,
    )


def random_sequence(rng):
    steps = []
    for _ in range(rng.integers(1, 4)):
        kind = rng.integers(0, 3)
        if kind == 0:
            steps.append(Project(UP if rng.random() < 0.5 else DOWN))
        elif kind == 1:
            steps.append(Evolve(float(rng.uniform(0.1, 2.0))))
        else:
            scope = ("X", "A", "global")[rng.integers(0, 3)]
            axis = "xyz"[rng.integers(0, 3)]
            steps.append(Rotate(scope=scope, axis=axis, theta=float(rng.uniform(-3, 3))))
    steps.append(Project(UP if rng.random() < 0.5 else DOWN))
    return MeasureSequence(steps=tuple(steps))


#: A mixed input with three eigenstates.
MIXED_RHO = 0.5 * basis_state(0) + 0.3 * basis_state(1) + 0.2 * pure_state([0, 0, 1, 1])


def random_density(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class TestBlockadeMap:
    def test_perfect_polarization_keeps_up_state(self):
        out = blockade_map(basis_state(0), UP, r=1.0)
        np.testing.assert_allclose(out, basis_state(0), atol=1e-14)
        assert np.trace(out).real == pytest.approx(1.0)

    def test_unpolarized_channel_is_uninformative(self):
        rng = np.random.default_rng(0)
        rho = random_density(rng)
        out = blockade_map(rho, UP, r=0.0)
        assert np.trace(out).real == pytest.approx(0.5, abs=1e-12)

    def test_partial_polarization_on_down_state(self):
        # declared up on a spin-down edge succeeds only through the error branch
        out = blockade_map(basis_state(2), UP, r=0.6)
        np.testing.assert_allclose(out, 0.2 * basis_state(2), atol=1e-14)

    def test_declaration_traces_sum_to_input_trace(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            rho = random_density(rng)
            r = float(rng.uniform(0, 1))
            up_trace = np.trace(blockade_map(rho, UP, r)).real
            down_trace = np.trace(blockade_map(rho, DOWN, r)).real
            assert up_trace + down_trace == pytest.approx(1.0, abs=1e-13)

    def test_invalid_polarization_rejected(self):
        with pytest.raises(ValueError):
            blockade_map(basis_state(0), UP, r=1.5)

    def test_branch_weights_normalized(self):
        for r in np.linspace(0.0, 1.0, 11):
            correct, error = branch_weights(float(r))
            assert correct + error == pytest.approx(1.0, abs=1e-15)
            assert 0.0 <= error <= correct <= 1.0


class TestSequenceValidation:
    def test_must_end_with_projection(self):
        with pytest.raises(ValueError, match="end with a projection"):
            MeasureSequence(steps=(Project(UP), Evolve(1.0)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MeasureSequence(steps=())

    def test_evolve_time_must_be_positive(self):
        with pytest.raises(ValueError):
            Evolve(0.0)

    def test_projection_count(self):
        assert POPULATION_SEQ.n_projections == 2


class TestSequenceProbability:
    @pytest.mark.parametrize("r", [0.0, 0.3, 0.6, 1.0])
    def test_population_readout_on_uu(self, r):
        noise = NoiseParams.from_dimensionless(r=r, gdtau=0.0)
        p = sequence_probability(POPULATION_SEQ, basis_state(0), noise)
        assert p == pytest.approx((1 + r) ** 2 / 4, abs=1e-12)

    def test_full_transfer_blocks_antiparallel_state(self):
        noise = NoiseParams.from_dimensionless(r=1.0, gdtau=0.0)
        p = sequence_probability(POPULATION_SEQ, basis_state(1), noise)
        assert p == pytest.approx(0.0, abs=1e-12)

    def test_strong_noise_halves_antiparallel_readout(self):
        # d^4 -> 0 washes out the transfer oscillation, leaving probability 1/2.
        noise = NoiseParams.from_dimensionless(r=1.0, gdtau=2.0)
        p = sequence_probability(POPULATION_SEQ, basis_state(1), noise)
        assert p == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("r", [0.0, 0.25, 0.5, 0.75, 1.0])
    @pytest.mark.parametrize("gdtau", [0.0, 0.05, 0.1])
    def test_basis_state_coefficients(self, r, gdtau):
        noise = NoiseParams.from_dimensionless(r=r, gdtau=gdtau)
        expected = transfer_readout_coefficients(r, gdtau)
        for idx in range(4):
            p = sequence_probability(POPULATION_SEQ, basis_state(idx), noise)
            assert p == pytest.approx(expected[idx], abs=1e-12)

    def test_accepts_validated_density_type(self):
        noise = NoiseParams.from_dimensionless(r=0.8, gdtau=0.0)
        p = sequence_probability(POPULATION_SEQ, basis_state(0), noise)
        assert p == pytest.approx(0.81, abs=1e-12)

    def test_probability_bounds_on_random_inputs(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            seq = random_sequence(rng)
            rho = random_density(rng)
            noise = NoiseParams.from_dimensionless(
                r=float(rng.uniform(0, 1)), gdtau=float(rng.uniform(0, 0.3))
            )
            p = sequence_probability(seq, rho, noise)
            assert -1e-12 <= p <= 1.0 + 1e-12


class TestIdealEffectOperator:
    def test_single_projection(self):
        seq = MeasureSequence(steps=(Project(UP),))
        np.testing.assert_allclose(
            ideal_effect_operator(seq), np.diag([1, 1, 0, 0]), atol=1e-14
        )

    def test_transfer_sequence_reads_leading_population(self):
        np.testing.assert_allclose(
            ideal_effect_operator(POPULATION_SEQ), np.diag([1, 0, 0, 0]), atol=1e-12
        )

    def test_global_pi_flip_reads_down_block(self):
        seq = MeasureSequence(steps=(Rotate("global", "x", math.pi), Project(UP)))
        np.testing.assert_allclose(
            ideal_effect_operator(seq), np.diag([0, 0, 1, 1]), atol=1e-12
        )

    def test_effect_independent_of_coupling(self):
        # Evolve durations are in units of 1/g: the one effect reads the
        # forward probability at every coupling.
        rng = np.random.default_rng(3)
        for _ in range(10):
            seq, rho = random_sequence(rng), random_density(rng)
            p_effect = np.trace(ideal_effect_operator(seq) @ rho).real
            for g in (0.3, 2.7):
                assert p_effect == pytest.approx(
                    forward_sequence_probability(seq, rho, NoiseParams(), g), abs=1e-12)

    def test_effect_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            seq = random_sequence(rng)
            evals = np.linalg.eigvalsh(hermitize(ideal_effect_operator(seq)))
            assert evals.min() >= -1e-12 and evals.max() <= 1.0 + 1e-12

    def test_matches_noise_free_probability(self):
        # Dual route: Tr[E rho] against the forward evaluator at r=1, dtau=0.
        rng = np.random.default_rng(5)
        noise = NoiseParams.from_dimensionless(r=1.0, gdtau=0.0)
        for _ in range(100):
            seq = random_sequence(rng)
            rho = random_density(rng)
            effect = ideal_effect_operator(seq)
            p_effect = np.trace(effect @ rho).real
            p_forward = forward_sequence_probability(seq, rho, noise)
            assert p_effect == pytest.approx(p_forward, abs=1e-12)


rotations = st.builds(Rotate, scope=st.sampled_from(("X", "A", "global")),
                      axis=st.sampled_from(("x", "y", "z")), theta=st.floats(-4.0, 4.0))
projections = st.builds(Project, st.sampled_from((UP, DOWN)))
evolves = st.builds(Evolve, st.floats(0.05, 3.0))


@st.composite
def sequences(draw):
    """Up to three rotations, 0-3 projections and 0-2 Evolve steps in any order,
    then the closing projection."""
    body = (draw(st.lists(rotations, max_size=3)) + draw(st.lists(projections, max_size=3))
            + draw(st.lists(evolves, max_size=2)))
    return MeasureSequence(steps=(*draw(st.permutations(body)), draw(projections)))


class TestEffectPolynomial:
    @settings(max_examples=300)
    @given(seq=sequences(), r=st.floats(0.0, 1.0), gdtau=st.floats(0.0, 0.5),
           g=st.floats(0.2, 5.0), seed=st.integers(0, 2**32 - 1))
    def test_equals_forward_probability(self, seq, r, gdtau, g, seed):
        # The forward reference runs at coupling g with dispersion gdtau / g.
        noise = NoiseParams(r=r, gdtau=gdtau)
        rho = random_density(np.random.default_rng(seed))
        coeffs = effect_polynomial(seq)
        n_evolves = sum(isinstance(step, Evolve) for step in seq.steps)
        assert coeffs.shape == (n_evolves + 1, seq.n_projections + 1, 4, 4)
        damping = noise.dephasing ** 4
        effect = sum(damping ** c * r ** j * coeffs[c, j] for c, j in np.ndindex(coeffs.shape[:2]))
        expected = forward_sequence_probability(seq, rho, noise, g)
        assert abs(np.trace(effect @ rho).real - expected) < 1e-12
        assert abs(sequence_probability(seq, rho, noise) - expected) < 1e-12

    @settings(max_examples=200)
    @given(seq=sequences())
    def test_coefficients_are_hermitian(self, seq):
        # Real coefficients on the Pauli products: exactly Hermitian, == entrywise (0.0 == -0.0).
        coeffs = effect_polynomial(seq)
        np.testing.assert_array_equal(coeffs, coeffs.conj().swapaxes(-1, -2))

    def test_cubic_in_r_for_three_projections(self):
        # P+ P+ reads the same block twice: the ideal effect is unchanged but
        # the noisy one picks up one more readout factor (1 + r)/2 per repeat.
        seq = MeasureSequence(steps=(Project(UP), Evolve(TRANSFER), Project(UP), Project(UP)))
        coeffs = effect_polynomial(seq)
        assert coeffs.shape == (2, 4, 4, 4) and np.abs(coeffs[:, 3]).max() > 0.1
        np.testing.assert_allclose(ideal_effect_operator(seq),
                                   ideal_effect_operator(POPULATION_SEQ), atol=1e-14)


class TestPauliFeatures:
    """The one operator basis: features(X)_b = Tr[P_b X], so X = sum_b features(X)_b P_b / 4."""

    def test_basis_reads_four_times_the_identity(self):
        assert np.array_equal(_features(PAULI_BASIS), 4.0 * np.eye(16))

    @staticmethod
    def assert_orthogonal_and_unital(step_map):
        # A unitary channel is orthogonal on the features; it is unital and trace preserving,
        # so it fixes the identity's row and column.
        np.testing.assert_allclose(step_map @ step_map.T, np.eye(16), rtol=0, atol=1e-14)
        np.testing.assert_allclose(step_map[0], np.eye(16)[0], rtol=0, atol=1e-14)
        np.testing.assert_allclose(step_map[:, 0], np.eye(16)[0], rtol=0, atol=1e-14)

    @settings(max_examples=100)
    @given(step=rotations)
    def test_rotation_map_is_orthogonal_and_unital(self, step):
        (step_map,) = _step_maps(step)
        self.assert_orthogonal_and_unital(step_map)

    @settings(max_examples=100)
    @given(step=evolves)
    def test_evolve_map_at_its_mean_time_is_orthogonal_and_unital(self, step):
        m0, m1, m2 = _step_maps(step)
        phase = 4.0 * step.mean_time
        self.assert_orthogonal_and_unital(m0 + math.cos(phase) * m1 + math.sin(phase) * m2)


class TestMonteCarlo:
    def test_deterministic_sequence(self):
        noise = NoiseParams.from_dimensionless(r=1.0, gdtau=0.0)
        est = sequence_probability_mc(
            POPULATION_SEQ, basis_state(0), noise, 2000, np.random.default_rng(0)
        )
        assert est.estimate == 1.0
        assert est.stderr == 0.0

    def test_agrees_with_analytic_evaluator(self):
        noise = NoiseParams.from_dimensionless(r=0.8, gdtau=0.1)
        p = sequence_probability(POPULATION_SEQ, basis_state(1), noise)
        est = sequence_probability_mc(
            POPULATION_SEQ, basis_state(1), noise, 1_000_000, np.random.default_rng(42)
        )
        assert abs(est.estimate - p) <= 3.0 * est.stderr

    def test_mixed_state_input(self):
        noise = NoiseParams.from_dimensionless(r=0.7, gdtau=0.05)
        p = sequence_probability(POPULATION_SEQ, MIXED_RHO, noise)
        est = sequence_probability_mc(
            POPULATION_SEQ, MIXED_RHO, noise, 400_000, np.random.default_rng(7)
        )
        assert abs(est.estimate - p) <= 3.5 * est.stderr

    @pytest.mark.parametrize("r,gdtau", [(0.8, 0.1), (0.6, 0.3), (1.0, 0.0)])
    def test_mixed_state_input_step_group(self, r, gdtau):
        # Five Evolve steps and three projections: no weight form, each trajectory
        # back-propagates the sequence's effect through all of its steps.
        seq = long_sequence_sequences()[0]
        noise = NoiseParams.from_dimensionless(r=r, gdtau=gdtau)
        p = sequence_probability(seq, MIXED_RHO, noise)
        est = sequence_probability_mc(seq, MIXED_RHO, noise, 200_000, np.random.default_rng(7))
        assert abs(est.estimate - p) <= 3.5 * est.stderr

    @pytest.mark.parametrize("rho", [2.0 * basis_state(0), np.diag([1.2, 0.0, 0.0, -0.2]), np.zeros((4, 4))],
                             ids=["trace-2", "negative-eigenvalue", "zero"])
    def test_rejects_non_density_matrix(self, rho):
        # Renormalizing or clipping rho would estimate another state's probability.
        noise = NoiseParams.from_dimensionless(r=0.8, gdtau=0.1)
        with pytest.raises(ValueError, match="rho must be a density matrix"):
            sequence_probability_mc(POPULATION_SEQ, rho, noise, 1000, np.random.default_rng(0))

    def test_error_shrinks_as_inverse_sqrt_n(self):
        noise = NoiseParams.from_dimensionless(r=0.8, gdtau=0.1)
        p = sequence_probability(POPULATION_SEQ, basis_state(1), noise)
        rng = np.random.default_rng(11)
        sizes = [1_000, 10_000, 100_000]
        reps = [40, 20, 10]
        rms = []
        for n, k in zip(sizes, reps):
            sq = 0.0
            for _ in range(k):
                est = sequence_probability_mc(POPULATION_SEQ, basis_state(1), noise, n, rng)
                sq += (est.estimate - p) ** 2
            rms.append(math.sqrt(sq / k))
        slope = np.polyfit(np.log(sizes), np.log(rms), 1)[0]
        assert -0.65 < slope < -0.35

    def test_estimator_unbiased_pooled_z(self):
        # 50 random configurations; z-scores against the analytic value must
        # pool to roughly standard normal.
        rng = np.random.default_rng(123)
        zs = []
        attempts = 0
        while len(zs) < 50 and attempts < 200:
            attempts += 1
            seq = random_sequence(rng)
            rho = random_density(rng)
            noise = NoiseParams.from_dimensionless(
                r=float(rng.uniform(0.2, 1.0)), gdtau=float(rng.uniform(0.0, 0.15))
            )
            p = sequence_probability(seq, rho, noise)
            if p < 0.02 or p > 0.98:
                continue
            n = 4000
            est = sequence_probability_mc(seq, rho, noise, n, rng)
            zs.append((est.estimate - p) / math.sqrt(p * (1 - p) / n))
        zs = np.array(zs)
        assert len(zs) == 50
        assert abs(zs.mean()) < 0.2
        assert 0.5 < zs.var() < 1.5

    def test_requires_samples(self):
        noise = NoiseParams.from_dimensionless(r=1.0, gdtau=0.0)
        with pytest.raises(ValueError):
            sequence_probability_mc(POPULATION_SEQ, basis_state(0), noise, 0,
                                    np.random.default_rng(0))

    @pytest.mark.parametrize("n_samples", [2.5, True, np.float64(3.0)], ids=repr)
    def test_rejects_non_integral_sample_count(self, n_samples):
        # int(2.5) trajectories divided by 2.5 gave a biased estimate; True ran one.
        noise = NoiseParams.from_dimensionless(r=0.8, gdtau=0.1)
        with pytest.raises(ValueError, match="integer of at least 1"):
            sequence_probability_mc(POPULATION_SEQ, basis_state(1), noise, n_samples,
                                    np.random.default_rng(0))

    def test_accepts_numpy_integer_sample_count(self):
        noise = NoiseParams.from_dimensionless(r=0.8, gdtau=0.1)
        a = sequence_probability_mc(POPULATION_SEQ, basis_state(1), noise, np.int64(300),
                                    np.random.default_rng(3))
        b = sequence_probability_mc(POPULATION_SEQ, basis_state(1), noise, 300,
                                    np.random.default_rng(3))
        assert a == b and type(a.n_samples) is int

    @pytest.mark.parametrize("seq,rho,r,gdtau,seed,n,estimate", [
        (POPULATION_SEQ, pure_state([1, 0, 1, 0]), 0.8, 0.1, 11, 1000, 0.441),
        (MeasureSequence(steps=(Rotate("X", "y", math.pi / 2), Project(UP), Evolve(TRANSFER),
                                Project(UP))),
         pure_state([1, 1j, 0, 0]), 0.6, 0.3, 2024, 20_000, 0.2778),
        (MeasureSequence(steps=(Evolve(TRANSFER), Project(UP))), basis_state(0), 0.9, 1.0, 7,
         _MC_CHUNK + 1234, 0.9503769394269884),
    ], ids=["population", "rotated-pair", "two-chunks"])
    def test_stream_is_pinned(self, seq, rho, r, gdtau, seed, n, estimate):
        # Recorded values: per chunk, rng draws the starting states, one duration row
        # per Evolve step and one uniform per trajectory.  The last case runs two chunks.
        noise = NoiseParams.from_dimensionless(r=r, gdtau=gdtau)
        est = sequence_probability_mc(seq, rho, noise, n, np.random.default_rng(seed))
        assert est.estimate == estimate and est.n_samples == n

    def test_initial_states_are_f_ordered(self):
        # test_benchmark_contract pins this layout of the kernel's first argument.
        psi = sample_initial_states(np.diag([0.5, 0.3, 0.2, 0.0]), 7, np.random.default_rng(0))
        assert psi.shape == (7, 4) and psi.dtype == complex and psi.flags.f_contiguous


def random_pure_states(rng, n):
    psi = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    return psi / np.linalg.norm(psi, axis=1, keepdims=True)


def form_weights(seq, psi, noise, durations):
    """The weights of trajectories starting at the rows of psi through one sequence's form: its
    coefficients at r dotted with each trajectory's features, a state batch being one input whose
    basis is the identity."""
    forms, basis = compile_weight_forms((seq,)), np.eye(16)[None]
    coefficients = polynomial_value(feature_coefficients(forms, basis)[:, 0, 0], noise.r)
    return coefficients @ TrajectoryFeatures(forms, noise, basis)(state_features(psi), durations)


_kernel_steps = st.lists(st.one_of(
    st.floats(0.1, 2.0).map(Evolve),
    st.builds(Rotate, st.sampled_from(["X", "A", "global"]), st.sampled_from("xyz"), st.floats(-3.0, 3.0)),
), max_size=3)

_weighted_steps = st.lists(st.one_of(
    st.floats(0.1, 2.0).map(Evolve),
    st.builds(Rotate, st.sampled_from(["X", "A", "global"]), st.sampled_from("xyz"), st.floats(-3.0, 3.0)),
    st.sampled_from([UP, DOWN]).map(Project),
), max_size=11).filter(lambda steps: sum(isinstance(step, Evolve) for step in steps) <= 5
                      and sum(isinstance(step, Project) for step in steps) <= 2)


class TestWeightedKernel:
    @settings(max_examples=60)
    @given(steps=_kernel_steps, declared=st.sampled_from([UP, DOWN]), r=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    @example(steps=[], declared=UP, r=1.0, seed=0)
    @example(steps=[], declared=DOWN, r=1.0, seed=0)
    def test_one_projection_weight_is_sequence_probability(self, steps, declared, r, seed):
        # Without timing noise the one projection's weight is each trajectory's exact
        # success probability, also for row 0, whose p_up = 2 * sqrt(0.5)^2 rounds past 1.
        seq = MeasureSequence(steps=(*steps, Project(declared)))
        noise = NoiseParams(r=r)
        psi = random_pure_states(np.random.default_rng(seed), 20)
        psi[0] = [math.sqrt(0.5), math.sqrt(0.5), 0, 0]
        durations = [np.full(20, step.mean_time) for step in steps if isinstance(step, Evolve)]
        weights = form_weights(seq, psi, noise, durations)
        want = [sequence_probability(seq, np.outer(row, row.conj()), noise) for row in psi]
        assert weights.dtype == np.float64 and weights.shape == (20,)
        np.testing.assert_allclose(weights, want, rtol=0, atol=1e-12)

    def test_evaluator_draws_nothing(self):
        # The readout branches are summed over, not drawn: the features take no
        # generator, leave numpy's global stream as it was and repeat themselves.
        assert list(inspect.signature(TrajectoryFeatures.__call__).parameters) == [
            "self", "coords", "durations"]
        seq = MeasureSequence(steps=(Project(UP), Evolve(TRANSFER), Project(DOWN), Project(UP)))
        psi = random_pure_states(np.random.default_rng(6), 30)
        durations = [np.random.default_rng(7).normal(TRANSFER, 0.3, size=30)]
        before = np.random.get_state()
        evaluate = TrajectoryFeatures(compile_weight_forms((seq,)), NoiseParams(r=0.7), np.eye(16)[None])
        first = evaluate(state_features(psi), durations).copy()
        np.testing.assert_array_equal(evaluate(state_features(psi), durations), first)
        after = np.random.get_state()
        assert after[0] == before[0] and after[2:] == before[2:]
        np.testing.assert_array_equal(after[1], before[1])

    def test_weight_mean_agrees_with_analytic_evaluator(self):
        # Sampled durations and branches: the weights' mean estimates the success
        # probability within its standard error.
        noise = NoiseParams(r=0.8, gdtau=0.3)
        seq = MeasureSequence(steps=(Rotate("X", "y", 0.9), Project(UP), Evolve(TRANSFER),
                                     Project(DOWN)))
        rho = pure_state([1, 1j, 0.5, 0])
        n = 40_000
        rng = np.random.default_rng(8)
        psi = sample_initial_states(rho, n, rng)
        durations = [rng.normal(TRANSFER, noise.sampled_gdtau, size=n)]
        weights = form_weights(seq, psi, noise, durations)
        p = sequence_probability(seq, rho, noise)
        assert abs(weights.mean() - p) < 4.0 * weights.std() / math.sqrt(n)

    @settings(max_examples=80, deadline=None)
    @given(steps=_weighted_steps, declared=st.sampled_from([UP, DOWN]), r=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_form_weight_equals_state_replay(self, steps, declared, r, seed):
        # Random pure states, rotations anywhere, up to three projections and five
        # Evolve steps and random durations: the Hermitian form, or past two Evolve
        # steps the step group, gives the weight the trajectory's step-by-step replay
        # gives, averaged over its branches.
        seq = MeasureSequence(steps=(*steps, Project(declared)))
        noise = NoiseParams(r=r)
        rng = np.random.default_rng(seed)
        psi = random_pure_states(rng, 50)
        durations = [rng.uniform(-5.0, 5.0, size=50) for step in steps if isinstance(step, Evolve)]
        weights = form_weights(seq, psi, noise, durations)
        want = branch_summed_replay(psi, seq, noise, durations)
        np.testing.assert_allclose(weights, want, rtol=0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(steps=_weighted_steps, declared=st.sampled_from([UP, DOWN]), r=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_weight_at_mean_durations_is_sequence_probability(self, steps, declared, r, seed):
        # Without timing noise nothing is random: every weight, with any number of
        # projections, is the trajectory's exact success probability.
        seq = MeasureSequence(steps=(*steps, Project(declared)))
        noise = NoiseParams(r=r)
        psi = random_pure_states(np.random.default_rng(seed), 10)
        durations = [np.full(10, step.mean_time) for step in steps if isinstance(step, Evolve)]
        want = [sequence_probability(seq, np.outer(row, row.conj()), noise) for row in psi]
        np.testing.assert_allclose(form_weights(seq, psi, noise, durations), want, rtol=0, atol=1e-12)


def replayed_draws(seq, noise, n, seed):
    """The kernel's draws, replayed from its documented stream layout: one duration row per Evolve
    step, in step order, then one uniform per trajectory."""
    rng = np.random.default_rng(seed)
    durations = [rng.normal(step.mean_time, noise.sampled_gdtau, size=n)
                 for step in seq.steps if isinstance(step, Evolve)]
    return durations, rng.random(n)


class TestThinningKernel:
    @staticmethod
    def check_against_replay(seq, noise, n, seed):
        # The weights are the branch-summed replay of each trajectory on the kernel's own
        # durations, alive is u < weights on its own uniforms, and the states are only read.
        psi = np.asfortranarray(random_pure_states(np.random.default_rng(seed), n))
        start = psi.copy(order="F")
        weights, alive = propagate_sequence_samples(psi, seq, noise, np.random.default_rng(seed + 1))
        durations, u = replayed_draws(seq, noise, n, seed + 1)
        np.testing.assert_array_equal(psi, start)
        np.testing.assert_allclose(weights, branch_summed_replay(start, seq, noise, durations), rtol=0, atol=1e-12)
        np.testing.assert_array_equal(alive, u < weights)

    @settings(max_examples=60, deadline=None)
    @given(steps=_weighted_steps, declared=st.sampled_from([UP, DOWN]), r=st.floats(0.0, 1.0),
           gdtau=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 2))
    def test_matches_branch_summed_replay(self, steps, declared, r, gdtau, seed):
        self.check_against_replay(MeasureSequence(steps=(*steps, Project(declared))),
                                  NoiseParams(r=r, gdtau=gdtau), 50, seed)

    def test_step_group_over_two_blocks(self):
        # Five Evolve steps and three projections make a step group; one row more than
        # a block takes a second block.
        self.check_against_replay(long_sequence_sequences()[0], NoiseParams(r=0.7, gdtau=0.3),
                                  _MC_BLOCK + 1, 5)

    @pytest.mark.parametrize("seq", [POPULATION_SEQ, MeasureSequence(steps=(Rotate("X", "y", 0.9), Project(UP))),
                                     long_sequence_sequences()[0]], ids=["form", "no-evolve", "step-group"])
    def test_empty_batch(self, seq):
        # No trajectory gives no weight and no alive flag, and features with no column.
        noise = NoiseParams(r=0.7, gdtau=0.3)
        psi = sample_initial_states(np.eye(4) / 4, 0, np.random.default_rng(0))
        weights, alive = propagate_sequence_samples(psi, seq, noise, np.random.default_rng(1))
        assert weights.shape == alive.shape == (0,) and alive.dtype == bool
        forms = compile_weight_forms((seq,))
        features = TrajectoryFeatures(forms, noise, np.eye(16)[None])
        assert features(np.zeros((16, 0)), np.zeros((len(forms.slot_times), 0))).shape == (features.n_features, 0)


class TestSerialization:
    def test_documented_format(self):
        text = format_sequence(POPULATION_SEQ)
        assert text.splitlines()[0] == "P+"
        assert text.splitlines()[1].startswith("E ")
        assert text.splitlines()[2] == "P+"

    def test_round_trip_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            seq = random_sequence(rng)
            assert parse_sequence(format_sequence(seq)) == seq

    def test_round_trip_preserves_irrational_angles(self):
        seq = MeasureSequence(
            steps=(
                Rotate("global", "y", math.pi / 3),
                Project(DOWN),
                Evolve(math.pi / 4),
                Project(UP),
            )
        )
        again = parse_sequence(format_sequence(seq))
        assert again.steps[0].theta == seq.steps[0].theta
        assert again.steps[2].mean_time == seq.steps[2].mean_time

    def test_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            parse_sequence("P+\nQ 1.0\n")
        with pytest.raises(ValueError):
            parse_sequence("R B x 0.5\nP+\n")

    @pytest.mark.parametrize("text,message", [
        ("P+\n\nE 0.5\n\nQ\n", "a measurement sequence must end with a projection"),
        ("P+\n  Q 1.0 \n\nE 0.5\n", "unrecognized sequence line: '  Q 1.0 '"),
        ("P+\n \t\nR B x 0.5\nP+\n", "unknown rotation scope in line: 'R B x 0.5'"),
    ])
    def test_multi_sequence_document_reports_first_bad_block(self, text, message):
        # Blocks are checked in order, each when its last line has been read.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_sequences(text)

    def test_blank_document_holds_no_sequence(self):
        assert parse_sequences("\n  \n\t\n") == ()

    def test_multi_sequence_document_round_trip(self):
        rng = np.random.default_rng(7)
        seqs = tuple(random_sequence(rng) for _ in range(6))
        assert parse_sequences(format_sequences(seqs)) == seqs
