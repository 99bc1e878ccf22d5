"""Tests for the tomography design, reconstruction, QPT, and threshold search."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinqpt.blockade import Evolve, Project, UP, sequence_probability
from spinqpt.closed_form import chi_closed_form, chi_element_1111
from spinqpt.dynamics import (
    CNOT_FRAME,
    CNOT_TARGET,
    GateSchedule,
    NoiseParams,
    evolve_unitary,
    exchange_hamiltonian,
    hadamard,
    local_rotation,
    noisy_cnot_channel,
    sample_cnot_unitary,
)
from spinqpt.process_matrix import (
    CHI_ORDER,
    chi_index,
    chi_of_channel,
    hermiticity_defect,
    ideal_cnot_chi,
    process_fidelity,
)
from spinqpt.qcore import QuantumChannel, apply_channel, basis_state, negativity, pure_state
from spinqpt.blockade import format_sequences
from spinqpt.cli import main
from spinqpt.tomography import (
    DesignRankError,
    ENTANGLEMENT_INPUT,
    TRANSFER_TIME,
    _mc_gate_batch,
    _qpt_probabilities_mc,
    assemble_channel_action,
    design_from_sequences,
    design_matrix_rows,
    design_sequences,
    entanglement_threshold,
    qpt_input_states,
    reconstruct_state,
    reconstructed_output_negativity,
    run_qpt,
)

from forward_reference import (
    forward_chi,
    forward_output_negativity,
    forward_pipeline_chi,
    forward_threshold,
)
from test_process_matrix import _random_kraus_channel


@pytest.fixture(scope="module")
def design():
    return design_sequences(g=1.0)


def random_density(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class TestQptInputStates:
    def test_plus_superposition_entries(self):
        rho = qpt_input_states()[("+", 0, 1)]
        for i in range(2):
            for j in range(2):
                assert rho[i, j] == pytest.approx(0.5, abs=1e-14)

    def test_i_weighted_superposition_entry(self):
        rho = qpt_input_states()[("-", 0, 1)]
        assert rho[0, 1] == pytest.approx(-0.5j, abs=1e-14)
        assert rho[1, 0] == pytest.approx(0.5j, abs=1e-14)

    def test_all_sixteen_pure_and_normalized(self):
        states = qpt_input_states()
        pairs = [(m, n) for m in range(4) for n in range(m + 1, 4)]
        assert list(states) == ([("d", m) for m in range(4)] + [("+", *p) for p in pairs]
                                + [("-", *p) for p in pairs])
        for rho in states.values():
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
            assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-14)


class TestDesign:
    def test_informationally_complete(self, design):
        assert design.n_sequences == 15
        assert np.linalg.matrix_rank(design.design_matrix) == 16

    def test_first_sequence_is_bare_transfer_readout(self, design):
        steps = design.sequences[0].steps
        assert steps == (Project(UP), Evolve(TRANSFER_TIME), Project(UP))
        np.testing.assert_allclose(design.effects[0], np.diag([1, 0, 0, 0]), atol=1e-12)

    def test_minimal_every_sequence_needed(self, design):
        for drop in range(15):
            effects = [e for j, e in enumerate(design.effects) if j != drop]
            assert np.linalg.matrix_rank(design_matrix_rows(effects)) == 15

    def test_deterministic(self):
        a = design_sequences(g=1.0)
        b = design_sequences(g=1.0)
        assert a.sequences == b.sequences
        np.testing.assert_array_equal(a.design_matrix, b.design_matrix)

    def test_built_once_per_coupling(self):
        assert design_sequences(1.0) is design_sequences(1)
        assert design_sequences(2.0) is not design_sequences(1.0)
        assert design_sequences(2.0).g == 2.0

    def test_cached_design_is_read_only(self):
        design = design_sequences(1.0)
        with pytest.raises(ValueError, match="read-only"):
            design.effects[0][0, 0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            design.design_matrix[0, 0] = 0.5
        assert design_sequences(1.0).effects[0][0, 0] == 1.0

    def test_custom_design_requires_fifteen_sequences(self, design):
        with pytest.raises(ValueError, match="exactly 15"):
            design_from_sequences(design.sequences[:14], g=1.0)

    def test_rank_deficient_custom_design_reports_rank(self, design):
        clones = (design.sequences[0],) * 15
        with pytest.raises(DesignRankError) as excinfo:
            design_from_sequences(clones, g=1.0)
        assert excinfo.value.achieved_rank < 16


class TestReconstruction:
    def test_round_trip_without_noise(self, design):
        rng = np.random.default_rng(10)
        noise = NoiseParams.from_dimensionless(r=1.0, gdtau=0.0)
        for _ in range(100):
            rho = random_density(rng)
            probs = [sequence_probability(s, rho, noise) for s in design.sequences]
            rec = reconstruct_state(probs, design)
            assert np.max(np.abs(rec - rho)) < 1e-10

    def test_maximally_mixed_fixed_point(self, design):
        noise = NoiseParams.from_dimensionless(r=1.0, gdtau=0.0)
        rho = np.eye(4, dtype=complex) / 4
        probs = [sequence_probability(s, rho, noise) for s in design.sequences]
        np.testing.assert_allclose(reconstruct_state(probs, design), rho, atol=1e-12)

    def test_polarization_bias_on_leading_population(self, design):
        # Noisy probabilities inverted with ideal effects keep the readout
        # degradation: the |uu> population reconstructs to (1+r)^2/4.
        noise = NoiseParams.from_dimensionless(r=0.6, gdtau=0.0)
        probs = [sequence_probability(s, basis_state(0), noise) for s in design.sequences]
        rec = reconstruct_state(probs, design)
        assert rec[0, 0].real == pytest.approx(0.64, abs=1e-12)

    def test_wrong_probability_count_rejected(self, design):
        with pytest.raises(ValueError):
            reconstruct_state([0.5] * 14, design)
        with pytest.raises(ValueError):
            reconstruct_state(np.full((14, 3), 0.5), design)

    def test_columns_reconstruct_like_single_states(self, design):
        rng = np.random.default_rng(11)
        probs = rng.uniform(0.0, 1.0, size=(15, 5))
        stack = reconstruct_state(probs, design)
        assert stack.shape == (5, 4, 4)
        for k in range(5):
            np.testing.assert_allclose(stack[k], reconstruct_state(probs[:, k], design),
                                       rtol=0, atol=1e-14)


def channel_outputs(channel):
    return np.array([apply_channel(channel, rho) for rho in qpt_input_states().values()])


def action_of(chi, k, l):
    """The channel action on E_kl, read from column (k, l) of chi."""
    col = chi_index(k, l)
    return np.array([[chi[chi_index(m, n), col] for n in range(4)] for m in range(4)])


class TestAssembleChannelAction:
    @staticmethod
    def _outputs_for_unitary(u):
        return channel_outputs(QuantumChannel.from_unitary(u))

    def test_identity_channel_recovers_unit_matrices(self):
        chi = assemble_channel_action(self._outputs_for_unitary(np.eye(4, dtype=complex)))
        for k, l in CHI_ORDER:
            e_kl = np.zeros((4, 4), dtype=complex)
            e_kl[k, l] = 1.0
            np.testing.assert_allclose(action_of(chi, k, l), e_kl, atol=1e-14)

    def test_cnot_action_on_coherences(self):
        # Independent oracle: U E_kl U† computed by direct matrix products.
        chi = assemble_channel_action(self._outputs_for_unitary(CNOT_TARGET))
        e02 = np.zeros((4, 4), dtype=complex)
        e02[0, 2] = 1.0
        np.testing.assert_allclose(action_of(chi, 0, 2), CNOT_TARGET @ e02 @ CNOT_TARGET.conj().T, atol=1e-14)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 3] = 1.0  # |uu><dd| after transfer of the target flip
        np.testing.assert_allclose(action_of(chi, 0, 2), expected, atol=1e-14)
        want_23 = np.zeros((4, 4), dtype=complex)
        want_23[3, 2] = 1.0
        np.testing.assert_allclose(action_of(chi, 2, 3), want_23, atol=1e-14)

    def test_adjoint_pairing(self):
        # chi[(m,n),(k,l)] = conj(chi[(n,m),(l,k)]): E(E_lk) is the adjoint of E(E_kl).
        chi = assemble_channel_action(self._outputs_for_unitary(CNOT_TARGET))
        assert hermiticity_defect(chi) < 1e-13

    def test_missing_input_rejected(self):
        outputs = self._outputs_for_unitary(np.eye(4, dtype=complex))
        with pytest.raises(ValueError):
            assemble_channel_action(outputs[:15])

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), n_ops=st.integers(1, 4))
    def test_random_channel_assembles_to_its_chi(self, seed, n_ops):
        channel = _random_kraus_channel(seed, n_ops)
        np.testing.assert_allclose(assemble_channel_action(channel_outputs(channel)),
                                   chi_of_channel(channel).chi, rtol=0, atol=1e-14)


class TestRunQpt:
    def test_ideal_limit_matches_ideal_chi(self, design):
        noise = NoiseParams.from_dimensionless(r=1.0, gdtau=0.0)
        chi = run_qpt(noise, method="pipeline", design=design)
        assert np.max(np.abs(chi.chi - ideal_cnot_chi().chi)) < 1e-10

    def test_ideal_limit_trace_preservation(self, design):
        noise = NoiseParams.from_dimensionless(r=1.0, gdtau=0.0)
        chi = run_qpt(noise, method="pipeline", design=design).chi
        for col, (k, l) in enumerate(CHI_ORDER):
            total = sum(chi[chi_index(m, m), col] for m in range(4))
            assert abs(total - (1.0 if k == l else 0.0)) < 1e-10

    def test_leading_element_at_sixty_percent(self, design):
        noise = NoiseParams.from_dimensionless(r=0.6, gdtau=0.0)
        chi = run_qpt(noise, method="pipeline", design=design)
        assert chi.element(0, 0, 0, 0).real == pytest.approx(0.64, abs=1e-10)

    @pytest.mark.parametrize("r", (0.0, 0.25, 0.5, 0.75, 1.0))
    @pytest.mark.parametrize("gdtau", (0.0, 0.05, 0.1))
    def test_leading_element_matches_explicit_polynomial(self, design, r, gdtau):
        noise = NoiseParams.from_dimensionless(r=r, gdtau=gdtau)
        chi = run_qpt(noise, method="pipeline", design=design)
        assert chi.element(0, 0, 0, 0).real == pytest.approx(
            chi_element_1111(r, gdtau), abs=1e-10
        )

    @pytest.mark.parametrize("r", (1.0, 0.8, 0.6, 0.3))
    def test_pipeline_equals_closed_form_without_timing_noise(self, design, r):
        # With gdtau = 0 the reconstruction map scales each spin component by
        # a power of r only, and the two routes agree entrywise.
        noise = NoiseParams.from_dimensionless(r=r, gdtau=0.0)
        chi_pipe = run_qpt(noise, method="pipeline", design=design)
        chi_cf = chi_closed_form(r, 0.0)
        assert np.max(np.abs(chi_pipe.chi - chi_cf.chi)) < 1e-10

    def test_pipeline_deviates_from_closed_form_under_timing_noise(self, design):
        # Known sequence-design dependence: off-diagonal sectors differ once
        # gdtau > 0.  The leading diagonal element still agrees (checked above);
        # this documents that the difference is real rather than a regression.
        noise = NoiseParams.from_dimensionless(r=0.8, gdtau=0.1)
        chi_pipe = run_qpt(noise, method="pipeline", design=design)
        chi_cf = chi_closed_form(0.8, 0.1)
        dev = np.abs(chi_pipe.chi - chi_cf.chi)
        assert dev.max() > 1e-3
        diag_rows = [chi_index(m, m) for m in range(4)]
        diag_cols = [chi_index(k, k) for k in range(4)]
        assert dev[np.ix_(diag_rows, diag_cols)].max() < 1e-10

    def test_closed_form_method_dispatch(self):
        noise = NoiseParams.from_dimensionless(r=0.8, gdtau=0.05)
        chi = run_qpt(noise, method="closed_form")
        np.testing.assert_allclose(chi.chi, chi_closed_form(0.8, 0.05).chi, atol=0)

    def test_monte_carlo_converges_to_pipeline(self, design):
        noise = NoiseParams.from_dimensionless(r=0.8, gdtau=0.1)
        chi_pipe = run_qpt(noise, method="pipeline", design=design)
        chi_mc = run_qpt(noise, method="monte_carlo", mc_samples=20_000, seed=5, design=design)
        assert chi_mc.stderr is not None
        pooled = math.sqrt(float(np.mean(chi_mc.stderr**2)))
        assert np.max(np.abs(chi_mc.chi - chi_pipe.chi)) < 5.0 * pooled

    def test_monte_carlo_deterministic_in_seed(self, design):
        noise = NoiseParams.from_dimensionless(r=0.9, gdtau=0.05)
        a = run_qpt(noise, method="monte_carlo", mc_samples=2_000, seed=11, design=design)
        b = run_qpt(noise, method="monte_carlo", mc_samples=2_000, seed=11, design=design)
        np.testing.assert_array_equal(a.chi, b.chi)

    @pytest.mark.parametrize("r,gdtau", [(0.7, 0.1), (0.5, 0.0), (1.0, 0.2)])
    def test_pipeline_chi_index_symmetry(self, design, r, gdtau):
        noise = NoiseParams.from_dimensionless(r=r, gdtau=gdtau)
        chi = run_qpt(noise, method="pipeline", design=design)
        assert hermiticity_defect(chi) < 1e-10

    def test_monte_carlo_error_bars_not_anticonservative(self, design):
        # The propagated entry sigmas must not understate the observed spread:
        # the z-scores against the exact pipeline stay sub-standard-normal on
        # average.  The z-scores use the real parts only, while stderr holds
        # sqrt(E|delta chi|^2) of the complex entry, so they run below 1.
        noise = NoiseParams.from_dimensionless(r=0.8, gdtau=0.1)
        chi_pipe = run_qpt(noise, method="pipeline", design=design)
        zs = []
        for seed in range(6):
            chi_mc = run_qpt(noise, method="monte_carlo", mc_samples=4000,
                             seed=seed, design=design)
            err = np.where(chi_mc.stderr > 1e-12, chi_mc.stderr, np.inf)
            z = np.abs((chi_mc.chi.real - chi_pipe.chi.real) / err)
            zs.append(z[np.isfinite(z)])
        zs = np.concatenate(zs)
        assert zs.mean() < 1.0
        assert np.quantile(zs, 0.95) < 2.5
        assert zs.max() < 6.0

    def test_monte_carlo_stderr_is_exact_propagation(self, design):
        # chi is affine in the 15 x 16 probability table; its linear part L is
        # read off the forward reference by pushing each unit table through it.
        noise = NoiseParams.from_dimensionless(r=0.8, gdtau=0.1)
        seed, samples = 4, 500
        chi_mc = run_qpt(noise, method="monte_carlo", mc_samples=samples, seed=seed, design=design)
        seeds = np.random.SeedSequence(seed).spawn(16)
        runs = [_qpt_probabilities_mc(rho, design, noise, samples, s)
                for rho, s in zip(qpt_input_states().values(), seeds)]
        probs, errs = np.array(runs).transpose(1, 2, 0)
        base = forward_chi(np.zeros((15, 16)), design)
        lin = np.stack([(forward_chi(unit.reshape(15, 16), design) - base).ravel()
                        for unit in np.eye(240)], axis=1)
        np.testing.assert_allclose(chi_mc.chi, forward_chi(probs, design), rtol=0, atol=1e-12)
        want = np.sqrt(np.abs(lin) ** 2 @ (errs ** 2).ravel()).reshape(16, 16)
        np.testing.assert_allclose(chi_mc.stderr, want, rtol=1e-12, atol=0)

    @pytest.mark.filterwarnings("error")
    def test_monte_carlo_at_full_dephasing_without_overflow(self, design):
        # gdtau = 1.7e308 draws its durations at the full-dephasing cut, where the
        # sampled phases are already uniform, and agrees with the exact pipeline.
        noise = NoiseParams.from_dimensionless(r=1.0, gdtau=1.7e308)
        pipeline = run_qpt(noise, method="pipeline", design=design)
        assert process_fidelity(pipeline, ideal_cnot_chi()) == pytest.approx(0.21875, abs=1e-12)
        mc = run_qpt(noise, method="monte_carlo", mc_samples=2000, seed=5, design=design)
        ideal = ideal_cnot_chi().chi
        # F is 1/16 of the sum of Re chi over the 16 unit entries of the ideal chi,
        # so the sum of their standard errors bounds F's.
        sigma = float(np.sum(np.abs(ideal) * mc.stderr)) / 16.0
        assert abs(process_fidelity(mc, ideal_cnot_chi()) - 0.21875) < 5.0 * sigma
        sampled = mc.stderr > 1e-12
        z = np.abs(mc.chi - pipeline.chi)[sampled] / mc.stderr[sampled]
        assert np.max(z) < 6.0
        assert np.max(np.abs(mc.chi - pipeline.chi)[~sampled], initial=0.0) < 1e-12

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            run_qpt(NoiseParams(), method="variational")


def assert_equal_up_to_phase(actual, expected, atol):
    overlap = np.vdot(actual, expected)
    np.testing.assert_allclose(expected, overlap / abs(overlap) * actual, rtol=0, atol=atol)


class TestMonteCarloGateBatch:
    @settings(max_examples=60)
    @given(g=st.floats(0.05, 20.0), gdtau=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_equals_sampled_cnot_unitary(self, g, gdtau, seed):
        noise = NoiseParams(g=g, delta_tau=gdtau / g, r=1.0)
        rng = np.random.default_rng(seed)
        state = rng.normal(size=4) + 1j * rng.normal(size=4)
        state /= np.linalg.norm(state)
        # One trajectory draws s1 then s2 exactly as sample_cnot_unitary does.
        out = _mc_gate_batch(state, 1, noise, np.random.default_rng(seed))
        expected = sample_cnot_unitary(noise, np.random.default_rng(seed)) @ state
        assert_equal_up_to_phase(CNOT_FRAME @ out[0], expected, atol=1e-11)
        # Several trajectories: all s1 first, then all s2.
        n = 5
        out = _mc_gate_batch(state, n, noise, np.random.default_rng(seed))
        replay = np.random.default_rng(seed)
        mean, spread = GateSchedule.for_coupling(g).tau0_cnot / 2.0, noise.delta_tau / 2.0
        s1, s2 = replay.normal(mean, spread, size=n), replay.normal(mean, spread, size=n)
        rz, hexch = local_rotation("X", "z", math.pi), exchange_hamiltonian(g)
        for k in range(n):
            core = rz @ evolve_unitary(hexch, s2[k]) @ rz @ evolve_unitary(hexch, s1[k])
            assert_equal_up_to_phase(CNOT_FRAME @ out[k], CNOT_FRAME @ core @ hadamard("A") @ state,
                                     atol=1e-11)


class TestProcessFidelityValues:
    def test_ideal_self_overlap(self):
        assert process_fidelity(ideal_cnot_chi(), ideal_cnot_chi()) == pytest.approx(1.0)

    def test_reported_fidelities_through_pipeline(self, design):
        for r, want in ((0.6, 0.49), (0.8, 0.7225)):
            noise = NoiseParams.from_dimensionless(r=r, gdtau=0.0)
            chi = run_qpt(noise, method="pipeline", design=design)
            assert process_fidelity(chi, ideal_cnot_chi()) == pytest.approx(want, abs=1e-10)


class TestHermiticityOfAssembledActions:
    def test_pipeline_channel_action_adjoint_symmetry(self, design):
        noise = NoiseParams.from_dimensionless(r=0.7, gdtau=0.1)
        outputs = []
        for rho_out in channel_outputs(noisy_cnot_channel(noise)):
            probs = [sequence_probability(s, rho_out, noise) for s in design.sequences]
            outputs.append(reconstruct_state(probs, design))
        assert hermiticity_defect(assemble_channel_action(outputs)) < 1e-10


class TestEntanglementThreshold:
    def test_threshold_near_inverse_sqrt_three(self, design):
        result = entanglement_threshold(design, gdtau=0.0)
        assert result.r_star is not None
        assert abs(result.r_star - 1.0 / math.sqrt(3.0)) < 1e-3
        assert 0.557 <= result.r_star <= 0.597
        assert result.bracket_history

    def test_full_polarization_gives_bell_negativity(self, design):
        assert reconstructed_output_negativity(1.0, 0.0, design) == pytest.approx(0.5, abs=1e-10)

    def test_low_polarization_separable(self, design):
        assert reconstructed_output_negativity(0.3, 0.0, design) == pytest.approx(0.0, abs=1e-10)

    def test_negativity_monotone_in_polarization(self, design):
        values = [
            reconstructed_output_negativity(r, 0.0, design)
            for r in np.linspace(0.0, 1.0, 21)
        ]
        assert all(b >= a - 1e-10 for a, b in zip(values, values[1:]))

    def test_input_state_is_control_superposition(self):
        np.testing.assert_allclose(
            ENTANGLEMENT_INPUT, pure_state([1, 0, 1, 0]), atol=1e-15
        )
        # the gate maps it to a Bell pair
        out = apply_channel(
            noisy_cnot_channel(NoiseParams.from_dimensionless(r=1.0, gdtau=0.0)),
            ENTANGLEMENT_INPUT,
        )
        assert negativity(out) == pytest.approx(0.5, abs=1e-12)

    def test_werner_scaling_of_reconstruction(self, design):
        # At gdtau = 0 the reconstructed Bell output is exactly a Werner-type
        # mixture with visibility r^2, so negativity is max(0, (3 r^2 - 1)/4).
        for r in (0.2, 0.5, 0.7, 0.9):
            got = reconstructed_output_negativity(r, 0.0, design)
            want = max(0.0, (3 * r**2 - 1.0) / 4.0)
            assert got == pytest.approx(want, abs=1e-10)

    def test_bisection_tolerance_respected(self, design):
        result = entanglement_threshold(design, gdtau=0.0, tol=1e-3)
        lo, hi = result.bracket_history[-1]
        assert hi - lo <= 1e-3 + 1e-12

    def test_rejects_bad_tolerance(self, design):
        with pytest.raises(ValueError):
            entanglement_threshold(design, gdtau=0.0, tol=0.0)

    def test_tolerance_below_double_spacing_stops_at_adjacent_doubles(self, design):
        result = entanglement_threshold(design, gdtau=0.0, tol=1e-300)
        lo, hi = result.bracket_history[-1]
        assert hi == np.nextafter(lo, 1.0) and result.r_star == hi
        assert len(result.bracket_history) < 64


class TestForwardReferenceEquivalence:
    @settings(max_examples=15)
    @given(r=st.floats(0.0, 1.0), gdtau=st.floats(0.0, 0.5))
    def test_pipeline_chi_equals_forward_pipeline(self, design, r, gdtau):
        noise = NoiseParams.from_dimensionless(r=r, gdtau=gdtau)
        chi = run_qpt(noise, method="pipeline", design=design).chi
        assert np.max(np.abs(chi - forward_pipeline_chi(noise, design))) < 1e-12

    @settings(max_examples=30)
    @given(r=st.floats(0.0, 1.0), gdtau=st.floats(0.0, 0.5))
    def test_negativity_equals_forward_negativity(self, design, r, gdtau):
        assert abs(reconstructed_output_negativity(r, gdtau, design)
                   - forward_output_negativity(r, gdtau, design)) < 1e-12

    @pytest.mark.parametrize("gdtau", [0.0, 0.1, 0.25])
    def test_threshold_equals_forward_search(self, design, gdtau):
        result = entanglement_threshold(design, gdtau=gdtau, tol=1e-3)
        r_star, history, curve = forward_threshold(design, gdtau, tol=1e-3)
        assert result.r_star == r_star
        assert result.bracket_history == history
        np.testing.assert_allclose(result.curve, curve, rtol=0, atol=1e-12)


class TestCubicDesign:
    """The shipped design with sequence #1 read as P+, E, P+, P+: the repeated
    projection leaves the ideal effect (and rank 16) unchanged but makes the
    noisy effect cubic in r."""

    @pytest.fixture(scope="class")
    def cubic(self, design, tmp_path_factory):
        first = design.sequences[0]
        sequences = (type(first)(steps=first.steps + (first.steps[-1],)),) + design.sequences[1:]
        path = tmp_path_factory.mktemp("cubic") / "design.txt"
        path.write_text(format_sequences(sequences))
        return path, design_from_sequences(sequences, g=1.0)

    @staticmethod
    def _report(tmp_path, *argv):
        out = tmp_path / "report.json"
        assert main([*argv, "--out", str(out)]) == 0
        return json.loads(out.read_text())

    def test_design_is_cubic_and_complete(self, cubic):
        _, design = cubic
        assert design.sequences[0].n_projections == 3
        assert np.linalg.matrix_rank(design.design_matrix) == 16

    @pytest.mark.parametrize("r,gdtau", [(0.7, 0.13), (0.45, 0.3)])
    def test_pipeline_qpt_matches_forward(self, cubic, tmp_path, r, gdtau):
        path, design = cubic
        report = self._report(tmp_path, "qpt", "--method", "pipeline", "--r", str(r),
                              "--gdtau", str(gdtau), "--design-file", str(path))
        chi = np.array(report["chi_real"]) + 1j * np.array(report["chi_imag"])
        expected = forward_pipeline_chi(NoiseParams.from_dimensionless(r=r, gdtau=gdtau), design)
        assert np.max(np.abs(chi - expected)) < 1e-12

    @pytest.mark.parametrize("gdtau", [0.0, 0.13])
    def test_threshold_matches_forward(self, cubic, tmp_path, gdtau):
        path, design = cubic
        report = self._report(tmp_path, "entanglement-threshold", "--gdtau", str(gdtau),
                              "--design-file", str(path))
        r_star, history, curve = forward_threshold(design, gdtau)
        assert report["r_star"] == r_star
        assert [tuple(b) for b in report["bracket_history"]] == list(history)
        np.testing.assert_allclose(report["curve"], curve, rtol=0, atol=1e-12)
