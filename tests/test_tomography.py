"""Tests for the tomography design, reconstruction, QPT, and threshold search."""

import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spinqpt import blockade, dynamics, qcore, tomography
from spinqpt.blockade import (
    Evolve,
    MeasureSequence,
    Project,
    Rotate,
    UP,
    PAULI_BASIS,
    effect_polynomial,
    format_sequences,
    parse_sequences,
    polynomial_value,
    sequence_probability,
)
from spinqpt.closed_form import chi_closed_form, chi_element_1111
from spinqpt.dynamics import CNOT_TARGET, NoiseParams, noisy_cnot_channel
from spinqpt.process_matrix import (
    CHI_ORDER,
    chi_index,
    chi_of_channel,
    hermiticity_defect,
    ideal_cnot_chi,
    process_fidelity,
)
from spinqpt.qcore import (QuantumChannel, _characteristic_coefficients, apply_channel, basis_state, hermitize,
                           negativity, pure_state, transpose_negativity)
from spinqpt.cli import main
from spinqpt.tomography import (
    DEFAULT_MC_SAMPLES,
    DesignRankError,
    ENTANGLEMENT_INPUT,
    TRANSFER_TIME,
    _gate_feature_basis,
    _mc_gate_coords,
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
    exact_characteristic_coefficients,
    exact_polynomial_value,
    exchange_coherence,
    forward_chi,
    forward_output_negativity,
    forward_pipeline_chi,
    forward_reconstruct,
    forward_sequence_probability,
    forward_threshold,
    branch_summed_replay,
    feature_variables,
    gate_output_batch,
    gaussian_mean,
    long_sequence_sequences,
    mean_trajectory_features,
    quadratic_form_moments,
    sample_cnot_unitary,
    state_features,
    trajectory_feature_covariance,
    trajectory_feature_series,
    weight_coefficients,
)
from test_process_matrix import _random_kraus_channel
import exact_tables


@pytest.fixture(scope="module")
def design():
    return design_sequences()


@pytest.fixture(scope="module")
def designs(design):
    """The shipped design, one whose noisy effects are cubic in r and one with a step group."""
    return {"shipped": design, "cubic": design_from_sequences(cubic_sequences(design.sequences)),
            "long": design_from_sequences(long_sequence_sequences())}


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
        a = design_sequences()
        b = design_from_sequences(a.sequences)
        assert a.sequences == b.sequences
        np.testing.assert_array_equal(a.design_matrix, b.design_matrix)

    def test_one_design_for_every_coupling(self):
        # Evolve durations are in units of 1/g, so g is only checked.
        assert design_sequences(2.0) is design_sequences(1) is design_sequences()
        assert not hasattr(design_sequences(), "g")
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="^coupling must be positive and finite$"):
                design_sequences(bad)

    def test_cached_design_is_read_only(self):
        design = design_sequences(1.0)
        with pytest.raises(ValueError, match="read-only"):
            design.effects[0][0, 0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            design.design_matrix[0, 0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            design.pipeline_map[0, 0, 0, 0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            design.chi0[0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            design.weight_forms.groups[0].coeffs[0, 0, 0, 0] = 0.5
        assert design_sequences(1.0).effects[0][0, 0] == 1.0

    def test_designs_compare_by_sequences(self, design):
        # The arrays of a design take no part in == (they used to raise on it).
        rebuilt = design_from_sequences(design.sequences)
        assert rebuilt == design and hash(rebuilt) == hash(design)
        other = list(design.sequences)
        other[1], other[2] = other[2], other[1]
        assert design_from_sequences(other) != design
        assert design != design.sequences

    def test_noise_points_only_evaluate_the_design(self, design, monkeypatch):
        # The reconstructed outputs are built with the design: a fresh (r, gdtau)
        # needs no back-propagation, no eigenbasis, no gate channel and no solve.
        def rebuilt(*args, **kwargs):
            raise AssertionError("design work redone for a noise point")
        for module, name in ((blockade, "effect_polynomial"), (tomography, "effect_polynomial"),
                             (dynamics, "gaussian_averaged_channel"), (dynamics, "noisy_cnot_channel"),
                             (tomography, "reconstruct_state"), (np.linalg, "solve")):
            monkeypatch.setattr(module, name, rebuilt)
        assert np.isfinite(run_qpt(NoiseParams(r=0.83, gdtau=0.0731), design=design).chi).all()
        assert entanglement_threshold(design, gdtau=0.0617).r_star is not None
        assert reconstructed_output_negativity(0.91, 0.0419, design) > 0.0

    def test_custom_design_requires_fifteen_sequences(self, design):
        with pytest.raises(ValueError, match="exactly 15"):
            design_from_sequences(design.sequences[:14])

    def test_rank_deficient_custom_design_reports_rank(self, design):
        clones = (design.sequences[0],) * 15
        with pytest.raises(DesignRankError) as excinfo:
            design_from_sequences(clones)
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


class TestOneInverse:
    """A design is inverted once, when it is built; reconstruct_state, chi0, the pipeline map and the
    Monte Carlo map all read its reconstruction."""

    @pytest.mark.parametrize("name", ["shipped", "cubic", "long"])
    def test_reconstruction_and_outputs_are_exactly_hermitian(self, designs, name):
        # Real coefficients on the Pauli products: == holds entrywise (0.0 == -0.0).  Each map to chi
        # assembles them with conjugate weights, so every coefficient is an exactly Hermitian chi.
        design = designs[name]
        for array in (design.reconstruction, np.array(design.effects)):
            np.testing.assert_array_equal(array, array.conj().swapaxes(-1, -2))
        assert design.reconstruction.shape == (16, 4, 4) and not design.reconstruction.flags.writeable
        for chi_map in (design.chi0, design.pipeline_map, design.monte_carlo_map):
            defects = [hermiticity_defect(chi) for chi in chi_map.reshape(-1, 16, 16)]
            assert defects == [0.0] * len(defects)

    def test_design_inverts_once_and_runs_invert_nothing(self, design, monkeypatch):
        calls = []

        def counted(fname):
            original = getattr(np.linalg, fname)

            def wrapper(*args, **kwargs):
                calls.append(fname)
                return original(*args, **kwargs)
            monkeypatch.setattr(np.linalg, fname, wrapper)
        counted("inv")
        counted("solve")
        fresh = design_from_sequences(design.sequences)
        assert calls == ["inv"]
        calls.clear()
        noise = NoiseParams(r=0.8, gdtau=0.1)
        reconstruct_state(np.full(15, 0.5), fresh)
        reconstruct_state(np.full((15, 3), 0.5), fresh)
        run_qpt(noise, design=fresh)
        run_qpt(noise, method="monte_carlo", mc_samples=50, seed=1, design=fresh)    # builds the map as well
        assert calls == []

    @settings(max_examples=50)
    @given(seed=st.integers(0, 2**32 - 1), columns=st.integers(1, 5))
    def test_equals_the_solve_based_reconstruction(self, designs, seed, columns):
        probs = np.random.default_rng(seed).uniform(0.0, 1.0, size=(15, columns))
        for design in designs.values():
            stack = reconstruct_state(probs, design)
            for k in range(columns):
                np.testing.assert_allclose(stack[k], forward_reconstruct(probs[:, k], design), rtol=0, atol=1e-12)


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

    @pytest.mark.parametrize("seed", (1, 4))
    @pytest.mark.parametrize("r", (0.0, 0.37, 0.6, 0.93, 1.0))
    def test_step_group_design_monte_carlo_is_exact_without_timing_noise(self, r, seed):
        # Nothing is sampled at gdtau = 0, so no error bar may show, although the step
        # group's rows of the features may round differently across identical trajectories.
        custom = design_from_sequences(long_sequence_sequences())
        noise = NoiseParams(r=r, gdtau=0.0)
        chi_mc = run_qpt(noise, method="monte_carlo", mc_samples=300, seed=seed, design=custom)
        assert (chi_mc.stderr == 0.0).all()
        chi_pipe = run_qpt(noise, method="pipeline", design=custom)
        np.testing.assert_allclose(chi_mc.chi, chi_pipe.chi, rtol=0, atol=1e-12)

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
        noise = NoiseParams.from_dimensionless(r=0.8, gdtau=0.1)
        seed, samples = 4, 500
        chi_mc = run_qpt(noise, method="monte_carlo", mc_samples=samples, seed=seed, design=design)
        assert_matches_replay(chi_mc, design, noise, seed, samples)

    def test_monte_carlo_rotation_after_projection_matches_replay(self, tmp_path):
        # A design file whose sequences rotate after a projection as well as
        # before it: only the leading rotations are applied ahead of the
        # kernel, the later ones stay in it, and the result is the same.
        path = tmp_path / "design.txt"
        path.write_text(format_sequences(rotation_after_projection_sequences()), encoding="utf-8")
        custom = design_from_sequences(parse_sequences(path.read_text(encoding="utf-8")))
        noise = NoiseParams.from_dimensionless(r=0.7, gdtau=0.2)
        chi_mc = run_qpt(noise, method="monte_carlo", mc_samples=300, seed=6, design=custom)
        assert_matches_replay(chi_mc, custom, noise, 6, 300)

    def test_monte_carlo_two_evolve_steps_of_one_time_draw_apart(self, tmp_path):
        # A design file whose every transfer pulse is two Evolve steps of half
        # its time.  The sequences share each step's durations, but the two
        # steps of one sequence draw apart: one shared draw would dephase the
        # pulse as a single step of twice the dispersion and bias chi, by about
        # 23 standard errors at gdtau = 0.2 (under 5 at gdtau = 0.5, where both
        # dephasings are nearly complete).
        half = Evolve(TRANSFER_TIME / 2)
        sequences = [MeasureSequence(steps=sum(((half, half) if isinstance(step, Evolve) else (step,)
                                                for step in seq.steps), ()))
                     for seq in design_sequences().sequences]
        path = tmp_path / "design.txt"
        path.write_text(format_sequences(sequences), encoding="utf-8")
        custom = design_from_sequences(parse_sequences(path.read_text(encoding="utf-8")))
        noise = NoiseParams(r=0.9, gdtau=0.2)
        chi_pipe = run_qpt(noise, method="pipeline", design=custom)
        chi_mc = run_qpt(noise, method="monte_carlo", mc_samples=4000, seed=2, design=custom)
        sampled = chi_mc.stderr > 1e-12
        z = np.abs(chi_mc.chi - chi_pipe.chi)[sampled] / chi_mc.stderr[sampled]
        assert np.max(z) < 5.0

    def test_monte_carlo_long_sequence_matches_replay(self, tmp_path):
        # A design file whose first transfer sequence runs five Evolve steps and
        # three projections: (3 + 1) * 3^5 = 972 (power of r, monomial) terms as
        # one form.  It makes a step group instead: each trajectory back-propagates
        # its effect through all eight steps, each projection as its blockade map at r.
        path = tmp_path / "design.txt"
        path.write_text(format_sequences(long_sequence_sequences()), encoding="utf-8")
        custom = design_from_sequences(parse_sequences(path.read_text(encoding="utf-8")))
        shared, long = custom.weight_forms.groups
        assert isinstance(long, blockade._StepGroup) and long.members == (0,) and len(long.steps) == 8
        assert [slot for _, slot in long.steps] == [None, 0, 1, None, 2, 3, 4, None]
        assert shared.coeffs.shape == (3, 3, 16, 14)
        noise = NoiseParams.from_dimensionless(r=0.8, gdtau=0.3)
        tracemalloc.start()
        try:
            chi_mc = run_qpt(noise, method="monte_carlo", mc_samples=300, seed=5, design=custom)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert_matches_replay(chi_mc, custom, noise, 5, 300)

    def test_forty_evolve_steps_make_one_step_group(self):
        # The long first sequence padded with identity pulses to 40 Evolve steps, which
        # as one form would hold 4 * 3^40 terms.  It builds as a step group, each form
        # group within _FORM_TERMS monomials, and its Monte Carlo QPT meets the pipeline.
        sequences = long_sequence_sequences()
        steps = sequences[0].steps
        sequences[0] = MeasureSequence(steps=(steps[0], *(Evolve(math.pi / 2),) * 35, *steps[1:]))
        custom = design_from_sequences(sequences)
        forms = [group for group in custom.weight_forms.groups if isinstance(group, blockade._FormGroup)]
        assert forms and all(len(group.monomials) <= blockade._FORM_TERMS for group in forms)
        (long,) = [group for group in custom.weight_forms.groups if isinstance(group, blockade._StepGroup)]
        assert long.members == (0,) and sum(slot is not None for _, slot in long.steps) == 40
        noise = NoiseParams(r=0.8, gdtau=0.1)
        chi_pipe = run_qpt(noise, method="pipeline", design=custom)
        chi_mc = run_qpt(noise, method="monte_carlo", mc_samples=2000, seed=3, design=custom)
        sampled = chi_mc.stderr > 1e-12
        z = np.abs(chi_mc.chi - chi_pipe.chi)[sampled] / chi_mc.stderr[sampled]
        assert np.max(z) < 5.0

    def test_monte_carlo_chi_is_the_mean_of_realization_chis(self):
        # Each trajectory is one realization of the gate and the pulse timings,
        # shared by all 16 inputs and pushed through the whole tomography: chi is
        # the mean of the chis reconstructed from each trajectory's own 15 x 16
        # branch-summed weights, and stderr their population standard deviation
        # over sqrt(n).  The long first sequence takes the step-group path.
        custom = design_from_sequences(long_sequence_sequences())
        noise = NoiseParams.from_dimensionless(r=0.8, gdtau=0.3)
        seed, samples = 11, 40
        chi_mc = run_qpt(noise, method="monte_carlo", mc_samples=samples, seed=seed, design=custom)
        weights = replayed_weights(custom, noise, seed, samples)
        chis = np.array([forward_chi(weights[:, :, t].T, custom) for t in range(samples)])
        np.testing.assert_allclose(chi_mc.chi, chis.mean(axis=0), rtol=0, atol=1e-12)
        np.testing.assert_allclose(chi_mc.stderr, chis.std(axis=0) / math.sqrt(samples), rtol=1e-12, atol=0)

    def test_monte_carlo_memory_stays_flat(self, design):
        # One gate batch serves every input and only the features' sums and Gram
        # matrix are kept, block by block: no weights array grows with the samples.
        noise = NoiseParams(r=0.8, gdtau=0.1)
        run_qpt(noise, method="monte_carlo", mc_samples=10, seed=0, design=design)
        tracemalloc.start()
        try:
            run_qpt(noise, method="monte_carlo", mc_samples=50_000, seed=0, design=design)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_monte_carlo_error_bars_are_weighted(self, design):
        # The weighted estimator's bars at 2,000 samples: 0.029 rms with a
        # Born acceptance drawn per projection, about 0.005 with weights that
        # drew their readout branches, 0.0016 with the branches summed.
        noise = NoiseParams(r=0.8, gdtau=0.1)
        chi_mc = run_qpt(noise, method="monte_carlo", mc_samples=2000, seed=0, design=design)
        assert math.sqrt(float(np.mean(chi_mc.stderr ** 2))) < 0.012

    @pytest.mark.parametrize("chunk", [blockade._MC_CHUNK, 97], ids=["one-chunk", "three-chunks"])
    def test_monte_carlo_layout_neutral(self, design, monkeypatch, chunk):
        # The row-block size changes no draw: blocks of one row, uneven blocks
        # (the last one shorter) and the whole chunk in one block give the same
        # chi and stderr up to rounding.  Sums and products run over each
        # chunk's full rows, but the BLAS product of a block rounds a row
        # differently with the block's width (seen: 3.4e-16 on chi, 9e-14
        # relative on stderr); a draw that moved would move chi by about stderr.
        noise = NoiseParams.from_dimensionless(r=0.8, gdtau=0.3)
        samples = 250
        monkeypatch.setattr(blockade, "_MC_CHUNK", chunk)
        runs = []
        for block in (1, 7, 64, samples, blockade._MC_BLOCK):
            monkeypatch.setattr(blockade, "_MC_BLOCK", block)
            runs.append(run_qpt(noise, method="monte_carlo", mc_samples=samples, seed=3, design=design))
        assert np.min(runs[0].stderr) > 1e-3
        for run in runs[1:]:
            np.testing.assert_allclose(run.chi, runs[0].chi, rtol=0, atol=1e-14)
            np.testing.assert_allclose(run.stderr, runs[0].stderr, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("r,gdtau", [(0.8, 0.1), (1.0, 1.0)])
    def test_monte_carlo_error_bars_cover(self, design, r, gdtau):
        # Pooled over seeds, |chi_mc - chi_pipe| < 2 stderr for between 0.954
        # (a real normal deviation) and 0.982 (a circular complex one) of the
        # entries; gdtau = 1 is where the covariance term matters most.
        noise = NoiseParams.from_dimensionless(r=r, gdtau=gdtau)
        chi_pipe = run_qpt(noise, method="pipeline", design=design)
        covered = []
        for seed in range(6):
            chi_mc = run_qpt(noise, method="monte_carlo", mc_samples=2000, seed=seed, design=design)
            sampled = chi_mc.stderr > 1e-12
            covered.append((np.abs(chi_mc.chi - chi_pipe.chi) < 2.0 * chi_mc.stderr)[sampled])
        assert 0.93 <= np.mean(np.concatenate(covered)) <= 0.995

    def test_monte_carlo_gate_batch_shared_read_only(self, design, monkeypatch):
        # One gate batch per chunk, shared by all 16 inputs, read-only, and bit for
        # bit the same after their 240 weights were evaluated as when it was drawn.
        batches = []

        def recording_batch(*args):
            batch = _mc_gate_coords(*args)
            batches.append((batch, batch.copy()))
            return batch

        monkeypatch.setattr(tomography, "_mc_gate_coords", recording_batch)
        monkeypatch.setattr(blockade, "_MC_CHUNK", 128)
        noise = NoiseParams.from_dimensionless(r=0.7, gdtau=0.2)
        run_qpt(noise, method="monte_carlo", mc_samples=300, seed=8, design=design)
        assert [batch.shape for batch, _ in batches] == [(7, 128), (7, 128), (7, 44)]
        for batch, drawn in batches:
            assert not batch.flags.writeable
            np.testing.assert_array_equal(batch, drawn)

    @pytest.mark.parametrize("rotated", [False, True], ids=["shipped", "rotation-after-projection"])
    def test_monte_carlo_exact_without_timing_noise(self, design, rotated):
        # At gdtau = 0 nothing is sampled: the gate and the durations are fixed and
        # the readout branches are summed over, so chi is the pipeline's up to
        # rounding and every error bar vanishes.
        if rotated:
            design = design_from_sequences(rotation_after_projection_sequences())
        for r in (0.6, 0.93):
            noise = NoiseParams(r=r, gdtau=0.0)
            mc = run_qpt(noise, method="monte_carlo", mc_samples=300, seed=4, design=design)
            np.testing.assert_allclose(mc.chi, run_qpt(noise, method="pipeline", design=design).chi,
                                       rtol=0, atol=1e-12)
            assert np.max(mc.stderr) <= 1e-12

    def test_monte_carlo_streams_are_pinned(self, design, monkeypatch):
        # A run draws its gate batches from SeedSequence(seed).spawn(2)[0] and its
        # Evolve durations from [1]; both are shared by every input.
        gate_states, duration_states = [], []

        def recording_coords(n, noise, rng):
            gate_states.append(rng.bit_generator.state)
            return _mc_gate_coords(n, noise, rng)

        moments = tomography._feature_moments

        def recording_moments(features, sample_coords, durations, noise, n_samples):
            duration_states.append(durations.bit_generator.state)
            return moments(features, sample_coords, durations, noise, n_samples)

        monkeypatch.setattr(tomography, "_mc_gate_coords", recording_coords)
        monkeypatch.setattr(tomography, "_feature_moments", recording_moments)
        run_qpt(NoiseParams(r=0.8, gdtau=0.2), method="monte_carlo", mc_samples=50, seed=13, design=design)
        gate, durations = np.random.SeedSequence(13).spawn(2)
        assert gate_states == [np.random.default_rng(gate).bit_generator.state]
        assert duration_states == [np.random.default_rng(durations).bit_generator.state]

    @pytest.mark.parametrize("samples", [2.5, True, np.float64(3.0)], ids=repr)
    def test_monte_carlo_rejects_non_integral_sample_count(self, samples):
        noise = NoiseParams.from_dimensionless(r=0.8, gdtau=0.1)
        with pytest.raises(ValueError, match="integer of at least 1"):
            run_qpt(noise, method="monte_carlo", mc_samples=samples)

    @pytest.mark.parametrize("seed", [True, False, 1.5, -1, np.float64(2.0), "3"], ids=repr)
    def test_monte_carlo_rejects_invalid_seed(self, design, seed, monkeypatch):
        # Checked before any draw, as the sample count is; numpy would take True as 1.
        def drawn(*args):
            raise AssertionError("drew before checking the seed")
        monkeypatch.setattr(tomography, "_feature_moments", drawn)
        noise = NoiseParams.from_dimensionless(r=0.8, gdtau=0.1)
        with pytest.raises(ValueError, match=r"^seed must be an integer of at least 0, got "):
            run_qpt(noise, method="monte_carlo", mc_samples=10, seed=seed, design=design)

    def test_monte_carlo_accepts_numpy_integer_seed(self, design):
        noise = NoiseParams.from_dimensionless(r=0.8, gdtau=0.1)
        a = run_qpt(noise, method="monte_carlo", mc_samples=30, seed=np.int64(4), design=design)
        b = run_qpt(noise, method="monte_carlo", mc_samples=30, seed=4, design=design)
        np.testing.assert_array_equal(a.chi, b.chi)

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

    @settings(max_examples=25)
    @given(r=st.floats(0.0, 1.0), gdtau=st.floats(0.0, allow_infinity=False))
    @example(r=0.8, gdtau=1.7e308)
    def test_every_accepted_noise_gives_finite_chi(self, design, r, gdtau):
        # Whatever NoiseParams accepts, all three routes run to a finite chi.
        noise = NoiseParams(r=r, gdtau=gdtau)
        for method in ("pipeline", "closed_form", "monte_carlo"):
            result = run_qpt(noise, method=method, mc_samples=20, seed=1, design=design)
            assert np.all(np.isfinite(result.chi))
            assert result.stderr is None or np.all(np.isfinite(result.stderr))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            run_qpt(NoiseParams(), method="variational")


def rotation_after_projection_sequences():
    """The shipped sequences with a rotation after the first projection of sequences 0, 8 and 12."""
    sequences = list(design_sequences().sequences)
    for s, rotation in ((0, Rotate("A", "x", 0.7)), (8, Rotate("global", "y", -1.1)),
                        (12, Rotate("X", "z", 0.3))):
        steps = sequences[s].steps
        after = steps.index(Project(UP)) + 1
        sequences[s] = MeasureSequence(steps=(*steps[:after], rotation, *steps[after:]))
    return sequences


def replayed_weights(design, noise, seed, samples):
    """The (input, sequence, trajectory) weights of a Monte Carlo run, replayed from the seed layout.

    Each weight is the step-by-step replay of its trajectory averaged over the readout branches
    (forward_reference.branch_summed_replay).  Child 0 of the seed feeds the gate batch that all 16
    inputs and their sequences share; child 1 the Evolve durations they share, one column per
    (mean time, k-th Evolve of its sequence) in order of first appearance.
    """
    gate, durations = np.random.SeedSequence(seed).spawn(2)
    durations = np.random.default_rng(durations)
    slots = {}
    for seq in design.sequences:
        for key in ((step.mean_time, k) for k, step in
                    enumerate(step for step in seq.steps if isinstance(step, Evolve))):
            if key not in slots:
                slots[key] = durations.normal(key[0], noise.sampled_gdtau, size=samples)
    weights = []
    for rho in qpt_input_states().values():
        state = np.linalg.eigh(hermitize(rho))[1][:, -1]
        batch = gate_output_batch(state, samples, noise, np.random.default_rng(gate))
        for seq in design.sequences:
            keys = [(step.mean_time, k) for k, step in
                    enumerate(step for step in seq.steps if isinstance(step, Evolve))]
            weights.append(branch_summed_replay(batch, seq, noise, [slots[key] for key in keys]))
    return np.reshape(weights, (16, 15, samples))


def assert_matches_replay(chi_mc, design, noise, seed, samples):
    """chi and stderr of a Monte Carlo run equal those of its draws replayed.

    chi is affine in the 15 x 16 probability table; its linear part L is read
    off the forward reference by pushing each unit table through it.  The
    table is the mean of the replayed weights (replayed_weights).  Sigma, the
    full 240 x 240 covariance of the table's entries, comes straight from the
    weights: every entry shares its trajectories' draws with every other.
    """
    hits = replayed_weights(design, noise, seed, samples).transpose(1, 0, 2).reshape(240, samples)
    probs = hits.mean(axis=1)
    dev = hits - probs[:, None]
    sigma = dev @ dev.T / samples**2                         # table entry (s, i) by (t, j)
    base = forward_chi(np.zeros((15, 16)), design)
    lin = np.stack([(forward_chi(unit.reshape(15, 16), design) - base).ravel()
                    for unit in np.eye(240)], axis=1)
    np.testing.assert_allclose(chi_mc.chi, forward_chi(probs.reshape(15, 16), design), rtol=0, atol=1e-12)
    want = np.sqrt(np.einsum("ea,ab,eb->e", lin, sigma, lin.conj()).real).reshape(16, 16)
    np.testing.assert_allclose(chi_mc.stderr, want, rtol=1e-12, atol=0)


class _Replay:
    """Stands in for a Generator: normal(loc, scale) is loc + scale * z for the given z, in order."""

    def __init__(self, *z):
        self._z = iter(z)

    def normal(self, loc, scale):
        return loc + scale * next(self._z)


class TestMonteCarloGateBatch:
    @settings(max_examples=60)
    @given(g=st.floats(0.05, 20.0), gdtau=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_equals_sampled_cnot_unitary(self, g, gdtau, seed):
        # The gate basis times the drawn coordinates gives the features of the
        # sampled gate's output; the reference draws durations at coupling g,
        # dispersion gdtau / g.
        noise = NoiseParams(r=1.0, gdtau=gdtau)
        rng = np.random.default_rng(seed)
        state = rng.normal(size=4) + 1j * rng.normal(size=4)
        state /= np.linalg.norm(state)
        basis = _gate_feature_basis(np.outer(state, state.conj()))
        # One trajectory draws s1 then s2 exactly as sample_cnot_unitary does.
        out = basis @ _mc_gate_coords(1, noise, np.random.default_rng(seed))
        expected = sample_cnot_unitary(noise, np.random.default_rng(seed), g) @ state
        np.testing.assert_allclose(out[:, 0], state_features([expected])[:, 0], rtol=0, atol=1e-11)
        # Several trajectories: all s1 first, then all s2, so trajectory k is the
        # reference gate on standard normals k and n + k of the stream.
        n = 5
        out = basis @ _mc_gate_coords(n, noise, np.random.default_rng(seed))
        z = np.random.default_rng(seed).standard_normal(2 * n)
        expected = [sample_cnot_unitary(noise, _Replay(z[k], z[n + k]), g) @ state for k in range(n)]
        np.testing.assert_allclose(out, state_features(expected), rtol=0, atol=1e-11)
        np.testing.assert_allclose(out, state_features(gate_output_batch(state, n, noise,
                                                                         np.random.default_rng(seed), g)),
                                   rtol=0, atol=1e-11)


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
        assert len(result.bracket_history)

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.1])
    def test_rejects_bad_gdtau(self, design, bad):
        with pytest.raises(ValueError, match="^gdtau must be finite and nonnegative"):
            entanglement_threshold(design, gdtau=bad)
        with pytest.raises(ValueError, match="^gdtau must be finite and nonnegative"):
            reconstructed_output_negativity(0.5, bad, design)

    def test_rejects_bad_polarization(self, design):
        with pytest.raises(ValueError, match="^polarization must lie in"):
            reconstructed_output_negativity(math.nan, 0.1, design)

    def test_input_is_a_qpt_input(self):
        # The threshold reads this input's slice of the design's outputs.
        np.testing.assert_array_equal(ENTANGLEMENT_INPUT, qpt_input_states()[("+", 0, 2)])

    def test_rejects_bad_tolerance(self, design):
        for tol in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                entanglement_threshold(design, gdtau=0.1, tol=tol)

    def test_tolerance_below_double_spacing_stops_at_adjacent_doubles(self, design):
        result = entanglement_threshold(design, gdtau=0.0, tol=1e-300)
        lo, hi = result.bracket_history[-1]
        assert hi == np.nextafter(lo, 1.0) and result.r_star == hi
        assert len(result.bracket_history) < 64

    def test_threshold_is_inverse_sqrt_three_to_the_root(self, design):
        # Beside acceptance criterion 9: the bisection's steps read the exact characteristic
        # coefficients, so at the finest tol r_star is the root within one rounding band, not the
        # root plus the 1.2e-10 that negativity > 1e-10 would leave.  The search stops on adjacent
        # doubles lo < hi = r_star where the determinant e_4 (the one that changes sign here) tested
        # below minus its bound at hi and not at lo: so e_4 < 0 at hi and e_4 >= -2 bound_4 at lo.
        # e_4 is linear across the band, so r_star - 1/sqrt3 lies in [0, 2 bound_4 / |e_4'(1/sqrt3)|],
        # give or take one spacing of doubles for the rounding of 1/sqrt3 and of the last step.
        root = 1.0 / math.sqrt(3.0)
        signed, bounds = _characteristic_coefficients(tomography._transpose_polynomial(0.0, design))
        slope = np.polynomial.polynomial.polyval(root, np.polynomial.polynomial.polyder(signed[3]))
        band, spacing = 2.0 * bounds[3] / abs(slope), math.ulp(root)
        result = entanglement_threshold(design, gdtau=0.0, tol=1e-300)
        assert -spacing <= result.r_star - root <= band + spacing

    @pytest.mark.parametrize("name", ["shipped", "long"])
    @pytest.mark.parametrize("tol", [1e-4, 1e-300])
    def test_a_search_makes_one_eigensolve(self, designs, name, tol, monkeypatch):
        # The 65-point sweep is one batched call; no bisection step solves an eigenproblem.
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(*args, **kwargs):
            calls.append(1)
            return eigvalsh(*args, **kwargs)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        result = entanglement_threshold(designs[name], gdtau=0.1, tol=tol)
        assert result.r_star is not None and len(result.bracket_history) > 8
        assert len(calls) == 1


class TestForwardReferenceEquivalence:
    @settings(max_examples=15)
    @given(r=st.floats(0.0, 1.0), gdtau=st.floats(0.0, 0.5), g=st.floats(0.05, 20.0))
    def test_pipeline_chi_equals_forward_pipeline(self, design, r, gdtau, g):
        # The reference runs at coupling g with dispersion gdtau / g.
        noise = NoiseParams(r=r, gdtau=gdtau)
        chi = run_qpt(noise, method="pipeline", design=design).chi
        assert np.max(np.abs(chi - forward_pipeline_chi(noise, design, g))) < 1e-12

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
        assert np.array_equal(result.bracket_history, history)
        np.testing.assert_allclose(result.curve, curve, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("gdtau", [0.0, 0.1, 1.7e308])
    def test_threshold_tables_are_read_only_float64_arrays(self, design, gdtau):
        # The sweep's bracket and the 8 halvings that take its width 1/64 below tol = 1e-4.
        result = entanglement_threshold(design, gdtau=gdtau, tol=1e-4)
        for table, shape in ((result.curve, (65, 2)), (result.bracket_history, (1 + 8, 2))):
            assert table.shape == shape and table.dtype == np.float64
            assert not table.flags.writeable


def elementary_symmetric(values, j):
    """e_j of the values: the sum of the products of each j of them."""
    return sum(math.prod(chosen) for chosen in itertools.combinations(values, j))


def transpose_at(design, gdtau, r):
    """The hermitized partial transpose of the reconstructed output at (r, gdtau)."""
    return polynomial_value(tomography._transpose_polynomial(gdtau, design), r)


def eigenvalue_bisection(poly, lo, hi, tol):
    """The final bracket of a bisection that tests negativity > 1e-10 at each step, with eigvalsh."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if transpose_negativity(polynomial_value(poly, mid)) > 1e-10:
            hi = mid
        else:
            lo = mid
    return lo, hi


def random_unitary(rng):
    q, upper = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    return q * (np.diag(upper) / np.abs(np.diag(upper)))


SYNTHETIC_ROOT = 1.0 / math.pi
SYNTHETIC_DIAGONALS = ("two crossing together", "one identically zero")


def synthetic_polynomials(diagonal):
    """Eight P(r) = U diag(lambda(r)) U^dagger, quadratic in r, with lambda(r) = (r0 - r)(1 + r) in
    two entries (the determinant keeps its sign through r0) or in one, beside an eigenvalue that is 0
    for every r (the determinant is rounding noise, of either sign: several U show both)."""
    r0 = SYNTHETIC_ROOT
    crossing = np.array([r0, r0 - 1.0, -1.0])               # (r0 - r)(1 + r) from r^0 up
    diagonals = np.zeros((3, 4))
    diagonals[0, 2:] = (1.0, 2.0)
    if diagonal == "two crossing together":
        diagonals[:, 0] = diagonals[:, 1] = crossing
    else:
        diagonals[:, 1] = crossing
    rng = np.random.default_rng(11)
    return [hermitize(np.einsum("ab,jb,cb->jac", u, diagonals, u.conj()))
            for u in (random_unitary(rng) for _ in range(8))]


def exact_sign_decisions(poly, points):
    """Checks the rounding bounds of poly's characteristic coefficients against exact arithmetic at
    each point: Horner on the float coefficients stays within bound_j of the exact e_j(r), and the
    qcore test reports no negative eigenvalue where every exact e_j >= 0 and one where some exact
    e_j < -2 bound_j.  Returns, per point, True or False where one of those two cases held (the
    answer the test had to give), None where neither did."""
    signed, bounds = _characteristic_coefficients(poly)
    exact = exact_characteristic_coefficients(poly)
    negative_at = qcore._negative_eigenvalue_test(poly)
    decisions = []
    for r in points:
        values = [exact_polynomial_value(e, r) for e in exact]
        for coefficients, value, bound in zip(signed, values, bounds):
            horner = 0.0
            for c in reversed(coefficients):
                horner = horner * r + c
            assert abs(Fraction(horner) - value) <= Fraction(bound), (r, value, horner, bound)
        decision = None
        if all(value >= 0 for value in values):
            decision = False
        elif any(value < -2 * Fraction(bound) for value, bound in zip(values, bounds)):
            decision = True
        if decision is not None:
            assert negative_at(r) is decision, (r, values, bounds)
        decisions.append(decision)
    return decisions


class TestCharacteristicSearch:
    """The bisection's steps test the characteristic coefficients e_1 ... e_4 of the transpose
    polynomial, built once per search from its coefficients, against their rounding bounds."""

    #: e_j from the coefficients against e_j of eigvalsh's eigenvalues.  The eigenvalues here lie in
    #: [-1, 1]; eigvalsh is backward stable, so each is within about 4 * 4 eps of the exact one, and
    #: e_j's C(4, j) products of j of them move by at most 12 * 16 eps ~ 4e-14 in all; the Horner value
    #: of the exact-product coefficients adds a few eps.  1e-13 covers both.
    ESYM_BOUND = 1e-13

    @settings(max_examples=60)
    @given(name=st.sampled_from(["shipped", "cubic", "long"]), r=st.floats(0.0, 1.0), gdtau=st.floats(0.0, 0.5))
    @example(name="shipped", r=1.0 / math.sqrt(3.0), gdtau=0.0)
    def test_coefficients_are_the_symmetric_functions_of_the_eigenvalues(self, designs, name, r, gdtau):
        poly = tomography._transpose_polynomial(gdtau, designs[name])
        signed, bounds = _characteristic_coefficients(poly)
        k = len(poly) - 1
        assert [len(e) for e in signed] == [j * k + 1 for j in range(1, 5)]
        assert all(0.0 < bound < self.ESYM_BOUND for bound in bounds)
        evals = np.linalg.eigvalsh(polynomial_value(poly, r))
        for j, e in enumerate(signed, start=1):
            assert abs(np.polynomial.polynomial.polyval(r, e) - elementary_symmetric(evals, j)) <= self.ESYM_BOUND

    @settings(max_examples=12)
    @given(name=st.sampled_from(["shipped", "cubic", "long"]), gdtau=st.floats(0.0, 0.5))
    @example(name="long", gdtau=0.5)
    def test_threshold_agrees_with_the_forward_search(self, designs, name, gdtau):
        design, tol = designs[name], 1e-3
        result = entanglement_threshold(design, gdtau=gdtau, tol=tol)
        assert abs(result.r_star - forward_threshold(design, gdtau, tol=tol)[0]) <= tol
        # The last bracket straddles the crossing: a negative eigenvalue at hi, none at lo.
        lo, hi = result.bracket_history[-1]
        assert np.linalg.eigvalsh(transpose_at(design, gdtau, hi)).min() < 0.0
        assert np.linalg.eigvalsh(transpose_at(design, gdtau, lo)).min() >= -1e-12

    @pytest.mark.parametrize("diagonal", SYNTHETIC_DIAGONALS)
    def test_synthetic_crossings(self, diagonal):
        r0, tol = SYNTHETIC_ROOT, 1e-9
        for poly in synthetic_polynomials(diagonal):
            lo, hi = tomography._bisect(poly, 0.0, 1.0, tol)[-1]
            assert hi - lo <= tol and lo <= r0 <= hi
            assert abs(hi - eigenvalue_bisection(poly, 0.0, 1.0, tol)[1]) <= tol

    #: Offsets from a root, or from r_star one rounding band above it, at which the exact oracle
    #: is read: far enough out (1e-12) for the exact sign to be clear of the bounds, and inside.
    NEAR_ROOT = (-1e-12, -1e-13, 0.0, 1e-13, 1e-12)

    @pytest.mark.parametrize("gdtau", [0.0, 0.1, 0.3, 1.7e308])
    @pytest.mark.parametrize("name", ["shipped", "cubic", "long"])
    def test_rounding_bounds_hold_in_exact_arithmetic(self, designs, name, gdtau):
        r_star = entanglement_threshold(designs[name], gdtau=gdtau, tol=1e-300).r_star
        near = [r_star + offset for offset in self.NEAR_ROOT]
        decisions = exact_sign_decisions(tomography._transpose_polynomial(gdtau, designs[name]),
                                         np.linspace(0.0, 1.0, 9).tolist() + near)
        # Positive semidefinite 1e-12 below the root, entangled 1e-12 above it, both by exact signs.
        assert decisions[-len(near)] is False and decisions[-1] is True

    @pytest.mark.parametrize("diagonal", SYNTHETIC_DIAGONALS)
    def test_rounding_bounds_hold_in_exact_arithmetic_on_synthetic_crossings(self, diagonal):
        points = np.linspace(0.0, 1.0, 9).tolist() + [SYNTHETIC_ROOT + offset for offset in self.NEAR_ROOT]
        for poly in synthetic_polynomials(diagonal):
            assert exact_sign_decisions(poly, points)[-1] is True


def cubic_sequences(sequences):
    """The design's sequences with #1 projected once more at its end."""
    first = sequences[0]
    return (type(first)(steps=first.steps + (first.steps[-1],)),) + tuple(sequences[1:])


class TestCubicDesign:
    """The shipped design with sequence #1 read as P+, E, P+, P+: the repeated
    projection leaves the ideal effect (and rank 16) unchanged but makes the
    noisy effect cubic in r."""

    @pytest.fixture(scope="class")
    def cubic(self, design, tmp_path_factory):
        sequences = cubic_sequences(design.sequences)
        path = tmp_path_factory.mktemp("cubic") / "design.txt"
        path.write_text(format_sequences(sequences))
        return path, design_from_sequences(sequences)

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


class TestDesignPolynomial:
    """The pipeline map against the per-point route it replaces, over random noise points."""

    @pytest.fixture(scope="class")
    def designs(self, design):
        return {"shipped": design, "cubic": design_from_sequences(cubic_sequences(design.sequences))}

    @pytest.mark.parametrize("name,r_degree", [("shipped", 2), ("cubic", 3)])
    def test_degrees_are_the_largest_step_counts(self, designs, name, r_degree):
        design = designs[name]
        evolves = max(sum(isinstance(step, Evolve) for step in seq.steps) for seq in design.sequences)
        projections = max(seq.n_projections for seq in design.sequences)
        assert design.pipeline_map.shape == (evolves + 1, projections + 1, 3, 256)
        assert projections == r_degree and evolves == 1

    @settings(max_examples=40)
    @given(name=st.sampled_from(["shipped", "cubic"]), r=st.floats(0.0, 1.0), gdtau=st.floats(0.0, 2.0))
    @example(name="cubic", r=1.0, gdtau=0.0)
    @example(name="shipped", r=0.5, gdtau=1e300)
    def test_noise_point_matches_the_per_point_route(self, designs, name, r, gdtau):
        design = designs[name]
        noise = NoiseParams(r=r, gdtau=gdtau)
        chi = run_qpt(noise, design=design).chi
        # Tr E(E_kl) = delta_kl: the E_mm rows come first in the ordering.
        kronecker = np.array([1.0 if k == l else 0.0 for k, l in CHI_ORDER])
        np.testing.assert_allclose(chi[:4].sum(axis=0), kronecker, rtol=0, atol=1e-12)
        assert hermiticity_defect(chi) < 1e-12
        step = dynamics._FLIP_X @ (dynamics.EXCHANGE_PARTS[0]
                                   + noise.dephasing * exchange_coherence(dynamics.CNOT_PHASE_TIME / 2))
        gate = noisy_cnot_channel(noise)
        np.testing.assert_allclose(gate.superop, dynamics._EXIT @ step @ step @ dynamics._ENTRY, rtol=0, atol=1e-15)
        rho_out = apply_channel(gate, ENTANGLEMENT_INPUT)
        probs = [sequence_probability(seq, rho_out, noise) for seq in design.sequences]
        expected = negativity(hermitize(reconstruct_state(probs, design)))
        assert abs(reconstructed_output_negativity(r, gdtau, design) - expected) < 1e-15


class TestExactTables:
    """The shipped design's tensors are integers over 16 (tests/exact_tables.py writes the tables)."""

    @pytest.mark.parametrize("name", ["pipeline_map", "chi0", "reconstruction", "cnot_gate_polynomial"])
    def test_engine_arrays_are_the_integer_tables(self, name):
        array, table = exact_tables.engine_arrays()[name], exact_tables.load()[name]
        assert np.array_equal(table, np.round(table))
        np.testing.assert_allclose(array, table / exact_tables.SCALE, rtol=0, atol=1e-15)


def exact_inverse(matrix):
    """The inverse of an integer-valued matrix as (integer numerators, their common denominator), by
    Gauss-Jordan elimination over Fractions."""
    n = len(matrix)
    rows = [[Fraction(int(v)) for v in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(np.asarray(matrix))]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                rows[r] = [a - rows[r][col] * b for a, b in zip(rows[r], rows[col])]
    denominator = math.lcm(*(v.denominator for row in rows for v in row[n:]))
    return np.array([[int(v * denominator) for v in row[n:]] for row in rows], dtype=np.int64), denominator


def on_grid(array, grid: float) -> np.ndarray:
    """The integers n with array = n / grid up to its rounding residue; a residue of 1e-9 / grid or more
    means the array is off that grid, an error."""
    scaled = np.asarray(array) * grid
    integers = np.round(scaled).astype(np.int64)
    assert np.max(np.abs(scaled - integers)) < 1e-9, f"off the grid of 1/{grid:g}"
    return integers


def exact_chi_map(table, matrix):
    """The map of tomography._chi_map in exact arithmetic, as (real numerators, imaginary numerators,
    common denominator): the table read as multiples of 2^-10 and the design matrix as integers (their
    exact values, less the rounding residue), the matrix inverted exactly, and the table reconstructed
    and assembled in int64."""
    grid = 2**10
    numerators = on_grid(table, grid)
    inverse, denominator = exact_inverse(on_grid(matrix, 1))
    rows = table.shape[-1]
    parts = [np.tensordot(inverse, part.astype(np.int64), axes=(0, 0))[:rows].reshape(rows, 16)
             for part in (PAULI_BASIS.real, PAULI_BASIS.imag)]
    # Products of at most 16 terms each, twice: far from int64's range for these sizes.
    assert np.abs(numerators).sum(axis=-1).max() * max(np.abs(p).max() for p in parts) < 2**50
    outputs = [qcore.vec((numerators @ part).reshape(*table.shape[:-1], 4, 4)) for part in parts]
    weights = [(2 * part).astype(np.int64) for part in (tomography._WEIGHTS.real, tomography._WEIGHTS.imag)]
    chi = (weights[0] @ outputs[0] - weights[1] @ outputs[1], weights[0] @ outputs[1] + weights[1] @ outputs[0])
    chi = [np.swapaxes(c[..., tomography.CHI_PERM], -1, -2).reshape(*table.shape[:-2], 256) for c in chi]
    return chi[0], chi[1], grid * denominator * 2


#: The least factor by which every true coefficient of a design's maps to chi exceeds its rounding
#: bound, stated before any run (about 2.5e9 was measured on the three designs).
_SEPARATION = 1e6


class TestExactZeros:
    """chi0 and the maps to chi hold an exact 0.0 where, and only where, exact arithmetic gives zero:
    their rounding bound (tomography._rounding_limit) covers every residue and lies far below every
    true coefficient.  A bound shrunk 10^6-fold leaves residues, which these tests catch."""

    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize("name", ["pipeline_map", "chi0"])
    def test_shipped_zeros_are_the_integer_tables_zeros(self, design, name, part):
        table = exact_tables.load()[name]
        assert np.array_equal(getattr(getattr(design, name), part) == 0.0, getattr(table, part) == 0)

    @pytest.mark.parametrize("which", ["pipeline_map", "chi0", "monte_carlo_map"])
    @pytest.mark.parametrize("name", ["shipped", "cubic", "long"])
    def test_bound_separates_residues_from_coefficients(self, designs, name, which):
        design = designs[name]
        if which == "pipeline_map":
            table = tomography._probability_table([effect_polynomial(seq) for seq in design.sequences])
        elif which == "chi0":
            table = tomography._TRACE_TABLE
        else:
            table = np.moveaxis(blockade.feature_coefficients(design.weight_forms, tomography._GATE_BASES), -1, 1)
        *numerators, denominator = exact_chi_map(table, design.design_matrix)
        limit = tomography._rounding_limit(table, design.reconstruction_bound)
        engine = getattr(design, which)
        for value, numerator in zip((engine.real, engine.imag), numerators):
            zero = numerator == 0
            assert np.array_equal(value == 0.0, zero)
            coefficient = numerator[~zero] / denominator
            assert np.all(np.abs(value[~zero] - coefficient) <= limit[~zero])
            assert np.all(_SEPARATION * limit[~zero] <= np.abs(coefficient))


def paper_fidelity(r, gdtau):
    """The pipeline's process fidelity as a polynomial with dyadic coefficients in r, d and D = d^4."""
    d = math.exp(-2.0 * gdtau**2)
    return (1 / 16 + r * (1 / 32 + 3 * d / 16 + d * d / 16) + r * r * (1 / 8 + d / 8 + d * d / 32)
            + d**4 * (r * (1 / 32 + d / 16) + r * r * (1 / 8 + d / 8 + d * d / 32)))


class TestPaperFidelity:
    """The fidelity of the pipeline's chi to the ideal CNOT, the quantity of the paper's headline."""

    @settings(max_examples=200)
    @given(r=st.floats(0.0, 1.0), gdtau=st.floats(0.0, 3.0))
    @example(r=1.0, gdtau=0.0)
    def test_pipeline_fidelity_is_the_polynomial(self, design, r, gdtau):
        fidelity = process_fidelity(run_qpt(NoiseParams(r=r, gdtau=gdtau), "pipeline", design=design),
                                    ideal_cnot_chi())
        assert abs(fidelity - paper_fidelity(r, gdtau)) <= 1e-15

    @pytest.mark.parametrize("r,paper", [(0.6, 0.49), (0.8, 0.7225)])
    def test_paper_values_without_timing_noise(self, design, r, paper):
        # At gdtau = 0 the polynomial is ((1 + 3r) / 4)^2; the paper quotes 0.49 and 0.72.
        assert abs(paper_fidelity(r, 0.0) - paper) <= 1e-15
        fidelity = process_fidelity(run_qpt(NoiseParams(r=r), "pipeline", design=design), ideal_cnot_chi())
        assert abs(fidelity - paper) <= 1e-15


class TestReadoutCorrectedReconstruction:
    """Reconstruction with the noisy effects' design matrix M(r, D) in place of the ideal one: the
    readout and Evolve noise cancel and the gate's own chi is left.  M comes from effect_polynomial,
    the probabilities from the forward reference, so the identity ties effect_polynomial, the
    design and the averaged gate together."""

    @settings(max_examples=30)
    @given(name=st.sampled_from(["shipped", "cubic", "long"]), r=st.floats(0.05, 1.0),
           gdtau=st.floats(0.0, 3.0))
    @example(name="shipped", r=0.05, gdtau=1.0)         # cond(M) ~ 1.1e4: r = 0.05 is the worst conditioned
    def test_noisy_inverse_gives_the_gate_chi(self, designs, name, r, gdtau):
        design = designs[name]
        noise = NoiseParams(r=r, gdtau=gdtau)
        effects = [polynomial_value(polynomial_value(effect_polynomial(seq), noise.dephasing ** 4), r)
                   for seq in design.sequences]
        channel = noisy_cnot_channel(noise)
        outputs = [apply_channel(channel, rho) for rho in qpt_input_states().values()]
        probs = [[forward_sequence_probability(seq, rho, noise) for rho in outputs] for seq in design.sequences]
        # Column i holds the Pauli coefficients of output i: M @ coefficients = (probabilities, trace).
        coefficients = np.linalg.inv(design_matrix_rows(effects)) @ np.vstack([probs, np.ones(16)])
        chi = assemble_channel_action(np.tensordot(coefficients.T, PAULI_BASIS, axes=1))
        assert np.max(np.abs(chi - chi_of_channel(channel).chi)) < 1e-12


class TestMonteCarloMap:
    """The design's Monte Carlo map L: chi = chi0 + mean(z) @ L(r), L as coefficients of r^j."""

    @pytest.mark.parametrize("name,degree", [("shipped", 2), ("cubic", 3), ("long", 2)])
    def test_equals_reconstruction_of_the_weight_coefficients(self, designs, name, degree):
        # Per unit of each feature, the probability table its coefficients give, reconstructed and
        # assembled by the forward reference; chi0 is the table of zeros.  The long sequence's
        # projections run in its step group, at r, so that design's map stays quadratic.
        design = designs[name]
        mc_map, chi0 = design.monte_carlo_map, design.chi0
        assert design.monte_carlo_map is mc_map and mc_map.shape[0] == degree + 1
        assert not mc_map.flags.writeable and not chi0.flags.writeable
        zero = forward_chi(np.zeros((15, 16)), design)
        np.testing.assert_allclose(chi0, zero.ravel(), rtol=0, atol=1e-14)
        for r in (0.0, 0.37, 0.8, 1.0):
            coefficients = weight_coefficients(design.weight_forms, r, tomography._GATE_BASES)
            want = [(forward_chi(table.T, design) - zero).ravel() for table in np.moveaxis(coefficients, -1, 0)]
            np.testing.assert_allclose(blockade.polynomial_value(mc_map, r), want, rtol=0, atol=1e-14)

    @settings(max_examples=40)
    @given(name=st.sampled_from(["shipped", "cubic", "long"]), r=st.floats(0.0, 1.0), gdtau=st.floats(0.0, 2.0))
    @example(name="shipped", r=0.8, gdtau=0.0)
    @example(name="cubic", r=0.5, gdtau=1e300)
    @example(name="long", r=0.9, gdtau=2.5)
    @example(name="long", r=0.5, gdtau=1e300)
    def test_exact_feature_mean_gives_the_pipeline(self, designs, name, r, gdtau):
        # E[chi_MC] is chi of E[z], and the exact E[z] reproduces the pipeline: in closed form
        # for a form group, by forward evaluation through the averaged gate for a step group.
        design = designs[name]
        noise = NoiseParams(r=r, gdtau=gdtau)
        mean = mean_trajectory_features(design.weight_forms, noise, design.sequences)
        chi = design.chi0 + mean @ blockade.polynomial_value(design.monte_carlo_map, r)
        pipeline = run_qpt(noise, method="pipeline", design=design).chi
        np.testing.assert_allclose(chi.reshape(16, 16), pipeline, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", ["shipped", "long"])
    def test_a_run_inverts_solves_and_assembles_nothing(self, designs, name, monkeypatch):
        # Once the design's map exists, a Monte Carlo QPT draws, accumulates the feature moments
        # and evaluates that polynomial; only a step group runs an einsum, per input and block.  A pipeline
        # QPT only evaluates the pipeline map.
        design = designs[name]
        design.monte_carlo_map                      # built before the counting starts
        calls = []

        def counted(module, fname):
            original = getattr(module, fname)

            def wrapper(*args, **kwargs):
                calls.append(fname)
                return original(*args, **kwargs)
            monkeypatch.setattr(module, fname, wrapper)
        for module, fname in ((np.linalg, "inv"), (np.linalg, "solve"), (np, "einsum"), (np, "tensordot"),
                              (tomography, "reconstruct_state"), (tomography, "assemble_channel_action")):
            counted(module, fname)
        noise = NoiseParams(r=0.8, gdtau=0.2)
        assert np.isfinite(run_qpt(noise, method="pipeline", design=design).chi).all()
        assert calls == []
        result = run_qpt(noise, method="monte_carlo", mc_samples=300, seed=5, design=design)
        assert np.isfinite(result.chi).all()
        assert [c for c in calls if c != "einsum"] == []
        assert calls.count("einsum") == (0 if name == "shipped" else 16)


#: A fresh interpreter that imports numpy and idles, then builds a design and its Monte Carlo map,
#: waits for any spinning BLAS worker to run, and prints the CPU ticks every thread but the main
#: one gained over the build.
_WORKER_TICKS = """
import os, sys, time
import numpy
from spinqpt import tomography
from spinqpt.blockade import parse_sequences

def worker_ticks():
    total = 0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) != os.getpid():
            with open(f"/proc/self/task/{tid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])          # utime, stime
    return total

time.sleep(0.5)
before = worker_ticks()
if len(sys.argv) > 1:
    with open(sys.argv[1]) as fh:
        design = tomography.design_from_sequences(parse_sequences(fh.read()))
else:
    design = tomography.design_sequences()
design.monte_carlo_map
time.sleep(0.3)
print(worker_ticks() - before)
"""


@pytest.mark.perf
@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux's per-thread CPU times")
@pytest.mark.parametrize("design_file", [None, "long_design.txt"], ids=["shipped", "long"])
def test_building_a_design_leaves_no_blas_worker_spinning(design_file):
    # The maps' reconstruction is two stacks of small real products.  One complex product of the
    # whole table is large enough for OpenBLAS's thread pool, whose workers then spin for about
    # 0.13 s of CPU on a 2-core host (13 ticks at 100 Hz) and slow the main thread's work after
    # it.  The long design's map has 1776 rows to the shipped design's 1008.  The count depends
    # on the installed BLAS's threading thresholds and the core count, not on spinqpt's output,
    # so the check is marked perf and runs only under `pytest -m perf`.
    argv = [sys.executable, "-c", _WORKER_TICKS]
    if design_file is not None:
        argv.append(str(pathlib.Path(__file__).parent / "data" / design_file))
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(tomography.__file__).resolve().parents[1]))
    out = subprocess.run(argv, capture_output=True, text=True, check=True, env=env, timeout=60)
    assert int(out.stdout) < 3


class TestExactMonteCarloCovariance:
    """The Monte Carlo stderr against the exact covariance of the trajectory features, a finite
    Fourier expansion (forward_reference.trajectory_feature_covariance).  The designs have no
    step group, whose features are not linear in the duration monomials: the replay tests cover it."""

    #: Standard deviations of its estimator by which a reported variance may miss its exact mean.
    #: The estimator averages n = 20,000 independent bounded trajectories, so it is close to normal:
    #: 5 of them leave a two-sided tail of 5.7e-7 per check, under 4.4e-4 over the 3 x 257 below.
    BAND = 5.0

    @pytest.mark.parametrize("name", ["shipped", "cubic"])
    @pytest.mark.parametrize("r,gdtau", [(0.8, 0.1), (0.5, 1.0), (1.0, 1e300)])
    def test_expansion_mean_is_the_closed_form_mean(self, designs, name, r, gdtau):
        forms = designs[name].weight_forms
        noise = NoiseParams(r=r, gdtau=gdtau)
        mean = gaussian_mean(trajectory_feature_series(forms), *feature_variables(forms, noise))
        want = mean_trajectory_features(forms, noise, designs[name].sequences)
        np.testing.assert_allclose(mean, want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("name", ["shipped", "cubic"])
    @pytest.mark.parametrize("r", [0.3, 1.0])
    def test_no_timing_noise_no_covariance(self, designs, name, r):
        cov = trajectory_feature_covariance(designs[name].weight_forms, NoiseParams(r=r))
        assert np.max(np.abs(cov)) < 1e-15

    @pytest.mark.parametrize("r,gdtau,rms", [(0.8, 0.1, 3.9830e-4), (1.0, 0.3, 1.2586e-3), (0.8, 1.0, 1.2944e-3)])
    def test_reported_stderr_within_the_spread_of_its_estimator(self, design, r, gdtau, rms):
        noise = NoiseParams.from_dimensionless(r=r, gdtau=gdtau)
        n, forms = DEFAULT_MC_SAMPLES, design.weight_forms
        lin = polynomial_value(design.monte_carlo_map, r)                  # chi per unit of each feature
        cov = trajectory_feature_covariance(forms, noise)
        variance = np.sum((cov @ lin) * lin.conj(), axis=0).real          # of one trajectory's chi, per entry
        # The exact rms stderr; a 60-point Gauss-Hermite quadrature of the covariance gives the same.
        assert math.sqrt(variance.mean() / n) == pytest.approx(rms, rel=1e-4)
        # Q = |(z - E z) . l|^2 for each entry's column l, and summed over the entries.
        (q, q2), (total, total2) = (quadratic_form_moments(forms, noise, weights)
                                    for weights in (lin[:, :, None], lin[:, None, :]))
        np.testing.assert_allclose(q, variance, rtol=0, atol=1e-14)
        reported = run_qpt(noise, method="monte_carlo", mc_samples=n, seed=0, design=design).stderr.ravel() ** 2
        # A reported variance is mean(|y - mean(y)|^2) / n over the n draws of y = z . l: its mean
        # is (n - 1) E[Q] / n^2 and its variance (E[Q^2] - E[Q]^2) / n^3 up to a relative O(1/n).
        for got, mean_q, mean_q2 in ((reported, q, q2), (reported.sum(), total, total2)):
            spread = np.sqrt((mean_q2 - mean_q**2) / n**3)
            assert np.all(np.abs(got - (n - 1) * mean_q / n**2) < self.BAND * spread)
