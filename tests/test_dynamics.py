"""Tests for Hamiltonians, gate synthesis, and the timing-noise channel."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spinqpt import dynamics
from spinqpt.dynamics import (
    CNOT_GATE_COORDS,
    CNOT_GATE_POLYNOMIAL,
    CNOT_PHASE_TIME,
    CNOT_TARGET,
    FULL_DEPHASING_GDTAU,
    NoiseParams,
    TRANSFER_TIME,
    cnot_unitary,
    EXCHANGE_PARTS,
    dephasing_factor,
    evolve_unitary,
    exchange_hamiltonian,
    flipflop_hamiltonian,
    gaussian_averaged_channel,
    hadamard,
    local_rotation,
    noisy_cnot_channel,
    term_isolation_unitary,
    times_in_picoseconds,
    zz_hamiltonian,
)
from spinqpt.qcore import (
    PROJ_DOWN,
    PROJ_UP,
    QuantumChannel,
    apply_channel,
    basis_state,
    is_cptp,
    negativity,
)

from forward_reference import compose, exchange_coherence, sample_cnot_unitary, split_cnot_channel


def phase_invariant_overlap(u, v):
    """|Tr(u† v)| / 4, equal to 1 iff u = v up to a global phase."""
    return abs(np.trace(u.conj().T @ v)) / 4.0


def zz_exponential(g, t):
    """Independent oracle for exp(-i g t sz sz): elementwise diagonal phases."""
    return np.diag(np.exp(-1j * g * t * np.array([1.0, -1.0, -1.0, 1.0])))


def term_isolation_at_unit_time(g):
    return term_isolation_unitary(g, 1.0)


class TestExchangeHamiltonian:
    def test_matrix_entries(self):
        g = 0.8
        h = exchange_hamiltonian(g)
        assert h[0, 0] == pytest.approx(g)
        assert h[1, 2] == pytest.approx(2 * g)  # flip-flop coupling of |ud>, |du>
        assert h[0, 3] == pytest.approx(0.0)

    def test_triplet_singlet_spectrum(self):
        g = 1.7
        evals = np.sort(np.linalg.eigvalsh(exchange_hamiltonian(g)))
        np.testing.assert_allclose(evals, [-3 * g, g, g, g], atol=1e-12)

    def test_decomposes_into_zz_plus_flipflop(self):
        g = 0.5
        np.testing.assert_allclose(
            exchange_hamiltonian(g), zz_hamiltonian(g) + flipflop_hamiltonian(g), atol=1e-14
        )

    def test_rejects_nonpositive_coupling(self):
        with pytest.raises(ValueError):
            exchange_hamiltonian(0.0)

    @pytest.mark.parametrize("g", [0.0, -1.0, math.nan, math.inf], ids=repr)
    @pytest.mark.parametrize("build", [exchange_hamiltonian, zz_hamiltonian, flipflop_hamiltonian,
                                       cnot_unitary, term_isolation_at_unit_time, times_in_picoseconds],
                             ids=lambda f: f.__name__)
    def test_every_coupling_constructor_rejects_nonpositive_g(self, build, g):
        # An infinite g used to pass: a RuntimeWarning from inf * 0, or a CNOT and 0 ps.
        with pytest.raises(ValueError, match="^coupling must be positive and finite$"):
            build(g)


class TestEvolveUnitary:
    def test_zero_time_is_identity(self):
        np.testing.assert_allclose(
            evolve_unitary(exchange_hamiltonian(1.0), 0.0), np.eye(4), atol=1e-14
        )

    def test_unitarity(self):
        u = evolve_unitary(exchange_hamiltonian(0.9), 1.234)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)

    def test_antiparallel_transfer_probability(self):
        # Two-level oracle: the |ud>, |du> doublet oscillates with stay
        # probability cos^2(2 g t); the full transfer point is t = pi/4g.
        g = 1.3
        for t in (0.2, 0.61, math.pi / (4 * g)):
            u = evolve_unitary(exchange_hamiltonian(g), t)
            assert abs(u[1, 1]) ** 2 == pytest.approx(math.cos(2 * g * t) ** 2, abs=1e-12)
        u_swap = evolve_unitary(exchange_hamiltonian(g), math.pi / (4 * g))
        assert abs(u_swap[1, 1]) ** 2 == pytest.approx(0.0, abs=1e-12)

    def test_parallel_state_only_gains_phase(self):
        g, t = 0.7, 2.1
        u = evolve_unitary(exchange_hamiltonian(g), t)
        e0 = np.zeros(4, dtype=complex)
        e0[0] = 1.0
        np.testing.assert_allclose(u @ e0, np.exp(-1j * g * t) * e0, atol=1e-12)

    def test_rejects_non_hermitian(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            evolve_unitary(m, 1.0)


_couplings = st.floats(0.0, 5.0, exclude_min=True)
_times = st.floats(-20.0, 20.0)
_time_arrays = st.one_of(_times.map(np.array), st.lists(_times, min_size=1, max_size=8).map(np.array))


class TestArrayTimes:
    @settings(max_examples=100, deadline=None)
    @given(g=_couplings, t=_time_arrays)
    def test_each_element_is_the_scalar_call(self, g, t):
        v = term_isolation_unitary(g, t)
        w = evolve_unitary(zz_hamiltonian(g), t)
        assert v.shape == w.shape == t.shape + (4, 4)
        for k in np.ndindex(t.shape):
            np.testing.assert_array_equal(v[k], term_isolation_unitary(g, float(t[k])))
            np.testing.assert_array_equal(w[k], evolve_unitary(zz_hamiltonian(g), float(t[k])))
            assert phase_invariant_overlap(v[k], w[k]) == pytest.approx(1.0, abs=1e-12)

    def test_one_eigendecomposition_per_call(self, monkeypatch):
        eigh, calls = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda *args, **kw: calls.append(1) or eigh(*args, **kw))
        assert evolve_unitary(exchange_hamiltonian(1.0), np.linspace(0.0, 3.0, 50)).shape == (50, 4, 4)
        assert len(calls) == 1


class TestNonFiniteInputs:
    _BAD = [math.nan, math.inf, -math.inf, np.array([0.3, math.nan, 1.0])]
    _IDS = ["nan", "inf", "-inf", "array-with-nan"]

    @pytest.mark.parametrize("t", _BAD, ids=_IDS)
    def test_evolve_unitary_rejects(self, t):
        with pytest.raises(ValueError, match="^evolution time must be finite$"):
            evolve_unitary(zz_hamiltonian(1.0), t)

    @pytest.mark.parametrize("t", _BAD, ids=_IDS)
    def test_term_isolation_unitary_rejects(self, t):
        with pytest.raises(ValueError, match="^evolution time must be finite$"):
            term_isolation_unitary(1.0, t)

    @pytest.mark.parametrize("theta", _BAD, ids=_IDS)
    def test_local_rotation_rejects(self, theta):
        with pytest.raises(ValueError, match="^rotation angle must be finite$"):
            local_rotation("X", "z", theta)


class TestRotationsAndHadamard:
    def test_zero_angle_is_identity(self):
        np.testing.assert_allclose(local_rotation("X", "z", 0.0), np.eye(4), atol=1e-14)

    def test_spinor_sign_after_full_turn(self):
        np.testing.assert_allclose(
            local_rotation("X", "z", 2 * math.pi), -np.eye(4), atol=1e-14
        )

    def test_pi_x_rotation_on_inner_qubit(self):
        # 2x2 oracle: exp(-i pi sx / 2) = -i sx, so |uu> -> -i |ud>.
        u = local_rotation("A", "x", math.pi)
        e0 = np.zeros(4, dtype=complex)
        e0[0] = 1.0
        expected = np.zeros(4, dtype=complex)
        expected[1] = -1j
        np.testing.assert_allclose(u @ e0, expected, atol=1e-14)

    def test_hadamard_squares_to_identity(self):
        for q in ("X", "A"):
            np.testing.assert_allclose(hadamard(q) @ hadamard(q), np.eye(4), atol=1e-14)

    def test_hadamard_on_inner_qubit(self):
        out = hadamard("A") @ np.array([1, 0, 0, 0], dtype=complex)
        np.testing.assert_allclose(out, np.array([1, 1, 0, 0]) / math.sqrt(2), atol=1e-14)

    def test_hadamard_conjugation_swaps_x_and_z(self):
        h = hadamard("A")
        sx_a = local_rotation("A", "x", math.pi) * 1j  # -i sx * i = sx on A
        sz_a = local_rotation("A", "z", math.pi) * 1j
        np.testing.assert_allclose(h @ sx_a @ h, sz_a, atol=1e-12)


class TestTermIsolation:
    def test_zero_time_up_to_phase(self):
        assert phase_invariant_overlap(
            term_isolation_unitary(1.0, 0.0), np.eye(4)
        ) == pytest.approx(1.0, abs=1e-12)

    def test_matches_isolated_generator_on_named_times(self):
        g = 1.0
        for t in (0.3 / g, 1.0 / g, 3 * math.pi / (4 * g)):
            v = term_isolation_unitary(g, t)
            assert phase_invariant_overlap(v, zz_exponential(g, t)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_matches_isolated_generator_on_random_times(self):
        rng = np.random.default_rng(11)
        g = 0.85
        for t in rng.uniform(0.01, 8.0, size=20):
            v = term_isolation_unitary(g, t)
            assert phase_invariant_overlap(v, zz_exponential(g, t)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_antiparallel_eigenphase(self):
        # sz sz has eigenvalue -1 on |ud>, so the isolated exponent at the
        # controlled-phase time multiplies |ud> by exp(+3 pi i / 4) up to the
        # sequence's global phase.
        g = 1.0
        v = term_isolation_unitary(g, 3 * math.pi / (4 * g))
        e1 = np.zeros(4, dtype=complex)
        e1[1] = 1.0
        out = v @ e1
        # proportionality: out = c * e1 with |c| = 1
        assert abs(out[1]) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(out - out[1] * e1) < 1e-12
        # relative phase between |ud> and |uu| components matches the generator
        ref = zz_exponential(g, 3 * math.pi / (4 * g))
        assert (out[1] / (v @ np.eye(4)[:, 0].astype(complex))[0]) == pytest.approx(
            ref[1, 1] / ref[0, 0], abs=1e-12
        )


class TestCnotUnitary:
    def test_equals_target_up_to_phase(self):
        for g in (0.2, 1.0, 3.5):
            assert phase_invariant_overlap(cnot_unitary(g), CNOT_TARGET) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_flips_target_for_down_control(self):
        u = cnot_unitary(1.0)
        e2 = np.zeros(4, dtype=complex)
        e2[2] = 1.0
        out = u @ e2
        assert abs(out[3]) == pytest.approx(1.0, abs=1e-12)

    def test_creates_bell_state(self):
        u = cnot_unitary(1.0)
        psi = u @ (np.array([1, 0, 1, 0], dtype=complex) / math.sqrt(2))
        rho = np.outer(psi, psi.conj())
        assert negativity(rho) == pytest.approx(0.5, abs=1e-12)


class TestGaussianAveragedChannel:
    @pytest.mark.parametrize("tau0,dtau", [(0.3, -0.1), (0.3, math.nan), (0.3, math.inf),
                                           (math.inf, 0.1), (math.nan, 0.1), (-math.inf, 0.0)], ids=repr)
    def test_rejects_non_finite_or_negative_times(self, tau0, dtau):
        # NaN or infinite times used to give an all-NaN superoperator.
        with pytest.raises(ValueError, match="must be finite"):
            gaussian_averaged_channel(exchange_hamiltonian(1.0), tau0, dtau)

    def test_zero_dispersion_is_unitary_conjugation(self):
        h = exchange_hamiltonian(1.0)
        ch = gaussian_averaged_channel(h, 0.77, 0.0)
        u = evolve_unitary(h, 0.77)
        np.testing.assert_allclose(
            ch.superop, QuantumChannel.from_unitary(u).superop, atol=1e-12
        )

    def test_four_g_gap_damping_factor(self):
        # Singlet-triplet coherences (gap 4g) damp by exp(-(4 g dtau)^2 / 2);
        # at g dtau = 0.1 that is exp(-0.08), the fourth power of the
        # elementary factor d = exp(-2 (g dtau)^2).
        g = 1.0
        ch = gaussian_averaged_channel(exchange_hamiltonian(g), 0.0, 0.1 / g)
        triplet = np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2)
        singlet = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)
        coherence = np.outer(triplet, singlet.conj())
        out = apply_channel(ch, coherence)
        amp = np.vdot(coherence, out) / np.vdot(coherence, coherence)
        assert abs(amp) == pytest.approx(0.9231163463866358, abs=1e-12)
        assert abs(amp) == pytest.approx(math.exp(-2 * 0.1**2) ** 4, abs=1e-15)

    def test_damping_monotone_in_dispersion(self):
        g = 1.0
        triplet = np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2)
        singlet = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)
        coherence = np.outer(triplet, singlet.conj())
        last = 1.1
        for dtau in (0.0, 0.05, 0.1, 0.2, 0.5):
            ch = gaussian_averaged_channel(exchange_hamiltonian(g), 0.3, dtau)
            amp = abs(np.vdot(coherence, apply_channel(ch, coherence))) / 1.0
            assert amp < last + 1e-15
            last = amp

    def test_depends_only_on_dimensionless_product(self):
        # Same g*tau0 and g*dtau must give the same superoperator.
        ch_a = gaussian_averaged_channel(exchange_hamiltonian(1.0), 0.6, 0.2)
        ch_b = gaussian_averaged_channel(exchange_hamiltonian(2.0), 0.3, 0.1)
        np.testing.assert_allclose(ch_a.superop, ch_b.superop, atol=1e-13)

    @settings(max_examples=200)
    @given(t=st.floats(0.05, 3.0), gdtau=st.floats(0.0, 2.0))
    @example(t=math.pi / 4, gdtau=100.0)
    @example(t=3 * math.pi / 8, gdtau=1e300)
    def test_equals_closed_form_pulse(self, t, gdtau):
        # Blocks plus the coherences damped by D = d^4 = exp(-8 gdtau^2), no eigenbasis.
        pulse = EXCHANGE_PARTS[0] + dephasing_factor(gdtau) ** 4 * exchange_coherence(t)
        reference = gaussian_averaged_channel(exchange_hamiltonian(1.0), t, gdtau).superop
        np.testing.assert_allclose(pulse, reference, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("tau0,dtau", [(0.0, 0.1), (0.785, 0.05), (2.36, 0.3)])
    def test_cptp(self, tau0, dtau):
        ch = gaussian_averaged_channel(exchange_hamiltonian(1.0), tau0, dtau)
        assert is_cptp(ch, 1e-9)

    def test_monte_carlo_oracle_agreement(self):
        # Entrywise: the sampled mean of conj(U) kron U must match the analytic
        # superoperator within 3 standard errors (plus a tiny deterministic floor).
        g = 1.0
        tau0, dtau = math.pi / (4 * g), 0.1
        analytic = gaussian_averaged_channel(exchange_hamiltonian(g), tau0, dtau).superop
        energies, v = np.linalg.eigh(exchange_hamiltonian(g))
        rng = np.random.default_rng(2024)
        n_total, chunk = 1_000_000, 100_000
        mean_acc = np.zeros((16, 16), dtype=complex)
        sq_acc = np.zeros((16, 16))
        done = 0
        while done < n_total:
            m = min(chunk, n_total - done)
            taus = rng.normal(tau0, dtau, size=m)
            phases = np.exp(-1j * np.outer(taus, energies))
            us = np.einsum("ik,nk,jk->nij", v, phases, v.conj())
            flat = us.reshape(m, 16)
            mean_acc += flat.conj().T @ flat
            sq_acc += (np.abs(flat.T) ** 2 @ np.abs(flat) ** 2).real
            done += m
        outer_mean = mean_acc / n_total
        outer_sq = sq_acc / n_total
        stderr = np.sqrt(np.maximum(outer_sq - np.abs(outer_mean) ** 2, 0.0) / n_total)
        # rearrange the pair average into superoperator index order
        o4 = outer_mean.reshape(4, 4, 4, 4)
        mc_superop = o4.transpose(0, 2, 1, 3).reshape(16, 16)
        e4 = stderr.reshape(4, 4, 4, 4)
        mc_err = e4.transpose(0, 2, 1, 3).reshape(16, 16)
        deviation = np.abs(mc_superop - analytic)
        assert np.all(deviation <= 3.0 * mc_err + 1e-6)

    def test_monte_carlo_error_scales_as_inverse_sqrt_n(self):
        # All superoperator entries are functions of the same duration draws,
        # so single-run errors fluctuate strongly; average the Frobenius error
        # over independent repetitions before fitting the halving slope.
        g, tau0, dtau = 1.0, 0.5, 0.15
        analytic = gaussian_averaged_channel(exchange_hamiltonian(g), tau0, dtau).superop
        energies, v = np.linalg.eigh(exchange_hamiltonian(g))
        rng = np.random.default_rng(77)
        sizes = [1_000, 10_000, 100_000, 1_000_000]
        reps = [24, 12, 6, 3]
        errors = []
        for n, k in zip(sizes, reps):
            sq_sum = 0.0
            for _ in range(k):
                taus = rng.normal(tau0, dtau, size=n)
                phases = np.exp(-1j * np.outer(taus, energies))
                us = np.einsum("ik,nk,jk->nij", v, phases, v.conj())
                flat = us.reshape(n, 16)
                outer = (flat.conj().T @ flat) / n
                mc = outer.reshape(4, 4, 4, 4).transpose(0, 2, 1, 3).reshape(16, 16)
                sq_sum += np.linalg.norm(mc - analytic) ** 2
            errors.append(math.sqrt(sq_sum / k))
        slope = np.polyfit(np.log(sizes), np.log(errors), 1)[0]
        assert -0.65 < slope < -0.35


class TestNoisyCnotChannel:
    def test_zero_dispersion_reproduces_ideal_gate(self):
        ch = noisy_cnot_channel(NoiseParams.from_dimensionless(r=1.0, gdtau=0.0))
        ideal = QuantumChannel.from_unitary(CNOT_TARGET)
        np.testing.assert_allclose(ch.superop, ideal.superop, atol=1e-12)

    @pytest.mark.parametrize("gdtau", [0.0, 0.05, 0.1, 0.2])
    def test_averaged_output_for_parallel_input(self, gdtau):
        # Frozen oracle: the averaged output for |uu><uu| written out entrywise.
        d = math.exp(-2 * gdtau**2)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = (1 + d) * (3 + d) / 8
        expected[1, 1] = (1 - d) * (3 - d) / 8
        expected[2, 2] = expected[3, 3] = (1 - d**2) / 8
        expected[0, 1] = expected[1, 0] = (1 - d**2) / 8
        expected[2, 3] = expected[3, 2] = (1 - d**2) / 8
        ch = noisy_cnot_channel(NoiseParams.from_dimensionless(r=1.0, gdtau=gdtau))
        out = apply_channel(ch, basis_state(0))
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_gate_depends_on_the_duration_difference_only(self):
        # cos 4 (s1 + s2) and sin 4 (s1 + s2) carry no weight, which is why a
        # sampled gate has seven coordinates and not nine.
        terms = dynamics._GATE_TERMS
        assert np.max(np.abs(terms[1, 1] - terms[2, 2])) < 1e-15
        assert np.max(np.abs(terms[2, 1] + terms[1, 2])) < 1e-15

    @pytest.mark.parametrize("d", [0.0, 0.3, 0.81, 1.0])
    def test_mean_coordinates_give_the_gate_polynomial(self, d):
        # Each pulse's (cos, sin) 4s averages to d (cos, sin)(3pi/2), and
        # cos 4 (s1 - s2) to d^2: the exact first moments of the seven coordinates.
        c, s = d * math.cos(1.5 * math.pi), d * math.sin(1.5 * math.pi)
        mean = np.array([1.0, c, s, c, s, d * d, 0.0])
        g0, g1, g2 = CNOT_GATE_POLYNOMIAL
        np.testing.assert_allclose(np.tensordot(mean, CNOT_GATE_COORDS, axes=1), g0 + d * (g1 + d * g2),
                                   rtol=0, atol=1e-15)

    def test_strong_noise_limit(self):
        # d -> 0: populations {3/8, 3/8, 1/8, 1/8} with 1/8 coherences.
        ch = noisy_cnot_channel(NoiseParams.from_dimensionless(r=1.0, gdtau=4.0))
        out = apply_channel(ch, basis_state(0))
        np.testing.assert_allclose(
            np.diag(out).real, [3 / 8, 3 / 8, 1 / 8, 1 / 8], atol=1e-12
        )
        assert out[0, 1].real == pytest.approx(1 / 8, abs=1e-12)

    def test_trace_preserving_on_random_inputs(self):
        rng = np.random.default_rng(13)
        ch = noisy_cnot_channel(NoiseParams.from_dimensionless(r=1.0, gdtau=0.17))
        for _ in range(5):
            gmat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = gmat @ gmat.conj().T
            rho /= np.trace(rho).real
            assert np.trace(apply_channel(ch, rho)).real == pytest.approx(1.0, abs=1e-12)

    def test_per_pulse_model_matches_sampled_gate_ensemble(self):
        # Independent oracle: average the literally constructed pulse sequence
        # (the isolation sandwich with two freshly drawn exchange durations,
        # exact 4x4 unitaries at coupling g, dispersion gdtau / g) and compare
        # the channel entrywise at 4 standard errors.
        noise = NoiseParams.from_dimensionless(r=1.0, gdtau=0.12)
        g = 0.7
        analytic = noisy_cnot_channel(noise).superop
        rz = local_rotation("X", "z", math.pi)
        outer_gates = (
            hadamard("A")
            @ local_rotation("X", "z", math.pi / 2)
            @ local_rotation("A", "z", math.pi / 2)
        )
        energies, v = np.linalg.eigh(exchange_hamiltonian(g))
        tau_half = 3 * math.pi / (8 * g)

        def pulse_batch(durations):
            phases = np.exp(-1j * np.outer(durations, energies))
            return np.einsum("ik,nk,jk->nij", v, phases, v.conj())

        rng = np.random.default_rng(99)
        n = 200_000
        s1 = rng.normal(tau_half, noise.gdtau / g / 2, size=n)
        s2 = rng.normal(tau_half, noise.gdtau / g / 2, size=n)
        gates = outer_gates @ rz @ pulse_batch(s2) @ rz @ pulse_batch(s1) @ hadamard("A")
        flat = gates.reshape(n, 16)
        outer = (flat.conj().T @ flat) / n
        sq = (np.abs(flat.T) ** 2 @ np.abs(flat) ** 2) / n
        stderr = np.sqrt(np.maximum(sq - np.abs(outer) ** 2, 0.0) / n)
        mc = outer.reshape(4, 4, 4, 4).transpose(0, 2, 1, 3).reshape(16, 16)
        err = stderr.reshape(4, 4, 4, 4).transpose(0, 2, 1, 3).reshape(16, 16)
        assert np.all(np.abs(mc - analytic) <= 4.0 * err + 1e-6)

    @settings(max_examples=100)
    @given(g=st.floats(0.05, 20.0), gdtau=st.floats(0.0, 2.0))
    @example(g=0.05, gdtau=1e300)
    @example(g=20.0, gdtau=1e300)
    def test_two_averaged_pulses_equal_sum_difference_split(self, g, gdtau):
        # The split reference runs at coupling g with dispersion gdtau / g.
        noise = NoiseParams(gdtau=gdtau)
        np.testing.assert_allclose(noisy_cnot_channel(noise).superop,
                                   split_cnot_channel(noise, g).superop, rtol=0, atol=1e-13)

    def test_compose_matches_sequential_application(self):
        # The forward reference's channel composition, which split_cnot_channel chains.
        rng = np.random.default_rng(8)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T / np.trace(g @ g.conj().T).real
        ch1 = noisy_cnot_channel(NoiseParams.from_dimensionless(r=1.0, gdtau=0.1))
        ch2 = QuantumChannel.from_kraus([PROJ_UP, PROJ_DOWN])
        np.testing.assert_allclose(apply_channel(compose(ch2, ch1), rho),
                                   apply_channel(ch2, apply_channel(ch1, rho)), atol=1e-13)

    def test_sample_cnot_unitary_statistics(self):
        # The scalar reference sampler of tests/forward_reference.py, run at
        # g = 1.6, agrees with the analytic channel too (smaller n).
        noise = NoiseParams.from_dimensionless(r=1.0, gdtau=0.15)
        analytic = noisy_cnot_channel(noise).superop
        rng = np.random.default_rng(5)
        n = 4000
        flat = np.stack([sample_cnot_unitary(noise, rng, 1.6).reshape(16) for _ in range(n)])
        outer = (flat.conj().T @ flat) / n
        mc = outer.reshape(4, 4, 4, 4).transpose(0, 2, 1, 3).reshape(16, 16)
        assert np.max(np.abs(mc - analytic)) < 0.05


class TestParamsAndSchedule:
    def test_noise_params_validation(self):
        assert [f.name for f in dataclasses.fields(NoiseParams)] == ["r", "gdtau"]
        for bad in (-0.1, 1.2, math.nan):
            with pytest.raises(ValueError, match="polarization"):
                NoiseParams(r=bad)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -0.1], ids=repr)
    def test_noise_params_reject_non_finite_or_negative_gdtau(self, bad):
        with pytest.raises(ValueError, match="^gdtau must be finite and nonnegative"):
            NoiseParams(gdtau=bad)

    def test_sampled_gdtau_is_capped_at_full_dephasing(self):
        assert NoiseParams(gdtau=0.3).sampled_gdtau == 0.3
        assert NoiseParams(gdtau=1.7e308).sampled_gdtau == FULL_DEPHASING_GDTAU

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.1])
    def test_dephasing_factor_rejects_non_finite_and_negative(self, bad):
        with pytest.raises(ValueError):
            dephasing_factor(bad)

    def test_dephasing_factor_values(self):
        assert dephasing_factor(0.0) == 1.0
        assert dephasing_factor(0.1) == math.exp(-2.0 * 0.1 ** 2)
        # gdtau ** 2 overflows a float here; the factor underflows to zero.
        assert dephasing_factor(1e300) == 0.0

    def test_dimensionless_construction(self):
        noise = NoiseParams.from_dimensionless(r=0.7, gdtau=0.1)
        assert noise.gdtau == pytest.approx(0.1)
        assert noise.dephasing == pytest.approx(math.exp(-0.02), abs=1e-15)
        assert 0.0 < noise.dephasing <= 1.0

    def test_gate_schedule(self):
        # The pulse times are fixed in units of 1/g: 3 pi / 4 for the CNOT's
        # controlled-phase exponent, pi / 4 for a full spin transfer.
        assert CNOT_PHASE_TIME == 3 * math.pi / 4 and TRANSFER_TIME == math.pi / 4
        for g in (0.5, 2.0):
            assert phase_invariant_overlap(cnot_unitary(g), CNOT_TARGET) == pytest.approx(1.0, abs=1e-12)

    def test_picosecond_reporting(self):
        # 1 meV coupling puts the transfer pulse near half a picosecond and
        # 0.01 meV near fifty, matching the device's quoted 0.5-50 ps range.
        times = times_in_picoseconds(1.0)
        assert times["tau0_tomo_ps"] == pytest.approx(0.51691, rel=1e-4)
        assert times["tau0_cnot_ps"] == pytest.approx(3 * 0.51691, rel=1e-4)
        assert times_in_picoseconds(0.01)["tau0_tomo_ps"] == pytest.approx(51.691, rel=1e-4)
