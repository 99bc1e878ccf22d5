"""Tests for the dense two-qubit primitives."""

import math

import numpy as np
import pytest

from spinqpt.qcore import (
    PROJ_DOWN,
    PROJ_UP,
    QuantumChannel,
    apply_channel,
    basis_state,
    choi_matrix,
    hermitize,
    is_cptp,
    kraus_to_superop,
    negativity,
    partial_transpose,
    pure_state,
    unvec,
    vec,
)
from spinqpt.dynamics import CNOT_TARGET, NoiseParams, noisy_cnot_channel

from forward_reference import identity_channel


def random_density(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_product_mixture(rng, n_terms=3):
    """Convex mixture of product states, separable by construction."""
    rho = np.zeros((4, 4), dtype=complex)
    weights = rng.dirichlet(np.ones(n_terms))
    for w in weights:
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        psi = np.kron(a, b)
        rho += w * np.outer(psi, psi.conj())
    return rho


class TestVecConventions:
    def test_vec_column_stacking(self):
        m = np.arange(16).reshape(4, 4)
        v = vec(m)
        # first four entries are the first column
        np.testing.assert_array_equal(v[:4], m[:, 0])

    def test_unvec_roundtrip(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        np.testing.assert_array_equal(unvec(vec(m)), m)
        # A stack is vectorized matrix by matrix.
        stack = rng.normal(size=(2, 3, 4, 4))
        np.testing.assert_array_equal(vec(stack)[1, 2], vec(stack[1, 2]))
        np.testing.assert_array_equal(unvec(vec(stack)), stack)


class TestApplyChannel:
    def test_identity_channel(self):
        rng = np.random.default_rng(2)
        rho = random_density(rng)
        out = apply_channel(identity_channel(), rho)
        np.testing.assert_allclose(out, rho, atol=1e-14)

    def test_ideal_cnot_flips_target_when_control_down(self):
        ch = QuantumChannel.from_unitary(CNOT_TARGET)
        out = apply_channel(ch, basis_state(2))  # |du>
        np.testing.assert_allclose(out, basis_state(3), atol=1e-14)  # |dd>

    def test_edge_dephasing_on_superposition(self):
        # Kraus {P_up, P_down} kills the X coherence of (|uu> + |du>)/sqrt2.
        ch = QuantumChannel.from_kraus([PROJ_UP, PROJ_DOWN])
        rho = pure_state([1, 0, 1, 0])
        expected = PROJ_UP @ rho @ PROJ_UP + PROJ_DOWN @ rho @ PROJ_DOWN
        out = apply_channel(ch, rho)
        np.testing.assert_allclose(out, expected, atol=1e-14)
        np.testing.assert_allclose(out, 0.5 * (basis_state(0) + basis_state(2)), atol=1e-14)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        ch = noisy_cnot_channel(NoiseParams.from_dimensionless(r=1.0, gdtau=0.07))
        for _ in range(10):
            r1, r2 = random_density(rng), random_density(rng)
            a = complex(rng.normal(), rng.normal())
            b = complex(rng.normal(), rng.normal())
            lhs = apply_channel(ch, a * r1 + b * r2)
            rhs = a * apply_channel(ch, r1) + b * apply_channel(ch, r2)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            apply_channel(identity_channel(), np.eye(3))


class TestChoiMatrix:
    def test_identity_channel_choi(self):
        choi = choi_matrix(identity_channel())
        # rank-1 projector onto the maximally entangled vector, trace 4
        evals = np.linalg.eigvalsh(hermitize(choi))
        assert abs(np.trace(choi).real - 4.0) < 1e-12
        assert np.sum(evals > 1e-9) == 1
        omega = vec(np.eye(4, dtype=complex))
        np.testing.assert_allclose(choi, np.outer(omega, omega.conj()), atol=1e-12)

    def test_unitary_channel_choi_rank_one(self):
        choi = choi_matrix(QuantumChannel.from_unitary(CNOT_TARGET))
        evals = np.linalg.eigvalsh(hermitize(choi))
        assert abs(np.trace(choi).real - 4.0) < 1e-12
        assert np.sum(evals > 1e-9) == 1

    def test_choi_matches_kraus_construction(self):
        # Independent route: Choi = sum_i vec(K_i) vec(K_i)^dagger.
        kraus = [PROJ_UP, PROJ_DOWN]
        ch = QuantumChannel.from_kraus(kraus)
        direct = sum(np.outer(vec(k), vec(k).conj()) for k in kraus)
        np.testing.assert_allclose(choi_matrix(ch), direct, atol=1e-12)

    def test_averaged_cnot_choi_positive(self):
        ch = noisy_cnot_channel(NoiseParams.from_dimensionless(r=1.0, gdtau=0.1))
        evals = np.linalg.eigvalsh(hermitize(choi_matrix(ch)))
        assert evals.min() >= -1e-10


class TestIsCptp:
    def test_identity_true(self):
        assert is_cptp(identity_channel(), 1e-9)

    def test_bare_projection_not_trace_preserving(self):
        ch = QuantumChannel(superop=kraus_to_superop([PROJ_UP]))
        assert not is_cptp(ch, 1e-9)

    @pytest.mark.parametrize("gdtau", [0.0, 0.05, 0.1, 0.3, 1.0])
    def test_averaged_cnot_cptp_across_noise(self, gdtau):
        ch = noisy_cnot_channel(NoiseParams.from_dimensionless(r=1.0, gdtau=gdtau))
        assert is_cptp(ch, 1e-9)

    def test_requires_positive_tolerance(self):
        # A NaN tolerance used to answer False and an infinite one to pass any channel.
        for tol in (0.0, -1e-9, math.nan, math.inf):
            with pytest.raises(ValueError, match="^tolerance must be finite and positive"):
                is_cptp(identity_channel(), tol)


class TestPartialTranspose:
    def test_product_state_unchanged(self):
        rho = basis_state(0)
        np.testing.assert_array_equal(partial_transpose(rho, "A"), rho)

    def test_bell_state_spectrum(self):
        rho = pure_state([1, 0, 0, 1])
        evals = np.sort(np.linalg.eigvalsh(hermitize(partial_transpose(rho, "A"))))
        np.testing.assert_allclose(evals, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize("subsystem", ["X", "A"])
    def test_involution(self, subsystem):
        rng = np.random.default_rng(4)
        rho = random_density(rng)
        np.testing.assert_array_equal(
            partial_transpose(partial_transpose(rho, subsystem), subsystem), rho
        )

    def test_separable_states_stay_positive(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            rho = random_product_mixture(rng)
            evals = np.linalg.eigvalsh(hermitize(partial_transpose(rho, "A")))
            assert evals.min() >= -1e-10

    def test_unknown_subsystem_raises(self):
        with pytest.raises(ValueError):
            partial_transpose(np.eye(4), "B")

    @pytest.mark.parametrize("subsystem", ["X", "A"])
    def test_broadcasts_over_leading_axes(self, subsystem):
        rng = np.random.default_rng(7)
        stack = np.array([[random_density(rng) for _ in range(3)] for _ in range(2)])
        out = partial_transpose(stack, subsystem)
        assert out.shape == (2, 3, 4, 4)
        for i in range(2):
            for j in range(3):
                np.testing.assert_array_equal(out[i, j], partial_transpose(stack[i, j], subsystem))


class TestNegativity:
    def test_basis_state_zero(self):
        assert negativity(basis_state(0)) == 0.0

    def test_bell_state_half(self):
        assert abs(negativity(pure_state([1, 0, 0, 1])) - 0.5) < 1e-12

    def test_isotropic_mixture_boundary(self):
        # v Bell + (1-v)/4 identity crosses separability at v = 1/3.
        bell = pure_state([1, 0, 0, 1])
        rho = bell / 3.0 + (2.0 / 3.0) * np.eye(4) / 4.0
        assert negativity(rho) < 1e-10
        rho_ent = 0.5 * bell + 0.5 * np.eye(4) / 4.0
        assert negativity(rho_ent) > 0.05

    def test_product_mixtures_zero(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            assert negativity(random_product_mixture(rng)) <= 1e-9

    def test_non_hermitian_raises(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(ValueError):
            negativity(m)

    def test_stack_matches_one_by_one(self):
        bell = pure_state([1, 0, 0, 1])
        stack = np.array([v * bell + (1 - v) * np.eye(4) / 4 for v in np.linspace(0, 1, 9)])
        values = negativity(stack)
        assert values.shape == (9,)
        assert values.tolist() == [negativity(rho) for rho in stack]

    def test_stack_with_one_non_hermitian_member_raises(self):
        stack = np.array([np.eye(4) / 4] * 3, dtype=complex)
        stack[1, 0, 1] = 1.0
        with pytest.raises(ValueError):
            negativity(stack)

