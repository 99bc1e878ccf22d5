"""Tests for the closed-form process matrix, coefficients, and fidelity."""

import json
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spinqpt.closed_form import (
    _blocks,
    averaged_cnot_output_11,
    chi_closed_form,
    chi_element_1111,
    coefficients,
    fidelity_closed_form,
)
from spinqpt.process_matrix import (
    CHI_LABELS,
    CHI_ORDER,
    chi_index,
    hermiticity_defect,
    ideal_cnot_chi,
    process_fidelity,
)

GRID_R = (0.0, 0.25, 0.5, 0.75, 1.0)
GRID_GDTAU = (0.0, 0.05, 0.1, 0.2)

DATA_DIR = pathlib.Path(__file__).parent / "data"


class TestCoefficients:
    def test_noise_free_values(self):
        c = coefficients(0.5, 0.0)
        assert c.d == 1.0
        assert c.a_plus == 1.0 and c.a_minus == 0.0
        assert c.c_minus == 0.0
        assert c.beta1_plus == pytest.approx(1.0, abs=1e-15)
        assert c.beta3_minus == pytest.approx(-1.0, abs=1e-15)

    def test_damping_value_at_tenth(self):
        c = coefficients(1.0, 0.1)
        assert c.d == pytest.approx(0.9801986733067553, abs=1e-15)
        assert c.d**4 == pytest.approx(0.9231163463866358, abs=1e-12)
        assert c.c_plus == pytest.approx(0.9615581731933179, abs=1e-12)

    @pytest.mark.parametrize("gdtau", [0.0, 0.03, 0.1, 0.5, 1.0])
    def test_pair_sums(self, gdtau):
        c = coefficients(0.7, gdtau)
        assert c.a_plus + c.a_minus == pytest.approx(1.0, abs=1e-15)
        assert c.b_plus + c.b_minus == pytest.approx(1.0, abs=1e-15)
        assert c.c_plus + c.c_minus == pytest.approx(1.0, abs=1e-15)
        assert 0.0 < c.d <= 1.0

    def test_rejects_invalid_arguments(self):
        with pytest.raises(ValueError):
            coefficients(1.2, 0.0)
        with pytest.raises(ValueError):
            coefficients(0.5, -0.1)

    @pytest.mark.parametrize("fn", [
        lambda g: coefficients(0.5, g),
        lambda g: chi_element_1111(0.5, g),
        lambda g: averaged_cnot_output_11(g),
    ])
    def test_rejects_non_finite_gdtau(self, fn):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                fn(bad)

    def test_huge_gdtau_is_fully_dephased(self):
        c = coefficients(0.5, 1e300)
        assert c.d == 0.0
        assert fidelity_closed_form(0.5, 1e300) == fidelity_closed_form(0.5, 1e3)


class TestChiClosedForm:
    def test_ideal_limit_is_ideal_cnot(self):
        np.testing.assert_allclose(
            chi_closed_form(1.0, 0.0).chi, ideal_cnot_chi().chi, atol=1e-14
        )

    def test_ideal_chi_is_permutation_array(self):
        # chi[(m,n),(k,l)] = delta(m, pi(k)) delta(n, pi(l)), pi = (1, 2, 4, 3)
        perm = (0, 1, 3, 2)
        chi = chi_closed_form(1.0, 0.0)
        for m in range(4):
            for n in range(4):
                for k in range(4):
                    for l in range(4):
                        want = 1.0 if (m == perm[k] and n == perm[l]) else 0.0
                        assert chi.element(m, n, k, l) == pytest.approx(want, abs=1e-14)

    def test_leading_element_at_sixty_percent(self):
        chi = chi_closed_form(0.6, 0.0)
        assert chi.element(0, 0, 0, 0).real == pytest.approx(0.64, abs=1e-12)

    def test_noise_blocks_vanish_in_ideal_limit(self):
        # Every sector proportional to b- or c- must be exactly zero there.
        chi = chi_closed_form(1.0, 0.0).chi
        assert np.max(np.abs(chi[0:4, 4:8])) == 0.0      # M7
        assert np.max(np.abs(chi[4:8, 0:4])) == 0.0      # M8
        assert np.max(np.abs(chi[8:12, 0:8])) == 0.0     # M9, M10
        assert np.max(np.abs(chi[8:12, 8:12])) == 0.0    # M5
        assert np.max(np.abs(chi[12:16, 0:4])) == 0.0    # M11
        assert np.max(np.abs(chi[12:16, 12:16])) == 0.0  # M6

    def test_zero_sectors_are_exact_zeros(self):
        chi = chi_closed_form(0.6, 0.1).chi
        assert np.max(np.abs(chi[0:8, 8:16])) == 0.0
        assert np.max(np.abs(chi[12:16, 4:8])) == 0.0

    @pytest.mark.parametrize("r", GRID_R)
    @pytest.mark.parametrize("gdtau", GRID_GDTAU)
    def test_element_1111_consistency(self, r, gdtau):
        chi = chi_closed_form(r, gdtau)
        assert chi.element(0, 0, 0, 0).real == pytest.approx(
            chi_element_1111(r, gdtau), abs=1e-12
        )

    @pytest.mark.parametrize("r", GRID_R)
    @pytest.mark.parametrize("gdtau", GRID_GDTAU)
    def test_hermiticity_symmetry(self, r, gdtau):
        assert hermiticity_defect(chi_closed_form(r, gdtau)) <= 1e-12

    @pytest.mark.parametrize("r", GRID_R)
    @pytest.mark.parametrize("gdtau", (0.0, 0.1))
    def test_trace_preservation_sums(self, r, gdtau):
        chi = chi_closed_form(r, gdtau).chi
        for col, (k, l) in enumerate(CHI_ORDER):
            total = sum(chi[chi_index(m, m), col] for m in range(4))
            want = 1.0 if k == l else 0.0
            assert total.real == pytest.approx(want, abs=1e-12)
            assert total.imag == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=100)
    @given(r=st.floats(0.0, 1.0), gdtau=st.floats(0.0, 2.0))
    def test_trace_preserving_and_hermitian_at_random_points(self, r, gdtau):
        chi = chi_closed_form(r, gdtau)
        # Tr E(E_kl) = delta_kl: the E_mm rows come first in the ordering.
        kronecker = np.array([1.0 if k == l else 0.0 for k, l in CHI_ORDER])
        np.testing.assert_allclose(chi.chi[:4].sum(axis=0), kronecker, rtol=0, atol=1e-12)
        assert hermiticity_defect(chi) <= 1e-12

    @settings(max_examples=100)
    @given(r=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])),
           gdtau=st.one_of(st.floats(0.0, 2.0), st.just(0.0)))
    @example(r=0.0, gdtau=0.0)
    @example(r=1.0, gdtau=0.0)
    @example(r=0.0, gdtau=0.3)
    @example(r=1.0, gdtau=1e300)
    def test_each_sector_is_its_block_over_four_bit_for_bit(self, r, gdtau):
        # The layout of the docstring, sector by sector; the blank sectors are +0.
        layout = [[1, 7, None, None], [8, 2, None, None], [9, 10, 5, 3], [11, None, 4, 6]]
        blocks = _blocks(coefficients(r, gdtau))
        chi = chi_closed_form(r, gdtau).chi
        for i, row in enumerate(layout):
            for j, k in enumerate(row):
                want = np.zeros((4, 4), dtype=complex) if k is None else blocks[k] / 4.0
                sector = chi[4 * i:4 * i + 4, 4 * j:4 * j + 4]
                assert sector.tobytes() == want.tobytes(), (i, j)

    def test_golden_baselines(self):
        # Regression against the checked-in matrices for r in {1, 0.8, 0.6}.
        doc = json.loads((DATA_DIR / "chi_closed_form_golden.json").read_text())
        assert tuple(doc["ordering"]) == CHI_LABELS
        assert [case["r"] for case in doc["cases"]] == [1.0, 0.8, 0.6]
        for case in doc["cases"]:
            chi = chi_closed_form(case["r"], case["gdtau"]).chi
            golden = np.array(case["chi_real"]) + 1j * np.array(case["chi_imag"])
            np.testing.assert_allclose(chi, golden, atol=1e-12)


class TestChiElement1111:
    def test_ideal_value(self):
        assert chi_element_1111(1.0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_sixty_percent_value(self):
        assert chi_element_1111(0.6, 0.0) == pytest.approx(0.64, abs=1e-15)

    def test_zero_polarization_floor(self):
        for gdtau in GRID_GDTAU:
            assert chi_element_1111(0.0, gdtau) == pytest.approx(0.25, abs=1e-15)


class TestAveragedOutput:
    def test_noise_free_output_is_input(self):
        out = averaged_cnot_output_11(0.0)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_strong_noise_limit(self):
        out = averaged_cnot_output_11(5.0)
        np.testing.assert_allclose(np.diag(out).real, [3 / 8, 3 / 8, 1 / 8, 1 / 8], atol=1e-10)
        assert out[0, 1].real == pytest.approx(1 / 8, abs=1e-10)
        assert out[1, 0].real == pytest.approx(1 / 8, abs=1e-10)

    @pytest.mark.parametrize("gdtau", (0.0, 0.05, 0.1, 0.2, 0.7))
    def test_unit_trace(self, gdtau):
        assert np.trace(averaged_cnot_output_11(gdtau)).real == pytest.approx(1.0, abs=1e-14)

    def test_hermitian(self):
        out = averaged_cnot_output_11(0.13)
        np.testing.assert_allclose(out, out.conj().T, atol=1e-15)


class TestFidelityClosedForm:
    def test_reported_values(self):
        assert fidelity_closed_form(0.6, 0.0) == pytest.approx(0.49, abs=1e-12)
        assert fidelity_closed_form(0.8, 0.0) == pytest.approx(0.7225, abs=1e-12)
        assert fidelity_closed_form(1.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_noise_free_polynomial(self):
        for r in np.linspace(0.0, 1.0, 11):
            assert fidelity_closed_form(float(r), 0.0) == pytest.approx(
                (1 + 3 * r) ** 2 / 16, abs=1e-12
            )

    def test_timing_loss_at_full_polarization(self):
        f = fidelity_closed_form(1.0, 0.1)
        assert f == pytest.approx(0.943, abs=1e-3)
        assert 0.93 <= f <= 0.96

    @pytest.mark.parametrize("r", GRID_R)
    @pytest.mark.parametrize("gdtau", GRID_GDTAU)
    def test_matches_overlap_with_ideal(self, r, gdtau):
        # Ties the Hilbert-Schmidt arrangement to the explicit expression.
        via_overlap = process_fidelity(chi_closed_form(r, gdtau), ideal_cnot_chi())
        assert via_overlap == pytest.approx(fidelity_closed_form(r, gdtau), abs=1e-12)

    def test_timing_loss_grows_with_polarization(self):
        losses = [
            fidelity_closed_form(r, 0.0) - fidelity_closed_form(r, 0.1)
            for r in np.linspace(0.0, 1.0, 21)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(losses, losses[1:]))
        assert losses[0] == pytest.approx(0.0, abs=1e-12)


class TestArrayClosedForm:
    """An array of r goes through the same floating-point operations as each scalar."""

    @settings(max_examples=200, deadline=None)
    @given(
        rs=st.lists(st.floats(0.0, 1.0), max_size=40).map(lambda v: np.array([0.0, 1.0, *v])),
        gdtau=st.floats(0.0, 2.0) | st.just(1e300),
    )
    def test_array_equals_scalar_calls_exactly(self, rs, gdtau):
        expected = [fidelity_closed_form(float(r), gdtau) for r in rs]
        assert fidelity_closed_form(rs, gdtau).tolist() == expected

    def test_scalar_r_returns_python_float(self):
        assert type(fidelity_closed_form(0.6, 0.1)) is float

    @pytest.mark.parametrize("bad", [1.0 + 1e-12, -1e-300, float("nan")])
    def test_one_bad_value_rejects_the_array(self, bad):
        rs = np.linspace(0.0, 1.0, 7)
        rs[3] = bad
        with pytest.raises(ValueError, match="polarization"):
            fidelity_closed_form(rs, 0.1)
        with pytest.raises(ValueError, match="polarization"):
            coefficients(rs, 0.1)

    def test_coefficients_of_an_array(self):
        rs = np.linspace(0.0, 1.0, 5).reshape(1, 5)
        c = coefficients(rs, 0.1)
        for name in ("alpha1_pp", "alpha2_mm", "alpha3_pm", "alpha4_minus", "alpha6_plus"):
            assert getattr(c, name).shape == rs.shape
        for name in ("d", "a_plus", "b_minus", "c_plus", "beta1_plus", "beta3_minus",
                     "alpha5_plus", "alpha5_minus"):
            assert type(getattr(c, name)) is float
        assert c.alpha6_minus.dtype == complex
