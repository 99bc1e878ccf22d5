"""Tests for the process-matrix container and fixed ordering."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from spinqpt.dynamics import CNOT_TARGET, NoiseParams, noisy_cnot_channel
from spinqpt.process_matrix import (
    CHI_LABELS,
    CHI_ORDER,
    ProcessMatrix,
    chi_index,
    chi_of_channel,
    hermiticity_defect,
    ideal_cnot_chi,
    process_fidelity,
)
from spinqpt.qcore import QuantumChannel, apply_channel
from spinqpt.tomography import run_qpt

from forward_reference import identity_channel


def test_ordering_labels():
    assert CHI_LABELS[:8] == ("E11", "E22", "E33", "E44", "E12", "E21", "E34", "E43")
    assert CHI_LABELS[8:] == ("E13", "E31", "E24", "E42", "E14", "E41", "E23", "E32")
    assert chi_index(0, 0) == 0
    assert chi_index(1, 2) == 14


def test_ideal_chi_is_sparse_permutation():
    chi = ideal_cnot_chi().chi
    assert np.count_nonzero(np.abs(chi) > 1e-12) == 16
    np.testing.assert_allclose(np.abs(chi[np.abs(chi) > 1e-12]), 1.0, atol=1e-12)


def test_identity_channel_chi():
    chi = chi_of_channel(identity_channel()).chi
    np.testing.assert_allclose(chi, np.eye(16), atol=1e-14)


def test_chi_of_channel_matches_unitary_products():
    chi = chi_of_channel(QuantumChannel.from_unitary(CNOT_TARGET))
    for (m, n) in CHI_ORDER:
        for (k, l) in CHI_ORDER:
            want = CNOT_TARGET[m, k] * np.conj(CNOT_TARGET[n, l])
            assert chi.element(m, n, k, l) == pytest.approx(want, abs=1e-14)


def test_hermiticity_defect_on_physical_channel():
    ch = noisy_cnot_channel(NoiseParams.from_dimensionless(r=1.0, gdtau=0.15))
    assert hermiticity_defect(chi_of_channel(ch)) < 1e-12


def test_process_fidelity_accepts_arrays_and_wrappers():
    ideal = ideal_cnot_chi()
    assert process_fidelity(ideal.chi, ideal) == pytest.approx(1.0)


def test_shape_validation():
    with pytest.raises(ValueError):
        ProcessMatrix(chi=np.eye(4))
    with pytest.raises(ValueError):
        process_fidelity(np.eye(8), np.eye(8))


# ----------------------------------------------------------------------------
# The CHI_PERM / CHI_SWAP index map against per-entry reference loops
# ----------------------------------------------------------------------------

def _random_kraus_channel(seed: int, n_ops: int) -> QuantumChannel:
    """Channel from a Haar-like isometry C^4 -> C^(4 n_ops), split into Kraus operators."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(4 * n_ops, 4)) + 1j * rng.normal(size=(4 * n_ops, 4))
    isometry, _ = np.linalg.qr(z)
    return QuantumChannel.from_kraus(np.split(isometry, n_ops))


def _chi_reference(channel: QuantumChannel) -> np.ndarray:
    chi = np.zeros((16, 16), dtype=complex)
    for col, (k, l) in enumerate(CHI_ORDER):
        e_kl = np.zeros((4, 4), dtype=complex)
        e_kl[k, l] = 1.0
        out = apply_channel(channel, e_kl)
        for row, (m, n) in enumerate(CHI_ORDER):
            chi[row, col] = out[m, n]
    return chi


def _hermiticity_defect_reference(arr: np.ndarray) -> float:
    worst = 0.0
    for row, (m, n) in enumerate(CHI_ORDER):
        for col, (k, l) in enumerate(CHI_ORDER):
            partner = arr[chi_index(n, m), chi_index(l, k)]
            worst = max(worst, abs(arr[row, col] - partner.conjugate()))
    return worst


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), n_ops=st.integers(1, 4))
def test_chi_of_channel_matches_entrywise_action(seed, n_ops):
    channel = _random_kraus_channel(seed, n_ops)
    np.testing.assert_allclose(chi_of_channel(channel).chi, _chi_reference(channel),
                               rtol=0, atol=1e-14)


@settings(max_examples=50)
@given(arrays(np.complex128, (16, 16),
              elements=st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                          allow_infinity=False)))
def test_hermiticity_defect_matches_entrywise_loop(arr):
    assert hermiticity_defect(arr) == _hermiticity_defect_reference(arr)


@settings(max_examples=20)
@given(r=st.floats(0.0, 1.0), gdtau=st.floats(0.0, 0.3))
def test_pipeline_chi_trace_preserving_and_hermitian(r, gdtau):
    chi = run_qpt(NoiseParams.from_dimensionless(r=r, gdtau=gdtau), method="pipeline").chi
    # Tr E(E_kl) = delta_kl: the E_mm rows come first in the ordering.
    kronecker = np.array([1.0 if k == l else 0.0 for k, l in CHI_ORDER])
    np.testing.assert_allclose(chi[:4].sum(axis=0), kronecker, rtol=0, atol=1e-10)
    assert hermiticity_defect(chi) < 1e-10
