"""Process matrix container, fixed operator ordering, and process fidelity.

A channel on the two-qubit space is fully described by the 16x16 array

    chi[(m,n), (k,l)] = <m| E(|k><l|) |n>,

with the unit-matrix pairs ordered as

    E11 E22 E33 E44 | E12 E21 E34 E43 | E13 E31 E24 E42 | E14 E41 E23 E32.

Row index is the output pair (m, n), column index the input pair (k, l).
The process fidelity is the Hilbert-Schmidt overlap of the two arrays in this
arrangement, F = (1/16) Re sum conj(chi_ref) * chi.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .dynamics import CNOT_TARGET
from .qcore import QuantumChannel

#: Ordered (row, column) index pairs of the operator basis, 0-based.
CHI_ORDER = (
    (0, 0), (1, 1), (2, 2), (3, 3),
    (0, 1), (1, 0), (2, 3), (3, 2),
    (0, 2), (2, 0), (1, 3), (3, 1),
    (0, 3), (3, 0), (1, 2), (2, 1),
)

#: Human-readable labels for the same ordering, 1-based as usual in figures.
CHI_LABELS = tuple(f"E{m + 1}{n + 1}" for m, n in CHI_ORDER)

_INDEX_OF = {pair: i for i, pair in enumerate(CHI_ORDER)}

#: Column-stacking index m + 4n of each chi position (m, n).
CHI_PERM = np.array([m + 4 * n for m, n in CHI_ORDER])
CHI_PERM.setflags(write=False)

#: Position of the swapped pair (n, m) for each chi position (m, n).
CHI_SWAP = np.array([_INDEX_OF[(n, m)] for m, n in CHI_ORDER])
CHI_SWAP.setflags(write=False)


def chi_index(m: int, n: int) -> int:
    """Position of the pair (m, n), 0-based indices, in the fixed ordering."""
    return _INDEX_OF[(m, n)]


@dataclass(frozen=True)
class ProcessMatrix:
    """16x16 process matrix in the fixed ordering, with optional Monte Carlo errors."""

    chi: np.ndarray
    stderr: np.ndarray | None = None

    def __post_init__(self):
        arr = np.array(self.chi, dtype=complex)
        if arr.shape != (16, 16):
            raise ValueError(f"process matrix must be 16x16, got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "chi", arr)
        if self.stderr is not None:
            err = np.array(self.stderr, dtype=float)
            if err.shape != (16, 16):
                raise ValueError("stderr array must be 16x16")
            err.setflags(write=False)
            object.__setattr__(self, "stderr", err)

    def element(self, m: int, n: int, k: int, l: int) -> complex:
        """chi[(m,n),(k,l)] with 0-based state indices."""
        return complex(self.chi[chi_index(m, n), chi_index(k, l)])


def chi_of_channel(channel: QuantumChannel) -> ProcessMatrix:
    """Exact process matrix of a known channel, chi[(m,n),(k,l)] = <m|E(E_kl)|n>.

    That is the superoperator entry S[m + 4n, k + 4l], so chi = S[CHI_PERM][:, CHI_PERM].
    """
    return ProcessMatrix(chi=channel.superop[CHI_PERM][:, CHI_PERM])


@functools.cache
def ideal_cnot_chi() -> ProcessMatrix:
    """Process matrix of the noiseless CNOT (a 0/1 permutation array), built once."""
    return chi_of_channel(QuantumChannel.from_unitary(CNOT_TARGET))


def _chi_array(chi) -> np.ndarray:
    if isinstance(chi, ProcessMatrix):
        return chi.chi
    arr = np.asarray(chi, dtype=complex)
    if arr.shape != (16, 16):
        raise ValueError(f"expected a 16x16 process matrix, got {arr.shape}")
    return arr


def process_fidelity(chi, chi_reference) -> float:
    """Hilbert-Schmidt overlap (1/16) Re Tr[chi_reference† chi] in the fixed ordering."""
    a = _chi_array(chi)
    b = _chi_array(chi_reference)
    return float(np.sum(b.conj() * a).real / 16.0)


def hermiticity_defect(chi) -> float:
    """Largest violation of chi[(m,n),(k,l)] = conj(chi[(n,m),(l,k)])."""
    arr = _chi_array(chi)
    diff = arr - arr[CHI_SWAP][:, CHI_SWAP].conj()
    # hypot rounds like the scalar abs(complex); numpy's vectorized complex
    # abs can differ in the last bit, which would show in the reports.
    return float(np.max(np.hypot(diff.real, diff.imag)))
