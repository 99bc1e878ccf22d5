"""Dense two-qubit primitives: density matrices, channels, entanglement measures.

All operators are plain complex numpy arrays in the fixed product basis

    |1> = |uu>,  |2> = |ud>,  |3> = |du>,  |4> = |dd>,

where the first spin label is the edge qubit X (the only directly measurable
one) and the second is the inner qubit A.  Superoperators act on
column-stacked operators, vec(A @ P @ B) = (B.T kron A) @ vec(P), and are
stored as 16x16 arrays.

Everything in this module is a pure function of immutable inputs; arrays held
by the value types are marked read-only after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DIM = 4

#: Projectors onto the edge-qubit spin states (up / down), acting on X only.
PROJ_UP = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
PROJ_DOWN = np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex)
PROJ_UP.setflags(write=False)
PROJ_DOWN.setflags(write=False)


def vec(mat: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector; a (..., d, d) stack gives (..., d*d)."""
    mat = np.asarray(mat)
    return np.swapaxes(mat, -1, -2).reshape(*mat.shape[:-2], -1)


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec` for square matrices; a (..., d*d) stack gives (..., d, d)."""
    v = np.asarray(v)
    d = int(round(np.sqrt(v.shape[-1])))
    return np.swapaxes(v.reshape(*v.shape[:-1], d, d), -1, -2)


def hermitize(mat: np.ndarray) -> np.ndarray:
    """(M + M†)/2, absorbing floating-point asymmetry before eigensolves; broadcasts."""
    return 0.5 * (mat + np.swapaxes(mat.conj(), -1, -2))


def basis_state(index: int) -> np.ndarray:
    """Density matrix |i><i| of the computational basis state, 0-based index."""
    if not 0 <= index < DIM:
        raise ValueError(f"basis index must be in 0..3, got {index}")
    rho = np.zeros((DIM, DIM), dtype=complex)
    rho[index, index] = 1.0
    return rho


def pure_state(amplitudes) -> np.ndarray:
    """Density matrix of a (normalized) statevector."""
    psi = np.asarray(amplitudes, dtype=complex).reshape(DIM)
    norm = np.linalg.norm(psi)
    if norm == 0:
        raise ValueError("zero statevector")
    psi = psi / norm
    return np.outer(psi, psi.conj())


def as_density_array(rho) -> np.ndarray:
    """A 4x4 operator as a complex array; any other shape is rejected."""
    arr = np.asarray(rho, dtype=complex)
    if arr.shape != (DIM, DIM):
        raise ValueError(f"expected a 4x4 operator, got shape {arr.shape}")
    return arr


def kraus_to_superop(kraus) -> np.ndarray:
    """Superoperator of rho -> sum_i K_i rho K_i† in the column-stacking convention."""
    s = np.zeros((DIM * DIM, DIM * DIM), dtype=complex)
    for k in kraus:
        k = np.asarray(k, dtype=complex)
        s += np.kron(k.conj(), k)
    return s


@dataclass(frozen=True)
class QuantumChannel:
    """Linear map on 4x4 operators, stored as a read-only 16x16 superoperator.

    Nothing beyond the shape is checked on construction: maps that are not
    completely positive or not trace preserving (for example a bare
    projection) are representable, and :func:`is_cptp` tests a channel.
    """

    superop: np.ndarray

    def __post_init__(self):
        s = np.array(self.superop, dtype=complex)
        if s.shape != (DIM * DIM, DIM * DIM):
            raise ValueError(f"superoperator must be 16x16, got {s.shape}")
        s.setflags(write=False)
        object.__setattr__(self, "superop", s)

    @classmethod
    def from_kraus(cls, kraus) -> "QuantumChannel":
        return cls(superop=kraus_to_superop(kraus))

    @classmethod
    def from_unitary(cls, u: np.ndarray) -> "QuantumChannel":
        return cls(superop=kraus_to_superop([u]))

    @classmethod
    def identity(cls) -> "QuantumChannel":
        return cls.from_unitary(np.eye(DIM, dtype=complex))


def apply_channel(channel: QuantumChannel, rho: np.ndarray) -> np.ndarray:
    """Apply a channel to a 4x4 operator.  Linear in rho."""
    return unvec(channel.superop @ vec(as_density_array(rho)))


def choi_matrix(channel: QuantumChannel) -> np.ndarray:
    """Choi matrix of the channel; the channel is CP iff this is PSD.

    Normalized so that a unitary channel has a rank-1 Choi matrix of trace 4.
    """
    s4 = channel.superop.reshape(DIM, DIM, DIM, DIM)
    return s4.transpose(3, 1, 2, 0).reshape(DIM * DIM, DIM * DIM)


def is_cptp(channel: QuantumChannel, tol: float) -> bool:
    """True iff the Choi eigenvalues are >= -tol and trace preservation holds within tol."""
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    choi = choi_matrix(channel)
    if np.linalg.eigvalsh(hermitize(choi)).min() < -tol:
        return False
    # Tracing the Choi matrix over the output factor must give the identity.
    c4 = choi.reshape(DIM, DIM, DIM, DIM)
    traced = np.einsum("aibi->ab", c4)
    return bool(np.max(np.abs(traced - np.eye(DIM))) <= tol)


def partial_transpose(rho: np.ndarray, subsystem: str) -> np.ndarray:
    """Transpose on one tensor factor, "X" (edge qubit) or "A" (inner qubit).

    Broadcasts over leading axes: a (..., 4, 4) stack is transposed per operator.
    """
    arr = np.asarray(rho, dtype=complex)
    if arr.shape[-2:] != (DIM, DIM):
        raise ValueError(f"expected a 4x4 operator, got shape {arr.shape}")
    lead = arr.shape[:-2]
    r = arr.reshape(lead + (2, 2, 2, 2))
    k = len(lead)
    if subsystem == "X":
        order = (k + 2, k + 1, k, k + 3)
    elif subsystem == "A":
        order = (k, k + 3, k + 2, k + 1)
    else:
        raise ValueError(f"subsystem must be 'X' or 'A', got {subsystem!r}")
    return r.transpose(tuple(range(k)) + order).reshape(arr.shape)


def negativity(rho: np.ndarray):
    """Entanglement negativity: |sum of negative eigenvalues| of the partial transpose.

    Zero exactly on separable two-qubit states, 1/2 on Bell states.  A float
    for one 4x4 operator; for a (..., 4, 4) stack, the array of negativities.
    """
    arr = np.asarray(rho, dtype=complex)
    if np.max(np.abs(arr - np.swapaxes(arr.conj(), -1, -2))) > 1e-8:
        raise ValueError("negativity requires a Hermitian input")
    return transpose_negativity(hermitize(partial_transpose(arr, "A")))


def transpose_negativity(transposed: np.ndarray):
    """Minus the sum of the negative eigenvalues of a Hermitian partial transpose, or of a stack of them."""
    evals = np.linalg.eigvalsh(transposed)
    values = -np.where(evals < 0, evals, 0.0).sum(axis=-1)
    return float(values) if values.ndim == 0 else values
