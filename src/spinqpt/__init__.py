"""Two-qubit CNOT from isotropic exchange pulses, with blockade-readout process tomography.

The package simulates a CNOT compiled from the spin exchange coupling between
two quantum-dot qubits and characterizes it by process tomography using only
edge-qubit spin-blockade readout, under two noise sources: Gaussian
fluctuation of the exchange pulse durations (dimensionless strength
g*delta_tau) and finite polarization r of the readout channel electrons.
"""

from .qcore import (
    PROJ_DOWN,
    PROJ_UP,
    QuantumChannel,
    apply_channel,
    basis_state,
    choi_matrix,
    is_cptp,
    negativity,
    partial_transpose,
    pure_state,
)
from .dynamics import (
    CNOT_PHASE_TIME,
    CNOT_TARGET,
    NoiseParams,
    TRANSFER_TIME,
    cnot_unitary,
    evolve_unitary,
    exchange_hamiltonian,
    flipflop_hamiltonian,
    gaussian_averaged_channel,
    global_rotation,
    hadamard,
    local_rotation,
    noisy_cnot_channel,
    term_isolation_unitary,
    times_in_picoseconds,
    zz_hamiltonian,
)
from .blockade import (
    Evolve,
    McEstimate,
    MeasureSequence,
    Project,
    Rotate,
    blockade_map,
    branch_weights,
    effect_polynomial,
    format_sequence,
    format_sequences,
    parse_sequence,
    parse_sequences,
    sequence_probability,
    sequence_probability_mc,
)
from .process_matrix import (
    CHI_LABELS,
    CHI_ORDER,
    ProcessMatrix,
    chi_of_channel,
    hermiticity_defect,
    ideal_cnot_chi,
    process_fidelity,
)
from .closed_form import (
    averaged_cnot_output_11,
    chi_closed_form,
    chi_element_1111,
    coefficients,
    fidelity_closed_form,
)
from .tomography import (
    DesignRankError,
    ThresholdResult,
    TomographyDesign,
    assemble_channel_action,
    design_from_sequences,
    design_sequences,
    entanglement_threshold,
    qpt_input_states,
    reconstruct_state,
    reconstructed_output_negativity,
    run_qpt,
)

__version__ = "0.1.0"
