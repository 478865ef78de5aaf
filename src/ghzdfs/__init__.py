"""Cavity-QED simulator for transferring n-qubit GHZ states from operation
qutrits onto pair-encoded memory qutrits that collective dephasing cannot
touch, with a verification harness for the timing, leakage and
storage-immunity claims of the protocol."""

from .hilbert import (
    HilbertSpace,
    Level,
    Role,
    StateVector,
    Subsystem,
    basis_state,
    build_space,
    fidelity,
    level_populations,
    normalized,
    population,
    product_state,
)
from .operators import (
    CouplingParams,
    OperatorMatrix,
    OscillatingHamiltonian,
    PulseKind,
    dispersive_effective,
    dispersive_full,
    dispersive_positions,
    dispersive_reduced,
    excitation_number,
    oscillating_dispersive,
    pulse_unitary,
    resonant_jc,
    resonant_local,
)
from .evolve import (
    IntegratorConfig,
    analytic_reduced_evolution,
    apply_local,
    dispersive_f_peaks,
    evolve_local,
    evolve_static,
    evolve_timedep,
    exact_dispersive_evolution,
)
from .protocol import (
    GhzCoefficients,
    ProtocolParams,
    TransferResult,
    bare_initial_state,
    cavity_lifetime,
    inverse_transfer,
    leakage_estimate,
    matched_deltap,
    operation_time,
    prepare_initial,
    run_transfer,
    target_state,
)
from .dephasing import (
    DephasingModel,
    bare_ghz_memory_state,
    collective_mean_fidelity_bare_pair,
    dephase_trajectory,
    dephasing_hamiltonian,
    storage_fidelity_ensemble,
    verify_dfs_annihilation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
