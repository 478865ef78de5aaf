"""End-to-end GHZ transfer: preparation pulses, the three cavity stages,
decoding pulses, the inverse transfer, and timing/leakage analysis.

The protocol moves an n-qubit GHZ state alpha|g..g> + beta|e..e> from the
operation qutrits onto the 2n memory qutrits as

    alpha |ge>_1 ... |ge>_n + beta |eg>_1 ... |eg>_n

with |xy>_j the two qutrits of memory pair j, i.e. one logical qubit per
pair encoded in span{|ge>, |eg>}, which collective pairwise dephasing
cannot touch.  The schedule is independent of n: one resonant swap that
maps the beta branch onto a single cavity photon, one dispersive hold whose
photon-conditioned Stark phases flip every |+> <-> |-> simultaneously, and
one resonant swap that deposits the photon on memory qutrit a_1.

Pulses and cavity retuning are treated as instantaneous ideal operations;
their durations tau_p and tau_d enter the total-time bookkeeping only.

Every step runs locally on the tensor axes of the state (see ``evolve``):
each pulse block as one fused 3x3 unitary per addressed qutrit, each
resonant swap as the exact two-body unitary on the (cavity, qutrit) axes,
the ideal hold as the closed-form Stark phase, and the full-mode hold as one
3x3 propagator per single-photon sector of the active register
(``evolve.exact_dispersive_evolution``).  The inverse transfer applies the
adjoints of the same factors in reverse order.  Nothing here integrates a
Hamiltonian or uses the sparse full-register operators of ``operators``; the
tests hold this path against them and against the integrated full
interaction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Literal, Mapping

import numpy as np

from .evolve import (
    analytic_reduced_evolution,
    apply_local,
    dispersive_f_peaks,
    evolve_local,
    exact_dispersive_evolution,
)
from .hilbert import (
    HilbertSpace,
    Level,
    Role,
    StateVector,
    basis_state,
    build_space,
    fidelity,
    population,
    product_state,
)
from .operators import (
    PULSE_MATRICES,
    CouplingParams,
    PulseKind,
    dispersive_positions,
    resonant_local,
)

# Unused here; bound because perfbench/tracing.py patches these names on this module.
from .evolve import evolve_static, evolve_timedep  # noqa: F401
from .operators import (  # noqa: F401
    dispersive_reduced,
    oscillating_dispersive,
    pulse_unitary,
    resonant_jc,
)

_COMMENSURABILITY_RTOL = 1e-9

KET_G = np.array([1.0, 0.0, 0.0])
KET_E = np.array([0.0, 1.0, 0.0])
KET_F = np.array([0.0, 0.0, 1.0])
KET_PLUS = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
KET_MINUS = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)


@dataclass(frozen=True)
class GhzCoefficients:
    """Normalized amplitudes of the GHZ superposition."""

    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        total = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"|alpha|^2 + |beta|^2 = {total}, expected 1")

    @classmethod
    def balanced(cls) -> "GhzCoefficients":
        s = 1.0 / math.sqrt(2.0)
        return cls(complex(s), complex(s))

    @classmethod
    def random(cls, rng: np.random.Generator) -> "GhzCoefficients":
        z = rng.normal(size=4)
        alpha = complex(z[0], z[1])
        beta = complex(z[2], z[3])
        nrm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
        return cls(alpha / nrm, beta / nrm)


def matched_deltap(coupling: CouplingParams, m: int, k: int) -> CouplingParams:
    """Adjust delta' so both Stark-phase flip times coincide.

    The dispersive hold must satisfy (2m+1)/lam = (2k+1)/lam'; given m, k and
    the operation-group parameters this fixes lam' and hence delta'.
    """
    lamp_target = coupling.lam * (2 * k + 1) / (2 * m + 1)
    return replace(coupling, deltap=coupling.mup**2 / lamp_target)


@dataclass(frozen=True)
class ProtocolParams:
    """All physical parameters of one transfer run.

    Angular frequencies in rad/s, times in seconds.  Construction fails
    unless the commensurability condition (2m+1) lam' = (2k+1) lam holds to
    relative 1e-9; use ``matched_deltap`` to satisfy it by adjusting delta'.
    omega_c and the cavity quality factor enter only through the photon
    lifetime Q/omega_c.
    """

    n: int
    coupling: CouplingParams
    m: int = 0
    k: int = 0
    fock_cutoff: int = 2
    tau_p: float = 10e-9
    tau_d: float = 2e-9
    omega_c: float = 2.0 * math.pi * 5e9
    quality_factor: float = 5e5

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.m < 0 or self.k < 0:
            raise ValueError("m and k must be non-negative integers")
        if self.fock_cutoff < 1:
            raise ValueError("fock_cutoff must be at least 1")
        if self.tau_p < 0 or self.tau_d < 0:
            raise ValueError("pulse and retuning times must be non-negative")
        if self.omega_c <= 0 or self.quality_factor <= 0:
            raise ValueError("omega_c and quality_factor must be positive")
        lhs = (2 * self.m + 1) * self.coupling.lamp
        rhs = (2 * self.k + 1) * self.coupling.lam
        if abs(lhs - rhs) > _COMMENSURABILITY_RTOL * max(abs(lhs), abs(rhs)):
            raise ValueError(
                "commensurability violated: (2m+1) lam' and (2k+1) lam differ "
                f"by {abs(lhs - rhs) / max(abs(lhs), abs(rhs)):.3e} relative; "
                "adjust delta' (see matched_deltap)"
            )

    @property
    def t1(self) -> float:
        """Duration of the first resonant stage, a half Rabi swap."""
        return math.pi / (2.0 * self.coupling.mu1)

    @property
    def t2(self) -> float:
        """Duration of the dispersive hold, an odd multiple of pi/lam."""
        return (2 * self.m + 1) * math.pi / self.coupling.lam

    @property
    def t3(self) -> float:
        """Duration of the second resonant stage, three quarter Rabi cycles."""
        return 3.0 * math.pi / (2.0 * self.coupling.mu1p)


Mode = Literal["ideal", "full"]


@dataclass(frozen=True)
class TransferResult:
    """Final state of one transfer run plus quality diagnostics.

    ``leakage_f`` maps each dispersively coupled qutrit label to its |f>
    population: the exact peak over the dispersive stage in full mode, the
    final value in ideal mode.  ``leakage_photon`` is the residual cavity
    excitation left at the end of the run.
    """

    final_state: StateVector
    fidelity_to_target: float
    leakage_f: Mapping[str, float]
    leakage_photon: float
    step_durations: tuple[float, float, float]
    total_time: float
    mode: Mode
    diagnostics: Mapping[str, object]

    def __post_init__(self) -> None:
        if not 0.0 <= self.fidelity_to_target <= 1.0:
            raise ValueError("fidelity must lie in [0, 1]")
        if any(t <= 0 for t in self.step_durations) or self.total_time <= 0:
            raise ValueError("durations must be positive")
        object.__setattr__(self, "leakage_f", MappingProxyType(dict(self.leakage_f)))
        object.__setattr__(self, "diagnostics", MappingProxyType(dict(self.diagnostics)))

    @property
    def max_f_leakage(self) -> float:
        return max(self.leakage_f.values(), default=0.0)


# -- pulse sequences ----------------------------------------------------------

PulseSeq = list[tuple[int, PulseKind]]


def _preparation_pulses(space: HilbertSpace, n: int) -> PulseSeq:
    seq: PulseSeq = []
    q1 = space.position(Role.OPERATION, 1)
    seq += [(q1, PulseKind.PI_EF), (q1, PulseKind.PI_GE)]  # |g>->|e>, |e>->|f>
    for j in range(2, n + 1):
        seq.append((space.position(Role.OPERATION, j), PulseKind.HADAMARD_GE))
    seq.append((space.position(Role.MEMORY_A, 1), PulseKind.PI_GE))
    for j in range(2, n + 1):
        seq.append((space.position(Role.MEMORY_A, j), PulseKind.HADAMARD_GE))
    for j in range(1, n + 1):
        pos = space.position(Role.MEMORY_B, j)
        seq += [(pos, PulseKind.PI_GE), (pos, PulseKind.HADAMARD_GE)]  # |g> -> |->
    return seq


def _decoding_pulses(space: HilbertSpace, n: int) -> PulseSeq:
    seq: PulseSeq = [(space.position(Role.MEMORY_A, 1), PulseKind.LADDER_DOWN)]
    for j in range(2, n + 1):
        seq.append((space.position(Role.MEMORY_A, j), PulseKind.HADAMARD_GE_INVERSE))
    for j in range(1, n + 1):
        seq.append((space.position(Role.MEMORY_B, j), PulseKind.HADAMARD_GE_INVERSE))
    return seq


def _fuse(seq: PulseSeq) -> dict[int, np.ndarray]:
    """One 3x3 unitary per addressed qutrit: the product of its pulses in order."""
    block: dict[int, np.ndarray] = {}
    for pos, kind in seq:
        block[pos] = PULSE_MATRICES[kind] @ block.get(pos, np.eye(3))
    return block


def _apply_pulses(psi: StateVector, seq: PulseSeq, *, adjoint: bool = False) -> StateVector:
    """Apply a pulse block, or its inverse, one qutrit axis at a time.

    Pulses on different qutrits commute, so the block is exactly the product
    of its fused per-qutrit unitaries and the inverse that of their adjoints.
    """
    for pos, unitary in _fuse(seq).items():
        matrix = unitary.conj().T if adjoint else unitary
        psi = StateVector(psi.space, apply_local(psi, matrix, (pos,)))
    return psi


def _resonant_stage(psi: StateVector, qubit: int, coupling: float, t: float, *,
                    adjoint: bool = False) -> StateVector:
    """Exact resonant swap of one qutrit with the cavity, or its inverse."""
    space = psi.space
    hamiltonian = resonant_local(space.cavity_dim, coupling)
    return evolve_local(-hamiltonian if adjoint else hamiltonian, t, psi,
                        (space.cavity, qubit))


# -- state construction -------------------------------------------------------


def bare_initial_state(space: HilbertSpace, coeffs: GhzCoefficients) -> StateVector:
    """Pre-protocol configuration: GHZ on the operation register, everything
    else in the ground state, cavity in vacuum."""
    all_g = [int(Level.G)] * (space.size - 1) + [0]
    excited = list(all_g)
    for pos in space.positions(Role.OPERATION):
        excited[pos] = int(Level.E)
    amps = (coeffs.alpha * basis_state(space, all_g).amplitudes
            + coeffs.beta * basis_state(space, excited).amplitudes)
    return StateVector(space, amps)


def _require_register(space: HilbertSpace, params: ProtocolParams) -> None:
    if space.n_pairs != params.n or space.cavity_dim != params.fock_cutoff + 1:
        raise ValueError(
            f"space ({space.n_pairs} pairs, cavity dim {space.cavity_dim}) does not "
            f"match params (n={params.n}, fock_cutoff={params.fock_cutoff})"
        )


def prepare_initial(space: HilbertSpace, params: ProtocolParams,
                    coeffs: GhzCoefficients) -> StateVector:
    """Encoded starting state of the whole system.

    Pulses convert the operation register to
    alpha prod_{l>=2}|+> |e>_1 + beta prod_{l>=2}|-> |f>_1 and the memory
    register (from all-|g>) to |e>_{a1} prod|+>_{a} prod|->_{b}.
    """
    _require_register(space, params)
    psi = bare_initial_state(space, coeffs)
    return _apply_pulses(psi, _preparation_pulses(space, params.n))


def target_state(space: HilbertSpace, params: ProtocolParams,
                 coeffs: GhzCoefficients) -> StateVector:
    """Decoded transfer target: the pair-encoded GHZ state on the memory
    register, operation qutrits in their post-transfer reference
    configuration |e>_1 prod_{l>=2}|+>, cavity back in vacuum."""
    _require_register(space, params)

    def memory_branch(a_level: np.ndarray, b_level: np.ndarray) -> StateVector:
        factors: list[np.ndarray] = []
        for sub, dim in zip(space.subsystems, space.dims):
            if sub.role is Role.CAVITY:
                vac = np.zeros(dim)
                vac[0] = 1.0
                factors.append(vac)
            elif sub.role is Role.OPERATION:
                factors.append(KET_E if sub.index == 1 else KET_PLUS)
            elif sub.role is Role.MEMORY_A:
                factors.append(a_level)
            else:
                factors.append(b_level)
        return product_state(space, factors)

    amps = (coeffs.alpha * memory_branch(KET_G, KET_E).amplitudes
            + coeffs.beta * memory_branch(KET_E, KET_G).amplitudes)
    return StateVector(space, amps)


# -- spectator factorization for the dispersive stage ------------------------


def _spectator_positions(space: HilbertSpace, active: HilbertSpace) -> list[int]:
    active_ids = {(s.role, s.index) for s in active.subsystems}
    return [p for p, s in enumerate(space.subsystems) if (s.role, s.index) not in active_ids]


def _extract_active(space: HilbertSpace, active: HilbertSpace,
                    psi: StateVector) -> tuple[StateVector, float]:
    """Slice out the resonant spectators (exactly in |e> during the
    dispersive stage); returns the active-register state and the norm deficit
    of the slice, which vanishes when the factorization is exact."""
    tensor = psi.as_tensor()
    for pos in sorted(_spectator_positions(space, active), reverse=True):
        tensor = np.take(tensor, int(Level.E), axis=tensor.ndim - 1 - pos)
    amps = np.ascontiguousarray(tensor).reshape(-1)
    deficit = abs(1.0 - float(np.linalg.norm(amps)))
    if deficit > 1e-6:
        raise RuntimeError(
            f"resonant spectators are not factored out (norm deficit {deficit:.3e}); "
            "the state is not at the dispersive stage of the protocol"
        )
    return StateVector(active, amps / np.linalg.norm(amps)), deficit


def _restore_active(space: HilbertSpace, active: HilbertSpace,
                    chi: StateVector) -> StateVector:
    full = np.zeros(space.dims[::-1], dtype=np.complex128)
    idx: list[object] = [slice(None)] * space.size
    for pos in _spectator_positions(space, active):
        idx[space.size - 1 - pos] = int(Level.E)
    full[tuple(idx)] = chi.as_tensor()
    return StateVector(space, full.reshape(-1))


def _full_hold(space: HilbertSpace, params: ProtocolParams, psi: StateVector, *,
               adjoint: bool = False) -> tuple[StateVector, dict[str, float], float]:
    """The full dispersive hold, or its inverse, on the active register.

    Returns the evolved state, the per-qutrit peak |f> populations over the
    hold (empty for the inverse), and the spectator-slice norm deficit.
    """
    active = build_space(params.n, params.fock_cutoff, active_only=True)
    chi, deficit = _extract_active(space, active, psi)
    peaks = {} if adjoint else {
        active.subsystems[pos].label(): peak
        for pos, peak in dispersive_f_peaks(params.coupling, params.t2, chi).items()}
    chi = exact_dispersive_evolution(params.coupling, params.t2, chi, adjoint=adjoint)
    return _restore_active(space, active, chi), peaks, deficit


# -- the protocol -------------------------------------------------------------


def run_transfer(params: ProtocolParams, coeffs: GhzCoefficients, mode: Mode = "ideal",
                 *, record_intermediate: bool = False) -> TransferResult:
    """Execute the whole transfer and score it against the decoded target.

    In ideal mode the dispersive stage applies the closed-form phase of the
    diagonal Stark-shift Hamiltonian; in full mode it applies the exact
    evolution under the complete time-dependent interaction, one 3x3
    propagator per single-photon sector, on the active register (the two
    resonantly addressed qutrits factor out exactly during that stage and are
    sliced away).  Full mode also reports the exact peak |f> population of
    each dispersive qutrit over the hold.

    The executed schedule always contains exactly two pulse blocks and three
    cavity-interaction segments, independent of n.
    """
    if mode not in ("ideal", "full"):
        raise ValueError(f"unknown mode {mode!r}")
    space = build_space(params.n, params.fock_cutoff)
    diagnostics: dict[str, object] = {}
    schedule: list[tuple[str, str, float]] = []

    psi = prepare_initial(space, params, coeffs)
    schedule.append(("pulses", "prepare", params.tau_p))

    op1 = space.position(Role.OPERATION, 1)
    mem_a1 = space.position(Role.MEMORY_A, 1)

    psi = _resonant_stage(psi, op1, params.coupling.mu1, params.t1)
    schedule.append(("cavity", "resonant_op1", params.t1))
    if record_intermediate:
        diagnostics["after_step1"] = psi

    slice_deficit = 0.0
    if mode == "ideal":
        psi = analytic_reduced_evolution(params.coupling, params.t2, psi)
        peak_f: dict[str, float] = {}
    else:
        psi, peak_f, slice_deficit = _full_hold(space, params, psi)
    schedule.append(("cavity", "dispersive", params.t2))
    if record_intermediate:
        diagnostics["after_step2"] = psi

    psi = _resonant_stage(psi, mem_a1, params.coupling.mu1p, params.t3)
    schedule.append(("cavity", "resonant_mem_a1", params.t3))
    if record_intermediate:
        diagnostics["after_step3"] = psi

    psi = _apply_pulses(psi, _decoding_pulses(space, params.n))
    schedule.append(("pulses", "decode", params.tau_p))

    target = target_state(space, params, coeffs)
    fid = fidelity(psi, target)

    if mode == "ideal":
        leakage_f = {space.subsystems[pos].label(): population(psi, pos, Level.F)
                     for pos in dispersive_positions(space)}
    else:
        leakage_f = peak_f
    leakage_photon = 1.0 - population(psi, space.cavity, 0)

    diagnostics["schedule"] = tuple(schedule)
    # the hold conserves excitations and refuses weight above Fock 1
    diagnostics["photon_overflow_peak"] = 0.0
    diagnostics["spectator_slice_deficit"] = slice_deficit
    return TransferResult(
        final_state=psi,
        fidelity_to_target=fid,
        leakage_f=leakage_f,
        leakage_photon=max(leakage_photon, 0.0),
        step_durations=(params.t1, params.t2, params.t3),
        total_time=operation_time(params),
        mode=mode,
        diagnostics=diagnostics,
    )


def inverse_transfer(state: StateVector, params: ProtocolParams,
                     mode: Mode = "ideal") -> StateVector:
    """Undo the whole transfer by applying the exact inverse unitary sequence.

    Takes a state produced by ``run_transfer`` back to the bare pre-protocol
    configuration (GHZ on the operation register, memory in the ground
    state, cavity in vacuum).  No measurement is involved anywhere, so the
    inverse is just the adjoint of each operation in reverse order, the
    full-mode hold included.
    """
    if mode not in ("ideal", "full"):
        raise ValueError(f"unknown mode {mode!r}")
    space = build_space(params.n, params.fock_cutoff)
    if state.space != space:
        raise ValueError("state does not live on the protocol register")

    psi = _apply_pulses(state, _decoding_pulses(space, params.n), adjoint=True)

    mem_a1 = space.position(Role.MEMORY_A, 1)
    psi = _resonant_stage(psi, mem_a1, params.coupling.mu1p, params.t3, adjoint=True)

    if mode == "ideal":
        psi = analytic_reduced_evolution(params.coupling, -params.t2, psi)
    else:
        psi, _, _ = _full_hold(space, params, psi, adjoint=True)

    op1 = space.position(Role.OPERATION, 1)
    psi = _resonant_stage(psi, op1, params.coupling.mu1, params.t1, adjoint=True)

    return _apply_pulses(psi, _preparation_pulses(space, params.n), adjoint=True)


# -- analysis formulas --------------------------------------------------------


def operation_time(params: ProtocolParams) -> float:
    """Total wall-clock duration of one transfer.

    Sum of the three cavity-stage durations plus the classical-pulse budget
    and four cavity retunings; independent of the number of qubits.
    """
    return params.t1 + params.t3 + params.t2 + params.tau_p + 4.0 * params.tau_d


def leakage_estimate(params: ProtocolParams) -> tuple[float, float]:
    """Estimated |f> occupation probabilities (p, p') during the dispersive
    stage, 4 mu^2 / (4 mu^2 + delta^2) per coupling group; the detuned-Rabi
    oscillation amplitude for a fully excited qutrit sharing one photon."""
    c = params.coupling
    p = 4.0 * c.mu**2 / (4.0 * c.mu**2 + c.delta**2)
    pp = 4.0 * c.mup**2 / (4.0 * c.mup**2 + c.deltap**2)
    return p, pp


def cavity_lifetime(params: ProtocolParams) -> float:
    """Cavity photon lifetime Q/omega_c; storage must fit well inside it."""
    return params.quality_factor / params.omega_c
