"""Hamiltonians and classical-pulse unitaries used by the transfer protocol.

Three qubit-cavity couplings appear:

* a resonant exchange on a single qutrit,
  ``H = mu (a^dag |e><f| + a |f><e|)``, which swaps the |e>,|f> excitation
  with a cavity photon (half a Rabi cycle moves |f>|0>_c to -i|e>|1>_c);

* the full time-dependent dispersive interaction on the remaining qutrits,
  with interaction-picture phases exp(-i delta t) on each rotating term;

* its second-order effective form, photon-number-dependent Stark shifts
  plus cavity-mediated "dipole" exchange between every pair of
  dispersively coupled qutrits, and the diagonal reduction that survives
  when no |f> population is present.

Stark-shift/exchange strengths are ``lam = mu^2/delta`` within a group with
coupling ``mu`` and detuning ``delta``, and
``(mu mu'/2)(1/delta + 1/delta')`` between groups with different detunings.

Classical pulses are modeled as instantaneous single-qutrit unitaries with
a fixed real phase convention (drive phases are free parameters, so any
consistent choice works for encoding and decoding).

The sparse operators here embed each term in the whole register (3^(3n)
times the cavity dimension rows).  The protocol itself runs on the local
factors (``PULSE_MATRICES``, ``resonant_local``) and on the closed-form
Stark phase; the full-register forms of the pulse, resonant and reduced
operators serve as independent oracles for that path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

import numpy as np
import scipy.sparse as sp

from .hilbert import Level, HilbertSpace, Role, StateVector

_HERMITIAN_TOL = 1e-12


@dataclass(frozen=True)
class CouplingParams:
    """Qubit-cavity couplings and detunings, all angular frequencies in rad/s.

    mu1 / mu1p are the resonant couplings of operation qutrit 1 and memory
    qutrit a_1.  mu / mup and delta / deltap are the dispersive couplings and
    red detunings of the remaining operation / memory qutrits.
    """

    mu1: float
    mu1p: float
    mu: float
    mup: float
    delta: float
    deltap: float

    def __post_init__(self) -> None:
        for name in ("mu1", "mu1p", "mu", "mup", "delta", "deltap"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def lam(self) -> float:
        """Stark-shift rate of the operation-qutrit group, mu^2/delta."""
        return self.mu**2 / self.delta

    @property
    def lamp(self) -> float:
        """Stark-shift rate of the memory-qutrit group, mu'^2/delta'."""
        return self.mup**2 / self.deltap

    @property
    def lam_cross(self) -> float:
        """Cavity-mediated exchange rate between the two groups."""
        return 0.5 * self.mu * self.mup * (1.0 / self.delta + 1.0 / self.deltap)


class PulseKind(Enum):
    PI_GE = "pi_ge"
    PI_EF = "pi_ef"
    HADAMARD_GE = "hadamard_ge"
    LADDER_UP = "ladder_up"
    LADDER_DOWN = "ladder_down"
    HADAMARD_GE_INVERSE = "hadamard_ge_inverse"


_S = 1.0 / math.sqrt(2.0)
_HADAMARD = np.array([[_S, _S, 0.0], [_S, -_S, 0.0], [0.0, 0.0, 1.0]])
# ladder_up: |g> -> |e> -> |f> -> |g| (cyclic completion keeps it unitary;
# the protocol never applies it to an |f>-populated qutrit)
_LADDER_UP = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

PULSE_MATRICES: dict[PulseKind, np.ndarray] = {
    PulseKind.PI_GE: np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
    PulseKind.PI_EF: np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
    PulseKind.HADAMARD_GE: _HADAMARD,
    PulseKind.LADDER_UP: _LADDER_UP,
    PulseKind.LADDER_DOWN: _LADDER_UP.T.copy(),
    PulseKind.HADAMARD_GE_INVERSE: _HADAMARD.T.copy(),
}


@dataclass(frozen=True)
class OperatorMatrix:
    """Sparse complex operator over a HilbertSpace, optionally tagged Hermitian."""

    space: HilbertSpace
    matrix: sp.csr_matrix = field(repr=False)
    hermitian: bool = False

    def __post_init__(self) -> None:
        mat = sp.csr_matrix(self.matrix, dtype=np.complex128)
        dim = self.space.total_dim
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not match space dimension {dim}")
        if self.hermitian:
            residual = mat - mat.conjugate().T
            if residual.nnz and abs(residual).max() >= _HERMITIAN_TOL:
                raise ValueError("matrix tagged hermitian fails the self-adjointness check")
        object.__setattr__(self, "matrix", mat)

    def matvec(self, vec: np.ndarray) -> np.ndarray:
        return self.matrix.dot(vec)

    def act(self, state: StateVector) -> StateVector:
        """Apply as a norm-preserving map (pulse unitaries); validates the result."""
        if state.space != self.space:
            raise ValueError("operator and state live on different spaces")
        return StateVector(self.space, self.matrix.dot(state.amplitudes))

    def dagger(self) -> "OperatorMatrix":
        return OperatorMatrix(self.space, self.matrix.conjugate().T.tocsr(), self.hermitian)

    def __neg__(self) -> "OperatorMatrix":
        return OperatorMatrix(self.space, -self.matrix, self.hermitian)

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if self.space != other.space:
            raise ValueError("operators live on different spaces")
        return OperatorMatrix(self.space, self.matrix + other.matrix,
                              self.hermitian and other.hermitian)


def annihilation(dim: int) -> sp.csr_matrix:
    """Truncated bosonic annihilation operator."""
    return sp.diags(np.sqrt(np.arange(1, dim)), offsets=1, format="csr").astype(np.complex128)


def creation(dim: int) -> sp.csr_matrix:
    return annihilation(dim).conjugate().T.tocsr()


def number_op(dim: int) -> sp.csr_matrix:
    return sp.diags(np.arange(dim, dtype=float), format="csr").astype(np.complex128)


def qutrit_projector(row: Level, col: Level) -> sp.csr_matrix:
    """|row><col| on a single qutrit."""
    mat = sp.lil_matrix((3, 3), dtype=np.complex128)
    mat[int(row), int(col)] = 1.0
    return mat.tocsr()


def embed(space: HilbertSpace, factors: Mapping[int, sp.spmatrix | np.ndarray]) -> sp.csr_matrix:
    """Kronecker-embed per-subsystem matrices, identity on all other factors.

    The chain follows the index convention (cavity most significant), so the
    result acts on amplitude vectors exactly as the tensor-product operator.
    """
    result: sp.spmatrix | None = None
    for k in range(space.size - 1, -1, -1):
        mat = factors.get(k)
        factor = sp.identity(space.dims[k], dtype=np.complex128, format="csr") \
            if mat is None else sp.csr_matrix(mat, dtype=np.complex128)
        result = factor if result is None else sp.kron(result, factor, format="csr")
    assert result is not None
    return sp.csr_matrix(result)


def _require_qutrit(space: HilbertSpace, position: int) -> None:
    if position == space.cavity:
        raise ValueError("the cavity mode cannot be addressed as a qutrit")
    if not 0 <= position < space.size:
        raise ValueError(f"subsystem position {position} out of range")


def resonant_jc(space: HilbertSpace, qubit: int, coupling: float) -> OperatorMatrix:
    """Resonant exchange mu (a^dag |e><f| + a |f><e|) on one qutrit.

    |e>|0>_c is annihilated (nothing to absorb, |e> cannot emit), while
    |f>|q>_c <-> |e>|q+1>_c Rabi-oscillates at mu*sqrt(q+1).
    """
    _require_qutrit(space, qubit)
    if coupling <= 0:
        raise ValueError("coupling must be positive")
    cav = space.cavity
    dim_c = space.cavity_dim
    term = embed(space, {qubit: qutrit_projector(Level.E, Level.F), cav: creation(dim_c)})
    mat = coupling * (term + term.conjugate().T)
    return OperatorMatrix(space, mat.tocsr(), hermitian=True)


def resonant_local(cavity_dim: int, coupling: float) -> np.ndarray:
    """The two-body matrix of ``resonant_jc`` on (cavity, qutrit) alone.

    Dense and 3 * cavity_dim square, with the cavity as the more significant
    factor; ``resonant_jc`` is this matrix embedded in the full register.
    """
    if coupling <= 0:
        raise ValueError("coupling must be positive")
    a_dag = np.diag(np.sqrt(np.arange(1.0, cavity_dim)), -1)
    ef = np.zeros((3, 3))
    ef[Level.E, Level.F] = 1.0
    term = np.kron(a_dag, ef)
    return coupling * (term + term.T)


def _dispersive_positions(space: HilbertSpace) -> tuple[list[int], list[int]]:
    """Dispersively coupled qutrits: (operation group, memory group).

    Operation qutrits 2..n form the first group; memory slots a_2..a_n plus
    b_1..b_n the second.  The resonant pair (op 1, mem a_1) never appears.
    """
    ops = [space.position(Role.OPERATION, s.index)
           for s in space.subsystems if s.role is Role.OPERATION and s.index >= 2]
    mems = [space.position(Role.MEMORY_A, s.index)
            for s in space.subsystems if s.role is Role.MEMORY_A and s.index >= 2]
    mems += [space.position(Role.MEMORY_B, s.index)
             for s in space.subsystems if s.role is Role.MEMORY_B]
    return ops, mems


def dispersive_positions(space: HilbertSpace) -> tuple[int, ...]:
    """All dispersively coupled qutrit positions, operation group first."""
    ops, mems = _dispersive_positions(space)
    return tuple(ops) + tuple(mems)


@dataclass(frozen=True)
class OscillatingHamiltonian:
    """H(t) = sum_j exp(i w_j t) A_j with constant sparse A_j.

    Terms always come in conjugate pairs (w, A), (-w, A^dag), so H(t) is
    Hermitian at every t.  This is the form integrators consume directly:
    it avoids reassembling a sparse matrix at each right-hand-side call.
    """

    space: HilbertSpace
    frequencies: tuple[float, ...]
    terms: tuple[sp.csr_matrix, ...] = field(repr=False)

    @classmethod
    def from_one_sided(cls, space: HilbertSpace,
                       one_sided: list[tuple[float, sp.spmatrix]]) -> "OscillatingHamiltonian":
        """Build from rotating terms only; conjugate partners are added here."""
        freqs: list[float] = []
        mats: list[sp.csr_matrix] = []
        for w, mat in one_sided:
            mat = sp.csr_matrix(mat, dtype=np.complex128)
            freqs += [w, -w]
            mats += [mat, mat.conjugate().T.tocsr()]
        return cls(space, tuple(freqs), tuple(mats))

    @property
    def max_frequency(self) -> float:
        return max(abs(w) for w in self.frequencies)

    def matvec_at(self, t: float, vec: np.ndarray) -> np.ndarray:
        out = np.zeros_like(vec)
        for w, mat in zip(self.frequencies, self.terms):
            out += np.exp(1j * w * t) * mat.dot(vec)
        return out

    def as_operator(self, t: float) -> OperatorMatrix:
        total = sum((np.exp(1j * w * t) * mat for w, mat in zip(self.frequencies, self.terms)),
                    start=sp.csr_matrix((self.space.total_dim, self.space.total_dim),
                                        dtype=np.complex128))
        return OperatorMatrix(self.space, sp.csr_matrix(total), hermitian=True)

    def reversed_negated(self, t_total: float) -> "OscillatingHamiltonian":
        """The generator whose evolution over [0, t_total] inverts this one's.

        Propagating under H'(s) = -H(t_total - s) realizes the adjoint of the
        time-ordered evolution; the substitution keeps the oscillating form.
        """
        freqs = tuple(-w for w in self.frequencies)
        mats = tuple(sp.csr_matrix(-np.exp(1j * w * t_total) * mat)
                     for w, mat in zip(self.frequencies, self.terms))
        return OscillatingHamiltonian(self.space, freqs, mats)

    def __call__(self, t: float) -> OperatorMatrix:
        return self.as_operator(t)


def oscillating_dispersive(space: HilbertSpace, params: CouplingParams) -> OscillatingHamiltonian:
    """The time-dependent dispersive interaction in oscillating-term form.

    H(t) = mu  sum_{op l}  (e^{-i delta  t} |e>_l <f| a^dag + h.c.)
         + mu' sum_{mem l} (e^{-i delta' t} |e>_l <f| a^dag + h.c.)
    """
    ops, mems = _dispersive_positions(space)
    if not ops and not mems:
        raise ValueError("space contains no dispersively coupled qutrits")
    cav = space.cavity
    a_dag = creation(space.cavity_dim)
    ef = qutrit_projector(Level.E, Level.F)

    def group_term(positions: list[int], coupling: float) -> sp.csr_matrix:
        total = sp.csr_matrix((space.total_dim, space.total_dim), dtype=np.complex128)
        for pos in positions:
            total = total + coupling * embed(space, {pos: ef, cav: a_dag})
        return total

    one_sided: list[tuple[float, sp.spmatrix]] = []
    if ops:
        one_sided.append((-params.delta, group_term(ops, params.mu)))
    if mems:
        one_sided.append((-params.deltap, group_term(mems, params.mup)))
    return OscillatingHamiltonian.from_one_sided(space, one_sided)


def dispersive_full(space: HilbertSpace, params: CouplingParams, t: float) -> OperatorMatrix:
    """Snapshot of the full dispersive interaction Hamiltonian at time t."""
    return oscillating_dispersive(space, params).as_operator(t)


def _exchange_sum(space: HilbertSpace, rows: list[int], cols: list[int],
                  exclude_equal: bool) -> sp.csr_matrix:
    """sum |f>_l <e| (x) |e>_k <f| over l in rows, k in cols."""
    fe = qutrit_projector(Level.F, Level.E)
    ef = qutrit_projector(Level.E, Level.F)
    total = sp.csr_matrix((space.total_dim, space.total_dim), dtype=np.complex128)
    for l in rows:
        for k in cols:
            if exclude_equal and l == k:
                continue
            total = total + embed(space, {l: fe, k: ef})
    return total


def dispersive_effective(space: HilbertSpace, params: CouplingParams, t: float) -> OperatorMatrix:
    """Second-order effective Hamiltonian of the dispersive interaction.

    Contains the photon-number-dependent Stark shifts
    lam (|f><f| a a^dag - |e><e| a^dag a) per qutrit, cavity-mediated
    exchange within each equal-detuning group, and cross-group exchange with
    strength (mu mu'/2)(1/delta + 1/delta') carrying the residual phase
    exp(i (delta - delta') t).  Conjugate partners of the cross terms are
    included so the operator is Hermitian at every t.  Valid in the
    large-detuning regime (delta >> mu); the caller is responsible for that.
    """
    ops, mems = _dispersive_positions(space)
    mems_a = [p for p in mems if space.subsystems[p].role is Role.MEMORY_A]
    mems_b = [p for p in mems if space.subsystems[p].role is Role.MEMORY_B]
    cav = space.cavity
    dim_c = space.cavity_dim
    a_adag = (annihilation(dim_c) @ creation(dim_c)).tocsr()
    adag_a = number_op(dim_c)
    ff = qutrit_projector(Level.F, Level.F)
    ee = qutrit_projector(Level.E, Level.E)

    static = sp.csr_matrix((space.total_dim, space.total_dim), dtype=np.complex128)
    for pos in ops:
        static = static + params.lam * (embed(space, {pos: ff, cav: a_adag})
                                        - embed(space, {pos: ee, cav: adag_a}))
    for pos in mems:
        static = static + params.lamp * (embed(space, {pos: ff, cav: a_adag})
                                         - embed(space, {pos: ee, cav: adag_a}))
    # exchange within each equal-detuning group (both orderings are in the sum)
    static = static + params.lam * _exchange_sum(space, ops, ops, exclude_equal=True)
    static = static + params.lamp * _exchange_sum(space, mems_a, mems_a, exclude_equal=True)
    static = static + params.lamp * _exchange_sum(space, mems_b, mems_b, exclude_equal=True)
    # memory a <-> memory b exchange shares one detuning, hence no phase
    cross_mem = _exchange_sum(space, mems_a, mems_b, exclude_equal=False)
    static = static + params.lamp * (cross_mem + cross_mem.conjugate().T)

    cross_op_mem = _exchange_sum(space, ops, mems, exclude_equal=False)
    phase = np.exp(1j * (params.delta - params.deltap) * t)
    total = static + params.lam_cross * (phase * cross_op_mem
                                         + np.conj(phase) * cross_op_mem.conjugate().T)
    return OperatorMatrix(space, sp.csr_matrix(total), hermitian=True)


def dispersive_reduced(space: HilbertSpace, params: CouplingParams) -> OperatorMatrix:
    """Diagonal Stark-shift Hamiltonian, the no-|f> reduction of the effective one.

    H = -lam sum_{op} |e><e| a^dag a - lam' sum_{mem} |e><e| a^dag a.
    """
    ops, mems = _dispersive_positions(space)
    photon = space.label_array(space.cavity).astype(float)
    diag = np.zeros(space.total_dim)
    for pos in ops:
        diag -= params.lam * (space.label_array(pos) == int(Level.E)) * photon
    for pos in mems:
        diag -= params.lamp * (space.label_array(pos) == int(Level.E)) * photon
    return OperatorMatrix(space, sp.diags(diag).astype(np.complex128).tocsr(), hermitian=True)


def pulse_unitary(space: HilbertSpace, qubit: int, kind: PulseKind) -> OperatorMatrix:
    """Single-qutrit classical pulse embedded in the full space.

    pi_ge swaps |g><->|e>, pi_ef swaps |e><->|f>, hadamard_ge maps
    |g>,|e> to |+>,|-> (its own inverse with the real convention used here),
    ladder_up walks |g>->|e>->|f> and ladder_down walks back.
    """
    _require_qutrit(space, qubit)
    return OperatorMatrix(space, embed(space, {qubit: PULSE_MATRICES[kind]}), hermitian=False)


def excitation_number(space: HilbertSpace) -> OperatorMatrix:
    """Total excitation: photon number plus 1 per |e> and 2 per |f| qutrit.

    Commutes with both the resonant and the full dispersive interaction.
    """
    diag = space.label_array(space.cavity).astype(float)
    for pos in space.qutrit_positions:
        labels = space.label_array(pos)
        diag += (labels == int(Level.E)) + 2.0 * (labels == int(Level.F))
    return OperatorMatrix(space, sp.diags(diag).astype(np.complex128).tocsr(), hermitian=True)
