"""Composite Hilbert spaces of qutrits plus one truncated cavity mode.

The register layout is fixed: ``n`` operation qutrits (labelled ``op`` 1..n),
``2n`` memory qutrits arranged in pairs (slot ``mem_a`` j and slot ``mem_b`` j
form logical pair j), and a single cavity mode truncated at a Fock cutoff.
Qutrit levels are |g>, |e>, |f> with fixed indices 0, 1, 2.

Linear indexing convention: the subsystem tuple is ordered
(op 1..n, mem_a 1..n, mem_b 1..n, cavity) and the linear index treats the
cavity as the most significant (slowest-varying) digit, with operation
qutrit 1 fastest-varying.  Concretely

    index = sum_k label_k * stride_k,   stride_k = prod(dims[:k])

so serialized amplitude vectors are portable between processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from functools import cached_property
from typing import Sequence

import numpy as np


class Level(IntEnum):
    """Qutrit levels; the qubit lives in {G, E}, F is the auxiliary level."""

    G = 0
    E = 1
    F = 2


class Role(str, Enum):
    """What a subsystem does in the transfer protocol."""

    OPERATION = "op"
    MEMORY_A = "mem_a"
    MEMORY_B = "mem_b"
    CAVITY = "cavity"


@dataclass(frozen=True)
class Subsystem:
    """One tensor factor: a role plus its 1-based index (0 for the cavity)."""

    role: Role
    index: int

    def label(self) -> str:
        return self.role.value if self.role is Role.CAVITY else f"{self.role.value}{self.index}"


QUTRIT_DIM = 3


@dataclass(frozen=True)
class HilbertSpace:
    """Ordered collection of subsystem dimensions with index arithmetic.

    Immutable after construction; safe to share between concurrent workers.
    """

    dims: tuple[int, ...]
    subsystems: tuple[Subsystem, ...]

    def __post_init__(self) -> None:
        if len(self.dims) != len(self.subsystems):
            raise ValueError("dims and subsystems must have equal length")
        cavities = [s for s in self.subsystems if s.role is Role.CAVITY]
        if len(cavities) != 1:
            raise ValueError("exactly one cavity subsystem is required")
        for dim, sub in zip(self.dims, self.subsystems):
            if sub.role is Role.CAVITY:
                if dim < 2:
                    raise ValueError("cavity dimension must be at least 2")
            elif dim != QUTRIT_DIM:
                raise ValueError(f"qutrit {sub.label()} must have dimension {QUTRIT_DIM}")

    @cached_property
    def size(self) -> int:
        return len(self.dims)

    @cached_property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    @cached_property
    def strides(self) -> tuple[int, ...]:
        strides = []
        acc = 1
        for d in self.dims:
            strides.append(acc)
            acc *= d
        return tuple(strides)

    # -- subsystem lookup ---------------------------------------------------

    @cached_property
    def _positions(self) -> dict[Subsystem, int]:
        return {sub: k for k, sub in enumerate(self.subsystems)}

    def position(self, role: Role, index: int = 0) -> int:
        """Position of a subsystem in the tensor ordering; KeyError if absent."""
        return self._positions[Subsystem(role, index)]

    def positions(self, role: Role) -> tuple[int, ...]:
        return tuple(k for k, s in enumerate(self.subsystems) if s.role is role)

    @cached_property
    def cavity(self) -> int:
        return self.position(Role.CAVITY, 0)

    @cached_property
    def cavity_dim(self) -> int:
        return self.dims[self.cavity]

    @cached_property
    def qutrit_positions(self) -> tuple[int, ...]:
        return tuple(k for k, s in enumerate(self.subsystems) if s.role is not Role.CAVITY)

    @cached_property
    def n_pairs(self) -> int:
        """Number of logical memory pairs (equals the GHZ qubit count n)."""
        return len(self.positions(Role.MEMORY_B))

    def memory_pair(self, j: int) -> tuple[int, int]:
        """Positions of the two physical qutrits of logical pair j (1-based)."""
        return self.position(Role.MEMORY_A, j), self.position(Role.MEMORY_B, j)

    # -- index arithmetic ---------------------------------------------------

    def index_of(self, labels: Sequence[int]) -> int:
        if len(labels) != self.size:
            raise ValueError(f"expected {self.size} labels, got {len(labels)}")
        idx = 0
        for label, dim, stride, sub in zip(labels, self.dims, self.strides, self.subsystems):
            label = int(label)
            if not 0 <= label < dim:
                raise ValueError(f"label {label} out of range for {sub.label()} (dim {dim})")
            idx += label * stride
        return idx

    def labels_of(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.total_dim:
            raise ValueError("basis index out of range")
        return tuple((index // s) % d for s, d in zip(self.strides, self.dims))

    def label_array(self, position: int) -> np.ndarray:
        """Per-basis-state label of one subsystem, as an int array of length total_dim."""
        idx = np.arange(self.total_dim)
        return (idx // self.strides[position]) % self.dims[position]

    def describe(self) -> str:
        return " | ".join(f"{s.label()}({d})" for s, d in zip(self.subsystems, self.dims))


def build_space(n: int, fock_cutoff: int, active_only: bool = False) -> HilbertSpace:
    """Build the protocol register for n logical qubits.

    Full layout: operation qutrits 1..n, memory slots a_1..a_n, b_1..b_n and
    the cavity (dimension ``fock_cutoff + 1``) as the last subsystem.  With
    ``active_only`` the two resonantly-addressed qutrits (op 1 and mem_a 1)
    are dropped, leaving only the dispersively coupled qutrits; they factor
    out exactly during the dispersive stage, which makes full-dynamics
    validation runs much cheaper.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if fock_cutoff < 1:
        raise ValueError("fock_cutoff must be at least 1")
    subsystems: list[Subsystem] = []
    op_start = 2 if active_only else 1
    subsystems += [Subsystem(Role.OPERATION, j) for j in range(op_start, n + 1)]
    subsystems += [Subsystem(Role.MEMORY_A, j) for j in range(op_start, n + 1)]
    subsystems += [Subsystem(Role.MEMORY_B, j) for j in range(1, n + 1)]
    subsystems.append(Subsystem(Role.CAVITY, 0))
    dims = tuple(QUTRIT_DIM for _ in subsystems[:-1]) + (fock_cutoff + 1,)
    return HilbertSpace(dims=dims, subsystems=tuple(subsystems))


_NORM_GUARD = 1e-6


def vector_norm(amplitudes: np.ndarray) -> float:
    """Euclidean norm of a complex amplitude vector.

    Summed by einsum over the real view rather than by BLAS: a threaded BLAS
    dot costs more than it saves on vectors of register size.
    """
    flat = np.ascontiguousarray(amplitudes, dtype=np.complex128).view(np.float64)
    return math.sqrt(float(np.einsum("i,i->", flat, flat)))


@dataclass(frozen=True)
class StateVector:
    """Normalized complex amplitude vector over a HilbertSpace.

    Amplitudes are stored read-only; public operations return new instances.
    """

    space: HilbertSpace
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.space.total_dim,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected ({self.space.total_dim},)"
            )
        nrm = vector_norm(amps)
        if abs(nrm - 1.0) > _NORM_GUARD:
            raise ValueError(f"state vector norm {nrm} is not 1 within {_NORM_GUARD}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm(self) -> float:
        return vector_norm(self.amplitudes)

    def as_tensor(self) -> np.ndarray:
        """View shaped (cavity, ..., first qutrit): axis k holds subsystem size-1-k."""
        return self.amplitudes.reshape(self.space.dims[::-1])

    def axis(self, position: int) -> int:
        """Tensor axis (in ``as_tensor`` layout) of a subsystem position."""
        return self.space.size - 1 - position

    def overlap(self, other: "StateVector") -> complex:
        _require_same_space(self, other)
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def normalized(space: HilbertSpace, amplitudes: np.ndarray) -> StateVector:
    """StateVector from an unnormalized amplitude vector (rescaled to unit norm)."""
    amps = np.asarray(amplitudes, dtype=np.complex128)
    nrm = vector_norm(amps)
    if nrm == 0:
        raise ValueError("cannot normalize the zero vector")
    return StateVector(space, amps / nrm)


def basis_state(space: HilbertSpace, labels: Sequence[int]) -> StateVector:
    """Unit vector on one product basis element, one label per subsystem."""
    amps = np.zeros(space.total_dim, dtype=np.complex128)
    amps[space.index_of(labels)] = 1.0
    return StateVector(space, amps)


def product_state(space: HilbertSpace, factors: Sequence[np.ndarray]) -> StateVector:
    """Tensor product of per-subsystem vectors, in the space's index convention."""
    if len(factors) != space.size:
        raise ValueError(f"expected {space.size} factors, got {len(factors)}")
    vec = np.asarray(factors[-1], dtype=np.complex128)
    if vec.shape != (space.dims[-1],):
        raise ValueError("factor dimension mismatch on subsystem -1")
    for k in range(space.size - 2, -1, -1):
        f = np.asarray(factors[k], dtype=np.complex128)
        if f.shape != (space.dims[k],):
            raise ValueError(f"factor dimension mismatch on subsystem {k}")
        vec = np.kron(vec, f)
    return normalized(space, vec)


def _require_same_space(a: StateVector, b: StateVector) -> None:
    if a.space != b.space:
        raise ValueError("states live on different Hilbert spaces")


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2; invariant under global phases of either argument."""
    _require_same_space(a, b)
    value = abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2
    return float(min(max(value, 0.0), 1.0))


def population(state: StateVector, subsystem: int, level: int) -> float:
    """Probability of finding ``subsystem`` in ``level`` (Born rule marginal)."""
    space = state.space
    if not 0 <= subsystem < space.size:
        raise ValueError(f"subsystem position {subsystem} out of range")
    dim = space.dims[subsystem]
    if not 0 <= int(level) < dim:
        raise ValueError(f"level {level} out of range for dimension {dim}")
    tensor = state.as_tensor()
    axis = state.axis(subsystem)
    sliced = np.take(tensor, int(level), axis=axis)
    return float(np.sum(np.abs(sliced) ** 2))


def level_populations(state: StateVector, subsystem: int) -> np.ndarray:
    """All level probabilities of one subsystem, as a real vector."""
    space = state.space
    tensor = np.abs(state.as_tensor()) ** 2
    axis = state.axis(subsystem)
    other_axes = tuple(a for a in range(space.size) if a != axis)
    return np.asarray(tensor.sum(axis=other_axes), dtype=float)
