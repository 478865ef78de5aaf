"""State propagation: local unitaries applied on tensor axes, exponential
action, adaptive time-ordered integration, and the closed-form diagonal
Stark-shift dynamics.

Every operation of the ideal protocol acts on a few subsystems only.
``apply_local`` applies a dense matrix on the listed subsystems' axes of
``StateVector.as_tensor()`` and never forms an operator on the whole
register; ``evolve_local`` exponentiates a small local Hamiltonian densely
and applies it that way.  ``analytic_reduced_evolution`` gives the
dispersive hold as a closed-form phase built from per-axis factors.

``evolve_static`` applies exp(-i H t) for a full-register sparse H through
matrix-exponential action (no dense exponential is formed; the register at
n = 3 is 59049-dimensional).  It is the oracle for the local path.
``evolve_timedep`` integrates the Schroedinger equation for an explicitly
time-dependent Hamiltonian with an adaptive high-order Runge-Kutta scheme,
keeping the oscillating interaction-picture phases in the Hamiltonian
rather than transforming them away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.integrate import DOP853, RK45
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from .hilbert import Level, Role, StateVector, vector_norm
from .operators import CouplingParams, OperatorMatrix, OscillatingHamiltonian, \
    dispersive_positions

_NORM_DRIFT_TOL = 1e-8

_METHODS = {"DOP853": DOP853, "RK45": RK45}


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and step control for the time-ordered integrator.

    ``max_step`` defaults to one twentieth of the fastest oscillation period
    of the Hamiltonian when that is known, so the interaction-picture phases
    are always resolved.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_step: float | None = None
    method: str = "DOP853"

    def __post_init__(self) -> None:
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_step is not None and self.max_step <= 0:
            raise ValueError("max_step must be positive")
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {sorted(_METHODS)}")


def _check_norm(amps: np.ndarray, context: str) -> np.ndarray:
    nrm = vector_norm(amps)
    if abs(nrm - 1.0) > _NORM_DRIFT_TOL:
        raise RuntimeError(
            f"{context}: norm drifted to {nrm} (beyond {_NORM_DRIFT_TOL}); "
            "tighten the integrator tolerances"
        )
    return amps / nrm


def evolve_static(H: OperatorMatrix, t: float, psi: StateVector) -> StateVector:
    """exp(-i H t)|psi> for a time-independent Hermitian H.

    Uses sparse exponential action (Al-Mohy/Higham polynomial scheme); the
    result is renormalized only if the drift is below 1e-8, otherwise the
    call fails loudly.
    """
    if not H.hermitian:
        raise ValueError("evolve_static requires a Hermitian Hamiltonian")
    if psi.space != H.space:
        raise ValueError("state and Hamiltonian live on different spaces")
    if t < 0:
        raise ValueError("t must be non-negative; invert by negating the Hamiltonian")
    if t == 0:
        return psi
    out = expm_multiply(-1j * t * H.matrix, psi.amplitudes)
    return StateVector(psi.space, _check_norm(out, "evolve_static"))


HamiltonianOfT = Callable[[float], OperatorMatrix]


def _make_rhs(H_of_t: OscillatingHamiltonian | HamiltonianOfT) -> Callable:
    if isinstance(H_of_t, OscillatingHamiltonian):
        def rhs(t: float, y: np.ndarray) -> np.ndarray:
            return -1j * H_of_t.matvec_at(t, y)
        return rhs

    def rhs_generic(t: float, y: np.ndarray) -> np.ndarray:
        op = H_of_t(t)
        if not op.hermitian:
            raise ValueError("time-dependent Hamiltonian must be Hermitian at every t")
        return -1j * op.matvec(y)
    return rhs_generic


def _default_max_step(H_of_t, t_final: float) -> float:
    if isinstance(H_of_t, OscillatingHamiltonian) and H_of_t.max_frequency > 0:
        return (2.0 * np.pi / H_of_t.max_frequency) / 20.0
    return t_final / 200.0


def evolve_timedep(
    H_of_t: OscillatingHamiltonian | HamiltonianOfT,
    t_final: float,
    psi: StateVector,
    cfg: IntegratorConfig | None = None,
    *,
    observer: Callable[[float, np.ndarray], None] | None = None,
    observation_times: Iterable[float] | None = None,
) -> StateVector:
    """Solve i d|psi>/dt = H(t)|psi> from 0 to t_final.

    ``H_of_t`` is either an OscillatingHamiltonian (fast path, constant
    sparse terms with oscillating scalar phases) or any callable returning an
    OperatorMatrix.  An optional observer receives (t, amplitudes) at the
    requested observation times, evaluated from the dense interpolant of the
    adaptive solver, so trajectories can be monitored without storing them.
    """
    cfg = cfg or IntegratorConfig()
    if t_final < 0:
        raise ValueError("t_final must be non-negative")
    if t_final == 0:
        return psi
    rhs = _make_rhs(H_of_t)
    max_step = cfg.max_step if cfg.max_step is not None else _default_max_step(H_of_t, t_final)
    solver = _METHODS[cfg.method](
        rhs, 0.0, psi.amplitudes.astype(np.complex128), t_final,
        rtol=cfg.rel_tol, atol=cfg.abs_tol, max_step=max_step,
    )

    obs = iter(sorted(observation_times)) if observation_times is not None else iter(())
    next_obs = next(obs, None)
    if observer is not None and next_obs is not None and next_obs <= 0.0:
        observer(0.0, psi.amplitudes)
        next_obs = next(obs, None)

    while solver.status == "running":
        solver.step()
        if solver.status == "failed":
            raise RuntimeError("time-ordered integration failed (step size underflow)")
        if observer is not None and next_obs is not None and next_obs <= solver.t:
            interpolant = solver.dense_output()
            while next_obs is not None and next_obs <= solver.t:
                observer(next_obs, interpolant(next_obs))
                next_obs = next(obs, None)

    return StateVector(psi.space, _check_norm(solver.y, "evolve_timedep"))


def analytic_reduced_evolution(params: CouplingParams, t: float,
                               psi: StateVector) -> StateVector:
    """Closed-form evolution under the diagonal Stark-shift Hamiltonian.

    Each basis component gains exp(+i (lam N_op + lam' N_mem) q t), where q
    is its photon number and N_op / N_mem count |e> occupations among the
    dispersively coupled operation / memory qutrits.  The rate is a sum of
    per-qutrit terms, so it is assembled by broadcasting one factor per
    tensor axis and never spans the resonant qutrits' axes.  A negative t
    runs the hold backwards.  Only valid when the dispersive qutrits carry
    no |f> population, which is checked.
    """
    space = psi.space
    tensor = psi.as_tensor()
    probs = np.abs(tensor) ** 2
    rate: np.ndarray | float = 0.0
    f_weight = 0.0
    for pos in dispersive_positions(space):
        axis = psi.axis(pos)
        f_weight += float(np.take(probs, int(Level.F), axis=axis).sum())
        group_rate = params.lam if space.subsystems[pos].role is Role.OPERATION else params.lamp
        rate = rate + group_rate * _along(space.size, axis, np.arange(3) == int(Level.E))
    if f_weight > 1e-12:
        raise ValueError(
            f"dispersive qutrits carry |f> population {f_weight:.3e}; "
            "the reduced dynamics does not apply"
        )
    if t == 0:
        return psi
    photon = _along(space.size, psi.axis(space.cavity), np.arange(space.cavity_dim))
    phases = np.exp(1j * t * rate * photon)
    return StateVector(space, _check_norm((phases * tensor).reshape(-1),
                                          "analytic_reduced_evolution"))


def _along(ndim: int, axis: int, values: np.ndarray) -> np.ndarray:
    """``values`` laid along one axis of an ndim-dimensional broadcast shape."""
    shape = [1] * ndim
    shape[axis] = values.size
    return values.reshape(shape)


def apply_local(psi: StateVector, matrix: np.ndarray, positions: Sequence[int]) -> np.ndarray:
    """Amplitudes of (matrix on ``positions``, identity elsewhere)|psi>.

    ``matrix`` acts on the product of the listed subsystems, the first listed
    being the most significant factor (as in ``np.kron``).  Each output slice
    of those axes is the sum of the input slices over the nonzero entries of
    its row, so the work scales with the state size times the nonzeros per
    row and no full-register operator exists.  Elementwise slice arithmetic
    also keeps the large arrays out of BLAS, whose threading costs more than
    it saves on vectors of this size.
    """
    space = psi.space
    if len(set(positions)) != len(positions) or not all(0 <= p < space.size for p in positions):
        raise ValueError(f"positions {tuple(positions)} must be distinct subsystems of the space")
    dims = tuple(space.dims[p] for p in positions)
    if matrix.shape != (math.prod(dims),) * 2:
        raise ValueError(f"matrix shape {matrix.shape} does not match subsystem dims {dims}")
    tensor = psi.as_tensor()
    out = np.empty_like(tensor)
    slices = []
    for digits in np.ndindex(*dims):
        index: list[object] = [slice(None)] * tensor.ndim
        for pos, digit in zip(positions, digits):
            index[psi.axis(pos)] = digit
        slices.append(tuple(index))
    for row, at in enumerate(slices):
        target = out[at]
        cols = np.flatnonzero(matrix[row])
        if cols.size == 0:
            target[...] = 0.0
            continue
        np.multiply(tensor[slices[cols[0]]], matrix[row, cols[0]], out=target)
        for col in cols[1:]:
            target += matrix[row, col] * tensor[slices[col]]
    return out.reshape(-1)


def evolve_local(H: np.ndarray, t: float, psi: StateVector,
                 positions: Sequence[int]) -> StateVector:
    """exp(-i H t)|psi> for a Hamiltonian acting only on ``positions``.

    ``H`` is the dense matrix on those subsystems in ``apply_local`` order.
    Its exponential is formed densely (a few dozen rows at most) and applied
    on the state's tensor axes.  Same norm-drift check as ``evolve_static``.
    """
    if t < 0:
        raise ValueError("t must be non-negative; invert by negating the Hamiltonian")
    out = apply_local(psi, expm(-1j * t * H), positions)
    return StateVector(psi.space, _check_norm(out, "evolve_local"))
