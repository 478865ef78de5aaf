"""State propagation: local unitaries applied on tensor axes, the
closed-form diagonal Stark-shift dynamics, the exact full dispersive hold,
exponential action, and adaptive time-ordered integration.

Every operation of the ideal protocol acts on a few subsystems only.
``apply_local`` applies a dense matrix on the listed subsystems' axes of
``StateVector.as_tensor()`` and never forms an operator on the whole
register; ``evolve_local`` exponentiates a small local Hamiltonian densely
and applies it that way.  ``analytic_reduced_evolution`` gives the ideal
dispersive hold as a closed-form phase built from per-axis factors.
``exact_dispersive_evolution`` gives the full time-dependent hold exactly,
as one 3x3 propagator per single-photon sector, and ``dispersive_f_peaks``
the exact peak |f> population of each qutrit over it.

``evolve_static`` applies exp(-i H t) for a full-register sparse H through
matrix-exponential action (no dense exponential is formed; the register at
n = 3 is 59049-dimensional).  It is the oracle for the local path.
``evolve_timedep`` integrates the Schroedinger equation for an explicitly
time-dependent Hamiltonian with an adaptive high-order Runge-Kutta scheme,
keeping the oscillating interaction-picture phases in the Hamiltonian
rather than transforming them away.  It is the oracle for the full hold.
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
    _dispersive_positions, dispersive_positions

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


# -- the exact full dispersive hold --------------------------------------------

_HOLD_WEIGHT_TOL = 1e-12
# grid density of the leakage-peak search, in samples per fastest period,
# and the size of the (terms x times) cosine block evaluated at once
_PEAK_SAMPLES_PER_PERIOD = 32
_PEAK_BLOCK = 2**13
_PEAK_CANDIDATES = 8
_PEAK_REFINE_ROUNDS = 8
_PEAK_REFINE_POINTS = 9


@dataclass(frozen=True)
class _HoldLayout:
    """The single-excitation sectors of the dispersive hold on one state.

    Every configuration c of the dispersive qutrits in {|g>, |e>}, with k_op
    operation and k_mem memory qutrits in |e>, spans one closed sector
    {|c,1>, |c with one |e> raised to |f>, 0>}.  Within it the photon couples
    only to the bright states |B_op,0> and |B_mem,0>, the normalized sums of
    the raised configurations of each group.  ``block`` indexes the
    {|g>, |e>} slices of the dispersive axes at one photon number, keeping
    every axis, so arrays over configurations broadcast against the state.
    """

    tensor: np.ndarray
    cavity_axis: int
    op_axes: tuple[int, ...]
    mem_axes: tuple[int, ...]
    k_op: np.ndarray
    k_mem: np.ndarray

    @classmethod
    def of(cls, psi: StateVector, *, forward: bool) -> "_HoldLayout":
        space = psi.space
        ndim = space.size
        ops, mems = (tuple(psi.axis(p) for p in group)
                     for group in _dispersive_positions(space))
        cavity_axis = psi.axis(space.cavity)
        tensor = psi.as_tensor()
        probs = np.abs(tensor) ** 2
        is_f = np.arange(3) == int(Level.F)
        excitations = _along(ndim, cavity_axis, np.arange(space.cavity_dim))
        for axis in ops + mems:
            excitations = excitations + _along(ndim, axis, is_f)
        excess = float(probs[np.broadcast_to(excitations, probs.shape) > 1].sum())
        if excess > _HOLD_WEIGHT_TOL:
            raise ValueError(
                f"weight {excess:.3e} lies above one excitation (cavity photons plus |f> "
                "on dispersive qutrits); the single-photon reduction does not apply"
            )
        if forward:
            f_weight = sum(float(np.take(probs, int(Level.F), axis=axis).sum())
                           for axis in ops + mems)
            if f_weight > _HOLD_WEIGHT_TOL:
                raise ValueError(
                    f"dispersive qutrits carry |f> population {f_weight:.3e} at the start "
                    "of the hold; the single-photon reduction does not apply"
                )
        is_e = (np.arange(2) == int(Level.E)).astype(int)
        k_op = sum((_along(ndim, axis, is_e) for axis in ops), np.zeros((1,) * ndim, int))
        k_mem = sum((_along(ndim, axis, is_e) for axis in mems), np.zeros((1,) * ndim, int))
        return cls(tensor, cavity_axis, ops, mems, k_op, k_mem)

    def block(self, photons: int, f_axis: int | None = None) -> tuple:
        """Index of the {|g>,|e>} configurations at ``photons``, or, with
        ``f_axis``, of those raised to |f> on that dispersive axis."""
        index: list[object] = [slice(None)] * self.tensor.ndim
        for axis in self.op_axes + self.mem_axes:
            index[axis] = slice(0, 2)
        index[self.cavity_axis] = slice(photons, photons + 1)
        if f_axis is not None:
            index[f_axis] = slice(int(Level.F), int(Level.F) + 1)
        return tuple(index)

    def excited(self, axis: int) -> tuple:
        """Index, within a block, of the configurations with ``axis`` in |e>."""
        index: list[object] = [slice(None)] * self.tensor.ndim
        index[axis] = slice(int(Level.E), int(Level.E) + 1)
        return tuple(index)


def _hold_spectrum(params: CouplingParams, n_op: int,
                   n_mem: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of the rotating-frame sector Hamiltonians.

    For k_op <= n_op and k_mem <= n_mem, in the basis
    {|c,1>, |B_op,0>, |B_mem,0>},

        H' = [[0, mu sqrt(k_op), mu' sqrt(k_mem)],
              [mu sqrt(k_op), delta, 0],
              [mu' sqrt(k_mem), 0, delta']].

    Returns eigenvalues of shape (n_op + 1, n_mem + 1, 3) and eigenvectors
    as the columns of matrices of shape (n_op + 1, n_mem + 1, 3, 3).
    """
    h = np.zeros((n_op + 1, n_mem + 1, 3, 3))
    h[..., 0, 1] = h[..., 1, 0] = params.mu * np.sqrt(np.arange(n_op + 1))[:, None]
    h[..., 0, 2] = h[..., 2, 0] = params.mup * np.sqrt(np.arange(n_mem + 1))[None, :]
    h[..., 1, 1] = params.delta
    h[..., 2, 2] = params.deltap
    return np.linalg.eigh(h)


def _hold_propagators(params: CouplingParams, n_op: int, n_mem: int, t: float) -> np.ndarray:
    """U(t) = diag(1, e^{i delta t}, e^{i delta' t}) expm(-i H' t) of every sector.

    The diagonal factor undoes the rotating frame: in it the bright-state
    amplitudes carry the interaction-picture phases e^{-i delta t} and
    e^{-i delta' t} of ``oscillating_dispersive`` and H' is static.
    """
    energies, vecs = _hold_spectrum(params, n_op, n_mem)
    u = (vecs * np.exp(-1j * t * energies)[..., None, :]) @ np.swapaxes(vecs, -1, -2)
    frame = np.exp(1j * t * np.array([0.0, params.delta, params.deltap]))
    return frame[:, None] * u


def _inverse_sqrt(k: np.ndarray) -> np.ndarray:
    """1/sqrt(k), and 0 where k = 0 (a group with no |e> has no bright state)."""
    return np.where(k > 0, 1.0 / np.sqrt(np.maximum(k, 1)), 0.0)


def exact_dispersive_evolution(params: CouplingParams, t: float, psi: StateVector, *,
                               adjoint: bool = False) -> StateVector:
    """Exact evolution under the full dispersive interaction over [0, t].

    Solves i d|psi>/dt = H(t)|psi> for the H(t) of ``oscillating_dispersive``
    without an integrator.  One photon couples only to dispersive qutrits in
    |e>, so each {|g>,|e>} configuration with k_op operation and k_mem memory
    qutrits in |e> is a closed 3-level problem (see ``_HoldLayout``), static
    in the frame rotating at delta and delta'.  Each photon-1 amplitude and
    its two bright-state amplitudes go through that sector's 3x3 propagator,
    dark combinations are untouched, and so are configurations without the
    photon.  ``adjoint`` applies the inverse, U(t)^dag per sector.

    Valid when the state has at most one excitation (photons plus |f> on
    dispersive qutrits) and, going forward, no |f> on the dispersive
    qutrits; both are checked to weight 1e-12.
    """
    layout = _HoldLayout.of(psi, forward=not adjoint)
    tensor = layout.tensor
    n_op, n_mem = len(layout.op_axes), len(layout.mem_axes)
    u = _hold_propagators(params, n_op, n_mem, t)
    if adjoint:
        u = np.swapaxes(u, -1, -2).conj()
    u = u[layout.k_op, layout.k_mem]
    inv_op, inv_mem = _inverse_sqrt(layout.k_op), _inverse_sqrt(layout.k_mem)

    groups = ((1, layout.op_axes, inv_op), (2, layout.mem_axes, inv_mem))
    # sector amplitudes: the photon, then the two bright states
    x = [tensor[layout.block(1)], None, None]
    for i, axes, inv in groups:
        bright = np.zeros_like(x[0])
        for axis in axes:
            bright[layout.excited(axis)] += tensor[layout.block(0, axis)]
        x[i] = inv * bright
    new = [u[..., i, 0] * x[0] + u[..., i, 1] * x[1] + u[..., i, 2] * x[2] for i in range(3)]

    out = tensor.copy()
    out[layout.block(1)] = new[0]
    for i, axes, inv in groups:
        # each raised configuration holds 1/sqrt(k) of its bright state's change
        change = inv * (new[i] - x[i])
        for axis in axes:
            out[layout.block(0, axis)] += change[layout.excited(axis)]
    return StateVector(psi.space, _check_norm(out.reshape(-1), "exact_dispersive_evolution"))


def dispersive_f_peaks(params: CouplingParams, t: float, psi: StateVector) -> dict[int, float]:
    """Peak |f> population of each dispersive qutrit over the hold [0, t].

    Under ``exact_dispersive_evolution`` from ``psi`` a qutrit's |f>
    population is the closed-form trigonometric sum

        P(s) = sum over sectors of w |U_i0(s)|^2 / k,

    where w is the photon-1 weight of the sector's configurations that have
    this qutrit in |e>, i = 1 (k = k_op) for an operation qutrit and
    i = 2 (k = k_mem) for a memory qutrit, and |U_i0(s)|^2 expands over the
    sector's eigen-decomposition into a constant plus cosines of its
    eigenvalue differences.  Returns {position: max of P over [0, t]}.
    Same preconditions as the forward evolution.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    space = psi.space
    layout = _HoldLayout.of(psi, forward=True)
    n_op, n_mem = len(layout.op_axes), len(layout.mem_axes)
    energies, vecs = _hold_spectrum(params, n_op, n_mem)
    groups = (n_op + 1) * (n_mem + 1)
    energies, vecs = energies.reshape(groups, 3), vecs.reshape(groups, 3, 3)
    pairs = ((0, 1), (0, 2), (1, 2))
    omega = np.concatenate([energies[:, a] - energies[:, b] for a, b in pairs])

    weights = np.abs(layout.tensor[layout.block(1)]) ** 2
    group = np.broadcast_to(layout.k_op * (n_mem + 1) + layout.k_mem, weights.shape)
    k_of_group = np.divmod(np.arange(groups), n_mem + 1)
    positions, consts, coefs = [], [], []
    for i, axes in ((1, layout.op_axes), (2, layout.mem_axes)):
        amp = vecs[:, i, :] * vecs[:, 0, :]  # U_i0(s) = sum_j amp_j e^{-i E_j s}
        per_k = _inverse_sqrt(k_of_group[i - 1]) ** 2
        const = per_k * np.sum(amp**2, axis=1)
        cosine = np.concatenate([2.0 * per_k * amp[:, a] * amp[:, b] for a, b in pairs])
        for axis in axes:
            w = np.bincount(group[layout.excited(axis)].ravel(),
                            weights=weights[layout.excited(axis)].ravel(), minlength=groups)
            positions.append(space.size - 1 - axis)
            consts.append(w @ const)
            coefs.append(np.tile(w, len(pairs)) * cosine)
    coef = np.array(coefs)
    live = np.any(coef != 0.0, axis=0)
    peaks = _trig_sum_max(np.array(consts), coef[:, live], omega[live], t)
    return dict(zip(positions, peaks.tolist()))


def _trig_sum_max(const: np.ndarray, coef: np.ndarray, omega: np.ndarray,
                  t: float) -> np.ndarray:
    """Row-wise max over [0, t] of P(s) = const + coef @ cos(omega s).

    P is sampled on a grid of ``_PEAK_SAMPLES_PER_PERIOD`` points per fastest
    period, in chunks whose cosine block has about ``_PEAK_BLOCK`` entries.
    Each local maximum of the grid is ranked by the vertex of the parabola
    through it and its neighbours, capped at M2 dt^2 / 8 above the sample:
    |P''| <= M2 = sum |coef| omega^2 and P' = 0 at an interior maximum, so P
    rises no more than that within half a step.  The best-ranked maximum of
    each chunk competes for ``_PEAK_CANDIDATES`` places per row, and those
    are refined by successive grid zooms over +-dt.  Every refined value is
    a value of P, so the result never exceeds the true maximum.
    """
    rows = np.arange(const.size)
    fastest = float(np.max(np.abs(omega), initial=0.0))
    if t == 0.0 or fastest == 0.0:
        return const + coef.sum(axis=1)
    samples = max(2, math.ceil(t * fastest * _PEAK_SAMPLES_PER_PERIOD / (2.0 * math.pi)) + 1)
    dt = t / (samples - 1)
    slack = (np.abs(coef) @ omega**2 * dt**2 / 8.0)[:, None]
    chunk = max(64, _PEAK_BLOCK // omega.size)
    cosines = np.empty((omega.size, chunk + 2))
    best = np.full(rows.size, -np.inf)
    top_rank = np.full((rows.size, _PEAK_CANDIDATES), -np.inf)
    top_at = np.zeros((rows.size, _PEAK_CANDIDATES))
    for start in range(0, samples, chunk):
        # one sample either side of the chunk, as neighbours only
        index = np.arange(start - 1, min(start + chunk, samples) + 1)
        block = cosines[:, :index.size]
        np.cos(np.multiply.outer(omega, index * dt, out=block), out=block)
        values = const[:, None] + np.einsum("rj,jk->rk", coef, block)
        left, mid, right = values[:, :-2], values[:, 1:-1], values[:, 2:]
        best = np.maximum(best, mid.max(axis=1))
        curvature = np.maximum(2.0 * mid - left - right, np.finfo(float).tiny)
        rank = np.where((mid >= left) & (mid >= right),
                        mid + np.minimum((right - left) ** 2 / (8.0 * curvature), slack),
                        -np.inf)
        pick = rank.argmax(axis=1)
        worst = top_rank.argmin(axis=1)
        better = rank[rows, pick] > top_rank[rows, worst]
        top_rank[rows[better], worst[better]] = rank[rows[better], pick[better]]
        top_at[rows[better], worst[better]] = index[1 + pick[better]] * dt

    row = np.repeat(rows, _PEAK_CANDIDATES)
    centre = top_at.reshape(-1)
    offsets = np.linspace(-1.0, 1.0, _PEAK_REFINE_POINTS)
    half = dt
    for _ in range(_PEAK_REFINE_ROUNDS):
        at = np.clip(centre[:, None] + half * offsets, 0.0, t)
        values = const[row, None] + np.einsum(
            "cj,cjk->ck", coef[row], np.cos(omega[None, :, None] * at[:, None, :]))
        pick = values.argmax(axis=1)
        centre = at[np.arange(row.size), pick]
        half *= 2.0 / (_PEAK_REFINE_POINTS - 1)
    refined = values[np.arange(row.size), pick].reshape(rows.size, _PEAK_CANDIDATES)
    return np.maximum(best, refined.max(axis=1))


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
