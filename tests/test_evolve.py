import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.linalg import expm

from conftest import MU, reference_coupling
from ghzdfs import (
    CouplingParams,
    IntegratorConfig,
    Level,
    OperatorMatrix,
    Role,
    analytic_reduced_evolution,
    basis_state,
    build_space,
    dispersive_f_peaks,
    dispersive_positions,
    dispersive_reduced,
    evolve_static,
    evolve_timedep,
    exact_dispersive_evolution,
    fidelity,
    normalized,
    oscillating_dispersive,
    population,
    product_state,
    resonant_jc,
)
from ghzdfs import evolve


def half_rabi_space():
    return build_space(1, 2)


# -- resonant stage transforms (exact amplitudes, not just fidelities) ---------


def test_half_rabi_swap_produces_minus_i_photon():
    space = half_rabi_space()
    q1 = space.position(Role.OPERATION, 1)
    h = resonant_jc(space, q1, MU)
    start = [0] * space.size
    start[q1] = int(Level.F)
    out = evolve_static(h, np.pi / (2 * MU), basis_state(space, start))
    target_labels = [0] * space.size
    target_labels[q1] = int(Level.E)
    target_labels[space.cavity] = 1
    target = basis_state(space, target_labels)
    assert 1.0 - fidelity(out, target) < 1e-9
    assert target.overlap(out) == pytest.approx(-1j, abs=1e-9)


def test_e_with_vacuum_is_stationary():
    space = half_rabi_space()
    q1 = space.position(Role.OPERATION, 1)
    h = resonant_jc(space, q1, MU)
    start = [0] * space.size
    start[q1] = int(Level.E)
    psi = basis_state(space, start)
    for t in (0.3e-8, 2.2e-7):
        out = evolve_static(h, t, psi)
        assert 1.0 - fidelity(out, psi) < 1e-12


def test_three_quarter_rabi_deposits_plus_i_f():
    space = half_rabi_space()
    a1 = space.position(Role.MEMORY_A, 1)
    h = resonant_jc(space, a1, MU)
    start = [0] * space.size
    start[a1] = int(Level.E)
    start[space.cavity] = 1
    out = evolve_static(h, 3 * np.pi / (2 * MU), basis_state(space, start))
    target_labels = [0] * space.size
    target_labels[a1] = int(Level.F)
    target = basis_state(space, target_labels)
    assert 1.0 - fidelity(out, target) < 1e-9
    assert target.overlap(out) == pytest.approx(1j, abs=1e-9)


def test_evolve_static_rejects_non_hermitian_and_negative_time():
    space = half_rabi_space()
    psi = basis_state(space, [0, 0, 0, 0])
    h = resonant_jc(space, 0, MU)
    not_herm = OperatorMatrix(space, sp.eye(space.total_dim, format="csr") * 1j)
    with pytest.raises(ValueError):
        evolve_static(not_herm, 1e-9, psi)
    with pytest.raises(ValueError):
        evolve_static(h, -1e-9, psi)


# -- time-dependent integration --------------------------------------------------


def test_constant_hamiltonian_matches_static_propagator():
    space = half_rabi_space()
    q1 = space.position(Role.OPERATION, 1)
    h = resonant_jc(space, q1, MU)
    start = [0] * space.size
    start[q1] = int(Level.F)
    psi = basis_state(space, start)
    t = 0.7 * np.pi / MU
    static = evolve_static(h, t, psi)
    timedep = evolve_timedep(lambda _t: h, t, psi,
                             IntegratorConfig(max_step=t / 200))
    assert 1.0 - fidelity(static, timedep) < 1e-8


def test_zero_hamiltonian_is_identity():
    space = half_rabi_space()
    zero = OperatorMatrix(
        space, sp.csr_matrix((space.total_dim, space.total_dim), dtype=complex),
        hermitian=True)
    psi = normalized(space, np.arange(1, 82).astype(complex))
    out = evolve_timedep(lambda _t: zero, 1e-7, psi, IntegratorConfig(max_step=1e-9))
    assert 1.0 - fidelity(out, psi) < 1e-12


def test_dispersive_leakage_bounded_by_twice_estimate():
    # integrate the full interaction over the hold time; the |f> population
    # of the single dispersive qutrit stays below twice the detuned-Rabi
    # estimate 4 mu^2/(4 mu^2 + delta^2) throughout
    coupling = reference_coupling(10.0)
    space = build_space(1, 2, True)
    ham = oscillating_dispersive(space, coupling)
    b1 = space.position(Role.MEMORY_B, 1)
    start = [0] * space.size
    start[b1] = int(Level.E)
    start[space.cavity] = 1
    psi = basis_state(space, start)
    t2 = np.pi / coupling.lam
    p_estimate = 4 * coupling.mup**2 / (4 * coupling.mup**2 + coupling.deltap**2)
    peak = 0.0

    def observer(_t, y):
        nonlocal peak
        prob = np.abs(y.reshape(space.dims[::-1])) ** 2
        axis = space.size - 1 - b1
        peak = max(peak, float(np.take(prob, int(Level.F), axis=axis).sum()))

    evolve_timedep(ham, t2, psi, observer=observer,
                   observation_times=np.linspace(0, t2, 1200))
    assert 0.0 < peak <= 2 * p_estimate


def test_norm_is_preserved_through_integration():
    coupling = reference_coupling(10.0)
    space = build_space(1, 2, True)
    ham = oscillating_dispersive(space, coupling)
    rng = np.random.default_rng(5)
    psi = normalized(space, rng.normal(size=space.total_dim)
                     + 1j * rng.normal(size=space.total_dim))
    out = evolve_timedep(ham, np.pi / coupling.lam, psi)
    assert abs(out.norm - 1.0) < 1e-10


def test_integration_self_convergence():
    coupling = reference_coupling(10.0)
    space = build_space(1, 2, True)
    ham = oscillating_dispersive(space, coupling)
    b1 = space.position(Role.MEMORY_B, 1)
    start = [0] * space.size
    start[b1] = int(Level.E)
    start[space.cavity] = 1
    psi = basis_state(space, start)
    t2 = np.pi / coupling.lam
    # the norm-drift contract keeps every run in the well-converged regime,
    # so tightening the tolerances may only shrink the self-consistency error
    coarse = evolve_timedep(ham, t2, psi, IntegratorConfig(rel_tol=1e-7, abs_tol=1e-10))
    default = evolve_timedep(ham, t2, psi)
    tight = evolve_timedep(ham, t2, psi, IntegratorConfig(rel_tol=1e-11, abs_tol=1e-14))
    err_default = np.linalg.norm(default.amplitudes - tight.amplitudes)
    err_coarse = np.linalg.norm(coarse.amplitudes - tight.amplitudes)
    assert err_default <= err_coarse + 1e-12
    assert err_default < 1e-8


def test_coarse_integration_fails_loudly_on_norm_drift():
    coupling = reference_coupling(10.0)
    space = build_space(1, 2, True)
    ham = oscillating_dispersive(space, coupling)
    b1 = space.position(Role.MEMORY_B, 1)
    start = [0] * space.size
    start[b1] = int(Level.E)
    start[space.cavity] = 1
    psi = basis_state(space, start)
    period = 2 * np.pi / ham.max_frequency
    with pytest.raises(RuntimeError, match="norm drifted"):
        evolve_timedep(ham, np.pi / coupling.lam, psi,
                       IntegratorConfig(rel_tol=1e-5, abs_tol=1e-8, max_step=period))


# -- closed-form oracle ------------------------------------------------------------


def test_analytic_identity_at_t0():
    space = build_space(2, 2, True)
    rng = np.random.default_rng(11)
    vec = np.zeros(space.total_dim, dtype=complex)
    # populate only no-|f> basis states
    for idx in range(space.total_dim):
        labels = space.labels_of(idx)
        if all(labels[p] != int(Level.F) for p in space.qutrit_positions):
            vec[idx] = rng.normal() + 1j * rng.normal()
    psi = normalized(space, vec)
    out = analytic_reduced_evolution(reference_coupling(), 0.0, psi)
    assert np.array_equal(out.amplitudes, psi.amplitudes)


def test_analytic_flips_minus_to_plus_at_odd_pi():
    # a photon-1 component with one excited qutrit gains the factor -1 at
    # lam * t = pi, turning (|g> - |e>)/sqrt(2) into (|g> + |e>)/sqrt(2)
    coupling = reference_coupling()
    space = build_space(1, 2, True)
    minus = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
    plus = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
    one = np.array([0.0, 1.0, 0.0])
    psi = product_state(space, [minus, one])
    out = analytic_reduced_evolution(coupling, np.pi / coupling.lamp, psi)
    target = product_state(space, [plus, one])
    assert 1.0 - fidelity(out, target) < 1e-12


def test_analytic_leaves_vacuum_branch_alone():
    coupling = reference_coupling()
    space = build_space(1, 2, True)
    minus = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
    vac = np.array([1.0, 0.0, 0.0])
    psi = product_state(space, [minus, vac])
    for t in (0.0, 1.3e-7, np.pi / coupling.lamp):
        out = analytic_reduced_evolution(coupling, t, psi)
        assert np.allclose(out.amplitudes, psi.amplitudes, atol=1e-15)


def test_analytic_rejects_f_population():
    coupling = reference_coupling()
    space = build_space(1, 2, True)
    f_state = np.array([0.0, 0.0, 1.0])
    vac = np.array([1.0, 0.0, 0.0])
    psi = product_state(space, [f_state, vac])
    with pytest.raises(ValueError):
        analytic_reduced_evolution(coupling, 1e-8, psi)


def _random_no_f_state(space, rng):
    vec = np.zeros(space.total_dim, dtype=complex)
    for idx in range(space.total_dim):
        labels = space.labels_of(idx)
        if all(labels[p] != int(Level.F) for p in space.qutrit_positions):
            vec[idx] = rng.normal() + 1j * rng.normal()
    return normalized(space, vec)


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1e-6))
@settings(max_examples=20)
def test_oracle_equivalence_static_vs_analytic(seed, t):
    space = build_space(2, 2, True)
    coupling = reference_coupling()
    red = dispersive_reduced(space, coupling)
    psi = _random_no_f_state(space, np.random.default_rng(seed))
    via_exponential = evolve_static(red, t, psi)
    via_oracle = analytic_reduced_evolution(coupling, t, psi)
    assert np.linalg.norm(via_exponential.amplitudes - via_oracle.amplitudes) < 1e-9


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15)
def test_unitarity_and_composition(seed):
    rng = np.random.default_rng(seed)
    space = build_space(1, 2)
    dim = space.total_dim
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    herm = OperatorMatrix(space, sp.csr_matrix((raw + raw.conj().T) / 2 * MU / dim),
                          hermitian=True)
    psi = normalized(space, rng.normal(size=dim) + 1j * rng.normal(size=dim))
    t_a, t_b = rng.uniform(0, 2e-7, size=2)
    once = evolve_static(herm, t_a + t_b, psi)
    twice = evolve_static(herm, t_b, evolve_static(herm, t_a, psi))
    assert abs(once.norm - 1.0) < 1e-10
    assert 1.0 - fidelity(once, twice) < 1e-9


# -- the exact full dispersive hold ------------------------------------------------

# unequal groups: mu' != mu and delta' != delta, no commensurability needed here
UNEQUAL = CouplingParams(mu1=MU, mu1p=MU, mu=MU, mup=0.6 * MU, delta=5 * MU, deltap=4 * MU)


def _random_single_photon_state(space, rng):
    """Random state with at most one photon and no |f> on the dispersive qutrits;
    any other qutrit (a resonant spectator) takes every level."""
    tensor = (rng.normal(size=space.dims[::-1])
              + 1j * rng.normal(size=space.dims[::-1]))
    index = [slice(None)] * space.size
    index[space.size - 1 - space.cavity] = slice(2, None)
    tensor[tuple(index)] = 0.0
    for pos in dispersive_positions(space):
        index = [slice(None)] * space.size
        index[space.size - 1 - pos] = int(Level.F)
        tensor[tuple(index)] = 0.0
    return normalized(space, tensor.reshape(-1))


def _max_distance(a, b) -> float:
    return float(np.max(np.abs(a.amplitudes - b.amplitudes)))


def test_hold_propagators_match_dense_exponential():
    t = 0.73e-7
    u = evolve._hold_propagators(UNEQUAL, 2, 3, t)
    c = UNEQUAL
    for k_op in range(3):
        for k_mem in range(4):
            g_op, g_mem = c.mu * np.sqrt(k_op), c.mup * np.sqrt(k_mem)
            h = np.array([[0.0, g_op, g_mem], [g_op, c.delta, 0.0], [g_mem, 0.0, c.deltap]])
            frame = np.diag(np.exp(1j * t * np.array([0.0, c.delta, c.deltap])))
            assert np.max(np.abs(u[k_op, k_mem] - frame @ expm(-1j * t * h))) < 1e-12


@pytest.mark.parametrize("n, active_only, coupling", [
    (1, False, reference_coupling(5.0)),  # resonant spectators in every level
    (2, True, UNEQUAL),
])
def test_exact_hold_matches_integrated_hamiltonian(n, active_only, coupling):
    space = build_space(n, 2, active_only)
    psi = _random_single_photon_state(space, np.random.default_rng(17 + n))
    t = 2.1e-7
    exact = exact_dispersive_evolution(coupling, t, psi)
    integrated = evolve_timedep(oscillating_dispersive(space, coupling), t, psi)
    assert _max_distance(exact, integrated) <= 1e-9
    back = exact_dispersive_evolution(coupling, t, exact, adjoint=True)
    integrated_back = evolve_timedep(oscillating_dispersive(space, coupling).reversed_negated(t),
                                     t, exact)
    assert _max_distance(back, integrated_back) <= 1e-9
    assert _max_distance(back, psi) <= 1e-12


def test_exact_hold_is_the_identity_at_t0():
    space = build_space(2, 2, True)
    psi = _random_single_photon_state(space, np.random.default_rng(5))
    assert _max_distance(exact_dispersive_evolution(UNEQUAL, 0.0, psi), psi) <= 1e-15


def test_exact_hold_rejects_more_than_one_photon():
    space = build_space(1, 2, True)
    two_photons = product_state(space, [np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])])
    for adjoint in (False, True):
        with pytest.raises(ValueError, match="above one excitation"):
            exact_dispersive_evolution(reference_coupling(), 1e-8, two_photons, adjoint=adjoint)
    with pytest.raises(ValueError, match="above one excitation"):
        dispersive_f_peaks(reference_coupling(), 1e-8, two_photons)


def test_exact_hold_rejects_f_at_the_start():
    space = build_space(1, 2, True)
    f_vacuum = product_state(space, [np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])])
    with pytest.raises(ValueError, match=r"\|f> population"):
        exact_dispersive_evolution(reference_coupling(), 1e-8, f_vacuum)
    with pytest.raises(ValueError, match=r"\|f> population"):
        dispersive_f_peaks(reference_coupling(), 1e-8, f_vacuum)
    # the inverse takes the hold's own output, which holds |f> with no photon
    exact_dispersive_evolution(reference_coupling(), 1e-8, f_vacuum, adjoint=True)


def test_f_peaks_bound_densely_sampled_exact_populations():
    space = build_space(2, 2, True)
    psi = _random_single_photon_state(space, np.random.default_rng(23))
    t = 1.0e-7  # about 8 periods of the fastest sector frequency
    peaks = dispersive_f_peaks(UNEQUAL, t, psi)
    assert set(peaks) == set(dispersive_positions(space))
    sampled = {pos: 0.0 for pos in peaks}
    for s in np.linspace(0.0, t, 801):
        state = exact_dispersive_evolution(UNEQUAL, s, psi)
        for pos in sampled:
            sampled[pos] = max(sampled[pos], population(state, pos, Level.F))
    for pos, peak in peaks.items():
        assert sampled[pos] - 1e-12 <= peak <= sampled[pos] * (1 + 2e-3), pos
