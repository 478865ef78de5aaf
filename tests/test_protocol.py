import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import hold_oracle
from conftest import MU, reference_coupling, reference_params
from ghzdfs import (
    CouplingParams,
    GhzCoefficients,
    Level,
    ProtocolParams,
    Role,
    analytic_reduced_evolution,
    bare_initial_state,
    build_space,
    cavity_lifetime,
    dispersive_positions,
    dispersive_reduced,
    evolve_static,
    fidelity,
    inverse_transfer,
    leakage_estimate,
    level_populations,
    matched_deltap,
    normalized,
    operation_time,
    population,
    prepare_initial,
    pulse_unitary,
    resonant_jc,
    run_transfer,
    target_state,
)
from ghzdfs import evolve, operators, protocol


# -- coefficients and parameter validation -------------------------------------


def test_coefficients_must_be_normalized():
    with pytest.raises(ValueError):
        GhzCoefficients(1.0, 1.0)
    GhzCoefficients(1.0, 0.0)
    GhzCoefficients.balanced()


def test_commensurability_enforced_at_construction():
    coupling = CouplingParams(mu1=MU, mu1p=MU, mu=MU, mup=MU,
                              delta=10 * MU, deltap=11 * MU)
    with pytest.raises(ValueError, match="commensurability"):
        ProtocolParams(n=2, coupling=coupling)
    fixed = matched_deltap(coupling, 0, 0)
    ProtocolParams(n=2, coupling=fixed)
    assert fixed.lamp == pytest.approx(fixed.lam, rel=1e-12)


def test_matched_deltap_odd_multiples():
    coupling = CouplingParams(mu1=MU, mu1p=MU, mu=MU, mup=MU,
                              delta=10 * MU, deltap=10 * MU)
    fixed = matched_deltap(coupling, m=1, k=0)
    # (2m+1)/lam = (2k+1)/lam'  =>  lam' = lam / 3
    assert fixed.lamp == pytest.approx(coupling.lam / 3, rel=1e-12)
    ProtocolParams(n=2, coupling=fixed, m=1, k=0)


def test_params_reject_degenerate_inputs():
    coupling = reference_coupling()
    with pytest.raises(ValueError):
        ProtocolParams(n=0, coupling=coupling)
    with pytest.raises(ValueError):
        ProtocolParams(n=1, coupling=coupling, m=-1)
    with pytest.raises(ValueError):
        ProtocolParams(n=1, coupling=coupling, fock_cutoff=0)


# -- preparation -----------------------------------------------------------------


def test_prepare_alpha_branch_has_no_f_population():
    params = reference_params(2)
    space = build_space(2, 2)
    psi = prepare_initial(space, params, GhzCoefficients(1.0, 0.0))
    for pos in space.qutrit_positions:
        assert population(psi, pos, Level.F) < 1e-14
    target = helpers.encoded_initial(space, 1.0, 0.0)
    assert 1.0 - fidelity(psi, target) < 1e-12


def test_prepare_beta_branch_populates_f_on_first_qubit():
    params = reference_params(2)
    space = build_space(2, 2)
    psi = prepare_initial(space, params, GhzCoefficients(0.0, 1.0))
    q1 = space.position(Role.OPERATION, 1)
    assert population(psi, q1, Level.F) == pytest.approx(1.0, abs=1e-12)


def test_prepare_rejects_mismatched_register():
    params = reference_params(2)
    with pytest.raises(ValueError, match="does not match"):
        prepare_initial(build_space(3, 2), params, GhzCoefficients.balanced())
    with pytest.raises(ValueError, match="does not match"):
        target_state(build_space(2, 3), params, GhzCoefficients.balanced())


def test_prepare_matches_hand_built_tensor_construction():
    params = reference_params(2)
    space = build_space(2, 2)
    coeffs = GhzCoefficients.balanced()
    psi = prepare_initial(space, params, coeffs)
    target = helpers.encoded_initial(space, coeffs.alpha, coeffs.beta)
    assert 1.0 - fidelity(psi, target) < 1e-12
    # phase-sensitive: the two vectors agree componentwise, not just as rays
    assert np.max(np.abs(psi.amplitudes - target.amplitudes)) < 1e-12


# -- targets -----------------------------------------------------------------------


def test_target_alpha_branch_n1():
    params = reference_params(1)
    space = build_space(1, 2)
    tgt = target_state(space, params, GhzCoefficients(1.0, 0.0))
    a1, b1 = space.memory_pair(1)
    assert population(tgt, a1, Level.G) == pytest.approx(1.0)
    assert population(tgt, b1, Level.E) == pytest.approx(1.0)


def test_target_beta_branch_n2():
    params = reference_params(2)
    space = build_space(2, 2)
    tgt = target_state(space, params, GhzCoefficients(0.0, 1.0))
    for j in (1, 2):
        a, b = space.memory_pair(j)
        assert population(tgt, a, Level.E) == pytest.approx(1.0)
        assert population(tgt, b, Level.G) == pytest.approx(1.0)


def test_target_balanced_n1_is_bell_pair():
    params = reference_params(1)
    space = build_space(1, 2)
    tgt = target_state(space, params, GhzCoefficients.balanced())
    a1, b1 = space.memory_pair(1)
    for pos in (a1, b1):
        pops = level_populations(tgt, pos)
        assert pops[Level.G] == pytest.approx(0.5, abs=1e-12)
        assert pops[Level.E] == pytest.approx(0.5, abs=1e-12)
    # a Bell state of the pair: the two-qutrit marginal is ge + eg only
    assert 1.0 - fidelity(tgt, helpers.decoded_target(space, *_balanced())) < 1e-12


def _balanced():
    s = 1 / math.sqrt(2)
    return s, s


# -- ideal end-to-end transfer -------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ideal_transfer_reaches_target(n):
    params = reference_params(n)
    rng = np.random.default_rng(100 + n)
    for _ in range(3):
        coeffs = GhzCoefficients.random(rng)
        result = run_transfer(params, coeffs, "ideal")
        assert 1.0 - result.fidelity_to_target < 1e-9
        assert result.leakage_photon < 1e-12


def test_ideal_intermediate_states_match_hand_built_targets(params_n2):
    space = build_space(2, 2)
    coeffs = GhzCoefficients.random(np.random.default_rng(42))
    result = run_transfer(params_n2, coeffs, "ideal", record_intermediate=True)
    stages = [
        ("after_step1", helpers.after_load),
        ("after_step2", helpers.after_hold),
        ("after_step3", helpers.after_unload),
    ]
    for key, builder in stages:
        reached = result.diagnostics[key]
        target = builder(space, coeffs.alpha, coeffs.beta)
        assert 1.0 - fidelity(reached, target) < 1e-9, key
    final_target = helpers.decoded_target(space, coeffs.alpha, coeffs.beta)
    assert 1.0 - fidelity(result.final_state, final_target) < 1e-9


def test_relative_phase_survives_without_correction(params_n2):
    # the -i from loading and the +i from unloading must cancel exactly:
    # check the overlap itself, which a fidelity test would not see
    space = build_space(2, 2)
    coeffs = GhzCoefficients.balanced()
    result = run_transfer(params_n2, coeffs, "ideal")
    target = target_state(space, params_n2, coeffs)
    assert target.overlap(result.final_state) == pytest.approx(1.0, abs=1e-9)


def test_alpha_branch_never_excites_the_cavity(params_n2):
    result = run_transfer(params_n2, GhzCoefficients(1.0, 0.0), "ideal",
                          record_intermediate=True)
    assert 1.0 - result.fidelity_to_target < 1e-9
    space = build_space(2, 2)
    for key in ("after_step1", "after_step2", "after_step3"):
        state = result.diagnostics[key]
        assert population(state, space.cavity, 0) == pytest.approx(1.0, abs=1e-12)


def test_photon_never_exceeds_one_at_step_boundaries(params_n2):
    result = run_transfer(params_n2, GhzCoefficients.balanced(), "ideal",
                          record_intermediate=True)
    space = build_space(2, 2)
    for key in ("after_step1", "after_step2", "after_step3"):
        pops = level_populations(result.diagnostics[key], space.cavity)
        assert np.all(pops[2:] < 1e-14)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_schedule_shape_is_independent_of_n(n):
    result = run_transfer(reference_params(n), GhzCoefficients.balanced(), "ideal")
    schedule = result.diagnostics["schedule"]
    assert [kind for kind, *_ in schedule].count("cavity") == 3
    assert [kind for kind, *_ in schedule].count("pulses") == 2


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10)
def test_ideal_fidelity_is_coefficient_independent(seed):
    params = reference_params(1)
    coeffs = GhzCoefficients.random(np.random.default_rng(seed))
    result = run_transfer(params, coeffs, "ideal")
    assert 1.0 - result.fidelity_to_target < 1e-9


def test_run_transfer_rejects_unknown_mode(params_n2):
    with pytest.raises(ValueError):
        run_transfer(params_n2, GhzCoefficients.balanced(), "approximate")


def test_ideal_transfer_reaches_target_n4():
    # 1,594,323 amplitudes: reachable only because no full-register operator is built
    params = reference_params(4)
    result = run_transfer(params, GhzCoefficients.random(np.random.default_rng(104)), "ideal")
    assert 1.0 - result.fidelity_to_target < 1e-9


# -- the local engine against the sparse-Kronecker oracle ----------------------------

# random states at n = 1 and 2, and one at n = 3
ORACLE_CASES = [(1, 0), (1, 1), (2, 0), (2, 1), (3, 0)]
ORACLE_TOL = 1e-12


def _random_state(space, seed, no_f_on=()):
    """Random normalized state; zero weight on |f> of the listed qutrits."""
    rng = np.random.default_rng(seed)
    tensor = (rng.normal(size=space.total_dim)
              + 1j * rng.normal(size=space.total_dim)).reshape(space.dims[::-1])
    for pos in no_f_on:
        index = [slice(None)] * space.size
        index[space.size - 1 - pos] = int(Level.F)
        tensor[tuple(index)] = 0.0
    return normalized(space, tensor.reshape(-1))


def _unequal_rates_params(n):
    """Reference point with m = 1, k = 0, so lam' = lam / 3: a hold that mixed
    up the operation and memory groups' Stark rates would show."""
    return ProtocolParams(n=n, coupling=matched_deltap(reference_coupling(), 1, 0), m=1, k=0)


def _distance(a, b) -> float:
    return float(np.max(np.abs(a.amplitudes - b.amplitudes)))


@pytest.mark.parametrize("n, seed", ORACLE_CASES)
def test_fused_pulse_blocks_match_sequential_sparse_pulses(n, seed):
    space = build_space(n, 2)
    psi = _random_state(space, seed)
    for seq in (protocol._preparation_pulses(space, n), protocol._decoding_pulses(space, n)):
        forward, backward = psi, psi
        for pos, kind in seq:
            forward = pulse_unitary(space, pos, kind).act(forward)
        for pos, kind in reversed(seq):
            backward = pulse_unitary(space, pos, kind).dagger().act(backward)
        assert _distance(protocol._apply_pulses(psi, seq), forward) <= ORACLE_TOL
        assert _distance(protocol._apply_pulses(psi, seq, adjoint=True), backward) <= ORACLE_TOL


@pytest.mark.parametrize("n, seed", ORACLE_CASES)
def test_resonant_swaps_match_sparse_exponential_action(n, seed):
    params = reference_params(n)
    space = build_space(n, params.fock_cutoff)
    psi = _random_state(space, seed)
    c = params.coupling
    for role, coupling, t in ((Role.OPERATION, c.mu1, params.t1),
                              (Role.MEMORY_A, c.mu1p, params.t3)):
        qubit = space.position(role, 1)
        hamiltonian = resonant_jc(space, qubit, coupling)
        local = protocol._resonant_stage(psi, qubit, coupling, t)
        assert _distance(local, evolve_static(hamiltonian, t, psi)) <= ORACLE_TOL
        local = protocol._resonant_stage(psi, qubit, coupling, t, adjoint=True)
        assert _distance(local, evolve_static(-hamiltonian, t, psi)) <= ORACLE_TOL


@pytest.mark.parametrize("n, seed", ORACLE_CASES)
def test_ideal_hold_matches_sparse_exponential_action(n, seed):
    params = _unequal_rates_params(n)
    space = build_space(n, params.fock_cutoff)
    psi = _random_state(space, seed, no_f_on=dispersive_positions(space))
    hamiltonian = dispersive_reduced(space, params.coupling)
    # at t2 itself every Stark phase is +-1, so also test at a generic time
    for t in (params.t2, 0.37 * params.t2):
        local = analytic_reduced_evolution(params.coupling, t, psi)
        assert _distance(local, evolve_static(hamiltonian, t, psi)) <= ORACLE_TOL
        local = analytic_reduced_evolution(params.coupling, -t, psi)
        assert _distance(local, evolve_static(-hamiltonian, t, psi)) <= ORACLE_TOL


def _oracle_transfer(params, psi, inverse=False):
    """The ideal schedule, or its inverse, from full-register sparse operators.

    Each step is a pulse OperatorMatrix or a (Hamiltonian, duration) pair.
    """
    space = psi.space
    c = params.coupling
    steps = [pulse_unitary(space, pos, kind)
             for pos, kind in protocol._preparation_pulses(space, params.n)]
    steps += [(resonant_jc(space, space.position(Role.OPERATION, 1), c.mu1), params.t1),
              (dispersive_reduced(space, c), params.t2),
              (resonant_jc(space, space.position(Role.MEMORY_A, 1), c.mu1p), params.t3)]
    steps += [pulse_unitary(space, pos, kind)
              for pos, kind in protocol._decoding_pulses(space, params.n)]
    if inverse:
        steps = [(-step[0], step[1]) if isinstance(step, tuple) else step.dagger()
                 for step in reversed(steps)]
    for step in steps:
        psi = evolve_static(*step, psi) if isinstance(step, tuple) else step.act(psi)
    return psi


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ideal_transfer_and_inverse_match_sparse_oracle(n):
    params = _unequal_rates_params(n)
    space = build_space(n, params.fock_cutoff)
    coeffs = GhzCoefficients.random(np.random.default_rng(300 + n))
    bare = bare_initial_state(space, coeffs)
    forward = run_transfer(params, coeffs, "ideal").final_state
    assert _distance(forward, _oracle_transfer(params, bare)) <= ORACLE_TOL
    back = inverse_transfer(forward, params, "ideal")
    assert _distance(back, _oracle_transfer(params, forward, inverse=True)) <= ORACLE_TOL


def test_ideal_engine_builds_no_full_register_operator(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("full-register operator built on the ideal path")

    monkeypatch.setattr(operators, "embed", refuse)
    monkeypatch.setattr(sp, "kron", refuse)
    monkeypatch.setattr(evolve, "expm_multiply", refuse)
    params = reference_params(3)
    space = build_space(3, params.fock_cutoff)
    coeffs = GhzCoefficients.random(np.random.default_rng(33))
    result = run_transfer(params, coeffs, "ideal", record_intermediate=True)
    assert 1.0 - result.fidelity_to_target < 1e-9
    back = inverse_transfer(result.final_state, params, "ideal")
    assert 1.0 - fidelity(bare_initial_state(space, coeffs), back) < 1e-9


# -- full dynamics (small register; the expensive runs live in the acceptance suite) --


def test_full_mode_n1_close_to_ideal():
    params = reference_params(1)
    coeffs = GhzCoefficients.balanced()
    result = run_transfer(params, coeffs, "full")
    assert result.fidelity_to_target > 0.99
    assert result.diagnostics["photon_overflow_peak"] < 1e-10
    assert result.max_f_leakage <= 2 * leakage_estimate(params)[1]


def test_full_mode_round_trip_n1():
    params = reference_params(1)
    coeffs = GhzCoefficients.balanced()
    space = build_space(1, 2)
    bare = bare_initial_state(space, coeffs)
    forward = run_transfer(params, coeffs, "full")
    back = inverse_transfer(forward.final_state, params, "full")
    ideal_fid = run_transfer(params, coeffs, "ideal").fidelity_to_target
    round_trip = fidelity(bare, back)
    assert round_trip >= ideal_fid**2 - 0.05


# -- the exact full-mode hold against the integrated Hamiltonian ---------------------

HOLD_TOL = 1e-9


@pytest.mark.parametrize("params", [
    # unequal groups: mu' = 0.6 mu, delta' matched to the commensurability condition
    ProtocolParams(n=2, coupling=matched_deltap(CouplingParams(
        mu1=MU, mu1p=MU, mu=MU, mup=0.6 * MU, delta=5 * MU, deltap=5 * MU), 0, 0)),
    # a three-times longer hold with lam' = lam / 3
    ProtocolParams(n=2, coupling=matched_deltap(reference_coupling(5.0), 1, 0), m=1, k=0),
], ids=["unequal_mu_prime", "m1_k0"])
def test_full_hold_matches_integrated_hamiltonian(params):
    chi, result = hold_oracle.hold_start(params, GhzCoefficients.random(np.random.default_rng(8)))
    integrated, observed = hold_oracle.integrate_hold(params.coupling, params.t2, chi)
    space = result.final_state.space
    exact, _ = protocol._extract_active(space, chi.space, result.diagnostics["after_step2"])
    assert _distance(exact, integrated) <= HOLD_TOL
    for pos, seen in observed.items():
        peak = result.leakage_f[chi.space.subsystems[pos].label()]
        assert 0.99 * peak <= seen <= peak


@pytest.mark.parametrize("n", [1, 2])
def test_full_mode_round_trip_is_identity(n):
    params = reference_params(n)
    coeffs = GhzCoefficients.random(np.random.default_rng(40 + n))
    bare = bare_initial_state(build_space(n, params.fock_cutoff), coeffs)
    forward = run_transfer(params, coeffs, "full").final_state
    assert _distance(inverse_transfer(forward, params, "full"), bare) <= HOLD_TOL


def test_full_inverse_matches_integrated_reversed_hamiltonian():
    params = reference_params(1)
    coeffs = GhzCoefficients.random(np.random.default_rng(12))
    forward = run_transfer(params, coeffs, "full").final_state
    space = forward.space
    # undo the decoding pulses and the unloading swap to reach the end of the hold
    psi = protocol._apply_pulses(forward, protocol._decoding_pulses(space, 1), adjoint=True)
    psi = protocol._resonant_stage(psi, space.position(Role.MEMORY_A, 1), params.coupling.mu1p,
                                   params.t3, adjoint=True)
    active = build_space(1, params.fock_cutoff, active_only=True)
    chi, _ = protocol._extract_active(space, active, psi)
    integrated, _ = hold_oracle.integrate_hold(params.coupling, params.t2, chi, inverse=True)
    exact, _, _ = protocol._full_hold(space, params, psi, adjoint=True)
    exact, _ = protocol._extract_active(space, active, exact)
    assert _distance(exact, integrated) <= HOLD_TOL


def test_full_transfer_n3():
    params = reference_params(3)
    result = run_transfer(params, GhzCoefficients.balanced(), "full")
    assert f"{result.fidelity_to_target:.6f}" == "0.921524"
    p, p_prime = leakage_estimate(params)
    assert len(result.leakage_f) == 7
    assert all(0.0 < v <= 2 * (p if label.startswith("op") else p_prime)
               for label, v in result.leakage_f.items())
    assert result.diagnostics["photon_overflow_peak"] == 0.0


def test_full_engine_integrates_nothing(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("the full-mode hold integrated or built an operator")

    for owner in (evolve, protocol):
        monkeypatch.setattr(owner, "evolve_timedep", refuse)
    for owner in (operators, protocol):
        monkeypatch.setattr(owner, "oscillating_dispersive", refuse)
    monkeypatch.setattr(operators, "embed", refuse)
    params = reference_params(2)
    coeffs = GhzCoefficients.random(np.random.default_rng(21))
    result = run_transfer(params, coeffs, "full", record_intermediate=True)
    assert result.fidelity_to_target > 0.95
    back = inverse_transfer(result.final_state, params, "full")
    assert 1.0 - fidelity(bare_initial_state(back.space, coeffs), back) < 1e-9


# -- inverse transfer ------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2])
def test_ideal_round_trip_is_identity(n):
    params = reference_params(n)
    coeffs = GhzCoefficients.random(np.random.default_rng(7 * n))
    space = build_space(n, 2)
    bare = bare_initial_state(space, coeffs)
    result = run_transfer(params, coeffs, "ideal")
    back = inverse_transfer(result.final_state, params, "ideal")
    assert 1.0 - fidelity(bare, back) < 1e-9


def test_alpha_branch_round_trip_exact(params_n2):
    coeffs = GhzCoefficients(1.0, 0.0)
    space = build_space(2, 2)
    bare = bare_initial_state(space, coeffs)
    result = run_transfer(params_n2, coeffs, "ideal")
    back = inverse_transfer(result.final_state, params_n2, "ideal")
    assert 1.0 - fidelity(bare, back) < 1e-12


# -- analysis formulas --------------------------------------------------------------


def test_operation_time_reference_point():
    params = reference_params(3)
    # pi/(2 mu1) + 3 pi/(2 mu1') + pi/lam + tau_p + 4 tau_d
    # = 25 ns + 75 ns + 500 ns + 10 ns + 8 ns
    assert operation_time(params) == pytest.approx(618e-9, rel=1e-12)


def test_operation_time_scales_inversely_with_couplings():
    params = reference_params(3)
    doubled = ProtocolParams(
        n=3, coupling=CouplingParams(mu1=2 * MU, mu1p=2 * MU, mu=2 * MU, mup=2 * MU,
                                     delta=20 * MU, deltap=20 * MU),
        tau_p=params.tau_p, tau_d=params.tau_d)
    overhead = params.tau_p + 4 * params.tau_d
    assert (operation_time(doubled) - overhead) == pytest.approx(
        (operation_time(params) - overhead) / 2, rel=1e-12)


def test_operation_time_m1_adds_two_pi_over_lam():
    base = reference_params(3, m=0, k=0)
    longer = reference_params(3, m=1, k=1)
    # one extra full phase period: 2 pi / lam = 1.0 us at the reference point
    assert operation_time(longer) - operation_time(base) == pytest.approx(
        1.0e-6, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_operation_time_independent_of_n(n):
    assert operation_time(reference_params(n)) == pytest.approx(618e-9, rel=1e-12)


def test_leakage_estimate_reference_and_limits():
    params = reference_params(2)
    p, pp = leakage_estimate(params)
    assert p == pytest.approx(4 / 104)
    assert pp == pytest.approx(4 / 104)
    far = ProtocolParams(n=2, coupling=CouplingParams(
        mu1=MU, mu1p=MU, mu=MU, mup=MU, delta=1e4 * MU, deltap=1e4 * MU))
    assert leakage_estimate(far)[0] < 1e-7
    near = ProtocolParams(n=2, coupling=CouplingParams(
        mu1=MU, mu1p=MU, mu=MU, mup=MU, delta=2 * MU, deltap=2 * MU))
    assert leakage_estimate(near)[0] == pytest.approx(0.5)


def test_cavity_lifetime_reference_and_linearity():
    params = reference_params(3)
    assert cavity_lifetime(params) == pytest.approx(15.9e-6, rel=0.01)
    doubled = ProtocolParams(n=3, coupling=reference_coupling(),
                             quality_factor=2 * params.quality_factor)
    assert cavity_lifetime(doubled) == pytest.approx(2 * cavity_lifetime(params),
                                                     rel=1e-12)
    assert cavity_lifetime(params) / operation_time(params) == pytest.approx(26, abs=1)


def test_transfer_result_is_immutable(params_n2):
    result = run_transfer(params_n2, GhzCoefficients.balanced(), "ideal")
    with pytest.raises((TypeError, AttributeError)):
        result.leakage_f["op2"] = 1.0  # type: ignore[index]
    with pytest.raises((TypeError, AttributeError)):
        result.fidelity_to_target = 0.0  # type: ignore[misc]
