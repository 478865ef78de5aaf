"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS line (visible with ``pytest -s``); the test names
double as the criterion index.  Expensive full-dynamics runs are shared
between criteria through a module-level cache.
"""

import math
from functools import lru_cache

import numpy as np
import pytest

import helpers
import hold_oracle
from conftest import MU, reference_coupling, reference_params
from ghzdfs import protocol
from ghzdfs import (
    DephasingModel,
    GhzCoefficients,
    Level,
    Role,
    analytic_reduced_evolution,
    bare_ghz_memory_state,
    bare_initial_state,
    basis_state,
    build_space,
    collective_mean_fidelity_bare_pair,
    dephase_trajectory,
    dispersive_reduced,
    evolve_static,
    fidelity,
    inverse_transfer,
    leakage_estimate,
    normalized,
    operation_time,
    cavity_lifetime,
    run_transfer,
    storage_fidelity_ensemble,
    target_state,
    verify_dfs_annihilation,
)


def report(criterion: int, message: str) -> None:
    print(f"PASS criterion {criterion}: {message}")


@lru_cache(maxsize=None)
def full_run(ratio: float, cutoff: int, alpha: complex, beta: complex):
    params = reference_params(2, ratio, fock_cutoff=cutoff)
    return run_transfer(params, GhzCoefficients(alpha, beta), "full")


BAL = 1 / math.sqrt(2)


def test_criterion_1_exact_resonant_stage_transforms():
    space = build_space(1, 2)
    q1 = space.position(Role.OPERATION, 1)
    a1 = space.position(Role.MEMORY_A, 1)
    from ghzdfs import resonant_jc

    # loading swap: |f>_1 |0>_c -> -i |e>_1 |1>_c at t1 = pi/(2 mu1)
    h1 = resonant_jc(space, q1, MU)
    start = [0] * space.size
    start[q1] = int(Level.F)
    out = evolve_static(h1, math.pi / (2 * MU), basis_state(space, start))
    tgt_labels = [0] * space.size
    tgt_labels[q1] = int(Level.E)
    tgt_labels[space.cavity] = 1
    target = basis_state(space, tgt_labels)
    deficit_load = 1.0 - fidelity(out, target)
    assert deficit_load < 1e-9
    assert abs(target.overlap(out) - (-1j)) < 1e-9

    # unloading swap: |e>_a1 |1>_c -> +i |f>_a1 |0>_c at t3 = 3 pi/(2 mu1')
    h3 = resonant_jc(space, a1, MU)
    start = [0] * space.size
    start[a1] = int(Level.E)
    start[space.cavity] = 1
    out = evolve_static(h3, 3 * math.pi / (2 * MU), basis_state(space, start))
    tgt_labels = [0] * space.size
    tgt_labels[a1] = int(Level.F)
    target = basis_state(space, tgt_labels)
    deficit_unload = 1.0 - fidelity(out, target)
    assert deficit_unload < 1e-9
    assert abs(target.overlap(out) - 1j) < 1e-9
    report(1, "exact resonant-stage transforms "
              f"(deficits {deficit_load:.1e}, {deficit_unload:.1e})")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_criterion_2_ideal_transfer_with_intermediates(n):
    params = reference_params(n)
    space = build_space(n, params.fock_cutoff)
    rng = np.random.default_rng(2000 + n)
    worst_final = 0.0
    worst_stage = 0.0
    for _ in range(20):
        coeffs = GhzCoefficients.random(rng)
        result = run_transfer(params, coeffs, "ideal", record_intermediate=True)
        worst_final = max(worst_final, 1.0 - result.fidelity_to_target)
        for key, builder in (("after_step1", helpers.after_load),
                             ("after_step2", helpers.after_hold),
                             ("after_step3", helpers.after_unload)):
            stage_target = builder(space, coeffs.alpha, coeffs.beta)
            worst_stage = max(worst_stage,
                              1.0 - fidelity(result.diagnostics[key], stage_target))
    assert worst_final < 1e-9
    assert worst_stage < 1e-9
    report(2, f"ideal transfer n={n}, 20 random coefficient pairs "
              f"(worst final deficit {worst_final:.1e}, "
              f"worst stage deficit {worst_stage:.1e})")


def test_criterion_3_dispersive_validity():
    p_est, _ = leakage_estimate(reference_params(2, 10.0))
    assert p_est == pytest.approx(0.0385, abs=5e-5)

    # leakage: beta branch carries the photon, each dispersive qutrit holds
    # half its weight in |e>, so the conditional |f> occupancy is the peak
    # divided by that e-weight
    leak_run = full_run(10.0, 2, 0.0, 1.0)
    e_weight = 0.5
    conditionals = {label: peak / e_weight for label, peak in leak_run.leakage_f.items()}
    for label, conditional in conditionals.items():
        assert p_est / 2 <= conditional <= 2 * p_est, (label, conditional)
        assert leak_run.leakage_f[label] <= 2 * p_est

    fid_run = full_run(10.0, 2, BAL, BAL)
    assert fid_run.fidelity_to_target >= 0.95

    infidelities = [1.0 - full_run(r, 2, BAL, BAL).fidelity_to_target
                    for r in (5.0, 10.0, 20.0)]
    assert infidelities[0] > infidelities[1] > infidelities[2]

    # the exact hold against the full time-dependent Hamiltonian on the
    # 243-dim active register, integrated by DOP853
    worst_state, lowest_ratio = 0.0, 1.0
    for ratio in (5.0, 10.0, 20.0):
        params = reference_params(2, ratio)
        chi, recorded = hold_oracle.hold_start(params, GhzCoefficients(BAL, BAL))
        assert chi.space.total_dim == 243
        integrated, observed = hold_oracle.integrate_hold(params.coupling, params.t2, chi)
        exact, _ = protocol._extract_active(recorded.final_state.space, chi.space,
                                            recorded.diagnostics["after_step2"])
        worst_state = max(worst_state, float(np.max(np.abs(exact.amplitudes
                                                           - integrated.amplitudes))))
        assert recorded.leakage_f == full_run(ratio, 2, BAL, BAL).leakage_f
        for pos, seen in observed.items():
            peak = recorded.leakage_f[chi.space.subsystems[pos].label()]
            assert 0.99 * peak <= seen <= peak, (ratio, pos, seen, peak)
            lowest_ratio = min(lowest_ratio, seen / peak)
    assert worst_state <= 1e-9
    report(3, f"dispersive validity: conditional |f> occupancy "
              f"{max(conditionals.values()):.4f} vs estimate {p_est:.4f}, "
              f"full-mode fidelity {fid_run.fidelity_to_target:.4f} >= 0.95, "
              f"infidelity {infidelities[0]:.2e} > {infidelities[1]:.2e} "
              f"> {infidelities[2]:.2e}; exact hold vs DOP853 within {worst_state:.1e}, "
              f"sampled peaks >= {lowest_ratio:.4f} of the exact ones")


def test_criterion_4_timing_arithmetic():
    params = reference_params(3)
    tau = operation_time(params)
    assert tau == pytest.approx(618e-9, rel=1e-12)
    lifetime = cavity_lifetime(params)
    assert lifetime == pytest.approx(15.9e-6, rel=0.01)
    report(4, f"operation time {tau * 1e9:.0f} ns, "
              f"cavity lifetime {lifetime * 1e6:.2f} us")


def test_criterion_5_dfs_identity():
    params = reference_params(2)
    space = build_space(2, params.fock_cutoff)
    rng = np.random.default_rng(55)
    worst_residual = 0.0
    for _ in range(50):
        coeffs = GhzCoefficients.random(rng)
        encoded = target_state(space, params, coeffs)
        model = DephasingModel("collective_pair",
                               tuple(rng.uniform(0.05, 5.0, size=2)), 0.0, 1)
        worst_residual = max(worst_residual,
                             verify_dfs_annihilation(encoded, space, model))
    assert worst_residual < 1e-12

    encoded = target_state(space, params, GhzCoefficients.balanced())
    worst_deficit = 0.0
    for sigma in (0.1, 1.0, 10.0):
        model = DephasingModel("collective_pair", (1.0, 1.0), sigma, 1)
        for seed in range(10):
            kicked = dephase_trajectory(encoded, space, model, seed)
            worst_deficit = max(worst_deficit, 1.0 - fidelity(encoded, kicked))
    assert worst_deficit < 1e-12
    report(5, f"kernel residual {worst_residual:.1e} over 50 coupling draws, "
              f"per-trajectory deficit {worst_deficit:.1e} at sigma in (0.1, 1, 10)")


def test_criterion_6_contrast_oracle():
    space = build_space(1, 2)
    bare = bare_ghz_memory_state(space, BAL, BAL)
    lines = []
    for sigma in (0.25, 0.5, 1.0):
        model = DephasingModel("collective_pair", (1.0,), sigma, 10_000)
        mean, stderr = storage_fidelity_ensemble(bare, space, model, rng_seed=66)
        closed = collective_mean_fidelity_bare_pair(sigma)
        assert abs(mean - closed) < 3 * stderr, sigma
        lines.append(f"sigma={sigma}: {mean:.4f} vs {closed:.4f} (+-{stderr:.1e})")
    report(6, "bare-pair ensemble matches the closed form; " + "; ".join(lines))


def test_criterion_7_oracle_equivalence():
    space = build_space(2, 2, True)
    coupling = reference_coupling()
    reduced = dispersive_reduced(space, coupling)
    rng = np.random.default_rng(77)
    no_f = np.array([all(labels[p] != int(Level.F) for p in space.qutrit_positions)
                     for labels in map(space.labels_of, range(space.total_dim))])
    worst = 0.0
    for _ in range(100):
        vec = np.where(no_f, rng.normal(size=space.total_dim)
                       + 1j * rng.normal(size=space.total_dim), 0.0)
        psi = normalized(space, vec)
        t = rng.uniform(0.0, math.pi / coupling.lam)
        via_exp = evolve_static(reduced, t, psi)
        via_oracle = analytic_reduced_evolution(coupling, t, psi)
        worst = max(worst, float(np.linalg.norm(
            via_exp.amplitudes - via_oracle.amplitudes)))
    assert worst < 1e-9
    report(7, f"exponential action vs closed form on 100 random states "
              f"(worst distance {worst:.1e})")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_criterion_8_round_trip(n):
    params = reference_params(n)
    space = build_space(n, params.fock_cutoff)
    rng = np.random.default_rng(8000 + n)
    worst = 0.0
    for _ in range(3):
        coeffs = GhzCoefficients.random(rng)
        bare = bare_initial_state(space, coeffs)
        result = run_transfer(params, coeffs, "ideal")
        back = inverse_transfer(result.final_state, params, "ideal")
        worst = max(worst, 1.0 - fidelity(bare, back))
    assert worst < 1e-9
    report(8, f"ideal round trip n={n} (worst deficit {worst:.1e})")


def test_criterion_9_truncation_robustness():
    fid_cut2 = full_run(10.0, 2, BAL, BAL).fidelity_to_target
    fid_cut3 = full_run(10.0, 3, BAL, BAL).fidelity_to_target
    assert abs(fid_cut2 - fid_cut3) < 1e-3
    report(9, f"fock cutoff 2 vs 3 fidelity difference "
              f"{abs(fid_cut2 - fid_cut3):.2e} < 1e-3")
