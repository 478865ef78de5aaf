"""Brute-force oracle for the full-mode dispersive hold.

Integrates the complete time-dependent interaction of
``oscillating_dispersive`` with the adaptive DOP853 integrator of
``evolve_timedep`` and watches each dispersive qutrit's |f> population on a
uniform grid of 16 samples per fastest oscillation period.  It shares no code
with the single-photon reduction of ``exact_dispersive_evolution``.
"""

import math

import numpy as np

from ghzdfs import (
    GhzCoefficients,
    Level,
    build_space,
    dispersive_positions,
    evolve_timedep,
    oscillating_dispersive,
    run_transfer,
)
from ghzdfs import protocol

SAMPLES_PER_PERIOD = 16


def integrate_hold(coupling, t, chi, *, inverse=False):
    """DOP853 evolution of ``chi`` over the hold [0, t], or its inverse.

    Returns the evolved state and {position: observed peak |f> population}
    (empty for the inverse, which integrates ``reversed_negated``).
    """
    space = chi.space
    hamiltonian = oscillating_dispersive(space, coupling)
    if inverse:
        return evolve_timedep(hamiltonian.reversed_negated(t), t, chi), {}
    samples = max(256, math.ceil(t * hamiltonian.max_frequency / (2 * math.pi)
                                 * SAMPLES_PER_PERIOD))
    axes = {pos: chi.axis(pos) for pos in dispersive_positions(space)}
    peaks = {pos: 0.0 for pos in axes}

    def observer(_t, y):
        prob = np.abs(y.reshape(space.dims[::-1])) ** 2
        for pos, axis in axes.items():
            peaks[pos] = max(peaks[pos], float(np.take(prob, int(Level.F), axis=axis).sum()))

    out = evolve_timedep(hamiltonian, t, chi, observer=observer,
                         observation_times=np.linspace(0.0, t, samples))
    return out, peaks


def hold_start(params, coeffs=None):
    """Active-register state at the start of the full-mode hold, and the full
    registers' states before and after it, from a recorded full-mode run."""
    coeffs = coeffs or GhzCoefficients.balanced()
    result = run_transfer(params, coeffs, "full", record_intermediate=True)
    space = result.final_state.space
    active = build_space(params.n, params.fock_cutoff, active_only=True)
    chi, _ = protocol._extract_active(space, active, result.diagnostics["after_step1"])
    return chi, result
