"""One benchmark process: a fresh interpreter that runs one job of a workload.

A job is fixed by the workload and the seed alone, so every process of a
run does the same work and its counts repeat exactly.  The process

1. imports ghzdfs and builds the job's inputs from the reference configs and
   the seed, through the same parsing functions the CLI uses;
2. runs one untimed warm-up unit and prints ``ready`` (run.py times set-up
   from process start to this line);
3. runs the timed units, checks each one, and writes their records through
   ``cli.write_records``;
4. prints its result as one JSON line.

Usage (run.py starts it with ``src`` on PYTHONPATH):

    python3 perfbench/worker.py --workload run_ideal_n3 --seed 0 \
        --records OUT.csv [--spans SPANS.json]
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

IDEAL_UNITS = 20      # timed ideal transfers per process
ENSEMBLE_TRIALS = 100  # Monte-Carlo trials per storage ensemble
SIGMAS = (0.25, 0.5, 1.0)
MODELS = ("collective_pair", "independent")
# ensemble-mean exponent per qutrit pair: exp(-rate * n * sigma^2)
BARE_RATE = {"collective_pair": 8.0, "independent": 4.0}


@dataclass
class Batch:
    """Timed units of one kind that share one latency measurement."""

    kind: str
    units: int
    seconds: float
    ok: bool


def _timed(call):
    """Run one batch of units: (its result, or None if it raised; seconds)."""
    start = time.perf_counter()
    try:
        result = call()
    except Exception:  # a unit that raises fails its check; the job goes on
        traceback.print_exc()
        result = None
    return result, time.perf_counter() - start


def _entries(cli, config: str, draws: int) -> dict[str, str]:
    """Parsed config with its coefficient pair replaced by ``random:draws``."""
    entries = cli.parse_config(CONFIGS / config)
    entries = {k: v for k, v in entries.items() if k not in ("run.alpha", "run.beta")}
    entries["run.coeffs"] = f"random:{draws}"
    return entries


class IdealN3:
    """Ideal-mode transfers at n = 3, one per seeded coefficient pair."""

    columns = ("mode", "seed", "n", "alpha_re", "alpha_im", "beta_re", "beta_im",
               "fidelity", "leakage_f_max", "leakage_photon")

    def __init__(self, ghzdfs, seed: int) -> None:
        self.ghzdfs, self.seed = ghzdfs, seed
        entries = _entries(ghzdfs.cli, "flux_transmon_n3.cfg", IDEAL_UNITS + 1)
        self.params = ghzdfs.cli.resolve_params(entries)
        self.coeffs = ghzdfs.cli.resolve_coefficients(entries, seed)
        self.records: list[dict] = []

    def warm_up(self) -> None:
        self.ghzdfs.run_transfer(self.params, self.coeffs[0], "ideal")

    def units(self):
        for coeffs in self.coeffs[1:]:
            result, seconds = _timed(
                lambda: self.ghzdfs.run_transfer(self.params, coeffs, "ideal"))
            # criterion 2 of the acceptance gate
            yield Batch("ideal", 1, seconds,
                        result is not None and 1.0 - result.fidelity_to_target < 1e-9)
            if result is None:
                continue
            self.records.append({
                "mode": "ideal", "seed": self.seed, "n": self.params.n,
                "alpha_re": coeffs.alpha.real, "alpha_im": coeffs.alpha.imag,
                "beta_re": coeffs.beta.real, "beta_im": coeffs.beta.imag,
                "fidelity": result.fidelity_to_target,
                "leakage_f_max": result.max_f_leakage,
                "leakage_photon": result.leakage_photon,
            })


class SweepN2:
    """One full-mode detuning sweep at n = 2, ratios in increasing order.

    The points run serially in this process, not in the CLI's process pool.
    The warm-up is an ideal-mode transfer, which builds no oscillating
    Hamiltonian, so every timed ratio builds its own as a CLI run would.
    """

    columns = ("ratio", "mode", "seed", "n", "fidelity", "p_estimate",
               "leakage_f_max", "leakage_photon")

    def __init__(self, ghzdfs, seed: int) -> None:
        self.ghzdfs, self.seed = ghzdfs, seed
        cli = ghzdfs.cli
        entries = _entries(cli, "sweep_n2.cfg", 1)
        self.base = cli.resolve_params(entries)
        self.coeffs = cli.resolve_coefficients(entries, seed)[0]
        ratios = sorted(float(r) for r in entries["sweep.ratios"].split(","))
        mu = self.base.coupling.mu
        self.points = [(r, cli.resolve_params({**entries, "coupling.delta": f"{r * mu!r} rad/s"}))
                       for r in ratios]
        self.records: list[dict] = []

    def warm_up(self) -> None:
        self.ghzdfs.run_transfer(self.base, self.coeffs, "ideal")

    def units(self):
        previous = math.inf
        for ratio, params in self.points:
            result, seconds = _timed(
                lambda: self.ghzdfs.run_transfer(params, self.coeffs, "full"))
            kind = f"full_ratio_{ratio:g}"
            if result is None:
                yield Batch(kind, 1, seconds, False)
                continue
            # criterion 3 of the acceptance gate, for any coefficient pair
            p, p_prime = self.ghzdfs.leakage_estimate(params)
            infidelity = 1.0 - result.fidelity_to_target
            ok = (infidelity < previous
                  and (ratio < 10 or result.fidelity_to_target >= 0.95)
                  and all(v <= 2.0 * (p if label.startswith("op") else p_prime)
                          for label, v in result.leakage_f.items()))
            previous = infidelity
            yield Batch(kind, 1, seconds, ok)
            self.records.append({
                "ratio": ratio, "mode": "full", "seed": self.seed, "n": params.n,
                "fidelity": result.fidelity_to_target, "p_estimate": p,
                "leakage_f_max": result.max_f_leakage,
                "leakage_photon": result.leakage_photon,
            })


class DephaseN3:
    """Storage ensembles at n = 3: encoded and bare states, both noise models,
    every sigma; the seed draws the coefficients and is the ensemble seed."""

    def __init__(self, ghzdfs, seed: int) -> None:
        self.ghzdfs, self.seed = ghzdfs, seed
        self.columns = ghzdfs.cli.DEPHASE_COLUMNS
        entries = _entries(ghzdfs.cli, "flux_transmon_n3.cfg", 1)
        params = ghzdfs.cli.resolve_params(entries)
        self.n = params.n
        self.coeffs = ghzdfs.cli.resolve_coefficients(entries, seed)[0]
        self.space = ghzdfs.build_space(params.n, params.fock_cutoff)
        self.states = {
            "encoded": ghzdfs.target_state(self.space, params, self.coeffs),
            "bare": ghzdfs.bare_ghz_memory_state(self.space, self.coeffs.alpha,
                                                 self.coeffs.beta),
        }
        for sigma in SIGMAS:  # the closed form below reduces to the program's at n = 1
            ours = self._expected(ghzdfs.GhzCoefficients.balanced(), 1, sigma,
                                  "collective_pair")
            theirs = ghzdfs.collective_mean_fidelity_bare_pair(sigma)
            if abs(ours - theirs) > 1e-15:
                raise RuntimeError(f"closed form {ours} != program's {theirs} at sigma {sigma}")
        self.records: list[dict] = []

    @staticmethod
    def _expected(coeffs, n: int, sigma: float, mode: str) -> float:
        a2, b2 = abs(coeffs.alpha) ** 2, abs(coeffs.beta) ** 2
        return a2 * a2 + b2 * b2 + 2.0 * a2 * b2 * math.exp(-BARE_RATE[mode] * n * sigma**2)

    def _model(self, mode: str, sigma: float, trials: int):
        return self.ghzdfs.DephasingModel(mode, (1.0,) * self.n, sigma, trials)

    def warm_up(self) -> None:
        # the smallest ensemble the program accepts
        self.ghzdfs.storage_fidelity_ensemble(self.states["encoded"], self.space,
                                              self._model(MODELS[0], SIGMAS[0], 2), self.seed)

    def _ok(self, name: str, mode: str, sigma: float, mean: float, stderr: float) -> bool:
        if name == "encoded" and mode == "collective_pair":
            return 1.0 - mean < 1e-12
        # 4 standard errors; the absolute floor covers rounding when stderr ~ 0
        expected = self._expected(self.coeffs, self.n, sigma, mode)
        return abs(mean - expected) <= 4.0 * stderr + 1e-12

    def units(self):
        c = self.coeffs
        for mode in MODELS:
            for sigma in SIGMAS:
                model = self._model(mode, sigma, ENSEMBLE_TRIALS)
                record = {"sigma": sigma, "trials": ENSEMBLE_TRIALS, "model": mode,
                          "seed": self.seed, "n": self.n,
                          "alpha_re": c.alpha.real, "alpha_im": c.alpha.imag,
                          "beta_re": c.beta.real, "beta_im": c.beta.imag}
                for name, state in self.states.items():
                    estimate, seconds = _timed(lambda: self.ghzdfs.storage_fidelity_ensemble(
                        state, self.space, model, self.seed))
                    yield Batch(f"{mode}_{name}", ENSEMBLE_TRIALS, seconds,
                                estimate is not None and self._ok(name, mode, sigma, *estimate))
                    if estimate is not None:
                        record[f"{name}_mean"], record[f"{name}_stderr"] = estimate
                if len(record) == len(self.columns):
                    self.records.append(record)


WORKLOADS = {"run_ideal_n3": IdealN3, "sweep_full_n2": SweepN2, "dephase_n3": DephaseN3}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--records", required=True, help="CSV file for the unit records")
    parser.add_argument("--spans", default=None, help="trace, and write spans to this file")
    args = parser.parse_args(argv)

    import ghzdfs
    import ghzdfs.cli

    tracer = None
    if args.spans:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(ghzdfs)

    job = WORKLOADS[args.workload](ghzdfs, args.seed)
    if tracer:
        tracer.unit = 0
    job.warm_up()
    print("ready", flush=True)

    batches: list[Batch] = []
    units = job.units()
    start = time.perf_counter()
    while True:
        if tracer:
            tracer.unit = len(batches) + 1
        batch = next(units, None)
        if batch is None:
            break
        batches.append(batch)
    timed_s = time.perf_counter() - start
    if tracer:
        tracer.unit = -1
    ghzdfs.cli.write_records(job.records, job.columns, args.records, "csv")

    result = {
        "timed_s": timed_s,
        "batches": [[b.kind, b.units, b.seconds, b.ok] for b in batches],
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": tracer.metrics() if tracer else None,
    }
    if tracer:
        tracer.write_spans(args.spans, workload=args.workload, seed=args.seed)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
