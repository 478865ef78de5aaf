"""Benchmark of the ghzdfs simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  This process starts one fresh interpreter
(worker.py) at a time and never runs two at once.  Each interpreter does one
job of the workload, which the seed alone fixes.

--trace 0  starts jobs until their timed units add up to S seconds (and at
           least MIN_JOBS jobs), then reports the end-to-end metrics.
--trace 1  runs four jobs: untraced, traced, untraced, traced.  It reports
           the per-layer metrics of the traced jobs, checks that their
           counts repeat exactly, and gives the tracing overhead as traced
           against untraced units per second.  S does not apply.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
print every metric by name with its unit and the machine it ran on.  The
full result, the unit records and the spans go to perfbench/out/.
See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("run_ideal_n3", "sweep_full_n2", "dephase_n3")

MIN_JOBS = 3          # set-up samples per untraced run
TRACE_PLAN = (False, True, False, True)  # traced? per job of a --trace 1 run
JOB_TIMEOUT_S = 120   # one job; the longest takes about 10 s
RUN_BUDGET_S = 100    # no new job starts after this much wall time
TAIL_MIN_BEYOND = 10  # samples a tail percentile must have beyond it
LATENCY_MIN_SAMPLES = 20
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def machine() -> dict:
    """What the numbers were measured on."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for module in ("numpy", "scipy"):
        try:
            versions[module] = __import__(module).__version__
        except ImportError:
            versions[module] = "missing"
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        **versions,
        "threads_env": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; else unknown."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_job(workload: str, seed: int, trace: bool, index: int) -> dict | None:
    """One fresh interpreter; returns its result plus the set-up time, or None."""
    tag = f"{workload}-{index}"
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--records", str(OUT / f"records-{tag}.csv")]
    if trace:
        cmd += ["--spans", str(OUT / f"spans-{tag}.json")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0 or not rest.strip():
        print(f"job {tag} failed (exit code {proc.returncode})", file=sys.stderr)
        return None
    result = json.loads(rest.strip().splitlines()[-1])
    result["setup_s"] = setup_s
    result["traced"] = trace
    return result


def units_per_s(jobs: list[dict]) -> float:
    return sum(b[1] for j in jobs for b in j["batches"]) / sum(j["timed_s"] for j in jobs)


def latency(jobs: list[dict]) -> dict | None:
    """Median and tail of single-unit latencies, if one kind has enough samples."""
    kinds: dict[str, list[float]] = {}
    for job in jobs:
        for kind, units, seconds, _ok in job["batches"]:
            if units == 1:
                kinds.setdefault(kind, []).append(seconds)
    samples = max(kinds.values(), key=len, default=[])
    n = len(samples)
    if n < LATENCY_MIN_SAMPLES:
        return None
    samples.sort()
    pct = math.floor(100 * (n - TAIL_MIN_BEYOND) / n)
    rank = math.ceil(pct / 100 * n)  # nearest rank; leaves >= 10 samples beyond
    return {"p50": statistics.median(samples), "tail": samples[rank - 1],
            "percentile": pct, "n": n}


def end_to_end(jobs: list[dict]) -> tuple[dict, list[str]]:
    units = sum(b[1] for j in jobs for b in j["batches"])
    timed = sum(j["timed_s"] for j in jobs)
    setups = [j["setup_s"] for j in jobs]
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "units_per_s": {"value": units_per_s(jobs), "unit": "1/s"},
        "peak_rss_mb": {"value": max(j["rss_kb"] for j in jobs) / 1024, "unit": "MB"},
    }
    lines = [
        f"setup_s      {metrics['setup_s']['value']:.4f} s    "
        f"median of {len(setups)} fresh interpreters",
        f"units_per_s  {metrics['units_per_s']['value']:.4f} 1/s  "
        f"{units} units in {timed:.2f} s timed",
        f"peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MB",
    ]
    lat = latency(jobs)
    if lat:
        lines += [f"unit_p50_s   {lat['p50']:.4f} s    n={lat['n']}",
                  f"unit_tail_s  {lat['tail']:.4f} s    p{lat['percentile']}, n={lat['n']}"]
    else:
        lines.append(f"unit_p50_s, unit_tail_s  not reported: fewer than "
                     f"{LATENCY_MIN_SAMPLES} timed units of one kind")
    return metrics, lines


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, list[str], bool]:
    """Mean self times of the traced jobs; counts must agree between them."""
    layers = [j["layers"] for j in traced]
    metrics, lines, repeat = {}, [], True
    for name, first in layers[0].items():
        values = [lay[name]["value"] for lay in layers]
        if first["unit"] == "count":
            metrics[name] = first
            if len(set(values)) != 1:
                repeat = False
                lines.append(f"count {name} differs between traced jobs: {values}")
        else:
            metrics[name] = {"value": statistics.fmean(values), "unit": first["unit"]}
    on, off = units_per_s(traced), units_per_s(untraced)
    metrics["trace.units_per_s_traced"] = {"value": on, "unit": "1/s"}
    metrics["trace.units_per_s_untraced"] = {"value": off, "unit": "1/s"}
    width = max(map(len, metrics))
    lines += [f"{name:<{width}}  {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"tracing overhead: {on:.4f} traced vs {off:.4f} untraced units/s "
                 f"(ratio {on / off:.3f}); counts repeat between traced jobs: {repeat}")
    return metrics, lines, repeat


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    # a terminated run still stops and reaps its job (see run_job's finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    package = ROOT / "src" / "ghzdfs"
    if not (package / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"no ghzdfs source tree under {ROOT}: expected src/ghzdfs and configs/",
              file=sys.stderr)
        return 2

    OUT.mkdir(parents=True, exist_ok=True)
    # the build: byte-compile once, so no measured interpreter pays for it
    if not compileall.compile_dir(str(package), quiet=1):
        print("byte-compiling src/ghzdfs failed", file=sys.stderr)
        return 2
    info = machine()
    print(f"ghzdfs benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + json.dumps(info))

    started = time.perf_counter()
    jobs: list[dict] = []
    crashed = False
    while True:
        if args.trace:
            if len(jobs) == len(TRACE_PLAN):
                break
            trace = TRACE_PLAN[len(jobs)]
        else:
            timed = sum(j["timed_s"] for j in jobs)
            if (timed >= args.seconds and len(jobs) >= MIN_JOBS) \
                    or time.perf_counter() - started > RUN_BUDGET_S:
                break
            trace = False
        result = run_job(args.workload, args.seed, trace, len(jobs))
        if result is None:
            crashed = True
            break
        jobs.append(result)
    if {j["traced"] for j in jobs} != ({False, True} if args.trace else {False}):
        print("too few jobs finished; nothing to report", file=sys.stderr)
        return 1
    batches = [b for j in jobs for b in j["batches"]]
    attempted = sum(units for _kind, units, _seconds, _ok in batches)
    failed = sum(units for _kind, units, _seconds, ok in batches if not ok)

    if args.trace:
        metrics, lines, repeat = per_layer([j for j in jobs if j["traced"]],
                                           [j for j in jobs if not j["traced"]])
    else:
        metrics, lines = end_to_end(jobs)
        repeat = True
    frac = failed / attempted if attempted else 1.0
    lines.append(f"failed_frac  {frac:g}    {failed} of {attempted} units failed their check")
    print("\n".join(lines))
    correct = failed == 0 and attempted > 0 and repeat and not crashed
    with open(OUT / f"result-{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump({"args": vars(args), "machine": info, "correct": correct,
                   "attempted": attempted, "failed": failed, "metrics": metrics,
                   "jobs": jobs}, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
