"""Per-layer tracing of ghzdfs from outside the package.

``Tracer.install`` replaces the layers' public functions with timing
wrappers: module attributes where another module looks them up at call
time, and methods on the classes.  Nothing under ``src/`` changes.  Each
wrapped call becomes a span (name, start, end, parent span, unit id) kept in
memory and written out by ``write_spans`` when the process ends.  A span's
self time is its duration minus the time its direct child spans cover, and
self times are summed per bucket, one bucket per per-layer metric.

Stage times of ``run_transfer`` are not layer self times: they partition
each ``run_transfer`` span into consecutive wall-time segments whose
boundaries are the wrapped calls it makes, in order:

    prepare          span start .. end of prepare_initial
    resonant_op1     .. end of the 1st evolve call
    dispersive       .. end of the 2nd evolve call (static or time-dependent)
    resonant_mem_a1  .. end of the 3rd evolve call
    decode           .. start of target_state
    score            .. span end
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

MODELS = ("collective_pair", "independent")
STAGES = ("prepare", "resonant_op1", "dispersive", "resonant_mem_a1", "decode", "score")
_EVOLVE = ("evolve.evolve_static", "evolve.evolve_timedep")


class Tracer:
    """Span recorder with per-bucket self time and call counts."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.unit = -1  # -1 set-up, 0 warm-up, 1.. timed units; set by the caller
        self.model: str | None = None  # dephasing model of the enclosing ensemble
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.stage_s: dict[str, float] = defaultdict(float)
        self.act_nnz = 0
        self._stack: list[list] = []
        self._next_id = 0

    # -- recording --------------------------------------------------------------

    def _call(self, name: str, bucket: str, split: bool, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        # frame: span id, child time, direct children (kept only for run_transfer)
        frame = [span_id, 0.0, [] if name == "protocol.run_transfer" else None]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            key = f"{bucket}.{self.model}" if split and self.model else bucket
            self.self_s[key] += end - start - frame[1]
            self.calls[key] += 1
            self.spans.append((span_id, name, start - self.origin, end - self.origin,
                               parent[0] if parent else -1, self.unit))
            if parent is not None:
                parent[1] += end - start
                if parent[2] is not None:
                    parent[2].append((name, start, end))
            if frame[2] is not None:
                self._add_stages(start, end, frame[2])

    def _add_stages(self, start: float, end: float, children: list[tuple]) -> None:
        evolves = [c for c in children if c[0] in _EVOLVE]
        prep = next((c for c in children if c[0] == "protocol.prepare_initial"), None)
        target = next((c for c in children if c[0] == "protocol.target_state"), None)
        if prep is None or target is None or len(evolves) < 3:
            return  # the transfer raised before finishing its schedule
        bounds = (start, prep[2], evolves[0][2], evolves[1][2], evolves[2][2], target[1], end)
        for stage, lo, hi in zip(STAGES, bounds, bounds[1:]):
            self.stage_s[stage] += hi - lo

    def wrap(self, fn, bucket: str, split: bool = False):
        """Traced stand-in for ``fn``; ``split`` keys the bucket by dephasing model."""
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, bucket, split, fn, args, kwargs)
        return traced

    # -- installation -------------------------------------------------------------

    def install(self, ghzdfs) -> None:
        """Wrap the public functions of every layer of an imported ``ghzdfs``."""
        from ghzdfs import cli, dephasing, hilbert, operators, protocol

        def patch(owner, attr: str, bucket: str, split: bool = False) -> None:
            setattr(owner, attr, self.wrap(getattr(owner, attr), bucket, split))

        for attr in ("parse_config", "resolve_params", "resolve_coefficients"):
            patch(cli, attr, "cli.parse")
        patch(cli, "write_records", "cli.write")

        # entry points the benchmark calls through the package namespace
        patch(ghzdfs, "run_transfer", "protocol")
        patch(ghzdfs, "target_state", "dephasing.state_build")
        patch(ghzdfs, "bare_ghz_memory_state", "dephasing.state_build")

        # names protocol looks up at call time, including from its LRU-cached
        # build functions, so only cache misses reach the build wrappers
        patch(protocol, "prepare_initial", "protocol")
        patch(protocol, "target_state", "protocol")
        patch(protocol, "evolve_static", "evolve.static")
        for attr in ("pulse_unitary", "resonant_jc", "dispersive_reduced",
                     "oscillating_dispersive"):
            patch(protocol, attr, "operators.build")
        patch(protocol, "fidelity", "hilbert.fidelity")
        protocol.evolve_timedep = self._wrap_timedep(protocol.evolve_timedep)

        patch(dephasing, "dephase_trajectory", "dephasing.trajectory", split=True)
        patch(dephasing, "fidelity", "dephasing.fidelity", split=True)
        ghzdfs.storage_fidelity_ensemble = self._wrap_ensemble(
            ghzdfs.storage_fidelity_ensemble)

        operators.OperatorMatrix.act = self._wrap_act(operators.OperatorMatrix.act)
        patch(operators.OscillatingHamiltonian, "matvec_at", "operators.matvec_at")
        patch(hilbert.HilbertSpace, "label_array", "hilbert.label_array", split=True)

    def _wrap_timedep(self, fn):
        traced = self.wrap(fn, "evolve.timedep")

        @functools.wraps(fn)
        def timedep(*args, observer=None, **kwargs):
            if observer is not None:
                observer = self.wrap(observer, "protocol.observer")
            return traced(*args, observer=observer, **kwargs)
        return timedep

    def _wrap_ensemble(self, fn):
        traced = self.wrap(fn, "dephasing.self", split=True)

        @functools.wraps(fn)
        def ensemble(state, space, model, *args, **kwargs):
            self.model = model.mode
            try:
                return traced(state, space, model, *args, **kwargs)
            finally:
                self.model = None
        return ensemble

    def _wrap_act(self, fn):
        traced = self.wrap(fn, "operators.act")

        @functools.wraps(fn)
        def act(operator, state):
            self.act_nnz += operator.matrix.nnz
            return traced(operator, state)
        return act

    # -- results ------------------------------------------------------------------

    def metrics(self) -> dict[str, dict]:
        """Per-layer metrics by name, each a value with its unit: self times
        in s (``*_s``), call counts (``*_calls``) and ``operators.act_nnz``."""
        out: dict[str, dict] = {}

        def put(name: str, value, unit: str) -> None:
            out[name] = {"value": value, "unit": unit}

        def layer(metric: str, bucket: str, calls: bool = True) -> None:
            put(f"{metric}_s", self.self_s.get(bucket, 0.0), "s")
            if calls:
                put(f"{metric}_calls", self.calls.get(bucket, 0), "count")

        def by_model(metric: str, calls: bool) -> None:
            keys = [metric] + [f"{metric}.{m}" for m in MODELS]
            put(f"{metric}_s", sum(self.self_s.get(k, 0.0) for k in keys), "s")
            if calls:
                put(f"{metric}_calls", sum(self.calls.get(k, 0) for k in keys), "count")
            for model in MODELS:
                put(f"{metric}_s.{model}", self.self_s.get(f"{metric}.{model}", 0.0), "s")
                if calls:
                    put(f"{metric}_calls.{model}", self.calls.get(f"{metric}.{model}", 0),
                        "count")

        layer("evolve.static", "evolve.static")
        layer("evolve.timedep", "evolve.timedep", calls=False)
        layer("operators.build", "operators.build")
        layer("operators.act", "operators.act")
        put("operators.act_nnz", self.act_nnz, "count")
        layer("operators.matvec_at", "operators.matvec_at")
        for stage in STAGES:
            put(f"protocol.stage.{stage}_s", self.stage_s.get(stage, 0.0), "s")
        layer("protocol.observer", "protocol.observer")
        layer("protocol.self", "protocol", calls=False)
        by_model("dephasing.trajectory", calls=True)
        by_model("dephasing.fidelity", calls=False)
        by_model("dephasing.self", calls=False)
        layer("dephasing.state_build", "dephasing.state_build", calls=False)
        by_model("hilbert.label_array", calls=True)
        layer("hilbert.fidelity", "hilbert.fidelity", calls=False)
        layer("cli.parse", "cli.parse", calls=False)
        layer("cli.write", "cli.write", calls=False)
        return out

    def write_spans(self, path, **meta) -> None:
        """Write every recorded span, ordered by end time, as one JSON document."""
        doc = dict(meta, fields=["id", "name", "start_s", "end_s", "parent", "unit"],
                   spans=self.spans)
        with open(path, "w") as fh:
            json.dump(doc, fh)
