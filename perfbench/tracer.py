"""Outside-in span tracing of the volintervals modules.

The tracer replaces, for the duration of a traced pass, each library
function that `volintervals.pipeline`, `volintervals.cli` and
`volintervals.memory` look up by module-global name with a wrapper that
records one span per call: name, layer, start, end, parent span, thread
and analysis unit. Spans stay in memory; `metrics` derives per-layer self
times, counts and ratios from them, and `dump` writes them out.

Nothing in the program is edited: the wrappers are installed from the
benchmark and removed again afterwards, so untraced passes run the
original functions.
"""

from __future__ import annotations

import importlib
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# function name -> layer (span name). One table for every module, because
# the same library function is looked up by name from several of them.
LAYER_OF = {
    "main": "cli.dispatch",
    "load_config": "pipeline.config",
    "run_pipeline": "pipeline.run",
    "split_by_date": "pipeline.split",
    "_analyze_one": "pipeline.unit",
    "ingest_csv": "pipeline.ingest",
    "_write_tsv": "pipeline.emit",
    "_write_json": "pipeline.emit",
    "log_returns": "series.volatility",
    "normalize_volatility": "series.volatility",
    "session_slots": "series.detrend",
    "build_intraday_pattern": "series.detrend",
    "intraday_detrend": "series.detrend",
    "gap_report": "series.gap_report",
    "extract_intervals": "intervals.extract",
    "collapse_distance": "distributions.collapse",
    "pdf_estimate": "distributions.pdf",
    "scale_pdf": "distributions.pdf",
    "poisson_deviation": "distributions.poisson_deviation",
    "conditional_pdf": "memory.conditional",
    "conditional_mean_curve": "memory.conditional",
    "shuffle_intervals": "memory.conditional",
    "conditional_blocks": "memory.conditional_blocks",
    "shuffle_volatility": "clusters.shuffle",
    "_surrogate_envelope": "clusters.surrogate",
    "median_split": "clusters.runs",
    "clusters": "clusters.runs",
    "cluster_survival": "clusters.runs",
}

# names each module looks up at this commit; a name missing in a later
# commit is reported as absent instead of failing the run
LOOKED_UP = {
    "volintervals.cli": (
        "main", "load_config", "run_pipeline", "split_by_date", "ingest_csv",
        "_write_tsv", "_write_json", "log_returns", "normalize_volatility",
        "extract_intervals", "pdf_estimate", "scale_pdf", "poisson_deviation",
        "conditional_pdf", "conditional_mean_curve", "median_split", "clusters",
        "cluster_survival",
    ),
    "volintervals.pipeline": (
        "run_pipeline", "split_by_date", "_analyze_one", "ingest_csv", "_write_tsv",
        "_write_json", "log_returns", "normalize_volatility", "session_slots",
        "build_intraday_pattern", "intraday_detrend", "gap_report", "extract_intervals",
        "collapse_distance", "pdf_estimate", "scale_pdf", "poisson_deviation",
        "conditional_pdf", "conditional_mean_curve", "shuffle_intervals",
        "shuffle_volatility", "_surrogate_envelope", "median_split", "clusters",
        "cluster_survival",
    ),
    "volintervals.memory": ("conditional_blocks", "pdf_estimate", "scale_pdf"),
}

# scipy.stats.ks_2samp(method="auto") computes an exact p-value when both
# samples have at most this many observations
KS_EXACT_MAX_N = 10_000

SELF_TIME_LAYERS = (
    "pipeline.ingest", "pipeline.emit", "series.volatility", "series.detrend",
    "intervals.extract", "distributions.collapse", "distributions.pdf",
    "distributions.poisson_deviation", "memory.conditional", "clusters.shuffle",
    "clusters.surrogate", "clusters.runs", "cli.dispatch",
)


@dataclass
class Span:
    id: int
    name: str  # layer
    func: str
    start: float
    end: float
    parent: int | None
    thread: int
    unit: str | None
    traced_pass: int
    counts: dict = field(default_factory=dict)


def _counts(func: str, args, kwargs, result) -> dict:
    """Work counts of one call, taken from its arguments and result."""
    if func == "ingest_csv":
        return {"rows": len(result)}
    if func in ("_write_tsv", "_write_json"):
        return {"bytes": Path(args[0]).stat().st_size, "files": 1}
    if func == "gap_report":
        return {"gaps": len(result)}
    if func == "extract_intervals":
        if kwargs.get("drop_session_gaps"):
            vol, q = args[0], args[1]
            values = getattr(vol, "values", vol)
            return {"events": int(np.count_nonzero(np.asarray(values) > q))}
        return {"events": len(result) + 1}
    if func == "collapse_distance":
        sizes = [len(s) for s in args[0]]
        pairs = [(a, b) for i, a in enumerate(sizes) for b in sizes[i + 1:]]
        return {"pairs": len(pairs),
                "exact_pairs": sum(max(a, b) <= KS_EXACT_MAX_N for a, b in pairs)}
    if func == "_surrogate_envelope":
        return {"seeds_used": int(result[1]), "seeds_requested": int(args[2].ensemble)}
    if func == "conditional_blocks":
        return {"q": float(args[0].threshold_q)}
    return {}


class Tracer:
    """Records spans of wrapped library calls; install/uninstall per pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.uncounted: set[str] = set()
        self.traced_pass = 0
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- span recording ---------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._local.stack = self._main_stack if is_main else []
        return stack

    def _wrap(self, func, name: str):
        layer, tracer = LAYER_OF[name], self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            # a pool thread's first span hangs under the main thread's open span
            outer = stack[-1:] or tracer._main_stack[-1:]
            parent = outer[0] if outer else None
            unit = parent.unit if parent else None
            if name == "_analyze_one" and args:
                unit = getattr(args[0], "instrument_id", unit)
            elif name == "main":
                unit = (args[0] if args else kwargs["argv"])[0]
            with tracer._lock:
                span_id = next(tracer._ids)
            span = Span(span_id, layer, name, 0.0, 0.0, parent.id if parent else None,
                        threading.get_ident(), unit, tracer.traced_pass)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append(span)
            try:
                span.counts = _counts(name, args, kwargs, result)
            except (AttributeError, IndexError, KeyError, OSError, TypeError):
                tracer.uncounted.add(name)  # a later signature; the span still counts
            return result

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        """Wrap every looked-up name; record names that no longer exist."""
        self.absent = []
        for modname, names in LOOKED_UP.items():
            mod = importlib.import_module(modname)
            for name in names:
                func = getattr(mod, name, None)
                if not callable(func):
                    self.absent.append(f"{modname}.{name}")
                    continue
                self._installed.append((mod, name, func))
                setattr(mod, name, self._wrap(func, name))

    def uninstall(self) -> None:
        for mod, name, func in reversed(self._installed):
            setattr(mod, name, func)
        self._installed = []

    def dump(self, path: Path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__, sort_keys=True) + "\n")

    # -- derived metrics --------------------------------------------------

    def pass_metrics(self, traced_pass: int) -> dict[str, float]:
        """Per-layer metrics of one traced pass."""
        spans = [s for s in self.spans if s.traced_pass == traced_pass]
        children = defaultdict(list)
        for s in spans:
            if s.parent is not None:
                children[s.parent].append(s)
        by_layer = defaultdict(list)
        for s in spans:
            by_layer[s.name].append(s)

        def self_time(s: Span) -> float:
            covered, cursor = 0.0, s.start
            for a, b in sorted((max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]):
                a = max(a, cursor)
                if b > a:
                    covered += b - a
                    cursor = b
            return (s.end - s.start) - covered

        def total(layer: str, key: str) -> float:
            return sum(s.counts.get(key, 0) for s in by_layer[layer])

        m = {f"{layer}.self_s": sum(self_time(s) for s in by_layer[layer])
             for layer in SELF_TIME_LAYERS}
        m["pipeline.ingest.rows"] = total("pipeline.ingest", "rows")
        m["pipeline.emit.bytes"] = total("pipeline.emit", "bytes")
        m["pipeline.emit.files"] = total("pipeline.emit", "files")

        units = by_layer["pipeline.unit"]
        runs = {s.id: s for s in by_layer["pipeline.run"]}
        m["pipeline.unit.calls"] = len(units)
        m["pipeline.unit.wait_s"] = sum(s.start - runs[s.parent].start
                                        for s in units if s.parent in runs)
        if units:
            workers = len({s.thread for s in units})
            pool_wall = max(s.end for s in units) - min(s.start for s in units)
            busy = sum(s.end - s.start for s in units)
            m["pipeline.parallel_efficiency"] = busy / (workers * pool_wall)
        else:
            m["pipeline.parallel_efficiency"] = 0.0

        m["series.gap_report.gaps"] = total("series.gap_report", "gaps")
        m["intervals.extract.calls"] = len(by_layer["intervals.extract"])
        m["intervals.extract.events"] = total("intervals.extract", "events")
        m["distributions.collapse.pairs"] = total("distributions.collapse", "pairs")
        m["distributions.collapse.exact_pairs"] = total("distributions.collapse", "exact_pairs")

        blocks = by_layer["memory.conditional_blocks"]
        analysed = {(s.unit, s.counts.get("q")) for s in blocks}
        m["memory.conditional_blocks.calls_per_q"] = len(blocks) / len(analysed) if analysed else 0.0

        m["clusters.shuffle.calls"] = len(by_layer["clusters.shuffle"])
        requested = total("clusters.surrogate", "seeds_requested")
        m["clusters.surrogate.seeds_requested"] = requested
        m["clusters.surrogate.seeds_used_frac"] = (
            total("clusters.surrogate", "seeds_used") / requested if requested else 0.0)
        return m

    def metrics(self, traced_passes: int) -> tuple[dict[str, float], bool]:
        """Median of every per-pass metric, and whether the counts repeat exactly."""
        per_pass = [self.pass_metrics(i) for i in range(traced_passes)]
        counts = [{k: v for k, v in p.items() if not k.endswith(("_s", "efficiency"))}
                  for p in per_pass]
        repeat = all(c == counts[0] for c in counts)
        return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}, repeat
