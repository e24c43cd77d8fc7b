"""volintervals benchmark: end-to-end timing, output checks and a per-layer trace.

Usage (from the repository root):

    python3 perfbench/run.py --workload daily_surrogate --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another

The run builds the workload's inputs from the seed with the library's
own generators, times `volintervals.cli.main` passes in a child process
for `--seconds`, checks every output, and prints one JSON object as its
last line. With `--trace 0` the metrics are the end-to-end ones; with
`--trace 1` they are the per-layer ones from a separate traced run.
Metric definitions, the layer-to-end-to-end map and the baseline are in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPS = 5
IMPORTTIME_REPS = 3
CHILD_TIMEOUT_S = 150
SETUP_SNIPPET = (
    "import time; t0 = time.perf_counter()\n"
    "import volintervals.cli as cli; cli.build_parser()\n"
    "print(time.perf_counter() - t0)\n"
)


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "VOLINTERVALS_OUT"}
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup() -> list[float]:
    """Seconds for fresh interpreters to import volintervals.cli and build the parser."""
    import volintervals.cli  # noqa: F401  fills the bytecode and file caches the children read

    times = []
    for _ in range(SETUP_REPS):
        done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        times.append(float(done.stdout.strip()))
    return times


def _scipy_import_s(rows) -> float:
    """Cumulative seconds of every scipy import not nested in another scipy import.

    The library imports scipy only for scipy.stats, whose own line -X
    importtime omits (scipy loads it through a module __getattr__), so its
    submodules are the outermost scipy entries.
    """
    total, ancestors = 0, []  # importtime prints children before their parent
    for _, cum, indent, mod in reversed(rows):
        depth = len(indent)
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        is_scipy = mod.split(".")[0] == "scipy"
        if is_scipy and not any(a_scipy for _, a_scipy in ancestors):
            total += int(cum)
        ancestors.append((depth, is_scipy))
    return total / 1e6


def measure_imports() -> dict[str, float]:
    """scipy and volintervals-own import seconds, from -X importtime in fresh interpreters."""
    scipy_s, own_s = [], []
    for _ in range(IMPORTTIME_REPS):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", SETUP_SNIPPET],
                              cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        rows = [m.groups() for m in re.finditer(r"import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)",
                                                done.stderr)]
        scipy_s.append(_scipy_import_s(rows))
        own_s.append(sum(int(own) for own, _, _, mod in rows
                         if mod.split(".")[0] == "volintervals") / 1e6)
    return {"setup.import.scipy_stats_s": statistics.median(scipy_s),
            "setup.import.volintervals_self_s": statistics.median(own_s)}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import checks
    import inputs

    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    w = inputs.build(name, seed, work)
    for rec in w.records:
        print(f"input {rec['file']}: rows={rec['rows']} sha256={rec['sha256']}")

    setup = None if trace else measure_setup()
    spec = {"src": str(SRC), "passes": w.passes, "out_dir": str(w.out_dir),
            "seconds": seconds, "trace": trace, "spans_path": str(work / "spans.jsonl")}
    (work / "spec.json").write_text(json.dumps(spec))
    subprocess.run([sys.executable, str(HERE / "passes.py"), str(work / "spec.json"),
                    str(work / "result.json")], cwd=ROOT, env=_child_env(),
                   timeout=CHILD_TIMEOUT_S, check=True)
    res = json.loads((work / "result.json").read_text())

    # The last pass's tree is checked in full; every pass, the warm-up
    # included, must exit cleanly and write the warm-up's bytes.
    checker = checks.Checker(w)
    checker.check_tree()
    failed = 0
    for p in [res["warmup"]] + res["passes"]:
        bad = set(checker.failed)
        for i, rc in enumerate(p["rcs"]):
            # analyze exits 1 when report.json lists errors; those name their (unit, q)
            if rc != 0 and not (rc == 1 and checker.reported_errors):
                bad.update(checks.keys_of_argv(w, i))
                checker.notes.append(f"exit status {rc} from {w.passes[i][0]}")
        for rel in p.get("differs", []):
            bad.update(checks.keys_of_path(w, rel))
            checker.notes.append(f"output {rel} differs from the warm-up pass")
        failed += len(bad)
    attempted = len(checks.keys(w)) * (1 + len(res["passes"]))
    for note in sorted(set(checker.notes)):
        print(f"check failed: {note}", file=sys.stderr)

    timed = [p for p in res["passes"] if not p["traced"]]
    walls = [p["wall_s"] for p in timed]
    q1, wall, q3 = quartiles(walls)
    print(f"wall_s per pass: median {wall:.4f} s, quartiles {q1:.4f} / {q3:.4f} s, "
          f"n={len(walls)} (warm-up {res['warmup']['wall_s']:.4f} s)")
    print(f"failed_frac: {failed / attempted:g} ({failed} of {attempted} (unit, q) analyses)")

    correct = failed == 0
    if trace:
        tr = res["trace"]
        traced_wall = statistics.median(p["wall_s"] for p in res["passes"] if p["traced"])
        metrics = {**tr["metrics"], **measure_imports(),
                   "trace.overhead_s": traced_wall - wall,
                   "trace.absent_names": len(tr["absent"])}
        for name_ in tr["absent"]:
            print(f"trace: {name_} is absent at this commit", file=sys.stderr)
        for name_ in tr["uncounted"]:
            print(f"trace: counts of {name_} could not be read from its arguments", file=sys.stderr)
        if not tr["counts_repeat"]:
            print("trace: per-pass counts differ between traced passes", file=sys.stderr)
            correct = False
    else:
        metrics = {
            "wall_s": wall,
            "cpu_s": statistics.median(p["cpu_s"] for p in timed),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": res["peak_rss_kb"] / 1024,
        }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="daily_surrogate, intraday_panel, cli_stages, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "volintervals" / "cli.py").is_file():
        print(f"error: no volintervals sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import inputs

    names = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    if not set(names) <= set(inputs.WORKLOADS):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    results = {}
    for name in names:
        print(f"== {name} (seed {args.seed}, {args.seconds:g} s, trace {args.trace})")
        r = run_workload(name, args.seed, args.seconds, bool(args.trace))
        r["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in r["metrics"].items()}
        for metric, v in r["metrics"].items():
            print(f"{name} {metric} = {v['value']:.6g} {v['unit']}")
        results[name] = r
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
