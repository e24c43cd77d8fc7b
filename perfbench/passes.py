"""Run one workload's passes in process and time them.

Usage: python3 passes.py SPEC.json RESULT.json

The spec gives the source directory, the argv lists of one pass, the
output directory, the measuring time and whether to trace. Every pass
calls `volintervals.cli.main` exactly as a user's command line would,
starting from an empty output directory. One untimed warm-up pass comes
first; its output tree is the reference every later pass must match
byte for byte. With tracing, untraced and traced passes alternate so the
tracing overhead is measured on the same machine state.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path


def tree_hashes(root: Path) -> dict[str, str]:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def run_pass(cli, argvs: list[list[str]], out: Path) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    rcs = []
    sink = io.StringIO()
    gc.collect()  # every pass starts from the same heap, so no pass inherits a collection
    wall0, cpu0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(sink):
        for argv in argvs:
            try:
                rcs.append(cli.main(list(argv)))
            except Exception:  # a crash fails this pass's analyses; keep measuring
                traceback.print_exc()
                rcs.append(-1)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return {"wall_s": wall, "cpu_s": cpu, "rcs": rcs, "hashes": tree_hashes(out)}


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    os.environ.pop("VOLINTERVALS_OUT", None)  # it would silently redirect analyze output
    from volintervals import cli

    argvs, out = spec["passes"], Path(spec["out_dir"])
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()

    ref = run_pass(cli, argvs, out)
    passes = []
    deadline = time.perf_counter() + spec["seconds"]
    min_passes = 4 if tracer else 3  # with tracing: two untraced and two traced
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
            try:
                p = run_pass(cli, argvs, out)
            finally:
                tracer.uninstall()
            tracer.traced_pass += 1
        else:
            p = run_pass(cli, argvs, out)
        hashes = p.pop("hashes")
        p["traced"] = traced
        p["differs"] = sorted(k for k in hashes.keys() | ref["hashes"].keys()
                              if hashes.get(k) != ref["hashes"].get(k))
        passes.append(p)
        # start another pass only if a typical pass would end in time
        typical = statistics.median(q["wall_s"] for q in passes)
        if len(passes) >= min_passes and time.perf_counter() + typical > deadline:
            break

    result = {
        "warmup": {"wall_s": ref["wall_s"], "cpu_s": ref["cpu_s"], "rcs": ref["rcs"]},
        "passes": passes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        metrics, repeat = tracer.metrics(tracer.traced_pass)
        result["trace"] = {"metrics": metrics, "counts_repeat": repeat, "absent": tracer.absent,
                           "uncounted": sorted(tracer.uncounted)}
        tracer.dump(Path(spec["spans_path"]))
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
