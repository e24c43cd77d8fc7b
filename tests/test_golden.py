"""Byte identity of small `analyze`, stage and `split` trees against a committed sha256 manifest.

Any change to the analysis, the seeds, the number formatting or the file
layout shows up here as a changed, missing or extra file. Each command's
stdout is pinned as `<run>/stdout`, with the temporary directory shown as
`<tmp>`; each demo's stdout as `demos/<stem>.stdout`, which
tests/test_demos.py checks. A change that alters outputs on purpose
regenerates the manifest with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import runpy
import sys
from pathlib import Path

import numpy as np

from volintervals import PriceSeries, write_csv
from volintervals.cli import main
from volintervals.synthetic import correlated_gaussian

MANIFEST = Path(__file__).with_name("golden_sha256.json")
DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
# q=3 has too few intervals for 8 conditional subsets on the whole series
# but enough for 2 on each split half; q=6 has no events at all
QS = ["--q", "1", "--q", "1.5", "--q", "2", "--q", "3", "--q", "6"]
RUNS = {
    "log": [*QS, "--ensemble", "20"],
    "linear_split": [*QS, "--ensemble", "20", "--linear-bins", "--subsets", "2",
                     "--split-date", "1995-01-01"],
}
# the per-stage subcommands, each at the default thresholds
STAGE_COMMANDS = ("intervals", "pdf", "conditional", "clusters")
# intraday detrending on session slots, with session-gap intervals dropped
SESSION_CONFIG = """q = 1,1.5,2
ensemble = 20
session_open = 09:00
session_close = 15:00
drop_session_gaps = true
split_date = 2001-03-19
"""


def write_intraday_csv(path: Path) -> None:
    """One-minute bars 09:00-14:59 on the 20 weekdays of 2001-03-05..2001-03-30."""
    days = np.arange("2001-03-05", "2001-03-31", dtype="datetime64[D]")
    days = days[np.is_busday(days)]
    ts = (days.astype("datetime64[s]")[:, None] + np.timedelta64(9 * 3600, "s")
          + np.arange(360) * np.timedelta64(60, "s")).ravel()
    logp = np.cumsum(1e-4 * correlated_gaussian(ts.size, 0.3, seed=5))
    write_csv(PriceSeries("intraday", ts, 100.0 * np.exp(logp - logp[0]),
                          np.timedelta64(60, "s")), path)


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digest(f: Path) -> str:
    return hashlib.sha256(f.read_bytes()).hexdigest()


def _run(digests: dict, tmp: Path, name: str, argv: list[str], code: int = 0) -> None:
    """Run the CLI, check its exit code and record its stdout as name/stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == code
    digests[f"{name}/stdout"] = text_digest(out.getvalue().replace(str(tmp), "<tmp>"))


def _add_tree(digests: dict, name: str, out: Path) -> None:
    for f in sorted(out.rglob("*")):
        if f.is_file():
            digests[f"{name}/{f.relative_to(out).as_posix()}"] = _digest(f)


def golden_tree(tmp: Path) -> dict[str, str]:
    """sha256 of every file the golden runs write, keyed by run/relative path, and of each run's stdout."""
    csv = tmp / "inst.csv"
    digests = {}
    _run(digests, tmp, "synth", ["synth", "--kind", "correlated", "--length", str(2**13),
                                 "--seed", "3", "--out", str(csv)])
    digests["inst.csv"] = _digest(csv)
    for name, flags in RUNS.items():
        out = tmp / name
        _run(digests, tmp, name, ["analyze", str(csv), *flags, "--out", str(out)], code=1)  # q=6 fails
        _add_tree(digests, name, out)
    for name in STAGE_COMMANDS:
        _run(digests, tmp, f"stages/{name}", [name, str(csv), "--out", str(tmp / "stages" / name)])
    _add_tree(digests, "stages", tmp / "stages")
    _run(digests, tmp, "split", ["split", str(csv), "--split-date", "1995-01-01",
                                 "--out", str(tmp / "split")])
    _add_tree(digests, "split", tmp / "split")
    intraday, config = tmp / "intraday.csv", tmp / "session.cfg"
    write_intraday_csv(intraday)
    config.write_text(f"input = {intraday}\nout = {tmp / 'session'}\n{SESSION_CONFIG}")
    digests["intraday.csv"] = _digest(intraday)
    _run(digests, tmp, "session", ["analyze", "--config", str(config)])
    _add_tree(digests, "session", tmp / "session")
    return digests


def _reject_constant(name: str):
    raise AssertionError(f"{name} is not JSON")


def test_analyze_tree_matches_manifest(tmp_path):
    expected = {k: v for k, v in json.loads(MANIFEST.read_text()).items()
                if not k.startswith("demos/")}
    got = golden_tree(tmp_path)
    assert sorted(got) == sorted(expected)
    changed = [name for name in expected if got[name] != expected[name]]
    assert not changed
    # strict JSON: NaN, Infinity and -Infinity are not JSON, whatever Python's json writes
    found = sorted(tmp_path.rglob("*.json"))
    assert {f.name for f in found} == {"report.json", "summary.json", "collapse_matrix.json",
                                       "intervals_summary.json"}
    for f in found:
        json.loads(f.read_text(), parse_constant=_reject_constant)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = golden_tree(Path(tmp))
    for demo in DEMOS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            runpy.run_path(str(demo), run_name="__main__")
        digests[f"demos/{demo.stem}.stdout"] = text_digest(out.getvalue())
    MANIFEST.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST} ({len(digests)} files)", file=sys.stderr)
