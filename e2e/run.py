"""End-to-end runs of the besseldt CLI, from one manifest.

    python e2e/run.py check
    python e2e/run.py compare TREE
    python e2e/run.py time TREE [NAME ...]

Every entry of ``e2e/manifest.toml`` is one run: an experiment with its
config text and seed (or a script under ``e2e/``), its expected exit code,
for a non-zero code the start of its one stderr line, and the invariants
that apply.

``check`` runs every entry in a temporary directory, at the BLAS thread
count of its environment.  It asserts the exit code, and for a non-zero
code that stderr is one line that starts with the expected text and that
the run left no file behind.  An entry with a ``same_rows`` table must
have the data rows it selects (a regex ``match`` on the line, then a
Python slice ``rows``) equal those of an earlier entry.  Then each
invariant the entry names:

- ``repeat``: a second run gives the same bytes;
- ``threads``: runs at 1 and at 2 BLAS threads give the same bytes;
- ``rerun_meta``: the meta block, ``# `` removed, as the config of a run
  without ``--seed``, gives the same bytes;
- ``no_scipy``: no ``scipy`` module appears in the ``-X importtime`` log.

``compare TREE`` runs every entry once on this checkout and once on TREE, a
directory that holds ``src/besseldt``, for example made by
``git archive <rev> src | tar -x -C TREE``, both at one BLAS thread.  It
compares exit codes, stderr
lines, meta lines and data rows column by column.  Integer and string
columns must match exactly.  For each float column that differs it prints
the largest absolute and relative difference (relative to TREE's value).
A difference fails unless the manifest's ``[tolerance.<experiment>]``
table allows it (``abs`` or ``rel``); the default tolerance is 0.

``time TREE [NAME ...]`` runs each entry named (by default every entry)
``TIME_PAIRS`` times on this checkout and as often on TREE, alternating
which side goes first, both at one BLAS thread.  It prints both sides'
median wall seconds, interpreter start included, and their ratio, this
checkout over TREE.  A run that exits with another code than its entry's
is reported and fails the command.

Standard library only: the package runs in fresh interpreters, with
``PYTHONPATH`` set to the tree's ``src``.
"""

from __future__ import annotations

import math
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
import tomllib
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = HERE / "manifest.toml"
_FIELDS = {"name", "experiment", "script", "config", "seed", "exit",
           "stderr", "checks", "same_rows"}
_SCIPY = re.compile(r"\| +(scipy(\.\S*)?)$", re.M)
_INT = re.compile(r"-?\d+")
#: runs of each entry per side in time, in alternating pairs
TIME_PAIRS = 3


# --------------------------------------------------------------------------
# the manifest

def load(path=MANIFEST):
    """The manifest's entries, as dicts with every field filled in, and
    its tolerances, ``{experiment: {column: {"abs"|"rel": value}}}``.
    Raises ValueError naming the entry on a malformed one."""
    with open(path, "rb") as fh:
        data = tomllib.load(fh)
    entries, names = [], set()
    for raw in data.get("run", []):
        name = raw.get("name")

        def bad(msg):
            raise ValueError(f"entry {name!r}: {msg}")

        if not isinstance(name, str) or not name:
            bad("needs a name")
        if name in names:
            bad("name is not unique")
        if set(raw) - _FIELDS:
            bad(f"unknown fields {sorted(set(raw) - _FIELDS)}")
        if ("experiment" in raw) == ("script" in raw):
            bad("needs one of experiment and script")
        e = {"experiment": None, "script": None, "config": "", "seed": 0,
             "exit": 0, "stderr": None, "checks": [], "same_rows": None,
             **raw}
        if e["script"] and ({"config", "seed"} & set(raw)
                            or "rerun_meta" in e["checks"]):
            bad("a script takes no config, seed or rerun_meta")
        unknown = [c for c in e["checks"] if c not in CHECKS]
        if unknown:
            bad(f"unknown checks {unknown}")
        if (e["exit"] != 0) != (e["stderr"] is not None):
            bad("a stderr line goes with a non-zero exit code, and only "
                "with one")
        if e["same_rows"] is not None:
            spec = e["same_rows"]
            if spec.get("entry") not in names:
                bad("same_rows names no earlier entry")
            if set(spec) - {"entry", "match", "rows"}:
                bad(f"unknown same_rows fields "
                    f"{sorted(set(spec) - {'entry', 'match', 'rows'})}")
        names.add(name)
        entries.append(e)
    return entries, data.get("tolerance", {})


def config_text(entry) -> str:
    """The config file of an experiment entry: its experiment line, then
    its config text."""
    return f"experiment = {entry['experiment']}\n" + "".join(
        line.strip() + "\n" for line in entry["config"].splitlines()
        if line.strip())


# --------------------------------------------------------------------------
# one run

@dataclass
class Run:
    code: int
    stderr: str
    output: bytes | None      # out.csv, None when the run wrote none
    files: list               # every file the run left, its config aside


def run_once(tree, entry, cwd: Path, threads=None, config=None,
             importtime=False) -> Run:
    """Run entry once in the new directory cwd on tree's src/besseldt,
    writing out.csv there: with its own config and seed, or with the
    config text given and no --seed; at the given number of BLAS threads,
    or by default at the environment's.  The tree's src path reads ``src``
    in the stderr returned."""
    cwd.mkdir(parents=True)
    src = str(Path(tree, "src").resolve())
    env = dict(os.environ, PYTHONPATH=src)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    if entry["script"]:
        cmd += [str(HERE / entry["script"]), "out.csv"]
    else:
        (cwd / "run.cfg").write_text(
            config_text(entry) if config is None else config,
            encoding="utf-8")
        cmd += ["-m", "besseldt.cli", entry["experiment"],
                "--config", "run.cfg", "--out", "out.csv"]
        if config is None:
            cmd += ["--seed", str(entry["seed"])]
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          encoding="utf-8", errors="replace")
    out = cwd / "out.csv"
    # a warning names its file under the tree, which compare must not see
    return Run(proc.returncode, proc.stderr.replace(src, "src"),
               out.read_bytes() if out.exists() else None,
               sorted(p.name for p in cwd.iterdir() if p.name != "run.cfg"))


# --------------------------------------------------------------------------
# check

def _parts(output):
    """The meta lines, the header line and the data rows of a CSV."""
    lines = (output or b"").decode("utf-8").splitlines()
    rest = [line for line in lines if not line.startswith("#")]
    return ([line for line in lines if line.startswith("#")],
            rest[0] if rest else "", rest[1:])


def _select(output, spec):
    rows = _parts(output)[2]
    if "match" in spec:
        rows = [r for r in rows if re.search(spec["match"], r)]
    if "rows" in spec:
        rows = rows[slice(*(int(s) if s else None
                            for s in spec["rows"].split(":")))]
    return rows


def _repeat(tree, entry, d, main, outputs):
    if run_once(tree, entry, d / "repeat").output != main.output:
        return "a second run gave other bytes"


def _threads(tree, entry, d, main, outputs):
    one = run_once(tree, entry, d / "threads1", threads=1)
    if run_once(tree, entry, d / "threads2", threads=2).output != one.output:
        return "2 BLAS threads gave other bytes than 1"


def _rerun_meta(tree, entry, d, main, outputs):
    meta = "".join(line[2:] + "\n" for line in
                   (main.output or b"").decode("utf-8").splitlines()
                   if line.startswith("# "))
    rerun = run_once(tree, entry, d / "rerun", config=meta)
    if rerun.output != main.output:
        return "the meta block as a config gave other bytes"


def _no_scipy(tree, entry, d, main, outputs):
    run = run_once(tree, entry, d / "importtime", importtime=True)
    if run.code != entry["exit"]:
        return f"exit {run.code} under -X importtime"
    found = sorted({m.group(1) for m in _SCIPY.finditer(run.stderr)})
    if found:
        return f"imported {', '.join(found)}"


def _same_rows(main, spec, outputs):
    mine = _select(main.output, spec)
    if not mine:
        return "selects no row"
    if mine != _select(outputs[spec["entry"]], spec):
        return f"its {len(mine)} selected rows are not {spec['entry']}'s"


CHECKS = {"repeat": _repeat, "threads": _threads, "rerun_meta": _rerun_meta,
          "no_scipy": _no_scipy}


def check_entry(tree, entry, work: Path, outputs: dict) -> list:
    """The failures of one entry, run in work/<name>: its exit code; for a
    non-zero code its stderr line and the files it left; its same_rows
    table; then each invariant it names.  outputs maps the names of
    the entries run before to their output, and gains this one's."""
    d = work / entry["name"]
    main = run_once(tree, entry, d / "main")
    outputs[entry["name"]] = main.output
    if main.code != entry["exit"]:
        last = (main.stderr.splitlines() or [""])[-1]
        return [f"exit {main.code}, expected {entry['exit']}: {last}"]
    fails, lines = [], main.stderr.splitlines()
    if entry["exit"] != 0 and not (len(lines) == 1
                                   and lines[0].startswith(entry["stderr"])):
        fails.append(f"stderr {lines!r}, expected one line that starts "
                     f"{entry['stderr']!r}")
    if entry["exit"] != 0 and main.files:
        fails.append(f"a failing run left {', '.join(main.files)}")
    if entry["same_rows"] is not None:
        msg = _same_rows(main, entry["same_rows"], outputs)
        if msg:
            fails.append(f"same_rows: {msg}")
    for name in entry["checks"]:
        msg = CHECKS[name](tree, entry, d, main, outputs)
        if msg:
            fails.append(f"{name}: {msg}")
    return fails


def check(tree=ROOT, manifest=MANIFEST) -> int:
    """Run every entry on tree and check it; print one line per entry and
    one per failure.  Returns the exit code: 0 when every entry passes."""
    entries, _ = load(manifest)
    outputs, failed = {}, []
    with tempfile.TemporaryDirectory(prefix="besseldt-e2e-") as work:
        for entry in entries:
            start = time.perf_counter()
            fails = check_entry(tree, entry, Path(work), outputs)
            print(f"{'FAIL' if fails else 'ok':4}  {entry['name']} "
                  f"({time.perf_counter() - start:.1f} s)", flush=True)
            for msg in fails:
                print(f"      {msg}", flush=True)
            if fails:
                failed.append(entry["name"])
    print(f"{len(entries) - len(failed)} of {len(entries)} entries pass"
          + (f"; failed: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


# --------------------------------------------------------------------------
# compare

def _is_float(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


def compare_outputs(new: bytes, old: bytes, tolerance: dict):
    """Compare two CSVs, new against old: (ok, report lines).  Meta lines,
    the header, the row count and every integer or string column must be
    equal.  A float column may differ within tolerance[column]'s ``abs``
    or ``rel`` (default 0); each one that differs is reported with its
    largest absolute and relative difference."""
    if new == old:
        return True, []
    meta_new, head_new, rows_new = _parts(new)
    meta_old, head_old, rows_old = _parts(old)
    head_new, head_old = head_new.split(","), head_old.split(",")
    rows_new = [row.split(",") for row in rows_new]
    rows_old = [row.split(",") for row in rows_old]
    report, ok = [], True
    for a, b in zip(meta_new, meta_old):
        if a != b:
            report.append(f"meta line {b!r} is now {a!r}")
    if len(meta_new) != len(meta_old):
        report.append(f"{len(meta_old)} meta lines are now {len(meta_new)}")
    if head_new != head_old:
        report.append(f"header {','.join(head_old)} is now "
                      f"{','.join(head_new)}")
    if len(rows_new) != len(rows_old) or any(
            len(r) != len(head_new) for r in rows_new + rows_old):
        report.append(f"{len(rows_old)} rows are now {len(rows_new)}, "
                      f"or a row's width is not the header's")
    if report:
        return False, report
    for j, col in enumerate(head_new):
        pairs = [(r[j], s[j]) for r, s in zip(rows_new, rows_old)]
        cells = [c for pair in pairs for c in pair]
        changed = [(a, b) for a, b in pairs if a != b]
        if not changed:
            continue
        if all(_INT.fullmatch(c) for c in cells) or not all(
                _is_float(c) for c in cells):
            ok = False
            a, b = changed[0]
            report.append(f"{col}: {len(changed)} of {len(pairs)} values "
                          f"differ, first {b} -> {a}: FAIL")
            continue
        tol = tolerance.get(col, {})
        worst_abs = worst_rel = 0.0
        moved = within = 0
        for a, b in changed:
            x, y = float(a), float(b)
            if math.isnan(x) and math.isnan(y):
                continue
            d = abs(x - y)
            r = d / abs(y) if y else math.inf
            d, r = (math.inf if math.isnan(v) else v for v in (d, r))
            moved += 1
            worst_abs, worst_rel = max(worst_abs, d), max(worst_rel, r)
            within += d <= tol.get("abs", 0.0) or r <= tol.get("rel", 0.0)
        if not moved:
            continue
        allowed = ", ".join(f"{k} {v:g}" for k, v in tol.items()) or "0"
        verdict = "within" if within == moved else "FAIL"
        ok = ok and within == moved
        report.append(f"{col}: {moved} of {len(pairs)} values differ, max "
                      f"abs {worst_abs:.1e}, max rel {worst_rel:.1e} "
                      f"(tolerance {allowed}): {verdict}")
    if not report:
        return False, ["the bytes differ, but no line or cell does"]
    return ok, report


def compare_runs(new: Run, old: Run, tolerance: dict):
    """Compare two runs of one entry, new against old: (ok, report)."""
    if new.code != old.code:
        return False, [f"exit {old.code} is now {new.code}"]
    if new.stderr.splitlines() != old.stderr.splitlines():
        return False, [f"stderr {old.stderr.splitlines()!r} is now "
                       f"{new.stderr.splitlines()!r}"]
    if new.output is None or old.output is None:
        if new.output is old.output:
            return True, []
        return False, ["only one side wrote a CSV"]
    return compare_outputs(new.output, old.output, tolerance)


def compare(tree, here=ROOT, manifest=MANIFEST) -> int:
    """Run every entry on here and on tree and compare them; print one
    line per entry and its report.  Returns 0 when every entry is equal
    or within its tolerances."""
    entries, tolerances = load(manifest)
    failed = []
    with tempfile.TemporaryDirectory(prefix="besseldt-e2e-") as work:
        for entry in entries:
            d = Path(work, entry["name"])
            new = run_once(here, entry, d / "new", threads=1)
            old = run_once(tree, entry, d / "old", threads=1)
            ok, report = compare_runs(
                new, old, tolerances.get(entry["experiment"], {}))
            status = ("identical" if not report
                      else "within" if ok else "FAIL")
            print(f"{status:9}  {entry['name']}", flush=True)
            for line in report:
                print(f"           {line}", flush=True)
            if not ok:
                failed.append(entry["name"])
    print(f"{len(entries) - len(failed)} of {len(entries)} entries equal or "
          f"within tolerance"
          + (f"; failed: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


# --------------------------------------------------------------------------
# time

def time_entries(tree, names=(), here=ROOT, manifest=MANIFEST,
                 pairs=TIME_PAIRS) -> int:
    """Time the entries named (every entry when none is) on here and on
    tree, in `pairs` pairs of runs at one BLAS thread: here first in the
    first pair, tree first in the next, and so on.  Print one line per
    entry with the median wall seconds of each side and their ratio, here
    over tree.  Returns 2 for a name that is no entry, 1 when a run exits
    with another code than its entry's, else 0."""
    entries, _ = load(manifest)
    unknown = sorted(set(names) - {e["name"] for e in entries})
    if unknown:
        print(f"no entry named {', '.join(unknown)}", file=sys.stderr)
        return 2
    failed = []
    print(f"{'entry':24} {'here s':>8} {'tree s':>8} {'here/tree':>9}")
    with tempfile.TemporaryDirectory(prefix="besseldt-e2e-") as work:
        for entry in entries:
            if names and entry["name"] not in names:
                continue
            walls, codes = ([], []), set()
            for k in range(pairs):
                for side in ((0, 1), (1, 0))[k % 2]:
                    start = time.perf_counter()
                    r = run_once((here, tree)[side], entry,
                                 Path(work, entry["name"], f"{k}_{side}"),
                                 threads=1)
                    walls[side].append(time.perf_counter() - start)
                    codes.add(r.code)
            mine, theirs = (statistics.median(w) for w in walls)
            print(f"{entry['name']:24} {mine:8.3f} {theirs:8.3f} "
                  f"{mine / theirs:9.3f}", flush=True)
            if codes != {entry["exit"]}:
                print(f"{'':24} FAIL: exit codes {sorted(codes)}, expected "
                      f"{entry['exit']}", flush=True)
                failed.append(entry["name"])
    return 1 if failed else 0


def main(argv) -> int:
    if argv == ["check"]:
        return check()
    if (argv[:1] == ["compare"] and len(argv) == 2
            or argv[:1] == ["time"] and len(argv) >= 2):
        tree = Path(argv[1])
        if not (tree / "src" / "besseldt").is_dir():
            print(f"{tree} holds no src/besseldt", file=sys.stderr)
            return 2
        if argv[0] == "time":
            return time_entries(tree, argv[2:])
        return compare(tree)
    print("usage: python e2e/run.py check | compare TREE | "
          "time TREE [NAME ...]", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
