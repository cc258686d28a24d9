"""The end-to-end manifest and its runner, e2e/run.py: every entry's config
against the parser, the runner's invariants on a fake package whose CLI
misbehaves on purpose, and compare's column logic on hand-made CSVs."""

import importlib.util
import sys
from pathlib import Path

import pytest

from besseldt.errors import ConfigError
from besseldt.lab import EXPERIMENTS, parse_config

_RUNNER = Path(__file__).resolve().parents[1] / "e2e" / "run.py"
_spec = importlib.util.spec_from_file_location("e2e_run", _RUNNER)
run = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = run
_spec.loader.exec_module(run)

ENTRIES, TOLERANCES = run.load()


# --------------------------------------------------------------------------
# the manifest

def test_manifest_states_only_the_measured_tolerances():
    assert {(exp, col) for exp, cols in TOLERANCES.items() for col in cols} \
        == {("weighted", "stability"), ("uniform-l2", "ratio")}


def test_every_default_is_an_entry_with_repeat():
    for exp in EXPERIMENTS:
        e = next(e for e in ENTRIES if e["name"] == exp)
        assert (e["experiment"], e["config"], e["seed"], e["exit"]) \
            == (exp, "", 0, 0)
        assert "repeat" in e["checks"]


@pytest.mark.parametrize("entry", [e for e in ENTRIES if e["experiment"]],
                         ids=lambda e: e["name"])
def test_manifest_config_parses(entry):
    text = run.config_text(entry)
    if entry["exit"] == 1:
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert f"config error: {info.value}".startswith(entry["stderr"])
    else:
        assert parse_config(text).experiment == entry["experiment"]


@pytest.mark.parametrize("text,message", [
    ('[[run]]\nname = "a"\nexperiment = "x"\n'
     '[[run]]\nname = "a"\nexperiment = "x"\n', "not unique"),
    ('[[run]]\nname = "a"\nexperiment = "x"\nchecks = ["repaet"]\n',
     "unknown checks"),
    ('[[run]]\nname = "a"\nexperiment = "x"\nexit = 2\n', "stderr line"),
    ('[[run]]\nname = "a"\nexperiment = "x"\n'
     'same_rows = { entry = "b" }\n'
     '[[run]]\nname = "b"\nexperiment = "x"\n', "no earlier entry"),
    ('[[run]]\nname = "a"\nscript = "s.py"\nseed = 1\n', "a script takes"),
    ('[[run]]\nname = "a"\n', "one of experiment and script"),
])
def test_load_rejects_a_malformed_entry(tmp_path, text, message):
    path = tmp_path / "manifest.toml"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        run.load(path)


# --------------------------------------------------------------------------
# check, on a fake package

# A stand-in for besseldt.cli: the experiment name picks how it misbehaves.
# It writes its config (seed aside) as the meta block, then the header a,b
# and the config's row* values as data rows.
FAKE_CLI = '''\
import argparse, os, random, sys
VERSION = "1.0"
p = argparse.ArgumentParser()
p.add_argument("experiment")
p.add_argument("--config")
p.add_argument("--out")
p.add_argument("--seed")
a = p.parse_args()
with open(a.config) as fh:
    cfg = dict(line.split(" = ", 1) for line in fh.read().splitlines())
seed = cfg.pop("seed", None) if a.seed is None else a.seed
exp = a.experiment
if exp == "scipy":
    import scipy
if exp.startswith("fail"):
    if exp == "fail_csv":
        open(a.out, "w").close()
    print("numerical failure: bad", file=sys.stderr)
    if exp == "fail_two":
        print("a second line", file=sys.stderr)
    sys.exit(2)
cfg["seed"] = a.seed if exp == "meta" else seed
rows = [v for k, v in cfg.items() if k.startswith("row")]
if exp == "random":
    rows.append(repr(random.random()))
if exp == "threads":
    rows.append(os.environ.get("OPENBLAS_NUM_THREADS", ""))
if exp == "version":
    rows.append(VERSION)
with open(a.out, "w") as fh:
    fh.write("".join(f"# {k} = {v}\\n" for k, v in cfg.items()))
    fh.write("a,b\\n" + "".join(f"{r},0\\n" for r in rows))
'''


def fake_tree(root: Path, version="1.0") -> Path:
    src = root / "src"
    (src / "besseldt").mkdir(parents=True)
    (src / "scipy").mkdir()
    (src / "besseldt" / "__init__.py").write_text("")
    (src / "scipy" / "__init__.py").write_text("")
    (src / "besseldt" / "cli.py").write_text(
        FAKE_CLI.replace('"1.0"', repr(version)))
    return root


def manifest(tmp_path, text) -> Path:
    path = tmp_path / "manifest.toml"
    path.write_text(text)
    return path


def check_one(tmp_path, text):
    """The failures of the last entry of the manifest text, after the ones
    before it, run on the fake package."""
    tree = fake_tree(tmp_path / "tree")
    entries, _ = run.load(manifest(tmp_path, text))
    outputs = {}
    for e in entries:
        fails = run.check_entry(tree, e, tmp_path / "work", outputs)
    return fails


def test_check_passes_a_good_entry(tmp_path):
    assert check_one(tmp_path, '''
[[run]]
name = "good"
experiment = "good"
config = "row1 = 1.5"
seed = 3
checks = ["repeat", "threads", "rerun_meta", "no_scipy"]
''') == []


@pytest.mark.parametrize("experiment,extra,failure", [
    ("random", 'checks = ["repeat"]', "repeat: a second run gave other"),
    ("threads", 'checks = ["threads"]', "threads: 2 BLAS threads"),
    ("meta", 'checks = ["rerun_meta"]', "rerun_meta: the meta block"),
    ("scipy", 'checks = ["no_scipy"]', "no_scipy: imported scipy"),
    ("fail_csv", 'exit = 2\nstderr = "numerical failure: bad"',
     "a failing run left out.csv"),
    ("fail_two", 'exit = 2\nstderr = "numerical failure: bad"',
     "stderr ['numerical failure: bad', 'a second line']"),
    ("fail", 'exit = 2\nstderr = "numerical failure: good"',
     "expected one line that starts 'numerical failure: good'"),
    ("good", 'exit = 2\nstderr = "numerical failure: bad"',
     "exit 0, expected 2"),
])
def test_check_fails_each_broken_invariant(tmp_path, experiment, extra,
                                           failure):
    fails = check_one(tmp_path, f'''
[[run]]
name = "x"
experiment = "{experiment}"
{extra}
''')
    assert len(fails) == 1 and failure in fails[0], fails


def test_check_passes_a_failing_run_by_the_start_of_its_line(tmp_path):
    assert check_one(tmp_path, '''
[[run]]
name = "x"
experiment = "fail"
exit = 2
stderr = "numerical failure: "
''') == []


@pytest.mark.parametrize("threads", [None, "1", "2"])
def test_check_runs_at_the_environment_thread_count(tmp_path, monkeypatch,
                                                    threads):
    # the main run inherits the environment's BLAS thread count; the
    # threads invariant sets 1 and 2 itself, whatever the environment holds
    if threads is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
    tree = fake_tree(tmp_path / "tree")
    entries, _ = run.load(manifest(tmp_path, '''
[[run]]
name = "x"
experiment = "threads"
checks = ["threads"]
'''))
    outputs = {}
    fails = run.check_entry(tree, entries[0], tmp_path / "work", outputs)
    assert fails == ["threads: 2 BLAS threads gave other bytes than 1"]
    assert outputs["x"].decode().splitlines()[-1] == f"{threads or ''},0"


@pytest.mark.parametrize("select,failure", [
    ('match = "^1,"', None),
    ('rows = ":1"', None),
    ('match = "^2,"', "same_rows: its 1 selected rows are not a's"),
    ('rows = "1:"', "same_rows: its 1 selected rows are not a's"),
    ('match = "^9,"', "same_rows: selects no row"),
])
def test_check_same_rows(tmp_path, select, failure):
    fails = check_one(tmp_path, f'''
[[run]]
name = "a"
experiment = "good"
config = """
row1 = 1
row2 = 3
"""

[[run]]
name = "b"
experiment = "good"
config = """
row1 = 1
row2 = 2
"""
same_rows = {{ entry = "a", {select} }}
''')
    assert fails == ([] if failure is None else [failure])


def test_check_reports_every_entry(tmp_path, capsys):
    tree = fake_tree(tmp_path / "tree")
    path = manifest(tmp_path, '''
[[run]]
name = "good"
experiment = "good"
checks = ["repeat"]

[[run]]
name = "random"
experiment = "random"
checks = ["repeat"]
''')
    assert run.check(tree, path) == 1
    out = capsys.readouterr().out
    assert "ok    good" in out and "FAIL  random" in out
    assert "1 of 2 entries pass; failed: random" in out


# --------------------------------------------------------------------------
# compare

def test_compare_trees(tmp_path, capsys):
    text = '''
[[run]]
name = "v"
experiment = "version"
config = "row1 = 2"

[[run]]
name = "f"
experiment = "fail"
exit = 2
stderr = "numerical failure: bad"
'''
    path = manifest(tmp_path, text)
    base = fake_tree(tmp_path / "base")
    same = fake_tree(tmp_path / "same")
    drift = fake_tree(tmp_path / "drift", version="1.0000000000000002")
    assert run.compare(base, same, path) == 0
    out = capsys.readouterr().out
    assert "identical  v" in out and "identical  f" in out
    assert run.compare(base, drift, path) == 1
    out = capsys.readouterr().out
    assert "FAIL       v" in out
    assert "a: 1 of 2 values differ, max abs 2.2e-16, max rel 2.2e-16 " \
           "(tolerance 0): FAIL" in out


CSV = b"""\
# experiment = weighted
# lambda = 1
k,item,ratio,stability
1,i,0.5,2e-05
2,ii,1.25,0.75
"""


def edit(old, new, text=CSV):
    assert old in text
    return text.replace(old, new)


def test_compare_identical_bytes():
    assert run.compare_outputs(CSV, CSV, {}) == (True, [])


@pytest.mark.parametrize("new,names", [
    (edit(b"0.5,", b"0.50000000000000011,"), "ratio: 1 of 2 values differ"),
    (edit(b"2,ii", b"3,ii"), "k: 1 of 2 values differ, first 2 -> 3"),
    (edit(b",ii,", b",iv,"), "item: 1 of 2 values differ, first ii -> iv"),
    (edit(b"1.25", b"nan"), "ratio: 1 of 2 values differ, max abs inf"),
    (edit(b"lambda = 1", b"lambda = 1.5"),
     "meta line '# lambda = 1' is now '# lambda = 1.5'"),
    (edit(b"k,item", b"j,item"), "header k,item,ratio,stability is now"),
    (edit(b"2,ii,1.25,0.75\n", b""), "2 rows are now 1"),
    (CSV.replace(b"\n", b"\r\n"), "the bytes differ, but no line"),
])
def test_compare_fails_and_names(new, names):
    ok, report = run.compare_outputs(new, CSV, {})
    assert not ok
    assert any(line.startswith(names) for line in report), report


def test_compare_reports_drift_within_tolerance():
    new = edit(b"2e-05", b"2.0000000000000005e-05")
    ok, report = run.compare_outputs(new, CSV, {"stability": {"abs": 1e-14}})
    assert ok
    assert report == ["stability: 1 of 2 values differ, max abs 3.4e-21, "
                      "max rel 1.7e-16 (tolerance abs 1e-14): within"]
    ok, report = run.compare_outputs(new, CSV, {"stability": {"rel": 1e-17}})
    assert not ok and report[0].endswith("(tolerance rel 1e-17): FAIL")
    # a tolerance of one column covers no other
    new = edit(b"0.5,", b"0.50000000000000011,", new)
    ok, report = run.compare_outputs(new, CSV, {"stability": {"abs": 1e-14}})
    assert not ok and report[0].startswith("ratio:") \
        and report[0].endswith("FAIL")


def test_compare_runs_exit_codes_and_stderr():
    a = run.Run(2, "numerical failure: x\n", None, [])
    assert run.compare_runs(a, a, {}) == (True, [])
    assert not run.compare_runs(run.Run(1, a.stderr, None, []), a, {})[0]
    assert not run.compare_runs(run.Run(2, "numerical failure: y\n", None,
                                        []), a, {})[0]
    assert not run.compare_runs(run.Run(2, a.stderr, CSV, []), a, {})[0]


# --------------------------------------------------------------------------
# time

TIMED = '''
[[run]]
name = "v"
experiment = "version"

[[run]]
name = "f"
experiment = "fail"
exit = 2
stderr = "numerical failure: bad"
'''


def test_time_alternates_the_trees_at_one_thread(tmp_path, monkeypatch,
                                                 capsys):
    here, tree = fake_tree(tmp_path / "here"), fake_tree(tmp_path / "tree")
    path = manifest(tmp_path, TIMED)
    calls, real = [], run.run_once

    def record(side, entry, cwd, threads=None, **kw):
        calls.append((side, entry["name"], threads))
        return real(side, entry, cwd, threads, **kw)

    monkeypatch.setattr(run, "run_once", record)
    assert run.time_entries(tree, (), here, path, pairs=3) == 0
    assert calls == [(side, name, 1) for name in ("v", "f")
                     for side in (here, tree, tree, here, here, tree)]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["entry", "here", "s", "tree", "s",
                                "here/tree"]
    assert [line.split()[0] for line in lines[1:]] == ["v", "f"]
    for line in lines[1:]:
        mine, theirs, ratio = map(float, line.split()[1:])
        # each printed to three decimals
        assert abs(ratio * theirs - mine) <= 1e-3 * (ratio + theirs + 1.0)


def test_time_names_entries_and_fails_on_exit_codes(tmp_path, capsys):
    here, tree = fake_tree(tmp_path / "here"), fake_tree(tmp_path / "tree")
    path = manifest(tmp_path, TIMED)
    assert run.time_entries(tree, ("f",), here, path, pairs=1) == 0
    assert [line.split()[0] for line in
            capsys.readouterr().out.splitlines()[1:]] == ["f"]
    assert run.time_entries(tree, ("v", "x"), here, path, pairs=1) == 2
    assert "no entry named x" in capsys.readouterr().err
    wrong = manifest(tmp_path, TIMED.replace('"fail"', '"good"'))
    assert run.time_entries(tree, ("f",), here, wrong, pairs=1) == 1
    assert "FAIL: exit codes [0], expected 2" in capsys.readouterr().out
