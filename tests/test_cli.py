import argparse
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import besseldt
import besseldt.cli as cli
from besseldt.errors import (ConfigError, ContractError, NumericsError,
                             QuadratureError)
from besseldt.lab import ExperimentResult


def _ok_result():
    return ExperimentResult({"experiment": "kernel-eval"}, ["a", "b"],
                            [(1.0, 2.0)], {"points": 1})


def run_cli(monkeypatch, runner, tmp_path):
    monkeypatch.setitem(cli.EXPERIMENTS, "kernel-eval", runner)
    out = tmp_path / "out.csv"
    code = cli.main(["kernel-eval", "--out", str(out)])
    return code, out


def test_exit_zero_and_csv(monkeypatch, tmp_path, capsys):
    code, out = run_cli(monkeypatch, lambda cfg: _ok_result(), tmp_path)
    assert code == 0
    assert out.exists()
    captured = capsys.readouterr()
    assert "wrote" in captured.out
    assert captured.err == ""


def test_exit_two_on_tolerance_failure(monkeypatch, tmp_path, capsys):
    res = _ok_result()
    res.tolerance_failures.append("defect 1e-3 > 1e-6")
    code, out = run_cli(monkeypatch, lambda cfg: res, tmp_path)
    assert code == 2
    assert out.exists()          # rows are still written for inspection
    assert "tolerance failure" in capsys.readouterr().err


def test_exit_three_on_contract_failure(monkeypatch, tmp_path, capsys):
    res = _ok_result()
    res.contract_failures.append("ratio grew with window length")
    code, _ = run_cli(monkeypatch, lambda cfg: res, tmp_path)
    assert code == 3
    assert "contract failure" in capsys.readouterr().err


@pytest.mark.parametrize("exc,code", [
    (ConfigError("bad"), 1),
    (NumericsError("tail bound failed"), 2),
    (ContractError("identity broken"), 3),
    (ValueError("t must be positive"), 1),
    (QuadratureError("panel layout of [0, 8] needs 401 panels, above the "
                     "budget of 400"), 2),
])
def test_exception_to_exit_code(monkeypatch, tmp_path, exc, code):
    def boom(cfg):
        raise exc
    got, _ = run_cli(monkeypatch, boom, tmp_path)
    assert got == code


def test_config_experiment_mismatch(tmp_path, capsys):
    path = tmp_path / "c.cfg"
    path.write_text("experiment = transform\n")
    code = cli.main(["kernel-eval", "--config", str(path)])
    assert code == 1
    assert "subcommand" in capsys.readouterr().err


@pytest.mark.parametrize("keys,message", [
    ("n1 = 3\nn2 = 1\n", "window needs n1 < n2"),
    ("n1 = -10\n", "outside the pair range"),
    ("m = 10\n", "inside the pair range"),
], ids=["n1-above-n2", "n1-below-j_min", "m-beyond-j_max"])
def test_window_outside_range_is_config_error(tmp_path, capsys, keys,
                                              message):
    path = tmp_path / "t.cfg"
    path.write_text("experiment = transform\n" + keys)
    code = cli.main(["transform", "--config", str(path),
                     "--out", str(tmp_path / "t.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: line 2: ")
    assert message in err
    assert err.count("\n") == 1
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("lam", ["45", "41.5", "0.3"])
def test_hankel_check_lambda_outside_bessel_range(tmp_path, capsys, lam):
    # lambda = 45 used to exit 2 with spectral_vs_direct = 1.7e13 and
    # lambda = 0.3 to stop on "nu must be nonnegative"
    path = tmp_path / "h.cfg"
    path.write_text(f"experiment = hankel-check\nlambda = {lam}\n")
    code = cli.main(["hankel-check", "--config", str(path),
                     "--out", str(tmp_path / "h.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: line 2: ")
    assert "1/2 <= lambda <= 41" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "h.csv").exists()


def test_repeated_bound_item_exits_one(tmp_path, capsys):
    # a repeated item used to write its rows again
    path = tmp_path / "b.cfg"
    path.write_text("experiment = bounds-suite\nitems = iv, i, iv\n")
    code = cli.main(["bounds-suite", "--config", str(path),
                     "--out", str(tmp_path / "b.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: line 2: items names a bound item "
                          "twice")
    assert err.endswith("got iv,i,iv\n")
    assert err.count("\n") == 1
    assert not (tmp_path / "b.csv").exists()


def test_unreadable_config(tmp_path, capsys):
    code = cli.main(["kernel-eval", "--config", str(tmp_path / "none.cfg")])
    assert code == 1
    assert "cannot read config" in capsys.readouterr().err


def test_non_utf8_config(tmp_path, capsys):
    path = tmp_path / "c.cfg"
    path.write_bytes(b"\xff\xfe bad bytes")
    code = cli.main(["kernel-eval", "--config", str(path)])
    assert code == 1
    assert "not UTF-8" in capsys.readouterr().err


def test_malformed_config_line(tmp_path, capsys):
    path = tmp_path / "c.cfg"
    path.write_text("experiment = kernel-eval\nwhat now\n")
    code = cli.main(["kernel-eval", "--config", str(path)])
    assert code == 1
    assert "line 2" in capsys.readouterr().err


def test_subcommand_help_is_the_runner_docstring():
    parser = cli._build_parser()
    [sub] = [a for a in parser._actions
             if isinstance(a, argparse._SubParsersAction)]
    helps = {a.dest: a.help for a in sub._choices_actions}
    assert list(helps) == list(cli.EXPERIMENTS)
    for name, run in cli.EXPERIMENTS.items():
        first = run.__doc__.split("\n\n")[0]
        assert first and helps[name] == first
    # argparse formats help text with %, so a stray one would raise here
    text = parser.format_help()
    assert all(name in text for name in cli.EXPERIMENTS)


# -- end-to-end through a real interpreter ----------------------------------

# The directory that holds the imported package. A relative PYTHONPATH
# entry (``PYTHONPATH=src``) would resolve against the child's cwd instead.
PACKAGE_ROOT = str(Path(besseldt.__file__).resolve().parent.parent)


def run_sub(args, cwd):
    """Run the CLI in a fresh interpreter that imports this same besseldt."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (PACKAGE_ROOT + os.pathsep + inherited if inherited
                         else PACKAGE_ROOT)
    return subprocess.run([sys.executable, "-m", "besseldt.cli", *args],
                          cwd=cwd, env=env, capture_output=True, text=True)


def data_rows(path):
    """The CSV lines below the ``#`` meta block."""
    return [line for line in path.read_text(encoding="utf-8").splitlines()
            if not line.startswith("#")]


def test_subprocess_kernel_eval(tmp_path):
    cfg = tmp_path / "k.cfg"
    cfg.write_text("experiment = kernel-eval\nt_list = 1\n"
                   "x_list = 0.5, 2\ny_list = 1\n")
    proc = run_sub(["kernel-eval", "--config", str(cfg)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    # default output path is <experiment>.csv in the working directory
    out = tmp_path / "kernel-eval.csv"
    assert out.exists()
    text = out.read_text(encoding="utf-8")
    assert text.startswith("# experiment = kernel-eval")
    assert "t,x,y,p,dp_dt,dp_dx,dp_dy" in text


def test_subprocess_determinism_and_seed(tmp_path):
    cfg = tmp_path / "b.cfg"
    cfg.write_text("experiment = bounds-suite\nitems = i\nn_points = 8\n")
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    for out, seed in ((a, "5"), (b, "5"), (c, "6")):
        proc = run_sub(["bounds-suite", "--config", str(cfg),
                        "--out", str(out), "--seed", seed], tmp_path)
        assert proc.returncode == 0, proc.stderr
    assert a.read_bytes() == b.read_bytes()
    # the seed must reach the sampled points, not only the meta line
    assert data_rows(a) != data_rows(c)


def test_window_size_alone_skips_the_gradient(tmp_path, capsys):
    # the size item must not evaluate the derivative window kernels
    def run(lam, items):
        cfg = tmp_path / "w.cfg"
        cfg.write_text("experiment = bounds-suite\nn_points = 1000\n"
                       f"dilation = 10\nlambda_list = {lam}\n"
                       f"items = {items}\n")
        out = tmp_path / "w.csv"
        code = cli.main(["bounds-suite", "--config", str(cfg),
                         "--out", str(out), "--seed", "1"])
        assert code == 0, capsys.readouterr().err
        return data_rows(out)

    run(0.3, "window_size")
    size = run(0.6, "window_size")
    both = run(0.6, "window_size, window_gradient")
    assert len(size) == 4
    assert size == [row for row in both if "window_gradient" not in row]


def test_window_gradient_at_small_lambda(tmp_path, capsys):
    # the derivative window kernels at lambda = 0.3 on a sweep that once
    # failed to converge under angular quadrature: exit 0, finite constants
    # that survive the 1e-10 dilation check
    cfg = tmp_path / "g.cfg"
    cfg.write_text("experiment = bounds-suite\nlambda_list = 0.3\n"
                   "items = window_size,window_gradient\nn_points = 1000\n"
                   "dilation = 10\n")
    out = tmp_path / "g.csv"
    code = cli.main(["bounds-suite", "--config", str(cfg), "--out", str(out),
                     "--seed", "1"])
    assert code == 0, capsys.readouterr().err
    rows = [line.split(",") for line in data_rows(out)[1:]]
    assert [r[1] for r in rows] == ["window_size"] * 3 + ["window_gradient"]
    for row in rows:
        assert all(math.isfinite(float(v)) and float(v) > 0
                   for v in row[3:]), row


def test_unattainable_tail_exits_two_without_traceback(tmp_path):
    # at dilation 1e300 the radial end of the dilated l1diff integrals
    # would overflow to inf; it is a numerical failure with one line
    cfg = tmp_path / "d.cfg"
    cfg.write_text("experiment = l1diff\ndilation = 1e300\n")
    proc = run_sub(["l1diff", "--config", str(cfg),
                    "--out", str(tmp_path / "d.csv")], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("numerical failure: tail truncation needs")
    assert proc.stderr.count("\n") == 1


def test_unwritable_output_exits_one_without_traceback(tmp_path):
    out = tmp_path / "no" / "such" / "k.csv"
    proc = run_sub(["kernel-eval", "--out", str(out)], tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("config error: cannot write output: ")
    assert proc.stderr.count("\n") == 1


def test_help_builds_without_docstrings(tmp_path):
    # python -OO strips the docstrings the subcommand help comes from
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    proc = subprocess.run([sys.executable, "-OO", "-m", "besseldt.cli",
                           "--help"], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert all(name in proc.stdout for name in cli.EXPERIMENTS)


@pytest.mark.parametrize("exp, config, special", [
    # the lambda = 1 rules and front factors are literals; l1diff reads
    # the Gauss-Jacobi rule of its panel at 0
    ("kernel-eval", "", False),
    ("transform", "", False),
    ("l1diff", "", False),
    # off lambda = 1 the import moves to first use
    ("kernel-eval", "lambda = 1.5\n", True),
])
def test_scipy_special_loads_only_off_lambda_one(tmp_path, exp, config,
                                                  special):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"experiment = {exp}\n{config}")
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m",
                           "besseldt.cli", exp, "--config", str(cfg),
                           "--out", str(tmp_path / "c.csv")],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    # the modules named by the import-time log
    imported = {line.rsplit("|", 1)[-1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert ("scipy.special" in imported) == special


@pytest.mark.parametrize("config, x", [
    # the weight y^40 folded into the radial rule overflows at the tail end
    ("experiment = l1diff\nlambda = 20\n", "0.01"),
    # A^(1 - lambda) overflows at t = x = 2^-16, on the SemigroupTable ->
    # apply_at path of transform, uniform-l2 and weighted
    ("experiment = loggrowth\nlambda = 50\n", "1.52588e-05"),
], ids=["l1diff", "loggrowth"])
def test_non_finite_radial_sum_exits_two(tmp_path, capsys, config, x):
    # a non-finite radial sum used to reach the CSV as nan rows (exit 0)
    cfg = tmp_path / "r.cfg"
    cfg.write_text(config)
    out = tmp_path / "r.csv"
    code = cli.main([config.split()[2], "--config", str(cfg),
                     "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err == f"numerical failure: radial sum at x = {x} is not finite\n"
    assert not out.exists()


@pytest.mark.parametrize("exp", ["uniform-l2", "weighted"])
def test_non_finite_norm_ratio_exits_two(tmp_path, capsys, exp):
    # at lambda = 50 the norms' power grid_hi^(2 lambda + 3) overflows; the
    # runs used to print two RuntimeWarnings, write a CSV of nan ratios and
    # exit 3 as a contract failure
    cfg = tmp_path / "n.cfg"
    cfg.write_text(f"experiment = {exp}\nlambda = 50\nf_count = 1\n"
                   "grid_points = 8\n")
    out = tmp_path / "n.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([exp, "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("numerical failure: max ratio is not finite: ")
    assert err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("config, line", [
    # a gap's panel count, 1.85e43 at rho = 1e30, used to wrap negative in
    # an int64, pass the budget and fail in np.repeat as a config error
    ("experiment = uniform-l2\nrho = 1e30\nf_count = 1\ngrid_points = 4\n"
     "windows = 2\nj_min = -2\nj_max = 2\n",
     "numerical failure: panel layout of "),
    # the dilated constants overflowed to nan and were written (exit 0)
    ("experiment = bounds-suite\ndilation = 1e300\nn_points = 30\n",
     "numerical failure: constant i/all at lambda = 1 is 1.27"),
    # at the top of the accepted lambda the dilated window constant
    # overflows to nan
    ("experiment = bounds-suite\nlambda_list = 50\ndilation = 10\n"
     "n_points = 8\n",
     "numerical failure: constant window_size/all at lambda = 50 is "
     "14100042096."),
], ids=["panel-count", "dilated-constant", "constant"])
def test_overflow_exits_two_with_one_line(tmp_path, capsys, config, line):
    cfg = tmp_path / "o.cfg"
    cfg.write_text(config)
    out = tmp_path / "o.csv"
    with warnings.catch_warnings():
        # numpy's overflow warnings would reach stderr beside the line
        warnings.simplefilter("error")
        code = cli.main([config.split()[2], "--config", str(cfg),
                         "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith(line) and err.count("\n") == 1, err
    assert err.rstrip().endswith(("above the budget of 400", "dilated nan"))
    assert not out.exists()


def test_non_finite_kernel_value_exits_two_without_traceback(tmp_path):
    # at x = y = 1e200 the closed forms of the derivatives overflow to
    # nan; the run stops with one line instead of writing nan rows
    cfg = tmp_path / "k.cfg"
    cfg.write_text("experiment = kernel-eval\nx_list = 1e200\n"
                   "y_list = 1e200\n")
    out = tmp_path / "k.csv"
    proc = run_sub(["kernel-eval", "--config", str(cfg), "--out", str(out)],
                   tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("numerical failure: kernel value dt at ")
    assert proc.stderr.count("\n") == 1
    assert not out.exists()
