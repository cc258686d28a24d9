import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import besseldt
import besseldt.cli as cli
import besseldt.transform as transform_mod
from besseldt.errors import ConfigError
from besseldt.hankel import NU_MAX
from besseldt.kernel import LAM_MAX
from besseldt.lab import (EXPERIMENTS, _fmt, _parse_floats, _spearman,
                          emit_csv, parse_config, resolve_f, resolve_v,
                          run_bounds_suite, run_kernel_eval)
from besseldt.quadrature import QuadratureSpec


def test_parse_config_full():
    cfg = parse_config(
        "# kernel tabulation\n"
        "experiment = kernel-eval\n"
        "lambda = 0.75   # inline comment\n"
        "seed = 7\n"
        "\n"
        "t_list = 0.5, 1, 2\n"
        "x_list = geometric:0.25,2,3\n"
        "out = run.csv\n")
    assert cfg.experiment == "kernel-eval"
    assert cfg["lambda"] == 0.75
    assert cfg["seed"] == 7
    assert cfg["t_list"] == (0.5, 1.0, 2.0)
    assert cfg["x_list"] == (0.25, 0.5, 1.0)
    assert cfg.out == "run.csv"
    # unset keys hold their defaults; keys of other experiments are absent
    assert cfg["y_list"] == tuple(np.geomspace(0.1, 10.0, 5))
    assert "grid_points" not in cfg.values and "out" not in cfg.values
    # closed form: no quadrature keys, in the config or its meta block
    assert "y_nodes" not in cfg.values and "abs_tol" not in cfg.values


def test_parse_config_key_aliases():
    # keys are read under their config names
    cfg = parse_config("experiment = transform\nv = alternating\n"
                       "f = indicator:1\nm = 4\n")
    assert cfg["v"] == "alternating"
    assert cfg["f"] == "indicator:1"
    assert cfg["m"] == 4
    # m is the one optional key: unset, transform has no t_star column
    assert "m" not in parse_config("experiment = transform\n").values
    # bmo's index range is derived from its window count
    bmo = parse_config("experiment = bmo\nwindows = 2\n")
    assert (bmo["j_min"], bmo["j_max"]) == (-6, 6)
    assert parse_config("experiment = bmo\nj_min = -20\n")["j_max"] == 9
    # k_lo = k_hi is a dyadic family of one center, not an empty one
    assert parse_config("experiment = bmo\nk_lo = 2\nk_hi = 2\n")["k_lo"] == 2


@pytest.mark.parametrize("text,needle", [
    ("experiment=kernel-eval\nbogus line\n", "line 2"),
    ("experiment=kernel-eval\nnot_a_key = 3\n", "unknown key"),
    ("experiment=kernel-eval\nseed=1\nseed=2\n", "duplicate key"),
    ("experiment=kernel-eval\nlambda = abc\n", "bad value"),
    ("experiment=kernel-eval\nlambda = nan\n", "bad value"),
    ("seed = 1\n", "missing required key"),
    ("experiment = fourier\n", "unknown experiment"),
    ("experiment=kernel-eval\nrho = 3\n", "not used by experiment"),
    ("experiment=kernel-eval\n= 3\n", "empty key"),
])
def test_parse_config_rejects(text, needle):
    with pytest.raises(ConfigError, match=needle):
        parse_config(text)


def test_parse_config_error_carries_line_number():
    with pytest.raises(ConfigError, match="line 4"):
        parse_config("experiment = kernel-eval\n# fine\nseed = 1\n???\n")


@pytest.mark.parametrize("text,needle", [
    ("experiment=kernel-eval\nlambda = -1\n", "lambda must be positive"),
    ("experiment=transform\nrho = 1\n", "rho must exceed 1"),
    ("experiment=loggrowth\np = 0.5\n", "p must be"),
    ("experiment=transform\nj_min = 3\nj_max = 2\n", "j_min < j_max"),
    ("experiment=transform\ngrid_lo = 0\n", "grid_lo must be positive"),
    ("experiment=transform\ngrid_lo = 5\ngrid_hi = 2\n",
     "grid_lo < grid_hi"),
    ("experiment=transform\ngrid_points = 1\n", "at least 2"),
    ("experiment=hankel-check\nt = -2\n", "t must be positive"),
    # the Bessel order lambda - 1/2 of the Hankel route must lie in
    # [0, 40.5], where normalized_bessel is validated
    ("experiment=hankel-check\nlambda = 45\n", "1/2 <= lambda <= 41"),
    ("experiment=hankel-check\nlambda = 0.3\n", "1/2 <= lambda <= 41"),
    # the kernel's 2F1 tables are checked up to lambda = 50; above it the
    # kernel was up to 1.7e9 times off and these runs exited 0
    *((f"experiment={exp}\nlambda = 50.5\n",
       "line 2: lambda must be positive and at most 50, got 50.5")
      for exp in ("kernel-eval", "bounds-suite", "transform", "loggrowth",
                  "uniform-l2", "weighted", "bmo", "l1diff")),
    ("experiment=bounds-suite\nlambda_list = 1, 60\n",
     "line 2: lambda_list must be positive and at most 50, got 60.0"),
    ("experiment=kernel-eval\nt_list = 1, -3\n", "must be positive"),
    ("experiment=bounds-suite\nlambda_list = 0.5, 0\n", "must be positive"),
    # counts and ranges that a runner would otherwise replace by defaults
    ("experiment=uniform-l2\nf_count = 0\n", "f_count must be at least 1"),
    ("experiment=weighted\nf_count = -2\n", "f_count must be at least 1"),
    ("experiment=uniform-l2\nwindows = 0\n", "windows must be at least 1"),
    ("experiment=bmo\nwindows = 0\n", "windows must be at least 1"),
    ("experiment=bounds-suite\nn_points = 0\n", "n_points must be at least 1"),
    ("experiment=hankel-check\nn_y = 0\n", "n_y must be at least 1"),
    # fewer frequencies cannot resolve H f in the Plancherel check
    ("experiment=hankel-check\nn_y = 8\n", "n_y must be at least 16"),
    ("experiment=hankel-check\nn_y = 15\n", "n_y must be at least 16"),
    # the kernel derivatives are closed form; the angular rule is gone
    ("experiment=kernel-eval\ntheta_nodes = 0\n",
     "key 'theta_nodes' was removed"),
    # the radial Gauss rule needs 4 nodes per panel (QuadratureSpec)
    ("experiment=transform\ny_nodes = 0\n",
     "line 2: y_nodes must be at least 4"),
    ("experiment=transform\ny_nodes = 2\n",
     "line 2: y_nodes must be at least 4"),
    ("experiment=transform\ny_nodes = 3\n",
     "line 2: y_nodes must be at least 4"),
    # the closed-form experiments build no QuadratureSpec
    ("experiment=kernel-eval\ny_nodes = 16\n",
     "line 2: key 'y_nodes' is not used by experiment 'kernel-eval'"),
    ("experiment=kernel-eval\nabs_tol = 1e-9\n",
     "line 2: key 'abs_tol' is not used by experiment 'kernel-eval'"),
    ("experiment=bounds-suite\ny_nodes = 8\n",
     "line 2: key 'y_nodes' is not used by experiment 'bounds-suite'"),
    ("experiment=bounds-suite\nabs_tol = 1e-3\n",
     "line 2: key 'abs_tol' is not used by experiment 'bounds-suite'"),
    ("experiment=bounds-suite\nt_lo = 0\n", "t_lo must be positive"),
    ("experiment=bounds-suite\nt_hi = -1\n", "t_hi must be positive"),
    ("experiment=bounds-suite\nxy_lo = 0\n", "xy_lo must be positive"),
    ("experiment=bounds-suite\nxy_hi = 0\n", "xy_hi must be positive"),
    ("experiment=bounds-suite\nt_lo = 5\nt_hi = 2\n", "t_lo < t_hi"),
    ("experiment=bounds-suite\nt_lo = 500\n", "t_lo < t_hi"),
    ("experiment=bounds-suite\nxy_lo = 1\nxy_hi = 1\n", "xy_lo < xy_hi"),
    ("experiment=kernel-eval\nrel_tol = 1e-3\n",
     "line 2: key 'rel_tol' was removed"),
    # reals must be finite (only p takes inf); each of these once ran
    # forever, wrote nan rows or ended in a traceback
    ("experiment=transform\ngrid_hi = inf\n",
     "line 2: bad value for 'grid_hi': inf is not finite"),
    ("experiment=kernel-eval\nt_list = inf\n",
     "line 2: bad value for 't_list': inf is not finite"),
    ("experiment=kernel-eval\nx_list = geometric:1,2,100000\n",
     "line 2: bad value for 'x_list': geometric spec overflows"),
    ("experiment=bounds-suite\nt_hi = inf\n",
     "line 2: bad value for 't_hi': inf is not finite"),
    ("experiment=transform\nf = bump:1\n",
     "line 2: bad value for 'f': .*bump takes 2 to 3 numbers, got 1"),
    ("experiment=weighted\np = -inf\n", "line 2: .*-inf is not finite"),
    # an empty list is an error, not a request for the default
    ("experiment=kernel-eval\nx_list =\n", "line 2: .*'x_list': empty list"),
    ("experiment=kernel-eval\nt_list =\n", "line 2: .*'t_list': empty list"),
    ("experiment=loggrowth\nr_list =\n", "line 2: .*'r_list': empty list"),
    ("experiment=bounds-suite\nlambda_list =\n",
     "line 2: .*'lambda_list': empty list"),
    # cross-key checks run on resolved values, defaults included
    ("experiment=l1diff\nj_min = 5\n", "line 2: needs j_min < j_max"),
    ("experiment=uniform-l2\nj_min = 9\n",
     "line 2: .*needs j_max - j_min >= 2"),
    ("experiment=transform\ngrid_lo = 500\n", "line 2: .*grid_lo < grid_hi"),
    ("experiment=uniform-l2\nj_max = 3\nv = 1, 2\n",
     "line 3: explicit v has 2 entries"),
    # the involution row samples H f on [y_max 1e-5, y_max]
    ("experiment=hankel-check\ny_max = 0\n",
     "line 2: y_max must be positive, got 0"),
    ("experiment=hankel-check\ny_max = -10\n",
     "line 2: y_max must be positive, got -10"),
    # an empty dyadic family; k_lo = k_hi is a family of one center
    ("experiment=bmo\nk_lo = 3\nk_hi = 2\n", "line 2: needs k_lo <= k_hi"),
    ("experiment=bmo\nk_lo = 5\n", "line 2: needs k_lo <= k_hi"),
    ("experiment=bmo\nseed = 1\nm_hi = -5\n", "line 3: needs m_lo <= m_hi"),
    # a slope through one abscissa once passed as a fit
    ("experiment=loggrowth\nr_list = 0.25,0.25\n",
     "line 2: r_list entries must be distinct"),
    # the times rho^j over the pair range overflow (or underflow); these
    # once failed with "sequence must be positive and strictly increasing"
    ("experiment=bounds-suite\nrho = 1e200\n",
     r"line 2: rho = 1e\+200 makes the times rho\^j, j in \[-4, 4\], "
     "overflow or underflow"),
    ("experiment=transform\nrho = 1e200\n",
     r"line 2: rho = 1e\+200 .*\[-6, 6\]"),
    ("experiment=l1diff\nrho = 1e100\n", r"line 2: rho = 1e\+100 .*\[-4, 4\]"),
    ("experiment=weighted\nrho = 1e100\n",
     r"line 2: rho = 1e\+100 .*\[-8, 9\]"),
    ("experiment=loggrowth\nrho = 1e100\n",
     r"line 2: rho = 1e\+100 .*\[-16, 17\]"),
    ("experiment=bmo\nrho = 1e100\n", r"line 2: rho = 1e\+100 .*\[-9, 9\]"),
    ("experiment=uniform-l2\nrho = 1e100\n",
     r"line 2: rho = 1e\+100 .*\[-10, 10\]"),
    # the default rho over a pair range too long for it names that line
    ("experiment=l1diff\nseed = 1\nj_max = 2000\n",
     r"line 3: rho = 2 makes the times rho\^j, j in \[-4, 2000\]"),
    ("experiment=weighted\nm = 2000\n", r"line 2: rho = 2 .*\[-2000, 2001\]"),
])
def test_validation_gates(text, needle):
    with pytest.raises(ConfigError, match=needle):
        parse_config(text)


def test_parse_floats_geometric():
    assert _parse_floats("geometric:0.25, 2, 5") == (0.25, 0.5, 1.0, 2.0, 4.0)
    with pytest.raises(ValueError, match="empty list"):
        _parse_floats("")
    with pytest.raises(ValueError):
        _parse_floats("geometric:1,2")
    with pytest.raises(ValueError):
        _parse_floats("geometric:1,2,0")
    with pytest.raises(ValueError):
        _parse_floats("geometric:0,2,3")


def test_resolve_v_families():
    assert np.array_equal(resolve_v("constant:1", -2, 2), np.ones(4))
    assert np.array_equal(resolve_v("constant:2.5", 0, 3), np.full(3, 2.5))
    alt = resolve_v("alternating", -2, 2)
    assert np.array_equal(alt, [1.0, -1.0, 1.0, -1.0])
    dec = resolve_v("decay:1.5", -2, 3)
    js = np.arange(-2, 3)
    want = np.power(-1.0, js) * np.maximum(np.abs(js), 1) ** -1.5
    assert np.allclose(dec, want, rtol=0, atol=0)
    expl = resolve_v("1, 0, -2", 0, 3)
    assert np.array_equal(expl, [1.0, 0.0, -2.0])


def test_resolve_v_rejects():
    with pytest.raises(ConfigError, match="3 entries"):
        resolve_v("1,2,3", 0, 2)
    with pytest.raises(ConfigError):
        resolve_v("decay:0", 0, 2)
    with pytest.raises(ConfigError):
        resolve_v("decay:abc", 0, 2)


def test_resolve_f_specs():
    rng = np.random.default_rng(0)
    assert resolve_f("bump:1,0.5", rng).lipschitz is not None
    ind = resolve_f("indicator:2,3", rng)
    assert ind.support() == (0.0, 2.0)
    assert float(ind(np.array([1.0]))[0]) == 3.0
    stp = resolve_f("step:1,0.2", rng)
    assert stp.lipschitz == pytest.approx(1.0 / 0.4)
    mix = resolve_f("mixture", rng)
    mix2 = resolve_f("mixture", np.random.default_rng(0))
    assert np.array_equal(mix.values, mix2.values)
    with pytest.raises(ConfigError, match="unknown f spec"):
        resolve_f("sine", rng)
    with pytest.raises(ConfigError, match="bad f spec"):
        resolve_f("bump:abc", rng)
    with pytest.raises(ConfigError, match="indicator takes 0 to 2 numbers"):
        resolve_f("indicator:1,2,3", rng)


def test_fmt_round_trip():
    for v in (1.0 / 3.0, 0.1, math.pi, 1e-300, -7.25e17, 0.0):
        assert float(_fmt(v)) == v
    assert _fmt(True) == "1" and _fmt(False) == "0"
    assert _fmt(np.int64(42)) == "42"
    assert _fmt("regime") == "regime"


def test_emit_csv_layout(tmp_path):
    path = tmp_path / "out.csv"
    emit_csv(path, {"experiment": "demo", "alpha": 0.1},
             ["a", "b"], [(1.0 / 3.0, 2), (0.5, -1)])
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode("utf-8").splitlines()
    assert lines[0] == "# experiment = demo"
    assert lines[1] == "# alpha = 0.10000000000000001"
    assert lines[2] == "a,b"
    assert lines[3].startswith("0.3333333333333333")
    assert len(lines) == 5  # two meta lines + header + two rows


def test_emit_csv_rejects_ragged(tmp_path):
    with pytest.raises(ValueError, match="row width"):
        emit_csv(tmp_path / "bad.csv", {}, ["a", "b"], [(1.0,)])


def test_emit_csv_deterministic(tmp_path):
    cfg = parse_config("experiment = kernel-eval\nt_list = 1\n"
                       "x_list = 0.5, 2\ny_list = 1\n")
    res1 = run_kernel_eval(cfg)
    res2 = run_kernel_eval(cfg)
    assert res1.rows == res2.rows
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(p1, res1.meta, res1.header, res1.rows)
    emit_csv(p2, res2.meta, res2.header, res2.rows)
    assert p1.read_bytes() == p2.read_bytes()


def test_quadrature_overrides():
    with pytest.raises(ConfigError, match="line 2: key 'theta_nodes' was "
                                          "removed"):
        parse_config("experiment = transform\ntheta_nodes = 48\n"
                     "abs_tol = 1e-9\n")
    cfg = parse_config("experiment = transform\nabs_tol = 1e-9\n")
    quad = cfg.quadrature()
    assert quad.abs_tol == 1e-9
    base = parse_config("experiment = transform\n").quadrature()
    assert base == QuadratureSpec()
    assert quad.y_nodes_per_panel == base.y_nodes_per_panel


def test_kernel_eval_runner_shape():
    cfg = parse_config("experiment = kernel-eval\nt_list = 0.5, 1\n"
                       "x_list = 1\ny_list = 0.5, 2\n")
    res = run_kernel_eval(cfg)
    assert res.header[:3] == ["t", "x", "y"]
    assert len(res.rows) == 4
    assert res.summary["points"] == 4
    assert math.isfinite(res.summary["sup_p"])
    assert not res.tolerance_failures and not res.contract_failures


def test_bounds_suite_empty_items():
    cfg = parse_config("experiment = bounds-suite\nitems =\nn_points = 8\n")
    res = run_bounds_suite(cfg)
    assert res.rows == []
    assert res.summary == {"rows": 0}


def test_bounds_suite_unknown_item():
    with pytest.raises(ConfigError, match="line 2: .*unknown bound item"):
        parse_config("experiment = bounds-suite\nitems = i, v\n")


def test_weighted_ap_gate():
    with pytest.raises(ConfigError, match=r"line 2: .*A_p gate \(-3, *3\)"):
        parse_config("experiment = weighted\ndelta = 5\nf_count = 1\n")


def test_weighted_m_must_be_even():
    with pytest.raises(ConfigError, match="line 2: .*even"):
        parse_config("experiment = weighted\nm = 3\nf_count = 1\n")


def test_loggrowth_radius_gate():
    with pytest.raises(ConfigError, match="line 2: .*2r < 1"):
        parse_config("experiment = loggrowth\nr_list = 0.5, 0.25\n")


def test_bmo_window_fit_gate():
    with pytest.raises(ConfigError, match="line 2: .*does not fit"):
        parse_config("experiment = bmo\nj_max = 3\ngrid_points = 16\n")


def test_spearman_matches_scipy_with_ties():
    rng = np.random.default_rng(11)
    for n in (6, 40, 600):
        a = rng.integers(1, 8, size=n)            # many ties
        b = rng.normal(size=n).round(1)           # some ties
        want = scipy.stats.spearmanr(a, b).statistic
        assert _spearman(a, b) == pytest.approx(want, rel=1e-15, abs=1e-15)


def test_spearman_of_constant_ranks_is_nan():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(_spearman([2, 2, 2], [0.1, 0.5, 0.3]))
        assert math.isnan(_spearman([1, 2, 3], [0.5, 0.5, 0.5]))
        assert _spearman([1, 2, 3], [0.1, 0.5, 0.3]) == pytest.approx(0.5)


def _uniform_l2_cli(tmp_path, text):
    cfg = tmp_path / "u.cfg"
    cfg.write_text("experiment = uniform-l2\nf_count = 1\n" + text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return cli.main(["uniform-l2", "--config", str(cfg),
                         "--out", str(tmp_path / "u.csv")])


def test_uniform_l2_equal_window_lengths_pass(tmp_path, capsys):
    # span 1: every window has length 2, so the rank correlation is
    # undefined (nan) and no growth is reported
    code = _uniform_l2_cli(tmp_path, "j_min = -1\nj_max = 1\nwindows = 3\n"
                                     "grid_points = 4\n")
    assert code == 0
    assert "spearman = nan" in capsys.readouterr().out


def test_uniform_l2_growth_still_fails(tmp_path, capsys):
    # v = 1 telescopes: the ratio ramps up with the window length
    code = _uniform_l2_cli(tmp_path, "v = constant:1\nwindows = 6\n"
                                     "j_min = -4\nj_max = 4\n"
                                     "grid_points = 8\n")
    assert code == 3
    assert "spearman 0.600 >= 0.3" in capsys.readouterr().err


#: small sizes of the two runners that draw f_count bump mixtures
MIXTURES = {
    "uniform-l2": "windows = 3\nj_min = -3\nj_max = 3\ngrid_points = 8\n",
    "weighted": "m = 2\ngrid_points = 8\n",
}


@pytest.mark.parametrize("exp", sorted(MIXTURES))
def test_mixture_rows_do_not_depend_on_the_other_mixtures(exp):
    # every mixture has a table of its own: at the same seed, the rows of
    # f_index 0 alone equal its rows beside two more (the contract verdict
    # may differ, so the rows are compared, not the exit)
    rows = []
    for count in (1, 3):
        cfg = parse_config(f"experiment = {exp}\nf_count = {count}\n"
                           + MIXTURES[exp])
        rows.append([r for r in EXPERIMENTS[exp](cfg).rows if r[0] == 0])
    assert rows[0] and rows[0] == rows[1]


def test_tolerance_failure_prints_the_tolerance_unrounded(tmp_path, capsys):
    # the gaussian fixed point (about 1e-16) fails a tolerance of 1.5e-20,
    # and the message names that tolerance as the CSV records it (the
    # small sizes fail other checks too)
    cfg = tmp_path / "h.cfg"
    cfg.write_text("experiment = hankel-check\n" + ROUND_TRIP["hankel-check"]
                   + "tol_fixed = 1.5e-20\n")
    code = cli.main(["hankel-check", "--config", str(cfg),
                     "--out", str(tmp_path / "h.csv")])
    assert code == 2
    first = capsys.readouterr().err.splitlines()[0]
    assert first.startswith("tolerance failure: gaussian_fixed_point: ")
    assert first.endswith(" > 1.5e-20")


def test_cli_import_leaves_out_scipy_stats():
    # nor scipy.special and scipy.linalg, which start-up does not need:
    # importing them took 0.2-0.3 s of every run
    code = ("import sys, besseldt.cli\n"
            "from besseldt.lab import parse_config\n"
            "parse_config('experiment = uniform-l2\\nlambda = 1.5\\n')\n"
            "print([m for m in ('scipy.stats', 'scipy.special', "
            "'scipy.linalg') if m in sys.modules])\n")
    # the child imports the same besseldt as this suite
    root = str(Path(besseldt.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=root)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_transform_with_m_fills_its_table_once(tmp_path, monkeypatch):
    # the window (-2, 2) needs levels -2..3 and T*_4 levels -4..5: one
    # apply_at call of their union, not one of 6 and then one of 4
    calls = []
    real = transform_mod.apply_at

    def counted(space, f, t, xs, quad):
        calls.append(np.size(t))
        return real(space, f, t, xs, quad)

    monkeypatch.setattr(transform_mod, "apply_at", counted)
    cfg = tmp_path / "t.cfg"
    cfg.write_text("experiment = transform\nm = 4\n")
    assert cli.main(["transform", "--config", str(cfg),
                     "--out", str(tmp_path / "t.csv")]) == 0
    assert calls == [10]


#: small sizes of every experiment for the meta round trip
ROUND_TRIP = {
    "kernel-eval": "t_list = 0.5, 2\nx_list = geometric:0.5,2,3\n",
    "bounds-suite": "lambda_list = 0.6, 1.5\nn_points = 8\ndilation = 10\n",
    "transform": "grid_points = 6\nm = 2\nf = mixture\nseed = 4\n",
    "loggrowth": "m = 4\nr_list = 0.25, 0.125\ngrid_points = 8\np = 1.5\n",
    "uniform-l2": "f_count = 1\nwindows = 2\nj_min = -3\nj_max = 3\n"
                  "grid_points = 4\n",
    "weighted": "f_count = 1\nm = 2\ngrid_points = 4\ndelta = 0.5\n",
    "bmo": "windows = 1\ngrid_points = 6\nk_lo = -1\nk_hi = 1\n"
           "m_lo = -1\nm_hi = 0\n",
    "l1diff": "j_min = -1\nj_max = 1\nx_list = 0.5, 2\n",
    "hankel-check": "lambda = 1.5\ngrid_points = 4\nn_y = 64\n"
                    "y_max = 6\n",
}


@pytest.mark.parametrize("exp", sorted(ROUND_TRIP))
def test_top_of_the_lambda_range_ends_without_traceback(tmp_path, capsys,
                                                        exp):
    # a run may fail its checks there, but only with a documented exit and
    # its one-line messages: uniform-l2 and weighted printed numpy's
    # RuntimeWarnings and exited 3 on an overflowing norm
    top = NU_MAX + 0.5 if exp == "hankel-check" else LAM_MAX
    sizes = "".join(line for line in ROUND_TRIP[exp].splitlines(True)
                    if not line.startswith("lambda"))
    cfg = tmp_path / "top.cfg"
    cfg.write_text(f"experiment = {exp}\n{sizes}lambda = {top:g}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([exp, "--config", str(cfg),
                         "--out", str(tmp_path / "top.csv")])
    err = capsys.readouterr().err
    assert code in (0, 2, 3), err
    assert "Traceback" not in err and "Warning" not in err, err


def _run_csv(cfg, path):
    res = EXPERIMENTS[cfg.experiment](cfg)
    emit_csv(path, res.meta, res.header, res.rows)
    return path.read_bytes()


@pytest.mark.parametrize("exp", sorted(ROUND_TRIP))
def test_meta_block_reproduces_the_run(tmp_path, exp):
    cfg = parse_config(f"experiment = {exp}\nout = x.csv\n" + ROUND_TRIP[exp])
    first = _run_csv(cfg, tmp_path / "a.csv")
    meta = [line[2:] for line in first.decode("utf-8").splitlines()
            if line.startswith("# ")]
    # the config lines of the meta block: every resolved key, and not out
    keys = [line.split(" = ", 1)[0] for line in meta]
    assert keys[0] == "experiment" and "out" not in keys
    assert keys[1:len(cfg.values) + 1] == list(cfg.values)
    again = parse_config("\n".join(meta[:len(cfg.values) + 1]) + "\n")
    assert again == parse_config(f"experiment = {exp}\n"
                                 + ROUND_TRIP[exp])
    assert _run_csv(again, tmp_path / "b.csv") == first
