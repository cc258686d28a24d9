import math

import numpy as np
import pytest

from besseldt.errors import ConfigError
from besseldt.lab import (ExperimentConfig, _fmt, _parse_floats, emit_csv,
                          parse_config, resolve_f, resolve_v, run_bmo_experiment,
                          run_bounds_suite, run_kernel_eval, run_log_growth,
                          run_weighted_sweep)


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
    assert cfg.lam == 0.75
    assert cfg.seed == 7
    assert cfg.t_list == (0.5, 1.0, 2.0)
    assert cfg.x_list == (0.25, 0.5, 1.0)
    assert cfg.out == "run.csv"
    # unset keys stay None; runners fill defaults
    assert cfg.y_list is None and cfg.grid_points is None


def test_parse_config_key_aliases():
    cfg = parse_config("experiment = transform\nv = alternating\n"
                       "f = indicator:1\nm = 4\n")
    assert cfg.v_spec == "alternating"
    assert cfg.f_spec == "indicator:1"
    assert cfg.m_cap == 4


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
    ("experiment=transform\ny_nodes = 0\n", "y_nodes must be at least 1"),
    ("experiment=bounds-suite\nt_lo = 0\n", "t_lo must be positive"),
    ("experiment=bounds-suite\nt_hi = -1\n", "t_hi must be positive"),
    ("experiment=bounds-suite\nxy_lo = 0\n", "xy_lo must be positive"),
    ("experiment=bounds-suite\nxy_hi = 0\n", "xy_hi must be positive"),
    ("experiment=bounds-suite\nt_lo = 5\nt_hi = 2\n", "t_lo < t_hi"),
    ("experiment=bounds-suite\nt_lo = 500\n", "t_lo < t_hi"),
    ("experiment=bounds-suite\nxy_lo = 1\nxy_hi = 1\n", "xy_lo < xy_hi"),
])
def test_validation_gates(text, needle):
    with pytest.raises(ConfigError, match=needle):
        parse_config(text)


def test_parse_floats_geometric():
    assert _parse_floats("geometric:0.25, 2, 5") == (0.25, 0.5, 1.0, 2.0, 4.0)
    assert _parse_floats("") == ()
    with pytest.raises(ValueError):
        _parse_floats("geometric:1,2")
    with pytest.raises(ValueError):
        _parse_floats("geometric:1,2,0")
    with pytest.raises(ValueError):
        _parse_floats("geometric:0,2,3")


def test_resolve_v_families():
    assert np.array_equal(resolve_v(None, -2, 2), np.ones(4))
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
    assert resolve_f(None, rng).lipschitz is not None       # default bump
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
        parse_config("experiment = kernel-eval\ntheta_nodes = 48\n"
                     "abs_tol = 1e-9\n")
    cfg = parse_config("experiment = kernel-eval\nabs_tol = 1e-9\n")
    quad = cfg.quadrature()
    assert quad.abs_tol == 1e-9
    base = ExperimentConfig("kernel-eval").quadrature()
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
    cfg = parse_config("experiment = bounds-suite\nitems = i, v\n")
    with pytest.raises(ConfigError, match="unknown bound item"):
        run_bounds_suite(cfg)


def test_weighted_ap_gate():
    cfg = parse_config("experiment = weighted\ndelta = 5\nf_count = 1\n")
    with pytest.raises(ConfigError, match=r"A_p gate \(-3, *3\)"):
        run_weighted_sweep(cfg)


def test_weighted_m_must_be_even():
    cfg = parse_config("experiment = weighted\nm = 3\nf_count = 1\n")
    with pytest.raises(ConfigError, match="even"):
        run_weighted_sweep(cfg)


def test_loggrowth_radius_gate():
    cfg = parse_config("experiment = loggrowth\nr_list = 0.5, 0.25\n")
    with pytest.raises(ConfigError, match="2r < 1"):
        run_log_growth(cfg)


def test_bmo_window_fit_gate():
    cfg = parse_config("experiment = bmo\nj_max = 3\ngrid_points = 16\n")
    with pytest.raises(ConfigError, match="does not fit"):
        run_bmo_experiment(cfg)
