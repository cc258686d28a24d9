"""Experiment recipes behind the CLI: config ingestion, CSV emission, and
reproducible sweeps over the kernel, transform, and maximal operators.

Config files are flat ``key=value`` text (UTF-8, ``#`` comments).  Sequence
values are comma-separated reals or ``geometric:first,ratio,count``.  Weight
sequences accept ``constant:c``, ``alternating``, ``decay:s`` (alternating
sign with |j|^-s magnitude), or an explicit comma list.  Every run is
deterministic given (config, seed): identical inputs give bit-identical CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import stats

from .errors import ConfigError
from .functions import (SampledFunction, bump_mixture, indicator,
                        smooth_bump, smoothed_step)
from .hankel import (gaussian_fixed_point_defect, involution_defect,
                     plancherel_defect, spectral_poisson_apply)
from .kernel import (KernelPoint, apply_at, kernel_bound_ratios,
                     kernel_difference_l1, kernel_sweep, kernel_values)
from .lacunary import LacunarySetup, geometric
from .measure import (Interval, LambdaSpace, PowerWeight, bmo_norm,
                      dyadic_family, interval_integral, lp_norm,
                      measure_interval)
from .quadrature import QuadratureSpec
from .transform import (IndexWindow, SemigroupTable, max_window_sum_abs,
                        window_kernel_bounds)

# --------------------------------------------------------------------------
# configuration

_KEY_TYPES = {
    "experiment": "str", "lambda": "float", "seed": "int", "out": "str",
    "y_nodes": "int", "abs_tol": "float", "rel_tol": "float",
    "t": "float", "t_list": "floats", "x_list": "floats", "y_list": "floats",
    "lambda_list": "floats", "items": "strs", "n_points": "int",
    "rho": "float", "j_min": "int", "j_max": "int", "v": "str",
    "n1": "int", "n2": "int", "m": "int", "f": "str",
    "grid_lo": "float", "grid_hi": "float", "grid_points": "int",
    "p": "float", "q": "float", "delta": "float",
    "f_count": "int", "windows": "int", "r_list": "floats",
    "f_height": "float", "dilation": "float",
    "k_lo": "int", "k_hi": "int", "m_lo": "int", "m_hi": "int",
    "y_max": "float", "n_y": "int",
    "tol_fixed": "float", "tol_involution": "float",
    "tol_plancherel": "float", "tol_spectral": "float",
    "t_lo": "float", "t_hi": "float", "xy_lo": "float", "xy_hi": "float",
}

_COMMON_KEYS = {"experiment", "lambda", "seed", "out", "y_nodes", "abs_tol",
                "rel_tol"}

_ALLOWED_KEYS = {
    "kernel-eval": {"t_list", "x_list", "y_list"},
    "bounds-suite": {"lambda_list", "items", "n_points", "rho", "j_min",
                     "j_max", "v", "n1", "n2", "dilation", "t_lo", "t_hi",
                     "xy_lo", "xy_hi"},
    "transform": {"rho", "j_min", "j_max", "v", "n1", "n2", "m", "f",
                  "grid_lo", "grid_hi", "grid_points"},
    "loggrowth": {"rho", "p", "v", "m", "r_list", "grid_points", "f_height"},
    "uniform-l2": {"rho", "j_min", "j_max", "v", "f_count", "windows",
                   "grid_lo", "grid_hi", "grid_points"},
    "weighted": {"rho", "j_min", "j_max", "v", "m", "p", "delta", "f_count",
                 "grid_lo", "grid_hi", "grid_points"},
    "bmo": {"rho", "j_min", "j_max", "v", "windows", "f", "grid_lo",
            "grid_hi", "grid_points", "k_lo", "k_hi", "m_lo", "m_hi"},
    "l1diff": {"rho", "j_min", "j_max", "x_list", "dilation"},
    "hankel-check": {"t", "y_max", "n_y", "tol_fixed", "tol_involution",
                     "tol_plancherel", "tol_spectral", "grid_points"},
}


def _parse_float(text: str) -> float:
    v = float(text)
    if math.isnan(v):
        raise ValueError("nan is not a valid value")
    return v


def _parse_floats(text: str):
    text = text.strip()
    if text.startswith("geometric:"):
        parts = [s.strip() for s in text[len("geometric:"):].split(",")]
        if len(parts) != 3:
            raise ValueError("geometric spec needs first,ratio,count")
        first, ratio = float(parts[0]), float(parts[1])
        count = int(parts[2])
        if count < 1 or ratio <= 0 or first == 0:
            raise ValueError("geometric spec needs count >= 1, ratio > 0, "
                             "first != 0")
        return tuple(first * ratio ** k for k in range(count))
    if not text:
        return ()
    return tuple(_parse_float(s) for s in text.split(","))


def _parse_value(kind: str, text: str):
    if kind == "str":
        return text
    if kind == "int":
        return int(text)
    if kind == "float":
        return _parse_float(text)
    if kind == "floats":
        return _parse_floats(text)
    if kind == "strs":
        text = text.strip()
        return tuple(s.strip() for s in text.split(",")) if text else ()
    raise AssertionError(kind)


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed, validated experiment description.  Unset keys are None and
    each runner substitutes its own defaults."""

    experiment: str
    lam: float = 1.0
    seed: int = 0
    out: Optional[str] = None
    y_nodes: Optional[int] = None
    abs_tol: Optional[float] = None
    rel_tol: Optional[float] = None
    t: Optional[float] = None
    t_list: Optional[tuple] = None
    x_list: Optional[tuple] = None
    y_list: Optional[tuple] = None
    lambda_list: Optional[tuple] = None
    items: Optional[tuple] = None
    n_points: Optional[int] = None
    rho: float = 2.0
    j_min: Optional[int] = None
    j_max: Optional[int] = None
    v_spec: Optional[str] = None
    n1: Optional[int] = None
    n2: Optional[int] = None
    m_cap: Optional[int] = None
    f_spec: Optional[str] = None
    grid_lo: Optional[float] = None
    grid_hi: Optional[float] = None
    grid_points: Optional[int] = None
    p: Optional[float] = None
    q: Optional[float] = None
    delta: Optional[float] = None
    f_count: Optional[int] = None
    windows: Optional[int] = None
    r_list: Optional[tuple] = None
    f_height: Optional[float] = None
    dilation: Optional[float] = None
    k_lo: Optional[int] = None
    k_hi: Optional[int] = None
    m_lo: Optional[int] = None
    m_hi: Optional[int] = None
    y_max: Optional[float] = None
    n_y: Optional[int] = None
    tol_fixed: Optional[float] = None
    tol_involution: Optional[float] = None
    tol_plancherel: Optional[float] = None
    tol_spectral: Optional[float] = None
    t_lo: Optional[float] = None
    t_hi: Optional[float] = None
    xy_lo: Optional[float] = None
    xy_hi: Optional[float] = None

    def quadrature(self) -> QuadratureSpec:
        base = QuadratureSpec()
        return QuadratureSpec(
            y_nodes_per_panel=self.y_nodes or base.y_nodes_per_panel,
            abs_tol=self.abs_tol if self.abs_tol is not None else base.abs_tol,
            rel_tol=self.rel_tol if self.rel_tol is not None else base.rel_tol)


_FIELD_OF_KEY = {"lambda": "lam", "v": "v_spec", "f": "f_spec", "m": "m_cap"}

#: default (lo, hi) of the t and x, y ranges of the bounds-suite sweeps
_SWEEP_RANGE = (1e-2, 1e2)

#: default (j_min, j_max) and (n1, n2) of the experiments with a window
_WINDOW_DEFAULTS = {"bounds-suite": ((-4, 4), (-3, 3)),
                    "transform": ((-6, 6), (-2, 2))}


def parse_config(text: str) -> ExperimentConfig:
    """Parse flat key=value config text; reject unknown and duplicate keys,
    report malformed lines with their line number."""
    values: dict = {}
    lines_of: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, "
                              f"got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key == "theta_nodes":
            raise ConfigError(f"line {lineno}: key 'theta_nodes' was removed: "
                              "the kernel derivatives are closed form")
        if key not in _KEY_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _parse_value(_KEY_TYPES[key], val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}"
                              ) from None
        lines_of[key] = lineno

    if "experiment" not in values:
        raise ConfigError("missing required key 'experiment'")
    exp = values["experiment"]
    if exp not in _ALLOWED_KEYS:
        raise ConfigError(
            f"line {lines_of['experiment']}: unknown experiment {exp!r}; "
            f"choose from {sorted(_ALLOWED_KEYS)}")
    allowed = _COMMON_KEYS | _ALLOWED_KEYS[exp]
    for key in values:
        if key not in allowed:
            raise ConfigError(f"line {lines_of[key]}: key {key!r} is not "
                              f"used by experiment {exp!r}")

    kwargs = {_FIELD_OF_KEY.get(k, k): v for k, v in values.items()}
    cfg = ExperimentConfig(**kwargs)
    _validate(cfg, lines_of)
    return cfg


def _validate(cfg: ExperimentConfig, lines_of: dict):
    def bad(key, msg):
        where = f"line {lines_of[key]}: " if key in lines_of else ""
        raise ConfigError(where + msg)

    if not cfg.lam > 0:
        bad("lambda", f"lambda must be positive, got {cfg.lam:g}")
    if not cfg.rho > 1:
        bad("rho", f"rho must exceed 1, got {cfg.rho:g}")
    if cfg.p is not None and not cfg.p >= 1:
        bad("p", f"p must be >= 1 (or inf), got {cfg.p:g}")
    if cfg.q is not None and not cfg.q > 1:
        bad("q", f"q must exceed 1, got {cfg.q:g}")
    if cfg.j_min is not None and cfg.j_max is not None \
            and cfg.j_min >= cfg.j_max:
        bad("j_min", "needs j_min < j_max")
    if cfg.grid_lo is not None and not cfg.grid_lo > 0:
        bad("grid_lo", "grid_lo must be positive")
    if None not in (cfg.grid_lo, cfg.grid_hi) and cfg.grid_lo >= cfg.grid_hi:
        bad("grid_lo", "needs grid_lo < grid_hi")
    if cfg.grid_points is not None and cfg.grid_points < 2:
        bad("grid_points", "grid_points must be at least 2")
    if cfg.dilation is not None and not cfg.dilation > 0:
        bad("dilation", "dilation must be positive")
    if cfg.m_cap is not None and cfg.m_cap < 1:
        bad("m", "m must be at least 1")
    if cfg.t is not None and not cfg.t > 0:
        bad("t", "t must be positive")
    for key, vals in (("t_list", cfg.t_list), ("x_list", cfg.x_list),
                      ("y_list", cfg.y_list), ("r_list", cfg.r_list)):
        if vals is not None and any(v <= 0 for v in vals):
            bad(key, f"{key} entries must be positive")
    if cfg.lambda_list is not None and any(v <= 0 for v in cfg.lambda_list):
        bad("lambda_list", "lambda_list entries must be positive")
    # a count or range of 0 would otherwise be replaced by its default
    for key in ("f_count", "windows", "n_points", "y_nodes"):
        val = getattr(cfg, key)
        if val is not None and val < 1:
            bad(key, f"{key} must be at least 1")
    if cfg.n_y is not None and cfg.n_y < 16:
        bad("n_y", f"n_y must be at least 16, got {cfg.n_y}")
    for keys in (("t_lo", "t_hi"), ("xy_lo", "xy_hi")):
        lo_hi = [getattr(cfg, key) for key in keys]
        for key, val in zip(keys, lo_hi):
            if val is not None and not val > 0:
                bad(key, f"{key} must be positive")
        lo, hi = [d if v is None else v for v, d in zip(lo_hi, _SWEEP_RANGE)]
        if not lo < hi:
            bad(keys[0], f"needs {keys[0]} < {keys[1]}, got ({lo:g}, {hi:g})")
    if cfg.experiment in _WINDOW_DEFAULTS:
        j_min, j_max, n1, n2 = _window_keys(cfg)
        if n1 >= n2:
            bad("n1" if cfg.n1 is not None else "n2",
                f"window needs n1 < n2, got ({n1}, {n2})")
        uses_window = (cfg.experiment == "transform" or cfg.items is None
                       or any(it in _WINDOW_ITEMS for it in cfg.items))
        if uses_window and not (j_min <= n1 and n2 <= j_max - 1):
            bad("n1" if n1 < j_min else "n2",
                f"window ({n1}, {n2}) outside the pair range "
                f"[{j_min}, {j_max - 1}] of j_min, j_max")
        m = cfg.m_cap
        if cfg.experiment == "transform" and m is not None \
                and not (j_min <= -m and m <= j_max - 1):
            bad("m", f"m = {m} needs [-m, m] inside the pair range "
                     f"[{j_min}, {j_max - 1}] of j_min, j_max")


def _window_keys(cfg: ExperimentConfig):
    """(j_min, j_max, n1, n2) of a windowed experiment, defaults filled in."""
    (j_lo, j_hi), (n1, n2) = _WINDOW_DEFAULTS[cfg.experiment]
    return (cfg.j_min if cfg.j_min is not None else j_lo,
            cfg.j_max if cfg.j_max is not None else j_hi,
            cfg.n1 if cfg.n1 is not None else n1,
            cfg.n2 if cfg.n2 is not None else n2)


def resolve_v(spec: Optional[str], j_min: int, j_max: int) -> np.ndarray:
    """Weight sequence v_j for pair indices j in [j_min, j_max)."""
    js = np.arange(j_min, j_max)
    if spec is None:
        return np.ones(js.size)
    s = spec.strip()
    try:
        if s.startswith("constant:"):
            return np.full(js.size, float(s[len("constant:"):]))
        if s == "alternating":
            return np.power(-1.0, js)
        if s.startswith("decay:"):
            expo = float(s[len("decay:"):])
            if expo <= 0:
                raise ValueError("decay exponent must be positive")
            return np.power(-1.0, js) * np.maximum(np.abs(js), 1) ** (-expo)
        vals = np.asarray(_parse_floats(s), dtype=float)
    except ValueError as exc:
        raise ConfigError(f"bad v spec {spec!r}: {exc}") from None
    if vals.size != js.size:
        raise ConfigError(f"explicit v has {vals.size} entries; the index "
                          f"range [{j_min}, {j_max}) needs {js.size}")
    return vals


def resolve_f(spec: Optional[str],
              rng: np.random.Generator) -> SampledFunction:
    s = (spec or "bump:1,0.5").strip()
    try:
        if s == "indicator":
            return indicator()
        if s.startswith("indicator:"):
            args = [float(a) for a in s[len("indicator:"):].split(",")]
            return indicator(*args[:2])
        if s.startswith("bump:"):
            args = [float(a) for a in s[len("bump:"):].split(",")]
            return smooth_bump(*args[:3])
        if s.startswith("step:"):
            args = [float(a) for a in s[len("step:"):].split(",")]
            return smoothed_step(*args[:3])
        if s == "mixture":
            return bump_mixture(rng)
    except ValueError as exc:
        raise ConfigError(f"bad f spec {spec!r}: {exc}") from None
    raise ConfigError(f"unknown f spec {spec!r}")


# --------------------------------------------------------------------------
# CSV emission

def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def emit_csv(path, meta: dict, header, rows) -> None:
    """Write rows as comma-separated text: '#' meta block, header line,
    then 17-significant-digit values, LF line endings."""
    lines = [f"# {k} = {_fmt(v)}" for k, v in meta.items()]
    lines.append(",".join(header))
    for row in rows:
        if len(row) != len(header):
            raise ValueError("row width does not match header")
        lines.append(",".join(_fmt(c) for c in row))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass
class ExperimentResult:
    meta: dict
    header: list
    rows: list
    summary: dict = field(default_factory=dict)
    tolerance_failures: list = field(default_factory=list)
    contract_failures: list = field(default_factory=list)


def _base_meta(cfg: ExperimentConfig, **extra) -> dict:
    quad = cfg.quadrature()
    meta = {"experiment": cfg.experiment, "lambda": cfg.lam,
            "seed": cfg.seed,
            "y_nodes_per_panel": quad.y_nodes_per_panel,
            "abs_tol": quad.abs_tol, "rel_tol": quad.rel_tol}
    meta.update(extra)
    return meta


def _grid(cfg: ExperimentConfig, lo: float, hi: float, n: int) -> np.ndarray:
    return np.geomspace(cfg.grid_lo if cfg.grid_lo is not None else lo,
                        cfg.grid_hi if cfg.grid_hi is not None else hi,
                        cfg.grid_points or n)


# --------------------------------------------------------------------------
# runners

def run_kernel_eval(cfg: ExperimentConfig) -> ExperimentResult:
    """P_t(x, y) and its first derivatives over a (t, x, y) product grid."""
    space = LambdaSpace(cfg.lam)
    ts = cfg.t_list or (1.0,)
    xs = np.asarray(cfg.x_list or tuple(np.geomspace(0.1, 10.0, 5)))
    ys = np.asarray(cfg.y_list or tuple(np.geomspace(0.1, 10.0, 5)))
    rows = []
    for t in ts:
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        gx, gy = gx.ravel(), gy.ravel()
        cols = {kind: kernel_values(space, t, gx, gy, kind)
                for kind in ("p", "dt", "dx", "dy")}
        for i in range(gx.size):
            rows.append((t, gx[i], gy[i], cols["p"][i], cols["dt"][i],
                         cols["dx"][i], cols["dy"][i]))
    meta = _base_meta(cfg, t_count=len(ts), x_count=xs.size, y_count=ys.size)
    header = ["t", "x", "y", "p", "dp_dt", "dp_dx", "dp_dy"]
    summary = {"points": len(rows),
               "sup_p": max(r[3] for r in rows)}
    return ExperimentResult(meta, header, rows, summary)


def _regime_sweep(rng: np.random.Generator, n: int, lo: float, hi: float):
    """(x, y) pairs, half with x > 2|x-y| and half with x <= 2|x-y|."""
    x = np.exp(rng.uniform(np.log(lo), np.log(hi), size=n))
    frac = np.where(rng.random(n) < 0.5,
                    rng.uniform(0.01, 0.4, size=n),
                    rng.uniform(0.6, 3.0, size=n))
    y = x + np.where(rng.random(n) < 0.5, 1.0, -1.0) * frac * x
    keep = y > 0
    return np.column_stack([x[keep], y[keep]])


_WINDOW_ITEMS = ("window_size", "window_gradient")
_DEFAULT_ITEMS = ("i", "ii", "iii", "iv") + _WINDOW_ITEMS


def run_bounds_suite(cfg: ExperimentConfig) -> ExperimentResult:
    """Fitted constants of the kernel size/smoothness bounds and of the
    windowed-kernel bounds, per regime, with a dilation-invariance column."""
    rng = np.random.default_rng(cfg.seed)
    lams = cfg.lambda_list or (cfg.lam,)
    items = cfg.items if cfg.items is not None else _DEFAULT_ITEMS
    for item in items:
        if item not in _DEFAULT_ITEMS:
            raise ConfigError(f"unknown bound item {item!r}")
    n = cfg.n_points or 400
    dil = cfg.dilation if cfg.dilation is not None else 1.0
    t_rng = (cfg.t_lo or _SWEEP_RANGE[0], cfg.t_hi or _SWEEP_RANGE[1])
    xy_rng = (cfg.xy_lo or _SWEEP_RANGE[0], cfg.xy_hi or _SWEEP_RANGE[1])
    j_min, j_max, n1, n2 = _window_keys(cfg)
    win = IndexWindow(n1, n2)

    rows = []
    failures = []
    for lam in lams:
        space = LambdaSpace(lam)
        sweep = kernel_sweep(rng, n, t_rng, xy_rng)
        pair_sweep = _regime_sweep(rng, n, *xy_rng)
        win_rep = win_rep_d = None
        if any(it in _WINDOW_ITEMS for it in items):
            setup = geometric(cfg.rho, j_min, j_max,
                              v=resolve_v(cfg.v_spec, j_min, j_max))
            grad = "window_gradient" in items
            win_rep = window_kernel_bounds(space, setup, win, pair_sweep,
                                           gradient=grad)
            if dil != 1.0:
                setup_d = LacunarySetup(setup.a * dil, setup.v, setup.rho,
                                        setup.j_min)
                win_rep_d = window_kernel_bounds(space, setup_d, win,
                                                 pair_sweep * dil,
                                                 gradient=grad)
        for item in items:
            if item in _WINDOW_ITEMS:
                rep, rep_d = win_rep, win_rep_d
                if item == "window_size":
                    triples = [("all", rep.sup_size,
                                rep_d.sup_size if rep_d else rep.sup_size),
                               ("near", rep.sup_size_near,
                                rep_d.sup_size_near if rep_d
                                else rep.sup_size_near),
                               ("far", rep.sup_size_far,
                                rep_d.sup_size_far if rep_d
                                else rep.sup_size_far)]
                else:
                    triples = [("all", rep.sup_gradient,
                                rep_d.sup_gradient if rep_d
                                else rep.sup_gradient)]
            else:
                rep = kernel_bound_ratios(space, sweep, item)
                if dil != 1.0:
                    sweep_d = [KernelPoint(p.t * dil, p.x * dil, p.y * dil)
                               for p in sweep]
                    rep_d = kernel_bound_ratios(space, sweep_d, item)
                else:
                    rep_d = rep
                triples = [("all", rep.sup_ratio, rep_d.sup_ratio),
                           ("near", rep.sup_near, rep_d.sup_near),
                           ("far", rep.sup_far, rep_d.sup_far)]
            for regime, val, val_d in triples:
                rows.append((lam, item, regime, val, val_d))
                if not math.isfinite(val):
                    failures.append(f"non-finite constant: lambda={lam:g} "
                                    f"{item}/{regime}")
                if dil != 1.0 and abs(val - val_d) > 1e-10 * abs(val):
                    failures.append(
                        f"dilation broke homogeneity: lambda={lam:g} "
                        f"{item}/{regime}: {val!r} vs {val_d!r}")
    meta = _base_meta(cfg, rho=cfg.rho, v_spec=cfg.v_spec or "constant:1",
                      n_points=n, dilation=dil,
                      window=f"({win.n1},{win.n2})")
    header = ["lambda", "item", "regime", "constant", "constant_dilated"]
    summary = {"rows": len(rows)}
    if rows:
        summary["max_constant"] = max(r[3] for r in rows)
    return ExperimentResult(meta, header, rows, summary,
                            contract_failures=failures)


def run_transform(cfg: ExperimentConfig) -> ExperimentResult:
    """T_N f (and optionally T*_M f) sampled on a log grid."""
    space = LambdaSpace(cfg.lam)
    quad = cfg.quadrature()
    rng = np.random.default_rng(cfg.seed)
    j_min, j_max, n1, n2 = _window_keys(cfg)
    setup = geometric(cfg.rho, j_min, j_max,
                      v=resolve_v(cfg.v_spec, j_min, j_max))
    win = IndexWindow(n1, n2)
    f = resolve_f(cfg.f_spec, rng)
    grid = _grid(cfg, 1e-2, 1e2, 129)
    table = SemigroupTable(space, setup, f, grid, quad)
    vals = table.window(win.n1, win.n2)
    header = ["x", "t_n"]
    columns = [grid, vals]
    summary = {"sup_t_n": float(np.max(np.abs(vals)))}
    if cfg.m_cap is not None:
        S = table.weighted_prefixes(cfg.m_cap)
        tstar = max_window_sum_abs(S)
        header.append("t_star")
        columns.append(tstar)
        summary["sup_t_star"] = float(tstar.max())
    rows = list(zip(*columns))
    meta = _base_meta(cfg, rho=cfg.rho, j_min=j_min, j_max=j_max,
                      v_spec=cfg.v_spec or "constant:1",
                      window=f"({win.n1},{win.n2})",
                      f_spec=cfg.f_spec or "bump:1,0.5",
                      grid=f"[{grid[0]:g},{grid[-1]:g}]x{grid.size}")
    return ExperimentResult(meta, header, rows, summary)


def run_hankel_check(cfg: ExperimentConfig) -> ExperimentResult:
    """Transform sanity table: Gaussian fixed point, involution on an
    analytic pair, Plancherel, and the multiplier route for P_t."""
    space = LambdaSpace(cfg.lam)
    quad = cfg.quadrature()
    rng = np.random.default_rng(cfg.seed)
    tol_fixed = cfg.tol_fixed if cfg.tol_fixed is not None else 1e-8
    tol_inv = cfg.tol_involution if cfg.tol_involution is not None else 1e-6
    tol_pl = cfg.tol_plancherel if cfg.tol_plancherel is not None else 1e-4
    tol_sp = cfg.tol_spectral if cfg.tol_spectral is not None else 1e-7
    rows = []
    failures = []

    def record(name, value, tol):
        rows.append((name, value, tol))
        if not value <= tol:
            failures.append(f"{name}: {value:.3e} > {tol:.0e}")

    npts = cfg.grid_points or 64
    eval_pts = np.geomspace(1e-2, 10.0, npts)
    record("gaussian_fixed_point",
           gaussian_fixed_point_defect(space, eval_pts, quad), tol_fixed)

    # x^2 exp(-x^2/2): analytic, transform pair decays like exp(-y^2/2),
    # and it is not an eigenfunction, so the double transform is nontrivial
    f_grid = np.geomspace(1e-4, 12.0, 256)
    f_inv = SampledFunction.from_callable(
        lambda x: np.asarray(x, dtype=float) ** 2
        * np.exp(-0.5 * np.asarray(x, dtype=float) ** 2),
        f_grid, breakpoints=(0.5, 1.0, 2.0, 4.0, 8.0))
    y_max = cfg.y_max if cfg.y_max is not None else 10.0
    # nested double transforms pay per evaluation point; a thin sup grid
    # keeps the check honest at a fraction of the cost
    inv_pts = np.geomspace(1e-2, 10.0, min(npts, 24))
    record("involution",
           involution_defect(space, f_inv, inv_pts, y_max, 256, quad),
           tol_inv)

    f_mix = bump_mixture(rng, span=(1e-1, 1e1))
    lhs, rhs, rel = plancherel_defect(space, f_mix, 300.0, cfg.n_y or 2048,
                                      quad)
    record("plancherel", rel, tol_pl)

    t = cfg.t if cfg.t is not None else 0.6
    f_sp = smooth_bump(2.0, 1.0)
    sp_pts = np.geomspace(1e-1, 10.0, min(npts, 16))
    spectral = spectral_poisson_apply(space, f_sp, t, sp_pts, quad)
    direct = apply_at(space, f_sp, t, sp_pts, quad)[0]
    rel_sp = float(np.max(np.abs(spectral.values - direct))
                   / np.max(np.abs(direct)))
    record("spectral_vs_direct", rel_sp, tol_sp)

    meta = _base_meta(cfg, t=t, y_max=y_max,
                      plancherel_l2=_fmt(lhs) + "/" + _fmt(rhs))
    header = ["check", "value", "tolerance"]
    summary = {r[0]: r[1] for r in rows}
    return ExperimentResult(meta, header, rows, summary,
                            tolerance_failures=failures)


def _sample_windows(rng: np.random.Generator, count: int, j_min: int,
                    j_max: int):
    """Random admissible windows with lengths uniform over the available
    range (plain pair sampling would make short windows dominate)."""
    span = j_max - 1 - j_min
    wins = []
    for _ in range(count):
        length = int(rng.integers(1, span + 1))
        n1 = int(rng.integers(j_min, j_max - length))
        wins.append(IndexWindow(n1, n1 + length))
    return wins


def run_uniform_l2(cfg: ExperimentConfig) -> ExperimentResult:
    """||T_N f||_2 / ||f||_2 over random bump mixtures and random windows;
    the ratio must not grow with window length.

    The default weights alternate in sign.  For v = 1 the sum telescopes to
    P_{a_{N2+1}} f - P_{a_N1} f, whose norm ramps from 0 to ~||f||_2 as the
    window widens, so a correlation with window length is built in and the
    no-growth contract is not the right check for that degenerate family.
    """
    space = LambdaSpace(cfg.lam)
    quad = cfg.quadrature()
    rng = np.random.default_rng(cfg.seed)
    j_min = cfg.j_min if cfg.j_min is not None else -10
    j_max = cfg.j_max if cfg.j_max is not None else 10
    v_spec = cfg.v_spec or "alternating"
    v = resolve_v(v_spec, j_min, j_max)
    setup = geometric(cfg.rho, j_min, j_max, v=v)
    f_count = cfg.f_count or 50
    win_count = cfg.windows or 12
    wins = _sample_windows(rng, win_count, j_min, j_max)
    grid = _grid(cfg, 1e-3, 1e3, 96)
    rows = []
    ratios, lengths = [], []
    for i in range(f_count):
        f = bump_mixture(rng, span=(1e-1, 1e1))
        norm_f = lp_norm(space, f, 2.0)
        table = SemigroupTable(space, setup, f, grid, quad)
        for win in wins:
            tn = SampledFunction(grid, table.window(win.n1, win.n2),
                                 left="hold", right="zero")
            ratio = lp_norm(space, tn, 2.0) / norm_f
            rows.append((i, win.n1, win.n2, win.length, ratio))
            ratios.append(ratio)
            lengths.append(win.length)
    sp = float(stats.spearmanr(lengths, ratios).statistic)
    max_ratio = float(np.max(ratios))
    failures = []
    if not math.isfinite(max_ratio):
        failures.append(f"max ratio is not finite: {max_ratio!r}")
    if not sp < 0.3:
        failures.append(f"ratio grows with window length: "
                        f"spearman {sp:.3f} >= 0.3")
    meta = _base_meta(cfg, rho=cfg.rho, j_min=j_min, j_max=j_max,
                      v_spec=v_spec, f_count=f_count, windows=win_count,
                      grid=f"[{grid[0]:g},{grid[-1]:g}]x{grid.size}")
    header = ["f_index", "n1", "n2", "window_length", "ratio"]
    summary = {"max_ratio": max_ratio, "spearman": sp}
    return ExperimentResult(meta, header, rows, summary,
                            contract_failures=failures)


def run_weighted_sweep(cfg: ExperimentConfig) -> ExperimentResult:
    """||T*_M f||_p / ||f||_p in L^p(x^delta dm) over random bump mixtures,
    with the value at M/2 as a truncation-stability column."""
    space = LambdaSpace(cfg.lam)
    quad = cfg.quadrature()
    rng = np.random.default_rng(cfg.seed)
    p = cfg.p if cfg.p is not None else 2.0
    if not p > 1:
        raise ConfigError(f"weighted sweep needs p > 1, got {p:g}")
    delta = cfg.delta if cfg.delta is not None else 0.0
    weight = PowerWeight(delta)
    lo, hi = weight.ap_bounds(space, p)
    if not weight.in_ap(space, p):
        raise ConfigError(f"delta {delta:g} outside the A_p gate "
                          f"({lo:g}, {hi:g}) for p={p:g}, lambda={cfg.lam:g}")
    m = cfg.m_cap or 8
    if m % 2 or m < 2:
        raise ConfigError(f"m must be even and >= 2, got {m}")
    v_spec = cfg.v_spec or "alternating"
    setup = geometric(cfg.rho, -m, m + 1, v=resolve_v(v_spec, -m, m + 1))
    f_count = cfg.f_count or 20
    grid = _grid(cfg, 1e-3, 1e3, 96)
    rows = []
    for i in range(f_count):
        f = bump_mixture(rng, span=(1e-1, 1e1))
        table = SemigroupTable(space, setup, f, grid, quad)
        S = table.weighted_prefixes(m)
        tstar = max_window_sum_abs(S)
        half = m // 2
        tstar_half = max_window_sum_abs(S[m - half:m + half + 2])
        den = lp_norm(space, f, p, weight)
        num = lp_norm(space, SampledFunction(grid, tstar, left="hold",
                                             right="zero"), p, weight)
        num_h = lp_norm(space, SampledFunction(grid, tstar_half, left="hold",
                                               right="zero"), p, weight)
        ratio, ratio_h = num / den, num_h / den
        stab = abs(ratio - ratio_h) / ratio if ratio > 0 else 0.0
        rows.append((i, ratio, ratio_h, stab))
    max_ratio = float(np.max([r[1] for r in rows]))
    failures = []
    if not math.isfinite(max_ratio):
        failures.append(f"max ratio is not finite: {max_ratio!r}")
    meta = _base_meta(cfg, rho=cfg.rho, v_spec=v_spec,
                      p=p, delta=delta, ap_gate=f"({lo:g},{hi:g})", m=m,
                      f_count=f_count,
                      grid=f"[{grid[0]:g},{grid[-1]:g}]x{grid.size}")
    header = ["f_index", "ratio", "ratio_half_m", "stability"]
    summary = {"max_ratio": max_ratio,
               "max_stability": float(np.max([r[3] for r in rows]))}
    return ExperimentResult(meta, header, rows, summary,
                            contract_failures=failures)


def run_bmo_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """bmo(T_N f) against ||f||_inf and bmo(f) along nested windows; the
    sup must stabilize once the window covers the active scales."""
    space = LambdaSpace(cfg.lam)
    quad = cfg.quadrature()
    rng = np.random.default_rng(cfg.seed)
    count = cfg.windows or 5
    # Start at L=4 so every window already covers the scales where f
    # lives; the interesting claim is that widening further changes
    # nothing, and windows still inside the ramp-up would test the
    # wrong thing.
    l_min = 4
    l_values = list(range(l_min, l_min + count))
    j_need = l_values[-1] + 1
    j_min = cfg.j_min if cfg.j_min is not None else -j_need
    j_max = cfg.j_max if cfg.j_max is not None else j_need
    v_spec = cfg.v_spec or "decay:1.5"
    setup = geometric(cfg.rho, j_min, j_max,
                      v=resolve_v(v_spec, j_min, j_max))
    f = resolve_f(cfg.f_spec or "step:1,0.2", rng)
    fam = dyadic_family((cfg.k_lo if cfg.k_lo is not None else -4,
                         cfg.k_hi if cfg.k_hi is not None else 4),
                        (cfg.m_lo if cfg.m_lo is not None else -4,
                         cfg.m_hi if cfg.m_hi is not None else 2))
    grid = _grid(cfg, 1e-3, 1e3, 192)
    table = SemigroupTable(space, setup, f, grid, quad)
    sup_f = float(np.max(np.abs(f.values)))
    bmo_f = bmo_norm(space, f, fam)
    rows = []
    ratios = []
    for L in l_values:
        if not (j_min <= -L and L + 1 <= j_max):
            raise ConfigError(f"window (-{L},{L}) does not fit in "
                              f"[{j_min},{j_max}]")
        tn = SampledFunction(grid, table.window(-L, L), left="hold",
                             right="zero")
        b = bmo_norm(space, tn, fam)
        r_inf = b / sup_f if sup_f > 0 else math.nan
        r_bmo = b / bmo_f if bmo_f > 0 else math.nan
        rows.append((-L, L, b, r_inf, r_bmo))
        ratios.append(r_inf)
    failures = []
    if sup_f > 0:
        spread = (max(ratios) - min(ratios)) / max(ratios) \
            if max(ratios) > 0 else 0.0
        if spread > 0.25:
            failures.append(f"bmo ratio varies {spread:.1%} across windows "
                            "(limit 25%)")
    else:
        spread = math.nan
    meta = _base_meta(cfg, rho=cfg.rho, v_spec=v_spec,
                      f_spec=cfg.f_spec or "step:1,0.2",
                      family_size=len(fam), sup_f=sup_f, bmo_f=bmo_f,
                      grid=f"[{grid[0]:g},{grid[-1]:g}]x{grid.size}")
    header = ["n1", "n2", "bmo_t_n", "ratio_sup", "ratio_bmo"]
    summary = {"max_ratio_sup": max(ratios), "spread": spread}
    return ExperimentResult(meta, header, rows, summary,
                            contract_failures=failures)


def run_l1_difference_norm(cfg: ExperimentConfig) -> ExperimentResult:
    """integral |P_{a_{j+1}} - P_{a_j}|(x, .) dm per (j, x); bounded above
    and below (factor 10 across rows) and dilation-invariant."""
    space = LambdaSpace(cfg.lam)
    quad = cfg.quadrature()
    j_min = cfg.j_min if cfg.j_min is not None else -4
    j_max = cfg.j_max if cfg.j_max is not None else 4
    setup = geometric(cfg.rho, j_min, j_max)
    xs = cfg.x_list or tuple(np.geomspace(1e-2, 1e2, 9))
    dil = cfg.dilation if cfg.dilation is not None else 10.0
    rows = []
    for j in range(j_min, j_max):
        t1, t2 = setup.a_at(j), setup.a_at(j + 1)
        for x in xs:
            val = kernel_difference_l1(space, t1, t2, x, quad)
            if dil != 1.0:
                val_d = kernel_difference_l1(space, t1 * dil, t2 * dil,
                                             x * dil, quad)
            else:
                val_d = val
            rows.append((j, t1, t2, x, val, val_d))
    vals = [r[4] for r in rows]
    failures = []
    if min(vals) <= 0 or max(vals) / min(vals) > 10.0:
        failures.append(f"difference norms spread beyond factor 10: "
                        f"[{min(vals):.3e}, {max(vals):.3e}]")
    if dil != 1.0:
        worst = max(abs(r[4] - r[5]) / r[4] for r in rows)
        if worst > 1e-6:
            failures.append(f"dilation changed a value by {worst:.2e} "
                            "(limit 1e-6)")
    meta = _base_meta(cfg, rho=cfg.rho, j_min=j_min, j_max=j_max,
                      dilation=dil)
    header = ["j", "a_j", "a_j1", "x", "value", "value_dilated"]
    summary = {"min_value": min(vals), "max_value": max(vals),
               "spread_factor": max(vals) / min(vals)}
    return ExperimentResult(meta, header, rows, summary,
                            contract_failures=failures)


def run_log_growth(cfg: ExperimentConfig) -> ExperimentResult:
    """Average of T*_M chi_(0,1) over (0, r) against log(2/r).

    Fits the growth exponent of the averages in log(2/r) by least squares
    over the r where T*_M has stabilized (M vs M/2 within 5%); the slope
    must not exceed 1/p' + 0.15 for v in the configured ell^p class.
    """
    space = LambdaSpace(cfg.lam)
    quad = cfg.quadrature()
    p = cfg.p if cfg.p is not None else math.inf
    pprime_inv = 1.0 - 1.0 / p          # 1/p' with the usual conventions
    m = cfg.m_cap or 16
    if m % 2 or m < 2:
        raise ConfigError(f"m must be even and >= 2, got {m}")
    r_list = cfg.r_list or tuple(2.0 ** -k for k in range(2, 11))
    for r in r_list:
        if not 2.0 * r < 1.0:
            raise ConfigError(
                f"log-growth averages need 2r < 1; got r={r:g}")
    height = cfg.f_height if cfg.f_height is not None else 1.0
    f = indicator(1.0, height)
    v_spec = cfg.v_spec or "alternating"
    setup = geometric(cfg.rho, -m, m + 1, v=resolve_v(v_spec, -m, m + 1))
    grid = np.geomspace(min(r_list) / 64.0, max(r_list),
                        cfg.grid_points or 96)
    table = SemigroupTable(space, setup, f, grid, quad)
    S = table.weighted_prefixes(m)
    half = m // 2
    tstar = SampledFunction(grid, max_window_sum_abs(S),
                            left="hold", right="zero")
    tstar_h = SampledFunction(grid, max_window_sum_abs(S[m - half:
                                                         m + half + 2]),
                              left="hold", right="zero")
    rows = []
    fit_x, fit_y = [], []
    for r in sorted(r_list, reverse=True):
        iv = Interval(r / 2.0, r / 2.0)
        mass = measure_interval(space, iv)
        avg = interval_integral(space, tstar, iv) / mass
        avg_h = interval_integral(space, tstar_h, iv) / mass
        stable = (abs(avg - avg_h) <= 0.05 * avg) if avg > 0 \
            else avg_h == 0.0
        rows.append((r, math.log(2.0 / r), avg, avg_h, stable))
        if stable and avg > 0:
            fit_x.append(math.log(math.log(2.0 / r)))
            fit_y.append(math.log(avg))
    if len(fit_x) >= 2:
        slope, intercept = np.polyfit(fit_x, fit_y, 1)
    else:
        slope, intercept = math.nan, math.nan
    failures = []
    bound = pprime_inv + 0.15
    if math.isfinite(slope) and slope > bound:
        failures.append(f"fitted slope {slope:.3f} exceeds "
                        f"1/p' + 0.15 = {bound:.3f}")
    meta = _base_meta(cfg, rho=cfg.rho, v_spec=v_spec, p=p,
                      pprime_inv=pprime_inv, m=m, f_height=height,
                      grid=f"[{grid[0]:g},{grid[-1]:g}]x{grid.size}")
    header = ["r", "log_2_over_r", "average", "average_half_m", "stabilized"]
    summary = {"slope": float(slope), "intercept": float(intercept),
               "slope_bound": bound,
               "n_stabilized": len(fit_x), "m": m}
    return ExperimentResult(meta, header, rows, summary,
                            contract_failures=failures)


EXPERIMENTS = {
    "kernel-eval": run_kernel_eval,
    "bounds-suite": run_bounds_suite,
    "transform": run_transform,
    "loggrowth": run_log_growth,
    "uniform-l2": run_uniform_l2,
    "weighted": run_weighted_sweep,
    "bmo": run_bmo_experiment,
    "l1diff": run_l1_difference_norm,
    "hankel-check": run_hankel_check,
}
