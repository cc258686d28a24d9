"""Experiment recipes behind the CLI: config ingestion, CSV emission, and
reproducible sweeps over the kernel, transform, and maximal operators.

Config files are flat ``key=value`` text (UTF-8, ``#`` comments).  One schema
describes them: ``_KEYS`` gives every key its parser and its single-key
check, ``_DEFAULTS`` gives every experiment its keys and their defaults, and
``_LAMBDA_RANGES`` gives every experiment the lambda it accepts.
`parse_config` fills in every default, then checks the resolved values, so a
runner reads each key under its config name and never sees an unset one.
The CSV meta block is that resolved config followed by the few values a
runner computes; its config lines, pasted back as a config, reproduce the
run.

Reals must be finite; only ``p`` also takes ``inf``.  Sequence values are
comma-separated reals or ``geometric:first,ratio,count``.  Weight sequences
accept ``constant:c``, ``alternating``, ``decay:s`` (alternating sign with
|j|^-s magnitude), or an explicit comma list.  Every run is deterministic
given (config, seed): identical inputs give bit-identical CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, NumericsError
from .functions import (SampledFunction, bump_mixture, indicator,
                        smooth_bump, smoothed_step)
from .hankel import (NU_MAX, gaussian_fixed_point_defect, involution_defect,
                     plancherel_defect, spectral_poisson_apply)
from .kernel import (LAM_MAX, apply_at, kernel_bound_ratios,
                     kernel_difference_l1, kernel_sweep, kernel_values)
from .lacunary import LacunarySetup, geometric
from .measure import (LambdaSpace, PowerWeight, bmo_norm, dyadic_family,
                      interval_q_averages, lp_norm)
from .quadrature import QuadratureSpec
from .transform import (IndexWindow, SemigroupTable, TruncationLevel,
                        _on_grid, max_window_sum_abs, maximal_transform,
                        window_kernel_bounds)

# --------------------------------------------------------------------------
# configuration schema

def _real(text: str, inf_ok: bool = False) -> float:
    v = float(text)
    if not (math.isfinite(v) or (inf_ok and v == math.inf)):
        raise ValueError(f"{v} is not finite")
    return v


def _parse_floats(text: str) -> tuple:
    """A non-empty list of finite reals, comma-separated or
    ``geometric:first,ratio,count``."""
    text = text.strip()
    if text.startswith("geometric:"):
        parts = [s.strip() for s in text[len("geometric:"):].split(",")]
        if len(parts) != 3:
            raise ValueError("geometric spec needs first,ratio,count")
        first, ratio = _real(parts[0]), _real(parts[1])
        count = int(parts[2])
        if count < 1 or ratio <= 0 or first == 0:
            raise ValueError("geometric spec needs count >= 1, ratio > 0, "
                             "first != 0")
        try:
            vals = tuple(first * ratio ** k for k in range(count))
        except OverflowError:
            vals = (math.inf,)
        if not all(map(math.isfinite, vals)):
            raise ValueError("geometric spec overflows")
        return vals
    if not text:
        raise ValueError("empty list")
    return tuple(_real(s) for s in text.split(","))


def _parse_strs(text: str) -> tuple:
    text = text.strip()
    return tuple(s.strip() for s in text.split(",")) if text else ()


def _parse_f(text: str) -> str:
    """An f spec, checked by building its function once; ``mixture`` draws
    from a throwaway generator, the run draws again from its own."""
    resolve_f(text, np.random.default_rng(0))
    return text


_WINDOW_ITEMS = ("window_size", "window_gradient")
_ITEMS = ("i", "ii", "iii", "iv") + _WINDOW_ITEMS

_POSITIVE = (lambda v: v > 0, "must be positive")
_POSITIVE_ENTRIES = (lambda vs: all(v > 0 for v in vs),
                     "entries must be positive")
_ANY = (None, "")


def _at_least(n: int):
    return (lambda v: v >= n, f"must be at least {n}")


#: key -> (parser of the config text, single-key check or None, what the
#: check requires); the checks run on resolved values
_KEYS = {
    "experiment": (str, *_ANY),
    "lambda": (_real, *_ANY),          # lambda, lambda_list: _LAMBDA_RANGES
    "seed": (int, *_ANY),
    "out": (str, *_ANY),
    "y_nodes": (int, *_at_least(4)),
    "abs_tol": (_real, *_POSITIVE),
    "t": (_real, *_POSITIVE),
    "t_list": (_parse_floats, *_POSITIVE_ENTRIES),
    "x_list": (_parse_floats, *_POSITIVE_ENTRIES),
    "y_list": (_parse_floats, *_POSITIVE_ENTRIES),
    "lambda_list": (_parse_floats, *_ANY),
    # the log-growth slope is fitted through the distinct radii
    "r_list": (_parse_floats, lambda rs: (all(0 < 2.0 * r < 1.0 for r in rs)
                                          and len(set(rs)) == len(rs)),
               "entries must be distinct and positive with 2r < 1 "
               "(log-growth averages over (0, r))"),
    "items": (_parse_strs, lambda items: (set(items) <= set(_ITEMS)
                                          and len(set(items)) == len(items)),
              "names a bound item twice or an unknown bound item (known: "
              f"{', '.join(_ITEMS)})"),
    "n_points": (int, *_at_least(1)),
    "rho": (_real, lambda v: v > 1, "must exceed 1"),
    "j_min": (int, *_ANY),
    "j_max": (int, *_ANY),
    "v": (str, *_ANY),                 # checked with its index range
    "n1": (int, *_ANY),
    "n2": (int, *_ANY),
    "m": (int, *_at_least(1)),
    "f": (_parse_f, *_ANY),
    "grid_lo": (_real, *_POSITIVE),
    "grid_hi": (_real, *_POSITIVE),
    "grid_points": (int, *_at_least(2)),
    "p": (lambda s: _real(s, inf_ok=True), lambda v: v >= 1,
          "must be >= 1 (or inf)"),
    "delta": (_real, *_ANY),
    "f_count": (int, *_at_least(1)),
    "windows": (int, *_at_least(1)),
    "f_height": (_real, *_ANY),
    "dilation": (_real, *_POSITIVE),
    "k_lo": (int, *_ANY),
    "k_hi": (int, *_ANY),
    "m_lo": (int, *_ANY),
    "m_hi": (int, *_ANY),
    "y_max": (_real, *_POSITIVE),
    # fewer frequencies cannot resolve H f in the Plancherel check
    "n_y": (int, *_at_least(16)),
    "tol_fixed": (_real, *_ANY),
    "tol_involution": (_real, *_ANY),
    "tol_plancherel": (_real, *_ANY),
    "tol_spectral": (_real, *_ANY),
    "t_lo": (_real, *_POSITIVE),
    "t_hi": (_real, *_POSITIVE),
    "xy_lo": (_real, *_POSITIVE),
    "xy_hi": (_real, *_POSITIVE),
}

_REMOVED = {
    "theta_nodes": "the kernel derivatives are closed form",
    "rel_tol": "no integrator reads it",
}

_COMMON = {"lambda": 1.0, "seed": 0}

#: the quadrature keys, after `_COMMON` in every experiment but the closed
#: form ones, which build no QuadratureSpec
_QUADRATURE = {"y_nodes": QuadratureSpec.y_nodes_per_panel,
               "abs_tol": QuadratureSpec.abs_tol}
_CLOSED_FORM = ("kernel-eval", "bounds-suite")


def _geom(lo: float, hi: float, n: int) -> tuple:
    return tuple(np.geomspace(lo, hi, n).tolist())


#: experiment -> key -> default, in meta-block order after `_COMMON` and
#: `_QUADRATURE`.  A callable default is derived from the keys before it; a
#: None default leaves the key unset unless the config sets it.
_DEFAULTS = {
    "kernel-eval": {"t_list": (1.0,), "x_list": _geom(0.1, 10.0, 5),
                    "y_list": _geom(0.1, 10.0, 5)},
    "bounds-suite": {"lambda_list": lambda c: (c["lambda"],),
                     "items": _ITEMS, "n_points": 400, "rho": 2.0,
                     "j_min": -4, "j_max": 4, "v": "constant:1",
                     "n1": -3, "n2": 3, "dilation": 1.0,
                     "t_lo": 1e-2, "t_hi": 1e2, "xy_lo": 1e-2, "xy_hi": 1e2},
    "transform": {"rho": 2.0, "j_min": -6, "j_max": 6, "v": "constant:1",
                  "n1": -2, "n2": 2, "m": None, "f": "bump:1,0.5",
                  "grid_lo": 1e-2, "grid_hi": 1e2, "grid_points": 129},
    "loggrowth": {"rho": 2.0, "p": math.inf, "v": "alternating", "m": 16,
                  "r_list": tuple(2.0 ** -k for k in range(2, 11)),
                  "grid_points": 96, "f_height": 1.0},
    "uniform-l2": {"rho": 2.0, "j_min": -10, "j_max": 10,
                   "v": "alternating", "f_count": 50, "windows": 12,
                   "grid_lo": 1e-3, "grid_hi": 1e3, "grid_points": 96},
    "weighted": {"rho": 2.0, "v": "alternating", "p": 2.0, "delta": 0.0,
                 "m": 8, "f_count": 20,
                 "grid_lo": 1e-3, "grid_hi": 1e3, "grid_points": 96},
    # the windows (-L, L), L = 4 .. windows + 3, need pairs up to L + 1
    "bmo": {"rho": 2.0, "windows": 5,
            "j_min": lambda c: -(c["windows"] + 4),
            "j_max": lambda c: c["windows"] + 4,
            "v": "decay:1.5", "f": "step:1,0.2",
            "k_lo": -4, "k_hi": 4, "m_lo": -4, "m_hi": 2,
            "grid_lo": 1e-3, "grid_hi": 1e3, "grid_points": 192},
    "l1diff": {"rho": 2.0, "j_min": -4, "j_max": 4,
               "x_list": _geom(1e-2, 1e2, 9), "dilation": 10.0},
    "hankel-check": {"t": 0.6, "y_max": 10.0, "n_y": 2048,
                     "tol_fixed": 1e-8, "tol_involution": 1e-6,
                     "tol_plancherel": 1e-4, "tol_spectral": 1e-7,
                     "grid_points": 64},
}


#: experiment -> (check of one lambda, what it requires), for its lambda and
#: each lambda_list entry: every experiment but hankel-check evaluates the
#: kernel, whose 2F1 tables are checked up to kernel.LAM_MAX; hankel-check's
#: Bessel order lambda - 1/2 must lie in [0, hankel.NU_MAX], where
#: normalized_bessel is validated
_LAMBDA_RANGES = {
    **dict.fromkeys(_DEFAULTS, (lambda lam: 0.0 < lam <= LAM_MAX,
                                f"must be positive and at most "
                                f"{LAM_MAX:g}")),
    "hankel-check": (lambda lam: 0.5 <= lam <= NU_MAX + 0.5,
                     f"must satisfy 1/2 <= lambda <= {NU_MAX + 0.5:g} "
                     f"(Bessel order lambda - 1/2 in [0, {NU_MAX:g}])"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed config: the experiment and every key it uses, resolved and
    checked.  Runners read a key by its config name, ``cfg["lambda"]``."""

    experiment: str
    values: dict                  # key -> value, in meta-block order
    out: Optional[str] = None     # output path; not part of the run

    def __getitem__(self, key: str):
        return self.values[key]

    def quadrature(self) -> QuadratureSpec:
        return QuadratureSpec(y_nodes_per_panel=self["y_nodes"],
                              abs_tol=self["abs_tol"])


def parse_config(text: str) -> ExperimentConfig:
    """Parse flat key=value config text; reject unknown, removed and
    duplicate keys and keys the experiment does not use, fill in defaults,
    and check the resolved values.  Errors carry the line of the key."""
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
        if key in _REMOVED:
            raise ConfigError(f"line {lineno}: key {key!r} was removed: "
                              f"{_REMOVED[key]}")
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _KEYS[key][0](val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}"
                              ) from None
        lines_of[key] = lineno

    if "experiment" not in values:
        raise ConfigError("missing required key 'experiment'")
    exp = values.pop("experiment")
    if exp not in _DEFAULTS:
        raise ConfigError(
            f"line {lines_of['experiment']}: unknown experiment {exp!r}; "
            f"choose from {sorted(_DEFAULTS)}")
    out = values.pop("out", None)
    defaults = {**_COMMON, **({} if exp in _CLOSED_FORM else _QUADRATURE),
                **_DEFAULTS[exp]}
    for key in values:
        if key not in defaults:
            raise ConfigError(f"line {lines_of[key]}: key {key!r} is not "
                              f"used by experiment {exp!r}")

    resolved = {}
    for key, default in defaults.items():
        if key in values:
            resolved[key] = values[key]
        elif callable(default):
            resolved[key] = default(resolved)
        elif default is not None:
            resolved[key] = default

    def bad(msg, *keys):
        """Raise `msg` at the line of the first of `keys` the config sets."""
        where = next((f"line {lines_of[k]}: " for k in keys
                      if k in lines_of), "")
        raise ConfigError(where + msg)

    in_range, need = _LAMBDA_RANGES[exp]
    for key in ("lambda", "lambda_list"):
        for lam in np.atleast_1d(resolved.get(key, ())):
            if not in_range(lam):
                bad(f"{key} {need}, got {float(lam)!r}", key)
    for key, val in resolved.items():
        _, ok, need = _KEYS[key]
        if ok is not None and not ok(val):
            bad(f"{key} {need}, got {_fmt(val)}", key)
    _check_together(exp, resolved, bad)
    return ExperimentConfig(exp, resolved, out)


def _check_together(exp: str, c: dict, bad) -> None:
    """The checks that read more than one key, on resolved values."""
    for lo, hi in (("j_min", "j_max"), ("grid_lo", "grid_hi"),
                   ("t_lo", "t_hi"), ("xy_lo", "xy_hi")):
        if lo in c and not c[lo] < c[hi]:
            bad(f"needs {lo} < {hi}, got ({c[lo]:g}, {c[hi]:g})", lo, hi)
    # k_lo = k_hi (or m_lo = m_hi) is a family of one center (or radius)
    for lo, hi in (("k_lo", "k_hi"), ("m_lo", "m_hi")):
        if lo in c and not c[lo] <= c[hi]:
            bad(f"needs {lo} <= {hi}, got ({c[lo]}, {c[hi]})", lo, hi)
    if exp == "uniform-l2" and c["j_max"] - c["j_min"] < 2:
        bad("uniform-l2 draws windows inside [j_min, j_max - 1] and needs "
            f"j_max - j_min >= 2, got ({c['j_min']}, {c['j_max']})",
            "j_min", "j_max")
    if exp in ("bounds-suite", "transform"):
        j_min, j_max, n1, n2 = c["j_min"], c["j_max"], c["n1"], c["n2"]
        if n1 >= n2:
            bad(f"window needs n1 < n2, got ({n1}, {n2})", "n1", "n2")
        uses_window = (exp == "transform"
                       or any(it in _WINDOW_ITEMS for it in c["items"]))
        if uses_window and not (j_min <= n1 and n2 <= j_max - 1):
            bad(f"window ({n1}, {n2}) outside the pair range "
                f"[{j_min}, {j_max - 1}] of j_min, j_max",
                "n1" if n1 < j_min else "n2", "j_min", "j_max")
        m = c.get("m")
        if m is not None and not (j_min <= -m and m <= j_max - 1):
            bad(f"m = {m} needs [-m, m] inside the pair range "
                f"[{j_min}, {j_max - 1}] of j_min, j_max",
                "m", "j_min", "j_max")
    if exp in ("weighted", "loggrowth") and c["m"] % 2:
        bad(f"m must be even and >= 2, got {c['m']}", "m")
    if exp == "weighted":
        p, delta = c["p"], c["delta"]
        if not p > 1:
            bad(f"weighted sweep needs p > 1, got {p:g}", "p")
        space, weight = LambdaSpace(c["lambda"]), PowerWeight(delta)
        if not weight.in_ap(space, p):
            lo, hi = weight.ap_bounds(space, p)
            bad(f"delta {delta:g} outside the A_p gate ({lo:g}, {hi:g}) "
                f"for p={p:g}, lambda={c['lambda']:g}",
                "delta", "p", "lambda")
    if exp == "bmo":
        reach = c["windows"] + 4
        if not (c["j_min"] <= 1 - reach and reach <= c["j_max"]):
            bad(f"window (-{reach - 1},{reach - 1}) does not fit in "
                f"[{c['j_min']},{c['j_max']}]", "j_min", "j_max", "windows")
    if "rho" in c:
        lo, hi = _pair_range(exp, c)
        # the times rho^j, j = lo .. hi, of geometric: a Python float power
        # raises OverflowError where numpy's would warn and give inf
        try:
            first, last = c["rho"] ** lo, c["rho"] ** hi
        except OverflowError:
            first = last = math.inf
        if not (first > 0.0 and last < math.inf):
            bad(f"rho = {c['rho']:g} makes the times rho^j, j in [{lo}, "
                f"{hi}], overflow or underflow", "rho", "m", "j_min", "j_max")
        if "v" in c:
            try:
                resolve_v(c["v"], lo, hi)
            except ConfigError as exc:
                bad(str(exc), "v", "m", "j_min", "j_max")


def _pair_range(exp: str, c) -> tuple:
    """Pair indices [lo, hi) of the weights v: [-m, m] for the T*_M runners
    weighted and loggrowth, [j_min, j_max) for the others."""
    if exp in ("weighted", "loggrowth"):
        return -c["m"], c["m"] + 1
    return c["j_min"], c["j_max"]


def resolve_v(spec: str, j_min: int, j_max: int) -> np.ndarray:
    """Weight sequence v_j for pair indices j in [j_min, j_max)."""
    js = np.arange(j_min, j_max)
    s = spec.strip()
    try:
        if s.startswith("constant:"):
            return np.full(js.size, _real(s[len("constant:"):]))
        if s == "alternating":
            return np.power(-1.0, js)
        if s.startswith("decay:"):
            expo = _real(s[len("decay:"):])
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


#: f family -> (builder, fewest and most numbers after the colon)
_F_FAMILIES = {"indicator": (indicator, 0, 2), "bump": (smooth_bump, 2, 3),
               "step": (smoothed_step, 0, 3)}


def resolve_f(spec: str, rng: np.random.Generator) -> SampledFunction:
    """Test function of an f spec: ``indicator[:b,h]``,
    ``bump:center,width[,h]``, ``step[:edge,ramp,h]`` or ``mixture`` (a
    bump mixture drawn from `rng`)."""
    s = spec.strip()
    if s == "mixture":
        return bump_mixture(rng)
    name, colon, args = s.partition(":")
    if name not in _F_FAMILIES:
        raise ConfigError(f"unknown f spec {spec!r}")
    build, fewest, most = _F_FAMILIES[name]
    try:
        nums = _parse_floats(args) if colon else ()
        if not fewest <= len(nums) <= most:
            raise ValueError(f"{name} takes {fewest} to {most} numbers, "
                             f"got {len(nums)}")
        return build(*nums)
    except ValueError as exc:
        raise ConfigError(f"bad f spec {spec!r}: {exc}") from None


# --------------------------------------------------------------------------
# CSV emission

def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    if isinstance(v, tuple):
        return ",".join(_fmt(x) for x in v)
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


def _meta(cfg: ExperimentConfig, **computed) -> dict:
    """The meta block: the resolved config, then what the runner computed."""
    return {"experiment": cfg.experiment, **cfg.values, **computed}


def _grid(cfg: ExperimentConfig) -> np.ndarray:
    return np.geomspace(cfg["grid_lo"], cfg["grid_hi"], cfg["grid_points"])


def _setup(cfg: ExperimentConfig) -> LacunarySetup:
    """Geometric times with ratio rho and the weights v over the pair range
    of the experiment."""
    lo, hi = _pair_range(cfg.experiment, cfg)
    return geometric(cfg["rho"], lo, hi, v=resolve_v(cfg["v"], lo, hi))


def _maximal_pair(table: SemigroupTable, m: int):
    """T*_M and T*_(M/2) on the table's grid from one prefix pass."""
    S = table.weighted_prefixes(m)
    half = m // 2
    return (max_window_sum_abs(S),
            max_window_sum_abs(S[m - half:m + half + 2]))


def _finite_max(ratios) -> float:
    """The largest of a runner's norm ratios; NumericsError when it is not
    finite, as where a norm's power of the grid end overflows."""
    top = float(np.max(ratios))
    if not math.isfinite(top):
        raise NumericsError(f"max ratio is not finite: {top!r}")
    return top


def _spearman(a, b) -> float:
    """Spearman's rank correlation: the Pearson correlation of the average
    ranks, tied values sharing the mean of their ranks; nan when either
    rank vector is constant."""
    def ranks(x):
        _, inverse, counts = np.unique(x, return_inverse=True,
                                       return_counts=True)
        return (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]
    ra, rb = ranks(a), ranks(b)
    if np.all(ra == ra[0]) or np.all(rb == rb[0]):
        return math.nan
    # the same layout and entry as scipy.stats.spearmanr, which it
    # matches bit for bit
    return float(np.corrcoef(np.column_stack([ra, rb]), rowvar=False)[1, 0])


# --------------------------------------------------------------------------
# runners

def run_kernel_eval(cfg: ExperimentConfig) -> ExperimentResult:
    """P_t(x, y) and its first derivatives over a (t, x, y) product grid."""
    space = LambdaSpace(cfg["lambda"])
    xs, ys = np.asarray(cfg["x_list"]), np.asarray(cfg["y_list"])
    rows = []
    for t in cfg["t_list"]:
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        gx, gy = gx.ravel(), gy.ravel()
        # an overflow shows as a non-finite value, checked below
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # rows p, dt, d/dx, d/dy
            vals = kernel_values(space, t, gx, gy, ("p", "dt", "grad"))
        bad = np.argwhere(~np.isfinite(vals))
        if bad.size:
            row, i = bad[0]
            raise NumericsError(
                f"kernel value {('p', 'dt', 'dx', 'dy')[row]} at "
                f"t = {t:g}, x = {gx[i]:g}, y = {gy[i]:g} is {vals[row, i]}")
        rows.extend((t, x, y, *v) for x, y, v in zip(gx, gy, vals.T))
    header = ["t", "x", "y", "p", "dp_dt", "dp_dx", "dp_dy"]
    summary = {"points": len(rows),
               "sup_p": max(r[3] for r in rows)}
    return ExperimentResult(_meta(cfg), header, rows, summary)


def _regime_sweep(rng: np.random.Generator, n: int, lo: float, hi: float):
    """(x, y) pairs, half with x > 2|x-y| and half with x <= 2|x-y|."""
    x = np.exp(rng.uniform(np.log(lo), np.log(hi), size=n))
    frac = np.where(rng.random(n) < 0.5,
                    rng.uniform(0.01, 0.4, size=n),
                    rng.uniform(0.6, 3.0, size=n))
    y = x + np.where(rng.random(n) < 0.5, 1.0, -1.0) * frac * x
    keep = y > 0
    return np.column_stack([x[keep], y[keep]])


def run_bounds_suite(cfg: ExperimentConfig) -> ExperimentResult:
    """Fitted constants of the kernel size/smoothness bounds and of the
    windowed-kernel bounds, per regime, with a dilation-invariance column."""
    rng = np.random.default_rng(cfg["seed"])
    items = cfg["items"]
    n = cfg["n_points"]
    dil = cfg["dilation"]
    t_rng = (cfg["t_lo"], cfg["t_hi"])
    xy_rng = (cfg["xy_lo"], cfg["xy_hi"])
    setup = _setup(cfg)
    win = IndexWindow(cfg["n1"], cfg["n2"])

    def constants(space, sweep, pair_sweep, s):
        """item -> [(regime, constant)] on the sweeps and times scaled by s."""
        out = {}
        if any(it in _WINDOW_ITEMS for it in items):
            setup_s = LacunarySetup(setup.a * s, setup.v, setup.rho,
                                    setup.j_min)
            rep = window_kernel_bounds(space, setup_s, win, pair_sweep * s,
                                       gradient="window_gradient" in items)
            out["window_size"] = [("all", rep.sup_size),
                                  ("near", rep.sup_size_near),
                                  ("far", rep.sup_size_far)]
            out["window_gradient"] = [("all", rep.sup_gradient)]
        # the kernel items from one kernel pass over the sweep
        kernel_items = tuple(it for it in items if it not in _WINDOW_ITEMS)
        if kernel_items:
            rep = kernel_bound_ratios(space, sweep * s, kernel_items)
            for item, *sups in zip(rep.items, rep.sup_ratio, rep.sup_near,
                                   rep.sup_far):
                out[item] = list(zip(("all", "near", "far"), sups))
        return out

    rows = []
    failures = []
    for lam in cfg["lambda_list"]:
        space = LambdaSpace(lam)
        sweep = kernel_sweep(rng, n, t_rng, xy_rng)
        pair_sweep = _regime_sweep(rng, n, *xy_rng)
        # an overflow shows as a non-finite constant, checked below
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            plain = constants(space, sweep, pair_sweep, 1.0)
            dilated = (constants(space, sweep, pair_sweep, dil)
                       if dil != 1.0 else plain)
        for item in items:
            for (regime, val), (_, val_d) in zip(plain[item], dilated[item]):
                if not (math.isfinite(val) and math.isfinite(val_d)):
                    raise NumericsError(f"constant {item}/{regime} at lambda "
                                        f"= {lam:g} is {val}, dilated {val_d}")
                rows.append((lam, item, regime, val, val_d))
                if dil != 1.0 and abs(val - val_d) > 1e-10 * abs(val):
                    failures.append(
                        f"dilation broke homogeneity: lambda={lam:g} "
                        f"{item}/{regime}: {val!r} vs {val_d!r}")
    header = ["lambda", "item", "regime", "constant", "constant_dilated"]
    summary = {"rows": len(rows)}
    if rows:
        summary["max_constant"] = max(r[3] for r in rows)
    return ExperimentResult(_meta(cfg), header, rows, summary,
                            contract_failures=failures)


def run_transform(cfg: ExperimentConfig) -> ExperimentResult:
    """T_N f (and, when m is set, T*_M f) sampled on a log grid."""
    space = LambdaSpace(cfg["lambda"])
    rng = np.random.default_rng(cfg["seed"])
    f = resolve_f(cfg["f"], rng)
    grid = _grid(cfg)
    table = SemigroupTable(space, _setup(cfg), f, grid, cfg.quadrature())
    vals = table.window(cfg["n1"], cfg["n2"])
    header = ["x", "t_n"]
    columns = [grid, vals]
    summary = {"sup_t_n": float(np.max(np.abs(vals)))}
    m = cfg.values.get("m")
    if m is not None:
        tstar = maximal_transform(table, TruncationLevel(m))
        header.append("t_star")
        columns.append(tstar)
        summary["sup_t_star"] = float(tstar.max())
    rows = list(zip(*columns))
    return ExperimentResult(_meta(cfg), header, rows, summary)


def run_hankel_check(cfg: ExperimentConfig) -> ExperimentResult:
    """Transform sanity table: Gaussian fixed point, involution on an
    analytic pair, Plancherel, and the multiplier route for P_t."""
    space = LambdaSpace(cfg["lambda"])
    quad = cfg.quadrature()
    rng = np.random.default_rng(cfg["seed"])
    rows = []
    failures = []

    def record(name, value, tol):
        rows.append((name, value, tol))
        if not value <= tol:
            failures.append(f"{name}: {value:.3e} > {tol:g}")

    npts = cfg["grid_points"]
    eval_pts = np.geomspace(1e-2, 10.0, npts)
    record("gaussian_fixed_point",
           gaussian_fixed_point_defect(space, eval_pts, quad),
           cfg["tol_fixed"])

    # x^2 exp(-x^2/2): analytic, transform pair decays like exp(-y^2/2),
    # and it is not an eigenfunction, so the double transform is nontrivial
    f_grid = np.geomspace(1e-4, 12.0, 256)
    f_inv = SampledFunction.from_callable(
        lambda x: np.asarray(x, dtype=float) ** 2
        * np.exp(-0.5 * np.asarray(x, dtype=float) ** 2),
        f_grid, breakpoints=(0.5, 1.0, 2.0, 4.0, 8.0))
    # nested double transforms pay per evaluation point; a thin sup grid
    # keeps the check honest at a fraction of the cost
    inv_pts = np.geomspace(1e-2, 10.0, min(npts, 24))
    record("involution",
           involution_defect(space, f_inv, inv_pts, cfg["y_max"], 256, quad),
           cfg["tol_involution"])

    f_mix = bump_mixture(rng, span=(1e-1, 1e1))
    lhs, rhs, rel = plancherel_defect(space, f_mix, 300.0, cfg["n_y"], quad)
    record("plancherel", rel, cfg["tol_plancherel"])

    t = cfg["t"]
    f_sp = smooth_bump(2.0, 1.0)
    sp_pts = np.geomspace(1e-1, 10.0, min(npts, 16))
    spectral = spectral_poisson_apply(space, f_sp, t, sp_pts, quad)
    direct = apply_at(space, f_sp, t, sp_pts, quad)[0]
    rel_sp = float(np.max(np.abs(spectral.values - direct))
                   / np.max(np.abs(direct)))
    record("spectral_vs_direct", rel_sp, cfg["tol_spectral"])

    meta = _meta(cfg, plancherel_l2=_fmt(lhs) + "/" + _fmt(rhs))
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
    space = LambdaSpace(cfg["lambda"])
    quad = cfg.quadrature()
    rng = np.random.default_rng(cfg["seed"])
    setup = _setup(cfg)
    wins = _sample_windows(rng, cfg["windows"], cfg["j_min"], cfg["j_max"])
    grid = _grid(cfg)
    rows = []
    ratios, lengths = [], []
    fs = [bump_mixture(rng, span=(1e-1, 1e1)) for _ in range(cfg["f_count"])]
    for k, f in enumerate(fs):
        table = SemigroupTable(space, setup, f, grid, quad)
        # an overflow shows as a non-finite ratio, checked below
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            norm_f = lp_norm(space, f, 2.0)
            for win in wins:
                tn = table.window(win.n1, win.n2)
                ratio = lp_norm(space, _on_grid(grid, tn), 2.0) / norm_f
                rows.append((k, win.n1, win.n2, win.length, ratio))
                ratios.append(ratio)
                lengths.append(win.length)
    max_ratio = _finite_max(ratios)
    sp = _spearman(lengths, ratios)
    failures = []
    # equal window lengths leave the correlation undefined (nan): no growth
    if sp >= 0.3:
        failures.append(f"ratio grows with window length: "
                        f"spearman {sp:.3f} >= 0.3")
    header = ["f_index", "n1", "n2", "window_length", "ratio"]
    summary = {"max_ratio": max_ratio, "spearman": sp}
    return ExperimentResult(_meta(cfg), header, rows, summary,
                            contract_failures=failures)


def run_weighted_sweep(cfg: ExperimentConfig) -> ExperimentResult:
    """||T*_M f||_p / ||f||_p in L^p(x^delta dm) over random bump mixtures,
    with the value at M/2 as a truncation-stability column."""
    space = LambdaSpace(cfg["lambda"])
    quad = cfg.quadrature()
    rng = np.random.default_rng(cfg["seed"])
    p = cfg["p"]
    weight = PowerWeight(cfg["delta"])
    lo, hi = weight.ap_bounds(space, p)
    setup = _setup(cfg)
    grid = _grid(cfg)
    rows = []
    fs = [bump_mixture(rng, span=(1e-1, 1e1)) for _ in range(cfg["f_count"])]
    for k, f in enumerate(fs):
        pair = _maximal_pair(SemigroupTable(space, setup, f, grid, quad),
                             cfg["m"])
        # an overflow shows as a non-finite ratio, checked below
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            den = lp_norm(space, f, p, weight)
            ratio, ratio_h = (lp_norm(space, _on_grid(grid, tstar), p,
                                      weight) / den for tstar in pair)
        stab = abs(ratio - ratio_h) / ratio if ratio > 0 else 0.0
        rows.append((k, ratio, ratio_h, stab))
    max_ratio = _finite_max([r[1] for r in rows])
    meta = _meta(cfg, ap_gate=f"({lo:g},{hi:g})")
    header = ["f_index", "ratio", "ratio_half_m", "stability"]
    summary = {"max_ratio": max_ratio,
               "max_stability": float(np.max([r[3] for r in rows]))}
    return ExperimentResult(meta, header, rows, summary)


def run_bmo_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """bmo(T_N f) against ||f||_inf and bmo(f) along nested windows; the
    sup must stabilize once the window covers the active scales."""
    space = LambdaSpace(cfg["lambda"])
    rng = np.random.default_rng(cfg["seed"])
    f = resolve_f(cfg["f"], rng)
    left, right = dyadic_family((cfg["k_lo"], cfg["k_hi"]),
                                (cfg["m_lo"], cfg["m_hi"]))
    grid = _grid(cfg)
    table = SemigroupTable(space, _setup(cfg), f, grid, cfg.quadrature())
    sup_f = float(np.max(np.abs(f.values)))
    bmo_f = bmo_norm(space, f, left, right)
    rows = []
    ratios = []
    # Start at L=4 so every window already covers the scales where f
    # lives; the interesting claim is that widening further changes
    # nothing, and windows still inside the ramp-up would test the
    # wrong thing.
    for L in range(4, 4 + cfg["windows"]):
        t_n = _on_grid(grid, table.window(-L, L))
        b = bmo_norm(space, t_n, left, right)
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
    meta = _meta(cfg, family_size=left.size, sup_f=sup_f, bmo_f=bmo_f)
    header = ["n1", "n2", "bmo_t_n", "ratio_sup", "ratio_bmo"]
    summary = {"max_ratio_sup": max(ratios), "spread": spread}
    return ExperimentResult(meta, header, rows, summary,
                            contract_failures=failures)


def run_l1_difference_norm(cfg: ExperimentConfig) -> ExperimentResult:
    """integral |P_{a_{j+1}} - P_{a_j}|(x, .) dm per (j, x); bounded above
    and below (factor 10 across rows) and dilation-invariant."""
    space = LambdaSpace(cfg["lambda"])
    quad = cfg.quadrature()
    j_min, j_max = cfg["j_min"], cfg["j_max"]
    setup = geometric(cfg["rho"], j_min, j_max)
    dil = cfg["dilation"]
    rows = []
    for j in range(j_min, j_max):
        t1, t2 = setup.a_at(j), setup.a_at(j + 1)
        for x in cfg["x_list"]:
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
    header = ["j", "a_j", "a_j1", "x", "value", "value_dilated"]
    summary = {"min_value": min(vals), "max_value": max(vals),
               "spread_factor": max(vals) / min(vals)}
    return ExperimentResult(_meta(cfg), header, rows, summary,
                            contract_failures=failures)


def run_log_growth(cfg: ExperimentConfig) -> ExperimentResult:
    """Average of T*_M chi_(0,1) over (0, r) against log(2/r).

    Fits the growth exponent of the averages in log(2/r) by least squares
    over the r where T*_M has stabilized (M vs M/2 within 5%); the slope
    must not exceed 1/p' + 0.15 for v in the configured ell^p class.
    """
    space = LambdaSpace(cfg["lambda"])
    pprime_inv = 1.0 - 1.0 / cfg["p"]   # 1/p' with the usual conventions
    m = cfg["m"]
    r_list = cfg["r_list"]
    f = indicator(1.0, cfg["f_height"])
    grid = np.geomspace(min(r_list) / 64.0, max(r_list), cfg["grid_points"])
    table = SemigroupTable(space, _setup(cfg), f, grid, cfg.quadrature())
    # averages over (0, r) = I(r/2, r/2); T* >= 0, so its q = 1 averages
    # are the signed ones
    rs = sorted(r_list, reverse=True)
    mid = 0.5 * np.array(rs)
    avgs, avgs_h = (interval_q_averages(space, _on_grid(grid, tstar), mid,
                                        mid, 1.0)
                    for tstar in _maximal_pair(table, m))
    rows = []
    fit_x, fit_y = [], []
    for r, avg, avg_h in zip(rs, avgs, avgs_h):
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
    meta = _meta(cfg, pprime_inv=pprime_inv)
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
