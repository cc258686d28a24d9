"""The four benchmark workloads.

Each workload is one pass of work on inputs made from a seed.  A pass
returns an `Outcome`: the numbers that are compared with the recorded
reference, the program's own tolerance and contract failures, and the CSV
bytes where the pass goes through the CLI's CSV writer.

A pass runs against a package given as a `modules()` namespace: the program
(``besseldt``) or the benchmark's frozen copy of the seed program
(``besseldt_base``).  Library functions are reached through their module at
call time (``bd.lab.EXPERIMENTS``, ``bd.transform.cotlar_check``, ...), so
the wrappers of ``tracer.Tracer`` see the calls.

Sizes are chosen so that one pass takes about 0.35-1.2 s on one core; see
README.md for the reasons and for how they differ from the experiments'
defaults.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

import numpy as np

#: inputs of benchmark seed n are those of workload seed n % REFERENCE_SEEDS,
#: the seeds whose outputs are recorded in reference.json
REFERENCE_SEEDS = 16

MODULES = ("functions", "hankel", "kernel", "lab", "lacunary", "measure",
           "quadrature", "transform")


def modules(package: str) -> SimpleNamespace:
    """The modules of `package` that the workloads call."""
    return SimpleNamespace(**{name: importlib.import_module(f"{package}.{name}")
                              for name in MODULES})


@dataclass
class Outcome:
    values: dict                      # name -> list of numbers or strings
    failures: list = field(default_factory=list)
    csv: bytes | None = None


def _csv_columns(csv: bytes) -> dict:
    lines = [ln for ln in csv.decode("utf-8").splitlines()
             if not ln.startswith("#")]
    header = lines[0].split(",")
    cols = {"csv.header": header}
    for name in header:
        cols[f"csv.{name}"] = []
    for line in lines[1:]:
        for name, tok in zip(header, line.split(",")):
            try:
                cols[f"csv.{name}"].append(float(tok))
            except ValueError:
                cols[f"csv.{name}"].append(tok)
    return cols


def _cli_pass(bd, config: str, out_path) -> Outcome:
    """What ``besseldt <experiment> --config`` does, minus argument parsing
    and printing: parse, run, write the CSV."""
    cfg = bd.lab.parse_config(config)
    result = bd.lab.EXPERIMENTS[cfg.experiment](cfg)
    bd.lab.emit_csv(out_path, result.meta, result.header, result.rows)
    csv = out_path.read_bytes()
    values = {f"summary.{k}": [v] for k, v in result.summary.items()}
    values.update(_csv_columns(csv))
    return Outcome(values,
                   result.tolerance_failures + result.contract_failures, csv)


def semigroup(bd, seed: int, size: dict, out_dir) -> Outcome:
    config = (f"experiment = uniform-l2\nlambda = 1.5\nseed = {seed}\n"
              + "".join(f"{k} = {v}\n" for k, v in size.items()))
    return _cli_pass(bd, config, out_dir / "semigroup.csv")


def pointwise(bd, seed: int, size: dict, out_dir) -> Outcome:
    config = (f"experiment = bounds-suite\nlambda_list = 0.6, 1, 3.5\n"
              f"dilation = 10\nseed = {seed}\n"
              + "".join(f"{k} = {v}\n" for k, v in size.items()))
    return _cli_pass(bd, config, out_dir / "pointwise.csv")


def spectral(bd, seed: int, size: dict, out_dir) -> Outcome:
    """The Hankel route of ``hankel-check`` at lambda = 1.25: the Gaussian
    fixed point, the involution H(Hf) = f, and P_t f through the spectral
    multiplier against the kernel route.  The seed draws the heights of the
    test functions and the fixed-point sample points; their shapes are fixed,
    so the work per pass does not depend on the seed."""
    functions, hankel = bd.functions, bd.hankel
    space = bd.measure.LambdaSpace(1.25)
    quad = bd.quadrature.QuadratureSpec()
    rng = np.random.default_rng(seed)
    h_inv, h_sp = rng.uniform(0.5, 1.5, size=2)
    fp_pts = np.sort(np.exp(rng.uniform(math.log(1e-2), math.log(10.0),
                                        size=24)))
    failures = []

    def check(name, value, tol):
        if not value <= tol:
            failures.append(f"{name}: {value:.3e} > {tol:.0e}")

    check("gaussian_fixed_point",
          hankel.gaussian_fixed_point_defect(space, fp_pts, quad), 1e-8)
    f_inv = functions.SampledFunction.from_callable(
        lambda x: h_inv * np.asarray(x, dtype=float) ** 2
        * np.exp(-0.5 * np.asarray(x, dtype=float) ** 2),
        np.geomspace(1e-4, 12.0, 256), breakpoints=(0.5, 1.0, 2.0, 4.0, 8.0))
    check("involution",
          hankel.involution_defect(space, f_inv, np.asarray(size["inv_pts"]),
                                   size["y_max"], 256, quad), 1e-6)
    f_sp = functions.smooth_bump(2.0, 1.0, h_sp)
    pts = np.asarray(size["sp_pts"])
    via_spectrum = hankel.spectral_poisson_apply(space, f_sp, size["t"], pts,
                                                 quad).values
    direct = bd.kernel.apply_at(space, f_sp, size["t"], pts, quad)[0]
    check("spectral_vs_direct",
          float(np.max(np.abs(via_spectrum - direct))
                / np.max(np.abs(direct))), 1e-7)
    return Outcome({"spectral": via_spectrum.tolist(),
                    "direct": direct.tolist()}, failures)


def maximal(bd, seed: int, size: dict, out_dir) -> Outcome:
    """Acceptance criterion 08(c): the Cotlar-type ratio of T*_M for M in
    `caps`, with alternating weights over 2^j, j in [-J, J).  The seed draws
    the radius and height of the indicator f."""
    transform = bd.transform
    space = bd.measure.LambdaSpace(1.0)
    quad = bd.quadrature.QuadratureSpec()
    rng = np.random.default_rng(seed)
    radius = float(np.exp(rng.uniform(math.log(0.8), math.log(1.25))))
    height = float(rng.uniform(0.5, 2.0))
    f = bd.functions.indicator(radius, height)
    j = size["j"]
    setup = bd.lacunary.geometric(2.0, -j, j, v=np.power(-1.0, np.arange(-j, j)))
    grid = np.geomspace(1e-2, 1e2, size["grid_points"])
    values, sups = {}, []
    for cap in size["caps"]:
        rep = transform.cotlar_check(space, setup,
                                     transform.TruncationLevel(cap), f, 2.0,
                                     grid, quad)
        values[f"ratios.M{cap}"] = rep.ratios.tolist()
        values[f"degenerate.M{cap}"] = [rep.n_degenerate]
        sups.append(rep.sup_ratio)
    failures = []
    spread = (max(sups) - min(sups)) / max(sups)
    if not spread <= 0.25:
        failures.append(f"cotlar sup ratios spread {spread:.1%} > 25%")
    return Outcome(values, failures)


@dataclass(frozen=True)
class Workload:
    run: Callable[..., Outcome]   # (modules, seed, size parameters, out dir)
    sizes: dict                   # "full" and "smoke" parameters of `run`
    base_s: float                 # median full pass of besseldt_base on the
                                  # reference machine, seconds


WORKLOADS = {
    "semigroup": Workload(semigroup, {
        "full": {"f_count": 4, "grid_points": 4},
        "smoke": {"f_count": 2, "grid_points": 4, "windows": 3,
                  "j_min": -3, "j_max": 3}}, 0.35),
    "pointwise": Workload(pointwise, {
        "full": {"n_points": 400},
        "smoke": {"n_points": 60}}, 0.39),
    "spectral": Workload(spectral, {
        "full": {"inv_pts": [0.7, 1.6], "sp_pts": [1.2, 2.4], "t": 1.0,
                 "y_max": 10.0},
        "smoke": {"inv_pts": [1.0, 2.0], "sp_pts": [1.0, 2.0], "t": 2.0,
                  "y_max": 6.0}}, 1.21),
    "maximal": Workload(maximal, {
        "full": {"j": 17, "caps": [4, 8, 16], "grid_points": 6},
        "smoke": {"j": 6, "caps": [2, 4], "grid_points": 4}}, 0.35),
}
