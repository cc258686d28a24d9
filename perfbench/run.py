"""Benchmark of besseldt: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke         # all workloads, tiny, traced
    python3 perfbench/run.py --record        # rewrite reference.json
    python3 perfbench/run.py --environment   # rewrite environment.json
    python3 perfbench/run.py --write-spec    # rewrite BENCHMARK.json

A measuring run is one process and a closed loop.  It warms up, then runs
pairs of passes until S seconds have gone (at least three pairs): one pass
of the program under src/ and one of besseldt_base, the frozen copy of the
seed program in this directory, in alternating order.  Times are the
median program/base ratio times the base's time on the reference machine,
because the host's speed drifts by more than the bounds.  Every pass is
checked against reference.json.  The last line of standard output is a JSON
object with keys correct, attempted, failed and metrics; with --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.  See
README.md for the workloads and for which layer metric should move which
end-to-end metric.
"""

import os

# BLAS threads are pinned before numpy loads OpenBLAS, in this process and
# in every process it starts for measuring.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(PINNED)

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

RUN_SECONDS = 20
SETUP_PAIRS = 3
MIN_PASSES = 3
PROGRAM, BASE = "besseldt", "besseldt_base"
#: median set-up time of besseldt_base on the reference machine, seconds
BASE_SETUP_S = 0.74

WORKLOAD_WHY = {
    "semigroup": "uniform-l2 over 4 random bump mixtures: SemigroupTable "
                 "levels, angular kernel quadrature and per-x radial panels",
    "pointwise": "bounds-suite at three lambdas: kernel and derivatives at "
                 "scattered points by node doubling and window_kernel; no "
                 "radial layer",
    "spectral": "Hankel route at lambda 1.25: normalized_bessel, oscillatory "
                "panels and f evaluation; the kernel is a small share",
    "maximal": "Cotlar check of T*_M for M = 4, 8, 16 on one indicator: "
               "prefix/maximal pass and measure.interval_q_integral",
}

# (name, unit, bound): end-to-end metrics, all lower-is-better
END_TO_END = (
    ("norm_wall_s", "s", 0.25),
    ("setup_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.1),
)

LAYERS = ("kernel", "quadrature", "transform", "measure", "hankel",
          "functions", "lab")

# (name, unit, better): per-layer metrics of a traced run
PER_LAYER = (
    ("kernel.values.points", "count", "lower"),
    ("kernel.values.busy_s", "s", "lower"),
    ("kernel.values.us_per_point", "us", "lower"),
    ("kernel.pointwise.points", "count", "lower"),
    ("kernel.pointwise.busy_s", "s", "lower"),
    ("kernel.apply_at.calls", "count", "lower"),
    ("kernel.apply_at.self_s", "s", "lower"),
    ("quadrature.panel_edges.calls", "count", "lower"),
    ("quadrature.panel_edges.busy_s", "s", "lower"),
    ("quadrature.panels", "count", "lower"),
    ("quadrature.panel_nodes.busy_s", "s", "lower"),
    ("transform.level.computed", "count", "lower"),
    ("transform.level.reads", "count", "lower"),
    ("transform.level.hit_ratio", "ratio", "higher"),
    ("transform.table.busy_s", "s", "lower"),
    ("transform.prefix.busy_s", "s", "lower"),
    ("transform.max_window.busy_s", "s", "lower"),
    ("transform.maximal_hl.busy_s", "s", "lower"),
    ("transform.maximal_hl.averages", "count", "lower"),
    ("transform.window_kernel.points", "count", "lower"),
    ("transform.window_kernel.busy_s", "s", "lower"),
    ("measure.interval_q.calls", "count", "lower"),
    ("measure.interval_q.busy_s", "s", "lower"),
    ("measure.lp_norm.busy_s", "s", "lower"),
    ("measure.measure_interval.calls", "count", "lower"),
    ("hankel.bessel.points", "count", "lower"),
    ("hankel.bessel.busy_s", "s", "lower"),
    ("hankel.bessel.us_per_point", "us", "lower"),
    ("hankel.transform.calls", "count", "lower"),
    ("hankel.transform.self_s", "s", "lower"),
    ("functions.eval.points", "count", "lower"),
    ("functions.eval.self_s", "s", "lower"),
    ("lab.run.self_s", "s", "lower"),
    ("lab.csv.busy_s", "s", "lower"),
    ("lab.csv.bytes", "bytes", "lower"),
    ("lab.cpu_s", "s", "lower"),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("harness.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.accounted_frac", "ratio", "higher"),
    ("fail_frac", "ratio", "lower"),
)

#: counts that must repeat exactly from one traced pass to the next
REPEATED = tuple(name for name, unit, _ in PER_LAYER
                 if unit in ("count", "bytes"))

SETUP_CODE = """\
import time
t0 = time.perf_counter()
import {package}.cli
from {package}.lab import parse_config
parse_config("experiment = uniform-l2\\nlambda = 1.5\\n")
print(repr(time.perf_counter() - t0))
"""


def _import_program():
    """Put the checkout's src/ first on the path and check that besseldt
    comes from there."""
    if not (SRC / "besseldt" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no besseldt sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import besseldt
    found = Path(besseldt.__file__).resolve().parent
    if found != (SRC / "besseldt").resolve():
        raise SystemExit(f"perfbench: besseldt imported from {found}, "
                         f"not from {SRC}")


def _child_env(pinned=True, path=SRC) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in PINNED}
    if pinned:
        env.update(PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(path), os.environ.get("PYTHONPATH", "")) if p)
    return env


def measure_setup(pairs: int) -> list:
    """Seconds a fresh interpreter takes to import <package>.cli and parse
    a config, measured inside the interpreter: (program, base) pairs."""
    def once(package, path):
        out = subprocess.run([sys.executable, "-c",
                              SETUP_CODE.format(package=package)],
                             env=_child_env(path=path), cwd=ROOT, check=True,
                             capture_output=True, text=True, timeout=120)
        return float(out.stdout.split()[-1])
    times = []
    for k in range(pairs):
        if k % 2:
            base = once(BASE, HERE)
            times.append((once(PROGRAM, SRC), base))
        else:
            times.append((once(PROGRAM, SRC), once(BASE, HERE)))
    return times


def ratio_median(pairs) -> float:
    return statistics.median(p / b for p, b in pairs)


def machine() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            **{k: os.environ.get(k) for k in PINNED}}


class Runner:
    """Runs and checks passes of one workload on one seed."""

    def __init__(self, name: str, seed: int, size: str, references: dict,
                 package: str = PROGRAM):
        """`references` maps workload seeds to recorded outputs at `size`."""
        from workloads import REFERENCE_SEEDS, WORKLOADS, modules
        self.name = name
        self.package = package
        self.modules = modules(package)
        self.workload = WORKLOADS[name]
        self.seed = seed % REFERENCE_SEEDS
        self.size = size
        self.reference = references[str(self.seed)]
        self.out = OUT / package
        self.first_csv = None
        self.attempted = 0
        self.failed = 0

    def one_pass(self, tracer=None) -> float:
        """Runs and checks one pass; returns its wall seconds."""
        from gate import drift
        run = self.workload.run
        if tracer is not None:
            tracer.reset()
            run = tracer.wrap("pass", run)
        params = self.workload.sizes[self.size]
        self.out.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        try:
            outcome = run(self.modules, self.seed, params, self.out)
        except Exception as exc:  # a failing pass is counted, not fatal
            wall = time.perf_counter() - t0
            problems = [f"raised {type(exc).__name__}: {exc}"]
        else:
            wall = time.perf_counter() - t0
            problems = outcome.failures + drift(self.reference, outcome.values)
            if outcome.csv is not None:
                if self.first_csv is None:
                    self.first_csv = outcome.csv
                elif outcome.csv != self.first_csv:
                    problems.append("CSV bytes differ from the first pass")
        self.attempted += 1
        if problems:
            self.fail(problems)
        return wall

    def fail(self, problems, counted=False):
        """Reports the problems of a pass; counts the pass as failed unless
        it already was."""
        if not counted:
            self.failed += 1
        for msg in problems:
            print(f"perfbench: {self.package} {self.name} seed {self.seed}: "
                  f"{msg}", file=sys.stderr)


def layer_metrics(summary: dict) -> dict:
    """Per-layer metrics of one traced pass from tracer.summarize()."""
    def get(span, key):
        return summary.get(span, {}).get(key, 0)

    def per_point(span):
        n = get(span, "count")
        return get(span, "busy") / n * 1e6 if n else 0.0

    reads = get("transform.level", "calls")
    computed = get("transform.level", "worked")
    m = {
        "kernel.values.points": get("kernel.values", "count"),
        "kernel.values.busy_s": get("kernel.values", "busy"),
        "kernel.values.us_per_point": per_point("kernel.values"),
        "kernel.pointwise.points": get("kernel.pointwise", "count"),
        "kernel.pointwise.busy_s": get("kernel.pointwise", "busy"),
        "kernel.apply_at.calls": get("kernel.apply_at", "calls"),
        "kernel.apply_at.self_s": get("kernel.apply_at", "self"),
        "quadrature.panel_edges.calls": get("quadrature.panel_edges", "calls"),
        "quadrature.panel_edges.busy_s": get("quadrature.panel_edges", "busy"),
        "quadrature.panels": get("quadrature.panel_edges", "count"),
        "quadrature.panel_nodes.busy_s": get("quadrature.panel_nodes", "busy"),
        "transform.level.computed": computed,
        "transform.level.reads": reads,
        "transform.level.hit_ratio":
            (reads - computed) / reads if reads else 0.0,
        "transform.table.busy_s": get("transform.level", "busy"),
        "transform.prefix.busy_s": get("transform.prefix", "busy"),
        "transform.max_window.busy_s": get("transform.max_window", "busy"),
        "transform.maximal_hl.busy_s": get("transform.maximal_hl", "busy"),
        "transform.maximal_hl.averages": get("transform.maximal_hl", "count"),
        "transform.window_kernel.points":
            get("transform.window_kernel", "count"),
        "transform.window_kernel.busy_s":
            get("transform.window_kernel", "busy"),
        "measure.interval_q.calls": get("measure.interval_q", "calls"),
        "measure.interval_q.busy_s": get("measure.interval_q", "busy"),
        "measure.lp_norm.busy_s": get("measure.lp_norm", "busy"),
        "measure.measure_interval.calls":
            get("measure.measure_interval", "calls"),
        "hankel.bessel.points": get("hankel.bessel", "count"),
        "hankel.bessel.busy_s": get("hankel.bessel", "busy"),
        "hankel.bessel.us_per_point": per_point("hankel.bessel"),
        "hankel.transform.calls": get("hankel.transform", "calls"),
        "hankel.transform.self_s": get("hankel.transform", "self"),
        "functions.eval.points": get("functions.eval", "count"),
        "functions.eval.self_s": get("functions.eval", "self"),
        "lab.run.self_s": get("lab.run", "self"),
        "lab.csv.busy_s": get("lab.csv", "busy"),
        "lab.csv.bytes": get("lab.csv", "count"),
        "lab.cpu_s": get("lab.run", "count"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(s["self"] for name, s in summary.items()
                                   if name.split(".")[0] == layer)
    m["harness.self_s"] = get("pass", "self")
    wall = get("pass", "busy")
    m["trace.accounted_frac"] = (1.0 - m["harness.self_s"] / wall
                                 if wall else 0.0)
    return m


def _emit(correct, attempted, failed, metrics: dict, units: dict):
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from gate import load_reference
    reference = load_reference()[workload]
    runner = Runner(workload, seed, "full", reference["full"])
    warm = Runner(workload, 0, "smoke", reference["smoke"])
    runners = [runner, warm]
    print(f"environment: {json.dumps(machine())}")
    print(f"workload {workload}, seed {seed} (inputs of workload seed "
          f"{runner.seed}), {seconds:g} s, trace {int(trace)}")
    # warm-up at smoke size: fills the Gauss-rule lru_caches for a fraction
    # of a full pass
    warm.one_pass()
    if trace:
        metrics = trace_loop(runner, time.perf_counter() + seconds)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        setup = measure_setup(SETUP_PAIRS)
        # peak memory of the program alone, before the base is imported
        runner.one_pass()
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        base = Runner(workload, seed, "full", reference["full"], BASE)
        base_warm = Runner(workload, 0, "smoke", reference["smoke"], BASE)
        runners += [base, base_warm]
        # the base gets the same warm-up as the program: smoke, then full
        base_warm.one_pass()
        base.one_pass()
        pairs = []
        deadline = time.perf_counter() + seconds
        while len(pairs) < MIN_PASSES or time.perf_counter() < deadline:
            if len(pairs) % 2:
                b = base.one_pass()
                pairs.append((runner.one_pass(), b))
            else:
                pairs.append((runner.one_pass(), base.one_pass()))
        for label, values in (("program pass", [p for p, _ in pairs]),
                              ("base pass", [b for _, b in pairs]),
                              ("ratio", [p / b for p, b in pairs])):
            q = statistics.quantiles(values, n=4)
            print(f"{label} quartiles {q[0]:.4f} {q[1]:.4f} {q[2]:.4f}, "
                  f"min {min(values):.4f} max {max(values):.4f}")
        print(f"pairs = {len(pairs)}; setup program/base "
              + " ".join(f"{p:.4f}/{b:.4f}" for p, b in setup) + " s")
        metrics = {
            "norm_wall_s": ratio_median(pairs) * runner.workload.base_s,
            "setup_s": ratio_median(setup) * BASE_SETUP_S,
            "peak_rss_mb": peak_rss_mb,
        }
        units = {name: unit for name, unit, _ in END_TO_END}
    attempted = sum(r.attempted for r in runners)
    failed = sum(r.failed for r in runners)
    print(f"fail_frac = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} passes)")
    if trace:
        metrics["fail_frac"] = failed / attempted
        metrics = {name: metrics[name] for name, _, _ in PER_LAYER}
    _emit(failed == 0, attempted, failed, metrics, units)
    return 0


def trace_loop(runner: Runner, deadline: float,
               min_passes: int = MIN_PASSES) -> dict:
    """Alternates untraced and traced passes; per-layer times are medians
    over traced passes, counts must repeat exactly."""
    from tracer import Tracer, summarize
    tracer = Tracer()
    untraced, traced, rows = [], [], []
    spans = []
    while len(traced) < min_passes or time.perf_counter() < deadline:
        untraced.append(runner.one_pass())
        failed_before = runner.failed
        tracer.install()
        try:
            wall = runner.one_pass(tracer)
        finally:
            tracer.uninstall()
        traced.append(wall)
        rows.append(layer_metrics(summarize(tracer.spans)))
        changed = [name for name in REPEATED
                   if rows[-1][name] != rows[0][name]]
        if changed:
            runner.fail([f"count {name} changed from {rows[0][name]} to "
                         f"{rows[-1][name]}" for name in changed],
                        counted=runner.failed > failed_before)
        spans = list(tracer.spans)
    for missing in tracer.missing:
        print(f"perfbench: not traced, not found: {missing}", file=sys.stderr)
    path = OUT / f"spans-{runner.name}-seed{runner.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["parent", "name", "start", "end", "count",
                              "nested"], "spans": spans}, fh)
    print(f"spans of the last traced pass: {path}")
    metrics = {}
    for name, _, _ in PER_LAYER:
        if name in REPEATED:
            metrics[name] = rows[0][name]
        elif name in rows[0]:
            metrics[name] = statistics.median(r[name] for r in rows)
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                   - metrics["trace.untraced_wall_s"])
    return metrics


def smoke() -> int:
    """Every workload at its tiny size, untraced and twice traced, through
    the correctness gate and the count-repeat check, and once on the base.
    Exits 1 on a miss."""
    from gate import load_reference
    from workloads import WORKLOADS
    reference = load_reference()
    ok = True
    for name in WORKLOADS:
        runner = Runner(name, 0, "smoke", reference[name]["smoke"])
        base = Runner(name, 0, "smoke", reference[name]["smoke"], BASE)
        wall = runner.one_pass()
        base.one_pass()
        m = trace_loop(runner, 0.0, min_passes=2)
        passed = runner.failed == 0 and base.failed == 0
        ok &= passed
        print(f"{name}: {'ok' if passed else 'FAILED'}  "
              f"{runner.attempted} passes and 1 of the base, wall "
              f"{wall:.3f} s, traced "
              f"{m['trace.wall_s']:.3f} s, accounted "
              f"{m['trace.accounted_frac']:.3f}; "
              + ", ".join(f"{layer} {m[f'{layer}.self_s']:.3f}"
                          for layer in LAYERS))
    return 0 if ok else 1


def record() -> int:
    """Rewrites reference.json from the code under src/: every reference
    seed at full size and seed 0 at smoke size.  Refuses failing outputs."""
    from gate import REFERENCE
    from workloads import REFERENCE_SEEDS, WORKLOADS, modules
    OUT.mkdir(exist_ok=True)
    bd = modules(PROGRAM)
    ref = {}
    for name, workload in WORKLOADS.items():
        ref[name] = {}
        for size, seeds in (("full", range(REFERENCE_SEEDS)), ("smoke", [0])):
            ref[name][size] = {}
            for seed in seeds:
                outcome = workload.run(bd, seed, workload.sizes[size], OUT)
                if outcome.failures:
                    raise SystemExit(f"perfbench: {name} {size} seed {seed} "
                                     f"fails: {outcome.failures}")
                ref[name][size][str(seed)] = outcome.values
            print(f"recorded {name} {size}", flush=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


def environment() -> int:
    """Rewrites environment.json: the machine, and one semigroup pass after
    a warm-up with BLAS threads pinned and unpinned (a diagnostic, not a
    metric)."""
    code = (f"import json, sys, time\nsys.path[:0] = [{str(HERE)!r}, "
            f"{str(SRC)!r}]\nfrom pathlib import Path\n"
            "from workloads import WORKLOADS, modules\n"
            "w, bd = WORKLOADS['semigroup'], modules('besseldt')\n"
            f"out = Path({str(OUT)!r})\n"
            "w.run(bd, 0, w.sizes['full'], out)\n"
            "c0, t0 = time.process_time(), time.perf_counter()\n"
            "w.run(bd, 0, w.sizes['full'], out)\n"
            "print(json.dumps({'wall_s': time.perf_counter() - t0, "
            "'cpu_s': time.process_time() - c0}))\n")
    OUT.mkdir(exist_ok=True)
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        model = next((ln.split(":", 1)[1].strip() for ln in fh
                      if ln.startswith("model name")), "")
    env = {"machine": {**machine(), "cpu_model": model}}
    for label, pinned in (("semigroup_pass_pinned", True),
                          ("semigroup_pass_unpinned", False)):
        out = subprocess.run([sys.executable, "-c", code],
                             env=_child_env(pinned), cwd=ROOT, check=True,
                             capture_output=True, text=True, timeout=600)
        env[label] = json.loads(out.stdout.splitlines()[-1])
    with open(HERE / "environment.json", "w", encoding="utf-8") as fh:
        json.dump(env, fh, indent=2)
        fh.write("\n")
    print(json.dumps(env, indent=2))
    return 0


def write_spec() -> int:
    """Rewrites BENCHMARK.json from the tables in this file."""
    from workloads import WORKLOADS
    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": WORKLOAD_WHY[n]} for n in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": "lower", "bound": b}
                       for n, u, b in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
    with open(ROOT / "BENCHMARK.json", "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=2)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(WORKLOAD_WHY))
    mode.add_argument("--smoke", action="store_true")
    mode.add_argument("--record", action="store_true")
    mode.add_argument("--environment", action="store_true")
    mode.add_argument("--write-spec", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    if args.smoke:
        return smoke()
    if args.record:
        return record()
    if args.environment:
        return environment()
    if args.write_spec:
        return write_spec()
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
