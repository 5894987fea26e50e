"""CPU timing of the gradient engines against parameter count.

Only the scaling structure is asserted anywhere (pass counts, linear
trends); absolute numbers are machine noise and never gate the suite.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import model as _model
from .model import Layer, Mlp, Perceptron, Sample
from .trainer import ENGINES, _integer, engine

DEFAULT_WIDTHS = (8, 16, 32, 64, 128, 256)
DEFAULT_REPS = 30
MIN_REPS = 10
_WARMUP = 3


@dataclass
class BenchResult:
    engine: str
    width: int
    params: int  # weight count; the bias is the +1 in the seeded pass count
    passes: int
    reps: int
    median_ns: float
    iqr_ns: float

    @property
    def ns_per_param(self) -> float:
        return self.median_ns / self.params


def guarded_perceptron(n: int, rng: np.random.Generator) -> Perceptron:
    """Random model with |sum(W)| >= 1e-3 so every engine is defined on it."""
    while True:
        W = [float(v) for v in rng.uniform(-2.0, 2.0, size=n)]
        if abs(sum(W)) >= 1e-3:
            return Perceptron(W, float(rng.uniform(-2.0, 2.0)), "sigmoid")


def random_mlp(widths, rng: np.random.Generator, act: str = "sigmoid") -> Mlp:
    """Random MLP over ``widths`` (inputs first, 1 last): per layer its rows, then its biases, in [-1, 1)."""
    layers = []
    for n_in, n_out in zip(widths, widths[1:]):
        rows = [[float(v) for v in rng.uniform(-1, 1, n_in)] for _ in range(n_out)]
        layers.append(Layer(rows, [float(v) for v in rng.uniform(-1, 1, n_out)], act))
    return Mlp(layers)


def random_sample(n: int, rng: np.random.Generator) -> Sample:
    return Sample([float(v) for v in rng.uniform(-2.0, 2.0, size=n)], float(rng.uniform(0.0, 1.0)))


def check_sweep(widths=DEFAULT_WIDTHS, engines=tuple(ENGINES), reps: int = DEFAULT_REPS):
    """The checked widths, engines and reps of a sweep and the engines' per-sample gradients."""
    widths = [_integer(w, "width") for w in widths]
    if not widths or any(w < 1 for w in widths):
        raise ValueError(f"widths must be >= 1, got {widths}")
    engines = list(engines)
    grads = [engine(tag).grad for tag in engines]
    if not grads:
        raise ValueError("engines must name at least one engine")
    for what, values in (("widths", widths), ("engines", engines)):
        if len(set(values)) < len(values):
            raise ValueError(f"{what} must not repeat, got {values}")
    reps = _integer(reps, "reps")
    if reps < MIN_REPS:
        raise ValueError(f"reps must be >= {MIN_REPS}, got {reps}")
    return widths, engines, reps, grads


def run_bench(
    widths=DEFAULT_WIDTHS,
    engines=tuple(ENGINES),
    reps: int = DEFAULT_REPS,
    seed: int = 0,
) -> list[BenchResult]:
    """Median gradient latency per (width, engine), sorted by (engine, params)."""
    widths, engines, reps, grads = check_sweep(widths, engines, reps)

    # Draw every input first, then time one engine at a time, its reps
    # round-robin over the widths so that a CPU speed switch mid-sweep hits
    # every width alike. Each timed call directly follows an untimed call
    # of its own point: timed right after another engine or width, a point
    # read up to 1.7x slower. Each call is one per-sample gradient.
    rng = np.random.default_rng(seed)
    cases = [(guarded_perceptron(n, rng), random_sample(n, rng)) for n in widths]
    results = []
    for tag, grad in zip(engines, grads):
        passes = []
        for m, s in cases:
            _model.reset_pass_count()
            grad(m, s)
            passes.append(_model.pass_count())
            for _ in range(_WARMUP):
                grad(m, s)
        times = [[] for _ in cases]
        for _ in range(reps):
            for (m, s), ts in zip(cases, times):
                grad(m, s)
                t0 = time.perf_counter_ns()
                grad(m, s)
                ts.append(time.perf_counter_ns() - t0)
        for (m, _), n_passes, ts in zip(cases, passes, times):
            q1, _, q3 = statistics.quantiles(ts, n=4)
            results.append(
                BenchResult(tag, m.width, len(m.W), n_passes, reps, statistics.median(ts), q3 - q1)
            )
    results.sort(key=lambda r: (r.engine, r.params))
    return results


def linear_fit_r2(xs, ys) -> tuple[float, float, float]:
    """Least-squares line fit: (slope, intercept, r_squared), r_squared 1.0 if every y is equal."""
    xs, ys = [float(v) for v in xs], [float(v) for v in ys]
    slope, intercept = statistics.linear_regression(xs, ys)
    r2 = 1.0 if len(set(ys)) == 1 else statistics.correlation(xs, ys) ** 2
    return slope, intercept, r2


def environment() -> dict:
    """The run's interpreter, numpy, core count and source, named as perfbench names them."""
    # Imported here: only --json needs them, and hashlib alone adds about
    # 4 MB of resident memory to every process that imports this module.
    import hashlib
    import platform
    import subprocess

    here = Path(__file__).parent
    root = here.parents[1]  # the checkout, when run from src/ of a git clone
    git_sha = None
    if (root / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            git_sha = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted(here.glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
    }


def write_json(results: list[BenchResult], path: str | Path) -> None:
    points = [
        {"engine": r.engine, "width": r.width, "P": r.params, "passes": r.passes,
         "reps": r.reps, "median_ns": r.median_ns, "iqr_ns": r.iqr_ns}
        for r in results
    ]
    doc = {"env": environment(), "points": points}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def format_table(results: list[BenchResult]) -> str:
    header = f"{'engine':<10}{'width':>7}{'P':>7}{'passes':>8}{'median_ns':>14}{'ns/param':>12}"
    lines = [header, "-" * len(header)]
    for r in results:
        lines.append(
            f"{r.engine:<10}{r.width:>7}{r.params:>7}{r.passes:>8}"
            f"{r.median_ns:>14.0f}{r.ns_per_param:>12.1f}"
        )
    return "\n".join(lines)


def format_fits(results: list[BenchResult]) -> str:
    """Per engine, line fits of ns/param and total ns against P.

    Empty when the sweep has fewer than two widths: a line through one
    point says nothing about the trend.
    """
    lines = []
    for engine in dict.fromkeys(r.engine for r in results):
        rows = [r for r in results if r.engine == engine]
        ps = [r.params for r in rows]
        if len(set(ps)) < 2:
            continue
        slope_pp, _, r2_pp = linear_fit_r2(ps, [r.ns_per_param for r in rows])
        slope_total, _, r2_total = linear_fit_r2(ps, [r.median_ns for r in rows])
        lines.append(
            f"{engine:>9}: ns/param vs P  slope {slope_pp:10.2f}  R^2 {r2_pp:.4f}   "
            f"total ns vs P  slope {slope_total:12.1f}  R^2 {r2_total:.4f}"
        )
    return "\n".join(lines)
