"""Benchmark of the chshq library: one workload per process, one seed per run.

    python3 perfbench/run.py --workload report --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and imports chshq from its `src/`.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones, with `--trace 1` the per-layer ones (see README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7          # fresh interpreters timed for setup_s
CALIB_MULS = 1000         # GF(2^11) multiplications in one calibration sample
CALIB_REF_S = 0.040       # the sample time that end-to-end seconds are scaled to
CALIB_EVERY_S = 0.25      # wall-clock interval between samples during the passes

LAYERS = ("field", "game", "geometry", "boxes", "infotheory", "fourier", "cli")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> inclusive span time of these entry points or steps
SPAN_SECONDS = {
    "game.exact_s": ["game.exact_classical_value"],
    "game.search_s": ["game.search_with_restarts"],
    "field.character_s": ["field.AdditiveCharacter"],
    "geometry.incidences_s": ["geometry.incidences"],
    "geometry.proj_regularize_s": ["geometry.random_projective_regularize"],
    "geometry.sweep_s": ["geometry.verify_incidence_preservation_exhaustive"],
    "boxes.regularize_s": ["boxes.regularize"],
    "boxes.compose_s": ["boxes.compose_m", "boxes.distribute"],
    "infotheory.pairwise_s": ["infotheory.build_U_m", "infotheory.pairwise_independence_check"],
    "infotheory.ic_s": ["infotheory.ic_dichotomy_experiment"],
    "fourier.tight_s": ["step.tight.q512"],
    "fourier.maximize_s": ["fourier.maximize_sum"],
}
OP_TAGS = ("q2048", "q59049", "q65536")
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "field.builds": "count",
    **{f"field.{op}_per_s.{tag}": "1/s" for op in ("mul", "add", "inv") for tag in OP_TAGS},
    **{name: "s" for name in SPAN_SECONDS},
    "game.search_rounds": "count",
    "fourier.maximize_rounds": "count",
    "geometry.transforms_per_s": "1/s",
    "geometry.kept_lines_ratio": "ratio",
    "geometry.kept_points_ratio": "ratio",
    "trace.overhead_s": "s",
    "fail_ratio": "ratio",
}


def calibrate() -> float:
    """Seconds for a fixed chunk of pure-Python arithmetic that shares no
    code with chshq: the machine's speed at this moment."""
    ref = checks.RefField(2, 11, (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1))
    t0 = perf_counter()
    a = 1
    for i in range(CALIB_MULS):
        a = ref.mul(a, i % 2047 + 1)
    return perf_counter() - t0


class SpeedProbe:
    """Takes a calibration sample every CALIB_EVERY_S of wall time, from a
    SIGALRM handler, so the samples are spread evenly over the passes (the
    inside of a long step included) and track the speed the passes ran at.
    `spent` is the time taken by the samples, which the runner subtracts
    from the steps they interrupted."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(calibrate())
        self.spent += perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CALIB_EVERY_S, CALIB_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


class Runner:
    """Times each step of a pass, then checks its output with timing and
    tracing off.  A step that raises, or a check that fails, is counted and
    the pass goes on.  Time spent in `probe` samples is not step time."""

    def __init__(self, probe: SpeedProbe):
        self.attempted = 0
        self.failed = 0
        self.probe = probe
        self.tracer = None
        self.wall = 0.0
        self.steps: dict[str, float] = {}

    def begin_pass(self, tracer):
        self.tracer = tracer
        self.wall = 0.0
        self.steps = {}

    def step(self, name: str, layer: str, call, check):
        span = (self.tracer.span(f"step.{name}", layer) if self.tracer
                else contextlib.nullcontext())
        probed = self.probe.spent
        t0 = perf_counter()
        try:
            with span:
                result = call()
        except Exception:
            self.wall += perf_counter() - t0 - (self.probe.spent - probed)
            self._fail(f"{name} raised")
            return None
        elapsed = perf_counter() - t0 - (self.probe.spent - probed)
        self.wall += elapsed
        self.steps[name] = elapsed
        try:
            verdicts = check(result)
        except Exception:
            self._fail(f"{name} check raised")
            return result
        for label, ok in verdicts:
            self.attempted += 1
            if not ok:
                self.failed += 1
                print(f"perfbench: check failed: {label}", file=sys.stderr)
        return result

    def _fail(self, what: str):
        self.attempted += 1
        self.failed += 1
        print(f"perfbench: {what}:", file=sys.stderr)
        traceback.print_exc()


def one_pass(work, runner, tracer=None) -> float:
    runner.begin_pass(tracer)
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        work.run_pass(runner)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return runner.wall


def layer_metrics(tracer, steps: dict[str, float], ops_per_batch: int) -> dict[str, float]:
    """Per-layer numbers of one traced pass (0 where a workload never
    reaches the layer or the entry point)."""
    own = spans.self_times(tracer.spans)
    total = spans.totals(tracer.spans)
    c = tracer.counts
    out = {f"{layer}.self_s": own[layer] for layer in LAYERS}
    out["field.builds"] = sum(1 for s in tracer.spans if s[0] == "field.Field")
    for name, entries in SPAN_SECONDS.items():
        out[name] = sum(total[e] for e in entries)
    for op in ("mul", "add", "inv"):
        for tag in OP_TAGS:
            t = steps.get(f"{op}.{tag}")
            out[f"field.{op}_per_s.{tag}"] = ops_per_batch / t if t else 0.0
    out["game.search_rounds"] = c["game.search_rounds"]
    out["fourier.maximize_rounds"] = c["fourier.maximize_rounds"]
    sweep = out["geometry.sweep_s"]
    out["geometry.transforms_per_s"] = c["geometry.transforms"] / sweep if sweep else 0.0
    for kind in ("lines", "points"):
        sampled = c[f"geometry.sampled_{kind}"]
        out[f"geometry.kept_{kind}_ratio"] = c[f"geometry.kept_{kind}"] / sampled if sampled else 0.0
    return out


def at_reference_speed(seconds: float, calib: list[float]) -> float:
    """`seconds` of wall time, scaled from the machine speed that the
    calibration samples `calib` saw to the speed at which a sample takes
    CALIB_REF_S.  Work done over a stretch of time is its length times the
    mean speed, and speed is 1/(sample time), so samples taken evenly in time
    are averaged as 1/t."""
    return seconds * CALIB_REF_S * statistics.fmean(1 / c for c in calib)


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that import chshq and numpy and build
    the workload's seeded inputs, then exit: raw, and each at reference speed
    by the calibration samples taken just before and after it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    raw, scaled = [], []
    before = calibrate()
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        # no timeout: with one, the wait polls and rounds the time up by up to 50 ms
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        raw.append(perf_counter() - t0)
        after = calibrate()
        scaled.append(at_reference_speed(raw[-1], [before, after]))
        before = after
    return raw, scaled


def measure(work, runner, seconds: float) -> tuple[list[float], list[float]]:
    """Untraced passes until another one would overrun `seconds`: raw walls,
    and each at reference speed by the probe's samples from that pass."""
    samples = runner.probe.samples
    raw, scaled = [], []
    start = perf_counter()
    while True:
        first = len(samples)
        raw.append(one_pass(work, runner))
        scaled.append(at_reference_speed(raw[-1], samples[first:] or [calibrate()]))
        if perf_counter() - start + statistics.median(raw) > seconds:
            return raw, scaled


def measure_traced(work, runner, seconds: float, ops_per_batch: int):
    """Alternate untraced and traced passes; per-layer medians over the
    traced ones, and the traced-minus-untraced wall as the overhead."""
    tracer = spans.Tracer()
    plain, traced, samples = [], [], []
    start = perf_counter()
    while True:
        plain.append(one_pass(work, runner))
        traced.append(one_pass(work, runner, tracer))
        samples.append(layer_metrics(tracer, runner.steps, ops_per_batch))
        if perf_counter() - start + statistics.median(plain) + statistics.median(traced) > seconds:
            break
    metrics = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    wall = statistics.median(traced)
    shares = ", ".join(f"{layer} {metrics[f'{layer}.self_s'] / wall:.1%}" for layer in LAYERS)
    print(f"perfbench: traced wall {wall:.3f} s over {len(traced)} passes; self-time shares: "
          f"{shares}", file=sys.stderr)
    return metrics


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import chshq
        import workloads
    except ImportError as e:
        print(f"perfbench: cannot import chshq from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    if Path(chshq.__file__).resolve().parent != ROOT / "src" / "chshq":
        print(f"perfbench: chshq imported from {chshq.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    make = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    if args.setup_probe:
        make(args.seed, str(workdir))
        return 0

    setup_raw, setup = ([], []) if args.trace else measure_setup(args)
    workdir.mkdir(parents=True)
    try:
        work = make(args.seed, str(workdir))
        runner = Runner(SpeedProbe())
        if args.trace:
            metrics = measure_traced(work, runner, args.seconds, workloads.OPS_PER_BATCH)
            metrics["fail_ratio"] = runner.failed / runner.attempted
            units = PER_LAYER
        else:
            with runner.probe:
                walls_raw, walls = measure(work, runner, args.seconds)
            metrics = {
                "wall_s": statistics.median(walls),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END
            print(f"perfbench: pass walls raw {' '.join(f'{w:.3f}' for w in walls_raw)} s, "
                  f"at reference speed {' '.join(f'{w:.3f}' for w in walls)} s; setups raw "
                  f"{' '.join(f'{t:.3f}' for t in setup_raw)} s, at reference speed "
                  f"{' '.join(f'{t:.3f}' for t in setup)} s", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
