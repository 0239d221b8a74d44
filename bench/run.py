"""ugatlab benchmark: three protocol workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload direct_train --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the tree this file sits in. The run's
seed expands into a block of sub-seeds, each a full input set; the run sets
each one up (``setup_s`` is the one-off import plus the median per-sub-seed
set-up), then repeats a pass over all of them until ``--seconds`` have
passed (``wall_s`` is the median pass; ``decision_ms_p50/p99`` are medians
over passes of each pass's percentile). Every pass's output digest is
compared with the digest pinned in ``digests.json`` for that workload and
seed; for a seed with no pinned digest, with the run's first pass. A pass
that raises or mismatches counts as failed. Times are rescaled to the
nominal machine of ``speed.py``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics from the traced
ones, plus the tracing overhead (traced against untraced pass wall time);
spans go to ``.bench_work/``. The last line of stdout is one JSON object.
"""

import os

# BLAS and OpenMP pools must be pinned before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
from tracing import StepClock, Tracer, install_spans, layer_metrics, percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = Path(__file__).resolve().parent / "digests.json"


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def import_program() -> float:
    """Import ugatlab from this tree's src/ and return the seconds it took."""
    if not (SRC / "ugatlab" / "__init__.py").is_file():
        raise BenchError(f"no ugatlab sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import ugatlab  # noqa: F401
    import ugatlab.cli  # noqa: F401
    import ugatlab.experiment  # noqa: F401

    elapsed = time.perf_counter() - t0
    if Path(ugatlab.__file__).resolve().parent != (SRC / "ugatlab").resolve():
        raise BenchError(f"imported ugatlab from {ugatlab.__file__}, not from {SRC}")
    return elapsed


def environment() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.machine(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def pinned_digest(workload: str, seed: int) -> str | None:
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text())["digests"].get(workload, {}).get(str(seed))


@dataclass
class Phase:
    """One stretch of work: its wall time, rescaled to the nominal machine."""

    raw_s: float
    probe_s: float  # time spent in the speed probe, not part of the work
    scale: float | None  # None when no sim step ran, so no probe saw the machine
    intervals: int  # step intervals within episodes
    p50_ms: float  # percentiles of the rescaled intervals
    p99_ms: float

    def nominal_s(self, fallback: float) -> float:
        return (self.raw_s - self.probe_s) * (self.scale if self.scale is not None else fallback)


def measure(clock: StepClock, raw_s: float) -> Phase:
    """Rescale the phase that took raw_s, from the steps it recorded; clears them.

    Only percentiles are kept, so memory does not grow with the number of passes.
    """
    steps = clock.steps
    factors = speed.scales([p for _, p in steps])
    raw = [iv for iv, _ in steps if iv]
    scaled = [iv * f / 1e6 for (iv, _), f in zip(steps, factors) if iv]
    phase = Phase(
        raw_s=raw_s,
        probe_s=sum(p for _, p in steps) / 1e9,
        scale=sum(scaled) * 1e6 / sum(raw) if raw else None,
        intervals=len(scaled),
        p50_ms=percentile(scaled, 50),
        p99_ms=percentile(scaled, 99),
    )
    steps.clear()
    return phase


@dataclass
class Timed:
    """What the timed phase of one run observed."""

    attempted: int = 0
    failed: int = 0
    digest: str | None = None
    passes: dict = field(default_factory=lambda: {False: [], True: []})  # traced -> [Phase]
    violations: list = field(default_factory=lambda: [0, 0])  # traced passes only
    io_bytes: int = 0  # traced passes only

    def scale(self, traced: bool) -> float:
        factors = [p.scale for p in self.passes[traced] if p.scale is not None]
        return statistics.median(factors) if factors else 1.0

    def walls(self, traced: bool) -> list[float]:
        fallback = self.scale(traced)
        return [p.nominal_s(fallback) for p in self.passes[traced]]


def timed_phase(wl, seconds: float, trace: bool, tracer: Tracer, clock: StepClock, expected) -> Timed:
    """Repeat passes until the deadline; a traced run alternates untraced and traced."""
    t = Timed(digest=expected)
    deadline = time.perf_counter() + seconds
    while t.attempted < 1 + trace or time.perf_counter() < deadline:
        traced = trace and t.attempted % 2 == 1
        before = list(clock.totals)
        clock.steps.clear()
        t.attempted += 1
        tracer.active = traced
        t0 = time.perf_counter()
        try:
            digest = wl.unit()
        except Exception:  # noqa: BLE001 - a failing pass is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            t.failed += 1
            continue
        finally:
            tracer.active = False
        t.passes[traced].append(measure(clock, time.perf_counter() - t0))
        if t.digest is None:
            t.digest = digest
        if digest != t.digest:
            print(f"digest mismatch in pass {t.attempted}: {digest} != {t.digest}", file=sys.stderr)
            t.failed += 1
        if traced:
            t.violations[0] += clock.totals[0] - before[0]
            t.violations[1] += clock.totals[1] - before[1]
            t.io_bytes += wl.io_bytes()
    return t


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object (the last stdout line).

    Times are reported on the nominal machine of ``speed.py``; the measured
    figures and the speed factor are printed above the result line.
    """
    import_s = import_program()
    from ugatlab.sim import TrafficSim

    tracer = Tracer()
    # the probe is a span of its own, so no layer's self time includes it
    clock = StepClock(tracer.wrap("bench.probe", speed.probe))
    wl = WORKLOADS[workload](seed, WORK / f"{workload}-seed{seed}-pid{os.getpid()}", clock)
    try:
        if trace:
            install_spans(tracer)
        clock.install(TrafficSim)  # outermost, so the probe falls outside sim.step
        setups = []
        for j in range(wl.subseeds):
            clock.steps.clear()
            t0 = time.perf_counter()
            wl.setup(j)
            setups.append(measure(clock, time.perf_counter() - t0))
        expected = pinned_digest(workload, seed)
        timed = timed_phase(wl, seconds, trace, tracer, clock, expected)
    finally:
        wl.close()
        clock.uninstall(TrafficSim)
        tracer.restore()

    env = environment()
    env.update(
        workload=workload,
        seed=seed,
        digest_source="pinned" if expected is not None else "first-pass",
        digest=timed.digest,
        nominal_probe_ns=speed.NOMINAL_NS,
    )
    print("env " + json.dumps(env, sort_keys=True))
    if trace:
        scale = timed.scale(True)
        n = len(timed.passes[True])
        metrics = layer_metrics(tracer.spans, n, timed.violations, timed.io_bytes / max(n, 1), scale)
        wall_t, wall_u = median_or_zero(timed.walls(True)), median_or_zero(timed.walls(False))
        metrics["bench.wall_s.traced"] = (wall_t, "s")
        metrics["bench.wall_s.untraced"] = (wall_u, "s")
        metrics["bench.trace_overhead_ratio"] = (wall_t / wall_u if wall_u else 0.0, "ratio")
        tracer.write(WORK / f"spans-{workload}-seed{seed}.csv")
    else:
        scale = timed.scale(False)
        passes = timed.passes[False]
        # a percentile per pass, then the median over passes, so that a burst of
        # load on the host moves one pass's tail and not the run's
        metrics = {
            "setup_s": (
                import_s * scale + statistics.median(p.nominal_s(scale) for p in setups),
                "s",
            ),
            "wall_s": (median_or_zero(timed.walls(False)), "s"),
            "decision_ms_p50": (median_or_zero([p.p50_ms for p in passes]), "ms"),
            "decision_ms_p99": (median_or_zero([p.p99_ms for p in passes]), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        samples = min((p.intervals for p in passes), default=0)
        raw_wall = median_or_zero([p.raw_s for p in passes])
        print(
            f"timed passes {len(passes)}, at least {samples} decision intervals each; "
            f"measured pass {raw_wall:.6g} s, speed factor {scale:.4g}"
        )
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    # error_ratio is carried by failed/attempted: a metric that is normally 0
    # has no relative bound
    print(f"error_ratio {timed.failed / timed.attempted:.6g} ratio "
          f"({timed.failed} of {timed.attempted} passes)")
    return {
        "correct": timed.failed == 0,
        "attempted": timed.attempted,
        "failed": timed.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
