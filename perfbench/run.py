"""hienergy benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload registry_sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports hienergy from that
checkout's src/.  The timed phase is a closed loop with one caller over a
fixed op list made from the seed; every op is timed on its own and its
output checked afterwards.  The last line of stdout is one JSON object:

* --trace 0: the end-to-end metrics (setup_s, run_s, op_p50_ms, op_tail_ms,
  ok_share, peak_rss_mb);
* --trace 1: the per-layer metrics, from one run under the outside-in
  tracer (tracer.py), plus host.probe_ms and trace.overhead_share.  The
  spans go to perfbench/out/.

Every time is host-scaled: a short, fixed host probe runs between ops, and
each op's wall time is scaled by the probes taken near it (see host_scaled).
See perfbench/README.md for the workloads and what each metric should move.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402  (imports are part of the set-up being timed)

# One caller, one thread: NumPy's OpenBLAS would otherwise start a pool of
# threads that competes with the caller for the host's few cores.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3         # set-ups per untraced run; setup_s is their median
SETUP_PROBE_EVERY_S = 0.05  # wall time between host probes in the warm-up
SETUP_PROBES = 15         # host probes right after each set-up
PROBE_EVERY_S = 0.25      # one host probe per this much timed-phase wall time
PROBE_BURST = 8           # most probes taken at once, after a long op
PROBE_NEAREST = 24        # an op is scaled by this many probes nearest to it
PROBE_REF_MS = 2.0        # the probe's typical time on a 2-vCPU Xeon VM at 2.1 GHz
CHILD_TIMEOUT_S = 170


def load_program():
    """Import hienergy from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import hienergy
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import hienergy from {SRC}: {exc}")
    if Path(hienergy.__file__).resolve().parent != SRC / "hienergy":
        raise SystemExit(f"perfbench: hienergy was imported from {hienergy.__file__}, "
                         f"not from {SRC}")
    import workloads
    return workloads


def setup(args, probes: list | None = None):
    """Import, generate the op list and run the warm-up ops.  With `probes`,
    a host probe runs between warm-up ops every SETUP_PROBE_EVERY_S and its
    time in ms is appended there."""
    workloads = load_program()
    wl = workloads.WORKLOADS[args.workload]
    blocks = max(1, int(args.seconds // wl.block_s))
    ops = wl.ops(args.seed, blocks, args.tiny)
    next_probe = time.perf_counter()
    for op in wl.warmup(args.seed, args.tiny):
        try:
            wl.run(op)
        except Exception:   # a warm-up op's outcome is not measured
            pass
        if probes is not None and time.perf_counter() >= next_probe:
            probes.append(probe_ms())
            next_probe = time.perf_counter() + SETUP_PROBE_EVERY_S
    return wl, ops


def probe_ms() -> float:
    """A fixed interpreter loop of about 2 ms (tuples, a dict, a list, a
    sort) that touches no hienergy code and no large buffer.  The cyclic
    garbage collector is off while it runs, so the probe never pays for a
    collection of the workload's objects."""
    gc.disable()
    try:
        t = time.perf_counter()
        counts, keys = {}, []
        for i in range(3500):
            key = (i % 50, i % 7)
            counts[key] = counts.get(key, 0) + 1
            keys.append(key)
        keys.sort()
        return (time.perf_counter() - t) * 1e3
    finally:
        gc.enable()


def host_scaled(seconds: float, probes: list[float]) -> float:
    """`seconds` at the reference host speed: times PROBE_REF_MS over the
    median of `probes`.  The host's speed drifts by up to 1.5x between
    minutes and every op slows with it; the probe slows alike, so the
    scaled time keeps the program's cost and drops most of the drift."""
    return seconds * PROBE_REF_MS / statistics.median(probes)


def measured_setup(probes: list[float]) -> float:
    """This process's set-up time so far, less the warm-up's `probes`, scaled
    by those probes and SETUP_PROBES more taken right after the set-up."""
    raw = time.perf_counter() - T0 - sum(probes) / 1e3
    return host_scaled(raw, probes + [probe_ms() for _ in range(SETUP_PROBES)])


class Timing:
    """Per-op wall times of a timed phase and the host probes taken between ops."""

    def __init__(self):
        self.spans = []     # (start, end) of each op, perf_counter seconds
        self.finish = (0.0, 0.0)
        self.probes = []    # (midpoint, probe ms)

    def wall_s(self) -> float:
        return sum(end - start for start, end in self.spans) + self.finish[1] - self.finish[0]

    def probe_ms(self) -> float:
        return statistics.median(ms for _, ms in self.probes)

    def scaled(self) -> tuple[list[float], float]:
        """Each op's seconds and the report step's, scaled by the
        PROBE_NEAREST probes nearest to its midpoint."""
        times = [t for t, _ in self.probes]
        ms = [m for _, m in self.probes]
        k = min(PROBE_NEAREST, len(ms))

        def scale(start, end):
            mid = bisect.bisect_left(times, (start + end) / 2)
            lo = min(max(0, mid - k // 2), len(ms) - k)
            return host_scaled(end - start, ms[lo:lo + k])

        return [scale(*span) for span in self.spans], scale(*self.finish)

    def run_s(self) -> float:
        lat, finish = self.scaled()
        return sum(lat) + finish


def timed_phase(wl, ops) -> tuple[Timing, list]:
    """Run every op once, in order.  Between two ops, host probes run: one
    for each PROBE_EVERY_S of wall time since the last (at most PROBE_BURST
    at once), so a long op is followed by several.  No probe falls inside
    an op's time."""
    clock = time.perf_counter
    timing, outputs = Timing(), []

    def take_probes(n):
        for _ in range(n):
            t, ms = clock(), probe_ms()
            timing.probes.append((t + ms / 2e3, ms))
        return clock()

    last_probe = take_probes(PROBE_BURST)
    for op in ops:
        t = clock()
        try:
            out = wl.run(op)
        except Exception as exc:   # a failed op is counted, not fatal
            out = exc
        timing.spans.append((t, clock()))
        outputs.append(out)
        owed = int((timing.spans[-1][1] - last_probe) / PROBE_EVERY_S)
        if owed:
            last_probe = take_probes(min(owed, PROBE_BURST))
    t = clock()
    wl.finish(outputs)
    timing.finish = (t, clock())
    take_probes(PROBE_BURST)
    return timing, outputs


def tail_percentile(n_ops: int) -> int:
    """The highest of p99/p90 with at least ten ops beyond it (p50 below 100 ops)."""
    return 99 if n_ops >= 1000 else 90 if n_ops >= 100 else 50


def child(args, mode: str) -> float:
    """Run this script in a fresh process in `mode` and return the figure it prints."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--child", mode]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {mode} child failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def outcome(wl, ops, outputs) -> tuple[dict, list[str]]:
    """The result's correct/attempted/failed fields, and the failed op kinds.

    An op may fail only through a known defect it carries; any other
    failure makes the run incorrect."""
    ok = wl.check(ops, outputs)
    failed = [op for op, good in zip(ops, ok) if not good]
    unknown = [op for op in failed if not op.defect]
    for op in unknown:
        print(f"unexpected failure: {op.kind} on {op.label}", file=sys.stderr)
    return ({"correct": not unknown, "attempted": len(ops), "failed": len(failed)},
            sorted({op.kind for op in failed}))


def run_untraced(args) -> dict:
    probes = []
    wl, ops = setup(args, probes)
    setup_s = measured_setup(probes)
    timing, outputs = timed_phase(wl, ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result, failed_kinds = outcome(wl, ops, outputs)
    del outputs, ops
    setups = [setup_s] + [child(args, "setup") for _ in range(SETUP_SAMPLES - 1)]
    lat, finish = timing.scaled()
    q = tail_percentile(len(lat))
    lat_ms = [x * 1e3 for x in lat]
    print(f"{args.workload}: {len(lat)} ops, op_tail_ms is p{q}, "
          f"{result['failed']} failed {failed_kinds}, "
          f"host-scaled setups {[round(x, 3) for x in setups]}, "
          f"wall run_s {timing.wall_s():.3f}, "
          f"host.probe_ms {timing.probe_ms():.4f} over {len(timing.probes)} probes")
    result["metrics"] = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (sum(lat) + finish, "s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_tail_ms": (statistics.quantiles(lat_ms, n=100, method="inclusive")[q - 1], "ms"),
        "ok_share": ((result["attempted"] - result["failed"]) / result["attempted"], "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return result


def run_traced(args) -> dict:
    from tracer import Tracer
    untraced_run_s = child(args, "run")
    wl, ops = setup(args)
    tracer = Tracer()
    tracer.install()
    try:
        timing, outputs = timed_phase(wl, ops)
    finally:
        tracer.uninstall()
    result, _ = outcome(wl, ops, outputs)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-{args.seed}.csv")
    run_s = timing.run_s()
    metrics = tracer.layer_metrics()
    metrics["host.probe_ms"] = (timing.probe_ms(), "ms")
    metrics["trace.overhead_share"] = (run_s / untraced_run_s - 1.0, "ratio")
    print(f"{args.workload}: {len(tracer.spans)} spans, host-scaled run_s traced "
          f"{run_s:.3f}, untraced {untraced_run_s:.3f}")
    result["metrics"] = metrics
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["registry_sweep", "large_cyclic", "high_moments"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="time budget of the timed phase: as many blocks of ops run as fit in it")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke tests")
    ap.add_argument("--child", choices=["setup", "run"], help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child == "setup":
        probes = []
        setup(args, probes)
        print(measured_setup(probes))
        return 0
    if args.child == "run":
        print(timed_phase(*setup(args))[0].run_s())
        return 0
    result = run_traced(args) if args.trace else run_untraced(args)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
