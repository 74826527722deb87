"""One workload in a fresh process: set up, run timed passes, check every output.

    python3 bench/worker.py --workload NAME --seed N --phase setup|run [--seconds S] [--trace 0|1]

``run.py`` starts this with PYTHONPATH pointing at the checkout's ``src`` and
reads the one JSON line it prints.  Phase ``setup`` stops after set-up and
reports its time.  Phase ``run`` repeats the workload's request list while the
next pass is expected to end within ``--seconds`` of timed work (at least one
pass), checking each pass's outputs outside the timed region.  With
``--trace 1`` it then runs one more pass with the tracer installed.

Timing.  The machine this benchmark was built on is a shared 2-vCPU VM whose
speed drifts by up to 40% over tens of seconds, more than the changes the
benchmark has to resolve.  So every request is timed on a process-wide CPU
clock: the CPU time of all of this process's threads plus that of its reaped
child processes (cpu_clock).  It leaves out time the vCPU was taken away but
sees work moved to other threads or to child processes.  A fixed calibration
loop is timed every CAL_EVERY_S of work.  A request's time is scaled by
REF_CAL_S over the median of the nearby calibration times, so it reads as the
time on a CPU that runs the loop in REF_CAL_S.  Raw wall-clock and CPU times
are reported beside the scaled ones.

Time a request spends blocked (sleeping, waiting on I/O or on a process that
is not reaped) is on no CPU clock.  So a run fails when its requests' summed
wall-clock time exceeds OFF_CPU_LIMIT times their summed CPU time, or when
more than OFF_CPU_SHARE of its requests each do.
"""

from __future__ import annotations

import time

SETUP_START = time.process_time()
SETUP_START_WALL = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

REF_CAL_S = 0.004      # calibration loop time on the reference machine (2.1 GHz vCPU)
CAL_EVERY_S = 0.1      # CPU seconds of requests between calibrations
CAL_PAD_S = 0.25       # calibration samples this close to a request (or one request length) scale it
OFF_CPU_LIMIT = 2.0    # wall-clock over CPU time beyond which a request counts as off the CPU
OFF_CPU_MIN_S = 0.02   # ... if it is also this much longer than its CPU time
OFF_CPU_SHARE = 0.05   # largest share of requests allowed off the CPU


def cpu_clock():
    """CPU seconds of every thread of this process and of its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def calibration_loop():
    """Fixed interpreter work of the kind tilekit does: it allocates tuples and
    grows a dict of tuple keys.  When the machine's speed changes, this loop
    follows tilekit's code more closely than a purely arithmetic loop does."""
    table = {}
    acc = 0
    for i in range(10000):
        table[(i, i + 1)] = acc
        acc = (acc + i * 7) % 1000003
    return acc


class Calibration:
    """Timed runs of calibration_loop, stamped with cpu_clock."""

    def __init__(self):
        self.stamps = []
        self.samples = []

    def sample(self):
        gc.disable()   # a collection of the workload's garbage is not CPU speed
        try:
            t0 = cpu_clock()
            calibration_loop()
            t1 = cpu_clock()
        finally:
            gc.enable()
        self.stamps.append(t1)
        self.samples.append(t1 - t0)

    def scale(self, start, end):
        """Factor for work done between CPU times start and end.

        Uses the median of the samples within one request length (at least
        CAL_PAD_S) of the request, so that a long request is scaled by the
        speed over its whole span; always includes the samples just before and
        just after it.
        """
        pad = max(end - start, CAL_PAD_S)
        lo = min(bisect.bisect_left(self.stamps, start - pad),
                 max(bisect.bisect_right(self.stamps, start) - 1, 0))
        hi = max(bisect.bisect_right(self.stamps, end + pad),
                 min(bisect.bisect_left(self.stamps, end) + 1, len(self.stamps)))
        return REF_CAL_S / statistics.median(self.samples[lo:hi])


def timed_pass(workload, cal, tracer=None):
    """Run every request once.

    Returns (per-request (CPU start, CPU seconds, wall-clock seconds),
    outputs).  Calibration runs between requests, outside their timing.
    """
    timings = []
    outputs = []
    cpu = cpu_clock
    since_cal = CAL_EVERY_S
    for i, req in enumerate(workload.requests):
        if since_cal >= CAL_EVERY_S:
            cal.sample()
            since_cal = 0.0
        w0 = time.perf_counter()
        t0 = cpu()
        try:
            if tracer is None:
                out = workload.call(req)
            else:
                with tracer.request(i):
                    out = workload.call(req)
        except Exception as exc:  # a failing request is counted, not fatal
            out = exc
        t = cpu() - t0
        w = time.perf_counter() - w0
        since_cal += t
        timings.append((t0, t, w))
        outputs.append(out)
    cal.sample()
    return timings, outputs


def off_cpu(timings):
    """Why the requests' wall-clock time is too far above their CPU time, or None."""
    cpu = sum(t for _, t, _ in timings)
    wall = sum(w for _, _, w in timings)
    if wall > OFF_CPU_LIMIT * cpu:
        return f"requests took {wall:.3f} s wall-clock but {cpu:.3f} s CPU"
    slow = sum(1 for _, t, w in timings if w > OFF_CPU_LIMIT * t and w - t > OFF_CPU_MIN_S)
    if slow > OFF_CPU_SHARE * len(timings):
        return (f"{slow} of {len(timings)} requests took over {OFF_CPU_LIMIT} times "
                f"their CPU time in wall-clock time")
    return None


def check_pass(workload, outputs, failures):
    """Reference-check one pass; returns the number of failed requests."""
    failed = 0
    for req, out in zip(workload.requests, outputs):
        if isinstance(out, Exception):
            reason = f"raised {type(out).__name__}: {out}"
        else:
            try:
                reason = workload.check(req, out)
            except Exception as exc:
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failed += 1
            if len(failures) < 5:
                failures.append(reason)
    return failed


def run(workload, seconds, cal):
    """Untraced passes; returns (passes, attempted, failed, failures).

    Each pass is its per-request timings.
    """
    passes, failures = [], []
    attempted = failed = 0
    cpu_per_pass = []
    while not passes or sum(cpu_per_pass) + statistics.median(cpu_per_pass) <= seconds:
        timings, outputs = timed_pass(workload, cal)
        passes.append(timings)
        cpu_per_pass.append(sum(t for _, t, _ in timings))
        attempted += len(outputs)
        failed += check_pass(workload, outputs, failures)
    return passes, attempted, failed, failures


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--phase", choices=("setup", "run"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="file to write the traced spans to")
    args = parser.parse_args(argv)

    import workloads
    workload = workloads.make(args.workload, args.seed)
    setup_cpu = cpu_clock() - SETUP_START
    result = {"setup_wall_s": time.perf_counter() - SETUP_START_WALL}
    cal = Calibration()
    for _ in range(5):
        cal.sample()
    result["setup_s"] = setup_cpu * REF_CAL_S / statistics.median(cal.samples)
    if args.phase == "setup":
        print(json.dumps(result))
        return 0

    passes, attempted, failed, failures = run(workload, args.seconds, cal)
    blocked = off_cpu([t for timings in passes for t in timings])
    if blocked is not None:
        print(f"worker: {blocked}; time spent off the CPU is not measured", file=sys.stderr)
        return 1
    latencies = []
    pass_s = []
    for timings in passes:
        scaled = [t * cal.scale(t0, t0 + t) for t0, t, _ in timings]
        latencies += scaled
        pass_s.append(sum(scaled))
    result.update(pass_s=pass_s, pass_wall_s=[sum(w for _, _, w in p) for p in passes],
                  latencies=latencies, calibration=list(zip(cal.stamps, cal.samples)),
                  timings=passes,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            timings, outputs = timed_pass(workload, cal, tracer)
        finally:
            tracer.uninstall()
        attempted += len(outputs)
        failed += check_pass(workload, outputs, failures)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in tracer.metrics().items()}
        untraced = statistics.median(result["pass_wall_s"])
        wall = sum(w for _, _, w in timings)
        metrics["trace.overhead_s"] = {"value": wall - untraced, "unit": "s"}
        result.update(traced_wall_s=wall, layer_metrics=metrics, absent=tracer.absent)
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "fields": ["name", "start", "end", "parent", "request"],
                           "spans": tracer.span_records()}, fh)
    result.update(attempted=attempted, failed=failed, failures=failures)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
