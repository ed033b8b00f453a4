"""One benchmark pass, in a fresh interpreter started by run.py.

    python3 perfbench/worker.py '<json spec>'

Spec keys: workload, seed, workdir, smoke, trace, setup_only and
corrupt_op.  Setup imports sl3webs.cli (which pulls in numpy), loads the
fixtures and writes the generated inputs; the timed phase then issues
each operation through sl3webs.cli.main after the previous one returned
(a closed loop with one client).  Outputs are checked after the timed
phase.  The last stdout line is one JSON object with the results.

On the workloads in workloads.SCALED, a SIGALRM handler runs a fixed
calibration kernel every CAL_PERIOD_S of the timed phase, in the main
thread, and records how long it took: the host's speed over the pass.
Its own time is taken out of every latency and of the wall time.  The
result holds the kernel's median time over the pass and, per operation,
over the operation's span widened by CAL_WINDOW_S on each side.  A
set-up-only pass times the kernel right after set-up instead.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CAL_PERIOD_S = 0.2
CAL_MIN_SAMPLES = 9
CAL_WINDOW_S = 1.0


def calibration_kernel():
    """Fixed pure-Python work that uses nothing from sl3webs, so its time
    moves with the host's speed and never with the code under test."""
    d = {}
    s = 0
    for i in range(20000):
        d[i & 1023] = d.get(i & 1023, 0) + i
        s += i * 3 % 7
    return s


class SpeedSampler:
    """Times the calibration kernel every CAL_PERIOD_S while active; a
    disabled sampler does nothing and reports no kernel time."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.samples = []
        self.taken_at = []
        self.busy_s = 0.0

    def sample(self, *_):
        t0 = time.perf_counter()
        calibration_kernel()
        took = time.perf_counter() - t0
        self.samples.append(took)
        self.taken_at.append(t0)
        self.busy_s += took

    def __enter__(self):
        if self.enabled:
            signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        return self

    def __exit__(self, *exc):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def kernel_s(self):
        """Median kernel time, topped up to CAL_MIN_SAMPLES after a short pass."""
        if not self.enabled:
            return None
        while len(self.samples) < CAL_MIN_SAMPLES:
            self.sample()
        return statistics.median(self.samples)

    def kernel_s_during(self, start, end):
        """Median kernel time from start - CAL_WINDOW_S to end +
        CAL_WINDOW_S; the whole pass's when that window holds too few."""
        if not self.enabled:
            return None
        near = [
            took
            for took, at in zip(self.samples, self.taken_at)
            if start - CAL_WINDOW_S <= at <= end + CAL_WINDOW_S
        ]
        return statistics.median(near) if len(near) >= CAL_MIN_SAMPLES else self.kernel_s()


def corrupt(text):
    """Deliberately wrong output for the benchmark's own tests: one
    polynomial coefficient moves up by one or, in an output without a
    polynomial, every digit does."""
    obj = json.loads(text)
    for field in ("invariant", "identity_lhs", "witness"):
        poly = obj.get(field) if isinstance(obj, dict) else None
        if poly:
            exponent = next(iter(poly))
            poly[exponent] = str(int(poly[exponent]) + 1)
            return json.dumps(obj)
    return text.translate(str.maketrans("0123456789", "1234567890"))


def run_pass(spec):
    import sl3webs
    import sl3webs.cli as cli

    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.abspath(sl3webs.__file__), src]) != src:
        raise RuntimeError(f"imported sl3webs from {sl3webs.__file__}, not from {src}")
    import numpy

    import workloads

    ops = workloads.prepare(spec["workload"], spec["seed"], spec["workdir"], spec["smoke"])
    result = {"ready": time.monotonic()}
    sampler = SpeedSampler(spec["workload"] in workloads.SCALED)
    if spec["setup_only"]:
        result["kernel_s"] = sampler.kernel_s()
        return result

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    outputs = []
    latencies = []
    spans = []
    with sampler:
        start = time.perf_counter()
        for op in ops:
            buf = io.StringIO()
            t0, busy0 = time.perf_counter(), sampler.busy_s
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(op.argv)
                error = f"exit code {code}" if code else None
            except Exception:
                error = traceback.format_exc()
            t1 = time.perf_counter()
            latencies.append(t1 - t0 - (sampler.busy_s - busy0))
            spans.append((t0, t1))
            outputs.append((buf.getvalue(), error))
        wall = time.perf_counter() - start - sampler.busy_s

    failures = []
    for i, (op, (out, error)) in enumerate(zip(ops, outputs)):
        if i == spec["corrupt_op"]:
            out = corrupt(out)
        if error is None:
            try:
                error = op.check(out)
            except (ValueError, KeyError, TypeError) as exc:
                error = f"unreadable output: {exc!r}"
        if error is not None:
            failures.append({"op": i, "argv": op.argv, "error": error})

    result.update(
        wall_s=wall,
        latencies=latencies,
        kernel_s=sampler.kernel_s(),
        op_kernel_s=[sampler.kernel_s_during(t0, t1) for t0, t1 in spans],
        attempted=len(ops),
        failures=failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        env={
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
    )
    if tracer is not None:
        result.update(layers=tracer.stats, absent=tracer.absent)
    return result


def main():
    spec = json.loads(sys.argv[1])
    result = run_pass(spec)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
