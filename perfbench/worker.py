"""One geoformal CLI call in a fresh interpreter; prints one JSON line.

Usage: python3 perfbench/worker.py ROOT TRACE SPANS_PATH ARG...

ROOT is the repository root (its `src/` is put first on the import path),
TRACE is 0 or 1, SPANS_PATH is where a traced call writes its spans (`-`
for none), and ARG... is the argument list handed to `geoformal.cli.main`.
With ARG... empty the worker only imports the CLI, to time set-up.

Besides the wall times the worker measures how fast the interpreter runs
while it works: a fixed piece of exact arithmetic (the probe) is timed in
bursts around the import and every PROBE_INTERVAL_S during the call.  The
shared machines this runs on change speed by up to 1.5x within minutes;
the mean probe time lets the caller scale both times to one reference speed.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

PROBE_INTERVAL_S = 0.05
PROBE_BURST = 25       # probes timed right before and right after the import


def probe():
    """A fixed piece of Fraction arithmetic, independent of geoformal."""
    a = Fraction(1, 3)
    for i in range(1, 60):
        a = a * Fraction(i + 1, i) - Fraction(1, i + 2)
    return a


def timed_probe():
    t = time.perf_counter()
    probe()
    return time.perf_counter() - t


@contextlib.contextmanager
def sampled_probes(samples):
    """Time one probe every PROBE_INTERVAL_S of wall time, into `samples`."""
    def on_alarm(signum, frame):
        samples.append(timed_probe())

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)


def main(argv):
    root, trace, spans_path, cli_args = argv[0], argv[1] == "1", argv[2], argv[3:]
    sys.path.insert(0, os.path.join(root, "src"))
    probe()  # the first call runs cold
    setup_probes = [timed_probe() for _ in range(PROBE_BURST)]
    t0 = time.perf_counter()
    from geoformal import cli
    out = {"setup_s": time.perf_counter() - t0}
    setup_probes += [timed_probe() for _ in range(PROBE_BURST)]
    out["setup_probe_s"] = sum(setup_probes) / len(setup_probes)
    if not cli_args:
        print(json.dumps(out))
        return 0

    tracer = None
    if trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracing
        tracer = tracing.Tracer(run_id=f"{os.getpid()}-{time.time_ns()}")
        tracer.install()

    gc_time = [0.0, None]

    def on_gc(phase, info):
        if phase == "start":
            gc_time[1] = time.perf_counter()
        elif gc_time[1] is not None:
            gc_time[0] += time.perf_counter() - gc_time[1]
            gc_time[1] = None

    gc.callbacks.append(on_gc)
    buf = io.StringIO()
    call_probes = []
    c0 = time.process_time()
    w0 = time.perf_counter()
    try:
        with sampled_probes(call_probes), contextlib.redirect_stdout(buf):
            rc = cli.main(cli_args)
    finally:
        wall = time.perf_counter() - w0
        cpu = time.process_time() - c0
        gc.callbacks.remove(on_gc)
        if tracer is not None:
            tracer.restore()
    # a call shorter than one interval gets one probe right after it
    call_probes = call_probes or [timed_probe()]
    out.update(rc=rc, wall_s=wall, cpu_s=cpu, gc_s=gc_time[0],
               call_probe_s=sum(call_probes) / len(call_probes),
               call_probes=len(call_probes),
               report=buf.getvalue(),
               maxrss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer, wall)
        out["step_table_wrapped"] = tracer.step_table_wrapped
        if spans_path != "-":
            tracer.dump(spans_path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
