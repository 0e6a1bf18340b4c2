"""One benchmark iteration in a fresh interpreter; prints one JSON line.

run.py starts this script once per iteration, so that every iteration
pays the import and cold-cache costs a user of ``baseseq search`` pays,
and so that its peak memory is its own:

    python3 benchmarks/iteration.py --workload NAME --seed N --work DIR
                                    [--trace] [--setup-only] [--full-check]

The JSON line holds ``setup_s`` (import plus building the workload
inputs); unless ``--setup-only`` it also holds the timed section's
``wall_s`` and ``resume_s``, the peak memory up to the end of the timed
section (``peak_rss_mb``; the checks do not count), the output-check
counts, a digest of the outputs and, with ``--trace``, the per-layer
metrics of the traced section.  ``--full-check`` adds the checks too
slow for every iteration.

Times are reported at a reference host speed.  The speed of a shared
host drifts by tens of percent within seconds, so the iteration times a
fixed pure-Python loop chunk (``_chunk``, in thread CPU time) and scales
each phase's measured time by ``CALIBRATION_REF_S`` over the chunk's
time then: during the timed section a ``SpeedSampler`` runs a chunk
every ``SAMPLE_INTERVAL_S`` of wall time from a SIGALRM handler, and
the short set-up is bracketed by a ``calibrate`` before and after it.
The measured times are kept as ``setup_raw_s``, ``wall_raw_s`` and
``resume_raw_s``, and the timed section's scale factor as
``host_speed``.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# One calibration chunk's time on a 2-vCPU Intel Xeon host at its quickest;
# a phase timed while the chunk takes twice as long is reported at half.
CALIBRATION_REF_S = 1.3e-3
CALIBRATION_CHUNKS = 200
SAMPLE_INTERVAL_S = 0.05


def _chunk() -> float:
    """CPU time of this thread for a fixed loop, so waiting for a core does not count."""
    t0 = time.thread_time()
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    return time.thread_time() - t0


def calibrate() -> float:
    """Median time of the calibration chunk right now (about 0.3 s in all)."""
    return statistics.median(_chunk() for _ in range(CALIBRATION_CHUNKS))


class SpeedSampler:
    """Times one calibration chunk every SAMPLE_INTERVAL_S of wall time while active.

    ``speed()`` is the mean of reference over sampled chunk time: the
    samples are evenly spaced in wall time, so this is the host speed
    averaged over the section.  Pool workers forked inside the section
    do not inherit the timer.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._old = None

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def _tick(self, signum, frame):
        self.samples.append(_chunk())

    def speed(self) -> float:
        if not self.samples:  # a section shorter than one interval
            return CALIBRATION_REF_S / calibrate()
        return statistics.mean(CALIBRATION_REF_S / t for t in self.samples)


def _is_time(layer: str) -> bool:
    return layer.endswith(("_s", "_ms.p50", "_ms.p90"))


def _peak_rss_mb() -> float:
    """Peak resident set of this process or of any child it waited for (Linux KiB)."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, help="scratch directory for result files")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--full-check", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    cal_before = calibrate()
    t0 = time.perf_counter()
    import workloads
    workload = workloads.WORKLOADS[args.workload](args.seed, args.work)
    setup_raw_s = time.perf_counter() - t0
    cal_setup = calibrate()

    import baseseq
    import numpy
    if Path(baseseq.__file__).resolve().parent != SRC / "baseseq":
        raise SystemExit(f"baseseq imported from {baseseq.__file__}, not from {SRC}")
    setup_speed = CALIBRATION_REF_S / ((cal_before + cal_setup) / 2)
    out = {"setup_s": setup_raw_s * setup_speed, "setup_raw_s": setup_raw_s,
           "python": platform.python_version(), "numpy": numpy.__version__}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        try:
            with SpeedSampler() as sampler:
                times = workload.run()
        finally:
            if tracer is not None:
                tracer.uninstall()
        out["peak_rss_mb"] = _peak_rss_mb()
        speed = sampler.speed()
        out["host_speed"] = speed
        for name, raw in times.items():
            out[name] = raw * speed
            out[name.replace("_s", "_raw_s")] = raw
        checks = workloads.Checks()
        t1 = time.perf_counter()
        out["output_sha256"] = workload.check(checks, args.full_check)
        out["check_s"] = time.perf_counter() - t1
        out.update(attempted=checks.attempted, failed=len(checks.failed),
                   failures=checks.failed[:20], resume_cert_gap=workload.resume_cert_gap)
        if tracer is not None:
            out["layers"] = {name: value * speed if _is_time(name) else value
                             for name, value in tracer.metrics().items()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
