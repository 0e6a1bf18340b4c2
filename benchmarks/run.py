"""Search benchmark for baseseq: one workload per call, every output checked.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all          # every workload in turn

Run from the root of a source checkout; the package is imported from
``src/``, nothing needs installing.  Workload and metric names, units
and bounds live in ``BENCHMARK.json`` at the root.

Each iteration runs in a fresh interpreter (``iteration.py``).
Iterations run back to back while the next one is expected to end
within ``--seconds`` (output checks not counted); there is always at
least one.  With ``--trace 0``
the end-to-end metrics are reported, each timing as the median over
iterations of times scaled to a reference host speed (``iteration.py``
says how); the measured times are printed next to them.  With ``--trace 1`` every iteration is a pair of an
untraced and a traced run, the per-layer metrics are medians over the
traced runs, and ``trace.overhead_s`` is the median traced ``wall_s``
minus the median untraced ``wall_s``.

Every iteration checks its outputs; the first one of a run also makes
the checks too slow to repeat, and every later one must reproduce its
output digest.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
``attempted`` and ``failed`` count output checks, so ``fail_frac`` is
``failed/attempted``.
"""

from __future__ import annotations

import argparse
import json
import hashlib
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 5
ITERATION_TIMEOUT_S = 170


class BenchmarkError(RuntimeError):
    pass


def _iteration(workload: str, seed: int, work: str, trace: bool = False,
               setup_only: bool = False, full_check: bool = False) -> dict:
    """Run iteration.py once and return its JSON line."""
    cmd = [sys.executable, str(HERE / "iteration.py"), "--workload", workload,
           "--seed", str(seed), "--work", work]
    for flag, on in (("--trace", trace), ("--setup-only", setup_only),
                     ("--full-check", full_check)):
        if on:
            cmd.append(flag)
    # A session of its own, so a hung iteration is killed with its pool workers.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=ITERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkError(f"{workload}: iteration exceeded {ITERATION_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload}: iteration exited {proc.returncode}\n{stderr}")
    return json.loads(stdout.strip().splitlines()[-1])


def _measure(workload: str, seed: int, seconds: float, trace: bool, work: str) -> list:
    """Iterations (or untraced/traced pairs) until --seconds would be exceeded.

    Output checks do not count against --seconds (the first iteration's
    can take longer than its timed section), and the next iteration is
    expected to take as long as the longest one so far.
    """
    samples, measured, longest = [], 0.0, 0.0
    while True:
        t0 = time.perf_counter()
        rows = [_iteration(workload, seed, work, full_check=not samples)]
        if trace:
            rows.append(_iteration(workload, seed, work, trace=True))
        samples.append(tuple(rows) if trace else rows[0])
        spent = time.perf_counter() - t0 - sum(row["check_s"] for row in rows)
        measured += spent
        longest = max(longest, spent)
        if measured + longest > seconds:
            return samples


def _median_of(rows: list[dict], key: str) -> float:
    return statistics.median(row[key] for row in rows)


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool,
                 work: str) -> dict:
    samples = _measure(workload, seed, seconds, trace, work)
    untraced = [pair[0] for pair in samples] if trace else samples
    runs = [row for pair in samples for row in pair] if trace else samples
    if trace:
        traced = [pair[1] for pair in samples]
        metrics = {name: statistics.median(row["layers"][name] for row in traced)
                   for name in traced[0]["layers"]}
        metrics["searcher.resume_cert_gap"] = _median_of(traced, "resume_cert_gap")
        metrics["trace.overhead_s"] = (_median_of(traced, "wall_s")
                                       - _median_of(untraced, "wall_s"))
        metrics["host.speed"] = _median_of(untraced, "host_speed")
        metrics["host.wall_raw_s"] = _median_of(untraced, "wall_raw_s")
        wanted = spec["per_layer"]
    else:
        setups = [row["setup_s"] for row in runs]
        while len(setups) < SETUP_SAMPLES:
            setups.append(_iteration(workload, seed, work, setup_only=True)["setup_s"])
        metrics = {
            "wall_s": _median_of(runs, "wall_s"),
            "resume_s": _median_of(runs, "resume_s"),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(row["peak_rss_mb"] for row in runs),
        }
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchmarkError(f"{workload}: no value for {missing}")
    # every iteration must reproduce the outputs the first one fully checked
    differ = sum(row["output_sha256"] != runs[0]["output_sha256"] for row in runs[1:])
    attempted = sum(row["attempted"] for row in runs) + len(runs) - 1
    failed = sum(row["failed"] for row in runs) + differ
    failures = sorted({what for row in runs for what in row["failures"]})
    if differ:
        failures.append(f"{differ} iterations produced other outputs than the first")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
        "iterations": len(samples),
        "raw": {name: _median_of(runs, name)
                for name in ("wall_raw_s", "resume_raw_s", "setup_raw_s", "host_speed")},
        "failures": failures,
        "versions": {"python": runs[0]["python"], "numpy": runs[0]["numpy"]},
        "resume_cert_gap": runs[0]["resume_cert_gap"],
    }


def _commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "baseseq").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _report(spec: dict, workload: str, seed: int, seconds: float, trace: bool,
            result: dict) -> None:
    why = {w["name"]: w["why"] for w in spec["workloads"]}[workload]
    print(f"workload {workload}: seed={seed} seconds={seconds:g} trace={int(trace)} "
          f"iterations={result['iterations']}")
    print(f"  why: {why}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        text = f"{value:.6f}" if isinstance(value, float) else str(value)
        print(f"  {name} = {text} {metric['unit']}")
    print("  measured, before scaling to the reference host speed: "
          + " ".join(f"{name}={value:.6f}" for name, value in result["raw"].items()))
    print(f"  fail_frac = {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:g} (failed output checks / checks)")
    if workload == "bs8-resume":
        print(f"  resume certificate gap = {result['resume_cert_gap']} "
              f"(known undercount of resumed counters; result bytes are checked separately)")
    for what in result["failures"]:
        print(f"  FAILED CHECK: {what}")
    meta = {
        "commit": _commit(), "source_sha256": _source_sha256(),
        "cpu_count": os.cpu_count(), "cpu_model": _cpu_model(), **result["versions"],
        "workload": workload, "why": why, "seed": seed, "seconds": seconds,
        "trace": int(trace), "iterations": result["iterations"],
        "layer_map": "benchmarks/layers.json",
    }
    print(json.dumps({"meta": meta}))


def main(argv=None) -> int:
    if not (ROOT / "src" / "baseseq" / "__init__.py").is_file() or not SPEC_PATH.is_file():
        print(f"error: {ROOT} is not a baseseq checkout (needs src/baseseq and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        chosen = names if args.workload == "all" else [args.workload]
        results = {}
        for name in chosen:
            results[name] = run_workload(spec, name, args.seed, args.seconds,
                                         bool(args.trace), work)
            _report(spec, name, args.seed, args.seconds, bool(args.trace), results[name])
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if len(chosen) == 1:
        metrics = results[chosen[0]]["metrics"]
    else:
        metrics = {f"{wl}.{name}": metric for wl, res in results.items()
                   for name, metric in res["metrics"].items()}
    print(json.dumps({
        "correct": all(res["correct"] for res in results.values()),
        "attempted": sum(res["attempted"] for res in results.values()),
        "failed": sum(res["failed"] for res in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
