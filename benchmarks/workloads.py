"""The benchmark workloads, their reference outputs and their output checks.

Each workload is built from a seed (set-up), runs a timed section
against the public API of ``baseseq`` and then checks every output
outside the timed section.  ``check`` returns a digest of the outputs,
which must be the same in every iteration of a run (run.py checks it).

The reference values were recorded from the package at source digest
b61ab505 (``source_sha256`` in the report); a workload's default seed
reproduces exactly the inputs the references describe.

Modules are always called through their module attribute
(``searcher.search``, ``cli.main``, ...) so that the tracer in
``tracing.py`` sees the calls when it is installed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import time

from baseseq import cli, numfilter, refdata, searcher, seqcore, specfilter
from baseseq.errors import SearchInterrupted
from baseseq.seqcore import Kind

DEFAULT_SEED = 0

# sha256 and line count of each result file written by `baseseq search`
BS8_OUT = ("341dcbaf0b57462a9cc829f0148df0ffe45670c0f6f3b13cf515de06ced06e51", 27)
NS16_OUT = ("eec2a95cb1a7860cd814ee458d9c70d06de878b74c0bee75a2cc47f9dcdc2192", 992)
NNS16_OUT = ("a3fe392f7869dd86a5e8d0b246ee36d310437c980ed937dfcb34a92fc54bebc7", 80)
BS12_FIRST_OUT = ("d115c80deb2ecf593d3eb3ea3a39ba32c41a68ef8ace1eb84d48077a797dbd06", 1)
# certificate counters of a fresh, uninterrupted BS n=8 search
BS8_FRESH_STATS = {"candidates": 1440, "psd_rejected": 890, "completions": 2528}
BS8_TASKS = 481
BS12_TASKS, BS12_TASKS_RUN = 9229, 22
# n = 41 stage drivers on the published BS(42,41) quad
P41_SUM_PROFILES = 543
P41_MOD3_PROFILES = 19192
P41_HALVES = 39
P41_PREFIX = 40000
P41_PREFIX_SHA256 = "91b542a254f245ba9914eab8825e1c34bdf08d688e3bbcf444437f9547b886d9"
P41_PREFIX_KEPT = 0
# Halves (indices into the sorted list of 39) whose first 40,000 candidates
# took 30-90 s at source digest b61ab505 on a 2-vCPU Xeon, 6-20 times the
# published half: one run landing on them would swamp every spread, so
# seeds pick among the other halves.
P41_SLOW_HALVES = (6, 12, 17, 22, 23, 29, 32, 36)


class Checks:
    """Counts output checks and remembers which ones failed."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def __call__(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(what)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _fresh(path: str) -> str:
    if os.path.exists(path):
        os.remove(path)
    return path


def _digest(path: str) -> tuple[str, int]:
    with open(path, "rb") as fh:
        data = fh.read()
    return hashlib.sha256(data).hexdigest(), data.count(b"\n")


def _read_cert(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _check_records(path: str, n: int, kind: Kind, checks: Checks) -> None:
    """Every emitted record parses and its quad passes seqcore.verify."""
    with open(path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            record = cli.ResultRecord.parse(line)
            ok = (record.n == n and record.kind is kind and record.canonical
                  and seqcore.verify(record.quad()).valid)
            checks(ok, f"{os.path.basename(path)} record {i} verifies")


def _check_output(name: str, digest: tuple[str, int], ref: tuple[str, int],
                  checks: Checks) -> None:
    checks(digest[0] == ref[0], f"{name} digest matches reference")
    checks(digest[1] == ref[1], f"{name} has {ref[1]} lines")


def _search_argv(n: int, kind: str, out: str, cert: str, *extra: str) -> list[str]:
    return ["search", "--n", str(n), "--kind", kind, *extra, "--out", out, "--cert", cert]


class Bs8Resume:
    """BS n=8 on two workers, interrupted mid-way, resumed through the CLI."""

    name = "bs8-resume"

    def __init__(self, seed: int, work: str):
        self.cfg = searcher.SearchConfig(n=8, kind=Kind.BS, worker_count=2,
                                         checkpoint_interval=1)
        if seed == DEFAULT_SEED:
            self.stop_after = 240
        else:  # the middle fifth of the task list, so resume_s varies little by seed
            self.stop_after = _rng(self.name, seed).randint(2 * BS8_TASKS // 5 + 1,
                                                             3 * BS8_TASKS // 5)
        self.checkpoint = _fresh(os.path.join(work, "bs8.ck.json"))
        self.out = _fresh(os.path.join(work, "bs8.txt"))
        self.cert = _fresh(os.path.join(work, "bs8.cert.json"))
        self.argv = _search_argv(8, "bs", self.out, self.cert, "--workers", "2",
                                 "--checkpoint", self.checkpoint, "--checkpoint-interval", "1")
        self.resume_cert_gap = 0

    def run(self) -> dict:
        t0 = time.perf_counter()
        try:
            searcher.search(self.cfg, checkpoint_path=self.checkpoint,
                            interrupt_after_tasks=self.stop_after)
            self.interrupted = False
        except SearchInterrupted:
            self.interrupted = True
        t1 = time.perf_counter()
        self.rc = cli.main(self.argv)
        self.digest = _digest(self.out)
        t2 = time.perf_counter()
        return {"wall_s": t2 - t0, "resume_s": t2 - t1}

    def check(self, checks: Checks, full: bool) -> str:
        checks(self.interrupted, f"search stopped after task {self.stop_after}")
        checks(self.rc == 0, "resumed search exits 0")
        _check_output("bs8", self.digest, BS8_OUT, checks)
        _check_records(self.out, 8, Kind.BS, checks)
        cert = _read_cert(self.cert)
        checks(cert["classes"] == BS8_OUT[1], "certificate class count")
        checks(cert["tasks"] == cert["tasks_completed"] == BS8_TASKS,
               "certificate task counts")
        checks(cert["exhaustive"] is True, "certificate is exhaustive")
        # Known resume-certificate undercount: reported as a count, not a failure.
        self.resume_cert_gap = sum(abs(want - cert[key])
                                   for key, want in BS8_FRESH_STATS.items())
        return self.digest[0]


class Structured16:
    """Exhaustive normal and near-normal searches at n=16 on one worker."""

    name = "structured16"

    def __init__(self, seed: int, work: str):
        self.runs = []
        for kind, ref in (("ns", NS16_OUT), ("nns", NNS16_OUT)):
            out = _fresh(os.path.join(work, f"{kind}16.txt"))
            cert = _fresh(os.path.join(work, f"{kind}16.cert.json"))
            self.runs.append((kind, ref, out, cert,
                              _search_argv(16, kind, out, cert, "--workers", "1")))
        self.resume_cert_gap = 0

    def run(self) -> dict:
        t0 = time.perf_counter()
        self.results = []
        for _kind, _ref, out, _cert, argv in self.runs:
            rc = cli.main(argv)
            self.results.append((rc, _digest(out)))
        wall = time.perf_counter() - t0
        return {"wall_s": wall, "resume_s": wall}

    def check(self, checks: Checks, full: bool) -> str:
        for (kind, ref, out, cert, _argv), (rc, digest) in zip(self.runs, self.results):
            checks(rc == 0, f"{kind}16 search exits 0")
            _check_output(f"{kind}16", digest, ref, checks)
            _check_records(out, 16, Kind(kind), checks)
            checks(_read_cert(cert)["classes"] == ref[1], f"{kind}16 certificate class count")
        return ",".join(digest[0] for _rc, digest in self.results)


class FirstBs12:
    """First-solution BS n=12 search on one worker."""

    name = "first-bs12"

    def __init__(self, seed: int, work: str):
        self.out = _fresh(os.path.join(work, "bs12.txt"))
        self.cert = _fresh(os.path.join(work, "bs12.cert.json"))
        self.argv = _search_argv(12, "bs", self.out, self.cert, "--first", "--workers", "1")
        self.resume_cert_gap = 0

    def run(self) -> dict:
        t0 = time.perf_counter()
        self.rc = cli.main(self.argv)
        self.digest = _digest(self.out)
        wall = time.perf_counter() - t0
        return {"wall_s": wall, "resume_s": wall}

    def check(self, checks: Checks, full: bool) -> str:
        checks(self.rc == 0, "first-solution search exits 0")
        _check_output("bs12", self.digest, BS12_FIRST_OUT, checks)
        _check_records(self.out, 12, Kind.BS, checks)
        cert = _read_cert(self.cert)
        checks(cert["tasks"] == BS12_TASKS and cert["tasks_completed"] == BS12_TASKS_RUN,
               "certificate task counts")
        return self.digest[0]


def _signs(values) -> str:
    return "".join("+" if v > 0 else "-" for v in values)


def prefix_sha256(candidates) -> str:
    """Digest of a candidate stream: one "C D" line of +/- signs per pair."""
    h = hashlib.sha256()
    for c, d in candidates:
        h.update(f"{_signs(c)} {_signs(d)}\n".encode())
    return h.hexdigest()


class Paper41:
    """The n=41 stage drivers on the published BS(42,41) quad."""

    name = "paper41"
    n = 41

    def __init__(self, seed: int, work: str):
        self.quad = refdata.known_quad(self.n)
        self.sums = seqcore.row_sums(self.quad)
        self.mod3 = numfilter.quad_residue_profile(self.quad, 3)
        mod6 = numfilter.quad_residue_profile(self.quad, 6)
        self.published_half = (mod6.c_class_sums, mod6.d_class_sums)
        if seed == DEFAULT_SEED:
            self.pick = None
        else:
            self.pick = _rng(self.name, seed).choice(
                [i for i in range(P41_HALVES) if i not in P41_SLOW_HALVES])
        self.grid = specfilter.ThetaGrid.from_spec("pi-over-100")
        self.bound = 4 * self.n + 2
        self.resume_cert_gap = 0

    def run(self) -> dict:
        n, kind = self.n, Kind.BS
        t0 = time.perf_counter()
        self.sum_profiles = numfilter.sum_profiles(n, kind)
        self.mod3_profiles = numfilter.residue_profiles(n, 3, self.sums, kind)
        self.halves = numfilter.refine_profiles(n, self.mod3, self.sums, kind, project="pq")
        self.half = self.published_half if self.pick is None else self.halves[self.pick]
        zero = (0,) * 6
        self.profile = numfilter.ResidueProfile(6, zero, zero, *self.half)
        stream = searcher.expand_candidates(self.profile, n, kind, searcher.SIDE_CD)
        self.candidates = []
        self.kept = 0
        for c, d in itertools.islice(stream, P41_PREFIX):
            self.candidates.append((c.elements, d.elements))
            self.kept += specfilter.pair_filter(c, d, self.bound, self.grid)
        wall = time.perf_counter() - t0
        return {"wall_s": wall, "resume_s": wall}

    def check(self, checks: Checks, full: bool) -> str:
        """Stage counts, then the candidate prefix.

        With the default seed the prefix must match its reference.  With
        another seed the stream must be duplicate-free and, when ``full``,
        every candidate must pass ``candidate_matches_profile``.  That scan
        takes about 10 s, so run.py asks for it in the first iteration of a
        run only and checks that the others reproduce the same stream.
        """
        n, kind = self.n, Kind.BS
        checks(len(self.sum_profiles) == P41_SUM_PROFILES, "sum profile count")
        checks(numfilter.canonical_sum_profile(self.sums, n, kind) in self.sum_profiles,
               "published sum profile is enumerated")
        checks(len(self.mod3_profiles) == P41_MOD3_PROFILES, "mod-3 profile count")
        checks(self.mod3 in self.mod3_profiles, "published mod-3 profile is enumerated")
        checks(len(self.halves) == P41_HALVES, "mod-6 C,D half count")
        checks(self.published_half in self.halves, "published half is enumerated")
        checks(len(self.candidates) == P41_PREFIX, "candidate prefix length")
        stream = prefix_sha256(self.candidates)
        if self.pick is None:
            checks(self.kept == P41_PREFIX_KEPT, "spectrum screen keep count")
            checks(stream == P41_PREFIX_SHA256, "candidate prefix digest matches reference")
        else:
            checks(len(set(self.candidates)) == len(self.candidates),
                   "candidate stream has no duplicates")
        if self.pick is not None and full:
            for i, (c, d) in enumerate(self.candidates):
                pair = (seqcore.SignSeq(c), seqcore.SignSeq(d))
                checks(searcher.candidate_matches_profile(pair, self.profile, n, kind,
                                                          searcher.SIDE_CD),
                       f"candidate {i} matches the profile")
        return f"{stream} kept={self.kept}"


WORKLOADS = {w.name: w for w in (Bs8Resume, Structured16, FirstBs12, Paper41)}
