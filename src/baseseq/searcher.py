"""End-to-end search pipelines with checkpointing and worker partitioning.

The pipeline enumerates sum profiles, then residue-class profiles at the
configured moduli, expands one side of the quad into candidate pairs
that hit the residue profile exactly and respect the end-column sign
cases, screens the pairs with the power-spectrum bound, and completes
the other side by backtracking on symmetric position pairs from the
outside in (high shifts of the summed autocorrelation become checkable
first under that order).

Bookkeeping invariant: the task for (sum profile S, residue half H)
finds exactly the valid quads whose raw row sums equal S and whose
expanded side has class sums H.  Together with profile deduplication by
validity-preserving moves, the union over tasks hits at least one
member of every equivalence class; a final closure/dedup step emits one
canonical representative per class.

Backtracking applies no symmetry breaking: restricting, say, the first
free sign would lose completions whose row sums match the profile, and
per-profile completeness is what the exhaustiveness argument rests on.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Iterator, Optional

from . import equiv, numfilter, specfilter
from .errors import PreconditionError, ResumeError, SearchInterrupted
from .numfilter import ResidueProfile
from .seqcore import Kind, SeqQuad, SignSeq, SumProfile, verify

SIDE_AB = "AB"
SIDE_CD = "CD"

_DEFAULT_MODULI = {Kind.BS: (3, 6), Kind.NS: (3, 6), Kind.NNS: (6,)}
_DEFAULT_GRIDS = {Kind.BS: ("pi-over-100",), Kind.NS: ("l=50", "l=1000"),
                  Kind.NNS: ("l=50", "l=1000")}
# per-task counters, summed into the certificate
_STAT_KEYS = ("candidates", "psd_rejected", "completions")


@dataclass(frozen=True)
class SearchConfig:
    """Pipeline parameters; unset fields resolve to per-kind defaults."""

    n: int
    kind: Kind
    start_side: str = ""
    moduli: tuple[int, ...] = ()
    grids: tuple[str, ...] = ()
    first_solution_only: bool = False
    worker_count: int = 1
    orbit_dedup: bool = True
    checkpoint_interval: int = 1
    orbit_cap: int = equiv.DEFAULT_ORBIT_CAP

    def __post_init__(self):
        if self.n < 1:
            raise PreconditionError("search requires n >= 1")
        if self.kind is Kind.NNS and self.n % 2 != 0:
            raise PreconditionError("near-normal search requires even n")
        if self.kind in (Kind.NS, Kind.NNS):
            if self.start_side and self.start_side != SIDE_AB:
                raise PreconditionError("ns/nns searches must start on the A,B side")
            object.__setattr__(self, "start_side", SIDE_AB)
        elif not self.start_side:
            object.__setattr__(self, "start_side", SIDE_CD)
        elif self.start_side not in (SIDE_AB, SIDE_CD):
            raise PreconditionError("start_side must be AB or CD")
        if not self.moduli:
            object.__setattr__(self, "moduli", _DEFAULT_MODULI[self.kind])
        for prev, cur in zip(self.moduli, self.moduli[1:]):
            if cur != 2 * prev:
                raise PreconditionError("each modulus must double the previous one")
        if self.kind is Kind.NNS and any(m % 2 for m in self.moduli):
            raise PreconditionError("near-normal searches need even moduli")
        if not self.grids:
            object.__setattr__(self, "grids", _DEFAULT_GRIDS[self.kind])
        if self.worker_count < 1 or self.checkpoint_interval < 1:
            raise PreconditionError("worker_count and checkpoint_interval must be >= 1")

    def digest(self) -> str:
        payload = {
            "n": self.n, "kind": self.kind.value, "start_side": self.start_side,
            "moduli": list(self.moduli), "grids": list(self.grids),
            "first": self.first_solution_only, "orbit_dedup": self.orbit_dedup,
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


# --- candidate generation ---------------------------------------------------


def _ordered(cols):
    return sorted(cols, key=lambda col: tuple(0 if v > 0 else 1 for v in col))


def _pair_columns(n: int, kind: Kind, side: str) -> list[list[tuple[int, int, int, int]]]:
    table = numfilter.column_cases(n, side, kind if side == SIDE_AB else Kind.BS)
    length = n + 1 if side == SIDE_AB else n
    return [_ordered(table.cases[i]) for i in range(1, length // 2 + 1)]


def _middle_options(n: int, kind: Kind, side: str) -> Optional[list[tuple[int, int]]]:
    length = n + 1 if side == SIDE_AB else n
    if length % 2 == 0:
        return None
    if side == SIDE_CD or kind is Kind.BS:
        return [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    mid = (length + 1) // 2
    flip = 1 if (kind is Kind.NS or mid % 2 == 1) else -1
    return [(1, flip), (-1, -flip)]


def _fill_pairs(length: int,
                pair_cols: list[list[tuple[int, int, int, int]]],
                middle_opts: Optional[list[tuple[int, int]]],
                shift_targets: Optional[tuple[int, ...]] = None,
                budgets: Optional[tuple] = None,
                sum_targets: Optional[tuple[int, int, int, int]] = None,
                ) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """DFS over symmetric position pairs, outside in.

    ``shift_targets[s-1]`` is the required N_x(s)+N_y(s); a shift is
    checked as soon as every product in it is assigned.  ``budgets``
    carries per-residue-class sum targets for both sequences,
    ``sum_targets`` plain and alternated row-sum targets.
    """
    if length == 0:
        yield (), ()
        return
    npairs = length // 2
    x = [0] * length
    y = [0] * length
    if budgets is not None:
        m, need_x, need_y, cnt = budgets
        need_x, need_y, cnt = list(need_x), list(need_y), list(cnt)
    if sum_targets is not None:
        tgt_x, tgt_y, tgt_ax, tgt_ay = sum_targets

    def shift_ok(s: int) -> bool:
        tot = 0
        for j in range(length - s):
            tot += x[j] * x[j + s] + y[j] * y[j + s]
        return tot == shift_targets[s - 1]

    def sums_ok(run, rem: int) -> bool:
        rx, ry, rax, ray = run
        for have, want in ((rx, tgt_x), (ry, tgt_y), (rax, tgt_ax), (ray, tgt_ay)):
            gap = want - have
            if abs(gap) > rem or (gap - rem) % 2 != 0:
                return False
        return True

    def budget_ok(cls: int) -> bool:
        c = cnt[cls]
        for need in (need_x[cls], need_y[cls]):
            if abs(need) > c or (need - c) % 2 != 0:
                return False
        return True

    def place(pos0: int, xv: int, yv: int, run):
        x[pos0], y[pos0] = xv, yv
        if budgets is not None:
            cls = pos0 % m
            cnt[cls] -= 1
            need_x[cls] -= xv
            need_y[cls] -= yv
        if run is not None:
            w = 1 if pos0 % 2 == 0 else -1
            return (run[0] + xv, run[1] + yv, run[2] + w * xv, run[3] + w * yv)
        return None

    def unplace(pos0: int, xv: int, yv: int):
        if budgets is not None:
            cls = pos0 % m
            cnt[cls] += 1
            need_x[cls] += xv
            need_y[cls] += yv

    def rec(t: int, run, rem: int):
        if t > npairs:
            if middle_opts is None:
                if shift_targets is not None:
                    for s in range(1, length - npairs):
                        if not shift_ok(s):
                            return
                yield x, y
                return
            mid0 = npairs  # 0-based middle index
            for xv, yv in middle_opts:
                nrun = place(mid0, xv, yv, run)
                ok = True
                if budgets is not None and not budget_ok(mid0 % m):
                    ok = False
                if ok and sum_targets is not None and not sums_ok(nrun, 0):
                    ok = False
                if ok and shift_targets is not None:
                    for s in range(1, length - npairs):
                        if not shift_ok(s):
                            ok = False
                            break
                if ok:
                    yield x, y
                unplace(mid0, xv, yv)
            return
        i0, j0 = t - 1, length - t
        for col in pair_cols[t - 1]:
            xv_i, xv_j, yv_i, yv_j = col
            r1 = place(i0, xv_i, yv_i, run)
            r2 = place(j0, xv_j, yv_j, r1)
            ok = True
            if budgets is not None:
                ok = budget_ok(i0 % m) and budget_ok(j0 % m)
            if ok and sum_targets is not None and not sums_ok(r2, rem - 2):
                ok = False
            if ok and shift_targets is not None:
                s_new = length - t
                # the final pair of an even length determines all shifts
                if t == npairs and middle_opts is None:
                    for s in range(s_new, 0, -1):
                        if not shift_ok(s):
                            ok = False
                            break
                elif s_new <= length - 1 and not shift_ok(s_new):
                    ok = False
            if ok:
                yield from rec(t + 1, r2, rem - 2)
            unplace(j0, xv_j, yv_j)
            unplace(i0, xv_i, yv_i)

    start_run = (0, 0, 0, 0) if sum_targets is not None else None
    for xs, ys in rec(1, start_run, length):
        yield tuple(xs), tuple(ys)


def expand_candidates(prof: ResidueProfile, n: int, kind: Kind,
                      side: str) -> Iterator[tuple[SignSeq, SignSeq]]:
    """All pairs for one side with exactly the profile's class sums.

    Every emitted pair satisfies the end-column sign cases for its side;
    on the A,B side of a structured kind the second sequence is the
    derived partner of the first.  The stream is exhaustive and
    duplicate-free for the profile, in a fixed order.
    """
    m = prof.modulus
    if side == SIDE_AB:
        length = n + 1
        tx, ty = prof.a_class_sums, prof.b_class_sums
    else:
        length = n
        tx, ty = prof.c_class_sums, prof.d_class_sums
    budgets = (m, tx, ty, list(numfilter.class_sizes(length, m)))
    for xs, ys in _fill_pairs(length, _pair_columns(n, kind, side),
                              _middle_options(n, kind, side), budgets=budgets):
        yield SignSeq(xs), SignSeq(ys)


def candidate_matches_profile(pair: tuple[SignSeq, SignSeq], prof: ResidueProfile,
                              n: int, kind: Kind, side: str) -> bool:
    """Membership test for the expansion stream, without scanning it."""
    first, second = pair
    m = prof.modulus
    want = ((prof.a_class_sums, prof.b_class_sums) if side == SIDE_AB
            else (prof.c_class_sums, prof.d_class_sums))
    if (numfilter.sequence_class_sums(first, m),
            numfilter.sequence_class_sums(second, m)) != want:
        return False
    cols = _pair_columns(n, kind, side)
    length = len(first)
    for t in range(1, length // 2 + 1):
        col = (first[t - 1], first[length - t], second[t - 1], second[length - t])
        if col not in cols[t - 1]:
            return False
    return True


def backtrack_complete(fixed: tuple[SignSeq, SignSeq], n: int, kind: Kind,
                       side_to_fill: str, mode: str = "all",
                       sum_targets: Optional[tuple[int, int, int, int]] = None,
                       ) -> list[SeqQuad]:
    """Complete a fixed pair to full valid quads.

    ``fixed`` is the pair for the side opposite ``side_to_fill``.  In
    mode "all" the returned list is exhaustive; in mode "first" at most
    one quad is returned.  ``sum_targets`` optionally pins the plain and
    alternated row sums of the filled side (used by the searcher for
    per-profile bookkeeping).
    """
    if mode not in ("all", "first"):
        raise PreconditionError("mode must be 'all' or 'first'")
    f1, f2 = fixed
    if side_to_fill == SIDE_AB:
        if len(f1) != n or len(f2) != n:
            raise PreconditionError("fixed C,D pair must have length n")
        length = n + 1
    else:
        if len(f1) != n + 1 or len(f2) != n + 1:
            raise PreconditionError("fixed A,B pair must have length n+1")
        length = n
    targets = []
    for s in range(1, n + 1):
        t1 = f1.autocorr[s] if s < len(f1) else 0
        t2 = f2.autocorr[s] if s < len(f2) else 0
        targets.append(-(t1 + t2))
    if side_to_fill == SIDE_CD:
        if n >= 1 and targets[n - 1] != 0:
            return []  # shift n involves only the fixed side
        targets = targets[:n - 1]
    out = []
    for xs, ys in _fill_pairs(length, _pair_columns(n, kind, side_to_fill),
                              _middle_options(n, kind, side_to_fill),
                              shift_targets=tuple(targets),
                              sum_targets=sum_targets):
        if side_to_fill == SIDE_AB:
            quad = SeqQuad(SignSeq(xs), SignSeq(ys), f1, f2, kind)
        else:
            quad = SeqQuad(f1, f2, SignSeq(xs), SignSeq(ys), kind)
        if verify(quad).valid:
            out.append(quad)
            if mode == "first":
                break
    return out


# --- task construction -------------------------------------------------------


def residue_halves(cfg: SearchConfig, s: SumProfile) -> list[tuple[tuple, tuple]]:
    """Deduplicated residue-vector halves for the start side, sorted."""
    chain = cfg.moduli
    profs = numfilter.residue_profiles(cfg.n, chain[0], s, cfg.kind)
    for _ in chain[1:-1]:
        profs = numfilter.refine_all(cfg.n, profs, s, cfg.kind)
    want = "pq" if cfg.start_side == SIDE_CD else "kr"
    if len(chain) == 1:
        if want == "pq":
            halves = {(p.c_class_sums, p.d_class_sums) for p in profs}
        else:
            halves = {(p.a_class_sums, p.b_class_sums) for p in profs}
        return sorted(halves)
    return numfilter.refine_all(cfg.n, profs, s, cfg.kind, project=want)


def build_tasks(cfg: SearchConfig) -> list[tuple]:
    """Flattened deterministic task list: one (sum profile, half) each."""
    tasks = []
    for si, s in enumerate(numfilter.sum_profiles(cfg.n, cfg.kind)):
        for hi, half in enumerate(residue_halves(cfg, s)):
            tasks.append((len(tasks), si, hi, s.as_tuple(), half))
    return tasks


def _half_profile(cfg: SearchConfig, half: tuple[tuple, tuple]) -> ResidueProfile:
    m = cfg.moduli[-1]
    zero = (0,) * m
    if cfg.start_side == SIDE_CD:
        return ResidueProfile(m, zero, zero, half[0], half[1])
    return ResidueProfile(m, half[0], half[1], zero, zero)


def _serialize(quad: SeqQuad) -> str:
    return "|".join(s.text() for s in quad.seqs())


def _deserialize(blob: str, kind: Kind) -> SeqQuad:
    parts = [SignSeq.from_text(p) for p in blob.split("|")]
    return SeqQuad(*parts, kind=kind)


def run_task(cfg: SearchConfig, task: tuple) -> tuple[int, list[str], dict]:
    """Expand, screen and complete one (sum profile, residue half) unit."""
    index, _si, _hi, s_tuple, half = task
    s = SumProfile.from_tuple(s_tuple)
    prof = _half_profile(cfg, half)
    grids = [specfilter.ThetaGrid.from_spec(g) for g in cfg.grids]
    bound = 4 * cfg.n + 2
    fill_side = SIDE_AB if cfg.start_side == SIDE_CD else SIDE_CD
    if fill_side == SIDE_AB:
        fill_targets = (s.a, s.b, s.a_alt, s.b_alt)
    else:
        fill_targets = (s.c, s.d, s.c_alt, s.d_alt)
    mode = "first" if cfg.first_solution_only else "all"
    stats = dict.fromkeys(_STAT_KEYS, 0)
    found = []
    for first, second in expand_candidates(prof, cfg.n, cfg.kind, cfg.start_side):
        stats["candidates"] += 1
        keep = True
        for grid in grids:
            if not specfilter.pair_filter(first, second, bound, grid):
                keep = False
                break
        if not keep:
            stats["psd_rejected"] += 1
            continue
        quads = backtrack_complete((first, second), cfg.n, cfg.kind, fill_side,
                                   mode=mode, sum_targets=fill_targets)
        stats["completions"] += len(quads)
        found.extend(_serialize(q) for q in quads)
        if mode == "first" and found:
            break
    return index, found, stats


def _pool_entry(args):
    cfg_kwargs, task = args
    return run_task(SearchConfig(**cfg_kwargs), task)


def _cfg_kwargs(cfg: SearchConfig) -> dict:
    return {
        "n": cfg.n, "kind": cfg.kind, "start_side": cfg.start_side,
        "moduli": cfg.moduli, "grids": cfg.grids,
        "first_solution_only": cfg.first_solution_only,
        "worker_count": 1, "orbit_dedup": cfg.orbit_dedup,
        "checkpoint_interval": cfg.checkpoint_interval,
        "orbit_cap": cfg.orbit_cap,
    }


# --- checkpointing -----------------------------------------------------------


def _results_digest(results: list[list], stats: dict) -> str:
    blob = json.dumps({"results": results, "stats": stats}, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def save_checkpoint(path: str, cfg: SearchConfig, tasks_total: int,
                    results: list[list], stats: dict) -> None:
    """Persist completed-task results (a contiguous prefix, in task order)
    and the certificate counters summed over that prefix."""
    state = {
        "version": 2,
        "config_digest": cfg.digest(),
        "tasks_total": tasks_total,
        "tasks_done": len(results),
        "results": results,
        "stats": stats,
        "results_digest": _results_digest(results, stats),
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(state, fh)
    os.replace(tmp, path)


def load_checkpoint(path: str, cfg: SearchConfig,
                    tasks_total: int) -> tuple[list[list], dict]:
    """Read back a checkpoint's results and counters, refusing any
    mismatch with the config."""
    with open(path, "r", encoding="utf-8") as fh:
        state = json.load(fh)
    if state.get("config_digest") != cfg.digest():
        raise ResumeError("checkpoint was written by a different configuration")
    if state.get("tasks_total") != tasks_total:
        raise ResumeError("checkpoint task count does not match this configuration")
    results = state.get("results", [])
    stats = state.get("stats")
    if not isinstance(stats, dict) or set(stats) != set(_STAT_KEYS) \
            or not all(type(v) is int for v in stats.values()):
        raise ResumeError("checkpoint has no certificate counters")
    if state.get("results_digest") != _results_digest(results, stats):
        raise ResumeError("checkpoint results digest mismatch")
    if len(results) != state.get("tasks_done"):
        raise ResumeError("checkpoint is truncated")
    return results, {key: stats[key] for key in _STAT_KEYS}


# --- orchestration -----------------------------------------------------------


@dataclass
class SearchResult:
    quads: list[SeqQuad]
    stages: list[str]          # producing (sum profile, half) indices per quad
    certificate: dict = field(default_factory=dict)


def _finalize(cfg: SearchConfig, tasks: list[tuple],
              per_task: list[list[str]]) -> SearchResult:
    finds = []
    for task, blobs in zip(tasks, per_task):
        index, si, hi = task[0], task[1], task[2]
        for blob in blobs:
            finds.append((_deserialize(blob, cfg.kind), si, hi, index))
    finds.sort(key=lambda item: (item[3], item[0].sort_key()))

    if not cfg.orbit_dedup:
        ordered = sorted(finds, key=lambda item: item[0].sort_key())
        return SearchResult(quads=[f[0] for f in ordered],
                            stages=[f"s{f[1]}.r{f[2]}" for f in ordered])

    # For normal quads the kind's own moves (which act on A,B only) are
    # weaker than the profile-dedup moves, so regrow every
    # structure-preserving variant of each find before deduplicating.
    members = finds
    if cfg.kind is Kind.NS:
        members = []
        seen: set[tuple] = set()
        for quad, si, hi, index in finds:
            if quad.sort_key() in seen:
                continue
            closure = equiv.orbit(quad, cap=cfg.orbit_cap,
                                  generators=equiv.structure_generators)
            fresh = [q for q in closure if q.sort_key() not in seen]
            seen.update(q.sort_key() for q in fresh)
            members.extend((q, si, hi, index) for q in fresh)

    visited: set[tuple] = set()
    member_class: dict[tuple, tuple] = {}
    rep_of: dict[tuple, SeqQuad] = {}
    stage_of: dict[tuple, tuple[int, int, int]] = {}
    for quad, si, hi, index in members:
        key = quad.sort_key()
        if key not in visited:
            cls = equiv.orbit(quad, cap=cfg.orbit_cap)
            rep_key = cls[0].sort_key()
            rep_of[rep_key] = cls[0]
            for member in cls:
                visited.add(member.sort_key())
                member_class[member.sort_key()] = rep_key
        rep_key = member_class[key]
        stage = (index, si, hi)
        if rep_key not in stage_of or stage < stage_of[rep_key]:
            stage_of[rep_key] = stage
    ordered_keys = sorted(rep_of)
    return SearchResult(
        quads=[rep_of[k] for k in ordered_keys],
        stages=[f"s{stage_of[k][1]}.r{stage_of[k][2]}" for k in ordered_keys],
    )


def search(cfg: SearchConfig, checkpoint_path: Optional[str] = None,
           interrupt_after_tasks: Optional[int] = None) -> SearchResult:
    """Run the pipeline; resuming from a checkpoint replays identically."""
    tasks = build_tasks(cfg)
    done: list[list[str]] = []
    stats_total = dict.fromkeys(_STAT_KEYS, 0)
    if checkpoint_path and os.path.exists(checkpoint_path):
        results, stats_total = load_checkpoint(checkpoint_path, cfg, len(tasks))
        done = [list(map(str, blobs)) for blobs in results]
    pending = tasks[len(done):]

    stop_early = False

    def note(blobs: list[str]):
        nonlocal stop_early
        done.append(blobs)
        if cfg.first_solution_only and blobs:
            stop_early = True
        if checkpoint_path and (len(done) % cfg.checkpoint_interval == 0
                                or len(done) == len(tasks) or stop_early):
            save_checkpoint(checkpoint_path, cfg, len(tasks), done, stats_total)
        if interrupt_after_tasks is not None and len(done) >= interrupt_after_tasks \
                and len(done) < len(tasks) and not stop_early:
            if checkpoint_path:
                save_checkpoint(checkpoint_path, cfg, len(tasks), done, stats_total)
            raise SearchInterrupted(f"interrupted after {len(done)} tasks")

    if pending and not (cfg.first_solution_only and any(done)):
        if cfg.worker_count == 1:
            for task in pending:
                _idx, blobs, st = run_task(cfg, task)
                for key in stats_total:
                    stats_total[key] += st[key]
                note(blobs)
                if stop_early:
                    break
        else:
            ctx = multiprocessing.get_context("fork")
            payload = [(_cfg_kwargs(cfg), task) for task in pending]
            with ctx.Pool(cfg.worker_count) as pool:
                for _idx, blobs, st in pool.imap(_pool_entry, payload, chunksize=1):
                    for key in stats_total:
                        stats_total[key] += st[key]
                    note(blobs)
                    if stop_early:
                        pool.terminate()
                        break

    completed = len(done) == len(tasks) or stop_early
    result = _finalize(cfg, tasks[:len(done)], done)
    result.certificate = {
        "n": cfg.n,
        "kind": cfg.kind.value,
        "mode": "first" if cfg.first_solution_only else "exhaustive",
        "start_side": cfg.start_side,
        "moduli": list(cfg.moduli),
        "grids": list(cfg.grids),
        "sum_profiles": len({t[1] for t in tasks}),
        "tasks": len(tasks),
        "tasks_completed": len(done),
        "exhaustive": (not cfg.first_solution_only) and completed,
        "classes": len(result.quads),
        "config_digest": cfg.digest(),
        **stats_total,
    }
    return result
