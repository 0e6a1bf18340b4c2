"""End-to-end search pipelines with checkpointing and worker partitioning.

The pipeline enumerates sum profiles, then residue-class profiles at the
configured moduli, expands one side of the quad into candidate pairs
that hit the residue profile exactly and respect the end-column sign
cases, screens the pairs with the power-spectrum bound, and completes
the other side.  One cached table per (n, side, kind),
``numfilter.column_cases``, describes a side: its levels, outside in,
are the symmetric position pairs with their sign columns, then an odd
length's middle with its options.

One level kernel over those levels does both enumerations.  A row is a
few uint64 words: the x bits and the y bits of a partial fill
(``SignSeq.packed`` layout), then byte lanes, for each class mod m of x
and of y the +1 signs and the -1 signs the class must still take to sum
to its target.  Each level broadcasts its rows against the level's options
(cached per side and modulus, ``_kernel_rows``) and keeps a row while no
lane is overspent, that is while every class sum can still reach its
target with the positions its class has left; the targets' parity and
range are tested once, at entry.  Expansion takes the task's modulus
and residue half.  Completion takes m = 2 and the sums over even and
over odd positions, ((x+x')/2, (x-x')/2) of each row sum, and also
checks every shift a level completes: placing pair t of a length-L fill
completes shift L-t, so one broadcast ``np.bitwise_count`` of
(z ^ z >> s) & mask over x and y checks it against each candidate's
wanted count of sign changes, derived from the fixed pairs' summed
autocorrelations (a count no shift can reach becomes a sentinel).  The
even-length last pair and the middle position check every shift still
open.

Filtering keeps the parent-major order of each level, so the full rows
come out by candidate and, within one, in the order of a depth-first
search over the levels; first mode depends on it.  ``search`` hands the
tasks over in runs of consecutive tasks of one sum profile (``_runs``),
and ``run_tasks`` makes one pass over a run: one expansion walk from a
root row per task, so the fills come out in task order, cut into blocks
of at most ``_BLOCK`` that may span tasks.  Each block's summed
autocorrelations N_x(s) + N_y(s) are counted once
(``seqcore.pair_autocorr``, one popcount); the screen makes one numpy
product of them per grid, and the passers' columns give the completion
its wanted counts.  The passers are completed in one kernel call, the
run having one sum profile and so one set of targets; finds and
counters are then split back per task.
``seqcore.packed_valid`` checks each completion as a packed quad, so a
find is never unpacked on its way to the journal and orbit closure.  A
sequence of the filled side has at most 64 signs, so searches support
n <= 63 (the paper needs n <= 45).

Bookkeeping invariant: the task for (sum profile S, residue half H)
finds exactly the valid quads whose raw row sums equal S and whose
expanded side has class sums H.  Together with profile deduplication by
validity-preserving moves, the union over tasks hits at least one
member of every equivalence class; a final closure/dedup step emits one
canonical representative per class.

Completion applies no symmetry breaking: restricting, say, the first
free sign would lose completions whose row sums match the profile, and
per-profile completeness is what the exhaustiveness argument rests on.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import multiprocessing
import os
import select
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Iterator, Optional

import numpy as np

from . import equiv, numfilter, specfilter
from .errors import PreconditionError, ResumeError, SearchInterrupted
from .numfilter import SIDE_AB, SIDE_CD, ResidueProfile
# verify is unused here, but benchmarks/tracing.py wraps searcher.verify by name
from .seqcore import (Kind, Packed, SeqQuad, SignSeq, SumProfile, disagreements,
                      packed_from_text, packed_text, packed_valid, pair_autocorr, verify)

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
        _check_length(self.n)
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
        if any(m < 2 for m in self.moduli):
            raise PreconditionError("every modulus must be >= 2")
        for prev, cur in zip(self.moduli, self.moduli[1:]):
            if cur != 2 * prev:
                raise PreconditionError("each modulus must double the previous one")
        if self.kind is Kind.NNS and any(m % 2 for m in self.moduli):
            raise PreconditionError("near-normal searches need even moduli")
        if not self.grids:
            object.__setattr__(self, "grids", _DEFAULT_GRIDS[self.kind])
        for spec in self.grids:  # a bad spec fails before any task is built
            specfilter.ThetaGrid.from_spec(spec)
        if self.worker_count < 1 or self.checkpoint_interval < 1 or self.orbit_cap < 1:
            raise PreconditionError(
                "worker_count, checkpoint_interval and orbit_cap must be >= 1")

    def digest(self) -> str:
        payload = {
            "n": self.n, "kind": self.kind.value, "start_side": self.start_side,
            "moduli": list(self.moduli), "grids": list(self.grids),
            "first": self.first_solution_only, "orbit_dedup": self.orbit_dedup,
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


# --- the level kernel ----------------------------------------------------------


# candidates are screened and completed in blocks of at most this many;
# larger blocks speed up runs of small tasks, but at n = 41 the screen's
# temporaries then outgrow the allocator's mmap threshold, and a BS 41
# block of 512 took twice the time per candidate of two blocks of 128
_BLOCK = 128
# completion expands at most this many rows at a time, expansion a
# quarter of that: little is pruned near the top of a long side, so each
# level of an expansion holds a full chunk while the walk descends
_FRONTIER = 8192
# a wanted count of sign changes that no shift of two sequences of at
# most 64 signs each can have
_NO_COUNT = 255
# the top bit of each byte lane of a uint64 word
_TOP_BITS = np.uint64(0x8080808080808080)


def _check_length(n: int) -> None:
    if n > 63:
        raise PreconditionError("searches support n <= 63: expansion and completion "
                                "hold each sequence in 64 bits")


def _lane_bytes(m: int) -> int:
    """The bytes of a row's lane words mod ``m``: 4m lanes, in whole uint64 words."""
    return -(-4 * m // 8) * 8


@lru_cache(maxsize=256)
def _kernel_rows(n: int, kind: Kind, side: str, m: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """Each level of ``numfilter.column_cases`` as level-kernel arrays:
    the moves, one uint64 row per option of its x bits, its y bits and
    minus what it spends of each lane word (see ``_root_lanes``), so that
    adding a move to a row places the option; and the shifts the level
    completes with their masks.  After ``placed`` positions the shifts
    down to length - placed//2 are complete, or all of them once every
    position is placed.
    """
    length, levels = numfilter.column_cases(n, side, kind)
    top = length - 1
    out = []
    placed, low = 0, length
    for positions, options in levels:
        bits, spend = [], np.zeros((len(options), _lane_bytes(m)), np.uint8)
        for k, option in enumerate(options):
            cells = list(zip(positions, option, option[len(positions):]))
            bits.append((sum((xv < 0) << top - p for p, xv, _ in cells),
                         sum((yv < 0) << top - p for p, _, yv in cells)))
            for p, xv, yv in cells:
                spend[k, 2 * (p % m) + (xv < 0)] += 1
                spend[k, 2 * (m + p % m) + (yv < 0)] += 1
        placed += len(positions)
        new_low = 1 if placed == length else length - placed // 2
        shifts = range(low - 1, new_low - 1, -1)
        out.append((np.hstack((np.array(bits, np.uint64).reshape(-1, 2),
                               -spend.view(np.uint64))),
                    np.array(shifts, np.uint64),
                    np.array([(1 << length - s) - 1 for s in shifts], np.uint64)))
        low = new_low
    return tuple(out)


def _root_lanes(length: int, m: int, targets) -> Optional[np.ndarray]:
    """The lane words of the empty fill: for each class mod ``m`` of x,
    then of y, the +1 signs and the -1 signs it must take to sum to its
    target in ``targets``, a byte each.  None if a budget is negative or
    fractional, that is a target out of reach or of the wrong parity.
    Lanes >= 0 means every class can still reach its target, and a full
    row has spent every budget."""
    sizes = numfilter.class_sizes(length, m) * 2  # x's classes, then y's
    budgets = [(size + sign * want) / 2 for size, want in zip(sizes, targets)
               for sign in (1, -1)]
    if any(budget < 0 or budget % 1 for budget in budgets):
        return None
    lanes = np.zeros(_lane_bytes(m), np.uint8)
    lanes[:4 * m] = [int(budget) for budget in budgets]
    return lanes.view(np.uint64)


def _children(level: tuple[np.ndarray, ...], wants: Optional[np.ndarray], cand: np.ndarray,
              rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows one level below the rows (cand, rows), parent-major and
    each parent's options in listed order, that overspend no lane and, if
    ``wants`` is given, change sign as often as their candidate wants at
    every shift the level completes."""
    moves, shifts, masks = level
    count, options, width = len(rows), len(moves), rows.shape[1]
    below = rows.repeat(options, axis=0).reshape(count, options, width)
    below += moves[:, :width]  # a move's bits are still clear in its parent
    # a lane is at most 64 and a move spends at most 2 of it, so an
    # overspent lane borrows and the lowest one sets its top bit; words
    # are OR-ed one by one, as .any over so short an axis is slow
    bad = np.zeros((count, options), np.uint64)
    for word in range(2, width):
        bad |= below[..., word]
    keep = np.flatnonzero((bad & _TOP_BITS) == 0)
    cand = cand[keep // options]
    below = np.take(below.reshape(count * options, width), keep, axis=0)
    if wants is not None:
        ok = (disagreements(below[:, 0], below[:, 1], shifts, masks)
              == wants[:, cand]).all(axis=0)
        cand, below = cand[ok], np.compress(ok, below, axis=0)
    return cand, below


def _walk(levels: tuple[tuple[np.ndarray, ...], ...], cand: np.ndarray, rows: np.ndarray,
          bound: int, wants: Optional[list[np.ndarray]] = None,
          ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Place every level of ``levels`` on the rows, each row its x bits,
    y bits and lane words, ``cand`` the candidate of each.

    Yields (cand, rows) arrays of the filled rows that ``_children`` keeps
    at every level, ``wants[t]`` being level t's (shifts, candidates)
    wanted counts.  Rows are expanded in chunks of at most ``bound`` (one
    parent's options if that is more), depth first over chunks, so the
    rows come out in the order of a depth-first search and memory stays
    bounded by the depth times ``bound``.
    """
    def descend(t: int, cand: np.ndarray, rows: np.ndarray):
        step = max(1, bound // len(levels[t][0]))
        for lo in range(0, len(rows), step):
            below = _children(levels[t], None if wants is None else wants[t],
                              cand[lo:lo + step], rows[lo:lo + step])
            if t + 1 == len(levels):
                yield below
            elif len(below[0]):
                yield from descend(t + 1, *below)

    return descend(0, cand, rows)


def _expand(n: int, kind: Kind, side: str, m: int,
            halves: list[tuple[tuple[int, ...], tuple[int, ...]]],
            ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The fills of ``side`` whose class sums mod ``m`` are one of
    ``halves``, (x, y) pairs of class-sum vectors: one walk over a root
    row per half yields arrays (half, fills), each fill's position in
    ``halves`` and its (fills, 2) packed x and y, in the order of the
    halves and within one in DFS order."""
    length = numfilter.column_cases(n, side, kind)[0]
    cand, roots = [], []
    for k, (need_x, need_y) in enumerate(halves):
        lanes = _root_lanes(length, m, (*need_x, *need_y))
        if lanes is not None:
            cand.append(k)
            roots.append(np.concatenate((np.zeros(2, np.uint64), lanes)))
    if not roots:
        return
    cand = np.array(cand, np.min_scalar_type(len(halves)))  # the least dtype that indexes halves
    for owner, rows in _walk(_kernel_rows(n, kind, side, m), cand, np.array(roots), _FRONTIER // 4):
        yield owner, rows[:, :2]


def _complete_block(n: int, kind: Kind, side: str, acf: np.ndarray,
                    sum_targets: Optional[tuple[int, int, int, int]],
                    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Complete a block of fixed pairs on ``side``, level by level.

    ``acf`` holds the (shifts, pairs) N_f1(s) + N_f2(s) of the fixed pairs
    on the opposite side (``seqcore.pair_autocorr``); ``sum_targets``, if
    given, are the plain and alternated row sums (x, y, x', y') of the
    filled side.  Yields arrays (candidate, x, y) of completed fills, x and
    y packed, candidates in block order and each candidate's fills in DFS
    order.
    """
    if not acf.shape[1]:  # a block the screen emptied
        return
    length = numfilter.column_cases(n, side, kind)[0]
    levels = _kernel_rows(n, kind, side, 2)
    lanes = np.zeros(0, np.uint64)  # without targets there are no lanes
    if sum_targets is not None:
        # the sums over even and over odd positions; a half-integer one
        # (x and x' of different parity) fails the parity test
        x, y, x_alt, y_alt = sum_targets
        lanes = _root_lanes(length, 2, ((x + x_alt) / 2, (x - x_alt) / 2,
                                        (y + y_alt) / 2, (y - y_alt) / 2))
        if lanes is None:
            return
    # half_sums is (N_f1(s)+N_f2(s))/2 of the fixed pair at s = 1..n, 0 at
    # s = n for a fixed C,D pair of n signs; the fill has N_x(s)+N_y(s) =
    # 2(length-s) - 2*count, so it must change sign length-s+half_sums
    # times.  The shifts from `length` on involve only the fixed side,
    # which must bring 0 there.
    half_sums = np.zeros((n, acf.shape[1]), acf.dtype)
    half_sums[:len(acf)] = acf // 2
    live = ~half_sums[length - 1:].any(axis=0)
    span = np.arange(length - 1, 0, -1)[:, None]
    wants = span + half_sums[:length - 1]
    wants = np.where((wants >= 0) & (wants <= 2 * span), wants, _NO_COUNT).astype(np.uint8)
    level_wants = [wants[(shifts - 1).astype(np.intp)] for _, shifts, _ in levels]
    cand = np.flatnonzero(live)
    rows = np.zeros((len(cand), 2 + len(lanes)), np.uint64)
    rows[:, 2:] = lanes
    for cand, rows in _walk(levels, cand, rows, _FRONTIER, level_wants):
        yield cand, rows[:, 0], rows[:, 1]


def _verified(fixed: np.ndarray, acf: np.ndarray, n: int, kind: Kind, side: str,
              sum_targets: Optional[tuple[int, int, int, int]],
              ) -> Iterator[tuple[int, Packed]]:
    """(index into ``fixed``, packed quad) for every completion of the packed
    fixed pairs on ``side``, whose ``seqcore.pair_autocorr`` is ``acf``,
    that ``packed_valid`` accepts, in ``_complete_block`` order."""
    pairs = fixed.tolist()
    for cand, xs, ys in _complete_block(n, kind, side, acf, sum_targets):
        for c, x, y in zip(cand.tolist(), xs.tolist(), ys.tolist()):
            quad = (x, y, *pairs[c]) if side == SIDE_AB else (*pairs[c], x, y)
            if packed_valid(quad, n, kind):
                yield c, quad


def _side_sums(prof: ResidueProfile, side: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The class sums ``prof`` asks of the pair on ``side``."""
    prof.check()
    return ((prof.a_class_sums, prof.b_class_sums) if side == SIDE_AB
            else (prof.c_class_sums, prof.d_class_sums))


def expand_candidates(prof: ResidueProfile, n: int, kind: Kind,
                      side: str) -> Iterator[tuple[SignSeq, SignSeq]]:
    """All pairs for one side with exactly the profile's class sums.

    Every emitted pair satisfies the end-column sign cases for its side;
    on the A,B side of a structured kind the second sequence is the
    derived partner of the first.  The stream is exhaustive and
    duplicate-free for the profile, in a fixed order.
    """
    _check_length(n)
    tx, ty = _side_sums(prof, side)
    length = numfilter.column_cases(n, side, kind)[0]
    decode = SignSeq.from_packed_block
    return (pair for _, fills in _expand(n, kind, side, prof.modulus, [(tx, ty)])
            for pair in zip(decode(fills[:, 0], length), decode(fills[:, 1], length)))


def candidate_matches_profile(pair: tuple[SignSeq, SignSeq], prof: ResidueProfile,
                              n: int, kind: Kind, side: str) -> bool:
    """Membership test for the expansion stream, without scanning it."""
    first, second = pair
    m = prof.modulus
    want = _side_sums(prof, side)
    length, levels = numfilter.column_cases(n, side, kind)
    if len(first) != length or len(second) != length or \
            (numfilter.sequence_class_sums(first, m),
             numfilter.sequence_class_sums(second, m)) != want:
        return False
    return all((*(first[p] for p in positions), *(second[p] for p in positions)) in options
               for positions, options in levels)


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
    _check_length(n)
    f1, f2 = fixed
    if side_to_fill == SIDE_AB:
        if len(f1) != n or len(f2) != n:
            raise PreconditionError("fixed C,D pair must have length n")
    elif len(f1) != n + 1 or len(f2) != n + 1:
        raise PreconditionError("fixed A,B pair must have length n+1")
    packed = np.array([(f1.packed, f2.packed)], np.uint64)
    finds = _verified(packed, pair_autocorr(packed, len(f1)), n, kind, side_to_fill, sum_targets)
    return [SeqQuad.from_packed(q, n, kind)
            for _, q in itertools.islice(finds, 1 if mode == "first" else None)]


# --- task construction -------------------------------------------------------


def residue_halves(cfg: SearchConfig, s: SumProfile) -> list[tuple[tuple, tuple]]:
    """Residue-vector halves of the start side at the last modulus, sorted."""
    return numfilter.residue_halves(cfg.n, cfg.moduli, s, cfg.kind, cfg.start_side)


def build_tasks(cfg: SearchConfig) -> list[tuple]:
    """Flattened deterministic task list: one (sum profile, half) each."""
    tasks = []
    for si, s in enumerate(numfilter.sum_profiles(cfg.n, cfg.kind)):
        s_tuple = s.as_tuple()
        for hi, half in enumerate(residue_halves(cfg, s)):
            tasks.append((len(tasks), si, hi, s_tuple, half))
    # no task reads the split memo: free it before the tasks run
    numfilter._split.cache_clear()
    return tasks


def _candidate_bound(cfg: SearchConfig, half: tuple[tuple[int, ...], tuple[int, ...]]) -> int:
    """The candidates a task's half can have at most, the end columns
    aside: the ways to give each class of the start side its sum, over
    x's classes and, unless y is x's derived partner (NS, NNS), y's."""
    length = numfilter.column_cases(cfg.n, cfg.start_side, cfg.kind)[0]
    sizes = numfilter.class_sizes(length, cfg.moduli[-1])
    vectors = half if cfg.kind is Kind.BS else half[:1]
    return math.prod(math.comb(size, (size + want) // 2)
                     for vector in vectors for size, want in zip(sizes, vector))


def _runs(cfg: SearchConfig, tasks: list[tuple], cap: Optional[int] = None,
          ) -> Iterator[list[tuple]]:
    """Cut consecutive ``tasks`` into runs for ``run_tasks``, lazily.  A run
    ends at a sum-profile boundary, at ``cap`` tasks, or where the summed
    ``_candidate_bound`` of its halves would pass ``_FRONTIER``; a task
    above that bound runs alone."""
    run, total = [], 0
    for task in tasks:
        bound = _candidate_bound(cfg, task[4])
        if run and (task[1] != run[-1][1] or len(run) == cap or total + bound > _FRONTIER):
            yield run
            run, total = [], 0
        run.append(task)
        total += bound
    if run:
        yield run


def run_tasks(cfg: SearchConfig, run: list[tuple], stop: Optional[Callable[[], bool]] = None,
              ) -> list[tuple[int, list[Packed], dict]]:
    """Expand, screen and complete a run of consecutive tasks of one sum
    profile in one pass, in blocks of at most ``_BLOCK`` candidates that
    may span tasks.  Returns each task's index, finds as packed quads and
    counters, in task order.

    In first mode the pass stops at the first find: its task's counters
    stop at its candidate, as if the candidates were taken one at a time,
    and the tasks after it are not reported.  ``stop``, if given, is asked
    before each block; once it says yes, the pass ends and reports no task."""
    if any(task[1] != run[0][1] for task in run):
        raise PreconditionError("a run holds the tasks of one sum profile")
    s = SumProfile.from_tuple(run[0][3])
    grids = [specfilter.ThetaGrid.from_spec(g) for g in cfg.grids]
    bound = 4 * cfg.n + 2
    if cfg.start_side == SIDE_CD:
        fill_side, fill_targets = SIDE_AB, (s.a, s.b, s.a_alt, s.b_alt)
    else:
        fill_side, fill_targets = SIDE_CD, (s.c, s.d, s.c_alt, s.d_alt)
    length = numfilter.column_cases(cfg.n, cfg.start_side, cfg.kind)[0]
    seen, passed = np.zeros(len(run), np.int64), np.zeros(len(run), np.int64)
    found: list[list[Packed]] = [[] for _ in run]
    reported = None  # all of them, or in first mode those up to the find's
    expansion = _expand(cfg.n, cfg.kind, cfg.start_side, cfg.moduli[-1],
                        [task[4] for task in run])
    blocks = ((owner[lo:lo + _BLOCK], fills[lo:lo + _BLOCK]) for owner, fills in expansion
              for lo in range(0, len(fills), _BLOCK))
    for owner, block in blocks:
        if stop is not None and stop():
            return []
        acf = pair_autocorr(block, length)
        keep = specfilter.screen_block(acf, bound, grids)
        end = len(block)
        for p, quad in _verified(block[keep], acf[:, keep], cfg.n, cfg.kind, fill_side,
                                 fill_targets):
            c = int(keep[p])
            found[owner[c]].append(quad)
            if cfg.first_solution_only:
                end, reported = c + 1, int(owner[c]) + 1
                break
        seen += np.bincount(owner[:end], minlength=len(run))
        passed += np.bincount(owner[keep[keep < end]], minlength=len(run))
        if reported is not None:
            break
    return [(task[0], finds, dict(zip(_STAT_KEYS, (int(c), int(c - k), len(finds)))))
            for task, finds, c, k in zip(run[:reported], found, seen, passed)]


def run_task(cfg: SearchConfig, task: tuple) -> tuple[int, list[Packed], dict]:
    """``run_tasks`` on the run of one (sum profile, residue half) task."""
    return run_tasks(cfg, [task])[0]


def _stopped(fd: int) -> bool:
    """Whether a byte was written to the pipe whose read end is ``fd``."""
    return bool(select.select([fd], [], [], 0)[0])


def _pool_entry(args):
    cfg, run, stop = args
    return run_tasks(cfg, run, partial(_stopped, stop))


# --- checkpointing -----------------------------------------------------------
#
# The checkpoint is an append-only journal.  Line 1 is the header
# {version, config_digest, tasks_total}; each later line is one finished
# task in task order, {finds: [[A, B, C, D] as +/- text], stats, digest},
# its digest bound to the config digest and the task index.  A crash can
# only tear the last line (no newline); resume drops it and appends.

_CHECKPOINT_VERSION = 3


def _line_digest(cfg_digest: str, index: int, finds, stats) -> str:
    blob = json.dumps([cfg_digest, index, finds, stats], sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _lengths(n: int) -> tuple[int, int, int, int]:
    return (n + 1, n + 1, n, n)


def save_checkpoint(path: str, cfg: SearchConfig,
                    finished: list[tuple[int, list[Packed], dict]]) -> None:
    """Append a journal line for each task result in ``finished``."""
    cfg_digest = cfg.digest()
    lengths = _lengths(cfg.n)
    with open(path, "a", encoding="utf-8") as fh:
        for index, finds, stats in finished:
            texts = [[packed_text(x, k) for x, k in zip(q, lengths)] for q in finds]
            digest = _line_digest(cfg_digest, index, texts, stats)
            fh.write(json.dumps({"finds": texts, "stats": stats, "digest": digest}) + "\n")


def _journal_finds(texts, cfg: SearchConfig) -> Optional[list[Packed]]:
    """A journal line's finds as packed quads, or None unless each is four
    +/- strings of lengths n+1, n+1, n, n whose packed quad ``packed_valid``
    accepts, the check the search ran when it made the find."""
    lengths = _lengths(cfg.n)
    if not isinstance(texts, list) or not all(
            isinstance(q, list) and len(q) == 4 and all(
                isinstance(t, str) and len(t) == k and set(t) <= {"+", "-"}
                for t, k in zip(q, lengths)) for q in texts):
        return None
    finds = [tuple(map(packed_from_text, q)) for q in texts]
    if not all(packed_valid(q, cfg.n, cfg.kind) for q in finds):
        return None
    return finds


def load_checkpoint(path: str, cfg: SearchConfig,
                    tasks_total: int) -> tuple[list[list[Packed]], dict]:
    """Read back a journal's finds per task and its summed counters,
    refusing any mismatch with the config.  A torn last line is cut off
    the file only once every check has passed."""
    with open(path, "rb") as fh:
        data = fh.read()
    end = data.rfind(b"\n") + 1
    try:  # a bad UTF-8 byte and a file with no whole line raise ValueErrors too
        text = data[:end].decode("utf-8")
        header, *lines = [json.loads(line) for line in text.split("\n")[:-1]]
    except ValueError:
        raise ResumeError("checkpoint does not parse as a version "
                          f"{_CHECKPOINT_VERSION} journal of UTF-8 JSON lines") from None
    if not all(isinstance(entry, dict) for entry in (header, *lines)):
        raise ResumeError("checkpoint has a line that is not a JSON object")
    cfg_digest = cfg.digest()
    if header.get("version") != _CHECKPOINT_VERSION:
        raise ResumeError(f"checkpoint format version {header.get('version')!r} is "
                          f"not supported (expected {_CHECKPOINT_VERSION})")
    if header.get("config_digest") != cfg_digest:
        raise ResumeError("checkpoint was written by a different configuration")
    if header.get("tasks_total") != tasks_total:
        raise ResumeError("checkpoint task count does not match this configuration")
    if len(lines) > tasks_total:
        raise ResumeError(f"checkpoint has {len(lines)} task lines for {tasks_total} tasks")
    results, total = [], dict.fromkeys(_STAT_KEYS, 0)
    for index, entry in enumerate(lines):
        stats, texts = entry.get("stats"), entry.get("finds")
        if not isinstance(stats, dict) or set(stats) != set(_STAT_KEYS) \
                or not all(type(v) is int and v >= 0 for v in stats.values()):
            raise ResumeError(f"checkpoint line for task {index} has no certificate counters")
        if entry.get("digest") != _line_digest(cfg_digest, index, texts, stats):
            raise ResumeError(f"checkpoint digest mismatch at task {index}")
        # the digest is unkeyed, so finds are checked as quads of this search, counters against them
        finds = _journal_finds(texts, cfg)
        if finds is None:
            raise ResumeError(f"checkpoint line for task {index} has a find that is not "
                              f"a valid {cfg.kind.value} quad of n={cfg.n}")
        if stats["psd_rejected"] > stats["candidates"] or stats["completions"] != len(finds):
            raise ResumeError(f"checkpoint line for task {index} has counters no search writes")
        results.append(finds)
        for key in total:
            total[key] += stats[key]
    if end < len(data):
        os.truncate(path, end)
    return results, total


# --- orchestration -----------------------------------------------------------


@dataclass
class SearchResult:
    quads: list[SeqQuad]
    stages: list[str]          # producing (sum profile, half) indices per quad
    certificate: dict = field(default_factory=dict)


def _finalize(cfg: SearchConfig, tasks: list[tuple],
              per_task: list[list[Packed]]) -> SearchResult:
    # finds come in task order, so the first find of a class has its
    # least producing stage; the ascending order of packed quads is the
    # quad order (SeqQuad.sort_key)
    finds = [q for task_finds in per_task for q in task_finds]
    stages = [f"s{t[1]}.r{t[2]}" for t, task_finds in zip(tasks, per_task) for _ in task_finds]

    if cfg.orbit_dedup:
        if cfg.kind is Kind.NS:  # regrow first: see equiv.NS_REGROW
            grown = [(i, cls.members()) for i, cls in equiv.first_classes(
                finds, cfg.n, cfg.kind, cfg.orbit_cap, equiv.NS_REGROW)]
            stages = [stages[i] for i, members in grown for _ in members]
            finds = [q for _, members in grown for q in members]
        reps = {cls.canonical: stages[i]
                for i, cls in equiv.first_classes(finds, cfg.n, cfg.kind, cfg.orbit_cap)}
        finds, stages = list(reps), list(reps.values())
    order = sorted(range(len(finds)), key=finds.__getitem__)
    return SearchResult(quads=[SeqQuad.from_packed(finds[i], cfg.n, cfg.kind) for i in order],
                        stages=[stages[i] for i in order])


def search(cfg: SearchConfig, checkpoint_path: Optional[str] = None,
           interrupt_after_tasks: Optional[int] = None) -> SearchResult:
    """Run the pipeline; resuming from a checkpoint replays identically."""
    tasks = build_tasks(cfg)
    done: list[list[Packed]] = []
    stats_total = dict.fromkeys(_STAT_KEYS, 0)
    if checkpoint_path and os.path.exists(checkpoint_path):
        done, stats_total = load_checkpoint(checkpoint_path, cfg, len(tasks))
    elif checkpoint_path:  # a new journal: its header goes in before any task runs
        with open(checkpoint_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"version": _CHECKPOINT_VERSION, "config_digest": cfg.digest(),
                                 "tasks_total": len(tasks)}) + "\n")
    unsaved = []  # task results since the last save
    # a first-mode checkpoint that already holds a find is finished
    pending = [] if cfg.first_solution_only and any(done) else tasks[len(done):]

    with contextlib.ExitStack() as stack:
        workers = min(cfg.worker_count, len(pending), os.cpu_count() or 1)
        if workers > 1:
            # Leaving the block terminates the pool, and a worker killed
            # while it writes a result keeps the result queue's lock, which
            # the feeder thread may still wait for.  So every exit but a
            # BaseException such as Ctrl-C (whose workers die with their
            # results) writes to this pipe, which stops the feed and ends
            # each run before its next block, and takes the results still
            # due, errors included: no worker is busy when the pool ends.
            stop_r, stop_w = os.pipe()
            stack.callback(os.close, stop_r)
            stack.callback(os.close, stop_w)
            ctx = multiprocessing.get_context("fork")
            pool = stack.enter_context(ctx.Pool(workers))
            # Pool.map's chunk rule, so that every worker gets runs
            runs = itertools.takewhile(lambda _: not _stopped(stop_r), _runs(
                cfg, pending, -(-len(pending) // (4 * workers))))
            results = pool.imap(_pool_entry, ((cfg, run, stop_r) for run in runs), chunksize=1)

            @stack.push
            def halt(kind, *_):
                if kind is None or issubclass(kind, Exception):
                    os.write(stop_w, b"\0")
                    while True:  # the loop's own error is the one raised
                        with contextlib.suppress(Exception):
                            for _ in results:
                                pass
                            break
        else:
            results = (run_tasks(cfg, run) for run in _runs(cfg, pending))

        @stack.callback
        def flush():  # first on every exit, Ctrl-C too: journals the tasks reported
            batch, unsaved[:] = unsaved[:], []  # first, so a failed write is never retried
            if checkpoint_path and batch:
                save_checkpoint(checkpoint_path, cfg, batch)
        for index, finds, st in itertools.chain.from_iterable(results):
            for key in stats_total:
                stats_total[key] += st[key]
            done.append(finds)
            unsaved.append((index, finds, st))
            if len(done) % cfg.checkpoint_interval == 0:
                flush()
            if cfg.first_solution_only and finds:
                break
            if interrupt_after_tasks is not None and (
                    interrupt_after_tasks <= len(done) < len(tasks)):
                raise SearchInterrupted(f"interrupted after {len(done)} tasks")

    result = _finalize(cfg, tasks[:len(done)], done)
    result.certificate = {
        "n": cfg.n,
        "kind": cfg.kind.value,
        "mode": "first" if cfg.first_solution_only else "exhaustive",
        "start_side": cfg.start_side,
        "moduli": list(cfg.moduli),
        "grids": list(cfg.grids),
        "sum_profiles": len(numfilter.sum_profiles(cfg.n, cfg.kind)),
        "tasks": len(tasks),
        "tasks_completed": len(done),
        "exhaustive": not cfg.first_solution_only and len(done) == len(tasks),
        "classes": len(result.quads),
        "config_digest": cfg.digest(),
        **stats_total,
    }
    return result
