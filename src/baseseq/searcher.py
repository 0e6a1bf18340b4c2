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
wanted count of sign changes, derived from the fixed pair once per
block (a count no shift can reach becomes a sentinel).  The even-length
last pair and the middle position check every shift still open.

Filtering keeps the parent-major order of each level, so the full rows
come out by candidate and, within one, in the order of a depth-first
search over the levels; first mode depends on it.  ``run_task`` cuts
the expansion's fills into blocks of at most ``_BLOCK``, screens each
block with one numpy product per grid on the signs decoded from the
packed bits, and completes its passers in one kernel call.
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
import multiprocessing
import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Optional

import numpy as np

from . import equiv, numfilter, specfilter
from .errors import PreconditionError, ResumeError, SearchInterrupted
from .numfilter import SIDE_AB, SIDE_CD, ResidueProfile
# verify is unused here, but benchmarks/tracing.py wraps searcher.verify by name
from .seqcore import Kind, Packed, SeqQuad, SignSeq, SumProfile, packed_valid, verify

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


# candidates are screened and completed in blocks of at most this many
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
        bits, spend = [], np.zeros((len(options), -(-4 * m // 8) * 8), np.uint8)
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
    lanes = np.zeros(-(-4 * m // 8) * 8, np.uint8)
    lanes[:4 * m] = [int(budget) for budget in budgets]
    return lanes.view(np.uint64)


def _disagreements(x: np.ndarray, y: np.ndarray, shifts: np.ndarray,
                   masks: np.ndarray) -> np.ndarray:
    """Sign changes of packed x and y at each shift, summed: a (shifts,
    rows) count with N_x(s) + N_y(s) = 2(length-s) - 2*count.  Shifts
    are the outer axis, so every operation runs along the rows."""
    shifts, masks = shifts[:, None], masks[:, None]
    return (np.bitwise_count((x ^ x >> shifts) & masks)
            + np.bitwise_count((y ^ y >> shifts) & masks))


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
        ok = (_disagreements(below[:, 0], below[:, 1], shifts, masks)
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


def _expand(n: int, kind: Kind, side: str, m: int, need_x: tuple[int, ...],
            need_y: tuple[int, ...]) -> Iterator[np.ndarray]:
    """The fills of ``side`` whose class sums mod ``m`` are ``need_x`` and
    ``need_y``, as (fills, 2) arrays of packed x and y, in DFS order."""
    length = numfilter.column_cases(n, side, kind)[0]
    lanes = _root_lanes(length, m, (*need_x, *need_y))
    if lanes is None:
        return
    root = np.concatenate((np.zeros(2, np.uint64), lanes))[None]
    for _, rows in _walk(_kernel_rows(n, kind, side, m), np.zeros(1, np.uint8), root,
                         _FRONTIER // 4):
        yield rows[:, :2]


def _complete_block(n: int, kind: Kind, side: str, fixed: np.ndarray,
                    sum_targets: Optional[tuple[int, int, int, int]],
                    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Complete a block of fixed pairs on ``side``, level by level.

    ``fixed`` holds the (blocks, 2) ``SignSeq.packed`` values of the pairs
    on the opposite side; ``sum_targets``, if given, are the plain and
    alternated row sums (x, y, x', y') of the filled side.  Yields arrays
    (candidate, x, y) of completed fills, x and y packed, candidates in
    block order and each candidate's fills in DFS order.
    """
    if not len(fixed):  # a block the screen emptied
        return
    length = numfilter.column_cases(n, side, kind)[0]
    fixed_len = n + 1 if side == SIDE_CD else n
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
    # half_sums is (N_f1(s)+N_f2(s))/2 of the fixed pair; the fill has
    # N_x(s)+N_y(s) = 2(length-s) - 2*count, so it must change sign
    # length-s+half_sums times.  The shifts from `length` on involve only
    # the fixed side, which must bring 0 there.
    s = np.arange(1, n + 1)
    masks = np.array([(1 << fixed_len - k) - 1 for k in range(1, n + 1)], np.uint64)
    half_sums = (fixed_len - s)[:, None] - _disagreements(fixed[:, 0], fixed[:, 1],
                                                          s.astype(np.uint64), masks)
    live = ~half_sums[length - 1:].any(axis=0)
    span = (length - s[:length - 1])[:, None]
    wants = span + half_sums[:length - 1]
    wants = np.where((wants >= 0) & (wants <= 2 * span), wants, _NO_COUNT).astype(np.uint8)
    level_wants = [wants[(shifts - 1).astype(np.intp)] for _, shifts, _ in levels]
    cand = np.flatnonzero(live)
    rows = np.zeros((len(cand), 2 + len(lanes)), np.uint64)
    rows[:, 2:] = lanes
    for cand, rows in _walk(levels, cand, rows, _FRONTIER, level_wants):
        yield cand, rows[:, 0], rows[:, 1]


def _verified(fixed: np.ndarray, n: int, kind: Kind, side: str,
              sum_targets: Optional[tuple[int, int, int, int]],
              ) -> Iterator[tuple[int, Packed]]:
    """(index into ``fixed``, packed quad) for every completion of the packed
    fixed pairs on ``side`` that ``packed_valid`` accepts, in
    ``_complete_block`` order."""
    pairs = fixed.tolist()
    for cand, xs, ys in _complete_block(n, kind, side, fixed, sum_targets):
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
    return ((SignSeq.from_packed(x, length), SignSeq.from_packed(y, length))
            for fills in _expand(n, kind, side, prof.modulus, tx, ty)
            for x, y in fills.tolist())


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
    finds = _verified(packed, n, kind, side_to_fill, sum_targets)
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
        for hi, half in enumerate(residue_halves(cfg, s)):
            tasks.append((len(tasks), si, hi, s.as_tuple(), half))
    return tasks


def _signs(rows: np.ndarray, length: int) -> np.ndarray:
    """Packed (pairs, 2) rows as their (pairs, 2, length) entries +-1.0."""
    bits = rows[..., None] >> np.arange(length - 1, -1, -1, dtype=np.uint64) & 1
    return 1.0 - 2.0 * bits


def run_task(cfg: SearchConfig, task: tuple) -> tuple[int, list[Packed], dict]:
    """Expand, screen and complete one (sum profile, residue half) unit, in
    blocks of at most ``_BLOCK`` candidates; its finds come as packed quads.

    In first mode the counters stop at the candidate of the first find,
    as if the candidates were taken one at a time."""
    index, _si, _hi, s_tuple, (need_x, need_y) = task
    s = SumProfile.from_tuple(s_tuple)
    grids = [specfilter.ThetaGrid.from_spec(g) for g in cfg.grids]
    bound = 4 * cfg.n + 2
    if cfg.start_side == SIDE_CD:
        fill_side, fill_targets = SIDE_AB, (s.a, s.b, s.a_alt, s.b_alt)
    else:
        fill_side, fill_targets = SIDE_CD, (s.c, s.d, s.c_alt, s.d_alt)
    length = numfilter.column_cases(cfg.n, cfg.start_side, cfg.kind)[0]
    stats = dict.fromkeys(_STAT_KEYS, 0)
    found = []
    expansion = _expand(cfg.n, cfg.kind, cfg.start_side, cfg.moduli[-1], need_x, need_y)
    blocks = (fills[lo:lo + _BLOCK] for fills in expansion
              for lo in range(0, len(fills), _BLOCK))
    for block in blocks:
        keep = specfilter.screen_block(_signs(block, length), bound, grids)
        seen = len(block)
        for p, quad in _verified(block[keep], cfg.n, cfg.kind, fill_side, fill_targets):
            found.append(quad)
            if cfg.first_solution_only:
                seen = int(keep[p]) + 1
                break
        stats["candidates"] += seen
        stats["psd_rejected"] += seen - int(np.count_nonzero(keep < seen))
        if cfg.first_solution_only and found:
            break
    stats["completions"] = len(found)
    return index, found, stats


def _pool_entry(args):
    return run_task(*args)


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


def save_checkpoint(path: str, cfg: SearchConfig,
                    finished: list[tuple[int, list[Packed], dict]]) -> None:
    """Append a journal line for each ``run_task`` result in ``finished``."""
    cfg_digest = cfg.digest()
    with open(path, "a", encoding="utf-8") as fh:
        for index, finds, stats in finished:
            texts = [[seq.text() for seq in SeqQuad.from_packed(q, cfg.n, cfg.kind).seqs()]
                     for q in finds]
            digest = _line_digest(cfg_digest, index, texts, stats)
            fh.write(json.dumps({"finds": texts, "stats": stats, "digest": digest}) + "\n")


def _journal_finds(texts, cfg: SearchConfig) -> Optional[list[Packed]]:
    """A journal line's finds as packed quads, or None unless each is four
    +/- strings of lengths n+1, n+1, n, n whose packed quad ``packed_valid``
    accepts, the check the search ran when it made the find."""
    shape = [cfg.n + 1, cfg.n + 1, cfg.n, cfg.n]
    if not isinstance(texts, list) or not all(
            isinstance(q, list) and len(q) == 4 and all(
                isinstance(t, str) and len(t) == k and set(t) <= {"+", "-"}
                for t, k in zip(q, shape)) for q in texts):
        return None
    finds = [tuple(SignSeq.from_text(t).packed for t in q) for q in texts]
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
                or not all(type(v) is int for v in stats.values()):
            raise ResumeError(f"checkpoint line for task {index} has no certificate counters")
        if entry.get("digest") != _line_digest(cfg_digest, index, texts, stats):
            raise ResumeError(f"checkpoint digest mismatch at task {index}")
        # the digest is unkeyed, so each find is checked as a quad of this search
        finds = _journal_finds(texts, cfg)
        if finds is None:
            raise ResumeError(f"checkpoint line for task {index} has a find that is not "
                              f"a valid {cfg.kind.value} quad of n={cfg.n}")
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
            grown = list(equiv.first_visits(finds, cfg.n, cfg.kind, cfg.orbit_cap,
                                            equiv.NS_REGROW))
            stages = [stages[i] for i, cls in grown for _ in cls]
            finds = [q for _, cls in grown for q in cls]
        reps = {min(cls): stages[i]
                for i, cls in equiv.first_visits(finds, cfg.n, cfg.kind, cfg.orbit_cap)}
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
    unsaved = []  # run_task results since the last save
    # a first-mode checkpoint that already holds a find is finished
    stop_early = cfg.first_solution_only and any(done)
    pending = [] if stop_early else tasks[len(done):]

    with contextlib.ExitStack() as stack:
        workers = min(cfg.worker_count, len(pending), os.cpu_count() or 1)
        if workers > 1:
            ctx = multiprocessing.get_context("fork")
            pool = stack.enter_context(ctx.Pool(workers))
            runs = pool.imap(_pool_entry, [(cfg, task) for task in pending], chunksize=1)
        else:
            runs = (run_task(cfg, task) for task in pending)
        # leaving the block terminates the pool, so a break or an
        # interrupt stops the workers still running
        for index, finds, st in runs:
            for key in stats_total:
                stats_total[key] += st[key]
            done.append(finds)
            unsaved.append((index, finds, st))
            stop_early = cfg.first_solution_only and bool(finds)
            interrupt = (not stop_early and interrupt_after_tasks is not None
                         and interrupt_after_tasks <= len(done) < len(tasks))
            if checkpoint_path and (len(done) % cfg.checkpoint_interval == 0
                                    or len(done) == len(tasks) or stop_early or interrupt):
                save_checkpoint(checkpoint_path, cfg, unsaved)
                unsaved = []
            if interrupt:
                raise SearchInterrupted(f"interrupted after {len(done)} tasks")
            if stop_early:
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
        "sum_profiles": len(numfilter.sum_profiles(cfg.n, cfg.kind)),
        "tasks": len(tasks),
        "tasks_completed": len(done),
        "exhaustive": (not cfg.first_solution_only) and completed,
        "classes": len(result.quads),
        "config_digest": cfg.digest(),
        **stats_total,
    }
    return result
