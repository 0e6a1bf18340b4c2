"""Equivalence transformations on quads, orbits, canonical forms, dedup.

Valid quads stay valid under a small set of moves: negating or reversing
individual sequences, interchanging A,B or C,D, alternating all four
sequences, and flipping every "checkerboard" end-column block of C,D at
once.  Structured kinds carry their own coupled moves acting on A with B
re-derived, named here by what they do to the open part of A:

  * struct_negate    negate the body of A (entries 1..n)
  * struct_reverse   reverse the body of A; for near-normal quads only
                     the odd-position subsequence is reversed (a full
                     body reversal does not preserve validity there)
  * struct_alternate alternate the body of A and also alternate C and D
                     (without the C,D alternation the summed
                     autocorrelation flips sign at odd shifts)

Each kind has its own generator list (``GENERATORS``); orbits, canonical
forms and deduplication are all relative to the kind's list.

Orbits are closed over packed quads (``SeqQuad.packed``; the layout is
set out in ``seqcore``).  Every move is a few integer operations on the
four ints (negation is an XOR with the full mask, reversal a memoised
bit reversal, alternation an XOR with the odd-position mask), and
``SeqQuad`` objects are built only at the API edge.  Packed order is
``SeqQuad.sort_key``, so the canonical (least) member of an orbit is the
``min`` of its packed quads, and a sorted orbit is ``sorted(members)``;
no member is unpacked to compare it.  A step takes a move list's images
in list order, so the BFS order of an orbit, and with it the members of
a capped partial orbit, depends on the move list alone and not on the
encoding.  ``orbit``, ``first_visits`` and ``kind_generators`` run that
BFS; their orders and capped partials are pinned by the tests.

Dedup, ``canonical`` and the searcher's final step (``first_classes``)
enumerate no member.  Every move acts on the (A, B) pair alone, on the
(C, D) pair alone, or, for the one coupled move of each list
(alternate_all, or struct_alternate for NS), on both pairs
independently.  So a class is a union of disjoint blocks P x Q, P an
orbit of (A, B) pairs under the A,B-only moves (at most 32 members) and
Q an orbit of (C, D) pairs under the C,D-only moves, column_swap
included (up to 128 members on random quads).  Each side orbit is
closed once per call and memoised by side value.  The coupled move c sends the members of P x Q
to the blocks ids(c(P)) x ids(c(Q)), every pair of an orbit meeting
c(P) with one meeting c(Q), since the side moves reach every (p, q) of
the block.  A class is the closure of its first block under that rule:
its canonical is the least (min P, min Q) over its blocks and its size
is the sum of |P| * |Q|.  A class need not be one block and its
alternate: at even n alternation does not map column-swap orbits onto
column-swap orbits, and random BS 8 quads have classes of two to six
blocks.

The same moves act on the eight row sums of a quad as signed
permutations; that cheap action is used to deduplicate sum profiles
without materializing sequences.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional

from .errors import (ApplicabilityError, MalformedInputError, OrbitCapExceeded,
                     PreconditionError)
from .seqcore import Kind, Packed, SeqQuad, partner_mask

DEFAULT_ORBIT_CAP = 10 ** 7

Move = Callable[[Packed], Optional[Packed]]


@dataclass(frozen=True)
class Transform:
    """One equivalence move.

    ``op`` is one of: negate, reverse, swap_ab, swap_cd, neg_ab_swap,
    alternate_all, column_swap, struct_negate, struct_reverse,
    struct_alternate.  ``which`` names the target sequence for
    negate/reverse.
    """

    op: str
    which: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.op}({self.which})" if self.which else self.op

    @classmethod
    def negate(cls, which: str) -> "Transform":
        return cls("negate", which)

    @classmethod
    def reverse(cls, which: str) -> "Transform":
        return cls("reverse", which)


SWAP_AB = Transform("swap_ab")
SWAP_CD = Transform("swap_cd")
NEG_AB_SWAP = Transform("neg_ab_swap")  # negate both A and B, then interchange them
ALTERNATE_ALL = Transform("alternate_all")
COLUMN_SWAP = Transform("column_swap")
STRUCT_NEGATE = Transform("struct_negate")
STRUCT_REVERSE = Transform("struct_reverse")
STRUCT_ALTERNATE = Transform("struct_alternate")

# --- moves on packed quads ---------------------------------------------------

_REVERSAL_MEMO = 1 << 12  # values a reversal memo holds before it starts over


class _Reversal(dict):
    """Bit reversal of ``length``-bit values, memoised: the members of an
    orbit share few distinct sequences, so nearly every lookup hits.  The
    memo starts over once it holds ``_REVERSAL_MEMO`` values."""

    def __init__(self, length: int):
        super().__init__()
        self.top = 1 << length

    def __missing__(self, x: int) -> int:
        if len(self) >= _REVERSAL_MEMO:
            self.clear()
        self[x] = r = int(bin(x | self.top)[:2:-1] or "0", 2)
        return r


def _odd_mask(length: int) -> int:
    """The bits of elements 1, 3, 5, ... of a packed length-``length`` sequence."""
    return sum(1 << (length - 1 - j) for j in range(1, length, 2))


@lru_cache(maxsize=16)
def _move_table(kind: Kind, n: int) -> dict[Transform, Move]:
    """Every move of ``kind`` on packed quads of ``n`` (shared: do not modify)."""
    full_a, full_c = (1 << n + 1) - 1, (1 << n) - 1
    odd_a, odd_c = _odd_mask(n + 1), _odd_mask(n)
    rev_a, rev_c = _Reversal(n + 1), _Reversal(n)
    half = ((1 << n // 2) - 1) << (n - n // 2)  # C,D elements 0 .. n//2 - 1

    def column_swap(q: Packed) -> Optional[Packed]:
        """Flip every checkerboard block (c_i, c_{n+1-i}; d_i, d_{n+1-i}) at once.

        Flipping a single block in isolation does not preserve validity; the
        simultaneous flip of all matching blocks is an involution that does.
        A block matches when c_i != c_{n+1-i}, d_i != d_{n+1-i} and c_i != d_i.
        """
        a, b, c, d = q
        hits = (c ^ rev_c[c]) & (d ^ rev_c[d]) & (c ^ d) & half
        if not hits:
            return None
        flip = hits | rev_c[hits]
        return (a, b, c ^ flip, d ^ flip)

    table = {
        Transform.negate("a"): lambda q: (q[0] ^ full_a, q[1], q[2], q[3]),
        Transform.reverse("a"): lambda q: (rev_a[q[0]], q[1], q[2], q[3]),
        Transform.negate("b"): lambda q: (q[0], q[1] ^ full_a, q[2], q[3]),
        Transform.reverse("b"): lambda q: (q[0], rev_a[q[1]], q[2], q[3]),
        Transform.negate("c"): lambda q: (q[0], q[1], q[2] ^ full_c, q[3]),
        Transform.reverse("c"): lambda q: (q[0], q[1], rev_c[q[2]], q[3]),
        Transform.negate("d"): lambda q: (q[0], q[1], q[2], q[3] ^ full_c),
        Transform.reverse("d"): lambda q: (q[0], q[1], q[2], rev_c[q[3]]),
        SWAP_AB: lambda q: (q[1], q[0], q[2], q[3]),
        SWAP_CD: lambda q: (q[0], q[1], q[3], q[2]),
        NEG_AB_SWAP: lambda q: (q[1] ^ full_a, q[0] ^ full_a, q[2], q[3]),
        ALTERNATE_ALL: lambda q: (q[0] ^ odd_a, q[1] ^ odd_a, q[2] ^ odd_c, q[3] ^ odd_c),
        COLUMN_SWAP: column_swap,
    }
    if kind is Kind.BS:
        return table

    # A's body is its first n elements, bits n .. 1; B is re-derived from
    # it by the packed partner rule
    near = kind is Kind.NNS  # near-normal: odd positions only
    partner = partner_mask(n, kind)
    even_c = full_c ^ odd_c

    def struct(body: Callable[[int], int], cd_flip: int = 0) -> Move:
        """A coupled move: ``body`` acts on the open part of A, B is
        re-derived, and C,D are XORed with ``cd_flip``."""
        def move(q: Packed) -> Packed:
            if not n:
                return q  # A has no open part
            a = body(q[0] >> 1) << 1 | q[0] & 1
            return (a, a ^ partner | 1, q[2] ^ cd_flip, q[3] ^ cd_flip)
        return move

    table[STRUCT_NEGATE] = struct(lambda x: x ^ (even_c if near else full_c))
    table[STRUCT_REVERSE] = struct((lambda x: rev_c[x & even_c] << 1 | x & odd_c)
                                   if near else rev_c.__getitem__)
    table[STRUCT_ALTERNATE] = struct(lambda x: x ^ odd_c, cd_flip=odd_c)
    return table


_CD_MOVES = (Transform.negate("c"), Transform.reverse("c"),
             Transform.negate("d"), Transform.reverse("d"), SWAP_CD)
_STRUCT_MOVES = (STRUCT_NEGATE, STRUCT_REVERSE, STRUCT_ALTERNATE)

GENERATORS: dict[Kind, tuple[Transform, ...]] = {
    Kind.BS: tuple(Transform(op, w) for w in "abcd" for op in ("negate", "reverse"))
    + (SWAP_AB, SWAP_CD, ALTERNATE_ALL, COLUMN_SWAP),
    Kind.NNS: _CD_MOVES + (NEG_AB_SWAP, ALTERNATE_ALL),
    Kind.NS: _STRUCT_MOVES,
}

# For normal quads the kind's own moves (which act on A,B only) are
# weaker than the profile-dedup moves; closing a find under every
# structure-preserving move regrows all of its raw-sum-profile variants.
NS_REGROW = _CD_MOVES + _STRUCT_MOVES + (COLUMN_SWAP,)


def _step(kind: Kind, n: int, moves: Optional[Iterable[Transform]] = None
          ) -> Callable[[Packed], list[Optional[Packed]]]:
    """The images of a packed quad under ``moves`` (default: the kind's
    generators), in list order; None where a move does not apply."""
    table = _move_table(kind, n)
    fns = [table[t] for t in (GENERATORS[kind] if moves is None else moves)]
    return lambda q: [fn(q) for fn in fns]


def _closure(start, step: Callable[..., Iterable], cap: int) -> list:
    """Everything reachable from ``start`` under ``step``, in BFS order.
    Past ``cap`` members, :class:`OrbitCapExceeded` carries those found."""
    if cap < 1:
        raise PreconditionError("orbit cap must be >= 1")
    seen = {start}
    members = [start]
    for x in members:  # members grows while it is read: the BFS queue
        for img in step(x):
            if img is not None and img not in seen:
                if len(seen) >= cap:
                    raise OrbitCapExceeded(cap, members)
                seen.add(img)
                members.append(img)
    return members


def _equivalence_class(q: Packed, n: int, kind: Kind, cap: int,
                       moves: Optional[Iterable[Transform]] = None) -> list[Packed]:
    try:
        return _closure(q, _step(kind, n, moves), cap)
    except OrbitCapExceeded as exc:
        exc.partial = [SeqQuad.from_packed(m, n, kind) for m in sorted(exc.partial)]
        raise


def first_visits(items: Iterable[Packed], n: int, kind: Kind,
                 cap: int = DEFAULT_ORBIT_CAP,
                 moves: Optional[Iterable[Transform]] = None,
                 ) -> Iterator[tuple[int, list[Packed]]]:
    """``(i, orbit)`` for each packed quad ``i`` of ``n`` that lies in no
    earlier input's orbit, in input order, with the orbit's members in BFS
    order.

    ``moves`` defaults to the kind's generator list.  Every move is
    invertible, so orbits are disjoint and each class is yielded once,
    from its first input member.
    """
    visited: set[Packed] = set()
    for i, q in enumerate(items):
        if q in visited:
            continue
        cls = _equivalence_class(q, n, kind, cap, moves)
        visited.update(cls)
        yield i, cls


# --- classes as blocks of side orbits ---------------------------------------

# moves acting on the (A, B) pair alone, and the coupled moves, which act
# on both pairs but on each independently; every other move acts on the
# (C, D) pair alone
_AB_MOVES = frozenset([Transform(op, w) for op in ("negate", "reverse") for w in "ab"]
                      + [SWAP_AB, NEG_AB_SWAP, STRUCT_NEGATE, STRUCT_REVERSE])
_COUPLED = frozenset([ALTERNATE_ALL, STRUCT_ALTERNATE])
_ZERO_PAIR = (0, 0)

Pair = tuple[int, int]

# a move's action on one pair does not depend on the other pair, so it is
# read off the image of a quad whose other pair is zero


def _on_ab(move: Move) -> Callable[[Pair], Pair]:
    return lambda p: move(p + _ZERO_PAIR)[:2]


def _on_cd(move: Move) -> Callable[[Pair], Optional[Pair]]:
    def side_move(p: Pair) -> Optional[Pair]:  # None where column_swap finds no block
        image = move(_ZERO_PAIR + p)
        return None if image is None else image[2:]
    return side_move


class _SideOrbits(dict):
    """Orbits of one side's pairs under the moves acting on that side
    alone, memoised: every pair seen maps to its orbit's members, sorted
    (one list per orbit, so its first member names the orbit)."""

    def __init__(self, moves: list, couplings: list):
        super().__init__()
        self.step = lambda p: [move(p) for move in moves]
        self.couplings = couplings  # this side's half of each coupled move
        self.coupled = {}  # least member -> per coupled move, the orbits of its images

    def __missing__(self, p: Pair) -> list[Pair]:
        members = sorted(_closure(p, self.step, DEFAULT_ORBIT_CAP))
        for m in members:
            self[m] = members
        return members

    def images(self, least: Pair) -> list[set[Pair]]:
        """For each coupled move c, the orbits (by least member) that meet
        c(P), P the orbit whose least member is ``least``."""
        out = self.coupled.get(least)
        if out is None:
            out = self.coupled[least] = [{self[c(m)][0] for m in self[least]}
                                         for c in self.couplings]
        return out


class BlockClass:
    """An equivalence class as a union of disjoint blocks P x Q: P an orbit
    of (A, B) pairs and Q an orbit of (C, D) pairs, each a sorted list."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: list[tuple[list[Pair], list[Pair]]]):
        self.blocks = blocks

    @property
    def canonical(self) -> Packed:
        """The least member; packed order is the quad order."""
        return min(ps[0] + qs[0] for ps, qs in self.blocks)

    @property
    def size(self) -> int:
        return sum(len(ps) * len(qs) for ps, qs in self.blocks)

    def members(self, count: Optional[int] = None) -> list[Packed]:
        """The least ``count`` members (all by default), sorted."""
        return sorted(p + q for ps, qs in self.blocks for p in ps for q in qs)[:count]


def first_classes(items: Iterable[Packed], n: int, kind: Kind,
                  cap: int = DEFAULT_ORBIT_CAP,
                  moves: Optional[Iterable[Transform]] = None,
                  ) -> Iterator[tuple[int, BlockClass]]:
    """``(i, class)`` for each packed quad ``i`` of ``n`` that lies in no
    earlier input's class, in input order: the classes ``first_visits``
    yields, closed as blocks (see the module docstring) without
    enumerating a member.

    Raises :class:`OrbitCapExceeded` when a class has more than ``cap``
    members, carrying its least ``cap`` members, sorted.
    """
    if cap < 1:
        raise PreconditionError("orbit cap must be >= 1")
    table = _move_table(kind, n)
    moves = list(GENERATORS[kind] if moves is None else moves)
    coupled = [table[t] for t in moves if t in _COUPLED]
    ab = _SideOrbits([_on_ab(table[t]) for t in moves if t in _AB_MOVES],
                     [_on_ab(c) for c in coupled])
    cd = _SideOrbits([_on_cd(table[t]) for t in moves
                      if t not in _AB_MOVES and t not in _COUPLED],
                     [_on_cd(c) for c in coupled])
    seen: set[tuple[Pair, Pair]] = set()  # the blocks of every class yielded
    for i, q in enumerate(items):
        start = (ab[q[:2]][0], cd[q[2:]][0])
        if start in seen:
            continue
        seen.add(start)
        blocks = [start]
        for p, r in blocks:  # blocks grows while it is read: the BFS queue
            for ps, rs in zip(ab.images(p), cd.images(r)):
                for block in itertools.product(ps, rs):
                    if block not in seen:
                        seen.add(block)
                        blocks.append(block)
        cls = BlockClass([(ab[p], cd[r]) for p, r in blocks])
        if cls.size > cap:
            raise OrbitCapExceeded(cap, [SeqQuad.from_packed(m, n, kind)
                                         for m in cls.members(cap)])
        yield i, cls


def apply(quad: SeqQuad, t: Transform) -> SeqQuad:
    """Apply one transform; validity of the quad is preserved.

    Moves that would break the A,B coupling of a structured kind (for
    example negating A alone, or swapping A with B) are rejected; use
    the struct_* moves there instead.
    """
    kind = quad.kind
    if kind is not Kind.BS and (t == SWAP_AB or (t.op in ("negate", "reverse")
                                                 and t.which in ("a", "b"))):
        raise ApplicabilityError(f"{t} breaks the A,B coupling")
    if t == ALTERNATE_ALL and kind is Kind.NS and quad.n % 2 == 1:
        raise ApplicabilityError(
            "alternate_all flips the fixed last entries for odd normal quads")
    if t in _STRUCT_MOVES and kind is Kind.BS:
        raise ApplicabilityError(f"{t.op} applies to ns/nns quads only")
    move = _move_table(kind, quad.n).get(t)
    if move is None:
        raise ApplicabilityError(f"unknown transform {t.op!r}")
    image = move(quad.packed())
    if image is None:
        raise ApplicabilityError("no checkerboard column block to swap")
    return SeqQuad.from_packed(image, quad.n, kind)


def kind_generators(quad: SeqQuad) -> list[SeqQuad]:
    """Images of ``quad`` under the generator list of its kind."""
    images = _step(quad.kind, quad.n)(quad.packed())
    return [SeqQuad.from_packed(img, quad.n, quad.kind) for img in images if img is not None]


def orbit(quad: SeqQuad, cap: int = DEFAULT_ORBIT_CAP) -> list[SeqQuad]:
    """Closure of the quad under its kind's generators, sorted.

    Raises :class:`OrbitCapExceeded` (carrying the partial orbit) if the
    closure grows past ``cap``, :class:`PreconditionError` if ``cap`` < 1.
    """
    members = _equivalence_class(quad.packed(), quad.n, quad.kind, cap)
    return [SeqQuad.from_packed(m, quad.n, quad.kind) for m in sorted(members)]


def canonical(quad: SeqQuad, cap: int = DEFAULT_ORBIT_CAP) -> SeqQuad:
    """Least orbit member under the fixed total order (+1 sorts before -1)."""
    n, kind = quad.n, quad.kind
    _, cls = next(first_classes([quad.packed()], n, kind, cap))
    return SeqQuad.from_packed(cls.canonical, n, kind)


def dedup(quads: Iterable[SeqQuad], cap: int = DEFAULT_ORBIT_CAP) -> list[SeqQuad]:
    """One canonical representative per equivalence class, sorted.

    All inputs must share one n and one kind; the output is independent
    of input order.
    """
    quads = list(quads)
    if not quads:
        return []
    n, kind = quads[0].n, quads[0].kind
    if any(q.n != n or q.kind != kind for q in quads):
        raise MalformedInputError("dedup requires uniform n and kind")
    reps = [cls.canonical for _, cls in first_classes((q.packed() for q in quads), n, kind, cap)]
    return [SeqQuad.from_packed(r, n, kind) for r in sorted(reps)]


# --- signed-permutation action on the eight row sums ----------------------
#
# Tuple layout: (a, b, c, d, a', b', c', d') where primes are alternated
# sums.  Reversal of a length-L sequence maps its alternated sum to
# (-1)^(L-1) times itself, so the C/D reversal action depends on n's
# parity.  The two A,B moves act through their structure-compatible
# lifts: "negate both and interchange" is the same signed permutation
# for every kind, while "alternate all" for a normal quad with odd n
# additionally interchanges A and B (the lift keeps the fixed last
# entries of A and B in place, which swaps the two row sums).

def profile_generators(values: tuple[int, ...], n: int,
                       kind: Kind = Kind.BS) -> list[tuple[int, ...]]:
    a, b, c, d, aa, ba, ca, da = values
    rev_sign = 1 if n % 2 == 1 else -1
    if kind is Kind.NS and n % 2 == 1:
        alternate = (ba, aa, ca, da, b, a, c, d)
    else:
        alternate = (aa, ba, ca, da, a, b, c, d)
    return [
        (a, b, -c, d, aa, ba, -ca, da),            # negate C
        (a, b, c, -d, aa, ba, ca, -da),            # negate D
        (a, b, c, d, aa, ba, rev_sign * ca, da),   # reverse C
        (a, b, c, d, aa, ba, ca, rev_sign * da),   # reverse D
        (a, b, d, c, aa, ba, da, ca),              # interchange C, D
        (-b, -a, c, d, -ba, -aa, ca, da),          # negate A, B and interchange
        alternate,
    ]


def profile_orbit(values: tuple[int, ...], n: int,
                  kind: Kind = Kind.BS) -> list[tuple[int, ...]]:
    """Closure of an eight-sum tuple under the signed-permutation action,
    sorted, so its first member is the least."""
    return sorted(_closure(values, lambda v: profile_generators(v, n, kind),
                           DEFAULT_ORBIT_CAP))
