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

Orbits are closed over plain sign tuples: a member is the tuple
``(a, b, c, d)`` of the four ``SignSeq.elements``, each move maps one
such tuple to another, and ``SeqQuad`` objects are built only at the API
edge.  The quad order (``SeqQuad.sort_key``: +1 sorts before -1) is the
*reverse* of tuple order, since +1 > -1 and members of an orbit have
equal lengths: the least member is the ``max`` tuple, and a sorted orbit
is ``sorted(members, reverse=True)``.

The same moves act on the eight row sums of a quad as signed
permutations; that cheap action is used to deduplicate sum profiles
without materializing sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle
from operator import mul, neg
from typing import Callable, Iterable, Iterator, Optional

from .errors import (ApplicabilityError, MalformedInputError, OrbitCapExceeded,
                     PreconditionError)
from .seqcore import Kind, SeqQuad, SignSeq, partner_elements

DEFAULT_ORBIT_CAP = 10 ** 7

# the element tuples (a, b, c, d) of a quad's four sequences
Signs = tuple[tuple[int, ...], ...]
Move = Callable[[Signs], Optional[Signs]]


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

CHECKERBOARD = ((1, -1, -1, 1), (-1, 1, 1, -1))


# --- moves on sign tuples -----------------------------------------------------

def _neg(x: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(neg, x))


def _rev(x: tuple[int, ...]) -> tuple[int, ...]:
    return x[::-1]


def _alt(x: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(mul, x, cycle((1, -1))))


def _rev_odd_positions(x: tuple[int, ...]) -> tuple[int, ...]:
    out = list(x)
    out[0::2] = out[0::2][::-1]
    return tuple(out)


def _column_swap(q: Signs) -> Optional[Signs]:
    """Flip every checkerboard block (c_i, c_{n+1-i}; d_i, d_{n+1-i}) at once.

    Flipping a single block in isolation does not preserve validity; the
    simultaneous flip of all matching blocks is an involution that does.
    """
    c, d = list(q[2]), list(q[3])
    n = len(c)
    hit = False
    for i in range(n // 2):
        j = n - 1 - i
        if (c[i], c[j], d[i], d[j]) in CHECKERBOARD:
            c[i], c[j], d[i], d[j] = -c[i], -c[j], -d[i], -d[j]
            hit = True
    return (q[0], q[1], tuple(c), tuple(d)) if hit else None


def _on(i: int, fn: Callable[[tuple[int, ...]], tuple[int, ...]]) -> Move:
    return lambda q: q[:i] + (fn(q[i]),) + q[i + 1:]


def _struct(kind: Kind, body: Callable[[tuple[int, ...]], tuple[int, ...]],
            alternate_cd: bool = False) -> Move:
    """A coupled move: ``body`` acts on the open part of A, B is re-derived."""
    def move(q: Signs) -> Signs:
        a, _, c, d = q
        if len(a) == 1:
            return q  # n = 0: A has no open part
        a = body(a[:-1]) + a[-1:]
        if alternate_cd:
            c, d = _alt(c), _alt(d)
        return (a, partner_elements(a, kind), c, d)
    return move


def _move_table(kind: Kind) -> dict[Transform, Move]:
    table = {Transform(op, w): _on(i, fn)
             for op, fn in (("negate", _neg), ("reverse", _rev))
             for i, w in enumerate("abcd")}
    table[SWAP_AB] = lambda q: (q[1], q[0], q[2], q[3])
    table[SWAP_CD] = lambda q: (q[0], q[1], q[3], q[2])
    table[NEG_AB_SWAP] = lambda q: (_neg(q[1]), _neg(q[0]), q[2], q[3])
    table[ALTERNATE_ALL] = lambda q: tuple(map(_alt, q))
    table[COLUMN_SWAP] = _column_swap
    if kind is not Kind.BS:
        near = kind is Kind.NNS  # near-normal: odd positions only
        table[STRUCT_NEGATE] = _struct(kind, (lambda x: _neg(_alt(x))) if near else _neg)
        table[STRUCT_REVERSE] = _struct(kind, _rev_odd_positions if near else _rev)
        table[STRUCT_ALTERNATE] = _struct(kind, _alt, alternate_cd=True)
    return table


_MOVES = {kind: _move_table(kind) for kind in Kind}

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


def _signs(quad: SeqQuad) -> Signs:
    return tuple(s.elements for s in quad.seqs())


def _quad(q: Signs, kind: Kind) -> SeqQuad:
    return SeqQuad(*map(SignSeq, q), kind)


def _class_of(q: Signs, kind: Kind, cap: int,
              moves: Optional[Iterable[Transform]] = None) -> list[Signs]:
    fns = [_MOVES[kind][t] for t in (GENERATORS[kind] if moves is None else moves)]
    try:
        return _closure(q, lambda x: [fn(x) for fn in fns], cap)
    except OrbitCapExceeded as exc:
        exc.partial = [_quad(m, kind) for m in sorted(exc.partial, reverse=True)]
        raise


def first_visits(items: Iterable[Signs], kind: Kind, cap: int = DEFAULT_ORBIT_CAP,
                 moves: Optional[Iterable[Transform]] = None,
                 ) -> Iterator[tuple[int, list[Signs]]]:
    """``(i, orbit)`` for each input ``i`` that lies in no earlier input's
    orbit, in input order, with the orbit's members in BFS order.

    ``moves`` defaults to the kind's generator list.  Every move is
    invertible, so orbits are disjoint and each class is yielded once,
    from its first input member.
    """
    visited: set[Signs] = set()
    for i, q in enumerate(items):
        if q in visited:
            continue
        cls = _class_of(q, kind, cap, moves)
        visited.update(cls)
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
    move = _MOVES[kind].get(t)
    if move is None:
        raise ApplicabilityError(f"unknown transform {t.op!r}")
    image = move(_signs(quad))
    if image is None:
        raise ApplicabilityError("no checkerboard column block to swap")
    return _quad(image, kind)


def kind_generators(quad: SeqQuad) -> list[SeqQuad]:
    """Images of ``quad`` under the generator list of its kind."""
    q = _signs(quad)
    images = (_MOVES[quad.kind][t](q) for t in GENERATORS[quad.kind])
    return [_quad(img, quad.kind) for img in images if img is not None]


def orbit(quad: SeqQuad, cap: int = DEFAULT_ORBIT_CAP) -> list[SeqQuad]:
    """Closure of the quad under its kind's generators, sorted.

    Raises :class:`OrbitCapExceeded` (carrying the partial orbit) if the
    closure grows past ``cap``, :class:`PreconditionError` if ``cap`` < 1.
    """
    members = _class_of(_signs(quad), quad.kind, cap)
    return [_quad(m, quad.kind) for m in sorted(members, reverse=True)]


def canonical(quad: SeqQuad, cap: int = DEFAULT_ORBIT_CAP) -> SeqQuad:
    """Least orbit member under the fixed total order (+1 sorts before -1)."""
    return _quad(max(_class_of(_signs(quad), quad.kind, cap)), quad.kind)


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
    reps = [max(cls) for _, cls in first_visits(map(_signs, quads), kind, cap)]
    return [_quad(r, kind) for r in sorted(reps, reverse=True)]


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
    """Closure of an eight-sum tuple under the signed-permutation action."""
    return sorted(_closure(values, lambda v: profile_generators(v, n, kind),
                           DEFAULT_ORBIT_CAP))
