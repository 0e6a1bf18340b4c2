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

Each kind has its own generator list; orbits, canonical forms and
deduplication are all relative to the kind's list.

The same moves act on the eight row sums of a quad as signed
permutations; that cheap action is used to deduplicate sum profiles
without materializing sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from .errors import ApplicabilityError, MalformedInputError, OrbitCapExceeded
from .seqcore import Kind, SeqQuad, SignSeq, derive_partner

DEFAULT_ORBIT_CAP = 10 ** 7

_SEQ_NAMES = ("a", "b", "c", "d")


@dataclass(frozen=True)
class Transform:
    """One equivalence move.

    ``op`` is one of: negate, reverse, swap_ab, swap_cd, alternate_all,
    column_swap, struct_negate, struct_reverse, struct_alternate.
    ``which`` names the target sequence for negate/reverse.
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
ALTERNATE_ALL = Transform("alternate_all")
COLUMN_SWAP = Transform("column_swap")
STRUCT_NEGATE = Transform("struct_negate")
STRUCT_REVERSE = Transform("struct_reverse")
STRUCT_ALTERNATE = Transform("struct_alternate")

CHECKERBOARD = ((1, -1, -1, 1), (-1, 1, 1, -1))


def _column_swap(quad: SeqQuad) -> SeqQuad:
    """Flip every checkerboard block (c_i, c_{n+1-i}; d_i, d_{n+1-i}) at once.

    Flipping a single block in isolation does not preserve validity; the
    simultaneous flip of all matching blocks is an involution that does.
    """
    n = quad.n
    c = list(quad.c.elements)
    d = list(quad.d.elements)
    hit = False
    for i in range(1, n // 2 + 1):
        j = n + 1 - i
        blk = (c[i - 1], c[j - 1], d[i - 1], d[j - 1])
        if blk in CHECKERBOARD:
            c[i - 1], c[j - 1], d[i - 1], d[j - 1] = (-blk[0], -blk[1], -blk[2], -blk[3])
            hit = True
    if not hit:
        raise ApplicabilityError("no checkerboard column block to swap")
    return SeqQuad(quad.a, quad.b, SignSeq(tuple(c)), SignSeq(tuple(d)), quad.kind)


def _replace(quad: SeqQuad, **named: SignSeq) -> SeqQuad:
    parts = {name: getattr(quad, name) for name in _SEQ_NAMES}
    parts.update(named)
    return SeqQuad(parts["a"], parts["b"], parts["c"], parts["d"], quad.kind)


def _body_map(seq: SignSeq, fn: Callable[[tuple[int, ...]], Iterable[int]]) -> SignSeq:
    """Apply ``fn`` to all entries but the last, keeping the last."""
    return SignSeq(tuple(fn(seq.elements[:-1])) + (seq.elements[-1],))


def _struct_negate(quad: SeqQuad) -> SeqQuad:
    if quad.kind is Kind.NS:
        a2 = _body_map(quad.a, lambda body: (-x for x in body))
    else:  # near-normal: negate odd positions only
        a2 = _body_map(quad.a, lambda body: (-x if j % 2 == 0 else x
                                             for j, x in enumerate(body)))
    return _replace(quad, a=a2, b=derive_partner(a2, quad.kind))


def _struct_reverse(quad: SeqQuad) -> SeqQuad:
    if quad.kind is Kind.NS:
        a2 = _body_map(quad.a, lambda body: reversed(body))
    else:
        def odd_reversed(body):
            out = list(body)
            out[0::2] = reversed(out[0::2])
            return out
        a2 = _body_map(quad.a, odd_reversed)
    return _replace(quad, a=a2, b=derive_partner(a2, quad.kind))


def _struct_alternate(quad: SeqQuad) -> SeqQuad:
    a2 = _body_map(quad.a, lambda body: (x if j % 2 == 0 else -x
                                         for j, x in enumerate(body)))
    return _replace(quad, a=a2, b=derive_partner(a2, quad.kind),
                    c=quad.c.alternated(), d=quad.d.alternated())


def apply(quad: SeqQuad, t: Transform) -> SeqQuad:
    """Apply one transform; validity of the quad is preserved.

    Moves that would break the A,B coupling of a structured kind (for
    example negating A alone, or swapping A with B) are rejected; use
    the struct_* moves there instead.
    """
    structured = quad.kind is not Kind.BS
    if t.op in ("negate", "reverse"):
        if structured and t.which in ("a", "b"):
            raise ApplicabilityError(f"{t.op}({t.which}) breaks the A,B coupling")
        seq = getattr(quad, t.which)
        image = seq.negated() if t.op == "negate" else seq.reversed_()
        return _replace(quad, **{t.which: image})
    if t.op == "swap_ab":
        if structured:
            raise ApplicabilityError("swap_ab breaks the A,B coupling")
        return _replace(quad, a=quad.b, b=quad.a)
    if t.op == "swap_cd":
        return _replace(quad, c=quad.d, d=quad.c)
    if t.op == "alternate_all":
        if quad.kind is Kind.NS and quad.n % 2 == 1:
            raise ApplicabilityError(
                "alternate_all flips the fixed last entries for odd normal quads")
        return SeqQuad(quad.a.alternated(), quad.b.alternated(),
                       quad.c.alternated(), quad.d.alternated(), quad.kind)
    if t.op == "column_swap":
        return _column_swap(quad)
    if t.op in ("struct_negate", "struct_reverse", "struct_alternate"):
        if quad.kind is Kind.BS:
            raise ApplicabilityError(f"{t.op} applies to ns/nns quads only")
        if quad.n == 0:
            return quad
        return {"struct_negate": _struct_negate,
                "struct_reverse": _struct_reverse,
                "struct_alternate": _struct_alternate}[t.op](quad)
    raise ApplicabilityError(f"unknown transform {t.op!r}")


def _neg_ab_swap(quad: SeqQuad) -> SeqQuad:
    """Negate both A and B, then interchange them."""
    return _replace(quad, a=quad.b.negated(), b=quad.a.negated())


def kind_generators(quad: SeqQuad) -> list[SeqQuad]:
    """Images of ``quad`` under the generator list of its kind."""
    out = []
    if quad.kind is Kind.BS:
        for name in _SEQ_NAMES:
            out.append(apply(quad, Transform.negate(name)))
            out.append(apply(quad, Transform.reverse(name)))
        out.append(apply(quad, SWAP_AB))
        out.append(apply(quad, SWAP_CD))
        out.append(apply(quad, ALTERNATE_ALL))
        try:
            out.append(apply(quad, COLUMN_SWAP))
        except ApplicabilityError:
            pass
    elif quad.kind is Kind.NNS:
        for name in ("c", "d"):
            out.append(apply(quad, Transform.negate(name)))
            out.append(apply(quad, Transform.reverse(name)))
        out.append(apply(quad, SWAP_CD))
        out.append(_neg_ab_swap(quad))
        out.append(apply(quad, ALTERNATE_ALL))
    else:  # NS
        out.append(apply(quad, STRUCT_NEGATE))
        out.append(apply(quad, STRUCT_REVERSE))
        out.append(apply(quad, STRUCT_ALTERNATE))
    return out


def structure_generators(quad: SeqQuad) -> list[SeqQuad]:
    """Images under every validity-and-structure-preserving move.

    A superset of ``kind_generators`` used by the searcher to regrow all
    raw-sum-profile variants of a find before kind-level deduplication.
    """
    if quad.kind is Kind.BS:
        return kind_generators(quad)
    out = []
    for name in ("c", "d"):
        out.append(apply(quad, Transform.negate(name)))
        out.append(apply(quad, Transform.reverse(name)))
    out.append(apply(quad, SWAP_CD))
    out.append(apply(quad, STRUCT_NEGATE))
    out.append(apply(quad, STRUCT_REVERSE))
    out.append(apply(quad, STRUCT_ALTERNATE))
    try:
        out.append(apply(quad, COLUMN_SWAP))
    except ApplicabilityError:
        pass
    return out


def orbit(quad: SeqQuad, cap: int = DEFAULT_ORBIT_CAP,
          generators: Callable[[SeqQuad], list[SeqQuad]] = kind_generators) -> list[SeqQuad]:
    """Closure of the quad under its kind's generators, sorted.

    Raises :class:`OrbitCapExceeded` (carrying the partial orbit) if the
    closure grows past ``cap``.
    """
    seen = {quad.sort_key(): quad}
    frontier = [quad]
    while frontier:
        nxt = []
        for q in frontier:
            for img in generators(q):
                key = img.sort_key()
                if key not in seen:
                    if len(seen) >= cap:
                        raise OrbitCapExceeded(cap, sorted(seen.values(), key=SeqQuad.sort_key))
                    seen[key] = img
                    nxt.append(img)
        frontier = nxt
    return sorted(seen.values(), key=SeqQuad.sort_key)


def canonical(quad: SeqQuad, cap: int = DEFAULT_ORBIT_CAP) -> SeqQuad:
    """Least orbit member under the fixed total order (+1 sorts before -1)."""
    return orbit(quad, cap=cap)[0]


def dedup(quads: Iterable[SeqQuad], cap: int = DEFAULT_ORBIT_CAP) -> list[SeqQuad]:
    """One canonical representative per equivalence class, sorted.

    All inputs must share one n and one kind; the output is independent
    of input order.
    """
    quads = list(quads)
    if not quads:
        return []
    n, kind = quads[0].n, quads[0].kind
    for q in quads:
        if q.n != n or q.kind != kind:
            raise MalformedInputError("dedup requires uniform n and kind")
    reps = {cls[0].sort_key(): cls[0] for _, cls in first_visits(quads, cap)}
    return [reps[k] for k in sorted(reps)]


def first_visits(quads: Iterable[SeqQuad], cap: int = DEFAULT_ORBIT_CAP,
                 generators: Callable[[SeqQuad], list[SeqQuad]] = kind_generators,
                 ) -> Iterator[tuple[int, list[SeqQuad]]]:
    """``(i, orbit)`` for each input quad ``i`` that lies in no earlier
    input's orbit, in input order.

    Every move is invertible, so orbits are disjoint and each class is
    yielded once, from its first input member.
    """
    visited: set[tuple] = set()
    for i, q in enumerate(quads):
        if q.sort_key() in visited:
            continue
        cls = orbit(q, cap=cap, generators=generators)
        visited.update(member.sort_key() for member in cls)
        yield i, cls


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
    seen = {values}
    frontier = [values]
    while frontier:
        nxt = []
        for v in frontier:
            for img in profile_generators(v, n, kind):
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return sorted(seen)
