"""Arithmetic pruning: sum quadruples, residue-class profiles, sign levels.

Every valid quad obeys a stack of integer constraints that can be
enumerated long before any sequence is materialized:

  * The eight row sums, a plain half (a, b, c, d) and an alternated
    half (a', b', c', d'), obey three laws.  ``_is_half``: each half has
    bounded sums of fixed parities, square sum 4n+2 and the end-column
    law.  ``_mod4_delta``: the plain sums differ from the alternated ones
    by a fixed vector mod 4 that depends on the sequence lengths.  The
    kind's coupling: normal quads force a = b+2 (and a' = b'-+2 by n's
    parity), near-normal quads a = b'+2 and b = a'-2.  ``_join_keys``
    states the last two as keys a plain and an alternated half share.
    For n = 8k-2 the normal-quad system is unsolvable, which is the
    executable nonexistence obstruction.
    Every move of the signed-permutation action on the eight sums maps
    a feasible tuple to a feasible one, so the canonical sum profile is
    simply the least member of its orbit.

  * Splitting positions into residue classes mod m turns each sequence
    into a short vector of class sums.  Reducing the polynomial norm
    identity mod z^m - 1 gives, for every m >= 2: the class-sum squares
    add to 4n+2, and the periodic autocorrelations of the four vectors
    cancel at every shift.  Class sums are bounded by class sizes with
    matching parity, and end-column congruences project onto classes.

  * End-column congruences on the signs themselves: paired columns of
    A,B (positions i and n+2-i) sum to 2 mod 4 at i = 1 and to 0 mod 4
    for i = 2..[(n+1)/2]; paired columns of C,D (positions i and n+1-i)
    sum to 0 mod 4 for i = 2..[n/2].  Eight of the sixteen sign columns
    survive at each constrained index.  On the A,B side of a normal or
    near-normal quad, B is also A's derived partner, which couples the
    two signs at every position, the middle of an odd length included.
    ``column_cases`` lists a side's sign levels under both rules; the
    searcher's expansion, membership test and completion all read it.

The class-level end-column congruence is a key each class-sum vector
carries.  On a side of length L at modulus m, class j pairs with class
(L-1-j) mod m; over the distinct pairs j < p, x's key is (x_j + x_p)
mod 4 and y's key is (want - y_j - y_p) mod 4, where want is 2 at the
A,B pair holding class 0 (it holds the end columns) and 0 everywhere
else.  Self-paired classes reduce to a parity statement and carry no
key entry.  A side's x and y vectors are joined on equal keys.  On the
C,D side the congruence holds for all class pairs including the one
containing position 1; the sign-level list keeps the printed i >= 2
range, which is strictly weaker, and the mismatch is intentional.

Profiles are refined in *blocks*.  A half is one side's two class-sum
vectors x and y, and a *product* is a tuple of x vectors and a tuple of
y vectors every pairing of which is a half.  A block is a list of A,B
products and a list of C,D products such that every A,B half paired
with every C,D half is a profile; the sum profile itself is the one
block at modulus 1.  Refining a block to a multiple modulus splits each
coarse vector of its products into its fine vectors, grouped by key and
then by signature (square sum and periodic autocorrelations).  For each
coarse (x, y) pairing of a product, joining the x groups with the y
groups on their keys gives one new product per pair of groups, so a
signature sum is formed once per pair of groups, not once per half.
One block is emitted per A,B and C,D signature pair that adds up to
(4n+2, 0, ..., 0).  Blocks refined from disjoint blocks are disjoint, so
a modulus chain refines every vector pairing once, and a side's halves
are listed only where they are returned.  A coarse vector's split
depends on nothing but the vector, the class sizes, the alternated
target and the class pairs, so ``_split`` keeps it in a memo shared by
every sum profile and call; ``searcher.build_tasks`` clears it when the
task list is built.  The memo is bounded at ``_SPLIT_MEMO`` = 4,096
entries, the fine vectors of one coarse vector each: at most 48 from
modulus 3 to 6 at n = 41, and at most 2,912 from modulus 1 to 6 at
n = 44 (the near-normal chain).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .equiv import profile_orbit
from .errors import PreconditionError
from .seqcore import Kind, SeqQuad, SumProfile, partner_elements

# --- sum-quadruple feasibility and enumeration -----------------------------


def _is_half(t: tuple[int, ...], n: int) -> bool:
    """One half, plain or alternated: each sum within its length with that
    length's parity, square sum 4n+2, and the end-column law."""
    a, b, c, d = t
    return (max(abs(a), abs(b)) <= n + 1 and max(abs(c), abs(d)) <= n
            and (a - n - 1) % 2 == (b - n - 1) % 2 == (c - n) % 2 == (d - n) % 2 == 0
            and a * a + b * b + c * c + d * d == 4 * n + 2
            and ((c - d) % 4 == 0 if n % 2 == 0 else (a - b - 2) % 4 == 0))


def _mod4_delta(n: int) -> tuple[int, ...]:
    """Plain minus alternated sum mod 4 for (a, b, c, d)."""
    # the difference is twice the sum of the floor(L/2) signs at odd
    # positions of a length-L sequence, and that sum has their count's parity
    return tuple(2 * (length // 2) % 4 for length in (n + 1, n + 1, n, n))


def _join_keys(t: tuple[int, ...], n: int, kind: Kind) -> tuple[tuple, tuple]:
    """Half t's key as a plain half and its key as an alternated half.

    A plain half p and an alternated half q are linked and coupled iff
    ``_join_keys(p)[0] == _join_keys(q)[1]``: p - q = ``_mod4_delta(n)``
    mod 4 entrywise, and normal quads have a = b+2 and a' = b' -/+ 2 (by
    n's parity), near-normal ones a = b'+2 and b = a'-2.
    """
    a, b = t[:2]
    if kind is Kind.NS:
        coupling = (a - b, 2 if n % 2 == 0 else -2), (2, a - b)
    elif kind is Kind.NNS:
        coupling = (a, b), (b + 2, a - 2)
    else:
        coupling = (), ()
    return (tuple([(v - e) % 4 for v, e in zip(t, _mod4_delta(n))]) + coupling[0],
            tuple([v % 4 for v in t]) + coupling[1])


def feasible_sum_profile(profile: SumProfile, n: int, kind: Kind) -> bool:
    """Whether an eight-sum tuple obeys the three sum laws."""
    values = profile.as_tuple()
    plain, alt = values[:4], values[4:]
    return (_is_half(plain, n) and _is_half(alt, n)
            and _join_keys(plain, n, kind)[0] == _join_keys(alt, n, kind)[1])


def canonical_sum_profile(profile: SumProfile, n: int, kind: Kind) -> SumProfile:
    """Least member of a feasible profile's signed-permutation orbit."""
    if not feasible_sum_profile(profile, n, kind):
        raise PreconditionError("profile is not feasible for this kind")
    return SumProfile.from_tuple(profile_orbit(profile.as_tuple(), n, kind)[0])


def _half_tuples(n: int) -> list[tuple[int, int, int, int]]:
    """Every half that ``_is_half`` accepts, sorted: (a, b, c) run over the
    sums of the right parity whose squares fit in 4n+2, and d takes the rest."""
    target = 4 * n + 2
    out = []
    for a in range(-(n + 1), n + 2, 2):
        if a * a > target:
            continue
        for b in range(-(n + 1), n + 2, 2):
            rest = target - a * a - b * b
            if rest < 0:
                continue
            for c in range(-n, n + 1, 2):
                if c * c > rest:
                    continue
                dd = rest - c * c
                d = math.isqrt(dd)
                if d * d != dd:
                    continue
                for t in ((a, b, c, -d), (a, b, c, d)) if d else ((a, b, c, 0),):
                    if _is_half(t, n):
                        out.append(t)
    return out


def sum_profiles(n: int, kind: Kind) -> list[SumProfile]:
    """All feasible sum profiles for (n, kind), one per orbit, sorted.

    A plain and an alternated half meet on their ``_join_keys``.  Orbits
    are taken under the signed-permutation action of the deduplication
    transforms (negate/reverse/interchange C,D, negate and interchange
    A,B, alternate all four); the representative is the least orbit
    member, feasible like every other.  The list is computed once per
    (n, kind); each call returns a new list.
    """
    return list(_sum_profiles(n, kind))


@lru_cache(maxsize=64)
def _sum_profiles(n: int, kind: Kind) -> tuple[SumProfile, ...]:
    if n < 1:
        raise PreconditionError("n must be >= 1")
    if kind is Kind.NNS and n % 2 != 0:
        raise PreconditionError("near-normal profiles require even n")
    halves = {t: _join_keys(t, n, kind) for t in _half_tuples(n)}
    alts: dict[tuple, list[tuple[int, ...]]] = {}
    for t, (_, as_alt) in halves.items():
        alts.setdefault(as_alt, []).append(t)

    found = []
    seen: set[tuple[int, ...]] = set()  # members of the orbits in found
    for plain, (as_plain, _) in halves.items():
        for alt in alts.get(as_plain, ()):
            if plain + alt not in seen:
                orbit = profile_orbit(plain + alt, n, kind)
                seen.update(orbit)
                found.append(orbit[0])
    return tuple(SumProfile.from_tuple(t) for t in sorted(found))


def ns_parity_obstruction(n: int) -> bool:
    """True iff n = 8k-2, where the normal-quad sum system is unsolvable.

    The feasibility system forces odd x = y+2 and even z, w with
    x^2+y^2+z^2+w^2 = 4n+2 and z = w mod 4; reducing mod 8 (odd squares
    are 1 mod 8) rules out every branch when n = 8k-2, so
    ``sum_profiles(n, NS)`` is empty exactly at these n.
    """
    if n < 1:
        raise PreconditionError("n must be >= 1")
    return n % 8 == 6


# --- sign levels ------------------------------------------------------------

SIDE_AB = "AB"
SIDE_CD = "CD"


@lru_cache(maxsize=256)
def column_cases(n: int, side: str, kind: Kind) -> tuple[int, tuple]:
    """A side's fill length and its sign levels, outside in.

    A level is ``(positions, options)`` over 0-based positions, each
    option the x entries, then the y entries, at those positions.  On a
    side of length L (n+1 for A,B, n for C,D), pair t (1-based) is at
    ``(t-1, L-t)`` and an odd L ends with the middle ``(L // 2,)``.  The
    options are the sign tuples + before -, entry by entry, that obey
    both rules: a pair's four entries sum to 2 mod 4 at A,B pair 1 and
    to 0 mod 4 at every other pair but C,D pair 1, which is free; on the
    A,B side of a structured kind, B is A's derived partner
    (``partner_elements``) and A ends in +1.
    """
    if n < 1:
        raise PreconditionError("n must be >= 1")
    if side not in (SIDE_AB, SIDE_CD):
        raise PreconditionError("side must be AB or CD")
    length = n + 1 if side == SIDE_AB else n
    # y = factor[p] * x at every position p when B is derived from A
    factor = (partner_elements((1,) * length, kind)
              if side == SIDE_AB and kind is not Kind.BS else None)

    def admissible(positions: tuple[int, ...], option: tuple[int, ...]) -> bool:
        if factor is not None and not all(
                y == factor[p] * x and (x == 1 or p < length - 1)
                for p, x, y in zip(positions, option, option[len(positions):])):
            return False
        if len(positions) == 1 or (side == SIDE_CD and positions[0] == 0):
            return True  # the middle and C,D pair 1 obey no congruence
        return sum(option) % 4 == (2 if positions[0] == 0 else 0)

    groups = [(t, length - 1 - t) for t in range(length // 2)]
    if length % 2:
        groups.append((length // 2,))
    levels = []
    for positions in groups:
        options = itertools.product((1, -1), repeat=2 * len(positions))
        levels.append((positions, tuple(o for o in options if admissible(positions, o))))
    return length, tuple(levels)


# --- residue-class profiles --------------------------------------------------


@dataclass(frozen=True)
class ResidueProfile:
    """Class sums of the four sequences modulo ``modulus``.

    Entry i of a vector sums the 0-based positions j with j mod m = i.
    """

    modulus: int
    a_class_sums: tuple[int, ...]
    b_class_sums: tuple[int, ...]
    c_class_sums: tuple[int, ...]
    d_class_sums: tuple[int, ...]

    def vectors(self) -> tuple[tuple[int, ...], ...]:
        return (self.a_class_sums, self.b_class_sums,
                self.c_class_sums, self.d_class_sums)

    def square_sum(self) -> int:
        return sum(x * x for v in self.vectors() for x in v)

    def as_flat(self) -> tuple[int, ...]:
        return self.a_class_sums + self.b_class_sums + self.c_class_sums + self.d_class_sums

    def check(self) -> None:
        """Refuse a profile that is not one class sum per class in each vector."""
        if self.modulus < 1 or any(len(v) != self.modulus for v in self.vectors()):
            raise PreconditionError("a residue profile needs a modulus >= 1 and one class "
                                    "sum per class in each vector")

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.as_flat())


def class_sizes(length: int, m: int) -> tuple[int, ...]:
    """Number of positions 1..length in each class (0-based class order)."""
    return tuple((length - i) // m + 1 for i in range(1, m + 1))


def sequence_class_sums(seq, m: int) -> tuple[int, ...]:
    out = [0] * m
    for j, x in enumerate(seq.elements):
        out[j % m] += x
    return tuple(out)


def quad_residue_profile(quad: SeqQuad, m: int) -> ResidueProfile:
    return ResidueProfile(m, *(sequence_class_sums(s, m) for s in quad.seqs()))


def _fine_vectors(coarse: tuple[int, ...], sizes: tuple[int, ...],
                  alt_total: Optional[int]) -> list[tuple[int, ...]]:
    """All vectors at modulus len(sizes) that merge to ``coarse``.

    Each class sum respects its class size bound and parity; the
    alternated sum must equal ``alt_total`` unless that is None.
    """
    c, m = len(coarse), len(sizes)
    # same_cap[j]: room left in j's coarse class after j; all_cap[j]: after j
    same_cap = [0] * m
    all_cap = [0] * m
    for j in range(m - 2, -1, -1):
        all_cap[j] = all_cap[j + 1] + sizes[j + 1]
    for j in range(m - c - 1, -1, -1):
        same_cap[j] = same_cap[j + c] + sizes[j + c]
    need = list(coarse)
    out = []
    vec = [0] * m

    def rec(j: int, alt_run: int):
        if j == m:
            out.append(tuple(vec))
            return
        i, size = j % c, sizes[j]
        sign = 1 if j % 2 == 0 else -1
        if same_cap[j]:
            vals = range(-size, size + 1, 2)
        else:  # the last fine class of a coarse class takes what is left
            vals = (need[i],) if abs(need[i]) <= size and (need[i] - size) % 2 == 0 else ()
        for val in vals:
            if abs(need[i] - val) > same_cap[j]:
                continue
            if alt_total is not None and abs(alt_total - alt_run - sign * val) > all_cap[j]:
                continue
            vec[j] = val
            need[i] -= val
            rec(j + 1, alt_run + sign * val)
            need[i] += val

    rec(0, 0)
    return out


def _signature(v: tuple[int, ...], m: int) -> tuple[int, ...]:
    """(sum of squares, periodic autocorrelations at shifts 1..[m/2])."""
    return tuple(sum(v[i] * v[(i + s) % m] for i in range(m)) for s in range(m // 2 + 1))


def _derive_partner_sums(k: tuple[int, ...], n: int, m: int,
                         kind: Kind) -> tuple[int, ...]:
    """Class sums of B from those of A for a structured kind.

    The class of position n+1 loses 2 (that entry flips from +1 to -1);
    for near-normal quads every other class flips sign with the parity of
    its positions, which is well defined only for even m.
    """
    l0 = n % m  # the class of position n+1
    if kind is Kind.NS:
        r = list(k)
        r[l0] -= 2
        return tuple(r)
    # near-normal: n even and m even (``_refine_blocks`` checks both) put
    # position n+1 in an odd-position class, so the sign factor on the
    # special class is +1
    r = [v if i % 2 == 0 else -v for i, v in enumerate(k)]
    r[l0] = k[l0] - 2
    return tuple(r)


Half = tuple[tuple[int, ...], tuple[int, ...]]
# x vectors and y vectors; every pairing of the two is a half
Product = tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]
# A,B products and C,D products; every pairing of their halves is a profile
Block = tuple[list[Product], list[Product]]
# fine vectors by key, then by signature
Split = dict[tuple[int, ...], dict[tuple[int, ...], tuple[tuple[int, ...], ...]]]

# entries of the ``_split`` memo; the whole BS n = 41 residue stage splits
# 4,917 distinct coarse vectors, NS 41 824, BS 30 2,491 and NNS 44 32
_SPLIT_MEMO = 4096


@lru_cache(maxsize=_SPLIT_MEMO)
def _split(coarse: tuple[int, ...], sizes: tuple[int, ...], alt_total: Optional[int],
           pairs: tuple[tuple[int, int], ...]) -> Split:
    """``_fine_vectors`` of one coarse vector at modulus len(sizes), by key,
    then by ``_signature``.  A vector's key is its class-pair sums
    (v_j + v_p) mod 4 over ``pairs``.  The result is shared: read it only."""
    m = len(sizes)
    out: dict = {}
    for v in _fine_vectors(coarse, sizes, alt_total):
        key = tuple([(v[j] + v[p]) % 4 for j, p in pairs])
        out.setdefault(key, {}).setdefault(_signature(v, m), []).append(v)
    return {key: {sig: tuple(vs) for sig, vs in group.items()} for key, group in out.items()}


def _halves(products: list[Product]) -> list[Half]:
    return [(x, y) for xs, ys in products for x in xs for y in ys]


def _refine_blocks(n: int, m: int, blocks: list[Block], s: SumProfile,
                   kind: Kind) -> list[Block]:
    """The blocks at modulus m whose profiles merge onto those of ``blocks``.

    Each coarse vector of a product is split (``_split``, memoised) into
    all vectors at modulus m that merge onto it.  For each coarse (x, y)
    pairing of a product, the split of x is joined with the split of y
    on their class-pair keys, a group of equal signature at a time: every
    x group and y group of matching keys make one product, whose halves
    all have the sum of the two signatures.  Enforced per half: class
    bounds and parities, the merge, alternated sums when m is even, and
    the class-pair end-column congruence.  For structured kinds the B
    vector is derived from the A vector and must be one of the fine
    vectors of the coarse B vector, which is tested per A vector, so that
    side's products hold one half each.  One block is emitted per A,B and
    C,D signature pair that adds up to (4n+2, 0, ..., 0): the square-sum
    identity and vanishing periodic autocorrelations.
    Blocks refined from disjoint blocks are disjoint, so every vector is
    refined once.
    """
    if kind is Kind.NNS and (n % 2 or m % 2):
        raise PreconditionError("near-normal residue profiles require even n and even m")
    if not feasible_sum_profile(s, n, kind):
        raise PreconditionError(f"sum profile {s} is not feasible for {kind.value} n={n}")
    target = (4 * n + 2,) + (0,) * (m // 2)

    def by_signature(side: str, products: list[Product],
                     ) -> dict[tuple[int, ...], list[Product]]:
        length, alts = ((n + 1, (s.a_alt, s.b_alt)) if side == SIDE_AB
                        else (n, (s.c_alt, s.d_alt)))
        sizes = class_sizes(length, m)
        if m % 2:
            alts = (None, None)
        # class j pairs with class (L-1-j) mod m; a pair's four sums are
        # 2 mod 4 at the A,B end pair (j = 0) and 0 mod 4 everywhere else,
        # so x of key k joins y of key (want - k) mod 4
        pairs = tuple((j, p) for j in range(m) if j < (p := (length - 1 - j) % m))
        wants = [2 if side == SIDE_AB and j == 0 else 0 for j, _ in pairs]
        derived = side == SIDE_AB and kind is not Kind.BS
        groups: dict[tuple[int, ...], list[Product]] = {}
        for coarse_xs, coarse_ys in products:
            for coarse_x, coarse_y in itertools.product(coarse_xs, coarse_ys):
                y_split = _split(coarse_y, sizes, alts[1], pairs)
                for key, x_groups in _split(coarse_x, sizes, alts[0], pairs).items():
                    y_groups = y_split.get(tuple([(w - k) % 4 for w, k in zip(wants, key)]))
                    if not y_groups:
                        continue
                    if derived:
                        y_sigs = {y: sig for sig, ys in y_groups.items() for y in ys}
                        for x_sig, xs in x_groups.items():
                            for x in xs:
                                partner = _derive_partner_sums(x, n, m, kind)
                                y_sig = y_sigs.get(partner)
                                if y_sig is not None:
                                    sig = tuple([a + b for a, b in zip(x_sig, y_sig)])
                                    groups.setdefault(sig, []).append(((x,), (partner,)))
                        continue
                    for x_sig, xs in x_groups.items():
                        for y_sig, ys in y_groups.items():
                            sig = tuple([a + b for a, b in zip(x_sig, y_sig)])
                            groups.setdefault(sig, []).append((xs, ys))
        return groups

    out = []
    for ab, cd in blocks:
        ab_groups = by_signature(SIDE_AB, ab)
        for cd_sig, cd_products in by_signature(SIDE_CD, cd).items():
            ab_products = ab_groups.get(tuple([t - x for t, x in zip(target, cd_sig)]))
            if ab_products:
                out.append((ab_products, cd_products))
    return out


def _whole(s: SumProfile) -> Block:
    """The sum profile as the one block at modulus 1."""
    return [(((s.a,),), ((s.b,),))], [(((s.c,),), ((s.d,),))]


def _profiles(m: int, blocks: list[Block]) -> list[ResidueProfile]:
    out = []
    for ab, cd in blocks:
        cd_halves = _halves(cd)
        out.extend(ResidueProfile(m, k, r, p, q) for k, r in _halves(ab) for p, q in cd_halves)
    return sorted(out, key=ResidueProfile.as_flat)


def residue_profiles(n: int, m: int, s: SumProfile, kind: Kind,
                     ) -> list[ResidueProfile]:
    """All residue-class profiles at modulus m compatible with sum profile s.

    Enforced: class-size bounds and parities, plain column sums (and
    alternated sums when m is even), the class-pair end-column
    congruences, the square-sum identity and the vanishing periodic
    autocorrelation sums.  For structured kinds the B vector is derived
    from the A vector (near-normal derivation needs even n and m).  A sum
    profile that ``feasible_sum_profile`` rejects is refused.
    """
    if m < 2:
        raise PreconditionError("modulus must be >= 2")
    return _profiles(m, _refine_blocks(n, m, [_whole(s)], s, kind))


def residue_halves(n: int, moduli: tuple[int, ...], s: SumProfile, kind: Kind,
                   side: str) -> list[Half]:
    """Sorted halves of one side (``SIDE_AB`` or ``SIDE_CD``) of the profiles
    of s at ``moduli[-1]``, refined through each modulus of the chain in turn."""
    if side not in (SIDE_AB, SIDE_CD):
        raise PreconditionError("side must be AB or CD")
    blocks = [_whole(s)]
    for m in moduli:
        blocks = _refine_blocks(n, m, blocks, s, kind)
    return sorted(h for block in blocks for h in _halves(block[side == SIDE_CD]))


def refine_profiles(n: int, prof: ResidueProfile, s: SumProfile, kind: Kind,
                    project: Optional[str] = None):
    """Refine a profile at modulus m to all compatible ones at 2m.

    Merging classes i and i+m of any output reproduces the input, and
    each output satisfies the full constraint set at 2m.  ``project``
    selects what to return: None for full profiles, "pq" for the unique
    (C, D) halves that admit at least one (A, B) half, "kr" for the
    mirror image of that.
    """
    if project not in (None, "pq", "kr"):
        raise PreconditionError("project must be None, 'pq' or 'kr'")
    prof.check()
    if tuple(sum(v) for v in prof.vectors()) != (s.a, s.b, s.c, s.d):
        raise PreconditionError("profile column sums do not match the sum profile")
    if prof.square_sum() != 4 * n + 2:
        raise PreconditionError("profile square sum must equal 4n+2")
    m = 2 * prof.modulus
    blocks = _refine_blocks(n, m, [([((prof.a_class_sums,), (prof.b_class_sums,))],
                                     [((prof.c_class_sums,), (prof.d_class_sums,))])], s, kind)
    if project is None:
        return _profiles(m, blocks)
    return sorted(h for block in blocks for h in _halves(block[project == "pq"]))
