import hashlib
import random
from dataclasses import replace
from functools import lru_cache

import pytest

from baseseq import equiv
from baseseq.equiv import (ALTERNATE_ALL, COLUMN_SWAP, NEG_AB_SWAP,
                           STRUCT_ALTERNATE, STRUCT_NEGATE, STRUCT_REVERSE,
                           SWAP_AB, SWAP_CD, Transform, apply, canonical,
                           dedup, orbit, profile_orbit)
from baseseq.errors import (ApplicabilityError, MalformedInputError, OrbitCapExceeded,
                            PreconditionError)
from baseseq.refdata import known_quad
from baseseq.searcher import SearchConfig, build_tasks, run_task, search
from baseseq.seqcore import Kind, SeqQuad, SignSeq, partner_mask, row_sums, verify


def _sample(pool, count, seed):
    rng = random.Random(seed)
    return pool if len(pool) <= count else rng.sample(pool, count)


def applicable_transforms(quad):
    if quad.kind is Kind.BS:
        out = [Transform.negate(w) for w in "abcd"]
        out += [Transform.reverse(w) for w in "abcd"]
        out += [SWAP_AB, SWAP_CD, NEG_AB_SWAP, ALTERNATE_ALL]
        return out
    out = [Transform.negate(w) for w in "cd"]
    out += [Transform.reverse(w) for w in "cd"]
    out += [SWAP_CD, NEG_AB_SWAP, STRUCT_NEGATE, STRUCT_REVERSE, STRUCT_ALTERNATE]
    if quad.kind is Kind.NNS or quad.n % 2 == 0:
        out.append(ALTERNATE_ALL)
    return out


def test_alternate_all_is_involution():
    q = known_quad(41)
    assert apply(apply(q, ALTERNATE_ALL), ALTERNATE_ALL) == q


def test_transforms_preserve_validity(bs_pool, ns_pool, nns_pool):
    cases = (_sample(bs_pool[4], 40, 1) + _sample(ns_pool[7], 40, 2)
             + _sample(nns_pool[6], 40, 3) + [known_quad(41)])
    for q in cases:
        for t in applicable_transforms(q):
            image = apply(q, t)
            assert verify(image).valid, (t, q)
        try:
            image = apply(q, COLUMN_SWAP)
        except ApplicabilityError:
            continue
        assert verify(image).valid


def test_struct_transforms_need_structured_kind():
    with pytest.raises(ApplicabilityError):
        apply(known_quad(41), STRUCT_NEGATE)


def test_coupling_breakers_rejected(ns_pool):
    q = ns_pool[3][0]
    for t in (Transform.negate("a"), Transform.reverse("b"), SWAP_AB,
              ALTERNATE_ALL):
        with pytest.raises(ApplicabilityError):
            apply(q, t)


def test_column_swap_matches_stated_patterns():
    # block (1,-1;-1,1) flips to (-1,1;1,-1)
    q = SeqQuad(SignSeq.from_text("+++"), SignSeq.from_text("-+-"),
                SignSeq.from_text("+-"), SignSeq.from_text("-+"), Kind.BS)
    swapped = apply(q, COLUMN_SWAP)
    assert swapped.c.text() == "-+"
    assert swapped.d.text() == "+-"
    no_block = SeqQuad(q.a, q.b, SignSeq.from_text("++"), SignSeq.from_text("++"),
                       Kind.BS)
    with pytest.raises(ApplicabilityError):
        apply(no_block, COLUMN_SWAP)


def test_transforms_are_involutions_or_finite_order(ns_pool):
    for q in _sample(ns_pool[5], 10, 4):
        for t in applicable_transforms(q):
            assert apply(apply(q, t), t) == q


def test_orbit_members_all_valid_and_closed(bs_pool):
    q = bs_pool[3][0]
    members = orbit(q)
    assert all(verify(m).valid for m in members)
    keys = {m.sort_key() for m in members}
    for m in members[:10]:
        assert {mm.sort_key() for mm in orbit(m)} == keys


def test_orbit_of_n0_quad():
    q = SeqQuad(SignSeq.from_text("+"), SignSeq.from_text("+"),
                SignSeq(()), SignSeq(()), Kind.BS)
    members = orbit(q)
    texts = {(m.a.text(), m.b.text()) for m in members}
    assert texts == {("+", "+"), ("+", "-"), ("-", "+"), ("-", "-")}


def test_orbit_cap_reports_partial(bs_pool):
    with pytest.raises(OrbitCapExceeded) as err:
        orbit(bs_pool[4][0], cap=3)
    assert len(err.value.partial) == 3


def test_orbit_cap_boundary(bs_pool, ns_pool, nns_pool):
    # a cap equal to the orbit size closes it; one less stops at cap members
    for q in (bs_pool[4][17], ns_pool[7][300], nns_pool[8][200]):
        k = len(orbit(q))
        assert len(orbit(q, cap=k)) == k
        with pytest.raises(OrbitCapExceeded) as err:
            orbit(q, cap=k - 1)
        assert len(err.value.partial) == k - 1


def test_reversal_memo_is_exact_and_bounded():
    assert equiv._Reversal(0)[0] == 0
    rev = equiv._Reversal(13)
    for x in range(2 * equiv._REVERSAL_MEMO + 7):
        x %= 1 << 13
        assert rev[x] == int(f"{x:013b}"[::-1], 2)
        assert len(rev) <= equiv._REVERSAL_MEMO


def test_published_quad_orbit_sample_valid():
    # full closure at n=41 is large; the capped partial orbit must still
    # consist of valid quads only
    with pytest.raises(OrbitCapExceeded) as err:
        orbit(known_quad(41), cap=300)
    assert all(verify(m).valid for m in err.value.partial)


def test_canonical_idempotent_and_orbit_constant(ns_pool, nns_pool):
    for pool, seed in ((ns_pool[5], 5), (nns_pool[6], 6)):
        for q in _sample(pool, 8, seed):
            rep = canonical(q)
            assert canonical(rep) == rep
            for member in orbit(q)[:6]:
                assert canonical(member) == rep


def test_canonical_swap_cd_same_class(bs_pool):
    q = bs_pool[4][17]
    assert canonical(q) == canonical(apply(q, SWAP_CD))


def test_dedup_basics(bs_pool):
    q = bs_pool[3][0]
    image = apply(q, Transform.negate("c"))
    assert dedup([q, image]) == [canonical(q)]
    assert dedup([]) == []
    with pytest.raises(MalformedInputError):
        dedup([bs_pool[3][0], bs_pool[4][0]])


def test_dedup_matches_reachability_partition(bs_pool):
    quads = bs_pool[3]
    reps = dedup(quads)
    # partition the brute list by mutual reachability and compare
    seen = set()
    classes = 0
    for q in quads:
        if q.sort_key() in seen:
            continue
        classes += 1
        seen.update(m.sort_key() for m in orbit(q))
    assert len(reps) == classes


def test_profile_action_matches_quad_action(bs_pool, ns_pool, nns_pool):
    """Each signed permutation must equal the row-sum image of its lift."""
    for pool, kind, seed in ((bs_pool[4], Kind.BS, 7), (ns_pool[5], Kind.NS, 8),
                             (ns_pool[4], Kind.NS, 9), (nns_pool[6], Kind.NNS, 10)):
        for q in _sample(pool, 12, seed):
            n = q.n
            base = row_sums(q).as_tuple()
            images = equiv.profile_generators(base, n, kind)
            lifted = [
                apply(q, Transform.negate("c")),
                apply(q, Transform.negate("d")),
                apply(q, Transform.reverse("c")),
                apply(q, Transform.reverse("d")),
                apply(q, SWAP_CD),
                apply(q, NEG_AB_SWAP),
                (apply(q, STRUCT_ALTERNATE) if kind is not Kind.BS
                 else apply(q, ALTERNATE_ALL)),
            ]
            for img, quad_img in zip(images, lifted):
                assert row_sums(quad_img).as_tuple() == img, (kind, n, img)


def test_profile_orbit_contains_identity():
    values = (2, 0, 1, 1, 0, 2, 1, 1)
    members = profile_orbit(values, 1, Kind.BS)
    assert values in members


def test_orbit_cap_must_be_positive(bs_pool):
    q = bs_pool[3][0]
    for cap in (0, -5):
        with pytest.raises(PreconditionError):
            orbit(q, cap=cap)
        with pytest.raises(PreconditionError):
            dedup([q], cap=cap)


# --- pins --------------------------------------------------------------------
#
# sha256 digests recorded before orbits moved from SeqQuad objects onto
# plain sign tuples: the images of apply (and its refusals), the orbit
# member lists in their order, and the partial orbit of a capped closure.

ALL_TRANSFORMS = ([Transform.negate(w) for w in "abcd"]
                  + [Transform.reverse(w) for w in "abcd"]
                  + [SWAP_AB, SWAP_CD, ALTERNATE_ALL, COLUMN_SWAP,
                     STRUCT_NEGATE, STRUCT_REVERSE, STRUCT_ALTERNATE])
APPLY_DIGEST = "cd0ab5eb6b1d0aacd56674e04decfeadc74321bc9305c0591b22c80e75551251"
GENERATORS_DIGEST = "b8ff4506d48961762170a1f239445f28295b42cd49f57e9a3c06034424220b48"
ORBIT_MEMBERS = 3000
ORBIT_DIGEST = "859991928253fd8467cb85ed80fc78a0d880cedca1d8a3b6445da5d27c92c0d8"
PARTIAL_DIGEST = "4ba7aad323feee9f3070caba67f62d4299b244004c28db58e48bbd18ae974c98"


def _text(quad):
    return "|".join(s.text() for s in quad.seqs())


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_apply_images_pinned(small_quads):
    lines = []
    for q in [q for _, q in small_quads] + [known_quad(41)]:
        for t in ALL_TRANSFORMS:
            try:
                lines.append(f"{q.kind.value} {t} {_text(apply(q, t))}")
            except ApplicabilityError as exc:
                lines.append(f"{q.kind.value} {t} ! {exc}")
    assert len(lines) == 15 * 5833
    assert _digest(lines) == APPLY_DIGEST


def test_kind_generators_pinned(small_quads):
    # the image order is the BFS order of every orbit
    lines = [f"{q.kind.value} " + " ".join(_text(img) for img in equiv.kind_generators(q))
             for q in [q for _, q in small_quads] + [known_quad(41)]]
    assert _digest(lines) == GENERATORS_DIGEST


def test_orbit_members_pinned(bs_pool, ns_pool, nns_pool):
    picks = [bs_pool[3][0], bs_pool[4][17], bs_pool[5][100], ns_pool[5][0],
             ns_pool[7][300], ns_pool[8][0], nns_pool[6][0], nns_pool[8][200]]
    lines = [_text(m) for q in picks for m in orbit(q)]
    assert len(lines) == ORBIT_MEMBERS
    assert _digest(lines) == ORBIT_DIGEST


def test_orbit_cap_partial_pinned():
    with pytest.raises(OrbitCapExceeded) as err:
        orbit(known_quad(41), cap=300)
    assert _digest([_text(m) for m in err.value.partial]) == PARTIAL_DIGEST


# first_visits is what searcher._finalize runs: each yielded index with its
# orbit's members in BFS order, under NS_REGROW on the NS oracle quads for
# n <= 8 (one call per n) and under the BS generators on the BS n = 8
# search finds (in task order, as _finalize sees them)
REGROW_VISITS = (16, "43f24e02461b0ee5e2b37630ff8c044d91b8f3817d2ed754fe00a71ca43bd439")
BS8_VISITS = (27, "3f6703013e2095ca4d7213ce519ada9b239c8beceedcd888b065bd6dec743b73")


def _visit_lines(items, n, kind, moves=None):
    return [f"{n} {i} " + " ".join(_text(SeqQuad.from_packed(m, n, kind)) for m in cls)
            for i, cls in equiv.first_visits(items, n, kind, moves=moves)]


def test_first_visits_ns_regrow_pinned(ns_pool):
    lines = [line for n in sorted(ns_pool)
             for line in _visit_lines([q.packed() for q in ns_pool[n]], n, Kind.NS,
                                      equiv.NS_REGROW)]
    assert (len(lines), _digest(lines)) == REGROW_VISITS


@lru_cache(maxsize=1)
def _bs8_finds():
    cfg = SearchConfig(n=8, kind=Kind.BS)
    return [q for task in build_tasks(cfg) for q in run_task(cfg, task)[1]]


def test_first_visits_bs8_search_finds_pinned():
    lines = _visit_lines(_bs8_finds(), 8, Kind.BS)
    assert (len(lines), _digest(lines)) == BS8_VISITS


# --- block classes against the BFS closure -----------------------------------
#
# first_classes (what _finalize, canonical and dedup run) must find the
# classes first_visits finds by BFS: the same first-visit indices, and for
# each class the same canonical, size and member set


def _check_block_classes(items, n, kind, moves=None):
    """Check first_classes against first_visits on ``items``; return the
    most blocks any class spans."""
    bfs = list(equiv.first_visits(items, n, kind, moves=moves))
    blocks = list(equiv.first_classes(items, n, kind, moves=moves))
    assert [i for i, _ in blocks] == [i for i, _ in bfs]
    for (_, members), (_, cls) in zip(bfs, blocks):
        assert cls.canonical == min(members)
        assert cls.size == len(members)
        assert cls.members() == sorted(members)
    return max(len(cls.blocks) for _, cls in blocks)


def _random_quads(n, kind, moves, count, seed):
    """``count`` seeded random packed quads of ``n`` (B derived from A for
    ns/nns): one in twenty a fresh draw, the others the image of an earlier
    one under a random word of ``moves``, so most inputs fall in the class
    of an earlier one and classes are met in a random order."""
    rng = random.Random(seed)
    step = equiv._step(kind, n, moves)
    out = []
    for _ in range(count):
        if not out or rng.random() < 0.05:
            a, b = rng.getrandbits(n + 1), rng.getrandbits(n + 1)
            if kind is not Kind.BS:
                b = a ^ partner_mask(n, kind) | 1
            out.append((a, b, rng.getrandbits(n), rng.getrandbits(n)))
            continue
        q = rng.choice(out)
        for _ in range(8):
            q = rng.choice([img for img in step(q) if img is not None])
        out.append(q)
    return out


def test_block_classes_match_bfs_on_finds_and_published_quads(ns_pool):
    _check_block_classes(_bs8_finds(), 8, Kind.BS)
    for n, quads in ns_pool.items():
        if quads:
            _check_block_classes([q.packed() for q in quads], n, Kind.NS, equiv.NS_REGROW)
    for n in (41, 42, 43):
        q = known_quad(n).packed()
        _check_block_classes([q], n, Kind.BS)
        assert next(equiv.first_classes([q], n, Kind.BS))[1].size == 4096


# the last four lists leave a side of first_classes's split empty: C,D
# moves only, A,B moves only, one coupled move only, and no A,B-only move
RANDOM_CLASS_CASES = [(4, Kind.BS, None), (5, Kind.BS, None), (6, Kind.BS, None),
                      (8, Kind.BS, None), (9, Kind.BS, None), (8, Kind.NS, None),
                      (8, Kind.NS, equiv.NS_REGROW), (8, Kind.NNS, None),
                      (8, Kind.BS, (COLUMN_SWAP, SWAP_CD)),
                      (8, Kind.BS, (SWAP_AB, NEG_AB_SWAP)),
                      (8, Kind.NNS, (ALTERNATE_ALL,)),
                      (7, Kind.NS, (STRUCT_ALTERNATE, COLUMN_SWAP))]


def test_block_classes_match_bfs_on_random_quads():
    spans = [_check_block_classes(_random_quads(n, kind, moves, 1000, seed), n, kind, moves)
             for seed, (n, kind, moves) in enumerate(RANDOM_CLASS_CASES)]
    # a class of more than two blocks: alternation does not map the side
    # orbits onto side orbits, so the general closure is exercised
    assert max(spans) >= 3


def test_orbit_cap_boundary_on_block_classes():
    # the exhaustive BS 4 search: 68 raw finds in classes of 256, 512 and
    # 1,024 members
    cfg = SearchConfig(n=4, kind=Kind.BS)
    raw = search(replace(cfg, orbit_dedup=False)).quads
    visits = list(equiv.first_visits([q.packed() for q in raw], 4, Kind.BS))
    i, members = max(visits, key=lambda v: len(v[1]))
    k, q = len(members), raw[i]
    assert k == 1024
    least = [SeqQuad.from_packed(m, 4, Kind.BS) for m in sorted(members)[:k - 1]]

    fresh = search(cfg)
    capped = search(replace(cfg, orbit_cap=k))
    assert (capped.quads, capped.stages) == (fresh.quads, fresh.stages)
    assert dedup(raw, cap=k) == dedup(raw) == fresh.quads
    assert canonical(q, cap=k) == canonical(q)
    for run in (lambda: search(replace(cfg, orbit_cap=k - 1)),
                lambda: dedup(raw, cap=k - 1), lambda: canonical(q, cap=k - 1)):
        with pytest.raises(OrbitCapExceeded) as err:
            run()
        assert err.value.partial == least  # the least k - 1 members, sorted
