import hashlib
import itertools
import json
import multiprocessing
import os
import random
import types

import numpy as np
import pytest

from baseseq import numfilter, searcher
from baseseq.errors import PreconditionError, ResumeError, SearchInterrupted
from baseseq.numfilter import ResidueProfile, quad_residue_profile
from baseseq.refdata import known_quad
from baseseq.searcher import (SIDE_AB, SIDE_CD, SearchConfig, _complete_block,
                              _line_digest, backtrack_complete, build_tasks,
                              candidate_matches_profile, expand_candidates,
                              load_checkpoint, residue_halves, search)
from baseseq.seqcore import Kind, SeqQuad, SignSeq, row_sums, verify
from baseseq.specfilter import ThetaGrid, pair_filter


def test_config_defaults_and_validation():
    cfg = SearchConfig(n=5, kind=Kind.BS)
    assert cfg.start_side == SIDE_CD and cfg.moduli == (3, 6)
    cfg = SearchConfig(n=6, kind=Kind.NNS)
    assert cfg.start_side == SIDE_AB and cfg.moduli == (6,)
    assert SearchConfig(n=7, kind=Kind.NS).grids == ("l=50", "l=1000")
    with pytest.raises(PreconditionError):
        SearchConfig(n=5, kind=Kind.NNS)
    with pytest.raises(PreconditionError):
        SearchConfig(n=7, kind=Kind.NS, start_side=SIDE_CD)
    with pytest.raises(PreconditionError, match="start_side must be AB or CD"):
        SearchConfig(n=5, kind=Kind.BS, start_side="XY")
    with pytest.raises(PreconditionError, match="even moduli"):
        SearchConfig(n=6, kind=Kind.NNS, moduli=(3, 6))
    for moduli in ((1,), (0,), (1, 2)):
        with pytest.raises(PreconditionError, match="must be >= 2"):
            SearchConfig(n=14, kind=Kind.NS, moduli=moduli)
    with pytest.raises(PreconditionError):
        SearchConfig(n=5, kind=Kind.BS, moduli=(3, 5))
    with pytest.raises(PreconditionError):
        SearchConfig(n=0, kind=Kind.BS)
    assert SearchConfig(n=5, kind=Kind.BS).digest() != \
        SearchConfig(n=6, kind=Kind.BS).digest()


def test_config_rejects_orbit_cap_below_one():
    for cap in (0, -5):
        with pytest.raises(PreconditionError, match="orbit_cap"):
            SearchConfig(n=5, kind=Kind.BS, orbit_cap=cap)


def test_expand_candidates_single_element():
    # n=1: one position per side, fully determined by its class sums
    prof = ResidueProfile(6, (0,) * 6, (0,) * 6, (1, 0, 0, 0, 0, 0),
                          (-1, 0, 0, 0, 0, 0))
    pairs = list(expand_candidates(prof, 1, Kind.BS, SIDE_CD))
    assert pairs == [(SignSeq((1,)), SignSeq((-1,)))]


def test_expand_candidates_empty_class_must_owe_nothing():
    # n=1 with m=6: classes 2..6 have no position, so a nonzero sum there
    # cannot be paid
    prof = ResidueProfile(6, (0,) * 6, (0,) * 6, (1, 0, 0, 0, 0, 2),
                          (-1, 0, 0, 0, 0, 0))
    assert list(expand_candidates(prof, 1, Kind.BS, SIDE_CD)) == []
    pair = (SignSeq((1,)), SignSeq((-1,)))
    assert not candidate_matches_profile(pair, prof, 1, Kind.BS, SIDE_CD)


def _brute_expansion(n: int, kind: Kind, side: str, m: int) -> dict:
    """Every fill of the level options in product order, grouped by its
    class sums (those of x, then those of y)."""
    length, levels = numfilter.column_cases(n, side, kind)
    groups = {}
    for fill in itertools.product(*(options for _, options in levels)):
        x, y = [0] * length, [0] * length
        for (positions, _), option in zip(levels, fill):
            for k, p in enumerate(positions):
                x[p], y[p] = option[k], option[len(positions) + k]
        key = tuple(tuple(sum(seq[c::m]) for c in range(m)) for seq in (x, y))
        groups.setdefault(key, []).append((tuple(x), tuple(y)))
    return groups


# sequence lengths 1-9 on each side; the C,D side ignores the kind, so it
# is run once, as BS
EXPANSION_CASES = [(n, kind, side) for side in (SIDE_AB, SIDE_CD)
                   for kind in (Kind.BS, Kind.NS, Kind.NNS)
                   for n in range(1, 10)
                   if 1 <= (n + 1 if side == SIDE_AB else n) <= 9
                   and not (kind is Kind.NNS and n % 2)
                   and not (side == SIDE_CD and kind is not Kind.BS)]


@pytest.mark.parametrize("n,kind,side", EXPANSION_CASES,
                         ids=[f"{k.value}{n}-{s}" for n, k, s in EXPANSION_CASES])
def test_expand_candidates_equals_brute_force(n, kind, side):
    length = n + 1 if side == SIDE_AB else n
    for m in (1, 2, 3, 6):
        groups = _brute_expansion(n, kind, side, m)
        targets = set(groups)
        if length < m:  # the last class has no position, so a target
            # with its sum moved by 2 cannot be paid
            targets |= {((*tx[:-1], tx[-1] + 2), ty) for tx, ty in groups}
        for tx, ty in sorted(targets):
            zero = (0,) * m
            prof = (ResidueProfile(m, zero, zero, tx, ty) if side == SIDE_CD
                    else ResidueProfile(m, tx, ty, zero, zero))
            stream = [(x.elements, y.elements)
                      for x, y in expand_candidates(prof, n, kind, side)]
            assert stream == groups.get((tx, ty), [])


def test_expand_candidates_exhaustive_and_admissible(ns_pool):
    quad = ns_pool[5][0]
    prof = quad_residue_profile(quad, 6)
    stream = list(expand_candidates(prof, 5, Kind.NS, SIDE_AB))
    assert (quad.a, quad.b) in stream
    assert len(set(stream)) == len(stream)
    for first, second in stream:
        assert candidate_matches_profile((first, second), prof, 5, Kind.NS, SIDE_AB)
        assert numfilter.sequence_class_sums(first, 6) == prof.a_class_sums


def test_oracle_quads_are_members_of_both_sides(ns_pool, nns_pool):
    # an odd length (n + 1 for even n, n for odd n) reaches the middle level
    for pool in (ns_pool, nns_pool):
        for n, quads in pool.items():
            for quad in quads:
                for m in (1, 2, 3, 6):
                    prof = quad_residue_profile(quad, m)
                    assert candidate_matches_profile((quad.a, quad.b), prof, n,
                                                     quad.kind, SIDE_AB)
                    assert candidate_matches_profile((quad.c, quad.d), prof, n,
                                                     quad.kind, SIDE_CD)


def test_expand_candidates_published_membership():
    quad = known_quad(41)
    prof6 = quad_residue_profile(quad, 6)
    assert candidate_matches_profile((quad.c, quad.d), prof6, 41, Kind.BS, SIDE_CD)
    first = list(itertools.islice(
        expand_candidates(prof6, 41, Kind.BS, SIDE_CD), 2))
    assert len(first) == 2


def test_backtrack_complete_oracle_crosscheck(bs_pool):
    for quad in bs_pool[4][:20]:
        found = backtrack_complete((quad.c, quad.d), 4, Kind.BS, SIDE_AB, mode="all")
        assert (quad.a, quad.b) in [(q.a, q.b) for q in found]
        for q in found:
            assert verify(q).valid
            assert (q.c, q.d) == (quad.c, quad.d)


def test_backtrack_complete_structured(ns_pool):
    for quad in ns_pool[7][:10]:
        found = backtrack_complete((quad.a, quad.b), 7, Kind.NS, SIDE_CD, mode="all")
        assert (quad.c, quad.d) in [(q.c, q.d) for q in found]


def test_backtrack_first_mode_returns_at_most_one(bs_pool):
    quad = bs_pool[5][0]
    found = backtrack_complete((quad.c, quad.d), 5, Kind.BS, SIDE_AB, mode="first")
    assert len(found) == 1 and verify(found[0]).valid
    with pytest.raises(PreconditionError):
        backtrack_complete((quad.c, quad.d), 5, Kind.BS, SIDE_AB, mode="some")


def test_backtrack_flat_pair_has_no_completion():
    ones = SignSeq.from_text("+++++")
    assert backtrack_complete((ones, ones), 5, Kind.BS, SIDE_AB, mode="all") == []
    # a fixed pair of the other side's length is refused, whichever side is filled
    with pytest.raises(PreconditionError, match="fixed C,D pair must have length n"):
        backtrack_complete((ones, ones), 4, Kind.BS, SIDE_AB)
    with pytest.raises(PreconditionError, match="fixed A,B pair must have length n"):
        backtrack_complete((ones, ones), 5, Kind.BS, SIDE_CD)


def test_backtrack_sum_targets_restrict(bs_pool):
    quad = bs_pool[4][0]
    sums = row_sums(quad)
    found = backtrack_complete((quad.c, quad.d), 4, Kind.BS, SIDE_AB, mode="all",
                               sum_targets=(sums.a, sums.b, sums.a_alt, sums.b_alt))
    assert found
    for q in found:
        got = row_sums(q)
        assert (got.a, got.b, got.a_alt, got.b_alt) == \
            (sums.a, sums.b, sums.a_alt, sums.b_alt)


def test_complete_block_yields_packed_halves(bs_pool, ns_pool, nns_pool):
    # the kernel yields each fill as SignSeq.packed of x and of y
    cases = ([((q.c, q.d), 5, Kind.BS, SIDE_AB) for q in bs_pool[5][::300]]
             + [((q.a, q.b), 5, Kind.BS, SIDE_CD) for q in bs_pool[5][::300]]
             + [((q.a, q.b), 7, Kind.NS, SIDE_CD) for q in ns_pool[7][::200]]
             + [((q.c, q.d), 8, Kind.NNS, SIDE_AB) for q in nns_pool[8][::60]])
    for (f1, f2), n, kind, side in cases:
        fixed = np.array([(f1.packed, f2.packed)], np.uint64)
        fills = [(x, y) for _, xs, ys in _complete_block(n, kind, side, fixed, None)
                 for x, y in zip(xs.tolist(), ys.tolist())]
        halves = [q.seqs()[:2] if side == SIDE_AB else q.seqs()[2:]
                  for q in backtrack_complete((f1, f2), n, kind, side)]
        assert fills and fills == [(x.packed, y.packed) for x, y in halves]


def _fill_sums(quad, side):
    s = row_sums(quad)
    return (s.a, s.b, s.a_alt, s.b_alt) if side == SIDE_AB else (s.c, s.d, s.c_alt, s.d_alt)


def _quad_key(quad):
    return "|".join(s.text() for s in quad.seqs())


def _brute_complete(fixed, n, kind, side):
    """Every fill pair of ``side`` that makes a valid quad with ``fixed``."""
    length = n + 1 if side == SIDE_AB else n
    seqs = [SignSeq(s) for s in itertools.product((1, -1), repeat=length)]
    out = []
    for x, y in itertools.product(seqs, repeat=2):
        quad = SeqQuad(x, y, *fixed, kind) if side == SIDE_AB else SeqQuad(*fixed, x, y, kind)
        if verify(quad).valid:
            out.append(quad)
    return out


def test_backtrack_complete_equals_brute_force(bs_pool, nns_pool):
    # both sides and both fill-length parities: BS n=4 and n=5 filled on
    # A,B (length 5, 6) and C,D (length 4, 5), NNS and NS n=6 on C,D
    cases = []
    for n in (4, 5):
        for quad in bs_pool[n][::len(bs_pool[n]) // 3]:
            cases += [((quad.c, quad.d), n, Kind.BS, SIDE_AB, _fill_sums(quad, SIDE_AB)),
                      ((quad.a, quad.b), n, Kind.BS, SIDE_CD, _fill_sums(quad, SIDE_CD))]
    for quad in nns_pool[6][::16]:
        cases.append(((quad.a, quad.b), 6, Kind.NNS, SIDE_CD, _fill_sums(quad, SIDE_CD)))
    # no NS quad of length 6 exists (n = 8k-2); these A,B pairs complete to nothing
    ns_ab = ResidueProfile(1, (1,), (-1,), (0,), (0,))
    for pair in list(expand_candidates(ns_ab, 6, Kind.NS, SIDE_AB))[:3]:
        cases.append((pair, 6, Kind.NS, SIDE_CD, None))
    assert len(cases) == 22
    for fixed, n, kind, side, sums in cases:
        brute = _brute_complete(fixed, n, kind, side)
        found = backtrack_complete(fixed, n, kind, side)
        assert sorted(map(_quad_key, found)) == sorted(map(_quad_key, brute))
        if sums is None:
            assert found == []
            continue
        pinned = backtrack_complete(fixed, n, kind, side, sum_targets=sums)
        assert pinned and sorted(map(_quad_key, pinned)) == \
            sorted(_quad_key(q) for q in brute if _fill_sums(q, side) == sums)
        odd = (sums[0] + 1,) + sums[1:]  # a row sum of the wrong parity
        assert backtrack_complete(fixed, n, kind, side, sum_targets=odd) == []


def test_residue_halves_cover_small_quads(ns_pool, bs_pool):
    for n, pool, kind in ((5, bs_pool[5], Kind.BS), (7, ns_pool[7], Kind.NS)):
        cfg = SearchConfig(n=n, kind=kind)
        for quad in pool[:6]:
            halves = residue_halves(cfg, row_sums(quad))
            mine = quad_residue_profile(quad, 6)
            half = ((mine.c_class_sums, mine.d_class_sums) if kind is Kind.BS
                    else (mine.a_class_sums, mine.b_class_sums))
            assert half in halves


@pytest.mark.slow
def test_residue_halves_cover_published_quad_full_scale():
    """Unabridged Step 2+3 for the published quad's sum profile."""
    quad = known_quad(41)
    cfg = SearchConfig(n=41, kind=Kind.BS)
    halves = residue_halves(cfg, row_sums(quad))
    mine = quad_residue_profile(quad, 6)
    assert (mine.c_class_sums, mine.d_class_sums) in halves
    assert len(halves) == 20904
    assert hashlib.sha256(repr(halves).encode()).hexdigest() == \
        "825131027b302d4ab93a56c0edbb4237f7e024ab8208e43a3ac4a96dabf97003"


def test_build_tasks_deterministic():
    cfg = SearchConfig(n=5, kind=Kind.NS)
    assert build_tasks(cfg) == build_tasks(cfg)


# sha256 of repr(build_tasks(cfg)), recorded before the residue stage
# memoized coarse halves and signatures; any change to the task list or
# its order changes these
PINNED_TASKS = [
    (SearchConfig(n=8, kind=Kind.BS), 481,
     "3ddeccede25161b46e78913c02b09bd222ccae95473aae5fc78089d0594d0ac7"),
    (SearchConfig(n=6, kind=Kind.BS, start_side=SIDE_AB), 44,
     "8cc0f0d3f69e286c66f073f571313b26ae7cb26e11d4db8d4c3720b4f87f5942"),
    (SearchConfig(n=9, kind=Kind.NS), 8,
     "5afc3fa56fff8d9d888d84745e1f73a500de286303ed620c3aa93a92efe57ae3"),
    (SearchConfig(n=8, kind=Kind.NNS), 20,
     "8eb22735538889dc5508fcedf90db5527c647559421a9eb972d312a0a7729a10"),
    # many derived partner halves on the A,B side
    (SearchConfig(n=24, kind=Kind.NS), 144,
     "5c656fea676773531c0814e23e9c1820000477776d4cb7de01365142b1f300f8"),
    (SearchConfig(n=24, kind=Kind.NNS), 282,
     "ff7a18a066c9c84ce09674bd442c655991d41091d49bc4e32d96775aeac3fc6e"),
    # three moduli: the middle level goes through the full refinement
    (SearchConfig(n=6, kind=Kind.BS, moduli=(3, 6, 12)), 36,
     "8db805ef75f3db0fa875ac7a131cba7b81be1c6f4441510388ee951ecabef86a"),
    (SearchConfig(n=8, kind=Kind.NNS, moduli=(2, 4, 8)), 42,
     "8d49761f99a8cd081741a943b099da31132a34bff0feb4d7e8a87147d0b14ee3"),
]


@pytest.mark.parametrize("cfg,count,digest", PINNED_TASKS,
                         ids=[f"{c.kind.value}{c.n}-{c.start_side}-"
                              + ".".join(map(str, c.moduli)) for c, _, _ in PINNED_TASKS])
def test_build_tasks_pinned(cfg, count, digest):
    tasks = build_tasks(cfg)
    assert len(tasks) == count
    assert hashlib.sha256(repr(tasks).encode()).hexdigest() == digest


def test_bs_search_from_ab_side_agrees():
    for n in (3, 4):
        default = search(SearchConfig(n=n, kind=Kind.BS))
        flipped = search(SearchConfig(n=n, kind=Kind.BS, start_side=SIDE_AB))
        assert [q.sort_key() for q in flipped.quads] == \
            [q.sort_key() for q in default.quads]


def test_search_first_mode_stops_early():
    res = search(SearchConfig(n=4, kind=Kind.NS, first_solution_only=True))
    assert len(res.quads) >= 1
    assert res.certificate["mode"] == "first"
    assert res.certificate["exhaustive"] is False
    assert all(verify(q).valid for q in res.quads)


def test_search_no_dedup_lists_raw_finds():
    # Raw finds are the per-profile completions; for near-normal quads the
    # class representatives are a subset of them (for normal quads the
    # bar/hat/star classes are finer than the profile classes, so the
    # relation flips there).
    res = search(SearchConfig(n=4, kind=Kind.NNS, orbit_dedup=False))
    dedup_res = search(SearchConfig(n=4, kind=Kind.NNS))
    assert len(res.quads) >= len(dedup_res.quads)
    assert all(verify(q).valid for q in res.quads)


def test_search_certificate_accounts_tasks():
    res = search(SearchConfig(n=5, kind=Kind.NS))
    cert = res.certificate
    assert cert["tasks"] == cert["tasks_completed"]
    assert cert["exhaustive"] is True
    assert cert["classes"] == len(res.quads)
    assert cert["candidates"] >= cert["psd_rejected"]


@pytest.mark.parametrize("n,kind,listed", [(4, Kind.BS, 19), (7, Kind.NS, 6), (4, Kind.NNS, 4)])
def test_certificate_counts_every_sum_profile(n, kind, listed):
    """Profiles that yield no task count too."""
    assert len(numfilter.sum_profiles(n, kind)) == listed
    assert search(SearchConfig(n=n, kind=kind)).certificate["sum_profiles"] == listed


def test_checkpoint_interrupt_resume(tmp_path):
    path = os.fspath(tmp_path / "ck.json")
    cfg = SearchConfig(n=7, kind=Kind.NS)
    with pytest.raises(SearchInterrupted):
        search(cfg, checkpoint_path=path, interrupt_after_tasks=2)
    resumed = search(cfg, checkpoint_path=path)
    fresh = search(cfg)
    assert [q.sort_key() for q in resumed.quads] == [q.sort_key() for q in fresh.quads]
    assert resumed.stages == fresh.stages
    assert resumed.certificate == fresh.certificate


def _journal(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _write_journal(path, entries) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(json.dumps(e) + "\n" for e in entries))


def _read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _same_result(a, b) -> bool:
    return ([q.sort_key() for q in a.quads] == [q.sort_key() for q in b.quads]
            and a.stages == b.stages and a.certificate == b.certificate)


def test_checkpoint_without_counters_is_refused(tmp_path):
    path = os.fspath(tmp_path / "ck.json")
    cfg = SearchConfig(n=5, kind=Kind.NS)
    with pytest.raises(SearchInterrupted):
        search(cfg, checkpoint_path=path, interrupt_after_tasks=1)
    tasks_total = len(build_tasks(cfg))
    results, stats = load_checkpoint(path, cfg, tasks_total)
    assert len(results) == 1 and set(stats) == {"candidates", "psd_rejected",
                                                 "completions"}
    header, line = _journal(path)
    line["stats"]["candidates"] += 1
    _write_journal(path, [header, line])
    with pytest.raises(ResumeError, match="digest"):
        load_checkpoint(path, cfg, tasks_total)
    line["stats"]["candidates"] = "1"
    _write_journal(path, [header, line])
    with pytest.raises(ResumeError, match="counters"):
        load_checkpoint(path, cfg, tasks_total)
    del line["stats"]
    _write_journal(path, [header, line])
    with pytest.raises(ResumeError, match="counters"):
        search(cfg, checkpoint_path=path)


def test_checkpoint_rejects_other_config(tmp_path):
    path = os.fspath(tmp_path / "ck.json")
    cfg = SearchConfig(n=5, kind=Kind.NS)
    with pytest.raises(SearchInterrupted):
        search(cfg, checkpoint_path=path, interrupt_after_tasks=1)
    other = SearchConfig(n=5, kind=Kind.NS, first_solution_only=True)
    with pytest.raises(ResumeError):
        load_checkpoint(path, other, len(build_tasks(other)))
    with pytest.raises(ResumeError):
        search(other, checkpoint_path=path)
    # a header of this configuration with another task count
    header, *lines = _journal(path)
    tasks_total = len(build_tasks(cfg))
    assert header["tasks_total"] == tasks_total
    _write_journal(path, [dict(header, tasks_total=tasks_total + 1), *lines])
    blob = _read_bytes(path)
    with pytest.raises(ResumeError, match="task count does not match"):
        load_checkpoint(path, cfg, tasks_total)
    with pytest.raises(ResumeError, match="task count does not match"):
        search(cfg, checkpoint_path=path)
    assert _read_bytes(path) == blob


def test_fresh_checkpoint_full_run(tmp_path):
    path = os.fspath(tmp_path / "none.json")
    cfg = SearchConfig(n=4, kind=Kind.NNS)
    res = search(cfg, checkpoint_path=path)
    assert res.certificate["exhaustive"] is True
    assert os.path.exists(path)


def test_checkpoint_version_is_checked(tmp_path):
    path = os.fspath(tmp_path / "ck.json")
    cfg = SearchConfig(n=5, kind=Kind.NS)
    with pytest.raises(SearchInterrupted):
        search(cfg, checkpoint_path=path, interrupt_after_tasks=1)
    tasks_total = len(build_tasks(cfg))
    header, *lines = _journal(path)
    assert header["version"] == 3
    for version in (1, 2, None):
        _write_journal(path, [dict(header, version=version), *lines])
        with pytest.raises(ResumeError, match="version"):
            load_checkpoint(path, cfg, tasks_total)
    # a version 2 checkpoint was one JSON object with no newline
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(header, version=2, results=[], stats={}), fh)
    with pytest.raises(ResumeError, match="version"):
        load_checkpoint(path, cfg, tasks_total)


# --- order pins --------------------------------------------------------------
#
# sha256 digests of the candidate and completion streams, recorded before
# the DFS kernel was split into an expansion and a completion routine;
# the order of each stream is part of the byte-identity of search output.

def _pairs_digest(pairs) -> str:
    blob = "\n".join(f"{x.text()}|{y.text()}" for x, y in pairs)
    return hashlib.sha256(blob.encode()).hexdigest()


def _quads_digest(quads) -> str:
    blob = "\n".join("|".join(s.text() for s in q.seqs()) for q in quads)
    return hashlib.sha256(blob.encode()).hexdigest()


# NS n=7 on A,B (even length, derived partner) at modulus 1; BS n=8 on
# C,D (even length) at modulus 3
NS7_AB = ResidueProfile(1, (-2,), (-4,), (0,), (0,))
BS8_CD = ResidueProfile(3, (0,) * 3, (0,) * 3, (-1, 1, 0), (-1, 1, 0))
BS8_SUMS = (-5, -3, -5, -3)  # a, b, a', b' of a BS n=8 sum profile

PINNED_STREAMS = [
    (NS7_AB, 7, Kind.NS, SIDE_AB, 21,
     "e3ec0f77e1a098e3521efe9471bdd771796e4c80a687a421d707ac31182fdf1b"),
    (BS8_CD, 8, Kind.BS, SIDE_CD, 84,
     "974275cb4d9c1c210f9a841b5f3a6b5e24312cb9144a9d0ab7eee714de6cad07"),
]


@pytest.mark.parametrize("prof,n,kind,side,count,digest", PINNED_STREAMS,
                         ids=["ns7-AB", "bs8-CD"])
def test_expand_candidates_order_pinned(prof, n, kind, side, count, digest):
    stream = list(expand_candidates(prof, n, kind, side))
    assert len(stream) == count
    assert _pairs_digest(stream) == digest


def test_expand_candidates_order_pinned_published_half():
    # odd length 41: the middle position is placed last
    prof = quad_residue_profile(known_quad(41), 6)
    stream = list(itertools.islice(expand_candidates(prof, 41, Kind.BS, SIDE_CD), 2000))
    assert len(stream) == 2000
    assert _pairs_digest(stream) == \
        "982e4d3ce1348e92179831093a9ecd4997bd1ec560cd9d9f7d6a9eb34cc0c402"


# sha256 of the expansion streams of every task of a search, concatenated
# in task order, recorded before expansion moved onto the level kernel
PINNED_TASK_STREAMS = [
    (SearchConfig(n=16, kind=Kind.NS), 11862,
     "81e37477ec18c8bed4cd88b9813e47c782701bec6303461d8af84f2ccde65212"),
    (SearchConfig(n=16, kind=Kind.NNS), 11574,
     "45b1f4c65ee46c640d08100a0ce0c2c75baff045de0793ffd1593ed04b5410da"),
    (SearchConfig(n=9, kind=Kind.BS), 4676,
     "c72ff98fccfd7c70700fe28cb6336864e4c4a159caef40a69cbca18d5a3901c2"),
]


@pytest.mark.parametrize("cfg,count,digest", PINNED_TASK_STREAMS,
                         ids=["ns16", "nns16", "bs9"])
def test_expand_candidates_task_streams_pinned(cfg, count, digest):
    m = cfg.moduli[-1]
    zero = (0,) * m
    stream = []
    for *_, (tx, ty) in build_tasks(cfg):
        prof = (ResidueProfile(m, tx, ty, zero, zero) if cfg.start_side == SIDE_AB
                else ResidueProfile(m, zero, zero, tx, ty))
        stream += expand_candidates(prof, cfg.n, cfg.kind, cfg.start_side)
    assert len(stream) == count
    assert _pairs_digest(stream) == digest


def test_backtrack_complete_order_pinned():
    # the filled sides have odd length (9 and 7), so the middle is covered
    bs_pairs = list(expand_candidates(BS8_CD, 8, Kind.BS, SIDE_CD))
    plain = [q for p in bs_pairs for q in backtrack_complete(p, 8, Kind.BS, SIDE_AB)]
    pinned = [q for p in bs_pairs
              for q in backtrack_complete(p, 8, Kind.BS, SIDE_AB, sum_targets=BS8_SUMS)]
    # b one step off: only the middle position's sum test rejects these
    off = [q for p in bs_pairs
           for q in backtrack_complete(p, 8, Kind.BS, SIDE_AB, sum_targets=(-5, -1, -5, -1))]
    ns_pairs = list(expand_candidates(NS7_AB, 7, Kind.NS, SIDE_AB))
    ns = [q for p in ns_pairs for q in backtrack_complete(p, 7, Kind.NS, SIDE_CD)]
    assert (len(plain), len(pinned), len(off), len(ns)) == (960, 8, 0, 192)
    assert _quads_digest(plain) == \
        "2cfd14d06d48fd1c80390d50f77a46c161fd965d6b72f8a5b13ef02d3e72be74"
    assert _quads_digest(pinned) == \
        "b7f3432e0aed29ef576d39a226b8a67b6b539062e2b7d22576f68d03be81b463"
    assert _quads_digest(ns) == \
        "784872b96e9c3eacbd932f6620986e3f8c2f140e6f16cba091c8248095e66b28"


# BS n=7 C,D (odd length) and NNS n=8 A,B (derived partner) at modulus 1;
# the sums are those of the BS n=7 profile (-4,-2,-3,-1,-4,-2,-1,-3) and
# the NNS n=8 profile (1,-1,-4,-4,1,-1,-4,-4)
BS7_CD = ResidueProfile(1, (0,), (0,), (-3,), (-1,))
NNS8_AB = ResidueProfile(1, (1,), (-1,), (0,), (0,))


def test_backtrack_complete_order_pinned_even_length():
    # the filled sides have even length 8, so the last pair checks every
    # shift still open and there is no middle position
    bs_pairs = list(expand_candidates(BS7_CD, 7, Kind.BS, SIDE_CD))
    bs = [q for p in bs_pairs for q in backtrack_complete(p, 7, Kind.BS, SIDE_AB)]
    bs_pinned = [q for p in bs_pairs
                 for q in backtrack_complete(p, 7, Kind.BS, SIDE_AB,
                                             sum_targets=(-4, -2, -4, -2))]
    nns_pairs = list(expand_candidates(NNS8_AB, 8, Kind.NNS, SIDE_AB))
    nns = [q for p in nns_pairs for q in backtrack_complete(p, 8, Kind.NNS, SIDE_CD)]
    nns_pinned = [q for p in nns_pairs
                  for q in backtrack_complete(p, 8, Kind.NNS, SIDE_CD,
                                              sum_targets=(-4, -4, -4, -4))]
    assert (len(bs_pairs), len(nns_pairs)) == (179, 36)
    assert (len(bs), len(bs_pinned), len(nns), len(nns_pinned)) == (3248, 72, 64, 4)
    assert _quads_digest(bs) == \
        "c1aff0237eb1077c26831250fea12407968460446643f98c95ea5463d251d816"
    assert _quads_digest(bs_pinned) == \
        "73d665598ac7e27e1ba6fa02be389f2ce9c1e39f40f10884403db5d44dec1f00"
    assert _quads_digest(nns) == \
        "620fb3a235b93b3f987446b8a1a203050b34fdddb6c5ee3d67bbc20dfd3a956a"
    assert _quads_digest(nns_pinned) == \
        "7df3700f493ad7e7502a1799ad70522195d1504fa99a1e57515c72b42fd687c2"


def test_first_mode_same_on_one_and_two_workers():
    one = search(SearchConfig(n=8, kind=Kind.NNS, first_solution_only=True))
    two = search(SearchConfig(n=8, kind=Kind.NNS, first_solution_only=True,
                              worker_count=2))
    assert one.quads and one.certificate["tasks_completed"] < one.certificate["tasks"]
    assert [q.sort_key() for q in two.quads] == [q.sort_key() for q in one.quads]
    assert two.stages == one.stages
    assert two.certificate == one.certificate


def test_pool_is_no_larger_than_the_pending_tasks(tmp_path, monkeypatch):
    fork, sizes = multiprocessing.get_context("fork"), []

    def pool(size):
        sizes.append(size)
        return fork.Pool(size)

    monkeypatch.setattr(searcher, "multiprocessing", types.SimpleNamespace(
        get_context=lambda method: types.SimpleNamespace(Pool=pool)))
    monkeypatch.setattr(searcher.os, "cpu_count", lambda: 8)
    one, eight = SearchConfig(n=3, kind=Kind.BS), SearchConfig(n=3, kind=Kind.BS, worker_count=8)
    assert len(build_tasks(one)) == 3
    fresh = search(one)
    assert _same_result(search(eight), fresh)
    path = os.fspath(tmp_path / "ck.json")
    with pytest.raises(SearchInterrupted):
        search(one, checkpoint_path=path, interrupt_after_tasks=2)
    assert _same_result(search(eight, checkpoint_path=path), fresh)
    assert sizes == [3]  # the one task left on resume runs in process


def test_pool_is_capped_at_the_cpu_count(monkeypatch):
    sizes = []

    class InProcessPool:  # records its size and starts no process
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, items, chunksize):
            return map(func, items)

    monkeypatch.setattr(searcher, "multiprocessing", types.SimpleNamespace(
        get_context=lambda method: types.SimpleNamespace(Pool=InProcessPool)))
    cfg = SearchConfig(n=3, kind=Kind.BS, worker_count=10000)
    fresh = search(SearchConfig(n=3, kind=Kind.BS))
    for cpus, expected in ((2, [2]), (None, [])):
        sizes.clear()
        monkeypatch.setattr(searcher.os, "cpu_count", lambda cpus=cpus: cpus)
        assert _same_result(search(cfg), fresh)
        assert sizes == expected, cpus


def test_checkpoint_interval_interrupt_resume(tmp_path):
    path = os.fspath(tmp_path / "ck.json")
    cfg = SearchConfig(n=7, kind=Kind.NS, checkpoint_interval=3)
    with pytest.raises(SearchInterrupted):
        search(cfg, checkpoint_path=path, interrupt_after_tasks=2)
    results, _stats = load_checkpoint(path, cfg, len(build_tasks(cfg)))
    assert len(results) == 2
    resumed = search(cfg, checkpoint_path=path)
    fresh = search(cfg)
    assert [q.sort_key() for q in resumed.quads] == [q.sort_key() for q in fresh.quads]
    assert resumed.stages == fresh.stages
    assert resumed.certificate == fresh.certificate


# sha256 of the search records (quad text and stage, in output order),
# recorded before orbit dedup moved onto plain sign tuples
PINNED_SEARCHES = [
    (SearchConfig(n=7, kind=Kind.BS), 17,
     "2ca39b53d7cbccecc23c7087bb8626fb688878ccb8c84fbf53b4b07c0d325949"),
    # NS 12 is the one where the column_swap of the NS regrow changes stages
    (SearchConfig(n=12, kind=Kind.NS), 256,
     "3714b2e9b97a068dc1ae8e057d471820bf3eff960a1b8dc83ded460ba6d03396"),
    (SearchConfig(n=15, kind=Kind.NS), 32,
     "6887d804bc7a3015b79cb4087f3b0be70502601b3051b89b807707e0b0e75520"),
    (SearchConfig(n=14, kind=Kind.NNS), 25,
     "9baf886d037787dcc7cac8137b24a482aefe007dd1a594941f903e069c4f3d1f"),
    (SearchConfig(n=8, kind=Kind.BS, orbit_dedup=False), 2528,
     "1fdba5c3c41ef1d0fe5745c8a37059146a79c8cac2b5ef01f50ba9abe03250ff"),
]


@pytest.mark.parametrize("cfg,count,digest", PINNED_SEARCHES,
                         ids=["bs7", "ns12", "ns15", "nns14", "bs8-raw"])
def test_search_records_pinned(cfg, count, digest):
    res = search(cfg)
    lines = ["|".join(s.text() for s in q.seqs()) + f" {stage}"
             for q, stage in zip(res.quads, res.stages)]
    assert len(lines) == count
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


def test_checkpoint_that_is_not_an_object_is_refused(tmp_path):
    path = os.fspath(tmp_path / "ck.json")
    cfg = SearchConfig(n=5, kind=Kind.NS)
    tasks_total = len(build_tasks(cfg))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[1,2]\n")
    with pytest.raises(ResumeError, match="object"):
        load_checkpoint(path, cfg, tasks_total)
    with pytest.raises(ResumeError):
        search(cfg, checkpoint_path=path)
    # a task line that is not an object
    os.remove(path)
    with pytest.raises(SearchInterrupted):
        search(cfg, checkpoint_path=path, interrupt_after_tasks=1)
    header, _line = _journal(path)
    _write_journal(path, [header, [1, 2]])
    with pytest.raises(ResumeError, match="object"):
        load_checkpoint(path, cfg, tasks_total)


def test_checkpoint_without_whole_header_is_refused(tmp_path):
    path = os.fspath(tmp_path / "ck.json")
    cfg = SearchConfig(n=5, kind=Kind.NS)
    tasks_total = len(build_tasks(cfg))
    for blob in (b"", b'{"version": 3', b"\xff\xfe\n"):
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(ResumeError):
            load_checkpoint(path, cfg, tasks_total)
        with pytest.raises(ResumeError):
            search(cfg, checkpoint_path=path)
        assert _read_bytes(path) == blob


# --- the append-only journal -------------------------------------------------


# size, line count and sha256 of the whole journal of a fresh NS n = 7
# run with a checkpoint
NS7_JOURNAL = (3839, 15, "db6efeec455bdfc94dac0646626acdfb88c36d9d1ee07ca912c0fd6eb8a2b053")


def test_checkpoint_journal_bytes_pinned(tmp_path):
    path = os.fspath(tmp_path / "ck.json")
    search(SearchConfig(n=7, kind=Kind.NS), checkpoint_path=path)
    blob = _read_bytes(path)
    assert (len(blob), blob.count(b"\n"), hashlib.sha256(blob).hexdigest()) == NS7_JOURNAL


def test_checkpoint_journal_is_append_only(tmp_path):
    path = os.fspath(tmp_path / "ck.json")
    cfg = SearchConfig(n=7, kind=Kind.NS)
    tasks_total = len(build_tasks(cfg))
    k = 5
    with pytest.raises(SearchInterrupted):
        search(cfg, checkpoint_path=path, interrupt_after_tasks=k)
    early = _read_bytes(path)
    assert early.endswith(b"\n") and early.count(b"\n") == 1 + k
    search(cfg, checkpoint_path=path)
    final = _read_bytes(path)
    assert final.startswith(early)
    assert final.count(b"\n") == 1 + tasks_total
    results, _stats = load_checkpoint(path, cfg, tasks_total)
    assert len(results) == tasks_total


def test_checkpoint_torn_last_line_is_dropped(tmp_path):
    path = os.fspath(tmp_path / "ck.json")
    cfg = SearchConfig(n=7, kind=Kind.NS)
    tasks_total = len(build_tasks(cfg))
    with pytest.raises(SearchInterrupted):
        search(cfg, checkpoint_path=path, interrupt_after_tasks=4)
    whole = _read_bytes(path)
    with open(path, "wb") as fh:
        fh.write(whole[:-7])  # a crash in the middle of the fourth task's append
    # a refusal leaves the torn file as it was
    other = SearchConfig(n=7, kind=Kind.NS, orbit_dedup=False)
    with pytest.raises(ResumeError):
        load_checkpoint(path, other, tasks_total)
    assert _read_bytes(path) == whole[:-7]
    results, _stats = load_checkpoint(path, cfg, tasks_total)
    assert len(results) == 3
    assert _read_bytes(path) == whole[:whole.rindex(b"\n", 0, -1) + 1]
    with open(path, "wb") as fh:
        fh.write(whole[:-7])
    resumed = search(cfg, checkpoint_path=path)
    assert _same_result(resumed, search(cfg))
    assert _read_bytes(path).count(b"\n") == 1 + tasks_total
    assert len(load_checkpoint(path, cfg, tasks_total)[0]) == tasks_total


def test_checkpoint_damaged_lines_are_refused(tmp_path):
    path = os.fspath(tmp_path / "ck.json")
    cfg = SearchConfig(n=7, kind=Kind.NS)
    tasks_total = len(build_tasks(cfg))
    with pytest.raises(SearchInterrupted):
        search(cfg, checkpoint_path=path, interrupt_after_tasks=4)
    original = _read_bytes(path)
    header, *lines = original.split(b"\n")[:-1]
    edited = json.loads(lines[1])
    edited["stats"]["completions"] += 1
    damaged = [
        ("digest mismatch at task 1", [header, lines[0], json.dumps(edited).encode(), *lines[2:]]),
        ("digest mismatch at task 1", [header, lines[0], *lines[2:]]),  # a deleted line
        ("does not parse", [header, lines[0], b"not json", *lines[2:]]),
        ("digest mismatch at task 0", [header, lines[1], lines[0], *lines[2:]]),
    ]
    for match, parts in damaged:
        blob = b"".join(part + b"\n" for part in parts)
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(ResumeError, match=match):
            load_checkpoint(path, cfg, tasks_total)
        with pytest.raises(ResumeError, match=match):
            search(cfg, checkpoint_path=path)
        assert _read_bytes(path) == blob


def test_checkpoint_finds_are_validated(tmp_path):
    # each edited line carries a recomputed digest, so only the check of
    # the finds themselves can refuse it
    path = os.fspath(tmp_path / "ck.json")
    cfg = SearchConfig(n=4, kind=Kind.BS)
    tasks_total = len(build_tasks(cfg))
    with pytest.raises(SearchInterrupted):
        search(cfg, checkpoint_path=path, interrupt_after_tasks=3)
    header, *lines = _journal(path)
    edits = [
        5,                                  # not a list of finds
        [["++", "+-", "+", "-"]],           # a valid quad, but of n = 1
        [["+++++", "+++++", "++++", "++++"]],  # right lengths, not a base quad
    ]
    for finds in edits:
        line = dict(lines[1], finds=finds)
        line["digest"] = _line_digest(cfg.digest(), 1, finds, line["stats"])
        _write_journal(path, [header, lines[0], line, *lines[2:]])
        blob = _read_bytes(path)
        with pytest.raises(ResumeError, match="task 1"):
            load_checkpoint(path, cfg, tasks_total)
        with pytest.raises(ResumeError, match="task 1"):
            search(cfg, checkpoint_path=path)
        assert _read_bytes(path) == blob


def test_near_normal_checkpoint_refuses_a_base_quad(tmp_path, bs_pool):
    # a valid base quad of n = 4 whose B breaks the near-normal partner
    # rule; the line carries a recomputed digest, so only the check of the
    # finds as near-normal quads can refuse it
    quad = next(q for q in bs_pool[4] if (verify(SeqQuad(*q.seqs(), Kind.NNS))
                                          .structural_violation or "").startswith("coupling"))
    path = os.fspath(tmp_path / "ck.json")
    cfg = SearchConfig(n=4, kind=Kind.NNS)
    tasks_total = len(build_tasks(cfg))
    with pytest.raises(SearchInterrupted):
        search(cfg, checkpoint_path=path, interrupt_after_tasks=2)
    header, *lines = _journal(path)
    finds = [[seq.text() for seq in quad.seqs()]]
    line = dict(lines[1], finds=finds)
    line["digest"] = _line_digest(cfg.digest(), 1, finds, line["stats"])
    _write_journal(path, [header, lines[0], line])
    blob = _read_bytes(path)
    with pytest.raises(ResumeError, match="task 1 has a find that is not a valid nns quad"):
        load_checkpoint(path, cfg, tasks_total)
    with pytest.raises(ResumeError, match="task 1"):
        search(cfg, checkpoint_path=path)
    assert _read_bytes(path) == blob


def test_checkpoint_longer_than_task_list_is_refused(tmp_path):
    # the extra line carries a recomputed digest, so only the line count
    # can refuse it
    path = os.fspath(tmp_path / "ck.json")
    cfg = SearchConfig(n=4, kind=Kind.BS)
    tasks_total = len(build_tasks(cfg))
    search(cfg, checkpoint_path=path)
    header, *lines = _journal(path)
    extra = dict(lines[-1], finds=[])
    extra["digest"] = _line_digest(cfg.digest(), tasks_total, [], extra["stats"])
    _write_journal(path, [header, *lines, extra])
    blob = _read_bytes(path)
    with pytest.raises(ResumeError, match=f"{tasks_total + 1} task lines"):
        load_checkpoint(path, cfg, tasks_total)
    with pytest.raises(ResumeError, match="task lines"):
        search(cfg, checkpoint_path=path)
    assert _read_bytes(path) == blob


def test_checkpoint_two_stage_resume_on_two_workers(tmp_path):
    path = os.fspath(tmp_path / "ck.json")
    cfg = SearchConfig(n=6, kind=Kind.BS, worker_count=2)
    tasks_total = len(build_tasks(cfg))
    with pytest.raises(SearchInterrupted):
        search(cfg, checkpoint_path=path, interrupt_after_tasks=20)
    with pytest.raises(SearchInterrupted):
        search(cfg, checkpoint_path=path, interrupt_after_tasks=50)
    assert len(load_checkpoint(path, cfg, tasks_total)[0]) == 50
    resumed = search(cfg, checkpoint_path=path)
    assert _same_result(resumed, search(SearchConfig(n=6, kind=Kind.BS)))
    assert _read_bytes(path).count(b"\n") == 1 + tasks_total


# --- screen and certificate pins -----------------------------------------------
#
# Recorded before the screen moved from the autocorrelation to the DFT of
# the sign vector and before expansion tabulated its innermost levels:
# every keep/reject decision and every certificate counter must stay.

SCREEN_GRIDS = ("pi-over-100", "l=50", "l=1000")


def _random_pairs(count: int, seed: int) -> list[tuple[SignSeq, SignSeq, int]]:
    """Seeded random pairs of lengths 8-42 (the second one shorter by 0 or
    1), each with the bound 4L+2 of its longer length L."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        length = rng.randint(8, 42)
        other = length - rng.randint(0, 1)
        x = SignSeq(tuple(rng.choice((1, -1)) for _ in range(length)))
        y = SignSeq(tuple(rng.choice((1, -1)) for _ in range(other)))
        out.append((x, y, 4 * length + 2))
    return out


def _screen_inputs() -> list[tuple[SignSeq, SignSeq, int]]:
    published = quad_residue_profile(known_quad(41), 6)
    streams = [(list(expand_candidates(NS7_AB, 7, Kind.NS, SIDE_AB)), 7),
               (list(expand_candidates(BS8_CD, 8, Kind.BS, SIDE_CD)), 8),
               (list(itertools.islice(
                   expand_candidates(published, 41, Kind.BS, SIDE_CD), 2000)), 41)]
    inputs = [(x, y, 4 * n + 2) for pairs, n in streams for x, y in pairs]
    return inputs + _random_pairs(2000, seed=20240611)


# kept pairs per grid, and the sha256 of the keep bits ("1" keep, "0"
# reject), grid by grid in SCREEN_GRIDS order, inputs in _screen_inputs order
SCREEN_KEPT = [198, 236, 195]
SCREEN_BITS_SHA256 = "fd06590b5467818fb519a45888f1707ddc1a0ebcaaa3dd5962b9751ffce40f8f"


def test_pair_filter_decisions_pinned():
    inputs = _screen_inputs()
    assert len(inputs) == 21 + 84 + 2000 + 2000
    bits = "".join("1" if pair_filter(x, y, bound, ThetaGrid.from_spec(spec)) else "0"
                   for spec in SCREEN_GRIDS for x, y, bound in inputs)
    assert [bits[k * len(inputs):(k + 1) * len(inputs)].count("1")
            for k in range(len(SCREEN_GRIDS))] == SCREEN_KEPT
    assert hashlib.sha256(bits.encode()).hexdigest() == SCREEN_BITS_SHA256


# certificate counters of cheap exhaustive searches
PINNED_CERTIFICATES = [
    (SearchConfig(n=8, kind=Kind.BS), (1440, 890, 2528, 27)),
    (SearchConfig(n=15, kind=Kind.NS), (5442, 5340, 16, 32)),
    (SearchConfig(n=14, kind=Kind.NNS), (1224, 1003, 64, 25)),
]


@pytest.mark.parametrize("cfg,counts", PINNED_CERTIFICATES,
                         ids=["bs8", "ns15", "nns14"])
def test_search_certificate_counters_pinned(cfg, counts):
    cert = search(cfg).certificate
    assert (cert["candidates"], cert["psd_rejected"], cert["completions"],
            cert["classes"]) == counts
    assert cert["exhaustive"] is True and cert["tasks_completed"] == cert["tasks"]


# counters (candidates, psd_rejected, completions, tasks_completed) and the
# record count and sha256 of first-mode searches: the counters stop at the
# candidate with the first verified find, so they pin where a first-mode
# task stops as well as its find
PINNED_FIRST_MODE = [
    (SearchConfig(n=10, kind=Kind.BS, first_solution_only=True), (6, 2, 1, 4), 1,
     "9f9d7afaf2b43e4b8d9cfb5bfa6b596db0a7627962cbc367ba7e5d0df2d0fad3"),
    (SearchConfig(n=15, kind=Kind.NS, first_solution_only=True), (2062, 2027, 1, 53), 16,
     "91b32b5fdbbb8ec9c4da873f16fa3ba985505384f1fa3972913152ee7f4a5509"),
    (SearchConfig(n=14, kind=Kind.NNS, first_solution_only=True), (87, 74, 1, 9), 1,
     "1388a18bdaed0258211bf5471d660931de048da71d79f0c5d004cc73984239fa"),
    # no NS quad of n = 17 exists, so every task runs to its end
    (SearchConfig(n=17, kind=Kind.NS, first_solution_only=True), (23742, 23542, 0, 172), 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


def _records_digest(res) -> tuple[int, str]:
    lines = ["|".join(s.text() for s in q.seqs()) + f" {stage}"
             for q, stage in zip(res.quads, res.stages)]
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("cfg,counts,records,digest", PINNED_FIRST_MODE,
                         ids=["bs10", "ns15", "nns14", "ns17"])
def test_first_mode_certificate_pinned(cfg, counts, records, digest):
    res = search(cfg)
    cert = res.certificate
    assert (cert["candidates"], cert["psd_rejected"], cert["completions"],
            cert["tasks_completed"]) == counts
    assert _records_digest(res) == (records, digest)


# exhaustive NS 16 and NNS 16: (candidates, psd_rejected, completions, tasks)
PINNED_EXHAUSTIVE_16 = [
    (SearchConfig(n=16, kind=Kind.NS), (11862, 11594, 248, 112), 992),
    (SearchConfig(n=16, kind=Kind.NNS), (11574, 10538, 136, 144), 80),
]


@pytest.mark.parametrize("cfg,counts,classes", PINNED_EXHAUSTIVE_16, ids=["ns16", "nns16"])
def test_exhaustive_16_counters_pinned(cfg, counts, classes):
    cert = search(cfg).certificate
    assert (cert["candidates"], cert["psd_rejected"], cert["completions"],
            cert["tasks_completed"]) == counts
    assert cert["classes"] == classes and cert["tasks"] == cert["tasks_completed"]


# --- block size and frontier bound ---------------------------------------------
#
# run_task screens and completes _BLOCK candidates at a time, and the
# completion kernel expands at most _FRONTIER rows at a time; neither may
# change a record, a stage or a certificate counter.

BLOCK_CASES = [
    SearchConfig(n=9, kind=Kind.BS),
    SearchConfig(n=15, kind=Kind.NS, first_solution_only=True),
    SearchConfig(n=14, kind=Kind.NNS, first_solution_only=True),
]


@pytest.mark.parametrize("cfg", BLOCK_CASES, ids=["bs9", "ns15-first", "nns14-first"])
def test_block_size_changes_nothing(cfg, monkeypatch):
    default = search(cfg)
    for size in (1, 7):
        monkeypatch.setattr(searcher, "_BLOCK", size)
        assert _same_result(search(cfg), default), size


def test_frontier_bound_keeps_completion_order(monkeypatch):
    # one parent's options per expansion step: the smallest bound there is
    width = len(searcher._kernel_rows(8, Kind.BS, SIDE_AB, 2)[1][0])
    monkeypatch.setattr(searcher, "_FRONTIER", width)
    test_backtrack_complete_order_pinned()
    test_backtrack_complete_order_pinned_even_length()
    # the bound governs the order of expansion too
    for prof, n, kind, side, count, digest in PINNED_STREAMS:
        test_expand_candidates_order_pinned(prof, n, kind, side, count, digest)
    test_expand_candidates_order_pinned_published_half()
    for cfg, count, digest in PINNED_TASK_STREAMS:
        test_expand_candidates_task_streams_pinned(cfg, count, digest)


def test_search_refuses_n_above_63():
    with pytest.raises(PreconditionError, match="n <= 63"):
        SearchConfig(n=64, kind=Kind.BS)
    assert SearchConfig(n=63, kind=Kind.BS).n == 63
    seq = SignSeq((1,) * 64)
    with pytest.raises(PreconditionError, match="n <= 63"):
        backtrack_complete((seq, seq), 64, Kind.BS, SIDE_AB)


def test_expansion_refuses_malformed_profiles():
    pair = (SignSeq((1,) * 5), SignSeq((1,) * 5))
    zero = (0,) * 3
    malformed = [ResidueProfile(0, (), (), (), ()),             # no class at all
                 ResidueProfile(3, zero, zero, (1, 0), (1, 0)),  # short vectors
                 ResidueProfile(3, (0,) * 4, zero, zero, zero)]  # a long one
    for prof in malformed:
        with pytest.raises(PreconditionError, match="residue profile"):
            list(expand_candidates(prof, 5, Kind.BS, SIDE_CD))
        with pytest.raises(PreconditionError, match="residue profile"):
            candidate_matches_profile(pair, prof, 5, Kind.BS, SIDE_CD)
    prof = ResidueProfile(2, (0, 0), (0, 0), (0, 0), (0, 0))
    with pytest.raises(PreconditionError, match="n <= 63"):
        list(expand_candidates(prof, 64, Kind.BS, SIDE_CD))


def test_expand_candidates_at_the_largest_length():
    # n = 63: 63 signs per uint64, and 32 positions in the even class mod 2.
    # Every C,D pair but the first has both positions in one class here and
    # pays 0 mod 4 over C and D, so C+D of the even class is pair 1's sum
    # mod 4.  The pair takes pair 1's first option: the class budgets
    # cannot see a wrong residue, and the walk would first search the whole
    # empty subtree of the first pair-1 option.
    rng = random.Random(63)
    length, levels = numfilter.column_cases(63, SIDE_CD, Kind.BS)
    c, d = [0] * length, [0] * length
    for t, (positions, options) in enumerate(levels):
        option = rng.choice(options) if t else options[0]
        for k, p in enumerate(positions):
            c[p], d[p] = option[k], option[len(positions) + k]
    pair = (SignSeq(tuple(c)), SignSeq(tuple(d)))
    prof = ResidueProfile(2, (0, 0), (0, 0),
                          *(numfilter.sequence_class_sums(seq, 2) for seq in pair))
    assert candidate_matches_profile(pair, prof, 63, Kind.BS, SIDE_CD)
    stream = list(itertools.islice(expand_candidates(prof, 63, Kind.BS, SIDE_CD), 1000))
    assert len(stream) == len(set(stream)) == 1000
    assert all(candidate_matches_profile(p, prof, 63, Kind.BS, SIDE_CD) for p in stream)
