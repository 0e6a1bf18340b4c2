import hashlib

import pytest

from baseseq.cli import ResultRecord
from baseseq.equiv import orbit
from baseseq.errors import PreconditionError
from baseseq.oracle import brute_bs, brute_structured
from baseseq.seqcore import Kind, SeqQuad, SignSeq, row_sums, verify


def test_caps_enforced():
    with pytest.raises(PreconditionError):
        brute_bs(7)
    with pytest.raises(PreconditionError):
        brute_structured(9, Kind.NS)
    with pytest.raises(PreconditionError):
        brute_structured(3, Kind.NNS)
    with pytest.raises(PreconditionError):
        brute_structured(4, Kind.BS)


def test_brute_bs_n0_contains_all_plus():
    quads = brute_bs(0)
    target = SeqQuad(SignSeq.from_text("+"), SignSeq.from_text("+"),
                     SignSeq(()), SignSeq(()), Kind.BS)
    assert target in quads


def test_brute_bs_n1_nonempty():
    quads = brute_bs(1)
    assert quads
    sample = SeqQuad(SignSeq.from_text("++"), SignSeq.from_text("+-"),
                     SignSeq.from_text("+"), SignSeq.from_text("+"), Kind.BS)
    assert sample in quads


def test_all_outputs_verify(bs_pool, ns_pool, nns_pool):
    for pool in (bs_pool, ns_pool, nns_pool):
        for quads in pool.values():
            for q in quads:
                assert verify(q).valid


def test_square_sum_law_holds(bs_pool):
    for n, quads in bs_pool.items():
        for q in quads:
            assert row_sums(q).square_sum() == 4 * n + 2


def test_structured_existence_pattern(ns_pool, nns_pool):
    assert ns_pool[6] == []          # the 8k-2 obstruction
    for n in (1, 2, 3, 4, 5, 7, 8):
        assert ns_pool[n]
    for n in (2, 4, 6, 8):
        assert nns_pool[n]


def test_outputs_closed_under_equivalence(ns_pool, nns_pool, bs_pool):
    cases = [(ns_pool[5], 0), (nns_pool[4], 0), (bs_pool[3], 5)]
    for pool, idx in cases:
        keys = {q.sort_key() for q in pool}
        for member in orbit(pool[idx]):
            assert member.sort_key() in keys


def test_matches_naive_enumeration():
    """Cross-check the meet-in-the-middle join against plain filtering."""
    for n in (1, 2):
        naive = []
        for xa in range(1 << (n + 1)):
            for xb in range(1 << (n + 1)):
                for xc in range(1 << n):
                    for xd in range(1 << n):
                        q = SeqQuad(SignSeq.from_packed(xa, n + 1),
                                    SignSeq.from_packed(xb, n + 1),
                                    SignSeq.from_packed(xc, n),
                                    SignSeq.from_packed(xd, n), Kind.BS)
                        if verify(q).valid:
                            naive.append(q)
        naive.sort(key=SeqQuad.sort_key)
        assert naive == brute_bs(n)


def test_deterministic_order(ns_pool):
    again = brute_structured(7, Kind.NS)
    assert again == ns_pool[7]
    keys = [q.sort_key() for q in again]
    assert keys == sorted(keys)


# count and sha256 of the oracle's record lines (as `baseseq oracle`
# prints them), n by n in output order: BS n = 0..5, NS n = 0..8 and
# NNS n = 0, 2, 4, 6, 8
ORACLE_RECORDS = {
    Kind.BS: (5412, "fe1bad456c91965cbb6cc9a4e1f1df649ae07768b67c000f6ad75d306de96fe4"),
    Kind.NS: (1913, "9dc4cd7b8b35cc0f36f301092e9cba7b2d00cdb28640c0d7d9465638ffe2712c"),
    Kind.NNS: (481, "7e91938450742adef7922318f98a8c61db361b32a0d77e4039c2c872ce68c652"),
}


def test_oracle_records_pinned(bs_pool, ns_pool, nns_pool):
    pools = {Kind.BS: {0: brute_bs(0), **bs_pool},
             Kind.NS: {0: brute_structured(0, Kind.NS), **ns_pool},
             Kind.NNS: {0: brute_structured(0, Kind.NNS), **nns_pool}}
    for kind, pool in pools.items():
        lines = [ResultRecord.from_quad(q, canonical=False, stage="oracle").line()
                 for n in sorted(pool) for q in pool[n]]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert (len(lines), digest) == ORACLE_RECORDS[kind]
