import hashlib
import math
import random

import numpy as np
import pytest

from baseseq import oracle
from baseseq.errors import MalformedInputError
from baseseq.refdata import known_quad
from baseseq.seqcore import (Kind, SeqQuad, SignSeq, hall_f, packed_autocorr,
                             packed_from_text, packed_text, paf, pair_autocorr, parse_quads,
                             partner_elements, quad_to_text, row_sums, total_autocorr, verify)


def seq(text):
    return SignSeq.from_text(text)


def test_paf_shift_zero_is_length():
    assert paf(known_quad(41).a, 0) == 42
    assert paf(seq("+"), 0) == 1
    assert paf(SignSeq(()), 5) == 0


def test_paf_hand_examples():
    assert paf(seq("+-+"), 1) == -2
    assert paf(seq("++++"), 3) == 1
    assert paf(seq("+-+"), 7) == 0


def test_paf_negative_shift_rejected():
    with pytest.raises(ValueError):
        paf(seq("++"), -1)


def test_paf_matches_direct_summation():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(0, 12)
        s = SignSeq(tuple(rng.choice((1, -1)) for _ in range(n)))
        for shift in range(n + 2):
            direct = sum(s[j] * s[j + shift] for j in range(n - shift)) if shift < n else 0
            assert paf(s, shift) == direct


def test_paf_reversal_and_negation_invariance():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 14)
        s = SignSeq(tuple(rng.choice((1, -1)) for _ in range(n)))
        for shift in range(n):
            assert paf(s.reversed_(), shift) == paf(s, shift)
            assert paf(s.negated(), shift) == paf(s, shift)


def test_hall_f_examples():
    assert hall_f(seq("++-"), 0.0) == pytest.approx(1.0)
    assert hall_f(seq("++-"), math.pi) == pytest.approx(1.0)
    assert hall_f(seq("++"), math.pi / 2) == pytest.approx(2.0)
    assert hall_f(SignSeq(()), 1.23) == 0.0


def test_hall_f_is_squared_modulus():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 10)
        s = SignSeq(tuple(rng.choice((1, -1)) for _ in range(n)))
        theta = rng.uniform(0, 2 * math.pi)
        z = sum(x * complex(math.cos(j * theta), math.sin(j * theta))
                for j, x in enumerate(s))
        assert hall_f(s, theta) == pytest.approx(abs(z) ** 2, abs=1e-9)
        assert hall_f(s, theta) >= -1e-9
        assert hall_f(s, 0.0) == pytest.approx(s.sum() ** 2)
        assert hall_f(s, math.pi) == pytest.approx(s.alt_sum() ** 2)


def test_signseq_rejects_bad_entries():
    with pytest.raises(MalformedInputError):
        SignSeq((1, 0, -1))
    with pytest.raises(MalformedInputError):
        SignSeq.from_text("+*-")


def test_packed_roundtrip(bs_pool, ns_pool, nns_pool):
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(0, 20)
        s = SignSeq(tuple(rng.choice((1, -1)) for _ in range(n)))
        assert SignSeq.from_packed(s.packed, len(s)) == s
    # the layout: element j of a length-L sequence at bit L-1-j, -1 set
    assert seq("+--").packed == 0b011 and seq("-++").packed == 0b100
    assert SignSeq.from_packed(0b011, 3) == seq("+--")
    for length in range(11):
        for value in range(1 << length):
            s = SignSeq.from_packed(value, length)
            assert len(s) == length and s.packed == value
    # the packed quad orders quads of one n as the concatenated elements
    # with +1 before -1 do
    for pool in (bs_pool, ns_pool, nns_pool):
        for quads in pool.values():
            old = sorted(quads, key=lambda q: tuple(0 if x > 0 else 1
                                                    for part in q.seqs() for x in part))
            assert old == sorted(quads, key=SeqQuad.sort_key) == quads
            assert all(SeqQuad.from_packed(q.packed(), q.n, q.kind) == q for q in quads)


def _bitwise_signs(value, length):
    """Element j is -1 iff bit length-1-j of ``value`` is set."""
    return tuple(-1 if value >> (length - 1 - j) & 1 else 1 for j in range(length))


def test_from_packed_matches_bit_reference():
    # every value at lengths 0..12 and seeded values across byte borders
    rng = random.Random(11)
    cases = [(value, length) for length in range(13) for value in range(1 << length)]
    cases += [(rng.getrandbits(length), length)
              for length in (41, 63, 64, 65, 100) for _ in range(200)]
    cases += [(0, 64), ((1 << 64) - 1, 64), (1 << 64, 65), (1, 100)]
    for value, length in cases:
        s = SignSeq.from_packed(value, length)
        assert type(vars(s)["packed"]) is int  # preset, not computed on access
        want = _bitwise_signs(value, length)
        assert s.elements == want
        assert set(s.elements) <= {1, -1}
        built = SignSeq(want)
        assert type(s.packed) is int and s.packed == built.packed == value
        assert s == built and hash(s) == hash(built)


def test_packed_text_conversions_match_signseq():
    # every value at lengths 1..12 and seeded values across byte borders
    rng = random.Random(13)
    cases = [(value, length) for length in range(1, 13) for value in range(1 << length)]
    cases += [(rng.getrandbits(length), length) for length in (41, 63, 64, 65) for _ in range(200)]
    for value, length in cases:
        text = SignSeq.from_packed(value, length).text()
        assert packed_text(value, length) == text
        assert packed_from_text(text) == SignSeq.from_text(text).packed == value


def test_from_packed_takes_numpy_integers():
    value = (1 << 63) | 0x5A5A_0F0F_1234_8765
    for length in (41, 64):
        v = value & ((1 << length) - 1)
        s = SignSeq.from_packed(np.uint64(v), length)
        assert s.elements == _bitwise_signs(v, length)
        assert type(s.packed) is int and s.packed == v


@pytest.mark.parametrize("length", range(4))
def test_from_packed_rejects_out_of_range(length):
    for value in (-1, 1 << length, 1 << length + 1):
        with pytest.raises(MalformedInputError):
            SignSeq.from_packed(value, length)
    with pytest.raises(MalformedInputError):
        SeqQuad.from_packed((0, 0, 1 << length, 0), length, Kind.BS)


def test_from_packed_block_equals_from_packed():
    # lengths 0..64: 0, the all-minus value 2^L - 1 and seeded values, as
    # one uint64 block each, against from_packed value by value; the block
    # holds every value twice, and equal values share one SignSeq
    rng = random.Random(17)
    for length in range(65):
        values = [0, (1 << length) - 1] + [rng.getrandbits(length) for _ in range(40)]
        values += values[::-1]
        block = SignSeq.from_packed_block(np.array(values, dtype=np.uint64), length)
        assert len(block) == len(values)
        assert all(block[k] is block[-1 - k] for k in range(len(values)))
        for s, value in zip(block, values):
            want = SignSeq.from_packed(value, length)
            assert type(vars(s)["packed"]) is int  # preset, not computed on access
            assert s.packed == want.packed == value
            assert s.elements == want.elements
            assert all(type(x) is int for x in s.elements)
            assert s == want and hash(s) == hash(want)
        assert SignSeq.from_packed_block(np.zeros(0, dtype=np.uint64), length) == []


def test_from_packed_block_rejects_out_of_range():
    with pytest.raises(MalformedInputError):
        SignSeq.from_packed_block(np.zeros(1, dtype=np.uint64), 65)
    for length in (0, 1, 41, 63):
        with pytest.raises(MalformedInputError):
            SignSeq.from_packed_block(np.array([0, 1 << length], dtype=np.uint64), length)


def test_pair_autocorr_sums_packed_autocorr():
    # the values 0 and 2^L-1 against each other and themselves, then
    # seeded values; an empty block has no columns
    rng = random.Random(28)
    for length in range(1, 65):
        top = (1 << length) - 1
        pairs = [(0, 0), (0, top), (top, 0), (top, top)]
        pairs += [(rng.getrandbits(length), rng.getrandbits(length)) for _ in range(16)]
        acf = pair_autocorr(np.array(pairs, np.uint64), length)
        assert acf.dtype.kind == "i" and acf.shape == (length - 1, len(pairs))
        assert acf.T.tolist() == [[u + v for u, v in zip(packed_autocorr(x, length)[1:],
                                                         packed_autocorr(y, length)[1:])]
                                  for x, y in pairs]
        assert pair_autocorr(np.zeros((0, 2), np.uint64), length).shape == (length - 1, 0)


def test_row_sums():
    q = SeqQuad(seq("++"), seq("+-"), seq("+"), seq("-"), Kind.BS)
    sums = row_sums(q)
    assert (sums.a, sums.b, sums.c, sums.d) == (2, 0, 1, -1)
    assert sums.a_alt == 0  # alternation cancels ++
    assert sums.b_alt == 2


def test_quad_length_validation():
    with pytest.raises(MalformedInputError):
        SeqQuad(seq("++"), seq("++"), seq("+"), seq("++"), Kind.BS)
    with pytest.raises(MalformedInputError):
        SeqQuad(seq("+++"), seq("++"), seq("++"), seq("++"), Kind.BS)
    with pytest.raises(MalformedInputError):
        SeqQuad(seq("++"), seq("+-"), seq("+"), seq("+"), Kind.NNS)  # odd n


def test_verify_published_quads():
    for n in (41, 42, 43):
        report = verify(known_quad(n))
        assert report.valid
        assert report.sums.square_sum() == 4 * n + 2


def test_verify_trivial_n0():
    q = SeqQuad(seq("+"), seq("+"), SignSeq(()), SignSeq(()), Kind.BS)
    assert verify(q).valid


def test_verify_flipped_sign_reports_shift():
    q = known_quad(41)
    z = list(q.c.elements)
    z[0] = -z[0]
    bad = SeqQuad(q.a, q.b, SignSeq(tuple(z)), q.d, Kind.BS)
    report = verify(bad)
    assert not report.valid
    assert report.first_failing_shift is not None
    assert 1 <= report.first_failing_shift <= 41


def test_verify_structural_rules():
    # Normal: B equals A except a forced +1/-1 last entry.
    a = seq("+-+")
    good = SeqQuad(a, seq("+--"), seq("+-"), seq("+-"), Kind.NS)
    assert verify(good).structural_violation is None
    bad = SeqQuad(a, seq("-+-"), seq("+-"), seq("+-"), Kind.NS)
    assert verify(bad).structural_violation is not None
    # Near-normal couples with alternating signs.
    nns = SeqQuad(seq("+++"), seq("+--"), seq("++"), seq("++"), Kind.NNS)
    assert verify(nns).structural_violation is None


# (kind, A, B, message): where several rules fail, the first in the order
# last entry of A, last entry of B, coupling from position 1 up is reported
STRUCTURAL_MESSAGES = [
    (Kind.NS, "+--", "+--", "last entry of A must be +1"),
    (Kind.NS, "+--", "-++", "last entry of A must be +1"),
    (Kind.NS, "+-+", "-++", "last entry of B must be -1"),
    (Kind.NS, "+-+", "++-", "coupling B[i]=A[i] fails at position 2"),
    (Kind.NS, "+-+", "-+-", "coupling B[i]=A[i] fails at position 1"),
    (Kind.NNS, "++-", "+--", "last entry of A must be +1"),
    (Kind.NNS, "+++", "+-+", "last entry of B must be -1"),
    (Kind.NNS, "+++", "++-", "coupling B[i]=(-1)^(i-1)A[i] fails at position 2"),
    (Kind.NNS, "+++", "-+-", "coupling B[i]=(-1)^(i-1)A[i] fails at position 1"),
    (Kind.NNS, "+-+", "++-", None),
]


@pytest.mark.parametrize("kind,a,b,message", STRUCTURAL_MESSAGES)
def test_verify_structural_messages_pinned(kind, a, b, message):
    quad = SeqQuad(seq(a), seq(b), seq("++"), seq("+-"), kind)
    assert verify(quad).structural_violation == message


def test_verify_includes_shift_n():
    # At shift n only A and B contribute; a pair violating it must fail.
    q = SeqQuad(seq("++"), seq("++"), seq("+"), seq("+"), Kind.BS)
    report = verify(q)
    assert not report.valid
    assert report.first_failing_shift == 1


def _reference_report(quad):
    """(valid, first failing shift, structural violation) element by element:
    direct summation of the autocorrelations and ``partner_elements``."""
    n, kind = quad.n, quad.kind
    structural = None
    if kind is not Kind.BS:
        a, b = quad.a.elements, quad.b.elements
        want = partner_elements(a, kind)
        rule = "B[i]=A[i]" if kind is Kind.NS else "B[i]=(-1)^(i-1)A[i]"
        wrong = [j for j in range(n) if b[j] != want[j]]
        if a[n] != 1:
            structural = "last entry of A must be +1"
        elif b[n] != -1:
            structural = "last entry of B must be -1"
        elif wrong:
            structural = f"coupling {rule} fails at position {wrong[0] + 1}"
    seqs = [x.elements for x in quad.seqs()]
    failing = next((s for s in range(1, n + 1)
                    if sum(x[j] * x[j + s] for x in seqs for j in range(len(x) - s))), None)
    return structural is None and failing is None, failing, structural


def _verify_inputs(bs_pool, ns_pool, nns_pool):
    """Every oracle quad at n <= 4, a seeded sample at n = 5, 7, 8 and the
    published quads, each followed by every single-sign flip of it."""
    quads = [*oracle.brute_bs(0), *oracle.brute_structured(0, Kind.NS),
             *oracle.brute_structured(0, Kind.NNS)]
    for pool in (bs_pool, ns_pool, nns_pool):
        quads += [q for n, qs in sorted(pool.items()) if n <= 4 for q in qs]
    rng = random.Random(17)
    for pool, n in ((bs_pool, 5), (ns_pool, 5), (ns_pool, 7), (ns_pool, 8), (nns_pool, 8)):
        quads += rng.sample(pool[n], 6)
    quads += [known_quad(n) for n in (41, 42, 43)]
    for quad in quads:
        yield quad
        packed = quad.packed()
        for i, length in enumerate(map(len, quad.seqs())):
            for bit in range(length):
                flipped = list(packed)
                flipped[i] ^= 1 << bit
                yield SeqQuad.from_packed(tuple(flipped), quad.n, quad.kind)


def test_verify_matches_elementwise_reference_pinned(bs_pool, ns_pool, nns_pool):
    lines = []
    for quad in _verify_inputs(bs_pool, ns_pool, nns_pool):
        report = verify(quad)
        got = (report.valid, report.first_failing_shift, report.structural_violation)
        assert got == _reference_report(quad), quad
        lines.append(f"{quad.kind.value} {' '.join(s.text() for s in quad.seqs())} "
                     f"{got} {report.sums}")
    assert len(lines) == 46_077
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "1badb80f586372c7660ca2ecf8e5f5e7c83ec3c72e318ae942ff6c93fda14c73")


def test_total_autocorr_shift0(bs_pool):
    for n, quads in bs_pool.items():
        for q in quads[:5]:
            assert total_autocorr(q, 0) == 4 * n + 2


def test_quad_text_roundtrip():
    q = known_quad(42)
    text = quad_to_text(q)
    back = parse_quads(text, Kind.BS)
    assert back == [q]


def test_parse_wrapped_and_multiple():
    body = "X=++-\n+\nY=+-+-\nZ=+++\nW=-++\n\nX=++++\nY=++++\nZ=+++\nW=+++\n"
    quads = parse_quads(body, Kind.BS)
    assert len(quads) == 2
    assert quads[0].a == seq("++-+")


def test_parse_quads_errors():
    with pytest.raises(MalformedInputError):
        parse_quads("Y=++\n", Kind.BS)
    with pytest.raises(MalformedInputError):
        parse_quads("X=++\nY=++\nZ=+\n", Kind.BS)
    with pytest.raises(MalformedInputError):
        parse_quads("", Kind.BS)
