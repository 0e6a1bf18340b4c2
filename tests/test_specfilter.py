import functools
import itertools
import math
import random
import re

import numpy as np
import pytest

from baseseq import numfilter
from baseseq.errors import MalformedInputError, PreconditionError
from baseseq.refdata import known_quad
from baseseq.searcher import SIDE_CD, SearchConfig, expand_candidates
from baseseq.seqcore import Kind, SignSeq, hall_f, packed_autocorr, pair_autocorr
from baseseq.specfilter import (EPS, ThetaGrid, _cos_table, _slack, _spectrum, pair_filter,
                                pair_max, screen_block)


def test_grid_constructors():
    g = ThetaGrid.pi_over(100)
    assert len(g.points) == 200
    assert g.points[0] == pytest.approx(math.pi / 100)
    assert g.points[-1] == pytest.approx(2 * math.pi)
    u = ThetaGrid.uniform(50)
    assert len(u.points) == 50
    assert ThetaGrid.from_spec("l=1000").points[-1] == pytest.approx(2 * math.pi)


def test_grid_validation():
    with pytest.raises(MalformedInputError):
        ThetaGrid(())
    with pytest.raises(MalformedInputError):
        ThetaGrid((1.0, 0.5))
    with pytest.raises(MalformedInputError):
        ThetaGrid((0.0, 1.0))
    with pytest.raises(MalformedInputError):
        ThetaGrid.from_spec("nonsense")
    for make in (ThetaGrid.pi_over, ThetaGrid.uniform):
        with pytest.raises(PreconditionError):
            make(0)


@pytest.mark.parametrize("spec", ["l=abc", "pi-over-", "l=1.5", "l=0", "l=-1", "pi-over-0"])
def test_grid_spec_with_a_bad_count_names_the_spec(spec):
    with pytest.raises(MalformedInputError, match=re.escape(repr(spec))):
        ThetaGrid.from_spec(spec)
    with pytest.raises(MalformedInputError, match=re.escape(repr(spec))):
        SearchConfig(n=7, kind=Kind.NS, grids=(spec,))


EMPTY = SignSeq(())


def _at(a, b, theta):
    """f_a + f_b at the one angle theta, through pair_max."""
    return pair_max(a, b, ThetaGrid((theta,)))


def test_single_angle_pair_max_examples():
    ones5 = SignSeq.from_text("+++++")
    assert _at(ones5, EMPTY, 1e-9) == pytest.approx(25.0)
    pm = SignSeq.from_text("+-")
    assert _at(pm, EMPTY, math.pi) == pytest.approx(4.0)
    assert _at(EMPTY, EMPTY, math.pi) == 0.0


def test_single_angle_pair_max_matches_hall_f():
    # every angle of the grid, mirrored ones (beyond pi) included
    s = SignSeq.from_text("++-+--++-")
    for theta in ThetaGrid.uniform(37).points:
        value = _at(s, EMPTY, theta)
        assert value == pytest.approx(hall_f(s, theta), abs=1e-9)
        assert value >= -EPS


def test_pair_max_matches_autocorrelation_form():
    # the DFT form against the autocorrelation form (hall_f) on random
    # pairs up to paper length, some of unequal length or with an empty
    # partner; rounding near the bound stays within about 1e-10
    rng = random.Random(7)
    grid = ThetaGrid.pi_over(100)
    for _ in range(40):
        la = rng.randint(1, 45)
        lb = rng.choice((la, la - 1, 0))
        a = SignSeq(tuple(rng.choice((1, -1)) for _ in range(la)))
        b = SignSeq(tuple(rng.choice((1, -1)) for _ in range(lb)))
        want = max(hall_f(a, t) + hall_f(b, t) for t in grid.points)
        assert pair_max(a, b, grid) == pytest.approx(want, abs=1e-10)


def test_published_sequence_bounded_by_total():
    quad = known_quad(41)
    assert pair_max(quad.a, EMPTY, ThetaGrid.pi_over(100)) <= 166 + EPS


def test_pair_filter_keeps_published_pairs():
    for n in (41, 42, 43):
        quad = known_quad(n)
        grid = ThetaGrid.pi_over(100)
        assert pair_filter(quad.c, quad.d, 4 * n + 2, grid)
        assert pair_filter(quad.a, quad.b, 4 * n + 2, grid)


def _acf_peak(a, b, grid):
    """max over the grid of f_a + f_b in the autocorrelation form."""
    theta = np.array(grid.points)
    total = np.zeros_like(theta)
    for s in (a, b):
        acf = np.correlate(s.elements, s.elements, "full")[len(s) - 1:] if len(s) else [0]
        j = np.arange(1, len(acf))
        total += acf[0] + 2 * (acf[1:] * np.cos(np.outer(theta, j))).sum(axis=1)
    return float(total.max())


def test_pair_filter_decides_near_the_peak():
    # seeded pairs of lengths 1..64, equal or one apart, at each pair's
    # peak (taken in the autocorrelation form) +- 1e-6 on every grid
    rng = random.Random(20)
    want, got = [], []
    for spec in ("pi-over-100", "l=50", "l=1000"):
        grid = ThetaGrid.from_spec(spec)
        for la in range(1, 65):
            lb = rng.choice((la, la - 1))
            a = SignSeq(tuple(rng.choice((1, -1)) for _ in range(la)))
            b = SignSeq(tuple(rng.choice((1, -1)) for _ in range(lb)))
            peak = _acf_peak(a, b, grid)
            for bound in (peak - 1e-6, peak + 1e-6):
                want.append(bound > peak)
                got.append(pair_filter(a, b, bound, grid))
    assert got == want


GRIDS = ("pi-over-100", "l=50", "l=1000")


def _with_root(rng, length, period):
    """A random sequence of ``length`` signs with f = 0 at theta = 2*pi/period
    (period 2 or 4): runs of ``period // 2`` signs each repeated once, so
    that its computed f may fall slightly below 0 there."""
    x = []
    while len(x) < length:
        run = [rng.choice((1, -1)) for _ in range(period // 2)]
        x += run + run
    return SignSeq(tuple(x[:length]))


def _edge_bounds(a, b, grid):
    """Bounds around each sequence's own peak (+- 1e-7, +- the slack, and a
    limit bound + EPS one float either side of peak - slack) and around the
    pair's peak, where a rounded sum below a sequence's own peak keeps."""
    slack = _slack(max(len(a), len(b)))
    for s in (a, b):
        peak = _spectrum(s.packed, len(s), grid)[1]
        yield from (peak - 1e-7, peak + 1e-7, peak - slack, peak + slack)
        edge = peak - slack - EPS
        yield from (edge, np.nextafter(edge, -math.inf), np.nextafter(edge, math.inf))
    edge = pair_max(a, b, grid) - EPS
    yield from (edge, np.nextafter(edge, -math.inf), np.nextafter(edge, math.inf))


def _decides_as_pair_max(pairs, grid, bounds):
    for a, b in pairs:
        peak = pair_max(a, b, grid)
        for bound in bounds(a, b):
            assert pair_filter(a, b, bound, grid) == (peak <= bound + EPS), (a, b, bound)


def test_pair_filter_decides_as_pair_max():
    # on every grid: seeded pairs of lengths 1..64 and a few longer ones,
    # and pairs that hold a sequence with f = 0 at pi (zero alternated sum)
    # or at pi/2, next to a sequence whose peak lies at that angle; some of
    # the latter add up, rounded, below that peak
    rng = random.Random(23)

    def rand(length):
        return SignSeq(tuple(rng.choice((1, -1)) for _ in range(length)))

    below = 0
    for spec in GRIDS:
        grid = ThetaGrid.from_spec(spec)
        pairs = [(rand(la), rand(rng.choice((la, la - 1))))
                 for la in list(range(1, 65)) + [65, 80, 101]]
        for length in range(4, 65, 4):
            alternating = SignSeq((1, -1) * (length // 2))  # peak L^2 at pi
            quarter = SignSeq((1, 1, -1, -1) * (length // 4))  # peak at pi/2
            zero = _with_root(rng, length, 2)
            assert zero.alt_sum() == 0
            pairs += [(zero, rand(length)), (rand(length), zero), (alternating, zero),
                      (zero, alternating), (zero, zero), (zero, EMPTY)]
            pairs += [(quarter, _with_root(rng, length, 4)) for _ in range(6)]
        _decides_as_pair_max(pairs, grid, lambda a, b: _edge_bounds(a, b, grid))
        below += sum(pair_max(a, b, grid) < _spectrum(a.packed, len(a), grid)[1]
                     for a, b in pairs)
    assert below


@functools.cache
def _paper41_prefix():
    """The first 2,000 candidates behind the published n = 41 mod-6 half."""
    half = numfilter.quad_residue_profile(known_quad(41), 6)
    prof = numfilter.ResidueProfile(6, (0,) * 6, (0,) * 6, half.c_class_sums, half.d_class_sums)
    return tuple(itertools.islice(expand_candidates(prof, 41, Kind.BS, SIDE_CD), 2000))


@pytest.mark.parametrize("spec", GRIDS)
def test_pair_filter_decides_as_pair_max_on_paper41_candidates(spec):
    # at 4n+2 (none keeps) and at the median pair peak (some keep)
    pairs = _paper41_prefix()
    grid = ThetaGrid.from_spec(spec)
    median = sorted(pair_max(a, b, grid) for a, b in pairs)[len(pairs) // 2]
    _decides_as_pair_max(pairs, grid, lambda a, b: (166, median))
    kept = sum(pair_filter(a, b, median, grid) for a, b in pairs)
    assert 0 < kept < len(pairs)


def test_pair_filter_keeps_published_n42_ab_on_its_bound():
    # f_C + f_D is 0 at theta = pi, so f_A + f_B meets 4n+2 = 170 exactly
    q = known_quad(42)
    for spec in ("pi-over-100", "l=50", "l=1000"):
        grid = ThetaGrid.from_spec(spec)
        assert f"{pair_max(q.a, q.b, grid):.9f}" == "170.000000000"
        assert pair_filter(q.a, q.b, 170, grid)
        assert not pair_filter(q.a, q.b, 170 - 1e-6, grid)


def test_pair_filter_rejects_flat_pair():
    ones = SignSeq.from_text("+++++")
    grid = ThetaGrid((0.01, math.pi / 2, math.pi))
    assert not pair_filter(ones, ones, 22, grid)
    assert pair_max(ones, ones, grid) > 22


def test_pair_filter_empty_partner():
    a = SignSeq.from_text("++-")
    grid = ThetaGrid.uniform(10)
    assert pair_filter(a, SignSeq(()), 14, grid)


def test_quad_spectra_sum_to_constant():
    quad = known_quad(42)
    for theta in ThetaGrid.uniform(64).points:
        total = _at(quad.a, quad.b, theta) + _at(quad.c, quad.d, theta)
        assert total == pytest.approx(4 * 42 + 2, abs=1e-9)


def test_quad_spectra_identity_on_oracle_sample(bs_pool, ns_pool):
    grid = ThetaGrid.uniform(32)
    for n, pool in ((5, bs_pool[5]), (7, ns_pool[7])):
        for quad in pool[::max(1, len(pool) // 20)]:
            for theta in grid.points:
                total = _at(quad.a, quad.b, theta) + _at(quad.c, quad.d, theta)
                assert total == pytest.approx(4 * n + 2, abs=1e-9)


def test_grid_refinement_monotonicity():
    # rejection on a subgrid implies rejection on any superset grid
    a = SignSeq.from_text("+++++-")
    b = SignSeq.from_text("++++-+")
    coarse = ThetaGrid.uniform(10)
    fine = ThetaGrid.uniform(50)
    bound = 20.0
    if not pair_filter(a, b, bound, coarse):
        assert not pair_filter(a, b, bound, fine)


@pytest.mark.parametrize("specs", [("pi-over-100",), ("l=50", "l=1000")],
                         ids=["pi-over-100", "l=50+l=1000"])
def test_screen_block_keeps_what_pair_filter_keeps(specs):
    # seeded blocks of equal-length pairs at bound 4L+2, as the search
    # screens them: kept indices equal the pairs every grid's pair_filter keeps
    rng = random.Random(21)
    grids = [ThetaGrid.from_spec(spec) for spec in specs]
    mixed = 0
    for length in range(1, 65):
        pairs = [tuple(SignSeq(tuple(rng.choice((1, -1)) for _ in range(length)))
                       for _ in range(2)) for _ in range(12)]
        rows = np.array([[a.packed, b.packed] for a, b in pairs], dtype=np.uint64)
        bound = 4 * length + 2
        want = [i for i, (a, b) in enumerate(pairs)
                if all(pair_filter(a, b, bound, grid) for grid in grids)]
        keep = screen_block(pair_autocorr(rows, length), bound, grids)
        assert keep.tolist() == want
        mixed += 0 < len(want) < len(pairs)
    assert mixed


def test_screen_block_with_repeated_sequences():
    # blocks of pairs (x, x), of one sequence in both columns and of the
    # same pair twice, at a bound between the peaks: kept indices equal
    # the pairs every grid's pair_filter keeps
    rng = random.Random(22)
    grids = [ThetaGrid.from_spec("l=50"), ThetaGrid.from_spec("l=1000")]
    mixed = 0
    for length in (1, 2, 7, 19, 41, 64):
        x, y, z, w = (SignSeq(tuple(rng.choice((1, -1)) for _ in range(length)))
                      for _ in range(4))
        pairs = [(x, x), (x, y), (y, x), (x, y), (z, z), (w, x), (z, w), (z, w), (y, y)]
        rows = np.array([[a.packed, b.packed] for a, b in pairs], dtype=np.uint64)
        bound = sorted(pair_max(a, b, grids[1]) for a, b in pairs)[len(pairs) // 2]
        want = [i for i, (a, b) in enumerate(pairs)
                if all(pair_filter(a, b, bound, grid) for grid in grids)]
        assert screen_block(pair_autocorr(rows, length), bound, grids).tolist() == want
        mixed += 0 < len(want) < len(pairs)
    assert mixed
    empty = screen_block(pair_autocorr(np.zeros((0, 2), dtype=np.uint64), 41), 166, grids)
    assert empty.tolist() == []


def test_spectrum_memo_is_bounded_read_only_and_warm_equals_cold():
    grid = ThetaGrid.from_spec("pi-over-100")
    q = known_quad(41)
    seqs = (q.a, q.b, q.c, q.d, EMPTY)

    def peaks():
        return [pair_max(a, b, grid) for a in seqs for b in seqs]

    peaks()
    warm = peaks()
    assert _spectrum.cache_info().hits >= 2 * len(warm)
    _spectrum.cache_clear()
    assert peaks() == warm  # the same floats, not merely close ones
    f, peak = _spectrum(q.a.packed, len(q.a), grid)  # the entry holds f and its peak
    assert peak == f.max()
    assert not f.flags.writeable
    with pytest.raises(ValueError):
        f[0] = 0.0
    for packed in range(1100):  # more distinct sequences than the memo holds
        pair_max(SignSeq.from_packed(packed, 12), EMPTY, grid)
    info = _spectrum.cache_info()
    assert info.maxsize is not None and info.currsize == info.maxsize <= 1024
    # a pair whose first sequence alone exceeds the bound never looks up the second
    _spectrum(q.a.packed, len(q.a), grid)
    before = _spectrum.cache_info()
    assert not pair_filter(q.a, SignSeq.from_packed(0b101101, 6), peak - 1, grid)
    after = _spectrum.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_spectrum_entries_equal_the_packed_autocorr_product():
    # sequences of up to 64 signs take the popcount form, longer ones
    # packed_autocorr; both give the same f and peak, bit for bit
    rng = random.Random(29)
    for spec in GRIDS:
        grid = ThetaGrid.from_spec(spec)
        for length in list(range(65)) + [65, 80, 101]:
            for x in (0, (1 << length) - 1, rng.getrandbits(length), rng.getrandbits(length)):
                f, peak = _spectrum(x, length, grid)
                want = (length + np.array(packed_autocorr(x, length)[1:], dtype=float)
                        @ _cos_table(grid, length))
                assert f.tobytes() == want.tobytes(), (spec, length, x)
                assert peak == float(want.max()), (spec, length, x)


def test_spectrum_memo_counts_on_paper41_candidates():
    # what pair_filter looks up on the first 2,000 candidates at 4n+2, as
    # the memo counted it before misses took the popcount form
    grid = ThetaGrid.from_spec("pi-over-100")
    _spectrum.cache_clear()
    assert not any(pair_filter(a, b, 166, grid) for a, b in _paper41_prefix())
    info = _spectrum.cache_info()
    assert (info.hits, info.misses) == (1649, 351)
