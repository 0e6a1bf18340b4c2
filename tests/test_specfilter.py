import math
import random
import re

import numpy as np
import pytest

from baseseq.errors import MalformedInputError
from baseseq.refdata import known_quad
from baseseq.searcher import SearchConfig
from baseseq.seqcore import Kind, SignSeq, hall_f
from baseseq.specfilter import EPS, ThetaGrid, pair_filter, pair_max, screen_block


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


@pytest.mark.parametrize("spec", ["l=abc", "pi-over-", "l=1.5"])
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
        rows = np.array([[a.elements, b.elements] for a, b in pairs], dtype=float)
        bound = 4 * length + 2
        want = [i for i, (a, b) in enumerate(pairs)
                if all(pair_filter(a, b, bound, grid) for grid in grids)]
        keep = screen_block(rows, bound, grids)
        assert keep.tolist() == want
        mixed += 0 < len(want) < len(pairs)
    assert mixed
