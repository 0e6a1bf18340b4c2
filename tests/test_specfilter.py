import math
import random
import re

import numpy as np
import pytest

from baseseq.errors import MalformedInputError
from baseseq.refdata import known_quad
from baseseq.searcher import SearchConfig
from baseseq.seqcore import Kind, SignSeq, hall_f
from baseseq.specfilter import EPS, ThetaGrid, pair_filter, pair_max, psd_vector


def test_grid_constructors():
    g = ThetaGrid.pi_over(100)
    assert g.label == "pi-over-100"
    assert len(g.points) == 200
    assert g.points[0] == pytest.approx(math.pi / 100)
    assert g.points[-1] == pytest.approx(2 * math.pi)
    u = ThetaGrid.uniform(50)
    assert len(u.points) == 50 and u.label == "l=50"
    assert ThetaGrid.from_spec("l=1000").points[-1] == pytest.approx(2 * math.pi)


def test_grid_validation():
    with pytest.raises(MalformedInputError):
        ThetaGrid((), "empty")
    with pytest.raises(MalformedInputError):
        ThetaGrid((1.0, 0.5), "unsorted")
    with pytest.raises(MalformedInputError):
        ThetaGrid((0.0, 1.0), "zero not allowed")
    with pytest.raises(MalformedInputError):
        ThetaGrid.from_spec("nonsense")


@pytest.mark.parametrize("spec", ["l=abc", "pi-over-", "l=1.5"])
def test_grid_spec_with_a_bad_count_names_the_spec(spec):
    with pytest.raises(MalformedInputError, match=re.escape(repr(spec))):
        ThetaGrid.from_spec(spec)
    with pytest.raises(MalformedInputError, match=re.escape(repr(spec))):
        SearchConfig(n=7, kind=Kind.NS, grids=(spec,))


def test_psd_vector_examples():
    ones5 = SignSeq.from_text("+++++")
    tiny = ThetaGrid((1e-9,), "near-zero")
    assert psd_vector(ones5, tiny)[0] == pytest.approx(25.0)
    pm = SignSeq.from_text("+-")
    grid_pi = ThetaGrid((math.pi,), "pi")
    assert psd_vector(pm, grid_pi)[0] == pytest.approx(4.0)
    assert psd_vector(SignSeq(()), grid_pi)[0] == 0.0


def test_psd_vector_matches_hall_f():
    grid = ThetaGrid.uniform(37)
    s = SignSeq.from_text("++-+--++-")
    vec = psd_vector(s, grid)
    for theta, value in zip(grid.points, vec):
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
    grid = ThetaGrid.pi_over(100)
    assert float(np.max(psd_vector(quad.a, grid))) <= 166 + EPS


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
    grid = ThetaGrid((0.01, math.pi / 2, math.pi), "coarse")
    assert not pair_filter(ones, ones, 22, grid)
    assert pair_max(ones, ones, grid) > 22


def test_pair_filter_empty_partner():
    a = SignSeq.from_text("++-")
    grid = ThetaGrid.uniform(10)
    assert pair_filter(a, SignSeq(()), 14, grid)


def test_quad_spectra_sum_to_constant():
    quad = known_quad(42)
    grid = ThetaGrid.uniform(64)
    total = sum(psd_vector(s, grid) for s in quad.seqs())
    assert np.allclose(total, 4 * 42 + 2, atol=1e-9)


def test_quad_spectra_identity_on_oracle_sample(bs_pool, ns_pool):
    grid = ThetaGrid.uniform(32)
    for n, pool in ((5, bs_pool[5]), (7, ns_pool[7])):
        for quad in pool[::max(1, len(pool) // 20)]:
            total = sum(psd_vector(s, grid) for s in quad.seqs())
            assert np.allclose(total, 4 * n + 2, atol=1e-9)


def test_grid_refinement_monotonicity():
    # rejection on a subgrid implies rejection on any superset grid
    a = SignSeq.from_text("+++++-")
    b = SignSeq.from_text("++++-+")
    coarse = ThetaGrid.uniform(10)
    fine = ThetaGrid.uniform(50)
    bound = 20.0
    if not pair_filter(a, b, bound, coarse):
        assert not pair_filter(a, b, bound, fine)
