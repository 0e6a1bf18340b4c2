import hashlib

import pytest

from baseseq import numfilter
from baseseq.equiv import profile_orbit
from baseseq.errors import PreconditionError
from baseseq.numfilter import (SIDE_AB, SIDE_CD, ResidueProfile,
                               canonical_sum_profile, class_sizes,
                               column_cases, feasible_sum_profile,
                               ns_parity_obstruction, quad_residue_profile,
                               refine_profiles, residue_halves,
                               residue_profiles, sum_profiles)
from baseseq.refdata import KNOWN_BS_N, NS43_MISPRINTS, known_quad
from baseseq.seqcore import Kind, SumProfile, row_sums


def test_sum_profiles_obstructed_n():
    assert sum_profiles(6, Kind.NS) == []
    assert sum_profiles(14, Kind.NS) == []


@pytest.mark.parametrize("n,expected", [(6, True), (12, False), (46, True),
                                        (14, True), (7, False), (38, True)])
def test_ns_parity_obstruction(n, expected):
    assert ns_parity_obstruction(n) is expected


def test_sum_profiles_preconditions():
    with pytest.raises(PreconditionError):
        sum_profiles(0, Kind.BS)
    with pytest.raises(PreconditionError):
        sum_profiles(5, Kind.NNS)


def test_sum_profiles_soundness_small(small_quads):
    """Every oracle quad's profile is represented, up to the dedup moves."""
    cache = {}
    for n, quad in small_quads:
        key = (n, quad.kind)
        if key not in cache:
            cache[key] = set(p.as_tuple() for p in sum_profiles(n, quad.kind))
        sums = row_sums(quad)
        assert feasible_sum_profile(sums, n, quad.kind)
        canon = canonical_sum_profile(sums, n, quad.kind)
        assert canon.as_tuple() in cache[key]


def _listed_cases():
    """(n, kind) for n = 1..30 and every kind (near-normal at even n only)."""
    return [(n, kind) for kind in (Kind.BS, Kind.NS, Kind.NNS) for n in range(1, 31)
            if kind is not Kind.NNS or n % 2 == 0]


def test_sum_profiles_pinned():
    """Every listed sum profile for n <= 30, byte for byte."""
    digest, count = hashlib.sha256(), 0
    for n, kind in _listed_cases():
        profiles = [p.as_tuple() for p in sum_profiles(n, kind)]
        count += len(profiles)
        digest.update(repr(profiles).encode())
    assert count == 3440
    assert digest.hexdigest() == \
        "77a827424c2d8dd2e19fff5368a4180267edd69ee436ad6e5a075974a2acaf7d"


def test_bs_sum_profiles_at_paper_lengths_pinned():
    """The base-sequence sum profiles for n = 41..45, byte for byte
    (n = 41 holds the 543 profiles of the paper41 benchmark)."""
    digest, count = hashlib.sha256(), 0
    for n in range(41, 46):
        profiles = [p.as_tuple() for p in sum_profiles(n, Kind.BS)]
        count += len(profiles)
        digest.update(repr(profiles).encode())
    assert count == 2899
    assert digest.hexdigest() == \
        "98c572ecbff8ea8701c33024bc49c33d84c1bac2a944d1d261d5e4873aa9fea5"


def test_sum_profile_orbits_stay_feasible():
    """The orbit action preserves feasibility, and each listed profile is
    its orbit's least member: the canonical form rests on both."""
    for n, kind in _listed_cases():
        for s in sum_profiles(n, kind):
            orbit = profile_orbit(s.as_tuple(), n, kind)
            assert orbit[0] == s.as_tuple()
            assert all(feasible_sum_profile(SumProfile.from_tuple(v), n, kind)
                       for v in orbit)


@pytest.mark.parametrize("values,n,kind",
                         [(v, 43, Kind.NS) for v in NS43_MISPRINTS]
                         + [(row_sums(known_quad(n)).as_tuple(), n + 2, Kind.BS)
                            for n in KNOWN_BS_N])
def test_canonical_sum_profile_refuses_infeasible(values, n, kind):
    with pytest.raises(PreconditionError, match="profile is not feasible for this kind"):
        canonical_sum_profile(SumProfile.from_tuple(values), n, kind)


@pytest.mark.parametrize("values,n,kind",
                         [(v, 43, Kind.NS) for v in NS43_MISPRINTS]
                         + [((-2, 0, 9, 9, 4, 2, 9, 9), 41, Kind.BS)])
def test_residue_stage_refuses_infeasible_sum_profiles(values, n, kind):
    # the misprints, and the published BS 41 sums with a' moved from 0 to 4;
    # the plain half fits, so only the sum laws can refuse them
    s = SumProfile.from_tuple(values)
    whole = ResidueProfile(1, *((v,) for v in values[:4]))
    assert whole.square_sum() == 4 * n + 2
    with pytest.raises(PreconditionError, match=f"sum profile {s} is not feasible"):
        residue_profiles(n, 3, s, kind)
    with pytest.raises(PreconditionError, match=f"sum profile {s} is not feasible"):
        refine_profiles(n, whole, s, kind)


def test_feasible_on_published_quads():
    for n in (41, 42, 43):
        sums = row_sums(known_quad(n))
        assert feasible_sum_profile(sums, n, Kind.BS)
        assert not feasible_sum_profile(sums, n + 2, Kind.BS)


def _pair_cases(n, side, kind):
    """Sign columns of each position pair, by 1-based pair index."""
    length, levels = column_cases(n, side, kind)
    return {t: options for t, (_, options) in enumerate(levels[:length // 2], 1)}


def test_column_cases_counts():
    cases_ab = _pair_cases(9, SIDE_AB, Kind.BS)
    cases_cd = _pair_cases(9, SIDE_CD, Kind.BS)
    for i, cols in cases_ab.items():
        assert len(cols) == 8
    assert (1, 1, 1, 1) not in cases_ab[1]   # sums to 4, needs 2 mod 4
    assert (1, 1, 1, 1) in cases_ab[2]
    assert len(cases_cd[1]) == 16            # printed range starts at i=2
    for i in range(2, 5):
        assert len(cases_cd[i]) == 8


def test_column_cases_structured_ab():
    ns = _pair_cases(7, SIDE_AB, Kind.NS)
    assert len(ns[1]) == 2                   # ends of A and B are fixed
    for i in range(2, 5):
        assert len(ns[i]) == 4               # B is determined by A
        for x, z, y, w in ns[i]:
            assert (y, w) == (x, z)
    nns = _pair_cases(8, SIDE_AB, Kind.NNS)
    for i, cols in nns.items():
        assert len(cols) == (2 if i == 1 else 4)


def test_column_cases_hold_on_oracle(small_quads):
    for n, quad in small_quads:
        ab = _pair_cases(n, SIDE_AB, quad.kind)
        cd = _pair_cases(n, SIDE_CD, quad.kind)
        for i in range(1, (n + 1) // 2 + 1):
            col = (quad.a[i - 1], quad.a[n + 1 - i], quad.b[i - 1], quad.b[n + 1 - i])
            assert col in ab[i]
        for i in range(1, n // 2 + 1):
            col = (quad.c[i - 1], quad.c[n - i], quad.d[i - 1], quad.d[n - i])
            assert col in cd[i]


def test_level_tables_pinned():
    """Every side's level table for n = 1..59, as hashed before the
    columns and the middle options moved into one table builder."""
    digest = hashlib.sha256()
    for n in range(1, 60):
        for kind in Kind:
            for side in (SIDE_AB, SIDE_CD):
                digest.update(repr(column_cases(n, side, kind)).encode())
    assert digest.hexdigest() == \
        "36a626c7b30b461cdc5f0572258c4fc099f86e918cf2535364559874a3236d2b"


def test_class_sizes():
    assert class_sizes(7, 3) == (3, 2, 2)
    assert class_sizes(2, 6) == (1, 1, 0, 0, 0, 0)
    assert sum(class_sizes(41, 6)) == 41


def test_residue_profiles_preconditions():
    s = SumProfile.from_tuple((2, 0, 1, 1, 0, 2, 1, 1))
    with pytest.raises(PreconditionError):
        residue_profiles(1, 1, s, Kind.BS)
    with pytest.raises(PreconditionError):
        residue_profiles(2, 3, s, Kind.NNS)


def test_residue_profiles_tiny_case():
    # n=1: vectors collapse to single entries; identity forces sum of squares 6
    s = SumProfile.from_tuple((2, 0, 1, 1, 0, 2, 1, 1))
    profs = residue_profiles(1, 2, s, Kind.BS)
    assert profs
    for p in profs:
        assert p.square_sum() == 6
        assert sum(p.a_class_sums) == 2
        # bound: class sums never exceed class sizes
        for vec, length in ((p.a_class_sums, 2), (p.c_class_sums, 1)):
            for x, size in zip(vec, class_sizes(length, 2)):
                assert abs(x) <= size


def test_residue_profiles_soundness(small_quads):
    """No valid quad's residue vectors are ever filtered out."""
    cache = {}
    for n, quad in small_quads:
        moduli = (3, 6) if quad.kind is not Kind.NNS else (2, 6)
        sums = row_sums(quad)
        for m in moduli:
            key = (n, quad.kind, m, sums.as_tuple())
            if key not in cache:
                cache[key] = {p.as_flat()
                              for p in residue_profiles(n, m, sums, quad.kind)}
            assert quad_residue_profile(quad, m).as_flat() in cache[key]


def test_residue_profiles_published_membership():
    quad = known_quad(41)
    sums = row_sums(quad)
    profs = residue_profiles(41, 3, sums, Kind.BS)
    assert quad_residue_profile(quad, 3) in profs


def test_identities_on_emitted_profiles():
    """Square sums hit 4n+2 and periodic autocorrelations cancel."""
    n = 5
    checked = 0
    for s in sum_profiles(n, Kind.BS):
        for m in (2, 3, 6):
            for prof in residue_profiles(n, m, s, Kind.BS):
                checked += 1
                assert prof.square_sum() == 4 * n + 2
                sig = [0] * (m // 2)
                for v in prof.vectors():
                    vec_sig = numfilter._signature(v, m)
                    for i, val in enumerate(vec_sig[1:]):
                        sig[i] += val
                assert all(v == 0 for v in sig)
    assert checked > 50


def test_refine_roundtrip_and_membership():
    quad = known_quad(41)
    sums = row_sums(quad)
    prof3 = quad_residue_profile(quad, 3)
    fine = refine_profiles(41, prof3, sums, Kind.BS)
    assert quad_residue_profile(quad, 6) in fine
    for p in fine:
        for coarse, v in zip(prof3.vectors(), p.vectors()):
            assert tuple(v[i] + v[i + 3] for i in range(3)) == coarse
    halves = refine_profiles(41, prof3, sums, Kind.BS, project="pq")
    mine6 = quad_residue_profile(quad, 6)
    assert (mine6.c_class_sums, mine6.d_class_sums) in halves


def test_residue_stage_pinned():
    """Every residue profile and refinement for small n, byte for byte."""
    digest = hashlib.sha256()
    cases = ([(Kind.BS, n) for n in range(1, 7)] + [(Kind.NS, n) for n in range(1, 11)]
             + [(Kind.NNS, n) for n in range(2, 11, 2)])
    for kind, n in cases:
        for s in sum_profiles(n, kind):
            for m in (2, 3, 4, 6):
                if kind is Kind.NNS and m % 2:
                    continue
                profs = residue_profiles(n, m, s, kind)
                digest.update(repr([p.as_flat() for p in profs]).encode())
                if m not in (2, 3):
                    continue
                for p in profs:
                    for project in (None, "pq", "kr"):
                        fine = refine_profiles(n, p, s, kind, project)
                        if project is None:
                            fine = [f.as_flat() for f in fine]
                        digest.update(repr(fine).encode())
    assert digest.hexdigest() == \
        "1ff43e62e90ab2e0e27d61d1e5be2d569bff94d3d61f01961ef9f38ebc67720c"


def test_structured_residue_halves_pinned():
    """Both sides' halves at lengths where the A,B partner branch is busy:
    every NNS 26 sum profile on chain (6,) and one NS 41 profile on (3, 6)."""
    cases = ([(26, Kind.NNS, (6,), s) for s in sum_profiles(26, Kind.NNS)]
             + [(41, Kind.NS, (3, 6), sum_profiles(41, Kind.NS)[3])])
    digest, count = hashlib.sha256(), 0
    for n, kind, moduli, s in cases:
        for side in (SIDE_AB, SIDE_CD):
            halves = residue_halves(n, moduli, s, kind, side)
            count += len(halves)
            digest.update(repr(halves).encode())
    assert count == 13583
    assert digest.hexdigest() == \
        "793cd6efc94906751320f122d476bce06e1e31d84bde29a57d955206f305a7d8"


def test_residue_halves_is_union_of_refine_profiles():
    for n, kind in ((7, Kind.BS), (9, Kind.NS)):
        for s in sum_profiles(n, kind)[:3]:
            profs = residue_profiles(n, 3, s, kind)
            for side, project in ((SIDE_CD, "pq"), (SIDE_AB, "kr")):
                assert residue_halves(n, (3, 6), s, kind, side) == sorted(
                    {h for prof in profs
                     for h in refine_profiles(n, prof, s, kind, project=project)})


def test_refine_profiles_rejects_unknown_projection():
    s = SumProfile.from_tuple((2, 0, 1, 1, 0, 2, 1, 1))
    with pytest.raises(PreconditionError):
        refine_profiles(1, residue_profiles(1, 2, s, Kind.BS)[0], s, Kind.BS, project="ab")


def test_refine_rejects_infeasible_parent():
    s = SumProfile.from_tuple((2, 0, 1, 1, 0, 2, 1, 1))
    bogus = ResidueProfile(2, (4, 0), (0, 0), (1, 0), (1, 0))
    with pytest.raises(PreconditionError):
        refine_profiles(1, bogus, s, Kind.BS)
    squares = ResidueProfile(2, (2, 0), (1, -1), (1, 0), (1, 0))  # column sums fit
    with pytest.raises(PreconditionError, match="square sum"):
        refine_profiles(1, squares, s, Kind.BS)


@pytest.mark.parametrize("modulus,width", [(3, 1), (-1, 0), (0, 0), (2, 3)])
def test_refine_refuses_malformed_profiles(modulus, width):
    # one class sum per class: a width-1 profile is not a modulus-3 one
    s = sum_profiles(5, Kind.BS)[0]
    vectors = [(x,) + (0,) * (width - 1) for x in (s.a, s.b, s.c, s.d)] if width else [()] * 4
    with pytest.raises(PreconditionError, match="a residue profile needs a modulus >= 1"):
        refine_profiles(5, ResidueProfile(modulus, *vectors), s, Kind.BS)


def test_structured_partner_relation(ns_pool, nns_pool):
    """Derived B class sums: the class of position n+1 drops by 2."""
    for n, pool, kind in ((7, ns_pool[7], Kind.NS), (6, nns_pool[6], Kind.NNS)):
        for quad in pool[:10]:
            for m in (2, 6):
                prof = quad_residue_profile(quad, m)
                derived = numfilter._derive_partner_sums(
                    prof.a_class_sums, n, m, kind)
                assert derived == prof.b_class_sums
