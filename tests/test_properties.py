"""Property tests: random equivalence words and single-sign perturbations."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baseseq import equiv, numfilter
from baseseq.refdata import KNOWN_BS_N, known_quad
from baseseq.searcher import SIDE_AB, SIDE_CD, candidate_matches_profile
from baseseq.seqcore import Kind, SignSeq, row_sums, verify

# a word is a list of choices; step k applies the (k mod count)-th image
# of the current quad under its kind's generators
WORDS = st.lists(st.integers(min_value=0, max_value=63), max_size=12)


def _apply_word(quad, word):
    for k in word:
        images = equiv.kind_generators(quad)
        quad = images[k % len(images)]
    return quad


def test_single_sign_flips_of_published_quads_fail_verify():
    flips = 0
    for n in KNOWN_BS_N:
        quad = known_quad(n)
        for name in "abcd":
            elems = getattr(quad, name).elements
            for j in range(len(elems)):
                flipped = elems[:j] + (-elems[j],) + elems[j + 1:]
                image = dataclasses.replace(quad, **{name: SignSeq(flipped)})
                assert not verify(image).valid, (n, name, j)
                flips += 1
    assert flips == 510


@settings(max_examples=25)
@given(data=st.data())
def test_equivalence_words_keep_oracle_quads_valid_and_canonical(small_quads, data):
    _n, quad = data.draw(st.sampled_from(small_quads))
    image = _apply_word(quad, data.draw(WORDS))
    assert verify(image).valid
    assert equiv.canonical(image) == equiv.canonical(quad)


@pytest.fixture(scope="module")
def profiles41():
    return set(numfilter.sum_profiles(41, Kind.BS))


@settings(max_examples=30)
@given(word=WORDS)
def test_equivalence_words_keep_published_quad_valid_and_profiled(profiles41, word):
    image = _apply_word(known_quad(41), word)
    assert verify(image).valid
    assert numfilter.canonical_sum_profile(row_sums(image), 41, Kind.BS) in profiles41


@settings(max_examples=30)
@given(n=st.sampled_from(KNOWN_BS_N), word=WORDS)
def test_residue_filters_keep_equivalence_images_of_published_quads(n, word):
    # zero false rejections at paper scale: every image of a published
    # quad survives the mod-3 profiles, their mod-6 refinement and the
    # end-column cases of both sides
    image = _apply_word(known_quad(n), word)
    sums = row_sums(image)
    prof3 = numfilter.quad_residue_profile(image, 3)
    assert prof3 in numfilter.residue_profiles(n, 3, sums, Kind.BS)
    prof6 = numfilter.quad_residue_profile(image, 6)
    assert prof6 in numfilter.refine_profiles(n, prof3, sums, Kind.BS)
    assert candidate_matches_profile((image.c, image.d), prof6, n, Kind.BS, SIDE_CD)
    assert candidate_matches_profile((image.a, image.b), prof6, n, Kind.BS, SIDE_AB)
