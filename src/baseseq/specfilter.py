"""Power-spectrum elimination test over configurable angle grids.

For a valid quad the four spectra f_A + f_B + f_C + f_D add up to the
constant 4n+2 at every angle, and each f is nonnegative.  Any candidate
pair whose summed spectrum exceeds 4n+2 anywhere therefore cannot be
half of a valid quad.  The test is conservative screening only: passing
it proves nothing, final validity is always established by verification.

Spectra are evaluated from the aperiodic autocorrelations: a sequence
of length L has f(theta) = L + sum_s N(s) 2cos(s*theta), one product
``L + N[1:] @ T`` with a cached table T of 2cos(s*theta), s = 1..L-1
(``_cos_table``).  The N(s) are exact integers (``seqcore``'s popcount
law), so only T and the sum round: the angles s*theta carry an error of
at most about 3e-14 at L = 42, and as |N_a(s) + N_b(s)| <= 2(L-s), the
computed f_a + f_b of an n around 41 is within about 1e-10 of its exact
value.  On the first 40,000 candidates behind the published n = 41
half, f_a + f_b differs from ``seqcore.hall_f`` by at most 3.4e-13 on
pi-over-100, 2.8e-13 on l=50 and 4.5e-13 on l=1000 (``pair_max``;
4.0e-13, 4.0e-13 and 4.5e-13 as ``screen_block`` sums it).  The
acceptance margin EPS = 1e-9 lies above all of these, so a pair whose
exact spectrum meets the bound is never rejected.

``pair_max`` and ``pair_filter`` add the spectra of the two sequences,
each read from a bounded memo keyed by packed value, length and grid
(``_spectrum``, N from ``seqcore.packed_autocorr``, at any length): a
candidate stream repeats its sequences far more often than its pairs.
A memo entry holds f and its peak, the largest value of f, computed once.
As every f is nonnegative, a sequence whose own peak exceeds the bound
rejects every pair that holds it: ``pair_filter`` rejects on a's peak
before it looks up b, and on b's peak before it adds the two.  The
computed f of a sequence can still be slightly negative where the exact
f is 0 (as f(pi) is for a sequence of zero alternated sum), so a peak must
exceed the limit c = bound + EPS by ``_slack``(L) = 2^-48 (L+3)^3, L the
longer length, for that decision to equal ``pair_max(a, b) <= c``.  The
slack covers the rounding of f at any length L, with u = 2^-53: the N(s)
are exact, |N(s)| <= L-s, and each 2cos(s*theta) is off by at most
2(2*pi*s + 16)u (the product s*theta rounds once, cos is 1-Lipschitz and
allowed 8 ulps), which sums to about 2.1 u L^3 + 16 u L^2; the product of
L-1 terms of total size at most L(L-1), plus L, rounds by at most about
u L^3 + u L^2.  So the computed f is within 4u(L+3)^3 of the exact f at
the grid angle, and is >= -4u(L+3)^3.  If a peak p has fl(p - slack) > c,
the two computed values at p's angle add up, before rounding, to more
than c + 28u(L+3)^3 >= c + ulp(c) (when c > 0, c < p <= L^2 + 4u(L+3)^3;
when c < 0, either |c| <= L^2 or the sum, >= -8u(L+3)^3, lies far above
c), so the rounded sum exceeds c too.  At L = 42 the slack is 3.2e-10.

``screen_block`` takes the summed N of a block of pairs of at most 64
signs, as ``seqcore.pair_autocorr`` counts them once per block for both
the screen and the completion, and makes one product per grid, each
grid only on the pairs the earlier ones kept.  A real sequence has
f(2*pi - theta) = f(theta), and only the maximum over the grid is ever
read, so T holds a column only for the angles up to pi and for those
whose mirror is not a grid angle (such as 2*pi); the mirrored angles
are skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import MalformedInputError, PreconditionError
from .seqcore import SignSeq, packed_autocorr

EPS = 1e-9


@dataclass(frozen=True)
class ThetaGrid:
    """Strictly increasing angles in (0, 2*pi]."""

    points: tuple[float, ...]

    def __post_init__(self):
        if not self.points:
            raise MalformedInputError("theta grid must be nonempty")
        prev = 0.0
        for t in self.points:
            if not (prev < t <= 2.0 * math.pi + 1e-12):
                raise MalformedInputError("grid points must increase within (0, 2*pi]")
            prev = t
        # the spectrum table is looked up by grid for every screened pair,
        # so the hash of the angles is taken once
        object.__setattr__(self, "_hash", hash(self.points))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def pi_over(cls, k: int) -> "ThetaGrid":
        """Angles j*pi/k for j = 1..2k (covers (0, 2*pi])."""
        if k < 1:
            raise PreconditionError("k must be >= 1")
        return cls(tuple(j * math.pi / k for j in range(1, 2 * k + 1)))

    @classmethod
    def uniform(cls, count: int) -> "ThetaGrid":
        """Angles 2*j*pi/count for j = 1..count."""
        if count < 1:
            raise PreconditionError("count must be >= 1")
        return cls(tuple(2.0 * j * math.pi / count for j in range(1, count + 1)))

    @classmethod
    @lru_cache(maxsize=32)
    def from_spec(cls, spec: str) -> "ThetaGrid":
        """Parse "pi-over-<k>" or "l=<count>"; a spec always gives the same grid."""
        for prefix, make in (("pi-over-", cls.pi_over), ("l=", cls.uniform)):
            if spec.startswith(prefix):
                try:
                    count = int(spec[len(prefix):])
                except ValueError:
                    raise MalformedInputError(f"grid spec {spec!r} needs a whole count") from None
                if count < 1:
                    raise MalformedInputError(f"grid spec {spec!r} needs a count >= 1")
                return make(count)
        raise MalformedInputError(f"unknown grid spec {spec!r}")


@lru_cache(maxsize=32)
def _cos_table(grid: ThetaGrid, length: int) -> np.ndarray:
    """2*cos(s*theta), row s = 1..length-1, over the kept angles: those up
    to pi, and those whose mirror 2*pi - theta is not in the grid."""
    points = np.asarray(grid.points)
    low = int(np.searchsorted(points, math.pi, side="right"))
    kept = list(range(low)) + [
        k for k in range(low, len(points))
        if not np.any(np.abs(2.0 * math.pi - points[k] - points[:low]) <= 1e-12)]
    return 2.0 * np.cos(np.outer(np.arange(1, length), points[kept]))


@lru_cache(maxsize=1024)
def _spectrum(packed: int, length: int, grid: ThetaGrid) -> tuple[np.ndarray, float]:
    """f of one packed sequence at the kept angles, read-only (it is shared),
    and its peak, the largest value of f."""
    acf = np.array(packed_autocorr(packed, length)[1:], dtype=float)
    f = length + acf @ _cos_table(grid, length)
    f.flags.writeable = False
    return f, float(f.max())


def _slack(length: int) -> float:
    """How far above the limit one sequence's peak must lie to reject every
    pair of sequences of at most ``length`` signs that holds it."""
    return 2.0 ** -48 * (length + 3) ** 3


def pair_max(a: SignSeq, b: SignSeq, grid: ThetaGrid) -> float:
    """Largest value of f_a + f_b over the grid."""
    return float((_spectrum(a.packed, len(a), grid)[0]
                  + _spectrum(b.packed, len(b), grid)[0]).max())


def pair_filter(a: SignSeq, b: SignSeq, bound: float, grid: ThetaGrid) -> bool:
    """True (keep) iff f_a + f_b stays within ``bound + EPS`` everywhere,
    that is iff ``pair_max(a, b, grid) <= bound + EPS``.  A sequence whose
    own peak lies more than ``_slack`` above that limit rejects the pair
    alone, so b is looked up only if a passes."""
    limit = bound + EPS
    slack = _slack(max(len(a), len(b)))
    fa, peak = _spectrum(a.packed, len(a), grid)
    if peak - slack > limit:
        return False
    fb, peak = _spectrum(b.packed, len(b), grid)
    if peak - slack > limit:
        return False
    return float((fa + fb).max()) <= limit


def screen_block(acf: np.ndarray, bound: float, grids: list[ThetaGrid]) -> np.ndarray:
    """Indices of the pairs that every grid keeps, as ``pair_filter`` would.

    ``acf`` holds the (shifts, pairs) N_x(s) + N_y(s), s = 1..L-1, of a
    block of pairs of L signs each (``seqcore.pair_autocorr``); the grids
    run in order, each on the pairs that the earlier ones kept.
    """
    length = len(acf) + 1
    acf = acf.astype(float)
    keep = np.arange(acf.shape[1])
    for grid in grids:
        peaks = (acf[:, keep].T @ _cos_table(grid, length)).max(axis=1)
        keep = keep[2 * length + peaks <= bound + EPS]
    return keep
