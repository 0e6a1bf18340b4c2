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
acceptance slack of 1e-9 lies above all of these, so a pair whose exact
spectrum meets the bound is never rejected.

``pair_max`` and ``pair_filter`` add the spectra of the two sequences,
each read from a bounded memo keyed by packed value, length and grid
(``_spectrum``, N from ``seqcore.packed_autocorr``, at any length): a
candidate stream repeats its sequences far more often than its pairs.
``screen_block`` takes a block of packed pairs of at most 64 signs, sums
each pair's N by one broadcast popcount (``seqcore.disagreements``) and
makes one product per grid, each grid only on the pairs the earlier
ones kept.  A real sequence has f(2*pi - theta) = f(theta), and only the
maximum over the grid is ever read, so T holds a column only for the
angles up to pi and for those whose mirror is not a grid angle (such as
2*pi); the mirrored angles are skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import MalformedInputError, PreconditionError
from .seqcore import SignSeq, disagreements, packed_autocorr

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
def _spectrum(packed: int, length: int, grid: ThetaGrid) -> np.ndarray:
    """f of one packed sequence at the kept angles, read-only (it is shared)."""
    acf = np.array(packed_autocorr(packed, length)[1:], dtype=float)
    f = length + acf @ _cos_table(grid, length)
    f.flags.writeable = False
    return f


def pair_max(a: SignSeq, b: SignSeq, grid: ThetaGrid) -> float:
    """Largest value of f_a + f_b over the grid."""
    return float((_spectrum(a.packed, len(a), grid) + _spectrum(b.packed, len(b), grid)).max())


def pair_filter(a: SignSeq, b: SignSeq, bound: float, grid: ThetaGrid) -> bool:
    """True (keep) iff f_a + f_b stays within ``bound`` + slack everywhere."""
    return pair_max(a, b, grid) <= bound + EPS


def screen_block(rows: np.ndarray, length: int, bound: float,
                 grids: list[ThetaGrid]) -> np.ndarray:
    """Indices of the pairs that every grid keeps, as ``pair_filter`` would.

    ``rows`` holds the (pairs, 2) packed sequences of ``length`` <= 64
    signs each; the grids run in order, each on the pairs that the earlier
    ones kept.
    """
    overlap = np.arange(length - 1, 0, -1)  # at the shifts 1..length-1
    masks = (np.uint64(1) << overlap.astype(np.uint64)) - np.uint64(1)
    changes = disagreements(rows[:, 0], rows[:, 1], np.arange(1, length, dtype=np.uint64), masks)
    acf = 2 * overlap[:, None] - 2.0 * changes  # N_x + N_y at each shift, per pair
    keep = np.arange(len(rows))
    for grid in grids:
        peaks = (acf[:, keep].T @ _cos_table(grid, length)).max(axis=1)
        keep = keep[2 * length + peaks <= bound + EPS]
    return keep
