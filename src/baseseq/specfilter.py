"""Power-spectrum elimination test over configurable angle grids.

For a valid quad the four spectra f_A + f_B + f_C + f_D add up to the
constant 4n+2 at every angle, and each f is nonnegative.  Any candidate
pair whose summed spectrum exceeds 4n+2 anywhere therefore cannot be
half of a valid quad.  The test is conservative screening only: passing
it proves nothing, final validity is always established by verification.

Spectra are evaluated from the sign vector itself: f(theta) is the
squared modulus of its DFT, sum_j x_j e^{i j theta}, taken as one
product of the sign rows with a cached [cos j*theta | sin j*theta] table
followed by a sum of squares.  Mathematically this is the same f as
N(0) + 2 sum_s N(s) cos(s*theta); only the rounding differs.  The signs
are exact; the angles j*theta carry a rounding error of about 3e-14 at
length 42, so near the bound 4n+2 of an n around 41 the computed
f_a + f_b is within about 1e-10 of its exact value.  Measured on the
first 40,000 candidates behind the published n = 41 half, it differs
from the autocorrelation form by at most 4.6e-12 on each of
pi-over-100, l=50 and l=1000.  The acceptance slack of 1e-9 lies above
both, so a pair whose exact spectrum meets the bound is never rejected.

``_spectrum`` is the only evaluation.  It takes a leading block axis, so
``screen_block`` screens a whole block of pairs with one product per
grid (each grid only on the pairs the earlier ones kept), and
``pair_filter``, ``pair_max`` and ``psd_vector`` are blocks of one.  A
real sequence has f(2*pi - theta) = f(theta), so the table holds a
column only for the angles up to pi and for those whose mirror is not a
grid angle (such as 2*pi); a mirrored angle reads its mirror's value.
That halves the product on the standard grids, and the keep/reject
decisions pinned in the tests are unchanged by it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import MalformedInputError, PreconditionError
from .seqcore import SignSeq

EPS = 1e-9


@dataclass(frozen=True)
class ThetaGrid:
    """Strictly increasing angles in (0, 2*pi], with a display label."""

    points: tuple[float, ...]
    label: str

    def __post_init__(self):
        if not self.points:
            raise MalformedInputError("theta grid must be nonempty")
        prev = 0.0
        for t in self.points:
            if not (prev < t <= 2.0 * math.pi + 1e-12):
                raise MalformedInputError("grid points must increase within (0, 2*pi]")
            prev = t
        # the spectrum table is looked up by grid for every screened pair,
        # so the hash of the angles is taken once (floats hash the same in
        # every process, unlike the label)
        object.__setattr__(self, "_hash", hash(self.points))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def pi_over(cls, k: int) -> "ThetaGrid":
        """Angles j*pi/k for j = 1..2k (covers (0, 2*pi])."""
        if k < 1:
            raise PreconditionError("k must be >= 1")
        return cls(tuple(j * math.pi / k for j in range(1, 2 * k + 1)), f"pi-over-{k}")

    @classmethod
    def uniform(cls, count: int) -> "ThetaGrid":
        """Angles 2*j*pi/count for j = 1..count."""
        if count < 1:
            raise PreconditionError("count must be >= 1")
        return cls(tuple(2.0 * j * math.pi / count for j in range(1, count + 1)),
                   f"l={count}")

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
def _dft_table(grid: ThetaGrid, length: int) -> tuple[np.ndarray, np.ndarray]:
    """[cos(j*theta) | sin(j*theta)] over the kept angles (up to pi, or
    without a mirror 2*pi - theta in the grid), row j = 0..length-1, and
    for every grid angle the column that holds its value."""
    points = np.asarray(grid.points)
    low = int(np.searchsorted(points, math.pi, side="right"))
    kept, cols = list(range(low)), list(range(low))
    for k in range(low, len(points)):
        mirror = np.flatnonzero(np.abs(2.0 * math.pi - points[k] - points[:low]) <= 1e-12)
        if mirror.size:
            cols.append(int(mirror[0]))
        else:
            cols.append(len(kept))
            kept.append(k)
    angles = np.outer(np.arange(length), points[kept])
    return np.hstack((np.cos(angles), np.sin(angles))), np.array(cols)


def _spectrum(rows: np.ndarray, grid: ThetaGrid) -> np.ndarray:
    """Summed spectrum of each block's sign rows at the kept grid angles.

    ``rows`` has shape (blocks, rows, length); the result has shape
    (blocks, kept angles), see ``_dft_table``.
    """
    table, _ = _dft_table(grid, rows.shape[-1])
    parts = rows @ table
    parts *= parts
    total = parts.sum(axis=1)
    half = table.shape[1] // 2
    return total[:, :half] + total[:, half:]


def psd_vector(seq: SignSeq, grid: ThetaGrid) -> np.ndarray:
    """Spectrum values of one sequence at every grid angle."""
    spectrum = _spectrum(np.array([[seq.elements]], dtype=float), grid)
    return spectrum[0, _dft_table(grid, len(seq))[1]]


def pair_max(a: SignSeq, b: SignSeq, grid: ThetaGrid) -> float:
    """Largest value of f_a + f_b over the grid."""
    length = max(len(a), len(b))
    rows = np.array(((a.elements + (0,) * (length - len(a)),
                      b.elements + (0,) * (length - len(b))),), dtype=float)
    return float(_spectrum(rows, grid).max())


def pair_filter(a: SignSeq, b: SignSeq, bound: float, grid: ThetaGrid) -> bool:
    """True (keep) iff f_a + f_b stays within ``bound`` + slack everywhere."""
    return pair_max(a, b, grid) <= bound + EPS


def screen_block(rows: np.ndarray, bound: float, grids: list[ThetaGrid]) -> np.ndarray:
    """Indices of the pairs that every grid keeps, as ``pair_filter`` would.

    ``rows`` has shape (pairs, 2, length); the grids run in order, each
    on the pairs that the earlier ones kept.
    """
    keep = np.arange(len(rows))
    for grid in grids:
        keep = keep[_spectrum(rows[keep], grid).max(axis=1) <= bound + EPS]
    return keep
