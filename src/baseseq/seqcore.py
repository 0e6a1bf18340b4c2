"""Sign sequences, aperiodic autocorrelation, and quad verification.

A sign sequence is a finite list of +1/-1 entries.  The aperiodic
autocorrelation of A at shift s is

    N_A(s) = sum_j A[j] * A[j+s]

with out-of-range terms treated as zero.  A quad (A, B, C, D) of lengths
(n+1, n+1, n, n) is a *base* quad when the four autocorrelations sum to
zero at every shift s = 1..n.  Two structured subclasses tie B to A:

  * normal (NS):       B[i] = A[i] for i <= n, A[n+1] = +1, B[n+1] = -1
  * near-normal (NNS): B[i] = (-1)^(i-1) * A[i] for i <= n (n even),
                       A[n+1] = +1, B[n+1] = -1

A sequence is stored as an element tuple (I/O, indexing) and, packed,
as one int: element j of a length-L sequence sits at bit L-1-j, and -1
is a set bit.  ``SignSeq.packed``/``from_packed`` are the only
sequence-level encoder and decoder of this layout; beside
``from_packed``, ``from_packed_block`` decodes a uint64 array of
sequences of at most 64 signs in one ``np.unpackbits`` pass (a block of
the candidate expansion), each distinct value once.
``packed_from_text``/``packed_text`` convert it straight from and to
the +/- text (the checkpoint journal's form), and a packed quad is the
tuple of the four packed sequences (``SeqQuad.packed``/``from_packed``).
The first element is the most significant bit and +1 the clear bit, so
among quads of one n the order of packed quads is the quad order:
``sort_key`` is the packed quad.  This module states the laws of the
packed quad once each: the autocorrelation by popcount
(``packed_autocorr``, one shift at a time, at any length; for at most
64 signs, one popcount over an array of the shifts: ``shift_autocorr``
of one sequence for the spectrum memo's misses, and over arrays of
pairs ``disagreements`` for the completion kernel and ``pair_autocorr``,
a block's summed N for the spectrum screen and the completion's
targets; ``shift_autocorr`` and ``pair_autocorr`` read the shifts,
overlaps and masks of a length from one table, ``_shift_tables``), the
partner rule (``partner_mask``) and validity (``packed_valid``, which
``verify`` reports).  The completion kernel builds its fills in this
form, ``packed_valid`` checks them and the orbit moves act on them, so
a find stays a packed quad from kernel to records.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from itertools import repeat
from typing import Iterator, Optional

import numpy as np

from .errors import MalformedInputError


class Kind(str, Enum):
    """Quad family: plain base, normal, or near-normal."""

    BS = "bs"
    NS = "ns"
    NNS = "nns"


_CHAR_OF = {1: "+", -1: "-"}
_SIGN_OF = {"+": 1, "-": -1}
# the eight signs of a byte of a packed sequence, most significant bit
# first, as signed chars (the byte 255 reads as -1)
_SIGNS_OF_BYTE = tuple(bytes(255 if byte >> 7 - k & 1 else 1 for k in range(8))
                       for byte in range(256))

# the +/- text of a packed sequence is its binary numeral, + for 0 and - for 1
_TEXT_TO_DIGITS = str.maketrans("+-", "01")
_DIGITS_TO_TEXT = str.maketrans("01", "+-")

# a quad packed, one int per sequence (see the module docstring)
Packed = tuple[int, int, int, int]


@dataclass(frozen=True)
class SignSeq:
    """Immutable sequence of +1/-1 entries (possibly empty)."""

    elements: tuple[int, ...]

    def __post_init__(self):
        elems = tuple(self.elements)
        for x in elems:
            if x != 1 and x != -1:
                raise MalformedInputError(f"sequence entry {x!r} is not +1/-1")
        object.__setattr__(self, "elements", elems)

    @classmethod
    def from_text(cls, text: str) -> "SignSeq":
        """Parse a '+'/'-' string; embedded whitespace (line wrapping) is joined."""
        joined = "".join(text.split())
        bad = set(joined) - set("+-")
        if bad:
            raise MalformedInputError(f"invalid sequence characters: {sorted(bad)}")
        return cls(tuple(_SIGN_OF[ch] for ch in joined))

    @classmethod
    def from_packed(cls, packed: int, length: int) -> "SignSeq":
        """Inverse of ``packed``: bit length-1-j set means element j is -1.

        The signs are read a byte at a time from ``_SIGNS_OF_BYTE``, whose
        bytes read as signed chars are only +1 and -1, so the entry check
        of ``__post_init__`` is skipped; the range check stays.
        ``packed`` may be any integer type (a numpy integer too) and is
        kept, as a Python int, as the cached ``packed`` of the result.
        """
        packed = operator.index(packed)
        if not 0 <= packed < 1 << length:
            raise MalformedInputError(f"packed value {packed} does not fit {length} signs")
        signs = b"".join([_SIGNS_OF_BYTE[byte]
                          for byte in packed.to_bytes(length + 7 >> 3, "big")])
        seq = object.__new__(cls)
        # the first -length % 8 signs pad the leading byte
        object.__setattr__(seq, "elements", tuple(memoryview(signs[-length % 8:]).cast("b")))
        object.__setattr__(seq, "packed", packed)
        return seq

    @classmethod
    def from_packed_block(cls, values: np.ndarray, length: int) -> list["SignSeq"]:
        """``from_packed`` of each entry of a uint64 array of sequences of
        ``length`` <= 64 signs, in order, decoded in one pass.

        Each distinct value is decoded once and its entries share that
        SignSeq (a block of the candidate expansion holds about 0.3 to 0.4
        distinct sequences per entry, and every object built is one more
        for the garbage collector to scan).  The bits come from
        ``np.unpackbits`` on the big-endian bytes, whose last ``length``
        columns are the sequence, most significant first; the entry check
        is skipped as in ``from_packed``, the range check stays, and each
        result's ``packed`` is preset to its Python int.
        """
        if not 0 <= length <= 64:
            raise MalformedInputError(f"a block decodes sequences of 0..64 signs, not {length}")
        distinct, inverse = np.unique(values, return_inverse=True)
        if length < 64 and (distinct >> np.uint64(length)).any():
            raise MalformedInputError(f"a packed value does not fit {length} signs")
        bits = np.unpackbits(distinct.astype(">u8").view(np.uint8).reshape(-1, 8), axis=1)
        rows = (1 - 2 * bits[:, 64 - length:].astype(np.int8)).tolist()
        seqs = list(map(object.__new__, repeat(cls, len(rows))))
        for seq, packed, row in zip(seqs, distinct.tolist(), rows):
            object.__setattr__(seq, "elements", tuple(row))
            object.__setattr__(seq, "packed", packed)
        return list(map(seqs.__getitem__, inverse.tolist()))

    @cached_property
    def packed(self) -> int:
        """Bit mask with bit length-1-j set iff element j is -1 (first element
        most significant)."""
        value = 0
        for x in self.elements:
            value = value << 1 | (x < 0)
        return value

    @cached_property
    def autocorr(self) -> tuple[int, ...]:
        """All aperiodic autocorrelation values (N(0), ..., N(len-1))."""
        return packed_autocorr(self.packed, len(self.elements))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __getitem__(self, idx):
        return self.elements[idx]

    def sum(self) -> int:
        return sum(self.elements)

    def alt_sum(self) -> int:
        """Sum of the alternated sequence (every even position negated)."""
        return sum(x if j % 2 == 0 else -x for j, x in enumerate(self.elements))

    def negated(self) -> "SignSeq":
        return SignSeq(tuple(-x for x in self.elements))

    def reversed_(self) -> "SignSeq":
        return SignSeq(tuple(reversed(self.elements)))

    def text(self) -> str:
        return "".join(_CHAR_OF[x] for x in self.elements)

    def __str__(self) -> str:
        return self.text()


def packed_from_text(text: str) -> int:
    """The packed sequence whose text is ``text``, a non-empty string of
    '+' and '-' only (the caller checks that; ``int`` would also take
    spaces and underscores)."""
    return int(text.translate(_TEXT_TO_DIGITS), 2)


def packed_text(x: int, length: int) -> str:
    """The '+'/'-' text of the packed sequence ``x`` of ``length`` >= 1 signs."""
    return format(x, f"0{length}b").translate(_DIGITS_TO_TEXT)


def packed_autocorr(x: int, length: int) -> tuple[int, ...]:
    """N(0), ..., N(length-1) of the packed length-``length`` sequence ``x``:
    the overlap at s less twice its sign changes, the set bits of x ^ x >> s."""
    return tuple(length - s - 2 * ((x ^ x >> s) & (1 << length - s) - 1).bit_count()
                 for s in range(length))


def disagreements(x: np.ndarray, y: np.ndarray, shifts: np.ndarray,
                  masks: np.ndarray) -> np.ndarray:
    """``packed_autocorr``'s sign changes of arrays of packed x and y of
    one length L <= 64 at each shift, summed: a (shifts, rows) count with
    N_x(s) + N_y(s) = 2(L-s) - 2*count when mask s holds the low L-s bits.
    Shifts are the outer axis, so every operation runs along the rows."""
    shifts, masks = shifts[:, None], masks[:, None]
    return (np.bitwise_count((x ^ x >> shifts) & masks)
            + np.bitwise_count((y ^ y >> shifts) & masks))


@lru_cache(maxsize=65)
def _shift_tables(length: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The uint64 shifts 1..length-1 of sequences of ``length`` <= 64 signs,
    the overlap length-s at each and the masks of its low bits, read-only
    (they are shared)."""
    shifts = np.arange(1, length, dtype=np.uint64)
    overlap = np.arange(length - 1, 0, -1)
    masks = (np.uint64(1) << overlap.astype(np.uint64)) - np.uint64(1)
    for table in (shifts, overlap, masks):
        table.flags.writeable = False
    return shifts, overlap, masks


def shift_autocorr(x: int, length: int) -> np.ndarray:
    """N(1), ..., N(length-1) of the packed sequence ``x`` of ``length`` <= 64
    signs: ``packed_autocorr(x, length)[1:]`` as exact int64, one popcount
    over all shifts."""
    shifts, overlap, masks = _shift_tables(length)
    x = np.array(x, np.uint64)  # a 0-d array: numpy's scalar arithmetic is slower
    changes = np.bitwise_count((x ^ x >> shifts) & masks)
    return overlap - (changes + changes)


def pair_autocorr(rows: np.ndarray, length: int) -> np.ndarray:
    """N_x(s) + N_y(s) at s = 1..length-1 of each row of a (pairs, 2) array
    of packed x and y of ``length`` <= 64 signs: the exact (shifts, pairs)
    integers, ``packed_autocorr`` of x and of y summed, as arrays."""
    shifts, overlap, masks = _shift_tables(length)
    changes = disagreements(rows[:, 0], rows[:, 1], shifts, masks)
    return 2 * (overlap[:, None] - changes)


def paf(seq: SignSeq, shift: int) -> int:
    """Aperiodic autocorrelation of ``seq`` at ``shift`` (zero for shift >= len)."""
    if shift < 0:
        raise ValueError("shift must be >= 0")
    if shift >= len(seq):
        return 0
    return seq.autocorr[shift]


def hall_f(seq: SignSeq, theta: float) -> float:
    """Power spectrum value N(0) + 2*sum_j N(j)*cos(j*theta).

    Equals the squared modulus of the polynomial with the sequence entries
    as coefficients, evaluated at exp(i*theta); in particular it is
    nonnegative, f(0) is the squared row sum, and f(pi) the squared
    alternated row sum.
    """
    acf = seq.autocorr
    if not acf:
        return 0.0
    value = float(acf[0])
    for j in range(1, len(acf)):
        value += 2.0 * acf[j] * math.cos(j * theta)
    return value


@dataclass(frozen=True)
class SumProfile:
    """Row sums and alternated-row sums of the four sequences of a quad."""

    a: int
    b: int
    c: int
    d: int
    a_alt: int
    b_alt: int
    c_alt: int
    d_alt: int

    def as_tuple(self) -> tuple[int, ...]:
        return (self.a, self.b, self.c, self.d,
                self.a_alt, self.b_alt, self.c_alt, self.d_alt)

    @classmethod
    def from_tuple(cls, values) -> "SumProfile":
        values = tuple(map(int, values))
        if len(values) != 8:
            raise MalformedInputError(f"a sum profile has 8 values, got {len(values)}")
        return cls(*values)

    def square_sum(self) -> int:
        return self.a ** 2 + self.b ** 2 + self.c ** 2 + self.d ** 2

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.as_tuple())


@dataclass(frozen=True)
class SeqQuad:
    """Four sign sequences with lengths (n+1, n+1, n, n) and a kind tag."""

    a: SignSeq
    b: SignSeq
    c: SignSeq
    d: SignSeq
    kind: Kind

    def __post_init__(self):
        n = len(self.c)
        if len(self.d) != n:
            raise MalformedInputError("C and D must have equal length")
        if len(self.a) != n + 1 or len(self.b) != n + 1:
            raise MalformedInputError("A and B must have length n+1 = len(C)+1")
        if self.kind is Kind.NNS and n % 2 != 0:
            raise MalformedInputError("near-normal quads require even n")

    @property
    def n(self) -> int:
        return len(self.c)

    def seqs(self) -> tuple[SignSeq, SignSeq, SignSeq, SignSeq]:
        return (self.a, self.b, self.c, self.d)

    def packed(self) -> Packed:
        """The four packed sequences (see the module docstring)."""
        return (self.a.packed, self.b.packed, self.c.packed, self.d.packed)

    @classmethod
    def from_packed(cls, q: Packed, n: int, kind: Kind) -> "SeqQuad":
        """The quad of ``kind`` whose packed form is ``q``; A,B have n+1 elements."""
        return cls(SignSeq.from_packed(q[0], n + 1), SignSeq.from_packed(q[1], n + 1),
                   SignSeq.from_packed(q[2], n), SignSeq.from_packed(q[3], n), kind)

    # total order among quads of one n: the concatenated elements, +1 first
    sort_key = packed


def partner_elements(a: tuple[int, ...], kind: Kind) -> tuple[int, ...]:
    """B's entries from A's for a structured kind (last entry forced to -1)."""
    if kind is Kind.NS:
        body = a[:-1]
    elif kind is Kind.NNS:
        body = tuple(x if j % 2 == 0 else -x for j, x in enumerate(a[:-1]))
    else:
        raise MalformedInputError("partner derivation applies to ns/nns only")
    return body + (-1,)


def partner_mask(n: int, kind: Kind) -> int:
    """The partner rule on packed A,B of a structured quad of ``n``: the bits
    where B's body (entries 1..n) differs from A's, none for NS and those
    of the even entries for NNS.  B is ``a ^ partner_mask(n, kind) | 1``."""
    if kind is Kind.BS:
        raise MalformedInputError("partner derivation applies to ns/nns only")
    return sum(1 << n - j for j in range(1, n, 2)) if kind is Kind.NNS else 0


def derive_partner(a: SignSeq, kind: Kind) -> SignSeq:
    """Build B from A for a structured kind (last entry forced to -1)."""
    return SignSeq(partner_elements(a.elements, kind))


def row_sums(quad: SeqQuad) -> SumProfile:
    """Eight row sums (plain and alternated) of a quad."""
    return SumProfile(
        quad.a.sum(), quad.b.sum(), quad.c.sum(), quad.d.sum(),
        quad.a.alt_sum(), quad.b.alt_sum(), quad.c.alt_sum(), quad.d.alt_sum(),
    )


def total_autocorr(quad: SeqQuad, shift: int) -> int:
    """Sum of the four autocorrelations at one shift."""
    return (paf(quad.a, shift) + paf(quad.b, shift)
            + paf(quad.c, shift) + paf(quad.d, shift))


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of quad verification.

    ``valid`` holds exactly when both ``first_failing_shift`` and
    ``structural_violation`` are absent.
    """

    valid: bool
    first_failing_shift: Optional[int]
    structural_violation: Optional[str]
    sums: SumProfile


def _violations(q: Packed, n: int, kind: Kind) -> tuple[Optional[str], Optional[int]]:
    """(structural violation, first failing shift) of the packed quad ``q`` of ``n``:
    the first of last entry of A, last entry of B, coupling from position 1
    up that fails, and the first of shifts 1..n whose total is not 0 (at
    s = n only A and B overlap; the (n+1, n+1, n, n) pattern needs it)."""
    a, b, c, d = q
    structural = None
    if kind is not Kind.BS:
        wrong = (a ^ b ^ partner_mask(n, kind)) >> 1  # body entry j at bit n-1-j
        if a & 1:
            structural = "last entry of A must be +1"
        elif not b & 1:
            structural = "last entry of B must be -1"
        elif wrong:
            rule = "B[i]=A[i]" if kind is Kind.NS else "B[i]=(-1)^(i-1)A[i]"
            structural = f"coupling {rule} fails at position {n + 1 - wrong.bit_length()}"
    # N_C(n) = N_D(n) = 0 pads C and D to the shifts of A and B
    totals = map(sum, zip(packed_autocorr(a, n + 1), packed_autocorr(b, n + 1),
                          packed_autocorr(c, n) + (0,), packed_autocorr(d, n) + (0,)))
    next(totals)  # shift 0
    return structural, next((s for s, t in enumerate(totals, 1) if t), None)


def packed_valid(q: Packed, n: int, kind: Kind) -> bool:
    """Whether the packed quad ``q`` of ``n`` is a valid quad of ``kind``."""
    return _violations(q, n, kind) == (None, None)


def verify(quad: SeqQuad) -> VerifyReport:
    """Check zero total autocorrelation at shifts 1..n plus structural coupling
    (see ``_violations``)."""
    structural, failing = _violations(quad.packed(), quad.n, quad.kind)
    return VerifyReport(valid=structural is None and failing is None,
                        first_failing_shift=failing, structural_violation=structural,
                        sums=row_sums(quad))


# --- text forms -----------------------------------------------------------
#
# Sequence text form: one '+'/'-' run per sequence; wrapped input is joined.
# Quad text form: four labelled lines X=, Y=, Z=, W= (mapping to A, B, C, D);
# unlabelled continuation lines extend the sequence started above them.

_LABELS = ("X", "Y", "Z", "W")


def quad_to_text(quad: SeqQuad) -> str:
    parts = []
    for label, seq in zip(_LABELS, quad.seqs()):
        parts.append(f"{label}={seq.text()}")
    return "\n".join(parts)


def parse_quads(text: str, kind: Kind) -> list[SeqQuad]:
    """Parse one or more quads in the quad text form."""
    blocks: list[dict[str, str]] = []
    current: dict[str, str] | None = None
    last_label: str | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if len(line) >= 2 and line[0] in _LABELS and line[1] == "=":
            label, body = line[0], line[2:]
            if label == "X":
                current = {}
                blocks.append(current)
            if current is None or label in current:
                raise MalformedInputError(f"unexpected {label}= line")
            current[label] = body
            last_label = label
        else:
            if current is None or last_label is None:
                raise MalformedInputError("sequence data before any X= label")
            current[last_label] += line
    quads = []
    for block in blocks:
        missing = [lab for lab in _LABELS if lab not in block]
        if missing:
            raise MalformedInputError(f"quad is missing lines: {missing}")
        seqs = [SignSeq.from_text(block[lab]) for lab in _LABELS]
        quads.append(SeqQuad(*seqs, kind=kind))
    if not quads:
        raise MalformedInputError("no quads found in input")
    return quads
