"""Brute-force enumeration of valid quads at tiny n.

This module is the ground truth that every filter and search result is
checked against.  It works straight from the definition: enumerate sign
assignments, keep those whose four autocorrelations cancel at every
shift.  It deliberately knows nothing about the arithmetic or spectral
filter modules.

The only speedup is an exact meet-in-the-middle join: the (C, D) side is
grouped by its autocorrelation vector and each (A, B) pair looks up the
exactly matching group.  That is a reorganisation of the definitional
equality, not a pruning heuristic.
"""

from __future__ import annotations

from .errors import PreconditionError
from .seqcore import Kind, SeqQuad, SignSeq, derive_partner, packed_autocorr

BRUTE_BS_MAX_N = 6
BRUTE_STRUCTURED_MAX_N = 8


def _cd_groups(n: int) -> dict[tuple[int, ...], list[tuple[int, int]]]:
    """Group all (C, D) packed pairs by N_C(s)+N_D(s), s = 1..n-1."""
    singles = [packed_autocorr(x, n) for x in range(1 << n)]
    groups: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for xc in range(1 << n):
        tc = singles[xc]
        for xd in range(1 << n):
            td = singles[xd]
            key = tuple(tc[s] + td[s] for s in range(1, n))
            groups.setdefault(key, []).append((xc, xd))
    return groups


def brute_bs(n: int) -> list[SeqQuad]:
    """All valid base quads for the given n, in deterministic order."""
    if n < 0:
        raise PreconditionError("n must be >= 0")
    if n > BRUTE_BS_MAX_N:
        raise PreconditionError(
            f"brute_bs is capped at n <= {BRUTE_BS_MAX_N} (cost 2^(4n+2))")
    if n == 0:
        return [SeqQuad.from_packed((xa, xb, 0, 0), 0, Kind.BS)
                for xa in range(2) for xb in range(2)]
    groups = _cd_groups(n)
    length = n + 1
    ab_acf = [packed_autocorr(x, length) for x in range(1 << length)]
    found = []
    for xa in range(1 << length):
        ta = ab_acf[xa]
        for xb in range(1 << length):
            tb = ab_acf[xb]
            # shift n touches only A and B (C, D are too short)
            if ta[n] + tb[n] != 0:
                continue
            key = tuple(-(ta[s] + tb[s]) for s in range(1, n))
            for xc, xd in groups.get(key, ()):
                found.append(SeqQuad.from_packed((xa, xb, xc, xd), n, Kind.BS))
    found.sort(key=SeqQuad.sort_key)
    return found


def brute_structured(n: int, kind: Kind) -> list[SeqQuad]:
    """All valid normal/near-normal quads for the given n."""
    if kind not in (Kind.NS, Kind.NNS):
        raise PreconditionError("kind must be ns or nns")
    if n < 0:
        raise PreconditionError("n must be >= 0")
    if n > BRUTE_STRUCTURED_MAX_N:
        raise PreconditionError(
            f"brute_structured is capped at n <= {BRUTE_STRUCTURED_MAX_N}")
    if kind is Kind.NNS and n % 2 != 0:
        raise PreconditionError("near-normal quads require even n")
    if n == 0:
        return [SeqQuad.from_packed((0, 1, 0, 0), 0, kind)]

    groups = _cd_groups(n)
    length = n + 1
    found = []
    for prefix in range(1 << n):
        seq_a = SignSeq.from_packed(prefix << 1, length)  # last entry +1
        seq_b = derive_partner(seq_a, kind)
        ta = seq_a.autocorr
        tb = seq_b.autocorr
        if ta[n] + tb[n] != 0:
            continue
        key = tuple(-(ta[s] + tb[s]) for s in range(1, n))
        for xc, xd in groups.get(key, ()):
            found.append(SeqQuad.from_packed((seq_a.packed, seq_b.packed, xc, xd), n, kind))
    found.sort(key=SeqQuad.sort_key)
    return found
