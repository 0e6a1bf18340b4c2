"""Command-line surface: verify, sums, profiles, psd, search, canon, oracle.

Output is line-delimited.  ``search`` writes its records only after
every task has run and the finds are deduplicated, so an interrupted
search leaves no records; its checkpoint (``--checkpoint``) is what
survives, and rerunning the same command resumes from it.  The
checkpoint is an append-only journal (version 3): a header line, then
one digested line per finished task; a torn last line is dropped on
resume.  Every command is reproducible byte for byte: there is no
randomness and no environment-variable config.

Exit codes: 0 on success; 1 when a command ran to completion with a
clean negative answer (exhaustive search found nothing, a verified quad
is invalid); 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from dataclasses import dataclass

from .errors import MalformedInputError, ResourceLimitError, ResumeError
from . import equiv, numfilter, oracle, specfilter
from .searcher import SearchConfig, search
from .seqcore import Kind, SeqQuad, SignSeq, SumProfile, parse_quads, quad_to_text, verify

_RECORD_KEYS = ("n", "kind", "X", "Y", "Z", "W", "canonical", "stage", "ts")


@dataclass(frozen=True)
class ResultRecord:
    """One found quad with producing-stage metadata, as a single line."""

    n: int
    kind: Kind
    x: str
    y: str
    z: str
    w: str
    canonical: bool
    stage: str
    ts: str = "-"

    @classmethod
    def from_quad(cls, quad: SeqQuad, canonical: bool, stage: str) -> "ResultRecord":
        a, b, c, d = (s.text() for s in quad.seqs())
        return cls(quad.n, quad.kind, a, b, c, d, canonical, stage)

    def quad(self) -> SeqQuad:
        q = SeqQuad(SignSeq.from_text(self.x), SignSeq.from_text(self.y),
                    SignSeq.from_text(self.z), SignSeq.from_text(self.w), self.kind)
        if q.n != self.n:
            raise MalformedInputError("record n does not match sequence lengths")
        return q

    def line(self) -> str:
        values = (str(self.n), self.kind.value, self.x, self.y, self.z, self.w,
                  "1" if self.canonical else "0", self.stage, self.ts)
        return " ".join(f"{k}={v}" for k, v in zip(_RECORD_KEYS, values))

    @classmethod
    def parse(cls, line: str) -> "ResultRecord":
        fields = {}
        for part in line.split():
            if "=" not in part:
                raise MalformedInputError(f"bad record field {part!r}")
            key, value = part.split("=", 1)
            fields[key] = value
        missing = [k for k in _RECORD_KEYS if k not in fields]
        if missing:
            raise MalformedInputError(f"record is missing fields: {missing}")
        for key, convert in (("n", int), ("kind", Kind)):
            try:
                fields[key] = convert(fields[key])
            except ValueError:
                bad = f"{key}={fields[key]}"
                raise MalformedInputError(f"bad record field {bad!r}") from None
        return cls(fields["n"], fields["kind"],
                   fields["X"], fields["Y"], fields["Z"], fields["W"],
                   fields["canonical"] == "1", fields["stage"], fields["ts"])


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_quads(path: str, kind: Kind) -> list[SeqQuad]:
    """Quads from result records when the first non-empty line starts with
    ``n=``, else from the quad text form."""
    text = _read_text(path)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].lstrip().startswith("n="):
        return parse_quads(text, kind)
    records = [ResultRecord.parse(ln) for ln in lines]
    for rec in records:
        if rec.kind is not kind:
            raise MalformedInputError(
                f"record of kind {rec.kind.value} where --kind is {kind.value}")
    return [rec.quad() for rec in records]


def _parse_kind(value: str) -> Kind:
    try:
        return Kind(value)
    except ValueError:
        raise MalformedInputError(f"unknown kind {value!r} (expected bs, ns or nns)")


def _int_list(option: str, text: str) -> tuple[int, ...]:
    """The comma-separated integers given to ``option``."""
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise MalformedInputError(f"{option} {text!r} needs comma-separated integers") from None


def _cmd_verify(args, out) -> int:
    kind = _parse_kind(args.kind)
    quads = _read_quads(args.file, kind)
    all_valid = True
    for quad in quads:
        report = verify(quad)
        if report.valid:
            shift0 = 2 * len(quad.a) + 2 * len(quad.c)
            print(f"valid n={quad.n} kind={kind.value} shift0={shift0} "
                  f"sums={report.sums}", file=out)
        else:
            all_valid = False
            reason = (f"failing_shift={report.first_failing_shift}"
                      if report.first_failing_shift is not None
                      else f"structural={report.structural_violation!r}")
            print(f"invalid n={quad.n} kind={kind.value} {reason}", file=out)
    return 0 if all_valid else 1


def _cmd_sums(args, out) -> int:
    kind = _parse_kind(args.kind)
    profiles = numfilter.sum_profiles(args.n, kind)
    for p in profiles:
        print(p, file=out)
    return 0 if profiles else 1


def _cmd_profiles(args, out) -> int:
    kind = _parse_kind(args.kind)
    m = args.m if args.m is not None else (6 if kind is Kind.NNS else 3)
    if args.sums:
        sums = [SumProfile.from_tuple(_int_list("--sums", args.sums))]
    else:
        sums = numfilter.sum_profiles(args.n, kind)
    emitted = 0
    for s in sums:
        for prof in numfilter.residue_profiles(args.n, m, s, kind):
            print(f"{s},{prof}", file=out)
            emitted += 1
    return 0 if emitted else 1


def _cmd_psd(args, out) -> int:
    if not math.isfinite(args.bound):
        raise MalformedInputError(f"--bound {args.bound!r} must be a finite number")
    grid = specfilter.ThetaGrid.from_spec(args.grid)
    lines = [ln.strip() for ln in _read_text(args.file).splitlines() if ln.strip()]
    seqs = [SignSeq.from_text(ln) for ln in lines]
    if not seqs:
        raise MalformedInputError("no sequences found in input")
    if args.pair:
        if len(seqs) % 2 != 0:
            raise MalformedInputError("--pair needs an even number of sequences")
        items = [(seqs[i], seqs[i + 1]) for i in range(0, len(seqs), 2)]
    else:
        items = [(s, SignSeq(())) for s in seqs]
    for a, b in items:
        peak = specfilter.pair_max(a, b, grid)
        word = "keep" if specfilter.pair_filter(a, b, args.bound, grid) else "reject"
        print(f"max_f={peak:.9f} bound={args.bound:g} {word}", file=out)
    return 0


def _cmd_canon(args, out) -> int:
    kind = _parse_kind(args.kind)
    quads = _read_quads(args.file, kind)
    for quad in quads:
        if not verify(quad).valid:
            raise MalformedInputError("canon requires valid quads")
    reps = equiv.dedup(quads, cap=args.orbit_cap)
    for i, rep in enumerate(reps):
        if i:
            print(file=out)
        print(quad_to_text(rep), file=out)
    return 0


def _cmd_oracle(args, out) -> int:
    kind = _parse_kind(args.kind)
    if kind is Kind.BS:
        quads = oracle.brute_bs(args.n)
    else:
        quads = oracle.brute_structured(args.n, kind)
    for quad in quads:
        print(ResultRecord.from_quad(quad, canonical=False, stage="oracle").line(),
              file=out)
    return 0 if quads else 1


def _cmd_search(args, out) -> int:
    kind = _parse_kind(args.kind)
    cfg = SearchConfig(
        n=args.n, kind=kind,
        start_side=args.start_side or "",
        moduli=_int_list("--moduli", args.moduli) if args.moduli else (),
        grids=tuple(args.grid.split(",")) if args.grid else (),
        first_solution_only=args.first,
        worker_count=args.workers,
        orbit_dedup=not args.no_dedup,
        checkpoint_interval=args.checkpoint_interval,
        orbit_cap=args.orbit_cap,
    )
    with contextlib.ExitStack() as stack:
        # opened before the search, so a bad path fails before any task is built
        sink = stack.enter_context(open(args.out, "w", encoding="utf-8")) if args.out else out
        cert_sink = (stack.enter_context(open(args.cert, "w", encoding="utf-8"))
                     if args.cert else sys.stderr)
        result = search(cfg, checkpoint_path=args.checkpoint)
        for quad, stage in zip(result.quads, result.stages):
            record = ResultRecord.from_quad(quad, canonical=cfg.orbit_dedup, stage=stage)
            print(record.line(), file=sink)
        print(json.dumps(result.certificate, sort_keys=True), file=cert_sink)
    return 0 if result.quads else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="baseseq",
        description="Verify, canonicalize and search base/normal/near-normal sequences.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify quads (quad text form or result records)")
    p.add_argument("--kind", required=True)
    p.add_argument("--file", required=True, help="path or - for stdin")

    p = sub.add_parser("sums", help="enumerate feasible sum profiles")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", required=True)

    p = sub.add_parser("profiles", help="enumerate residue-class profiles")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", required=True)
    p.add_argument("--m", type=int, default=None, help="modulus (default 3, nns 6)")
    p.add_argument("--sums", default="", help="restrict to one sum profile (8 ints)")

    p = sub.add_parser("psd", help="power-spectrum peak and keep/reject per sequence")
    p.add_argument("--file", required=True, help="one +/- sequence per line, or - ")
    p.add_argument("--grid", default="pi-over-100")
    p.add_argument("--bound", type=float, required=True)
    p.add_argument("--pair", action="store_true",
                   help="treat consecutive line pairs as one candidate pair")

    p = sub.add_parser("search", help="run the filter-then-backtrack pipeline")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true", default=True)
    mode.add_argument("--first", action="store_true",
                      help="stop at the first quad found")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--checkpoint", default="", help="checkpoint file to write/resume")
    p.add_argument("--checkpoint-interval", type=int, default=1,
                   help="append finished tasks to the checkpoint every N tasks "
                        "(and when the search stops)")
    p.add_argument("--grid", default="", help="comma-separated grid specs")
    p.add_argument("--moduli", default="", help="comma-separated modulus chain")
    p.add_argument("--start-side", default="", choices=["", "AB", "CD"])
    p.add_argument("--no-dedup", action="store_true",
                   help="emit raw finds instead of canonical class representatives")
    p.add_argument("--out", default="", help="write result records to this file")
    p.add_argument("--cert", default="", help="write the certificate JSON to this file")
    p.add_argument("--orbit-cap", type=int, default=equiv.DEFAULT_ORBIT_CAP)

    p = sub.add_parser("canon", help="canonical representative per input class "
                                     "(quad text form or result records)")
    p.add_argument("--kind", required=True)
    p.add_argument("--file", required=True)
    p.add_argument("--orbit-cap", type=int, default=equiv.DEFAULT_ORBIT_CAP)

    p = sub.add_parser("oracle", help="brute-force all valid quads at tiny n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handlers = {
        "verify": _cmd_verify, "sums": _cmd_sums, "profiles": _cmd_profiles,
        "psd": _cmd_psd, "search": _cmd_search, "canon": _cmd_canon,
        "oracle": _cmd_oracle,
    }
    try:
        return handlers[args.command](args, sys.stdout)
    except (ValueError, ResumeError, ResourceLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
