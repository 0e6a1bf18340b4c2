import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from baseseq.cli import ResultRecord, _cmd_psd, build_parser, main
from baseseq.errors import MalformedInputError
from baseseq.refdata import known_quad
from baseseq.seqcore import Kind, parse_quads, quad_to_text

DATA = Path(__file__).resolve().parent.parent / "data"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_data_files_match_refdata():
    for n in (41, 42, 43):
        path = DATA / f"bs{n + 1}_{n}.txt"
        assert path.read_text().strip() == quad_to_text(known_quad(n))
        assert parse_quads(path.read_text(), Kind.BS) == [known_quad(n)]


def test_verify_published_file():
    code, out, _ = run_cli(["verify", "--kind", "bs",
                            "--file", str(DATA / "bs42_41.txt")])
    assert code == 0
    assert out.startswith("valid n=41 kind=bs shift0=166")


def test_verify_invalid_quad(tmp_path):
    q = known_quad(41)
    text = quad_to_text(q)
    flipped = text.replace("Z=+", "Z=-", 1)
    path = tmp_path / "bad.txt"
    path.write_text(flipped + "\n")
    code, out, _ = run_cli(["verify", "--kind", "bs", "--file", str(path)])
    assert code == 1
    assert "invalid" in out and "failing_shift" in out
    code, out, err = run_cli(["canon", "--kind", "bs", "--file", str(path)])
    assert code == 2 and out == ""
    assert err.strip() == "error: canon requires valid quads"


def test_verify_malformed_characters(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("X=+*+\nY=++\nZ=+\nW=+\n")
    code, _, err = run_cli(["verify", "--kind", "bs", "--file", str(path)])
    assert code == 2 and "error" in err


def test_unknown_kind_and_flags(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text(quad_to_text(known_quad(41)) + "\n")
    code, _, err = run_cli(["verify", "--kind", "golay", "--file", str(path)])
    assert code == 2
    code, _, _ = run_cli(["verify", "--bogus-flag", "x"])
    assert code == 2
    code, _, _ = run_cli(["nonsense"])
    assert code == 2


def test_sums_counts():
    code, out, _ = run_cli(["sums", "--n", "42", "--kind", "nns"])
    assert code == 0
    assert len(out.strip().splitlines()) == 7
    code, out, _ = run_cli(["sums", "--n", "6", "--kind", "ns"])
    assert code == 1 and out == ""


def test_profiles_lines_are_integer_csv():
    code, out, _ = run_cli(["profiles", "--n", "3", "--kind", "bs", "--m", "3"])
    assert code == 0
    for line in out.strip().splitlines():
        values = [int(v) for v in line.split(",")]
        assert len(values) == 8 + 4 * 3


def test_psd_command(tmp_path):
    q = known_quad(41)
    path = tmp_path / "zw.txt"
    path.write_text(q.c.text() + "\n" + q.d.text() + "\n")
    code, out, _ = run_cli(["psd", "--file", str(path), "--pair",
                            "--bound", "166"])
    assert code == 0
    assert out.count("keep") == 1
    code, out, _ = run_cli(["psd", "--file", str(path), "--bound", "166"])
    assert out.count("keep") == 2
    path.write_text(q.c.text() + "\n" + q.d.text() + "\n" + q.c.text() + "\n")
    code, out, err = run_cli(["psd", "--file", str(path), "--pair", "--bound", "166"])
    assert code == 2 and out == ""
    assert err.strip() == "error: --pair needs an even number of sequences"


# a seeded 90/89-sign pair, longer than the 64 signs a packed search
# sequence holds, and its psd lines at bound 362 on each grid: the pair,
# then each sequence alone (recorded with the DFT form of the screen)
LONG_PAIR = ("-+++--+-++-++---++-+++++--+-+-++-+-++-++-+-----++-+-+++--++++----++--++++"
             "----++++++--++-+-",
             "-++++--++--++++---+-+---+-+--++---+--+-+-+--+-+++----+---+++--+-+-++-++---"
             "----+++++-+-+-+")
LONG_PAIR_PSD = {
    "pi-over-100": ["667.172107607", "504.049148420", "477.729199190"],
    "l=50": ["590.587280097", "396.996894380", "477.729199190"],
    "l=1000": ["688.213077089", "517.068496705", "486.080683884"],
}


@pytest.mark.parametrize("grid", sorted(LONG_PAIR_PSD))
def test_psd_of_sequences_longer_than_64_signs(tmp_path, grid):
    path = tmp_path / "long.txt"
    path.write_text("\n".join(LONG_PAIR) + "\n")
    lines = []
    for extra in (["--pair"], []):
        code, out, _ = run_cli(["psd", "--file", str(path), "--grid", grid,
                                "--bound", "362", *extra])
        assert code == 0
        lines += out.splitlines()
    assert lines == [f"max_f={peak} bound=362 reject" for peak in LONG_PAIR_PSD[grid]]


def test_psd_refuses_a_bound_that_is_not_finite(tmp_path):
    path = tmp_path / "zw.txt"
    path.write_text(known_quad(41).c.text() + "\n")
    for bound in ("nan", "inf", "-inf"):
        code, out, err = run_cli(["psd", "--file", str(path), "--bound", bound])
        assert code == 2 and out == ""
        assert "--bound" in err
    args = build_parser().parse_args(["psd", "--file", str(path), "--bound", "nan"])
    with pytest.raises(MalformedInputError, match="--bound"):
        _cmd_psd(args, io.StringIO())


def test_psd_refuses_empty_input(tmp_path):
    # like verify and canon, psd exits 2 when its input holds nothing
    path = tmp_path / "empty.txt"
    for text in ("", "  \n\n \t\n"):
        path.write_text(text)
        for extra in ([], ["--pair"]):
            code, out, err = run_cli(["psd", "--file", str(path), "--bound", "166", *extra])
            assert code == 2 and out == ""
            assert "error: no sequences found in input" in err


def test_canon_dedups_input(tmp_path):
    from baseseq.equiv import SWAP_CD, apply
    q = known_quad(41)
    path = tmp_path / "quads.txt"
    path.write_text(quad_to_text(q) + "\n\n" + quad_to_text(apply(q, SWAP_CD)) + "\n")
    code, out, _ = run_cli(["canon", "--kind", "bs", "--file", str(path)])
    assert code == 0
    assert out.count("X=") == 1


def test_canon_and_verify_read_result_records(tmp_path):
    code, records, _ = run_cli(["oracle", "--n", "4", "--kind", "bs"])
    assert code == 0
    path = tmp_path / "oracle.txt"
    path.write_text(records)
    code, out, _ = run_cli(["verify", "--kind", "bs", "--file", str(path)])
    assert code == 0 and out.count("valid") == len(records.splitlines())
    code, canon, _ = run_cli(["canon", "--kind", "bs", "--file", str(path)])
    assert code == 0
    code, found, _ = run_cli(["search", "--n", "4", "--kind", "bs"])
    assert code == 0
    labelled = [f for f in found.split() if f[:2] in ("X=", "Y=", "Z=", "W=")]
    assert canon.split() == labelled
    code, _, err = run_cli(["canon", "--kind", "ns", "--file", str(path)])
    assert code == 2 and "kind" in err
    # a record whose n= is not its sequences' length
    lines = records.splitlines()
    lines[0] = lines[0].replace("n=4 ", "n=5 ", 1)
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(["verify", "--kind", "bs", "--file", str(path)])
    assert code == 2 and out == ""
    assert err.strip() == "error: record n does not match sequence lengths"


@pytest.mark.parametrize("good,bad", [("kind=bs", "kind=xx"), ("n=2", "n=x")])
@pytest.mark.parametrize("command", ["verify", "canon"])
def test_bad_record_field_is_named(tmp_path, command, good, bad):
    code, records, _ = run_cli(["oracle", "--n", "2", "--kind", "bs"])
    assert code == 0
    lines = records.splitlines()
    lines[1] = lines[1].replace(good + " ", bad + " ", 1)
    path = tmp_path / "records.txt"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli([command, "--kind", "bs", "--file", str(path)])
    assert code == 2 and out == ""
    assert err.strip() == f"error: bad record field {bad!r}"


def test_oracle_records_roundtrip():
    code, out, _ = run_cli(["oracle", "--n", "2", "--kind", "ns"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines
    for line in lines:
        rec = ResultRecord.parse(line)
        assert rec.line() == line
        assert rec.quad().n == 2


def test_oracle_empty_exit():
    code, out, _ = run_cli(["oracle", "--n", "6", "--kind", "ns"])
    assert code == 1 and out == ""


def test_search_cli_roundtrip(tmp_path):
    out_path = tmp_path / "res.txt"
    cert_path = tmp_path / "cert.json"
    code, _, _ = run_cli(["search", "--n", "4", "--kind", "nns", "--workers", "2",
                          "--out", str(out_path), "--cert", str(cert_path)])
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    records = [ResultRecord.parse(line) for line in lines]
    assert all(rec.canonical for rec in records)
    from baseseq.seqcore import verify
    assert all(verify(rec.quad()).valid for rec in records)
    cert = json.loads(cert_path.read_text())
    assert cert["exhaustive"] is True and cert["classes"] == len(records)


def test_search_cli_exhaustive_empty():
    code, out, err = run_cli(["search", "--n", "6", "--kind", "ns"])
    assert code == 1 and out == ""
    assert json.loads(err)["exhaustive"] is True


def test_search_cli_orbit_cap_exceeded():
    code, out, err = run_cli(["search", "--n", "3", "--kind", "bs", "--orbit-cap", "1"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "cap" in err


def test_search_and_canon_orbit_cap_boundary(tmp_path):
    # the largest BS 4 class has 1,024 members (see test_equiv): a cap of
    # 1,024 changes no byte, one of 1,023 exits 2 with no record written
    code, records, _ = run_cli(["oracle", "--n", "4", "--kind", "bs"])
    assert code == 0
    path = tmp_path / "oracle.txt"
    path.write_text(records)
    for argv in (["search", "--n", "4", "--kind", "bs"],
                 ["canon", "--kind", "bs", "--file", str(path)]):
        code, fresh, _ = run_cli(argv)
        assert code == 0 and fresh
        assert run_cli(argv + ["--orbit-cap", "1024"])[:2] == (0, fresh)
        code, out, err = run_cli(argv + ["--orbit-cap", "1023"])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "cap of 1023" in err


def test_search_and_canon_reject_orbit_cap_zero(tmp_path):
    code, out, err = run_cli(["search", "--n", "3", "--kind", "bs", "--orbit-cap", "0"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "orbit_cap" in err
    path = tmp_path / "quads.txt"
    path.write_text(quad_to_text(known_quad(41)) + "\n")
    code, out, err = run_cli(["canon", "--kind", "bs", "--file", str(path),
                              "--orbit-cap", "0"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "cap" in err


def test_search_refuses_journal_longer_than_task_list(tmp_path):
    from baseseq.searcher import _line_digest
    ck = tmp_path / "ck.json"
    assert run_cli(["search", "--n", "4", "--kind", "bs", "--checkpoint", str(ck)])[0] == 0
    header, *lines = [json.loads(line) for line in ck.read_text().splitlines()]
    # one more task line, its digest recomputed for index tasks_total
    extra = dict(lines[-1])
    extra["digest"] = _line_digest(header["config_digest"], header["tasks_total"],
                                   extra["finds"], extra["stats"])
    with ck.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(extra) + "\n")
    blob = ck.read_bytes()
    code, out, err = run_cli(["search", "--n", "4", "--kind", "bs", "--checkpoint", str(ck)])
    assert code == 2 and out == "" and err.startswith("error:")
    assert ck.read_bytes() == blob


def test_search_rejects_bad_grid_before_building_tasks(tmp_path, monkeypatch):
    from baseseq import searcher

    def no_build(_cfg):
        raise AssertionError("build_tasks ran for a bad grid spec")

    monkeypatch.setattr(searcher, "build_tasks", no_build)
    ck = tmp_path / "ck.json"
    for grid in ("bogus", "l=0", "pi-over-0", "l=50,pi-over-0"):
        code, out, err = run_cli(["search", "--n", "12", "--kind", "bs", "--grid", grid,
                                  "--checkpoint", str(ck)])
        assert code == 2 and out == "" and err.startswith("error:"), grid
        assert not ck.exists()


def test_search_rejects_unwritable_outputs_before_searching(tmp_path, monkeypatch):
    from baseseq import cli

    def no_search(*_args, **_kwargs):
        raise AssertionError("search ran with an unwritable output path")

    monkeypatch.setattr(cli, "search", no_search)
    bad = str(tmp_path / "missing" / "x.txt")
    for flag in ("--out", "--cert"):
        code, out, err = run_cli(["search", "--n", "10", "--kind", "bs", flag, bad])
        assert code == 2 and out == "" and err.startswith("error:"), flag


def test_profiles_rejects_wrong_sum_count():
    code, out, err = run_cli(["profiles", "--n", "5", "--kind", "bs", "--sums", "1,2,3"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "8" in err


@pytest.mark.parametrize("argv,option,text", [
    (["search", "--n", "5", "--kind", "bs", "--moduli", "3,x"], "--moduli", "3,x"),
    (["search", "--n", "5", "--kind", "bs", "--moduli", "3,,6"], "--moduli", "3,,6"),
    (["profiles", "--n", "5", "--kind", "bs", "--sums=1,2,3,4,5,6,7,x"],
     "--sums", "1,2,3,4,5,6,7,x"),
], ids=["moduli-letter", "moduli-empty", "sums-letter"])
def test_integer_list_options_name_a_bad_entry(argv, option, text):
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert err.strip() == f"error: {option} {text!r} needs comma-separated integers"


def test_profiles_refuses_near_normal_odd_n():
    code, out, err = run_cli(["profiles", "--n", "5", "--kind", "nns",
                              "--sums=-4,-2,-1,-1,-2,-4,-1,-1"])
    assert code == 2 and out == "" and err.startswith("error:")


def test_profiles_refuses_infeasible_sums():
    # the published BS 41 sums print 19,192 mod-3 profiles; with a' moved
    # from 0 to 4 they break the sum laws, which m = 3 alone never reads
    code, out, err = run_cli(["profiles", "--n", "41", "--kind", "bs",
                              "--sums=-2,0,9,9,4,2,9,9"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "-2,0,9,9,4,2,9,9" in err


def test_profiles_rejects_modulus_below_two():
    for m in ("0", "1"):
        code, out, err = run_cli(["profiles", "--n", "3", "--kind", "bs", "--m", m])
        assert code == 2 and out == "" and err.startswith("error:"), m


def test_record_parse_errors():
    with pytest.raises(MalformedInputError):
        ResultRecord.parse("n=3 kind=ns")
    with pytest.raises(MalformedInputError):
        ResultRecord.parse("gibberish")


def test_search_refuses_n_above_63_before_building_tasks(tmp_path, monkeypatch):
    # the completion kernel holds each sequence of up to 64 signs in one uint64
    from baseseq import searcher

    def no_build(_cfg):
        raise AssertionError("build_tasks ran for n = 64")

    monkeypatch.setattr(searcher, "build_tasks", no_build)
    for kind in ("bs", "nns"):
        code, out, err = run_cli(["search", "--n", "64", "--kind", kind,
                                  "--out", str(tmp_path / "out.txt")])
        assert code == 2 and out == "" and "n <= 63" in err, kind
