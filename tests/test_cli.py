import json
import os
import subprocess
import sys

import pytest

import vermaext
from vermaext.cli import build_parser, emit_table, run
from vermaext.coxeter import build_system
from vermaext.extbounds import all_expected_predicate
from vermaext.poly import LaurentPoly
from vermaext.refdata import A2_ORDER, A2_R_TABLE, E7_R_W0_E


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def cli_env(**extra):
    """The environment of a fresh `python -m vermaext.cli` process."""
    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(vermaext.__file__)),
                **extra)


class TestBasicCommands:
    def test_group(self, capsys):
        code, out = capture(capsys, ["group", "--type", "B3"])
        assert code == 0
        assert "order: 48" in out
        assert "longest_length: 9" in out

    def test_rpoly_json_matches_documented_form(self, capsys):
        code, out = capture(
            capsys,
            ["rpoly", "--type", "A2", "--from", "w0", "--to", "e", "--format", "json"],
        )
        assert code == 0
        assert out.strip() == '{"var": "v", "terms": [[-3, -1], [-1, 2], [1, -2], [3, 1]]}'

    def test_kl_nontrivial(self, capsys):
        code, out = capture(capsys, ["kl", "--type", "A3", "--nontrivial-from", "e"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("s2*s1*s3*s2:")
        assert lines[1].startswith("s1*s2*s3*s2*s1:")

    def test_grid(self, capsys):
        code, out = capture(
            capsys, ["grid", "--type", "A3", "--target", "e", "--source", "w0",
                     "--format", "json"],
        )
        assert code == 0
        data = json.loads(out)
        cells = {(a, b): v for a, b, v in data["cells"]}
        assert cells[(3, 0)] == 6
        assert cells[(2, 0)] == 2

    def test_triangle(self, capsys):
        code, out = capture(
            capsys, ["triangle", "--type", "A3", "--from", "s*r*t*s", "--to", "e"]
        )
        assert code == 0
        assert "(1, 0) interior" in out

    def test_predict(self, capsys):
        code, out = capture(capsys, ["predict", "--type", "A5", "--w", "s3"])
        assert code == 0
        assert "degree 10" in out and "additional" in out

    def test_classes(self, capsys):
        code, out = capture(capsys, ["classes", "--type", "A3"])
        assert code == 0
        assert "classes: 14" in out

    def test_scan_verdicts(self, capsys):
        code, out = capture(capsys, ["scan", "--type", "A2", "--format", "json"])
        assert code == 0
        assert json.loads(out)["verdict"] is True

    def test_bound(self, capsys):
        code, out = capture(
            capsys, ["bound", "--type", "A1", "--target", "e", "--source", "s1",
                     "--format", "json"],
        )
        assert code == 0
        assert json.loads(out) == {"vars": ["u", "v"], "terms": [[0, 1, 1], [1, 0, 1]]}

    def test_parabolic_pair(self, capsys):
        code, out = capture(
            capsys,
            ["srpoly", "--type", "A2", "--J", "s1", "--from", "s1*s2", "--to", "e"],
        )
        assert code == 0
        assert out.strip() == "v^2 - 1"


class TestTableEmission:
    def test_a2_r_table_text(self, capsys):
        code, out = capture(capsys, ["rpoly", "--type", "A2", "--table"])
        assert code == 0
        rows = [line.split(" | ") for line in out.strip().splitlines()]
        header = rows[0][1:]
        assert header == A2_ORDER
        body = {row[0]: row[1:] for row in rows[2:]}
        for xw in A2_ORDER:
            for k, yw in enumerate(A2_ORDER):
                want = LaurentPoly(A2_R_TABLE.get((xw, yw), {}))
                shown = body[xw][k]
                assert shown == (str(want) if want else "0")

    def test_csv_header(self, capsys):
        code, out = capture(
            capsys, ["rpoly", "--type", "A2", "--table", "--format", "csv"]
        )
        assert code == 0
        assert out.splitlines()[0] == "x,y,terms"

    def test_json_round_trip(self, capsys):
        code, out = capture(
            capsys, ["rpoly", "--type", "A2", "--table", "--format", "json"]
        )
        data = json.loads(out)
        sy = build_system("A2")
        for cell in data["cells"]:
            from vermaext.rpoly import RTable

            want = RTable(sy).r_poly(sy.element(cell["x"]), sy.element(cell["y"]))
            assert cell["value"] == want.to_json()

    def test_expected_needs_table(self, capsys):
        assert run(["rpoly", "--type", "A2", "--expected"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --expected needs --table\n"

    def test_expected_table(self, capsys):
        code, out = capture(
            capsys, ["rpoly", "--type", "A1", "--table", "--expected"]
        )
        assert code == 0
        assert "v + u" in out

    def test_expected_table_a2_matches_reference(self, capsys):
        from vermaext.poly import BiPoly
        from vermaext.refdata import A2_EXPECTED_TABLE

        code, out = capture(
            capsys, ["rpoly", "--type", "A2", "--table", "--expected",
                     "--format", "json"],
        )
        assert code == 0
        data = json.loads(out)
        got = {(c["x"], c["y"]): c["value"] for c in data["cells"]}
        want = {k: BiPoly(v).to_json() for k, v in A2_EXPECTED_TABLE.items()}
        assert got == want

    def test_emit_cap(self):
        sy = build_system("F4")
        with pytest.raises(ValueError):
            emit_table("rpoly", sy, "text")

    def test_parabolic_table_cap(self, capsys):
        code = run(["srpoly", "--type", "D5", "--table"])
        assert code == 2
        assert "capped at 120 rows (got 1920 coset representatives)" in capsys.readouterr().err

    def test_parabolic_table_under_cap(self, capsys):
        code, out = capture(capsys, ["prpoly", "--type", "D5", "--J", "s1,s2,s3,s4",
                                     "--table", "--format", "json"])
        assert code == 0
        assert json.loads(out)["cells"]

    def test_parabolic_table_csv(self, capsys):
        code, out = capture(
            capsys, ["prpoly", "--type", "A2", "--J", "s1", "--table", "--format", "csv"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,y,terms"
        assert lines[2] == 's2,e,"[[-1, -1], [1, 1]]"'


def reference_scan(label: str, fmt: str) -> str:
    """The scan report as a dict per pair serialized by json.dumps, or one
    formatted line per pair: what cmd_scan must print, byte for byte."""
    sy = build_system(label)
    report = all_expected_predicate(sy)
    name = sy.word_name
    if fmt == "json":
        return json.dumps({
            "type": sy.type_label,
            "pairs": report.pairs,
            "verdict": report.verdict,
            "sign_violations": [{"x": name(x), "y": name(y), "exponents": bad}
                                for x, y, bad in report.sign_violations],
            "uncertified": [{"x": name(x), "y": name(y)} for x, y in report.uncertified],
        }, sort_keys=True) + "\n"
    return "\n".join([
        "%s: %d comparable pairs" % (sy.type_label, report.pairs),
        "all extensions expected: %s" % ("yes" if report.verdict else "no"),
        *("sign violation (%s, %s) at %s" % (name(x), name(y), bad)
          for x, y, bad in report.sign_violations),
        *("no certificate for (%s, %s)" % (name(x), name(y)) for x, y in report.uncertified),
    ]) + "\n"


@pytest.mark.parametrize("label", ["A1", "G2", "A3", "B3", "D4", "B4"])
def test_scan_renderer_matches_reference(capsys, label):
    # A1 and G2 have a true verdict and empty lists; D4 and B4 have sign
    # violations; csv prints the text form
    for fmt in ("json", "text", "csv"):
        code, out = capture(capsys, ["scan", "--type", label, "--format", fmt])
        want = reference_scan(label, fmt)
        # a bool, so a failure reports the first difference, not a diff of
        # megabytes of output
        same = out == want
        first = next((i for i, (a, b) in enumerate(zip(out, want)) if a != b),
                     min(len(out), len(want)))
        assert code == 0
        assert same, "%s %s: first difference at character %d: %r" % (
            label, fmt, first, out[first:first + 40])


class TestE7Reference:
    def test_reference_pair_served(self, capsys):
        code, out = capture(
            capsys, ["rpoly", "--type", "E7", "--from", "w0", "--to", "e",
                     "--format", "json"],
        )
        assert code == 0
        want = LaurentPoly({-63 + 2 * i: c for i, c in enumerate(E7_R_W0_E)})
        assert json.loads(out) == want.to_json()

    def test_label_spellings_agree(self, capsys):
        argv = ["rpoly", "--from", "w0", "--to", "e"]
        outs = [capture(capsys, argv + ["--type", label]) for label in ("E7", "E_7", "e7")]
        assert outs[0][0] == 0
        assert outs[1] == outs[0] and outs[2] == outs[0]

    def test_other_pairs_refused(self, capsys):
        code = run(["rpoly", "--type", "E7", "--from", "s1", "--to", "e"])
        assert code == 2

    def test_table_refused(self, capsys):
        for extra in ([], ["--expected"]):
            assert run(["rpoly", "--type", "E7", "--table"] + extra) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "no E7 table" in captured.err

    def test_e7_never_built(self):
        from vermaext.coxeter import CapExceededError

        with pytest.raises(CapExceededError):
            build_system("E7")


class TestDeterminismAndCache:
    def test_scan_label_spellings_agree(self, capsys):
        outs = [capture(capsys, ["scan", "--type", label]) for label in ("A3", "A_3", "a3")]
        assert outs[0][1].startswith("A3: 213 comparable pairs\nall extensions expected: yes")
        assert outs[1] == outs[0] and outs[2] == outs[0]

    def test_repeat_runs_identical(self, capsys):
        outs = []
        for _ in range(2):
            code, out = capture(
                capsys, ["scan", "--type", "A3", "--format", "json"]
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_threads_option_rejected(self):
        with pytest.raises(SystemExit) as exc:
            run(["scan", "--type", "A3", "--threads", "2"])
        assert exc.value.code == 2

    def test_cache_dir_ignored(self, capsys, tmp_path, monkeypatch):
        argv = ["rpoly", "--type", "B3", "--from", "w0", "--to", "e"]
        plain = capture(capsys, argv)
        assert plain[0] == 0
        with_dir = argv + ["--cache-dir", str(tmp_path / "c")]
        assert capture(capsys, with_dir) == plain
        monkeypatch.setenv("VERMAEXT_CACHE_DIR", str(tmp_path / "d"))
        assert capture(capsys, with_dir) == plain
        assert capture(capsys, argv) == plain
        assert not (tmp_path / "c").exists() and not (tmp_path / "d").exists()

    def test_output_directory_is_usage_error(self, capsys, tmp_path):
        code = run(["group", "--type", "A2", "--output", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, _ = capture(
            capsys,
            ["rpoly", "--type", "A2", "--from", "w0", "--to", "e",
             "--format", "json", "--output", str(path)],
        )
        assert code == 0
        assert json.loads(path.read_text())["var"] == "v"

    def test_back_to_back_runs_share_no_state(self, capsys, tmp_path):
        # one process, several run() calls: nothing a call parses may carry
        # over into the next one
        path = tmp_path / "out.txt"
        argv = ["rpoly", "--type", "A2", "--from", "w0", "--to", "e"]
        assert capture(capsys, argv + ["--output", str(path)]) == (0, "")
        written = path.read_text()
        assert capture(capsys, argv) == (0, written)
        assert path.read_text() == written

        # prpoly and srpoly share one handler and differ only in the kind
        # their subparser sets
        outs = {}
        for kind in ("prpoly", "srpoly", "prpoly", "srpoly"):
            code, out = capture(capsys, [kind, "--type", "A2", "--J", "s1", "--table"])
            assert code == 0
            assert outs.setdefault(kind, out) == out
        assert outs["prpoly"] != outs["srpoly"]

        with pytest.raises(SystemExit) as exc:
            run(["rpoly", "--from", "w0", "--to", "e"])  # no --type
        assert exc.value.code == 2
        capsys.readouterr()
        assert capture(capsys, argv) == (0, written)

    def test_shared_parser_prints_what_a_fresh_process_prints(self, capsys, tmp_path,
                                                              monkeypatch):
        # one parser serves every run() of a process; each call of a mixed
        # batch, usage errors included, must behave as the first call of a
        # fresh process does, and the batch must leave the parser as it was
        parser = build_parser()
        assert build_parser() is parser
        monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the width
        help_text = parser.format_help()
        path = tmp_path / "out.json"
        batch = [
            ["kl", "--type", "A3", "--nontrivial-from", "e"],
            ["rpoly", "--type", "A2", "--format", "json", "--output", str(path)],
            ["verify"],  # neither --suite nor --all
            ["rpoly", "--from", "w0", "--to", "e"],  # no --type
            ["prpoly", "--type", "A2", "--J", "s1", "--table"],
            ["srpoly", "--type", "A2", "--J", "s1", "--table"],
        ]
        fresh = []
        for argv in batch:
            proc = subprocess.run(
                [sys.executable, "-m", "vermaext.cli", *argv], capture_output=True,
                text=True, env=cli_env(COLUMNS="80"), timeout=60,
            )
            fresh.append((proc.returncode, proc.stdout, proc.stderr))
        fresh_file = path.read_text()
        path.unlink()
        assert [code for code, _, _ in fresh] == [0, 0, 2, 2, 0, 0]

        shared = []
        for argv in batch:
            try:
                code = run(argv)
            except SystemExit as exc:
                code = exc.code
            shared.append((code, *capsys.readouterr()))
        assert shared == fresh
        assert path.read_text() == fresh_file
        assert build_parser() is parser
        assert parser.format_help() == help_text


class TestVerifyCommand:
    def test_single_suite(self, capsys):
        code, out = capture(capsys, ["verify", "--suite", "a2-tables"])
        assert code == 0
        assert out.startswith("suite a2-tables: PASS")

    def test_d4_report_shows_violation_set(self, capsys):
        code, out = capture(capsys, ["verify", "--suite", "d4-boe"])
        assert code == 0
        assert "sign violations" in out

    def test_unknown_suite(self, capsys):
        code = run(["verify", "--suite", "nope"])
        assert code == 2

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["rpoly"])  # missing --type
        assert exc.value.code == 2

    def test_classes_pair_needs_bruhat_order(self, capsys):
        assert run(["classes", "--type", "A3", "--pair", "e,w0"]) == 2
        err = capsys.readouterr().err
        assert err == "error: pair (e, s1*s2*s1*s3*s2*s1) needs x >= y in Bruhat order\n"

    @pytest.mark.parametrize("pair", ["e", "e,s1,s2"])
    def test_classes_pair_needs_comma(self, capsys, pair):
        assert run(["classes", "--type", "A3", "--pair", pair]) == 2
        err = capsys.readouterr().err
        assert err == "error: --pair needs two elements 'x,y' (got %r)\n" % pair

    def test_closed_pipe_no_traceback(self):
        # the reader closes its end before anything is written
        proc = subprocess.Popen(
            [sys.executable, "-m", "vermaext.cli", "scan", "--type", "A3"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env(),
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err and "BrokenPipeError" not in err

    def test_bad_element_exit_2(self, capsys, tmp_path):
        argv = ["rpoly", "--type", "A2", "--from", "s9", "--to", "e"]
        out_file = tmp_path / "F"
        for extra in ([], ["--output", str(out_file)]):
            assert run(argv + extra) == 2
            assert capsys.readouterr().out == ""  # a failed command writes nothing
        assert not out_file.exists()

    @pytest.mark.parametrize("exc, message", [
        (MemoryError(), "out of memory"),
        (MemoryError("Unable to allocate 643. MiB"), "Unable to allocate 643. MiB"),
    ])
    def test_out_of_memory_exit_2(self, capsys, tmp_path, monkeypatch, exc, message):
        # numpy's allocation failures subclass MemoryError
        def exhausted(system):
            raise exc

        monkeypatch.setattr("vermaext.extbounds.equiv_classes", exhausted)
        out_file = tmp_path / "F"
        for extra in ([], ["--output", str(out_file)]):
            assert run(["scan", "--type", "A2"] + extra) == 2
            assert capsys.readouterr() == ("", "error: %s\n" % message)
        assert not out_file.exists()
