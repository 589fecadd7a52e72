import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, strategies as st

import toricvol
from toricvol.cli import (
    INPUT_DIGITS,
    DocumentError,
    InstanceDocument,
    TFlag,
    instance_json,
    load_instance,
    main,
    parse_instance,
    polytope_svg,
    _parse_range,
    _print_text_report,
    _report_json,
)
from toricvol import (
    cross,
    divisor,
    enumerate_tflags,
    hirzebruch_fan,
    okounkov_volume_report,
    projective_plane_fan,
    standard_decomposition,
    star_subdivide,
)
from conftest import (
    deep_ample_instance,
    hirzebruch_grid,
    random_smooth_fan,
    report_dict,
    report_text,
)


HIRZ_112 = '{"rays":[[1,0],[0,1],[-1,1],[0,-1]],"divisor":[0,1,2,0]}'


# an output path that cannot be opened, and one that opens but cannot be written
UNWRITABLE = pytest.mark.parametrize("where, strerror", [
    (lambda tmp: tmp / "missing" / "x", "No such file or directory"),
    pytest.param(lambda tmp: Path("/dev/full"), "No space left on device",
                 marks=pytest.mark.skipif(not Path("/dev/full").exists(),
                                          reason="needs the /dev/full device")),
], ids=["missing-dir", "full-device"])


def write(tmp_path, text, name="inst.json"):
    path = tmp_path / name
    path.write_text(text + "\n")
    return str(path)


class TestDocuments:
    def test_parse_minimal(self):
        doc = parse_instance(HIRZ_112)
        assert doc.rays == ((1, 0), (0, 1), (-1, 1), (0, -1))
        assert doc.divisor == (0, 1, 2, 0)
        assert doc.flag is None and doc.decomposition_variant is None

    def test_round_trip(self):
        doc = InstanceDocument(
            rays=((1, 0), (0, 1), (-1, -1)), divisor=(1, 0, 0),
            flag=TFlag(1, 0), decomposition_variant="successor")
        assert parse_instance(instance_json(doc)) == doc

    @given(data=st.data(), subdivisions=st.lists(st.integers(0, 30), max_size=6),
           big=st.integers(0, 80), with_flag=st.booleans(),
           variant=st.none() | st.sampled_from(["default", "successor", "generic-at=2"])
           | st.text(max_size=6))
    def test_round_trip_property(self, data, subdivisions, big, with_flag, variant):
        fan = projective_plane_fan()
        for k in subdivisions:
            fan = star_subdivide(fan, k % fan.n_rays)
        coeffs = st.integers(-2**big, 2**big)
        doc = InstanceDocument(
            rays=fan.rays,
            divisor=tuple(data.draw(st.lists(coeffs, min_size=fan.n_rays, max_size=fan.n_rays))),
            flag=data.draw(st.sampled_from(enumerate_tflags(fan))) if with_flag else None,
            decomposition_variant=variant)
        assert parse_instance(instance_json(doc)) == doc

    @pytest.mark.parametrize("text", [
        "not json at all",
        '{"rays":[[1,0],[0,1],[-1,-1]]}',
        '{"rays":[[1,0],[0,1],[-1,-1]],"divisor":[1,0]}',
        '{"rays":[[1,0],[0,1.5],[-1,-1]],"divisor":[1,0,0]}',
        '{"rays":[[1,0],[0,1],[-1,-1]],"divisor":[1,0,0],"flag":{"ray":1}}',
        '[1,2,3]',
    ])
    def test_malformed_documents_rejected(self, text):
        from toricvol.cli import DocumentError
        with pytest.raises(DocumentError):
            parse_instance(text)

    def test_deeply_nested_document_is_input_error(self, tmp_path, capsys):
        path = write(tmp_path, "[" * 100_000 + "]" * 100_000)
        assert main(["report", path]) == 2
        assert capsys.readouterr().err == "error: invalid JSON: nested too deeply\n"


class TestHirzebruchCommand:
    def test_byte_exact_serialization(self, capsys):
        assert main(["hirzebruch", "--l", "1", "--a", "1", "--b", "2"]) == 0
        assert capsys.readouterr().out == HIRZ_112 + "\n"

    def test_emit_then_check_ample(self, tmp_path, capsys):
        path = str(tmp_path / "i.json")
        assert main(["hirzebruch", "--l", "3", "--a", "2", "--b", "7", "--emit", path]) == 0
        assert main(["check", path]) == 0
        assert "ample: true" in capsys.readouterr().out

    def test_boundary_case_not_ample(self, tmp_path, capsys):
        path = str(tmp_path / "i.json")
        main(["hirzebruch", "--l", "2", "--a", "1", "--b", "2", "--emit", path])
        assert main(["check", path]) == 1
        assert "ample: false" in capsys.readouterr().out

    def test_rejects_bad_parameter(self):
        assert main(["hirzebruch", "--l", "0", "--a", "1", "--b", "2"]) == 2

    @UNWRITABLE
    def test_unwritable_emit_path_is_input_error(self, tmp_path, capsys, where, strerror):
        path = where(tmp_path)
        assert main(["hirzebruch", "--l", "1", "--a", "1", "--b", "2", "--emit", str(path)]) == 2
        assert capsys.readouterr().err == f"error: cannot write {path}: {strerror}\n"


class TestCheckCommand:
    def test_malformed_file(self, tmp_path):
        assert main(["check", write(tmp_path, "{broken")]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["check", str(tmp_path / "nope.json")]) == 2

    def test_invalid_fan_reported(self, tmp_path, capsys):
        path = write(tmp_path, '{"rays":[[1,0],[0,2],[-1,0],[0,-1]],"divisor":[0,0,0,0]}')
        assert main(["check", path]) == 1
        assert "not primitive" in capsys.readouterr().out

    def test_witnesses_on_failure(self, tmp_path, capsys):
        path = write(tmp_path, '{"rays":[[1,0],[0,1],[-1,1],[0,-1]],"divisor":[0,1,1,0]}')
        assert main(["check", path]) == 1
        out = capsys.readouterr().out
        assert "globally generated: true" in out
        assert "slack 0" in out

    def test_slack_lines_print_curve_degrees(self, tmp_path, capsys):
        # each failing curve D_i gets one line, (cone i-1 vs ray i+1), whose
        # slack is the degree d_{i-1} + d_{i+1} - cross(r_{i-1}, r_{i+1}) * d_i
        rng = random.Random(67)
        for _ in range(30):
            fan = random_smooth_fan(rng)
            rays, n = fan.rays, fan.n_rays
            d = [rng.randint(-3, 4) for _ in range(n)]
            degrees = [d[i - 1] + d[(i + 1) % n] - cross(rays[i - 1], rays[(i + 1) % n]) * d[i]
                       for i in range(n)]
            doc = json.dumps({"rays": [list(r) for r in rays], "divisor": d})
            rc = main(["check", write(tmp_path, doc)])
            lines = re.findall(r"cone (\d+) vs ray (\d+): slack (-?\d+)", capsys.readouterr().out)
            got = {int(i): int(slack) for _, i, slack in lines}
            assert [((int(j) + 2) % n) for j, _, _ in lines] == [int(i) for _, i, _ in lines]
            assert got == {(i + 1) % n: x for i, x in enumerate(degrees) if x <= 0}
            assert rc == (1 if got else 0)

    def test_fan_validated_once_per_report(self, tmp_path, capsys, monkeypatch):
        import toricvol.fan as fan_module

        calls = []
        real = fan_module.fan_violations

        def counting(rays):
            calls.append(rays)
            return real(rays)

        monkeypatch.setattr(fan_module, "fan_violations", counting)
        assert main(["report", write(tmp_path, HIRZ_112)]) == 0
        assert len(calls) == 1
        capsys.readouterr()


class TestReportCommand:
    def test_text_report(self, tmp_path, capsys):
        path = write(tmp_path, HIRZ_112)
        assert main(["report", path, "--flag", "2,1"]) == 0
        out = capsys.readouterr().out
        assert "= 3/2" in out and "agree: true" in out
        assert "(D.D = 3)" in out

    def test_json_report_values(self, tmp_path, capsys):
        path = write(tmp_path, HIRZ_112)
        assert main(["report", path, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["agree"] is True
        assert set(data["values"].values()) == {"3/2"}
        assert data["self_intersection"] == 3
        assert data["contributing_flags"] == [[2, 1], [3, 2]]
        assert len(data["per_flag"]) == 8
        assert all(len(c["terms"]) == 3 for c in data["per_flag"])

    def test_flag_choice_does_not_change_totals(self, tmp_path, capsys):
        path = write(tmp_path, HIRZ_112)
        main(["report", path, "--format", "json", "--flag", "1,0"])
        first = json.loads(capsys.readouterr().out)["values"]
        main(["report", path, "--format", "json", "--flag", "2,1"])
        second = json.loads(capsys.readouterr().out)["values"]
        assert first == second

    def test_decomposition_variant_accepted(self, tmp_path, capsys):
        path = write(tmp_path, HIRZ_112)
        assert main(["--decomposition", "successor", "report", path, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["agree"] is True

    def test_csv_format(self, tmp_path, capsys):
        path = write(tmp_path, HIRZ_112)
        assert main(["report", path, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "area,dsq,simplex_sum,symbol_sum,triv_area,agree"
        assert lines[1] == "3/2,3,3/2,3/2,3/2,true"

    def test_non_ample_exit_one(self, tmp_path, capsys):
        path = write(tmp_path, '{"rays":[[1,0],[0,1],[-1,1],[0,-1]],"divisor":[0,1,1,0]}')
        assert main(["report", path]) == 1
        assert "ample: false" in capsys.readouterr().out

    def test_bad_flag_is_input_error(self, tmp_path):
        path = write(tmp_path, HIRZ_112)
        assert main(["report", path, "--flag", "0,1"]) == 2
        assert main(["report", path, "--flag", "zzz"]) == 2

    def test_non_utf8_file_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(DocumentError, match="not UTF-8"):
            load_instance(str(path))
        assert main(["report", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: cannot read {path}: ")

    def test_document_flag_used_as_default(self, tmp_path, capsys):
        doc = '{"rays":[[1,0],[0,1],[-1,1],[0,-1]],"divisor":[0,1,2,0],"flag":{"ray":2,"cone":1}}'
        path = write(tmp_path, doc)
        assert main(["report", path, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["display_flag"] == {"ray": 2, "cone": 1}


class TestEmptyStrings:
    # an empty flag or variant is malformed, not absent: it exits 2 like any
    # other malformed one instead of falling back to the default

    @pytest.mark.parametrize("argv, err", [
        (["report", "{doc}", "--flag="], "flag must be 'ray,cone', got ''"),
        (["polytope", "{doc}", "--svg", "{svg}", "--flag="], "flag must be 'ray,cone', got ''"),
        (["--decomposition=", "report", "{doc}"], "unknown decomposition variant ''"),
        (["--decomposition=", "sweep", "--l", "1", "--a", "1", "--b-extra", "1"],
         "unknown decomposition variant ''"),
        (["report", "{variant_doc}"], "unknown decomposition variant ''"),
    ], ids=["report-flag", "polytope-flag", "report-variant", "sweep-variant", "document-variant"])
    def test_empty_string_is_input_error(self, tmp_path, capsys, argv, err):
        paths = {"doc": write(tmp_path, HIRZ_112), "svg": str(tmp_path / "p.svg"),
                 "variant_doc": write(tmp_path, HIRZ_112[:-1] + ',"decomposition_variant":""}',
                                      "variant.json")}
        assert main([a.format(**paths) for a in argv]) == 2
        assert capsys.readouterr() == ("", f"error: {err}\n")
        assert not (tmp_path / "p.svg").exists()

    def test_null_document_flag_is_absent(self, tmp_path, capsys):
        path = write(tmp_path, HIRZ_112[:-1] + ',"flag":null}')
        assert main(["report", path, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["display_flag"] == {"ray": 0, "cone": 0}


class TestReportDisagreement:
    # route 4 off by two: D.D = 3 but the symbol sum reads 5, so report must
    # say so and exit 1 in every format

    @pytest.fixture(autouse=True)
    def broken_symbol_route(self, monkeypatch):
        import toricvol.volume as volume
        real = volume.intersection_number_via_symbols
        monkeypatch.setattr(volume, "intersection_number_via_symbols",
                            lambda D, dec: real(D, dec) + 2)

    def run(self, tmp_path, capsys, fmt):
        assert main(["report", write(tmp_path, HIRZ_112), "--format", fmt]) == 1
        out, err = capsys.readouterr()
        assert "Traceback" not in out + err and err == ""
        return out

    def test_text(self, tmp_path, capsys):
        out = self.run(tmp_path, capsys, "text")
        assert "symbol sum / 2         = 5/2\n" in out
        assert out.endswith("agree: false\n")

    def test_json(self, tmp_path, capsys):
        out = self.run(tmp_path, capsys, "json")
        assert '"agree": false' in out
        data = json.loads(out)
        assert data["agree"] is False and data["values"]["symbol_sum_half"] == "5/2"
        assert data["values"]["half_self_intersection"] == "3/2"

    def test_csv(self, tmp_path, capsys):
        out = self.run(tmp_path, capsys, "csv")
        assert out.splitlines()[1] == "3/2,3,3/2,5/2,3/2,false"


class TestInputSize:
    # the report's largest printed integers are the per-flag determinants;
    # INPUT_DIGITS keeps them inside Python's int-to-str digit limit

    @staticmethod
    def document(l, coeffs):
        # written by hand: json.dumps cannot write an int past the digit limit,
        # so such a coefficient is passed in as its digit string
        return f'{{"rays":[[1,0],[0,1],[-1,{l}],[0,-1]],"divisor":[{",".join(map(str, coeffs))}]}}'

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_document_at_the_bound_prints(self, tmp_path, capsys, fmt):
        top = 10 ** INPUT_DIGITS - 1            # INPUT_DIGITS nines
        l = 10 ** (INPUT_DIGITS - 1)            # INPUT_DIGITS digits
        # F_l with D = (0, 9, top, 0): ample as top > 9*l; the second document
        # adds the principal divisor of (top, 0), which moves top onto ray 0
        for coeffs in ([0, 9, top, 0], [top, 9, 0, 0]):
            path = write(tmp_path, self.document(l, coeffs))
            assert main(["report", path, "--format", fmt]) == 0
            out, err = capsys.readouterr()
            assert err == "" and max(map(len, re.findall(r"\d+", out))) > INPUT_DIGITS

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize("l, coeffs", [
        (1, [0, 1, 10 ** INPUT_DIGITS, 0]),            # one digit past the bound
        (10 ** INPUT_DIGITS, [0, 1, 2, 0]),            # a ray coordinate past it
        (1, [0, 1, 2 * 10 ** 4000, 0]),                # D.D would have 8000 digits
        (1, [0, 1, "1" + "0" * 4400, 0]),              # past the 4300-digit limit
    ], ids=["coeff-past-bound", "ray-past-bound", "coeff-4000-digits", "coeff-4400-digits"])
    def test_document_past_the_bound_is_input_error(self, tmp_path, capsys, fmt, l, coeffs):
        path = write(tmp_path, self.document(l, coeffs))
        assert main(["report", path, "--format", fmt]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: integer too large: more than {INPUT_DIGITS} digits\n"

    def test_lowered_interpreter_limit_lowers_the_bound(self, tmp_path):
        # under a 640-digit limit, 400-digit coefficients would give an
        # 801-digit D.D that cannot be printed
        path = write(tmp_path, self.document(1, [0, 10 ** 400, 3 * 10 ** 400, 0]))
        src = str(Path(toricvol.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "toricvol.cli", "report", path, "--format", "csv"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src, "PYTHONINTMAXSTRDIGITS": "640"})
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "error: integer too large: more than 106 digits\n"

    def test_sweep_past_the_bound_is_input_error(self, capsys):
        assert main(["sweep", "--l", "2", "--a", "1", "--b-extra", str(10 ** INPUT_DIGITS)]) == 2
        assert main(["sweep", "--l", "1", "--a", "9" * 4000, "--b-extra", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("error: integer too large") == 2


def assert_same_report(writer, got, want):
    if got != want:
        # name the first differing line: pytest's diff of two reports of
        # thousands of lines takes seconds per failing example while shrinking
        a, b = got.splitlines(keepends=True), want.splitlines(keepends=True)
        i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        pytest.fail(f"{writer} writer differs at line {i + 1}: {a[i:i + 1]} != {b[i:i + 1]}")


def assert_writer_matches_dict(report):
    assert_same_report("JSON", _report_json(report), json.dumps(report_dict(report), indent=2))


def assert_text_writer_matches_reference(report):
    buf = io.StringIO()
    _print_text_report(report, buf)
    assert_same_report("text", buf.getvalue(), report_text(report))


def grid_reports(variant):
    for l, a, b in hirzebruch_grid():
        D = divisor(hirzebruch_fan(l), (0, a, b, 0))
        dec = standard_decomposition(D.fan, variant)
        for display in (TFlag(0, 0), TFlag(2, 1)):
            yield okounkov_volume_report(D, dec, display)


def deep_report(n):
    D = deep_ample_instance(random.Random(n), n)
    report = okounkov_volume_report(D, standard_decomposition(D.fan, "successor"),
                                    TFlag(n - 1, n - 2))
    # the blocks cover odd subtotals p/2 and negative matrix entries
    assert any(c.twice % 2 for c in report.per_flag)
    assert any(x < 0 for c in report.per_flag for v in c.vectors for x in v)
    return report


_DEEP_FAN_ARGS = dict(
    seed=st.integers(0, 2**32), n=st.integers(3, 40),
    shift=st.tuples(st.integers(-2**40, 2**40), st.integers(-2**40, 2**40)),
    variant=st.sampled_from(["default", "successor", "generic-at=1"]), data=st.data())


def shifted_deep_report(seed, n, shift, variant, data):
    D = deep_ample_instance(random.Random(seed), n)
    # adding the principal divisor of a character keeps D ample and moves
    # every local equation, so matrix entries take either sign
    D = divisor(D.fan, [d + shift[0] * r[0] + shift[1] * r[1]
                        for d, r in zip(D.coeffs, D.fan.rays)])
    display = data.draw(st.sampled_from(enumerate_tflags(D.fan)))
    return okounkov_volume_report(D, standard_decomposition(D.fan, variant), display)


def non_ample_report():
    report = okounkov_volume_report(divisor(hirzebruch_fan(2), (0, 1, 2, 0)))
    assert not report.ample
    return report


class TestJsonWriter:
    # json.dumps over the whole report dict, kept in conftest, is the reference

    @pytest.mark.parametrize("variant", ["default", "successor", "generic-at=2"])
    def test_hirzebruch_grid(self, variant):
        for report in grid_reports(variant):
            assert_writer_matches_dict(report)

    @pytest.mark.parametrize("n", [8, 32, 64, 128])
    def test_deep_fans(self, n):
        assert_writer_matches_dict(deep_report(n))

    @given(**_DEEP_FAN_ARGS)
    def test_deep_fan_property(self, seed, n, shift, variant, data):
        assert_writer_matches_dict(shifted_deep_report(seed, n, shift, variant, data))

    def test_non_ample_report(self):
        assert_writer_matches_dict(non_ample_report())


class TestTextWriter:
    # the text report printed line by line, kept in conftest, is the reference

    @pytest.mark.parametrize("variant", ["default", "successor", "generic-at=2"])
    def test_hirzebruch_grid(self, variant):
        for report in grid_reports(variant):
            assert_text_writer_matches_reference(report)

    @pytest.mark.parametrize("n", [8, 32, 64, 128])
    def test_deep_fans(self, n):
        assert_text_writer_matches_reference(deep_report(n))

    @given(**_DEEP_FAN_ARGS)
    def test_deep_fan_property(self, seed, n, shift, variant, data):
        assert_text_writer_matches_reference(shifted_deep_report(seed, n, shift, variant, data))

    def test_non_ample_report(self):
        assert_text_writer_matches_reference(non_ample_report())


class TestClosedStdout:
    def test_reader_closing_early_exits_2_without_traceback(self, tmp_path):
        # a 64-ray JSON report is about 150 KB, more than the pipe and stdio
        # buffers hold, so the CLI is still writing when the reader goes away
        D = deep_ample_instance(random.Random(64), 64)
        path = write(tmp_path, instance_json(InstanceDocument(D.fan.rays, D.coeffs)))
        src = str(Path(toricvol.__file__).parents[1])
        with subprocess.Popen(
                [sys.executable, "-m", "toricvol.cli", "report", path, "--format", "json"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": src}) as proc:
            assert proc.stdout.readline() == b"{\n"
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=60) == 2
        assert "Traceback" not in err and "BrokenPipeError" not in err


class TestSweepCommand:
    def test_single_cell_row(self, capsys):
        assert main(["sweep", "--l", "1", "--a", "1", "--b-extra", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "l,a,b,area,dsq,simplex_sum,symbol_sum,agree"
        assert lines[1] == "1,1,2,3/2,3,3/2,3/2,true"

    def test_non_ample_row_uses_dash(self, capsys):
        assert main(["sweep", "--l", "1", "--a", "1", "--b-extra", "0..1"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "l,a,b,area,dsq,simplex_sum,symbol_sum,agree",
            "1,1,1,-,-,-,-,false",
            "1,1,2,3/2,3,3/2,3/2,true",
        ]

    def test_grid_rows_sorted_and_agreeing(self, tmp_path):
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--l", "1..2", "--a", "1..2", "--b-extra", "1..2",
                     "--csv", out]) == 0
        lines = Path(out).read_text().strip().splitlines()
        assert len(lines) == 9
        rows = [line.split(",") for line in lines[1:]]
        keys = [(int(r[0]), int(r[1]), int(r[2])) for r in rows]
        assert keys == sorted(keys)
        for l, a, b in keys:
            assert b == [int(r[2]) for r in rows if (int(r[0]), int(r[1])) == (l, a)][
                (b - l * a) - 1]
        assert all(r[7] == "true" for r in rows)

    @UNWRITABLE
    def test_unwritable_csv_path_is_input_error(self, tmp_path, capsys, where, strerror):
        path = where(tmp_path)
        assert main(["sweep", "--l", "1", "--a", "1", "--b-extra", "1", "--csv", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no header on stdout, before the error or instead of the file
        assert captured.err == f"error: cannot write {path}: {strerror}\n"

    def test_empty_range_rejected(self):
        assert main(["sweep", "--l", "2..1", "--a", "1", "--b-extra", "1"]) == 2

    def test_unknown_variant_rejected(self, tmp_path):
        assert main(["--decomposition", "bogus", "sweep",
                     "--l", "1", "--a", "1", "--b-extra", "1"]) == 2
        path = write(tmp_path, HIRZ_112)
        assert main(["--decomposition", "generic-at=9", "report", path]) == 2

    def test_unknown_variant_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["--decomposition", "bogus", "sweep", "--l", "1..2", "--a", "1",
                     "--b-extra", "1", "--csv", str(out)]) == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()

    @pytest.mark.parametrize("to_file", [False, True])
    def test_rows_stream_as_computed(self, tmp_path, capsys, monkeypatch, to_file):
        # when a report starts, every earlier row must already be written
        import toricvol.cli as cli

        real = cli.okounkov_volume_report
        path = tmp_path / "sweep.csv"
        written = []

        def spy(D, dec=None):
            written.append(path.read_text() if to_file else capsys.readouterr().out)
            return real(D, dec)

        monkeypatch.setattr(cli, "okounkov_volume_report", spy)
        argv = ["sweep", "--l", "1..2", "--a", "1", "--b-extra", "1..2"]
        assert main(argv + (["--csv", str(path)] if to_file else [])) == 0
        if to_file:
            rows = path.read_text().splitlines(keepends=True)
            # the file holds everything so far; stdout is drained at each read
            assert written == ["".join(rows[:k + 1]) for k in range(4)]
        else:
            rows = "".join(written + [capsys.readouterr().out]).splitlines(keepends=True)
            assert written == rows[:4]
        assert len(rows) == 5

    def test_deterministic_output(self, capsys):
        main(["sweep", "--l", "1..2", "--a", "1", "--b-extra", "1..3"])
        first = capsys.readouterr().out
        main(["sweep", "--l", "1..2", "--a", "1", "--b-extra", "1..3"])
        assert capsys.readouterr().out == first

    def test_disagreeing_row_gives_exit_one(self, capsys, monkeypatch):
        # a disagreement cannot be produced honestly, so fake one to pin the
        # exit-code contract
        import dataclasses
        import toricvol.cli as cli

        real = cli.okounkov_volume_report

        def broken(D, dec=None, display_flag=None):
            report = real(D, dec) if display_flag is None else real(D, dec, display_flag)
            return dataclasses.replace(report, agree=False)

        monkeypatch.setattr(cli, "okounkov_volume_report", broken)
        assert main(["sweep", "--l", "1", "--a", "1", "--b-extra", "1"]) == 1
        assert capsys.readouterr().out.strip().endswith("false")


class TestPolytopeCommand:
    def test_svg_written_with_vertices_and_area(self, tmp_path):
        path = write(tmp_path, HIRZ_112)
        out = str(tmp_path / "p.svg")
        assert main(["polytope", path, "--svg", out]) == 0
        svg = Path(out).read_text()
        assert "<polygon" in svg and "area = 3/2" in svg
        # vertex (2, 0) lands at pixel (80, 0)
        assert "80,0" in svg or 'cx="80"' in svg

    def test_overlay_equal_area_caption(self, tmp_path):
        path = write(tmp_path, HIRZ_112)
        out = str(tmp_path / "p.svg")
        assert main(["polytope", path, "--svg", out, "--flag", "2,1"]) == 0
        svg = Path(out).read_text()
        assert svg.count("<polygon") == 2
        assert "equal" in svg

    def test_zero_divisor_point_marker(self, tmp_path):
        path = write(tmp_path, '{"rays":[[1,0],[0,1],[-1,1],[0,-1]],"divisor":[0,0,0,0]}')
        out = str(tmp_path / "p.svg")
        assert main(["polytope", path, "--svg", out]) == 0
        assert "<circle" in Path(out).read_text()

    def test_non_generated_divisor_errors(self, tmp_path):
        path = write(tmp_path, '{"rays":[[1,0],[0,1],[-1,1],[0,-1]],"divisor":[0,1,0,0]}')
        out = str(tmp_path / "p.svg")
        assert main(["polytope", path, "--svg", out]) == 1

    def test_bad_flag_is_input_error(self, tmp_path):
        path = write(tmp_path, HIRZ_112)
        out = tmp_path / "p.svg"
        assert main(["polytope", path, "--svg", str(out), "--flag", "0,1"]) == 2
        assert main(["polytope", path, "--svg", str(out), "--flag", "9,9"]) == 2
        flagged = write(tmp_path, HIRZ_112[:-1] + ',"flag":{"ray":0,"cone":2}}', "flagged.json")
        assert main(["polytope", flagged, "--svg", str(out)]) == 2
        assert not out.exists()

    @UNWRITABLE
    def test_unwritable_svg_path_is_input_error(self, tmp_path, capsys, where, strerror):
        path = where(tmp_path)
        assert main(["polytope", write(tmp_path, HIRZ_112), "--svg", str(path)]) == 2
        assert capsys.readouterr().err == f"error: cannot write {path}: {strerror}\n"

    def test_svg_helper_direct(self):
        D = divisor(hirzebruch_fan(1), (0, 1, 2, 0))
        svg = polytope_svg(D, TFlag(2, 1))
        assert svg.startswith("<svg") and svg.endswith("</svg>")


# ------------------------------------------------------- exit-code contract

_VARIANTS = st.sampled_from(["default", "successor", "generic-at=0", "generic-at=2",
                             "generic-at=-1", "generic-at=9", "generic-at=x", "bogus"])
_SMALL = st.integers(-50, 50)


@st.composite
def _instance_documents(draw):
    """A small smooth fan (sometimes with one ray replaced), coefficients with
    |d| <= 50 and sometimes one of hundreds or thousands of digits, and an
    optional flag and decomposition variant, in range or not."""
    fan = projective_plane_fan()
    for k in draw(st.lists(st.integers(0, 20), max_size=4)):
        fan = star_subdivide(fan, k % fan.n_rays)
    rays = [list(r) for r in fan.rays]
    if draw(st.booleans()):
        rays[draw(st.integers(0, len(rays) - 1))] = [draw(st.integers(-3, 3)),
                                                      draw(st.integers(-3, 3))]
    doc = {"rays": rays, "divisor": draw(st.lists(_SMALL, min_size=len(rays),
                                                  max_size=len(rays)))}
    if draw(st.booleans()):
        doc["flag"] = {"ray": draw(st.integers(-1, 9)), "cone": draw(st.integers(-1, 9))}
    if draw(st.booleans()):
        doc["decomposition_variant"] = draw(_VARIANTS)
    text = json.dumps(doc)
    if draw(st.booleans()):
        # one coefficient near the input bound or past the 4300-digit limit on
        # int-to-str conversion, spliced in as text (json.dumps cannot write it)
        k = draw(st.sampled_from([INPUT_DIGITS, INPUT_DIGITS + 1, 4000, 4300, 4301, 4400]))
        big = draw(st.sampled_from(["", "-"])) + draw(st.sampled_from("123456789")) + "0" * (k - 1)
        i = draw(st.integers(0, len(rays) - 1))
        coeffs = [str(d) for d in doc["divisor"]]
        coeffs[i] = big
        text = text.replace(json.dumps(doc["divisor"]), "[" + ", ".join(coeffs) + "]")
    return text.encode()


_JSON = st.recursive(
    st.none() | st.booleans() | _SMALL | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["rays", "divisor", "flag", "ray", "cone", "decomposition_variant"])
        | st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)

_DOCUMENTS = st.one_of(
    _instance_documents(),
    _JSON.map(lambda x: json.dumps(x).encode()),
    st.binary(max_size=12),  # mostly neither UTF-8 nor JSON
)
_FLAGS = st.none() | st.tuples(st.integers(-1, 9), st.integers(-1, 9)).map(
    lambda t: f"{t[0]},{t[1]}") | st.text(max_size=4)


# sweep and hirzebruch arguments: usual values, with a random subset of the
# arguments replaced by odd ones: int() spellings ('1_0', an Arabic-Indic
# three), values at and past the input bound and past the 4300-digit
# int-to-str limit, empty strings, malformed ranges, unknown variants and
# unwritable outputs (paths are relative to a scratch directory)
_BIG = st.builds(lambda sign, k: sign + "9" * k, st.sampled_from(["", "-"]),
                 st.sampled_from([INPUT_DIGITS, INPUT_DIGITS + 1, 4400]))
_NUMBERS = st.integers(-2, 5).map(str) | st.sampled_from(["", "1_0", "\u0663", " 2", "x"]) | _BIG
_ODD_RANGES = st.one_of(
    _NUMBERS,
    st.tuples(_NUMBERS, _NUMBERS).map("..".join),
    st.sampled_from(["1..", "..2", "2..1", "1..2..3", ".."]),
)
_SMALL_RANGES = st.integers(1, 4).map(str) | st.builds(
    lambda lo, span: f"{lo}..{lo + span}", st.integers(0, 4), st.integers(0, 2))
_ODD_VARIANTS = _VARIANTS | st.just("") | st.text(max_size=4)
_UNWRITABLE = st.sampled_from(["missing/out"]
                              + (["/dev/full"] if Path("/dev/full").exists() else []))
_OUTPUTS = st.sampled_from([None, "out"])
_MAX_REPORTS = 50  # reports one sweep example may run, so the property stays fast


def _odd_subset(draw, usual: dict, odd: dict) -> dict:
    """A draw from each usual strategy, then a random subset of them redrawn
    from the odd ones."""
    values = {name: draw(strategy) for name, strategy in usual.items()}
    for name in draw(st.lists(st.sampled_from(sorted(odd)), unique=True, max_size=len(odd))):
        values[name] = draw(odd[name])
    return values


def _options(values: dict, workdir, output: str) -> list[str]:
    return [x for name, value in values.items() if value is not None
            for x in (name, str(workdir / value) if name == output else value)]


def _exit_code(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as e:  # argparse rejects the argv itself
            return e.code


def _range_size(text: str) -> int:
    """Values in a sweep range as the CLI reads it, 0 if it is not one."""
    try:
        r = _parse_range(text)
    except DocumentError:
        return 0
    return r.stop - r.start


class TestExitContract:
    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("contract")

    @given(doc=_DOCUMENTS, flag=_FLAGS, variant=st.none() | _VARIANTS)
    @example(doc=b"\xff\xfe", flag=None, variant=None)
    def test_every_document_exits_0_1_or_2(self, workdir, doc, flag, variant):
        path = workdir / "doc.json"
        path.write_bytes(doc)
        svg = workdir / "out.svg"
        pre = ["--decomposition", variant] if variant is not None else []
        post = ["--flag", flag] if flag is not None else []
        runs = [["check", str(path)]]
        runs += [["report", str(path), "--format", f, *post] for f in ("text", "json", "csv")]
        runs += [["polytope", str(path), "--svg", str(svg), *post]]
        for argv in runs:
            assert _exit_code(pre + argv) in (0, 1, 2), argv

    @given(data=st.data())
    def test_sweep_exits_0_1_or_2(self, workdir, data):
        ranges = ("--l", "--a", "--b-extra")
        values = _odd_subset(
            data.draw,
            {**dict.fromkeys(ranges, _SMALL_RANGES), "--csv": _OUTPUTS},
            {**dict.fromkeys(ranges, _ODD_RANGES), "--csv": _UNWRITABLE})
        sizes = [_range_size(values[name]) for name in ranges]
        assume(sizes[0] * sizes[1] * sizes[2] <= _MAX_REPORTS)
        variant = data.draw(st.none() | _ODD_VARIANTS)
        pre = [] if variant is None else ["--decomposition", variant]
        argv = [*pre, "sweep", *_options(values, workdir, "--csv")]
        assert _exit_code(argv) in (0, 1, 2), argv

    @given(data=st.data())
    def test_hirzebruch_exits_0_1_or_2(self, workdir, data):
        params = ("--l", "--a", "--b")
        values = _odd_subset(
            data.draw,
            {**dict.fromkeys(params, st.integers(-1, 6).map(str)), "--emit": _OUTPUTS},
            {**dict.fromkeys(params, st.none() | _NUMBERS), "--emit": _UNWRITABLE})
        argv = ["hirzebruch", *_options(values, workdir, "--emit")]
        assert _exit_code(argv) in (0, 1, 2), argv
