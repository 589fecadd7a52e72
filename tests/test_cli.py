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
    ERROR_LINE_LIMIT,
    INPUT_DIGITS,
    SWEEP_ROW_LIMIT,
    DocumentError,
    InstanceDocument,
    TFlag,
    load_instance,
    main,
    parse_instance,
    polytope_svg,
    build_parser,
    _parse_range,
    _report_csv,
    _report_json,
    _report_text,
)
from toricvol import (
    TorusDivisor,
    cross,
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
    reference_flag_contribution,
    report_csv,
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


def document_json(doc: InstanceDocument) -> str:
    """doc as a JSON document, written by json.dumps: the oracle that parse_instance reads back."""
    out: dict = {"rays": [list(r) for r in doc.rays], "divisor": list(doc.divisor)}
    if doc.flag is not None:
        out["flag"] = {"ray": doc.flag.ray, "cone": doc.flag.cone}
    if doc.decomposition_variant is not None:
        out["decomposition_variant"] = doc.decomposition_variant
    return json.dumps(out)


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
        assert parse_instance(document_json(doc)) == doc

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
            flag=data.draw(st.sampled_from(list(fan.charts))) if with_flag else None,
            decomposition_variant=variant)
        assert parse_instance(document_json(doc)) == doc

    @pytest.mark.parametrize("text", [
        "not json at all",
        '{"rays":[[1,0],[0,1],[-1,-1]]}',
        '{"rays":[[1,0],[0,1],[-1,-1]],"divisor":[1,0]}',
        '{"rays":[[1,0],[0,1.5],[-1,-1]],"divisor":[1,0,0]}',
        '{"rays":[[1,0],[0,1],[-1,-1]],"divisor":[1,0,0],"flag":{"ray":1}}',
        '{"rays":[[1,0],[0,1],[-1,-1]],"divisor":[1,0,0],"flag":{"ray":true,"cone":1}}',
        '{"rays":[[1,0],[0,1],[-1,-1]],"divisor":[1,0,0],"flag":{"ray":1.0,"cone":1}}',
        '{"rays":[[1,0],[0,1],[-1,-1]],"divisor":[1,0,0],"flag":{"ray":"2","cone":1}}',
        '{"rays":[[1,0],[0,1],[-1,-1]],"divisor":[1,0,0],"flag":[2,1]}',
        '{"rays":[[1,0],[0,1],[-1,-1]],"divisor":[1,0,0],"flag":{"ray":2,"cone":1,"x":0}}',
        '[1,2,3]',
        '{"rays":[[1,0],[0,1],[-1,-1]],"divisor":[1,0,"0"]}',
        '{"rays":[[1,0],[0,1],[-1,-1]],"divisor":[1,0,0],"decomposition_variant":3}',
    ])
    def test_malformed_documents_rejected(self, text):
        from toricvol.cli import DocumentError
        with pytest.raises(DocumentError):
            parse_instance(text)

    @pytest.mark.parametrize("extra, key", [
        (',"display_flag":{"ray":9,"cone":9}', "display_flag"),  # a misspelt "flag"
        (',"decomposition":"successor"', "decomposition"),
        (',"Rays":[]', "Rays"),
        (',"flag":null,"x":1,"y":2', "x"),  # the first unknown key, in document order
    ])
    @pytest.mark.parametrize("command", ["report", "check"])
    def test_unknown_field_is_input_error(self, tmp_path, capsys, extra, key, command):
        path = write(tmp_path, HIRZ_112[:-1] + extra + "}")
        assert main([command, path]) == 2
        assert capsys.readouterr() == ("", f"error: unknown field {key!r}\n")

    @pytest.mark.parametrize("doc, key", [
        # json.loads alone keeps the last copy: the ample second divisor, the flag (2, 0)
        ('{"rays":[[1,0],[0,1],[-1,1],[0,-1]],"divisor":[0,1,1,0],"divisor":[0,1,2,0]}', "divisor"),
        (HIRZ_112[:-1] + ',"flag":{"ray":0,"cone":0,"ray":2}}', "ray"),
        (HIRZ_112[:-1] + ',"flag":null,"flag":{"ray":2,"cone":1}}', "flag"),
        ('{"rays":[],"rays":[],"divisor":[],"divisor":[]}', "rays"),  # the first repeated key
    ])
    @pytest.mark.parametrize("command", ["report", "check", "polytope"])
    def test_repeated_field_is_input_error(self, tmp_path, capsys, doc, key, command):
        path = write(tmp_path, doc)
        svg = tmp_path / "p.svg"
        assert main([command, path, *(["--svg", str(svg)] if command == "polytope" else [])]) == 2
        assert capsys.readouterr() == ("", f"error: repeated field {key!r}\n")
        assert not svg.exists()

    def test_repeated_key_at_any_depth(self):
        with pytest.raises(DocumentError, match="^repeated field 'k'$"):
            parse_instance('{"rays":[[1,0]],"divisor":[[{"a":1,"b":{"k":1,"k":2}}]]}')
        assert parse_instance(HIRZ_112[:-1] + ',"flag":{"ray":2,"cone":1}}').flag == TFlag(2, 1)

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

    @pytest.mark.parametrize("l, argv", [
        (0, ["hirzebruch", "--l", "0", "--a", "1", "--b", "2", "--emit", "OUT"]),
        (0, ["sweep", "--l=0..2", "--a", "1", "--b-extra", "1", "--csv", "OUT"]),
        (-2, ["sweep", "--l=-2..-1", "--a", "1", "--b-extra", "1"]),
    ], ids=["hirzebruch-emit", "sweep-csv", "sweep-negative"])
    def test_rejects_bad_parameter(self, tmp_path, capsys, l, argv):
        # hirzebruch_fan alone checks l >= 1; both commands call it before any output opens
        assert main([str(tmp_path / "out") if a == "OUT" else a for a in argv]) == 2
        assert capsys.readouterr() == ("", f"error: l must be a positive integer, got {l}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["hirzebruch", "--l", "0", "--a", "BIG", "--b", "2"],
        ["sweep", "--l=0..1", "--a", "BIG", "--b-extra", "1"],
        ["sweep", "--l=-BIG..1", "--a", "0", "--b-extra", "0"],  # the first l of the range
    ], ids=["hirzebruch", "sweep", "sweep-first-l"])
    def test_input_size_is_read_before_l(self, capsys, argv):
        big = "1" + "0" * INPUT_DIGITS  # INPUT_DIGITS + 1 digits
        assert main([a.replace("BIG", big) for a in argv]) == 2
        assert capsys.readouterr() == ("", f"error: integer too large: more than {INPUT_DIGITS} digits\n")

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


class TestChartsBuiltOncePerFan:
    """A report and its rendering build the fan's table of 2n flag charts once."""

    @pytest.fixture
    def built(self, monkeypatch):
        # every table Fan2D.charts builds, spied on the cached property's function
        import toricvol.fan as fan_module
        prop = vars(fan_module.Fan2D)["charts"]
        tables, real = [], prop.func

        def spy(fan):
            tables.append(real(fan))
            return tables[-1]
        monkeypatch.setattr(prop, "func", spy)
        return tables

    @pytest.mark.parametrize("variant, flag", [([], []), (["--decomposition", "successor"],
                                                          ["--flag", "2,1"])])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("n", [4, 64])
    def test_report_builds_2n_charts(self, tmp_path, capsys, built, n, fmt, variant, flag):
        D = deep_ample_instance(random.Random(n), n)
        path = write(tmp_path, document_json(InstanceDocument(D.fan.rays, D.coeffs)))
        built.clear()
        assert main([*variant, "report", path, "--format", fmt, *flag]) == 0
        assert len(built) == 1 and len(built[0]) == 2 * n
        capsys.readouterr()

    def test_second_report_on_the_same_fan_builds_none(self, built):
        D = deep_ample_instance(random.Random(64), 64)
        built.clear()
        _report_json(okounkov_volume_report(D))
        assert len(built) == 1 and len(built[0]) == 128
        E = TorusDivisor(D.fan, [2 * d for d in D.coeffs])
        report = okounkov_volume_report(E, standard_decomposition(D.fan, "successor"), TFlag(5, 4))
        _report_json(report)
        _report_text(report)
        assert report.agree and len(built) == 1


class TestReportTakesTheIntPaths:
    """A report on int data takes the int-pair hull path and the chart walk:
    counted, so a later change cannot lose them without a failing test."""

    def test_json_report_calls_no_coords(self, tmp_path, capsys, monkeypatch):
        import toricvol.lattice as lattice
        calls = []
        real = lattice._coords

        def spy(p):
            calls.append(p)
            return real(p)
        monkeypatch.setattr(lattice, "_coords", spy)
        D = deep_ample_instance(random.Random(64), 64)
        path = write(tmp_path, document_json(InstanceDocument(D.fan.rays, D.coeffs)))
        assert main(["report", path, "--format", "json"]) == 0
        assert calls == []
        lattice.convex_hull_2d([(0, 0), (1, True)])  # the spy sees a hull that needs it
        assert (1, True) in calls
        capsys.readouterr()

    def test_cocycle_builds_no_flag(self, monkeypatch):
        import toricvol.fan as fan_module
        D = deep_ample_instance(random.Random(64), 64)
        D.fan.charts  # the table builds its 2n keys first
        built = []
        real_new = fan_module.TFlag.__new__

        def spy_new(cls, *args, **kwargs):
            built.append(args)
            return real_new(cls, *args, **kwargs)
        monkeypatch.setattr(fan_module.TFlag, "__new__", staticmethod(spy_new))
        assert len(D.cocycle) == 64 and built == []
        TFlag(0, 0)  # the spy sees a flag built
        assert built == [(0, 0)]

    def test_flag_contribution_values_nothing_and_calls_no_cross(self, monkeypatch):
        # route 3 pairs the local equations with the rays inline: no chart
        # value and no cross runs while a flag_contribution call runs
        import toricvol.fan as fan_module
        import toricvol.volume as volume
        D = deep_ample_instance(random.Random(64), 64)
        dec = standard_decomposition(D.fan, "successor")
        D.cocycle  # the local equations are built first
        calls = []
        value, cross_fn = fan_module.Rank2Valuation.value, toricvol.lattice.cross

        def spy_value(w, e):
            calls.append("value")
            return value(w, e)

        def spy_cross(u, v):
            calls.append("cross")
            return cross_fn(u, v)
        monkeypatch.setattr(fan_module.Rank2Valuation, "value", spy_value)
        for name, mod in list(sys.modules.items()):  # every binding of cross in the package
            if name.startswith("toricvol") and getattr(mod, "cross", None) is cross_fn:
                monkeypatch.setattr(mod, "cross", spy_cross)
        for flag in D.fan.charts:
            volume.flag_contribution(D, flag, dec)
        assert calls == []
        # the spies fire: the oracle values three local equations, and the
        # package's cross is the spy
        reference_flag_contribution(D, TFlag(0, 0), dec)
        toricvol.cross((1, 0), (0, 1))
        assert calls.count("value") == 3 and calls.count("cross") == 1

    def test_charts_build_no_flag(self, monkeypatch):
        import toricvol.fan as fan_module
        fan = fan_module.Fan2D(deep_ample_instance(random.Random(64), 64).fan.rays)
        built = []
        real_new = fan_module.TFlag.__new__

        def spy_new(cls, *args, **kwargs):
            built.append(args)
            return real_new(cls, *args, **kwargs)
        monkeypatch.setattr(fan_module.TFlag, "__new__", staticmethod(spy_new))
        assert len(fan.charts) == 128 and built == []
        assert all(type(f) is TFlag for f in fan.charts)
        TFlag(0, 0)  # the spy sees a flag built
        assert built == [(0, 0)]


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

    def test_non_ample_csv_row_is_dashes(self, tmp_path, capsys):
        path = write(tmp_path, '{"rays":[[1,0],[0,1],[-1,1],[0,-1]],"divisor":[0,1,1,0]}')
        assert main(["report", path, "--format", "csv"]) == 1
        assert capsys.readouterr() == ("area,dsq,simplex_sum,symbol_sum,triv_area,agree\n"
                                       "-,-,-,-,-,false\n", "")

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
        (["polytope", "{doc}", "--svg", "{out}", "--flag="], "flag must be 'ray,cone', got ''"),
        (["--decomposition=", "report", "{doc}"], "unknown decomposition variant ''"),
        (["--decomposition=", "sweep", "--l", "1", "--a", "1", "--b-extra", "1"],
         "unknown decomposition variant ''"),
        (["--decomposition=", "hirzebruch", "--l", "1", "--a", "1", "--b", "2", "--emit", "{out}"],
         "unknown decomposition variant ''"),
        (["report", "{variant_doc}"], "unknown decomposition variant ''"),
    ], ids=["report-flag", "polytope-flag", "report-variant", "sweep-variant", "hirzebruch-variant",
            "document-variant"])
    def test_empty_string_is_input_error(self, tmp_path, capsys, argv, err):
        paths = {"doc": write(tmp_path, HIRZ_112), "out": str(tmp_path / "out"),
                 "variant_doc": write(tmp_path, HIRZ_112[:-1] + ',"decomposition_variant":""}',
                                      "variant.json")}
        assert main([a.format(**paths) for a in argv]) == 2
        assert capsys.readouterr() == ("", f"error: {err}\n")
        assert not (tmp_path / "out").exists()

    def test_null_document_flag_is_absent(self, tmp_path, capsys):
        path = write(tmp_path, HIRZ_112[:-1] + ',"flag":null}')
        assert main(["report", path, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["display_flag"] == {"ray": 0, "cone": 0}


class TestDecimalSpellings:
    # every integer option is written -?[0-9]+: a flag's ray and cone, the K of
    # generic-at=K, the sweep ranges' ends and the hirzebruch values; int() alone
    # also takes spaces, a sign, underscores and non-ASCII digits

    @pytest.mark.parametrize("k", [" 1", "1 ", "+1", "1_0", "\u0663", "1\n", "0x1", "1.0", "", "-"])
    def test_bad_generic_owner_is_input_error(self, tmp_path, capsys, k):
        path, emit = write(tmp_path, HIRZ_112), tmp_path / "f.json"
        for command in (["report", path],
                        ["hirzebruch", "--l", "1", "--a", "1", "--b", "2", "--emit", str(emit)]):
            assert main(["--decomposition", f"generic-at={k}", *command]) == 2
            assert capsys.readouterr() == ("", f"error: bad decomposition variant {f'generic-at={k}'!r}\n")
        assert not emit.exists()

    @pytest.mark.parametrize("flag", ["+2,1", " 2,1", "2, 1", "2,1 ", "2_0,1", "\u0662,1", "2,\u0661",
                                      "2,-", "2,1,0"])
    def test_bad_flag_spelling_is_input_error(self, tmp_path, capsys, flag):
        path = write(tmp_path, HIRZ_112)
        for command in (["report", path, "--flag", flag],
                        ["polytope", path, "--svg", str(tmp_path / "p.svg"), "--flag", flag]):
            assert main(command) == 2
            assert capsys.readouterr() == ("", f"error: flag must be 'ray,cone', got {flag!r}\n")
        assert not (tmp_path / "p.svg").exists()

    @pytest.mark.parametrize("k", ["1_0", " 1", "1 ", "+1", "\u0662", "1\n", "0x1", "1.0", "", "-"])
    @pytest.mark.parametrize("option", ["--l", "--a", "--b-extra"])
    def test_bad_sweep_range_spelling_is_input_error(self, tmp_path, capsys, option, k):
        argv = {"--l": "1", "--a": "1", "--b-extra": "1", "--csv": str(tmp_path / "out.csv")}
        # the whole spellings with no K, or with a ".." too many, fail the same way
        for text in (k, f"{k}..2", f"1..{k}", "1..2..3", "1....2", "..", "1..", "..3"):
            argv[option] = text
            assert main(["sweep", *(f"{name}={value}" for name, value in argv.items())]) == 2
            assert capsys.readouterr() == ("", f"error: range must be 'K' or 'K1..K2', got {text!r}\n")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("k", ["1_0", " 1", "1 ", "+1", "\u0662", "1\n", "0x1", "1.0", "", "-"])
    @pytest.mark.parametrize("option", ["--l", "--a", "--b"])
    def test_bad_hirzebruch_spelling_is_usage_error(self, tmp_path, capsys, option, k):
        argv = {"--l": "1", "--a": "1", "--b": "2", option: k, "--emit": str(tmp_path / "f.json")}
        with pytest.raises(SystemExit) as exit_:
            main(["hirzebruch", *(f"{name}={value}" for name, value in argv.items())])
        assert exit_.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.endswith(f"error: argument {option}: invalid int value: {k!r}\n")
        assert not (tmp_path / "f.json").exists()

    def test_plain_decimals_unchanged(self, tmp_path, capsys):
        path = write(tmp_path, HIRZ_112)
        for k in range(4):
            assert main(["--decomposition", f"generic-at={k}", "report", path, "--flag", "2,1"]) == 0
        assert main(["--decomposition", "generic-at=-1", "report", path]) == 2
        assert capsys.readouterr().err == "error: generic orbit assigned to nonexistent cone -1\n"
        emit = tmp_path / "f.json"  # F_l has four cones, whatever l is
        assert main(["--decomposition=generic-at=9", "hirzebruch", "--l", "1", "--a", "1", "--b", "2",
                     "--emit", str(emit)]) == 2
        assert capsys.readouterr() == ("", "error: generic orbit assigned to nonexistent cone 9\n")
        assert not emit.exists()
        assert main(["sweep", "--l", "1", "--a=-1..1", "--b-extra", "1"]) == 1  # a <= 0 is not ample
        assert capsys.readouterr().out.splitlines()[1:] == [
            "1,-1,0,-,-,-,-,false", "1,0,1,-,-,-,-,false", "1,1,2,3/2,3,3/2,3/2,true"]
        assert main(["sweep", "--l", "2..1", "--a", "1", "--b-extra", "1"]) == 2
        assert capsys.readouterr().err == "error: empty range '2..1'\n"
        assert main(["hirzebruch", "--l", "1", "--a", "-1", "--b", "02"]) == 0
        assert capsys.readouterr().out == '{"rays":[[1,0],[0,1],[-1,1],[0,-1]],"divisor":[0,-1,2,0]}\n'


class TestOneDocumentPath:
    # check, report and polytope resolve a document in one function: an
    # ill-formed flag or decomposition, in the document or on the command
    # line, exits 2 from each with the same error and no output

    @pytest.mark.parametrize("pre, doc, err", [
        ([], HIRZ_112[:-1] + ',"decomposition_variant":""}', "unknown decomposition variant ''"),
        ([], HIRZ_112[:-1] + ',"decomposition_variant":"bogus"}',
         "unknown decomposition variant 'bogus'"),
        ([], HIRZ_112[:-1] + ',"flag":{"ray":3,"cone":0}}',
         "ray 3 is not a face of cone 0: not a flag"),
        (["--decomposition="], HIRZ_112, "unknown decomposition variant ''"),
        (["--decomposition", "bogus"], HIRZ_112, "unknown decomposition variant 'bogus'"),
    ], ids=["document-empty-variant", "document-bogus-variant", "document-flag",
            "option-empty-variant", "option-bogus-variant"])
    @pytest.mark.parametrize("command", [["check", "{doc}"], ["report", "{doc}"],
                                         ["polytope", "{doc}", "--svg", "{svg}"]],
                             ids=["check", "report", "polytope"])
    def test_ill_formed_document_is_input_error(self, tmp_path, capsys, pre, doc, err, command):
        paths = {"doc": write(tmp_path, doc), "svg": str(tmp_path / "p.svg")}
        assert main([*pre, *(a.format(**paths) for a in command)]) == 2
        assert capsys.readouterr() == ("", f"error: {err}\n")
        assert not (tmp_path / "p.svg").exists()

    def test_well_formed_document_checks(self, tmp_path, capsys):
        path = write(tmp_path, HIRZ_112[:-1]
                     + ',"flag":{"ray":2,"cone":1},"decomposition_variant":"successor"}')
        assert main(["check", path]) == 0
        assert capsys.readouterr() == (
            "fan: valid (4 rays)\nglobally generated: true\nample: true\n", "")


class TestFailuresMappedInMain:
    # main maps the failures every command raises to their exit codes, with
    # the same bytes from each command and no file written

    @pytest.mark.parametrize("command", [["check", "{doc}"], ["report", "{doc}"],
                                         ["polytope", "{doc}", "--svg", "{svg}"]],
                             ids=["check", "report", "polytope"])
    def test_invalid_fan(self, tmp_path, capsys, command):
        doc = '{"rays":[[1,0],[0,2],[-2,0],[0,-1]],"divisor":[0,0,0,0]}'
        paths = {"doc": write(tmp_path, doc), "svg": str(tmp_path / "p.svg")}
        assert main([a.format(**paths) for a in command]) == 1
        assert capsys.readouterr() == ("fan: invalid\n"
                                       "  ray 1 = (0, 2) is not primitive\n"
                                       "  ray 2 = (-2, 0) is not primitive\n", "")
        assert not (tmp_path / "p.svg").exists()

    def test_non_nef_polytope(self, tmp_path, capsys):
        path = write(tmp_path, '{"rays":[[1,0],[0,1],[-1,2],[0,-1]],"divisor":[0,-1,3,0]}')
        svg = tmp_path / "p.svg"
        assert main(["polytope", path, "--svg", str(svg)]) == 1
        assert capsys.readouterr() == ("", "error: divisor is not globally generated: local "
                                           "equation of cone 1 violates the inequality of ray 3\n")
        assert not svg.exists()

    @pytest.mark.parametrize("name, command", [
        ("ampleness_violations", ["check", "{doc}"]),
        ("okounkov_volume_report", ["report", "{doc}"]),
        ("divisor_polytope", ["polytope", "{doc}", "--svg", "{out}"]),
        ("hirzebruch_fan", ["sweep", "--l", "1", "--a", "1", "--b-extra", "1", "--csv", "{out}"]),
        ("hirzebruch_fan", ["hirzebruch", "--l", "1", "--a", "1", "--b", "2", "--emit", "{out}"]),
    ], ids=["check", "report", "polytope", "sweep", "hirzebruch"])
    def test_library_value_error(self, tmp_path, capsys, monkeypatch, name, command):
        # a library argument check no command foresaw exits 2, not with a traceback
        import toricvol.cli as cli

        def boom(*args):
            raise ValueError("boom")

        monkeypatch.setattr(cli, name, boom)
        paths = {"doc": write(tmp_path, HIRZ_112), "out": str(tmp_path / "out")}
        assert main([a.format(**paths) for a in command]) == 2
        assert capsys.readouterr() == ("", "error: boom\n")
        assert not (tmp_path / "out").exists()


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


class TestReportSharedDataFault:
    # every local equation negated: on F_0 with D = (1, 1, 1, 1), P_D = [-1, 1]^2 is symmetric
    # about 0, so all five routes still read 4; the report must say why it does not agree

    F0_1111 = '{"rays":[[1,0],[0,1],[-1,0],[0,-1]],"divisor":[1,1,1,1]}'
    WHY = "area_polytope: the vertices of P_D are not the local equations"

    @pytest.fixture(autouse=True)
    def negated_cocycle(self, monkeypatch):
        cocycle = toricvol.TorusDivisor.cocycle.func
        monkeypatch.setattr(toricvol.TorusDivisor, "cocycle",
                            property(lambda D: tuple((-x, -y) for x, y in cocycle(D))))

    def run(self, tmp_path, capsys, fmt):
        assert main(["report", write(tmp_path, self.F0_1111), "--format", fmt]) == 1
        out, err = capsys.readouterr()
        assert "Traceback" not in out + err and err == ""
        return out

    def test_text(self, tmp_path, capsys):
        out = self.run(tmp_path, capsys, "text")
        assert [line.split(" = ")[1].split()[0] for line in out.splitlines()[:5]] == ["4"] * 5
        assert out.endswith(f"\n{self.WHY}\nagree: false\n")

    def test_json(self, tmp_path, capsys):
        out = self.run(tmp_path, capsys, "json")
        data = json.loads(out)
        assert data["agree"] is False and data["diagnostics"] == [self.WHY]
        assert set(data["values"].values()) == {"4"}
        assert out == json.dumps(data, indent=2) + "\n"

    def test_csv(self, tmp_path, capsys):
        assert self.run(tmp_path, capsys, "csv").splitlines()[1] == "4,8,4,4,4,false"


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
        # past the interpreter's 4300-digit limit, which int() will not read; the extra cannot
        # bring b = l*a + extra back within the bound
        for argv in (["--a", "9" * 5000, "--b-extra", "0"],
                     ["--a", "9" * INPUT_DIGITS, "--b-extra=-" + "9" * 5000]):
            assert main(["sweep", "--l", "1", *argv]) == 2
            assert capsys.readouterr() == ("", f"error: integer too large: more than {INPUT_DIGITS} digits\n")

    @pytest.mark.parametrize("digits", [INPUT_DIGITS + 1, 5000])
    @pytest.mark.parametrize("option", ["--l", "--a", "--b-extra"])
    def test_empty_range_past_the_bound_is_input_error(self, tmp_path, capsys, option, digits):
        # an empty range's over-long end gets the size line, not the whole range echoed
        nines = "9" * digits
        csv = tmp_path / "out.csv"
        argv = {"--l": "1", "--a": "1", "--b-extra": "0", "--csv": str(csv)}
        for text in (f"{nines}..5", f"5..-{nines}", f"-{nines}..-{nines}9", f"{nines}9..{nines}"):
            argv[option] = text
            assert main(["sweep", *(f"{name}={value}" for name, value in argv.items())]) == 2
            assert capsys.readouterr() == ("", f"error: integer too large: more than {INPUT_DIGITS} digits\n")
        assert not csv.exists()

    def test_over_long_range_keeps_the_order_of_checks(self, capsys):
        # a non-empty range is size-checked after every range is read, so a later malformed one wins
        nines = "9" * (INPUT_DIGITS + 1)
        assert main(["sweep", "--l", f"1..{nines}", "--a", "x", "--b-extra", "0"]) == 2
        assert capsys.readouterr() == ("", "error: range must be 'K' or 'K1..K2', got 'x'\n")
        assert main(["sweep", "--l", "2..1", "--a", f"{nines}..5", "--b-extra", "0"]) == 2
        assert capsys.readouterr() == ("", "error: empty range '2..1'\n")

    @pytest.mark.parametrize("digits", [INPUT_DIGITS + 1, 5000])
    @pytest.mark.parametrize("sign", ["", "-"], ids=["positive", "negative"])
    def test_generic_owner_past_the_bound_is_input_error(self, tmp_path, capsys, sign, digits):
        variant = f"generic-at={sign}{'9' * digits}"
        out = tmp_path / "out"
        path = write(tmp_path, HIRZ_112)
        doc = write(tmp_path, HIRZ_112[:-1] + f',"decomposition_variant":"{variant}"}}', "variant.json")
        on_document = (["report", "{}"], ["report", "{}", "--format", "json"], ["check", "{}"],
                       ["polytope", "{}", "--svg", str(out), "--flag", "2,1"])
        runs = [["--decomposition", variant, *(a.format(path) for a in argv)] for argv in on_document]
        runs += [[a.format(doc) for a in argv] for argv in on_document]
        runs += [["--decomposition", variant, "hirzebruch", "--l", "1", "--a", "1", "--b", "2",
                  "--emit", str(out)],
                 ["--decomposition", variant, "sweep", "--l", "1", "--a", "1", "--b-extra", "1",
                  "--csv", str(out)]]
        for argv in runs:
            assert main(argv) == 2, argv
            assert capsys.readouterr() == ("", f"error: integer too large: more than {INPUT_DIGITS} digits\n")
        assert not out.exists()

    @pytest.mark.parametrize("digits", [INPUT_DIGITS + 1, 5000])
    @pytest.mark.parametrize("where", ["option", "document"])
    def test_flag_past_the_bound_is_input_error(self, tmp_path, capsys, where, digits):
        nines = "9" * digits
        if where == "option":
            argv = ["report", write(tmp_path, HIRZ_112), "--flag", f"1,{nines}"]
        else:
            argv = ["report", write(tmp_path, HIRZ_112[:-1] + f',"flag":{{"ray":1,"cone":{nines}}}}}')]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: integer too large: more than {INPUT_DIGITS} digits\n")

    def test_flag_size_is_read_in_field_order(self):
        # after the divisor's length, before the decomposition variant
        flag = f',"flag":{{"ray":1,"cone":{"9" * (INPUT_DIGITS + 1)}}}'
        with pytest.raises(DocumentError, match="^field 'divisor' has 3 entries for 4 rays$"):
            parse_instance('{"rays":[[1,0],[0,1],[-1,1],[0,-1]],"divisor":[0,1,2]' + flag + "}")
        with pytest.raises(DocumentError, match="^integer too large"):
            parse_instance(HIRZ_112[:-1] + flag + ',"decomposition_variant":3}')

    def test_hirzebruch_emits_only_documents_report_reads(self, tmp_path, capsys):
        emit = tmp_path / "inst.json"
        argv = ["hirzebruch", "--l", "1", "--a", "1", "--emit", str(emit), "--b"]
        assert main([*argv, str(10 ** INPUT_DIGITS)]) == 2      # one digit past the bound
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: integer too large: more than {INPUT_DIGITS} digits\n"
        assert not emit.exists()
        assert main([*argv, "9" * 5000]) == 2                    # past the interpreter's limit
        assert capsys.readouterr() == ("", f"error: integer too large: more than {INPUT_DIGITS} digits\n")
        assert not emit.exists()
        assert main([*argv, "9" * INPUT_DIGITS]) == 0
        assert main(["report", str(emit), "--format", "csv"]) == 0
        capsys.readouterr()

    # every message that echoes input text; argparse writes the last four, after its usage
    ECHOES = ("range", "generic-at", "flag", "variant option", "variant field", "unknown field",
              "repeated field", "cannot read", "int value", "command", "format", "unrecognized")

    @staticmethod
    def echo(case, t, tmp_path):
        """An argv whose error line echoes the text t, and that line whole."""
        f1 = write(tmp_path, HIRZ_112)
        path = tmp_path / t
        try:
            open(path)
        except OSError as e:
            strerror = e.strerror
        return {
            "range": (["sweep", "--l", "1", "--a", t, "--b-extra", "0"],
                      f"error: range must be 'K' or 'K1..K2', got {t!r}"),
            "generic-at": (["--decomposition", f"generic-at={t}", "report", f1],
                           f"error: bad decomposition variant 'generic-at={t}'"),
            "flag": (["report", f1, "--flag", t], f"error: flag must be 'ray,cone', got {t!r}"),
            "variant option": (["--decomposition", t, "check", f1],
                               f"error: unknown decomposition variant {t!r}"),
            "variant field": (["report", write(tmp_path, HIRZ_112[:-1] + f',"decomposition_variant":"{t}"}}',
                                                "variant.json")],
                              f"error: unknown decomposition variant {t!r}"),
            "unknown field": (["report", write(tmp_path, HIRZ_112[:-1] + f',"{t}":0}}', "key.json")],
                              f"error: unknown field {t!r}"),
            "repeated field": (["check", write(tmp_path, HIRZ_112[:-1] + f',"{t}":0,"{t}":1}}', "twice.json")],
                               f"error: repeated field {t!r}"),
            "cannot read": (["report", str(path)], f"error: cannot read {path}: {strerror}"),
            "int value": (["hirzebruch", "--l", "1", "--a", t, "--b", "2"],
                          f"toricvol hirzebruch: error: argument --a: invalid int value: {t!r}"),
            "command": ([t], f"toricvol: error: argument command: invalid choice: {t!r} "
                             "(choose from 'check', 'report', 'hirzebruch', 'sweep', 'polytope')"),
            "format": (["report", f1, "--format", t], "toricvol report: error: argument --format: "
                       f"invalid choice: {t!r} (choose from 'text', 'json', 'csv')"),
            "unrecognized": (["report", f1, t], f"toricvol: error: unrecognized arguments: {t}"),
        }[case]

    @staticmethod
    def stderr_lines(argv) -> list[str]:
        """The lines argv writes to stderr, after checking that it exits 2 and writes no stdout."""
        out, err, code, _ = _run(main, argv)
        assert (code, out) == (2, "") and err.endswith("\n")
        return err.splitlines()

    @pytest.mark.parametrize("case", ECHOES)
    def test_echo_past_the_line_bound_is_cut(self, tmp_path, case):
        # ten characters print whole, after argparse's usage for its own messages
        argv, line = self.echo(case, "x" * 10, tmp_path)
        *usage, got = self.stderr_lines(argv)
        assert got == line and bool(usage) == (not line.startswith("error: "))
        assert all(u.startswith(("usage: toricvol", " ")) for u in usage)
        # 5000 are cut to the bound, after the same usage
        argv, line = self.echo(case, "x" * 5000, tmp_path)
        *got_usage, got = self.stderr_lines(argv)
        assert got_usage == usage and len(got) <= ERROR_LINE_LIMIT
        kept, left_out = re.fullmatch(r"(.*)\.\.\. \((\d+) characters left out\)", got).groups()
        assert line.startswith(kept) and len(kept) + int(left_out) == len(line)

    def test_longest_lines_within_the_size_bound_print_whole(self, capsys):
        nines = "9" * INPUT_DIGITS
        lines = [f"error: generic orbit assigned to nonexistent cone -{nines}",
                 f"error: empty range '{nines}..-{nines}'"]
        assert [len(line) for line in lines] == [INPUT_DIGITS + 51, 2 * INPUT_DIGITS + 24]
        assert main(["--decomposition", f"generic-at=-{nines}",
                     "hirzebruch", "--l", "1", "--a", "1", "--b", "2"]) == 2
        assert main(["sweep", "--l", "1", "--a", f"{nines}..-{nines}", "--b-extra", "0"]) == 2
        assert capsys.readouterr() == ("", "".join(f"{line}\n" for line in lines))


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
    assert_same_report("text", _report_text(report), report_text(report))


def assert_csv_writer_matches_reference(report):
    assert_same_report("CSV", _report_csv(report), report_csv(report))


# the three decompositions --decomposition default, successor and generic-at=2 name, as values
_GRID_DECOMPOSITIONS = pytest.mark.parametrize(
    "variant, generic_owner", [("default", 0), ("successor", 0), ("default", 2)],
    ids=["default", "successor", "generic-at=2"])


def grid_reports(variant, generic_owner):
    for l, a, b in hirzebruch_grid():
        D = TorusDivisor(hirzebruch_fan(l), (0, a, b, 0))
        dec = standard_decomposition(D.fan, variant)._replace(generic_owner=generic_owner)
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
    variant=st.sampled_from([("default", 0), ("successor", 0), ("default", 1)]), data=st.data())


def shifted_deep_report(seed, n, shift, variant, data):
    D = deep_ample_instance(random.Random(seed), n)
    # adding the principal divisor of a character keeps D ample and moves
    # every local equation, so matrix entries take either sign
    D = TorusDivisor(D.fan, [d + shift[0] * r[0] + shift[1] * r[1]
                        for d, r in zip(D.coeffs, D.fan.rays)])
    display = data.draw(st.sampled_from(list(D.fan.charts)))
    name, generic_owner = variant
    dec = standard_decomposition(D.fan, name)._replace(generic_owner=generic_owner)
    return okounkov_volume_report(D, dec, display)


def non_ample_report():
    report = okounkov_volume_report(TorusDivisor(hirzebruch_fan(2), (0, 1, 2, 0)))
    assert not report.ample
    return report


class TestJsonWriter:
    # json.dumps over the whole report dict, kept in conftest, is the reference

    @_GRID_DECOMPOSITIONS
    def test_hirzebruch_grid(self, variant, generic_owner):
        for report in grid_reports(variant, generic_owner):
            assert_writer_matches_dict(report)

    @pytest.mark.parametrize("n", [8, 32, 64, 128])
    def test_deep_fans(self, n):
        assert_writer_matches_dict(deep_report(n))

    @given(**_DEEP_FAN_ARGS)
    def test_deep_fan_property(self, seed, n, shift, variant, data):
        assert_writer_matches_dict(shifted_deep_report(seed, n, shift, variant, data))

    def test_non_ample_report(self):
        assert_writer_matches_dict(non_ample_report())

    def test_disagreeing_report(self, monkeypatch):
        # route 4 off by two, as in TestReportDisagreement: the template writes "agree": false
        import toricvol.volume as volume
        real = volume.intersection_number_via_symbols
        monkeypatch.setattr(volume, "intersection_number_via_symbols", lambda D, dec: real(D, dec) + 2)
        report = okounkov_volume_report(TorusDivisor(hirzebruch_fan(1), (0, 1, 2, 0)))
        assert report.ample and not report.agree
        assert_writer_matches_dict(report)
        assert '\n  "agree": false,\n' in _report_json(report)

    def test_every_display_flag_of_f1(self):
        D = TorusDivisor(hirzebruch_fan(1), (0, 1, 2, 0))
        assert len(D.fan.charts) == 8
        for flag in D.fan.charts:
            report = okounkov_volume_report(D, display_flag=flag)
            assert report.display_flag == flag
            assert_writer_matches_dict(report)


class TestTextWriter:
    # the text report printed line by line, kept in conftest, is the reference

    @_GRID_DECOMPOSITIONS
    def test_hirzebruch_grid(self, variant, generic_owner):
        for report in grid_reports(variant, generic_owner):
            assert_text_writer_matches_reference(report)

    @pytest.mark.parametrize("n", [8, 32, 64, 128])
    def test_deep_fans(self, n):
        assert_text_writer_matches_reference(deep_report(n))

    @given(**_DEEP_FAN_ARGS)
    def test_deep_fan_property(self, seed, n, shift, variant, data):
        assert_text_writer_matches_reference(shifted_deep_report(seed, n, shift, variant, data))

    def test_non_ample_report(self):
        assert_text_writer_matches_reference(non_ample_report())


class TestCsvWriter:
    # the header and a row built from report.values, kept in conftest, is the reference

    @_GRID_DECOMPOSITIONS
    def test_hirzebruch_grid(self, variant, generic_owner):
        for report in grid_reports(variant, generic_owner):
            assert_csv_writer_matches_reference(report)

    @pytest.mark.parametrize("n", [8, 32, 64, 128])
    def test_deep_fans(self, n):
        assert_csv_writer_matches_reference(deep_report(n))

    @given(**_DEEP_FAN_ARGS)
    def test_deep_fan_property(self, seed, n, shift, variant, data):
        assert_csv_writer_matches_reference(shifted_deep_report(seed, n, shift, variant, data))

    def test_non_ample_report(self):
        assert_csv_writer_matches_reference(non_ample_report())


class TestTupleDisplayFlag:
    # a library caller may give the display flag as a plain (ray, cone) tuple

    @pytest.mark.parametrize("coeffs", [(0, 1, 2, 0), (0, 1, 1, 0)], ids=["ample", "non-ample"])
    @pytest.mark.parametrize("writer", [_report_text, _report_json, _report_csv],
                             ids=["text", "json", "csv"])
    def test_writes_the_bytes_of_a_flag(self, writer, coeffs):
        D = TorusDivisor(hirzebruch_fan(1), coeffs)
        report = okounkov_volume_report(D, display_flag=(2, 1))
        assert type(report.display_flag) is TFlag
        assert writer(report) == writer(okounkov_volume_report(D, display_flag=TFlag(2, 1)))


class TestClosedStdout:
    def test_reader_closing_early_exits_2_without_traceback(self, tmp_path):
        # a 64-ray JSON report is about 150 KB, more than the pipe and stdio
        # buffers hold, so the CLI is still writing when the reader goes away
        D = deep_ample_instance(random.Random(64), 64)
        path = write(tmp_path, document_json(InstanceDocument(D.fan.rays, D.coeffs)))
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

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs the /dev/full device")
    @pytest.mark.parametrize("argv", [
        ["report", "{doc}"],
        ["sweep", "--l", "1..4", "--a", "1..5", "--b-extra", "0..5"],
    ], ids=["report", "sweep"])
    def test_full_stdout_exits_2_with_one_error_line(self, tmp_path, argv):
        doc = write(tmp_path, HIRZ_112)
        src = str(Path(toricvol.__file__).parents[1])
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "toricvol.cli", *(a.format(doc=doc) for a in argv)],
                stdout=full, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 2
        assert proc.stderr.decode() == "error: cannot write stdout: No space left on device\n"


class TestSweepCommand:
    def test_single_cell_row(self, capsys):
        assert main(["sweep", "--l", "1", "--a", "1", "--b-extra", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "l,a,b,area,dsq,simplex_sum,symbol_sum,agree"
        assert lines[1] == "1,1,2,3/2,3,3/2,3/2,true"

    def test_negative_range_in_the_equals_form(self, capsys):
        # a spaced "--a -1..1" reads as an option; the "=" form passes the range
        assert main(["sweep", "--l", "1", "--a=-1..1", "--b-extra=0"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "l,a,b,area,dsq,simplex_sum,symbol_sum,agree",
            "1,-1,-1,-,-,-,-,false",
            "1,0,0,-,-,-,-,false",
            "1,1,1,-,-,-,-,false",
        ]

    def test_help_names_the_equals_form(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        for name in ("--l", "--a", "--b-extra"):
            assert f"{name}=-1..2" in help_text

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

    def test_grid_over_the_row_bound_is_input_error(self, tmp_path, capsys, monkeypatch):
        # 10**20 + 1 rows: refused before any report and before the CSV opens
        import toricvol.cli as cli

        reports = []
        monkeypatch.setattr(cli, "okounkov_volume_report", lambda *args: reports.append(args))
        out = tmp_path / "huge.csv"
        argv = ["sweep", "--l", "1", "--a", "0", "--b-extra=-99999999999999999999..1", "--csv", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: grid has more than {SWEEP_ROW_LIMIT} rows\n")
        assert not out.exists() and reports == []

    def test_grid_at_the_row_bound_runs(self, monkeypatch):
        import toricvol.cli as cli

        class FirstReport(Exception):
            pass

        def spy(*args):
            raise FirstReport
        monkeypatch.setattr(cli, "okounkov_volume_report", spy)
        with pytest.raises(FirstReport):
            main(["sweep", "--l", "1", "--a", "1", "--b-extra", f"1..{SWEEP_ROW_LIMIT}"])

    @pytest.mark.parametrize("variant", ["default", "successor", "generic-at=3"])
    def test_one_decomposition_per_sweep(self, capsys, monkeypatch, variant):
        # every F_l has four rays, so one decomposition serves every l
        import toricvol.cli as cli

        real = cli.standard_decomposition
        calls = []

        def spy(fan, variant="default"):
            calls.append(fan)
            return real(fan, variant)

        monkeypatch.setattr(cli, "standard_decomposition", spy)
        argv = ["--decomposition", variant, "sweep", "--l", "1..4", "--a", "1..2", "--b-extra", "0..1"]
        assert main(argv) == 1
        assert len(capsys.readouterr().out.splitlines()) == 17
        assert len(calls) == 1

    def test_deterministic_output(self, capsys):
        main(["sweep", "--l", "1..2", "--a", "1", "--b-extra", "1..3"])
        first = capsys.readouterr().out
        main(["sweep", "--l", "1..2", "--a", "1", "--b-extra", "1..3"])
        assert capsys.readouterr().out == first

    def test_disagreeing_row_gives_exit_one(self, capsys, monkeypatch):
        # a disagreement cannot be produced honestly, so fake one route value
        # to pin the exit-code contract: the symbol route reads 5, not 3
        import toricvol.volume as volume

        real = volume.intersection_number_via_symbols
        monkeypatch.setattr(volume, "intersection_number_via_symbols",
                            lambda D, dec: real(D, dec) + 2)
        assert main(["sweep", "--l", "1", "--a", "1", "--b-extra", "1"]) == 1
        assert capsys.readouterr().out.splitlines()[1] == "1,1,2,3/2,3,3/2,5/2,false"


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

    def test_segment_polytope_line(self, tmp_path):
        # D_2 on F_1 is a fibre: its polytope is the segment from (0, 0) to (1, 0)
        path = write(tmp_path, '{"rays":[[1,0],[0,1],[-1,1],[0,-1]],"divisor":[0,0,1,0]}')
        out = tmp_path / "p.svg"
        assert main(["polytope", path, "--svg", str(out)]) == 0
        assert '<line x1="0" y1="0" x2="40" y2="0" stroke-width="3"' in out.read_text()

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
        D = TorusDivisor(hirzebruch_fan(1), (0, 1, 2, 0))
        svg = polytope_svg(D, TFlag(2, 1))
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        # a pair is read through TFlag, as every entry that takes a flag reads it
        for pair in ((2, 1), [2, 1], iter((2, 1))):
            assert polytope_svg(D, pair) == svg
        with pytest.raises(TypeError):
            polytope_svg(D, (2.0, 1))

    def test_svg_helper_refuses_a_divisor_that_is_not_nef(self):
        # its P_D may have vertices off the lattice, which no integer pixel can draw
        with pytest.raises(toricvol.NotGloballyGenerated) as info:
            polytope_svg(TorusDivisor(hirzebruch_fan(1), (0, 1, 0, 0)))
        assert (info.value.cone, info.value.ray) == (0, 2)


# ------------------------------------------------------------- main itself


def _run(entry, argv, written=None):
    """One in-process entry(argv) call: (stdout, stderr, exit code, text of
    the file at `written` or None). A usage error's SystemExit gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = entry(argv)
        except SystemExit as e:
            code = e.code
    text = Path(written).read_text() if written is not None else None
    return out.getvalue(), err.getvalue(), code, text


# one argv per subcommand; the spies below never read the paths
_SUBCOMMANDS = {
    "check": ["check", "x.json"],
    "report": ["report", "x.json"],
    "hirzebruch": ["hirzebruch", "--l", "1", "--a", "1", "--b", "2"],
    "sweep": ["sweep", "--l", "1", "--a", "1", "--b-extra", "1"],
    "polytope": ["polytope", "x.json", "--svg", "x.svg"],
}


class TestMainEntry:
    """main() parses with one parser per process and finds cmd_<command> by name."""

    def test_shared_parser_keeps_no_state(self, tmp_path):
        import toricvol.cli as cli

        def fresh_main(argv):
            # main() as it would run on a parser built for this call alone
            args = build_parser().parse_args(argv)
            try:
                return getattr(cli, f"cmd_{args.command}")(args)
            except DocumentError as e:
                print(f"error: {e}", file=sys.stderr)
                return 2

        f = write(tmp_path, HIRZ_112)
        csv = str(tmp_path / "grid.csv")
        runs = [
            (["--decomposition", "successor", "report", f, "--format", "json", "--flag", "1,0"], None),
            (["report", f], None),
            (["sweep", "--l", "1..2", "--a", "1", "--b-extra", "0..1", "--csv", csv], csv),
            (["report", f, "--format", "csv"], None),
            (["report"], None),
            (["check", f], None),
        ]
        got = [_run(main, argv, written) for argv, written in runs]
        assert got == [_run(fresh_main, argv, written) for argv, written in runs]
        # the second report is back to the text format and the default flag
        assert got[1][0].startswith("area(P_D)") and "(flag ray 0, cone 0)" in got[1][0]
        assert "required: path" in got[4][1]
        assert [code for _, _, code, _ in got] == [0, 0, 1, 0, 2, 0]

    def test_every_subcommand_has_a_case(self):
        import argparse

        sub, = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(_SUBCOMMANDS)

    @pytest.mark.parametrize("name", sorted(_SUBCOMMANDS))
    def test_command_resolved_at_call_time(self, monkeypatch, name):
        import toricvol.cli as cli

        seen = []

        def spy(args):
            seen.append(args.command)
            return 7
        monkeypatch.setattr(cli, f"cmd_{name}", spy)
        assert main(_SUBCOMMANDS[name]) == 7
        assert seen == [name]


# ------------------------------------------------------- exit-code contract

_SMALL = st.integers(-50, 50)
# a value at or past the input bound or past the 4300-digit int-to-str limit, either sign
_BIG = st.builds(lambda sign, k: sign + "9" * k, st.sampled_from(["", "-"]),
                 st.sampled_from([INPUT_DIGITS, INPUT_DIGITS + 1, 4400]))
# text that every message echoing it must cut to the error-line bound, or print whole
_LONG = st.sampled_from([800, 5000]).map("x".__mul__)
_VARIANTS = st.sampled_from(["default", "successor", "generic-at=0", "generic-at=2", "generic-at=-1",
                             "generic-at=9", "generic-at=x", "bogus"]) | _BIG.map("generic-at={}".format) \
    | _LONG | _LONG.map("generic-at={}".format)


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
        | st.text(max_size=3) | _LONG, inner, max_size=4),
    max_leaves=12,
)

_DOCUMENTS = st.one_of(
    _instance_documents(),
    _JSON.map(lambda x: json.dumps(x).encode()),
    st.binary(max_size=12),  # mostly neither UTF-8 nor JSON
)
_FLAGS = st.none() | st.tuples(st.integers(-1, 9), st.integers(-1, 9)).map(
    lambda t: f"{t[0]},{t[1]}") | st.text(max_size=4) | _LONG


# sweep and hirzebruch arguments: usual values, with a random subset of the
# arguments replaced by odd ones: int() spellings ('1_0', an Arabic-Indic
# three), values at and past the input bound and past the 4300-digit
# int-to-str limit, empty strings, long text, malformed ranges, a range of more rows
# than the sweep row bound, unknown variants and unwritable outputs (paths
# are relative to a scratch directory)
_NUMBERS = st.integers(-2, 5).map(str) | st.sampled_from(["", "1_0", "\u0663", " 2", "x"]) | _BIG | _LONG
_ODD_RANGES = st.one_of(
    _NUMBERS,
    st.tuples(_NUMBERS, _NUMBERS).map("..".join),
    st.sampled_from(["1..", "..2", "2..1", "1..2..3", ".."]),
    # empty, with a _BIG end: a positive one as the low end, a negative one as the high end
    _BIG.map(lambda big: f"5..{big}" if big[0] == "-" else f"{big}..5"),
    # one value more than the row bound, or far more, each end far inside the input bound
    st.builds(lambda lo, k: f"{lo}..{lo + k}", st.integers(-2, 2),
              st.sampled_from([SWEEP_ROW_LIMIT, 10 ** 20])),
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
    """main's exit code on argv, after checking that no line it writes to stderr is over the
    error-line bound."""
    _, err, code, _ = _run(main, argv)
    assert max(map(len, err.splitlines()), default=0) <= ERROR_LINE_LIMIT, argv
    return code


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
        rows = sizes[0] * sizes[1] * sizes[2]
        assume(rows <= _MAX_REPORTS or rows > SWEEP_ROW_LIMIT)
        variant = data.draw(st.none() | _ODD_VARIANTS)
        pre = [] if variant is None else ["--decomposition", variant]
        argv = [*pre, "sweep", *_options(values, workdir, "--csv")]
        # a grid over the row bound exits 2 at once, whatever else is wrong with it
        assert _exit_code(argv) in ((0, 1, 2) if rows <= _MAX_REPORTS else (2,)), argv

    @given(data=st.data())
    def test_hirzebruch_exits_0_1_or_2(self, workdir, data):
        params = ("--l", "--a", "--b")
        values = _odd_subset(
            data.draw,
            {**dict.fromkeys(params, st.integers(-1, 6).map(str)), "--emit": _OUTPUTS},
            {**dict.fromkeys(params, st.none() | _NUMBERS), "--emit": _UNWRITABLE})
        variant = data.draw(st.none() | _ODD_VARIANTS)
        pre = [] if variant is None else ["--decomposition", variant]
        argv = [*pre, "hirzebruch", *_options(values, workdir, "--emit")]
        assert _exit_code(argv) in (0, 1, 2), argv
