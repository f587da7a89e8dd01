import json
import time

import pytest

from revfactor.bounds import compute_bounds, compute_involution_bounds, table_text
from revfactor.cli import main
from revfactor.factor import _digest
from revfactor.maps import FormalMap, conjugate, map_compose, parse_map
from revfactor.series import Series
from revfactor.structure import lift_section, make_centralizer

F_TEXT = (
    "map n=2 N=6 { comp1: { [1,0]: 3 ; [2,1]: 1 } ; "
    "comp2: { [0,1]: 1/3 ; [1,2]: 5 } }\n"
)

K_TEXT = (
    "map n=2 N=6 { comp1: { [1,0]: 1 ; [2,1]: 2 } ; "
    "comp2: { [0,1]: 1 ; [1,2]: -1 } }\n"
)


@pytest.fixture
def fmap(tmp_path):
    p = tmp_path / "f.map"
    p.write_text(F_TEXT)
    return p


def test_table1_golden(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert out == table_text(16) + "\n"


def test_bounds_table_and_json(capsys):
    assert main(["bounds"]) == 0
    assert capsys.readouterr().out == compute_bounds(16).as_text() + "\n"
    assert main(["bounds", "--n", "4", "--mode", "involutive", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    table = compute_involution_bounds(4)
    assert payload["mode"] == "involutive"
    assert payload["rows"] == [r.as_dict() for r in table.rows]


def test_compose_invert_roundtrip(tmp_path, capsys, fmap):
    assert main(["invert", str(fmap)]) == 0
    ginv = tmp_path / "g.map"
    ginv.write_text(capsys.readouterr().out)
    assert main(["compose", str(fmap), str(ginv)]) == 0
    assert parse_map(capsys.readouterr().out) == FormalMap.identity(2, 6)


def test_conjugate_matches_library(tmp_path, capsys, fmap):
    k = tmp_path / "k.map"
    k.write_text(K_TEXT)
    assert main(["conjugate", str(fmap), str(k)]) == 0
    out = parse_map(capsys.readouterr().out)
    assert out == conjugate(parse_map(F_TEXT), parse_map(K_TEXT))


def test_normalize_prints_form_and_saves_conjugator(tmp_path, capsys, fmap):
    kpath = tmp_path / "conj.map"
    assert main(["normalize", str(fmap), "--conjugator", str(kpath)]) == 0
    G = parse_map(capsys.readouterr().out)
    K = parse_map(kpath.read_text())
    assert conjugate(parse_map(F_TEXT), K) == G
    assert K.is_tangent_to_identity()


def test_split_roundtrip_and_obstruction(tmp_path, capsys):
    def u(data):
        return Series(2, 6, data)

    member = make_centralizer(
        (
            u({(0, 0): 1, (1, 0): 1}),
            u({(0, 0): 1, (0, 1): 2}),
            u({(0, 0): 2, (1, 1): 1}),
            u({(0, 0): 1, (1, 0): -1}),
        )
    )
    from revfactor.maps import format_map

    mpath = tmp_path / "member.map"
    mpath.write_text(format_map(member) + "\n")
    kpath = tmp_path / "kernel.map"
    assert main(["split", str(mpath), "--kernel", str(kpath)]) == 0
    chi = parse_map(capsys.readouterr().out)
    kern = parse_map(kpath.read_text())
    assert map_compose(lift_section(chi, 4), kern) == member

    bad = tmp_path / "notmember.map"
    bad.write_text(
        "map n=2 N=6 { comp1: { [1,0]: 1 ; [0,2]: 1 } ; comp2: { [0,1]: 1 } }\n"
    )
    assert main(["split", str(bad)]) == 3
    assert "not a paired-centralizer element" in capsys.readouterr().err


def test_factor_writes_certificate_and_verify_passes(tmp_path, capsys, fmap):
    assert main(["factor", "--mode", "reversible", str(fmap)]) == 0
    out = capsys.readouterr().out
    cert = tmp_path / "f.cert.json"
    assert cert.exists()
    assert "factors: 3 (budget 4, mode reversible)" in out
    assert str(cert) in out
    assert main(["verify", str(cert)]) == 0
    assert "certificate OK" in capsys.readouterr().out


def test_factor_is_deterministic(tmp_path, fmap, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["factor", str(fmap), "--out", str(a)]) == 0
    assert main(["factor", str(fmap), "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_factor_involutive_mode(tmp_path, capsys, fmap):
    out = tmp_path / "inv.json"
    assert main(["factor", "--mode", "involutive", str(fmap), "--out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["mode"] == "involutive"
    assert main(["verify", str(out)]) == 0
    capsys.readouterr()


def test_factor_obstruction_exits_3(tmp_path, capsys):
    theta = tmp_path / "theta.map"
    theta.write_text("map n=1 N=6 { comp1: { [1]: 1 ; [3]: 2 } }\n")
    assert main(["factor", "--mode", "involutive", str(theta)]) == 3
    err = capsys.readouterr().err
    assert "obstruction" in err
    assert "cubic invariant" in err


def test_factor_rejects_bad_determinant(tmp_path, capsys):
    bad = tmp_path / "det.map"
    bad.write_text("map n=2 N=6 { comp1: { [1,0]: 2 } ; comp2: { [0,1]: 3 } }\n")
    assert main(["factor", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_parse_error_reports_line_and_column(tmp_path, capsys):
    bad = tmp_path / "bad.map"
    bad.write_text("map n=2 N=6 {\n  comp1: { [1,0: 3 } ;\n  comp2: { [0,1]: 1 } }\n")
    assert main(["invert", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "bad.map:2:12:" in err


@pytest.mark.parametrize(
    "text, where",
    [
        # a three-exponent monomial in a two-variable map
        ("map n=2 N=6 {\n  comp1: { [1,0]: 3 } ;\n  comp2: { [0,1]: 1 ; [1,0,0]: 2 } }\n", "3:23"),
        # a scalar error is reported where its term starts
        ("map n=2 N=6 {\n comp1: { [1,0]: 1 } ;\n comp2: { [0,1]: 1/0 } }\n", "3:18"),
        ("map n=2 N=6 {\n  comp1: { [1,0]: 2* } ;\n  comp2: { [0,1]: 1 } }\n", "2:20"),
        ("map n=2 N=6 {\n  comp1: { [1,0]: 1 } ;\n  comp2: { [0,0]: 1 ; [0,1]: 1 } }\n", "3:3"),
        ("map n=2 N=6 {\n  comp1: { [1,0]: 1 }\n  comp2: { [0,1]: 1 } }\n", "3:3"),
        ("map n=2 N=6 {\n  comp1: { [1,0]: 1 } }\n", "2:23"),
    ],
    ids=["arity", "zero-denominator", "empty-unit", "constant-term", "missing-semicolon", "missing-component"],
)
def test_map_errors_report_file_line_and_column(tmp_path, capsys, text, where):
    bad = tmp_path / "bad.map"
    bad.write_text(text)
    assert main(["invert", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:{where}: "), err


def _factored(tmp_path, capsys, fmap):
    cert = tmp_path / "c.json"
    assert main(["factor", str(fmap), "--out", str(cert)]) == 0
    capsys.readouterr()
    return cert, json.loads(cert.read_text())


def test_certificate_errors_name_the_field_and_position(tmp_path, capsys, fmap):
    cert, honest = _factored(tmp_path, capsys, fmap)
    cases = [
        (("target",), lambda t: t.replace("[1,0]: 3 ;", "[1,0]: 3* ;", 1), "target:1:32:"),
        (("factors", 0, "map"), lambda t: t.replace("]:", ",0]:", 1), "factor 1 map:1:24:"),
        (
            ("factors", 1, "witness", "h"),
            lambda t: "map n=2 N=6 {\n comp1: { [1,0]: 1 } ;\n comp2: { [0,1]: 1/0 } }",
            "factor 2 witness:3:18:",
        ),
    ]
    for path, edit, where in cases:
        payload = json.loads(json.dumps(honest))
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = edit(node[path[-1]])
        cert.write_text(_redigest(payload))
        assert main(["verify", str(cert)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {where} "), where


def test_huge_decimal_exponent_exits_2_quickly(tmp_path, capsys, fmap):
    literal = "1e999999999"
    bad = tmp_path / "bad.map"
    bad.write_text(F_TEXT.replace("[2,1]: 1", f"[2,1]: {literal}"))
    start = time.perf_counter()
    assert main(["invert", str(bad)]) == 2
    assert time.perf_counter() - start < 1
    assert f"{bad}:1:42: decimal exponent" in capsys.readouterr().err
    cert, payload = _factored(tmp_path, capsys, fmap)
    payload["target"] = payload["target"].replace("[2,1]: 1", f"[2,1]: {literal}")
    cert.write_text(_redigest(payload))
    start = time.perf_counter()
    assert main(["verify", str(cert)]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err.startswith("error: target:1:42: decimal exponent")


def test_coefficient_too_long_to_write_exits_2(tmp_path, capsys):
    big = tmp_path / "big.map"
    big.write_text("map n=1 N=6 { comp1: { [1]: 1 ; [2]: 1e4300 } }\n")
    assert main(["invert", str(big)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "more than 4300 digits" in err
    assert err.count("\n") == 1


def test_truncation_flag_lowers_and_refuses_to_raise(tmp_path, capsys, fmap):
    assert main(["invert", str(fmap), "--truncation", "4"]) == 0
    assert parse_map(capsys.readouterr().out).trunc == 4
    assert main(["invert", str(fmap), "--truncation", "8"]) == 2
    assert "carries degree 6" in capsys.readouterr().err


def test_verify_truncation_rules(tmp_path, capsys, fmap):
    cert = tmp_path / "c.json"
    assert main(["factor", str(fmap), "--out", str(cert)]) == 0
    capsys.readouterr()
    assert main(["verify", str(cert), "--truncation", "8"]) == 2
    assert "claims degree 6" in capsys.readouterr().err
    assert main(["verify", str(cert), "--truncation", "4"]) == 0
    capsys.readouterr()


def test_verify_tampered_certificate_exits_1(tmp_path, capsys, fmap):
    cert = tmp_path / "c.json"
    assert main(["factor", str(fmap), "--out", str(cert)]) == 0
    capsys.readouterr()
    payload = json.loads(cert.read_text())
    payload["trace"] = list(payload["trace"]) + ["an extra step"]
    cert.write_text(json.dumps(payload))
    assert main(["verify", str(cert)]) == 1
    out = capsys.readouterr().out
    assert "FAIL  digest" in out
    assert "certificate BAD" in out


def test_verify_rejects_non_certificate(tmp_path, capsys):
    p = tmp_path / "nope.json"
    p.write_text("{}")
    assert main(["verify", str(p)]) == 2
    p.write_text("not json at all")
    assert main(["verify", str(p)]) == 2
    assert main(["verify", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_seeds_flag(tmp_path, capsys):
    g = tmp_path / "g.map"
    g.write_text("map n=1 N=6 { comp1: { [1]: 1 ; [2]: 1 } }\n")
    assert main(["factor", str(g), "--seeds", "1,-1"]) == 0
    capsys.readouterr()
    assert main(["factor", str(g), "--seeds", "1,q"]) == 2
    assert "bad seed list" in capsys.readouterr().err


def _redigest(payload):
    payload["digest"] = _digest(payload)
    return json.dumps(payload)


def test_verify_rejects_a_zero_witness(tmp_path, capsys, fmap):
    # one factor equal to the target, "reversed" by the zero map
    cert = tmp_path / "c.json"
    assert main(["factor", str(fmap), "--out", str(cert)]) == 0
    capsys.readouterr()
    payload = json.loads(cert.read_text())
    payload["factors"] = [
        {
            "map": F_TEXT.strip(),
            "kind": "reversible",
            "witness": {
                "kind": "reverser",
                "h": "map n=2 N=6 { comp1: { } ; comp2: { } }",
                "degree": 6,
            },
        }
    ]
    cert.write_text(_redigest(payload))
    assert main(["verify", str(cert)]) == 1
    out = capsys.readouterr().out
    assert "FAIL  witness 1/1" in out
    assert "certificate BAD" in out


def _lower_witness(payload):
    w = payload["factors"][0]["witness"]
    w["h"] = w["h"].replace("N=6", "N=5", 1)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda p: p.update(factors={"a": 1}),
        lambda p: p.update(trace=5),
        lambda p: p.update(degree="6"),
        _lower_witness,
    ],
    ids=["factors-object", "trace-number", "degree-string", "witness-at-N5"],
)
def test_verify_schema_violation_exits_2(tmp_path, capsys, fmap, mutate):
    cert = tmp_path / "c.json"
    assert main(["factor", str(fmap), "--out", str(cert)]) == 0
    capsys.readouterr()
    payload = json.loads(cert.read_text())
    mutate(payload)
    cert.write_text(_redigest(payload))
    assert main(["verify", str(cert)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_internal_error_has_its_own_exit_code(monkeypatch, capsys):
    import revfactor.cli as cli

    def broken(n):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "table_text", broken)
    code = main(["table1"])
    assert code == cli.INTERNAL_ERROR
    assert code not in (cli.OK, cli.VERIFY_FAILED, cli.INPUT_ERROR, cli.OBSTRUCTION)
    err = capsys.readouterr().err
    assert err.startswith("internal error: RuntimeError: boom (raised at test_cli.py:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "data",
    [
        b"\xff\xfe",
        b"[" * 100000,
        b'{"format": ' + b"[" * 5000 + b"]" * 5000 + b"}",
        b'{"format": 1' + b"0" * 5000 + b"}",
    ],
    ids=["not-utf8", "deep-array", "deep-format-field", "huge-int-literal"],
)
def test_verify_malformed_bytes_exit_2(tmp_path, capsys, data):
    cert = tmp_path / "c.json"
    cert.write_bytes(data)
    assert main(["verify", str(cert)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_map_that_is_not_utf8_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.map"
    bad.write_bytes(b"map n=1 N=4 { comp1: { [1]: \xff } }\n")
    assert main(["invert", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad.map is not UTF-8 text" in err
