import json

import pytest

import schemeforge as sf
from schemeforge import catalog, io
from schemeforge.cli import run

import cli_transcript


# ---------------------------------------------------------------------------
# canonical JSON round-trips

def test_scheme_round_trip_bitwise():
    for name in ["Z4", "S3-inn", "fano-flags", "hamming-3"]:
        text = io.dump_scheme(catalog.catalog_scheme(name))
        reloaded = io.load_scheme(text)
        assert isinstance(reloaded, sf.AssociationScheme)
        assert io.dump_scheme(reloaded) == text


def test_hypergroup_round_trip_bitwise():
    for h in [sf.krasner_hypergroup(), sf.sign_hypergroup(),
              catalog.catalog_hypergroup("S3-inn")]:
        text = io.dump_hypergroup(h)
        reloaded = io.load_hypergroup(text)
        assert isinstance(reloaded, sf.Hypergroup)
        assert reloaded == h
        assert io.dump_hypergroup(reloaded) == text


def test_geometry_round_trip_bitwise():
    r = sf.gf_ring(16)
    geom = sf.geometry_from_hypergroup(
        sf.quotient_hyperring(r, sf.units_of_order_dividing(r, 3)).hypergroup
    )
    text = io.dump_geometry(geom)
    reloaded = io.load_geometry(text)
    assert io.dump_geometry(reloaded) == text


def test_group_and_ring_round_trip():
    g = sf.symmetric_group(3)
    assert io.dump_group(io.load_group(io.dump_group(g))) == io.dump_group(g)
    r = sf.zmod_ring(6)
    assert io.dump_ring(io.load_ring(io.dump_ring(r))) == io.dump_ring(r)


def test_canonical_json_is_sorted_and_compact():
    text = io.dump_scheme(catalog.catalog_scheme("Z2"))
    assert text == '{"n":2,"rel":[[0,1],[1,0]]}'


def test_load_scheme_rejects_malformed():
    with pytest.raises(ValueError):
        io.load_scheme('{"n": 2}')
    with pytest.raises(json.JSONDecodeError):
        io.load_scheme("not json")


def test_load_rebuilds_from_rel_only():
    # invalid matrices come back as reports, not exceptions
    report = io.load_scheme('{"n":2,"rel":[[0,1],[1,1]]}')
    assert isinstance(report, sf.SchemeReport)


# ---------------------------------------------------------------------------
# CLI behaviour

def test_cli_verify_fano(capsys):
    code = run(["verify", "scheme", "fano-flags"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == "valid, s=6, non-commutative"


def test_cli_verify_commutative_scheme(capsys):
    assert run(["verify", "scheme", "Z3"]) == 0
    assert capsys.readouterr().out.strip() == "valid, s=3, commutative"


def test_cli_verify_json(capsys):
    assert run(["verify", "scheme", "fano-flags", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == {"valid": True, "s": 6, "commutative": False}


def test_cli_hyper_hamming2(capsys):
    assert run(["hyper", "hamming-2"]) == 0
    out = capsys.readouterr().out
    assert "1*1={0,2}" in out
    assert "2*2={0}" in out


def test_cli_build_invalid_reports_witnesses(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n":2,"rel":[[0,1],[1,1]]}')
    code = run(["build", str(bad)])
    out = capsys.readouterr().out
    assert code == 1
    assert "AXIOM" in out and "WITNESS" in out


def test_cli_build_witness_cap(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n":3,"rel":[[0,1,1],[2,0,1],[1,2,0]]}')
    run(["build", str(bad), "--witnesses", "1"])
    out = capsys.readouterr().out
    assert out.count("AXIOM") == 1
    # a negative count would slice the last witness away
    assert run(["build", str(bad), "--witnesses", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--witnesses needs N >= 0" in captured.err


def test_cli_invalid_scheme_file_under_hypergroup_verbs(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n":2,"rel":[[0,1],[1,1]]}')
    for argv in (["verify", "hyper"], ["search", "--nmax", "3"], ["geometry"], ["sub", "hyper"]):
        assert run(argv + [str(bad)]) == 1, argv
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["AXIOM diagonal WITNESS (1, 1)", "invalid scheme: 1 violation(s) recorded"], argv
    assert run(["verify", "hyper", str(bad), "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "valid": False, "violations": [{"axiom": "diagonal", "witness": [1, 1]}]
    }


def test_cli_mult(capsys):
    assert run(["mult", "hamming-2", "1", "1"]) == 0
    assert capsys.readouterr().out.strip() == "{0,2}"


def test_cli_sub(capsys):
    assert run(["sub", "scheme", "Z4"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["{0}", "{0,1,2,3}", "{0,2}"]
    assert run(["sub", "hyper", "S"]) == 0
    assert capsys.readouterr().out.strip().splitlines() == ["{0}", "{0,1,2}"]


def test_cli_quotient_and_restrict(capsys):
    assert run(["quotient", "scheme", "Z4", "--by", "0,2"]) == 0
    assert json.loads(capsys.readouterr().out) == {"n": 2, "rel": [[0, 1], [1, 0]]}
    assert run(["restrict", "Z4", "--set", "0,2", "--point", "0"]) == 0
    assert json.loads(capsys.readouterr().out) == {"n": 2, "rel": [[0, 1], [1, 0]]}


def test_cli_quotient_names_an_empty_or_out_of_range_set(capsys):
    assert run(["quotient", "hyper", "K", "--by", ""]) == 2
    assert capsys.readouterr().err == "error: element set must be nonempty\n"
    assert run(["quotient", "hyper", "K", "--by", "0,5"]) == 2
    assert capsys.readouterr().err == "error: element set out of range: (0, 5)\n"


def test_cli_product(capsys):
    assert run(["product", "hyper", "K", "K"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["m"] == 4


def test_cli_search_found(tmp_path, capsys):
    out_file = tmp_path / "scheme.json"
    code = run(["search", "K", "--nmax", "3", "--out", str(out_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "n=2 exhausted: 0 candidate matrices, 0 matches" in out
    assert "found on n=3 points" in out
    saved = io.load_scheme(out_file.read_text())
    assert isinstance(saved, sf.AssociationScheme)


def test_cli_search_krasner_below_three_points(capsys):
    assert run(["search", "K", "--nmax", "2"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "n=2 exhausted: 0 candidate matrices, 0 matches",
        "no realization on ≤ 2 points",
    ]


def test_cli_search_accepts_scheme_files(tmp_path, capsys):
    # a scheme file is searched through its class hypergroup
    scheme_file = tmp_path / "f3.json"
    scheme_file.write_text(io.dump_scheme(catalog.catalog_scheme("F3")))
    assert run(["search", str(scheme_file), "--nmax", "3"]) == 0
    assert "found on n=3 points" in capsys.readouterr().out


def test_cli_search_negative_sign_hypergroup(tmp_path, capsys):
    sign_file = tmp_path / "S.json"
    sign_file.write_text(io.dump_hypergroup(sf.sign_hypergroup()))
    code = run(["search", str(sign_file), "--nmax", "6"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.strip().splitlines()[-1] == "no realization on ≤ 6 points"


def test_cli_search_deterministic_across_thread_env(tmp_path, capsys, monkeypatch):
    outputs = []
    for threads in ["0", "4"]:
        monkeypatch.setenv("SCHEME_FORGE_THREADS", threads)
        code = run(["search", "K", "--nmax", "3"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_cli_geometry(capsys):
    assert run(["geometry", "F64/F4"]) == 0
    assert capsys.readouterr().out.strip() == "points=21 lines=21 degenerate=false"


def test_cli_geometry_json(capsys):
    assert run(["geometry", "F16/F4", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["points"] == 5 and len(obj["lines"]) == 1


def test_cli_geometry_of_a_non_vector_space_is_a_verification_failure(capsys):
    # S: 1 * 1 = {1} and 2 * 2 = {2}, where a vector space over K needs {0, x}
    assert run(["geometry", "S"]) == 1
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out.splitlines() == [
        "AXIOM vector_space WITNESS (1, (1,))",
        "AXIOM vector_space WITNESS (2, (2,))",
        "hypergroup is not a vector space over the two-element hyperfield",
    ]
    assert run(["geometry", "S", "--json", "--witnesses", "1"]) == 1
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["valid"] is False and verdict["violations"][0] == {"axiom": "vector_space", "witness": [1, [1]]}
    with pytest.raises(sf.VerificationError) as info:
        sf.geometry_from_hypergroup(sf.sign_hypergroup())
    assert [v.witness for v in info.value.violations] == [(1, (1,)), (2, (2,))]
    # a non-commutative hypergroup is refused with the pairs that do not commute
    s3 = sf.group_hypergroup(sf.symmetric_group(3))
    with pytest.raises(sf.VerificationError) as info:
        sf.geometry_from_hypergroup(s3)
    commuting = [v.witness for v in info.value.violations if v.axiom == "commutative"]
    assert commuting and all(s3.table[a][b] != s3.table[b][a] for a, b in commuting)


def test_cli_triangle(capsys):
    assert run(["triangle", "Z9-3adic"]) == 0
    assert capsys.readouterr().out.strip() == "triangle condition holds"
    assert run(["triangle", "Z8-2adic"]) == 1
    out = capsys.readouterr().out
    assert "triangle condition fails" in out
    assert "AXIOM triangle_empty" in out


def test_cli_export_import_identical(tmp_path, capsys):
    path = tmp_path / "s3inn.json"
    assert run(["export", "S3-inn", "--out", str(path)]) == 0
    text = path.read_text().strip()
    assert run(["build", str(path), "--out", str(path)]) == 0
    capsys.readouterr()
    assert path.read_text().strip() == text


def test_cli_catalog(capsys):
    assert run(["catalog"]) == 0
    out = capsys.readouterr().out
    for name in ["fano-flags", "hamming-2", "F64/F4", "Z8-2adic"]:
        assert name in out


def test_cli_usage_errors(tmp_path, capsys):
    assert run(["frobnicate"]) == 2
    assert run(["verify", "scheme", "no-such-name"]) == 2
    assert run(["search", "K", "--nmax", "9"]) == 2  # size guard
    missing = tmp_path / "missing.json"
    assert run(["build", str(missing)]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{oops")
    assert run(["build", str(garbled)]) == 2
    # a field of the wrong type is malformed input, not a verification failure
    capsys.readouterr()
    for kind, word, text in [
        ("hyper", "hypergroup", '{"m":1,"e":0,"inv":[0],"table":5}'),
        ("hyper", "hypergroup", '{"m":1,"e":null,"inv":[0],"table":[[[0]]]}'),
        ("hyper", "hypergroup", '{"m":1,"e":0,"inv":5,"table":[[[0]]]}'),
        ("hyper", "hypergroup", '{"n":null,"rel":[[0]]}'),
        ("scheme", "scheme", '{"n":null,"rel":[[0]]}'),
    ]:
        typed = tmp_path / "typed.json"
        typed.write_text(text)
        assert run(["verify", kind, str(typed)]) == 2, text
        captured = capsys.readouterr()
        assert captured.out == "" and f"malformed {word} file" in captured.err, text


def test_cli_thread_env_validation(monkeypatch, capsys):
    monkeypatch.setenv("SCHEME_FORGE_THREADS", "many")
    assert run(["verify", "scheme", "Z2"]) == 2


def test_cli_triangle_unknown_ring_is_a_usage_error(capsys):
    assert run(["triangle", "no-such-ring"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown valued ring 'no-such-ring'" in captured.err


def test_cli_transcript_replays_byte_for_byte(tmp_path, monkeypatch):
    with open(cli_transcript.TRANSCRIPT, encoding="utf-8") as fh:
        table = json.load(fh)
    rows = cli_transcript.rows()
    assert [{"argv": row["argv"], "threads": row["threads"]} for row in table] == rows
    for i, (row, expected) in enumerate(zip(rows, table)):
        work = tmp_path / str(i)
        work.mkdir()
        monkeypatch.chdir(work)
        assert cli_transcript.replay(row) == expected
