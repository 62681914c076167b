import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from braidlab import cli, errors, quandle, spectra


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_json_three_records(capsys):
    code, out, _ = run(capsys, "spectrum", "--n", "2", "--N", "3", "--q", "1.3")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "braidlab/1"
    assert len(payload["eigenvalues"]) == 3
    values = sorted(r["value"] for r in payload["eigenvalues"])
    q = 1.3
    assert values == pytest.approx(
        sorted([2.0, 1 - 1 / q - q ** -2, 1 + 1 / q - q ** -2]), abs=1e-9)
    mults = sorted(r["multiplicity"] for r in payload["eigenvalues"])
    assert mults == [2, 2, 4]


def test_spectrum_csv(capsys):
    code, out, _ = run(capsys, "spectrum", "--n", "2", "--N", "2", "--q", "1.3",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "value,multiplicity,sector,hw_residual"
    assert len(lines) == 3


def test_spectrum_prints_rounding_noise_zeros_as_zero(capsys):
    # the zero eigenvalue of n=3 N=5 at q=1 (multiplicity 12) leaves the
    # solver as noise of order 1e-17 whose digits depend on the LAPACK routine
    code, out, _ = run(capsys, "spectrum", "--n", "3", "--N", "5", "--q", "1.0")
    assert code == 0
    assert {"value": 0.0, "multiplicity": 12, "sector": None,
            "hw_residual": None} in json.loads(out)["eigenvalues"]
    assert '"value": 0.0,' in out
    code, out, _ = run(capsys, "spectrum", "--n", "3", "--N", "5", "--q", "1.0",
                       "--format", "csv")
    assert code == 0 and "0,12,," in out.splitlines()
    for n in (3, 4):
        for N in range(1, 7):
            for fmt in ("json", "csv"):
                code, out, _ = run(capsys, "spectrum", "--n", str(n), "--N", str(N),
                                   "--q", "1.0", "--format", fmt)
                assert code == 0 and "-0," not in out and "-0.0," not in out, (n, N, fmt)
                if fmt == "json":
                    values = [r["value"] for r in json.loads(out)["eigenvalues"]]
                else:
                    values = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
                assert not any(0 < abs(v) < 1e-12 for v in values), (n, N, fmt)


def test_spectrum_sector_filter(capsys):
    code, out, _ = run(capsys, "spectrum", "--n", "2", "--N", "4", "--q", "1.5",
                       "--sector", "1")
    payload = json.loads(out)
    assert code == 0
    assert all(r["sector"] == 1 for r in payload["eigenvalues"])
    assert len(payload["eigenvalues"]) == 3


def test_spectrum_prints_a_crossing_of_two_irreps_as_two_rows(capsys):
    # at n = 3, N = 6, q = 0.7 the value -1.08163265306 is in spec rho_(3,3)
    # once (10 copies) and in spec rho_(4,1,1) twice (10 copies each)
    code, out, _ = run(capsys, "spectrum", "--n", "3", "--N", "6", "--q", "0.7")
    assert code == 0
    rows = [r for r in json.loads(out)["eigenvalues"] if r["value"] == -1.08163265306]
    assert sorted(r["multiplicity"] for r in rows) == [10, 20]
    assert all(r["sector"] is None for r in rows)


@pytest.mark.parametrize("argv", [["--n", "3", "--N", "4", "--sector", "1"],
                                  ["--n", "2", "--N", "4", "--sector", "3"],
                                  ["--n", "2", "--N", "4", "--sector", "9"],
                                  ["--n", "2", "--N", "4", "--sector", "-1"]])
def test_spectrum_sector_out_of_range_exits_2(capsys, argv):
    code, out, err = run(capsys, "spectrum", *argv)
    assert code == 2 and out == ""
    assert "braidlab: --sector takes n=2 and a sector k in 0.." in err


def test_spectrum_guard_exit_code(capsys):
    code, _, err = run(capsys, "spectrum", "--n", "4", "--N", "10")
    assert code == 1
    assert "guard" in err


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--bogus", "1"])
    assert exc.value.code == 2


def test_help_exits_0():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0


def test_verify_pass(capsys):
    code, out, err = run(capsys, "verify", "--n", "2", "--N", "5", "--q", "1.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["total_dimension"] == 32
    assert "PASS" in err


def test_verify_reports_each_shape_for_n3(capsys):
    code, out, err = run(capsys, "verify", "--n", "3", "--N", "6", "--q", "1.5")
    assert code == 0 and "PASS" in err
    payload = json.loads(out)
    assert payload["ok"] is True and payload["mismatches"] == []
    rows = payload["irreps"]
    assert [row["partition"] for row in rows] == [
        [6], [5, 1], [4, 2], [4, 1, 1], [3, 3], [3, 2, 1], [2, 2, 2]]
    assert [(row["syt_dim"], row["ssyt_dim"]) for row in rows] == [
        (1, 28), (5, 35), (9, 27), (10, 10), (5, 10), (16, 8), (5, 1)]
    assert sum(row["syt_dim"] * row["ssyt_dim"] for row in rows) == 3 ** 6
    assert max(row["kostka_residual"] for row in rows) <= 1e-9
    assert "sector_counts" not in payload


def test_verify_prints_each_kostka_residual_as_its_decade(capsys):
    # the residual is rounding noise whose digits change with the solver, so
    # it is printed as its decade bound 10^ceil(log10 r), 0.0 for r = 0; the
    # gate reads the unrounded value
    for n, N, q in [(3, 5, 1.5), (3, 6, 0.7), (4, 5, 2.0), (4, 4, 1.0)]:
        code, out, _ = run(capsys, "verify", "--n", str(n), "--N", str(N), "--q", str(q))
        assert code == 0
        printed = [row["kostka_residual"] for row in json.loads(out)["irreps"]]
        report = spectra.verify_decomposition(n, N, q)
        residuals = [irrep.residual for irrep in report.irreps.values()]
        assert printed == [0.0 if r == 0 else 10.0 ** math.ceil(math.log10(r))
                           for r in residuals], (n, N, q)
        for r, p in zip(residuals, printed):
            assert p == r == 0 or r <= p < 10 * r
    assert [cli.decade(x) for x in (0, 1e-13, 1.28e-13, 9.9e-14, 3.3e-16)] == [
        0.0, 1e-13, 1e-12, 1e-13, 1e-15]


def test_spectrum_prints_each_hw_residual_as_its_decade(capsys):
    # |F_1 b| / |b| is rounding noise (1e-16 to 1e-14) whose digits change
    # with the solver: JSON and CSV print 0.0 or a power of ten
    for N in range(1, 11):
        for q in ("0.7", "1.5"):
            argv = ["spectrum", "--n", "2", "--N", str(N), "--q", q]
            code, out, _ = run(capsys, *argv)
            assert code == 0
            printed = [row["hw_residual"] for row in json.loads(out)["eigenvalues"]]
            code, out, _ = run(capsys, *argv, "--format", "csv")
            assert code == 0
            printed += [float(line.rsplit(",", 1)[1]) for line in out.splitlines()[1:]]
            assert printed, (N, q)
            for hw in printed:
                assert hw == 0.0 or hw == float(f"1e{round(math.log10(hw))}"), (N, q, hw)


def test_main_builds_its_parser_once(capsys, monkeypatch):
    # main calls with different subcommands share one parser, which still
    # exits 2 on a bad flag, as argparse does
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        assert run(capsys, "tableaux", "--n", "2", "--N", "3")[0] == 0
        assert run(capsys, "verify", "--n", "2", "--N", "3")[0] == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--n", "2", "--N", "3", "--bogus", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --bogus 1" in capsys.readouterr().err
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()


def test_verify_n3_N9_runs_under_the_default_guard(capsys):
    # largest weight block 9!/(3!3!3!) = 1680; n^N = 19683 was refused before
    code, out, _ = run(capsys, "verify", "--n", "3", "--N", "9", "--q", "1.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True and payload["total_dimension"] == 3 ** 9
    assert len(payload["irreps"]) == 12


def test_verify_n2_reports_sectors_not_shapes(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2", "--N", "6", "--q", "1.5")
    assert code == 0 and "irreps" not in json.loads(out)


def test_tableaux_payload(capsys):
    code, out, _ = run(capsys, "tableaux", "--n", "3", "--N", "3")
    payload = json.loads(out)
    assert code == 0
    assert payload["schur_weyl_ok"] is True
    assert {tuple(r["partition"]): r["ssyt_dim"] for r in payload["table"]} == {
        (3,): 10, (2, 1): 8, (1, 1, 1): 1}


def test_tableaux_computes_each_dimension_once(capsys, monkeypatch):
    # one ssyt_dim call per partition of 10 with at most 6 rows (35), shared
    # by the table and the Schur-Weyl check
    from braidlab import tableaux
    calls = []
    real = tableaux.ssyt_dim
    monkeypatch.setattr(tableaux, "ssyt_dim", lambda shape, n: calls.append(shape) or real(shape, n))
    code, out, _ = run(capsys, "tableaux", "--n", "6", "--N", "10")
    assert code == 0 and json.loads(out)["schur_weyl_ok"] is True
    assert len(calls) == len(set(calls)) == 35


def test_tableaux_enumeration_refusal(capsys):
    # 16928 partitions of 40 with at most 10 rows exceed the bound; the
    # 70 of 12 with at most 8 rows run
    code, out, err = run(capsys, "tableaux", "--n", "10", "--N", "40")
    assert (code, out) == (1, "") and "16928 exceed the enumeration bound" in err
    code, out, _ = run(capsys, "tableaux", "--n", "8", "--N", "12")
    assert code == 0 and len(json.loads(out)["table"]) == 70


def test_dicke_payload(capsys):
    code, out, _ = run(capsys, "dicke", "--n", "2", "--N", "2", "--q", "1.3",
                       "--label", "1,1")
    payload = json.loads(out)
    assert code == 0
    assert payload["norm_check"] == pytest.approx(1.0)
    nrm = (1 + 1.3 ** 2) ** 0.5
    assert payload["coefficients"]["12"] == pytest.approx(1 / nrm, abs=1e-10)
    assert payload["coefficients"]["21"] == pytest.approx(1.3 / nrm, abs=1e-10)


def test_dicke_bad_label_exits_2(capsys):
    code, _, err = run(capsys, "dicke", "--n", "2", "--N", "2", "--q", "1.3",
                       "--label", "3,1")
    assert code == 2
    assert "label" in err


def test_shuffle_payload(capsys):
    code, out, _ = run(capsys, "shuffle", "--n", "2", "--N", "2", "--z", "q2",
                       "--q", "1.3", "--state", "12")
    payload = json.loads(out)
    assert code == 0
    assert payload["coefficients"] == {"12": 1.0, "21": 1.3}


def test_shuffle_reduced_words(capsys):
    code, out, _ = run(capsys, "shuffle", "--N", "3", "--reduced-words")
    assert code == 0
    assert out.splitlines() == ["# length 0", "e", "# length 1", "t1", "t2",
                                "# length 2", "t1 t2", "t2 t1",
                                "# length 3", "t1 t2 t1"]


def test_reduced_words_past_eight_strands_exit_1(capsys):
    # 9! words are a size refusal; N = 1 stays a validation error
    code, out, err = run(capsys, "shuffle", "--N", "9", "--reduced-words")
    assert (code, out) == (1, "") and "blow-up guard" in err
    assert run(capsys, "shuffle", "--N", "1", "--reduced-words")[0] == 2


def test_dicke_state_size_refusal(capsys):
    # C(40, 20) ~ 1.4e11 words are refused up front; C(16, 8) = 12870 run
    code, out, err = run(capsys, "dicke", "--n", "2", "--N", "40", "--q", "1.3",
                         "--label", "20,20")
    assert (code, out) == (1, "") and "137846528820 words" in err
    code, out, _ = run(capsys, "dicke", "--n", "2", "--N", "16", "--q", "1.3",
                       "--label", "8,8")
    assert code == 0 and len(json.loads(out)["coefficients"]) == 12870


def test_shuffle_state_size_refusal(capsys):
    code, out, err = run(capsys, "shuffle", "--n", "2", "--N", "40",
                         "--state", "1" * 20 + "2" * 20)
    assert (code, out) == (1, "") and "137846528820 words" in err


def test_crystal_dot(capsys):
    code, out, _ = run(capsys, "crystal", "--n", "2", "--N", "3")
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("label=\"e1\"") == 3   # chain of four states, three raises


def test_quandle_dihedral_spectrum(capsys):
    code, out, _ = run(capsys, "quandle", "dihedral", "--n", "5", "--spectrum")
    payload = json.loads(out)
    assert code == 0
    assert payload["dimensions"] == [4, 4, 4, 4, 9]


def test_quandle_validate_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "quandle", "dihedral", "--n", "3")
    table_file = tmp_path / "table.json"
    table_file.write_text(out)
    code, out, _ = run(capsys, "quandle", "validate", "--table", str(table_file))
    payload = json.loads(out)
    assert code == 0
    assert payload == {"schema": "braidlab/1", "n": 3,
                       "shelf": True, "rack": True, "quandle": True}


def test_quandle_orbits(capsys):
    code, out, _ = run(capsys, "quandle", "orbits", "--n", "3", "--N", "2")
    payload = json.loads(out)
    assert code == 0
    assert payload["order"] == 3
    cycles = payload["cycles"]["1"]
    assert sorted(len(c) for c in cycles) == [1, 1, 1, 3, 3]


def test_quandle_orbits_dot(capsys):
    code, out, _ = run(capsys, "quandle", "orbits", "--n", "3", "--N", "2", "--dot")
    assert code == 0
    assert out.startswith("digraph")


def test_automaton_json_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "automaton", "--example", "e1")
    path = tmp_path / "aut.json"
    path.write_text(out)
    code, out2, _ = run(capsys, "automaton", "--table", str(path))
    assert code == 0
    assert json.loads(out) == json.loads(out2)


def test_automaton_run(capsys):
    code, out, _ = run(capsys, "automaton", "--example", "exa01", "--run", "b")
    payload = json.loads(out)
    assert code == 0
    assert payload["accepts"] is True
    assert payload["vector"] == [0.0, 1.0, 0.0]


def test_automaton_dot(capsys):
    code, out, _ = run(capsys, "automaton", "--example", "exa01", "--dot")
    assert code == 0
    assert out.count("doublecircle") == 1


def test_missing_table_file_exits_2(capsys):
    code, _, err = run(capsys, "quandle", "validate", "--table", "/nonexistent.json")
    assert code == 2


def test_output_is_byte_deterministic(capsys):
    _, first, _ = run(capsys, "spectrum", "--n", "2", "--N", "6", "--q", "1.5")
    _, second, _ = run(capsys, "spectrum", "--n", "2", "--N", "6", "--q", "1.5")
    assert first == second
    _, first, _ = run(capsys, "dicke", "--n", "3", "--N", "4", "--q", "0.7",
                      "--label", "2,1,1")
    _, second, _ = run(capsys, "dicke", "--n", "3", "--N", "4", "--q", "0.7",
                       "--label", "2,1,1")
    assert first == second


def test_orbits_table_matches_dihedral(tmp_path, capsys):
    _, table, _ = run(capsys, "quandle", "dihedral", "--n", "3")
    table_file = tmp_path / "table.json"
    table_file.write_text(table)
    code, from_table, _ = run(capsys, "quandle", "orbits", "--table", str(table_file),
                              "--N", "3")
    assert code == 0
    _, from_n, _ = run(capsys, "quandle", "orbits", "--n", "3", "--N", "3")
    assert from_table == from_n


@pytest.mark.parametrize("argv", [
    pytest.param(["quandle", "orbits", "--N", "2"], id="orbits-no-table"),
    pytest.param(["dicke", "--n", "2", "--N", "2", "--q", "1.3", "--label", "a,b"],
                 id="dicke-label-text"),
    pytest.param(["shuffle", "--n", "2", "--N", "2", "--z", "foo", "--state", "12"],
                 id="shuffle-z-text"),
    pytest.param(["shuffle", "--n", "2", "--N", "2", "--z", "inf", "--state", "12"],
                 id="shuffle-z-inf"),
    pytest.param(["shuffle", "--n", "2", "--N", "2", "--q", "nan", "--state", "12"],
                 id="shuffle-q-nan"),
    pytest.param(["shuffle", "--n", "2", "--N", "2", "--state", "1a"], id="shuffle-state-text"),
    pytest.param(["spectrum", "--n", "2", "--N", "3", "--q", "nan"], id="spectrum-q-nan"),
    pytest.param(["spectrum", "--n", "2", "--N", "3", "--q", "inf"], id="spectrum-q-inf"),
    pytest.param(["verify", "--n", "2", "--N", "3", "--q", "nan"], id="verify-q-nan"),
    pytest.param(["dicke", "--n", "2", "--N", "2", "--q", "nan", "--label", "1,1"],
                 id="dicke-q-nan"),
    pytest.param(["crystal", "--n", "2", "--N", "2", "--q", "inf", "--labels", "canonical"],
                 id="crystal-q-inf"),
    pytest.param(["crystal", "--n", "0", "--N", "0"], id="crystal-n0"),
    pytest.param(["quandle", "orbits", "--n", "3", "--N", "-1"], id="orbits-negative-N"),
    # finite but extreme q overflows a float power of q
    pytest.param(["verify", "--n", "2", "--N", "6", "--q", "1e100"], id="verify-q-1e100"),
    pytest.param(["verify", "--n", "2", "--N", "4", "--q", "1e-200"], id="verify-q-1e-200"),
    pytest.param(["spectrum", "--n", "2", "--N", "4", "--q", "1e-200"], id="spectrum-q-1e-200"),
    pytest.param(["dicke", "--n", "2", "--N", "4", "--q", "1e200", "--label", "2,2"],
                 id="dicke-q-1e200"),
    pytest.param(["shuffle", "--N", "4", "--state", "1212", "--q", "1e200"], id="shuffle-q-1e200"),
    pytest.param(["crystal", "--n", "2", "--N", "4", "--q", "1e200", "--labels", "canonical"],
                 id="crystal-q-1e200"),
    # finite q whose numpy arithmetic ends in NaN or infinity, not JSON
    pytest.param(["dicke", "--n", "2", "--N", "4", "--q", "1e30", "--label", "4,0"],
                 id="dicke-q-1e30-nan"),
    pytest.param(["shuffle", "--n", "2", "--N", "4", "--q", "1e30", "--state", "1111"],
                 id="shuffle-q-1e30-inf"),
    # finite q whose ladder checks overflow inside numpy (errstate in main)
    pytest.param(["verify", "--n", "2", "--N", "3", "--q", "1e100"], id="verify-q-1e100-numpy"),
    pytest.param(["spectrum", "--n", "2", "--N", "4", "--q", "1e30"], id="spectrum-q-1e30-numpy"),
])
def test_bad_input_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("braidlab: ")


AUTOMATON = {"states": ["q1", "q2"], "alphabet": ["a"], "kind": "general",
             "matrices": {"a": [[0.0, 1.0], [1.0, 0.0]]}, "start": 1, "accepting": [2]}
QUANDLE = {"n": 2, "op": [1, 2, 1, 2]}


def _with(payload, **fields):
    return json.dumps({**payload, **fields})


MALFORMED_TABLES = [
    pytest.param(["automaton"], _with(AUTOMATON, start="x"), id="automaton-start-text"),
    # 2.7 truncated to 2 would be a valid start; 1.5 would never accept
    pytest.param(["automaton"], _with(AUTOMATON, start=2.7), id="automaton-start-float"),
    pytest.param(["automaton"], _with(AUTOMATON, accepting=[1.5]), id="automaton-accepting-float"),
    pytest.param(["automaton"], _with(AUTOMATON, matrices={"a": [["x", 1.0], [1.0, 0.0]]}),
                 id="automaton-cell-text"),
    pytest.param(["automaton"], _with(AUTOMATON, matrices={"a": [[0.0, 1.0], [1.0]]}),
                 id="automaton-ragged-rows"),
    pytest.param(["automaton"], _with(AUTOMATON, matrices={"a": [[float("nan"), 1.0], [1.0, 0.0]]}),
                 id="automaton-nan-cell"),
    pytest.param(["automaton", "--dot"],
                 _with(AUTOMATON, matrices={"a": [[float("nan"), 1.0], [1.0, 0.0]]}),
                 id="automaton-nan-cell-dot"),
    pytest.param(["automaton"], _with(AUTOMATON, matrices={"a": [[float("inf"), 1.0], [1.0, 0.0]]}),
                 id="automaton-inf-cell"),
    pytest.param(["quandle", "validate"], _with(QUANDLE, op=[None, 2, 1, 2]), id="quandle-null"),
    pytest.param(["quandle", "validate"], _with(QUANDLE, op=["x", 2, 1, 2]), id="quandle-text"),
    pytest.param(["quandle", "validate"], _with(QUANDLE, op=[2.5, 2, 1, 2]), id="quandle-float"),
    # 1.5 truncated to 1 would be the valid table
    pytest.param(["quandle", "orbits", "--N", "2"], _with(QUANDLE, op=[1.5, 2, 1, 2]),
                 id="orbits-float"),
]


@pytest.mark.parametrize("argv, text", MALFORMED_TABLES)
def test_malformed_table_file_exits_2(tmp_path, capsys, argv, text):
    path = tmp_path / "table.json"
    path.write_text(text)
    code, out, err = run(capsys, *argv, "--table", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("braidlab: ")


def test_well_formed_table_files_still_load(tmp_path, capsys):
    # the bases of MALFORMED_TABLES are valid, so each case fails on its one change
    for argv, payload in [(["automaton"], AUTOMATON), (["quandle", "validate"], QUANDLE)]:
        path = tmp_path / "table.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, *argv, "--table", str(path))
        assert code == 0 and json.loads(out)


def test_shuffle_takes_q_squared_through_the_q_rule(capsys):
    # --z q2 is Y_N(q^2): a q whose square overflows is refused naming q and
    # the power, where the bare float power failed with "numerical overflow"
    code, out, err = run(capsys, "shuffle", "--N", "4", "--state", "1212", "--q", "1e200")
    assert (code, out) == (2, "")
    assert err == "braidlab: q = 1e+200 is too large: q^2 overflows\n"
    code, out, _ = run(capsys, "shuffle", "--N", "3", "--state", "112", "--q", "1.3")
    assert code == 0 and json.loads(out)["z"] == cli.fnum(1.3 ** 2)


def test_emit_refuses_non_finite_floats(capsys):
    # a NaN that bypasses fnum never reaches stdout as non-JSON text
    for value in (float("nan"), float("inf")):
        with pytest.raises(OverflowError):
            cli.emit({"x": value})
        with pytest.raises(OverflowError):
            cli.fnum(value)
    assert capsys.readouterr().out == ""


def test_weight_block_guard_exit_code(capsys):
    # the n=2 path is bounded by its largest block, binomial(15, 7) = 6435
    code, _, err = run(capsys, "spectrum", "--n", "2", "--N", "15")
    assert code == 1
    assert "guard" in err


def test_orbit_dot_guard_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("BRAIDLAB_MAX_DIM", "100")
    code, out, err = run(capsys, "quandle", "orbits", "--n", "3", "--N", "5", "--dot")
    assert code == 1
    assert out == ""
    assert "guard" in err


def test_orbit_dot_guards_run_before_the_orbits(capsys, monkeypatch, tmp_path):
    # n = 3, N = 8 (6561 states) passes the dense guard and n = 2, N = 12
    # (11 matrices of 4096^2) the held-entries rule: both are refused before
    # any cycle is traced.  A table that is not a rack is still refused as
    # such (exit 2) ahead of the size checks, as orbit_automaton orders them
    def never(table, N):
        raise AssertionError("orbit_automaton ran before the orbit DOT guards")

    monkeypatch.delenv("BRAIDLAB_MAX_DIM", raising=False)
    monkeypatch.setattr(quandle, "orbit_automaton", never)
    code, out, err = run(capsys, "quandle", "orbits", "--n", "3", "--N", "8", "--dot")
    assert code == 1 and out == "" and "dimension 6561 exceeds guard 4096" in err
    code, out, err = run(capsys, "quandle", "orbits", "--n", "2", "--N", "12", "--dot")
    assert code == 1 and out == "" and "184549376 entries" in err
    table = tmp_path / "shelf.json"
    table.write_text(json.dumps({"n": 2, "op": [1, 1, 1, 1]}))
    code, out, err = run(capsys, "quandle", "orbits", "--table", str(table), "--N", "13", "--dot")
    assert code == 2 and out == "" and "not a rack" in err


def test_quandle_table_guard_exit_code(capsys):
    # 3001^2 entries pass the 10^6 bound: exit 1 before the table is built
    code, out, err = run(capsys, "quandle", "dihedral", "--n", "3001")
    assert code == 1 and out == "" and "9006001" in err


def test_crystal_guard_exit_code(capsys, monkeypatch):
    # C(92, 2) = 4186 states: four dense 4186 x 4186 matrices, refused up front
    code, out, err = run(capsys, "crystal", "--n", "3", "--N", "90")
    assert code == 1
    assert out == ""
    assert "guard" in err
    monkeypatch.setenv("BRAIDLAB_MAX_DIM", "5")
    code, out, _ = run(capsys, "crystal", "--n", "2", "--N", "5")
    assert code == 1 and out == ""
    code, out, _ = run(capsys, "crystal", "--n", "2", "--N", "4")
    assert code == 0 and out.startswith("digraph")


def test_dense_automata_fall_under_the_held_entries_rule(capsys, monkeypatch):
    # one rule for every set of dense matrices held at once: entries <=
    # HELD_BLOCKS_MULTIPLE * limit^2, checked before anything is built.  At
    # limit 25 the crystal of n = 4, N = 3 has 20 states (under the dense
    # guard) but 6 * 20^2 = 2400 > 3 * 25^2 entries; N = 2 has 6 * 10^2
    monkeypatch.setenv("BRAIDLAB_MAX_DIM", "25")
    code, out, err = run(capsys, "crystal", "--n", "4", "--N", "3")
    assert code == 1 and out == "" and "2400 entries" in err and "guard" in err
    code, out, _ = run(capsys, "crystal", "--n", "4", "--N", "2")
    assert code == 0 and out.startswith("digraph")
    # at limit 243 the orbit automaton of n = 3, N = 5 has 243 states but
    # 4 * 243^2 entries; N = 4 holds 3 * 81^2
    monkeypatch.setenv("BRAIDLAB_MAX_DIM", "243")
    code, out, err = run(capsys, "quandle", "orbits", "--n", "3", "--N", "5", "--dot")
    assert code == 1 and out == "" and "236196 entries" in err
    code, out, _ = run(capsys, "quandle", "orbits", "--n", "3", "--N", "4", "--dot")
    assert code == 0 and out.startswith("digraph")


def test_held_entries_rule_at_the_default_limit(monkeypatch):
    # crystal --n 90 --N 2: 4095 states, under the dense guard, but 178
    # matrices (about 22 GiB); quandle orbits --n 2 --N 12 --dot: 11 matrices
    # of 4096^2 (1.4 GiB).  crystal --n 3 --N 60 (1891 states, 4 matrices)
    # and the orbit automata of n = 3, N <= 7 stay admitted
    monkeypatch.delenv("BRAIDLAB_MAX_DIM", raising=False)
    for entries in (178 * 4095 ** 2, 11 * 4096 ** 2):
        with pytest.raises(errors.SizeGuardError, match="guard"):
            errors.check_held_entries(entries, "dense automaton")
    for entries in [4 * 1891 ** 2] + [(N - 1) * 3 ** (2 * N) for N in range(1, 8)]:
        errors.check_held_entries(entries, "dense automaton")


SPECIAL = ["nan", "inf", "foo", "a,b", "", "1e100", "1e-200", "1e30"]
NUMBER = st.one_of(st.sampled_from(SPECIAL),
                   st.floats(0.1, 3.0).map(repr))
LABEL = st.one_of(st.sampled_from(SPECIAL),
                  st.lists(st.integers(-1, 4), max_size=4).map(
                      lambda xs: ",".join(map(str, xs))))
SIZE = st.integers(-1, 4).map(str)


def _opt(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def _switch(flag):
    return st.sampled_from([[], [flag]])


def _argv(*parts):
    return st.tuples(*parts).map(lambda ps: [x for p in ps for x in p])


def _cli_argvs(quandle_files, automaton_files):
    tables = st.sampled_from(quandle_files)
    automaton_tables = st.sampled_from(automaton_files).map(lambda p: ["--table", p])
    return st.one_of(
        _argv(st.just(["automaton"]), st.one_of(st.sampled_from([["--example", "exa01"],
                                                                 ["--example", "e1"]]),
                                                automaton_tables),
              _opt("--run", st.sampled_from(["a", "ab", "", "c", "foo"])), _switch("--dot")),
        _argv(st.just(["tableaux"]), _opt("--n", SIZE), _opt("--N", SIZE)),
        _argv(st.just(["shuffle"]), _opt("--n", SIZE), _opt("--N", SIZE),
              _opt("--z", st.one_of(NUMBER, st.sampled_from(["q2", "minus1"]))),
              _opt("--q", NUMBER), _opt("--state", st.sampled_from(["12", "112", "a,b", ""])),
              _switch("--reduced-words")),
        _argv(st.just(["dicke"]), _opt("--n", SIZE), _opt("--N", SIZE), _opt("--q", NUMBER),
              _opt("--label", LABEL)),
        _argv(st.just(["crystal"]), _opt("--n", SIZE), _opt("--N", SIZE), _opt("--q", NUMBER),
              _opt("--labels", st.sampled_from(["none", "canonical", "rescaled"]))),
        _argv(st.just(["spectrum"]), _opt("--n", SIZE), _opt("--N", SIZE), _opt("--q", NUMBER),
              _opt("--sector", SIZE), _opt("--format", st.sampled_from(["json", "csv"]))),
        _argv(st.just(["verify"]), _opt("--n", SIZE), _opt("--N", SIZE), _opt("--q", NUMBER)),
        _argv(st.just(["quandle", "dihedral"]), _opt("--n", SIZE), _switch("--spectrum")),
        _argv(st.just(["quandle", "validate"]), _opt("--table", tables)),
        _argv(st.just(["quandle", "orbits"]), _opt("--n", SIZE), _opt("--N", SIZE),
              _opt("--table", tables), _switch("--dot")),
    )


@pytest.fixture(scope="module")
def table_files(tmp_path_factory):
    """Quandle and automaton table files: one valid each, a missing path,
    and the malformed files of MALFORMED_TABLES."""
    folder = tmp_path_factory.mktemp("fuzz")
    files = {"quandle": [], "automaton": []}
    cases = [("quandle", json.dumps({"n": 3, "op": [1, 3, 2, 3, 2, 1, 2, 1, 3]})),
             ("automaton", json.dumps(AUTOMATON))]
    cases += [(case.values[0][0], case.values[1]) for case in MALFORMED_TABLES]
    for i, (kind, text) in enumerate(cases):
        path = folder / f"{kind}{i}.json"
        path.write_text(text)
        files[kind].append(str(path))
    return files["quandle"] + [str(folder / "missing.json")], files["automaton"]


def test_cli_fuzz_exit_contract(table_files):
    # every subcommand at N <= 4 with valid and invalid q, z and label values
    # and valid, missing or malformed table files: exit codes stay in
    # {0, 1, 2}, nothing escapes as a traceback, and every nonzero return
    # from main explains itself on a braidlab: line
    @settings(max_examples=400, deadline=None)
    @given(_cli_argvs(*table_files))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code, returned = exc.code, False
            else:
                returned = True
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue()
        if returned and code:
            assert "braidlab: " in err.getvalue(), argv

    check()
