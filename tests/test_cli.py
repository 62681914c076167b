import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from braidlab import cli


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


def test_spectrum_sector_filter(capsys):
    code, out, _ = run(capsys, "spectrum", "--n", "2", "--N", "4", "--q", "1.5",
                       "--sector", "1")
    payload = json.loads(out)
    assert code == 0
    assert all(r["sector"] == 1 for r in payload["eigenvalues"])
    assert len(payload["eigenvalues"]) == 3


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


def test_tableaux_payload(capsys):
    code, out, _ = run(capsys, "tableaux", "--n", "3", "--N", "3")
    payload = json.loads(out)
    assert code == 0
    assert payload["schur_weyl_ok"] is True
    assert {tuple(r["partition"]): r["ssyt_dim"] for r in payload["table"]} == {
        (3,): 10, (2, 1): 8, (1, 1, 1): 1}


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
