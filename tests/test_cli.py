import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instrorder import (
    Instrument,
    InstrumentWitness,
    Povm,
    QuantumOperation,
    SimulationProgram,
    detailed_instrument,
    induced_povm,
    load,
    luders,
    measure_and_prepare,
    random_instrument,
    random_povm,
    random_state,
    save,
    State,
    is_trash_and_prepare,
    trash_and_prepare,
    witness_detailed_to_original,
    witness_error,
    witness_indecomposable_equivalence,
)
from instrorder import classify, cli, order, serialize
from instrorder.cli import main
from instrorder.simulate import simulate
from instrorder.errors import SolverError
from instrorder.linalg import DEFAULT_TOL
from instrorder.povm import proportional_inequivalent_pair
from instrorder.serialize import document_for, encode

from helpers import basis_pvm


def _write(tmp_path, name, obj):
    path = tmp_path / name
    save(document_for(obj), path)
    return str(path)


def _damping_channel(gamma=0.4):
    # two-Kraus channel, neither indecomposable nor measure-and-prepare
    k0 = np.diag([1.0, np.sqrt(1.0 - gamma)]).astype(complex)
    k1 = np.zeros((2, 2), dtype=complex)
    k1[0, 1] = np.sqrt(gamma)
    return Instrument(2, 2, [("0", QuantumOperation(2, 2, [k0, k1]))])


def test_validate_good_povm(tmp_path, capsys):
    path = _write(tmp_path, "p.json", random_povm(3, 2, 1))
    assert main(["validate", path]) == 0
    assert "ok: True" in capsys.readouterr().out


def test_validate_bad_povm_exits_1(tmp_path, capsys):
    good = random_povm(2, 2, 2)
    obj = encode(document_for(good))
    obj["outcomes"][0]["effect"][0][0] = [2.0, 0.0]  # breaks completeness
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["validate", str(path)]) == 1
    assert "ok: False" in capsys.readouterr().out


def test_validate_json_output(tmp_path, capsys):
    path = _write(tmp_path, "s.json", random_state(2, 4))
    assert main(["validate", "--json", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "validate"
    assert report["kind"] == "state"
    assert report["ok"] is True
    assert report["tolerances"]["eq_abs"] == 1e-9


def test_validate_missing_file_exits_2(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_validate_tolerance_flag_changes_verdict(tmp_path):
    P = basis_pvm(2)
    E0 = P.effect("0").copy()
    E0[0, 0] += 1e-6
    path = _write(tmp_path, "n.json", Povm(2, [("0", E0), ("1", P.effect("1"))]))
    assert main(["validate", path]) == 1
    assert main(["validate", "--tol-eq", "1e-3", path]) == 0


def test_classify_requires_instrument(tmp_path, capsys):
    path = _write(tmp_path, "p.json", random_povm(2, 2, 3))
    assert main(["classify", path]) == 2
    assert "expected a instrument document" in capsys.readouterr().err


def test_classify_trash_and_prepare(tmp_path, capsys):
    T = trash_and_prepare([0.5, 0.5], [random_state(2, 1), random_state(2, 2)], dim_in=2)
    path = _write(tmp_path, "t.json", T)
    assert main(["classify", "--json", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["trash_and_prepare"] is True
    assert report["measure_and_prepare"] is True
    assert report["identity_class"] is False
    assert "trash_and_prepare_certificate" in report


@pytest.mark.parametrize("trivial", [True, False], ids=["trash_and_prepare", "measure_and_prepare"])
def test_classify_tests_measure_and_prepare_once(tmp_path, capsys, monkeypatch, trivial):
    # the trash-and-prepare answer is read off the one measure-and-prepare
    # certificate; the report is the one is_trash_and_prepare gives
    states = [random_state(3, 30 + x) for x in range(3)]
    I = (
        trash_and_prepare([0.2, 0.3, 0.5], states, dim_in=3)
        if trivial
        else measure_and_prepare(random_povm(3, 3, 33), states)
    )
    calls = []
    original = classify.is_measure_and_prepare

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (cli, classify):
        monkeypatch.setattr(module, "is_measure_and_prepare", counted)
    assert main(["classify", "--json", _write(tmp_path, "i.json", I)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(calls) == 1
    monkeypatch.undo()
    tp = is_trash_and_prepare(I)
    assert report["trash_and_prepare"] is trivial is (tp is not None)
    if trivial:
        p, certified = tp
        assert report["trash_and_prepare_certificate"] == {
            "probs": [float(w) for w in p],
            "states": [serialize._enc_matrix(s.matrix).tolist() for s in certified],
        }


def test_classify_json_text_keeps_python_float_notation(tmp_path, capsys):
    # documents print 1e-05 as 0.00001, but the classify report keeps the
    # text of json.dumps(report, indent=2) with plain lists in its
    # certificates: Python's repr of every float
    states = [State(2, np.diag([1 - 1e-5, 1e-5])), State(2, np.array([[0.5, -0.5j], [0.5j, 0.5]]))]
    path = _write(tmp_path, "t.json", trash_and_prepare([0.25, 0.75], states, dim_in=2))
    assert main(["classify", "--json", path]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert out == json.dumps(report, indent=2) + "\n"
    assert '"eq_abs": 1e-09' in out and "0.00001" not in out
    certificate = report["trash_and_prepare_certificate"]
    assert certificate["states"] == [
        [[[0.99999, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e-05, 0.0]]],
        [[[0.5, 0.0], [0.0, -0.5]], [[0.0, 0.5], [0.5, 0.0]]],
    ]
    assert main(["classify", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"trash_and_prepare_certificate: {json.dumps(certificate)}" in lines


def test_classify_identity_channel(tmp_path, capsys):
    I = Instrument(2, 2, [("0", QuantumOperation(2, 2, [np.eye(2, dtype=complex)]))])
    path = _write(tmp_path, "id.json", I)
    assert main(["classify", "--json", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["identity_class"] is True
    assert "post_processing_clean" not in report
    assert "simulation_irreducible" not in report
    assert report["extreme"] is True
    assert report["isometric_channel"] is True
    assert report["trash_and_prepare"] is False


def test_classify_answers_extreme_without_forming_products(tmp_path, capsys):
    # Choi rank 64 per outcome: 32768 products, far beyond the 64 that can
    # be independent in the 8x8 operator space; their Gram would need 16 GiB.
    states = [random_state(8, 50 + k) for k in range(8)]
    I = measure_and_prepare(random_povm(8, 8, 5), states)
    path = _write(tmp_path, "mp.json", I)
    assert main(["classify", "--json", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["extreme"] is False
    assert report["measure_and_prepare"] is True


def test_classify_output_written(tmp_path, capsys):
    T = trash_and_prepare([1.0], [random_state(2, 3)], dim_in=2)
    out = tmp_path / "report.json"
    path = _write(tmp_path, "t.json", T)
    assert main(["classify", path, "--output", str(out)]) == 0
    doc = load(out)
    assert doc.kind == "report"
    assert doc.payload["trash_and_prepare"] is True


def test_classify_report_loads_as_plain_json(tmp_path, capsys):
    # the measure-and-prepare certificate holds a POVM whose effects would
    # match load's matrix fields; a report payload stays lists
    T = trash_and_prepare([0.5, 0.5], [random_state(2, 1), random_state(2, 2)], dim_in=2)
    out = tmp_path / "report.json"
    path = _write(tmp_path, "t.json", T)
    assert main(["classify", path, "--output", str(out)]) == 0
    report = load(out).payload
    effect = report["measure_and_prepare_certificate"]["povm"]["outcomes"][0]["effect"]
    assert type(effect) is list
    assert report == json.loads(out.read_text())["report"]


def test_induced_povm_command(tmp_path, capsys):
    I = random_instrument(3, 2, 2, 1, seed=6)
    out = tmp_path / "A.json"
    path = _write(tmp_path, "i.json", I)
    assert main(["induced-povm", path, "--output", str(out)]) == 0
    got = load(out).payload
    want = induced_povm(I)
    for x in want.labels:
        assert np.abs(got.effect(x) - want.effect(x)).max() < 1e-15


def test_detail_command(tmp_path):
    I = random_instrument(2, 2, 2, 2, seed=7)
    out = tmp_path / "D.json"
    assert main(["detail", _write(tmp_path, "i.json", I), "--output", str(out)]) == 0
    D = load(out).payload
    for x in D.labels:
        assert len(D.operation(x).kraus) == 1


def test_luders_command(tmp_path):
    P = random_povm(3, 2, 8)
    out = tmp_path / "L.json"
    assert main(["luders", _write(tmp_path, "p.json", P), "--output", str(out)]) == 0
    L = load(out).payload
    A = induced_povm(L)
    for x in P.labels:
        assert np.abs(A.effect(x) - P.effect(x)).max() < 1e-12


def test_compose_command_recovers_source(tmp_path):
    I = random_instrument(2, 2, 2, 2, seed=9)
    D = detailed_instrument(I)
    w = witness_detailed_to_original(I)
    out = tmp_path / "J.json"
    code = main(
        [
            "compose",
            _write(tmp_path, "D.json", D),
            "--processors",
            _write(tmp_path, "w.json", w),
            "--output",
            str(out),
        ]
    )
    assert code == 0
    J = load(out).payload
    assert J.labels == I.labels
    for x in I.labels:
        assert np.abs(J.operation(x).choi_matrix - I.operation(x).choi_matrix).max() < 1e-12


def test_simulate_command(tmp_path):
    I = luders(basis_pvm(2))
    procs = {
        (0, x): trash_and_prepare([1.0], [random_state(2, 70 + int(x))], dim_in=2)
        for x in I.labels
    }
    prog = SimulationProgram([I], [1.0], procs)
    out = tmp_path / "sim.json"
    assert main(["simulate", _write(tmp_path, "prog.json", prog), "--output", str(out)]) == 0
    got = load(out).payload
    want = simulate(prog)
    for x in want.labels:
        assert np.abs(got.operation(x).choi_matrix - want.operation(x).choi_matrix).max() < 1e-12


def _malformed_list_case(tmp_path, command):
    # a document whose list field holds a number, and the argv that loads it
    L = luders(basis_pvm(2))
    bad = tmp_path / "bad.json"
    if command == "compose":
        doc = {"kind": "witness", "version": 1, "source_labels": ["0", "1"],
               "processors": 5, "targets": []}
        argv = ["compose", _write(tmp_path, "L.json", L), "--processors", str(bad)]
    else:
        component = {k: v for k, v in encode(document_for(L)).items() if k not in ("kind", "version")}
        doc = {"kind": "program", "version": 1, "components": [component], "probs": [1.0],
               "processors": 3}
        argv = ["simulate", str(bad)]
    bad.write_text(json.dumps(doc))
    return argv


@pytest.mark.parametrize(
    "command, field", [("compose", "witness.processors"), ("simulate", "program.processors")]
)
def test_malformed_list_field_exits_2(tmp_path, capsys, command, field):
    assert main(_malformed_list_case(tmp_path, command)) == 2
    assert field in capsys.readouterr().err


def test_compose_rejects_witness_with_duplicate_processor(tmp_path, capsys):
    I = random_instrument(2, 2, 2, 2, seed=5)
    obj = encode(document_for(witness_detailed_to_original(I)))
    obj["processors"].append(obj["processors"][0])
    bad = tmp_path / "W.json"
    bad.write_text(json.dumps(obj))
    argv = ["compose", _write(tmp_path, "D.json", detailed_instrument(I)), "--processors", str(bad)]
    assert main(argv) == 2
    assert "witness.processors[4].source: duplicate label" in capsys.readouterr().err


def test_validate_rejects_nan_kraus_entry(tmp_path, capsys):
    obj = encode(document_for(luders(basis_pvm(2))))
    obj["outcomes"][0]["kraus"][0][0][0] = [float("nan"), 0.0]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(obj))  # json writes the bare token NaN
    assert "NaN" in path.read_text()
    assert main(["validate", str(path)]) == 2
    assert "kraus[0][0][0]: expected finite numbers" in capsys.readouterr().err


def test_equiv_rejects_proportional_pair(tmp_path, capsys):
    A, B = proportional_inequivalent_pair()
    code = main(["equiv", _write(tmp_path, "a.json", A), _write(tmp_path, "b.json", B)])
    assert code == 1
    assert "not equivalent" in capsys.readouterr().out


def test_equiv_rejects_an_invalid_povm_with_exit_2(tmp_path, capsys):
    # effects summing to 2·I: not a POVM, so not "equivalent" to itself
    P = Povm(2, [("a", np.eye(2)), ("b", np.eye(2))])
    path = _write(tmp_path, "p.json", P)
    assert main(["validate", path]) == 1
    capsys.readouterr()
    assert main(["equiv", path, path]) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: invalid povm: completeness: effects sum off identity" in err
    good = _write(tmp_path, "q.json", random_povm(2, 2, 1))
    assert main(["equiv", good, path]) == 2
    assert path in capsys.readouterr().err


def test_equiv_rejects_an_invalid_instrument_with_exit_2(tmp_path, capsys):
    L = luders(basis_pvm(2))
    doubled = Instrument(2, 2, [(x, QuantumOperation(2, 2, 2 * op.kraus)) for x, op in L.outcomes])
    path = _write(tmp_path, "i.json", doubled)
    assert main(["equiv", _write(tmp_path, "l.json", L), path]) == 2
    assert f"error: {path}: invalid instrument: " in capsys.readouterr().err


def test_equiv_tests_each_measure_and_prepare_instrument_once(tmp_path, capsys, monkeypatch):
    I, J = (random_instrument(4, 3, 1, 2, seed) for seed in (41, 42))
    calls = []
    original = classify.is_measure_and_prepare
    monkeypatch.setattr(order, "is_measure_and_prepare", lambda *args: calls.append(args) or original(*args))
    assert main(["equiv", _write(tmp_path, "i.json", I), _write(tmp_path, "j.json", J)]) == 1
    assert "method: measure_and_prepare" in capsys.readouterr().out
    assert len(calls) == 2


@pytest.mark.parametrize("tol_eq", ["inf", "nan"])
def test_equiv_rejects_a_tolerance_that_decides_nothing(tmp_path, capsys, tol_eq):
    P, Q = random_povm(2, 2, 61), random_povm(2, 3, 62)
    out = tmp_path / "rep.json"
    argv = ["equiv", "--json", "--tol-eq", tol_eq, _write(tmp_path, "p.json", P), _write(tmp_path, "q.json", Q)]
    assert main(argv + ["--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: --tol-eq must be positive and finite\n"
    assert not out.exists()


@pytest.mark.parametrize("tol_rank", ["1", "5"])
def test_classify_rejects_a_rank_cutoff_that_decides_nothing(tmp_path, capsys, tol_rank):
    R = _write(tmp_path, "r.json", random_instrument(2, 2, 2, 2, 63))
    assert main(["classify", "--tol-rank", tol_rank, R]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: --tol-rank must lie strictly between 0 and 1\n"


def test_equiv_accepts_relabeled_povm(tmp_path, capsys):
    P = random_povm(3, 2, 11)
    Q = Povm(2, [(l + "x", E) for l, E in P.outcomes])
    out = tmp_path / "rep.json"
    code = main(
        [
            "equiv",
            "--json",
            _write(tmp_path, "a.json", P),
            _write(tmp_path, "b.json", Q),
            "--output",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["equivalent"] is True
    assert "stochastic_from_b" in report and "stochastic_from_a" in report
    saved = load(out)
    assert saved.kind == "report"
    assert saved.payload["summary"] == "equivalent"


def test_equiv_indecomposable_writes_witness(tmp_path, capsys):
    L = luders(basis_pvm(2))
    M = Instrument(2, 2, [(l + "r", op) for l, op in L.outcomes])
    out = tmp_path / "w.json"
    code = main(
        [
            "equiv",
            _write(tmp_path, "a.json", L),
            _write(tmp_path, "b.json", M),
            "--output",
            str(out),
        ]
    )
    assert code == 0
    assert "equivalent" in capsys.readouterr().out
    doc = load(out)
    assert doc.kind == "witness"
    assert witness_error(L, doc.payload) < 1e-9


def test_equiv_witness_states_the_target_choi_matrices(tmp_path, capsys):
    # the document is the version-1 witness of the parent format: the
    # processors, then the target's Choi matrices V V†, byte for byte
    L = luders(random_povm(3, 4, seed=12))
    out = tmp_path / "w.json"
    a = _write(tmp_path, "a.json", L)
    assert main(["equiv", a, a, "--output", str(out)]) == 0
    w = witness_indecomposable_equivalence(L, L).forward
    stated = InstrumentWitness(
        w.source_labels, w.processors, {y: op.choi_matrix for y, op in L.outcomes}
    )
    save(document_for(stated), tmp_path / "stated.json")
    assert out.read_bytes() == (tmp_path / "stated.json").read_bytes()


def test_equiv_undecidable_exits_3(tmp_path, capsys):
    a = _damping_channel(0.4)
    b = _damping_channel(0.5)
    code = main(["equiv", _write(tmp_path, "a.json", a), _write(tmp_path, "b.json", b)])
    assert code == 3
    assert "undecidable" in capsys.readouterr().out


def test_equiv_different_input_spaces_exits_2(tmp_path, capsys):
    # neither instrument is indecomposable or measure-and-prepare
    a = _write(tmp_path, "a.json", random_instrument(3, 4, 4, 2, 7))
    b = _write(tmp_path, "b.json", random_instrument(2, 3, 3, 2, 8))
    out = tmp_path / "w.json"
    assert main(["equiv", a, b, "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: instruments measure different input spaces" in captured.err
    assert not out.exists()


def test_equiv_solver_failure_exits_4(tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise SolverError("witness replay missed its target by 1e-3")

    monkeypatch.setattr(order, "_indecomposable_witness", fail)
    L = _write(tmp_path, "l.json", luders(basis_pvm(2)))
    assert main(["equiv", L, L]) == 4
    assert "missed its target" in capsys.readouterr().err


def test_equiv_mixed_kinds_exits_2(tmp_path, capsys):
    code = main(
        [
            "equiv",
            _write(tmp_path, "a.json", random_povm(2, 2, 1)),
            _write(tmp_path, "b.json", random_instrument(2, 2, 2, 1, 1)),
        ]
    )
    assert code == 2
    assert "two povm documents or two instrument" in capsys.readouterr().err


def test_random_is_deterministic(tmp_path):
    f1 = tmp_path / "r1.json"
    f2 = tmp_path / "r2.json"
    assert main(["random", "povm", "--dim", "2", "--outcomes", "3", "--seed", "5", "--output", str(f1)]) == 0
    assert main(["random", "povm", "--dim", "2", "--outcomes", "3", "--seed", "5", "--output", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_random_instrument_dims(tmp_path):
    f = tmp_path / "ri.json"
    code = main(
        [
            "random",
            "instrument",
            "--dim",
            "2",
            "--dim-out",
            "3",
            "--outcomes",
            "2",
            "--max-kraus",
            "2",
            "--seed",
            "1",
            "--output",
            str(f),
        ]
    )
    assert code == 0
    I = load(f).payload
    assert I.dim_in == 2 and I.dim_out == 3


def test_random_json_stdout(capsys):
    assert main(["random", "state", "--dim", "2", "--seed", "3", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["kind"] == "state"
    assert obj["version"] == 1


def test_usage_errors_exit_2(capsys):
    assert main(["no-such-command"]) == 2
    assert main(["validate"]) == 2
    assert main([]) == 2
    capsys.readouterr()


def test_tolerance_flags_default_to_default_tol():
    args = cli._build_parser().parse_args(["validate", "doc.json"])
    assert args.tol_eq == DEFAULT_TOL.eq_abs
    assert args.tol_rank == DEFAULT_TOL.rank_rel


def test_back_to_back_main_calls_share_no_state(tmp_path, capsys):
    # the parser is built once per process; no flag may carry over to the next call
    assert cli._build_parser() is cli._build_parser()
    path = _write(tmp_path, "p.json", random_povm(2, 2, 1))
    runs = []
    for argv in (
        ["validate", path],
        ["validate", "--json", path],
        ["validate", path],
        ["random", "state", "--dim", "2", "--json"],
        ["random", "state", "--dim", "2", "--seed", "5", "--json"],
        ["random", "state", "--dim", "2", "--json"],
    ):
        assert main(argv) == 0
        runs.append(capsys.readouterr().out)
    plain, as_json, plain_again, unseeded, seeded, unseeded_again = runs
    assert plain_again == plain != as_json
    json.loads(as_json)
    assert unseeded_again == unseeded != seeded
    assert main(["random", "state", "--dim", "2", "--seed", "0", "--json"]) == 0
    assert capsys.readouterr().out == unseeded



class _ClosedPipe(io.StringIO):
    # a standard output whose reader has gone: every write fails
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("flags", [["--json"], []], ids=["json", "plain"])
def test_closed_stdout_exits_141_quietly(tmp_path, capsys, monkeypatch, flags):
    path = _write(tmp_path, "A.json", random_povm(4, 3, 7))
    monkeypatch.setattr("sys.stdout", _ClosedPipe())
    assert main(["equiv", path, path] + flags) == 141
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_pipe_exits_141_quietly_in_a_subprocess(tmp_path, unbuffered):
    # buffered, the report fails at the flush in main and again at exit
    # unless the descriptor is redirected; unbuffered, at the first print
    path = _write(tmp_path, "A.json", random_povm(4, 3, 7))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "instrorder", "equiv", path, path, "--json"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, "")

_HEADER_MUTATIONS = [
    ("kind", ["povm"], "document.kind: expected a string"),
    ("kind", {"povm": 1}, "document.kind: expected a string"),
    ("kind", None, "document.kind: expected a string"),
    ("kind", 3, "document.kind: expected a string"),
    ("version", True, "document.version: expected an integer"),
    ("version", 1.0, "document.version: expected an integer"),
    ("version", "1", "document.version: expected an integer"),
    ("version", [1], "document.version: expected an integer"),
    ("version", None, "document.version: expected an integer"),
]


@pytest.mark.parametrize("field, value, message", _HEADER_MUTATIONS)
@pytest.mark.parametrize(
    "command, obj",
    [
        ("validate", random_povm(2, 2, 1)),
        ("validate", random_state(2, 1)),
        ("classify", random_instrument(2, 2, 2, 1, 1)),
        ("equiv", luders(basis_pvm(2))),
    ],
    ids=["validate-povm", "validate-state", "classify", "equiv"],
)
def test_header_of_the_wrong_type_exits_2(tmp_path, capsys, command, obj, field, value, message):
    doc = encode(document_for(obj))
    doc[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = [command, str(bad)] + ([_write(tmp_path, "ok.json", obj)] if command == "equiv" else [])
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("exc", [TypeError("unhashable type: 'list'"), KeyError("x"), ZeroDivisionError("boom")])
def test_internal_fault_exits_4_not_1(tmp_path, capsys, monkeypatch, exc):
    def fail(*args):
        raise exc

    monkeypatch.setattr(cli, "validate_povm", fail)
    assert main(["validate", _write(tmp_path, "p.json", random_povm(2, 2, 1))]) == 4
    err = capsys.readouterr().err
    assert err.startswith("Traceback")  # the fault is reported with where it happened
    assert err.endswith(f"internal error: {type(exc).__name__}: {exc}\n")


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-2, 2) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=5,
)
_MUTABLE_DOCUMENTS = {
    "povm": random_povm(2, 2, 1),
    "instrument": luders(basis_pvm(2)),
    "state": random_state(2, 1),
}


_FLOAT = re.compile(r"-?\d+\.\d+(?:e[-+]?\d+)?")


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(
    kind=st.sampled_from(sorted(_MUTABLE_DOCUMENTS)),
    command=st.sampled_from(["validate", "classify", "equiv", "induced-povm", "luders"]),
    mutations=st.lists(st.tuples(st.integers(0, 9), st.none() | _JSON_VALUES), max_size=2),
    entry=st.none() | st.tuples(st.integers(0, 99), st.sampled_from([0.0, 0.5, 2.0, -1.0])),
)
def test_mutated_top_level_fields_never_end_in_an_internal_error(
    tmp_path_factory, kind, command, mutations, entry
):
    # entry replaces one matrix number, which keeps the document parsable;
    # each mutation replaces one top-level field by a JSON value, or drops
    # it (None).  The answer is a parse error, a report or a decision, never
    # a fault, and exit 1 ("no") is a failed validity check of a parsed
    # document or a decided "no" between valid ones
    good = _MUTABLE_DOCUMENTS[kind]
    text = json.dumps(encode(document_for(good)))
    if entry is not None:
        numbers = list(_FLOAT.finditer(text))
        m = numbers[entry[0] % len(numbers)]
        text = text[: m.start()] + repr(entry[1]) + text[m.end() :]
    doc = json.loads(text)
    for index, value in mutations:
        field = sorted(doc)[index % len(doc)] if doc else "kind"
        if value is None:
            doc.pop(field, None)
        else:
            doc[field] = value
    folder = tmp_path_factory.mktemp("mutated")
    bad = folder / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = [command, str(bad)] + ([_write(folder, "ok.json", good)] if command == "equiv" else [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), err.getvalue()
    if code == 1:
        parsed = load(bad)
        if command == "equiv":
            assert cli._validate(parsed, DEFAULT_TOL).ok
            assert "summary: not equivalent" in out.getvalue()
        else:
            assert command in ("validate", "classify")
            assert "ok: False" in out.getvalue()
