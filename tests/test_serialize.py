import codecs
import gc
import json
import math
import os
import random
import re
import tracemalloc

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from instrorder import (
    DimensionMismatch,
    Instrument,
    ParseError,
    Povm,
    QuantumOperation,
    SimulationProgram,
    detailed_instrument,
    load,
    luders,
    random_instrument,
    random_povm,
    random_state,
    save,
    State,
    trash_and_prepare,
    witness_detailed_to_original,
    witness_error,
    witness_indecomposable_equivalence,
)
from instrorder import serialize
from instrorder.serialize import KINDS, Document, decode, document_for, encode

from helpers import basis_pvm


def test_povm_round_trip_is_exact(tmp_path):
    for seed in range(20):
        P = random_povm(3, 1 + seed % 4, seed)
        path = tmp_path / f"p{seed}.json"
        save(document_for(P), path)
        Q = load(path).payload
        assert Q.dim == P.dim
        assert Q.labels == P.labels
        for x in P.labels:
            assert np.array_equal(P.effect(x), Q.effect(x))


def test_instrument_round_trip_choi_exact(tmp_path):
    for seed in range(20):
        I = random_instrument(2, 2, 2, 2, seed)
        path = tmp_path / f"i{seed}.json"
        save(document_for(I), path)
        J = load(path).payload
        assert J.dim_in == I.dim_in and J.dim_out == I.dim_out
        assert J.labels == I.labels
        for x in I.labels:
            C1 = I.operation(x).choi_matrix
            C2 = J.operation(x).choi_matrix
            assert np.abs(C1 - C2).max() < 1e-15


def test_state_round_trip(tmp_path):
    s = random_state(3, 9)
    path = tmp_path / "s.json"
    save(document_for(s), path)
    t = load(path).payload
    assert t.dim == 3
    assert np.array_equal(s.matrix, t.matrix)


def test_float_fidelity_is_bitwise(tmp_path):
    # shortest-round-trip printing means load(save(x)) == x, not just close
    s = random_state(4, 123)
    path = tmp_path / "bw.json"
    save(document_for(s), path)
    assert load(path).payload.matrix.tobytes() == s.matrix.tobytes()


def test_witness_round_trip(tmp_path):
    I = random_instrument(2, 2, 2, 2, seed=5)
    w = witness_detailed_to_original(I)
    path = tmp_path / "w.json"
    save(document_for(w), path)
    v = load(path).payload
    assert v.source_labels == w.source_labels
    assert v.target_labels == w.target_labels
    for x in w.source_labels:
        a, b = w.processors[x], v.processors[x]
        assert a.labels == b.labels
        for y in a.labels:
            assert np.array_equal(
                a.operation(y).choi_matrix, b.operation(y).choi_matrix
            )
    for y in w.target_labels:
        assert np.array_equal(w.target.operation(y).choi_matrix, v.target[y])


def test_loaded_witness_replays_as_built(tmp_path):
    # a loaded witness holds the Choi matrices the file states and compares
    # them densely; the one built in memory compares Kraus forms
    L = luders(random_povm(4, 4, seed=21))
    D = detailed_instrument(L)
    for source, w in [
        (L, witness_indecomposable_equivalence(L, L).forward),
        (D, witness_detailed_to_original(L)),
    ]:
        path = tmp_path / "w.json"
        save(document_for(w), path)
        v = load(path).payload
        assert isinstance(v.target, dict) and v.target_labels == w.target_labels
        assert abs(witness_error(source, v) - witness_error(source, w)) <= 1e-12
        save(document_for(v), tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_loaded_witness_refuses_a_choi_matrix_of_the_wrong_size():
    # a 1x1 matrix would broadcast against the replay's 4x4 Choi matrix
    I = random_instrument(2, 2, 2, 2, seed=5)
    obj = encode(document_for(witness_detailed_to_original(I)))
    obj["targets"][0]["choi"] = [[[0.5, 0.0]]]
    w = decode(obj).payload
    with pytest.raises(DimensionMismatch, match=r"^target '0' states a Choi matrix of shape \(1, 1\)"):
        witness_error(detailed_instrument(I), w)


def test_program_round_trip(tmp_path):
    I = luders(basis_pvm(2))
    procs = {
        (0, x): trash_and_prepare([1.0], [random_state(2, 60 + int(x))], dim_in=2)
        for x in I.labels
    }
    prog = SimulationProgram([I], [1.0], procs)
    path = tmp_path / "prog.json"
    save(document_for(prog), path)
    q = load(path).payload
    assert len(q.components) == 1
    assert q.probs == [1.0]
    assert set(q.processors) == set(prog.processors)


def test_report_round_trip(tmp_path):
    report = {"command": "validate", "ok": True, "max_violation": 3.5e-17}
    path = tmp_path / "r.json"
    save(document_for(report), path)
    doc = load(path)
    assert doc.kind == "report"
    assert doc.payload == report


def test_rejects_future_version(tmp_path):
    path = tmp_path / "v2.json"
    obj = encode(document_for(random_state(2, 1)))
    obj["version"] = 2
    path.write_text(json.dumps(obj))
    with pytest.raises(ParseError, match="unsupported version"):
        load(path)


def test_rejects_unknown_kind():
    with pytest.raises(ParseError, match="unknown kind"):
        decode({"kind": "channel", "version": 1})


def test_rejects_unknown_field(tmp_path):
    obj = encode(document_for(random_state(2, 1)))
    obj["extra"] = 1
    path = tmp_path / "x.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ParseError, match="unknown field 'extra'"):
        load(path)


def test_rejects_missing_field():
    with pytest.raises(ParseError, match="missing field 'kind'"):
        decode({"version": 1})
    with pytest.raises(ParseError, match="missing field 'version'"):
        decode({"kind": "state"})
    with pytest.raises(ParseError, match="state: missing field 'matrix'"):
        decode({"kind": "state", "version": 1, "dim": 2})


def test_malformed_matrix_names_the_field(tmp_path):
    obj = encode(document_for(basis_pvm(2)))
    obj["outcomes"][1]["effect"][0] = [[0.0, 0.0]]  # row with one entry, not two
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ParseError, match=r"povm\.outcomes\[1\]\.effect\[0\]: expected 2 entries"):
        load(path)


def test_rejects_non_pair_entry():
    obj = encode(document_for(random_state(2, 3)))
    obj["matrix"][0][0] = [1.0]
    with pytest.raises(ParseError, match=r"expected a \[re, im\] pair"):
        decode(obj)


@pytest.mark.parametrize(
    "entry",
    [[0.25, True], ["0.5", 0.0], [None, 0.0], [0.5, 0.0, 0.0], {"re": 0.5, "im": 0.0}],
    ids=["true-leaf", "string-leaf", "null-leaf", "three-elements", "object"],
)
def test_rejects_malformed_entry(entry):
    # numpy would read true as 1.0, "0.5" as 0.5 and null as NaN; the decoder must not
    obj = encode(document_for(random_state(2, 3)))
    obj["matrix"][1][0] = entry
    with pytest.raises(ParseError, match=r"^state\.matrix\[1\]\[0\]: expected a \[re, im\] pair$"):
        decode(json.loads(json.dumps(obj)))


@pytest.mark.parametrize(
    "cut, message",
    [
        (lambda m: m[1].append([0.0, 0.0]), r"^state\.matrix\[1\]: expected 2 entries$"),
        (lambda m: m.append(m[0]), r"^state\.matrix: expected 2 rows$"),
    ],
    ids=["long-row", "extra-row"],
)
def test_rejects_ragged_matrix(cut, message):
    obj = encode(document_for(random_state(2, 3)))
    cut(obj["matrix"])
    with pytest.raises(ParseError, match=message):
        decode(json.loads(json.dumps(obj)))


def test_rejects_bool_dimension():
    with pytest.raises(ParseError, match="expected an integer"):
        decode({"kind": "state", "version": 1, "dim": True, "matrix": []})


def test_invalid_json_reports_position(tmp_path):
    path = tmp_path / "garbled.json"
    path.write_text('{"kind": "state",\n  "version": }\n')
    with pytest.raises(ParseError, match="line 2 column"):
        load(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load(tmp_path / "nope.json")


def test_document_for_rejects_unknown_type():
    with pytest.raises(TypeError):
        document_for(3.14)


def test_encode_rejects_unknown_kind():
    with pytest.raises(ValueError):
        encode(Document("frame", {}))


def _program():
    # two components with different Kraus counts; each processor prepares a state
    components = [luders(basis_pvm(2)), random_instrument(2, 2, 2, 2, 3)]
    procs = {
        (i, x): trash_and_prepare([0.25, 0.75], [random_state(2, 60 + i), random_state(2, 61)], 2)
        for i, c in enumerate(components)
        for x in c.labels
    }
    return SimulationProgram(components, [0.5, 0.5], procs)


SAMPLES = {
    "povm": lambda: random_povm(3, 3, 4),
    "instrument": lambda: random_instrument(2, 2, 3, 2, 6),
    "state": lambda: random_state(3, 8),
    "witness": lambda: witness_detailed_to_original(random_instrument(2, 2, 2, 2, seed=5)),
    "program": _program,
    "report": lambda: {"command": "classify", "ok": True, "nested": {"a": [1, 2.5, None, "x"]}},
}


@pytest.mark.parametrize("kind", KINDS)
def test_save_load_save_is_byte_identical(tmp_path, kind):
    doc = document_for(SAMPLES[kind]())
    assert doc.kind == kind
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save(doc, first)
    save(load(first), second)
    assert first.read_bytes() == second.read_bytes()


TINY_STATE_TEXT = """{
  "kind": "state",
  "version": 1,
  "dim": 2,
  "matrix": [
    [
      [
        0.5,
        0.0
      ],
      [
        -0.0,
        -0.25
      ]
    ],
    [
      [
        0.0,
        0.25
      ],
      [
        0.5,
        0.0
      ]
    ]
  ]
}
"""


TINY_STATE_COMPACT = (
    '{"kind":"state","version":1,"dim":2,'
    '"matrix":[[[0.5,0.0],[-0.0,-0.25]],[[0.0,0.25],[0.5,0.0]]]}\n'
)
TINY_STATE = np.array([[0.5, -0.25j], [0.25j, 0.5]])


def test_state_document_text_is_pinned(tmp_path):
    # [re, im] pairs, row-major rows, compact JSON, the sign of zero kept
    path = tmp_path / "tiny.json"
    save(State(2, TINY_STATE), path)
    assert path.read_text() == TINY_STATE_COMPACT
    assert load(path).payload.matrix.tobytes() == TINY_STATE.tobytes()


TINY_POVM_COMPACT = (
    '{"kind":"povm","version":1,"dim":2,"outcomes":['
    '{"label":"up","effect":[[[0.5,0.0],[-0.0,-0.25]],[[0.0,0.25],[0.25,0.0]]]},'
    '{"label":"down","effect":[[[0.5,0.0],[0.0,0.25]],[[0.0,-0.25],[0.75,0.0]]]}]}\n'
)
TINY_EFFECT = np.array([[0.5, -0.25j], [0.25j, 0.25]])


def test_povm_document_text_is_pinned(tmp_path):
    # each effect is written from its view of the POVM's stack
    path = tmp_path / "tiny-povm.json"
    save(Povm(2, [("up", TINY_EFFECT), ("down", np.eye(2) - TINY_EFFECT)]), path)
    assert path.read_text() == TINY_POVM_COMPACT
    assert load(path).payload.effect("up").tobytes() == TINY_EFFECT.tobytes()


def test_indented_document_loads_bit_exactly(tmp_path):
    # whitespace is not part of the format: an indent=2 version-1 document
    # loads to the same bits and saves back as the compact text
    indented, again = tmp_path / "indented.json", tmp_path / "again.json"
    indented.write_text(TINY_STATE_TEXT)
    doc = load(indented)
    assert doc.payload.matrix.tobytes() == TINY_STATE.tobytes()
    save(doc, again)
    assert again.read_text() == TINY_STATE_COMPACT
    assert json.loads(again.read_text())["version"] == 1


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_rejects_non_finite_matrix_entry(tmp_path, number):
    # the imaginary part of entry [1][0]; entry [0][1] holds -0.25
    text = TINY_STATE_TEXT.replace(" 0.25\n", f" {number}\n")
    assert text.count(number) == 1
    path = tmp_path / "nonfinite.json"
    path.write_text(text)
    with pytest.raises(ParseError, match=r"state\.matrix\[1\]\[0\]: expected finite numbers"):
        load(path)


def test_rejects_integer_beyond_float_range():
    obj = encode(document_for(random_state(2, 3)))
    obj["matrix"][0][1] = [10**400, 0]
    with pytest.raises(ParseError, match=r"state\.matrix: expected finite numbers"):
        decode(obj)


@pytest.mark.parametrize(
    "number",
    [float("nan"), float("inf"), -float("inf"), 10**400],
    ids=["nan", "inf", "-inf", "int-past-float-range"],
)
def test_rejects_non_finite_probs(number):
    obj = encode(document_for(_program()))
    obj["probs"][1] = number
    with pytest.raises(ParseError, match=r"program\.probs: expected finite numbers"):
        decode(obj)


@pytest.mark.parametrize(
    "kind, field",
    [
        ("povm", "outcomes"),
        ("instrument", "outcomes"),
        ("witness", "processors"),
        ("witness", "targets"),
        ("program", "components"),
        ("program", "processors"),
    ],
)
@pytest.mark.parametrize("value", [5, []], ids=["number", "empty"])
def test_rejects_malformed_list_field(kind, field, value):
    obj = encode(document_for(SAMPLES[kind]()))
    obj[field] = value
    with pytest.raises(ParseError, match=rf"{kind}\.{field}: expected a nonempty list"):
        decode(obj)


def test_rejects_kraus_that_is_not_a_list():
    obj = encode(document_for(SAMPLES["instrument"]()))
    obj["outcomes"][1]["kraus"] = 7
    with pytest.raises(ParseError, match=r"outcomes\[1\]\.kraus: expected a nonempty list of matrices"):
        decode(obj)


def test_failed_save_keeps_the_old_file(tmp_path):
    path = tmp_path / "keep.json"
    path.write_text("old contents\n")
    with pytest.raises(ValueError):
        save(Document("frame", {}), path)
    assert path.read_text() == "old contents\n"


def test_save_refuses_nan_state_and_keeps_the_old_file(tmp_path):
    # orjson would write NaN as null; the field is named before open
    path = tmp_path / "keep.json"
    path.write_text("old contents\n")
    matrix = np.eye(2, dtype=complex)
    matrix[1, 0] = complex(0.0, np.nan)
    with pytest.raises(ValueError, match=r"^state\.matrix: expected finite numbers$"):
        save(State(2, matrix), path)
    assert path.read_text() == "old contents\n"


def test_save_refuses_nan_program_probs_and_keeps_the_old_file(tmp_path):
    path = tmp_path / "keep.json"
    path.write_text("old contents\n")
    program = _program()
    program.probs = np.array([np.nan, 1.0])
    with pytest.raises(ValueError, match=r"^program\.probs: expected finite numbers$"):
        save(program, path)
    assert path.read_text() == "old contents\n"


def test_save_names_a_nested_non_finite_matrix(tmp_path):
    w = SAMPLES["witness"]()
    y = w.target_labels[1]
    ks = w.target.operation(y).kraus.copy()
    ks[0, 1, 0] = np.inf
    outcomes = list(w.target.outcomes)
    outcomes[1] = (y, QuantumOperation(2, 2, ks))
    w.target = Instrument(2, 2, outcomes)
    # the Choi matrix of an inf Kraus matrix holds inf · 0 = NaN
    with np.errstate(invalid="ignore"), pytest.raises(
        ValueError, match=r"^witness\.targets\[1\]\.choi: expected finite"
    ):
        save(w, tmp_path / "w.json")
    assert not (tmp_path / "w.json").exists()


def test_save_refuses_non_finite_report_float(tmp_path):
    report = {"tolerances": {"eq_abs": float("inf")}, "a": [1.0, -float("inf")]}
    with pytest.raises(ValueError, match=r"^report\.report\.tolerances\.eq_abs: expected finite"):
        save(report, tmp_path / "r.json")
    report["tolerances"]["eq_abs"] = 1e-9
    with pytest.raises(ValueError, match=r"^report\.report\.a\[1\]: expected finite"):
        save(report, tmp_path / "r.json")


# Printed by orjson as 0.00001, 0.000089 and 1e16; the rest as Python does.
EDGE_DOUBLES = [1e-5, 8.9e-05, 1e16, 5e-324, -0.0, 1.7976931348623157e308]


def _edge_and_random_doubles():
    """The edge doubles, their negatives and 1000 random finite 64-bit
    patterns (subnormals included), as a float64 array."""
    bits = np.random.default_rng(11).integers(0, 2**64, size=1100, dtype=np.uint64)
    random = bits.view(float)
    random = random[np.isfinite(random)][:1000]
    assert len(random) == 1000
    return np.concatenate([EDGE_DOUBLES, np.negative(EDGE_DOUBLES), random])


def _square(values, dim):
    """values, padded with zeros, as a dim x dim complex matrix."""
    pairs = np.zeros(2 * dim * dim)
    pairs[: len(values)] = values
    return pairs.view(complex).reshape(dim, dim)


def test_number_notation_round_trips_bitwise(tmp_path):
    values = _edge_and_random_doubles()
    half = (len(values) + 1) // 2
    state = State(23, _square(values, 23))
    povm = Povm(17, [("a", _square(values[:half], 17)), ("b", _square(values[half:], 17))])
    cases = [
        (state, lambda s: [s.matrix], lambda raw: [raw["matrix"]]),
        (povm, lambda P: P.effects, lambda raw: [e["effect"] for e in raw["outcomes"]]),
    ]
    for obj, matrices, fields in cases:
        path = tmp_path / "doc.json"
        save(obj, path)
        text = path.read_text()
        assert "0.00001" in text and "1e16" in text and "1e-05" not in text
        # the stdlib reader, which the benchmark oracles use, reads the same bits
        stdlib = [np.array(f, dtype=float).view(complex)[..., 0] for f in fields(json.loads(text))]
        for want, got, read in zip(matrices(obj), matrices(load(path).payload), stdlib):
            assert got.tobytes() == want.tobytes()
            assert read.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_encode_is_what_save_writes(tmp_path, kind):
    doc = document_for(SAMPLES[kind]())
    path = tmp_path / "doc.json"
    save(doc, path)
    assert encode(doc) == json.loads(path.read_text())


def _luders_witness(dim, seed):
    """The witness that the 4-outcome Lüders instrument on dimension dim is
    below its detailed instrument; its target Choi matrices are
    (dim^2 x dim^2) and make up most of its text."""
    L = luders(random_povm(4, dim, seed))
    return witness_indecomposable_equivalence(L, detailed_instrument(L)).forward


def _one_shot(doc):
    """The text one orjson.dumps of the whole document body gives."""
    body = {"kind": doc.kind, "version": serialize.VERSION, **serialize._FORMATS[doc.kind][1](doc.payload)}
    return orjson.dumps(body, option=orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE)


@pytest.mark.parametrize("sample", [*KINDS, "witness-d8"])
def test_save_writes_the_one_shot_orjson_text(tmp_path, sample):
    # save writes the text part by part; the file holds the same bytes
    obj = _luders_witness(8, 2) if sample == "witness-d8" else SAMPLES[sample]()
    doc = document_for(obj)
    path = tmp_path / "doc.json"
    save(doc, path)
    assert path.read_bytes() == _one_shot(doc)


def _nested_lists(depth):
    tree = []
    for _ in range(depth - 1):
        tree = [tree]
    return tree


def _nan_state():
    matrix = np.eye(2, dtype=complex)
    matrix[0, 1] = np.nan
    return State(2, matrix)


@pytest.mark.parametrize(
    "sample, message",
    [
        (lambda: Povm(1, [("\ud800", [[1.0]])]), None),
        (lambda: {"counts": {1: "one"}}, None),
        (lambda: {"deep": _nested_lists(300)}, None),
        (_nan_state, "state.matrix: expected finite numbers"),
    ],
    ids=["lone-surrogate-label", "non-str-report-key", "nesting-past-orjson-limit", "nan-entry"],
)
def test_save_refuses_what_one_orjson_dumps_would_and_keeps_the_old_file(tmp_path, sample, message):
    # None: the TypeError orjson gives for the whole body, raised before open
    doc = document_for(sample())
    if message is None:
        with pytest.raises(TypeError) as want:
            _one_shot(doc)
        message = str(want.value)
    path = tmp_path / "keep.json"
    path.write_text("old contents\n")
    with pytest.raises((TypeError, ValueError)) as got:
        save(doc, path)
    assert str(got.value) == message
    assert path.read_text() == "old contents\n"


@pytest.mark.parametrize(
    "field, index, path, label",
    [
        ("source_labels", 0, r"source_labels\[4\]", "(1,0)"),
        ("processors", 0, r"processors\[4\]\.source", "(1,0)"),
        ("targets", 1, r"targets\[2\]\.label", "1"),
    ],
)
def test_rejects_duplicate_witness_label(field, index, path, label):
    obj = encode(document_for(SAMPLES["witness"]()))
    obj[field].append(obj[field][index])
    with pytest.raises(ParseError, match=rf"witness\.{path}: duplicate label '{re.escape(label)}'"):
        decode(obj)


@pytest.mark.parametrize("kind", KINDS)
def test_load_is_decode_of_the_plain_json_tree(tmp_path, kind):
    # load converts each matrix while parsing, the compact ones before the
    # JSON parser runs; the payload must carry the same bits as decode of the
    # tree json.load builds, for the compact text save writes and for the
    # same document indented
    path, via_load, via_decode = (tmp_path / name for name in ("doc.json", "a.json", "b.json"))
    save(document_for(SAMPLES[kind]()), path)
    compact = path.read_bytes()
    for text in (compact, json.dumps(json.loads(compact), indent=2).encode()):
        path.write_bytes(text)
        with open(path) as fh:
            plain = decode(json.load(fh))
        doc = load(path)
        assert doc.kind == plain.kind == kind
        save(doc, via_load)
        save(plain, via_decode)
        assert via_load.read_bytes() == via_decode.read_bytes() == compact


def _set_effect(rows, cols):
    def edit(obj):
        obj["outcomes"][0]["effect"] = [[[0.5, 0.0]] * cols for _ in range(rows)]
    return edit


def _set_entry(value):
    def edit(obj):
        obj["matrix"][1][0] = value
    return edit


def _drop_last_column(obj):
    obj["targets"][0]["choi"] = [row[:-1] for row in obj["targets"][0]["choi"]]


def _transpose_first_kraus(obj):
    K = obj["outcomes"][0]["kraus"][0]
    obj["outcomes"][0]["kraus"][0] = [list(col) for col in zip(*K)]


@pytest.mark.parametrize(
    "sample, edit, message",
    [
        (lambda: basis_pvm(2), _set_effect(3, 2), "povm.outcomes[0].effect: expected 2 rows"),
        (lambda: basis_pvm(2), _set_effect(2, 3), "povm.outcomes[0].effect[0]: expected 2 entries"),
        (lambda: basis_pvm(2), _set_effect(3, 3), "povm.outcomes[0].effect: expected 2 rows"),
        (SAMPLES["instrument"], _transpose_first_kraus, "instrument.outcomes[0].kraus[0]: expected 3 rows"),
        (SAMPLES["witness"], _drop_last_column, "witness.targets[0].choi[0]: expected 4 entries"),
        (SAMPLES["state"], _set_entry([0.25, True]), "state.matrix[1][0]: expected a [re, im] pair"),
        (SAMPLES["state"], _set_entry(["0.5", 0.0]), "state.matrix[1][0]: expected a [re, im] pair"),
        (SAMPLES["state"], _set_entry([None, 0.0]), "state.matrix[1][0]: expected a [re, im] pair"),
        (SAMPLES["state"], _set_entry([0.5]), "state.matrix[1][0]: expected a [re, im] pair"),
        (SAMPLES["state"], _set_entry([10**400, 0]), "state.matrix: expected finite numbers"),
    ],
    ids=[
        "povm-3x2", "povm-2x3", "povm-3x3", "kraus-transposed", "choi-one-column-short",
        "true-leaf", "string-leaf", "null-leaf", "one-number-pair", "int-past-float-range",
    ],
)
def test_load_names_a_malformed_matrix_as_decode_does(tmp_path, sample, edit, message):
    obj = encode(document_for(sample()))
    edit(obj)
    path = tmp_path / "bad.json"
    # with spaces, as json.dumps writes, and compact, as save writes
    for separators in ((", ", ": "), (",", ":")):
        path.write_text(json.dumps(obj, separators=separators))
        for read in (load, lambda p: decode(json.loads(p.read_text()))):
            with pytest.raises(ParseError) as exc:
                read(path)
            assert str(exc.value) == message


def test_load_peak_memory_stays_below_three_times_the_file(tmp_path):
    # the d=6 Luders -> detailed witness, 95% target Choi matrices: load
    # frees each matrix's nested lists before it parses the next, where the
    # whole list tree took 4.5 times the file size
    L = luders(random_povm(4, 6, 1))
    path = tmp_path / "w.json"
    save(witness_indecomposable_equivalence(L, detailed_instrument(L)).forward, path)
    tracemalloc.start()
    try:
        doc = load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert doc.kind == "witness"
    assert peak < 3 * os.path.getsize(path)


def _traced(call):
    """(current, peak) traced Python memory of call(), with the cyclic
    garbage collector off, so memory kept only by a reference cycle counts
    as current."""
    gc.disable()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()


def test_save_peak_memory_stays_below_half_the_text(tmp_path):
    # the d=6 Luders -> detailed witness: save encodes one matrix at a time,
    # where one orjson.dumps of the body held the whole text (1.09 times it)
    w = _luders_witness(6, 1)
    path = tmp_path / "w.json"
    save(w, path)  # also fills the target operations' cached Choi matrices
    size = os.path.getsize(path)
    current, peak = _traced(lambda: save(w, path))
    assert os.path.getsize(path) == size
    assert peak < size / 2
    # nothing save built outlives it, not even in a reference cycle: one
    # through a recursive closure kept the body and the parts (0.022 times
    # the text; 0.002 is left without it)
    assert current < size / 200


def test_load_peak_memory_stays_below_twice_the_file(tmp_path):
    # the same witness: load parses each matrix in blocks, so beside the
    # file's bytes and the arrays only one block's floats are alive (2.15
    # times the file when a matrix was parsed whole, 1.93 in blocks)
    path = tmp_path / "w.json"
    save(_luders_witness(6, 1), path)
    peak = _traced(lambda: load(path))[1]
    assert peak < 2.05 * os.path.getsize(path)


def _takes_the_lift(path):
    """True when load lifts the matrices of path before the JSON parser
    runs, rather than parsing the file's own text."""
    return bool(serialize._lift(path.read_bytes())[1])


def test_label_holding_a_compact_matrix_stays_a_label(tmp_path):
    # the lift skips JSON strings whole, escaped quotes and backslashes too
    labels = ["[[[0.5,0]]]", 'b"[[[0.5,0]]]', "c\\[[[1,2]]]", "d\\"]
    P = Povm(1, [(l, [[0.25]]) for l in labels])
    path = tmp_path / "labels.json"
    save(P, path)
    assert _takes_the_lift(path)
    Q = load(path).payload
    assert Q.labels == labels
    assert Q.effects.tobytes() == P.effects.tobytes()


def _povm_text(effects, extra=""):
    outcomes = ",".join(f'{{"label":"{i}","effect":{e}}}' for i, e in enumerate(effects))
    return f'{{"kind":"povm","version":1,"dim":1,{extra}"outcomes":[{outcomes}]}}'


@pytest.mark.parametrize(
    "text, message",
    [
        (_povm_text(["[[[0]]]", "[[[0.5,0.25]]]"]), "povm.outcomes[0].effect[0][0]: expected a [re, im] pair"),
        (_povm_text(["[[[0.5,0.25]]]", "[[[0]]]"]), "povm.outcomes[1].effect[0][0]: expected a [re, im] pair"),
        (_povm_text(["[[[0.5,0.25]]]", "[[[1]]]"]), "povm.outcomes[1].effect[0][0]: expected a [re, im] pair"),
        (_povm_text(["[[[0]]]"], '"note":[[[0.5,0.25]]],'), "povm: unknown field 'note'"),
        # the forged kraus matrix takes the place of the compact probs, so
        # only the file's own text names the first fault
        (
            '{"kind":"program","version":1,"probs":[[[0.5,0.25]]],"components":[{"dim_in":1,'
            '"dim_out":1,"outcomes":[{"label":"a","kraus":[[[[0]]]]}]}],"processors":[]}',
            "program.components[0].outcomes[0].kraus[0][0][0]: expected a [re, im] pair",
        ),
    ],
    ids=["before-a-matrix", "after-a-matrix", "next-index", "beside-unknown-field", "for-probs"],
)
def test_forged_placeholder_gives_the_parse_error_of_the_file(tmp_path, text, message):
    path = tmp_path / "forged.json"
    path.write_text(text)
    for read in (load, lambda p: decode(json.loads(p.read_text()))):
        with pytest.raises(ParseError) as exc:
            read(path)
        assert str(exc.value) == message


def test_invalid_json_after_a_compact_matrix_names_the_files_position(tmp_path):
    # the placeholder is shorter than the matrix, so a position in the
    # parsed skeleton would be column 54
    path = tmp_path / "garbled.json"
    path.write_text('{"kind":"state","version":1,"dim":1,"matrix":[[[0.5,0.25]]],}\n')
    with pytest.raises(ParseError, match="invalid JSON at line 1 column 61: Expecting property name"):
        load(path)


def test_document_mixing_compact_and_indented_matrices(tmp_path):
    P = random_povm(3, 2, 7)
    effects = encode(document_for(P))["outcomes"]
    path = tmp_path / "mixed.json"
    path.write_text(
        '{"kind":"povm","version":1,"dim":2,"outcomes":['
        + ",".join(
            json.dumps(e, indent=2 if i == 1 else None, separators=None if i == 1 else (",", ":"))
            for i, e in enumerate(effects)
        )
        + "]}"
    )
    assert _takes_the_lift(path)
    assert load(path).payload.effects.tobytes() == P.effects.tobytes()


def _matrix_count(tree):
    """The number of effect, matrix and choi fields and kraus entries in tree."""
    if isinstance(tree, list):
        return sum(map(_matrix_count, tree))
    if not isinstance(tree, dict):
        return 0
    own = sum(key in tree for key in ("effect", "matrix", "choi")) + len(tree.get("kraus", ()))
    return own + sum(map(_matrix_count, tree.values()))


@pytest.mark.parametrize("kind", [kind for kind in KINDS if kind != "report"])
def test_every_matrix_is_lifted_compact_or_indented(tmp_path, kind):
    # save's compact text, the same tree indented, and with json.dumps's
    # default ", " and ": " separators
    path, again = tmp_path / "doc.json", tmp_path / "again.json"
    save(document_for(SAMPLES[kind]()), path)
    compact = path.read_bytes()
    tree = json.loads(compact)
    assert _matrix_count(tree) > 0
    for text in (compact, json.dumps(tree, indent=2).encode(), json.dumps(tree).encode()):
        assert len(serialize._lift(text)[1]) == _matrix_count(tree)
        path.write_bytes(text)
        save(load(path), again)
        assert again.read_bytes() == compact


@pytest.mark.parametrize(
    "text, message",
    [
        (_povm_text(["[[[[0.5,0.25]]]]"]), "povm.outcomes[0].effect[0][0]: expected a [re, im] pair"),
        (
            '{"kind":"instrument","version":1,"dim_in":1,"dim_out":1,'
            '"outcomes":[{"label":"a","kraus":[[[0.5,0.25]]]}]}',
            "instrument.outcomes[0].kraus[0][0]: expected 1 entries",
        ),
    ],
    ids=["effect-one-level-too-deep", "whole-kraus-list"],
)
def test_misplaced_matrix_gives_the_parse_error_of_the_file(tmp_path, text, message):
    # the matrix is lifted, but its placeholder stands where no matrix belongs
    path = tmp_path / "misplaced.json"
    path.write_text(text)
    assert _takes_the_lift(path)
    for read in (load, lambda p: decode(json.loads(p.read_text()))):
        with pytest.raises(ParseError) as exc:
            read(path)
        assert str(exc.value) == message


@pytest.mark.parametrize("key", ["states", "matrix"])
def test_report_holding_a_matrix_loads_as_plain_json(tmp_path, key):
    # outside any matrix field, and in a field a document reads as a matrix
    path = tmp_path / "report.json"
    save(document_for({"command": "classify", key: [[[0.5, 0.25]]]}), path)
    assert _takes_the_lift(path)
    with open(path) as fh:
        want = json.load(fh)["report"]
    got = load(path).payload
    assert got == want and type(got[key]) is list


@pytest.mark.parametrize(
    "old, new",
    [
        ("-0.25]],", "-0.25]]5,"),
        (",[-0.0,", ",-0.0[,"),
        (",[[0.0,", ",[0.0[,"),
        (",-0.25]]", ",]-0.25]"),
    ],
    ids=["after-a-row", "before-its-pair", "inside-a-row-start", "after-its-pair"],
)
def test_number_outside_its_pair_is_invalid_json(tmp_path, old, new):
    # the brackets and commas still read as a 2 x 2 matrix, but a number
    # stands outside its [re, im] pair
    text = TINY_STATE_COMPACT.replace(old, new)
    assert text.count(new) == 1
    path = tmp_path / "outside.json"
    path.write_text(text)
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(text)
    with pytest.raises(ParseError) as got:
        load(path)
    assert str(got.value) == (
        f"{path}: invalid JSON at line {want.value.lineno} column {want.value.colno}: {want.value.msg}"
    )


def _garbled(text, rng):
    """text after one to three random deletions, replacements, insertions
    or swaps of neighbouring bytes."""
    t = bytearray(text)
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(len(t) - 1)
        edit = rng.randrange(4)
        if edit == 0:
            del t[pos]
        elif edit == 1:
            t[pos] = rng.choice(b'[]{},:0123456789.-eE "\n')
        elif edit == 2:
            t.insert(pos, rng.choice(b'[]{},:0123456789.-eE "\n'))
        else:
            t[pos], t[pos + 1] = t[pos + 1], t[pos]
    return bytes(t)


def _outcome(read):
    try:
        return json.dumps(encode(read()))
    except ParseError as exc:
        return str(exc)


def test_load_of_a_garbled_document_is_decode_of_its_json(tmp_path):
    # every document kind, compact and indented, edited at random: load
    # gives the payload or the error text of json.loads and then decode
    path = tmp_path / "garbled.json"
    texts = []
    for kind in KINDS:
        save(document_for(SAMPLES[kind]()), path)
        texts += [path.read_bytes(), json.dumps(json.loads(path.read_bytes()), indent=1).encode()]

    def plain(text):
        try:
            tree = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(
                f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from None
        return decode(tree)

    rng = random.Random(0)
    for _ in range(1500):
        text = _garbled(rng.choice(texts), rng)
        path.write_bytes(text)
        assert _outcome(lambda: load(path)) == _outcome(lambda: plain(text)), text


INTEGER_STATE_TEXT = (
    '{"kind":"state","version":1,"dim":2,"matrix":[[[1,0],[0,-0]],'
    '[[18446744073709551616,-9223372036854775809],[-7,123456789012345678901234567890]]]}'
)


def test_integer_and_out_of_range_leaves_of_a_compact_matrix(tmp_path):
    path = tmp_path / "ints.json"
    path.write_text(INTEGER_STATE_TEXT)
    assert _takes_the_lift(path)
    want = np.array(json.loads(INTEGER_STATE_TEXT)["matrix"], dtype=float)
    assert load(path).payload.matrix.tobytes() == want.tobytes()
    for number in ("1e400", "-1e400"):
        path.write_text(INTEGER_STATE_TEXT.replace("-7", number))
        with pytest.raises(ParseError, match=r"^state\.matrix\[1\]\[1\]: expected finite numbers$"):
            load(path)
    path.write_text(INTEGER_STATE_TEXT.replace("-7", str(10**400)))
    with pytest.raises(ParseError, match=r"^state\.matrix: expected finite numbers$"):
        load(path)


def _plain_doc(text):
    return decode(json.loads(text))


def _matrix_span(data, field):
    """(start, end) of the first matrix after "field": in data."""
    start = data.index(b'"%s":' % field.encode()) + len(field) + 3
    return start, data.index(b"]]]", start) + 3


def test_multi_block_state_loads_as_the_plain_parse(tmp_path):
    path, again = tmp_path / "state.json", tmp_path / "again.json"
    save(random_state(128, 3), path)
    data = path.read_bytes()
    start, end = _matrix_span(data, "matrix")
    assert end - start > 20 * serialize._BLOCK
    assert _takes_the_lift(path)
    doc = load(path)
    assert doc.payload.matrix.tobytes() == _plain_doc(data).payload.matrix.tobytes()
    save(doc, again)
    assert again.read_bytes() == data


@pytest.mark.parametrize("block", ["row-separator", 1], ids=["cut-at-a-row-separator", "cut-at-every-pair"])
def test_block_cut_at_a_row_separator_loads_as_the_plain_parse(tmp_path, monkeypatch, block):
    # a d=8 witness: target Choi matrices of 64 x 64 pairs; the first block
    # of the first one ends at the ],[ inside its first ]],[[, or (a block
    # of one byte) every ],[ is a cut
    path, via_load, via_plain = tmp_path / "w.json", tmp_path / "a.json", tmp_path / "b.json"
    save(_luders_witness(8, 2), path)
    data = path.read_bytes()
    start = _matrix_span(data, "choi")[0]
    if block == "row-separator":
        block = data.index(b"]],[[", start) + 1 - start
        assert data[start + block : start + block + 3] == b"],["
    monkeypatch.setattr(serialize, "_BLOCK", block)
    assert _takes_the_lift(path)
    save(load(path), via_load)
    save(_plain_doc(data), via_plain)
    assert via_load.read_bytes() == via_plain.read_bytes() == data


@pytest.mark.parametrize("number", ["01", "1e"])
def test_malformed_number_in_the_last_block_gives_the_plain_parse_error(tmp_path, number):
    path = tmp_path / "state.json"
    save(random_state(128, 3), path)
    data = path.read_bytes()
    start, end = _matrix_span(data, "matrix")
    last = data.rindex(b",", start, end) + 1  # the last number of the matrix
    assert last - start > serialize._BLOCK
    text = data[:last] + number.encode() + data[end - 3 :]
    path.write_bytes(text)
    assert not _takes_the_lift(path)
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(text)
    with pytest.raises(ParseError) as got:
        load(path)
    assert str(got.value) == (
        f"{path}: invalid JSON at line {want.value.lineno} column {want.value.colno}: {want.value.msg}"
    )


def test_utf16_and_bom_files_are_refused(tmp_path):
    path = tmp_path / "encoded.json"
    save(State(2, TINY_STATE), path)
    text = path.read_bytes()
    path.write_bytes(codecs.BOM_UTF8 + text)
    with pytest.raises(ParseError, match="line 1 column 1: Unexpected UTF-8 BOM"):
        load(path)
    path.write_bytes(text.decode().encode("utf-16"))
    with pytest.raises(UnicodeDecodeError):
        load(path)


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
@example([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -1e-310, 1.7976931348623157e308])
def test_finite_doubles_survive_save_and_load_bitwise(tmp_path_factory, values):
    dim = math.ceil(math.sqrt(len(values) / 2))
    state = State(dim, _square(values, dim))
    path = tmp_path_factory.mktemp("doubles") / "state.json"
    save(state, path)
    assert _takes_the_lift(path)
    assert load(path).payload.matrix.tobytes() == state.matrix.tobytes()


@pytest.mark.parametrize("version", [True, 1.0, "1", None, [1]])
def test_rejects_version_that_is_not_an_integer(version):
    with pytest.raises(ParseError, match="document.version: expected an integer"):
        decode({"kind": "state", "version": version})


@pytest.mark.parametrize("kind", [["state"], {"state": 1}, None, 1])
def test_rejects_kind_that_is_not_a_string(kind):
    with pytest.raises(ParseError, match="document.kind: expected a string"):
        decode({"kind": kind, "version": 1})
