"""On-disk JSON documents for POVMs, instruments, states, witnesses,
simulation programs and reports.

Complex numbers are stored as [re, im] pairs and matrices as row-major
nested arrays, so documents are trivially parseable anywhere; floats print
with shortest-round-trip precision, which keeps save/load exact.  save writes
compact JSON (no whitespace between tokens) with orjson, which prints each
matrix straight from a float64 (rows, cols, 2) numpy array, so no Python
float or list is built per entry.  Its number notation is orjson's: 0.00001
for 1e-05 and 1e16 for 1e+16, the same doubles in any JSON reader.  orjson
would write NaN and infinities as null, so save refuses non-finite values
with a ValueError naming the field, before the file is opened.  save never
holds a whole document's text.  A walk over the body's dicts and lists
encodes every key and every other leaf with orjson before the file is
opened, so whatever orjson would refuse (a key that is not a str, a lone
surrogate) raises and leaves an existing file unchanged; each finite
C-contiguous float64 array, which orjson cannot refuse, is encoded as it is
written.  The file holds the bytes one orjson.dumps of the body would give,
and encode reads back the same parts joined.

load reads the file's bytes and lifts out every matrix, compact or
indented: one regex scan, which skips JSON strings, stops at each [[[ that
opens a number, and the matrix runs to the next ]]] (whitespace allowed
between the brackets).  A candidate is a matrix when no number stands
right after ], ], or ]],[ (outside its [re, im] pair), its text with the
number characters and whitespace deleted is exactly the bracket-and-comma
skeleton of a rows x cols matrix of pairs, and orjson parses its numbers,
brackets removed, as flat lists; that skips the Python list per [re, im]
pair that a nested parse builds.  It parses them in blocks of about 16 KB
of text, each cut at a ],[ (an indented matrix has none and is one block),
into one preallocated float64 (rows, cols, 2) array, so only one block's
numbers are Python floats at a time.  In a timing on a 12 MB witness,
blocks of 8-64 KB loaded it equally fast, 4 KB blocks and whole matrices
more slowly; the smaller the block, the fewer floats are alive, so it is
16 KB, one step from the slow end.  Each matrix leaves a placeholder
[[[k]]] in the text.  If any candidate is not a matrix (a malformed one, a
number orjson refuses, or a [[[0]]] written in the file itself), nothing
is lifted, so every [[[k]]] in a lifted text is a placeholder.  The
standard json module parses the lifted text once, and an object_hook puts
each array back where its placeholder stands as an effect, matrix or choi
field or an entry of a kraus list.  load parses the file's own UTF-8 text
instead when nothing was lifted, when the lifted text is not valid JSON
(so the error names the file's own line and column), when a placeholder
stands where no matrix belongs, and for a report, which is free JSON.
Either way decode runs once, on a tree whose matrices are arrays or the
lists json gives, and names every fault as it would on the plain tree.

Parsing is strict: unknown fields, wrong shapes, leaves that are not JSON
numbers (true, "0.5", null), non-finite numbers (NaN, Infinity or values
beyond the float range) and unsupported versions all raise ParseError
naming the offending field.  A value that is not a rectangular
nested list of [re, im] pairs of numbers stays a list, whose entries are
scanned one by one only to name the malformed one.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from itertools import chain

import numpy as np
import orjson

from .errors import ParseError
from .instrument import Instrument, QuantumOperation, State
from .order import InstrumentWitness
from .povm import Povm
from .simulate import SimulationProgram

VERSION = 1


@dataclass(eq=False)
class Document:
    kind: str
    payload: object


def _require_keys(obj, where, required):
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")
    for key in required:
        if key not in obj:
            raise ParseError(f"{where}: missing field '{key}'")
    for key in obj:
        if key not in required:
            raise ParseError(f"{where}: unknown field '{key}'")


def _int_field(obj, where, key, minimum=1):
    value = obj[key]
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ParseError(f"{where}.{key}: expected an integer >= {minimum}")
    return value


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _list(obj, where, key, what="list"):
    items = obj[key]
    if not isinstance(items, list) or not items:
        raise ParseError(f"{where}.{key}: expected a nonempty {what}")
    return items


def _entries(obj, where, key, required, label):
    """(path, entry) for each entry of the nonempty list obj[key]; every entry
    is an object with exactly the required keys and a string at entry[label]."""
    out = []
    for i, entry in enumerate(_list(obj, where, key)):
        here = f"{where}.{key}[{i}]"
        _require_keys(entry, here, required)
        if not isinstance(entry[label], str):
            raise ParseError(f"{here}.{label}: expected a string")
        out.append((here, entry))
    return out


def _unique(labeled):
    """Raise ParseError at the first (path, label) whose label came before."""
    seen = set()
    for path, label in labeled:
        if label in seen:
            raise ParseError(f"{path}: duplicate label {label!r}")
        seen.add(label)


def _enc_matrix(M):
    """M as a C-contiguous float64 (..., rows, cols, 2) array of [re, im]
    pairs: the bytes of a contiguous complex matrix, or stack of matrices,
    viewed, not copied.  orjson refuses arrays that are not C-contiguous."""
    M = np.ascontiguousarray(M, dtype=complex)
    return M.view(float).reshape(*M.shape, 2)


def _json_pairs(obj):
    """True when obj holds lists of lists of lists whose leaves are all int or
    float, the types json.load gives numbers: type sets built at C speed,
    so no Python loop runs over the entries.  bool, str and None are
    excluded, although np.array(..., dtype=float) would convert them."""
    if type(obj) is not list or set(map(type, obj)) != {list}:
        return False
    entries = list(chain.from_iterable(obj))
    return set(map(type, entries)) == {list} and set(
        map(type, chain.from_iterable(entries))
    ) <= {int, float}


def _check_pairs(obj, rows, cols, where):
    """Raise ParseError naming the first row or entry that is not a [re, im]
    pair of numbers."""
    if not isinstance(obj, list) or len(obj) != rows:
        raise ParseError(f"{where}: expected {rows} rows")
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"{where}[{i}]: expected {cols} entries")
        for j, entry in enumerate(row):
            if not isinstance(entry, list) or len(entry) != 2 or not all(map(_is_number, entry)):
                raise ParseError(f"{where}[{i}][{j}]: expected a [re, im] pair")


def _float_pairs(obj):
    """obj as one float64 array, or None when numpy cannot convert it
    (ragged, not numbers, or an integer beyond the float range)."""
    try:
        return np.array(obj, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None


def _placeholder_index(value):
    """k when value is [[[k]]] with k an int, else None."""
    for _ in range(3):
        if type(value) is not list or len(value) != 1:
            return None
        value = value[0]
    return value if type(value) is int else None


class _MatrixHook:
    """json object_hook for a text of _lift: put arrays[k] back where the
    placeholder [[[k]]] stands as a matrix field (an effect, matrix or choi
    field, or an entry of a kraus list), and count the placeholders taken."""

    def __init__(self, arrays):
        self.arrays = arrays
        self.used = 0

    def __call__(self, obj):
        for key in ("effect", "matrix", "choi"):
            if key in obj:
                obj[key] = self._matrix(obj[key])
        kraus = obj.get("kraus")
        if type(kraus) is list:
            obj["kraus"] = [self._matrix(K) for K in kraus]
        return obj

    def _matrix(self, value):
        k = _placeholder_index(value)
        if k is None:
            return value
        self.used += 1
        return self.arrays[k]


def _dec_matrix(obj, rows, cols, where):
    # One numpy conversion, here or in load's lift; the per-entry scan runs
    # only when a check fails.
    converted = isinstance(obj, np.ndarray)
    pairs = obj if converted else _float_pairs(obj)
    if pairs is None or pairs.shape != (rows, cols, 2) or not (converted or _json_pairs(obj)):
        _check_pairs(obj.tolist() if converted else obj, rows, cols, where)
    if pairs is None:  # well-formed, so an integer beyond the float range
        raise ParseError(f"{where}: expected finite numbers")
    if not np.isfinite(pairs).all():
        i, j = np.argwhere(~np.isfinite(pairs).all(axis=-1))[0]
        raise ParseError(f"{where}[{i}][{j}]: expected finite numbers")
    return pairs.view(complex).reshape(rows, cols)


def _enc_povm(P: Povm):
    return {
        "dim": P.dim,
        "outcomes": [{"label": l, "effect": _enc_matrix(E)} for l, E in P.outcomes],
    }


def _dec_povm(obj, where):
    _require_keys(obj, where, ("dim", "outcomes"))
    dim = _int_field(obj, where, "dim")
    outcomes = [
        (entry["label"], _dec_matrix(entry["effect"], dim, dim, f"{here}.effect"))
        for here, entry in _entries(obj, where, "outcomes", ("label", "effect"), "label")
    ]
    return Povm(dim, outcomes)


def _enc_instrument(I: Instrument):
    return {
        "dim_in": I.dim_in,
        "dim_out": I.dim_out,
        "outcomes": [
            {"label": l, "kraus": _enc_matrix(op.kraus)} for l, op in I.outcomes
        ],
    }


def _dec_instrument(obj, where):
    _require_keys(obj, where, ("dim_in", "dim_out", "outcomes"))
    d_in = _int_field(obj, where, "dim_in")
    d_out = _int_field(obj, where, "dim_out")
    outcomes = []
    for here, entry in _entries(obj, where, "outcomes", ("label", "kraus"), "label"):
        ks = [
            _dec_matrix(K, d_out, d_in, f"{here}.kraus[{j}]")
            for j, K in enumerate(_list(entry, here, "kraus", "list of matrices"))
        ]
        outcomes.append((entry["label"], QuantumOperation(d_in, d_out, ks)))
    return Instrument(d_in, d_out, outcomes)


def _enc_state(s: State):
    return {"dim": s.dim, "matrix": _enc_matrix(s.matrix)}


def _dec_state(obj, where):
    _require_keys(obj, where, ("dim", "matrix"))
    dim = _int_field(obj, where, "dim")
    return State(dim, _dec_matrix(obj["matrix"], dim, dim, f"{where}.matrix"))


def _enc_witness(w: InstrumentWitness):
    # Version 1 fingerprints the target by its Choi matrices.
    chois = w.target
    if isinstance(chois, Instrument):
        chois = {label: op.choi_matrix for label, op in chois.outcomes}
    return {
        "source_labels": list(w.source_labels),
        "processors": [
            {"source": x, "instrument": _enc_instrument(w.processors[x])}
            for x in w.source_labels
        ],
        "targets": [
            {"label": y, "choi": _enc_matrix(chois[y])} for y in w.target_labels
        ],
    }


def _dec_witness(obj, where):
    _require_keys(obj, where, ("source_labels", "processors", "targets"))
    labels = obj["source_labels"]
    if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
        raise ParseError(f"{where}.source_labels: expected a list of strings")
    _unique((f"{where}.source_labels[{i}]", l) for i, l in enumerate(labels))
    entries = _entries(obj, where, "processors", ("source", "instrument"), "source")
    _unique((f"{here}.source", entry["source"]) for here, entry in entries)
    processors = {
        entry["source"]: _dec_instrument(entry["instrument"], f"{here}.instrument")
        for here, entry in entries
    }
    if set(processors) != set(labels):
        raise ParseError(f"{where}.processors: must cover exactly the source labels")
    targets = _entries(obj, where, "targets", ("label", "choi"), "label")
    _unique((f"{here}.label", entry["label"]) for here, entry in targets)
    target_chois = {}
    for here, entry in targets:
        # Choi matrices are square; infer the side length from the rows.
        choi = entry["choi"]
        side = len(choi if isinstance(choi, np.ndarray) else _list(entry, here, "choi", "matrix"))
        target_chois[entry["label"]] = _dec_matrix(choi, side, side, f"{here}.choi")
    return InstrumentWitness(source_labels=list(labels), processors=processors, target=target_chois)


def _enc_program(p: SimulationProgram):
    return {
        "components": [_enc_instrument(c) for c in p.components],
        "probs": np.ascontiguousarray(p.probs, dtype=float),
        "processors": [
            {"component": i, "outcome": x, "instrument": _enc_instrument(R)}
            for (i, x), R in sorted(p.processors.items())
        ],
    }


def _dec_program(obj, where):
    _require_keys(obj, where, ("components", "probs", "processors"))
    components = [
        _dec_instrument(c, f"{where}.components[{i}]")
        for i, c in enumerate(_list(obj, where, "components"))
    ]
    probs = obj["probs"]
    if not isinstance(probs, list) or not all(map(_is_number, probs)):
        raise ParseError(f"{where}.probs: expected a list of numbers")
    # Exact comparison, so NaN, infinities and integers past the float range fail.
    if not all(abs(v) <= sys.float_info.max for v in probs):
        raise ParseError(f"{where}.probs: expected finite numbers")
    processors = {}
    required = ("component", "outcome", "instrument")
    for here, entry in _entries(obj, where, "processors", required, "outcome"):
        comp = _int_field(entry, here, "component", minimum=0)
        if comp >= len(components):
            raise ParseError(f"{here}.component: no component {comp}")
        processors[(comp, entry["outcome"])] = _dec_instrument(
            entry["instrument"], f"{here}.instrument"
        )
    try:
        return SimulationProgram(components, probs, processors)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from None


def _enc_report(report: dict):
    return {"report": report}


def _dec_report(obj, where):
    _require_keys(obj, where, ("report",))
    if not isinstance(obj["report"], dict):
        raise ParseError(f"{where}.report: expected an object")
    return obj["report"]


# kind -> (payload type, encoder to the body fields, decoder from them)
_FORMATS = {
    "povm": (Povm, _enc_povm, _dec_povm),
    "instrument": (Instrument, _enc_instrument, _dec_instrument),
    "state": (State, _enc_state, _dec_state),
    "witness": (InstrumentWitness, _enc_witness, _dec_witness),
    "program": (SimulationProgram, _enc_program, _dec_program),
    "report": (dict, _enc_report, _dec_report),
}

KINDS = tuple(_FORMATS)


def document_for(obj) -> Document:
    """Wrap a domain object in a Document, inferring the kind."""
    for kind, (payload_type, _, _) in _FORMATS.items():
        if isinstance(obj, payload_type):
            return Document(kind, obj)
    raise TypeError(f"no document kind for {type(obj).__name__}")


def _non_finite(obj):
    """The path below obj ("", ".key", "[i]...") of its first NaN or
    infinite float or array entry, or None when every number is finite."""
    if isinstance(obj, (float, np.ndarray)):
        return None if np.isfinite(obj).all() else ""
    if isinstance(obj, dict):
        steps = ((f".{key}", value) for key, value in obj.items())
    elif isinstance(obj, (list, tuple)):
        steps = ((f"[{i}]", value) for i, value in enumerate(obj))
    else:
        return None
    for step, value in steps:
        rest = _non_finite(value)
        if rest is not None:
            return step + rest
    return None


# orjson refuses a container nested this deep or deeper.
_ORJSON_DEPTH = 255


def _writes_late(value):
    """True for an array orjson cannot fail to encode once it is finite:
    C-contiguous float64 with at least one axis."""
    return (
        type(value) is np.ndarray
        and value.dtype == np.float64
        and value.ndim > 0
        and value.flags.c_contiguous
    )


def _walk(value, depth, parts, text):
    """Append value's compact JSON text to text, the bytes since the last
    array of parts; a _writes_late array moves text and itself to parts."""
    # As in orjson, every container counts towards the depth, but only
    # dicts and lists (subclasses too) are refused past the limit.
    if isinstance(value, (dict, list)) and depth >= _ORJSON_DEPTH:
        raise orjson.JSONEncodeError("Recursion limit reached")
    if isinstance(value, dict):
        text.append(b"{")
        for i, (key, item) in enumerate(value.items()):
            # orjson checks the key as it does inside the body; the text of
            # {key: null} less its { and null} is "key":
            text.extend((b"," if i else b"", orjson.dumps({key: None})[1:-5]))
            _walk(item, depth + 1, parts, text)
        text.append(b"}")
    elif isinstance(value, list) or type(value) is tuple:
        text.append(b"[")
        for i, item in enumerate(value):
            if i:
                text.append(b",")
            _walk(item, depth + 1, parts, text)
        text.append(b"]")
    elif _writes_late(value):
        parts.extend((b"".join(text), value))
        text.clear()
    else:
        text.append(orjson.dumps(value, option=orjson.OPT_SERIALIZE_NUMPY))


def _parts(doc: Document) -> list:
    """The document's compact JSON text and a newline, as the bytes
    orjson.dumps(body) would give, cut into parts: bytes, and each
    _writes_late array in its place, still unencoded.  Everything else is
    encoded here, so whatever orjson would refuse (a key that is not a str,
    a lone surrogate, too deep a nesting) raises now."""
    if doc.kind not in _FORMATS:
        raise ValueError(f"unknown document kind {doc.kind!r}")
    body = {"kind": doc.kind, "version": VERSION, **_FORMATS[doc.kind][1](doc.payload)}
    # orjson writes NaN and infinities as null.
    bad = _non_finite(body)
    if bad is not None:
        raise ValueError(f"{doc.kind}{bad}: expected finite numbers")
    parts, text = [], []
    _walk(body, 0, parts, text)
    parts.append(b"".join(text) + b"\n")
    return parts


def _text(part) -> bytes:
    return part if type(part) is bytes else orjson.dumps(part, option=orjson.OPT_SERIALIZE_NUMPY)


def encode(doc: Document) -> dict:
    """The JSON-native object (dicts, lists, str, int, float) save writes."""
    return orjson.loads(b"".join(map(_text, _parts(doc))))


def decode(obj) -> Document:
    if not isinstance(obj, dict):
        raise ParseError("document: expected a JSON object")
    for key in ("kind", "version"):
        if key not in obj:
            raise ParseError(f"document: missing field '{key}'")
    kind, version = obj["kind"], obj["version"]
    # bool is an int subclass, and 1.0 == 1: both would pass for version 1
    if isinstance(version, bool) or not isinstance(version, int):
        raise ParseError(f"document.version: expected an integer, got {version!r}")
    if version != VERSION:
        raise ParseError(f"document.version: unsupported version {version!r}")
    if not isinstance(kind, str):
        raise ParseError(f"document.kind: expected a string, got {kind!r}")
    if kind not in _FORMATS:
        raise ParseError(f"document.kind: unknown kind {kind!r}")
    rest = {k: v for k, v in obj.items() if k not in ("kind", "version")}
    return Document(kind, _FORMATS[kind][2](rest, kind))


def save(doc: Document, path) -> None:
    if not isinstance(doc, Document):
        doc = document_for(doc)
    # Every part but the finite float64 arrays is encoded before open, so a
    # failed encode leaves the file intact; each array's text is built as it
    # is written.
    parts = _parts(doc)
    with open(path, "wb") as fh:
        for part in parts:
            fh.write(_text(part))


# One pass over a document's bytes stops at each JSON string, which is
# skipped whole so that brackets in a label are never read as a matrix, and
# at each [ that opens a matrix: three brackets, then the start of a number,
# with whitespace allowed between them.
_SCAN = re.compile(rb'"[^"\\]*(?:\\.[^"\\]*)*"|\[\s*\[\s*\[\s*(?=[-0-9])', re.DOTALL)
# A matrix runs to the first three closing brackets.  The search also stops
# at a number right after ], ], or ]],[, which stands outside its [re, im]
# pair: once _matrix_pairs deletes the brackets, nothing else would tell it
# from a number inside the pair, or keep it from joining that number.  The
# lookahead passes over the ],[ between two pairs at once.
_END = re.compile(rb"\](?!,\[)\s*(?:\]\s*(?:\]|,\s*\[\s*N)|,\s*N|N)".replace(b"N", rb"[-+.0-9eE]"))
_QUOTE = ord('"')
_NUMBER_AND_SPACE_BYTES = b"0123456789.-+eE \t\n\r"
# Bytes of matrix text orjson parses at a time (see the module docstring).
_BLOCK = 1 << 14


def _skeleton(rows, cols):
    """A compact rows x cols matrix of [re, im] pairs with its numbers deleted."""
    row = b"[" + b",".join([b"[,]"] * cols) + b"]"
    return b"[" + b",".join([row] * rows) + b"]"


def _matrix_pairs(text):
    """The float64 (rows, cols, 2) array of text, which runs from [[[ to the
    next ]]], or None unless text is a matrix of [re, im] pairs of JSON
    numbers that are finite as doubles."""
    skeleton = text.translate(None, _NUMBER_AND_SPACE_BYTES)
    cols = skeleton.find(b"]]") // 4
    rows = (len(skeleton) - 1) // (4 * cols + 2) if cols > 0 else 0
    if rows < 1 or skeleton != _skeleton(rows, cols):
        return None
    pairs = np.empty(rows * cols * 2)
    filled = start = 0
    while start < len(text):
        # A block ends at a ], that closes a pair, so no number is cut.
        cut = text.find(b"],[", start + _BLOCK)
        end = len(text) if cut < 0 else cut + 1
        try:
            # Only digits, .-+eE, commas and whitespace are left, so every
            # value orjson returns is an int or a float.
            values = orjson.loads(b"[" + text[start:end].replace(b"[", b"").replace(b"]", b"") + b"]")
        except orjson.JSONDecodeError:  # a malformed number, or one past the float range
            return None
        block = pairs[filled : filled + len(values)]
        if len(block) != len(values):
            return None
        block[:] = values
        filled += len(values)
        start = end + 1  # past the comma
    return pairs.reshape(rows, cols, 2) if filled == len(pairs) else None


def _lift(data):
    """(text, arrays): the document bytes data with its k-th matrix replaced
    by the placeholder [[[k]]] of its float64 (rows, cols, 2) pairs array
    arrays[k].  Every matrix is lifted or none: when any candidate is not a
    matrix of [re, im] pairs, (data, []), so a [[[k]]] read from a lifted
    text is always a placeholder."""
    parts, arrays = [], []
    done = at = 0  # data[:done] is in parts; the scan resumes at data[at]
    while (match := _SCAN.search(data, at)) is not None:
        start = match.start()
        if data[start] == _QUOTE:
            at = match.end()
            continue
        end = _END.search(data, start)
        if end is None or not end.group().endswith(b"]"):
            return data, []  # no ]]] closes it, or a number stands outside its pair
        pairs = _matrix_pairs(data[start : end.end()])
        if pairs is None:
            return data, []
        # The placeholder holds no quote, so the scan stays out of strings.
        parts += (data[done:start], b"[[[%d]]]" % len(arrays))
        arrays.append(pairs)
        done = at = end.end()
    parts.append(data[done:])
    return b"".join(parts), arrays


def _parse(text, path):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None


def load(path) -> Document:
    with open(path, "rb") as fh:
        data = fh.read()
    text, arrays = _lift(data)
    raw = None
    if arrays:
        hook = _MatrixHook(arrays)
        try:
            raw = json.loads(text.decode("utf-8"), object_hook=hook)
        except (UnicodeDecodeError, json.JSONDecodeError):
            pass  # named below from the file's own line and column
        # A placeholder the hook did not take stands where no matrix
        # belongs, and a report is free JSON: both are read as written.
        if hook.used < len(arrays) or (type(raw) is dict and raw.get("kind") == "report"):
            raw = None
    if raw is None:
        raw = _parse(data.decode("utf-8"), path)
    return decode(raw)
