"""Command line surface.

Exit codes: 0 success (or true), 1 validation failure (or false), 2 usage or
parse error (equiv also exits 2 on an input that fails validation, naming
its violations, and on instruments that measure different input spaces),
3 question undecidable by the implemented methods, 4 internal failure: a
solver error or any other unexpected exception (no answer was reached, so
neither "yes" nor "no"), 141 standard output closed by its reader (128 +
SIGPIPE, as for a command that SIGPIPE ends; nothing is printed, not even
to standard error).  Reports are JSON with --json and short
human-readable lines otherwise; object-producing commands write a document
with --output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback

import numpy as np

from . import serialize
from .classify import (
    identity_class_certificate,
    is_extreme,
    is_indecomposable_instrument,
    is_measure_and_prepare,
)
from .errors import InstrOrderError, ParseError, SolverError
from .instrument import (
    compose_post_processing,
    detailed_instrument,
    induced_povm,
    luders,
    validate_instrument,
    validate_state,
)
from .linalg import DEFAULT_TOL, Tolerance
from .order import instrument_equivalence
from .povm import is_trivial, povm_equivalent, validate_povm
from .randgen import random_instrument, random_povm, random_state
from .serialize import Document, load, save
from .simulate import is_isometric_channel, simulate


def _tol(args) -> Tolerance:
    """The Tolerance of --tol-eq and --tol-rank; a bad value is reported
    with the flag's name in place of the field's."""
    try:
        return Tolerance(eq_abs=args.tol_eq, rank_rel=args.tol_rank)
    except ValueError as exc:
        raise ValueError(str(exc).replace("eq_abs", "--tol-eq").replace("rank_rel", "--tol-rank")) from None


def _tol_report(tol: Tolerance) -> dict:
    return {"eq_abs": tol.eq_abs, "rank_rel": tol.rank_rel}


def _enc_stochastic(m) -> dict:
    return {
        "row_labels": list(m.row_labels),
        "col_labels": list(m.col_labels),
        "entries": [[float(v) for v in row] for row in m.entries],
    }


def _print_report(args, report: dict) -> None:
    # Certificates hold the numpy arrays of serialize's matrix encoder.
    if args.json:
        print(json.dumps(report, indent=2, default=np.ndarray.tolist))
        return
    for key, value in report.items():
        if isinstance(value, (dict, list)):
            print(f"{key}: {json.dumps(value, default=np.ndarray.tolist)}")
        else:
            print(f"{key}: {value}")


def _finish_report(args, report: dict, artifact=None) -> None:
    # --output gets the produced witness when there is one, else the report.
    if args.output:
        obj = report if artifact is None else artifact
        save(serialize.document_for(obj), args.output)
    _print_report(args, report)


def _describe(doc: Document) -> str:
    p = doc.payload
    if doc.kind == "povm":
        return f"povm: {len(p)} outcomes on dimension {p.dim}"
    if doc.kind == "instrument":
        return f"instrument: {len(p)} outcomes, {p.dim_in} -> {p.dim_out}"
    return f"state: dimension {p.dim}"


def _emit_object(args, obj) -> int:
    doc = serialize.document_for(obj)
    if args.output:
        save(doc, args.output)
    if args.json:
        print(json.dumps(serialize.encode(doc), indent=2))
    else:
        print(_describe(doc))
        if args.output:
            print(f"written to {args.output}")
    return 0


def _load_kind(path, kinds):
    doc = load(path)
    if doc.kind not in kinds:
        raise ParseError(f"{path}: expected a {' or '.join(kinds)} document, got {doc.kind}")
    return doc


def _validate(doc: Document, tol: Tolerance):
    if doc.kind == "povm":
        return validate_povm(doc.payload, tol)
    if doc.kind == "instrument":
        return validate_instrument(doc.payload, tol)
    return validate_state(doc.payload, tol)


def cmd_validate(args) -> int:
    doc = _load_kind(args.file, ("povm", "instrument", "state"))
    tol = _tol(args)
    report = _validate(doc, tol)
    _finish_report(
        args,
        {
            "command": "validate",
            "kind": doc.kind,
            "ok": report.ok,
            "violations": report.violations,
            "tolerances": _tol_report(tol),
        },
    )
    return 0 if report.ok else 1


def cmd_classify(args) -> int:
    doc = _load_kind(args.file, ("instrument",))
    I = doc.payload
    tol = _tol(args)
    validity = validate_instrument(I, tol)
    report = {
        "command": "classify",
        "ok": validity.ok,
        "violations": validity.violations,
        "tolerances": _tol_report(tol),
    }
    if not validity.ok:
        _finish_report(args, report)
        return 1
    mp = is_measure_and_prepare(I, tol)
    # trash-and-prepare is measure-and-prepare with a trivial POVM
    p = None if mp is None else is_trivial(mp.povm, tol)
    tp = None if p is None else (p, mp.states)
    ic = identity_class_certificate(I, tol)
    report.update(
        {
            "indecomposable": is_indecomposable_instrument(I, tol),
            "trash_and_prepare": tp is not None,
            "measure_and_prepare": mp is not None,
            "identity_class": ic is not None,
            "extreme": is_extreme(I, tol),
            "isometric_channel": is_isometric_channel(I, tol),
        }
    )
    if tp is not None:
        p, states = tp
        report["trash_and_prepare_certificate"] = {
            "probs": [float(w) for w in p],
            "states": [serialize._enc_matrix(s.matrix) for s in states],
        }
    if mp is not None:
        report["measure_and_prepare_certificate"] = {
            "povm": serialize._enc_povm(mp.povm),
            "states": [serialize._enc_matrix(s.matrix) for s in mp.states],
        }
    if ic is not None:
        report["identity_class_certificate"] = {
            label: [
                {"weight": w, "isometry": serialize._enc_matrix(V)} for w, V in entry
            ]
            for label, entry in ic.branches.items()
        }
    _finish_report(args, report)
    return 0


def cmd_induced_povm(args) -> int:
    doc = _load_kind(args.file, ("instrument",))
    return _emit_object(args, induced_povm(doc.payload))


def cmd_detail(args) -> int:
    doc = _load_kind(args.file, ("instrument",))
    return _emit_object(args, detailed_instrument(doc.payload, _tol(args)))


def cmd_luders(args) -> int:
    doc = _load_kind(args.file, ("povm",))
    return _emit_object(args, luders(doc.payload))


def cmd_compose(args) -> int:
    doc = _load_kind(args.file, ("instrument",))
    witness = _load_kind(args.processors, ("witness",)).payload
    composed = compose_post_processing(doc.payload, witness.processors)
    return _emit_object(args, composed)


def cmd_simulate(args) -> int:
    doc = _load_kind(args.file, ("program",))
    return _emit_object(args, simulate(doc.payload))


def cmd_equiv(args) -> int:
    tol = _tol(args)
    da = load(args.a)
    db = load(args.b)
    if {da.kind, db.kind} not in ({"povm"}, {"instrument"}):
        print("error: equiv needs two povm documents or two instrument documents", file=sys.stderr)
        return 2
    # an invalid document has no place in the order: a usage error, not a "no"
    for path, doc in ((args.a, da), (args.b, db)):
        validity = _validate(doc, tol)
        if not validity.ok:
            print(f"error: {path}: invalid {doc.kind}: {'; '.join(validity.violations)}", file=sys.stderr)
            return 2
    if da.kind == "povm":
        result = povm_equivalent(da.payload, db.payload, tol)
        equivalent = result is not None
        report = {
            "command": "equiv",
            "method": "povm",
            "equivalent": equivalent,
            "summary": "equivalent" if equivalent else "not equivalent",
            "tolerances": _tol_report(tol),
        }
        if equivalent:
            nu, mu = result
            report["stochastic_from_b"] = _enc_stochastic(nu)
            report["stochastic_from_a"] = _enc_stochastic(mu)
        _finish_report(args, report)
        return 0 if equivalent else 1
    method, forward, backward = instrument_equivalence(da.payload, db.payload, tol)
    report = {"command": "equiv", "tolerances": _tol_report(tol), "method": method}
    if method == "none":
        report["summary"] = "undecidable by implemented methods"
        _finish_report(args, report)
        return 3
    if method == "measure_and_prepare":
        report.update({"forward": forward is not None, "backward": backward is not None})
    equivalent = forward is not None and backward is not None
    report["equivalent"] = equivalent
    report["summary"] = "equivalent" if equivalent else "not equivalent"
    _finish_report(args, report, forward)
    return 0 if equivalent else 1


def cmd_random(args) -> int:
    if args.what == "povm":
        obj = random_povm(args.outcomes, args.dim, args.seed)
    elif args.what == "instrument":
        dim_out = args.dim_out if args.dim_out is not None else args.dim
        obj = random_instrument(args.outcomes, args.dim, dim_out, args.max_kraus, args.seed)
    else:
        obj = random_state(args.dim, args.seed)
    return _emit_object(args, obj)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args keeps no state between calls.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol-eq", type=float, default=DEFAULT_TOL.eq_abs, metavar="EPS",
                        help="absolute equality tolerance (default %(default)g)")
    common.add_argument("--tol-rank", type=float, default=DEFAULT_TOL.rank_rel, metavar="EPS",
                        help="relative rank cutoff (default %(default)g)")
    common.add_argument("--output", metavar="PATH", help="write the resulting document here")
    common.add_argument("--json", action="store_true", help="print machine-readable JSON")

    parser = argparse.ArgumentParser(
        prog="instrorder",
        description="Post-processing order on quantum instruments and POVMs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", parents=[common], help="check a document's invariants")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("classify", parents=[common], help="run all structural classifiers")
    p.add_argument("file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("induced-povm", parents=[common], help="induced POVM of an instrument")
    p.add_argument("file")
    p.set_defaults(func=cmd_induced_povm)

    p = sub.add_parser("detail", parents=[common], help="detailed instrument (one outcome per Kraus branch)")
    p.add_argument("file")
    p.set_defaults(func=cmd_detail)

    p = sub.add_parser("luders", parents=[common], help="Lüders instrument of a POVM")
    p.add_argument("file")
    p.set_defaults(func=cmd_luders)

    p = sub.add_parser("compose", parents=[common], help="post-process an instrument by witness processors")
    p.add_argument("file")
    p.add_argument("--processors", required=True, metavar="WITNESS")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("equiv", parents=[common], help="decide post-processing equivalence")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("simulate", parents=[common], help="run a simulation program document")
    p.add_argument("file")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("random", parents=[common], help="generate a random object")
    p.add_argument("what", choices=["povm", "instrument", "state"])
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--dim-out", type=int, default=None)
    p.add_argument("--outcomes", type=int, default=2)
    p.add_argument("--max-kraus", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_random)

    return parser


def _discard_stdout() -> None:
    """Point the standard output's descriptor at the null device, so that
    the flush at interpreter exit cannot fail on a closed pipe again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # not a file descriptor: nothing is flushed at exit
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        _discard_stdout()
        return 141
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (InstrOrderError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program must never read as "no"
        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
