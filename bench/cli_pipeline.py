"""cli-pipeline: the instrorder command, in process, on a ladder of documents.

Each Lüders rung (d, n) runs
    random povm -> validate -> luders -> classify [--json] -> detail
    -> equiv L D --output W -> compose L --processors W -> validate
and asks equiv of L and the Lüders instrument of an unrelated POVM (exit 1).
Each measure-and-prepare rung asks equiv of two random instruments with
one-dimensional output, which the measure-and-prepare method answers with
exit 1.  The "no" questions of the Lüders rungs keep no_s steady: the
measure-and-prepare method solves two LPs whose pivot counts swing with the
seed.  Commands go through instrorder.cli.main(argv) with stdout and
stderr captured; documents go to a directory rebuilt before every pass.
The oracles read the documents with plain json.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil

import numpy as np

from instrorder import cli
from oracles import (
    EQ_ABS,
    check_detailed,
    check_replay,
    choi,
    confirm_no_post_processing,
    effects_of,
)
from povm_lp import subseed
from workload import Op

LUDERS_RUNGS = [(2, 3), (3, 4), (4, 6), (6, 6), (8, 4), (8, 8), (12, 4), (16, 4)]
MAP_PREPARE_RUNGS = [(4, 6, 2), (6, 6, 2)]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def command(name, argv, expected=0, check=None, question=False):
    return Op(
        name=name,
        call=lambda: run_cli(argv),
        expected=expected,
        decide=lambda raw: raw[0],
        check=check or (lambda raw: None),
        fingerprint=lambda raw: raw[1],
        yes_when=0 if question else None,
    )


def read_matrix(rows):
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def read_instrument(path):
    """(dim_in, dim_out, {label: [Kraus]}) from an instrument document."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    kraus = {o["label"]: [read_matrix(K) for K in o["kraus"]] for o in doc["outcomes"]}
    return doc["dim_in"], doc["dim_out"], kraus


def read_povm(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return [read_matrix(o["effect"]) for o in doc["outcomes"]]


def check_povm(path):
    effects = read_povm(path)
    gap = np.linalg.norm(sum(effects) - np.eye(len(effects[0])))
    low = min(np.linalg.eigvalsh((E + E.conj().T) / 2).min() for E in effects)
    if gap > EQ_ABS or low < -EQ_ABS:
        return f"{path.name} is not a POVM (completeness {gap:.3e}, eigenvalue {low:.3e})"
    return None


def check_luders(a_path, l_path):
    effects = read_povm(a_path)
    _, _, kraus = read_instrument(l_path)
    for E, ks in zip(effects, kraus.values()):
        K = ks[0]
        if len(ks) != 1 or np.linalg.norm(K - K.conj().T) > EQ_ABS or \
                np.linalg.norm(K @ K - E) > EQ_ABS:
            return "Lüders Kraus matrix is not the square root of its effect"
    return None


def read_report(text):
    """The "key: value" lines a command prints without --json."""
    report = {}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        report[key] = {"True": True, "False": False}.get(value, value)
    return report


def check_classify(raw, n, d, as_json):
    report = json.loads(raw[1]) if as_json else read_report(raw[1])
    # a Lüders instrument of a generic POVM: one Kraus per outcome, effects
    # linearly independent while n <= d^2, nothing else
    expected = {"ok": True, "indecomposable": True, "trash_and_prepare": False,
                "measure_and_prepare": False, "identity_class": False,
                "extreme": n <= d * d, "isometric_channel": False}
    wrong = {k: report.get(k) for k, v in expected.items() if report.get(k) != v}
    return f"classification {wrong}" if wrong else None


def check_detail(l_path, d_path):
    return check_detailed(read_instrument(l_path)[2], read_instrument(d_path)[2])


def check_witness(l_path, d_path, w_path):
    """Own replay of the witness document against its targets and D."""
    _, _, source = read_instrument(l_path)
    _, _, target = read_instrument(d_path)
    with open(w_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    processors = {
        p["source"]: {o["label"]: [read_matrix(K) for K in o["kraus"]]
                      for o in p["instrument"]["outcomes"]}
        for p in doc["processors"]
    }
    stated = {t["label"]: read_matrix(t["choi"]) for t in doc["targets"]}
    own = {y: choi(ks) for y, ks in target.items()}
    if list(stated) != list(own):
        return f"witness targets {list(stated)}, D's outcomes {list(own)}"
    for y, C in own.items():
        if np.linalg.norm(stated[y] - C) > EQ_ABS:
            return f"witness target {y} is not D's operation"
    return check_replay(source, processors, own)


def check_compose(c_path, d_path):
    _, _, composed = read_instrument(c_path)
    _, _, detailed = read_instrument(d_path)
    if list(composed) != list(detailed):
        return "composed labels differ from the detailed instrument's"
    for y in detailed:
        gap = np.linalg.norm(choi(composed[y]) - choi(detailed[y]))
        if gap > EQ_ABS:
            return f"composed outcome {y} misses the detailed one by {gap:.3e}"
    return None


def check_inequivalent_povms(raw, a_path, b_path):
    """The Lüders pair is not equivalent: some direction has no ν."""
    report = read_report(raw[1])
    if report.get("method") != "indecomposable" or report.get("equivalent") is not False:
        return f"report {report}"
    a, b = read_povm(a_path), read_povm(b_path)
    if confirm_no_post_processing(a, b) and confirm_no_post_processing(b, a):
        return "oracle LP finds the induced POVMs equivalent"
    return None


def check_not_equivalent(raw, p1, p2):
    report = read_report(raw[1])
    if report.get("method") != "measure_and_prepare":
        return f"decided by {report.get('method')!r}"
    a = effects_of(read_instrument(p1)[2])
    b = effects_of(read_instrument(p2)[2])
    for claimed, source, target in ((report["forward"], a, b), (report["backward"], b, a)):
        if claimed is not False:
            return f"claims a post-processing: {report}"
        problem = confirm_no_post_processing(source, target)
        if problem:
            return problem
    return None


def luders_ops(k, d, n, seed, workdir):
    p = lambda name: workdir / f"r{k}-{name}.json"
    A, L, D, W, C, B, M = p("A"), p("L"), p("D"), p("W"), p("C"), p("B"), p("M")
    as_json = k % 2 == 0
    tag = f"d={d} n={n}"
    return [
        command(f"random {tag}", ["random", "povm", "--dim", str(d), "--outcomes", str(n),
                                  "--seed", str(subseed(seed, "povm", k)), "--output", str(A)],
                check=lambda raw: check_povm(A)),
        command(f"validate povm {tag}", ["validate", str(A)]),
        command(f"luders {tag}", ["luders", str(A), "--output", str(L)],
                check=lambda raw: check_luders(A, L)),
        command(f"classify {tag}", ["classify", str(L)] + (["--json"] if as_json else []),
                check=lambda raw: check_classify(raw, n, d, as_json)),
        command(f"detail {tag}", ["detail", str(L), "--output", str(D)],
                check=lambda raw: check_detail(L, D)),
        command(f"equiv {tag}", ["equiv", str(L), str(D), "--output", str(W)],
                check=lambda raw: check_witness(L, D, W), question=True),
        command(f"compose {tag}", ["compose", str(L), "--processors", str(W), "--output", str(C)],
                check=lambda raw: check_compose(C, D)),
        command(f"validate composed {tag}", ["validate", str(C)]),
        command(f"random other {tag}", ["random", "povm", "--dim", str(d), "--outcomes", str(n),
                                        "--seed", str(subseed(seed, "other", k)), "--output", str(B)]),
        command(f"luders other {tag}", ["luders", str(B), "--output", str(M)]),
        command(f"equiv unrelated {tag}", ["equiv", str(L), str(M)], expected=1,
                check=lambda raw: check_inequivalent_povms(raw, A, B), question=True),
    ]


def map_prepare_ops(k, d, n, kraus, seed, workdir):
    paths = [workdir / f"m{k}-{i}.json" for i in (1, 2)]
    tag = f"d={d}->1 n={n} k={kraus}"
    ops = [
        command(f"random instrument {i} {tag}",
                ["random", "instrument", "--dim", str(d), "--dim-out", "1", "--outcomes", str(n),
                 "--max-kraus", str(kraus), "--seed", str(subseed(seed, "instrument", k, i)),
                 "--output", str(path)])
        for i, path in enumerate(paths)
    ]
    ops.append(command(f"equiv measure-prepare {tag}", ["equiv", str(paths[0]), str(paths[1])],
                       expected=1, check=lambda raw: check_not_equivalent(raw, *paths),
                       question=True))
    return ops


def build(seed, workdir):
    ops = []
    for k, (d, n) in enumerate(LUDERS_RUNGS):
        ops += luders_ops(k, d, n, seed, workdir)
    for k, (d, n, kraus) in enumerate(MAP_PREPARE_RUNGS):
        ops += map_prepare_ops(k, d, n, kraus, seed, workdir)
    return ops


def before_pass(workdir):
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)


def document_bytes(workdir, ops):
    """Bytes of the documents the last pass wrote."""
    return sum(path.stat().st_size for path in workdir.iterdir())
