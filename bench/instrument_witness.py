"""instrument-witness: classifiers and order witnesses on seeded instruments.

Library calls only; the inputs are built once per run from --seed.  Every
instrument goes through the five classifiers and the isometric-channel
test.  Then each witness question builds its witness and replays it with
witness_error, which is where Choi eigendecompositions, minimal Kraus forms,
partial-isometry factors and the Kraus blow-up of compose_post_processing
cost time.  Expected answers follow from the constructions; the oracles in
oracles.py confirm each one without calling the library.
"""

from __future__ import annotations

import importlib

import numpy as np

from instrorder import classify, instrument, order, randgen
from instrorder.instrument import Instrument, QuantumOperation, State
from oracles import (
    EQ_ABS,
    NO_MARGIN,
    check_detailed,
    check_replay,
    choi,
    confirm_no_post_processing,
    effects_of,
    minimal_kraus,
)
from povm_lp import coarse_graining, subseed
from workload import Op

CLASSIFIERS = [
    ("indecomposable", "classify", "is_indecomposable_instrument"),
    ("trash_and_prepare", "classify", "is_trash_and_prepare"),
    ("measure_and_prepare", "classify", "is_measure_and_prepare"),
    ("identity_class", "classify", "identity_class_certificate"),
    ("extreme", "classify", "is_extreme"),
    ("isometric_channel", "simulate", "is_isometric_channel"),
]
# Classifiers are looked up on their module at call time, so that the
# tracer's rebinding applies.  The package namespace binds the name
# "simulate" to the function, so the module comes from importlib.
MODULES = {"classify": classify, "simulate": importlib.import_module("instrorder.simulate")}


def kraus_map(I):
    return {label: list(op.kraus) for label, op in I.outcomes}


def pure_state(d, seed):
    v = randgen.random_isometry(1, d, seed)[:, 0]
    return State(d, np.outer(v, v.conj()))


def rotated(I, V):
    """Instrument with every Kraus matrix K replaced by V K."""
    d_out = V.shape[0]
    return Instrument(I.dim_in, d_out, [
        (label, QuantumOperation(I.dim_in, d_out, [V @ K for K in op.kraus]))
        for label, op in I.outcomes
    ])


def isometric_mixture(d_in, d_out, n, m, seed):
    """n outcomes, each Σ_i p_xi V_xi ρ V_xi† over m isometries with mutually
    orthogonal ranges (column blocks of one seeded unitary per outcome)."""
    p = randgen.random_distribution(n * m, subseed(seed, "p")).reshape(n, m)
    outcomes = []
    for x in range(n):
        U = randgen.random_unitary(d_out, subseed(seed, "U", x))
        ks = [np.sqrt(p[x, i]) * U[:, i * d_in:(i + 1) * d_in] for i in range(m)]
        outcomes.append((str(x), QuantumOperation(d_in, d_out, ks)))
    return Instrument(d_in, d_out, outcomes)


def build_instruments(seed):
    """name -> (instrument, expected classifier answers in CLASSIFIERS order)."""
    s = lambda *path: subseed(seed, *path)
    rand = lambda n, d, k, tag: randgen.random_instrument(n, d, d, k, s(tag))
    povm = lambda n, d, tag: randgen.random_povm(n, d, s(tag))
    F, T = False, True
    out = {}
    # random instruments with k Kraus per outcome: extreme iff n k^2 <= d^2
    out["random d=2 n=3 k=2"] = (rand(3, 2, 2, "R4"), (F, F, F, F, F, F))
    out["random d=4 n=3 k=2"] = (rand(3, 4, 2, "R1"), (F, F, F, F, T, F))
    out["random d=8 n=4 k=3"] = (rand(4, 8, 3, "R2"), (F, F, F, F, T, F))
    out["random d=16 n=3 k=2"] = (rand(3, 16, 2, "R3"), (F, F, F, F, T, F))
    # Lüders instruments: one Kraus √A(x) each, extreme iff effects independent
    out["luders d=4 n=4"] = (instrument.luders(povm(4, 4, "L1")), (T, F, F, F, T, F))
    out["luders d=8 n=6"] = (instrument.luders(povm(6, 8, "L2")), (T, F, F, F, T, F))
    out["luders d=16 n=4"] = (instrument.luders(povm(4, 16, "L3")), (T, F, F, F, T, F))
    # measure-and-prepare: Choi rank rank(A(x)) rank(ξ_x), so n d^2 rank(ξ)^2
    # products; at d=4 with mixed states that is 768 of them
    mixed = [randgen.random_state(4, s("M1 state", k)) for k in range(3)]
    out["m&p d=4 n=3 mixed"] = (instrument.measure_and_prepare(povm(3, 4, "M1"), mixed),
                                (F, F, T, F, F, F))
    pure = [pure_state(8, s("M2 state", k)) for k in range(6)]
    out["m&p d=8 n=6 pure"] = (instrument.measure_and_prepare(povm(6, 8, "M2"), pure),
                               (F, F, T, F, F, F))
    # isometric mixtures: identity class; V_i†V_j = 0 makes products dependent
    out["isometric mix 4->8 n=3 m=2"] = (isometric_mixture(4, 8, 3, 2, s("S1")), (F, F, F, T, F, F))
    out["isometric mix 8->16 n=2 m=2"] = (isometric_mixture(8, 16, 2, 2, s("S2")), (F, F, F, T, F, F))
    out["isometric channel 8->16"] = (isometric_mixture(8, 16, 1, 1, s("V1")), (T, F, F, T, T, T))
    tp_states = [pure_state(4, s("T1 state", k)) for k in range(3)]
    tp_p = randgen.random_distribution(3, s("T1 p"))
    out["trash&prepare d=4 n=3"] = (instrument.trash_and_prepare(tp_p, tp_states, 4),
                                    (F, T, T, F, F, F))
    return out


def classifier_ops(name, I, expected):
    ops = []
    for (label, module, func), want in zip(CLASSIFIERS, expected):
        ops.append(Op(
            name=f"{label} {name}",
            call=lambda I=I, module=module, func=func: getattr(MODULES[module], func)(I),
            expected=want,
            decide=lambda raw: raw if isinstance(raw, bool) else raw is not None,
            check=lambda raw, I=I, label=label: _check_certificate(label, raw, I),
            fingerprint=_certificate_print,
        ))
    return ops


def _certificate_print(raw):
    if raw is None or isinstance(raw, bool):
        return raw
    if isinstance(raw, tuple):
        p, states = raw
        return p.tobytes(), tuple(s.matrix.tobytes() for s in states)
    if hasattr(raw, "branches"):
        return tuple((x, tuple((w, V.tobytes()) for w, V in entry)) for x, entry in raw.branches.items())
    return tuple(E.tobytes() for E in raw.povm.effects), tuple(s.matrix.tobytes() for s in raw.states)


def _check_certificate(label, raw, I):
    """Rebuild each certified operation and compare Choi matrices."""
    if raw is None or isinstance(raw, bool):
        return None
    d_in, d_out = I.dim_in, I.dim_out
    if label == "trash_and_prepare":
        p, states = raw
        rebuilt = [np.kron(np.eye(d_in), w * s.matrix) for w, s in zip(p, states)]
    elif label == "measure_and_prepare":
        rebuilt = [np.kron(E.T, s.matrix) for E, s in zip(raw.povm.effects, raw.states)]
    else:
        rebuilt = []
        for x in I.labels:
            entry = raw.branches[x]
            rebuilt.append(choi([np.sqrt(w) * V for w, V in entry]) if entry
                           else np.zeros((d_in * d_out,) * 2))
            for w, V in entry:
                if np.linalg.norm(V.conj().T @ V - np.eye(d_in)) > EQ_ABS:
                    return f"branch of {x} is not an isometry"
    for x, C in zip(I.labels, rebuilt):
        gap = np.linalg.norm(C - choi(I.operation(x).kraus))
        if gap > EQ_ABS:
            return f"{label} certificate misses outcome {x} by {gap:.3e}"
    return None


def _witness_print(raw):
    return raw[2]  # the replay error repeats bit for bit when the witness does


def target_chois(I):
    """Own Choi matrices of an instrument's operations, by label."""
    return {label: choi(op.kraus) for label, op in I.outcomes}


def _check_against(w, source, targets):
    """Own link-product replay of w from source, against targets (label -> Choi)."""
    if w.source_labels != source.labels or w.target_labels != list(targets):
        return "witness labels do not match source and target"
    processors = {x: kraus_map(R) for x, R in w.processors.items()}
    return check_replay(kraus_map(source), processors, targets)


def question(name, expected, call, check, inputs):
    return Op(name=name, call=call, expected=expected,
              decide=lambda raw: raw[0] is not None, check=check,
              fingerprint=_witness_print, yes_when=True, inputs=inputs)


def to_original_question(name, I):
    def call():
        D = instrument.detailed_instrument(I)
        w = order.witness_detailed_to_original(I)
        return w, D, order.witness_error(D, w)

    def check(raw):
        w, D, _ = raw
        return check_detailed(kraus_map(I), kraus_map(D)) or _check_against(w, D, target_chois(I))

    return question(f"detailed->original {name}", True, call, check, (I,))


def to_detailed_question(name, I, expected):
    def call():
        D = instrument.detailed_instrument(I)
        w = order.witness_original_to_detailed(I)
        return w, D, None if w is None else order.witness_error(I, w)

    def check(raw):
        w, D, _ = raw
        problem = check_detailed(kraus_map(I), kraus_map(D))
        if problem or w is not None:
            return problem or _check_against(w, I, target_chois(D))
        # no: some pair of minimal Kraus matrices has K_i† K_j != 0
        for x, op in I.outcomes:
            ks = minimal_kraus(op.kraus, I.dim_in, I.dim_out)
            if any(np.linalg.norm(a.conj().T @ b) > NO_MARGIN
                   for i, a in enumerate(ks) for b in ks[i + 1:]):
                return None
        return "minimal Kraus products are orthogonal, so the witness exists"

    return question(f"original->detailed {name}", expected, call, check, (I,))


def indecomposable_question(name, I, J, expected):
    def call():
        w = order.witness_indecomposable_equivalence(I, J)
        if w is None:
            return None, None, None
        return w, None, (order.witness_error(I, w.forward), order.witness_error(J, w.backward))

    def check(raw):
        w = raw[0]
        if w is None:  # no: the induced POVMs are not equivalent
            a, b = effects_of(kraus_map(I)), effects_of(kraus_map(J))
            if confirm_no_post_processing(a, b) and confirm_no_post_processing(b, a):
                return "oracle LP finds the induced POVMs equivalent"
            return None
        return (_check_against(w.forward, I, target_chois(J))
                or _check_against(w.backward, J, target_chois(I)))

    return question(f"indecomposable {name}", expected, call, check, (I, J))


def map_prepare_question(name, I, J, expected):
    def call():
        w = order.witness_map_post_processing(I, J)
        return w, None, None if w is None else order.witness_error(I, w)

    def check(raw):
        w = raw[0]
        if w is None:  # no: A^J is not a post-processing of A^I
            return confirm_no_post_processing(effects_of(kraus_map(I)), effects_of(kraus_map(J)))
        return _check_against(w, I, target_chois(J))

    return question(f"measure-prepare {name}", expected, call, check, (I, J))


def identity_question(name, I):
    def call():
        w = order.witness_identity_reversal(I)
        return w, None, order.witness_error(I, w)

    targets = target_chois(instrument.identity_instrument(I.dim_in))
    return question(f"identity reversal {name}", True, call,
                    lambda raw: _check_against(raw[0], I, targets), (I,))


def trash_question(name, I, p, states):
    def call():
        w = order.witness_to_trash_and_prepare(I, p, states)
        return w, None, order.witness_error(I, w)

    targets = {str(y): np.kron(np.eye(I.dim_in), w * xi.matrix)
               for y, (w, xi) in enumerate(zip(p, states))}
    check = lambda raw: _check_against(raw[0], I, targets)

    return question(f"trash-and-prepare descent {name}", True, call, check, (I,))


def build(seed, workdir):
    s = lambda *path: subseed(seed, *path)
    instruments = build_instruments(seed)
    ops = []
    for name, (I, expected) in instruments.items():
        ops += classifier_ops(name, I, expected)

    get = lambda name: instruments[name][0]
    for name in ("random d=4 n=3 k=2", "random d=8 n=4 k=3", "random d=16 n=3 k=2",
                 "luders d=8 n=6", "isometric mix 4->8 n=3 m=2"):
        ops.append(to_original_question(name, get(name)))
    # generic random instruments have non-orthogonal branches: no witness
    for name, expected in [
        ("random d=4 n=3 k=2", False), ("random d=8 n=4 k=3", False),
        ("random d=16 n=3 k=2", False), ("luders d=8 n=6", True), ("luders d=16 n=4", True),
        ("isometric mix 4->8 n=3 m=2", True), ("isometric mix 8->16 n=2 m=2", True),
    ]:
        ops.append(to_detailed_question(name, get(name), expected))

    for name, n, d, V in [
        ("luders d=4 n=4", 4, 4, randgen.random_isometry(4, 8, s("rot L1"))),
        ("luders d=8 n=6", 6, 8, randgen.random_unitary(8, s("rot L2"))),
        ("luders d=16 n=4", 4, 16, randgen.random_unitary(16, s("rot L3"))),
    ]:
        L = get(name)
        other = instrument.luders(randgen.random_povm(n, d, s("other", name)))
        ops.append(indecomposable_question(f"{name} vs rotated", L, rotated(L, V), True))
        ops.append(indecomposable_question(f"{name} vs unrelated", L, other, False))

    for tag, n, m, d in [("P1", 6, 3, 4), ("P2", 8, 4, 8)]:
        A = randgen.random_povm(n, d, s(tag, "A"))
        B = coarse_graining(A, m, s(tag, "coarse"))
        I = instrument.measure_and_prepare(A, [pure_state(d, s(tag, "I", k)) for k in range(n)])
        J = instrument.measure_and_prepare(B, [pure_state(d, s(tag, "J", k)) for k in range(m)])
        ops.append(map_prepare_question(f"d={d} {n}->{m} forward", I, J, True))
        ops.append(map_prepare_question(f"d={d} {m}->{n} backward", J, I, False))

    for name in ("isometric mix 4->8 n=3 m=2", "isometric mix 8->16 n=2 m=2",
                 "isometric channel 8->16"):
        ops.append(identity_question(name, get(name)))

    for name, k, states in [
        ("random d=4 n=3 k=2", 3, [randgen.random_state(4, s("trash R1", i)) for i in range(3)]),
        ("luders d=8 n=6", 2, [pure_state(8, s("trash L2", i)) for i in range(2)]),
        ("random d=16 n=3 k=2", 2, [pure_state(16, s("trash R3", i)) for i in range(2)]),
    ]:
        p = randgen.random_distribution(k, s("trash p", name))
        ops.append(trash_question(name, get(name), p, states))
    return ops

