import numpy as np
import pytest

from instrorder import (
    Instrument,
    NotIsometry,
    QuantumOperation,
    SimulationProgram,
    compose_post_processing,
    identity_class_certificate,
    identity_instrument,
    instrument_distance,
    is_extreme,
    is_isometric_channel,
    is_trash_and_prepare,
    isometric_channel,
    luders,
    random_distribution,
    random_instrument,
    random_isometry,
    random_state,
    trash_and_prepare,
    validate_instrument,
    witness_identity_reversal,
)
from instrorder.simulate import simulate

from helpers import basis_pvm, random_identity_class_instrument, simulate_direct


def _identity_processors(I):
    processors = {}
    for x in I.labels:
        outcomes = []
        for y in I.labels:
            if y == x:
                outcomes.append((y, QuantumOperation(I.dim_out, I.dim_out, [np.eye(I.dim_out, dtype=complex)])))
            else:
                outcomes.append((y, QuantumOperation(I.dim_out, I.dim_out, [np.zeros((I.dim_out, I.dim_out), dtype=complex)])))
        processors[x] = Instrument(I.dim_out, I.dim_out, outcomes)
    return {(0, x): processors[x] for x in I.labels}


def test_single_component_identity_processors():
    I = random_instrument(2, 2, 2, 1, seed=0)
    prog = SimulationProgram([I], [1.0], _identity_processors(I))
    assert instrument_distance(simulate(prog), I) < 1e-12


def test_identity_component_yields_processor():
    R = random_instrument(3, 2, 2, 2, seed=1)
    prog = SimulationProgram([identity_instrument(2)], [1.0], {(0, "0"): R})
    assert instrument_distance(simulate(prog), R) < 1e-12


def test_mixture_of_trash_components_stays_trash():
    comps, procs = [], {}
    for i in range(2):
        p = random_distribution(2, seed=10 + i)
        T = trash_and_prepare(p, [random_state(2, 20 + 2 * i), random_state(2, 21 + 2 * i)], dim_in=2)
        comps.append(T)
        for x in T.labels:
            q = random_distribution(2, seed=30 + i)
            procs[(i, x)] = trash_and_prepare(
                q, [random_state(2, 40 + i), random_state(2, 41 + i)], dim_in=2, labels=["a", "b"]
            )
    prog = SimulationProgram(comps, [0.5, 0.5], procs)
    out = simulate(prog)
    assert validate_instrument(out).ok
    assert is_trash_and_prepare(out) is not None


def test_simulate_matches_direct_construction():
    for seed in range(12):
        c1 = random_instrument(2, 2, 2 + seed % 2, 1, seed)
        c2 = random_instrument(3, 2, 2, 2, seed + 100)
        procs = {}
        for i, c in enumerate((c1, c2)):
            for x in c.labels:
                procs[(i, x)] = random_instrument(2, c.dim_out, 3, 1, seed + 200 + 10 * i + int(x))
        p = random_distribution(2, seed + 300)
        prog = SimulationProgram([c1, c2], p, procs)
        out = simulate(prog)
        ref = simulate_direct(prog)
        assert instrument_distance(out, ref) < 1e-12
        assert validate_instrument(out).ok


def test_identity_class_component_simulates_anything():
    for seed in range(6):
        C = random_identity_class_instrument(2, 2, [1, 2], seed)
        target = random_instrument(2, 2, 2, 1, seed + 50)
        reversal = witness_identity_reversal(C)
        procs = {}
        for x in C.labels:
            step = reversal.processors[x]  # channel undoing C_x back to dim_in
            only = step.labels[0]
            procs[(0, x)] = compose_post_processing(step, {only: target})
        prog = SimulationProgram([C], [1.0], procs)
        out = simulate(prog)
        assert instrument_distance(out, target) < 1e-9


def test_isometric_channel_constructor():
    V = random_isometry(2, 3, seed=2)
    I = isometric_channel(V)
    assert I.dim_in == 2 and I.dim_out == 3 and len(I) == 1
    assert is_isometric_channel(I)
    assert validate_instrument(I).ok


def test_isometric_channel_rejects_non_isometry():
    with pytest.raises(NotIsometry):
        isometric_channel(np.array([[1.0, 0.0], [0.0, 0.5]]))


def test_identity_is_isometric():
    assert is_isometric_channel(identity_instrument(2))


def test_luders_is_not_isometric_channel():
    assert not is_isometric_channel(luders(basis_pvm(2)))


def test_multi_kraus_channel_is_not_isometric():
    op = QuantumOperation(2, 2, [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)])
    assert not is_isometric_channel(Instrument(2, 2, [("0", op)]))


def test_isometric_channels_are_extreme_and_clean():
    for seed in range(8):
        V = random_isometry(2, 2 + seed % 3, seed + 500)
        I = isometric_channel(V)
        assert is_extreme(I)
        assert identity_class_certificate(I) is not None


def test_program_validates_distribution():
    I = random_instrument(2, 2, 2, 1, seed=3)
    with pytest.raises(ValueError):
        SimulationProgram([I], [0.7], _identity_processors(I))


def test_program_rejects_nan_weights():
    I = random_instrument(2, 2, 2, 1, seed=3)
    with pytest.raises(ValueError, match="probability distribution"):
        SimulationProgram([I, I], [np.nan, 0.5], _identity_processors(I))


def test_program_validates_processor_dims():
    I = random_instrument(2, 2, 3, 1, seed=4)
    bad = {(0, x): identity_instrument(2) for x in I.labels}  # needs dim_in 3
    with pytest.raises(Exception):
        simulate(SimulationProgram([I], [1.0], bad))
