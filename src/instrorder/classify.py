"""Structural classification of instruments.

Certificates are concrete decompositions that other modules replay: the
measure-and-prepare certificate carries the POVM and the prepared states,
the identity-class certificate carries per-outcome weights and mutually
orthogonal isometries I_x(rho) = Σ_i p_xi V_xi rho V_xi†.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .instrument import (
    Instrument,
    QuantumOperation,
    State,
    choi_distance,
    ground_state,
    is_zero_operation,
    minimal_kraus,
    partial_trace_input,
    partial_trace_output,
)
from .linalg import DEFAULT_TOL, Tolerance, frob, frob_dist, hermitize, numerical_rank
from .povm import Povm, is_trivial


@dataclass(eq=False)
class MapPrepCertificate:
    """Witnesses I_x(rho) = tr[A(x) rho] xi_x."""

    povm: object
    states: list


@dataclass(eq=False)
class IdentityClassCertificate:
    """Per outcome, the list of (weight, isometry) branches of I_x."""

    dim_in: int
    dim_out: int
    branches: dict


def is_indecomposable_instrument(I: Instrument, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when every nonvanishing operation has Choi rank one."""
    for op in I.operations:
        if is_zero_operation(op, tol):
            continue
        if len(minimal_kraus(op, tol).kraus) != 1:
            return False
    return True


def is_trash_and_prepare(I: Instrument, tol: Tolerance = DEFAULT_TOL):
    """If I_x(rho) = tr[rho] p_x xi_x for all x, return (p, states), else None:
    I is measure-and-prepare with a trivial POVM, whose weights are p."""
    cert = is_measure_and_prepare(I, tol)
    if cert is None:
        return None
    p = is_trivial(cert.povm, tol)
    return None if p is None else (p, cert.states)


def is_measure_and_prepare(I: Instrument, tol: Tolerance = DEFAULT_TOL):
    """If I_x(rho) = tr[A(x) rho] xi_x for all x, return the certificate."""
    d_in, d_out = I.dim_in, I.dim_out
    effects = []
    states = []
    for label, op in I.outcomes:
        if is_zero_operation(op, tol):
            effects.append((label, np.zeros((d_in, d_in), dtype=complex)))
            states.append(ground_state(d_out))
            continue
        C = op.choi_matrix
        E_t = partial_trace_output(C, d_in, d_out)
        xi = hermitize(partial_trace_input(C, d_in, d_out)) / np.trace(E_t).real
        if frob_dist(C, np.kron(E_t, xi)) > tol.eq_abs:
            return None
        effects.append((label, hermitize(E_t).T))
        states.append(State(d_out, xi))
    return MapPrepCertificate(Povm(d_in, effects), states)


def identity_class_certificate(I: Instrument, tol: Tolerance = DEFAULT_TOL):
    """Decompose each operation as Σ_i p_xi V_xi rho V_xi† with isometries
    that are mutually orthogonal within the outcome, or return None.

    The test runs on the minimal Kraus matrices A_i of each operation, which
    a thin SVD makes Hilbert–Schmidt orthogonal: the decomposition exists
    iff A_i† A_i = γ_i I with γ_i = ‖A_i‖²_F / dim_in and A_i† A_j = 0 for
    i < j.  Branch i is then p_i = γ_i, V_i = A_i / √γ_i.
    """
    d_in, d_out = I.dim_in, I.dim_out
    if d_out < d_in:
        return None
    eye = np.eye(d_in)
    branches = {}
    for label, op in I.outcomes:
        if is_zero_operation(op, tol):
            branches[label] = []
            continue
        A = minimal_kraus(op, tol).kraus
        entries = []
        for K in A:
            P = K.conj().T @ K
            gamma = np.trace(P).real / d_in
            if frob_dist(P, gamma * eye) > tol.eq_abs:
                return None
            entries.append((float(gamma), K / np.sqrt(gamma)))
        if not _pairwise_orthogonal(A, tol):
            return None
        branches[label] = entries
    cert = IdentityClassCertificate(d_in, d_out, branches)
    if not certificate_error(I, cert) <= tol.eq_abs:  # so that a NaN error fails
        return None
    total = sum(w for entry in branches.values() for w, _ in entry)
    if abs(total - 1.0) > tol.eq_abs:
        return None
    return cert


def _pairwise_orthogonal(ks, tol: Tolerance) -> bool:
    """True when K_i† K_j vanishes within tol.eq_abs for every i < j."""
    return all(frob(Ki.conj().T @ Kj) <= tol.eq_abs for Ki, Kj in combinations(ks, 2))


def certificate_error(I: Instrument, cert: IdentityClassCertificate) -> float:
    """Worst defect of the certificate against I: isometry and orthogonality
    defects of the branches plus Choi distance of the rebuilt operations.
    NaN if any of them is NaN."""
    errors = [0.0]
    eye = np.eye(cert.dim_in)
    for label, op in I.outcomes:
        entry = cert.branches.get(label)
        if entry is None:
            return np.inf
        for i, (w, V) in enumerate(entry):
            errors.append(frob_dist(V.conj().T @ V, eye))
            for w2, V2 in entry[i + 1 :]:
                errors.append(frob_dist(V2.conj().T @ V, np.zeros_like(eye)))
        rebuilt = QuantumOperation(cert.dim_in, cert.dim_out, [np.sqrt(w) * V for w, V in entry])
        errors.append(choi_distance(rebuilt, op))
    return float(np.max(errors))


def is_extreme(I: Instrument, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Extremality in the convex set of instruments on I's outcome set:
    the products K_i† K_j of the pooled minimal Kraus matrices (per outcome)
    must be linearly independent, checked via the rank of their Gram matrix.

    There are Σ_x rank_x² products in the dim_in²-dimensional operator
    space, so more than dim_in² of them are dependent without any product
    being formed.
    """
    forms = [minimal_kraus(op, tol).kraus for op in I.operations if not is_zero_operation(op, tol)]
    if sum(len(ks) ** 2 for ks in forms) > I.dim_in**2:
        return False
    prods = [(Ki.conj().T @ Kj).reshape(-1) for ks in forms for Ki in ks for Kj in ks]
    if not prods:
        return True
    stack = np.array(prods)
    gram = stack @ stack.conj().T
    return numerical_rank(gram, tol) == len(prods)


def is_post_processing_clean(I: Instrument, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Nothing strictly above I in the post-processing order: holds exactly
    when the identity-class certificate exists.

    Simulation irreducibility (any simulation of I by mixing post-processed
    instruments must already contain I's equivalence class) is the same
    class, so this predicate answers it too.
    """
    return identity_class_certificate(I, tol) is not None
