"""Independent checks of the library's answers, in plain numpy and scipy.

Nothing here calls into ``instrorder``: Choi matrices are assembled from the
Kraus arrays, witnesses are replayed by the Choi link product instead of by
composing Kraus matrices, and "no" answers of the POVM order are confirmed
by a least-residual linear program that scipy solves.

Choi convention (the library's): C[(i, a), (j, b)] = Σ_k K_k[a, i] conj(K_k[b, j]),
i.e. the input index is the row block.
"""

from __future__ import annotations

import numpy as np

EQ_ABS = 1e-9  # the library's default Frobenius tolerance for equal operators
NO_MARGIN = 1e-6  # least l1 residual that confirms "no stochastic matrix exists"


def choi(kraus) -> np.ndarray:
    """Choi matrix of the map with these Kraus matrices (each d_out x d_in)."""
    ks = np.asarray(kraus, dtype=complex)
    n, d_out, d_in = ks.shape
    vecs = ks.transpose(0, 2, 1).reshape(n, d_in * d_out)
    return vecs.T @ vecs.conj()


def link(c_first, d_in, d_mid, c_second, d_out) -> np.ndarray:
    """Choi matrix of (second ∘ first) from the two Choi matrices."""
    x = c_first.reshape(d_in, d_mid, d_in, d_mid).transpose(0, 2, 1, 3)
    y = c_second.reshape(d_mid, d_out, d_mid, d_out).transpose(0, 2, 1, 3)
    z = x.reshape(d_in * d_in, d_mid * d_mid) @ y.reshape(d_mid * d_mid, d_out * d_out)
    z = z.reshape(d_in, d_in, d_out, d_out).transpose(0, 2, 1, 3)
    return z.reshape(d_in * d_out, d_in * d_out)


def replay(source, processors, target_labels, d_in, d_mid, d_out):
    """Per-target-label Choi matrices of Σ_x R^(x)_y ∘ I_x.

    source: list of (label, kraus list); processors: source label ->
    dict target label -> kraus list.  Processor branches whose Kraus
    matrices are all zero contribute nothing and are skipped.
    """
    out = {y: np.zeros((d_in * d_out, d_in * d_out), dtype=complex) for y in target_labels}
    for x, kraus in source:
        c_source = choi(kraus)
        for y in target_labels:
            ks = processors[x][y]
            if not any(np.any(k) for k in ks):
                continue
            out[y] += link(c_source, d_in, d_mid, choi(ks), d_out)
    return out


def check_replay(source, processors, targets):
    """Error text unless the processors, replayed on source by the link
    product, give the target Choi matrices; None when they do.

    source: label -> Kraus list of the source instrument; processors:
    source label -> (target label -> Kraus list); targets: target label ->
    Choi matrix.  Every processor must map the source's output dimension to
    the targets' and be trace preserving."""
    if set(processors) != set(source):
        return f"processors for {sorted(processors)}, source outcomes {sorted(source)}"
    d_mid, d_in = np.shape(next(iter(source.values()))[0])
    d_out = len(next(iter(targets.values()))) // d_in
    for x, branches in processors.items():
        if list(branches) != list(targets):
            return f"processor for {x} has outcomes {list(branches)}, targets {list(targets)}"
        shapes = {np.shape(k) for ks in branches.values() for k in ks}
        if shapes != {(d_out, d_mid)}:
            return f"processor for {x} has Kraus shapes {sorted(shapes)}, not {(d_out, d_mid)}"
        gap = trace_preserving_gap(branches, d_mid)
        if gap > EQ_ABS:
            return f"processor for {x} is not trace preserving ({gap:.3e})"
    got = replay(list(source.items()), processors, list(targets), d_in, d_mid, d_out)
    for y, C in targets.items():
        gap = np.linalg.norm(got[y] - C)
        if gap > EQ_ABS:
            return f"replay misses target outcome {y} by {gap:.3e}"
    return None


def check_detailed(original, detailed):
    """Error text unless detailed has one Kraus matrix per outcome and its
    branches, labelled "(i,x)", add up to original's operation x.

    original, detailed: label -> Kraus list."""
    sums = {x: 0 for x in original}
    for label, ks in detailed.items():
        if len(ks) != 1:
            return f"detailed outcome {label} has {len(ks)} Kraus matrices"
        source = label[1:-1].split(",", 1)[1]
        if source not in sums:
            return f"detailed outcome {label} names no original outcome"
        sums[source] = sums[source] + choi(ks)
    for x, ks in original.items():
        gap = np.linalg.norm(sums[x] - choi(ks))
        if gap > EQ_ABS:
            return f"detailed branches of {x} miss it by {gap:.3e}"
    return None


def trace_preserving_gap(kraus_by_label, dim_in) -> float:
    """Frobenius distance of Σ_y Σ_k K†K from the identity."""
    total = np.zeros((dim_in, dim_in), dtype=complex)
    for ks in kraus_by_label.values():
        for k in ks:
            total += k.conj().T @ k
    return float(np.linalg.norm(total - np.eye(dim_in)))


def minimal_kraus(kraus, d_in, d_out, rank_rel=1e-8):
    """Kraus matrices from the eigendecomposition of the Choi matrix."""
    c = choi(kraus)
    w, v = np.linalg.eigh((c + c.conj().T) / 2)
    keep = w > rank_rel * max(w.max(), 0.0)
    return [np.sqrt(w[i]) * v[:, i].reshape(d_in, d_out).T for i in np.nonzero(keep)[0]]


def post_processing_residual(a_effects, b_effects) -> float:
    """Least Σ_y ||Σ_x ν_xy A(x) - B(y)||_1 (entrywise, real and imaginary
    parts) over row-stochastic ν, solved by scipy's HiGHS."""
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    a = np.asarray(a_effects, dtype=complex)
    b = np.asarray(b_effects, dtype=complex)
    n_a, n_b, d = len(a), len(b), a.shape[1]
    parts = 2 * d * d
    coords_a = np.concatenate([a.real.reshape(n_a, -1), a.imag.reshape(n_a, -1)], axis=1)
    coords_b = np.concatenate([b.real.reshape(n_b, -1), b.imag.reshape(n_b, -1)], axis=1)
    n_nu = n_a * n_b
    n_slack = n_b * parts
    rows, cols, vals = [], [], []
    # effect rows: y * parts + k;  ν_xy at column x * n_b + y
    for y in range(n_b):
        for x in range(n_a):
            r = y * parts + np.arange(parts)
            rows.append(r)
            cols.append(np.full(parts, x * n_b + y))
            vals.append(coords_a[x])
        r = y * parts + np.arange(parts)
        rows += [r, r]
        cols += [n_nu + r, n_nu + n_slack + r]
        vals += [np.ones(parts), -np.ones(parts)]
    # stochastic rows
    for x in range(n_a):
        rows.append(np.full(n_b, n_slack + x))
        cols.append(x * n_b + np.arange(n_b))
        vals.append(np.ones(n_b))
    matrix = coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_slack + n_a, n_nu + 2 * n_slack),
    ).tocsr()
    rhs = np.concatenate([coords_b.reshape(-1), np.ones(n_a)])
    cost = np.concatenate([np.zeros(n_nu), np.ones(2 * n_slack)])
    res = linprog(cost, A_eq=matrix, b_eq=rhs, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"oracle LP did not solve: {res.message}")
    return float(res.fun)


def check_stochastic_witness(nu, a_effects, b_effects):
    """Error text if ν is not row-stochastic or Σ_x ν_xy A(x) misses B(y)."""
    nu = np.asarray(nu, dtype=float)
    if nu.shape != (len(a_effects), len(b_effects)):
        return f"stochastic matrix has shape {nu.shape}"
    if nu.min() < -1e-12 or np.abs(nu.sum(axis=1) - 1.0).max() > 1e-12:
        return "stochastic matrix is not row-stochastic"
    rebuilt = np.einsum("xy,xij->yij", nu, np.asarray(a_effects, dtype=complex))
    gap = max(np.linalg.norm(r - b) for r, b in zip(rebuilt, b_effects))
    if gap > EQ_ABS:
        return f"stochastic matrix rebuilds the target only to {gap:.3e}"
    return None


def confirm_no_post_processing(a_effects, b_effects):
    """Error text unless the oracle LP finds B out of reach of A."""
    residual = post_processing_residual(a_effects, b_effects)
    if residual <= NO_MARGIN:
        return f"oracle LP reaches the target with residual {residual:.3e}"
    return None


def effects_of(kraus_by_label):
    """Induced effects Σ_k K†K, in label order."""
    return [sum(k.conj().T @ k for k in ks) for ks in kraus_by_label.values()]
