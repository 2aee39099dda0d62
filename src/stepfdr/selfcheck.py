"""Brute-force cross-checks on small random instances.

Used by the ``selftest`` CLI command and by the acceptance suite: the
incremental forward path is compared against exhaustive refits, and the
path MSPE bookkeeping against explicit projection matrices.
"""

from __future__ import annotations

import numpy as np

from .quantiles import RandomSource
from .regress import (Dataset, cross_products, forward_path, forward_sweep, least_squares,
                      standardize)
from .simlab import path_prefix_mspe, random_oracle

__all__ = ["brute_force_forward", "explicit_projection_mspe", "run"]


def brute_force_forward(dataset: Dataset):
    """Forward selection on ``dataset`` by refitting every candidate subset
    from scratch with ``least_squares``, intercept included."""
    n, m = dataset.n, dataset.m
    chosen: list = []
    rss_prev = least_squares(dataset, [])[1]
    rss_seq = [rss_prev]
    for _ in range(min(m, n - 2)):  # as forward_path: one dof goes to the intercept
        best_j, best_rss = None, None
        for j in range(m):
            if j in chosen:
                continue
            try:
                _, rss = least_squares(dataset, chosen + [j])
            except np.linalg.LinAlgError:
                continue
            if best_rss is None or rss < best_rss - 1e-12 * rss_seq[0]:
                best_j, best_rss = j, rss
        if best_j is None or rss_prev - best_rss <= 1e-12 * rss_seq[0]:
            break
        chosen.append(best_j)
        rss_prev = best_rss
        rss_seq.append(best_rss)
    return chosen, np.array(rss_seq)


def explicit_projection_mspe(X, beta, subset, sigma2) -> float:
    """Theoretical MSPE via an explicitly formed projection matrix, intercept included."""
    n = X.shape[0]
    A = np.column_stack([np.ones(n)] + [X[:, j] for j in subset])
    rest = sorted(set(range(X.shape[1])) - set(subset))
    b2 = X[:, rest] @ np.asarray(beta)[rest] if rest else np.zeros(n)
    P = A @ np.linalg.inv(A.T @ A) @ A.T
    r = (np.eye(n) - P) @ b2
    return sigma2 * (len(subset) + 1) + float(r @ r)


def run(instances: int = 500, seed: int = 20090194) -> list:
    """Run the brute-force comparison suite; returns (label, passed) per check."""
    if instances < 1:
        raise ValueError(f"instances must be at least 1, got {instances}")
    rng = RandomSource(seed).generator()
    path_ok = mspe_ok = oracle_ok = True
    for _ in range(instances):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(m + 3, 3 * m + 6))
        X = rng.standard_normal((n, m))
        beta = np.where(rng.random(m) < 0.5, rng.standard_normal(m), 0.0)
        y = X @ beta + rng.standard_normal(n)
        ds = standardize(Dataset(y=y, X=X, names=tuple(f"x{j}" for j in range(m))))

        path = forward_path(ds, sigma2=1.0)
        b_order, b_rss = brute_force_forward(ds)
        if list(path.entered[: len(b_order)]) != b_order:
            path_ok = False
        if not np.allclose(path.rss[: len(b_rss)], b_rss, rtol=1e-8):
            path_ok = False

        signal = X @ beta
        ord2, _, bias = forward_sweep(cross_products(X, True, signal), y, m)
        prefix = path_prefix_mspe(bias, 1.0)
        k_star, v_star = random_oracle(prefix)
        exhaustive = np.array([
            explicit_projection_mspe(X, beta, ord2[:k], 1.0) for k in range(len(ord2) + 1)
        ])
        if np.any(np.abs(prefix - exhaustive) > 1e-9 * np.maximum(1.0, exhaustive)):
            mspe_ok = False
        if abs(v_star - min(exhaustive)) > 1e-9 * max(1.0, min(exhaustive)):
            oracle_ok = False
        if k_star != int(np.argmin(exhaustive)):
            oracle_ok = False

    return [
        (f"forward path matches exhaustive refits ({instances} instances)", path_ok),
        ("per-prefix path MSPE matches explicit projection", mspe_ok),
        ("random oracle matches exhaustive prefix minimization", oracle_ok),
    ]
