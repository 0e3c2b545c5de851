"""Seeded random problem instances, most at oracle (exhaustively checkable) scale."""

from fractions import Fraction

import numpy as np

from intscore.data import BinaryDataset, FeatureSpec, aggregate, synth_generate
from intscore.model import LatticeSpec, PenaltyConfig

W_GRID = [Fraction(k, 10) for k in range(1, 20)]  # 0.1 .. 1.9


def random_instance(seed):
    """Small dataset + valid config, enumerable by brute force.

    N <= 40, P <= 4, per-coefficient bound <= 2, intercept bound <= 4.
    Duplicated rows are injected so conflicts actually occur.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 41))
    p = int(rng.integers(2, 5))
    coef_bound = int(rng.integers(1, 3))
    intercept_bound = int(rng.integers(2, 5))

    X = (rng.random((n, p)) < rng.uniform(0.2, 0.8)).astype(np.uint8)
    # duplicate a block of rows to create repeated patterns
    k = max(2, n // 4)
    X[n - k:] = X[:k]
    logits = rng.normal(0, 1.5, p) @ X.T + rng.normal(0, 0.5)
    y = np.where(rng.random(n) < 1 / (1 + np.exp(-logits)), 1, -1).astype(np.int8)
    if np.all(y == y[0]):
        y[0] = -y[0]

    features = tuple(FeatureSpec(f"f{j}") for j in range(p))
    ds = BinaryDataset(features, X, y)
    lattice = LatticeSpec(coef_bound, intercept_bound)
    w_plus = W_GRID[int(rng.integers(0, len(W_GRID)))]
    cfg = PenaltyConfig.auto(w_plus, n, p, lattice, max_terms=int(rng.integers(2, p + 2)))
    return ds, aggregate(ds), cfg, lattice


def a1a2_dataset():
    """Four patterns over (a1, a2), positive exactly when both are 0."""
    X = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=np.uint8)
    y = np.array([1, -1, -1, -1], dtype=np.int8)
    return BinaryDataset((FeatureSpec("a1"), FeatureSpec("a2")), X, y)


def wide_instance(seed):
    """A seeded instance too large for brute force but quick to solve:
    N in [60, 200), P in [5, 9), per-coefficient bound <= 2, intercept
    bound 5, a term cap of 3 or 4."""
    rng = np.random.default_rng(seed)
    p = int(rng.integers(5, 9))
    ds = synth_generate(rng.uniform(0.1, 0.8, p), rng.normal(0, 0.8, p),
                        int(rng.integers(60, 200)), seed=seed, bias=-0.2)
    lattice = LatticeSpec(int(rng.integers(1, 3)), 5)
    cfg = PenaltyConfig.auto(Fraction(int(rng.integers(1, 20)), 10), ds.n, ds.p, lattice,
                             max_terms=int(rng.integers(3, 5)))
    return ds, aggregate(ds), cfg, lattice
