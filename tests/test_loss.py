import importlib
from fractions import Fraction

import numpy as np
import pytest

from intscore.data import aggregate, synth_generate
from intscore.loss import Rows, feature_leaves, least_loss
from intscore.model import LatticeSpec, PenaltyConfig

from instances import random_instance

loss = importlib.import_module("intscore.loss")


def test_leaf_curves_count_every_entry():
    # the leaf plans both searches read, for zero, one and two features
    # after a few moves, against a direct count of the weighted error at
    # every value tuple and every intercept of the grid; taking the moves
    # back leaves base at zero
    rng = np.random.default_rng(43)
    checked = 0
    for seed in range(12):
        ds, agg, cfg, lattice = random_instance(seed)
        bounds = lattice.bounds_for(ds.p)
        rows = Rows(agg, cfg, bounds, lattice.intercept_bound)
        half = min(lattice.intercept_bound, int(bounds.sum()) + 1)
        assert rows.lam0_grid.tolist() == list(range(-half, half + 1))
        moves = [(int(j), int(rng.integers(-3, 4))) for j in rng.integers(0, ds.p, size=3)]
        coef = np.zeros(ds.p, dtype=np.int64)
        for j, v in moves:
            rows.move(j, v)
            coef[j] += v
        for n_feats in range(3):
            feats = tuple(sorted(rng.choice(ds.p, size=n_feats, replace=False).tolist()))
            curves = rows.leaf_curves(feats)
            assert curves.shape == tuple(2 * int(bounds[j]) + 1 for j in feats) + (2 * half + 1,)
            for idx in np.ndindex(*curves.shape[:-1]):
                c = coef.copy()
                for j, i in zip(feats, idx):
                    c[j] += i - int(bounds[j])
                pos, neg = agg.pos_patterns @ c, agg.neg_patterns @ c
                for q, lam0 in enumerate(rows.lam0_grid.tolist()):
                    pos_wrong = int(agg.pos_counts[pos + lam0 <= 0].sum())
                    neg_wrong = int(agg.neg_counts[neg + lam0 >= 1].sum())
                    want = (cfg.w_plus * pos_wrong + cfg.w_minus * neg_wrong) / agg.source_n
                    assert Fraction(int(curves[idx + (q,)]), rows.unit_den) == want
                    checked += 1
        for j, v in reversed(moves):
            rows.move(j, -v)
        assert not rows.base.any()
    assert checked > 1000


@pytest.mark.parametrize("leaf_elements", [None, 1, 1 << 62])
def test_feature_leaves_match_per_feature_leaves(leaf_elements, monkeypatch):
    # every single-coefficient leaf scored by one product for all features,
    # in blocks of one row and one feature, by default, or all at once,
    # against each feature's own leaf batch (least_loss of leaf_curves):
    # on oracle instances, on uneven per-feature bounds with conflict pairs,
    # at a weight denominator at class_units' limit (64-bit curves), and at
    # scores that put a step in every column of the widened grid, the
    # spill column included
    if leaf_elements is not None:
        monkeypatch.setattr(loss, "_LEAF_ELEMENTS", leaf_elements)
    ds = synth_generate([0.3, 0.6, 0.5, 0.4, 0.7, 0.5, 0.35],
                        [0.9, -0.7, 0.5, -0.4, 0.3, -0.6, 0.2], n=500, seed=3, bias=0.1)
    agg = aggregate(ds)
    assert len(agg.conflict_pairs)
    lattice = LatticeSpec((3, 1, 4, 2, 5, 2, 3), 6)
    den = (2 ** 53 - 1) // (2 * agg.source_n)
    cases = [random_instance(seed)[1:] for seed in range(12)]
    cases += [(agg, PenaltyConfig.auto(w, ds.n, ds.p, lattice), lattice)
              for w in (Fraction(7, 5), Fraction(10001, 10000), Fraction(den + 1, den))]
    rng = np.random.default_rng(47)
    dtypes, full = set(), 0
    for agg, cfg, lattice in cases:
        rows = Rows(agg, cfg, lattice.bounds_for(agg.p), lattice.intercept_bound)
        dtypes.add(np.dtype(rows.dtype).itemsize)
        b = int(rows.bounds.max())
        width = len(rows.lam0_grid) + 2 * b
        # a step lands in column 1 - lo - score, lo = -grid_half - b; the
        # last setting walks the rows through every column and one beyond
        # each end
        sweep = 1 + rows.grid_half + b - (np.arange(len(rows.base)) % (width + 3) - 1)
        for scores in (rng.integers(-3, 4, size=len(rows.base)),
                       rng.integers(-width - 4, width + 5, size=len(rows.base)), sweep):
            rows.base[:] = scores
            columns = np.clip(1 + rows.grid_half + b - rows.base, 0, width)
            full += len(np.unique(columns)) == width + 1
            units, lam0 = feature_leaves(rows.cols, rows.steps, rows.start, rows.base, b,
                                         rows.lam0_grid, rows.lam0_order, rows.dtype)
            for j in range(agg.p):
                b_j = int(rows.bounds[j])
                want = least_loss(rows.leaf_curves((j,)), rows.lam0_grid, rows.lam0_order)
                assert units[j, b - b_j:b + b_j + 1].tolist() == want[0].tolist()
                assert lam0[j, b - b_j:b + b_j + 1].tolist() == want[1].tolist()
    assert dtypes == {2, 4, 8} and full >= 5
