from fractions import Fraction

import numpy as np

from intscore.loss import Rows

from instances import random_instance


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
