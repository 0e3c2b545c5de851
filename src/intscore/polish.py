"""Active-set polishing: exact coefficient re-optimization with the feature
selection frozen.

Given a feasible model, only its nonzero coefficients (and the intercept)
are re-optimized; every other coefficient stays zero. Dropping penalties,
the restricted problem minimizes the weighted 0-1 loss alone; ties are
resolved by (smaller coefficient-magnitude sum, lexicographically smaller
coefficient tuple, then the intercept of smallest magnitude with negative
preferred). The data is first projected onto the active columns, which
collapses it to at most 2^|A| distinct patterns per class, so the search
is fast even when the original dataset is large.

All loss curves and bounds come from the kernel in loss.py, over segments
of the projected patterns. The search prunes with the grouped relaxation
(loss.grouped_bounds), the bound the main solver uses at its deep nodes:
patterns sharing the same mask over the still-free coefficients share one
unknown offset, so each group contributes the sliding-window minimum of its
exact loss curve. Conflicting label pairs always share a group and are
costed exactly by its curve. The intercept grid is clipped to the sum of
the active bounds plus one, beyond which the loss no longer changes.

Expanding a node bounds all 2b+1 children at once, from one kernel call
over an offset grid widened by the bound b of the feature branched on. The
last two coefficients are not bounded: every value pair is scored at once
by the solver's sibling kernel (loss.sibling_curves), from the four loss
curves of the patterns split by their bits on the pair, and takes its
intercept by the solver's rule (loss.least_loss).

The result is the least key over the support's whole lattice, so it does
not depend on the incumbent a search starts from. On three or more terms
a search with every bound halved runs first: it is cheap, usually ends near
the optimum, and its incumbent and value order let the full search prune
more. On one or two terms the search is a single leaf batch that prunes
nothing, so it runs alone and without an incumbent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import AggregatedDataset, aggregate_counts
from .loss import (exact_steps, grouped_bounds, grouped_plan, intercept_order, least_loss,
                   loss_units, refined_groups, sibling_curves, sibling_plan, units_dtype)
from .model import LatticeSpec, PenaltyConfig, ScoringSystem, objective


@dataclass(frozen=True)
class ActiveSet:
    """Sorted 0-based feature positions carrying nonzero coefficients."""

    indices: tuple

    def __post_init__(self):
        idx = tuple(sorted(int(j) for j in self.indices))
        if len(set(idx)) != len(idx):
            raise ValueError("active set indices must be distinct")
        if idx and idx[0] < 0:
            raise ValueError("active set indices must be nonnegative")
        object.__setattr__(self, "indices", idx)

    @staticmethod
    def of(model: ScoringSystem) -> "ActiveSet":
        return ActiveSet(tuple(j for j, _ in model.terms))

    def __len__(self):
        return len(self.indices)


def project_active(agg: AggregatedDataset, active: ActiveSet) -> AggregatedDataset:
    """Restrict patterns to the active columns and re-aggregate.

    Models supported on the active set score identically before and after,
    so their weighted loss is preserved exactly.
    """
    cols = list(active.indices)
    return aggregate_counts(agg.pos_patterns[:, cols], agg.pos_counts,
                            agg.neg_patterns[:, cols], agg.neg_counts, agg.source_n)


class _RestrictedSearch:
    """Branch and bound over the active coefficients of the projected data.

    Depth d fixes feature order[d]; the intercept is chosen by scanning its
    grid at every leaf. The incumbent key is (loss units, coefficient l1,
    coefficient tuple in position order), with the intercept canonicalized
    to smallest magnitude (negative first) among loss minimizers, so the
    result is independent of branching and value orders, and of the
    incumbent the search starts from. On three or more terms run() prunes
    against an incumbent, which seed() sets, and tries values nearest
    seed_coefs first; on fewer it is one leaf batch.

    Expanding a node at depth d bounds all of its children at once
    (_child_bounds), with the grouping of depth d + 1; a node at depth
    k - 2 scores all its leaves at once (_offer).
    """

    def __init__(self, proj: AggregatedDataset, cfg: PenaltyConfig,
                 bounds: np.ndarray, intercept_bound: int, seed_coefs):
        self.k = proj.p
        self.bounds = bounds.astype(np.int64)

        self.units, _ = loss_units(proj, cfg)
        n_pos = len(proj.pos_counts)
        self.cols = np.ascontiguousarray(
            np.concatenate([proj.pos_patterns, proj.neg_patterns]).T, dtype=np.int64)
        self.is_pos = np.arange(len(self.units)) < n_pos
        self.steps, self.start = exact_steps(self.units, n_pos)
        self.dtype = units_dtype(self.units)

        total_span = int(self.bounds.sum())
        self.l0b = int(min(intercept_bound, total_span + 1))
        self.grid_len = 2 * self.l0b + 1
        self.lam0_grid = np.arange(-self.l0b, self.l0b + 1)
        self.lam0_order = intercept_order(self.lam0_grid)

        self.base = np.zeros(len(self.units), dtype=np.int64)
        self.coef = np.zeros(self.k, dtype=np.int64)

        # branch on widely shared features first so patterns decouple from
        # the free set quickly; value order only affects speed, not results
        coverage = [(-int(self.units @ self.cols[j]), j) for j in range(self.k)]
        self.order = [j for _, j in sorted(coverage)]
        self.values = [
            sorted(range(-int(self.bounds[j]), int(self.bounds[j]) + 1),
                   key=lambda v, j=j: (abs(v - int(seed_coefs[j])), v))
            for j in range(self.k)
        ]

        # the children of depth d are bounded with the grouping by the free
        # features order[d + 1:], the last k - d - 1 in order
        groupings = list(refined_groups(self.cols, self.order[:0:-1], self.bounds))
        self.child_plans = [
            grouped_plan(self.steps, self.start, *groupings[self.k - d - 1],
                         self.cols[self.order[d]], int(self.bounds[self.order[d]]),
                         -self.l0b, self.grid_len)
            for d in range(self.k - 2)]
        self.leaf_plans = {}

        self.best = None  # (units, l1, coef tuple, intercept)

    # -- batched child bounds --------------------------------------------------

    def _child_bounds(self, depth):
        """The grouped bound of every child of the current node, for
        coefficient values -b .. b of feature order[depth]."""
        return grouped_bounds(self.child_plans[depth], self.base, self.dtype)

    # -- leaves ------------------------------------------------------------------

    def _leaf_plan(self, feats):
        """(loss.sibling_plan, l1 norms) of every value tuple of the sorted
        features feats, built on first use: a row moves by the values of
        the features it has set, so its bits on feats are its segment."""
        cached = self.leaf_plans.get(feats)
        if cached is None:
            bs = [int(self.bounds[j]) for j in feats]
            seg = sum((self.cols[j] << bit for bit, j in enumerate(feats)),
                      np.zeros(len(self.units), dtype=np.int64))
            moves = [[(cls >> bit) & 1 for bit in range(len(feats))] + [0]
                     for cls in range(1 << len(feats))]
            cached = self.leaf_plans[feats] = (
                sibling_plan(self.steps, self.start, seg, moves, bs, -self.l0b, self.grid_len),
                sum(np.ix_(*[np.abs(np.arange(-b, b + 1)) for b in bs]),
                    np.zeros((), dtype=np.int64)))
        return cached

    def _offer(self, feats, l1_fixed):
        """Make the best completion of the current node over the sorted
        features feats the incumbent if it beats it."""
        plan, absv = self._leaf_plan(feats)
        # axis l holds values -b .. b of feats[l], the last the intercept grid
        profile = sibling_curves(plan, self.base, self.dtype)
        units = profile.min(axis=-1)
        u = int(units.min())
        l1 = np.where(units == u, absv, np.iinfo(np.int64).max)
        key = (u, l1_fixed + int(l1.min()))
        if self.best is not None and key > self.best[:2]:
            return
        # axes follow position order and values ascend along each, so the
        # first tie is the smallest coefficient tuple
        idx = np.unravel_index(int(np.argmax(l1 == l1.min())), l1.shape)
        coef = self.coef.copy()
        for j, i in zip(feats, idx):
            coef[j] = int(i) - int(self.bounds[j])
        key += (tuple(int(c) for c in coef),)
        if self.best is None or key < self.best[:3]:
            _, lam0 = least_loss(profile[idx], self.lam0_grid, self.lam0_order)
            self.best = key + (int(lam0),)

    # -- search -----------------------------------------------------------------

    def _apply(self, j, v):
        if v:
            self.base += v * self.cols[j]
            self.coef[j] = v

    def _undo(self, j, v):
        if v:
            self.base -= v * self.cols[j]
            self.coef[j] = 0

    def seed(self, coefs):
        """Make the coefficients coefs, one per position, the incumbent."""
        for j, v in enumerate(coefs):
            self._apply(j, int(v))
        self._offer((), int(np.abs(self.coef).sum()))
        for j, v in enumerate(coefs):
            self._undo(j, int(v))

    def run(self, depth=0, l1_fixed=0):
        if self.k - depth <= 2:
            self._offer(tuple(sorted(self.order[depth:])), l1_fixed)
            return
        j = self.order[depth]
        b = int(self.bounds[j])
        child = self._child_bounds(depth).tolist()
        for v in self.values[j]:
            l1 = l1_fixed + abs(v)
            if (child[v + b], l1) > self.best[:2]:
                continue  # no completion can beat the incumbent key
            self._apply(j, v)
            self.run(depth + 1, l1)
            self._undo(j, v)


def polish(model: ScoringSystem, agg: AggregatedDataset, cfg: PenaltyConfig,
           lattice: LatticeSpec, cap: int = 12):
    """Re-optimize the model's nonzero coefficients to proven optimality.

    Returns (polished ScoringSystem, its ObjectiveValue under cfg). The
    output support is contained in the input support and the objective
    never increases.
    """
    model.validate_lattice(lattice)
    active = ActiveSet.of(model)
    if len(active) > cap:
        raise ValueError(f"active set of size {len(active)} exceeds the polish cap {cap}")

    proj = project_active(agg, active)
    bounds = lattice.bounds_for(agg.p)[list(active.indices)]
    start = [dict(model.terms)[j] for j in active.indices]
    # On three or more terms, the search over coefficients capped at half
    # their bounds is cheap and usually ends near the optimum; from its
    # incumbent, trying the values nearest it first, the full search prunes
    # more. On one or two terms the search is one leaf batch, which reads
    # no incumbent. Either way the result is the least key over the whole
    # lattice, whatever the incumbent.
    half = (bounds + 1) // 2
    if len(active) > 2 and (half < bounds).any():
        warm = _RestrictedSearch(proj, cfg, half, lattice.intercept_bound, start)
        warm.seed(start)
        warm.run()
        start = warm.best[2]
    search = _RestrictedSearch(proj, cfg, bounds, lattice.intercept_bound, start)
    if len(active) > 2:
        search.seed(start)
    search.run()

    units, _, coefs, lam0 = search.best
    names = dict(zip((j for j, _ in model.terms), model.term_names))
    dense = np.zeros(agg.p, dtype=np.int64)
    for j, c in zip(active.indices, coefs):
        dense[j] = c
    all_names = [names.get(j, f"f{j}") for j in range(agg.p)]
    polished = ScoringSystem.from_dense(lam0, dense, all_names)
    return polished, objective(polished, agg, cfg)
