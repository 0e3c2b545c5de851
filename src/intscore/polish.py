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

All loss curves come from the kernel in loss.py, over segments of the
projected patterns. The search prunes with a grouped relaxation that is
tighter than the per-pattern interval bound of the main solver: patterns
sharing the same mask over the still-free coefficients form one segment
and receive one shared unknown offset, so each segment contributes the
sliding-window minimum of its exact loss curve. Conflicting label pairs
always share a segment and are costed exactly by its curve, so they need
no folding into the step weights.

Bounds are computed for all siblings at once. The children of a node
differ only in the coefficient v of the feature j branched on, and v moves
the scores of exactly the rows with x_j = 1. So within each group of the
children's grouping, the loss curve of child v is c0(t) + c1(t + v), where
c0 and c1 are the curves of the group's x_j = 0 and x_j = 1 rows. Both come
from one kernel call over an offset grid widened by the bound of j; the
window minima and the intercept profile then run on all 2b+1 children
together, and give each child exactly the bound the per-node computation
gives it. The last two coefficients are not bounded: every value pair is
scored at once from four such curves.

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
from .loss import curve_plan, exact_steps, intercept_order, loss_curves, loss_units
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


def _sliding_min(rows: np.ndarray, w: int) -> np.ndarray:
    """Minimum over every length-w window along axis 1 (van Herk)."""
    if w == 1:
        return rows
    g, t = rows.shape
    nblocks = -(-t // w)
    pad = nblocks * w - t
    if pad:
        rows = np.concatenate([rows, np.full((g, pad), np.inf)], axis=1)
    blocks = rows.reshape(g, nblocks, w)
    pref = np.minimum.accumulate(blocks, axis=2).reshape(g, -1)
    suff = np.minimum.accumulate(blocks[:, :, ::-1], axis=2)[:, :, ::-1].reshape(g, -1)
    idx = np.arange(t - w + 1)
    return np.minimum(suff[:, idx], pref[:, idx + w - 1])


def _strided(arr: np.ndarray, start: int, steps, length: int) -> np.ndarray:
    """View v of C-contiguous arr with v[i_1, .., i_L, q] =
    arr.flat[start + sum(step_l * i_l) + q], i_l in range(n_l), for steps
    (step_l, n_l); numpy refuses a view that reaches past arr's buffer."""
    size = arr.itemsize
    return np.ndarray(tuple(n for _, n in steps) + (length,), arr.dtype, arr,
                      start * size, tuple(s * size for s, _ in steps) + (size,))


# elements per child-curve block: siblings are bounded in blocks of this
# size, which caps the memory of wide active sets
_CHUNK_ELEMENTS = 1 << 20


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
    k - 2 scores all its leaves at once (_offer). _bound_units is the
    per-node bound they reproduce.
    """

    def __init__(self, proj: AggregatedDataset, cfg: PenaltyConfig,
                 bounds: np.ndarray, intercept_bound: int, seed_coefs):
        self.k = proj.p
        self.bounds = bounds.astype(np.int64)

        self.units, _ = loss_units(proj, cfg)
        n_pos = len(proj.pos_counts)
        self.pats = np.concatenate([proj.pos_patterns, proj.neg_patterns],
                                   axis=0).astype(np.int64) \
            if self.k else np.zeros((len(self.units), 0), dtype=np.int64)
        self.cols = np.ascontiguousarray(self.pats.T)
        self.is_pos = np.arange(len(self.units)) < n_pos
        self.steps, self.start = exact_steps(self.units, n_pos)
        total = int(self.units.sum())
        self.dtype = np.int16 if total < 2 ** 15 else np.int32 if total < 2 ** 31 else np.int64

        total_span = int(self.bounds.sum())
        self.l0b = int(min(intercept_bound, total_span + 1))
        self.grid_len = 2 * self.l0b + 1
        self.lam0_grid = np.arange(-self.l0b, self.l0b + 1)
        self.lam0_pref = intercept_order(self.lam0_grid)

        self.base = np.zeros(len(self.pats), dtype=np.int64)
        self.coef = np.zeros(self.k, dtype=np.int64)

        # branch on widely shared features first so patterns decouple from
        # the free set quickly; value order only affects speed, not results
        coverage = [(-int((self.units * self.pats[:, j]).sum()), j) for j in range(self.k)]
        self.order = [j for _, j in sorted(coverage)]
        self.values = [
            sorted(range(-int(self.bounds[j]), int(self.bounds[j]) + 1),
                   key=lambda v, j=j: (abs(v - int(seed_coefs[j])), v))
            for j in range(self.k)
        ]

        # per-depth grouping by free-feature mask: membership, window sizes,
        # bucket row sets, and the loss-curve offset grid never change;
        # groups are numbered by window size so each bucket is a range.
        # Only the children of depths 0..k-3 are bounded, at depths 1..k-2.
        self.groups = {}
        for d in range(1, self.k - 1):
            free = self.order[d:]
            weights = 1 << np.arange(len(free), dtype=np.int64)
            masks = self.pats[:, free] @ weights
            gid, inverse = np.unique(masks, return_inverse=True)
            half = (np.bitwise_and.outer(gid, weights) > 0).astype(np.int64) \
                @ self.bounds[free]
            by_half = np.argsort(half, kind="stable")
            inverse, half = np.argsort(by_half)[inverse.ravel()], half[by_half]
            pad = int(half.max()) if len(half) else 0
            buckets = [(int(s), np.flatnonzero(half == s)) for s in np.unique(half)]
            self.groups[d] = {
                "inverse": np.ascontiguousarray(inverse, dtype=np.int64),
                "half": np.ascontiguousarray(half, dtype=np.int64),
                "n_groups": len(gid),
                "buckets": buckets,
                "pad": pad,
                "t_lo": -(self.l0b + pad),
                "t_len": 2 * (self.l0b + pad) + 1,
            }
        self.child_plans = [self._child_plan(d) for d in range(self.k - 2)]
        self.leaf_plans = {}

        self.best = None  # (units, l1, coef tuple, intercept)

    # -- per-node bound ----------------------------------------------------------

    def _bound_units(self, depth) -> int:
        """Grouped bound of the current node at `depth`, one node at a time;
        the reference that _child_bounds must reproduce."""
        grouping = self.groups[depth]
        plan = curve_plan(self.steps, self.start, grouping["inverse"], grouping["n_groups"],
                          grouping["t_lo"], grouping["t_len"])
        curves = loss_curves(plan, self.base)
        pad = grouping["pad"]
        profile = np.zeros(self.grid_len)
        for s, rows_idx in grouping["buckets"]:
            window_min = _sliding_min(curves[rows_idx], 2 * s + 1)
            start = pad - s
            profile += window_min[:, start:start + self.grid_len].sum(axis=0)
        return int(profile.min())

    # -- batched child bounds --------------------------------------------------

    def _child_plan(self, d):
        """What _child_bounds(d) needs that does not depend on the node."""
        j, grouping = self.order[d], self.groups[d + 1]
        b, n_groups, pad = int(self.bounds[j]), grouping["n_groups"], grouping["pad"]
        half, t_len = grouping["half"], grouping["t_len"]
        # a window of 2s+1 is the min of two overlapping windows of 2^K,
        # K = floor(log2(2s+1)); level k (windows of 2^k) is built only for
        # the groups from `first` on, which use it
        top = (2 * pad + 1).bit_length() - 1
        levels = [(int(np.searchsorted(2 * half + 1, 1 << k)), []) for k in range(top + 1)]
        for s in np.unique(half).tolist():
            g0, g1 = np.searchsorted(half, [s, s + 1]).tolist()
            k = (2 * s + 1).bit_length() - 1
            levels[k][1].append((g0, g1, pad - s, 2 * s + 1 - (1 << k)))
        segs = curve_plan(self.steps, self.start, self.cols[j] * n_groups + grouping["inverse"],
                          2 * n_groups, grouping["t_lo"] - b, t_len + 2 * b)
        return {"b": b, "n_groups": n_groups, "pad": pad, "t_len": t_len,
                "levels": levels, "segs": segs,
                "chunk": max(1, _CHUNK_ELEMENTS // (n_groups * t_len))}

    def _child_bounds(self, depth):
        """_bound_units(depth + 1) of every child of the current node, for
        coefficient values -b .. b of feature order[depth]."""
        plan = self.child_plans[depth]
        b, n_groups, t_len = plan["b"], plan["n_groups"], plan["t_len"]
        width = t_len + 2 * b
        curves = loss_curves(plan["segs"], self.base, self.dtype)
        bounds = np.empty(2 * b + 1, dtype=np.int64)
        for v0 in range(0, 2 * b + 1, plan["chunk"]):
            n_values = min(plan["chunk"], 2 * b + 1 - v0)
            size = n_groups * n_values * t_len
            # rows (group, child) of child curves c0(t) + c1(t + v), then a
            # tail that window reads of the last row may run into
            level = np.empty(size + 2 * plan["pad"], dtype=self.dtype)
            np.add(curves[:n_groups, None, b:b + t_len],
                   _strided(curves, n_groups * width + v0,
                            ((width, n_groups), (1, n_values)), t_len),
                   out=level[:size].reshape(n_groups, n_values, t_len))
            bounds[v0:v0 + n_values] = self._window_bounds(plan, level, n_values)
        return bounds

    def _window_bounds(self, plan, level, n_values):
        """Bound of each child from the flat child curves in level."""
        n_groups, t_len, grid = plan["n_groups"], plan["t_len"], self.grid_len
        row = n_values * t_len
        # The minimum of two shifted flat slices is much faster than of
        # shifted 3-D views. Entries that mix neighbouring rows, or come
        # from the tail, are never read into a bound.
        spare = np.empty_like(level)
        windows = np.empty(n_groups * row, dtype=self.dtype)
        for k, (first, buckets) in enumerate(plan["levels"]):
            if k:
                h, prev, level, spare = 1 << (k - 1), level, spare, level
                np.minimum(prev[first * row:-h], prev[first * row + h:],
                           out=level[first * row:-h])
            for g0, g1, a, shift in buckets:
                lo, hi = g0 * row + a, g1 * row + a
                np.minimum(level[lo:hi], level[lo + shift:hi + shift],
                           out=windows[g0 * row:g1 * row])
        profile = np.add.reduce(windows.reshape(n_groups, row), axis=0, dtype=self.dtype)
        return profile.reshape(n_values, t_len)[:, :grid].min(axis=1)

    # -- leaves ------------------------------------------------------------------

    def _leaf_plan(self, feats):
        """What _leaf_profiles(feats) needs that does not depend on the node."""
        plan = self.leaf_plans.get(feats)
        if plan is None:
            bs = [int(self.bounds[j]) for j in feats]
            seg = np.zeros(len(self.pats), dtype=np.int64)
            for bit, j in enumerate(feats):
                seg += self.cols[j] << bit
            span = sum(bs)
            plan = self.leaf_plans[feats] = {
                "bs": bs, "span": span,
                "absv": sum(np.ix_(*[np.abs(np.arange(-b, b + 1)) for b in bs]),
                            np.zeros((), dtype=np.int64)),
                "segs": curve_plan(self.steps, self.start, seg, 1 << len(feats),
                                   -self.l0b - span, self.grid_len + 2 * span),
            }
        return plan

    def _leaf_profiles(self, feats):
        """Loss units over the intercept grid of every completion that sets
        the features feats (coefficient zero in the current node) to each of
        their values: axis l holds values -b_l .. b_l of feats[l]."""
        plan = self._leaf_plan(feats)
        bs, span = plan["bs"], plan["span"]
        curves = loss_curves(plan["segs"], self.base, self.dtype)
        profile = np.zeros([2 * b + 1 for b in bs] + [self.grid_len], dtype=self.dtype)
        for cls in range(len(curves)):
            bits = [(cls >> bit) & 1 for bit in range(len(feats))]
            start = span - sum(bit * b for bit, b in zip(bits, bs))
            profile += _strided(curves, cls * curves.shape[1] + start,
                                [(bit, 2 * b + 1) for bit, b in zip(bits, bs)],
                                self.grid_len)
        return profile

    def _offer(self, feats, l1_fixed):
        """Make the best completion of the current node over the sorted
        features feats the incumbent if it beats it."""
        profile = self._leaf_profiles(feats)
        units = profile.min(axis=-1)
        u = int(units.min())
        l1 = np.where(units == u, self.leaf_plans[feats]["absv"], np.iinfo(np.int64).max)
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
            row = profile[idx]
            lam0 = self.lam0_grid[self.lam0_pref[np.argmin(row[self.lam0_pref])]]
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
