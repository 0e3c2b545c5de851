"""Exact integer loss units and loss-versus-offset curves.

Every weighted 0-1 loss the searches compute comes from here. Rows are the
distinct patterns of an aggregated dataset, positives first. Row i costs
units[i] when misclassified, and the weighted error is units / unit_den.

Adding an offset t to a row's score moves its loss in one step: a positive
row is lost while score + t <= 0 and a negative row once score + t >= 1, so
both step at t = 1 - score, down by the positive's units or up by the
negative's. A loss curve sums such steps over a set of rows. loss_curves
builds the curves of many disjoint segments of rows at once, from one
histogram of the step positions and one cumulative sum. Callers choose the
scores (exact ones for a leaf, optimistic ones for a bound) and the step
weights (a bound folds its conflict pairs into them).

sibling_curves scores at once the siblings that set a few coefficients to
every value: setting coefficient j to v moves exactly the rows with
x_j = 1, by v, so the rows fall in segments by which of the coefficients
they set. Moving a segment by d reads its curve d columns further on, so
one kernel call on a grid widened by the spread of the moves gives every
sibling's curve as a sum of strided views of the segment curves, one view
per segment, with one axis per coefficient. The widened grid and the views
depend only on the segments and on the bounds, not on the scores, so
sibling_plan builds them once. least_loss reads a curve's canonical
intercept, the one rule by which every search picks it. feature_leaves
scores the leaves that set one more coefficient, every value of every
feature at once: a leaf's curve is the curve of all rows minus that of
the rows setting the feature plus the latter read v columns on, and one
product of the rows' feature columns with their step weights, grouped by
step column, gives the histograms of all of them.

loss_curves, sibling_curves and grouped_bounds take the scores of many
nodes stacked on a leading node axis, as one pass: a search that expands
a whole depth of nodes pays the numpy calls once per block of nodes, not
once per node. Each node's histogram is summed on its own, so a node's
sums are as exact as when it is alone.

grouped_bounds bounds every completion of a node by a relaxation tighter
than letting each row's free coefficients reach their limits on their own.
Rows that agree on every free feature get the same free contribution, so
they form one group and share one unknown offset in [-H_g, H_g], H_g being
the sum of the bounds of the free features the group has set. Each group
then adds the least value of its exact loss curve over a window of 2 H_g + 1
offsets, and the node's bound is the least sum over the intercept grid.
Identical rows, and so every pair of rows that share a pattern but not a
label, fall in one group and are costed exactly. The relaxation is monotone
along a search path: fixing a free coefficient refines the groups and
narrows their windows. The children of a node that differ only in the value
v of one feature j are bounded together: within each group of the
children's grouping, child v's curve is c0(t) + c1(t + v), c0 and c1 being
the curves of the group's rows with x_j = 0 and x_j = 1, and both come from
one loss_curves call over a grid widened by the bound of j. refined_groups
builds the groupings one free feature at a time, from the deepest depth up.

Rows is the state both branch-and-bound searches, the solver's and
polish's, keep of one problem: the rows, the scores of the fixed
coefficients, and the plans above. Every curve and bound a search reads
spans one intercept grid, clipped to +-min(intercept bound, sum of all
coefficient bounds + 1): a score that adds an intercept beyond the
coefficient bounds' sum has the intercept's sign whatever the coefficients
are, so every row is lost or kept alike and no curve or bound changes out
there. A plan depends on the rows, the bounds and the branching order but
not on the scores, so Rows builds each one on its first use and keeps it.

All sums are taken in float64 and are exact: class_units rejects a weight
denominator for which the total units could reach 2**53.
"""

from __future__ import annotations

import math

import numpy as np

from .data import AggregatedDataset
from .model import PenaltyConfig

_EXACT = 2 ** 53
# elements per block of child or sibling curves: siblings, and the nodes
# whose siblings are scored together, are bounded in blocks of this size,
# which caps the memory of many groups or nodes on a wide grid
_CHUNK_ELEMENTS = 1 << 18
# the most elements one block of feature_leaves works on: rows times
# (features + step groups) for its product, features times values times
# intercepts for its curves
_LEAF_ELEMENTS = 1 << 16


def class_units(agg: AggregatedDataset, cfg: PenaltyConfig):
    """((unit_pos, unit_neg), unit_den): the integer cost of misclassifying
    one positive and one negative row, w+ den and w- den, and the
    denominator den N that turns units into weighted error. Since w+ + w- =
    2, all units sum to at most 2 * den * N, which must stay below 2**53
    for float64 sums to be exact."""
    den = math.lcm(cfg.w_plus.denominator, cfg.w_minus.denominator)
    n = agg.source_n
    if 2 * den * n >= _EXACT:
        raise ValueError(
            f"class weight denominator {den} is too large for exact loss sums "
            f"over {n} rows; the largest allowed is {(_EXACT - 1) // (2 * n)}")
    return (int(cfg.w_plus * den), int(cfg.w_minus * den)), den * n


def loss_units(agg: AggregatedDataset, cfg: PenaltyConfig):
    """(units, unit_den): the integer cost of misclassifying each row,
    positives first, its count times its class_units, and the denominator
    that turns units into weighted error."""
    (unit_pos, unit_neg), unit_den = class_units(agg, cfg)
    return np.concatenate([agg.pos_counts * unit_pos, agg.neg_counts * unit_neg]), unit_den


def exact_steps(units, n_pos: int):
    """(steps, start) for curve_plan when the scores are exact: the first
    n_pos rows are positives, lost below their step, and the rest are
    negatives, lost above it."""
    is_pos = np.arange(len(units)) < n_pos
    return np.where(is_pos, -units, units), np.where(is_pos, units, 0)


def intercept_grid(intercept_bound: int, bounds):
    """(grid, order): the intercepts -h .. h, h = min(intercept_bound, sum
    of the coefficient bounds + 1), as the module docstring clips them, and
    their tie order for least_loss: the smallest magnitude first, a
    negative intercept before a positive one."""
    half = min(intercept_bound, int(np.sum(bounds)) + 1)
    grid = np.arange(-half, half + 1)
    return grid, np.argsort(np.abs(grid) * 2 + (grid > 0), kind="stable")


def least_loss(curves: np.ndarray, grid: np.ndarray, order: np.ndarray):
    """(units, lam0) arrays: the least loss of each curve along its last
    axis, an intercept grid, and the canonical intercept, the first in
    order (intercept_grid's) among those reaching it."""
    return curves.min(axis=-1), grid[order[np.argmin(curves[..., order], axis=-1)]]


def curve_plan(steps, start, seg, n_seg: int, lo: int, width: int) -> dict:
    """What loss_curves needs that does not depend on the scores.

    steps[i] is row i's change in loss at its step and start[i] its loss
    below every step. seg[i] in 0 .. n_seg - 1 is row i's segment. The
    curves cover offsets lo .. lo + width - 1.
    """
    steps = np.asarray(steps, dtype=np.float64)
    # every row adds one step wherever its score puts it, so what the flat
    # cumsum carries into a segment from the ones before it is fixed
    totals = np.bincount(seg, weights=steps, minlength=n_seg)
    carried = np.cumsum(totals) - totals
    first = np.bincount(seg, weights=start, minlength=n_seg)
    return {"steps": steps, "seg_col": seg * (width + 1), "n_seg": n_seg,
            "lo": lo, "width": width, "offset": (first - carried)[:, None]}


def loss_curves(plan: dict, scores: np.ndarray, dtype=np.int64) -> np.ndarray:
    """Row s, column q: the loss units of segment s when every member score
    is scores + lo + q. Steps below the grid are clipped to column 0, those
    above it to a spill column that is dropped. scores of shape (n, rows)
    hold n nodes' scores, and the curves then gain a leading node axis;
    each node's histogram is summed on its own, so its sums stay as exact
    as one node's."""
    width, n_seg = plan["width"], plan["n_seg"]
    col = (1 - plan["lo"]) - scores
    # two ufuncs: np.clip's Python wrapper costs more than the clipping
    np.maximum(col, 0, out=col)
    np.minimum(col, width, out=col)
    col += plan["seg_col"]
    size = n_seg * (width + 1)
    if col.ndim == 1:
        hist = np.bincount(col, weights=plan["steps"], minlength=size)
        cum = np.cumsum(hist).reshape(n_seg, width + 1)
    else:
        nodes = len(col)
        col += np.arange(0, nodes * size, size)[:, None]
        hist = np.bincount(col.ravel(), weights=np.tile(plan["steps"], nodes),
                           minlength=nodes * size)
        cum = np.cumsum(hist.reshape(nodes, size), axis=1).reshape(nodes, n_seg, width + 1)
    curves = np.empty(cum.shape[:-1] + (width,), dtype=dtype)
    np.add(cum[..., :width], plan["offset"], out=curves, casting="unsafe")
    return curves


def sibling_plan(steps, start, seg, bs, lo: int, width: int) -> dict:
    """What sibling_curves needs that does not depend on the scores: the
    siblings set L coefficients to every v with v_l in -bs[l] .. bs[l].
    steps and start are as for curve_plan. Bit l of seg[i] says whether row
    i sets coefficient l, so its segment, one of 2^L, moves by the sum of
    the v_l of its bits. The siblings' curves cover offsets lo .. lo +
    width - 1. The views are worked out in Python ints, which cost less
    than numpy calls on plans this small."""
    reach, n_seg = sum(bs), 1 << len(bs)
    full = width + 2 * reach
    plan = curve_plan(steps, start, seg, n_seg, lo - reach, full)
    # segment s's view starts at its move in sibling v = -bs
    bits = [[s >> l & 1 for l in range(len(bs))] for s in range(n_seg)]
    plan["views"] = [(s * full + reach - sum(x * b for x, b in zip(bits[s], bs)),
                      [(x, 2 * b + 1) for x, b in zip(bits[s], bs)]) for s in range(n_seg)]
    plan["length"] = width
    # the nodes whose segment and sibling curves one block holds
    siblings = math.prod(2 * b + 1 for b in bs)
    plan["nodes"] = max(1, _CHUNK_ELEMENTS // (n_seg * (full + 1) + siblings * width))
    return plan


def sibling_curves(plan: dict, scores: np.ndarray, dtype=np.int64) -> np.ndarray:
    """Loss curves of the siblings of plan, scores being every row's score
    before its segment moves: entry [i_0, .., i_{L-1}, q] is the loss units
    of sibling v_l = i_l - bs[l] with every score further moved by lo + q.
    dtype must hold every sum of the loss units. scores of shape (n, rows)
    give every node's siblings, under a leading node axis."""
    curves = loss_curves(plan, scores, dtype)
    nodes = [(curves[0].size, len(curves))] if curves.ndim > 2 else []
    views = [strided(curves, first, nodes + steps, plan["length"])
             for first, steps in plan["views"]]
    out = views[0] if len(views) == 1 else views[0] + views[1]
    for view in views[2:]:
        out += view
    return out


def feature_leaves(cols, steps, start, scores, b: int, grid, order, dtype):
    """(units, lam0), two (P, 2 b + 1) arrays: entry [j, i] is least_loss of
    the leaf that adds v = i - b times feature j's column to scores, for
    every one of the P features of cols (P, rows) at once. steps and start
    are as for curve_plan, grid and order as for least_loss.

    A leaf's curve over the offsets t is C(t) - C_j(t) + C_j(t + v), C
    being the curve of every row and C_j that of the rows setting j. The
    rows are grouped by their step's column on the grid widened by b, a
    bincount compaction, so one float64 product of the rows' feature
    columns (and a column of ones for C) with the groups' step weights
    gives every histogram at once, in blocks of rows. Each leaf curve is
    then a strided view, and least_loss runs on blocks of features. Both
    kinds of block hold at most _LEAF_ELEMENTS elements. Every partial sum
    is a sum of some rows' steps or starts, so it is exact in float64."""
    p, length = len(cols), len(grid)
    lo, width = int(grid[0]) - b, length + 2 * b
    col = (1 - lo) - scores
    np.maximum(col, 0, out=col)
    np.minimum(col, width, out=col)
    present = np.bincount(col, minlength=width + 1) > 0
    group = (np.cumsum(present) - 1)[col]
    n_groups = int(present.sum())
    hist = np.zeros((p + 1, n_groups + 1))  # the last column sums the starts
    step = max(1, _LEAF_ELEMENTS // (p + n_groups + 2))
    for r in range(0, len(col), step):
        rows, n = slice(r, r + step), min(step, len(col) - r)
        x = np.empty((p + 1, n))
        x[:p], x[p] = cols[:, rows], 1
        weights = np.zeros((n, n_groups + 1))
        weights[np.arange(n), group[rows]] = steps[rows]
        weights[:, n_groups] = start[rows]
        hist += x @ weights
    wide = np.zeros((p + 1, width))
    wide[:, np.flatnonzero(present[:width])] = hist[:, :present[:width].sum()]
    curves = np.cumsum(wide, axis=1)
    curves += hist[:, -1:]
    unmoved = curves[p, b:b + length] - curves[:p, b:b + length]
    moved = strided(curves, 0, ((width, p), (1, 2 * b + 1)), length)
    units, lam0 = np.empty((2, p, 2 * b + 1), dtype=np.int64)
    block = max(1, _LEAF_ELEMENTS // ((2 * b + 1) * length))
    for f in range(0, p, block):
        part = np.empty((min(block, p - f), 2 * b + 1, length), dtype=dtype)
        np.add(unmoved[f:f + block, None], moved[f:f + block], out=part, casting="unsafe")
        units[f:f + block], lam0[f:f + block] = least_loss(part, grid, order)
    return units, lam0


def refined_groups(cols, feats, bounds):
    """Groupings of the rows by their values on ever more features.

    Yields (inverse, half) for feats[:m], m = 0 .. len(feats): row i is in
    group inverse[i], and half[g] is the offset reach of group g, the sum of
    bounds[j] over those features j its rows have set. Each grouping splits
    the one before it by the next feature j, numbering the new groups by
    2 g + x_j compacted, so no mask is packed into bits and any number of
    features works."""
    inverse = np.zeros(cols.shape[1], dtype=np.int64)
    half = np.zeros(1, dtype=np.int64)
    yield inverse, half
    for j in feats:
        code = 2 * inverse + cols[j]
        present = np.bincount(code, minlength=2 * len(half)) > 0
        inverse = (np.cumsum(present) - 1)[code]
        code = np.flatnonzero(present)
        half = half[code >> 1] + int(bounds[j]) * (code & 1)
        yield inverse, half


def strided(arr: np.ndarray, start: int, steps, length: int) -> np.ndarray:
    """View v of C-contiguous arr with v[i_1, .., i_L, q] =
    arr.flat[start + sum(step_l * i_l) + q], i_l in range(n_l), for steps
    (step_l, n_l); numpy refuses a view that reaches past arr's buffer."""
    size = arr.itemsize
    return np.ndarray(tuple(n for _, n in steps) + (length,), arr.dtype, arr,
                      start * size, tuple(s * size for s, _ in steps) + (size,))


def grouped_plan(steps, start, inverse, half, col, b: int, lo: int, length: int) -> dict:
    """What grouped_bounds needs that does not depend on the scores.

    steps and start are as for curve_plan. (inverse, half) groups the rows
    as refined_groups does, for the children's free features. The children
    set a feature with column col to each value v in -b .. b; col zero and
    b = 0 bound the node itself. The bounds are least over the intercepts
    lo .. lo + length - 1."""
    # groups are numbered by window size, so the groups of one size are a range
    by_half = np.argsort(half, kind="stable")
    rank = np.empty_like(by_half)
    rank[by_half] = np.arange(len(by_half))
    inverse, half = rank[inverse], half[by_half]
    n_groups, pad = len(half), int(half[-1])
    t_len = length + 2 * pad
    # a window of 2s+1 is the min of two overlapping windows of 2^K,
    # K = floor(log2(2s+1)); level k (windows of 2^k) is built only for
    # the groups from `first` on, which use it
    top = (2 * pad + 1).bit_length() - 1
    levels = [(int(np.searchsorted(2 * half + 1, 1 << k)), []) for k in range(top + 1)]
    starts = np.flatnonzero(np.diff(half, prepend=-1)).tolist()
    for g0, g1 in zip(starts, starts[1:] + [n_groups]):
        s = int(half[g0])
        k = (2 * s + 1).bit_length() - 1
        levels[k][1].append((g0, g1, pad - s, 2 * s + 1 - (1 << k)))
    segs = curve_plan(steps, start, col * n_groups + inverse, 2 * n_groups,
                      lo - pad - b, t_len + 2 * b)
    # the children one block holds, and the nodes whose every child it holds
    chunk = max(1, _CHUNK_ELEMENTS // (n_groups * t_len))
    return {"b": b, "n_groups": n_groups, "pad": pad, "t_len": t_len, "grid": length,
            "levels": levels, "segs": segs, "chunk": chunk, "nodes": max(1, chunk // (2 * b + 1))}


def grouped_bounds(plan: dict, scores: np.ndarray, dtype, first: int = 0,
                   count: int = None) -> np.ndarray:
    """The grouped bound, in loss units, of the children plan was built for
    whose value v = i - b has i in first .. first + count - 1 (all by
    default), scores being the node's scores. scores of shape (n, rows)
    bound the children of n nodes at once: the result is (n, count), and a
    block holds every node's children of a few values. dtype must hold
    every sum of the loss units."""
    b, n_groups, t_len = plan["b"], plan["n_groups"], plan["t_len"]
    count = 2 * b + 1 - first if count is None else count
    width = t_len + 2 * b
    curves = loss_curves(plan["segs"], scores, dtype)
    if curves.ndim == 2:
        n, chunk, nodes, c0 = 1, plan["chunk"], (), curves[:n_groups, None, b:b + t_len]
    else:
        n = len(curves)
        chunk, nodes = max(1, plan["chunk"] // n), ((2 * n_groups * width, n),)
        c0 = curves[:, :n_groups, b:b + t_len].transpose(1, 0, 2)[:, :, None]
    bounds = np.empty(scores.shape[:-1] + (count,), dtype=np.int64)
    for v0 in range(first, first + count, chunk):
        n_values = min(chunk, first + count - v0)
        size = n_groups * n * n_values * t_len
        # rows (group, node, child) of child curves c0(t) + c1(t + v), then
        # a tail that window reads of the last row may run into
        level = np.empty(size + 2 * plan["pad"], dtype=dtype)
        c1 = strided(curves, n_groups * width + v0,
                     ((width, n_groups),) + nodes + ((1, n_values),), t_len)
        np.add(c0, c1, out=level[:size].reshape(c1.shape))
        window = _window_bounds(plan, level, n * n_values)
        bounds[..., v0 - first:v0 - first + n_values] = \
            window if n == 1 else window.reshape(n, n_values)
    return bounds


def _window_bounds(plan, level, n_values):
    """Bound of each child from the flat child curves in level."""
    n_groups, t_len, grid = plan["n_groups"], plan["t_len"], plan["grid"]
    row = n_values * t_len
    # The minimum of two shifted flat slices is much faster than of
    # shifted 3-D views. Entries that mix neighbouring rows, or come
    # from the tail, are never read into a bound.
    spare = np.empty_like(level)
    windows = np.empty(n_groups * row, dtype=level.dtype)
    for k, (first, buckets) in enumerate(plan["levels"]):
        if k:
            h, prev, level, spare = 1 << (k - 1), level, spare, level
            np.minimum(prev[first * row:-h], prev[first * row + h:],
                       out=level[first * row:-h])
        for g0, g1, a, shift in buckets:
            lo, hi = g0 * row + a, g1 * row + a
            np.minimum(level[lo:hi], level[lo + shift:hi + shift],
                       out=windows[g0 * row:g1 * row])
    profile = np.add.reduce(windows.reshape(n_groups, row), axis=0, dtype=level.dtype)
    return profile.reshape(n_values, t_len)[:, :grid].min(axis=1)


class Rows:
    """The rows of one problem as a value-level branch and bound keeps them.

    The rows are the distinct patterns of agg, positives first: units and
    unit_den are loss_units', cols holds the features by column, and steps
    (float64, as curve_plan takes them) and start are exact_steps'. dtype
    is the narrowest unsigned integer type that holds every sum of the
    units: no curve or bound is ever negative, and uint16 holds a
    paper-scale dataset's total at w+ = 1, where int16 does not. Every
    curve reads lam0_grid, the intercepts -grid_half .. grid_half of
    intercept_grid, and least_loss ranks them by its lam0_order.

    base holds every row's score under the coefficients the search has
    fixed: move(j, v) fixes coefficient j at v and move(j, -v) frees it
    again. branch() sets the branching order and the groupings that bound
    the children of each depth. leaf_plan and child_plan build their
    plans on first use and keep them.
    """

    def __init__(self, agg: AggregatedDataset, cfg: PenaltyConfig, bounds,
                 intercept_bound: int):
        self.bounds = np.asarray(bounds, dtype=np.int64)
        self.units, self.unit_den = loss_units(agg, cfg)
        self.n_pos = agg.n_pos_patterns
        self.cols = np.ascontiguousarray(
            np.concatenate([agg.pos_patterns, agg.neg_patterns]).T, dtype=np.int64)
        steps, self.start = exact_steps(self.units, self.n_pos)
        self.steps = steps.astype(np.float64)
        total = int(self.units.sum())
        self.dtype = np.uint16 if total < 2 ** 16 else np.uint32 if total < 2 ** 32 else np.uint64
        self.lam0_grid, self.lam0_order = intercept_grid(intercept_bound, self.bounds)
        self.grid_half = int(self.lam0_grid[-1])
        self.base = np.zeros(len(self.units), dtype=np.int64)
        self._row = np.empty_like(self.base)  # scratch for move
        self._leaf_plans, self._child_plans = {}, {}

    def move(self, j, v):
        """Add v times column j to base."""
        np.multiply(self.cols[j], v, out=self._row)
        self.base += self._row

    def branch(self, order, fits=None, top=0):
        """Branch in order: depth d fixes feature order[d]. groupings[d]
        groups the rows by the free features order[d:], as refined_groups
        does, for every depth d from the deepest up to top, stopping at the
        first grouping whose offset reaches fits refuses."""
        self.order = order
        self.groupings = {}
        for d, grouping in zip(range(len(order), top - 1, -1),
                               refined_groups(self.cols, order[::-1], self.bounds)):
            if fits is not None and not fits(grouping[1]):
                break
            self.groupings[d] = grouping

    def leaf_plan(self, feats):
        """The sibling_plan of the leaves that set the sorted features feats
        to every value tuple: a row moves by the values of the features it
        has set, so its bits on feats are its segment."""
        plan = self._leaf_plans.get(feats)
        if plan is None:
            seg = sum((self.cols[j] << bit for bit, j in enumerate(feats)),
                      np.zeros(len(self.units), dtype=np.int64))
            plan = self._leaf_plans[feats] = sibling_plan(
                self.steps, self.start, seg, [int(self.bounds[j]) for j in feats],
                -self.grid_half, len(self.lam0_grid))
        return plan

    def leaf_curves(self, feats, scores=None):
        """sibling_curves of leaf_plan(feats) at base, or at the (n, rows)
        scores of n nodes under a leading node axis: axis l holds the
        values -b .. b of feats[l], the last axis the intercept grid."""
        return sibling_curves(self.leaf_plan(feats),
                              self.base if scores is None else scores, self.dtype)

    def child_plan(self, depth):
        """The grouped_plan of the children of a node at depth, which set
        feature j = order[depth] to each value -b .. b, b its bound. Their
        free features are order[depth + 1:], grouped by groupings[depth + 1]."""
        plan = self._child_plans.get(depth)
        if plan is None:
            j = self.order[depth]
            plan = self._child_plans[depth] = grouped_plan(
                self.steps, self.start, *self.groupings[depth + 1], self.cols[j],
                int(self.bounds[j]), -self.grid_half, len(self.lam0_grid))
        return plan

    def child_bounds(self, depth, first=0, count=None, scores=None):
        """grouped_bounds of the children of the current node at depth that
        set order[depth] to the values -b + first .. -b + first + count - 1
        (all 2 b + 1 by default), or of every child of the n nodes whose
        (n, rows) scores are given, under a leading node axis."""
        return grouped_bounds(self.child_plan(depth), self.base if scores is None else scores,
                              self.dtype, first, count)
