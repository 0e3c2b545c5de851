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

sibling_curves scores many sibling score vectors at once when they differ
only by whole segments moving by amounts linear in the values of a few
coefficients: setting coefficient j to v moves exactly the rows with
x_j = 1, by v. Moving a segment by d reads its curve d columns further on,
so one kernel call on a grid widened by the spread of the moves gives every
sibling's curve as a sum of strided views of the segment curves, one view
per segment, with one axis per coefficient. The widened grid and the views
depend only on the segments and on the moves, not on the scores, so
sibling_plan builds them once. least_loss reads a curve's canonical
intercept, the one rule by which every search picks it.

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

The intercept grid of a grouped bound may be clipped to
+-min(intercept bound, sum of all coefficient bounds + 1): a score that
adds an intercept beyond the coefficient bounds' sum has the intercept's
sign whatever the coefficients are, so every row is lost or kept alike and
the bound is the same at every intercept out there.

All sums are taken in float64 and are exact: loss_units rejects a weight
denominator for which the total units could reach 2**53.
"""

from __future__ import annotations

import math

import numpy as np

from .data import AggregatedDataset
from .model import PenaltyConfig

_EXACT = 2 ** 53


def loss_units(agg: AggregatedDataset, cfg: PenaltyConfig):
    """(units, unit_den): the integer cost of misclassifying each row,
    positives first, and the denominator that turns units into weighted
    error. Since w+ + w- = 2, all units sum to at most 2 * den * N, which
    must stay below 2**53 for float64 sums to be exact."""
    den = math.lcm(cfg.w_plus.denominator, cfg.w_minus.denominator)
    n = agg.source_n
    if 2 * den * n >= _EXACT:
        raise ValueError(
            f"class weight denominator {den} is too large for exact loss sums "
            f"over {n} rows; the largest allowed is {(_EXACT - 1) // (2 * n)}")
    units = np.concatenate([agg.pos_counts * int(cfg.w_plus * den),
                            agg.neg_counts * int(cfg.w_minus * den)])
    return units, den * n


def exact_steps(units, n_pos: int):
    """(steps, start) for curve_plan when the scores are exact: the first
    n_pos rows are positives, lost below their step, and the rest are
    negatives, lost above it."""
    is_pos = np.arange(len(units)) < n_pos
    return np.where(is_pos, -units, units), np.where(is_pos, units, 0)


def intercept_order(grid: np.ndarray) -> np.ndarray:
    """Positions of an intercept grid in tie-break order: the smallest
    magnitude first, a negative intercept before a positive one."""
    return np.argsort(np.abs(grid) * 2 + (grid > 0), kind="stable")


def least_loss(curves: np.ndarray, grid: np.ndarray, order: np.ndarray):
    """(units, lam0) arrays: the least loss of each curve along its last
    axis, an intercept grid, and the canonical intercept, the first in
    order = intercept_order(grid) among those reaching it."""
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
    above it to a spill column that is dropped."""
    width, n_seg = plan["width"], plan["n_seg"]
    col = (1 - plan["lo"]) - scores
    # two ufuncs: np.clip's Python wrapper costs more than the clipping
    np.maximum(col, 0, out=col)
    np.minimum(col, width, out=col)
    col += plan["seg_col"]
    hist = np.bincount(col, weights=plan["steps"], minlength=n_seg * (width + 1))
    cum = np.cumsum(hist).reshape(n_seg, width + 1)
    curves = np.empty((n_seg, width), dtype=dtype)
    np.add(cum[:, :width], plan["offset"], out=curves, casting="unsafe")
    return curves


def sibling_plan(steps, start, seg, moves, bs, lo: int, width: int) -> dict:
    """What sibling_curves needs that does not depend on the scores: the
    siblings set L coefficients to every v with v_l in -bs[l] .. bs[l].
    steps, start and seg are as for curve_plan, with one segment per entry
    of moves: in sibling v segment s moves by moves[s][L] + sum over l of
    moves[s][l] * v_l. The siblings' curves cover offsets lo .. lo + width
    - 1. The views are worked out in Python ints, which cost less than
    numpy calls on plans this small."""
    views, low, high = [], 0, 0
    for m in moves:
        head, reach = m[-1], 0
        for m_l, b in zip(m, bs):
            head, reach = head - m_l * b, reach + abs(m_l) * b
        views.append((head, [(m_l, 2 * b + 1) for m_l, b in zip(m, bs)]))
        low, high = min(low, m[-1] - reach), max(high, m[-1] + reach)
    full = width + high - low
    plan = curve_plan(steps, start, seg, len(moves), lo + low, full)
    # segment s's view starts at the move head of sibling v = -bs
    plan["views"] = [(s * full + head - low, axes) for s, (head, axes) in enumerate(views)]
    plan["length"] = width
    return plan


def sibling_curves(plan: dict, scores: np.ndarray, dtype=np.int64) -> np.ndarray:
    """Loss curves of the siblings of plan, scores being every row's score
    before its segment moves: entry [i_0, .., i_{L-1}, q] is the loss units
    of sibling v_l = i_l - bs[l] with every score further moved by lo + q.
    dtype must hold every sum of the loss units."""
    curves = loss_curves(plan, scores, dtype)
    views = [strided(curves, first, steps, plan["length"]) for first, steps in plan["views"]]
    out = views[0] if len(views) == 1 else views[0] + views[1]
    for view in views[2:]:
        out += view
    return out


def units_dtype(units) -> type:
    """The narrowest integer type that holds every sum of the loss units."""
    total = int(np.sum(units))
    return np.int16 if total < 2 ** 15 else np.int32 if total < 2 ** 31 else np.int64


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


# elements per child-curve block: siblings are bounded in blocks of this
# size, which caps the memory of many groups on a wide grid
_CHUNK_ELEMENTS = 1 << 20


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
    return {"b": b, "n_groups": n_groups, "pad": pad, "t_len": t_len, "grid": length,
            "levels": levels, "segs": segs,
            "chunk": max(1, _CHUNK_ELEMENTS // (n_groups * t_len))}


def grouped_bounds(plan: dict, scores: np.ndarray, dtype, first: int = 0,
                   count: int = None) -> np.ndarray:
    """The grouped bound, in loss units, of the children plan was built for
    whose value v = i - b has i in first .. first + count - 1 (all by
    default), scores being the node's scores. dtype must hold every sum
    of the loss units."""
    b, n_groups, t_len = plan["b"], plan["n_groups"], plan["t_len"]
    count = 2 * b + 1 - first if count is None else count
    width = t_len + 2 * b
    curves = loss_curves(plan["segs"], scores, dtype)
    bounds = np.empty(count, dtype=np.int64)
    for v0 in range(first, first + count, plan["chunk"]):
        n_values = min(plan["chunk"], first + count - v0)
        size = n_groups * n_values * t_len
        # rows (group, child) of child curves c0(t) + c1(t + v), then a
        # tail that window reads of the last row may run into
        level = np.empty(size + 2 * plan["pad"], dtype=dtype)
        np.add(curves[:n_groups, None, b:b + t_len],
               strided(curves, n_groups * width + v0,
                       ((width, n_groups), (1, n_values)), t_len),
               out=level[:size].reshape(n_groups, n_values, t_len))
        bounds[v0 - first:v0 - first + n_values] = _window_bounds(plan, level, n_values)
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
