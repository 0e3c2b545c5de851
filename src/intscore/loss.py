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

shifted_curves scores many sibling score vectors at once when they differ
only by whole segments moving by fixed amounts, as when one coefficient
takes each of its values: setting coefficient j to v moves exactly the rows
with x_j = 1, by v. Moving a segment by d reads its curve d columns
further on, so one kernel call on a grid widened by the spread of the moves
gives every sibling's curve as a sum of shifted segment curves. The widened
grid depends only on the segments and on the range of the moves, not on
the scores, so shift_plan builds it once for every value a coefficient can
take, and each shifted_curves call reads the siblings it is asked for.

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


def curve_plan(steps, start, seg, n_seg: int, lo: int, width: int) -> dict:
    """What loss_curves needs that does not depend on the scores.

    steps[i] is row i's change in loss at its step and start[i] its loss
    below every step. seg[i] in 0 .. n_seg - 1 is row i's segment (None puts
    every row in one segment). The curves cover offsets lo .. lo + width - 1.
    """
    steps = np.asarray(steps, dtype=np.float64)
    if seg is None:
        seg, seg_col = np.zeros(len(steps), dtype=np.int64), 0
    else:
        seg_col = seg * (width + 1)
    # every row adds one step wherever its score puts it, so what the flat
    # cumsum carries into a segment from the ones before it is fixed
    totals = np.bincount(seg, weights=steps, minlength=n_seg)
    carried = np.cumsum(totals) - totals
    first = np.bincount(seg, weights=start, minlength=n_seg)
    return {"steps": steps, "seg_col": seg_col, "n_seg": n_seg,
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


def shift_plan(steps, start, seg, n_seg: int, lo: int, width: int,
               low: int, high: int) -> dict:
    """What shifted_curves needs that does not depend on the scores or on
    which siblings are read: a curve_plan widened so that every segment
    move in low .. high stays on the grid. steps, start, seg and n_seg are
    as for curve_plan; the siblings' curves cover offsets lo .. lo + width
    - 1."""
    plan = curve_plan(steps, start, seg, n_seg, lo + low, width + high - low)
    plan["cols"] = np.arange(width) - low
    return plan


def shifted_curves(plan: dict, scores: np.ndarray, shifts) -> np.ndarray:
    """Loss curves of sibling score vectors that differ by segment moves.

    Sibling c is scores with every row i moved by shifts[c, seg[i]], seg as
    given to shift_plan. Row c, column q: the loss units of sibling c when
    every score is further moved by lo + q. shifts has one column per
    segment, at least one row, and every entry in the plan's low .. high.
    """
    shifts = np.asarray(shifts, dtype=np.int64)
    curves = loss_curves(plan, scores)
    # one segment at a time keeps the working set to two sibling-by-width arrays
    cols = plan["cols"]
    out = curves[0, shifts[:, :1] + cols]
    for s in range(1, plan["n_seg"]):
        out += curves[s, shifts[:, s:s + 1] + cols]
    return out
