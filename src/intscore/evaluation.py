"""Class-based accuracy, cost-weight sweeps, calibration, model selection.

A sweep traces out an ROC curve by re-training at a grid of positive-class
weights: for each weight it solves on the five fold-training sets plus the
full training set, polishes every pooled solution, tunes the term count by
mean weighted validation error, and evaluates the chosen full-training
model on the held-out test rows. Weight endpoints 0 and 2 are served by
the constant classifiers directly since no validated penalty configuration
exists there.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from .common import as_fraction, frac_float, frac_str
from .data import BinaryDataset, FoldAssignment, aggregate
from .model import (
    LatticeSpec,
    PenaltyConfig,
    ScoringSystem,
    trivial_model,
)
from .polish import polish
from .solver import SolveConfig, solve

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def tpr(self) -> Optional[Fraction]:
        pos = self.tp + self.fn
        return Fraction(self.tp, pos) if pos else None

    @property
    def fpr(self) -> Optional[Fraction]:
        neg = self.fp + self.tn
        return Fraction(self.fp, neg) if neg else None

    def to_json(self) -> dict:
        return {"tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn,
                "tpr": None if self.tpr is None else frac_str(self.tpr),
                "fpr": None if self.fpr is None else frac_str(self.fpr)}


def confusion(model: ScoringSystem, dataset: BinaryDataset) -> ConfusionCounts:
    """Exact confusion counts of the model's predictions."""
    pred = model.predictions(dataset.X)
    pos = dataset.y == 1
    tp = int(np.sum(pred[pos] == 1))
    fn = int(np.sum(pred[pos] == -1))
    fp = int(np.sum(pred[~pos] == 1))
    tn = int(np.sum(pred[~pos] == -1))
    return ConfusionCounts(tp, fp, tn, fn)


def weighted_error(model: ScoringSystem, dataset: BinaryDataset,
                   w_plus, w_minus) -> Fraction:
    counts = confusion(model, dataset)
    return (as_fraction(w_plus) * counts.fn
            + as_fraction(w_minus) * counts.fp) / dataset.n


def auc(points) -> Fraction:
    """Trapezoidal area through the points plus the (0,0) and (1,1) anchors."""
    cleaned = []
    for fpr, tpr in points:
        x, y = as_fraction(fpr), as_fraction(tpr)
        if not (0 <= x <= 1 and 0 <= y <= 1):
            raise ValueError(f"ROC point ({x}, {y}) outside the unit square")
        cleaned.append((x, y))
    cleaned.sort()
    cleaned = [(Fraction(0), Fraction(0))] + cleaned + [(Fraction(1), Fraction(1))]
    area = Fraction(0)
    for (x1, y1), (x2, y2) in zip(cleaned, cleaned[1:]):
        area += (x2 - x1) * (y1 + y2) / 2
    return area


# ---------------------------------------------------------------------------
# sweep protocol
# ---------------------------------------------------------------------------

def _grid(start: Fraction, step: Fraction, count: int):
    return tuple(start + step * i for i in range(count))


PRESET_GRIDS = {
    "balanced": _grid(Fraction(1, 10), Fraction(1, 10), 19),
    "imbalanced": _grid(Fraction(363, 200), Fraction(1, 200), 37),
    "extreme": _grid(Fraction(395, 200), Fraction(1, 1000), 21),
}


@dataclass(frozen=True)
class SweepProtocol:
    """Grid and tuning settings for one ROC sweep."""

    w_plus_grid: tuple
    cv_folds: int = 5
    pool_size: int = 500
    sparsity_grid: tuple = tuple(range(1, 9))

    def __post_init__(self):
        grid = tuple(as_fraction(w) for w in self.w_plus_grid)
        if not grid:
            raise ValueError("weight grid must be nonempty")
        for w in grid:
            if not (0 <= w <= 2):
                raise ValueError(f"positive-class weight {w} outside [0, 2]")
        ks = tuple(int(k) for k in self.sparsity_grid)
        if not ks or any(k < 1 for k in ks):
            raise ValueError("sparsity grid must contain positive term counts")
        if self.cv_folds < 2:
            raise ValueError("cross-validation needs at least 2 folds")
        object.__setattr__(self, "w_plus_grid", grid)
        object.__setattr__(self, "sparsity_grid", ks)

    @staticmethod
    def preset(name: str, **kw) -> "SweepProtocol":
        if name not in PRESET_GRIDS:
            raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESET_GRIDS)}")
        return SweepProtocol(PRESET_GRIDS[name], **kw)


@dataclass(frozen=True)
class SweepPoint:
    w_plus: Fraction
    status: str  # ok | trivial | failed
    model: Optional[ScoringSystem]
    chosen_k: Optional[int]
    test: Optional[ConfusionCounts]
    val_tpr: Optional[Fraction]
    val_fpr: Optional[Fraction]
    val_weighted_error: Optional[Fraction]
    error: Optional[str] = None

    @property
    def model_id(self) -> str:
        return f"w+={frac_str(self.w_plus)}"

    def to_json(self) -> dict:
        doc = {"w_plus": frac_str(self.w_plus), "status": self.status,
               "model_id": self.model_id}
        if self.model is not None:
            doc["model"] = json.loads(self.model.to_json())
            doc["chosen_k"] = self.chosen_k
            doc["test"] = self.test.to_json()
            doc["val_tpr"] = frac_str(self.val_tpr)
            doc["val_fpr"] = frac_str(self.val_fpr)
            doc["val_weighted_error"] = frac_str(self.val_weighted_error)
        if self.error:
            doc["error"] = self.error
        return doc


@dataclass(frozen=True)
class RocCurve:
    """Operating points (one per weight) and their anchored trapezoid AUC."""

    points: tuple  # (w_plus, fpr, tpr, model_id)
    auc: Fraction

    def to_json(self) -> dict:
        return {"points": [{"w_plus": frac_str(w), "fpr": frac_str(f),
                            "tpr": frac_str(t), "model_id": m}
                           for w, f, t, m in self.points],
                "auc": frac_str(self.auc)}

    def to_csv(self) -> str:
        lines = ["w_plus,fpr,tpr,model_id"]
        for w, f, t, m in self.points:
            lines.append(f"{frac_str(w)},{frac_float(f)},{frac_float(t)},{m}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SweepResult:
    points: tuple  # SweepPoint, one per grid entry, grid order

    def curve(self) -> RocCurve:
        ok = [p for p in self.points if p.model is not None]
        pts = tuple((p.w_plus, p.test.fpr, p.test.tpr, p.model_id) for p in ok)
        return RocCurve(pts, auc((f, t) for _, f, t, _ in pts))

    def to_json(self) -> dict:
        return {"points": [p.to_json() for p in self.points],
                "auc": frac_str(self.curve().auc)}


def _polished_pool(pool, agg, cfg, lattice):
    """Polish every pool entry, de-duplicate, order by (total, coefficients).

    The polished result is determined by the entry's support alone, so each
    distinct support is optimized once, from its first entry, and no other
    entry is built.
    """
    seen = {}
    for model, _ in pool.first_per_support():
        out, value = polish(model, agg, cfg, lattice)
        key = out.key()
        if key not in seen or value.total < seen[key][1].total:
            seen[key] = (out, value)
    return sorted(seen.values(), key=lambda mv: (mv[1].total, mv[0].key()))


def _best_at_k(entries, k):
    for model, value in entries:
        if model.l0 <= k:
            return model, value
    return None


def _sweep_point(dataset: BinaryDataset, folds: FoldAssignment,
                 protocol: SweepProtocol, lattice: LatticeSpec,
                 scfg: SolveConfig, max_terms: int, w_plus) -> SweepPoint:
    w_plus = as_fraction(w_plus)
    test_ds = dataset.subset(folds.test_mask)

    if w_plus == 0 or w_plus == 2:
        model = trivial_model(dataset.p, positive=(w_plus == 2))
        test = confusion(model, test_ds)
        train_counts = confusion(model, dataset.subset(folds.train_mask()))
        return SweepPoint(w_plus, "trivial", model, 0, test,
                          train_counts.tpr, train_counts.fpr,
                          weighted_error(model, dataset.subset(folds.train_mask()),
                                         w_plus, 2 - w_plus))

    try:
        scfg = replace(scfg, pool_size=protocol.pool_size)
        ks = [k for k in protocol.sparsity_grid if k <= max_terms]

        val_err = {k: Fraction(0) for k in ks}
        val_tpr = {k: Fraction(0) for k in ks}
        val_fpr = {k: Fraction(0) for k in ks}
        for f in range(protocol.cv_folds):
            fold_train = dataset.subset(folds.fold_train_mask(f))
            fold_valid = dataset.subset(folds.fold_valid_mask(f))
            agg = aggregate(fold_train)
            cfg = PenaltyConfig.auto(w_plus, fold_train.n, fold_train.p,
                                     lattice, max_terms)
            _, pool = solve(agg, cfg, lattice, scfg,
                            feature_names=dataset.feature_names)
            entries = _polished_pool(pool, agg, cfg, lattice)
            for k in ks:
                model, _ = _best_at_k(entries, k)
                counts = confusion(model, fold_valid)
                val_err[k] += weighted_error(model, fold_valid, w_plus, 2 - w_plus)
                tpr, fpr = counts.tpr, counts.fpr
                val_tpr[k] += tpr if tpr is not None else Fraction(0)
                val_fpr[k] += fpr if fpr is not None else Fraction(0)

        nf = protocol.cv_folds
        chosen_k = min(ks, key=lambda k: (val_err[k], k))

        train_ds = dataset.subset(folds.train_mask())
        agg = aggregate(train_ds)
        cfg = PenaltyConfig.auto(w_plus, train_ds.n, train_ds.p, lattice, max_terms)
        _, pool = solve(agg, cfg, lattice, scfg, feature_names=dataset.feature_names)
        entries = _polished_pool(pool, agg, cfg, lattice)
        final, _ = _best_at_k(entries, chosen_k)
        test = confusion(final, test_ds)
        return SweepPoint(w_plus, "ok", final, chosen_k, test,
                          val_tpr[chosen_k] / nf, val_fpr[chosen_k] / nf,
                          val_err[chosen_k] / nf)
    except Exception as exc:  # a failed grid point is recorded, not fatal
        logger.exception("sweep point w+=%s failed", frac_str(w_plus))
        return SweepPoint(w_plus, "failed", None, None, None, None, None, None,
                          error=f"{type(exc).__name__}: {exc}")


def sweep(dataset: BinaryDataset, folds: FoldAssignment, protocol: SweepProtocol,
          lattice: LatticeSpec, scfg: SolveConfig, max_terms: int = 8,
          jobs: int = 1) -> SweepResult:
    """Train one model per weight in the grid and evaluate it on the test
    split; grid points are independent and may run in parallel."""
    if folds.n != dataset.n:
        raise ValueError("fold assignment does not match the dataset")
    if folds.n_folds != protocol.cv_folds:
        raise ValueError(f"fold assignment has {folds.n_folds} folds, not {protocol.cv_folds}")
    if not any(k <= max_terms for k in protocol.sparsity_grid):
        raise ValueError(f"no term count in the sparsity grid is at most max_terms={max_terms}")
    args = [(dataset, folds, protocol, lattice, scfg, max_terms, w)
            for w in protocol.w_plus_grid]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            points = list(pool.map(_sweep_point_star, args))
    else:
        points = [_sweep_point(*a) for a in args]
    return SweepResult(tuple(points))


def _sweep_point_star(args):
    return _sweep_point(*args)


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CalibrationTable:
    """Score-binned empirical positive rates."""

    bins: tuple  # (score_lo, score_hi, count, positives, rate: Fraction)
    binning: str  # equal-frequency | equal-width

    def to_json(self) -> dict:
        return {"binning": self.binning,
                "bins": [{"score_lo": lo, "score_hi": hi, "count": c,
                          "positives": pos, "rate": frac_str(r)}
                         for lo, hi, c, pos, r in self.bins]}

    def to_csv(self) -> str:
        lines = ["score_lo,score_hi,count,positives,rate"]
        for lo, hi, c, pos, r in self.bins:
            lines.append(f"{lo},{hi},{c},{pos},{frac_float(r)}")
        return "\n".join(lines) + "\n"


def calibration(model: ScoringSystem, dataset: BinaryDataset, k_bins: int = 10,
                binning: str = "equal-frequency") -> CalibrationTable:
    """Bucket rows by model score and report the positive rate per bucket.

    Equal-frequency binning keeps equal scores together, so fewer than
    k_bins buckets may result; bucket counts always partition the data.
    """
    if k_bins < 1:
        raise ValueError("k_bins must be at least 1")
    if binning not in ("equal-frequency", "equal-width"):
        raise ValueError(f"unknown binning {binning!r}")
    scores = model.scores(dataset.X)
    pos = dataset.y == 1
    distinct = np.unique(scores)

    groups = []  # (score, count, positives)
    for s in distinct:
        m = scores == s
        groups.append((int(s), int(m.sum()), int((m & pos).sum())))

    bins = []
    if binning == "equal-frequency":
        remaining_rows = dataset.n
        remaining_bins = min(k_bins, len(groups))
        i = 0
        while i < len(groups):
            target = -(-remaining_rows // remaining_bins)  # ceil
            lo = groups[i][0]
            count = pos_count = 0
            while i < len(groups) and (count < target or remaining_bins == 1):
                _, c, pc = groups[i]
                count += c
                pos_count += pc
                i += 1
            hi = groups[i - 1][0]
            bins.append((lo, hi, count, pos_count,
                         Fraction(pos_count, count)))
            remaining_rows -= count
            remaining_bins = max(1, remaining_bins - 1)
    else:
        lo_all, hi_all = int(distinct[0]), int(distinct[-1])
        width = max(1, -(-(hi_all - lo_all + 1) // k_bins))
        edges = list(range(lo_all, hi_all + 1, width))
        for e in edges:
            sel = [(s, c, pc) for s, c, pc in groups if e <= s < e + width]
            if not sel:
                continue
            count = sum(c for _, c, _ in sel)
            pos_count = sum(pc for _, _, pc in sel)
            bins.append((e, min(e + width - 1, hi_all), count, pos_count,
                         Fraction(pos_count, count)))

    return CalibrationTable(tuple(bins), binning)


# ---------------------------------------------------------------------------
# decision points
# ---------------------------------------------------------------------------

def pick_at_decision_point(result: SweepResult, max_fpr,
                           criterion: str = "max_tpr") -> Optional[SweepPoint]:
    """Best sweep point whose validation FPR respects the cap, or None.

    criterion "max_tpr" maximizes validation TPR; "min_weighted_error"
    minimizes the point's weighted validation error under its own weights.
    Ties prefer lower FPR, then smaller positive-class weight.
    """
    if criterion not in ("max_tpr", "min_weighted_error"):
        raise ValueError(f"unknown criterion {criterion!r}")
    cap = as_fraction(max_fpr)
    eligible = [p for p in result.points
                if p.model is not None and p.val_fpr is not None and p.val_fpr <= cap]
    if not eligible:
        return None
    if criterion == "max_tpr":
        key = lambda p: (-p.val_tpr, p.val_fpr, p.w_plus)
    else:
        key = lambda p: (p.val_weighted_error, p.val_fpr, p.w_plus)
    return min(eligible, key=key)


# ---------------------------------------------------------------------------
# plotting
# ---------------------------------------------------------------------------

def roc_svg(curve: RocCurve, size: int = 360) -> str:
    """Dependency-free static SVG scatter of the curve's operating points."""
    pad = 40
    span = size - 2 * pad

    def sx(v):
        return pad + frac_float(as_fraction(v)) * span

    def sy(v):
        return size - pad - frac_float(as_fraction(v)) * span

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<line x1="{pad}" y1="{size - pad}" x2="{size - pad}" y2="{size - pad}" '
        'stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{size - pad}" stroke="black"/>',
        f'<line x1="{sx(0)}" y1="{sy(0)}" x2="{sx(1)}" y2="{sy(1)}" '
        'stroke="#bbbbbb" stroke-dasharray="4"/>',
        f'<text x="{size // 2}" y="{size - 8}" text-anchor="middle" '
        'font-size="12">false positive rate</text>',
        f'<text x="12" y="{size // 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 12 {size // 2})">true positive rate</text>',
    ]
    for w, fpr, tpr, _ in curve.points:
        parts.append(f'<circle cx="{sx(fpr):.2f}" cy="{sy(tpr):.2f}" r="4" '
                     'fill="#1f6fb2"/>')
    parts.append(f'<text x="{size - pad}" y="{pad}" text-anchor="end" '
                 f'font-size="12">AUC = {frac_float(curve.auc):.3f}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
