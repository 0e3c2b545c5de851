"""Active-set polishing: exact coefficient re-optimization with the feature
selection frozen.

Given a feasible model, only its nonzero coefficients (and the intercept)
are re-optimized; every other coefficient stays zero. Dropping penalties,
the restricted problem minimizes the weighted 0-1 loss alone; ties are
resolved by (smaller coefficient-magnitude sum, lexicographically smaller
coefficient tuple, then the intercept of smallest magnitude with negative
preferred). On k active features the data falls into the 2^k cells of
{0,1}^k, so the problem is small even when the dataset is large.

Up to TABLE_TERMS terms the optimum is read off a table. A model scores
each cell and labels it positive when the score reaches 1, so its loss
depends only on which cells it labels positive. The labelings an integer
model can produce are the threshold functions of k inputs, 2, 4, 14, 104
and 1,882 of them for k = 0 .. 4 (OEIS A000609). labeling_table(k) holds
the least (l1, coefficient tuple) realization of each, found once per
process by scanning integer tuples in that order. A lattice admits the
table when every entry lies in it: each |c_i| within its bound, and the
intercepts that produce the entry's labeling meeting the clipped grid of
loss.intercept_grid. Every lattice point then produces some labeling
whose entry is a lattice point with no larger (l1, tuple), so the least
key over the lattice is the least (loss, entry) over the table: one
matrix-vector product of the labelings with the cells' loss units, and
the canonical intercept of the winning coefficients from one loss curve.
Five terms would need 94,572 entries, so the table stops at four.

Wider supports, and lattices that do not admit the table, are searched.
The data is first projected onto the active columns, which collapses it to
at most 2^|A| distinct patterns per class. All loss curves and bounds come
from the kernel in loss.py, over segments of the projected patterns. The
search prunes with the grouped relaxation (loss.grouped_bounds), the bound
the main solver uses at its deep nodes: patterns sharing the same mask
over the still-free coefficients share one unknown offset, so each group
contributes the sliding-window minimum of its exact loss curve.
Conflicting label pairs always share a group and are costed exactly by its
curve.

Expanding a node bounds all 2b+1 children at once, from one kernel call
over an offset grid widened by the bound b of the feature branched on. The
last two coefficients are not bounded: every value pair is scored at once
by the solver's sibling kernel (loss.sibling_curves), from the four loss
curves of the patterns split by their bits on the pair, and takes its
intercept by the solver's rule (loss.least_loss).

The result is the least key over the support's whole lattice, so it does
not depend on the incumbent a search starts from. On three or more terms
the full search starts from the input model as its incumbent. On
WARM_TERMS or more, a search with every bound halved runs first: it is
cheap next to the full search, usually ends near the optimum, and its
incumbent and value order let the full search prune more. On fewer terms
it costs more than it saves. On one or two terms the search is a single
leaf batch that prunes nothing, so it runs alone and without an incumbent.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .data import AggregatedDataset, aggregate_counts
from .loss import (Rows, curve_plan, exact_steps, intercept_grid, least_loss, loss_curves,
                   loss_units)
from .model import LatticeSpec, PenaltyConfig, ScoringSystem, objective

# the largest support polish accepts; its projection has up to 2^cap patterns per class
POLISH_CAP = 12
# the smallest support on which the halved-bounds warm search runs first
WARM_TERMS = 6
# the number of threshold functions of k inputs, k = 0, 1, .. (OEIS A000609)
THRESHOLD_FUNCTIONS = (2, 4, 14, 104, 1882)
# the largest support polished by table lookup
TABLE_TERMS = len(THRESHOLD_FUNCTIONS) - 1
# stands in for an unbounded end of an entry's intercept interval
_UNBOUNDED = 1 << 40


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


class _RestrictedSearch(Rows):
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
    (Rows.child_bounds); a node at depth k - 2 scores all its leaves at
    once (_offer).
    """

    def __init__(self, proj: AggregatedDataset, cfg: PenaltyConfig,
                 bounds: np.ndarray, intercept_bound: int, seed_coefs):
        super().__init__(proj, cfg, bounds, intercept_bound)
        self.k = proj.p
        self.coef = np.zeros(self.k, dtype=np.int64)
        self.values = [
            sorted(range(-int(self.bounds[j]), int(self.bounds[j]) + 1),
                   key=lambda v, j=j: (abs(v - int(seed_coefs[j])), v))
            for j in range(self.k)
        ]
        # branch on widely shared features first so patterns decouple from
        # the free set quickly; value order only affects speed, not results.
        # Depth 0 is never bounded, so its grouping is not built.
        coverage = [(-int(self.units @ self.cols[j]), j) for j in range(self.k)]
        self.branch([j for _, j in sorted(coverage)], top=1)
        self.best = None  # (units, l1, coef tuple, intercept)
        self.l1_norms = {}  # feats: see _offer

    def _offer(self, feats, l1_fixed):
        """Make the best completion of the current node over the sorted
        features feats the incumbent if it beats it."""
        profile = self.leaf_curves(feats)
        units = profile.min(axis=-1)
        u = int(units.min())
        absv = self.l1_norms.get(feats)
        if absv is None:
            # the l1 norm of every value tuple, with leaf_curves' axes
            absv = self.l1_norms[feats] = sum(
                np.ix_(*[np.abs(np.arange(-b, b + 1)) for b in self.bounds[list(feats)]]),
                np.zeros((), dtype=np.int64))
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

    def _apply(self, j, v):
        if v:
            self.move(j, v)
            self.coef[j] = v

    def _undo(self, j, v):
        if v:
            self.move(j, -v)
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
        child = self.child_bounds(depth).tolist()
        for v in self.values[j]:
            l1 = l1_fixed + abs(v)
            if (child[v + b], l1) > self.best[:2]:
                continue  # no completion can beat the incumbent key
            self._apply(j, v)
            self.run(depth + 1, l1)
            self._undo(j, v)


@dataclass(frozen=True)
class LabelingTable:
    """The least realization of every threshold labeling of 2^k cells.

    Cell x, 0 <= x < 2^k, is the pattern whose support position i is bit i
    of x; cells[x] holds those bits. Entry e labels positive the cells in
    the bit mask masks[e] (labels[e, x] is 1 for them, 0 for the others).
    coefs[e] is the least (l1, coefficient tuple) integer model producing
    that labeling, with the intercepts lo[e] .. hi[e] (+-_UNBOUNDED for an
    open end). Entries ascend by that key.
    """

    cells: np.ndarray
    masks: np.ndarray
    labels: np.ndarray
    coefs: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        # labeling_table hands one table to every caller
        for arr in (self.cells, self.masks, self.labels, self.coefs, self.lo, self.hi):
            arr.setflags(write=False)

    def admits(self, bounds, half: int) -> bool:
        """True when every entry lies in the lattice of coefficient bounds
        (position order) and intercepts -half .. half."""
        return bool((np.abs(self.coefs) <= bounds).all()
                    and self.lo.max() <= half and self.hi.min() >= -half)


def _shell(k: int, l1: int) -> list:
    """Every integer k-tuple of l1 norm l1, in lexicographic order."""
    if k == 0:
        return [()] if l1 == 0 else []
    return [(c,) + rest for c in range(-l1, l1 + 1) for rest in _shell(k - 1, l1 - abs(c))]


@functools.lru_cache(maxsize=None)
def labeling_table(k: int) -> LabelingTable:
    """The LabelingTable of k <= TABLE_TERMS terms, built on first use:
    integer tuples are scanned by ascending l1 norm, lexicographically
    within one, and each labeling keeps its first realization, until every
    threshold function of k inputs has one."""
    n = 1 << k
    cells = (np.arange(n)[:, None] >> np.arange(k)) & 1
    seen = np.zeros(1 << n, dtype=bool)  # by labeling mask
    parts = []  # the masks, coefs, lo and hi of each shell's new labelings
    count, l1 = 0, 0
    while count < THRESHOLD_FUNCTIONS[k]:
        shell = np.array(_shell(k, l1), dtype=np.int64)
        scores = shell @ cells.T
        # cells by descending score between two sentinels: the top t cells,
        # t = 0 .. n, are the labeling of the intercepts 1 - ranked[t] ..
        # -ranked[t + 1], which is empty where t splits a tie
        by_score = np.argsort(-scores, axis=1, kind="stable")
        edge = np.full((len(shell), 1), _UNBOUNDED)
        ranked = np.hstack([edge, np.take_along_axis(scores, by_score, axis=1), -edge])
        masks = np.hstack([0 * edge, np.cumsum(1 << by_score, axis=1)])
        rows, tops = np.nonzero(ranked[:, :-1] > ranked[:, 1:])
        found = masks[rows, tops]
        # each labeling's first position in scan order, where it is new
        by_mask = np.argsort(found, kind="stable")
        lead = by_mask[np.diff(found[by_mask], prepend=-1) != 0]
        new = np.sort(lead[~seen[found[lead]]])
        seen[found] = True
        rows, tops = rows[new], tops[new]
        parts.append((found[new], shell[rows], 1 - ranked[rows, tops], -ranked[rows, tops + 1]))
        count += len(new)
        l1 += 1
    masks, coefs, lo, hi = (np.concatenate(column) for column in zip(*parts))
    labels = ((masks[:, None] >> np.arange(n)) & 1).astype(np.float64)
    return LabelingTable(cells, masks, labels, coefs, lo, hi)


def _table_optimum(table: LabelingTable, agg: AggregatedDataset, cfg: PenaltyConfig,
                   cols: list, grid: np.ndarray, order: np.ndarray):
    """(lam0, coefs) of the least key over a lattice that admits table,
    for the support cols; grid and order are the lattice's intercept_grid."""
    units, _ = loss_units(agg, cfg)
    n_pos, n = agg.n_pos_patterns, len(table.cells)
    bits = 1 << np.arange(len(cols))
    # the loss units of the positive and the negative rows in each cell
    a = np.bincount(agg.pos_patterns[:, cols] @ bits, weights=units[:n_pos], minlength=n)
    b = np.bincount(agg.neg_patterns[:, cols] @ bits, weights=units[n_pos:], minlength=n)
    # a labeling loses a on the cells it labels negative and b on the rest:
    # sum(a) + labels @ (b - a), least at the first least entry. The float64
    # sums are exact, since loss_units keeps all units below 2**53.
    coefs = table.coefs[int(np.argmin(table.labels @ (b - a)))]
    scores = table.cells @ coefs
    steps, start = exact_steps(np.concatenate([a, b]), n)
    plan = curve_plan(steps, start, np.zeros(2 * n, dtype=np.int64), 1, int(grid[0]), len(grid))
    _, lam0 = least_loss(loss_curves(plan, np.concatenate([scores, scores]))[0], grid, order)
    return int(lam0), coefs.tolist()


def _search_optimum(model: ScoringSystem, agg: AggregatedDataset, cfg: PenaltyConfig,
                    lattice: LatticeSpec, active: ActiveSet, bounds: np.ndarray):
    """(lam0, coefs) of the least key over the lattice of the support
    active, by branch and bound over the projected data."""
    proj = project_active(agg, active)
    start = [dict(model.terms)[j] for j in active.indices]
    # On WARM_TERMS or more terms, the search over coefficients capped at
    # half their bounds is cheap and usually ends near the optimum; from its
    # incumbent, trying the values nearest it first, the full search prunes
    # more. On fewer, the full search starts from the input model. On one
    # or two terms the search is one leaf batch, which reads no incumbent.
    # Either way the result is the least key over the whole lattice,
    # whatever the incumbent.
    half = (bounds + 1) // 2
    if len(active) >= WARM_TERMS and (half < bounds).any():
        warm = _RestrictedSearch(proj, cfg, half, lattice.intercept_bound, start)
        warm.seed(start)
        warm.run()
        start = warm.best[2]
    search = _RestrictedSearch(proj, cfg, bounds, lattice.intercept_bound, start)
    if len(active) > 2:
        search.seed(start)
    search.run()
    _, _, coefs, lam0 = search.best
    return lam0, coefs


def polish(model: ScoringSystem, agg: AggregatedDataset, cfg: PenaltyConfig,
           lattice: LatticeSpec):
    """Re-optimize the model's nonzero coefficients to proven optimality.

    Returns (polished ScoringSystem, its ObjectiveValue under cfg). The
    output support is contained in the input support and the objective
    never increases. Models of more than POLISH_CAP terms are refused.
    """
    if model.n_features != agg.p:
        raise ValueError(f"dataset has {agg.p} features, model expects {model.n_features}")
    model.validate_lattice(lattice)
    active = ActiveSet.of(model)
    if len(active) > POLISH_CAP:
        raise ValueError(f"active set of size {len(active)} exceeds the polish cap {POLISH_CAP}")

    cols = list(active.indices)
    bounds = lattice.bounds_for(agg.p)[cols]
    grid, order = intercept_grid(lattice.intercept_bound, bounds)
    table = labeling_table(len(cols)) if len(cols) <= TABLE_TERMS else None
    if table is not None and table.admits(bounds, int(grid[-1])):
        lam0, coefs = _table_optimum(table, agg, cfg, cols, grid, order)
    else:
        lam0, coefs = _search_optimum(model, agg, cfg, lattice, active, bounds)

    names = dict(zip((j for j, _ in model.terms), model.term_names))
    terms = tuple((j, c) for j, c in zip(cols, coefs) if c)
    polished = ScoringSystem(lam0, terms, tuple(names[j] for j, _ in terms), agg.p)
    return polished, objective(polished, agg, cfg)
