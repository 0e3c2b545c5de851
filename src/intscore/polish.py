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
loss.intercept_grid. Table k reaches |c| = TABLE_REACH[k] in every
position and needs intercepts up to TABLE_HALF[k], so table_admits decides
without building it. Every lattice point then produces some labeling
whose entry is a lattice point with no larger (l1, tuple), so the least
key over the lattice is the least (loss, entry) over the table: one
product of the labelings with the cells' loss units, and the canonical
intercept of the winning coefficients from one loss curve.
table_optima does this for many supports of one size at once, which is
how the solver's support search scores the supports its screen keeps;
polish calls it on one. Five terms would need 94,572 entries, so the table
stops at four.

A cell's loss units are its row count in each class times that class's
units, so the counts hold no weight. They come from one set-count matrix
per class over the rows (_cell_counts). Built over every feature, for the
widest support a solve scores, the matrices serve every support at every
weight, so the aggregate keeps them: a sweep builds them once per
training set, not once per weight and support size. One support's polish
sums over its own features and keeps nothing. The same counts give the
solver's support search its screen: a cell loses at least the smaller of
its two classes' loss units whatever the model labels it, so a support's
cell Bayes error, that sum over its cells, bounds the loss of every model
on it. Two block budgets, both from _BLOCK_ELEMENTS, bound the
temporaries: one for the labels product and a smaller one for the
loss-curve pass that finds the intercepts.

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

The search runs a depth at a time. The live nodes of one depth are
expanded together, in chunks one kernel block holds, depth first over the
chunks: one grouped_bounds pass over a chunk's stacked scores bounds all
2b+1 children of every node, on an offset grid widened by the bound b of
the feature branched on, and each child is pruned against the incumbent
as it stands. The last two coefficients are not bounded: every value pair
of every node of a chunk is scored in one pass of the solver's sibling
kernel (loss.sibling_curves), from the four loss curves of each node's
patterns split by their bits on the pair, and the least takes its
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
from .loss import Rows, class_units, curve_plan, intercept_grid, least_loss, loss_curves
from .model import LatticeSpec, PenaltyConfig, ScoringSystem, objective

# the largest support polish accepts; its projection has up to 2^cap patterns
# per class. Nine terms on about 7,000 patterns polish within the 5 s
# budget; ten terms took up to 24 s on the same lattice (10/100; 2-vCPU
# Xeon VM)
POLISH_CAP = 9
# the smallest support on which the halved-bounds warm search runs first
WARM_TERMS = 6
# the number of threshold functions of k inputs, k = 0, 1, .. (OEIS A000609)
THRESHOLD_FUNCTIONS = (2, 4, 14, 104, 1882)
# the largest |c| that labeling_table(k) holds, the same in every position,
# and the intercept half-width its entries need, k = 0, 1, ..
TABLE_REACH = (0, 1, 1, 2, 3)
TABLE_HALF = (1, 1, 2, 3, 5)
# the largest support polished by table lookup
TABLE_TERMS = len(THRESHOLD_FUNCTIONS) - 1
# the most elements one block of table_optima works on (rows times set
# columns for the cells' counts, supports times labelings to score them,
# and 8 times supports times cells and intercepts for their loss curves),
# which caps its temporaries
_BLOCK_ELEMENTS = 1 << 16
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
    result is independent of branching and value orders, of the order the
    nodes are visited in, and of the incumbent the search starts from. On
    three or more terms run() prunes against an incumbent, which seed()
    sets, and lists each node's children by their value's nearness to
    seed_coefs; on fewer it is one leaf batch.

    The search runs a depth at a time. A node is its coefficients (zero
    where free), its l1 and the bound its parent gave it. The nodes of one
    depth are split into chunks that one block of the kernel holds
    (plan["nodes"]), which are expanded in order, depth first: a chunk is
    first filtered against the incumbent as it stands, then one
    grouped_bounds pass over its nodes' stacked scores bounds all of their
    children (Rows.child_bounds), and the children that might still beat
    the incumbent are the next depth's nodes. At depth k - 2 one leaf batch
    scores the last two coefficients of every node of a chunk (_offer).
    """

    def __init__(self, proj: AggregatedDataset, cfg: PenaltyConfig,
                 bounds: np.ndarray, intercept_bound: int, seed_coefs):
        super().__init__(proj, cfg, bounds, intercept_bound)
        self.k = proj.p
        self.values = [
            np.array(sorted(range(-int(self.bounds[j]), int(self.bounds[j]) + 1),
                            key=lambda v, j=j: (abs(v - int(seed_coefs[j])), v)),
                     dtype=np.int64)
            for j in range(self.k)
        ]
        # branch on widely shared features first so patterns decouple from
        # the free set quickly; value order only affects speed, not results.
        # Depth 0 is never bounded, so its grouping is not built.
        coverage = [(-int(self.units @ self.cols[j]), j) for j in range(self.k)]
        self.branch([j for _, j in sorted(coverage)], top=1)
        self.best = None  # (units, l1, coef tuple, intercept)
        self.l1_norms = {}  # feats: see _offer

    def _live(self, bound, l1):
        """Which nodes of these bounds and l1 might hold a key below the
        incumbent's: no completion of one with (bound, l1) > best[:2] can."""
        if self.best is None:
            return np.ones(np.shape(bound), dtype=bool)
        units, l1_best = self.best[:2]
        return (bound < units) | ((bound == units) & (l1 <= l1_best))

    def _offer(self, feats, coefs, l1_fixed):
        """Make the least key among the completions over the sorted
        features feats of the nodes with coefficient rows coefs and l1
        l1_fixed the incumbent if it beats it."""
        profile = self.leaf_curves(feats, coefs @ self.cols)
        units = profile.min(axis=-1).reshape(len(coefs), -1)
        u = units.min(axis=1)
        absv = self.l1_norms.get(feats)
        if absv is None:
            # the l1 norm of every value tuple, with leaf_curves' axes flattened
            absv = self.l1_norms[feats] = sum(
                np.ix_(*[np.abs(np.arange(-b, b + 1)) for b in self.bounds[list(feats)]]),
                np.zeros((), dtype=np.int64)).ravel()
        l1 = np.where(units == u[:, None], absv, np.iinfo(np.int64).max)
        least = l1.min(axis=1)
        total = l1_fixed + least
        tied = np.flatnonzero(u == u.min())
        tied = tied[total[tied] == total[tied].min()]
        key = (int(u[tied[0]]), int(total[tied[0]]))
        if self.best is not None and key > self.best[:2]:
            return
        # axes follow position order and values ascend along each, so a
        # node's first tie is its smallest coefficient tuple
        def first_tie(node):
            idx = int(np.argmax(l1[node] == least[node]))
            coef = coefs[node].copy()
            coef[list(feats)] = np.unravel_index(idx, profile.shape[1:-1]) \
                - self.bounds[list(feats)]
            return tuple(coef.tolist()), node, idx

        coef, node, idx = min(map(first_tie, tied.tolist()))
        key += (coef,)
        if self.best is None or key < self.best[:3]:
            _, lam0 = least_loss(profile[node].reshape(-1, profile.shape[-1])[idx],
                                 self.lam0_grid, self.lam0_order)
            self.best = key + (int(lam0),)

    def seed(self, coefs):
        """Make the coefficients coefs, one per position, the incumbent."""
        coefs = np.asarray(coefs, dtype=np.int64).reshape(1, self.k)
        self._offer((), coefs, np.abs(coefs).sum(axis=1))

    def run(self):
        """Search every completion of the root."""
        zero = np.zeros(1, dtype=np.int64)
        self._expand(0, np.zeros((1, self.k), dtype=np.int64), zero, zero)

    def _expand(self, depth, coefs, l1, bound):
        """Search below the nodes at depth, given by their coefficient rows,
        l1 and bounds, a chunk at a time, depth first."""
        last = self.k - depth <= 2
        if last:
            feats = tuple(sorted(self.order[depth:]))
            plan = self.leaf_plan(feats)
        else:
            plan = self.child_plan(depth)
            j = self.order[depth]
            vals = self.values[j]
        for first in range(0, len(coefs), plan["nodes"]):
            chunk = slice(first, first + plan["nodes"])
            live = self._live(bound[chunk], l1[chunk])
            c, c_l1 = coefs[chunk][live], l1[chunk][live]
            if not len(c):
                continue
            if last:
                self._offer(feats, c, c_l1)
                continue
            child = self.child_bounds(depth, scores=c @ self.cols)[:, vals + plan["b"]]
            child_l1 = c_l1[:, None] + np.abs(vals)
            node, which = np.nonzero(self._live(child, child_l1))
            kids = c[node]
            kids[:, j] = vals[which]
            self._expand(depth + 1, kids, child_l1[node, which], child[node, which])


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


def table_admits(bounds, half: int) -> bool:
    """True when every entry of labeling_table(k), k = len(bounds), lies in
    the lattice of coefficient bounds (position order) and intercepts -half
    .. half. It reads TABLE_REACH and TABLE_HALF, so it builds no table."""
    k = len(bounds)
    return k <= TABLE_TERMS and bool(np.all(np.asarray(bounds) >= TABLE_REACH[k])) \
        and half >= TABLE_HALF[k]


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


def _set_columns(x: np.ndarray, width: int) -> np.ndarray:
    """One column per set of at most two columns of x, 1 on the rows that
    set every column of the set: the empty set, each column, then each
    pair a < b in np.triu_indices order; only the first width of them,
    width being 1, 1 + f or all 1 + f + f (f - 1) / 2."""
    n, f = x.shape
    cols = np.empty((n, width))
    cols[:, 0] = 1
    cols[:, 1:1 + f] = x[:, :width - 1]
    at = 1 + f
    for a in range(f - 1):
        if at >= width:
            break
        np.multiply(x[:, a:a + 1], x[:, a + 1:], out=cols[:, at:at + f - 1 - a])
        at += f - 1 - a
    return cols


@functools.lru_cache(maxsize=None)
def _subsets(k: int):
    """(positions, mobius) for the bit masks t < 2^k of k support
    positions: positions[t] holds t's set positions, then k for none, four
    in all; mobius[t, c] is (-1)^|t - c| where c lies within t, else 0,
    in float64."""
    n = 1 << k
    positions = np.full((n, 4), k)
    for t in range(n):
        bits = [i for i in range(k) if t >> i & 1]
        positions[t, :len(bits)] = bits
    masks = np.arange(n)
    parity = ((masks[:, None] ^ masks)[..., None] >> np.arange(k)).sum(axis=-1) & 1
    mobius = np.where((masks[:, None] & masks) == masks, 1 - 2 * parity, 0).astype(np.float64)
    for arr in (positions, mobius):
        arr.setflags(write=False)
    return positions, mobius


@functools.lru_cache(maxsize=None)
def _set_column_index(f: int) -> np.ndarray:
    """column[a, b]: the _set_columns column of features a < b of f, of a
    alone (b = f) and of none (a = b = f); read-only."""
    column = np.zeros((f + 1, f + 1), dtype=np.int64)
    column[:f, f] = 1 + np.arange(f)
    pair_a, pair_b = np.triu_indices(f, 1)
    column[pair_a, pair_b] = 1 + f + np.arange(len(pair_a))
    column.setflags(write=False)
    return column


def _set_sums(agg: AggregatedDataset, used: np.ndarray, k: int):
    """[pos, neg]: for each class, the matrix of the summed counts of the
    rows that set every feature of a left and of a right set of the
    features used, as _cell_counts splits the sets of k-term supports:
    sets of up to min(k, 2) features on the left, of up to k - 2 on the
    right. One matmul of the rows' _set_columns per class, in blocks of
    rows; the sums are float64 and exact, each at most N, and hold no
    class weight."""
    f = len(used)
    widths = (1, 1 + f, 1 + f + f * (f - 1) // 2)
    n_left, n_right = widths[min(k, 2)], widths[max(k - 2, 0)]
    # a block's columns and their weighted copy take _BLOCK_ELEMENTS
    step = max(1, _BLOCK_ELEMENTS // (n_left + n_right))
    out = []
    for patterns, counts in ((agg.pos_patterns, agg.pos_counts),
                             (agg.neg_patterns, agg.neg_counts)):
        sums = np.zeros((n_left, n_right))
        for r in range(0, len(counts), step):
            cols = _set_columns(patterns[r:r + step, used].astype(np.float64), n_left)
            sums += cols.T @ (counts[r:r + step, None] * cols[:, :n_right])
        out.append(sums)
    return out


def _cell_counts(agg: AggregatedDataset, supports: np.ndarray, widest: int):
    """[pos, neg]: the counts of the positive and of the negative rows in
    each cell of every support, (m, 2^k) int64 arrays for the (m, k) array
    supports, k <= widest <= 4.

    A set t of support positions, a bit mask, is the union of its first
    two positions and the rest, two at most, so the count of the rows that
    set all of t is one entry of a class's set-count matrix (_set_sums). A
    cell c collects the rows whose bits on the support are exactly c: by
    Moebius inversion, the sum over t containing c of (-1)^|t - c| times
    the count of t, in float64 and exact: its terms are at most 2^k counts
    of at most N each.

    The matrices over every feature serve every support at every weight.
    Supports that use every feature build them, wide enough for supports
    of widest terms, and keep them in agg.set_counts; every later call on
    agg reads them while they are wide enough. Otherwise, as for the one
    support polish scores, the matrices span only the features the
    supports use, and are not kept."""
    m, k = supports.shape
    used = np.flatnonzero(np.bincount(supports.ravel(), minlength=agg.p))
    kept = agg.set_counts
    if kept.get("terms", -1) < k and len(used) == agg.p:
        # a count is at most N, so the least unsigned type holding N keeps
        # it exactly, in a quarter of float64's bytes below 2**16 rows
        dtype = np.min_scalar_type(agg.source_n)
        kept.update(terms=widest,
                    sums=[sums.astype(dtype) for sums in _set_sums(agg, used, widest)])
    if kept.get("terms", -1) >= k:
        used, sums = np.arange(agg.p), kept["sums"]
    else:
        sums = _set_sums(agg, used, k)
    f = len(used)
    position = np.zeros(agg.p, dtype=np.int64)
    position[used] = np.arange(f)
    # each support's used-feature positions, then f for none
    local = np.hstack([position[supports], np.full((m, 1), f)])
    column = _set_column_index(f)
    positions, mobius = _subsets(k)
    left = column[local[:, positions[:, 0]], local[:, positions[:, 1]]]
    right = column[local[:, positions[:, 2]], local[:, positions[:, 3]]]
    return [(counts[left, right] @ mobius).astype(np.int64) for counts in sums]


def _least_entries(table: LabelingTable, d: np.ndarray) -> np.ndarray:
    """The first least entry of table.labels @ d_s for each row d_s of the
    (m, 2^k) int64 array d, by the labels product in blocks of at most
    _BLOCK_ELEMENTS labelings times rows."""
    entry = np.empty(len(d), dtype=np.int64)
    block = max(1, _BLOCK_ELEMENTS // len(table.labels))
    for first in range(0, len(d), block):
        entry[first:first + block] = np.argmin(d[first:first + block] @ table.labels.T, axis=1)
    return entry


def table_optima(agg: AggregatedDataset, cfg: PenaltyConfig, intercept_bound: int,
                 supports):
    """polish's result on every support of k <= TABLE_TERMS features at
    once: supports is an (m, k) array of sorted feature positions, each of
    whose lattices admits labeling_table(k) (table_admits). Returns arrays
    of the least loss units (m), the canonical intercepts (m) and the
    coefficients (m, k), in position order.

    The cells' row counts come from _cell_counts and hold no weight; it
    builds and keeps agg's all-feature matrices wide enough for the widest
    support a solve under cfg scores, min(max_terms, P, TABLE_TERMS). The
    weight enters only here: the loss units of the positives, a, and of
    the negatives, b, are the counts times class_units. A labeling loses a
    on the cells it labels negative and b on the rest: sum(a) + the sum of
    d = b - a over its positive cells. The labels product with d, in
    blocks of at most _BLOCK_ELEMENTS labelings times supports, gives every
    entry's sum, and the first least entry wins (_least_entries). So a
    support loses at least its cells' Bayes error, the sum of min(a, b),
    and the solver's support search passes only the supports whose Bayes
    error plus the least penalties of their size is at most the pool's
    level: that level only falls while a size is scored, the others reach
    no level of their size or above, and an optimum with a zero
    coefficient is a smaller support's.

    Then one loss_curves pass per block of supports, with one segment of
    2^k cells per support, gives every canonical intercept (least_loss).
    Its block holds at most _BLOCK_ELEMENTS / 8 cells and grid points, its
    own budget: its temporaries take several elements for each, and so
    stay below the labels product's. A support's curve is flat beyond
    the sum of its |c| plus one, at most k TABLE_REACH[k] + 1, so that
    grid, clipped to the intercept bound, serves every support of one
    size.

    Every float64 sum is exact: it is at most the total units, below 2**53
    (class_units), and a curve block holds so few supports that the pass's
    running sum over them stays below 2**53 too."""
    (unit_pos, unit_neg), _ = class_units(agg, cfg)
    supports = np.asarray(supports, dtype=np.int64)
    k = supports.shape[1]
    table = labeling_table(k)
    n = len(table.cells)
    pos, neg = _cell_counts(agg, supports, max(k, min(cfg.max_terms, agg.p, TABLE_TERMS)))
    a, b = pos * unit_pos, neg * unit_neg
    coefs = table.coefs[_least_entries(table, b - a)]
    scores = coefs @ table.cells.T

    grid, order = intercept_grid(intercept_bound, np.full(k, TABLE_REACH[k]))
    total = unit_pos * int(agg.pos_counts.sum()) + unit_neg * int(agg.neg_counts.sum())
    block = max(1, min(_BLOCK_ELEMENTS // (8 * (2 * n + len(grid))),
                       (2 ** 53 - 1) // max(1, total)))
    parts = []
    for first in range(0, len(supports), block):
        a_part, b_part = a[first:first + block], b[first:first + block]
        size = len(a_part)
        plan = curve_plan(np.hstack([-a_part, b_part]).ravel(),
                          np.hstack([a_part, 0 * b_part]).ravel(),
                          np.repeat(np.arange(size), 2 * n), size, int(grid[0]), len(grid))
        part = scores[first:first + block]
        curves = loss_curves(plan, np.hstack([part, part]).ravel())
        parts.append(least_loss(curves, grid, order))
    units, lam0 = (np.concatenate(column) for column in zip(*parts))
    return units, lam0, coefs


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
    grid, _ = intercept_grid(lattice.intercept_bound, bounds)
    if table_admits(bounds, int(grid[-1])):
        _, lam0, coefs = table_optima(agg, cfg, lattice.intercept_bound, [cols])
        lam0, coefs = int(lam0[0]), coefs[0].tolist()
    else:
        lam0, coefs = _search_optimum(model, agg, cfg, lattice, active, bounds)

    names = dict(zip((j for j, _ in model.terms), model.term_names))
    terms = tuple((j, c) for j, c in zip(cols, coefs) if c)
    polished = ScoringSystem(lam0, terms, tuple(names[j] for j, _ in terms), agg.p)
    return polished, objective(polished, agg, cfg)
