"""Exact branch-and-bound minimization of the scoring-system objective.

The search branches on feature coefficients only. Features are branched in
descending order of class signal |P(y=+1 | x_j=1) - P(y=+1)|, with
candidate values tried outward from 0. The intercept is never branched on:
the loss as a function of a shared offset added to every score is a step
function, so one loss curve over the intercept grid (loss.loss_curves)
gives the loss of every intercept at once.

The search keeps two score vectors over the distinct patterns. base holds
the scores of the fixed coefficients; unfixed ones count as zero. A leaf is
the curve of base at its least point, with ties broken toward the smallest
intercept. A node is bounded by one of two relaxations of its free
coefficients:

- The interval bound lets each pattern's free coefficients reach their
  limits on their own: edge adds to base their reach, upward for a
  positive pattern and downward for a negative one, and the bound is the
  least point of the curve of edge. Every pattern that misses its margin
  even at its edge score is surely lost. Conflict pairs (one pattern
  occurring with both labels) are folded into the bound's step weights: a
  pair costs its cheaper side over the offsets where neither of its rows
  is surely lost.
- The grouped bound (loss.grouped_bounds, the kernel polish prunes with)
  groups the rows by their values on the free features. A group's free
  coefficients add one shared offset in [-H_g, H_g], H_g the sum of the
  bounds of the free features it has set, so it adds the least value of
  its exact loss curve over that window. A conflict pair falls in one
  group and is costed exactly. It is never below the interval bound. Its
  intercept grid is clipped to +-min(intercept bound, sum of all
  coefficient bounds + 1): past the coefficients' reach every score has
  the intercept's sign, so the loss no longer changes there.

One rule picks the bound from the node's free features F and the lattice
alone: the grouped one when groups(F) x (2 (L + H_max(F)) + 1) x (2 b_max +
1) <= _GROUPED_ELEMENTS, the size of the block that bounds all siblings at
once (L is the clipped grid's half-width, H_max the widest group's reach
and b_max the largest coefficient bound), the interval one otherwise.
Freeing a feature never merges groups or narrows a reach, so a path is
bounded by the interval bound at its wide, shallow nodes and by the grouped
one from some depth on. The search's free sets are the suffixes of its
branching order, so it builds their groupings from the deepest depth up,
refining one feature at a time, and stops at the first one the rule
refuses. Both relaxations only tighten as coefficients are fixed, and the
grouped one is never below the interval one, so the bound is monotone
along any search path: the proven lower bound never decreases and
exhausting the tree certifies optimality. bound(), children() and
node_bound() all apply the rule.

Children are scored as siblings, never one at a time. Setting the free
coefficient j to v moves only the rows with x_j = 1: by v in base, and in
edge by v - b_j for a positive row and v + b_j for a negative one (its
reach b_j is replaced by v). Folded conflict-pair step weights stay with
their rows and move with them. So one loss-curve pass over the rows split
by x_j, on an intercept grid widened by the moves, gives the leaf or the
interval bound of every value of j at once (loss.sibling_curves); the
grouped bounds of every value come the same way from one pass over the
children's groups split by x_j (loss.grouped_bounds). The grids depend only
on j, so each plan is built once per feature, over every value of j, and
reused by every node. The search scores all children of a node on its first
visit and then walks them in value order: a leaf child is recorded, an
inner child is pruned on its bound, and only a child the search descends
into is applied to base and edge, so pruned and leaf children never touch
the state. Greedy seeding scores every value of every free feature the same
way, one pass per feature.

Pruning keeps one incumbent per sparsity budget: a subtree is cut only
when its bound exceeds the best total found within the smallest term
budget the subtree could still fit. This costs some pruning power but
leaves the solution pool holding the best model at every sparsity level,
which the cross-validation pipeline consumes directly.

All bookkeeping is in integers, so results are exact. Losses are whole
units of 1/(c*N), c being the common denominator of the class weights, and
every objective total is one Python int over the common denominator of the
loss units, c0 and epsilon. Totals stay Python ints: that denominator can
pass 2**64 when c0 or epsilon is set by hand. Totals, incumbents, bounds
and the pool's order are compared as ints. Rationals and models are built
only for the pool entries a caller reads, and for the report and its
telemetry. A leaf the pool would turn away on its total alone is dropped
before its terms and key are made.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .common import frac_str
from .data import AggregatedDataset
from .loss import (exact_steps, grouped_bounds, grouped_plan, intercept_order, least_loss,
                   loss_units, refined_groups, sibling_curves, sibling_plan, units_dtype)
from .model import (
    LatticeSpec,
    ObjectiveValue,
    PenaltyConfig,
    ScoringSystem,
)

_TINY = Fraction(1, 10**12)

# the most curve elements (groups x offset grid x values of one coefficient)
# a sibling block may cost for the grouped bound to bound it
_GROUPED_ELEMENTS = 1 << 14


@dataclass(frozen=True)
class SolveConfig:
    """Search limits. The term cap is PenaltyConfig.max_terms."""

    time_limit: float = 60.0
    pool_size: int = 500
    node_limit: Optional[int] = None

    def __post_init__(self):
        if self.time_limit <= 0:
            raise ValueError("time_limit must be positive")
        if self.pool_size < 1:
            raise ValueError("pool_size must be >= 1")


class SolutionPool:
    """Best distinct feasible solutions, ascending by (total, coefficients).

    Eviction protects the sparsity frontier: the best entry at each term
    count survives even when denser models dominate the top of the pool,
    so downstream term-count tuning always has a candidate per level.
    The frontier entries, those with fewer terms than every entry before
    them, are tracked as entries come and go, so rejecting a candidate and
    choosing a victim walk the frontier, not the pool.

    An entry is held as (total, key, l0, build) and its (model, value) is
    built the first time a caller reads it, once; an entry evicted unread
    is never built.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("pool capacity must be >= 1")
        self.capacity = capacity
        self._entries = []  # (total, key, l0, build)
        self._keys = set()
        self._built = {}  # key -> (ScoringSystem, ObjectiveValue) of entries read
        self._frontier = []  # frontier entries, in pool order
        self._frontier_keys = set()

    def __len__(self):
        return len(self._entries)

    def add(self, model: ScoringSystem, value: ObjectiveValue) -> bool:
        return self.offer(value.total, model.key(), model.l0, lambda: (model, value))

    def _at_level(self, l0):
        """The best entry with at most l0 terms: the first such frontier
        entry, or None."""
        return next((e for e in self._frontier if e[2] <= l0), None)

    def rejects(self, total, l0: int) -> bool:
        """True when offer() would surely turn away any candidate with this
        total and term count, whatever its key: the pool is full, the last
        entry's total is below it, and an entry with at most l0 terms has
        a total no larger."""
        if len(self._entries) < self.capacity or not total > self._entries[-1][0]:
            return False
        at_level = self._at_level(l0)
        return at_level is not None and not total < at_level[0]

    def offer(self, total, key: tuple, l0: int, build: Callable) -> bool:
        """add() for a candidate known by its total, model key and term
        count. build() returns its (model, value). It is stored, not
        called: it runs when a caller first reads the entry, which may be
        long after offer returns, so it must bind the values it builds
        from, not variables that change later. total orders the pool: the
        objective value, or (as the solver passes it) that value times one
        common denominator, an int. One pool takes one kind of total.

        It walks the frontier once: a full pool turns the candidate away
        when an entry with at most l0 terms has no larger total and the
        candidate does not precede the last entry, a rule that holds
        wherever rejects() does."""
        if key in self._keys:
            return False
        head = (total, key)
        at_level = self._at_level(l0)
        if len(self._entries) >= self.capacity and at_level is not None \
                and not total < at_level[0] and not head < self._entries[-1][:2]:
            return False
        item = (total, key, l0, build)
        insort(self._entries, item)
        self._keys.add(key)
        if at_level is None or head < at_level[:2]:
            # on the frontier: it displaces the later ones it has no fewer terms than
            self._frontier = [e for e in self._frontier if e[:2] < head or e[2] < l0]
            insort(self._frontier, item)
            self._frontier_keys = {e[1] for e in self._frontier}
        if len(self._entries) > self.capacity:
            victim = len(self._entries) - 1
            while victim >= 0 and self._entries[victim][1] in self._frontier_keys:
                victim -= 1
            # the last entry off the frontier, or the last one if all are on it
            worst = self._entries.pop(victim)
            self._keys.discard(worst[1])
            self._built.pop(worst[1], None)
            if victim < 0:
                self._frontier.pop()
                self._frontier_keys.discard(worst[1])
        return True

    def _read(self, entry):
        """The (model, value) of a pool entry, built on its first read."""
        got = self._built.get(entry[1])
        if got is None:
            got = self._built[entry[1]] = entry[3]()
        return got

    def best(self):
        if not self._entries:
            return None
        return self._read(self._entries[0])

    @property
    def entries(self):
        return [self._read(e) for e in self._entries]

    def first_per_support(self):
        """The first (model, value) of each distinct support (the features
        with nonzero coefficients), in pool order; only these are built."""
        seen, out = set(), []
        for e in self._entries:
            support = tuple(j for j, _ in e[1][1:])
            if support not in seen:
                seen.add(support)
                out.append(self._read(e))
        return out

    def best_with_at_most(self, k: int):
        """Best entry using at most k terms, or None."""
        for e in self._frontier:
            if e[2] <= k:
                return self._read(e)
        return None


@dataclass(frozen=True)
class SolveReport:
    best: ScoringSystem
    best_objective: Fraction
    lower_bound: Fraction
    gap: Fraction
    nodes_explored: int
    wall_time: float
    status: str  # optimal | time_limit | node_limit

    def to_json(self) -> dict:
        return {
            "best_objective": frac_str(self.best_objective),
            "lower_bound": frac_str(self.lower_bound),
            "gap": frac_str(self.gap),
            "nodes_explored": self.nodes_explored,
            "wall_time": self.wall_time,
            "status": self.status,
        }


def relative_gap(best: Fraction, bound: Fraction) -> Fraction:
    if best == bound:
        return Fraction(0)
    return (best - bound) / max(best, _TINY)


def conflict_lower_bound(agg: AggregatedDataset, cfg: PenaltyConfig) -> Fraction:
    """Unavoidable weighted error from patterns occurring with both labels:
    each such pair misclassifies at least its cheaper side."""
    total = Fraction(0)
    for s, t in agg.conflict_pairs:
        total += min(cfg.w_plus * int(agg.pos_counts[s]),
                     cfg.w_minus * int(agg.neg_counts[t]))
    return total / agg.source_n


def node_bound(partial, agg: AggregatedDataset, cfg: PenaltyConfig,
               lattice: LatticeSpec) -> Fraction:
    """Lower bound on the objective of every completion of a partial
    assignment: the bound the search prunes with, the grouped relaxation
    where the rule admits the partial's free features and the interval
    relaxation elsewhere (see the module docstring).

    partial has length P+1: entry 0 is the intercept, entries 1..P the
    feature coefficients; None marks a free entry ranging over its lattice
    interval. A fixed intercept may be any integer.
    """
    if len(partial) != agg.p + 1:
        raise ValueError(f"partial assignment must have length {agg.p + 1}")
    search = _Search(agg, cfg, lattice, SolveConfig(), None)
    for j, v in enumerate(partial[1:]):
        if v is not None:
            search.apply(j, int(v))
    return search.fraction(search.bound(partial[0]))


# ---------------------------------------------------------------------------
# internal search machinery
# ---------------------------------------------------------------------------

def _build_entry(names, p, unit_den, den, terms, lam0, units, l0, l1, total):
    """(model, value) of a leaf the search recorded. It takes plain values,
    not the search, so a pool entry left unbuilt holds no search state."""
    return (ScoringSystem(lam0, terms, tuple(names[k] for k, _ in terms), p),
            ObjectiveValue(Fraction(units, unit_den), l0, l1, Fraction(total, den)))


class _Search:
    """Mutable state shared across the branch-and-bound recursion."""

    def __init__(self, agg, cfg, lattice, scfg, feature_names):
        self.agg = agg
        self.cfg = cfg
        self.names = list(feature_names) if feature_names is not None \
            else [f"f{j}" for j in range(agg.p)]

        p = agg.p
        self.p = p
        self.bounds = lattice.bounds_for(p)
        self.lam0_bound = lattice.intercept_bound
        self.cap = min(cfg.max_terms, p)

        # rows are the distinct patterns, positives first, stored by column
        units, self.unit_den = loss_units(agg, cfg)
        # a total is an int over den: unit_scale per loss unit, c0_units per
        # term and eps_units per unit of coefficient magnitude
        self.den = math.lcm(self.unit_den, cfg.c0.denominator, cfg.epsilon.denominator)
        self.unit_scale = self.den // self.unit_den
        self.c0_units = cfg.c0.numerator * (self.den // cfg.c0.denominator)
        self.eps_units = cfg.epsilon.numerator * (self.den // cfg.epsilon.denominator)
        n_pos = self.n_pos = agg.n_pos_patterns
        self.cols = np.ascontiguousarray(
            np.concatenate([agg.pos_patterns, agg.neg_patterns]).T, dtype=np.int64)
        leaf_steps, self.start = exact_steps(units, n_pos)
        # float64, as curve_plan takes them, so no call converts them again
        self.leaf_steps = leaf_steps.astype(np.float64)
        # a conflict pair costs its cheaper side from the positive's step,
        # where the positive stops being surely lost, to the negative's,
        # where the negative becomes surely lost
        s = agg.conflict_pairs[:, 0]
        t = agg.conflict_pairs[:, 1] + n_pos
        pair = np.minimum(units[s], units[t])
        self.bound_steps = self.leaf_steps.copy()
        self.bound_steps[s] += pair
        self.bound_steps[t] -= pair

        self.order = self._feature_order()
        self.values = [self._value_order(j) for j in range(p)]

        lo, width = -self.lam0_bound, 2 * self.lam0_bound + 1
        self.dtype = units_dtype(units)
        # a node's own leaf and interval bound: siblings over no coefficient
        whole = np.zeros(len(units), dtype=np.int64)
        self.leaf_plan = sibling_plan(self.leaf_steps, self.start, whole, [(0,)], (), lo, width)
        self.bound_plan = sibling_plan(self.bound_steps, self.start, whole, [(0,)], (), lo, width)
        self.lam0_grid = np.arange(lo, lo + width)
        # segment of a row with x_j = 1 when siblings on j are bounded: a
        # positive's edge moves by v - b_j, a negative's by v + b_j
        self.side = np.where(np.arange(len(units)) < n_pos, 1, 2)
        self.lam0_order = intercept_order(self.lam0_grid)

        # the grouped bound: its intercept grid, clipped where the loss stops
        # changing, and the values of the widest coefficient
        self.grid_half = min(self.lam0_bound, int(self.bounds.sum()) + 1)
        self.block = 2 * int(self.bounds.max(initial=0)) + 1
        # the groupings by the free features order[d:] of every depth d the
        # rule admits; refining by the reversed order meets the depths from
        # the deepest up, and the rule refuses every depth above the first
        # one it refuses
        self.groupings = {}
        for d, grouping in zip(range(p, -1, -1),
                               refined_groups(self.cols, self.order[::-1], self.bounds)):
            if not self._fits(grouping[1]):
                break
            self.groupings[d] = grouping
        self.grouped_plans = {}  # depth: see _grouped_plan

        # the penalty a value of feature j adds to its node's total
        self.value_cost = [[self._total(0, v != 0, abs(v)) for v in vals]
                           for vals in self.values]
        self.sibling_plans = {}  # (j, bound): see _sibling_plan

        # base: scores of the fixed coefficients; edge: the highest score a
        # completion can give a positive row, the lowest a negative one
        reach = self.bounds @ self.cols
        self.base = np.zeros(len(units), dtype=np.int64)
        self.edge = np.concatenate([reach[:n_pos], -reach[n_pos:]])
        self.row = np.empty(len(units), dtype=np.int64)  # scratch for _move
        self.fixed = np.zeros(p, dtype=bool)
        self.terms = ()  # the nonzero fixed coefficients as model terms
        self.n_nonzero = 0
        self.l1_fixed = 0

        self.pool = SolutionPool(scfg.pool_size)
        # best total found within each term budget 0..cap (at most k terms)
        self.best_leq = [None] * (self.cap + 1)
        self.nodes = 0

    # -- branching order ----------------------------------------------------

    def _class_signal(self, j):
        n_pos = int(self.agg.pos_counts.sum())
        prev = Fraction(n_pos, self.agg.source_n)
        on = self.cols[j] == 1
        active_pos = int(self.agg.pos_counts[on[:self.n_pos]].sum())
        active = active_pos + int(self.agg.neg_counts[on[self.n_pos:]].sum())
        if active == 0:
            return None, prev
        return Fraction(active_pos, active), prev

    def _feature_order(self):
        keyed = []
        for j in range(self.p):
            cond, prev = self._class_signal(j)
            signal = abs(cond - prev) if cond is not None else Fraction(-1)
            keyed.append((-signal, j))
        keyed.sort()
        return [j for _, j in keyed]

    def _value_order(self, j):
        cond, prev = self._class_signal(j)
        lead = 1 if cond is None or cond >= prev else -1
        vals = [0]
        for mag in range(1, int(self.bounds[j]) + 1):
            vals.extend((lead * mag, -lead * mag))
        return vals

    # -- incremental assignment ----------------------------------------------

    def _move(self, j, v, sign):
        """Fix coefficient j to v (sign 1), or free it again (sign -1)."""
        col, b, n_pos, row = self.cols[j], int(self.bounds[j]), self.n_pos, self.row
        if v:
            np.multiply(col, sign * v, out=row)
            self.base += row
            self.n_nonzero += sign
            self.l1_fixed += sign * abs(v)
            self.terms = self._with(j, v) if sign > 0 \
                else tuple(t for t in self.terms if t[0] != j)
        np.multiply(col[:n_pos], sign * (v - b), out=row[:n_pos])
        np.multiply(col[n_pos:], sign * (v + b), out=row[n_pos:])
        self.edge += row
        self.fixed[j] = sign > 0

    def apply(self, j, v):
        self._move(j, v, 1)

    def undo(self, j, v):
        self._move(j, v, -1)

    # -- bounding and leaf evaluation -----------------------------------------

    def _with(self, j, v):
        """The fixed terms with coefficient j set to v."""
        return tuple(sorted(self.terms + ((j, v),))) if v else self.terms

    def _total(self, units, l0, l1) -> int:
        """units of loss plus the penalties of l0 terms of magnitude sum l1,
        as a total over den."""
        return units * self.unit_scale + self.c0_units * l0 + self.eps_units * l1

    def fraction(self, total) -> Fraction:
        """The objective value of a total."""
        return Fraction(total, self.den)

    def _fits(self, half) -> bool:
        """The rule that picks a node's bound, from its free features alone:
        the grouped bound when the groups of the rows by their values on
        the free features, with offset reaches half, give a sibling block of
        at most _GROUPED_ELEMENTS, and the interval bound otherwise. Freeing
        one more feature never merges groups or narrows a reach, so the
        rule that refuses a free set refuses every set containing it."""
        size = len(half) * (2 * (self.grid_half + int(half.max())) + 1) * self.block
        return size <= _GROUPED_ELEMENTS

    def _grouping(self, free):
        """(inverse, half): the rows grouped by their values on the
        features free, as refined_groups gives them, or None when the rule
        refuses free."""
        for grouping in refined_groups(self.cols, free, self.bounds):
            if not self._fits(grouping[1]):
                return None
        return grouping

    def bound(self, lam0=None) -> int:
        """Lower bound on every completion of the current node, least over
        the intercept grid (or at the intercept lam0), plus the penalties of
        the fixed coefficients, as a total over den. It is the grouped bound
        where the rule admits the node's free features, and elsewhere the
        loss of the edge scores."""
        grouping = self._grouping(np.flatnonzero(~self.fixed).tolist())
        if grouping is not None:
            lo, width = (-self.grid_half, 2 * self.grid_half + 1) if lam0 is None \
                else (int(lam0), 1)
            plan = grouped_plan(self.leaf_steps, self.start, *grouping,
                                np.zeros_like(self.base), 0, lo, width)
            units = grouped_bounds(plan, self.base, self.dtype)[0]
        elif lam0 is None:
            units = sibling_curves(self.bound_plan, self.edge, self.dtype).min()
        else:
            plan = sibling_plan(self.bound_steps, self.start, np.zeros_like(self.base), [(0,)],
                                (), int(lam0), 1)
            units = sibling_curves(plan, self.edge, self.dtype)[0]
        return self._total(int(units), self.n_nonzero, self.l1_fixed)

    def leaf(self):
        """(units, lam0): the loss of the current coefficients at their
        canonical intercept; unfixed coefficients are zero here."""
        units, lam0 = least_loss(sibling_curves(self.leaf_plan, self.base, self.dtype),
                                 self.lam0_grid, self.lam0_order)
        return int(units), int(lam0)

    def _sibling_plan(self, j, bound):
        """The loss.sibling_plan of every value v of feature j, built on
        first use. For leaves the rows with x_j = 1 move by v. For bounds,
        with x_j = 1, positive edges move by v - b_j and negative ones by v
        + b_j."""
        plan = self.sibling_plans.get((j, bound))
        if plan is None:
            b = int(self.bounds[j])
            steps, seg, moves = (
                (self.bound_steps, self.cols[j] * self.side, [(0, 0), (1, -b), (1, b)])
                if bound else (self.leaf_steps, self.cols[j], [(0, 0), (1, 0)]))
            plan = self.sibling_plans[(j, bound)] = sibling_plan(
                steps, self.start, seg, moves, (b,), -self.lam0_bound, len(self.lam0_grid))
        return plan

    def child_leaves(self, j, at):
        """leaf() of every child that sets the free coefficient j to
        values[j][c], for each position c in at: (units, lam0) lists."""
        units, lam0 = least_loss(
            sibling_curves(self._sibling_plan(j, False), self.base, self.dtype),
            self.lam0_grid, self.lam0_order)
        pos = [self.values[j][c] + int(self.bounds[j]) for c in at]
        return units[pos].tolist(), lam0[pos].tolist()

    def _grouped_plan(self, depth):
        """The loss.grouped_plan that bounds the children of a node at
        depth, built on first use: the grouping of depth + 1, with feature
        order[depth] taking each of its values."""
        plan = self.grouped_plans.get(depth)
        if plan is None:
            j = self.order[depth]
            plan = self.grouped_plans[depth] = grouped_plan(
                self.leaf_steps, self.start, *self.groupings[depth + 1], self.cols[j],
                int(self.bounds[j]), -self.grid_half, 2 * self.grid_half + 1)
        return plan

    def child_bounds(self, depth, at):
        """bound() of every child that sets the free coefficient j =
        order[depth] to values[j][c], for each position c in at."""
        j = self.order[depth]
        pos = [self.values[j][c] + int(self.bounds[j]) for c in at]
        if depth + 1 in self.groupings:
            # the children's free features are order[depth + 1:]
            first = min(pos)
            units = grouped_bounds(self._grouped_plan(depth), self.base, self.dtype, first,
                                   max(pos) - first + 1)[[i - first for i in pos]].tolist()
        else:
            curves = sibling_curves(self._sibling_plan(j, True), self.edge, self.dtype)
            units = curves.min(axis=1)[pos].tolist()
        fixed, cost = self._total(0, self.n_nonzero, self.l1_fixed), self.value_cost[j]
        return [u * self.unit_scale + fixed + cost[c] for c, u in zip(at, units)]

    def children(self, depth):
        """Every child of the current node at `depth`, scored at once
        without touching the state: for each value of feature order[depth],
        in value order, (True, units, lam0) for a leaf or (False, bound,
        None) for an inner node. A node is expanded only below the term
        cap, so every child fits under it."""
        j = self.order[depth]
        vals = self.values[j]
        kids = [None] * len(vals)
        leaves, inner = [], []
        for c, v in enumerate(vals):
            l0 = self.n_nonzero + (v != 0)
            (leaves if depth + 1 == self.p or l0 == self.cap else inner).append(c)
        if leaves:
            units, lam0 = self.child_leaves(j, leaves)
            for c, u, lam in zip(leaves, units, lam0):
                kids[c] = (True, u, lam)
        if inner:
            for c, bound in zip(inner, self.child_bounds(depth, inner)):
                kids[c] = (False, bound, None)
        return kids

    def record(self, j, v, units, lam0):
        """Offer the leaf that adds coefficient j = v to the fixed ones (v
        = 0 adds none), with intercept lam0 and loss units, to the pool and
        to best_leq; return its total."""
        l0, l1 = self.n_nonzero + (v != 0), self.l1_fixed + abs(v)
        total = self._total(units, l0, l1)
        # a leaf the pool turns away by total has one with at most l0 terms
        # and no larger total before it, so best_leq has no use for it either
        if self.pool.rejects(total, l0):
            return total
        terms = self._with(j, v)
        build = functools.partial(_build_entry, self.names, self.p, self.unit_den, self.den,
                                  terms, lam0, units, l0, l1, total)
        self.pool.offer(total, (lam0,) + terms, l0, build)
        # best_leq never increases with k, so the first budget not improved
        # ends the update
        for k in range(l0, self.cap + 1):
            if self.best_leq[k] is not None and not total < self.best_leq[k]:
                break
            self.best_leq[k] = total
        return total

    def greedy_seed(self, deadline):
        """Deterministic forward selection used to warm-start the incumbents:
        at each sparsity step, score every single-coefficient extension of
        the current support, keep the best, and record everything in the
        pool."""
        chosen = []
        for _ in range(self.cap):
            best = None
            fixed = dict(self.terms)
            for j in range(self.p):
                if j in fixed:
                    continue
                vals = self.values[j]
                at = list(range(1, len(vals)))
                for c, units, lam0 in zip(at, *self.child_leaves(j, at)):
                    total = self.record(j, vals[c], units, lam0)
                    if best is None or total < best[0]:
                        best = (total, j, vals[c])
            if best is None or time.monotonic() > deadline:
                break
            _, j, v = best
            self.apply(j, v)
            chosen.append((j, v))
        for j, v in reversed(chosen):
            self.undo(j, v)

    @property
    def incumbent_total(self):
        return self.best_leq[self.cap]


def solve(agg: AggregatedDataset, cfg: PenaltyConfig, lattice: LatticeSpec,
          scfg: SolveConfig, telemetry: Optional[Callable] = None,
          feature_names=None):
    """Minimize the objective over the coefficient lattice.

    Returns (SolveReport, SolutionPool). Deterministic for fixed inputs when
    limited by node count; a wall-clock limit returns a valid incumbent and
    bound but may cut the tree at a machine-dependent point.
    """
    if agg.source_n < 1:
        raise ValueError("dataset is empty")
    cfg.validate_for(agg.source_n, agg.p, lattice)

    search = _Search(agg, cfg, lattice, scfg, feature_names)
    started = time.monotonic()
    deadline = started + scfg.time_limit

    # seed with the best intercept-only model so an incumbent always exists
    # even under a zero node budget, then warm-start with greedy forward
    # selection (everything it touches lands in the pool)
    search.record(0, 0, *search.leaf())
    search.greedy_seed(started + 0.4 * scfg.time_limit)

    # frames[d] enumerates values for feature order[d]; "kids" holds all of
    # its children, scored at once (search.children) on its first visit;
    # "applied" is the value of the child being descended into, the only
    # child ever pushed onto the shared incremental state
    frames = [{"bound": search.bound(), "next": 0, "applied": None, "kids": None}]
    status = "optimal"

    def lower_bound():
        lb = search.incumbent_total
        for d, f in enumerate(frames):
            if f["next"] < len(search.values[search.order[d]]) and f["bound"] < lb:
                lb = f["bound"]
        return lb

    def emit():
        if telemetry is not None:
            telemetry({"time": time.monotonic() - started,
                       "nodes": search.nodes,
                       "incumbent": frac_str(search.fraction(search.incumbent_total)),
                       "bound": frac_str(search.fraction(lower_bound()))})

    emit()
    last_emit = 0
    last_incumbent = search.incumbent_total

    while frames:
        if search.nodes - last_emit >= 1024:
            emit()
            last_emit = search.nodes
        if time.monotonic() > deadline:
            status = "time_limit"
            break
        if scfg.node_limit is not None and search.nodes >= scfg.node_limit:
            status = "node_limit"
            break

        depth = len(frames) - 1
        frame = frames[-1]
        j = search.order[depth]
        vals = search.values[j]

        if frame["applied"] is not None:
            search.undo(j, frame["applied"])
            frame["applied"] = None
        if frame["next"] >= len(vals):
            frames.pop()
            continue
        if frame["kids"] is None:
            frame["kids"] = search.children(depth)

        v = vals[frame["next"]]
        kid = frame["kids"][frame["next"]]
        frame["next"] += 1
        search.nodes += 1

        is_leaf, score, lam0 = kid
        if is_leaf:
            search.record(j, v, score, lam0)
            if search.incumbent_total != last_incumbent:
                last_incumbent = search.incumbent_total
                emit()
            continue

        if score > search.best_leq[search.n_nonzero + (v != 0)]:
            continue
        search.apply(j, v)
        frame["applied"] = v
        frames.append({"bound": score, "next": 0, "applied": None, "kids": None})

    exhausted = not frames
    lb = search.fraction(search.incumbent_total if exhausted else lower_bound())

    best_model, best_value = search.pool.best()
    gap = relative_gap(best_value.total, lb)
    if gap == 0:
        status = "optimal"
    report = SolveReport(
        best=best_model,
        best_objective=best_value.total,
        lower_bound=lb,
        gap=gap,
        nodes_explored=search.nodes,
        wall_time=time.monotonic() - started,
        status=status,
    )
    if telemetry is not None:
        telemetry({"time": report.wall_time, "nodes": search.nodes,
                   "incumbent": frac_str(report.best_objective),
                   "bound": frac_str(lb)})
    return report, search.pool


def brute_force_solve(agg: AggregatedDataset, cfg: PenaltyConfig,
                      lattice: LatticeSpec):
    """Exhaustive lattice enumeration; the reference answer for solve().

    Iterates (intercept, coef_1, ..., coef_P) in ascending lexicographic
    order keeping strict improvements, so ties resolve to the smallest
    tuple. Guarded to 10^7 lattice points.
    """
    p = agg.p
    bounds = lattice.bounds_for(p)
    size = 2 * lattice.intercept_bound + 1
    for b in bounds:
        size *= 2 * int(b) + 1
        if size > 10**7:
            raise ValueError("lattice too large for exhaustive enumeration")

    pos = agg.pos_patterns.astype(np.int64)
    neg = agg.neg_patterns.astype(np.int64)
    n = agg.source_n

    best_total = None
    best = None
    coef_ranges = [range(-int(b), int(b) + 1) for b in bounds]
    for lam0 in range(-lattice.intercept_bound, lattice.intercept_bound + 1):
        for coefs in itertools.product(*coef_ranges):
            l0 = sum(1 for c in coefs if c != 0)
            if l0 > cfg.max_terms:
                continue
            cvec = np.array(coefs, dtype=np.int64)
            pos_wrong = int(agg.pos_counts[(pos @ cvec + lam0) <= 0].sum()) if len(pos) else 0
            neg_wrong = int(agg.neg_counts[(neg @ cvec + lam0) >= 1].sum()) if len(neg) else 0
            werr = cfg.w_plus * Fraction(pos_wrong, n) + cfg.w_minus * Fraction(neg_wrong, n)
            l1 = sum(abs(c) for c in coefs)
            total = werr + cfg.c0 * l0 + cfg.epsilon * l1
            if best_total is None or total < best_total:
                best_total = total
                best = (lam0, coefs, werr, l0, l1)

    lam0, coefs, werr, l0, l1 = best
    model = ScoringSystem.from_dense(lam0, coefs, [f"f{j}" for j in range(p)])
    return model, ObjectiveValue.build(werr, l0, l1, cfg)
