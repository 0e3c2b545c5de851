"""Exact branch-and-bound minimization of the scoring-system objective.

The search branches on feature coefficients only. Features are branched in
descending order of class signal |P(y=+1 | x_j=1) - P(y=+1)|, with
candidate values tried outward from 0. The intercept is never branched on:
the loss as a function of a shared offset added to every score is a step
function, so one loss curve over the intercept grid (loss.loss_curves)
gives the loss of every intercept at once.

The search keeps two score vectors over the distinct patterns. base holds
the scores of the fixed coefficients; unfixed ones count as zero. edge
adds to base the reach of the unfixed coefficients, each relaxed to its
interval [-bound_j, bound_j] independently per pattern: upward for a
positive pattern, downward for a negative one. A leaf is the curve of base
at its least point, with ties broken toward the smallest intercept. A
node's bound is the least point of the curve of edge: every pattern that
misses its margin even at its edge score is surely lost. Conflict pairs
(one pattern occurring with both labels) are folded into the bound's step
weights: a pair costs its cheaper side over the offsets where neither of
its rows is surely lost. The bound is monotone along any search path, so
the proven lower bound never decreases and exhausting the tree certifies
optimality.

Pruning keeps one incumbent per sparsity budget: a subtree is cut only
when its bound exceeds the best total found within the smallest term
budget the subtree could still fit. This costs some pruning power but
leaves the solution pool holding the best model at every sparsity level,
which the cross-validation pipeline consumes directly.

All loss bookkeeping is in integer units (losses are multiples of 1/(c*N)
where c is the common denominator of the class weights); rationals appear
only at incumbent comparisons, so results are exact.
"""

from __future__ import annotations

import itertools
import time
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .common import as_fraction, frac_str
from .data import AggregatedDataset
from .loss import curve_plan, exact_steps, loss_curves, loss_units
from .model import (
    LatticeSpec,
    ObjectiveValue,
    PenaltyConfig,
    ScoringSystem,
)

_TINY = Fraction(1, 10**12)


@dataclass(frozen=True)
class SolveConfig:
    """Search limits. gap_tolerance 0 demands a proof of optimality."""

    time_limit: float = 60.0
    pool_size: int = 500
    gap_tolerance: Fraction = Fraction(0)
    node_limit: Optional[int] = None
    term_cap: Optional[int] = None  # default: PenaltyConfig.max_terms

    def __post_init__(self):
        if self.time_limit <= 0:
            raise ValueError("time_limit must be positive")
        if self.pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        object.__setattr__(self, "gap_tolerance", as_fraction(self.gap_tolerance))


class SolutionPool:
    """Best distinct feasible solutions, ascending by (total, coefficients).

    Eviction protects the sparsity frontier: the best entry at each term
    count survives even when denser models dominate the top of the pool,
    so downstream term-count tuning always has a candidate per level.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("pool capacity must be >= 1")
        self.capacity = capacity
        self._entries = []  # (total, key, ScoringSystem, ObjectiveValue)
        self._keys = set()

    def __len__(self):
        return len(self._entries)

    def _frontier_flags(self):
        flags = []
        best_l0 = None
        for _, _, model, _ in self._entries:
            on = best_l0 is None or model.l0 < best_l0
            flags.append(on)
            if on:
                best_l0 = model.l0
        return flags

    def add(self, model: ScoringSystem, value: ObjectiveValue) -> bool:
        key = model.key()
        if key in self._keys:
            return False
        item = (value.total, key, model, value)
        if len(self._entries) >= self.capacity:
            beats_worst = item[:2] < self._entries[-1][:2]
            at_level = self.best_with_at_most(model.l0)
            improves_frontier = at_level is None or value.total < at_level[1].total
            if not (beats_worst or improves_frontier):
                return False
        insort(self._entries, item)
        self._keys.add(key)
        if len(self._entries) > self.capacity:
            flags = self._frontier_flags()
            victim = len(self._entries) - 1
            for i in range(len(self._entries) - 1, -1, -1):
                if not flags[i]:
                    victim = i
                    break
            _, worst_key, _, _ = self._entries.pop(victim)
            self._keys.discard(worst_key)
        return True

    def best(self):
        if not self._entries:
            return None
        _, _, model, value = self._entries[0]
        return model, value

    @property
    def entries(self):
        return [(model, value) for _, _, model, value in self._entries]

    def best_with_at_most(self, k: int):
        """Best entry using at most k terms, or None."""
        for _, _, model, value in self._entries:
            if model.l0 <= k:
                return model, value
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
    assignment: the bound the search prunes with.

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
    return search.bound(partial[0])


# ---------------------------------------------------------------------------
# internal search machinery
# ---------------------------------------------------------------------------

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
        cap = cfg.max_terms if scfg.term_cap is None else scfg.term_cap
        self.cap = min(cap, p)

        # rows are the distinct patterns, positives first, stored by column
        units, self.unit_den = loss_units(agg, cfg)
        n_pos = self.n_pos = agg.n_pos_patterns
        self.cols = np.ascontiguousarray(
            np.concatenate([agg.pos_patterns, agg.neg_patterns]).T, dtype=np.int64)
        leaf_steps, self.start = exact_steps(units, n_pos)
        # a conflict pair costs its cheaper side from the positive's step,
        # where the positive stops being surely lost, to the negative's,
        # where the negative becomes surely lost
        s = agg.conflict_pairs[:, 0]
        t = agg.conflict_pairs[:, 1] + n_pos
        pair = np.minimum(units[s], units[t])
        self.bound_steps = leaf_steps.copy()
        self.bound_steps[s] += pair
        self.bound_steps[t] -= pair

        lo, width = -self.lam0_bound, 2 * self.lam0_bound + 1
        self.leaf_plan = curve_plan(leaf_steps, self.start, None, 1, lo, width)
        self.bound_plan = curve_plan(self.bound_steps, self.start, None, 1, lo, width)
        self.lam0_grid = np.arange(lo, lo + width)
        # intercept tie-break: smallest magnitude, negative before positive
        self.lam0_order = np.argsort(np.abs(self.lam0_grid) * 2
                                     + (self.lam0_grid > 0).astype(np.int64),
                                     kind="stable")

        self.order = self._feature_order()
        self.values = [self._value_order(j) for j in range(p)]

        # base: scores of the fixed coefficients; edge: the highest score a
        # completion can give a positive row, the lowest a negative one
        reach = self.bounds @ self.cols
        self.base = np.zeros(len(units), dtype=np.int64)
        self.edge = np.concatenate([reach[:n_pos], -reach[n_pos:]])
        self.coef = np.zeros(p, dtype=np.int64)
        self.n_nonzero = 0
        self.l1_fixed = 0

        self.pool = SolutionPool(scfg.pool_size)
        # best total found within each term budget 0..cap (at most k terms)
        self.best_leq = [None] * (self.cap + 1)
        self.nodes = 0
        self._penalty_cache = {}

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
        col, b, n_pos = self.cols[j], int(self.bounds[j]), self.n_pos
        if v:
            self.base += sign * v * col
            self.n_nonzero += sign
            self.l1_fixed += sign * abs(v)
            self.coef[j] = v if sign > 0 else 0
        self.edge[:n_pos] += sign * (v - b) * col[:n_pos]
        self.edge[n_pos:] += sign * (v + b) * col[n_pos:]

    def apply(self, j, v):
        self._move(j, v, 1)

    def undo(self, j, v):
        self._move(j, v, -1)

    # -- bounding and leaf evaluation -----------------------------------------

    def _penalty(self, l0, l1):
        key = (l0, l1)
        pen = self._penalty_cache.get(key)
        if pen is None:
            pen = self.cfg.c0 * l0 + self.cfg.epsilon * l1
            self._penalty_cache[key] = pen
        return pen

    def bound(self, lam0=None) -> Fraction:
        """Lower bound on every completion of the current node: the loss of
        the edge scores, least over the intercept grid (or at the intercept
        lam0), plus the penalties of the fixed coefficients."""
        if lam0 is None:
            units = loss_curves(self.bound_plan, self.edge).min()
        else:
            plan = curve_plan(self.bound_steps, self.start, None, 1, int(lam0), 1)
            units = loss_curves(plan, self.edge)[0, 0]
        return Fraction(int(units), self.unit_den) + self._penalty(self.n_nonzero, self.l1_fixed)

    def evaluate_leaf(self):
        """Exact objective of the current coefficients with the best
        intercept; unfixed coefficients are zero here."""
        profile = loss_curves(self.leaf_plan, self.base)[0]
        best_idx = self.lam0_order[np.argmin(profile[self.lam0_order])]
        units = int(profile[best_idx])
        lam0 = int(self.lam0_grid[best_idx])

        werr = Fraction(units, self.unit_den)
        value = ObjectiveValue.build(werr, self.n_nonzero, self.l1_fixed, self.cfg)
        model = ScoringSystem.from_dense(lam0, self.coef, self.names)
        self.pool.add(model, value)
        for k in range(self.n_nonzero, self.cap + 1):
            if self.best_leq[k] is None or value.total < self.best_leq[k]:
                self.best_leq[k] = value.total
        return value.total

    def greedy_seed(self, deadline):
        """Deterministic forward selection used to warm-start the incumbents:
        at each sparsity step, try every single-coefficient extension of the
        current support, keep the best, and record everything in the pool."""
        chosen = []
        for _ in range(self.cap):
            best = None
            for j in range(self.p):
                if self.coef[j] != 0:
                    continue
                for v in self.values[j][1:]:
                    self.apply(j, v)
                    total = self.evaluate_leaf()
                    self.undo(j, v)
                    if best is None or total < best[0]:
                        best = (total, j, v)
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
    if scfg.term_cap is not None and scfg.term_cap < 0:
        raise ValueError(f"infeasible term cap {scfg.term_cap}")
    cfg.validate_for(agg.source_n, agg.p, lattice)

    search = _Search(agg, cfg, lattice, scfg, feature_names)
    started = time.monotonic()
    deadline = started + scfg.time_limit

    # seed with the best intercept-only model so an incumbent always exists
    # even under a zero node budget, then warm-start with greedy forward
    # selection (everything it touches lands in the pool)
    search.evaluate_leaf()
    search.greedy_seed(started + 0.4 * scfg.time_limit)

    # frames[d] enumerates values for feature order[d]; "applied" is the
    # value currently pushed onto the shared incremental state
    frames = [{"bound": search.bound(), "next": 0, "applied": None}]
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
                       "incumbent": frac_str(search.incumbent_total),
                       "bound": frac_str(lower_bound())})

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

        v = vals[frame["next"]]
        frame["next"] += 1
        if v != 0 and search.n_nonzero >= search.cap:
            continue
        search.apply(j, v)
        frame["applied"] = v
        search.nodes += 1

        if depth + 1 == search.p or search.n_nonzero >= search.cap:
            search.evaluate_leaf()
            if search.incumbent_total != last_incumbent:
                last_incumbent = search.incumbent_total
                emit()
                if scfg.gap_tolerance > 0 and \
                        relative_gap(last_incumbent, lower_bound()) <= scfg.gap_tolerance:
                    break
            continue

        child_bound = search.bound()
        if child_bound > search.best_leq[search.n_nonzero]:
            continue
        frames.append({"bound": child_bound, "next": 0, "applied": None})

    exhausted = not frames
    lb = search.incumbent_total if exhausted else lower_bound()

    best_model, best_value = search.pool.best()
    gap = relative_gap(best_value.total, lb)
    if gap <= scfg.gap_tolerance:
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
