"""The benchmark's workloads: seeded inputs, one timed operation each, and
the checks on every operation's outputs.

The row-order seed (--seed) permutes the rows the program receives. The
program aggregates rows into sorted distinct patterns, so every row order
gives the same work and the same exact outputs; a run whose outputs depend
on the seed fails the determinism gate. The instance seed picks the
synthetic instance itself and defaults to the values below.
"""

from __future__ import annotations

import functools
import importlib
from fractions import Fraction

import numpy as np

# by module path: the package re-exports the function polish under the
# same name as its module
data, evaluation, model, mps, polish, solver = (
    importlib.import_module(f"intscore.{name}")
    for name in ("data", "evaluation", "model", "mps", "polish", "solver"))
from intscore.model import LatticeSpec, PenaltyConfig
from intscore.solver import SolveConfig

# the checks call the program's functions directly, never through a wrapper
_objective = model.objective

# solve() stops greedy seeding at this share of time_limit; a solve that
# reaches it did a machine-dependent amount of work
SEED_SHARE = 0.4
TIME_CEILING = 900.0


class Probe:
    """Checks every solve() and counts polish() calls, at every name they
    are called by. Installed for the whole run, traced or not: it adds a
    telemetry callback and one exact objective per solve, and one counter
    increment per polish call."""

    def __init__(self):
        self.op = None
        self.solves = []  # one dict per solve, tagged with its op
        self.polish_calls = {}
        self._patched = []

    def install(self):
        for mod in (solver, evaluation):
            self._patch(mod, "solve", self._checked_solve(mod.solve))
        for mod in (polish, evaluation):
            self._patch(mod, "polish", self._counted_polish(mod.polish))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def _patch(self, mod, attr, fn):
        self._patched.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, fn)

    def _counted_polish(self, orig):
        @functools.wraps(orig)
        def counted(*args, **kwargs):
            self.polish_calls[self.op] = self.polish_calls.get(self.op, 0) + 1
            return orig(*args, **kwargs)
        return counted

    def _checked_solve(self, orig):
        @functools.wraps(orig)
        def checked(agg, cfg, lattice, scfg, telemetry=None, feature_names=None):
            records = []

            def record(rec):
                records.append(rec)
                if telemetry is not None:
                    telemetry(rec)

            report, pool = orig(agg, cfg, lattice, scfg, telemetry=record,
                                feature_names=feature_names)
            self.solves.append(_solve_entry(self.op, agg, cfg, scfg, report, pool, records))
            return report, pool
        return checked

    def op_solves(self, op):
        return [s for s in self.solves if s["op"] == op]


def _solve_entry(op, agg, cfg, scfg, report, pool, records):
    seed_s = records[0]["time"]
    final = records[-1]["incumbent"]
    time_to_best = next(r["time"] for r in records if r["incumbent"] == final)
    failures = []
    if _objective(report.best, agg, cfg).total != report.best_objective:
        failures.append("objective(best) != best_objective")
    if not report.lower_bound <= report.best_objective:
        failures.append("lower_bound > best_objective")
    if report.best.l0 > cfg.max_terms:
        failures.append(f"l0 {report.best.l0} > max_terms {cfg.max_terms}")
    if report.status == "time_limit":
        failures.append("solve hit its time limit; work depends on machine speed")
    if seed_s >= SEED_SHARE * scfg.time_limit:
        failures.append("greedy seeding reached its time cap")
    return {"op": op, "seed_s": seed_s, "wall_s": report.wall_time,
            "nodes": report.nodes_explored, "status": report.status,
            "gap": float(report.gap), "lower_bound": float(report.lower_bound),
            "time_to_best_s": time_to_best, "pool_entries": len(pool),
            "patterns": agg.n_pos_patterns + agg.n_neg_patterns,
            "conflict_pairs": len(agg.conflict_pairs), "failures": failures}


def shuffled(ds, order_seed):
    perm = np.random.default_rng(order_seed).permutation(ds.n)
    return data.BinaryDataset(ds.features, ds.X[perm], ds.y[perm]), perm


def score_auc(m, agg) -> Fraction:
    """Exact ROC AUC of the model's integer score on aggregated rows, ties
    counted half."""
    if not (agg.n_pos_patterns and agg.n_neg_patterns):
        raise ValueError("AUC needs both classes")
    sp, sn = m.scores(agg.pos_patterns), m.scores(agg.neg_patterns)
    order = np.argsort(sn, kind="stable")
    sn_sorted = sn[order]
    cum = np.concatenate(([0], np.cumsum(agg.neg_counts[order])))
    below = cum[np.searchsorted(sn_sorted, sp, "left")]
    upto = cum[np.searchsorted(sn_sorted, sp, "right")]
    wins_twice = int((agg.pos_counts * (below + upto)).sum())
    return Fraction(wins_twice, 2 * int(agg.pos_counts.sum()) * int(agg.neg_counts.sum()))


def _tiny():
    return data.synth_generate([0.3, 0.5, 0.4, 0.6, 0.2], [1.0, -1.0, 0.5, 0.8, -0.6],
                               300, seed=1)


_TINY_LATTICE = LatticeSpec(3, 10)
_TINY_SCFG = SolveConfig(time_limit=TIME_CEILING, pool_size=20, node_limit=200)


class PaperTrain:
    """Paper scale (acceptance criterion 11's generator): N=33,796, P=48.
    One operation is the `intscore train` path plus polish and MPS export:
    load_csv, aggregate, solve, polish(best), export_mps("aggregated")."""

    name = "paper_train"
    default_instance_seed = 7
    lattice = LatticeSpec(10, 100)
    max_terms = 8
    scfg = SolveConfig(time_limit=TIME_CEILING, pool_size=500, node_limit=3000)

    def __init__(self, workdir, instance_seed):
        self.csv_path = workdir / "paper_train.csv"
        self.tiny_path = workdir / "tiny.csv"
        self.instance_seed = instance_seed

    def setup(self, order_seed):
        rng = np.random.default_rng(0)
        marg, w = rng.uniform(0.05, 0.9, 48), rng.normal(0, 0.6, 48)
        ds = data.synth_generate(marg, w, 33_796, seed=self.instance_seed, bias=0.3)
        data.write_csv(shuffled(ds, order_seed)[0], self.csv_path)
        data.write_csv(_tiny(), self.tiny_path)
        self._train(self.tiny_path, _TINY_LATTICE, 3, _TINY_SCFG)

    def operation(self):
        return self._train(self.csv_path, self.lattice, self.max_terms, self.scfg)

    @staticmethod
    def _train(path, lattice, max_terms, scfg):
        ds = data.load_csv(path, "y", "1")
        agg = data.aggregate(ds)
        cfg = PenaltyConfig.auto(1, ds.n, ds.p, lattice, max_terms)
        report, _ = solver.solve(agg, cfg, lattice, scfg, feature_names=ds.feature_names)
        polished, value = polish.polish(report.best, agg, cfg, lattice)
        text = mps.export_mps(agg, cfg, lattice, "aggregated")
        return agg, cfg, report, polished, value, text

    def verify(self, raw):
        agg, cfg, report, polished, value, text = raw
        failures = []
        if not value.total <= report.best_objective:
            failures.append("polish raised the objective")
        if polished.l0 > self.max_terms:
            failures.append(f"polished l0 {polished.l0} > {self.max_terms}")
        if not (text.isascii() and text.endswith("ENDATA\n")):
            failures.append("MPS text is not a complete ASCII file")
        return {"objective": value.total, "auc": score_auc(polished, agg),
                "mps_bytes": len(text)}, failures


class Certify:
    """One solve that proves optimality on narrow arrays: no seeding to
    speak of, no polish, all time in per-node bound and leaf cost."""

    name = "certify"
    default_instance_seed = 5
    # the optimum of the default instance, recorded from the first version
    # of this benchmark; any correct solver must reach exactly this value
    expected_optimum = Fraction(682883, 2000000)
    # 2/10 rather than 3/15 (250,936 nodes, 30-47 s) keeps one proof near
    # 7 s (51,855 nodes), so a 30 s run holds several operations
    lattice = LatticeSpec(2, 10)
    max_terms = 4
    scfg = SolveConfig(time_limit=TIME_CEILING, pool_size=500)

    def __init__(self, workdir, instance_seed):
        self.instance_seed = instance_seed

    def setup(self, order_seed):
        rng = np.random.default_rng(2)
        marg, w = rng.uniform(0.1, 0.8, 10), rng.normal(0, 0.8, 10)
        ds = data.synth_generate(marg, w, 5_000, seed=self.instance_seed, bias=-0.2)
        self.ds = shuffled(ds, order_seed)[0]
        self._solve(_tiny(), _TINY_LATTICE, 3, _TINY_SCFG)

    def operation(self):
        return self._solve(self.ds, self.lattice, self.max_terms, self.scfg)

    @staticmethod
    def _solve(ds, lattice, max_terms, scfg):
        agg = data.aggregate(ds)
        cfg = PenaltyConfig.auto(1, ds.n, ds.p, lattice, max_terms)
        report, _ = solver.solve(agg, cfg, lattice, scfg, feature_names=ds.feature_names)
        return agg, report

    def verify(self, raw):
        agg, report = raw
        failures = []
        if report.status != "optimal" or report.gap != 0:
            failures.append(f"status {report.status}, gap {report.gap}: not certified")
        if self.instance_seed == self.default_instance_seed \
                and report.best_objective != self.expected_optimum:
            failures.append(f"optimum {report.best_objective} != {self.expected_optimum}")
        return {"objective": report.best_objective,
                "auc": score_auc(report.best, agg)}, failures


class CvSweep:
    """The ROC workflow of `intscore sweep`: three weights, five folds, 18
    small node-limited solves and every pooled model polished."""

    name = "cv_sweep"
    default_instance_seed = 11
    lattice = LatticeSpec(10, 100)
    max_terms = 4
    protocol = evaluation.SweepProtocol(
        (Fraction(1, 2), Fraction(1), Fraction(3, 2)), cv_folds=5, pool_size=500,
        sparsity_grid=tuple(range(1, 5)))
    scfg = SolveConfig(time_limit=TIME_CEILING, pool_size=500, node_limit=2000)

    def __init__(self, workdir, instance_seed):
        self.instance_seed = instance_seed

    def setup(self, order_seed):
        rng = np.random.default_rng(1)
        marg, w = rng.uniform(0.1, 0.8, 12), rng.normal(0, 0.8, 12)
        ds = data.synth_generate(marg, w, 3_000, seed=self.instance_seed, bias=-0.2)
        # folds are drawn on the generated order, then permuted with the rows
        folds = data.make_folds(ds, seed=3)
        self.ds, perm = shuffled(ds, order_seed)
        self.folds = data.FoldAssignment(folds.test_mask[perm], folds.cv_fold[perm],
                                         folds.seed, folds.test_ratio, folds.n_folds)
        tiny = _tiny()
        evaluation.sweep(tiny, data.make_folds(tiny, seed=0),
                         evaluation.SweepProtocol((Fraction(1),), pool_size=20,
                                                  sparsity_grid=(1, 2)),
                         _TINY_LATTICE, _TINY_SCFG, max_terms=2)

    def operation(self):
        return evaluation.sweep(self.ds, self.folds, self.protocol, self.lattice,
                                self.scfg, max_terms=self.max_terms, jobs=1)

    def verify(self, result):
        failures = [f"point w+={p.w_plus} failed: {p.error}"
                    for p in result.points if p.status == "failed"]
        test = self.ds.subset(self.folds.test_mask)
        pos = test.y == 1
        for p in result.points:
            if p.model is None:
                continue
            pred = p.model.predictions(test.X) == 1
            tpr = Fraction(int((pred & pos).sum()), int(pos.sum()))
            fpr = Fraction(int((pred & ~pos).sum()), int((~pos).sum()))
            if (tpr, fpr) != (p.test.tpr, p.test.fpr):
                failures.append(f"point w+={p.w_plus}: test rates do not match its model")
        curve = result.curve()
        if trapezoid_auc([(f, t) for _, f, t, _ in curve.points]) != curve.auc:
            failures.append("curve AUC does not match its points")
        scored = [p.val_weighted_error for p in result.points if p.model is not None]
        objective = sum(scored, Fraction(0)) / len(scored) if scored else Fraction(0)
        return {"objective": objective, "auc": curve.auc}, failures


def trapezoid_auc(points) -> Fraction:
    pts = sorted([(Fraction(0), Fraction(0))] + list(points) + [(Fraction(1), Fraction(1))])
    return sum(((x2 - x1) * (y1 + y2) / 2 for (x1, y1), (x2, y2) in zip(pts, pts[1:])),
               Fraction(0))


WORKLOADS = {w.name: w for w in (PaperTrain, Certify, CvSweep)}
