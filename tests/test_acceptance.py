"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v`. The full-scale smoke test
(criterion 11) takes a few minutes; everything else is fast.
"""

import json
import math
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from intscore.cli import main as cli_main
from intscore.data import (
    BinaryDataset,
    FeatureSpec,
    aggregate,
    make_folds,
    synth_generate,
    write_csv,
)
from intscore.evaluation import SweepProtocol, calibration, sweep
from intscore.manifest import RunManifest
from intscore.model import LatticeSpec, PenaltyConfig, ScoringSystem, objective
from intscore.mps import export_mps
from intscore.polish import polish
from intscore.rules import mine_rules, rule_metrics
from intscore.solver import SolveConfig, node_bound, solve

from instances import a1a2_dataset, random_instance
from mps_reader import solve_mps
from oracles import (brute_force_solve, conflict_lower_bound, enumerate_rules, grouped_relaxation,
                     grouped_rule_admits, row_weighted_error)
from test_rules import lift_fixture

N_ORACLE_INSTANCES = 50


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL: {label}", file=sys.__stdout__, flush=True)
        raise
    print(f"ACCEPTANCE {num:02d} PASS: {label}", file=sys.__stdout__, flush=True)


@pytest.fixture(scope="module")
def oracle_suite():
    """Solve + brute force on the 50 seeded instances, timed. Each instance
    is solved as the rule picks its search, and again by the tree search
    (tree_report), whose support-search work budget of 0 refuses every
    input."""
    runs = []
    started = time.monotonic()
    scfg = SolveConfig(time_limit=30, pool_size=25)
    for seed in range(N_ORACLE_INSTANCES):
        ds, agg, cfg, lattice = random_instance(seed)
        report, pool = solve(agg, cfg, lattice, scfg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sys.modules["intscore.solver"], "_SUPPORT_ELEMENTS", 0)
            tree_report, _ = solve(agg, cfg, lattice, scfg)
        bf_model, bf_value = brute_force_solve(agg, cfg, lattice)
        runs.append({"ds": ds, "agg": agg, "cfg": cfg, "lattice": lattice,
                     "report": report, "pool": pool, "tree_report": tree_report,
                     "bf_model": bf_model, "bf_value": bf_value})
    elapsed = time.monotonic() - started
    return runs, elapsed


def test_01_oracle_equivalence(oracle_suite):
    runs, elapsed = oracle_suite
    with criterion(1, f"solve() equals brute force on {len(runs)} instances, by both "
                      f"searches ({elapsed:.1f}s <= 30s)"):
        assert len(runs) == N_ORACLE_INSTANCES
        for run in runs:
            for report in (run["report"], run["tree_report"]):
                assert report.status == "optimal"
                assert report.best_objective == run["bf_value"].total
            assert run["tree_report"].search == "tree"
        assert {run["report"].search for run in runs} == {"support", "tree"}
        assert elapsed <= 30.0


def test_02_worked_example():
    with criterion(2, "two-feature fixture recovers intercept 1, coefficients -1/-1"):
        ds = a1a2_dataset()
        agg = aggregate(ds)
        lattice = LatticeSpec(2, 2)
        cfg = PenaltyConfig.auto(1, ds.n, ds.p, lattice)
        report, _ = solve(agg, cfg, lattice, SolveConfig(time_limit=30, pool_size=5),
                          feature_names=ds.feature_names)
        assert report.status == "optimal"
        assert report.best.intercept == 1
        assert report.best.terms == ((0, -1), (1, -1))
        assert objective(report.best, agg, cfg).weighted_error == 0


def _min_l1_in_class(agg, cfg, lattice, target_loss, target_l0):
    """Smallest coefficient-magnitude sum among lattice models achieving the
    given (weighted loss, term count); independent matrix evaluation."""
    p = agg.p
    bounds = lattice.bounds_for(p)
    pos = agg.pos_patterns.astype(np.int64)
    neg = agg.neg_patterns.astype(np.int64)
    n = agg.source_n
    best = None
    for coefs in product(*[range(-int(b), int(b) + 1) for b in bounds]):
        l0 = sum(1 for c in coefs if c != 0)
        if l0 != target_l0:
            continue
        cvec = np.array(coefs, dtype=np.int64)
        base_pos = pos @ cvec if len(pos) else np.zeros(0, dtype=np.int64)
        base_neg = neg @ cvec if len(neg) else np.zeros(0, dtype=np.int64)
        for lam0 in range(-lattice.intercept_bound, lattice.intercept_bound + 1):
            pw = int(agg.pos_counts[base_pos + lam0 <= 0].sum()) if len(pos) else 0
            nw = int(agg.neg_counts[base_neg + lam0 >= 1].sum()) if len(neg) else 0
            loss = cfg.w_plus * Fraction(pw, n) + cfg.w_minus * Fraction(nw, n)
            if loss == target_loss:
                l1 = sum(abs(c) for c in coefs)
                if best is None or l1 < best:
                    best = l1
                break  # same coefs, other intercepts cannot have smaller l1
    return best


def test_03_l1_tie_break(oracle_suite):
    runs, _ = oracle_suite
    with criterion(3, "every returned optimum has minimal l1 within its "
                      "(loss, term-count) class; no scaled duplicates"):
        for run in runs:
            model = run["report"].best
            value = objective(model, run["agg"], run["cfg"])
            floor = _min_l1_in_class(run["agg"], run["cfg"], run["lattice"],
                                     value.weighted_error, value.l0_count)
            assert floor == value.l1_sum
            if model.l0 >= 1:
                g = 0
                for _, c in model.terms:
                    g = math.gcd(g, abs(c))
                g = math.gcd(g, abs(model.intercept))
                assert g == 1


def test_04_bound_validity(oracle_suite):
    runs, _ = oracle_suite
    with criterion(4, "conflict and root bounds below the optimum on every "
                      "instance; the root bound is the grouped relaxation where "
                      "the rule admits it; telemetry bound <= incumbent throughout"):
        grouped = 0
        for run in runs:
            best = run["bf_value"].total
            agg, cfg, lattice, p = run["agg"], run["cfg"], run["lattice"], run["ds"].p
            assert conflict_lower_bound(agg, cfg) <= best
            root = node_bound([None] * (p + 1), agg, cfg, lattice)
            assert root <= best
            if grouped_rule_admits(range(p), agg, lattice):
                grid = range(-lattice.intercept_bound, lattice.intercept_bound + 1)
                assert root == min(grouped_relaxation([None] * p, lam0, agg, cfg, lattice)
                                   for lam0 in grid)
                grouped += 1
        assert grouped > 0
        for seed in (3, 11, 27):
            ds, agg, cfg, lattice = random_instance(seed)
            samples = []
            solve(agg, cfg, lattice, SolveConfig(time_limit=30, pool_size=10),
                  telemetry=samples.append)
            assert samples
            for rec in samples:
                assert Fraction(rec["bound"]) <= Fraction(rec["incumbent"])


def test_05_aggregation_invariance():
    with criterion(5, "pattern-level objective equals row-level objective for "
                      "100 random models on duplicated-row data"):
        rng = np.random.default_rng(42)
        checked = 0
        for trial in range(4):
            universe = (rng.random((30, 6)) < 0.5).astype(np.uint8)
            rows = universe[rng.integers(0, 30, size=500)]
            y = np.where(rng.random(500) < 0.55, 1, -1).astype(np.int8)
            feats = tuple(FeatureSpec(f"f{j}") for j in range(6))
            ds = BinaryDataset(feats, rows, y)
            agg = aggregate(ds)
            assert agg.n_pos_patterns + agg.n_neg_patterns < 80  # rows repeat
            lattice = LatticeSpec(3, 10)
            cfg = PenaltyConfig.auto(Fraction(7, 5), ds.n, ds.p, lattice)
            for _ in range(25):
                coefs = rng.integers(-3, 4, size=6).tolist()
                lam0 = int(rng.integers(-10, 11))
                model = ScoringSystem.from_dense(lam0, coefs, ds.feature_names)
                got = objective(model, agg, cfg)
                want = row_weighted_error(lam0, coefs, rows.tolist(), y.tolist(),
                                          cfg.w_plus, cfg.w_minus)
                assert got.weighted_error == want
                assert got.total == want + cfg.c0 * got.l0_count + cfg.epsilon * got.l1_sum
                checked += 1
        assert checked == 100


def _restricted_best(agg, cfg, lattice, support):
    """Penalty-free restricted optimum by direct enumeration, using the
    polish tie-break contract: (loss, l1, coefficient tuple, then intercept
    of smallest magnitude, negative first)."""
    bounds = lattice.bounds_for(agg.p)
    pos = agg.pos_patterns.astype(np.int64)
    neg = agg.neg_patterns.astype(np.int64)
    n = agg.source_n
    lam0s = np.arange(-lattice.intercept_bound, lattice.intercept_bound + 1)
    lam0_pref = sorted(range(len(lam0s)), key=lambda i: (abs(int(lam0s[i])), int(lam0s[i])))
    best = None
    for coefs in product(*[range(-int(bounds[j]), int(bounds[j]) + 1) for j in support]):
        dense = np.zeros(agg.p, dtype=np.int64)
        for j, c in zip(support, coefs):
            dense[j] = c
        sp = pos @ dense if len(pos) else np.zeros(0, dtype=np.int64)
        sn = neg @ dense if len(neg) else np.zeros(0, dtype=np.int64)
        pw = (agg.pos_counts[None, :] * (sp[None, :] + lam0s[:, None] <= 0)).sum(axis=1)
        nw = (agg.neg_counts[None, :] * (sn[None, :] + lam0s[:, None] >= 1)).sum(axis=1)
        units = cfg.w_plus.numerator * cfg.w_minus.denominator * pw \
            + cfg.w_minus.numerator * cfg.w_plus.denominator * nw
        idx = min(lam0_pref, key=lambda i: (units[i],))
        loss = Fraction(int(units[idx]),
                        cfg.w_plus.denominator * cfg.w_minus.denominator * n)
        l1 = sum(abs(c) for c in coefs)
        key = (loss, l1, tuple(coefs))
        if best is None or key < best[0]:
            best = (key, int(lam0s[idx]), tuple(int(v) for v in dense))
    return best


def test_06_polishing(oracle_suite):
    runs, _ = oracle_suite
    with criterion(6, "polish never worsens, matches restricted enumeration, "
                      "is idempotent, and stays under 5s per call"):
        for run in runs[:20]:
            agg, cfg, lattice = run["agg"], run["cfg"], run["lattice"]
            for model, value in run["pool"].entries:
                out, out_value = polish(model, agg, cfg, lattice)
                assert out_value.total <= value.total
                assert set(j for j, _ in out.terms) <= set(j for j, _ in model.terms)
                again, again_value = polish(out, agg, cfg, lattice)
                assert (again.intercept, again.terms) == (out.intercept, out.terms)
                assert again_value.total == out_value.total
                if model.l0 >= 1:
                    support = [j for j, _ in model.terms]
                    key, lam0, dense = _restricted_best(agg, cfg, lattice, support)
                    assert out.intercept == lam0
                    assert tuple(out.coef_vector()) == dense

        # timing leg: polish solver pool entries with up to 8 terms on the
        # default lattice (coefficients to 10, intercept to 100)
        ds = synth_generate([0.5] * 10,
                            [1.1, -0.9, 0.8, -0.7, 0.6, -0.5, 0.4, 0.3, 0.0, 0.0],
                            n=2000, seed=33, bias=-0.1)
        agg = aggregate(ds)
        lattice = LatticeSpec(10, 100)
        cfg = PenaltyConfig.auto(1, ds.n, ds.p, lattice, max_terms=8)
        _, pool = solve(agg, cfg, lattice,
                        SolveConfig(time_limit=25, pool_size=30, node_limit=4000))
        assert any(m.l0 >= 6 for m, _ in pool.entries)
        polish(pool.entries[0][0], agg, cfg, lattice)  # warm up before timing
        for model, value in pool.entries:
            started = time.monotonic()
            out, out_value = polish(model, agg, cfg, lattice)
            assert time.monotonic() - started <= 5.0
            assert out_value.total <= value.total


def test_07_sweep_endpoints():
    with criterion(7, "weight endpoints give (0,0) and (1,1); endpoint-only "
                      "curve has AUC exactly 1/2"):
        ds = synth_generate([0.5, 0.5, 0.5], [1.0, -1.0, 0.5], n=120, seed=2, bias=0.0)
        folds = make_folds(ds, seed=4)
        protocol = SweepProtocol((0, 2), pool_size=5, sparsity_grid=(1, 2))
        result = sweep(ds, folds, protocol, LatticeSpec(2, 4),
                       SolveConfig(time_limit=10, pool_size=5), max_terms=2)
        by_w = {p.w_plus: p for p in result.points}
        assert (by_w[0].test.fpr, by_w[0].test.tpr) == (0, 0)
        assert (by_w[2].test.fpr, by_w[2].test.tpr) == (1, 1)
        assert result.curve().auc == Fraction(1, 2)


def test_08_separable_recovery():
    with criterion(8, "5-point sweep on noiseless planted data reaches AUC >= "
                      "0.95 and recovers the planted support"):
        rng = np.random.default_rng(6)
        X = (rng.random((2000, 6)) < 0.5).astype(np.uint8)
        planted = ScoringSystem.from_dense(-1, [1, 1, 2, 0, 0, 0],
                                           [f"x{j}" for j in range(6)])
        y = planted.predictions(X)
        feats = tuple(FeatureSpec(f"x{j + 1}") for j in range(6))
        ds = BinaryDataset(feats, X, y)
        folds = make_folds(ds, seed=11)
        grid = (Fraction(1, 2), Fraction(3, 4), Fraction(1),
                Fraction(5, 4), Fraction(3, 2))
        protocol = SweepProtocol(grid, pool_size=30, sparsity_grid=(1, 2, 3, 4))
        result = sweep(ds, folds, protocol, LatticeSpec(2, 4),
                       SolveConfig(time_limit=30, pool_size=30, node_limit=8000),
                       max_terms=4)
        curve = result.curve()
        assert float(curve.auc) >= 0.95
        supports = [set(j for j, _ in p.model.terms)
                    for p in result.points if p.model is not None]
        assert {0, 1, 2} in supports


def test_09_rule_mining_oracle():
    with criterion(9, "rule mining equals exhaustive enumeration; "
                      "anti-monotonicity holds; worked metrics reproduce"):
        rng = np.random.default_rng(5)
        for trial in range(4):
            n = int(rng.integers(80, 201))
            p = int(rng.integers(4, 11))
            X = (rng.random((n, p)) < rng.uniform(0.25, 0.7)).astype(np.uint8)
            y = np.where(rng.random(n) < 0.6, 1, -1).astype(np.int8)
            if not (y == 1).any():
                y[0] = 1
            feats = tuple(FeatureSpec(f"f{j}") for j in range(p))
            ds = BinaryDataset(feats, X, y)
            mined = mine_rules(ds, Fraction(1, 20), Fraction(1, 2))
            want = enumerate_rules(X.tolist(), y.tolist(), Fraction(1, 20), Fraction(1, 2))
            assert {(r.antecedent, r.support, r.confidence, r.lift) for r in mined} \
                == {(a, s, c, l) for a, s, c, l in want}
            for r in mined:
                if len(r.antecedent) == 2:
                    a, b = r.antecedent
                    assert r.support <= rule_metrics(ds, (a,)).support
                    assert r.support <= rule_metrics(ds, (b,)).support

        fixture = lift_fixture()
        metrics = rule_metrics(fixture, (0, 1))
        assert metrics.support == Fraction(7, 100)
        assert metrics.confidence == Fraction(83, 100)
        assert round(float(metrics.lift), 2) == 1.41


def test_10_calibration_sanity():
    with criterion(10, "10-bin equal-frequency estimates within 0.03 of the "
                       "generating probabilities at N=10,000"):
        rng = np.random.default_rng(14)
        n = 10_000
        X = (rng.random((n, 6)) < 0.5).astype(np.uint8)
        model = ScoringSystem.from_dense(0, [3, 2, 2, 1, -2, -3],
                                         [f"x{j + 1}" for j in range(6)])
        scores = model.scores(X)
        prob = np.clip(0.5 + 0.09 * scores, 0.03, 0.97)
        y = np.where(rng.random(n) < prob, 1, -1).astype(np.int8)
        feats = tuple(FeatureSpec(f"x{j + 1}") for j in range(6))
        ds = BinaryDataset(feats, X, y)

        table = calibration(model, ds, k_bins=10)
        assert sum(b[2] for b in table.bins) == n
        for lo, hi, count, pos, rate in table.bins:
            mask = (scores >= lo) & (scores <= hi)
            truth = float(prob[mask].mean())
            assert abs(float(rate) - truth) <= 0.03


def test_11_full_scale_smoke(tmp_path):
    with criterion(11, "full-scale training run stays feasible with a "
                       "finite gap; exported MPS is solvable externally"):
        rng = np.random.default_rng(0)
        marg = rng.uniform(0.05, 0.9, 48)
        w = rng.normal(0, 0.6, 48)
        ds = synth_generate(marg, w, 33_796, seed=7, bias=0.3)
        assert (ds.n, ds.p) == (33_796, 48)
        data_path = tmp_path / "full_scale.csv"
        write_csv(ds, data_path)

        model_path = tmp_path / "model.json"
        code = cli_main(["train", str(data_path), "--time-limit", "60",
                         "--max-terms", "8", "--pool", "500", "--seed", "1",
                         "--output", str(model_path)])
        assert code == 0
        model = ScoringSystem.from_json(model_path.read_text())
        assert model.l0 <= 8
        report = json.loads(Path(f"{model_path}.report.json").read_text())
        gap = Fraction(report["gap"])
        assert gap >= 0 and gap <= 1
        lower_bound = Fraction(report["lower_bound"])

        manifest = RunManifest.read(f"{model_path}.manifest.json")
        assert manifest.verify_inputs() == []
        assert manifest.seed == 1

        agg = aggregate(ds)
        lattice = LatticeSpec(10, 100)
        cfg = PenaltyConfig.auto(1, ds.n, ds.p, lattice, max_terms=8)
        text = export_mps(agg, cfg, lattice, "aggregated")
        obj, _, status = solve_mps(text, time_limit=90)
        assert obj is not None
        assert Fraction(obj).limit_denominator(10**9) >= lower_bound - Fraction(1, 10**6)


def test_12_determinism(tmp_path):
    with criterion(12, "repeated training with identical seed and node limit "
                       "produces byte-identical model JSON"):
        ds = synth_generate([0.4, 0.6, 0.5, 0.3], [1.5, -1.0, 0.8, 0.0],
                            n=400, seed=9, bias=-0.2)
        data_path = tmp_path / "d.csv"
        write_csv(ds, data_path)
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.json"
            code = cli_main(["train", str(data_path), "--coef-bound", "3",
                             "--intercept-bound", "10", "--max-terms", "3",
                             "--node-limit", "5000", "--time-limit", "600",
                             "--pool", "20", "--seed", "123",
                             "--output", str(out)])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
