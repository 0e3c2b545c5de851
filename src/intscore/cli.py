"""Batch command-line interface.

Commands: encode, train, sweep, evaluate, rules, export-mps, print, synth,
replay. Every file-producing command also writes a run manifest capturing
the argv, every option of the command as it ran, the hashes of the files
it read and the seed, so deterministic runs can be reproduced bit for bit.
Every output goes to its path whole or not at all (_write), and every JSON
input that cannot be read is a data error naming its file (_read_json).

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

from .common import as_fraction, frac_float, frac_str
from .data import (
    BandRule,
    BinaryDataset,
    DataError,
    FeatureSpec,
    ThresholdRule,
    aggregate,
    binarize_continuous,
    load_csv,
    make_folds,
    synth_generate,
    write_csv,
)
from .evaluation import (
    PRESET_GRIDS,
    SweepProtocol,
    calibration,
    confusion,
    roc_svg,
    sweep,
)
from .manifest import RunManifest, TOOL_VERSION, sha256_file, timestamp
from .model import LatticeSpec, PenaltyConfig, ScoringSystem, trivial_model
from .mps import VARIANTS, mps_parts
from .polish import ActiveSet
from .rules import mine_rules, rules_csv
from .sheet import format_sheet
from .solver import SolveConfig, solve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _common_data_flags(p):
    p.add_argument("dataset", help="binary dataset CSV")
    p.add_argument("--label", default="y", help="label column name")
    p.add_argument("--positive", default="1", help="token mapped to +1")


def _lattice_flags(p):
    p.add_argument("--coef-bound", type=int, default=10)
    p.add_argument("--intercept-bound", type=int, default=100)


def _solver_flags(p):
    p.add_argument("--time-limit", type=float, default=60.0)
    p.add_argument("--node-limit", type=int, default=None)
    p.add_argument("--pool", type=int, default=500,
                   help="solution pool capacity; the best model at each term count "
                        "is kept beyond it")
    p.add_argument("--max-terms", type=int, default=8)


def build_parser() -> _Parser:
    parser = _Parser(prog="intscore",
                     description="sparse integer scoring systems trained by "
                                 "exact weighted 0-1 loss minimization")
    parser.add_argument("--config", help="key=value file overriding flags")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("encode", help="binarize a raw CSV using a rules file")
    p.add_argument("raw", help="raw CSV with continuous and binary columns")
    p.add_argument("--rules", required=True, help="JSON encoding rules")
    p.add_argument("--output", required=True, help="encoded dataset CSV")
    p.add_argument("--specs", help="feature spec JSON (default: <output>.specs.json)")

    p = sub.add_parser("train", help="fit one scoring system")
    _common_data_flags(p)
    _lattice_flags(p)
    _solver_flags(p)
    p.add_argument("--w-plus", default="1", help="positive-class weight in [0, 2]")
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in the model's provenance and the manifest only: "
                        "training is deterministic")
    p.add_argument("--output", required=True, help="model JSON path")
    p.add_argument("--report", help="solve report JSON (default: <output>.report.json)")
    p.add_argument("--telemetry", help="line-delimited JSON progress log")

    p = sub.add_parser("sweep", help="trace an ROC curve over class weights")
    _common_data_flags(p)
    _lattice_flags(p)
    _solver_flags(p)
    p.add_argument("--grid", default="balanced",
                   help="preset name (balanced|imbalanced|extreme) or comma list")
    p.add_argument("--folds-seed", type=int, default=0)
    p.add_argument("--test-ratio", default="1/3")
    p.add_argument("--jobs", type=int, default=os.environ.get("INTSCORE_JOBS", "1"),
                   help="worker processes (default: $INTSCORE_JOBS, else 1)")
    p.add_argument("--plot", action="store_true", help="also write an SVG scatter")
    p.add_argument("--outdir", required=True)

    p = sub.add_parser("evaluate", help="score a model on a dataset")
    p.add_argument("model", help="model JSON")
    _common_data_flags(p)
    p.add_argument("--max-fpr", default=None)
    p.add_argument("--calib-bins", type=int, default=10)
    p.add_argument("--output", help="report JSON (default: stdout)")
    p.add_argument("--calibration-csv")

    p = sub.add_parser("rules", help="mine IF-THEN association rules")
    _common_data_flags(p)
    p.add_argument("--min-support", default="0.05")
    p.add_argument("--min-confidence", default="0.7")
    p.add_argument("--max-vars", type=int, default=2, choices=(1, 2))
    p.add_argument("--output", help="rules CSV (default: stdout)")

    p = sub.add_parser("export-mps", help="write the training IP in MPS format")
    _common_data_flags(p)
    _lattice_flags(p)
    p.add_argument("--w-plus", default="1")
    p.add_argument("--max-terms", type=int, default=8)
    p.add_argument("--variant", default="aggregated", choices=VARIANTS)
    p.add_argument("--active", help="comma-separated feature names (polish variant)")
    p.add_argument("--output", required=True)

    p = sub.add_parser("print", help="render a model as a scoring sheet")
    p.add_argument("model", help="model JSON")
    p.add_argument("--outcome-label", default="POSITIVE OUTCOME")
    p.add_argument("--manifest", help="optional manifest path")

    p = sub.add_parser("synth", help="generate a synthetic binary dataset")
    p.add_argument("--marginals", required=True,
                   help="comma list of P(x_j = 1) values")
    p.add_argument("--weights", required=True, help="comma list of logistic weights")
    p.add_argument("--bias", type=float, default=0.0)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)

    p = sub.add_parser("replay", help="re-run the command recorded in a manifest")
    p.add_argument("manifest")
    return parser


def _apply_config_file(parser, args):
    """Config file entries override parsed flags (key = value per line).
    Each value is converted with the type its option declares in the
    subcommand; a store_true option takes true/false."""
    if not getattr(args, "config", None):
        return args
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in commands.choices[args.cmd]._actions}
    path = Path(args.config)
    try:
        text = path.read_text()
    except OSError as exc:  # missing, a directory or unreadable
        raise UsageError(f"config file {path}: {exc.strerror or exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        action = actions.get(key.replace("-", "_"))
        if action is None or action.dest == "help":
            raise UsageError(f"{path}:{lineno}: unknown option {key!r}")
        if isinstance(action, argparse._StoreTrueAction):
            value = value.lower() in ("1", "true", "yes")
        elif action.type is not None:
            try:
                value = action.type(value)
            except ValueError:
                raise UsageError(f"{path}:{lineno}: {key} takes a value of type "
                                 f"{action.type.__name__}, got {value!r}") from None
        if action.choices is not None and value not in action.choices:
            raise UsageError(f"{path}:{lineno}: {key} must be one of "
                             f"{', '.join(map(str, action.choices))}, got {value!r}")
        setattr(args, action.dest, value)
    return args


def _read_input(path, read):
    """read(path) of an input file. A path that cannot be opened or read,
    one that is missing, a directory or unreadable, and a file the csv
    module or the UTF-8 codec refuses, is a DataError that names it."""
    try:
        return read(path)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from None


def _load_dataset(args) -> BinaryDataset:
    return _read_input(args.dataset, lambda path: load_csv(path, args.label, args.positive))


def _lattice(args) -> LatticeSpec:
    return LatticeSpec(args.coef_bound, args.intercept_bound)


def _write(path, content):
    """Write content to path: a str, an iterable of str parts written as
    they arrive, or a function that writes the file whose path it is given.
    It is written to a sibling file that takes path's place at the end, so
    a failure part way leaves no file at path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(path.name + ".partial")
    try:
        if callable(content):
            content(partial)
        else:
            with open(partial, "w", encoding="utf-8", newline="") as fh:
                fh.writelines([content] if isinstance(content, str) else content)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


# what a parse of a malformed JSON document raises
_DOC_ERRORS = (ValueError, LookupError, TypeError, AttributeError)


def _reason(exc):
    return f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)


def _read_json(path, parse):
    """parse(doc) of the JSON object in the file at path. Whatever the file
    holds that parse cannot take, from invalid JSON and a document that is
    not an object to a missing key or a value of the wrong type, is a
    DataError that names the file, as is a file that cannot be read."""
    def read(path):
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            if not isinstance(doc, dict):
                raise DataError(f"expected a JSON object, got {type(doc).__name__}")
            return parse(doc)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{exc.lineno}: {exc.msg}") from None
        except _DOC_ERRORS as exc:
            raise DataError(f"{path}: {_reason(exc)}") from None

    return _read_input(path, read)


def _manifest(args, argv, inputs, path, seed=None):
    """Write to path the manifest of a command that main started at
    args.started. Its config is every option of the command after the
    --config overrides, and a --config file is hashed with the inputs."""
    config = {k: v for k, v in vars(args).items() if k not in ("cmd", "config", "started")}
    if args.config:
        inputs = [*inputs, args.config]
    manifest = RunManifest(list(argv), config, {str(p): sha256_file(p) for p in inputs},
                           seed, started=args.started, finished=timestamp())
    _write(path, manifest.to_json())


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _parse_rules(doc):
    """(label column, positive token, features) of an encoding rules
    document: one (source, cuts) pair per feature, cuts None for a binary
    passthrough column."""
    features = []
    for i, feat in enumerate(doc.get("features", [])):
        try:
            source = feat.get("source")
            if feat.get("kind") == "binary":
                features.append((source, None))
                continue
            cuts = []
            for r in feat.get("rules", []):
                if r.get("kind") == "band":
                    cuts.append(BandRule(source, r.get("low"), r.get("high")))
                elif r.get("kind") == "threshold":
                    cuts.append(ThresholdRule(source, r["comparator"], r["value"]))
                else:
                    raise DataError(f"unknown rule kind {r.get('kind')!r}")
            features.append((source, cuts))
        except _DOC_ERRORS as exc:
            raise DataError(f"features[{i}]: {_reason(exc)}") from None
    return str(doc.get("label_column", "y")), str(doc.get("positive_token", "1")), features


def _read_dict_rows(path):
    """(rows as dicts, header) of the CSV file at path."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return list(reader), reader.fieldnames or []


def _cmd_encode(args, argv):
    label_col, positive, features = _read_json(args.rules, _parse_rules)

    rows, header = _read_input(args.raw, _read_dict_rows)
    if not rows:
        raise DataError(f"{args.raw}: no data rows")
    if label_col not in header:
        raise DataError(f"{args.raw}: label column {label_col!r} not found")

    columns, specs = [], []
    for i, (source, cuts) in enumerate(features):
        where = f"{args.rules}: features[{i}]"
        if source not in header:
            raise DataError(f"{where}: unknown source column {source!r}")
        if cuts is None:
            vals = [row[source] for row in rows]
            if any(v not in ("0", "1") for v in vals):
                raise DataError(f"{where}: column {source!r} is not 0/1")
            columns.append(np.array([int(v) for v in vals], dtype=np.uint8))
            specs.append(FeatureSpec(source))
            continue
        try:
            raw_vals = [float(row[source]) for row in rows]
        except (TypeError, ValueError) as exc:
            raise DataError(f"{where}: {exc}") from None
        for fs, col in binarize_continuous(raw_vals, cuts):
            specs.append(fs)
            columns.append(col)

    if not columns:
        raise DataError(f"{args.rules}: no feature rules given")
    X = np.stack(columns, axis=1)
    y = np.array([1 if row[label_col] == positive else -1 for row in rows],
                 dtype=np.int8)
    ds = BinaryDataset(tuple(specs), X, y)
    _write(args.output, lambda path: write_csv(ds, path, label_column=label_col))
    specs_path = args.specs or f"{args.output}.specs.json"
    _write(specs_path, json.dumps([s.to_json() for s in ds.features], indent=2) + "\n")
    _manifest(args, argv, [args.raw, args.rules], f"{args.output}.manifest.json")
    print(f"encoded {ds.n} rows x {ds.p} features -> {args.output}")
    return EXIT_OK


def _train_config(args, ds, lattice):
    w_plus = as_fraction(args.w_plus)
    if not (0 <= w_plus <= 2):
        raise UsageError("--w-plus must lie in [0, 2]")
    if w_plus in (0, 2):
        return w_plus, None
    return w_plus, PenaltyConfig.auto(w_plus, ds.n, ds.p, lattice, args.max_terms)


def _cmd_train(args, argv):
    ds = _load_dataset(args)
    lattice = _lattice(args)
    w_plus, cfg = _train_config(args, ds, lattice)

    provenance = {
        "input": str(args.dataset),
        "input_sha256": sha256_file(args.dataset),
        "seed": args.seed,
        "w_plus": frac_str(w_plus),
        "tool_version": TOOL_VERSION,
    }

    if cfg is None:
        print(f"warning: weight endpoint w+={frac_str(w_plus)} gives a trivial "
              "constant model; no optimization performed", file=sys.stderr)
        model = trivial_model(ds.p, positive=(w_plus == 2))
        report_doc = {"status": "trivial", "best_objective": None}
    else:
        scfg = SolveConfig(time_limit=args.time_limit, pool_size=args.pool,
                           node_limit=args.node_limit)
        telemetry = None
        telemetry_fh = None
        if args.telemetry:
            telemetry_fh = open(args.telemetry, "w", encoding="utf-8")
            telemetry = lambda rec: (telemetry_fh.write(json.dumps(rec) + "\n"),
                                     telemetry_fh.flush())
        try:
            report, pool = solve(aggregate(ds), cfg, lattice, scfg,
                                 telemetry=telemetry,
                                 feature_names=ds.feature_names)
        finally:
            if telemetry_fh:
                telemetry_fh.close()
        model = report.best
        report_doc = report.to_json()
        report_doc["pool_size"] = len(pool)

    _write(args.output, model.to_json(lattice=lattice, config=None if cfg is None else cfg,
                                      provenance=provenance))
    report_path = args.report or f"{args.output}.report.json"
    _write(report_path, json.dumps(report_doc, sort_keys=True, indent=2) + "\n")
    _manifest(args, argv, [args.dataset], f"{args.output}.manifest.json", seed=args.seed)
    print(format_sheet(model), end="")
    return EXIT_OK


def _parse_grid(text):
    if text in PRESET_GRIDS:
        return PRESET_GRIDS[text]
    try:
        return tuple(as_fraction(part.strip()) for part in text.split(",") if part.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad grid {text!r}: {exc}") from None


def _cmd_sweep(args, argv):
    ds = _load_dataset(args)
    lattice = _lattice(args)
    grid = _parse_grid(args.grid)
    if not grid:
        raise UsageError("empty weight grid")
    protocol = SweepProtocol(grid, pool_size=args.pool,
                             sparsity_grid=tuple(range(1, args.max_terms + 1)))
    folds = make_folds(ds, seed=args.folds_seed, test_ratio=as_fraction(args.test_ratio))
    scfg = SolveConfig(time_limit=args.time_limit, pool_size=args.pool,
                       node_limit=args.node_limit)
    result = sweep(ds, folds, protocol, lattice, scfg,
                   max_terms=args.max_terms, jobs=args.jobs)

    outdir = Path(args.outdir)
    curve = result.curve()
    _write(outdir / "curve.json", json.dumps(result.to_json(), indent=2) + "\n")
    _write(outdir / "curve.csv", curve.to_csv())
    _write(outdir / "folds.json", folds.to_json() + "\n")
    models = {f"model_{i:02d}.json": point.model for i, point in enumerate(result.points)
              if point.model is not None}
    for name, model in models.items():
        _write(outdir / name, model.to_json(lattice=lattice))
    # an earlier sweep's models in outdir would read as this run's points
    for stale in outdir.glob("model_*.json"):
        if re.fullmatch(r"model_\d{2,}\.json", stale.name) and stale.name not in models \
                and stale.is_file():
            stale.unlink()
    if args.plot:
        _write(outdir / "curve.svg", roc_svg(curve))
    _manifest(args, argv, [args.dataset], outdir / "manifest.json", seed=args.folds_seed)
    failed = sum(1 for point in result.points if point.status == "failed")
    print(f"swept {len(result.points)} weights ({failed} failed), "
          f"AUC = {frac_float(curve.auc):.4f} -> {outdir}")
    return EXIT_OK


def _cmd_evaluate(args, argv):
    model = _read_json(args.model, ScoringSystem.from_json)
    ds = _load_dataset(args)
    if model.n_features != ds.p:
        raise DataError(f"model expects {model.n_features} features, "
                        f"dataset has {ds.p}")
    counts = confusion(model, ds)
    table = calibration(model, ds, k_bins=args.calib_bins)
    doc = {
        "confusion": counts.to_json(),
        "test TPR": None if counts.tpr is None else frac_float(counts.tpr),
        "test FPR": None if counts.fpr is None else frac_float(counts.fpr),
        "calibration": table.to_json(),
    }
    if args.max_fpr is not None:
        cap = as_fraction(args.max_fpr)
        doc["max_fpr"] = frac_str(cap)
        doc["fpr_within_limit"] = counts.fpr is not None and counts.fpr <= cap
    text = json.dumps(doc, indent=2) + "\n"
    if args.calibration_csv:
        _write(args.calibration_csv, table.to_csv())
    if args.output:
        _write(args.output, text)
        _manifest(args, argv, [args.model, args.dataset], f"{args.output}.manifest.json")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_rules(args, argv):
    ds = _load_dataset(args)
    mined = mine_rules(ds, as_fraction(args.min_support),
                       as_fraction(args.min_confidence), args.max_vars)
    text = rules_csv(mined)
    if args.output:
        _write(args.output, text)
        _manifest(args, argv, [args.dataset], f"{args.output}.manifest.json")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_export_mps(args, argv):
    ds = _load_dataset(args)
    lattice = _lattice(args)
    _, cfg = _train_config(args, ds, lattice)
    if cfg is None:
        raise UsageError("weight endpoints have no validated penalty "
                         "configuration; choose 0 < w+ < 2")
    active = None
    if args.variant == "polish":
        if not args.active:
            raise UsageError("--variant polish requires --active")
        names = [part.strip() for part in args.active.split(",") if part.strip()]
        index = {n: j for j, n in enumerate(ds.feature_names)}
        missing = [n for n in names if n not in index]
        if missing:
            raise DataError(f"unknown feature names: {missing}")
        active = ActiveSet(tuple(index[n] for n in names))
    _write(args.output, mps_parts(aggregate(ds), cfg, lattice, args.variant, active))
    _manifest(args, argv, [args.dataset], f"{args.output}.manifest.json")
    print(f"wrote {args.variant} MPS model -> {args.output}")
    return EXIT_OK


def _cmd_print(args, argv):
    model = _read_json(args.model, ScoringSystem.from_json)
    sys.stdout.write(format_sheet(model, args.outcome_label))
    if args.manifest:
        _manifest(args, argv, [args.model], args.manifest)
    return EXIT_OK


def _cmd_synth(args, argv):
    marginals = [float(v) for v in args.marginals.split(",") if v.strip()]
    weights = [float(v) for v in args.weights.split(",") if v.strip()]
    if len(marginals) != len(weights):
        raise UsageError("--marginals and --weights must have equal length")
    ds = synth_generate(marginals, weights, args.n, args.seed, bias=args.bias)
    _write(args.output, lambda path: write_csv(ds, path))
    _manifest(args, argv, [], f"{args.output}.manifest.json", seed=args.seed)
    print(f"wrote {ds.n} rows x {ds.p} features -> {args.output} "
          f"(positive rate {ds.n_positive / ds.n:.3f})")
    return EXIT_OK


def _cmd_replay(args, argv):
    manifest = _read_json(args.manifest, lambda doc: RunManifest(**doc))
    stale = manifest.verify_inputs()
    if stale:
        raise DataError(f"inputs changed since the recorded run: {stale}")
    print(f"replaying: intscore {' '.join(manifest.command)}", file=sys.stderr)
    return main(manifest.command)


_COMMANDS = {
    "encode": _cmd_encode,
    "train": _cmd_train,
    "sweep": _cmd_sweep,
    "evaluate": _cmd_evaluate,
    "rules": _cmd_rules,
    "export-mps": _cmd_export_mps,
    "print": _cmd_print,
    "synth": _cmd_synth,
    "replay": _cmd_replay,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args = _apply_config_file(parser, args)
        args.started = timestamp()
        return _COMMANDS[args.cmd](args, argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
