"""Benchmark for intscore: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload paper_train --seed 1 --seconds 40 --trace 0

Runs operations back to back, starting another only while it is expected to
end within --seconds (always at least one; a traced run first does one
untraced operation, then at least one traced one). Every operation's
outputs are checked. The last line printed is
{"correct", "attempted", "failed", "metrics"}, with the end-to-end metrics
under --trace 0 and the per-layer metrics under --trace 1; the line before
it records the environment and the exact outputs. See README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True  # leave no caches in the checkout

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
# a cold start of the program, as a command-line user pays it
IMPORT_CHECK = "import sys; sys.path.insert(0, sys.argv[1]); import intscore"
WORKLOAD_NAMES = ("paper_train", "certify", "cv_sweep")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True,
                   help="row-order seed: permutes the rows the program receives")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--instance-seed", type=int, default=None,
                   help="generate another synthetic instance (default: the "
                        "workload's own), to check a claim on unseen data")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_program():
    """Import intscore from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "intscore" / "__init__.py").is_file():
        raise ImportError(f"no intscore package under {src}")
    sys.path.insert(0, str(src))
    import intscore
    if Path(intscore.__file__).resolve().parent != (src / "intscore").resolve():
        raise ImportError(f"imported intscore from {intscore.__file__}, not {src}")


def git_commit():
    """HEAD of the checkout's own .git, or None when it is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, wl, workloads):
    import numpy
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy_version,
            # polish switches to a JIT path when numba imports; its timings
            # are then not comparable with a run without it
            "numba": getattr(workloads.polish, "njit", None) is not None,
            "nproc": os.cpu_count(), "commit": git_commit(),
            "workload": args.workload, "seed": args.seed,
            "instance_seed": wl.instance_seed, "seconds": args.seconds}


def run_operation(wl, probe, tracer, layers, op, traced):
    """One timed operation, then its checks; returns its record."""
    probe.op = tracer.op = op
    if traced:
        layers.install(tracer)
    failures, outputs = [], None
    t0 = perf_counter()
    try:
        raw = tracer.call("bench.op", wl.operation)[0] if traced else wl.operation()
    except Exception as exc:  # a failed operation is counted, not fatal
        raw = None
        failures.append(f"{type(exc).__name__}: {exc}")
        traceback.print_exc()
    seconds = perf_counter() - t0
    tracer.unpatch()
    probe.op = tracer.op = None
    if raw is not None:
        try:
            outputs, checks = wl.verify(raw)
            failures += checks
            outputs = exact_outputs(outputs, probe, op)
        except Exception as exc:
            outputs = None
            failures.append(f"check raised {type(exc).__name__}: {exc}")
            traceback.print_exc()
    for s in probe.op_solves(op):
        failures += s["failures"]
    for f in failures:
        print(f"operation {op} failed: {f}", file=sys.stderr)
    return {"op": op, "traced": traced, "seconds": seconds,
            "outputs": outputs, "failures": failures}


def exact_outputs(outputs, probe, op):
    """The values the determinism gate compares, as exact strings and ints."""
    solves = probe.op_solves(op)
    widest = max(solves, key=lambda s: s["patterns"]) if solves else {}
    out = {k: str(v) for k, v in outputs.items()}
    out.update(nodes=sum(s["nodes"] for s in solves),
               patterns=widest.get("patterns", 0),
               polish_calls=probe.polish_calls.get(op, 0))
    return out


def labelled(values, kind):
    """Attach units from BENCHMARK.json, which must list exactly these names."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    if set(declared) != set(values):
        raise RuntimeError(f"{kind} metrics {sorted(set(values) ^ set(declared))} "
                           "are measured or declared but not both")
    return {name: {"value": values[name], "unit": declared[name]} for name in declared}


def run(args, import_s):
    import layers
    import spans
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    instance_seed = cls.default_instance_seed if args.instance_seed is None \
        else args.instance_seed
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    probe, tracer = workloads.Probe(), spans.Tracer()
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        probe.install()
        wl = cls(workdir, instance_seed)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-B", "-c", IMPORT_CHECK, str(ROOT / "src")],
                           check=True, timeout=60)
            wl.setup(args.seed)
            setup_times.append(perf_counter() - t0)

        ops = []
        started = perf_counter()
        while True:
            traced = bool(args.trace) and len(ops) > 0
            ops.append(run_operation(wl, probe, tracer, layers, len(ops), traced))
            typical = statistics.median(o["seconds"] for o in ops)
            if (not args.trace or traced) and \
                    perf_counter() - started + typical > args.seconds:
                break

        # determinism gate: every operation's exact outputs must agree
        produced = [o for o in ops if o["outputs"] is not None]
        if not produced:
            print("perfbench: no operation produced outputs", file=sys.stderr)
            return 1
        reference = produced[0]["outputs"]
        for o in produced[1:]:
            if o["outputs"] != reference:
                o["failures"].append("outputs differ")
                print(f"operation {o['op']} failed: outputs differ from operation "
                      f"{produced[0]['op']}", file=sys.stderr)
        failed = sum(1 for o in ops if o["failures"])

        if args.trace:
            values = layers.metrics(tracer, probe, ops)
            tracer.dump(WORK / f"trace-{args.workload}-seed{args.seed}.json",
                        {"workload": args.workload, "seed": args.seed})
        else:
            values = {
                "op_s": statistics.median(o["seconds"] for o in ops),
                "objective": float(Fraction(reference["objective"])),
                "auc": float(Fraction(reference["auc"])),
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        metrics = labelled(values, "per_layer" if args.trace else "end_to_end")
        info = {"environment": environment(args, wl, workloads),
                "import_s": import_s, "setup_s": setup_times,
                "operations": [{k: o[k] for k in ("op", "traced", "seconds")}
                               for o in ops],
                "outputs": reference}
        print(json.dumps(info))
        print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        tracer.unpatch()
        probe.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    args = parse_args(argv)
    t0 = perf_counter()
    try:
        import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    return run(args, perf_counter() - t0)


if __name__ == "__main__":
    sys.exit(main())
