"""Benchmark of the stopsnn training engine.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload conv-image --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from --seed and written as files; the
program reads them only through `trainer.load_dataset`. With --trace 0 the
run measures the end-to-end metrics; with --trace 1 it installs spans
around the program's functions and reports the per-layer metrics. Every
run checks the program's outputs and counts each learn, evaluate and train
call and each check as one attempted operation. The last line of standard
output is one JSON object: correct, attempted, failed, metrics. A fuller
report (run metadata, failure reasons, and in traced runs the spans) is
written under .perfbench/ in the checkout.
"""
from __future__ import annotations

import os
import sys

# single-threaded BLAS on every run; must be set before numpy loads
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"


def _import_program() -> str | None:
    """Import the program from this checkout's src/, or say why it cannot be."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import stopsnn
    except ImportError as exc:
        return f"cannot import stopsnn from {ROOT / 'src'}: {exc}"
    if not Path(stopsnn.__file__).resolve().is_relative_to(ROOT / "src"):
        return f"stopsnn was imported from {stopsnn.__file__}, not from this checkout's src/"
    return None


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).exists():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def _metadata(bench, args) -> dict:
    import numpy as np

    from workloads import input_sizes

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "workload": bench.w.name,
        "why": bench.w.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "inputs": {"n_train": bench.w.n_train, "n_test": bench.w.n_test, "time_steps": bench.w.time_steps,
                   "epochs": bench.w.epochs, "files": input_sizes(bench.work),
                   "class_counts": np.bincount([s.label for s in bench.train_set + bench.test_set],
                                               minlength=bench.w.num_classes).tolist()},
        "counts": bench.counts,
        "failures": bench.ops.failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = _import_program()
    if problem is not None:
        print(problem, file=sys.stderr)
        return 2
    from bench import Bench, work_dir
    from tracer import MOVES
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    # metric names and units are declared once, in BENCHMARK.json
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]}

    OUT.mkdir(exist_ok=True)
    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds, work_dir(OUT))
    try:
        metrics = bench.per_layer() if args.trace else bench.end_to_end()
        meta = _metadata(bench, args)
        if args.trace:
            meta["moves"] = MOVES
            # per-layer metrics of calls this workload never makes (no such layer or kernel)
            meta["not_applicable"] = sorted(name for name, value in metrics.items() if value == 0)
    finally:
        bench.close()
    if metrics.keys() != units.keys():
        print(f"computed metrics differ from BENCHMARK.json {section}: "
              f"{sorted(metrics.keys() ^ units.keys())}", file=sys.stderr)
        return 2

    result = {
        "correct": bench.ops.failed == 0,
        "attempted": bench.ops.attempted,
        "failed": bench.ops.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"meta": meta, "result": result}, indent=1) + "\n")
    if args.trace:
        bench.tracer.dump(OUT / f"{stem}.spans.jsonl.gz")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
