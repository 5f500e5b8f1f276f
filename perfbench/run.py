#!/usr/bin/env python3
"""uspc benchmark: one workload per process, result as the last stdout line.

Usage (from the repository root):

    python3 perfbench/run.py --workload train-desk --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, each in its own process

With `--trace 0` the last line carries the end-to-end metrics listed in
BENCHMARK.json; with `--trace 1` it carries the per-layer metrics from a
separate traced run, and the spans are written to
`.perfbench_out/spans-<workload>-seed<seed>.csv`.  The program under test is
imported from `src/` of the same checkout and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("train-desk", "train-published", "infer")

# One BLAS thread: a single-client benchmark on a small shared box, and the
# thread count changes float64 results in the last bits, so it is pinned.
BLAS_THREADS = 1


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def blas_threads_in_use():
    """Ask the loaded OpenBLAS how many threads it will use, if it says."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import platform

    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads_in_use(),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def metric_spec(trace: int) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def run_one(args) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import uspc
    except ImportError as exc:
        print(f"cannot import uspc from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(uspc.__file__).resolve().parent.parent != ROOT / "src":
        print(f"uspc was imported from {uspc.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    import probes
    from tracer import Tracer
    from workloads import WORKLOADS, Run

    spec = metric_spec(args.trace)
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    run = Run(WORKLOADS[args.workload], seed=args.seed, seconds=args.seconds,
              scratch=scratch, tracer=Tracer() if args.trace else None)
    try:
        run.run()
    finally:
        run.trace_off()
        shutil.rmtree(scratch, ignore_errors=True)

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "env": environment(), "samples": run.samples(),
            "loss_end": repr(float(run.loss_end)), "problems": run.problems}
    if args.trace:
        values, breakdown = probes.per_layer(run.tracer, run.windows, run.untraced_windows)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
        run.tracer.write_csv(spans_path)
        info["spans_file"] = str(spans_path.relative_to(ROOT))
        unit = "round" if run.workload.kind == "infer" else "step"
        print(f"self ms per {unit} ({len(run.windows)} windows, "
              f"{values['trace.window_ms']:.3f} ms each):")
        for name, ms in sorted(breakdown.items(), key=lambda kv: -kv[1]):
            print(f"  {name:32s} {ms:10.3f}")
        print(f"  {'(sum)':32s} {sum(breakdown.values()):10.3f}")
    else:
        values = run.end_to_end()
    print(json.dumps(info))

    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        print(f"benchmark produced no value for {missing}", file=sys.stderr)
        return 3
    for m in spec:
        print(f"{m['name']:32s} {values[m['name']]:14.6g} {m['unit']}")
    result = {
        "correct": not run.problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS belongs to one workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
