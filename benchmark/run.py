"""Run one benchmark workload and print its metrics as one JSON line.

    python3 benchmark/run.py --workload ladder-1d --seed 1 --seconds 20 --trace 0

The program under test is imported from ``src/`` of the checkout that holds
this directory, never from an installed copy; without it the run exits with
code 2 and prints no result.  With ``--trace 0`` the result holds the
end-to-end metrics, with ``--trace 1`` the per-layer metrics from spans
recorded around each call into a layer.
"""

from __future__ import annotations

import os

# A single-thread benchmark: pin numerical libraries before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import fields, is_dataclass
from enum import Enum
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402


def import_program():
    """Import boxweights from the checkout's src/; None if it is not there."""
    src = ROOT / "src"
    if not (src / "boxweights" / "__init__.py").is_file():
        return None
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import boxweights
    from boxweights import bellman, characteristics, cli, errors, exponents, grids, splitting

    if Path(boxweights.__file__).resolve().parent != (src / "boxweights").resolve():
        return None
    return SimpleNamespace(
        characteristics=characteristics, grids=grids, splitting=splitting, bellman=bellman,
        exponents=exponents, cli=cli, ClassKind=exponents.ClassKind, GridMeasure=grids.GridMeasure,
        WeightGrid=grids.WeightGrid, BoxIdx=grids.BoxIdx, PreconditionError=errors.PreconditionError,
    )


def freeze(obj):
    """A comparable digest of a task result, to show later passes repeat the first."""
    if isinstance(obj, np.ndarray):
        return ("nd", obj.shape, obj.dtype.str, hashlib.sha1(np.ascontiguousarray(obj).tobytes()).hexdigest())
    if obj is None or isinstance(obj, (bool, int, float, str, Path)):
        return obj
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (list, tuple)):
        return tuple(freeze(x) for x in obj)
    if isinstance(obj, dict):
        return tuple(sorted((str(k), freeze(v)) for k, v in obj.items()))
    if is_dataclass(obj):
        return (type(obj).__name__,) + tuple(freeze(getattr(obj, f.name)) for f in fields(obj))
    if hasattr(obj, "__dict__"):
        return (type(obj).__name__, freeze(vars(obj)))
    return repr(type(obj))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if import_program() is None:
        print(f"error: no boxweights package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_runs" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        lib, wl, setup_times = set_up(args, workdir)
        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        try:
            return measure(args, lib, wl, workdir, setup_times, tracer)
        finally:
            if tracer:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def set_up(args, workdir):
    """Set up SETUP_REPEATS times from a fresh import of boxweights.

    One repeat is the time from before importing boxweights to the first
    timed task: the import, generating and writing the inputs, and one
    untimed warm-up task.  Before each repeat every boxweights module is
    dropped from sys.modules, so each repeat pays the import and the
    program's first-call costs again.  The last repeat's modules and
    workload are the ones timed.
    """
    build = workloads.WORKLOADS[args.workload]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        for name in [n for n in sys.modules if n == "boxweights" or n.startswith("boxweights.")]:
            del sys.modules[name]
        gc.collect()
        t0 = time.perf_counter()
        lib = import_program()
        wl = build(lib, args.seed, workdir)
        next(t for t in wl.tasks if t.name == wl.warmup).run()
        setup_times.append(time.perf_counter() - t0)
    return lib, wl, setup_times


def measure(args, lib, wl, workdir, setup_times, tracer) -> int:
    setup_s = statistics.median(setup_times)

    first, keys, pass_times, task_times = {}, {}, [], []
    raised, errors = set(), []
    raised_count = 0
    start = time.perf_counter()
    while True:
        gc.collect()
        if tracer:
            tracer.recording = True
        results = {}
        t_pass = time.perf_counter()
        for task in wl.tasks:
            t0 = time.perf_counter()
            try:
                results[task.name] = task.run()
            except Exception:
                results[task.name] = None
                raised_count += 1
                if task.name not in raised:
                    raised.add(task.name)
                    print(f"failed operation {task.name}:\n{traceback.format_exc()}", file=sys.stderr)
            task_times.append(time.perf_counter() - t0)
        pass_times.append(time.perf_counter() - t_pass)
        if tracer:
            tracer.recording = False
        if not first:
            first = results
            keys = {name: freeze(r) for name, r in results.items()}
        else:
            for name, r in results.items():
                if freeze(r) != keys[name]:
                    errors.append(f"{name}: pass {len(pass_times)} gave a different result than pass 1")
        del results
        if time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passes = len(pass_times)

    # Checks, outside the timed region, on the first pass (later passes repeat it).
    probe_failures = 0
    for task in wl.tasks:
        if first[task.name] is None:
            continue
        problems = task.check(first[task.name])
        if task.probe:
            if problems:
                probe_failures += 1
                print(f"failed operation {task.name}: " + "; ".join(problems[:3]), file=sys.stderr)
        elif problems:
            errors += [f"{task.name}: {p}" for p in problems]
    attempted = passes * len(wl.tasks)
    failed = raised_count + passes * probe_failures
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)

    pass_s = statistics.median(pass_times)
    n = len(wl.tasks)
    print("# task medians (s): " + ", ".join(
        f"{t.name} {statistics.median(task_times[i::n]):.4f}" for i, t in enumerate(wl.tasks)))
    print(f"# {args.workload} seed={args.seed}: {passes} passes of {len(wl.tasks)} tasks, "
          f"pass_s median {pass_s:.4f}, setup repeats {[round(t, 4) for t in setup_times]}, "
          f"checks {'passed' if not errors else 'FAILED'}")
    print(f"# pass times (s): {[round(t, 4) for t in pass_times]}")
    if tracer:
        pass_spans = tracer.spans
        tracer.spans = []
        tracer.recording = True
        for _ in range(3):
            workloads.layer_probe(lib, workdir)
        tracer.recording = False
        metrics, from_probe = tracing.per_layer_metrics(pass_spans, passes, tracer.spans)
        tracer.spans = pass_spans
        tracer.dump(ROOT / ".bench_runs" / f"spans-{args.workload}-s{args.seed}.json")
        if from_probe:
            print(f"# from the layer probe (not called by {args.workload}): {', '.join(from_probe)}")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pass_s": {"value": pass_s, "unit": "s"},
            "task_p50_s": {"value": statistics.median(task_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
