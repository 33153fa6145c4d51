#!/usr/bin/env python3
"""Check that the package in this checkout computes what a git ref computes.

The ref's ``src/`` is unpacked with ``git archive`` into a temporary
directory.  Each package, the ref's and this checkout's, runs in its own
process over the same seeded corpus, layer by layer:

- scan: value (as hex), argmax box and boxes_scanned of ``characteristic``,
  or the error type and text, on 1-D to 4-D grids of both classes:
  lognormal weights, zero-mass runs, ties, spans beyond the precision
  certificate, overflowed cells and grids of several stacks;
- split: ``repr`` of the fields of every node of ``build_tree``, or the
  error with its path, and ``choose_position`` at the root, on 1-D to 3-D
  trees, infeasible ones included;
- moment_sum: ``PrefixTables.moment_sum`` of the mass and of w**s on
  sampled boxes of 1-D to 4-D grids, as hex, or the error.

exact_boxes is a diagnostic of the tile schedule and is left out.  The
script prints, per layer, the number of cases and the first case that
differs with its seed, and exits 1 on any difference.

Usage:
  python3 scripts/identity.py --against HEAD~1
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYERS = ("scan", "split", "moment_sum")


# ----------------------------------------------------------------------
# Corpus, run inside a worker process against one package.
# ----------------------------------------------------------------------


def _scan_cases(bw, np):
    kinds = (bw.ClassKind.MUCKENHOUPT_A, bw.ClassKind.REVERSE_HOLDER)
    # shapes of several stacks (and of several reduction chunks per stack)
    multi = [(30, 40), (64, 20), (10, 10, 10), (12, 6, 12), (5, 5, 5, 5), (3, 20, 25), (48, 48), (6, 6, 5, 7)]
    for seed in range(2000):
        rng = np.random.default_rng(seed)
        ndim = seed % 4 + 1
        style = seed // 4 % 6
        if seed % 25 == 24:
            shape = multi[seed // 25 % len(multi)]
        else:
            top = {1: 300, 2: 20, 3: 8, 4: 5}[ndim]
            shape = tuple(int(n) for n in rng.integers(1, top + 1, ndim))
        mass = np.exp(rng.uniform(-2.0, 2.0, shape))
        values = np.exp(rng.normal(0.0, 1.5, shape))
        if style == 1:  # zero-mass runs
            mass = np.where(rng.random(shape) < 0.4, 0.0, mass)
        elif style == 2 and values.size <= 400:  # ties: a constant weight on equal masses
            mass, values = np.ones(shape), np.full(shape, float(rng.uniform(0.5, 2.0)))
        elif style == 3:  # cell moments beyond the certificate
            values = np.exp(rng.uniform(-300.0, 300.0, shape))
        elif style == 4:  # w**s beyond the doubles: overflowed cells, or w centred by a power of two
            values *= 1e200
        bps = tuple(np.cumsum(np.r_[0.0, rng.uniform(0.2, 2.0, n)]) for n in shape)
        measure, weight = bw.GridMeasure(bps, mass), bw.WeightGrid(values)
        kind = kinds[seed % 2]
        q = float(rng.uniform(1.2, 3.5)) if seed % 2 == 0 else float(rng.uniform(1.5, 6.0))
        try:
            r = bw.characteristic(measure, weight, kind, q)
            text = f"{r.value.hex()} {r.argmax_box} {r.boxes_scanned}"
        except Exception as exc:  # a refusal, or a fault: either is a result to compare
            text = f"{type(exc).__name__}: {exc}"
        yield seed, f"{kind.value} q={q!r} shape={shape}: {text}"


def _split_cases(bw, np):
    for seed in range(900):
        rng = np.random.default_rng(10_000 + seed)
        ndim = seed % 3 + 1
        deep = seed % 25 == 24  # deep 3-D trees where most boxes of a level have their own column
        if deep:
            shape, levels = (12, 10, 8), 7
        else:
            shape = tuple(int(rng.integers(1, {1: 60, 2: 14, 3: 7}[ndim])) for _ in range(ndim))
            levels = int(rng.integers(1, 7))
        bps = tuple(np.cumsum(np.r_[0.0, rng.uniform(0.2, 2.0, n)]) for n in shape)
        style = seed // 3 % 3
        if style == 0:  # equal masses
            mass = np.ones(shape)
        elif style == 1:  # zero-mass slabs
            mass = np.where(rng.random(shape) < 0.4, 0.0, rng.uniform(0.5, 2.0, shape))
            mass.flat[0] += 1.0
        else:
            mass = np.exp(rng.uniform(-2.0, 2.0, shape))
        measure = bw.GridMeasure(bps, mass)
        weight = bw.WeightGrid(np.exp(rng.uniform(-1.0, 1.0, shape)))
        Q = float(rng.uniform(1.01, 3.0))
        config = bw.SplitConfig(
            kind=(bw.ClassKind.MUCKENHOUPT_A, bw.ClassKind.REVERSE_HOLDER)[seed % 2],
            p=float(rng.uniform(1.3, 4.0)),
            Q=Q,
            Q1=Q * (10.0 if deep else float(rng.choice([1.0001, 1.01, 1.1, 2.0, 10.0]))),  # tight bands reject many
            c=0.1 if deep else float(rng.choice([0.05, 0.2, 0.3, 0.45])),
            levels=levels,
            segment_samples=int(rng.choice([17, 257])),
        )
        try:
            tree = bw.build_tree(measure, weight, config)
            text = repr([
                [n.box.ranges, n.level, n.path, n.mass, tuple(n.point), n.diameter, n.axis,
                 n.split_index, n.split_coord, n.ratio, n.segment_psi_max]
                for n in tree.nodes()
            ])
        except Exception as exc:
            text = f"{type(exc).__name__}: {exc} path={getattr(exc, 'path', None)!r}"
        box = bw.BoxIdx.full(shape)
        try:
            choice = bw.choose_position(measure, weight, box, bw.choose_direction(measure, box), config)
            text += f" | root {choice!r}"
        except Exception as exc:
            text += f" | root {type(exc).__name__}: {exc}"
        yield seed, f"shape={shape} {config}: {text}"


def _moment_sum_cases(bw, np):
    for seed in range(400):
        rng = np.random.default_rng(20_000 + seed)
        ndim = seed % 4 + 1
        shape = tuple(int(n) for n in rng.integers(1, {1: 400, 2: 30, 3: 10, 4: 6}[ndim], ndim))
        span = 300.0 if seed % 8 == 7 else 3.0  # some tables beyond the certificate
        mass = np.exp(rng.uniform(-2.0, 2.0, shape)) * (rng.random(shape) < 0.8)
        measure = bw.GridMeasure(tuple(np.arange(n + 1.0) for n in shape), mass)
        weight = bw.WeightGrid(np.exp(rng.uniform(-span, span, shape)))
        s = float(rng.uniform(-2.0, 3.0))
        tables = bw.PrefixTables(measure, weight, (1.0, s))
        sums = []
        for _ in range(20):
            ends = [np.sort(rng.choice(n + 1, 2, replace=False)).tolist() for n in shape]
            box = bw.BoxIdx(tuple(map(tuple, ends)))
            for key in (None, 1.0, s):
                try:
                    sums.append(f"{box} {key!r} {tables.moment_sum(key, box).hex()}")
                except Exception as exc:
                    sums.append(f"{box} {key!r} {type(exc).__name__}: {exc}")
        yield seed, f"shape={shape} s={s!r}: " + "; ".join(sums)


def _worker(src: str) -> None:
    sys.path.insert(0, src)
    import numpy as np

    import boxweights as bw

    if not os.path.abspath(bw.__file__).startswith(os.path.abspath(src)):
        raise SystemExit(f"imported {bw.__file__}, not the package under {src}")
    cases = {"scan": _scan_cases, "split": _split_cases, "moment_sum": _moment_sum_cases}
    out = {}
    for layer in LAYERS:
        with np.errstate(all="ignore"):
            out[layer] = list(cases[layer](bw, np))
    json.dump(out, sys.stdout)


# ----------------------------------------------------------------------
# Main process: unpack the ref, run both packages, compare.
# ----------------------------------------------------------------------


def _unpack(ref: str, into: str) -> str:
    archive = subprocess.run(
        ["git", "-C", REPO, "archive", "--format=tar", ref, "src"], check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return os.path.join(into, "src")


def _clip(text: str, width: int = 400) -> str:
    return text if len(text) <= width else text[:width] + f"... ({len(text)} chars)"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", required=True, help="git ref whose src/ is the reference")
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        _worker(args.worker)
        return 0

    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"ref": _unpack(args.against, tmp), "here": os.path.join(REPO, "src")}
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        procs = {
            name: subprocess.Popen([sys.executable, os.path.abspath(__file__), "--against", args.against,
                                    "--worker", src], stdout=subprocess.PIPE, env=env)
            for name, src in sides.items()
        }
        results = {name: proc.communicate()[0] for name, proc in procs.items()}
    for name, proc in procs.items():
        if proc.returncode:
            print(f"the {name} package failed (exit {proc.returncode})", file=sys.stderr)
            return 2
    ref, here = (json.loads(results[name]) for name in ("ref", "here"))
    differ = False
    for layer in LAYERS:
        bad = [(r, h) for r, h in zip(ref[layer], here[layer]) if r != h]
        print(f"{layer}: {len(ref[layer])} cases, {len(bad)} differ")
        if bad:
            differ = True
            (seed, want), (_, got) = bad[0]
            print(f"  first difference, seed {seed}:\n    {args.against}: {_clip(str(want))}\n    here: {_clip(str(got))}")
    print(f"{'differences found' if differ else 'identical'} against {args.against} "
          f"({time.perf_counter() - start:.1f} s)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
