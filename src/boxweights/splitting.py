"""Measure-balanced recursive box splitting with convergence diagnostics.

Each step halves a box by a hyperplane through a lattice breakpoint.  The
direction is the axis of the longest physical edge (ties to the smallest
axis index).  The position must satisfy two constraints: the child mass
ratio lies strictly inside (c, 1-c), and the straight segment between the
two child average points stays inside the enlarged admissible band
{1 <= gauge <= Q1}, checked by dense sampling.  Among feasible positions
the one with ratio closest to 1/2 wins, ties to the smaller index.

A node reduces the other axes of its box to one prefix column per table
along the split axis, reads the sums of all its split positions as rounded
differences of two entries of a column, and samples the segments of the
window positions in chunks, in (|ratio - 1/2|, index) order; the first
feasible candidate wins (see choose_position).  build_tree and
choose_position refuse tables beyond the precision certificate, as the scan
does, so every sum is the correctly rounded exact sum, and children take
their masses and points from the split.

Iterating M times produces a complete binary tree of 2**M leaves that
partition the root.  The leaf-piecewise average functions converge to the
weight as the leaf diameters shrink; the chain report tracks the
mass-weighted candidate sums whose monotone decrease is the quantitative
content of segment concavity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._summation import dd_box_diffs, dd_sub_rounded
from .characteristics import pair_gauge, second_moment_exponent
from .errors import InfeasibleSplitError, PreconditionError, ZeroMeasureBoxError
from .exponents import ClassKind, PParam, _as_pparam
from .grids import BoxIdx, GridMeasure, PrefixTables, WeightGrid, lost_moment_cell, own_tables

DEFAULT_RATIO_C = 0.2
DEFAULT_SEGMENT_SAMPLES = 257


class AvgPoint(NamedTuple):
    """Average pair of a box: x1 = <w>, x2 = <w**p1> (Muckenhoupt) or <w**p>."""

    x1: float
    x2: float


@dataclass(frozen=True)
class SplitConfig:
    """Parameters of a splitting run.

    Q bounds the characteristic of the weight on the root, Q1 > Q is the
    enlarged band that the child segments must not leave, c the mass ratio
    window and levels the tree depth.
    """

    kind: ClassKind
    p: PParam
    Q: float
    Q1: float
    c: float = DEFAULT_RATIO_C
    levels: int = 8
    segment_samples: int = DEFAULT_SEGMENT_SAMPLES

    def __post_init__(self):
        object.__setattr__(self, "p", _as_pparam(self.p))
        if not (self.Q1 > self.Q > 1.0):
            raise PreconditionError(f"need Q1 > Q > 1, got Q={self.Q}, Q1={self.Q1}")
        if not (0.0 < self.c <= 0.5):
            raise PreconditionError(f"ratio constant c must lie in (0, 1/2], got {self.c}")
        if self.levels < 0:
            raise PreconditionError("levels must be nonnegative")
        if self.segment_samples < 2:
            raise PreconditionError("segment_samples must be at least 2")

    @property
    def moment_exponent(self) -> float:
        return second_moment_exponent(self.kind, self.p.p)


@dataclass
class SplitNode:
    """One box of the split tree with its average point and split record."""

    box: BoxIdx
    level: int
    path: str
    mass: float
    point: AvgPoint
    diameter: float
    axis: int | None = None
    split_index: int | None = None
    split_coord: float | None = None
    ratio: float | None = None
    segment_psi_max: float | None = None
    children: tuple = ()


@dataclass
class SplitTree:
    """Complete binary split tree of the configured depth."""

    config: SplitConfig
    measure: GridMeasure
    weight: WeightGrid
    root: SplitNode
    levels: list[list[SplitNode]]
    tables: PrefixTables = field(repr=False, default=None)

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def leaves(self, level: int | None = None) -> list[SplitNode]:
        return self.levels[self.depth if level is None else level]

    def max_diameter(self, level: int) -> float:
        return max(n.diameter for n in self.levels[level])

    def nodes(self):
        for level in self.levels:
            yield from level


def choose_direction(measure: GridMeasure, box: BoxIdx) -> int:
    """Axis of the longest physical edge; ties break to the smallest index."""
    box.check_shape(measure.shape)
    lengths = [measure.edge_length(ax, a, b) for ax, (a, b) in enumerate(box.ranges)]
    return int(np.argmax(lengths))


def segment_max(
    x_a: AvgPoint, x_b: AvgPoint, kind: ClassKind, p, samples: int = DEFAULT_SEGMENT_SAMPLES
) -> float:
    """Max of the gauge over the sampled segment [x_a, x_b], endpoints included."""
    if min(x_a.x1, x_a.x2, x_b.x1, x_b.x2) <= 0.0:
        raise PreconditionError("average points must have positive coordinates")
    ends = (np.array([v]) for v in (*x_a, *x_b))
    return float(segment_maxima(_samples(samples), *ends, kind, p)[0])


@functools.lru_cache(maxsize=8)
def _samples(n: int) -> np.ndarray:
    lam = np.linspace(0.0, 1.0, n)
    lam.setflags(write=False)
    return lam


def segment_maxima(lam, a1, a2, b1, b2, kind: ClassKind, p) -> np.ndarray:
    """segment_max of the K segments from (a1[i], a2[i]) to (b1[i], b2[i]).

    One gauge evaluation over C-contiguous (K, samples) arrays; entry i equals
    segment_max of segment i bit for bit.  Coordinates are not checked.
    """
    x1 = lam * a1[:, None] + (1.0 - lam) * b1[:, None]
    x2 = lam * a2[:, None] + (1.0 - lam) * b2[:, None]
    return pair_gauge(kind, p, x1, x2).max(axis=1)


@dataclass(frozen=True)
class SplitChoice:
    """Accepted split position with its diagnostics."""

    axis: int
    index: int
    coord: float
    ratio: float
    segment_psi_max: float
    left_point: AvgPoint
    right_point: AvgPoint
    left_mass: float
    right_mass: float


def _split_box(box: BoxIdx, axis: int, index: int) -> tuple[BoxIdx, BoxIdx]:
    a, b = box.ranges[axis]
    left = list(box.ranges)
    right = list(box.ranges)
    left[axis] = (a, index)
    right[axis] = (index, b)
    return BoxIdx(tuple(left)), BoxIdx(tuple(right))


def choose_position(
    measure: GridMeasure,
    weight: WeightGrid,
    box: BoxIdx,
    axis: int,
    config: SplitConfig,
    tables: PrefixTables | None = None,
):
    """Select the split breakpoint along the axis.

    Feasible positions have child mass ratio in (c, 1-c) and segment maximum
    at most Q1.  The other axes of the box are reduced once per table, mass,
    w and w**s2, to a prefix column along the axis
    (_summation.dd_box_diffs); the sums of the box, of the left child of
    every position and of the right children of the window positions are
    rounded differences of two entries of it (dd_sub_rounded).  The window
    is ordered by (|ratio - 1/2|, index), and its segment maxima are
    evaluated in chunks of 8, 16, 32, then 64 candidates; the first
    feasible candidate in that order wins.  With no feasible position every
    window candidate has been evaluated, and an InfeasibleSplitError
    reports the ratio closest to 1/2 over all positions and the smallest
    segment maximum seen inside the ratio window.  Tables beyond the
    precision certificate are refused first, as build_tree refuses them.
    """
    s2 = config.moment_exponent
    tables = own_tables(measure, weight, tables)
    tables.certify(None, 1.0, s2)
    a, b = box.ranges[axis]
    if b - a < 2:
        raise InfeasibleSplitError(
            f"box {box} has a single cell along axis {axis}; no interior breakpoint",
            box=box,
        )
    box.check_shape(measure.shape)
    bounds = [None if ax == axis else r for ax, r in enumerate(box.ranges)]
    columns = [dd_box_diffs(*tables.table(s), bounds) for s in (None, 1.0, s2)]

    def between(x, y):
        # mass, w and w**s2 sums (3, ...) over [x, y) of the axis
        return np.array([dd_sub_rounded(h[y], l[y], h[x], l[x]) for h, l in columns])

    total = float(between(a, b)[0])
    if total <= 0.0:
        raise ZeroMeasureBoxError(box)

    # Sums of the left children of every position, then of the right
    # children of the window positions, in (|ratio - 1/2|, k) order.
    ks = np.arange(a + 1, b)
    left = between([a], ks)
    ratios = left[0] / total
    inside = (config.c < ratios) & (ratios < 1.0 - config.c)
    order = np.flatnonzero(inside)[np.lexsort((ks[inside], np.abs(ratios[inside] - 0.5)))]
    cand = ks[order]
    children = (left[:, order], between(cand, [b]))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # (x1, x2) of the left and the right children; a zero mass or a
        # nonpositive coordinate is reported below, in candidate order.
        points = [sums[1:] / sums[0] for sums in children]
        lam = _samples(config.segment_samples)
        best_psi = None
        start, size = 0, 8
        while start < cand.size:
            chunk = slice(start, start + size)
            ends = (x[j, chunk] for x in points for j in (0, 1))
            smax = segment_maxima(lam, *ends, config.kind, config.p)
            for i, psi in enumerate(smax.tolist(), start):
                k = int(cand[i])
                for side, sums in enumerate(children):
                    if sums[0, i] <= 0.0:
                        raise ZeroMeasureBoxError(_split_box(box, axis, k)[side])
                x_left, x_right = (AvgPoint(*x[:, i].tolist()) for x in points)
                if min(*x_left, *x_right) <= 0.0:
                    raise PreconditionError("average points must have positive coordinates")
                if psi <= config.Q1:
                    return SplitChoice(
                        axis=axis,
                        index=k,
                        coord=float(measure.breakpoints[axis][k]),
                        ratio=float(ratios[order[i]]),
                        segment_psi_max=psi,
                        left_point=x_left,
                        right_point=x_right,
                        left_mass=float(children[0][0, i]),
                        right_mass=float(children[1][0, i]),
                    )
                if best_psi is None or psi < best_psi:
                    best_psi = psi
            # Small first chunks: the best-ratio candidate usually wins.
            start, size = start + size, min(2 * size, 64)
    # min over (|ratio - 1/2|, k) as Python orders the pairs, NaN included
    _, r_best = min(zip(ks.tolist(), ratios.tolist()), key=lambda kr: (abs(kr[1] - 0.5), kr[0]))
    raise InfeasibleSplitError(
        f"no feasible split of {box} along axis {axis}: best ratio "
        f"{r_best:.6g} with window ({config.c}, {1 - config.c}), "
        f"best segment max {best_psi}",
        box=box,
        best_ratio=r_best,
        best_segment_max=best_psi,
    )


def build_tree(
    measure: GridMeasure,
    weight: WeightGrid,
    config: SplitConfig,
    root_box: BoxIdx | None = None,
    tables: PrefixTables | None = None,
) -> SplitTree:
    """Recursive split tree of depth config.levels over the root box.

    The caller is responsible for having checked that the weight's
    characteristic on the root is at most config.Q; the construction itself
    only enforces the ratio window and the segment containment.  An
    infeasible node aborts the build and reports its path.  A PreconditionError
    names the first positive-mass cell of the root box whose w or w**s2
    moment cell is 0 or non-finite: the averages would silently leave it out.
    Tables beyond the precision certificate are refused as the scan refuses
    them, with the span of the worst of the mass, w and w**s2 tables.
    ``tables``, if given, must have been built for this measure and weight.
    """
    s2 = config.moment_exponent
    tables = own_tables(measure, weight, tables)
    if root_box is None:
        root_box = BoxIdx.full(measure.shape)
    root_box.check_shape(measure.shape)
    slices = root_box.as_slices()
    lost = lost_moment_cell(measure.mass[slices], {s: tables.cells(s)[slices] for s in (1.0, s2)})
    if lost is not None:
        s, first, moment = lost
        cell = tuple(i + a for i, (a, _) in zip(first, root_box.ranges))
        raise PreconditionError(
            f"cell moment of w**{float(s)!r} is {moment!r} at positive-mass cell {cell}: it "
            f"under- or overflows, and split averages would leave it out"
        )
    tables.certify(None, 1.0, s2)
    mass = tables.mass_sum(root_box)
    if mass <= 0.0:
        raise ZeroMeasureBoxError(root_box)
    point = AvgPoint(tables.moment_sum(1.0, root_box) / mass, tables.moment_sum(s2, root_box) / mass)

    levels: list[list[SplitNode]] = [[] for _ in range(config.levels + 1)]

    def grow(box: BoxIdx, level: int, path: str, mass: float, point: AvgPoint) -> SplitNode:
        node = SplitNode(
            box=box,
            level=level,
            path=path,
            mass=mass,
            point=point,
            diameter=measure.box_diameter(box),
        )
        levels[level].append(node)
        if level < config.levels:
            axis = choose_direction(measure, box)
            try:
                choice = choose_position(measure, weight, box, axis, config, tables)
            except InfeasibleSplitError as exc:
                exc.path = path
                raise
            node.axis = choice.axis
            node.split_index = choice.index
            node.split_coord = choice.coord
            node.ratio = choice.ratio
            node.segment_psi_max = choice.segment_psi_max
            left_box, right_box = _split_box(box, choice.axis, choice.index)
            node.children = (
                grow(left_box, level + 1, path + "0", choice.left_mass, choice.left_point),
                grow(right_box, level + 1, path + "1", choice.right_mass, choice.right_point),
            )
        return node

    root = grow(root_box, 0, "", mass, point)
    return SplitTree(
        config=config,
        measure=measure,
        weight=weight,
        root=root,
        levels=levels,
        tables=tables,
    )


@dataclass(frozen=True)
class ChainReport:
    """Per-level candidate sums S_M and the terminal average of w**r.

    S_M is the mass-weighted sum of candidate values at the level-M average
    points.  For a segment-concave candidate each split can only decrease
    the sum, so S_0 >= S_M for every M; at full cell depth the leaf points
    sit on the boundary curve and S_depth matches the average of w**r up to
    the leftover discretization residual.
    """

    r: float
    s_values: tuple[float, ...]
    terminal_avg_wr: float

    @property
    def depth(self) -> int:
        return len(self.s_values) - 1


def chain_report(tree: SplitTree, r: float, candidate) -> ChainReport:
    """Evaluate the candidate chain over the tree levels.

    candidate is either a BellmanCandidate or a plain callable (x1, x2) ->
    value; it is called once per level, on the arrays of the level's
    average points, and must work elementwise.  If that call fails, the
    level's points are evaluated one at a time, in order, and the error
    names the first failing point.  A value that is not finite fails the
    same way, at the level's first such point in node order.
    """
    evaluate = candidate.evaluate if hasattr(candidate, "evaluate") else candidate
    total = tree.root.mass
    s_values = []
    for level, nodes in enumerate(tree.levels):
        x1, x2 = (np.array([node.point[j] for node in nodes]) for j in (0, 1))
        try:
            values = np.broadcast_to(np.asarray(evaluate(x1, x2), dtype=np.float64), x1.shape)
        except Exception as exc:
            for node in nodes:
                try:
                    float(evaluate(node.point.x1, node.point.x2))
                except Exception as node_exc:
                    raise PreconditionError(
                        f"candidate evaluation failed at point {tuple(node.point)}: {node_exc}"
                    ) from node_exc
            raise PreconditionError(
                f"candidate evaluation failed on the level-{level} points: {exc}"
            ) from exc
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            point, value = tuple(nodes[bad[0]].point), float(values[bad[0]])
            raise PreconditionError(
                f"candidate evaluation failed at point {point}: value {value!r} is not finite"
            )
        masses = np.array([node.mass for node in nodes])
        s_values.append(math.fsum((masses / total * values).tolist()))
    terminal = tree.tables.moment_sum(r, tree.root.box) / total
    return ChainReport(r=r, s_values=tuple(s_values), terminal_avg_wr=terminal)

