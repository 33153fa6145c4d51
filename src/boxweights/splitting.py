"""Measure-balanced box splitting with convergence diagnostics.

Each step halves a box by a hyperplane through a lattice breakpoint.  The
direction is the axis of the longest physical edge (ties to the smallest
axis index).  The position must satisfy two constraints: the child mass
ratio lies strictly inside (c, 1-c), and the straight segment between the
two child average points stays inside the enlarged admissible band
{1 <= gauge <= Q1}, checked by dense sampling.  Among feasible positions
the one with ratio closest to 1/2 wins, ties to the smaller index.

The tree grows a level at a time, and one split search serves a whole
level (_split_level; choose_position runs it on a one-box level):

- the axes of all nodes are one argmax over their edge lengths;
- each distinct prefix column, a split axis with the ranges of the other
  axes, is reduced once per table, mass, w and w**s2;
- the sums of every split position of every node are rounded differences
  of two column entries, gathered into flat arrays, and one lexsort orders
  the whole level's ratio windows by (node, |ratio - 1/2|, index);
- segment maxima are evaluated in rounds: every node still searching gives
  its next 1, then 2, 4, ... 64 candidates, in segment_maxima calls of at
  most 2**18 gauge samples, and per node the first feasible candidate in
  that order wins.

A failed split ends the build with the first failure in preorder, which is
the lexicographic order of the node paths: after a failure at path F only
the nodes with paths below F grow on, and the failure with the smallest
path is raised.  build_tree and choose_position refuse tables beyond the
precision certificate, as the scan does, so every sum is the correctly
rounded exact sum, and children take their masses and points from the
split.

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
    return int(np.argmax(_edge_lengths(measure, np.array([box.ranges])), axis=0)[0])


def _edge_lengths(measure: GridMeasure, ranges: np.ndarray) -> np.ndarray:
    """(ndim, n) physical edge lengths of the n boxes of an (n, ndim, 2) index array."""
    return np.array([bp[ranges[:, ax, 1]] - bp[ranges[:, ax, 0]] for ax, bp in enumerate(measure.breakpoints)])


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
    """The children [a, index) and [index, b) of ``box`` on ``axis``; BoxIdx's error unless a < index < b."""
    ranges, index = box.ranges, int(index)
    a, b = ranges[axis]
    left, right = (ranges[:axis] + (r,) + ranges[axis + 1 :] for r in ((a, index), (index, b)))
    if not a < index < b:
        raise PreconditionError(f"empty or negative index range in {left if index <= a else right}")
    return BoxIdx.unchecked(left), BoxIdx.unchecked(right)


def _single_cell(box: BoxIdx, axis: int) -> InfeasibleSplitError:
    return InfeasibleSplitError(
        f"box {box} has a single cell along axis {axis}; no interior breakpoint", box=box
    )


# Gauge samples per segment_maxima call of the split search: 2 MB per temporary.
_CALL_SAMPLES = 2**18


def _columns(tables: PrefixTables, keys, ranges: np.ndarray, axes, span: np.ndarray):
    """Prefix columns of the keyed tables along each box's axis, and each box's offset into them.

    Boxes with the same axis and the same ranges on the other axes share a
    column: one dd_box_diffs call per table reduces the other axes.  A
    single column is returned as it is (in 1-D, the tables themselves);
    otherwise the entries a..b of each box's [a, b) = span are concatenated.
    Entry x of box j's column is entry x + offset[j] of the result.
    """
    n = len(ranges)
    other = ranges.copy()
    other[np.arange(n), axes] = -1
    groups, slot = np.unique(other.reshape(n, -1), axis=0, return_inverse=True)
    columns = [
        [dd_box_diffs(*tables.table(s), [None if a < 0 else (a, b) for a, b in group]) for s in keys]
        for group in groups.reshape(len(groups), -1, 2).tolist()
    ]
    if len(columns) == 1:
        return columns[0], np.zeros(n, dtype=np.intp)
    slot, (a, b) = slot.reshape(-1).tolist(), span.T.tolist()
    joined = [
        tuple(np.concatenate([columns[g][t][j][x:y + 1] for g, x, y in zip(slot, a, b)]) for j in (0, 1))
        for t in range(len(keys))
    ]
    sizes = span[:, 1] - span[:, 0] + 1
    return joined, np.cumsum(sizes) - sizes - span[:, 0]


def _between(column, x, y):
    """Sums over [x, y) of a prefix column: rounded differences of two entries."""
    h, l = column
    return dd_sub_rounded(h[y], l[y], h[x], l[x])


def _first_stops(lam, ends, stop, owner, start, end, config: SplitConfig):
    """Segment maxima of the candidates searched, and per node its first stopping candidate.

    Candidates start[j]:end[j], owned by node j, are in search order; a
    candidate stops the search if stop marks it or its segment maximum is at
    most Q1.  Each round takes the next 1, 2, 4, ... 64 candidates of every
    node still searching, in segment_maxima calls of at most _CALL_SAMPLES
    gauge samples.  First stops are -1 for nodes with none; unsearched
    maxima are nan.
    """
    psi = np.full(stop.size, np.nan)
    first = np.full(start.size, -1)
    nxt = start.copy()
    searching = np.flatnonzero(end > start)
    per_call = max(1, _CALL_SAMPLES // lam.size)
    size = 1
    while searching.size:
        take = np.minimum(end[searching] - nxt[searching], size)
        batch = np.arange(take.sum()) + np.repeat(nxt[searching] - (np.cumsum(take) - take), take)
        for lo in range(0, batch.size, per_call):
            part = batch[lo:lo + per_call]
            psi[part] = segment_maxima(lam, *(x[part] for x in ends), config.kind, config.p)
        hits = batch[stop[batch] | (psi[batch] <= config.Q1)]
        nodes, at = np.unique(owner[hits], return_index=True)
        first[nodes] = hits[at]
        nxt[searching] += take
        searching = searching[(nxt[searching] < end[searching]) & (first[searching] < 0)]
        size = min(2 * size, 64)
    return psi, first


def _split_level(measure: GridMeasure, tables: PrefixTables, config: SplitConfig, boxes, ranges, axes):
    """One split search for the boxes of a tree level, each along its axis.

    ``ranges`` is the (n, ndim, 2) index array of the boxes.  Returns, per
    box, the fields of its SplitChoice as a tuple, or the error its split
    raises: the error a one-box search meets first, in (|ratio - 1/2|,
    index) order.  The tables must be certified.
    """
    keys = (None, 1.0, config.moment_exponent)
    outcomes: list = [None] * len(boxes)
    axes = axes.tolist()
    span = ranges[np.arange(len(boxes)), axes]  # [a, b) along the axis
    for i in np.flatnonzero(span[:, 1] - span[:, 0] < 2).tolist():
        outcomes[i] = _single_cell(boxes[i], axes[i])
    live = np.flatnonzero(span[:, 1] - span[:, 0] >= 2)
    if not live.size:
        return outcomes
    span = span[live]
    columns, offset = _columns(tables, keys, ranges[live], np.take(axes, live), span)
    a, b = (span[:, j] + offset for j in (0, 1))  # column indices
    total = _between(columns[0], a, b)
    for j in np.flatnonzero(total <= 0.0).tolist():
        outcomes[live[j]] = ZeroMeasureBoxError(boxes[live[j]])
    keep = np.flatnonzero(~(total <= 0.0))
    live, span, offset, a, b, total = (x[keep] for x in (live, span, offset, a, b, total))

    # Every split position of every node: its node, its column index k and
    # its left ratio; positions[j] starts node j's run.
    counts = b - a - 1
    positions = np.cumsum(counts) - counts
    node = np.repeat(np.arange(live.size), counts)
    k = np.arange(counts.sum()) - np.repeat(positions - a - 1, counts)
    left_mass = _between(columns[0], a[node], k)
    ratios = left_mass / total[node]
    window = np.flatnonzero((config.c < ratios) & (ratios < 1.0 - config.c))
    window = window[np.lexsort((k[window], np.abs(ratios[window] - 0.5), node[window]))]

    # Sums and (x1, x2) of the left and right children of the window
    # candidates, in search order, start[j]:end[j] for node j; a zero mass
    # or a nonpositive coordinate stops the search with its error.
    owner, wk = node[window], k[window]
    left = (left_mass[window], *(_between(col, a[owner], wk) for col in columns[1:]))
    right = tuple(_between(col, wk, b[owner]) for col in columns)
    end = np.cumsum(np.bincount(owner, minlength=live.size))
    start = end - np.bincount(owner, minlength=live.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ends = [sums[j] / sums[0] for sums in (left, right) for j in (1, 2)]
        nonpositive = np.logical_or.reduce([x <= 0.0 for x in ends])
        stop = (left[0] <= 0.0) | (right[0] <= 0.0) | nonpositive
        psi, first = _first_stops(_samples(config.segment_samples), ends, stop, owner, start, end, config)

    found = np.flatnonzero(first >= 0)
    e = first[found]
    rows = zip(
        found.tolist(), (wk - offset[owner])[e].tolist(), ratios[window[e]].tolist(), psi[e].tolist(),
        left[0][e].tolist(), right[0][e].tolist(), nonpositive[e].tolist(), *(x[e].tolist() for x in ends),
    )
    live = live.tolist()
    for j, index, ratio, smax, m_left, m_right, bad, *xs in rows:
        i = live[j]
        box, axis = boxes[i], axes[i]
        if m_left <= 0.0 or m_right <= 0.0:
            outcomes[i] = ZeroMeasureBoxError(_split_box(box, axis, index)[0 if m_left <= 0.0 else 1])
        elif bad:
            outcomes[i] = PreconditionError("average points must have positive coordinates")
        else:
            coord = float(measure.breakpoints[axis][index])
            outcomes[i] = (axis, index, coord, ratio, smax, AvgPoint(*xs[:2]), AvgPoint(*xs[2:]), m_left, m_right)
    # No feasible candidate: every window candidate has been searched.
    for j in np.flatnonzero(first < 0).tolist():
        i = live[j]
        box, axis = boxes[i], axes[i]
        best_psi = min(psi[start[j]:end[j]].tolist(), default=None)
        ks = range(int(span[j, 0]) + 1, int(span[j, 1]))
        lo = int(positions[j])
        # min over (|ratio - 1/2|, k) as Python orders the pairs, NaN included
        _, r_best = min(zip(ks, ratios[lo:lo + len(ks)].tolist()), key=lambda kr: (abs(kr[1] - 0.5), kr[0]))
        outcomes[i] = InfeasibleSplitError(
            f"no feasible split of {box} along axis {axis}: best ratio "
            f"{r_best:.6g} with window ({config.c}, {1 - config.c}), "
            f"best segment max {best_psi}",
            box=box,
            best_ratio=r_best,
            best_segment_max=best_psi,
        )
    return outcomes


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
    at most Q1.  This is the split search of build_tree on a one-box level:
    the other axes of the box are reduced once per table, mass, w and w**s2,
    to a prefix column along the axis (_summation.dd_box_diffs); the sums of
    the box, of the left child of every position and of both children of
    the window positions are rounded differences of two entries of it
    (dd_sub_rounded).  The window is ordered by (|ratio - 1/2|, index), and
    its segment maxima are evaluated in rounds of 1, 2, 4, ... 64
    candidates; the first feasible candidate in that order wins.  With no
    feasible position every window candidate has been evaluated, and an
    InfeasibleSplitError reports the ratio closest to 1/2 over all positions
    and the smallest segment maximum seen inside the ratio window.  Tables
    beyond the precision certificate are refused first, as build_tree
    refuses them.
    """
    tables = own_tables(measure, weight, tables)
    tables.certify(None, 1.0, config.moment_exponent)
    a, b = box.ranges[axis]
    if b - a < 2:
        raise _single_cell(box, axis)
    box.check_shape(measure.shape)
    (outcome,) = _split_level(measure, tables, config, [box], np.array([box.ranges]), np.array([axis]))
    if isinstance(outcome, Exception):
        raise outcome
    return SplitChoice(*outcome)


def build_tree(
    measure: GridMeasure,
    weight: WeightGrid,
    config: SplitConfig,
    root_box: BoxIdx | None = None,
    tables: PrefixTables | None = None,
) -> SplitTree:
    """Split tree of depth config.levels over the root box, grown a level at a time.

    The caller is responsible for having checked that the weight's
    characteristic on the root is at most config.Q; the construction itself
    only enforces the ratio window and the segment containment.  Each level
    is one split search (_split_level).  A failed split aborts the build
    with the first failure in preorder, which is the order of the paths; an
    InfeasibleSplitError reports its path.  A PreconditionError names the
    first positive-mass cell of the root box whose w or w**s2 moment cell is
    0 or non-finite: the averages would silently leave it out.  Tables
    beyond the precision certificate are refused as the scan refuses them,
    with the span of the worst of the mass, w and w**s2 tables.  ``tables``,
    if given, must have been built for this measure and weight.
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

    levels: list[list[SplitNode]] = []
    grown = [(root_box, "", mass, point)]  # box, path, mass and point of the next level's nodes
    parents: list[SplitNode] = []
    failure = None
    for level in range(config.levels + 1):
        if not grown:
            break
        boxes = [box for box, *_ in grown]
        ranges = np.array([box.ranges for box in boxes], dtype=np.intp)
        lengths = _edge_lengths(measure, ranges)
        nodes = [  # diameters as GridMeasure.box_diameter computes them
            SplitNode(box=box, level=level, path=path, mass=m, point=x,
                      diameter=math.sqrt(sum(edge**2 for edge in edges)))
            for (box, path, m, x), edges in zip(grown, lengths.T.tolist())
        ]
        for parent, i in zip(parents, range(0, len(nodes), 2)):
            parent.children = (nodes[i], nodes[i + 1])
        levels.append(nodes)
        if level == config.levels:
            break
        outcomes = _split_level(measure, tables, config, boxes, ranges, np.argmax(lengths, axis=0))
        # A level's nodes come in path order, and all of them precede every
        # failure met so far: the level's first failure is the new first one
        # in preorder, and only the nodes before it grow on.
        grown, parents = [], []
        for node, outcome in zip(nodes, outcomes):
            if isinstance(outcome, Exception):
                if isinstance(outcome, InfeasibleSplitError):
                    outcome.path = node.path
                failure = outcome
                break
            axis, index, _, _, _, left_point, right_point, left_mass, right_mass = outcome
            node.axis, node.split_index, node.split_coord, node.ratio, node.segment_psi_max = outcome[:5]
            left_box, right_box = _split_box(node.box, axis, index)
            grown += [(left_box, node.path + "0", left_mass, left_point),
                      (right_box, node.path + "1", right_mass, right_point)]
            parents.append(node)
    if failure is not None:
        raise failure
    return SplitTree(
        config=config,
        measure=measure,
        weight=weight,
        root=levels[0][0],
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

