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
- each node's first candidate is sampled in full; the other candidates of
  the nodes still searching are screened in one pass by four of their own
  samples (_out_of_band), and only each node's first survivor is sampled in
  full, again where full sampling turns one down.  Per node the first
  feasible candidate in that order wins; calls take at most 2**18 gauge
  samples.

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
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._summation import dd_columns, dd_sub_rounded
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
    return _gauges(lam, a1, a2, b1, b2, kind, p).max(axis=1)


def _gauges(lam, a1, a2, b1, b2, kind: ClassKind, p) -> np.ndarray:
    """Gauge of the K segments at lam a + (1 - lam) b, lam of shape (samples,) or (K, samples)."""
    x1 = lam * a1[:, None] + (1.0 - lam) * b1[:, None]
    x2 = lam * a2[:, None] + (1.0 - lam) * b2[:, None]
    return pair_gauge(kind, p, x1, x2)


def _peak_samples(lam, a1, a2, b1, b2, kind: ClassKind, p):
    """Indices (K, 4) and gauges of four of the samples segment_maxima takes of each segment.

    They are the first, the last and the two around the critical point t*
    of the gauge on x = b + t d, d = a - b, which solves d1 x2 + (p-1) d2 x1
    = 0 (Muckenhoupt) or d2 x1 - p d1 x2 = 0 (Reverse Holder), linear in t.
    The gauges equal segment_maxima's bit for bit, so one above a limit puts
    the segment maximum above it; an undefined (d1 d2 = 0) or wrong t* only
    picks samples that show less.
    """
    q, last = _as_pparam(p).p, lam.size - 1
    with np.errstate(all="ignore"):
        d1, d2 = a1 - b1, a2 - b2
        if kind is ClassKind.MUCKENHOUPT_A:
            t = -(d1 * b2 + (q - 1.0) * d2 * b1) / (q * d1 * d2)
        else:
            t = (q * d1 * b2 - d2 * b1) / ((1.0 - q) * d1 * d2)
        t = np.fmax(np.fmin(t * last, last - 1.0), 0.0).astype(np.intp)  # fmin and fmax drop a nan
        idx = np.column_stack((np.zeros_like(t), np.full_like(t, last), t, t + 1))
        return idx, _gauges(lam[idx], a1, a2, b1, b2, kind, p)


def _out_of_band(lam, a1, a2, b1, b2, kind: ClassKind, p, limit: float) -> np.ndarray:
    """Segments whose peak samples (_peak_samples) show a segment maximum above ``limit``."""
    return _peak_samples(lam, a1, a2, b1, b2, kind, p)[1].max(axis=1) > limit


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


def _columns(HL: np.ndarray, ranges: np.ndarray, axes: np.ndarray):
    """Prefix columns (tables, 2, entries) along each box's axis, and each box's offset into them.

    ``HL`` stacks the tables (PrefixTables.stacked).  Per split axis, boxes
    with the same ranges on the other axes share a column, and one
    _summation.dd_columns call on the tables with that axis moved last
    reduces them all.  Entry x of box j's column is entry x + offset[j] of
    the result.
    """
    parts, offset, start = [], np.zeros(len(ranges), dtype=np.intp), 0
    for axis in np.flatnonzero(np.bincount(axes)).tolist():
        on = np.flatnonzero(axes == axis)
        # per other axis, the distinct ranges (a, b), coded a * extent + b, and
        # each box's digit; slot ranks the digits so far, first[g] is slot g's first box
        pairs, digits, slot, first = [], [], np.zeros(on.size, dtype=np.intp), [0]
        for j in np.delete(np.arange(HL.ndim - 2), axis).tolist():
            extent = HL.shape[j + 2]
            codes, digit = np.unique(ranges[on, j] @ (extent, 1), return_inverse=True)
            _, first, slot = np.unique(slot * codes.size + digit, return_index=True, return_inverse=True)
            pairs.append(np.divmod(codes, extent))
            digits.append(digit)
        hl = dd_columns(np.moveaxis(HL, axis + 2, -1), pairs, [d[first] for d in digits])
        offset[on] = start + slot * hl.shape[-1]
        start += hl.shape[2] * hl.shape[3]
        parts.append(hl.reshape(*hl.shape[:2], -1))
    columns = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=2)
    return columns.swapaxes(0, 1), offset


def _between(column, x, y):
    """Sums over [x, y) of a prefix column: rounded differences of two entries."""
    h, l = column
    return dd_sub_rounded(h[y], l[y], h[x], l[x])


def _index_runs(lo, hi):
    """The integers lo[0] .. hi[0] - 1, then lo[1] .. hi[1] - 1, and so on, as one array."""
    count = hi - lo
    return np.arange(count.sum()) + np.repeat(lo - (np.cumsum(count) - count), count)


def _first_stops(lam, ends, stop, owner, start, end, config: SplitConfig):
    """Segment maxima of the candidates sampled in full, and per node its first stopping candidate.

    Candidates start[j]:end[j], owned by node j, are in search order; a
    candidate stops the search if stop marks it or its segment maximum is at
    most Q1.  Each node's first candidate is sampled in full; the others of
    the nodes still searching are screened in one pass (_out_of_band), and
    each node's first survivor is sampled in full, again while that turns
    one down.  A node left without survivors has the rest sampled in full,
    so its first stop and all its maxima come from full sampling.  Calls
    take at most _CALL_SAMPLES gauge samples.  First stops are -1 for nodes
    with none; maxima not sampled in full are nan.
    """
    psi = np.full(stop.size, np.nan)
    first = np.full(start.size, -1)
    sampled = np.zeros(stop.size, dtype=bool)

    def calls(cands, width):
        per_call = max(1, _CALL_SAMPLES // width)
        return ((lo, cands[lo:lo + per_call]) for lo in range(0, cands.size, per_call))

    def sample(cands):  # the first stop of each node among cands, sampled in full
        for _, part in calls(cands, lam.size):
            psi[part] = segment_maxima(lam, *(x[part] for x in ends), config.kind, config.p)
        sampled[cands] = True
        hits = cands[stop[cands] | (psi[cands] <= config.Q1)]
        nodes, at = np.unique(owner[hits], return_index=True)
        first[nodes] = hits[at]

    searching = np.flatnonzero(end > start)
    sample(start[searching])
    searching = searching[first[searching] < 0]
    if not searching.size:
        return psi, first
    cands = _index_runs(start[searching] + 1, end[searching])
    out = np.zeros(cands.size, dtype=bool)
    for lo, part in calls(cands, 4):
        out[lo:lo + part.size] = _out_of_band(lam, *(x[part] for x in ends), config.kind, config.p, config.Q1)
    survivors = cands[stop[cands] | ~out]
    while survivors.size:
        head = np.r_[True, owner[survivors[1:]] != owner[survivors[:-1]]]
        sample(survivors[head])
        survivors = survivors[~head & (first[owner[survivors]] < 0)]
    searching = searching[first[searching] < 0]
    cands = _index_runs(start[searching] + 1, end[searching])
    sample(cands[~sampled[cands]])
    return psi, first


def _split_level(measure: GridMeasure, HL: np.ndarray, config: SplitConfig, boxes, ranges, axes):
    """One split search for the boxes of a tree level, each along its axis.

    ``HL`` stacks the mass, w and w**s2 tables (PrefixTables.stacked), and
    ``ranges`` is the (n, ndim, 2) index array of the boxes.  Returns a dict
    of the errors of the boxes whose split fails, by box number (the error
    a one-box search meets first, in (|ratio - 1/2|, index) order), the
    split indices and a (9, n) array of the float fields of SplitChoice in
    order, the points as (x1, x2); entries of failed boxes mean nothing.
    The tables must be certified.
    """
    n = len(boxes)
    errors, index, fields = {}, np.zeros(n, dtype=np.intp), np.zeros((9, n))
    span = ranges[np.arange(n), axes]  # [a, b) along the axis
    for i in np.flatnonzero(span[:, 1] - span[:, 0] < 2).tolist():
        errors[i] = _single_cell(boxes[i], int(axes[i]))
    live = np.flatnonzero(span[:, 1] - span[:, 0] >= 2)
    if not live.size:
        return errors, index, fields
    span = span[live]
    columns, offset = _columns(HL, ranges[live], axes[live])
    a, b = (span[:, j] + offset for j in (0, 1))  # column indices
    total = _between(columns[0], a, b)
    for j in np.flatnonzero(total <= 0.0).tolist():
        errors[int(live[j])] = ZeroMeasureBoxError(boxes[live[j]])
    keep = np.flatnonzero(~(total <= 0.0))
    live, span, offset, a, b, total = (x[keep] for x in (live, span, offset, a, b, total))

    # Every split position of every node: its node, its column index k and
    # its left ratio; positions[j] starts node j's run.
    counts = b - a - 1
    positions = np.cumsum(counts) - counts
    node = np.repeat(np.arange(live.size), counts)
    k = _index_runs(a + 1, b)
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
    e, at = first[found], live[found]
    index[at] = (wk - offset[owner])[e]
    fields[1:, at] = ratios[window[e]], psi[e], *(x[e] for x in ends), left[0][e], right[0][e]
    for axis, bp in enumerate(measure.breakpoints):
        on = at[axes[at] == axis]
        fields[0, on] = bp[index[on]]
    zero = (left[0][e] <= 0.0) | (right[0][e] <= 0.0)
    for j in np.flatnonzero(zero | nonpositive[e]).tolist():
        i = int(at[j])
        if zero[j]:
            children = _split_box(boxes[i], int(axes[i]), int(index[i]))
            errors[i] = ZeroMeasureBoxError(children[0 if left[0][e[j]] <= 0.0 else 1])
        else:
            errors[i] = PreconditionError("average points must have positive coordinates")
    # No feasible candidate: every window candidate has been sampled in full.
    for j in np.flatnonzero(first < 0).tolist():
        i = int(live[j])
        box, axis = boxes[i], int(axes[i])
        best_psi = min(psi[start[j]:end[j]].tolist(), default=None)
        ks = range(int(span[j, 0]) + 1, int(span[j, 1]))
        lo = int(positions[j])
        # min over (|ratio - 1/2|, k) as Python orders the pairs, NaN included
        _, r_best = min(zip(ks, ratios[lo:lo + len(ks)].tolist()), key=lambda kr: (abs(kr[1] - 0.5), kr[0]))
        errors[i] = InfeasibleSplitError(
            f"no feasible split of {box} along axis {axis}: best ratio "
            f"{r_best:.6g} with window ({config.c}, {1 - config.c}), "
            f"best segment max {best_psi}",
            box=box,
            best_ratio=r_best,
            best_segment_max=best_psi,
        )
    return errors, index, fields


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
    to a prefix column along the axis (_summation.dd_columns); the sums of
    the box, of the left child of every position and of both children of
    the window positions are rounded differences of two entries of it
    (dd_sub_rounded).  The window is ordered by (|ratio - 1/2|, index); its
    first candidate is sampled in full, the others are screened by four of
    their samples (_out_of_band), and the survivors are sampled in full in
    that order: the first feasible candidate wins.  With no feasible
    position every window candidate has been sampled in full, and an
    InfeasibleSplitError reports the ratio closest to 1/2 over all positions
    and the smallest segment maximum seen inside the ratio window.  Tables
    beyond the precision certificate are refused first, as build_tree
    refuses them.
    """
    tables = own_tables(measure, weight, tables)
    tables.certify(None, 1.0, config.moment_exponent)
    if not 0 <= axis < box.ndim:
        raise PreconditionError(f"axis {axis} is not an axis of the box {box}")
    a, b = box.ranges[axis]
    if b - a < 2:
        raise _single_cell(box, axis)
    box.check_shape(measure.shape)
    HL = tables.stacked(None, 1.0, config.moment_exponent)
    errors, index, fields = _split_level(measure, HL, config, [box], np.array([box.ranges]), np.array([axis]))
    if errors:
        raise errors[0]
    coord, ratio, smax, *xs, m_left, m_right = fields[:, 0].tolist()
    return SplitChoice(int(axis), int(index[0]), coord, ratio, smax, AvgPoint(*xs[:2]), AvgPoint(*xs[2:]), m_left, m_right)


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
    HL = tables.stacked(None, 1.0, s2)

    levels: list[list[SplitNode]] = []
    # boxes, paths, masses and points of the level's nodes, in path order
    boxes, paths, masses, points = [root_box], [""], [mass], [point]
    ranges = np.array([root_box.ranges], dtype=np.intp)
    parents: list[SplitNode] = []
    failure = None
    for level in range(config.levels + 1):
        lengths = _edge_lengths(measure, ranges)
        # diameters as GridMeasure.box_diameter computes them: squares summed axis by axis
        diameters = np.sqrt(functools.reduce(np.add, lengths * lengths)).tolist()
        split, grow = (), len(boxes)
        if level < config.levels:
            axes = np.argmax(lengths, axis=0)
            errors, index, fields = _split_level(measure, HL, config, boxes, ranges, axes)
            # A level's nodes come in path order, and all of them precede
            # every failure met so far: the level's first failure is the new
            # first one in preorder, and only the nodes before it grow on.
            # A tree with a failure is not returned, so its nodes are not built.
            if errors:
                grow = min(errors)
                failure = errors[grow]
                if isinstance(failure, InfeasibleSplitError):
                    failure.path = paths[grow]
            split = (axes.tolist(), index.tolist(), *fields[:3].tolist())
        if failure is None:
            nodes = list(map(SplitNode, boxes, itertools.repeat(level), paths, masses, points, diameters, *split))
            for parent, i in zip(parents, range(0, len(nodes), 2)):
                parent.children = (nodes[i], nodes[i + 1])
            levels.append(nodes)
            parents = nodes
        if level == config.levels or not grow:
            break
        # The children of the first ``grow`` nodes, left and right in turn.
        rows = 2 * np.arange(grow)
        ranges = np.repeat(ranges[:grow], 2, axis=0)
        ranges[rows, axes[:grow], 1] = ranges[rows + 1, axes[:grow], 0] = index[:grow]
        boxes = [BoxIdx.unchecked(tuple(map(tuple, box))) for box in ranges.tolist()]
        paths = [path + side for path in paths[:grow] for side in "01"]
        masses = fields[7:9, :grow].T.ravel().tolist()
        points = list(map(AvgPoint, fields[[3, 5], :grow].T.ravel().tolist(), fields[[4, 6], :grow].T.ravel().tolist()))
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

