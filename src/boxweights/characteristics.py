"""Box characteristics: suprema of average functionals over all axis-parallel boxes.

For a weight w and measure mu on a cell lattice, the Muckenhoupt
characteristic at exponent q is

    sup over boxes R of  <w>_R * <w**q1>_R ** (q - 1),   q1 = -1/(q - 1),

and the Reverse Holder characteristic is

    sup over boxes R of  <w**q>_R ** (1/q) / <w>_R,

where <f>_R is the mu-average over R.  The supremum is taken over all index
ranges by a branch and bound whose result is that of exhaustive
enumeration; every box value comes from prefix-table queries, so the scan is
exact over the finite box family and bit-for-bit reproducible by the naive
per-box summation oracle below.

Ties in the argmax break to the lexicographically smallest index tuple
(a1, b1, a2, b2, ...).  A value replaces the incumbent when it is larger, or
equal with a lexicographically smaller box, so the order in which boxes are
evaluated does not matter.

Every box sum comes from grids.scan_tables, the one entry point to exact
sums: it checks the pair and picks the weight to scan (w, or w centred by a
power of two when w loses a positive-mass moment cell) before it builds the
tables.  The scan refuses (PreconditionError) a grid whose prefix tables
cannot certify exact box sums; see grids.PrefixTables.precision_margin.  A grid
with an overflowed moment cell is scanned with that cell's moments read as
0, which counts its boxes, and reports +inf at the lexicographically
smallest box whose value is +inf, as the oracle does; see _overflow_argmax.

Tile branch and bound
---------------------
The leading axes, any number, are reduced to stacks of last-axis prefix
columns, one column per leading range, each stack (mass, w, w**s2) holding
double-double entries h + l: runs of consecutive leading ranges in
lexicographic order within a fixed entry budget (in 1-D, the tables), which
bounds their memory on every axis.  The boxes of a column are its (a, b)
pairs, a < b.  A tile of side s (a power of two) holds the pairs with a in
[i s, (i + 1) s) and b - 1 in [j s, (j + 1) s), i <= j.  Tiles are bounded
in steps, coarse to fine, down to leaves of _TILE a side; a step holds at
most _TILE_CHUNK tiles, or as many as the step whose tiles it refines.  The
tiles a step keeps go straight to the finest side s' (a power of two, at
least the leaf's) at which all their children (k, f i + di, f j + dj), f =
s / s', fit one step, or to half their side when none does; the first steps
hold the children of one tile of side 2 top per column, top the power of
two at or above the column's cell count.  Every tile evaluates its largest
box [a_lo, b_hi) and, off the diagonal, its smallest box [a_hi, b_lo)
exactly and offers them to the incumbent, then gets the bound U below and
is dropped when U is below the incumbent; the leaves left are evaluated
exactly, first screened (below) when they exceed one batch, the tile of the
best screen first.  The bound holds for any aligned power-of-two tile, so
the schedule only orders the offers.  Every value is the exact pass's: sums
dd_sub_rounded(h_b, l_b, h_a, l_a) and _vec_values, as in the exhaustive
scan.  Skipped boxes all have values below the final supremum, and the tie
rule does not depend on the order of the offers, so value, argmax and box
count are those of the exhaustive scan.
A box counts when its mass is positive: b lies past the first positive-mass
cell at or after a, which _positive_boxes counts without enumeration.

The bound (after Moore, "Interval Analysis", 1966).  With u = 2**-53 and
P = 2**-44 the relative error allowed for np.power (it is not assumed
correctly rounded):

1. Sums.  The certificate makes every sum read the correctly rounded exact
   sum, X = X*(1 + d), |d| <= u, in the normal range.
2. Averages.  v = A1 * A2**e, rising in both, with A1 = sw/m (ap) or m/sw
   (rh), A2 = ss/m and e = q - 1 (ap) or 1/q (rh).  Write an average as
   N/D.  Off the diagonal every box of a tile is its smallest box plus
   cells of blocks i and j of D-mass at most E* = D*(largest) -
   D*(smallest), and the N/D of those cells is at most t, the largest cell
   ratio n_c/d_c over the two blocks (a mediant).  So N/D <= max(N_s/D_s,
   (N_s + E t)/(D_s + E)) for any E >= E*, the second term rising in E
   when it exceeds the first; and N/D <= N_l/D_s, the sums being monotone.
   A diagonal tile holds only cells of its block: N/D <= t.
   E = (D_l - D_s) + D_l 2**-50 exceeds E*: the two sums and the
   subtraction are off by at most 3.03 u D_l.
3. Rounding.  Each average bound as computed differs from the exact
   expression of exact sums by at most 8.1 u relatively (ratios t of correctly rounded
   cell sums, 3.03 u), so log B, B = fl(A1 * pow(A2, e)), is below the log
   of the exact bound by at most (9 + 8e) 1.01 u + 1.01 P; the exact pass
   rounds the log of its own value by at most (4 + 3e) 1.01 u + 1.01 P.
   With g = (16 + 16e) u + 3 P >= their sum, every exact-pass value of the
   tile is at most B e**g <= B (1 + 2g) for g <= 2**-8, and U = B (1 + 2g +
   2**-50), the last term covering the rounding of U itself.
4. Range.  A positive-mass cell whose sums leave [2**-960, 2**960], whose
   ratio A1 leaves 2**+-500 or A2 leaves 2**+-(500 / max(e, 1)), or a stack
   total above 2**960, leaves its column unbounded (U = +inf).  Otherwise
   every box sum lies in [2**-960, 2**961], every average between the cell
   ratios, and every intermediate of both evaluations is normal; a bound
   that overflows is +inf, still an upper bound.

The screen.  A leaf tile whose bound is finite and not within 2**-20 of
the incumbent is first evaluated on the hi-only sums X1 = fl(h_b - h_a).
Following the error-free transformations of Dekker (1971) and Ogita, Rump
and Oishi ("Accurate sum and dot product", SIAM J. Sci. Comput. 26(6),
2005): two_sum(h_b, -h_a) = (s, e) is exact, s = X1, |e| <= u|X1|, and the
exact difference is s + e + (l_b - l_a).  The roundings of the low-order
parts give |X2 - X1| <= (1 + 5u) L + 3u |X1| with L = 2 max|l| over the
column, hence X2 = X1 (1 + t), |t| <= rho = L / X1min (1 + 2**-48) +
2**-50, X1min the smallest hi-only cell sum of the column (h rises, so no
box sum is below it).  With every rho and g = 2 rho_w + (2 + 2e) rho_m +
e rho_s + (5e + 10) u + 3P at most 2**-8 (log(1 + t) <= t, -log(1 - t) <=
2t for t <= 1/2, for both classes), every exact value of the tile is at
most max v1 (1 + 2g + 2**-45), v1 the values of X1; the finite bound keeps
every intermediate normal.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._summation import dd_columns, dd_sub_rounded
from .errors import PreconditionError
from .exponents import ClassKind, _as_pparam
from .grids import BoxIdx, GridMeasure, PrefixTables, WeightGrid, moment_cells, validate
from .grids import first_cell, scan_tables, scan_weight


@dataclass(frozen=True)
class CharacteristicReport:
    """Result of a characteristic scan.

    value is the supremum over positive-measure boxes (>= 1 always, +inf if
    a moment cell overflowed and centring w by a power of two does not
    recover every cell); argmax_box is the lexicographically smallest box
    that attains it; boxes_scanned counts every positive-measure box of the
    grid, whether a bound ruled it out or it was evaluated.  Pruning never
    changes value, argmax_box or boxes_scanned: they equal those of the
    exhaustive exact scan.  exact_boxes counts the boxes of the leaf tiles
    evaluated in double-double (not the tile corners the bounds read); it is
    a diagnostic, enters no CSV, and can change with the stack layout and
    the tile schedule (the step size _TILE_CHUNK, and the screen of leaves
    beyond one batch), which order the offers to the incumbent.
    """

    kind: ClassKind
    exponent: float
    value: float
    argmax_box: BoxIdx | None
    boxes_scanned: int
    exact_boxes: int = 0


def pair_gauge(kind: ClassKind, p, x1, x2):
    """Characteristic expression at an average pair (x1, x2).

    Muckenhoupt: x1 * x2**(p-1) with x2 the average of w**p1.
    Reverse Holder: x2**(1/p) / x1 with x2 the average of w**p.
    Equals 1 exactly on the curve x2 = x1**p1 (resp. x2 = x1**p) and is >= 1
    at every positive-measure box point by Jensen's inequality.
    """
    p = _as_pparam(p)
    if kind is ClassKind.MUCKENHOUPT_A:
        return x1 * x2 ** (p.p - 1.0)
    return x2 ** (1.0 / p.p) / x1


def second_moment_exponent(kind: ClassKind, q: float) -> float:
    """Weight power entering the second average of the class functional."""
    if kind is ClassKind.MUCKENHOUPT_A:
        if not q > 1.0:
            raise PreconditionError(f"Muckenhoupt exponent must exceed 1, got {q}")
        return -1.0 / (q - 1.0)
    if not q >= 1.0:
        raise PreconditionError(f"Reverse Holder exponent must be >= 1, got {q}")
    return q


def characteristic(
    measure: GridMeasure,
    weight: WeightGrid,
    kind: ClassKind,
    q: float,
    tables: PrefixTables | None = None,
) -> CharacteristicReport:
    """Exact supremum of the class-(kind, q) functional over all boxes.

    ``tables``, if given, must have been built for this measure and weight.
    Raises PreconditionError, naming the span of the cells, when a prefix
    table cannot certify exact box sums.
    """
    s2 = second_moment_exponent(kind, q)
    tables = scan_tables(measure, weight, (1.0, s2), tables)
    # row-major first overflowed moment cell of w and of w**s2
    bad = [c for s in (1.0, s2) if (c := first_cell(~np.isfinite(tables.cells(s)))) is not None]
    # With an overflowed cell only the boxes lexicographically below the first
    # box that holds one need exact values (see _overflow_argmax); at cell
    # (0, ..., 0) there are none, and only the mass table, whose zero sums
    # decide the box count, has to be exact.
    exact_tables = (None,) if bad and not any(min(bad)) else (None, 1.0, s2)
    tables.certify(*exact_tables)
    value, box, count, exact = _scan(tables, kind, q, s2)
    if bad:
        value, box = math.inf, _overflow_argmax(tables, kind, q, s2, min(bad), value, box)
    return CharacteristicReport(
        kind=kind, exponent=q, value=value, argmax_box=box, boxes_scanned=count, exact_boxes=exact
    )


def _overflow_argmax(tables, kind, q, s2, cell, value, box):
    """Lexicographically smallest box of value +inf when a moment cell overflowed.

    The tables hold 0 for the non-finite cells, so the scan's values are
    exact on every box that holds none, and wrong on the rest.  Every box that
    holds a non-finite cell is lexicographically at least R0 = ((0, i1 + 1),
    (0, i2 + 1), ...), (i1, i2, ...) the row-major first such cell: a smaller
    box either ends on axis 1 before row i1, which holds none, or agrees with
    R0 up to some axis k and ends before i_k there, where the rows it covers
    hold none before (i1, ..., i_k).  So a scanned +inf box below R0 is the
    answer, and otherwise R0 is, provided its value is +inf.  R0's sums are
    taken with math.fsum, as the oracle takes them, and its moment sums are
    +inf where it holds a non-finite cell.  That gives R0 the value nan, not
    +inf, when <w> over R0 is 0 (ap: 0 * inf) or +inf (rh: inf / inf); the
    first +inf box then lies further on, and the grid is refused.
    """
    first = tuple((0, i + 1) for i in cell)
    if value == math.inf and box.ranges < first:
        return box
    slc = BoxIdx(first).as_slices()
    sums = []
    for s in (None, 1.0, s2):
        cells = tables.measure.mass if s is None else tables.cells(s)
        try:
            sums.append(math.fsum(cells[slc].reshape(-1).tolist()))
        except OverflowError:  # finite cells whose sum overflows
            sums.append(math.inf)
    with np.errstate(all="ignore"):
        v = float(_vec_values(kind, q, *sums))
    if v != math.inf:
        raise PreconditionError(
            f"a cell moment overflows at cell {cell}, and box {BoxIdx(first)}, the first that "
            f"holds it, has no value ({v!r}): the weight's cell moments span beyond a double"
        )
    return BoxIdx(first)


def ap_characteristic(measure, weight, p, tables=None) -> CharacteristicReport:
    p = _as_pparam(p)
    return characteristic(measure, weight, ClassKind.MUCKENHOUPT_A, p.p, tables)


def rh_characteristic(measure, weight, p, tables=None) -> CharacteristicReport:
    p = _as_pparam(p)
    return characteristic(measure, weight, ClassKind.REVERSE_HOLDER, p.p, tables)


@dataclass(frozen=True)
class ScanEntry:
    """One row of a q-scan; exactly one of report/error is set."""

    q: float
    report: CharacteristicReport | None
    error: str | None

    @property
    def value(self) -> float | None:
        return None if self.report is None else self.report.value


def q_scan(measure, weight, kind: ClassKind, q_list, tables=None) -> list[ScanEntry]:
    """Characteristic per q; invalid entries carry an error and the scan continues."""
    if tables is None:
        tables = PrefixTables(measure, weight, (1.0,))
    entries = []
    for q in q_list:
        try:
            report = characteristic(measure, weight, kind, float(q), tables)
            entries.append(ScanEntry(q=float(q), report=report, error=None))
        except PreconditionError as exc:
            entries.append(ScanEntry(q=float(q), report=None, error=str(exc)))
    return entries


# Leaf tiles are _TILE x _TILE (a, b) pairs of one leading range; a batch of
# leaves holds about _LEAF_BLOCK box values, and a bounding step at most
# _TILE_CHUNK tiles (or as many as its parent step).  A step costs about 65
# us whatever its size, plus 0.12 us a tile up to 1024 tiles and 0.3 us
# beyond (2-vCPU Xeon, numpy 2.4), so steps of 1024 tiles take the fewest
# rounds at the lowest cost a tile.  A stack holds at most _STACK_BLOCK
# prefix entries per table (or one column), about 800 KB whatever the number
# of axes.  Reducing _REDUCE_BLOCK entries at a time keeps the temporaries
# near 50 KB: in cache, and reused by the allocator instead of faulted in
# afresh for every stack.
_TILE = 8
_LEAF_BLOCK = 1 << 12
_TILE_CHUNK = 1 << 10
_STACK_BLOCK = 1 << 14
_REDUCE_BLOCK = 1 << 11
# Unit roundoff, and the relative error allowed for np.power: 2**-44 is
# 256 ulp, far above glibc's < 1 ulp and the 4 ulp of vectorised pow kernels.
_U = 2.0**-53
_POW_ERR = 2.0**-44
# Tiles are bounded and screened only when the log allowance g is at most
# _G_MAX, and only in columns whose sums and ratios keep every intermediate
# a normal double (see _cell_ratios).
_G_MAX = 2.0**-8
_SUM_LIMIT = 2.0**960
_LOG2_LIMIT = 500.0

# ----------------------------------------------------------------------
# Scan engine: the tile branch and bound of the module docstring, one stack
# at a time.  Per-box values use only IEEE +-*/ and a single libm pow so
# the vectorized path and the scalar oracle produce identical doubles from
# identical box sums.
# ----------------------------------------------------------------------


def _vec_values(kind, q, m, sw, ss):
    """Box values, -inf where the mass is not positive; nan where sw and ss are both 0."""
    # np.power rather than ** so the oracle's scalar calls and the scan's
    # arrays use the same exponentiation primitive (libm pow and numpy's
    # kernel can differ in the last ulp, which would break exact dual-route
    # agreement).
    if kind is ClassKind.MUCKENHOUPT_A:
        vals = (sw / m) * np.power(ss / m, q - 1.0)
    else:
        vals = np.power(ss / m, 1.0 / q) / (sw / m)
    return np.where(m > 0.0, vals, -np.inf)


class _Incumbent:
    """The largest exact value seen so far and its lexicographically smallest box."""

    def __init__(self):
        self.value = -math.inf
        self.box = None

    def offer(self, vals, k, a, b, lead):
        """Take the maximum of ``vals``, the values of the boxes (lead(k), (a, b)).

        k, a and b broadcast with vals.  A value replaces the incumbent when
        it is larger, or equal with a lexicographically smaller box, so the
        order of the offers does not matter.
        """
        v = float(vals.max())
        if v != v:
            # A nan value (sw and ss both 0) never wins, as in the oracle's v > best.
            vals = np.where(np.isnan(vals), -np.inf, vals)
            v = float(vals.max())
        if v < self.value or (v == self.value and self.box is None):
            return
        # a tie wins only with a smaller box; no box here is below this one
        if v == self.value and lead(int(np.min(k))) + ((int(np.min(a)), int(np.min(b))),) >= self.box:
            return
        # (k, a, b) in lexicographic order as one integer; a, b <= n < span
        span = int(np.max(b)) + 1
        key = int(((k * span + a) * span + b)[vals == v].min())
        (k, a), b = divmod(key // span, span), key % span
        box = lead(k) + ((a, b),)
        if v > self.value or box < self.box:
            self.value, self.box = v, box


def _scan(tables, kind, q, s2):
    best = _Incumbent()
    count = exact = 0
    with np.errstate(all="ignore"):
        for hl, lead in _stacks(tables.stacked(None, 1.0, s2)):
            stack = _Stack(hl, kind, q)
            count += stack.count
            exact += _branch_and_bound(stack, lead, kind, q, best)
            # one stack alive at a time
            del hl, stack
    return best.value, None if best.box is None else BoxIdx(best.box), count, exact


def _stacks(HL):
    """Stacks (2, 3, n + 1, K) of last-axis prefix columns, each with lead(k), the ranges of column k.

    Column g is the g-th leading range in lexicographic order: its pair on
    leading axis j is digit j of g in the mixed radix of the per-axis pair
    counts.  A stack is a run of columns within _STACK_BLOCK entries per
    table (at least one), reduced by _summation.dd_columns _REDUCE_BLOCK
    entries at a time; a stack of one such run is that run, in 1-D a view of
    the tables.
    """
    pairs = [np.triu_indices(n, k=1) for n in HL.shape[2:-1]]
    radix = [len(ia) for ia, _ in pairs]
    cols, last = math.prod(radix), HL.shape[-1]
    per, step = (max(1, block // last) for block in (_STACK_BLOCK, _REDUCE_BLOCK))

    def columns(c0, c1):
        digits = np.unravel_index(np.arange(c0, c1), radix) if pairs else ()
        return dd_columns(HL, pairs, digits).transpose(0, 1, 3, 2)

    for g0 in range(0, cols, per):
        g1 = min(g0 + per, cols)
        if g1 - g0 <= step:
            hl = np.ascontiguousarray(columns(g0, g1))
        else:
            hl = np.empty((2, 3, last, g1 - g0))
            for c0 in range(g0, g1, step):
                c1 = min(c0 + step, g1)
                hl[..., c0 - g0 : c1 - g0] = columns(c0, c1)

        def lead(k, g0=g0):
            return tuple((int(ia[d]), int(ib[d])) for (ia, ib), d in zip(pairs, np.unravel_index(g0 + k, radix)))

        yield hl, lead


class _Stack:
    """One stack (2, 3, n + 1, K) and what the tile bounds and the screen read from it.

    count is the number of positive-mass boxes; the tiles run from at most
    ``top`` cells a side (a power of two) down to ``leaf``.  The ratio
    maxima of a tile side and the screen factors are built when first read.
    """

    def __init__(self, hl, kind, q):
        self.n, self.cols = hl.shape[2] - 1, hl.shape[3]
        self.hl, self.flat = hl, hl.reshape(2, 3, -1)
        self.top = 1 << (self.n - 1).bit_length()
        self.leaf = min(_TILE, self.top)
        self.e = q - 1.0 if kind is ClassKind.MUCKENHOUPT_A else 1.0 / q
        h, l = hl
        # exact single-cell sums of the mass, w and w**s2 columns, each (n, K)
        cells = [dd_sub_rounded(h[r, 1:], l[r, 1:], h[r, :-1], l[r, :-1]) for r in range(3)]
        self.count = _positive_boxes(cells[0] > 0.0)
        # maxima of the cell ratios over aligned blocks of leaf cells, the
        # ratios padded with 0 to top cells; the other sides are reduced from these
        level = np.zeros((2, self.top, self.cols))
        bad = _cell_ratios(kind, self.e, cells, h[:, -1].max(), level[:, : self.n])
        self.blocks = {self.leaf: level.reshape(2, -1, self.leaf, self.cols).max(axis=2)}
        # columns whose tiles are never bounded
        self.unbounded = bad.any(axis=0)

    def entries(self, part, k, x):
        """Hi (part 0) or lo (part 1) prefix entries x of columns k, shape (3, ...)."""
        return self.flat[part].take(x * self.cols + k, axis=1)

    def sums(self, k, a, b):
        """Exact sums (3, ...) of the boxes [a, b) of columns k, all broadcast together."""
        (hb, lb), (ha, la) = (self.flat.take(x * self.cols + k, axis=2) for x in (b, a))
        return dd_sub_rounded(hb, lb, ha, la)

    def extremes(self, k, i, j, side):
        """Ratio maxima (2, tiles) over the cells a box of tile (k, i, j) holds beyond its smallest box."""
        level = self.blocks.get(side)
        if level is None:
            level = self.blocks[side] = self.blocks[self.leaf].reshape(2, -1, side // self.leaf, self.cols).max(axis=2)
        return np.maximum(level[:, i, k], level[:, j, k])

    @functools.cached_property
    def screen(self):
        """Per column, the factor of the float screen (see the module docstring), +inf where there is none."""
        # The hi-only sums of a column are off by at most its low parts
        # against its smallest hi-only cell sum; shape (3, K).
        h, l = self.hl
        lows = 2.0 * np.maximum(l.max(axis=1), -l.min(axis=1))
        rho = lows / (h[:, 1:] - h[:, :-1]).min(axis=1) * (1.0 + 2.0**-48) + 2.0**-50
        e = self.e
        g = np.dot([2.0 + 2.0 * e, 2.0, e], rho) + (5.0 * e + 10.0) * _U + 3.0 * _POW_ERR
        ok = (rho <= _G_MAX).all(axis=0) & (g <= _G_MAX)
        return np.where(ok, 1.0 + 2.0 * g + 2.0**-45, np.inf)


@functools.lru_cache(maxsize=None)
def _leaf_patterns(leaf):
    """(a, b) offsets of the boxes of a diagonal leaf tile, packed, and of any other, as a broadcast pair."""
    r = np.arange(leaf)
    diagonal = [x[:, None] for x in np.nonzero(r[:, None] <= r)]
    return [diagonal, [r[:, None, None], r[None, :, None]]]


def _branch_and_bound(stack, lead, kind, q, best):
    """Offer every box of one stack that can reach the maximum to ``best``.

    Tiles of (a, b) pairs of one column, coarse to fine, are bounded by
    _tile_bound and dropped when the bound is below the incumbent; the
    leaves that remain are evaluated exactly.  The tiles start as the
    children of one tile of side 2 top per column (never bounded), and each
    step's survivors are refined by _refine.  Returns the count of boxes
    evaluated at the leaves.
    """
    n, cols, leaf = stack.n, stack.cols, stack.leaf
    exact = 0
    zero = np.zeros(cols, dtype=np.intp)
    work = _refine(n, leaf, 2 * stack.top, np.arange(cols), zero, zero)
    while work:
        side, k, i, j = work.pop()
        a_lo, b_lo = i * side, j * side + 1
        a_hi, b_hi = np.minimum(a_lo + side, n) - 1, np.minimum(b_lo - 1 + side, n)
        # the largest box [a_lo, b_hi) and the smallest [a_hi, b_lo) of each tile
        a, b = np.stack([a_lo, a_hi]), np.stack([b_hi, b_lo])
        corners = stack.sums(k, a, b)
        # a diagonal tile of two rows or more has no smallest box
        corners[:, 1, a_hi >= b_lo] = np.nan
        # The corner boxes are boxes of the tile: their exact values feed the
        # incumbent before the tile is tested against it.
        best.offer(_vec_values(kind, q, *corners), k, a, b, lead)
        bound = _tile_bound(kind, q, corners[:, 0], corners[:, 1], stack.extremes(k, i, j, side))
        bound[stack.unbounded[k]] = np.inf
        keep = bound >= best.value
        k, i, j = k[keep], i[keep], j[keep]
        if side == leaf:
            exact += _leaves(stack, lead, kind, q, best, k, i, j, bound[keep])
        elif len(k):
            work += _refine(n, leaf, side, k, i, j)
    return exact


@functools.lru_cache(maxsize=None)
def _child_offsets(f):
    """Offsets (di, dj) of the f * f children of a tile, as columns against tiles along the last axis."""
    return tuple(x.reshape(-1, 1) for x in np.divmod(np.arange(f * f), f))


def _refine(n, leaf, side, k, i, j):
    """Children of the tiles (k, i, j) of ``side``, as bounding steps (side', k, i, j), last step first.

    The children have the finest side s' = side / f, f a power of two, at
    least leaf, at which they fit one step, and side / 2 when none does:
    tile (k, i, j) has the children (k, f i + di, f j + dj), 0 <= di, dj <
    f, with i' <= j' and j' s' < n.  A step holds _TILE_CHUNK tiles, or as
    many as the tiles refined, so the one tile per column of a stack of
    more columns starts as one step.
    """
    f, step = 2, max(_TILE_CHUNK, len(k))
    if side // 4 >= leaf:
        # A diagonal tile has f (f + 1) / 2 children and any other f * f, in
        # f block rows, except in the last block row, where n leaves r of them.
        last, diagonal = j == (n - 1) // side, i == j
        on_last, on, in_last = np.count_nonzero(diagonal & last), np.count_nonzero(diagonal), np.count_nonzero(last)
        tiles = (on_last, on - on_last, in_last - on_last, len(k) - on - in_last + on_last)

        def children(f):
            r = -(-n // (side // f)) - f * ((n - 1) // side)
            return sum(x * y for x, y in zip(tiles, (r * (r + 1) // 2, f * (f + 1) // 2, f * r, f * f)))

        while side // (2 * f) >= leaf and children(2 * f) <= step:
            f *= 2
    side //= f
    di, dj = _child_offsets(f)
    ci, cj = f * i + di, f * j + dj
    t, c = np.divmod(np.flatnonzero(((ci <= cj) & (cj * side < n)).T), f * f)
    k, i, j = k[t], ci[c, t], cj[c, t]
    return [(side, k[s : s + step], i[s : s + step], j[s : s + step]) for s in reversed(range(0, len(k), step))]


def _leaves(stack, lead, kind, q, best, k, i, j, bound):
    """Exact values of every box of the leaf tiles (k, i, j) that can reach the incumbent.

    Diagonal and other tiles go separately.  Tiles of at most one batch of
    boxes are evaluated together.  Of more, those whose bound is not within 2**-20 of
    the incumbent are first screened on their float values (see the module
    docstring); the tile of the best screen is evaluated first, to raise the
    incumbent, then the others in batches, each only while its screen bound
    is not below the incumbent.  Returns the count of boxes evaluated
    exactly.
    """
    n, leaf = stack.n, stack.leaf
    exact = 0
    diagonal = i == j
    for (ra, rb), on in zip(_leaf_patterns(leaf), (True, False)):
        sel = np.flatnonzero(diagonal == on)
        if not len(sel):
            continue
        size = len(ra) if on else leaf * leaf
        per = max(1, _LEAF_BLOCK // size)
        # screen starts as the tile bound and is lowered where a screen is proven
        kk, a_lo, b_lo, screen = k[sel], i[sel] * leaf, j[sel] * leaf + 1, bound[sel]

        def boxes(t):
            # Past the last cell a reads n and b reads 0: such boxes, like
            # every box with b <= a, have mass <= 0, hence the value -inf.
            a, b = a_lo[t] + ra, b_lo[t] + rb
            if b_lo[t].max() + leaf - 1 > n:
                a, b = np.minimum(a, n), np.where(b <= n, b, 0)
            return kk[t], a, b

        # Tiles of more boxes than one batch are screened first, and the tile
        # of the best screen is evaluated alone; one batch is evaluated as it is.
        many = len(sel) * size > _LEAF_BLOCK
        loose = np.flatnonzero(many & (screen >= best.value * (1.0 + 2.0**-20)) & (screen < np.inf))
        for s in range(0, len(loose), per):
            t = loose[s : s + per]
            c, a, b = boxes(t)
            top = _vec_values(kind, q, *(stack.entries(0, c, b) - stack.entries(0, c, a)))
            factor = stack.screen[c]
            top = np.where(factor < np.inf, top.reshape(-1, len(t)).max(axis=0) * factor, np.inf)
            screen[t] = np.where(top < screen[t], top, screen[t])
        order = np.arange(len(screen))
        first = int(np.argmax(screen))
        order[[0, first]] = order[[first, 0]]
        edges = [0, *range(1 if many else per, len(order), per), len(order)]
        for s, e in zip(edges[:-1], edges[1:]):
            t = order[s:e]
            t = t[screen[t] >= best.value]
            if not len(t):
                continue
            c, a, b = boxes(t)
            best.offer(_vec_values(kind, q, *stack.sums(c, a, b)), c, a, b, lead)
            exact += int(np.count_nonzero(b > a))
    return exact


def _positive_boxes(positive):
    """Boxes [a, b) of positive mass: b past the first positive cell at or after a."""
    n = positive.shape[0]
    first = np.where(positive, np.arange(n)[:, None], n)
    first = np.minimum.accumulate(first[::-1], axis=0)[::-1]
    return int((n - first).sum())


def _cell_ratios(kind, e, cells, total, ratios):
    """Per cell, the two ratios whose maxima bound the values, into ``ratios``; returns the cells that forbid a bound.

    ``cells`` holds the cell sums (n, K) of the mass, w and w**s2.  The
    ratios (2, n, K) are (sw/m, ss/m) for ap and (m/sw, ss/m) for rh, 0 on
    zero-mass cells.  A positive-mass cell forbids a bound where it could
    take an intermediate out of the normal range: a sum outside [2**-960,
    2**960] (a lost moment cell is one), a ratio outside 2**+-500, or ss/m
    outside 2**+-(500 / max(e, 1)), or where the largest stack total
    exceeds 2**960.
    """
    m, sw, ss = cells
    if kind is ClassKind.MUCKENHOUPT_A:
        np.divide(sw, m, out=ratios[0])
    else:
        np.divide(m, sw, out=ratios[0])
    np.divide(ss, m, out=ratios[1])
    lim = 2.0 ** (_LOG2_LIMIT / max(e, 1.0))
    lo, hi = (np.array(x)[:, None, None] for x in ((2.0**-_LOG2_LIMIT, 1.0 / lim), (2.0**_LOG2_LIMIT, lim)))
    good = ((ratios > lo) & (ratios < hi)).all(axis=0)
    for x in cells:
        good &= (x >= 1.0 / _SUM_LIMIT) & (x <= _SUM_LIMIT)
    positive = m > 0.0
    good &= positive & (total <= _SUM_LIMIT)
    ratios[:, ~good] = 0.0
    return positive & ~good


def _tile_bound(kind, q, big, small, extremes):
    """Upper bound on the exact value of every box of each tile.

    ``big`` and ``small`` are the exact sums (3, tiles) of the largest box
    [a_lo, b_hi) and the smallest box [a_hi, b_lo) of each tile, the latter
    nan where the tile has none; ``extremes`` the maxima (2, tiles) of
    _cell_ratios over the cells beyond the smallest box.  The derivation is
    in the module docstring.
    """
    e = q - 1.0 if kind is ClassKind.MUCKENHOUPT_A else 1.0 / q
    g = (16.0 + 16.0 * e) * _U + 3.0 * _POW_ERR
    if not g <= _G_MAX:
        return np.full(big.shape[1], np.inf)
    # the two averages N / D of the value N1/D1 * (N2/D2)**e, as stack indices
    pairs = ((1, 0), (2, 0)) if kind is ClassKind.MUCKENHOUPT_A else ((0, 1), (2, 0))
    upper = []
    for (num, den), t in zip(pairs, extremes):
        # at most this much of D lies outside the smallest box
        extra = (big[den] - small[den]) + big[den] * 2.0**-50
        mediant = np.fmax(small[num] / small[den], (small[num] + extra * t) / (small[den] + extra))
        bound = np.fmin(big[num] / small[den], mediant)
        # a tile without a smallest box holds only the cells t covers
        upper.append(np.where(bound == bound, bound, t))
    return upper[0] * np.power(upper[1], e) * (1.0 + 2.0 * g + 2.0**-50)


# ----------------------------------------------------------------------
# Independent oracle: plain nested-loop enumeration with per-box math.fsum.
# Shares only the scale choice, the per-cell moment arrays and the scalar
# value formula with the production path; summation and enumeration are
# independent.
# ----------------------------------------------------------------------


def naive_characteristic(measure, weight, kind: ClassKind, q: float):
    """Brute-force supremum: direct fsum per box, lexicographic enumeration.

    Returns (value, argmax_box, boxes_scanned); must agree exactly with
    characteristic() because both routes produce correctly rounded box sums.
    """
    validate(measure, weight)
    s2 = second_moment_exponent(kind, q)
    mass = measure.mass
    moments = {s: moment_cells(mass, weight.values, s) for s in (1.0, s2)}
    _, moments = scan_weight(mass, weight, moments)
    wcells, scells = moments[1.0], moments[s2]
    shape = measure.shape

    best = -math.inf
    best_box = None
    count = 0

    def boxes(prefix, axis):
        if axis == len(shape):
            yield tuple(prefix)
            return
        for a in range(shape[axis]):
            for b in range(a + 1, shape[axis] + 1):
                prefix.append((a, b))
                yield from boxes(prefix, axis + 1)
                prefix.pop()

    for ranges in boxes([], 0):
        slc = tuple(slice(a, b) for a, b in ranges)
        m = math.fsum(mass[slc].reshape(-1).tolist())
        if m == 0.0:
            continue
        sw = math.fsum(wcells[slc].reshape(-1).tolist())
        ss = math.fsum(scells[slc].reshape(-1).tolist())
        v = float(_vec_values(kind, q, m, sw, ss))
        count += 1
        if v > best:
            best = v
            best_box = BoxIdx(ranges)
    return best, best_box, count
