"""Box characteristics: suprema of average functionals over all axis-parallel boxes.

For a weight w and measure mu on a cell lattice, the Muckenhoupt
characteristic at exponent q is

    sup over boxes R of  <w>_R * <w**q1>_R ** (q - 1),   q1 = -1/(q - 1),

and the Reverse Holder characteristic is

    sup over boxes R of  <w**q>_R ** (1/q) / <w>_R,

where <f>_R is the mu-average over R.  The supremum is computed by
exhaustive enumeration of all index ranges; every box value comes from
prefix-table queries, so the scan is exact over the finite box family and
bit-for-bit reproducible by the naive per-box summation oracle below.

Ties in the argmax break to the lexicographically smallest index tuple
(a1, b1, a2, b2, ...).  The scan takes the first maximum of each row of
boxes in that order, and a row's maximum replaces the incumbent when it is
larger, or equal with a lexicographically smaller box.

Every box sum comes from grids.scan_tables, the one entry point to exact
sums: it checks the pair and picks the weight to scan (w, or w centred by a
power of two when w loses a positive-mass moment cell) before it builds the
tables.  The scan refuses (PreconditionError) a grid whose prefix tables
cannot certify exact box sums; see grids.PrefixTables.precision_margin.  A grid
with an overflowed moment cell is scanned with that cell's moments read as
0, which counts its boxes, and reports +inf at the lexicographically
smallest box whose value is +inf, as the oracle does; see _overflow_argmax.

Screened two-pass row kernel
----------------------------
A row is every box whose last-axis range starts at a, for one leading range
each.  Each stack (mass, w, w**s2) holds double-double prefix entries
h + l, and the exact row kernel (pass 2, ``_row``) forms every box sum as
X2 = dd_sub_rounded(h_b, l_b, h_a, l_a), then the value from _vec_values.
Pass 1 (``_screen``) evaluates the same _vec_values on the hi-only sums
X1 = fl(h_b - h_a), over blocks of rows at once, and bounds every pass-2
value of row a by U_a; pass 2 runs only on rows with U_a >= the incumbent.
Following the error-free transformations of Dekker (1971) and Ogita, Rump
and Oishi ("Accurate sum and dot product", SIAM J. Sci. Comput. 26(6),
2005), with u = 2**-53:

1. Sums.  two_sum(h_b, -h_a) = (s, e) is exact, s = X1 and |e| <= u|X1|,
   and the exact difference is X = s + e + (l_b - l_a).  The two roundings
   of the low-order parts and the final one give |X2 - X| <= u|X2| +
   3u|l_b - l_a| + u^2|X1|, hence |X2 - X1| <= (1 + 5u) L_a + 3u|X1| with
   L_a = |l_a| + max|l| over the stack.  Dividing by the row minimum
   X1min of the surrogate sum (a difference of suffix minima, since
   x -> fl(x - h_a) is monotone) gives X2 = X1 (1 + t), |t| <= rho, where
   rho = L_a / X1min (1 + 2**-48) + 2**-50.
2. Values.  In the normal range each of / * rounds with relative error u,
   and np.power is allowed a relative error P = 2**-44 (it is not assumed
   correctly rounded).  With exponent e = q - 1 (ap) or 1/q (rh), both
   positive, the log of pass-2 over pass-1 value is at most
   g = 2 rho_w + (2 + 2e) rho_m + e rho_s + (5e + 10) u + 3P
   for both classes (log(1 + t) <= t, -log(1 - t) <= 2t for t <= 1/2).
   Hence v2 <= v1 exp(g) <= v1 (1 + 2g) for g <= 1, and
   U_a = max v1 * (1 + 2g + 2**-45), the last term covering the rounding of
   the bound itself.
3. Range.  The row extremes of the three sums bound log2 of sw/m and ss/m;
   when |log2(sw/m)| and max(e, 1) |log2(ss/m)| stay below 500 and g and
   every rho are at most 2**-8, every intermediate of both passes is a
   normal double and steps 1-2 hold.

A row whose bound cannot be formed (a minimum surrogate sum not above its
error, which covers zero-mass boxes, a range or g outside the limits, or a
non-finite surrogate maximum) gets U_a = +inf and always runs in pass 2.
Otherwise every box of the row has X2 > 0, so a screened row counts all of
its boxes.  Pass 2 takes the row with the best surrogate maximum first,
then every other row in increasing a whose U_a is not below the incumbent;
a skipped row's exact values are all below the final supremum, so value,
argmax and box count are those of the exhaustive exact scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._summation import dd_sub, dd_sub_rounded
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
    grid, whether the screen bounded it or pass 2 evaluated it.  Screening
    never changes value, argmax_box or boxes_scanned: they equal those of the
    exhaustive exact scan.  exact_rows counts the rows that pass 2
    re-evaluated in double-double; it is a diagnostic and enters no CSV.
    """

    kind: ClassKind
    exponent: float
    value: float
    argmax_box: BoxIdx | None
    boxes_scanned: int
    exact_rows: int = 0


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
    tables.certify(max(exact_tables, key=tables.precision_margin))
    value, box, count, exact = _scan(tables, kind, q, s2)
    if bad:
        value, box = math.inf, _overflow_argmax(tables, kind, q, s2, min(bad), value, box)
    return CharacteristicReport(
        kind=kind, exponent=q, value=value, argmax_box=box, boxes_scanned=count, exact_rows=exact
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
        v = _scalar_value(kind, q, *sums)
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


# Pass-1 block size in box values (rows x b x leading ranges); a block and
# its temporaries stay near 100 KB.
_SCREEN_BLOCK = 1 << 11
# Unit roundoff, and the relative error allowed for np.power: 2**-44 is
# 256 ulp, far above glibc's < 1 ulp and the 4 ulp of vectorised pow kernels.
_U = 2.0**-53
_POW_ERR = 2.0**-44
# A row is screened only when its log error bound g and every relative sum
# error rho are at most _G_MAX, and |log2(sw/m)| and max(e, 1)*|log2(ss/m)|
# are below _LOG2_LIMIT, which keeps every intermediate a normal double.
_G_MAX = 2.0**-8
_LOG2_LIMIT = 500.0

# ----------------------------------------------------------------------
# Scan engine.  The leading axes are reduced, one first-axis start a1 at a
# time, to a stack of last-axis prefix columns, one column per leading
# range; a single 1-D row kernel then scans every column at once.  Per-box
# values use only IEEE +-*/ and a single libm pow so the vectorized path and
# the scalar oracle produce identical doubles from identical box sums.
# ----------------------------------------------------------------------


def _vec_values(kind, q, m, sw, ss):
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if kind is ClassKind.MUCKENHOUPT_A:
            vals = (sw / m) * np.power(ss / m, q - 1.0)
        else:
            vals = np.power(ss / m, 1.0 / q) / (sw / m)
        return np.where(m > 0.0, vals, -np.inf)


def _scalar_value(kind, q, m, sw, ss):
    # np.power rather than ** so scalar and vectorized evaluation use the
    # same exponentiation primitive (libm pow and numpy's kernel can differ
    # in the last ulp, which would break exact dual-route agreement).
    if kind is ClassKind.MUCKENHOUPT_A:
        return float((sw / m) * np.power(np.float64(ss / m), q - 1.0))
    return float(np.power(np.float64(ss / m), 1.0 / q) / (sw / m))


def _scan(tables, kind, q, s2):
    tabs = (tables.mass_table, tables.table(1.0), tables.table(s2))
    # The mass, w and w**s2 tables side by side: shape (3, cells + 1 per axis).
    H, L = np.stack([h for h, _ in tabs]), np.stack([l for _, l in tabs])
    ext = H.shape[1:]
    best = -math.inf
    best_box = None
    count = 0
    exact = 0
    for a1 in range(ext[0] - 1 if len(ext) > 1 else 1):
        if len(ext) == 1:
            h, l, lead = H, L, [()]
        else:
            # Rows [a1, b1) for every b1 by broadcasting, then every (a, b)
            # pair of each middle axis; the leading ranges stay in
            # lexicographic order.  Each stack is stored last axis first,
            # shape (n_last + 1, K), as the 1-D tables are laid out, so the
            # 1-D tables need no reshaping and keep a scalar broadcast
            # partner in the row kernel.
            h, l = dd_sub(H[:, a1 + 1 :], L[:, a1 + 1 :], H[:, a1, None], L[:, a1, None])
            lead = [((a1, b1),) for b1 in range(a1 + 1, ext[0])]
            for ax, n in enumerate(ext[1:-1], start=2):
                ia, ib = np.triu_indices(n, k=1)
                h, l = dd_sub(h.take(ib, ax), l.take(ib, ax), h.take(ia, ax), l.take(ia, ax))
                lead = [r + ((a, b),) for r in lead for a, b in zip(ia.tolist(), ib.tolist())]
            h, l = (x.reshape(3, -1, ext[-1]).transpose(0, 2, 1) for x in (h, l))
        stack = list(zip(h, l))
        bound, vmax = _screen(h, l, kind, q)
        n = len(bound)
        screened = bound < math.inf
        count += len(lead) * int((n - np.flatnonzero(screened)).sum())
        # The best surrogate row goes first, so that the incumbent is as high
        # as it can be before the other rows are tested against it.
        rows = range(n)
        if screened.any():
            seed = int(np.argmax(np.where(screened, vmax, -math.inf)))
            rows = [seed, *range(seed), *range(seed + 1, n)]
        bound = bound.tolist()
        for a in rows:
            if bound[a] < best:
                continue
            vals, c = _row(stack, a, kind, q)
            exact += 1
            if bound[a] == math.inf:
                count += c
            # First hit in (leading range, b) order is this row's
            # lexicographically smallest argmax; a tie with the incumbent goes
            # to the smaller box, so the order of the rows does not matter.
            j = int(np.argmax(vals.T))
            k, i = divmod(j, n - a)
            v = float(vals.T.flat[j])
            box = lead[k] + ((a, a + 1 + i),)
            if v > best or (v == best and best_box is not None and box < best_box.ranges):
                best = v
                best_box = BoxIdx(box)
    return best, best_box, count, exact


def _row(stack, a, kind, q):
    """Pass 2: exact values of the boxes whose last-axis range starts at a.

    Returns the values, shaped (n - a,) or (n - a, K), nan read as -inf, and
    how many of the boxes have positive mass.
    """
    (mh, ml), (wh, wl), (sh, sl) = stack
    m = dd_sub_rounded(mh[a + 1 :], ml[a + 1 :], mh[a], ml[a])
    sw = dd_sub_rounded(wh[a + 1 :], wl[a + 1 :], wh[a], wl[a])
    ss = dd_sub_rounded(sh[a + 1 :], sl[a + 1 :], sh[a], sl[a])
    vals = _vec_values(kind, q, m, sw, ss)
    # A nan value (sw and ss both 0) never wins, as in the oracle's v > best;
    # its box still counts.
    return np.where(np.isnan(vals), -np.inf, vals), int(np.count_nonzero(m > 0.0))


def _screen(h, l, kind, q):
    """Pass 1: per start row a, a bound U[a] on every exact value in the row.

    h and l hold the mass, w and w**s2 stacks, shape (3, n + 1) or
    (3, n + 1, K).  Returns U and the surrogate row maxima; U[a] is +inf
    where the bound cannot be formed.  The derivation is in the module
    docstring.
    """
    e = q - 1.0 if kind is ClassKind.MUCKENHOUPT_A else 1.0 / q
    # Leading ranges innermost and contiguous: the n-D stacks arrive
    # transposed, and every step below reduces or broadcasts over them.
    h = np.ascontiguousarray(h.reshape(3, h.shape[1], -1))
    lo = np.abs(l.reshape(h.shape), order="C")
    n, k = h.shape[1] - 1, h.shape[2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # x -> fl(x - c) is monotone, so the extremes of a row's surrogate
        # sums are the suffix extremes of h minus h[a].
        tail = h[:, :0:-1]
        xmin = (np.minimum.accumulate(tail, axis=1)[:, ::-1] - h[:, :-1]).min(axis=2)
        xmax = (np.maximum.accumulate(tail, axis=1)[:, ::-1] - h[:, :-1]).max(axis=2)
        lrow = lo[:, :-1].max(axis=2) + lo.max(axis=(1, 2))[:, None]
        rho = np.where(xmin > 0.0, lrow / xmin * (1.0 + 2.0**-48) + 2.0**-50, np.inf)
        g = np.dot([2.0 + 2.0 * e, 2.0, e], rho) + (5.0 * e + 10.0) * _U + 3.0 * _POW_ERR
        # log2 ranges of sw/m and ss/m over the row
        lmin, lmax = np.log2(xmin), np.log2(xmax)
        ends = np.abs([lmin[1:] - lmax[0], lmax[1:] - lmin[0]]) * [[1.0], [max(e, 1.0)]]
        ok = (
            (g <= _G_MAX)
            & (rho.max(axis=0) <= _G_MAX)
            & (ends.max(axis=(0, 1)) < _LOG2_LIMIT)
        )

        vmax = np.empty(n)
        a0 = 0
        while a0 < n:
            a_end = min(n, a0 + max(1, _SCREEN_BLOCK // ((n - a0) * k)))
            # Rows a0..a_end-1 against every b > a0; b <= a gives m <= 0,
            # hence -inf, unless h is not monotone, which can only raise U.
            d = h[:, None, a0 + 1 :] - h[:, a0:a_end, None]
            vmax[a0:a_end] = _vec_values(kind, q, *d).reshape(a_end - a0, -1).max(axis=1)
            a0 = a_end
        ok &= np.isfinite(vmax)
        return np.where(ok, vmax * (1.0 + 2.0 * g + 2.0**-45), math.inf), vmax


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
        v = _scalar_value(kind, q, m, sw, ss)
        count += 1
        if v > best:
            best = v
            best_box = BoxIdx(ranges)
    return best, best_box, count
