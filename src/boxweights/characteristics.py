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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._summation import dd_sub, dd_sub_rounded
from .errors import PreconditionError
from .exponents import ClassKind, _as_pparam
from .grids import BoxIdx, GridMeasure, PrefixTables, WeightGrid, moment_cells, validate


@dataclass(frozen=True)
class CharacteristicReport:
    """Result of a characteristic scan.

    value is the supremum over positive-measure boxes (>= 1 always, +inf if
    a moment cell overflowed and centring w by a power of two does not
    recover every cell); argmax_box attains it; boxes_scanned counts the
    positive-measure boxes examined (0 for the overflow short-circuit).
    """

    kind: ClassKind
    exponent: float
    value: float
    argmax_box: BoxIdx | None
    boxes_scanned: int


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
    """Exact supremum of the class-(kind, q) functional over all boxes."""
    validate(measure, weight)
    s2 = second_moment_exponent(kind, q)
    if tables is None:
        tables = PrefixTables(measure, weight, (1.0, s2))
    else:
        tables.ensure(1.0)
        tables.ensure(s2)

    scan_weight = _scan_weight(measure.mass, weight, s2, tables.cells)
    if scan_weight is not weight:
        tables = PrefixTables(measure, scan_weight, (1.0, s2))

    bad = tables.first_nonfinite_cell(s2)
    if bad is not None:
        return CharacteristicReport(
            kind=kind,
            exponent=q,
            value=math.inf,
            argmax_box=BoxIdx(tuple((i, i + 1) for i in bad)),
            boxes_scanned=0,
        )

    value, box, count = _scan(tables, kind, q, s2)
    return CharacteristicReport(
        kind=kind, exponent=q, value=value, argmax_box=box, boxes_scanned=count
    )


def _scan_weight(mass, weight, s2, cells):
    """The weight to scan: w, or w times the power of two that centres it on 1.

    Both characteristics are invariant under w -> c*w.  When a positive-mass
    moment cell (``cells(s)`` for s in 1 and s2) is 0 or non-finite and the
    centred weight (scaled with ldexp) loses none, the centred weight
    is scanned; otherwise w is kept, so a scale that cannot recover every
    cell never turns a finite supremum into +inf.
    """
    positive = mass > 0.0

    def whole(cells):
        return all(
            np.all((c[positive] > 0.0) & (c[positive] < math.inf)) for c in map(cells, (1.0, s2))
        )

    if whole(cells):
        return weight
    w = weight.values[positive]
    shift = round(-0.5 * (math.log2(w.min()) + math.log2(w.max())))
    with np.errstate(over="ignore", under="ignore"):
        # zero-mass cells contribute 0 whatever their weight
        centred = np.where(positive, np.ldexp(weight.values, shift), 1.0)
    return WeightGrid(centred) if whole(lambda s: moment_cells(mass, centred, s)) else weight


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
    ext = tabs[0][0].shape  # cells + 1 per axis
    best = -math.inf
    best_box = None
    count = 0
    for a1 in range(ext[0] - 1 if len(ext) > 1 else 1):
        if len(ext) == 1:
            stack, lead = tabs, [()]
        else:
            # Rows [a1, b1) for every b1 by broadcasting, then every (a, b)
            # pair of each middle axis; the leading ranges stay in
            # lexicographic order.  The stack is stored last axis first,
            # shape (n_last + 1, K), as the 1-D tables are laid out, so the
            # 1-D tables need no reshaping and keep a scalar broadcast
            # partner in the row kernel.
            stack = [dd_sub(h[a1 + 1 :], l[a1 + 1 :], h[a1], l[a1]) for h, l in tabs]
            lead = [((a1, b1),) for b1 in range(a1 + 1, ext[0])]
            for ax, n in enumerate(ext[1:-1], start=1):
                ia, ib = np.triu_indices(n, k=1)
                stack = [
                    dd_sub(h.take(ib, ax), l.take(ib, ax), h.take(ia, ax), l.take(ia, ax))
                    for h, l in stack
                ]
                lead = [r + ((a, b),) for r in lead for a, b in zip(ia.tolist(), ib.tolist())]
            stack = [(h.reshape(-1, ext[-1]).T, l.reshape(-1, ext[-1]).T) for h, l in stack]
        (mh, ml), (wh, wl), (sh, sl) = stack
        n = mh.shape[0] - 1
        for a in range(n):
            m = dd_sub_rounded(mh[a + 1 :], ml[a + 1 :], mh[a], ml[a])
            sw = dd_sub_rounded(wh[a + 1 :], wl[a + 1 :], wh[a], wl[a])
            ss = dd_sub_rounded(sh[a + 1 :], sl[a + 1 :], sh[a], sl[a])
            vals = _vec_values(kind, q, m, sw, ss)
            count += int(np.count_nonzero(m > 0.0))
            # First hit in (leading range, b) order is this row's
            # lexicographically smallest argmax; rows are visited by a, so a
            # tie with the incumbent goes to the smaller box.
            j = int(np.argmax(vals.T))
            k, i = divmod(j, n - a)
            v = float(vals.T.flat[j])
            box = lead[k] + ((a, a + 1 + i),)
            if v > best or (v == best and best_box is not None and box < best_box.ranges):
                best = v
                best_box = BoxIdx(box)
    return best, best_box, count


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
    weight = _scan_weight(mass, weight, s2, lambda s: moment_cells(mass, weight.values, s))
    wcells = moment_cells(mass, weight.values, 1.0)
    scells = moment_cells(mass, weight.values, s2)
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
