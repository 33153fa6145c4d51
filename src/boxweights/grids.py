"""Grid-discretized measures and weights with exact box sums.

A measure is a nonnegative mass per cell of a tensor-product lattice (one
or more axes, strictly increasing breakpoints per axis).  Placing all mass
strictly inside cells makes every coordinate hyperplane through a breakpoint
null, so box splitting at breakpoints never cuts through an atom.  Weights are
strictly positive cell-constant values on the same lattice; continuum
weights enter only through exact cell averaging at generation time.

Box sums of mass, w*mass and w**s*mass are answered from compensated
(double-double) prefix tables, so each query returns the correctly rounded
double of the exact sum over the requested cells.

scan_tables is the scan's one entry point to these sums: it checks the pair
and tabulates the weight scan_weight picks, w or w centred by a power of
two.  own_tables is the one check that given tables belong to their pair,
and lost_moment_cell the one test for a positive-mass moment cell lost to
under- or overflow; the splitter refuses a box with it.
"""

from __future__ import annotations

import copy
import functools
import math
import os
import re
import stat
import tempfile
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from ._summation import dd_box_diffs, dd_prefix_tables, dd_sub_rounded, two_prod
from .errors import PreconditionError, ZeroMeasureBoxError


def first_cell(mask: np.ndarray):
    """Index tuple of the row-major first True cell of ``mask``, or None."""
    if not mask.any():
        return None
    return tuple(int(i) for i in np.unravel_index(int(np.argmax(mask)), mask.shape))


@dataclass(frozen=True)
class BoxIdx:
    """Axis-parallel box as per-axis half-open cell index ranges [a, b)."""

    ranges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "ranges", tuple((int(a), int(b)) for a, b in self.ranges)
        )
        for a, b in self.ranges:
            if a < 0 or b <= a:
                raise PreconditionError(f"empty or negative index range in {self.ranges}")

    @classmethod
    def unchecked(cls, ranges) -> "BoxIdx":
        """The box of ``ranges``, a tuple of (a, b) int pairs already known to hold 0 <= a < b; no re-check."""
        box = object.__new__(cls)
        object.__setattr__(box, "ranges", ranges)
        return box

    @classmethod
    def full(cls, shape) -> "BoxIdx":
        return cls(tuple((0, int(m)) for m in shape))

    @property
    def ndim(self) -> int:
        return len(self.ranges)

    def as_slices(self) -> tuple[slice, ...]:
        return tuple(slice(a, b) for a, b in self.ranges)

    def check_shape(self, shape) -> None:
        if len(self.ranges) != len(shape):
            raise PreconditionError(
                f"box has {len(self.ranges)} axes, grid has {len(shape)}"
            )
        for ax, ((a, b), m) in enumerate(zip(self.ranges, shape)):
            if b > m:
                raise PreconditionError(
                    f"box range [{a}, {b}) exceeds {m} cells on axis {ax}"
                )

    def __str__(self) -> str:
        return ";".join(f"{a}:{b}" for a, b in self.ranges)


@dataclass(frozen=True)
class GridMeasure:
    """Cell-mass discretization of a measure on a tensor grid."""

    breakpoints: tuple[np.ndarray, ...]
    mass: np.ndarray

    def __post_init__(self):
        bps = tuple(np.asarray(b, dtype=np.float64) for b in self.breakpoints)
        mass = np.asarray(self.mass, dtype=np.float64)
        if not bps:
            raise PreconditionError("a measure needs at least one axis")
        if mass.ndim != len(bps):
            raise PreconditionError(
                f"mass array has {mass.ndim} axes, expected {len(bps)}"
            )
        for ax, b in enumerate(bps):
            if b.ndim != 1 or b.size != mass.shape[ax] + 1:
                raise PreconditionError(
                    f"axis {ax}: need {mass.shape[ax] + 1} breakpoints, got {b.size}"
                )
            if not np.all(np.isfinite(b)):
                raise PreconditionError(f"axis {ax}: non-finite breakpoint")
            if not np.all(np.diff(b) > 0):
                j = int(np.flatnonzero(np.diff(b) <= 0)[0])
                raise PreconditionError(
                    f"axis {ax}: breakpoints not strictly increasing at index {j}"
                )
        if (cell := first_cell(~np.isfinite(mass))) is not None:
            raise PreconditionError(f"non-finite mass at cell {cell}")
        if (cell := first_cell(mass < 0)) is not None:
            raise PreconditionError(f"negative mass at cell {cell}")
        if not mass.sum() > 0:
            raise PreconditionError("total mass must be positive")
        for b in bps:
            b.setflags(write=False)
        mass.setflags(write=False)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "mass", mass)

    @property
    def ndim(self) -> int:
        return self.mass.ndim

    @property
    def shape(self) -> tuple[int, ...]:
        return self.mass.shape

    @property
    def total_mass(self) -> float:
        return float(self.mass.sum())

    def edge_length(self, axis: int, a: int, b: int) -> float:
        bp = self.breakpoints[axis]
        return float(bp[b] - bp[a])

    def box_diameter(self, box: BoxIdx) -> float:
        edges = (self.edge_length(ax, a, b) for ax, (a, b) in enumerate(box.ranges))
        return math.sqrt(sum(e * e for e in edges))


@dataclass(frozen=True)
class WeightGrid:
    """Strictly positive cell values aligned with a GridMeasure's lattice.

    ``power_alpha`` tags grids produced by power_weight_grid so refinement
    can regenerate exact cell averages instead of copying values.
    """

    values: np.ndarray
    power_alpha: float | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if (cell := first_cell(~np.isfinite(values))) is not None:
            raise PreconditionError(f"non-finite weight value at cell {cell}")
        if (cell := first_cell(values <= 0)) is not None:
            raise PreconditionError(f"non-positive weight at cell {cell}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape


def validate(measure: GridMeasure, weight: WeightGrid):
    """Check that the weight lies on the measure's lattice; returns the pair.

    The constructors have checked every field and frozen the arrays.
    """
    if weight.values.shape != measure.shape:
        raise PreconditionError(
            f"weight shape {weight.values.shape} does not match "
            f"measure shape {measure.shape}"
        )
    return measure, weight


def uniform_measure(shape) -> GridMeasure:
    """Uniform cell masses of total 1 on a uniform lattice over [0, 1] per axis."""
    if isinstance(shape, int):
        shape = (shape,)
    bps = tuple(np.linspace(0.0, 1.0, m + 1) for m in shape)
    cells = int(np.prod(shape))
    mass = np.full(shape, 1.0 / cells)
    return GridMeasure(bps, mass)


def power_weight_grid(alpha: float, cells: int) -> tuple[GridMeasure, WeightGrid]:
    """Power weight x**alpha on [0, 1] with uniform Lebesgue cell masses.

    Each cell holds the exact average of x**alpha over the cell, so the
    values are (x_{j+1}**(a+1) - x_j**(a+1)) / ((a+1) * width); they are
    strictly positive and monotone in j (increasing iff alpha > 0).
    """
    if not alpha > -1.0:
        raise PreconditionError(
            f"alpha must exceed -1 (x**alpha not integrable at 0), got {alpha}"
        )
    if cells < 1:
        raise PreconditionError(f"cell count must be >= 1, got {cells}")
    x = np.arange(cells + 1, dtype=np.float64) / cells
    if alpha == 0.0:
        vals = np.ones(cells)
    else:
        anti = np.power(x, alpha + 1.0)
        vals = (anti[1:] - anti[:-1]) / ((alpha + 1.0) / cells)
    measure = GridMeasure((x,), np.full(cells, 1.0 / cells))
    return measure, WeightGrid(vals, power_alpha=alpha)


def refine(measure: GridMeasure, weight: WeightGrid, k: int):
    """Split every cell into k equal parts per axis.

    Masses divide evenly, values copy (piecewise-constant semantics).
    Power-law generated weights are regenerated exactly instead.
    """
    if int(k) != k or k < 2:
        raise PreconditionError(f"refinement factor must be an integer >= 2, got {k}")
    k = int(k)
    if weight.power_alpha is not None and measure.ndim == 1:
        return power_weight_grid(weight.power_alpha, measure.shape[0] * k)
    new_bps = []
    for bp in measure.breakpoints:
        widths = np.diff(bp)
        sub = bp[:-1, None] + widths[:, None] * (np.arange(k) / k)[None, :]
        new_bps.append(np.append(sub.reshape(-1), bp[-1]))
    mass = measure.mass
    vals = weight.values
    for ax in range(measure.ndim):
        mass = np.repeat(mass, k, axis=ax)
        vals = np.repeat(vals, k, axis=ax)
    mass = mass / float(k**measure.ndim)
    return GridMeasure(tuple(new_bps), mass), WeightGrid(vals)


def moment_cells(mass: np.ndarray, values: np.ndarray, s: float) -> np.ndarray:
    """Per-cell masses of the measure w**s dmu.

    Cells of zero mass contribute zero regardless of the weight value.  If
    mass * value**s overflows while the product is representable, the cell
    is recomputed in log space; a remaining +inf marks a true overflow that
    characteristic scans report as an infinite supremum.
    """
    if s == 0.0:
        return mass.copy()
    if s == 1.0:
        return mass * values
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        cells = mass * np.power(values, s)
        bad = ~np.isfinite(cells) & (mass > 0)
        if bad.any():
            cells[bad] = np.exp(np.log(mass[bad]) + s * np.log(values[bad]))
        if (mass == 0.0).any():
            cells = np.where(mass == 0.0, 0.0, cells)
    return cells


def lost_moment_cell(mass: np.ndarray, moments: dict):
    """First positive-mass cell whose moment is 0 or non-finite, or None.

    Returns (s, cell, moment): s the first exponent of ``moments`` (s -> the
    moment_cells of w**s) that loses a cell, cell its row-major first such
    cell.  Box sums would silently leave that cell out.
    """
    for s, cells in moments.items():
        cell = first_cell((mass > 0.0) & ~((cells > 0.0) & (cells < math.inf)))
        if cell is not None:
            return s, cell, float(cells[cell])
    return None


def _sum_overflows(moments: dict) -> bool:
    """Whether the cells of some moment sum beyond the doubles."""
    with np.errstate(over="ignore"):
        return not all(math.isfinite(float(cells.sum())) for cells in moments.values())


def scan_weight(mass: np.ndarray, weight: WeightGrid, moments: dict):
    """(weight, moments) to scan: w, or w centred on 1 by a power of two.

    Both characteristics are invariant under w -> c*w.  When w loses a
    moment cell (lost_moment_cell), or keeps every cell but the cells of a
    moment sum beyond the doubles, so that its prefix sums overflow, w times
    the power of two nearest 1/sqrt(min w * max w) over positive-mass cells
    (zero-mass cells get 1) is taken if it loses no cell; otherwise w is
    kept, so a scale that cannot recover every cell never turns a finite
    supremum into +inf.
    """
    if lost_moment_cell(mass, moments) is None and not _sum_overflows(moments):
        return weight, moments
    positive = mass > 0.0
    w = weight.values[positive]
    shift = round(-0.5 * (math.log2(w.min()) + math.log2(w.max())))
    with np.errstate(over="ignore", under="ignore"):
        centred = np.where(positive, np.ldexp(weight.values, shift), 1.0)
    recentred = {s: moment_cells(mass, centred, s) for s in moments}
    if lost_moment_cell(mass, recentred) is not None:
        return weight, moments
    return WeightGrid(centred), recentred


def scan_tables(measure: GridMeasure, weight: WeightGrid, exponents, tables=None):
    """Tables of the mass and the w**s moments of the weight scan_weight picks.

    ``tables``, if given, must belong to this very pair.  The weight is
    picked from the moment cells before any moment table is built, so a call
    builds at most one table set, and none given fitting tables that keep w;
    the tables of a centred weight share the mass table.
    """
    tables = own_tables(measure, weight, tables)
    moments = {float(s): tables._moment_cells(float(s)) for s in exponents}
    chosen, moments = scan_weight(measure.mass, weight, moments)
    if chosen is not weight:
        tables = tables._for_weight(chosen)
    for s, cells in moments.items():
        tables._add(s, cells)
    return tables


def own_tables(measure: GridMeasure, weight: WeightGrid, tables=None):
    """``tables`` if they were built for this very pair, new tables if None.

    Tables of another pair are refused: their sums belong to other cells.
    """
    if tables is None:
        return PrefixTables(measure, weight)
    if tables.measure is not measure or tables.weight is not weight:
        raise PreconditionError("prefix tables were built for another measure or weight")
    return tables


_Table = namedtuple("_Table", "cells hi lo margin span")


class PrefixTables:
    """Cached double-double cumulative tables for box-sum queries.

    One record per key, None for the mass and s for the w**s moments, built
    when first asked for: the cells (raw arrays for independent summation
    oracles), the immutable prefix table and its precision certificate,
    made from the largest prefix sum and the smallest positive cell (see
    precision_margin).  Below 1, every box sum read from the table, by the
    scan, the splitter or mass_sum and moment_sum, is the correctly rounded
    exact sum; each of them refuses a table at or above 1 (certify).
    """

    def __init__(self, measure: GridMeasure, weight: WeightGrid, exponents=()):
        validate(measure, weight)
        self.measure = measure
        self.weight = weight
        self._records: dict[float | None, _Table] = {}
        self._add(None, measure.mass)
        for s in exponents:
            self._record(s)

    def _for_weight(self, weight: WeightGrid) -> "PrefixTables":
        """Tables of another weight on the same lattice, sharing the mass record."""
        other = copy.copy(self)
        other.weight, other._records = weight, {None: self._records[None]}
        return other

    def _moment_cells(self, s: float) -> np.ndarray:
        if s in self._records:
            return self._records[s].cells
        return moment_cells(self.measure.mass, self.weight.values, s)

    def _add(self, key, cells: np.ndarray) -> None:
        if key in self._records:
            return
        finite = cells if np.isfinite(cells).all() else np.where(np.isfinite(cells), cells, 0.0)
        hi, lo = dd_prefix_tables(finite)
        positive = finite > 0.0
        margin, span = 0.0, 1.0
        if positive.any():
            top = float(np.abs(hi).max())
            smallest = float(finite.min(where=positive, initial=math.inf))
            if cells.size > 2:
                long_axis = max(1.0, max(cells.shape) / 2.0**27)
                margin = top * 2.0**-103 / float(np.spacing(smallest)) * long_axis**2
            span = top / smallest
        self._records[key] = _Table(cells, hi, lo, margin, span)

    def _record(self, s: float | None) -> _Table:
        key = None if s is None else float(s)
        self._add(key, self._moment_cells(key))
        return self._records[key]

    def cells(self, s: float) -> np.ndarray:
        return self._record(s).cells

    def table(self, s: float | None) -> tuple[np.ndarray, np.ndarray]:
        record = self._record(s)
        return record.hi, record.lo

    @property
    def mass_table(self) -> tuple[np.ndarray, np.ndarray]:
        return self.table(None)

    def precision_margin(self, s: float | None = None) -> float:
        """Certificate of the mass table (s None) or the w**s table.

        max|P| * 2**-104 over half an ulp q0/2 of the smallest positive cell,
        P the prefix sums, times (N / 2**27)**2 for a longest axis of N >
        2**27 cells, or 0 for a table of at most two cells.  Below 1, the
        largest prefix sum is below 2**104 q0 (a factor 2 to spare for the
        rounding of the largest entry, and the factor keeps N**2 u**2 max|P|
        below 2**52 q0), which is the condition under which
        _summation.dd_prefix_tables builds every entry as the normalised pair
        (RN(P), P - RN(P)) of its exact prefix sum; see that module for the
        proof.  Every box sum goes through _summation.dd_box_diffs, whose
        dd_sub per axis reduces the other axes of a box to a prefix column,
        and one dd_sub_rounded of two entries of that column.  Every cell is
        an integer multiple of q0, hence so is every sum and rounding error
        of that arithmetic, and its low-order operations stay below 2**53 q0,
        so each dd_sub returns the normalised pair of its exact difference
        and every box sum, the scan's, the splitter's and mass_sum's and
        moment_sum's alike, is the correctly rounded exact sum, whichever
        axis is kept and however long the rows.  A table of at most two cells
        needs no bound: each entry is one two_sum of the cells, normalised.
        """
        return self._record(s).margin

    def certify(self, *keys) -> None:
        """Raise PreconditionError, naming the worst table, unless every margin is below 1.

        The keys are None for the mass table and s for the w**s tables; with
        none, the mass table is checked.  A NaN margin, from prefix sums that
        overflowed, is the worst.
        """
        s = max(keys or (None,), key=lambda s: (math.isnan(m := self.precision_margin(s)), m))
        record = self._record(s)
        if not record.margin < 1.0:
            what = "cell masses" if s is None else f"cell moments of w**{float(s)!r}"
            raise PreconditionError(
                f"{what} span {record.span:.3g} (largest prefix sum over smallest positive "
                f"cell), beyond the about 2**51 that double-double prefix tables "
                f"certify exact (margin {record.margin:.3g})"
            )

    def mass_sum(self, box: BoxIdx) -> float:
        return self.moment_sum(None, box)

    def moment_sum(self, s: float | None, box: BoxIdx) -> float:
        """Exact sum of the mass (s None) or of w**s over the box; refused beyond the certificate."""
        self.certify(s)
        box.check_shape(self.measure.shape)
        *lead, (a, b) = box.ranges
        h, l = dd_box_diffs(*self.table(s), lead)
        return float(dd_sub_rounded(h[b], l[b], h[a], l[a]))


def box_average(measure, weight, box: BoxIdx, s: float, tables: PrefixTables | None = None) -> float:
    """Average of w**s over the box against the measure: a prefix-table query."""
    tables = own_tables(measure, weight, tables)
    m = tables.mass_sum(box)
    if m <= 0.0:
        raise ZeroMeasureBoxError(box)
    return tables.moment_sum(s, box) / m


# ----------------------------------------------------------------------
# File formats.  The grid format is a token stream: '#' starts a comment
# that runs to end of line, floats may be plain decimal or C99 hex
# (0x1.8p-1) literals.  See README for the layout.  Files are read and
# written a chunk at a time, so memory is the arrays read or written plus
# one chunk of text.  The writer gives repr's text for every float; it
# decides the digits of a chunk in numpy (_wrap_floats).
# ----------------------------------------------------------------------


def _parse_float(tok: str) -> float:
    if tok.lower().startswith(("0x", "-0x", "+0x")):
        return float.fromhex(tok)
    return float(tok)


def _parse_floats(toks) -> np.ndarray:
    """Array of the tokens; per token only if one is hex or malformed."""
    try:
        # numpy casts each str token with float(), which accepts no hex literal
        return np.array(toks, dtype=np.float64)
    except ValueError:
        return np.array([_parse_float(t) for t in toks])


# A comment runs to the next line end as str.splitlines sees one (open() has
# already turned \r\n and \r into \n).  A chunk of text ends after a "\n",
# so no comment and no token crosses into the next chunk.
_COMMENT = re.compile(r"#[^\n\x0b\x0c\x1c-\x1e\x85\u2028\u2029]*")

# characters read per chunk; a line longer than this is read whole
_READ_CHUNK = 1 << 16


class _TokenReader:
    """Sequential reader over the tokens of a ``kind`` file (grid, candidate).

    The file is read a chunk of whole lines at a time; a context manager
    that closes the file.
    """

    def __init__(self, path, kind: str):
        self.path = path
        self.kind = kind
        self._handle = open(path, "r")
        # n tokens take at least 2n - 1 bytes, so a regular file bounds any count
        info = os.fstat(self._handle.fileno())
        self._max_tokens = info.st_size // 2 + 1 if stat.S_ISREG(info.st_mode) else math.inf
        self._tail = ""
        self._toks: list[str] = []
        self._pos = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._handle.close()

    def _refill(self) -> bool:
        """Tokenize the next chunk of whole lines; False at the end of the file."""
        pieces = [self._tail]
        while (block := self._handle.read(_READ_CHUNK)) and "\n" not in block:
            pieces.append(block)
        cut = block.rfind("\n") + 1  # 0 at the end of the file
        pieces.append(block[:cut])
        self._tail = block[cut:]
        text = "".join(pieces)
        self._toks, self._pos = _COMMENT.sub("", text).split(), 0
        return bool(text)

    def at_end(self) -> bool:
        while self._pos == len(self._toks):
            if not self._refill():
                return True
        return False

    def _next(self, n: int) -> list[str]:
        """Up to n further tokens, at least one; raises at the end of the file."""
        if self.at_end():
            raise PreconditionError(f"truncated {self.kind} file {self.path}")
        toks = self._toks[self._pos : self._pos + n]
        self._pos += len(toks)
        return toks

    def take(self, n=1) -> list[str]:
        return [self._next(1)[0] for _ in range(n)]

    def floats(self, n: int) -> np.ndarray:
        """The next n tokens as floats, parsed a chunk at a time.

        A parse error is raised only once the n tokens are known to exist,
        so a truncated block reports the truncation; so does a count the
        file cannot hold, before anything is allocated for it.  A negative
        count is refused.
        """
        if n < 0:
            raise PreconditionError(f"negative count {n} in {self.kind} file {self.path}")
        if n > self._max_tokens:
            raise PreconditionError(f"truncated {self.kind} file {self.path}")
        out = np.empty(n)
        done, error = 0, None
        while done < n:
            toks = self._next(n - done)
            if error is None:
                try:
                    out[done : done + len(toks)] = _parse_floats(toks)
                except ValueError as err:
                    error = err
            done += len(toks)
        if error is not None:
            raise PreconditionError(str(error)) from error
        return out

    def field(self, keyword, *parsers):
        """The keyword, then one token per parser: the parsed value, or a list of them.

        A parser's ValueError becomes a PreconditionError naming the keyword and the file.
        """
        got = self.take()[0]
        if got != keyword:
            raise PreconditionError(f"expected '{keyword}' in {self.path}, found '{got}'")
        toks = self.take(len(parsers))
        try:
            values = [parse(t) for parse, t in zip(parsers, toks)]
        except ValueError as err:
            raise PreconditionError(f"bad '{keyword}' in {self.kind} file {self.path}: {err}") from None
        return values[0] if len(values) == 1 else values


def write_grid(path, measure: GridMeasure, weight: WeightGrid) -> None:
    """Write a measure/weight pair in the text grid format (atomic)."""
    _atomic_write(path, _grid_pieces(measure, weight))


def _grid_pieces(measure: GridMeasure, weight: WeightGrid):
    yield f"# boxweights grid format v1\ngrid 1\ndim {measure.ndim}\n"
    for ax, bp in enumerate(measure.breakpoints):
        yield f"breakpoints {ax} {bp.size}\n"
        yield from _wrap_floats(bp)
    for name, arr in (("mass", measure.mass), ("values", weight.values)):
        yield f"{name} {arr.size}\n"
        yield from _wrap_floats(arr)
    if weight.power_alpha is not None:
        yield f"generator power {weight.power_alpha!r}\n"


# floats per line of a written file, and per piece handed to the writer
_FLOATS_PER_LINE = 8
_WRITE_BLOCK = 256 * _FLOATS_PER_LINE

# The columns _format_block gathers a value's characters from: "0" and the 17
# digits (columns 0 to 17), '.', '-', 'e', the exponent's sign, hundreds and
# last two digits, the separator and NUL.
_SOURCE = np.frombuffer(b"0" * 18 + b".-e+000 \0", dtype=np.uint8)
_ZERO, _POINT, _MINUS, _E, _SEP, _NUL = 0, 18, 19, 20, 25, 26
_TEXT_WIDTH = 25  # the longest text, "-2.2250738585072014e-308", and a separator
_UNITS = np.array([[100.0], [10.0], [1.0]])


def _wrap_floats(arr):
    """The floats as lines of text, repr each, in pieces of _WRITE_BLOCK floats.

    repr(float(v)) is the shortest digit string that reads back to v, and
    of those the closest to v (Gay, "Correctly rounded binary-decimal and
    decimal-binary conversions", 1990; Adams, "Ryu", PLDI 2018).
    _format_block decides it a block at a time in double-double: with y =
    |v| * 10**(16 - e), e the decimal exponent of v, and H half an ulp of v
    scaled alike, a string reads back to v if it lies within H of y.  The
    first of y's roundings to multiples of 100, 10 and 1 (15, 16 and 17
    digits) within H is repr's digit string, trailing zeros dropped:

    - H < 12, so at most one string of 15 digits or fewer reads back, and
      then it is the nearest multiple of 100;
    - the interval is symmetric about y unless v is a power of two, so the
      closest 16- or 17-digit string is the rounding of y;
    - the 17-digit rounding always reads back (H > 0.55).

    y is known to within 1e-14.  A value with a rounding within 1e-9 of H
    (a string exactly H away reads back only to a v whose last bit is 0)
    or of a tie, a zero, subnormal, power of two, inf or nan, or a decimal
    exponent outside (-280, 290), where Dekker's split could overflow, goes
    to _fallback instead.
    """
    arr = np.asarray(arr, dtype=np.float64).reshape(-1)
    for start in range(0, arr.size, _WRITE_BLOCK):
        yield _format_block(arr[start : start + _WRITE_BLOCK])


def _fallback(v: float) -> str:
    """The text of a value the fast path of _format_block leaves undecided."""
    return repr(v)


@functools.cache
def _pow10(p: int) -> tuple[float, float]:
    """10**p as hi + lo: hi the rounded double, lo the rounded rest (exact ints)."""
    num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
    hi = num / den
    a, b = hi.as_integer_ratio()
    return hi, (num * b - a * den) / (den * b)


def _scaled(x, e):
    """(yh, yl) the normalised pair of x * 10**(16 - e), and 10**(16 - e) rounded."""
    p = 16 - e
    low = int(p.min())
    pow_hi, pow_lo = np.array([_pow10(k) for k in range(low, int(p.max()) + 1)]).T
    p10 = pow_hi[p - low]
    hi, err = two_prod(x, p10)
    err += x * pow_lo[p - low]
    yh = hi + err
    return yh, err - (yh - hi), p10


@functools.cache
def _digit_pairs() -> np.ndarray:
    """The characters "00" to "99" as 100 uint16."""
    return np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), dtype=np.uint16)


def _layout_row(key: int) -> list[int]:
    """The _SOURCE columns of the text of a value of layout key ``key``.

    key = neg + 2 * (ndig - 1 + 17 * c), for a '-' sign (neg), ndig digits
    and c = decpt + 3 in fixed form (-4 < decpt <= 16, the value being
    0.d1d2... * 10**decpt) or c = 20, 21 in exponent form with two or three
    exponent digits: repr's 'r' format rules.
    """
    neg, ndig, c = key % 2, key // 2 % 17 + 1, key // 34
    digits = list(range(1, ndig + 1))
    if c >= 20:
        point = [_POINT, *digits[1:]] if ndig > 1 else []
        text = [digits[0], *point, _E, _E + 1, *[_E + 2] * (c - 20), _E + 3, _E + 4]
    elif (decpt := c - 3) <= 0:
        text = [_ZERO, _POINT, *[_ZERO] * -decpt, *digits]
    elif decpt < ndig:
        text = [*digits[:decpt], _POINT, *digits[decpt:]]
    else:
        text = [*digits, *[_ZERO] * (decpt - ndig), _POINT, _ZERO]
    text = [_MINUS] * neg + text + [_SEP]
    return text + [_NUL] * (_TEXT_WIDTH - len(text))


@functools.cache
def _layouts() -> tuple[np.ndarray, np.ndarray]:
    """Room for the _layout_row of every key, and which are filled."""
    return np.zeros((2 * 17 * 22, _TEXT_WIDTH), dtype=np.uint8), np.zeros(2 * 17 * 22, dtype=bool)


def _layout_rows(key: np.ndarray) -> np.ndarray:
    """The _layout_row of each key, each built on first use."""
    rows, filled = _layouts()
    for k in set(key[~filled[key]].tolist()):
        rows[k], filled[k] = _layout_row(k), True
    return rows.take(key, axis=0)


def _shortest_digits(a: np.ndarray):
    """(digits, decpt, fast): repr's digits of each |a| as a 17-digit int, trailing zeros kept.

    |a| reads 0.d1d2...d17 * 10**decpt where ``fast`` holds; elsewhere
    the value is left to _fallback (see _wrap_floats).
    """
    x = np.abs(a)
    mantissa, exp2 = np.frexp(x)
    fast = (mantissa > 0.5) & (mantissa < 1.0)  # no zero, power of two, inf or nan
    e = np.floor(np.log10(np.where(fast, x, 1.5)))
    fast &= (e > -280) & (e < 290)  # no subnormal, and Dekker's split stays finite
    x = np.where(fast, x, 1.5)
    e = np.where(fast, e, 0.0).astype(np.int64)
    yh, yl, p10 = _scaled(x, e)
    half = np.ldexp(p10, exp2 - 54)
    yi = yh.astype(np.int64)
    base = yi // 100 * 100
    g = (yi - base) + yl  # y - base, in [-8, 108)
    # rows: y rounded to 15, 16 and 17 digits, and their distances from y
    r = np.rint(g / _UNITS) * _UNITS
    dist = np.abs(r - g)
    fast &= np.minimum(np.abs(dist - half), np.abs(dist - _UNITS / 2)).min(axis=0) > 1e-9
    inside = dist < half  # the 17 digits always are
    digits = base + np.where(inside[0], r[0], np.where(inside[1], r[1], r[2])).astype(np.int64)
    # off where log10 was a decade off or y rounded to 10**17
    fast &= (digits >= 10**16) & (digits < 10**17)
    return digits, e + 1, fast


def _text_source(a: np.ndarray, digits: np.ndarray, decpt: np.ndarray):
    """(src, key): per value, _SOURCE with its characters filled in, and its layout key."""
    n = a.size
    # "0" and the 17 digits: the first 9 (hi) and the last 8 (lo) two at a time
    hi = digits // 10**8
    v = np.concatenate([hi, digits - hi * 10**8])
    pairs = np.empty((2 * n, 5), dtype=np.int64)
    for col in range(4, 0, -1):
        q = v // 100
        pairs[:, col] = v - 100 * q
        v = q
    pairs[:, 0] = v
    chars = _digit_pairs()[pairs].view(np.uint8)
    src = np.empty((n, _SOURCE.size), dtype=np.uint8)
    src[:] = _SOURCE
    src[:, :10], src[:, 10:18] = chars[:n], chars[n:, 2:]
    ndig = 17 - np.argmax(src[:, 17:0:-1] != ord("0"), axis=1)
    # the exponent's sign, hundreds and last two digits
    x10 = np.abs(decpt - 1)
    hundreds = x10 // 100
    src[:, _E + 1] = ord("+") + 2 * (decpt < 1)  # "+" or "-"
    src[:, _E + 2] = hundreds + ord("0")
    src[:, _E + 3 : _E + 5] = _digit_pairs()[x10 - 100 * hundreds].view(np.uint8).reshape(n, 2)
    src[_FLOATS_PER_LINE - 1 :: _FLOATS_PER_LINE, _SEP] = ord("\n")
    src[-1, _SEP] = ord("\n")
    c = np.where((decpt > -4) & (decpt <= 16), decpt + 3, 20 + (hundreds > 0))
    return src, (a < 0) + 2 * (ndig - 1 + 17 * c)


def _format_block(a: np.ndarray) -> str:
    """Lines of the values of ``a``, 8 a line, as repr writes each (see _wrap_floats).

    Each value's characters are gathered into a row of _TEXT_WIDTH bytes,
    NUL-padded; one compress drops the padding.
    """
    digits, decpt, fast = _shortest_digits(a)
    src, key = _text_source(a, digits, decpt)
    out = src.reshape(-1).take(_layout_rows(key) + np.arange(0, src.size, _SOURCE.size)[:, None])
    slow = np.flatnonzero(~fast)
    if slow.size:
        seps = src[slow, _SEP].tobytes().decode()
        text = [_fallback(v) + sep for v, sep in zip(a[slow].tolist(), seps)]
        out[slow] = np.array(text, dtype=f"S{_TEXT_WIDTH}").view(np.uint8).reshape(-1, _TEXT_WIDTH)
    flat = out.reshape(-1)
    return flat[flat != 0].tobytes().decode("ascii")


def _atomic_write(path, pieces) -> None:
    """Write the text pieces to path through a temp file and a rename."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_grid(path) -> tuple[GridMeasure, WeightGrid]:
    """Read a measure/weight pair written by write_grid."""
    with _TokenReader(path, "grid") as tok:
        version = tok.field("grid", str)
        if version != "1":
            raise PreconditionError(f"unsupported grid format version {version}")
        bps = []
        for ax in range(tok.field("dim", int)):
            got_ax, n = tok.field("breakpoints", int, int)
            if got_ax != ax:
                raise PreconditionError(f"breakpoints out of order in {path}")
            bps.append(tok.floats(n))
        shape = tuple(b.size - 1 for b in bps)
        mass = tok.floats(tok.field("mass", int)).reshape(shape)
        values = tok.floats(tok.field("values", int)).reshape(shape)
        power_alpha = None
        if not tok.at_end():
            gen_kind, power_alpha = tok.field("generator", str, _parse_float)
            if gen_kind != "power":
                raise PreconditionError(f"unknown generator '{gen_kind}' in {path}")
    measure = GridMeasure(tuple(bps), mass)
    weight = WeightGrid(values, power_alpha=power_alpha)
    return validate(measure, weight)
