"""Admissible average-pair regions and Bellman-candidate verification.

The average pair (x1, x2) = (<w>_R, <w**s>_R) of any positive-measure box
lies in the band {1 <= gauge(x1, x2) <= Q} once the weight's characteristic
is at most Q; the lower boundary gauge == 1 is the curve x2 = x1**p1
(Muckenhoupt, s = p1) or x2 = x1**p (Reverse Holder, s = p), attained by
constants.  For the Reverse Holder class the gauge is x2**(1/p) / x1: with
x2 the average of w**p Jensen forces x2**(1/p) >= x1, so the band sits above
the power curve just as in the Muckenhoupt case.

A candidate function B on the band is useful when it is concave along every
straight segment contained in the band (the band is not convex, so this is
weaker than concavity), matches x1**r on the lower boundary and is bounded
by a multiple of x1**r.  The verifier samples random in-band segments and
checks midpoint and quarter-point concavity, measures the boundary error on
a lattice, and reports the empirical growth constant sup B / x1**r.
Candidates are externally supplied tables (bilinear interpolation on a
lattice uniform in log coordinates) or trivial built-ins.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .characteristics import characteristic, pair_gauge
from .errors import CandidateDomainError, PreconditionError
from .exponents import ClassKind, PParam, _as_pparam, r_is_admissible
from .grids import GridMeasure, PrefixTables, WeightGrid, _atomic_write, _parse_float
from .grids import _TokenReader, _wrap_floats, refine
from .splitting import DEFAULT_SEGMENT_SAMPLES, _out_of_band, _samples, segment_maxima

DEFAULT_VERIFY_SEGMENTS = 200
DEFAULT_VERIFY_TOL = 1e-9
DEFAULT_X1_RANGE = (0.1, 10.0)
# boundary lattice points of a verification run
BOUNDARY_POINTS = 129
# weights lam of the points lam*a + (1-lam)*b checked on each segment
QUARTER_POINTS = (0.25, 0.5, 0.75)
# most attempts the segment sampling draws at once
SAMPLING_CHUNK = 1024
DEFAULT_STABILITY_RTOL = 0.01
# increment ratio at or above which an increasing ladder is divergent
CONTRACTION_THRESHOLD = 0.85
DEFAULT_REFINE_FACTOR = 4
DEFAULT_REFINE_LEVELS = 3
# log-coordinate margin of a tabulated candidate's lattice around the band
TABLE_PAD = 0.05


class Membership(enum.Enum):
    INSIDE = "inside"
    BELOW = "below"
    ABOVE = "above"


@dataclass(frozen=True)
class AveragePairRegion:
    """Band of admissible average pairs for characteristic bound Q."""

    kind: ClassKind
    p: PParam
    Q: float

    def __post_init__(self):
        object.__setattr__(self, "p", _as_pparam(self.p))
        if not self.Q > 1.0:
            raise PreconditionError(f"Q must exceed 1, got {self.Q}")

    def gauge(self, x1, x2):
        return pair_gauge(self.kind, self.p, x1, x2)

    def lower_boundary_x2(self, x1):
        """x2 on the gauge == 1 curve for the given x1."""
        if self.kind is ClassKind.MUCKENHOUPT_A:
            return x1 ** self.p.p1
        return x1 ** self.p.p

    def x2_at_gauge(self, x1, g):
        """x2 with gauge(x1, x2) == g; used to sample the band."""
        if self.kind is ClassKind.MUCKENHOUPT_A:
            return (g / x1) ** (1.0 / (self.p.p - 1.0))
        return (g * x1) ** self.p.p


def membership(region: AveragePairRegion, x1: float, x2: float) -> Membership:
    """Classify a point against the band with 1e-12 boundary slack."""
    if not (x1 > 0.0 and x2 > 0.0):
        raise PreconditionError(f"coordinates must be positive, got ({x1}, {x2})")
    g = region.gauge(x1, x2)
    if g < 1.0 - 1e-12:
        return Membership.BELOW
    if g > region.Q * (1.0 + 1e-12):
        return Membership.ABOVE
    return Membership.INSIDE


# ----------------------------------------------------------------------
# Candidates.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CandidateTable:
    """Values on a lattice uniform in (log x1, log x2), bilinear interpolation."""

    xi: np.ndarray
    eta: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=np.float64)
        eta = np.asarray(self.eta, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if xi.ndim != 1 or eta.ndim != 1 or values.shape != (xi.size, eta.size):
            raise PreconditionError("candidate table shape mismatch")
        if xi.size < 2 or eta.size < 2:
            raise PreconditionError("candidate table needs at least 2 nodes per axis")
        if not (np.all(np.diff(xi) > 0) and np.all(np.diff(eta) > 0)):
            raise PreconditionError("candidate lattice must be strictly increasing")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise PreconditionError("candidate values must be finite and nonnegative")
        for arr in (xi, eta, values):
            arr.setflags(write=False)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "values", values)

    def __call__(self, x1, x2):
        """Values at the points (x1, x2), elementwise on broadcast arrays.

        A CandidateDomainError names the first point outside the lattice in
        C order of the broadcast shape.
        """
        xi = np.log(x1)
        eta = np.log(x2)
        outside = (xi < self.xi[0]) | (xi > self.xi[-1]) | (eta < self.eta[0]) | (eta > self.eta[-1])
        if np.any(outside):
            k = int(np.argmax(outside.reshape(-1)))
            bad = tuple(float(x.reshape(-1)[k]) for x in np.broadcast_arrays(x1, x2))
            raise CandidateDomainError(bad, f"point outside tabulated lattice: {bad}")
        i = np.clip(np.searchsorted(self.xi, xi, side="right") - 1, 0, self.xi.size - 2)
        j = np.clip(np.searchsorted(self.eta, eta, side="right") - 1, 0, self.eta.size - 2)
        t = (xi - self.xi[i]) / (self.xi[i + 1] - self.xi[i])
        u = (eta - self.eta[j]) / (self.eta[j + 1] - self.eta[j])
        v00 = self.values[i, j]
        v10 = self.values[i + 1, j]
        v01 = self.values[i, j + 1]
        v11 = self.values[i + 1, j + 1]
        return (
            v00 * (1 - t) * (1 - u)
            + v10 * t * (1 - u)
            + v01 * (1 - t) * u
            + v11 * t * u
        )


@dataclass(frozen=True)
class BellmanCandidate:
    """Candidate function with its metadata and evaluation backend."""

    kind: ClassKind
    p: PParam
    r: float
    Q: float
    source: str
    _impl: object = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "p", _as_pparam(self.p))

    def evaluate(self, x1, x2):
        return self._impl(x1, x2)

    @property
    def table(self) -> CandidateTable | None:
        return self._impl if isinstance(self._impl, CandidateTable) else None

    @classmethod
    def linear(cls, kind: ClassKind, p, Q: float) -> "BellmanCandidate":
        """B(x1, x2) = x1: affine, boundary-exact for r = 1, growth constant 1."""
        return cls(kind=kind, p=p, r=1.0, Q=Q, source="builtin:linear", _impl=lambda x1, x2: x1)

    @classmethod
    def power(cls, kind: ClassKind, p, r: float, Q: float) -> "BellmanCandidate":
        """B(x1, x2) = x1**r: boundary-exact but convex along x2-constant lines
        for r outside [0, 1]; the standard negative control."""
        return cls(
            kind=kind,
            p=p,
            r=r,
            Q=Q,
            source=f"builtin:power:{r!r}",
            _impl=lambda x1, x2: _python_power(x1, r),
        )

    @classmethod
    def from_table(
        cls, kind: ClassKind, p, r: float, Q: float, table: CandidateTable, source="table"
    ) -> "BellmanCandidate":
        return cls(kind=kind, p=p, r=r, Q=Q, source=source, _impl=table)


def _python_power(x, r: float):
    """x**r by Python's float power, elementwise on arrays.

    np.power can differ from it in the last place, and so move c_hat
    between an array call and a call per point.
    """
    if np.ndim(x) == 0:
        return float(x) ** r
    x = np.asarray(x, dtype=np.float64)
    return np.array([v**r for v in x.reshape(-1).tolist()], dtype=np.float64).reshape(x.shape)


def builtin_candidate(spec: str, kind: ClassKind, p, Q: float) -> BellmanCandidate:
    """Parse 'builtin:linear' or 'builtin:power:<r>'."""
    parts = spec.split(":")
    if parts[0] != "builtin":
        raise PreconditionError(f"not a builtin candidate spec: {spec}")
    if parts[1] == "linear":
        return BellmanCandidate.linear(kind, p, Q)
    if parts[1] == "power":
        if len(parts) != 3:
            raise PreconditionError("builtin:power needs an exponent, e.g. builtin:power:1.3")
        return BellmanCandidate.power(kind, p, float(parts[2]), Q)
    raise PreconditionError(f"unknown builtin candidate '{spec}'")


def tabulate_candidate(
    fn,
    kind: ClassKind,
    p,
    r: float,
    Q: float,
    x1_range: tuple[float, float],
    n1: int,
    n2: int,
    source: str = "table",
) -> BellmanCandidate:
    """Sample fn on a log-log lattice covering the band over x1_range.

    fn must be defined on the padded bounding rectangle of the band (a
    smooth extension beyond the band suffices); it is evaluated vectorized
    on the node meshgrid.
    """
    p = _as_pparam(p)
    region = AveragePairRegion(kind, p, Q)
    xi0, xi1 = math.log(x1_range[0]) - TABLE_PAD, math.log(x1_range[1]) + TABLE_PAD
    corners = []
    for xi in (xi0, xi1):
        for g in (1.0, Q):
            corners.append(math.log(region.x2_at_gauge(math.exp(xi), g)))
    eta0, eta1 = min(corners) - TABLE_PAD, max(corners) + TABLE_PAD
    xi = np.linspace(xi0, xi1, n1)
    eta = np.linspace(eta0, eta1, n2)
    x1g, x2g = np.meshgrid(np.exp(xi), np.exp(eta), indexing="ij")
    values = np.asarray(fn(x1g, x2g), dtype=np.float64)
    table = CandidateTable(xi=xi, eta=eta, values=values)
    return BellmanCandidate.from_table(kind, p, r, Q, table, source=source)


# ----------------------------------------------------------------------
# Candidate file format (token stream, same float conventions as grids).
# ----------------------------------------------------------------------


def write_candidate(path, cand: BellmanCandidate) -> None:
    table = cand.table
    if table is None:
        raise PreconditionError("only tabulated candidates can be written to a file")
    _atomic_write(path, _candidate_pieces(cand, table))


def _candidate_pieces(cand: BellmanCandidate, table: CandidateTable):
    yield "\n".join([
        "# boxweights bellman candidate v1",
        "candidate 1",
        f"class {cand.kind.value}",
        f"p {cand.p.p!r}",
        f"r {cand.r!r}",
        f"Q {cand.Q!r}",
        f"x1grid {table.xi.size} {float(table.xi[0])!r} {float(table.xi[-1])!r}",
        f"x2grid {table.eta.size} {float(table.eta[0])!r} {float(table.eta[-1])!r}",
        f"values {table.values.size}\n",
    ])
    yield from _wrap_floats(table.values)


def read_candidate(path) -> BellmanCandidate:
    with _TokenReader(path, "candidate") as tok:
        if tok.field("candidate", str) != "1":
            raise PreconditionError(f"unsupported candidate format version in {path}")
        kind = tok.field("class", ClassKind)
        p = PParam(tok.field("p", _parse_float))
        r = tok.field("r", _parse_float)
        Q = tok.field("Q", _parse_float)
        n1, xi0, xi1 = tok.field("x1grid", int, _parse_float, _parse_float)
        n2, eta0, eta1 = tok.field("x2grid", int, _parse_float, _parse_float)
        count = tok.field("values", int)
        if count != n1 * n2:
            raise PreconditionError(f"candidate value count mismatch in {path}")
        values = tok.floats(count).reshape(n1, n2)
    table = CandidateTable(
        xi=np.linspace(xi0, xi1, n1), eta=np.linspace(eta0, eta1, n2), values=values
    )
    return BellmanCandidate.from_table(kind, p, r, Q, table, source=f"table:{path}")


# ----------------------------------------------------------------------
# Verification.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ConcavityViolation:
    x_a: tuple[float, float]
    x_b: tuple[float, float]
    lam: float
    deficit: float


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a candidate verification run.

    verdict is True iff no concavity violation beyond tolerance was found,
    the growth constant is finite and every queried point was inside the
    candidate's domain.  The boundary error is reported but does not gate
    the verdict; tests assert it separately where relevant.
    """

    kind: ClassKind
    p: float
    r: float
    Q: float
    segments_tested: int
    violations: tuple[ConcavityViolation, ...]
    boundary_max_error: float
    boundary_argmax_x1: float
    c_hat: float
    c_hat_point: tuple[float, float]
    rel_tol: float
    seed: int
    verdict: bool
    failure_point: tuple[float, float] | None = None


def verify_candidate(
    region: AveragePairRegion,
    candidate,
    r: float,
    segments: int = DEFAULT_VERIFY_SEGMENTS,
    seed: int = 0,
    rel_tol: float = DEFAULT_VERIFY_TOL,
    x1_range: tuple[float, float] = DEFAULT_X1_RANGE,
) -> VerificationReport:
    """Check segment concavity, boundary values and growth of a candidate.

    Random segments are drawn with both endpoints in the band (x1 uniform in
    log over x1_range, gauge uniform in [1, Q]) and kept only if the sampled
    gauge maximum along the segment stays at most Q; the gauge >= 1 side is
    automatic because the region above the boundary power curve is convex.
    Midpoint and quarter-point concavity deficits beyond rel_tol * scale are
    violations.  Deterministic for a fixed seed.

    The candidate, a BellmanCandidate or a plain callable (x1, x2) -> value,
    is called on arrays and must work elementwise: one call takes the
    endpoints, the quarter points and the midpoint of every segment, a, b,
    m.25, m.5, m.75 per segment, then the BOUNDARY_POINTS boundary lattice.
    A CandidateDomainError must name the first point of the call outside
    the domain.  That point, or an earlier one where the value is not
    finite, is the report's failure_point, and the violations are those
    found at the points before it.  The report is the one of evaluating the
    points one at a time in that order.

    A PreconditionError refuses, before any draw, an x1_range not 0 < low
    <= high, or where x1**r or the x2 of gauge 1 or Q is not a positive
    double at an end: both are monotone, so the ends bound every point.
    """
    p = region.p
    if not r_is_admissible(region.kind, p, region.Q, r):
        raise PreconditionError(
            f"r={r} lies outside the admissible exponent windows for "
            f"{region.kind.value} with p={p.p}, Q={region.Q}"
        )
    evaluate = candidate.evaluate if hasattr(candidate, "evaluate") else candidate
    if not 0.0 < x1_range[0] <= x1_range[1]:
        raise PreconditionError(f"x1 range {x1_range} must satisfy 0 < low <= high")
    log_lo, log_hi = math.log(x1_range[0]), math.log(x1_range[1])
    try:  # x1**r and x2_at_gauge are monotone: the ends bound every point
        ends = [math.exp(log_lo), math.exp(log_hi)]
        x2_ends = [float(region.x2_at_gauge(x, g)) for x in ends for g in (1.0, region.Q)]
        ok = all(0.0 < v < math.inf for v in x2_ends + [x**r for x in ends])
    except ArithmeticError:  # a Python float power or exp that overflows
        ok = False
    if not ok:
        raise PreconditionError(
            f"x1 range {x1_range} takes x1**{r!r} or the x2 of gauge 1 or Q={region.Q!r} "
            "beyond the positive doubles; narrow the x1 range"
        )
    pairs = _sample_segments(region, segments, np.random.default_rng(seed), log_lo, log_hi)

    # The points in evaluation order: a, b and the quarter points of each
    # segment as the rows of (segments, 5) arrays, then the boundary lattice.
    ends = np.array(pairs).reshape(-1, 4)
    lams = np.array(QUARTER_POINTS)

    def on_segments(a, b):
        return np.column_stack([a, b, lams * a[:, None] + (1.0 - lams) * b[:, None]]).ravel()

    bx1 = np.exp(np.linspace(log_lo, log_hi, BOUNDARY_POINTS))
    bx2 = np.array([float(region.lower_boundary_x2(x)) for x in bx1.tolist()])
    x1 = np.concatenate([on_segments(ends[:, 0], ends[:, 2]), bx1])
    x2 = np.concatenate([on_segments(ends[:, 1], ends[:, 3]), bx2])
    n_seg = 5 * len(pairs)
    values, failure_point = _values_before_failure(evaluate, x1, x2)

    # Points at and after a failure are NaN, which no deficit test passes.
    seg_values = np.full(n_seg, np.nan)
    seg_values[: min(values.size, n_seg)] = values[:n_seg]
    va, vb, vm = np.split(seg_values.reshape(-1, 5), [1, 2], axis=1)
    deficits = lams * va + (1.0 - lams) * vb - vm
    scales = np.maximum(np.maximum(np.maximum(1.0, np.abs(va)), np.abs(vb)), np.abs(vm))
    violations = tuple(
        ConcavityViolation(
            x_a=pairs[i][:2], x_b=pairs[i][2:], lam=QUARTER_POINTS[j], deficit=float(deficits[i, j])
        )
        for i, j in zip(*np.nonzero(deficits > rel_tol * scales))
    )

    boundary_err, boundary_arg = math.inf, math.nan
    c_hat, c_hat_point = math.inf, (math.nan, math.nan)
    if failure_point is None:
        errors = np.abs(values[n_seg:] - np.array([x**r for x in bx1.tolist()]))
        k = _first_max(errors, 0.0)
        boundary_err, boundary_arg = (0.0, math.nan) if k is None else (float(errors[k]), float(bx1[k]))
        # growth ratios by Python's float power, as one point at a time
        ratios = np.array([v / x**r for v, x in zip(values.tolist(), x1.tolist())])
        k = _first_max(ratios, -math.inf)
        if k is None:
            c_hat, c_hat_point = -math.inf, (math.nan, math.nan)
        else:
            c_hat, c_hat_point = float(ratios[k]), (float(x1[k]), float(x2[k]))

    return VerificationReport(
        kind=region.kind,
        p=p.p,
        r=r,
        Q=region.Q,
        segments_tested=len(pairs),
        violations=violations,
        boundary_max_error=boundary_err,
        boundary_argmax_x1=boundary_arg,
        c_hat=c_hat,
        c_hat_point=c_hat_point,
        rel_tol=rel_tol,
        seed=seed,
        verdict=not violations and math.isfinite(c_hat),
        failure_point=failure_point,
    )


def _sample_segments(region, segments, rng, log_lo, log_hi) -> list[tuple[float, float, float, float]]:
    """Endpoints (a.x1, a.x2, b.x1, b.x2) of ``segments`` in-band segments.

    Attempt k draws a and then b from rng, each as x1 = exp(uniform(log_lo,
    log_hi)) and then a gauge uniform in [1, Q], with math.exp and
    x2_at_gauge in Python floats; it keeps the segment if segment_max is at
    most Q.  Attempts run in chunks: a segment with one of its peak samples
    above Q (splitting._out_of_band) is dropped, and the others go to one
    segment_maxima call, which equals segment_max bit for bit.  Past 1000 *
    segments attempts the sampling stalls, at the attempt where it stalls
    one attempt at a time.
    verify_candidate has made sure that every coordinate drawn is positive.
    """
    lows = np.array([log_lo, 1.0, log_lo, 1.0])
    highs = np.array([log_hi, region.Q, log_hi, region.Q])
    lam = _samples(DEFAULT_SEGMENT_SAMPLES)
    limit = 1000 * segments
    pairs, attempts = [], 0
    while len(pairs) < segments:
        if attempts >= limit:
            raise PreconditionError("segment rejection sampling stalled; check Q and x1_range")
        need = segments - len(pairs)
        # the attempts the rest needs at the acceptance rate so far, and some slack
        size = min(need * (attempts + 1) // (len(pairs) + 1) + 16, SAMPLING_CHUNK, limit - attempts)
        drawn = []
        for la, ga, lb, gb in rng.uniform(lows, highs, (size, 4)).tolist():
            a1, b1 = math.exp(la), math.exp(lb)
            drawn.append((a1, float(region.x2_at_gauge(a1, ga)), b1, float(region.x2_at_gauge(b1, gb))))
        ends = np.array(drawn).T
        with np.errstate(all="ignore"):
            kept = np.flatnonzero(~_out_of_band(lam, *ends, region.kind, region.p, region.Q))
            inside = kept[segment_maxima(lam, *ends[:, kept], region.kind, region.p) <= region.Q]
        pairs.extend(drawn[k] for k in inside[:need].tolist())
        attempts += size
    return pairs


def _values_before_failure(evaluate, x1, x2):
    """Candidate values at the points before the first one outside its domain.

    A point is outside where a CandidateDomainError names it or where the
    value is not finite.  Returns the values and the first point outside,
    or None.  The points before a named one are evaluated again in one call.
    """
    n, failure_point = x1.size, None
    while n:
        try:
            values = np.broadcast_to(np.asarray(evaluate(x1[:n], x2[:n]), dtype=np.float64), (n,))
        except CandidateDomainError as exc:
            failure_point = exc.point
            named = np.flatnonzero((x1[:n] == exc.point[0]) & (x2[:n] == exc.point[1]))
            n = int(named[0]) if named.size else 0
            continue
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            n = int(bad[0])
            return values[:n], (float(x1[n]), float(x2[n]))
        return values, failure_point
    return np.empty(0), failure_point


def _first_max(x: np.ndarray, floor: float) -> int | None:
    """Index of the first maximum of x above floor, NaN never counting, or None.

    It is the index a running ``if v > best`` scan from best = floor ends on.
    """
    above = np.where(x > floor, x, floor)
    return int(np.argmax(above)) if np.any(above > floor) else None


# ----------------------------------------------------------------------
# End-to-end membership trend probe.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TrendReport:
    """Refinement trend of a q-class characteristic.

    verdict is 'stabilizing' when the increment sequence contracts (or the
    final relative gap is already below stability_rtol), 'divergent-trend'
    when the values increase strictly without contraction, 'inconclusive'
    otherwise.  The raw values and gaps are included so callers can apply
    stricter criteria of their own.
    """

    kind: ClassKind
    p: float
    Q: float
    probe_kind: ClassKind
    q: float
    cell_counts: tuple[int, ...]
    values: tuple[float, ...]
    rel_gaps: tuple[float, ...]
    increment_ratios: tuple[float, ...]
    last_gap: float
    contraction: float | None
    stabilized_within: bool
    verdict: str
    stability_rtol: float


def refinement_gaps(values) -> tuple[list[float], list[float]]:
    """Relative gaps and increment ratios of a refinement ladder of values v.

    With increments d_i = v_{i+1} - v_i, the gaps are |d_i| / |v_i| and the
    ratios d_{i+1} / d_i over nonzero d_i.
    """
    diffs = [b - a for a, b in zip(values, values[1:])]
    rel_gaps = [abs(d) / abs(v) for d, v in zip(diffs, values)]
    ratios = [d2 / d1 for d1, d2 in zip(diffs, diffs[1:]) if d1 != 0.0]
    return rel_gaps, ratios


def theorem_conclusion_check(
    measure: GridMeasure,
    weight: WeightGrid,
    kind: ClassKind,
    p,
    q: float,
    Q: float,
    probe_kind: ClassKind | None = None,
    refine_factor: int = DEFAULT_REFINE_FACTOR,
    levels: int = DEFAULT_REFINE_LEVELS,
    stability_rtol: float = DEFAULT_STABILITY_RTOL,
) -> TrendReport:
    """Probe q-class membership across grid refinements.

    Checks first that the weight's (kind, p) characteristic on the base grid
    is at most Q, then tracks the probe-class q-characteristic over
    successive refinements (power-law grids are regenerated exactly).
    """
    p = _as_pparam(p)
    probe = probe_kind if probe_kind is not None else kind
    # One table set for the base grid serves the base and the level-0 scan.
    tables = PrefixTables(measure, weight)
    base = characteristic(measure, weight, kind, p.p, tables)
    if not base.value <= Q * (1.0 + 1e-9):
        raise PreconditionError(
            f"base characteristic {base.value} exceeds the hypothesis bound Q={Q}"
        )
    values = []
    counts = []
    cur_m, cur_w = measure, weight
    for level in range(levels + 1):
        rep = characteristic(cur_m, cur_w, probe, q, tables if level == 0 else None)
        values.append(rep.value)
        counts.append(int(np.prod(cur_m.shape)))
        if level < levels:
            cur_m, cur_w = refine(cur_m, cur_w, refine_factor)
    rel_gaps, ratios = refinement_gaps(values)
    last_gap = rel_gaps[-1] if rel_gaps else 0.0
    contraction = ratios[-1] if ratios else None
    increasing = all(b > a for a, b in zip(values, values[1:]))
    stabilized = last_gap <= stability_rtol
    if stabilized:
        verdict = "stabilizing"
    elif increasing and contraction is not None and contraction >= CONTRACTION_THRESHOLD:
        verdict = "divergent-trend"
    elif contraction is not None and contraction < CONTRACTION_THRESHOLD:
        verdict = "stabilizing"
    else:
        verdict = "inconclusive"
    return TrendReport(
        kind=kind,
        p=p.p,
        Q=Q,
        probe_kind=probe,
        q=q,
        cell_counts=tuple(counts),
        values=tuple(values),
        rel_gaps=tuple(rel_gaps),
        increment_ratios=tuple(ratios),
        last_gap=last_gap,
        contraction=contraction,
        stabilized_within=stabilized,
        verdict=verdict,
        stability_rtol=stability_rtol,
    )
