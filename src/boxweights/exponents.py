"""Sharp self-improvement exponents for strong Muckenhoupt and Reverse Holder classes.

For p > 1 write p1 = -1/(p - 1) < 0.  Two scalar implicit equations drive
everything in this module:

  Muckenhoupt side:     (1 - s) * (1 - p1*s)**(p-1) = t     on s in [1/p1, 1]
  Reverse Holder side:  (1 - p*s)**(1/p) / (1 - s)  = t     on s <= 1/p

Both left-hand sides equal 1 at s = 0 and decay monotonically to 0 toward
the ends of their domains, so every t in (0, 1] is hit exactly once on each
side of zero.  The positive root is the "plus" branch (decreasing in t), the
nonpositive root the "minus" branch (increasing in t).

Evaluating the branches at t = 1/Q turns a characteristic bound Q > 1 into a
sharp exponent window: a weight whose box characteristic in the given class
is Q belongs to the Muckenhoupt class of every exponent q > 1 - s_minus(Q)
and to the Reverse Holder class of every exponent 1 <= q < 1 / s_plus(Q).
The windows are attained by the power weights x**alpha with alpha = -s.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import NumericFailureError, PreconditionError

#: Absolute residual target for the branch solver.
SOLVE_RESIDUAL = 1e-12
#: Iteration cap for the safeguarded Newton/bisection loop.
SOLVE_MAX_ITER = 200


class ClassKind(enum.Enum):
    """Which weight class a computation refers to."""

    MUCKENHOUPT_A = "ap"
    REVERSE_HOLDER = "rh"


class Branch(enum.Enum):
    """Solution branch of the implicit equations.

    PLUS is the decreasing branch (nonnegative roots), MINUS the increasing
    branch (nonpositive roots, unbounded below on the Reverse Holder side).
    """

    PLUS = "plus"
    MINUS = "minus"


@dataclass(frozen=True)
class PParam:
    """Integrability exponent p > 1 together with its dual p1 = -1/(p-1)."""

    p: float

    def __post_init__(self):
        if not (self.p > 1.0) or not math.isfinite(self.p):
            raise PreconditionError(f"p must be a finite number > 1, got {self.p}")

    @property
    def p1(self) -> float:
        return -1.0 / (self.p - 1.0)


def _as_pparam(p) -> PParam:
    return p if isinstance(p, PParam) else PParam(float(p))


@dataclass(frozen=True)
class SharpRange:
    """Solved exponent window for a weight of characteristic Q.

    ``a_lower`` is the infimum of admissible Muckenhoupt exponents
    (membership holds for q > a_lower), ``rh_upper`` the supremum of
    admissible Reverse Holder exponents (membership for 1 <= q < rh_upper).
    """

    kind: ClassKind
    p: PParam
    Q: float
    s_minus: float
    s_plus: float
    a_lower: float
    rh_upper: float


def implicit_value(kind: ClassKind, p, s: float) -> float:
    """Evaluate the implicit equation's left-hand side at s.

    Returns t in [0, 1] on the branch domains.  Raises PreconditionError,
    naming the offending factor, if s lies outside the domain on which both
    factors are nonnegative.
    """
    p = _as_pparam(p)
    if kind is ClassKind.MUCKENHOUPT_A:
        one_minus = 1.0 - s
        lin = 1.0 - p.p1 * s
        if one_minus < 0.0:
            raise PreconditionError(
                f"factor (1 - s) is negative at s={s}; require s <= 1"
            )
        if lin < 0.0:
            raise PreconditionError(
                f"factor (1 - p1*s) is negative at s={s}; require s >= 1/p1 = {1.0 / p.p1}"
            )
        if one_minus == 0.0 or lin == 0.0:
            return 0.0
        return one_minus * math.pow(lin, p.p - 1.0)
    one_minus_ps = 1.0 - p.p * s
    den = 1.0 - s
    if one_minus_ps < 0.0:
        raise PreconditionError(
            f"factor (1 - p*s) is negative at s={s}; require s <= 1/p = {1.0 / p.p}"
        )
    if den <= 0.0:
        raise PreconditionError(
            f"factor (1 - s) is not positive at s={s}; require s < 1"
        )
    if one_minus_ps == 0.0:
        return 0.0
    return math.pow(one_minus_ps, 1.0 / p.p) / den


def _derivative_factor(kind: ClassKind, p: PParam, s: float) -> float:
    """d/ds log(lhs): (c*s) / ((1-s)(1-c2*s)) with class-specific constants."""
    if kind is ClassKind.MUCKENHOUPT_A:
        num = (p.p1 - 1.0) * s
        den = (1.0 - s) * (1.0 - p.p1 * s)
    else:
        num = (1.0 - p.p) * s
        den = (1.0 - s) * (1.0 - p.p * s)
    if den == 0.0:
        return math.inf if num > 0 else -math.inf
    return num / den


def _bracket(kind: ClassKind, p: PParam, t: float, branch: Branch):
    """Monotone bracket [lo, hi] containing the requested root."""
    if kind is ClassKind.MUCKENHOUPT_A:
        if branch is Branch.PLUS:
            return 0.0, 1.0
        return 1.0 / p.p1, 0.0
    if branch is Branch.PLUS:
        return 0.0, 1.0 / p.p
    # Reverse Holder minus branch is unbounded below: double until the
    # implicit value falls below t.
    lo = -1.0
    while implicit_value(kind, p, lo) > t:
        lo *= 2.0
        if lo < -1e300:
            raise NumericFailureError(
                f"could not bracket the minus branch at t={t}", bracket=(lo, 0.0)
            )
    return lo, 0.0


def solve_branch(kind: ClassKind, p, t: float, branch: Branch) -> float:
    """Invert the implicit equation on the selected monotone branch.

    Returns the unique s with implicit_value(kind, p, s) == t to absolute
    residual 1e-12 whenever a double that accurate exists; for roots pinned
    exponentially close to a domain endpoint the spacing of doubles limits
    the achievable residual and the closest representable root is returned.
    t must lie in (0, 1]; t == 1 returns 0.0 exactly.  Bisection brackets
    the root, safeguarded Newton steps accelerate.
    """
    p = _as_pparam(p)
    if not (t > 0.0):
        raise PreconditionError(
            f"t must be positive, got {t}; the minus branch of the Reverse "
            "Holder equation is unbounded as t -> 0"
        )
    if t > 1.0:
        raise PreconditionError(f"t must lie in (0, 1], got {t}")
    if t == 1.0:
        return 0.0

    lo, hi = _bracket(kind, p, t, branch)
    # The implicit value decreases away from s=0 in both directions, so the
    # sign of (value - t) at the zero-side end of the bracket is positive.
    increasing = branch is Branch.MINUS  # value increases with s on [lo, 0]
    x = 0.5 * (lo + hi)
    best_x, best_res = x, math.inf
    for _ in range(SOLVE_MAX_ITER):
        fx = implicit_value(kind, p, x) - t
        if abs(fx) < best_res:
            best_x, best_res = x, abs(fx)
        if abs(fx) <= SOLVE_RESIDUAL:
            return x
        if (fx > 0.0) == increasing:
            hi = x
        else:
            lo = x
        if math.nextafter(lo, hi) >= hi:
            # Bracket collapsed to adjacent doubles.  Roots pinned against a
            # domain endpoint (e.g. the plus branch of the Reverse Holder
            # equation for large p and small t) quantize coarser than the
            # residual target; return the best representable root.
            for cand in (lo, hi):
                r = abs(implicit_value(kind, p, cand) - t)
                if r < best_res:
                    best_x, best_res = cand, r
            return best_x
        # Newton step on log-lhs: x - fx / f'(x) with f' = f * dlog.
        dlog = _derivative_factor(kind, p, x)
        f_val = fx + t
        step_ok = False
        if math.isfinite(dlog) and dlog != 0.0 and f_val > 0.0:
            xn = x - fx / (f_val * dlog)
            if lo < xn < hi:
                x = xn
                step_ok = True
        if not step_ok:
            x = 0.5 * (lo + hi)
    raise NumericFailureError(
        f"branch solve did not converge for t={t}", bracket=(lo, hi)
    )


def sharp_range(kind: ClassKind, p, Q: float) -> SharpRange:
    """Sharp exponent window for a weight with class-(kind, p) characteristic Q."""
    p = _as_pparam(p)
    if not (Q > 1.0):
        raise PreconditionError(
            f"Q must exceed 1, got {Q}; Q == 1 admits only constant weights"
        )
    t = 1.0 / Q
    s_minus = solve_branch(kind, p, t, Branch.MINUS)
    s_plus = solve_branch(kind, p, t, Branch.PLUS)
    return SharpRange(
        kind=kind,
        p=p,
        Q=Q,
        s_minus=s_minus,
        s_plus=s_plus,
        a_lower=1.0 - s_minus,
        rh_upper=1.0 / s_plus,
    )


def extremal_alpha(kind: ClassKind, p, Q: float, side: Branch) -> float:
    """Power-weight exponent alpha with x**alpha attaining characteristic Q.

    side selects which end of the window the weight saturates: MINUS gives
    the positive alpha certifying the Muckenhoupt-side bound, PLUS the
    negative alpha certifying the Reverse Holder-side bound.
    """
    p = _as_pparam(p)
    if not (Q > 1.0):
        raise PreconditionError(f"Q must exceed 1, got {Q}")
    alpha = -solve_branch(kind, p, 1.0 / Q, side)
    # The root can lie within an ulp of the edge of the domain of x**alpha,
    # where a computed factor that analytic_power_characteristic checks,
    # 1 + alpha and 1 + alpha*p1 (ap) or 1 + alpha*p (rh), is not positive:
    # step toward 0 an ulp at a time until every factor is.
    factors = (1.0, p.p1) if kind is ClassKind.MUCKENHOUPT_A else (p.p,)
    while not all(1.0 + alpha * f > 0.0 for f in factors):
        alpha = math.nextafter(alpha, 0.0)
    return alpha


def analytic_power_characteristic(kind: ClassKind, p, alpha: float) -> float:
    """Closed-form characteristic of w(x) = x**alpha on intervals [0, h].

    Averaging x**beta over [0, h] gives h**beta / (1 + beta), so the interval
    length cancels from the characteristic and the supremum is attained at
    every interval touching the origin.
    """
    p = _as_pparam(p)
    # validity is checked on the computed factors: the alpha window bounds
    # are equivalent in real arithmetic but the products can round onto -1
    if kind is ClassKind.MUCKENHOUPT_A:
        if not 1.0 + alpha > 0.0:
            raise PreconditionError(
                f"alpha={alpha}: integral of x**alpha diverges at 0"
            )
        if not 1.0 + alpha * p.p1 > 0.0:
            raise PreconditionError(
                f"alpha={alpha}: integral of x**(alpha*p1) diverges at 0 "
                f"(alpha*p1 <= -1 for alpha >= p-1 = {p.p - 1.0})"
            )
        return math.exp(
            -math.log1p(alpha) - (p.p - 1.0) * math.log1p(alpha * p.p1)
        )
    if not 1.0 + alpha * p.p > 0.0:
        raise PreconditionError(
            f"alpha={alpha}: integral of x**(alpha*p) diverges at 0 "
            f"(require alpha > -1/p = {-1.0 / p.p})"
        )
    return math.exp(math.log1p(alpha) - math.log1p(alpha * p.p) / p.p)


def admissible_r_ranges(kind: ClassKind, p, Q: float):
    """Exponent intervals on which a candidate verification is meaningful.

    Returns two (lo, hi, lo_open, hi_open) tuples: the negative window
    reaching down to 1/s_minus and the window of exponents >= 1.
    """
    p = _as_pparam(p)
    rng = sharp_range(kind, p, Q)
    if kind is ClassKind.MUCKENHOUPT_A:
        return (
            (1.0 / rng.s_minus, p.p1, True, False),
            (1.0, 1.0 / rng.s_plus, False, True),
        )
    return (
        (1.0 / rng.s_minus, 1.0, True, False),
        (p.p, 1.0 / rng.s_plus, False, True),
    )


def r_is_admissible(kind: ClassKind, p, Q: float, r: float) -> bool:
    for lo, hi, lo_open, hi_open in admissible_r_ranges(kind, p, Q):
        above = r > lo if lo_open else r >= lo
        below = r < hi if hi_open else r <= hi
        if above and below:
            return True
    return False
