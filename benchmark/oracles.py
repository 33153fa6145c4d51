"""Independent checkers for the benchmark's outputs.

Nothing here calls into boxweights.  Box sums are plain ``math.fsum`` over
the cells, closed forms are written out from the power-weight integrals,
and every checker returns a list of error strings (empty when the result is
right), so that the self-test can feed corrupted results and see them
rejected.  The per-box value formula is the one the program documents,
evaluated with ``np.power`` on float64 scalars, so a correctly rounded box
sum must give the program's value bit for bit.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

AP, RH = "ap", "rh"


# ----------------------------------------------------------------------
# Box sums and values.
# ----------------------------------------------------------------------


def second_exponent(kind: str, q: float) -> float:
    return -1.0 / (q - 1.0) if kind == AP else q


def moment(mass: np.ndarray, values: np.ndarray, s: float) -> np.ndarray:
    """Cell masses of w**s dmu, as the program documents them."""
    return mass * np.power(values, s)


def box_sum(cells: np.ndarray, box) -> float:
    return math.fsum(cells[tuple(slice(a, b) for a, b in box)].reshape(-1).tolist())


def value_of(kind: str, q: float, m: float, sw: float, ss: float) -> float:
    if kind == AP:
        return float((sw / m) * np.power(np.float64(ss / m), q - 1.0))
    return float(np.power(np.float64(ss / m), 1.0 / q) / (sw / m))


class Grid:
    """Mass and weight arrays with the fsum-side moment cells of one scan."""

    def __init__(self, mass, values, kind: str, q: float):
        self.mass = np.asarray(mass, dtype=np.float64)
        self.values = np.asarray(values, dtype=np.float64)
        self.kind, self.q = kind, q
        self.w = moment(self.mass, self.values, 1.0)
        self.s = moment(self.mass, self.values, second_exponent(kind, q))

    def box_value(self, box) -> float:
        m = box_sum(self.mass, box)
        return value_of(self.kind, self.q, m, box_sum(self.w, box), box_sum(self.s, box))


def all_boxes(shape):
    """Every box of whole cells, in the lexicographic order the program scans."""
    per_axis = [[(a, b) for a in range(n) for b in range(a + 1, n + 1)] for n in shape]
    return product(*per_axis)


def box_count(shape) -> int:
    return math.prod(n * (n + 1) // 2 for n in shape)


def brute_force(grid: Grid):
    """Exhaustive supremum: (value, argmax ranges, boxes with positive mass)."""
    best, best_box, count = -math.inf, None, 0
    for box in all_boxes(grid.mass.shape):
        if box_sum(grid.mass, box) == 0.0:
            continue
        count += 1
        v = grid.box_value(box)
        if v > best:
            best, best_box = v, box
    return best, best_box, count


def random_box(rng: np.random.Generator, shape):
    box = []
    for n in shape:
        a, b = sorted(int(x) for x in rng.choice(n + 1, size=2, replace=False))
        box.append((a, b))
    return tuple(box)


def check_scan(grid: Grid, value: float, argmax, count: int, rng, samples: int = 64,
               exhaustive: bool = False) -> list[str]:
    """Count, argmax value bit for bit, a seeded box sample, and optionally all boxes."""
    errors = []
    shape = grid.mass.shape
    if count != box_count(shape):
        errors.append(f"boxes_scanned {count} != {box_count(shape)} for shape {shape}")
    if argmax is None or len(argmax) != len(shape):
        return errors + [f"argmax {argmax} is not a box of a grid of shape {shape}"]
    if any(not 0 <= a < b <= n for (a, b), n in zip(argmax, shape)):
        return errors + [f"argmax {argmax} lies outside shape {shape}"]
    at = grid.box_value(argmax)
    if at != value:
        errors.append(f"value {value!r} != {at!r} recomputed at argmax {argmax}")
    for _ in range(samples):
        box = random_box(rng, shape)
        v = grid.box_value(box)
        if v > value:
            errors.append(f"box {box} has value {v!r} above the reported {value!r}")
            break
    if exhaustive:
        best, best_box, n = brute_force(grid)
        if (best, best_box, n) != (value, tuple(argmax), count):
            errors.append(
                f"brute force gives {best!r} at {best_box} over {n} boxes, "
                f"scan gave {value!r} at {argmax} over {count}"
            )
    return errors


def product_tolerance(kind: str, q: float, factors: int) -> float:
    """Relative rounding bound between an n-D value and the product of n 1-D values.

    One value takes three correctly rounded box sums (u each, u = 2**-53),
    two quotients and one product (u each) and a pow whose base error is
    scaled by its exponent e, plus 2u for pow itself: (6 + 3e) u.  The n-D
    value and the n factors contribute that each, the n - 1 products u.
    """
    e = q - 1.0 if kind == AP else 1.0 / q
    return ((factors + 1) * (6.0 + 3.0 * e) + factors - 1) * 2.0**-53


def same_within_ulps(a: float, b: float, ulps: int) -> bool:
    return abs(a - b) <= ulps * math.ulp(max(abs(a), abs(b)))


# ----------------------------------------------------------------------
# Power weights x**alpha on [0, 1] with exact cell averages.
# ----------------------------------------------------------------------


def power_closed_form(kind: str, q: float, alpha: float) -> float:
    """Continuum characteristic of x**alpha: averages over [0, h] are h**b/(1+b)."""
    if kind == AP:
        q1 = -1.0 / (q - 1.0)
        return 1.0 / ((1.0 + alpha) * (1.0 + alpha * q1) ** (q - 1.0))
    return (1.0 + alpha) / (1.0 + alpha * q) ** (1.0 / q)


def critical_envelope(alpha: float, n: int) -> tuple[float, float]:
    """Bounds on the A_{1+alpha} characteristic of the N-cell power grid, alpha <= 1.

    Lower: the full box, by concavity of x**alpha.  Upper: (c + ln N)**alpha
    over (1 + alpha), by convexity of t**(-1/alpha); c = (1+alpha)**(1/alpha).
    """
    c = (1.0 + alpha) ** (1.0 / alpha)
    harmonic = math.fsum(1.0 / (j - 0.5) for j in range(2, n + 1))
    return (c + harmonic) ** alpha / (1.0 + alpha), (c + math.log(n)) ** alpha / (1.0 + alpha)


def check_ladder(name: str, values, rel: float = 1e-12) -> list[str]:
    """Refinement ladders on nested grids cannot decrease (Jensen in each coarse cell)."""
    return [
        f"{name}: value falls from {a!r} to {b!r} between ladder steps {i} and {i + 1}"
        for i, (a, b) in enumerate(zip(values, values[1:]))
        if b < a * (1.0 - rel)
    ]


# ----------------------------------------------------------------------
# Grid files, prefix tables and split trees.
# ----------------------------------------------------------------------


def check_same_arrays(name: str, want, got) -> list[str]:
    errors = []
    for i, (a, b) in enumerate(zip(want, got)):
        a, b = np.asarray(a), np.asarray(b)
        if a.shape != b.shape or a.tobytes() != b.tobytes():
            errors.append(f"{name}: array {i} differs after the round trip")
    if len(want) != len(got):
        errors.append(f"{name}: {len(got)} arrays read back, {len(want)} written")
    return errors


def check_tables(name: str, cells: dict, query, rng, samples: int) -> list[str]:
    """query(s, box) is the program's box sum; cells maps s to the fsum-side cells."""
    errors = []
    for s, arr in cells.items():
        for _ in range(samples):
            box = random_box(rng, arr.shape)
            want, got = box_sum(arr, box), query(s, box)
            if want != got:
                errors.append(f"{name}: s={s} box {box} sum {got!r} != fsum {want!r}")
                break
    return errors


def gauge(kind: str, p: float, x1, x2):
    if kind == AP:
        return x1 * x2 ** (p - 1.0)
    return x2 ** (1.0 / p) / x1


def check_tree(tree: dict, mass, values, kind: str, p: float, c: float, q1: float,
               samples: int) -> list[str]:
    """Level partitions, ratios against fsum masses, points and segment maxima.

    tree["levels"] holds, per level, one dict per node with its box and,
    for split nodes, axis, split_index, ratio, segment_max and point.
    """
    errors = []
    mass = np.asarray(mass)
    s2 = -1.0 / (p - 1.0) if kind == AP else p
    w, ws = moment(mass, values, 1.0), moment(mass, values, s2)

    def point(box):
        m = box_sum(mass, box)
        return m, (box_sum(w, box) / m, box_sum(ws, box) / m)

    for level, nodes in enumerate(tree["levels"]):
        cover = np.zeros(mass.shape, dtype=np.int64)
        for node in nodes:
            cover[tuple(slice(a, b) for a, b in node["box"])] += 1
        if not np.all(cover == 1):
            errors.append(
                f"level {level}: leaves do not partition the root "
                f"({int(np.sum(cover == 0))} cells uncovered, {int(np.sum(cover > 1))} covered twice)"
            )
        for node in nodes:
            if node.get("ratio") is None:
                continue
            box, ax, k = node["box"], node["axis"], node["split_index"]
            left = tuple((a, k) if i == ax else (a, b) for i, (a, b) in enumerate(box))
            right = tuple((k, b) if i == ax else (a, b) for i, (a, b) in enumerate(box))
            total, own = point(box)
            ratio = box_sum(mass, left) / total
            if not c < node["ratio"] < 1.0 - c or node["ratio"] != ratio:
                errors.append(f"node {box}: ratio {node['ratio']!r}, fsum ratio {ratio!r}, window ({c}, {1 - c})")
            if tuple(node["point"]) != own:
                errors.append(f"node {box}: point {node['point']} != fsum averages {own}")
            (_, xl), (_, xr) = point(left), point(right)
            lam = np.linspace(0.0, 1.0, samples)
            seg = gauge(kind, p, lam * xl[0] + (1.0 - lam) * xr[0], lam * xl[1] + (1.0 - lam) * xr[1])
            smax = float(np.max(seg))
            if not smax <= q1 or not same_within_ulps(smax, node["segment_max"], 8):
                errors.append(f"node {box}: segment max {node['segment_max']!r}, recomputed {smax!r}, Q1 {q1!r}")
    return errors


def check_linear_chain(s_values, mass, values, rel: float = 1e-13) -> list[str]:
    """With B(x1, x2) = x1 every level's mass-weighted sum is the root average of w."""
    avg = math.fsum(moment(mass, values, 1.0).reshape(-1).tolist()) / math.fsum(
        np.asarray(mass).reshape(-1).tolist()
    )
    return [
        f"chain level {i}: S={s!r}, root average of w {avg!r}"
        for i, s in enumerate(s_values)
        if abs(s - avg) > rel * avg
    ]
