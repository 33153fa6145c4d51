"""Compensated (double-double) summation kernels for exact prefix tables.

Prefix tables are held as (hi, lo) pairs of float64 arrays carrying roughly
106 bits of precision.  With cell data of bounded dynamic range this is
enough for every box query to round to the correctly rounded double of the
exact real sum, which is what makes the prefix route bit-identical to an
independent math.fsum oracle.

All kernels are branch-free and work elementwise on numpy arrays.  Every
box sum, of the scan, the splitter and a one-box query alike, reduces the
other axes of a table, axis 0 first and one dd_sub per axis, to a prefix
column along the axis it keeps, and is one dd_sub_rounded of two entries
of that column.  dd_columns builds every batch of columns with the dd_sub
sequence of the one-box loop in grids.PrefixTables.moment_sum.

dd_prefix_tables sums one axis at a time with a cascade of cumulative sums
(after Ogita, Rump and Oishi, "Accurate sum and dot product", SIAM J. Sci.
Comput. 26(6), 2005); it loops over axes only.  A pass over an axis turns
the pairs (x, l) of the previous pass (the cells and 0 on the first) into
the prefix sums P along it:

1. s = accumulate(x), and e the exact two_sum error of every step of it;
2. t = accumulate(e + l), f the exact errors of that, and F = accumulate(f);
3. P = s + t + F, renormalised: h, g = fast_two_sum(s, t), then
   hi, lo = fast_two_sum(h, g + F).

Exactness.  Let the cells be nonnegative, q0 the ulp of the smallest
positive one, M the largest prefix sum, u = 2**-53 and N the length of the
axis.  Every cell is a multiple of q0, hence so is every sum and two_sum
error built from them, and a result below 2**53 q0 in magnitude that is a
multiple of q0 is representable, so the operation giving it is exact.  Let
M < 2**104 q0 and N**2 u**2 M < 2**52 q0 (N <= 2**27 suffices), and let
the pairs of the previous pass be exact and normalised, x = RN(v) and
l = v - x for entry sum v (true of the cells).  Up to factors 1 + 2**-25
for the rounding of s, and with P_j <= M the prefix sum of entry j:

- |e_j| <= u s_j and |l_j| <= u x_j, so |e_j + l_j| <= 2u M < 2**52 q0:
  every e + l is exact;
- |t_j| <= (j + 1) u P_j, so |f_j| <= (j + 1) u**2 P_j, and every partial
  sum of F is at most N**2 u**2 M < 2**52 q0: F is exact;
- s_j >= |t_j|, so the first fast_two_sum is exact; |g| <= u M < 2**51 q0,
  so g + F is exact, and the last fast_two_sum gives hi = RN(P) and
  lo = P - hi.

So every pass returns the unique normalised pair (RN(P), P - RN(P)), which
any exact double-double recurrence returns too, the sequential dd_add over
the cells among them.  grids.PrefixTables.precision_margin states these
conditions on a built table; the scan and the splitter refuse tables
beyond them, where the pairs are approximations.  A table whose sums
overflow holds nan from the first overflowed entry of an axis on.
"""

from __future__ import annotations

import numpy as np


def two_sum(a, b):
    """Knuth two-sum: s + e == a + b exactly, s = fl(a + b)."""
    s = a + b
    t = s - a
    e = (a - (s - t)) + (b - t)
    return s, e


def _split(a):
    """Dekker's split: hi + lo == a, each half with at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def two_prod(a, b):
    """Dekker's two-product (1971): p + e == a * b exactly, p = fl(a * b).

    Exact unless a or b times 2**27 + 1 overflows or a partial product of
    the split halves underflows.
    """
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def dd_add(ah, al, bh, bl):
    """Add two double-double values, renormalized to (hi, lo)."""
    s, e = two_sum(ah, bh)
    e = e + (al + bl)
    hi = s + e
    lo = e - (hi - s)
    return hi, lo


def dd_sub(ah, al, bh, bl):
    """Subtract double-double values: (ah, al) - (bh, bl).

    Equals dd_add(ah, al, -bh, -bl) bit for bit, signed zeros included,
    without negating the operands.  IEEE 754 defines x - y as x + (-y),
    which covers s and al - bl.  two_sum's error (ah - (s - t)) + (-bh - t)
    is written (ah + (t - s)) - (bh + t): the values are the same, and
    where bh + t is an exact zero, so are the signs of the zeros
    (tests/test_grids.py checks every combination of signed zeros,
    infinities and boundary values).
    """
    s = ah - bh
    t = s - ah
    e = ((ah + (t - s)) - (bh + t)) + (al - bl)
    hi = s + e
    lo = e - (hi - s)
    return hi, lo


def dd_sub_rounded(ah, al, bh, bl):
    """Rounded double of (ah, al) - (bh, bl), for ah >= bh >= 0 or ah == 0.

    Those are two entries of a nonnegative prefix table, a later minus an
    earlier one, or the zero entry minus any.  There the error term of
    ah - bh from Dekker's fast two-sum (1971) is exact, hence equal to
    two_sum's, so the result is that of s, e = two_sum(ah, -bh);
    s + (e + (al - bl)) bit for bit.
    """
    s = ah - bh
    return s + (((ah - s) - bh) + (al - bl))


def _step_errors(acc, x, tmp, axis: int) -> None:
    """Overwrite x with the exact errors of the steps of acc = accumulate(x).

    On flat C-order views the partial sum before entry k of the axis is entry
    k - step, step the stride of the axis in entries, so the error of entry k
    is two_sum(acc[k - step], x[k]) given their rounded sum acc[k]: five
    contiguous operations on any axis.  An entry at axis index 0 starts its
    lane, so its error is 0.  ``tmp`` is scratch.
    """
    step = acc.strides[axis] // acc.itemsize
    flat_acc, flat_x = acc.reshape(-1), x.reshape(-1)
    a, s, b, z = flat_acc[:-step], flat_acc[step:], flat_x[step:], tmp.reshape(-1)[step:]
    np.subtract(s, a, out=z)
    np.subtract(b, z, out=b)
    np.subtract(s, z, out=z)
    np.subtract(a, z, out=z)
    b += z
    x[(slice(None),) * axis + (0,)] = 0.0


def dd_prefix_tables(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative-sum tables over a lattice of nonnegative cells in double-double.

    Returns (hi, lo) arrays of shape ``cells.shape + 1`` per axis; entry J
    holds the sum over the sub-lattice [0, J) so that index 0 slabs are zero.
    Each axis runs the cascade of the module docstring in four buffers.
    """
    shape = tuple(m + 1 for m in cells.shape)
    hi, lo, s, t = (np.zeros(shape) for _ in range(4))
    hi[(slice(1, None),) * cells.ndim] = cells
    with np.errstate(over="ignore", invalid="ignore"):
        for axis in range(cells.ndim):
            # 1. s and its step errors e (in hi)
            np.add.accumulate(hi, axis=axis, out=s)
            _step_errors(s, hi, t, axis)
            # 2. t from e + l (in lo), its step errors f (in lo), F (in hi)
            lo += hi
            np.add.accumulate(lo, axis=axis, out=t)
            _step_errors(t, lo, hi, axis)
            np.add.accumulate(lo, axis=axis, out=hi)
            # 3. h (in lo), g + F (in t), then hi (in s) and lo
            np.add(s, t, out=lo)
            np.subtract(lo, s, out=s)
            t -= s
            t += hi
            np.add(lo, t, out=s)
            np.subtract(s, lo, out=lo)
            np.subtract(t, lo, out=lo)
            hi, s = s, hi
    return hi, lo


def dd_columns(hl: np.ndarray, pairs, digits) -> np.ndarray:
    """Prefix columns (2, K, G, ...) of the tables hl (2, K, ...), one per set of leading ranges.

    ``pairs[j] = (ia, ib)`` are the ranges [ia, ib) of leading axis j and
    ``digits[j][g]`` the index of column g's range on it; the columns are
    distinct and in lexicographic order.  Axis 0 first, each leading axis is
    reduced once per distinct prefix of ranges, one dd_sub of taken entries:
    every column equals its one-box reduction bit for bit.  With no leading
    axis the result is a view of the tables, one column.
    """
    K, (h, l) = hl.shape[1], hl[:, :, None]
    change, starts = False, np.zeros(1, dtype=np.intp)
    for j, ((ia, ib), d) in enumerate(zip(pairs, digits)):
        if j + 1 < len(pairs):
            change = change | (d[1:] != d[:-1])
            first = np.flatnonzero(np.concatenate(([True], change)))
        else:  # distinct columns: on the last axis every column is a prefix of its own
            first = np.arange(len(d))
        # entries a and b of this axis under each parent, on the (parents x extent) axis
        row = (np.searchsorted(starts, first, side="right") - 1) * h.shape[2]
        a, b = row + ia[d[first]], row + ib[d[first]]
        h, l = (x.reshape(K, -1, *x.shape[3:]) for x in (h, l))
        h, l = dd_sub(h.take(b, 1), l.take(b, 1), h.take(a, 1), l.take(a, 1))
        starts = first
    return np.stack((h, l)) if pairs else hl[:, :, None]
