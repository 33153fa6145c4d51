"""Compensated (double-double) summation kernels for exact prefix tables.

Prefix tables are held as (hi, lo) pairs of float64 arrays carrying roughly
106 bits of precision.  With cell data of bounded dynamic range this is
enough for every box query to round to the correctly rounded double of the
exact real sum, which is what makes the prefix route bit-identical to an
independent math.fsum oracle.

All kernels are branch-free and work elementwise on numpy arrays.  Box
queries go through one batched corner query, dd_box_sums: the bounds of a
batch of boxes broadcast against each other, and every box in the batch runs
the same dd_add sequence over its 2**n corners, so a batch of K boxes costs
2**n vectorised dd_add steps instead of K Python calls.
"""

from __future__ import annotations

import numpy as np


def two_sum(a, b):
    """Knuth two-sum: s + e == a + b exactly, s = fl(a + b)."""
    s = a + b
    t = s - a
    e = (a - (s - t)) + (b - t)
    return s, e


def dd_add(ah, al, bh, bl):
    """Add two double-double values, renormalized to (hi, lo)."""
    s, e = two_sum(ah, bh)
    e = e + (al + bl)
    hi = s + e
    lo = e - (hi - s)
    return hi, lo


def dd_sub(ah, al, bh, bl):
    """Subtract double-double values: (ah, al) - (bh, bl)."""
    return dd_add(ah, al, -bh, -bl)


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


def dd_prefix_tables(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative-sum tables over the cell lattice in double-double.

    Returns (hi, lo) arrays of shape ``cells.shape + 1`` per axis; entry J
    holds the sum over the sub-lattice [0, J) so that index 0 slabs are zero.
    """
    shape = tuple(m + 1 for m in cells.shape)
    hi = np.zeros(shape, dtype=np.float64)
    lo = np.zeros(shape, dtype=np.float64)
    inner = tuple(slice(1, None) for _ in cells.shape)
    hi[inner] = cells
    if cells.ndim == 1:
        # Scalar Python floats beat numpy scalars for a sequential scan.
        ah, al = 0.0, 0.0
        out_h, out_l = hi.tolist(), lo.tolist()
        for j in range(1, shape[0]):
            ah, al = dd_add(ah, al, out_h[j], 0.0)
            out_h[j], out_l[j] = ah, al
        return np.asarray(out_h), np.asarray(out_l)
    for axis in range(cells.ndim):
        sl = [slice(None)] * cells.ndim
        for j in range(2, shape[axis] + 1):
            cur, prev = list(sl), list(sl)
            cur[axis] = j - 1
            prev[axis] = j - 2
            cur, prev = tuple(cur), tuple(prev)
            hi[cur], lo[cur] = dd_add(hi[cur], lo[cur], hi[prev], lo[prev])
    return hi, lo


def dd_box_sums(hi: np.ndarray, lo: np.ndarray, lows, highs) -> np.ndarray:
    """Box sums by inclusion-exclusion over the 2**n corners, rounded once.

    ``lows[ax]`` and ``highs[ax]`` bound the boxes [a, b) on axis ``ax`` of
    the tables; each is an int or an integer array, and together they
    broadcast to the shape of the batch, so one call answers every box of,
    say, a slab of split positions.  Axes of the tables beyond ``len(lows)``
    (a stack of tables) trail the batch axes in the result.  Corner ``mask``
    takes the low bound on the axes whose bit is set, with sign
    (-1)**popcount(mask), and the corners are accumulated with dd_add in
    increasing mask order.  Every element of the batch runs that same
    sequence of operations, so it equals the one-box query bit for bit.
    """
    ndim = len(lows)
    acc_h, acc_l = 0.0, 0.0
    for mask in range(1 << ndim):
        idx = tuple(
            lows[ax] if (mask >> ax) & 1 else highs[ax] for ax in range(ndim)
        )
        sign = -1.0 if bin(mask).count("1") % 2 else 1.0
        acc_h, acc_l = dd_add(acc_h, acc_l, sign * hi[idx], sign * lo[idx])
    return acc_h + acc_l
