"""The q x q add, sub and mul tables of a field, as a test oracle.

The library keeps no q x q table: its searches read `Field.vec` and the
antilog windows.  The tests that tally through whole tables build them
here, from the scalar ops where a Python loop over the q^2 pairs is cheap,
and from one `Field.vec` row per x above that.
"""

from __future__ import annotations

import numpy as np

from chshq.field import Field

SCALAR_Q_MAX = 64   # at most 4096 scalar calls per table


def op_grid(field: Field, op: str, rows: range | None = None) -> np.ndarray:
    """table[i, y] = x op y for the i-th x of `rows` (all of the field by
    default) and every y, for op "add", "sub" or "mul", as intp."""
    q = field.q
    xs = range(q) if rows is None else rows
    if q <= SCALAR_Q_MAX:
        scalar = getattr(field, op)
        return np.array([[scalar(x, y) for y in range(q)] for x in xs],
                        dtype=np.intp).reshape(len(xs), q)
    vec_op, ys = getattr(field.vec, op), np.arange(q)
    return np.stack([vec_op(x, ys) for x in xs])
