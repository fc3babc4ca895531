"""Invertible 3x3 matrices acting on PG(2,q), as a test oracle.

The library's chart regularization applies its frame directly: a point goes
to the rows of adj(B) for the frame B = (w | v_inf | u), as three cross
products, and a line to l B.  This class takes the other route, through the
adjugate of a user matrix and the adjugate of that again, so the PGL_3
tests and the chart regularization oracle check the frame chart
independently.
"""

from __future__ import annotations

from chshq.errors import InvalidInput
from chshq.field import Field
from chshq.geometry import _cross, _triples, point_on_line, proj_dot, proj_point


class ProjTransform:
    """Invertible 3x3 matrix acting on PG(2,q).

    Points transform by v -> M v and lines by u -> u adj(M).  Since
    adj(M) = det(M) M^(-1), u . v only picks up the nonzero scalar det(M),
    so incidence counts are preserved exactly, and the canonical image
    line is the one u M^(-1) would give.
    """

    def __init__(self, field: Field, rows):
        matrix = _triples(field, rows)
        if len(matrix) != 3:
            raise InvalidInput("transform needs a 3x3 matrix")
        self.rows = tuple(map(tuple, matrix.tolist()))
        det, self.adj = _det_adjugate(field, self.rows)
        if det == 0:
            raise InvalidInput("transform matrix is singular")

    @classmethod
    def from_chart(cls, field: Field, l_inf, v_inf) -> "ProjTransform":
        """Transform sending l_inf to the standard line at infinity {z=0}
        and v_inf (a point on l_inf) to the vertical direction (0:1:0)."""
        if proj_dot(field, l_inf, v_inf) != 0:
            raise InvalidInput("v_inf must lie on l_inf")
        w = next(p for p in (point_on_line(field, l_inf, i) for i in (0, 1)) if p != v_inf)
        n = field.q * field.q + field.q + 1
        u = next(p for p in (proj_point(field, i) for i in range(n))
                 if proj_dot(field, l_inf, p) != 0)
        # columns of B are the preimages of the standard frame e1, e2, e3;
        # adj(B) is a nonzero multiple of B^(-1), the same projective map
        B = tuple(zip(w, v_inf, u))
        return cls(field, _det_adjugate(field, B)[1])


def _det_adjugate(field: Field, m):
    """det(m) and adj(m), so that adj(m) m = m adj(m) = det(m) I.

    For rows m0, m1, m2 the columns of adj(m) are m1 x m2, m2 x m0 and
    m0 x m1, and det(m) = m0 . (m1 x m2).
    """
    cols = (_cross(field, m[1], m[2]), _cross(field, m[2], m[0]),
            _cross(field, m[0], m[1]))
    return proj_dot(field, m[0], cols[0]), tuple(zip(*cols))
