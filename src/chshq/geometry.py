"""Point-line incidences over F_q^2 and PG(2,q).

Strategies and configurations are two views of the same object: the
strategy (f, g) corresponds to points {(x, f(x))} and lines
{l_{y, g(y)}}, where l_{a,b} = {(z1, z2): z2 = a*z1 - b}, and winning
input pairs correspond exactly to incidences.

A configuration is "legal" when it fits back into a strategy: at most q
points with pairwise distinct x-coordinates and at most q non-vertical
lines with pairwise distinct slopes.  The projective machinery at the
bottom of this module exists to push an arbitrary configuration into
legal position by a random change of chart.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import CapExceeded, InvalidInput, InvariantViolation
from .field import Field, block_rows
from .game import Strategy


class Line(NamedTuple):
    """The non-vertical affine line z2 = a*z1 - b."""
    a: int
    b: int


@dataclass(frozen=True)
class Config:
    points: tuple[tuple[int, int], ...]
    lines: tuple[Line, ...]


def make_config(points, lines) -> Config:
    """Normalize to sorted duplicate-free tuples of plain ints.  `points`
    and `lines` are iterables of pairs or (n, 2) integer arrays."""
    return Config(points=tuple(map(tuple, _distinct_pairs(points))),
                  lines=tuple(map(Line._make, _distinct_pairs(lines))))


def _distinct_pairs(pairs) -> list[list[int]]:
    """The distinct pairs in lex order: lexsort, then drop adjacent repeats."""
    if isinstance(pairs, np.ndarray):
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise InvalidInput("points and lines must be pairs")
        arr = pairs.astype(np.intp, copy=False)
    else:
        pairs = list(pairs)
        if any(n != 2 for n in map(len, pairs)):
            raise InvalidInput("points and lines must be pairs")
        arr = _pair_array(pairs)
    arr = arr[np.lexsort((arr[:, 1], arr[:, 0]))]
    fresh = np.ones(len(arr), dtype=bool)
    fresh[1:] = (arr[1:] != arr[:-1]).any(axis=1)
    return arr[fresh].tolist()


def _pair_array(pairs) -> np.ndarray:
    """A sequence of n integer pairs as an (n, 2) intp array."""
    flat = chain.from_iterable(pairs)
    return np.fromiter(flat, dtype=np.intp, count=2 * len(pairs)).reshape(-1, 2)


def is_legal(field: Field, c: Config) -> bool:
    q = field.q
    xs = [p[0] for p in c.points]
    slopes = [l.a for l in c.lines]
    return (len(c.points) <= q and len(c.lines) <= q
            and len(set(xs)) == len(xs) and len(set(slopes)) == len(slopes))


SWEEP_Q_CAP = 9   # the exhaustive PGL_3 sweep refuses larger fields


def incidences(field: Field, c: Config) -> int:
    """Exact |{(p, l): p on l}| by membership rows, with no sort.

    The distinct point x-coordinates are taken in blocks of at most
    w = `block_rows(q)` of them.  Row j of one reused flat boolean table of
    w*q cells marks Y_x = {y : (x, y) is a point} for the j-th x of the
    block; every line l_{a,b} then gathers the cell j*q + (a*x - b) through
    `field.vec`, in blocks of `block_rows(w)` lines, and the hits are
    counted.  On a raw Config a repeated line counts twice and a repeated
    point once."""
    if not c.points or not c.lines:
        return 0
    q, vec = field.q, field.vec
    x, y = _pair_array(c.points).T
    a, b = _pair_array(c.lines).T[:, :, None]     # (lines, 1) each
    seen = np.zeros(q, dtype=bool)
    seen[x] = True
    xs = np.flatnonzero(seen)
    cells = (np.cumsum(seen)[x] - 1) * q + y    # (rank of x) * q + y per point
    width = min(len(xs), block_rows(q))
    rows = block_rows(width)
    table = np.zeros(width * q, dtype=bool)
    count = 0
    for j in range(0, len(xs), width):
        block = xs[j:j + width]
        start = np.arange(len(block)) * q
        marked = cells[(cells >= j * q) & (cells < (j + width) * q)] - j * q
        table[marked] = True
        for i in range(0, len(a), rows):
            hit = start + vec.sub(vec.mul(a[i:i + rows], block), b[i:i + rows])
            count += int(np.count_nonzero(table[hit]))
        table[marked] = False
    return count


# ---------------------------------------------------------------------------
# strategy <-> configuration
# ---------------------------------------------------------------------------

def strategy_to_config(field: Field, s: Strategy) -> Config:
    """Points (x, f(x)) and lines l_{y, g(y)}; incidences equal game wins."""
    f, g = s
    points = [(x, f[x]) for x in field.elements()]
    lines = [Line(y, g[y]) for y in field.elements()]
    return make_config(points, lines)


def config_to_strategy(field: Field, c: Config) -> Strategy:
    """Inverse of strategy_to_config on legal configs, padding gaps with 0.

    Padding never removes an incidence among the original pairs, so the
    resulting strategy wins at least incidences(c) input pairs.
    """
    if not is_legal(field, c):
        raise InvalidInput("config is not legal (sizes or duplicate x/slope)")
    q = field.q
    f = [0] * q
    g = [0] * q
    for x, y in c.points:
        f[x] = y
    for a, b in c.lines:
        g[a] = b
    return Strategy(tuple(f), tuple(g))


# ---------------------------------------------------------------------------
# explicit high-incidence constructions
# ---------------------------------------------------------------------------

def _product(u, v) -> np.ndarray:
    """Every pair (u_i, v_j), in row-major order, as an (n, 2) array."""
    u, v = np.broadcast_arrays(np.asarray(u)[:, None], np.asarray(v)[None, :])
    return np.stack([u.ravel(), v.ravel()], axis=1)


def subfield_construction(field: Field) -> Config:
    """Points K x K and lines with slope and shift in K, for K the index-2 subfield.

    Every line hits exactly |K| = sqrt(q) points (c*a - d stays in K), so
    the q lines and q points produce q^(3/2) incidences.
    """
    if field.s % 2 != 0:
        raise InvalidInput("subfield construction needs even s")
    K = field.subfield_elements(field.s // 2)
    pairs = _product(K, K)
    return make_config(pairs, pairs)


def grid_construction(field: Field) -> Config:
    """Integer grid [n1] x [n2] with shallow integer lines, n1 = floor(q^(1/3)).

    All arithmetic stays below q, so incidences can be counted over the
    integers: every (line, column) pair contributes exactly one.
    """
    if field.s != 1:
        raise InvalidInput("grid construction needs prime q")
    q = field.q
    n1 = _ifloor_pow(q, 1, 3)
    n2 = _ifloor_pow(q, 2, 3)
    points = _product(np.arange(1, n1 + 1), np.arange(1, n2 + 1))
    # y = c*x + d over the integers; as l_{a,b} that is a = c, b = -d mod q
    lines = _product(np.arange(1, n1 // 2 + 1), -np.arange(1, n2 // 2 + 1) % q)
    return make_config(points, lines)


def grid_expected_incidences(q: int) -> int:
    """Closed form |L| * floor(q^(1/3)) for the grid construction."""
    n1 = _ifloor_pow(q, 1, 3)
    n2 = _ifloor_pow(q, 2, 3)
    return (n1 // 2) * (n2 // 2) * n1


def _ifloor_pow(n: int, num: int, den: int) -> int:
    # floor(n^(num/den)) without float edge cases
    r = round(n ** (num / den))
    while r ** den > n ** num:
        r -= 1
    while (r + 1) ** den <= n ** num:
        r += 1
    return r


def subspace_construction(field: Field, seed: int = 0) -> Config:
    """Span-based construction for odd-degree extensions.

    With g a primitive element, A, B, C are F_p-spans of initial segments
    of powers of g with dim A = a, dim B = b, dim C = b - a + 1, a = s - b.
    Points are A x B, lines have slope in C and shift in B, so slope times
    abscissa lands back in B and every (z1, c, d) triple is an incidence:
    pre-thinning I = |A| |B| |C|.

    For s = 3k and s = 3k+1 there are p or p^2 times too many lines, and
    the line set is thinned by keeping each line independently with
    probability 1/d, d = p or p^2 (seeded).  For s = 3k+2 the count is
    already right and no thinning happens.
    """
    s = field.s
    if s % 2 == 0 or s < 3:
        raise InvalidInput("subspace construction needs odd s >= 3")
    p = field.p
    k, r = divmod(s, 3)
    if r == 0:
        b, d = 2 * k, p
    elif r == 1:
        b, d = 2 * k + 1, p * p
    else:
        b, d = 2 * k + 1, 1
    a = s - b
    A = _span(field, a)
    B = _span(field, b)
    C = _span(field, b - a + 1)
    rng = random.Random(seed)
    # one draw per (c, e) in row-major order; random() is k / 2^53: the
    # product is exact when k * d < 2^53 and rounds to at least 1 otherwise,
    # so this is random() < 1/d exactly (always, for d = 1)
    draws = np.array([rng.random() for _ in range(len(C) * len(B))])
    return make_config(_product(A, B), _product(C, B)[draws * d < 1])


def subspace_cardinalities(field: Field) -> tuple[int, int, int]:
    """(|A|, |B|, |C|) for the subspace construction; |C| = p^(2b-s+1)."""
    s, p = field.s, field.p
    if s % 2 == 0 or s < 3:
        raise InvalidInput("subspace construction needs odd s >= 3")
    k, r = divmod(s, 3)
    b = 2 * k if r == 0 else 2 * k + 1
    a = s - b
    return p ** a, p ** b, p ** (2 * b - s + 1)


def _span(field: Field, dim: int) -> list[int]:
    """All F_p-combinations of 1, g, ..., g^(dim-1), g primitive.  Sorted."""
    vec = field.vec
    out = np.zeros(1, dtype=np.intp)
    for v in vec.pow(field.primitive_element(), np.arange(dim)):
        out = vec.add(out[:, None], vec.mul(np.arange(field.p), v)).ravel()
    out = np.unique(out)
    if len(out) != field.p ** dim:
        raise InvariantViolation("span basis is linearly dependent")
    return out.tolist()


def trivial_incidence_bound(n_points: int, n_lines: int) -> float:
    """The counting bound |P|^(3/4) |L|^(3/4) + |P| + |L|."""
    if n_points < 0 or n_lines < 0:
        raise InvalidInput("counts must be nonnegative")
    return n_points ** 0.75 * n_lines ** 0.75 + n_points + n_lines


# ---------------------------------------------------------------------------
# PG(2,q): canonical homogeneous triples
# ---------------------------------------------------------------------------
# Points and lines are both stored as canonical triples (first nonzero
# coordinate scaled to 1); a point v lies on a line u iff u . v = 0.

def proj_canonical(field: Field, v: tuple[int, int, int]) -> tuple[int, int, int]:
    for i in range(3):
        if v[i]:
            inv = field.inv(v[i])
            return tuple(field.mul(inv, c) for c in v)
    raise InvalidInput("zero triple has no projective class")


def all_proj_points(field: Field) -> list[tuple[int, int, int]]:
    q = field.q
    return [proj_point(field, i) for i in range(q * q + q + 1)]


all_proj_lines = all_proj_points   # duality: same canonical triples


def proj_point(field: Field, i: int) -> tuple[int, int, int]:
    """The i-th canonical triple of PG(2,q): (1, y, z) in lex order, then
    (0, 1, z), then (0, 0, 1)."""
    q = field.q
    if not 0 <= i <= q * q + q:
        raise InvalidInput(f"index {i} outside PG(2,{q})")
    if i < q * q:
        return (1, i // q, i % q)
    if i < q * q + q:
        return (0, 1, i - q * q)
    return (0, 0, 1)


def proj_dot(field: Field, u, v) -> int:
    return field.add(field.add(field.mul(u[0], v[0]), field.mul(u[1], v[1])),
                     field.mul(u[2], v[2]))


def _cross(field: Field, u, v):
    """The raw cross product u x v, which is orthogonal to u and v under proj_dot."""
    f = field
    return (
        f.sub(f.mul(u[1], v[2]), f.mul(u[2], v[1])),
        f.sub(f.mul(u[2], v[0]), f.mul(u[0], v[2])),
        f.sub(f.mul(u[0], v[1]), f.mul(u[1], v[0])),
    )


def proj_cross(field: Field, u, v) -> tuple[int, int, int]:
    """Cross product; as triples, the line through two points (or dually)."""
    c = _cross(field, u, v)
    if c == (0, 0, 0):
        raise InvalidInput("triples are proportional; no unique join/meet")
    return proj_canonical(field, c)


def point_on_line(field: Field, line: tuple[int, int, int],
                  i: int) -> tuple[int, int, int]:
    """The i-th of the q+1 canonical points on a line, in all_proj_points order.

    Solved per case instead of scanning the plane: with l2 != 0 each
    (1, y, .) has one solution z, then comes (0, 1, -l1/l2); with l2 = 0 and
    l1 != 0 the points are (1, -l0/l1, z) for every z, then (0, 0, 1); the
    line (l0, 0, 0) holds (0, 1, z) for every z and (0, 0, 1).
    """
    f, q = field, field.q
    l0, l1, l2 = line
    if not 0 <= i <= q:
        raise InvalidInput(f"index {i} outside the {q + 1} points of a line")
    if l2:
        m = f.neg(f.inv(l2))
        return (1, i, f.mul(f.add(l0, f.mul(l1, i)), m)) if i < q else (0, 1, f.mul(l1, m))
    if l1:
        return (1, f.neg(f.mul(l0, f.inv(l1))), i) if i < q else (0, 0, 1)
    if l0:
        return (0, 1, i) if i < q else (0, 0, 1)
    raise InvalidInput("zero triple is not a line")


def points_on_line(field: Field, line: tuple[int, int, int]) -> list[tuple[int, int, int]]:
    """The q+1 canonical points v with line . v = 0, in all_proj_points order."""
    return [point_on_line(field, line, i) for i in range(field.q + 1)]


def projective_plane_census(field: Field) -> tuple[int, int, int]:
    """(#points, #lines, points per line); enumerated and checked for q <= 16."""
    q = field.q
    n = q * q + q + 1
    if q <= 16:
        pts = all_proj_points(field)
        lns = all_proj_lines(field)
        if len(pts) != n or len(lns) != n:
            raise InvariantViolation("projective census mismatch")
        if len({p for p in pts}) != n:
            raise InvariantViolation("canonical points not distinct")
        for line in lns:
            if sum(proj_dot(field, line, p) == 0 for p in pts) != q + 1:
                raise InvariantViolation("line with wrong point count")
    return n, n, q + 1


def lift_config(field: Field, c: Config):
    """Affine -> projective: (x, y) -> (x:y:1); l_{a,b} -> coefficients (a:-1:-b)."""
    pts = [proj_canonical(field, (x, y, 1)) for x, y in c.points]
    lns = [proj_canonical(field, (a, field.neg(1), field.neg(b))) for a, b in c.lines]
    return pts, lns


def projective_incidences(field: Field, pts, lns) -> int:
    return sum(proj_dot(field, l, p) == 0 for l in lns for p in pts)


class ProjTransform:
    """Invertible 3x3 matrix acting on PG(2,q).

    Points transform by v -> M v and lines by u -> u adj(M).  Since
    adj(M) = det(M) M^(-1), u . v only picks up the nonzero scalar det(M),
    so incidence counts are preserved exactly, and the canonical image
    line is the one u M^(-1) would give.
    """

    def __init__(self, field: Field, rows):
        self.rows = tuple(tuple(int(c) for c in row) for row in rows)
        if len(self.rows) != 3 or any(len(r) != 3 for r in self.rows):
            raise InvalidInput("transform needs a 3x3 matrix")
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


def _code_tables(field: Field):
    """Arithmetic tables of F_q^3 with each vector encoded as the code
    k = x*q^2 + y*q + z, built by running `field.vec`, `_cross` and
    `proj_dot` over every pair of codes (at most q^6 entries each):

    vadd[u*q^3 + v] = u + v, vcross[u*q^3 + v] = u x v, scale[s, v] = s*v
    for s in F_q, and on[u*q^3 + v] = (u . v == 0).
    """
    q, vec = field.q, field.vec
    k = np.arange(q ** 3)
    digits = np.array([k // (q * q), k // q % q, k % q])      # (3, q^3)
    u, v = digits[:, :, None], digits[:, None, :]

    def code(t):
        return (t[0] * q + t[1]) * q + t[2]

    vadd = code(vec.add(u, v)).ravel()
    vcross = code(_cross(vec, u, v)).ravel()
    scale = code(vec.mul(np.arange(q)[:, None], v))           # (q, q^3)
    on = (proj_dot(vec, u, v) == 0).ravel()
    return vadd, vcross, scale, on


def verify_incidence_preservation_exhaustive(field: Field, c: Config) -> int:
    """Assert that every element of PGL_3(q) preserves the projective
    incidence count of the lifted configuration; returns the group order.

    Enumerates the matrices M with columns c1, c2, c3, one per projective
    class: c1 runs over the canonical points, which fixes the scalar, and
    with it every pair of nonzero vectors (c2, c3) with
    det(M) = (c1 x c2) . c3 != 0.  For each c1 the full (n-1) x (n-1) grid
    of nonzero (c2, c3), n = q^3, is walked in tiles of at most
    t = `block_rows(lines * points)` transforms, by broadcasting a c2
    column against a c3 row: t // (n-1) whole c2 rows when t >= n-1,
    otherwise t cells of one c2 row.  The singular cells of a tile, with
    on[(c1 x c2)*n + c3] set, are left out of the check, and `checked`
    counts the regular cells.  All arithmetic is gathers from the
    `_code_tables` of F_q^3, kept with their values premultiplied by n
    where a result is the left operand of the next gather.  The images are
    linear in the columns: points go to M v = (v0*c1 + v1*c2) + v2*c3 and
    lines to u adj(M) = u0*(c2 x c3) + u1*(c3 x c1) + u2*(c1 x c2), so each
    term that does not need both c2 and c3 is tabulated once per c1 (once
    per call for v2*c3), and c2 x c3 is a slice of the (n-1)^2 block of
    vcross.  The base count is the scalar projective count.
    """
    q = field.q
    if q > SWEEP_Q_CAP:
        raise CapExceeded(f"exhaustive transform sweep capped at q <= {SWEEP_Q_CAP}")
    pts, lns = lift_config(field, c)
    base = projective_incidences(field, pts, lns)
    vadd, vcross, scale, on = _code_tables(field)
    n = q ** 3
    vadd_n, scale_n = vadd * n, scale * n
    P = np.array(pts, dtype=np.intp).reshape(-1, 3).T[:, :, None]   # (3, np, 1)
    U = np.array(lns, dtype=np.intp).reshape(-1, 3).T[:, :, None]   # (3, nl, 1)
    vectors = np.arange(1, n)                  # nonzero codes, in lex order
    v2c3 = scale[P[2], vectors][:, None, :]                     # (np, 1, n - 1)
    cross23 = vcross.reshape(n, n)[1:, 1:]     # c2 x c3 for nonzero c2, c3
    u0s = scale_n[U[0, :, 0]]                  # n * u0*w for every code w
    per_tile = block_rows(len(lns) * len(pts))       # transforms
    tile_rows, tile_cols = max(1, per_tile // (n - 1)), min(n - 1, per_tile)
    checked = 0
    for c1 in all_proj_points(field):
        k1 = (c1[0] * q + c1[1]) * q + c1[2]
        c12 = vcross[k1 * n + vectors]         # c1 x c2 for every c2
        c12_n = (c12 * n)[:, None]             # row offsets of the det test
        # n(v0*c1 + v1*c2) as (np, n - 1, 1)
        v01 = vadd_n[scale_n[P[0], k1] + scale[P[1], vectors]][:, :, None]
        u1 = scale[U[1], vcross[vectors * n + k1]][:, None, :]   # u1*(c3 x c1)
        u2 = scale[U[2], c12][:, :, None]                        # u2*(c1 x c2)
        for r in range(0, n - 1, tile_rows):
            rs = slice(r, r + tile_rows)
            for s in range(0, n - 1, tile_cols):
                cs = slice(s, s + tile_cols)
                singular = on.take(c12_n[rs] + vectors[cs])             # (r, s)
                img_p = vadd.take(v01[:, rs] + v2c3[:, :, cs])     # (np, r, s)
                u0 = u0s.take(cross23[rs, cs], axis=1)            # n u0*(c2 x c3)
                img_l = vadd_n.take(vadd_n.take(u0 + u1[:, :, cs]) + u2[:, rs])
                hits = on.take(img_l[:, None] + img_p)         # (nl, np, r, s)
                counts = hits.reshape(-1, singular.size).sum(axis=0, dtype=np.int32)
                if not np.all((counts == base) | singular.ravel()):
                    raise InvariantViolation("incidence count changed under a transform")
                checked += singular.size - np.count_nonzero(singular)
    order = (q * q + q + 1) * (q ** 3 - q) * (q ** 3 - q * q)
    if checked != order:
        raise InvariantViolation("transform enumeration incomplete")
    return checked


# ---------------------------------------------------------------------------
# random projective regularization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegularizationStats:
    input_points: int
    input_lines: int
    input_incidences: int
    sampled_points: int
    sampled_lines: int
    sampled_incidences: int
    kept_points: int
    kept_lines: int
    kept_incidences: int
    l_inf: tuple[int, int, int]
    v_inf: tuple[int, int, int]


def random_projective_regularize(field: Field, c: Config, seed: int
                                 ) -> tuple[Config, RegularizationStats]:
    """Push an arbitrary configuration into legal position by a random chart.

    Steps: downsample so |P|, |L| <= q/2; draw a uniform line l_inf and a
    uniform point v_inf on it; send the points (x : y : 1) and lines
    (a : -1 : -b) through the chart T that makes l_inf the line at infinity
    and v_inf the vertical direction.  Images (X : Y : Z) with Z = 0 (on
    l_inf) and (L : M : N) with M = 0 (through v_inf, so vertical) are
    dropped; of the rest keep the smallest y per x and the smallest b per
    slope.  T preserves incidence, so kept incidences are counted on the
    kept points' and lines' preimages."""
    q, vec = field.q, field.vec
    rng = random.Random(seed)
    in_inc = incidences(field, c)

    points, lines = c.points, c.lines
    cap = q // 2
    if len(points) > cap:
        points = rng.sample(points, cap)
    if len(lines) > cap:
        lines = rng.sample(lines, cap)
    sampled = make_config(points, lines)
    s_inc = incidences(field, sampled)

    l_inf = proj_point(field, rng.randrange(q * q + q + 1))   # lines share the triples
    v_inf = point_on_line(field, l_inf, rng.randrange(q + 1))
    T = ProjTransform.from_chart(field, l_inf, v_inf)

    def first_per_key(k, v, d):
        # indices of the images with d != 0, one per key k/d: the smallest v/d
        live = np.flatnonzero(d != 0)
        di = vec.inv(d[live])
        code = vec.mul(k[live], di) * q + vec.mul(v[live], di)
        order = np.argsort(code)
        _, first = np.unique(code[order] // q, return_index=True)
        keep = order[first]
        return live[keep], code[keep]

    P = _pair_array(sampled.points)
    X, Y, Z = (proj_dot(vec, row, (P[:, 0], P[:, 1], 1)) for row in T.rows)
    kp, pcodes = first_per_key(X, Y, Z)
    A = _pair_array(sampled.lines)
    U = (A[:, 0], field.neg(1), vec.neg(A[:, 1]))
    L, M, N = (proj_dot(vec, U, col) for col in zip(*T.adj))
    kl, lcodes = first_per_key(vec.neg(L), N, M)   # l x + m y + n = 0: y = a x - b

    out = make_config(np.column_stack(np.divmod(pcodes, q)),
                      np.column_stack(np.divmod(lcodes, q)))
    if not is_legal(field, out):
        raise InvariantViolation("regularized config is not legal")
    preimages = make_config(P[kp], A[kl])
    stats = RegularizationStats(
        input_points=len(c.points), input_lines=len(c.lines),
        input_incidences=in_inc,
        sampled_points=len(sampled.points), sampled_lines=len(sampled.lines),
        sampled_incidences=s_inc,
        kept_points=len(out.points), kept_lines=len(out.lines),
        kept_incidences=incidences(field, preimages),
        l_inf=l_inf, v_inf=v_inf,
    )
    return out, stats


def slope_collision_probability(field: Field, l1: Line, l2: Line) -> Fraction:
    """Probability that a uniform chart draw gives two fixed lines equal slope.

    The draw runs over all lines at infinity other than (the lift of) l1;
    the lines collide in slope exactly when the chosen line passes through
    their intersection point.  The count includes the draw where l2 itself
    becomes the line at infinity, which comes out to exactly 1/(q+1).
    """
    if l1 == l2:
        raise InvalidInput("lines must be distinct")
    lifted1, lifted2 = lift_config(field, Config((), (l1, l2)))[1]
    meet = proj_cross(field, lifted1, lifted2)
    # by duality the lines through meet are the triples of points_on_line(meet)
    hits = sum(cand != lifted1 for cand in points_on_line(field, meet))
    return Fraction(hits, field.q * field.q + field.q)
