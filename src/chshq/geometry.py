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
from typing import NamedTuple

import numpy as np

from .errors import CapExceeded, InvalidInput, InvariantViolation
from .field import Field, as_elements, as_integers, block_rows, check_int
from .game import Strategy, strategy_tables


class Line(NamedTuple):
    """The non-vertical affine line z2 = a*z1 - b."""
    a: int
    b: int


@dataclass(frozen=True, eq=False)
class Config:
    """The points (x, y) and lines l_{a,b} as intp (n, 2) arrays of rows.
    `make_config` returns them read-only, sorted and duplicate-free; a
    Config built directly holds the arrays it is given.  Configs compare
    equal when their arrays do."""
    points: np.ndarray
    lines: np.ndarray

    def __eq__(self, other):
        return (isinstance(other, Config) and np.array_equal(self.points, other.points)
                and np.array_equal(self.lines, other.lines))


def make_config(points, lines) -> Config:
    """`points` and `lines`, iterables of pairs or (n, 2) integer arrays, as
    a Config."""
    return Config(_distinct_rows(points), _distinct_rows(lines))


def _distinct_rows(pairs) -> np.ndarray:
    """The distinct pairs in lex order as a read-only intp (n, 2) array: lexsort,
    then drop adjacent repeats.  Lists and arrays pass the one integer check,
    `field.as_integers`, so a float, a bool or an int beyond intp is refused."""
    integers = "points and lines must be pairs of integers"
    try:
        arr = as_integers(pairs if isinstance(pairs, np.ndarray) else list(pairs), integers)
    except TypeError:   # not iterable
        raise InvalidInput(integers) from None
    arr = _as_rows(arr, 2, "points and lines must be pairs")
    arr = arr[np.lexsort((arr[:, 1], arr[:, 0]))]
    fresh = np.ones(len(arr), dtype=bool)
    fresh[1:] = (arr[1:] != arr[:-1]).any(axis=1)
    arr = arr[fresh]
    arr.flags.writeable = False
    return arr


def _as_rows(arr: np.ndarray, width: int, message: str) -> np.ndarray:
    """`arr` as (n, width) rows, an empty sequence as n = 0; InvalidInput(message)
    for any other shape."""
    if arr.shape == (0,):
        return arr.reshape(0, width)
    if arr.ndim != 2 or arr.shape[1] != width:
        raise InvalidInput(message)
    return arr


def _rows(field: Field, c: Config) -> tuple[np.ndarray, np.ndarray]:
    """The points and lines of `c` as intp arrays of GF(q) elements."""
    return (as_elements(field, c.points, "point coordinates outside the field"),
            as_elements(field, c.lines, "line parameters outside the field"))


def _legal(points: np.ndarray, lines: np.ndarray) -> bool:
    return all(np.bincount(rows[:, 0]).max(initial=0) <= 1 for rows in (points, lines))


def is_legal(field: Field, c: Config) -> bool:
    return _legal(*_rows(field, c))   # in the field, so at most q distinct x or slopes


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
    points, lines = _rows(field, c)
    if not len(points) or not len(lines):
        return 0
    q, vec = field.q, field.vec
    x, y = points.T
    a, b = lines.T[:, :, None]     # (lines, 1) each
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
    f, g = strategy_tables(field, s)
    x = np.arange(field.q)
    return make_config(np.column_stack((x, f)), np.column_stack((x, g)))


def config_to_strategy(field: Field, c: Config) -> Strategy:
    """Inverse of strategy_to_config on legal configs, padding gaps with 0.

    Padding never removes an incidence among the original pairs, so the
    resulting strategy wins at least incidences(c) input pairs.
    """
    points, lines = _rows(field, c)
    if not _legal(points, lines):
        raise InvalidInput("config is not legal (sizes or duplicate x/slope)")
    f, g = np.zeros((2, field.q), dtype=np.intp)
    f[points[:, 0]] = points[:, 1]
    g[lines[:, 0]] = lines[:, 1]
    return Strategy(tuple(f.tolist()), tuple(g.tolist()))


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
    rng = random.Random(check_int("seed", seed, 0))
    a, b, d = _subspace_dims(field)
    A = _span(field, a)
    B = _span(field, b)
    C = _span(field, b - a + 1)
    # one draw per (c, e) in row-major order; random() is k / 2^53: the
    # product is exact when k * d < 2^53 and rounds to at least 1 otherwise,
    # so this is random() < 1/d exactly (always, for d = 1)
    draws = np.array([rng.random() for _ in range(len(C) * len(B))])
    return make_config(_product(A, B), _product(C, B)[draws * d < 1])


def subspace_cardinalities(field: Field) -> tuple[int, int, int]:
    """(|A|, |B|, |C|) for the subspace construction; |C| = p^(2b-s+1)."""
    a, b, _ = _subspace_dims(field)
    p = field.p
    return p ** a, p ** b, p ** (b - a + 1)


def _subspace_dims(field: Field) -> tuple[int, int, int]:
    """(a, b, d) of the subspace construction: dim A = a = s - b, dim B = b
    with b = 2k for s = 3k and 2k + 1 otherwise, and the thinning divisor d:
    p for s = 3k, p^2 for s = 3k + 1 and 1 for s = 3k + 2."""
    s, p = field.s, field.p
    if s % 2 == 0 or s < 3:
        raise InvalidInput("subspace construction needs odd s >= 3")
    k, r = divmod(s, 3)
    b = 2 * k + (r > 0)
    return s - b, b, (p, p * p, 1)[r]


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
    n_points, n_lines = check_int("n_points", n_points, 0), check_int("n_lines", n_lines, 0)
    return n_points ** 0.75 * n_lines ** 0.75 + n_points + n_lines


# ---------------------------------------------------------------------------
# PG(m-1,q): canonical rows
# ---------------------------------------------------------------------------
# Points and lines of PG(2,q) are both canonical triples (first nonzero
# coordinate scaled to 1); a point v lies on a line u iff u . v = 0.

def canonical_rows(field: Field, rows: np.ndarray) -> np.ndarray:
    """Each row scaled by the inverse of its first nonzero entry, as intp; zero rows stay zero."""
    lead = rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)]
    return field.vec.mul(field.vec.inv(lead)[:, None], rows)


def _triples(field: Field, rows) -> np.ndarray:
    """`rows`, a sequence of triples or an (n, 3) array, as an intp (n, 3)
    array of GF(q) elements through `field.as_elements`; an empty sequence
    gives n = 0.  InvalidInput for anything else."""
    message = f"projective triples must be triples of integers in [0, {field.q})"
    return _as_rows(as_elements(field, rows, message), 3, message)


def proj_canonical(field: Field, v: tuple[int, int, int]) -> tuple[int, int, int]:
    rows = _triples(field, [v])
    if not rows.any():
        raise InvalidInput("zero triple has no projective class")
    return tuple(canonical_rows(field, rows)[0].tolist())


QM_CAP = 1 << 20   # largest space F_q^m whose canonical vectors are listed


def proj_points(field: Field, m: int) -> np.ndarray:
    """The canonical vectors of F_q^m (first nonzero coordinate 1) as a read-only
    intp (k, m) array, by the position of the leading 1, then lex on the rest: the
    base-q codes q^r .. 2q^r - 1 for r = m - 1 down to 0.  PG(2,q) for m = 3.
    CapExceeded when q^m > QM_CAP."""
    q, m = field.q, check_int("m", m)
    # q >= 2 puts every m past log2(QM_CAP) over the cap, so the power is
    # taken at most that far: q ** m for a huge m would not finish
    if q ** min(m, QM_CAP.bit_length()) > QM_CAP:
        raise CapExceeded(f"q^m exceeds enumeration cap {QM_CAP}")
    codes = np.concatenate([np.arange(q ** r, 2 * q ** r) for r in range(m - 1, -1, -1)])
    rows = codes[:, None] // q ** np.arange(m - 1, -1, -1) % q
    rows.flags.writeable = False
    return rows


def proj_point(field: Field, i: int) -> tuple[int, int, int]:
    """The i-th canonical triple of PG(2,q): (1, y, z) in lex order, then
    (0, 1, z), then (0, 0, 1)."""
    q, i = field.q, check_int("i", i, 0)
    if i > q * q + q:
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
    c = _cross(field, *_triples(field, [u, v]).tolist())
    if c == (0, 0, 0):
        raise InvalidInput("triples are proportional; no unique join/meet")
    return proj_canonical(field, c)


def point_on_line(field: Field, line: tuple[int, int, int],
                  i: int) -> tuple[int, int, int]:
    """The i-th of the q+1 canonical points on a line, in `proj_points` order.

    Solved per case instead of scanning the plane: with l2 != 0 each
    (1, y, .) has one solution z, then comes (0, 1, -l1/l2); with l2 = 0 and
    l1 != 0 the points are (1, -l0/l1, z) for every z, then (0, 0, 1); the
    line (l0, 0, 0) holds (0, 1, z) for every z and (0, 0, 1).
    """
    f, q = field, field.q
    l0, l1, l2 = _triples(field, [line])[0].tolist()
    i = check_int("i", i, 0)
    if i > q:
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
    """The q+1 canonical points v with line . v = 0, in `proj_points` order."""
    return [point_on_line(field, line, i) for i in range(field.q + 1)]


def lift_config(field: Field, c: Config) -> tuple[np.ndarray, np.ndarray]:
    """Affine -> projective: (x, y) -> (x:y:1); l_{a,b} -> coefficients
    (a:-1:-b), as two canonical intp (n, 3) arrays, row for row with `c`."""
    points, lines = _rows(field, c)
    a, b = lines.T
    lns = np.column_stack((a, np.full_like(a, field.neg(1)), field.vec.neg(b)))
    return canonical_rows(field, np.insert(points, 2, 1, axis=1)), canonical_rows(field, lns)


def projective_incidences(field: Field, pts, lns) -> int:
    """|{(p, l): l . p = 0}|, each copy of a repeated row counted, for (n, 3)
    arrays or sequences of triples: the zeros of one `proj_dot` grid."""
    P, L = (_triples(field, v).T for v in (pts, lns))
    return int(np.count_nonzero(proj_dot(field.vec, L[:, :, None], P[:, None, :]) == 0))


def _code_tables(field: Field):
    """Arithmetic tables of F_q^3 with each vector encoded as the code
    k = x*q^2 + y*q + z, built by running `field.vec`, `_cross` and
    `proj_dot` over every pair of codes (at most q^6 entries each):

    vadd[u*q^3 + v] = u + v, vcross[u*q^3 + v] = u x v, scale[s, v] = s*v
    for s in F_q, and dot[u, v] = u . v, a (q^3, q^3) uint8 table (its
    entries are field elements, below q <= `SWEEP_Q_CAP`).
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
    dot = proj_dot(vec, u, v).astype(np.uint8)
    return vadd, vcross, scale, dot


def _sweep_tiles(field: Field, pts, lns):
    """Per-cell incidence counts of the lifted points `pts` and lines `lns`
    under the matrices M = (c1 | c2 | c3), yielded tile by tile as
    (counts, singular), two (rows, cols) arrays over a block of c2 rows and
    a window of c3 columns; singular marks det(M) = (c1 x c2) . c3 = 0.

    c1 runs over `proj_points(field, 3)` and (c2, c3) over the nonzero codes
    in lex order, in tiles of at most t = `block_rows(lines * points)`
    transforms: t // (n-1) whole c2 rows when t >= n-1, n = q^3, otherwise
    windows of t columns of one c2 row.

    No image is formed.  With c1 and c2 fixed, a point v goes to
    M v = A + v2*c3 with A = v0*c1 + v1*c2, and a line u to
    u adj(M) = u0*(c2 x c3) + u1*(c3 x c1) + u2*(c1 x c2) = B + W x c3 with
    B = u2*(c1 x c2) and W = u0*c2 - u1*c1.  Their product is
    alpha + beta . c3 with alpha = B . A and beta = v2*B + A x W, because
    (W x c3) . c3 = 0 and (W x c3) . A = (A x W) . c3; and alpha = 0,
    because c1 x c2 is orthogonal to c1 and to c2.  So the pair meets after
    the transform iff dot[beta, c3] = 0: beta is gathered once per block of
    c2 rows, and a tile is one uint8 gather of the rows beta of the window's
    zero mask of `dot`.  A singular cell counts lines * points, since
    adj(M) M = det(M) I = 0 there.
    """
    q = field.q
    vadd, vcross, scale, dot = _code_tables(field)
    n = q ** 3
    scale_n = scale * n
    P, U = pts.T[:, :, None], lns.T[:, :, None]     # (3, np, 1), (3, nl, 1)
    vectors = np.arange(1, n)                  # nonzero c2 codes, lex order
    cells = len(lns) * len(pts)
    tally = np.min_scalar_type(cells)          # holds every count
    per_tile = block_rows(cells)               # transforms
    tile_rows, tile_cols = max(1, per_tile // (n - 1)), min(n - 1, per_tile)
    span = tile_rows * max(1, per_tile // tile_rows)    # c2 rows per beta block
    windows = [(dot[:, 1 + s:1 + s + tile_cols] == 0).view(np.uint8)
               for s in range(0, n - 1, tile_cols)]
    v1c2, u0c2 = scale[P[1], vectors], scale_n[U[0], vectors]   # v1*c2, n u0*c2
    neg_u1 = field.vec.neg(U[1])
    for k1 in (proj_points(field, 3) @ (q * q, q, 1)).tolist():
        c12 = vcross[k1 * n + vectors]                          # c1 x c2
        A = vadd[scale_n[P[0], k1] + v1c2]                      # (np, n - 1)
        B = scale[U[2], c12]                                    # (nl, n - 1)
        W = vadd[u0c2 + scale[neg_u1, k1]]                      # u0*c2 - u1*c1
        for b in range(0, n - 1, span):
            bs = slice(b, b + span)
            Ab, Bb, Wb = A[None, :, bs], B[:, None, bs], W[:, None, bs]
            width = Ab.shape[2]
            # v2*B + A x W per (line, point), as (cells, width)
            beta = vadd[scale_n[P[2], Bb] + vcross[Ab * n + Wb]].reshape(cells, width)
            for r in range(0, width, tile_rows):
                rs = slice(r, r + tile_rows)
                c12r = c12[b + r:b + r + tile_rows]
                for zero in windows:
                    yield (zero.take(beta[:, rs], axis=0).sum(axis=0, dtype=tally),  # (r, s)
                           zero.take(c12r, axis=0).view(bool))


def verify_incidence_preservation_exhaustive(field: Field, c: Config) -> int:
    """Assert that every element of PGL_3(q) preserves the projective
    incidence count of the lifted configuration; returns the group order.

    Enumerates the matrices M with columns c1, c2, c3, one per projective
    class: c1 runs over `proj_points(field, 3)`, which fixes the scalar, and
    (c2, c3) over every pair of nonzero vectors with det(M) = (c1 x c2) . c3
    != 0, counted by `_sweep_tiles` without forming an image.  Every regular
    cell must count the projective incidences of the lift, and `checked`,
    the number of regular cells, must equal the group order.
    """
    q = field.q
    if q > SWEEP_Q_CAP:
        raise CapExceeded(f"exhaustive transform sweep capped at q <= {SWEEP_Q_CAP}")
    pts, lns = lift_config(field, c)
    base = projective_incidences(field, pts, lns)
    checked = 0
    for counts, singular in _sweep_tiles(field, pts, lns):
        if not ((counts == base) | singular).all():
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
    uniform point v_inf on it; take the frame B = (w | v_inf | u), with w
    the first other point of `points_on_line(l_inf)` and u the first point
    of `proj_point` order off l_inf.  The chart B^(-1) sends w, v_inf, u to
    the standard frame, so l_inf becomes the line at infinity {z = 0} and
    v_inf the vertical direction (0 : 1 : 0).  It moves a point
    p = (x : y : 1) by the rows of adj(B), to ((v_inf x u) . p, (u x w) . p,
    (w x v_inf) . p), and a line l = (a : -1 : -b) to
    l B = (l . w, l . v_inf, l . u).  Images (X : Y : Z) with Z = 0 (on
    l_inf) and (L : M : N) with M = 0 (through v_inf, so vertical) are
    dropped; of the rest keep the smallest y per x and the smallest b per
    slope.  The chart preserves incidence, since (l B) . (adj(B) p) =
    det(B) l . p, so kept incidences are counted on the kept points' and
    lines' preimages."""
    q, vec = field.q, field.vec
    rng = random.Random(check_int("seed", seed, 0))
    in_inc = incidences(field, c)

    def sample(rows):   # random.sample picks positions from the length alone
        return rows[rng.sample(range(len(rows)), cap)] if len(rows) > cap else rows
    cap = q // 2
    sampled = make_config(sample(c.points), sample(c.lines))
    s_inc = incidences(field, sampled)

    l_inf = proj_point(field, rng.randrange(q * q + q + 1))   # lines share the triples
    v_inf = point_on_line(field, l_inf, rng.randrange(q + 1))
    w = next(p for p in (point_on_line(field, l_inf, i) for i in (0, 1)) if p != v_inf)
    u = next(p for p in (proj_point(field, i) for i in range(q * q + q + 1))
             if proj_dot(field, l_inf, p) != 0)

    def first_per_key(k, v, d):
        # indices of the images with d != 0, one per key k/d: the smallest v/d
        live = np.flatnonzero(d != 0)
        di = vec.inv(d[live])
        code = vec.mul(k[live], di) * q + vec.mul(v[live], di)
        order = np.argsort(code)
        _, first = np.unique(code[order] // q, return_index=True)
        keep = order[first]
        return live[keep], code[keep]

    P, A = sampled.points, sampled.lines
    X, Y, Z = (proj_dot(vec, _cross(field, *pair), (P[:, 0], P[:, 1], 1))
               for pair in ((v_inf, u), (u, w), (w, v_inf)))
    kp, pcodes = first_per_key(X, Y, Z)
    U = (A[:, 0], field.neg(1), vec.neg(A[:, 1]))
    L, M, N = (proj_dot(vec, U, col) for col in (w, v_inf, u))
    kl, lcodes = first_per_key(vec.neg(L), N, M)   # l x + m y + n = 0: y = a x - b

    out = make_config(np.column_stack(np.divmod(pcodes, q)),
                      np.column_stack(np.divmod(lcodes, q)))
    if not is_legal(field, out):
        raise InvariantViolation("regularized config is not legal")
    preimages = Config(P[kp], A[kl])
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
    lifted1, lifted2 = map(tuple, lift_config(field, make_config((), (l1, l2)))[1].tolist())
    meet = proj_cross(field, lifted1, lifted2)
    # by duality the lines through meet are the triples of points_on_line(meet)
    hits = sum(cand != lifted1 for cand in points_on_line(field, meet))
    return Fraction(hits, field.q * field.q + field.q)
