"""Incidence configurations, constructions, PG(2,q), regularization."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import random
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import chshq.field
from chshq import geometry
from chshq.errors import CapExceeded, InvalidInput, InvariantViolation
from chshq.field import Field, field_from_q
from chshq.game import Strategy, win_count
from chshq.infotheory import build_U_m
from test_infotheory import u_m_listing
from chshq.geometry import (
    Line, Config, make_config, is_legal, incidences,
    strategy_to_config, config_to_strategy,
    subfield_construction, grid_construction,
    subspace_construction, subspace_cardinalities, trivial_incidence_bound,
    canonical_rows, proj_canonical, proj_points, proj_point, proj_dot,
    proj_cross, point_on_line, points_on_line,
    lift_config, projective_incidences,
    verify_incidence_preservation_exhaustive, SWEEP_Q_CAP,
    RegularizationStats, random_projective_regularize, slope_collision_probability,
    _cross, _code_tables, _span,
)
from proj_oracle import ProjTransform, _det_adjugate


def plane(field) -> list[tuple[int, int, int]]:
    # the canonical triples of PG(2,q) as tuples: its points and, by duality, its lines
    return list(map(tuple, proj_points(field, 3).tolist()))


def raw_config(points, lines) -> Config:
    # a Config of the pairs as given: unsorted, repeats kept
    return Config(*(np.array(v, dtype=np.intp).reshape(-1, 2) for v in (points, lines)))


def naive_incidences(field, c: Config) -> int:
    # direct definition: point (x, y) lies on line (a, b) iff y = a x - b
    return sum(1 for (x, y) in c.points.tolist() for (a, b) in c.lines.tolist()
               if y == field.sub(field.mul(a, x), b))


def loop_incidences(field, c: Config) -> int:
    # the per-(line, distinct x) scalar loop that incidences replaced
    by_x: dict[int, set[int]] = {}
    for x, y in c.points.tolist():
        by_x.setdefault(x, set()).add(y)
    count = 0
    for a, b in c.lines.tolist():
        for x, ys in by_x.items():
            if field.sub(field.mul(a, x), b) in ys:
                count += 1
    return count


def searchsorted_incidences(field, c: Config) -> int:
    # the sorted-code counter that the membership rows replaced: for every
    # line and distinct x, (x, a*x - b) is looked up among the sorted codes
    if not len(c.points) or not len(c.lines):
        return 0
    q, vec = field.q, field.vec
    codes = np.unique(np.array(c.points, dtype=np.intp) @ np.array([q, 1]))
    xs = np.unique(codes // q)
    a, b = np.array(c.lines, dtype=np.intp).T[:, :, None]
    rows = chshq.field.block_rows(len(xs))
    count = 0
    for i in range(0, len(a), rows):
        hit = xs * q + vec.sub(vec.mul(a[i:i + rows], xs), b[i:i + rows])
        at = np.minimum(np.searchsorted(codes, hit), len(codes) - 1)
        count += int((codes[at] == hit).sum())
    return count


def set_make_config(points, lines) -> Config:
    # the sorted-set normaliser that the lexsort in make_config replaced
    return raw_config(sorted({(int(x), int(y)) for x, y in points}),
                      sorted({(int(a), int(b)) for a, b in lines}))


def random_config(field, rng: random.Random, npts: int, nlns: int) -> Config:
    q = field.q
    pts = {(rng.randrange(q), rng.randrange(q)) for _ in range(npts)}
    lns = {(rng.randrange(q), rng.randrange(q)) for _ in range(nlns)}
    return make_config(pts, lns)


# ---------------------------------------------------------------------------
# configs and the strategy correspondence
# ---------------------------------------------------------------------------

def test_make_config_dedups_and_sorts():
    c = make_config([(1, 1), (0, 0), (1, 1)], [(0, 0), (0, 0)])
    assert c.points.tolist() == [[0, 0], [1, 1]]
    assert c.lines.tolist() == [[0, 0]]
    assert c == raw_config([(0, 0), (1, 1)], [(0, 0)])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_incidences_match_naive_count(q):
    field = field_from_q(q)
    rng = random.Random(q)
    for _ in range(20):
        c = random_config(field, rng, rng.randrange(1, 2 * q),
                          rng.randrange(1, 2 * q))
        assert incidences(field, c) == naive_incidences(field, c)


def rich_config(field, rng: random.Random) -> Config:
    """Random points, and lines half of which pass through one of them."""
    q = field.q
    pts = [(rng.randrange(q), rng.randrange(q)) for _ in range(rng.randrange(1, 3 * q))]
    lns = [(rng.randrange(q), rng.randrange(q)) for _ in range(rng.randrange(1, 2 * q))]
    for _ in range(len(lns)):
        (x, y), a = rng.choice(pts), rng.randrange(q)
        lns.append((a, field.sub(field.mul(a, x), y)))
    return make_config(pts, lns)


@pytest.mark.parametrize("block", [None, 1, 5, 64])
def test_incidences_match_loop_oracle(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(chshq.field, "BLOCK_CELLS", block)
    rng = random.Random(block)
    for q in (2, 3, 4, 5, 7, 8, 9, 25, 27, 32, 101):
        field = field_from_q(q)
        for _ in range(8):
            c = rich_config(field, rng)
            assert incidences(field, c) == loop_incidences(field, c)


@pytest.mark.parametrize("block", [None, 1])
def test_incidences_on_raw_configs_with_duplicates(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(chshq.field, "BLOCK_CELLS", block)
    field = field_from_q(7)
    pts = ((1, 2), (1, 2), (3, 4), (1, 5))
    lns = (Line(1, 6), Line(1, 6), Line(2, 2), Line(0, 5))
    # not normalized: a repeated line counts twice, a repeated point once
    c = raw_config(pts, lns)
    assert incidences(field, c) == loop_incidences(field, c) == 6
    assert incidences(field, raw_config((), lns)) == 0
    assert incidences(field, raw_config(pts, ())) == 0
    assert incidences(field, make_config([], [])) == 0


@st.composite
def raw_configs(draw):
    """A field and an unnormalized Config: unsorted, with repeated points,
    repeated lines and repeated x-coordinates."""
    q = draw(st.sampled_from([2, 3, 4, 7, 8, 9, 16, 25, 27]))
    pair = st.tuples(st.integers(0, q - 1), st.integers(0, q - 1))
    pts = draw(st.lists(pair, max_size=3 * q))
    lns = draw(st.lists(pair, max_size=3 * q))
    pts += draw(st.lists(st.sampled_from(pts), max_size=q)) if pts else []
    lns += draw(st.lists(st.sampled_from(lns), max_size=q)) if lns else []
    return field_from_q(q), raw_config(draw(st.permutations(pts)),
                                       draw(st.permutations(lns)))


@pytest.mark.parametrize("block", [1, 7, None])
@settings(max_examples=40, deadline=None)
@given(case=raw_configs())
def test_incidences_and_make_config_match_oracles(block, case):
    field, c = case
    old = chshq.field.BLOCK_CELLS
    if block is not None:
        chshq.field.BLOCK_CELLS = block
    try:
        got = incidences(field, c)
        assert got == searchsorted_incidences(field, c) == loop_incidences(field, c)
    finally:
        chshq.field.BLOCK_CELLS = old
    pts, lns = c.points.tolist(), c.lines.tolist()
    norm = make_config(pts, [Line(a, b) for a, b in lns])
    assert norm == set_make_config(pts, lns)
    for rows in (norm.points, norm.lines):
        assert rows.dtype == np.intp and rows.ndim == 2 and rows.shape[1] == 2
        assert not rows.flags.writeable
    # the same from (n, 2) arrays, and counted on the normalized config
    arrays = [np.array(v, dtype=np.int64).reshape(-1, 2) for v in (pts, lns)]
    assert make_config(*arrays) == norm == make_config(c.points, c.lines)
    assert incidences(field, norm) == loop_incidences(field, norm)


def test_make_config_refuses_non_pairs():
    for bad in ([(1, 2, 3)], [(1,)], np.zeros((2, 3), dtype=int), np.zeros(4, dtype=int)):
        with pytest.raises(InvalidInput, match="must be pairs"):
            make_config(bad, [])
        with pytest.raises(InvalidInput, match="must be pairs"):
            make_config([], bad)


@pytest.mark.parametrize("bad", [10 ** 30, 2 ** 63, -(2 ** 63) - 1, "a", "1", None,
                                 float("nan"), float("inf")])
def test_make_config_refuses_non_integer_coordinates(bad):
    # a list is converted exactly: nothing past intp, no text, no None
    for pairs in ([(bad, 0)], [(0, 1), (0, bad)]):
        with pytest.raises(InvalidInput, match="must be pairs of integers"):
            make_config(pairs, [])
        with pytest.raises(InvalidInput, match="must be pairs of integers"):
            make_config([], pairs)


@pytest.mark.parametrize("bad", [10 ** 30, None, "a"])
def test_make_config_refuses_uncastable_object_arrays(bad):
    with pytest.raises(InvalidInput, match="must be pairs of integers"):
        make_config(np.array([(bad, 0)], dtype=object), [])


def test_config_rows_are_read_only_intp_and_compare_by_value():
    pairs = [(3, 1), (0, 2), (3, 1)]
    c = make_config(pairs, [Line(a, b) for a, b in pairs])
    for rows in (c.points, c.lines):
        assert rows.dtype == np.intp and rows.shape == (2, 2)
        with pytest.raises(ValueError):
            rows[0, 0] = 1
    assert c.points.tolist() == c.lines.tolist() == [[0, 2], [3, 1]]
    as_int64 = np.array(pairs, dtype=np.int64)
    assert c == make_config(pairs, pairs) == make_config(as_int64, as_int64)
    assert c != make_config(pairs, pairs[:1]) and c != make_config([], [])
    assert c != (c.points, c.lines)
    empty = make_config([], [])
    assert empty == make_config(np.zeros((0, 2), dtype=np.int64), ())
    assert empty.points.shape == empty.lines.shape == (0, 2)


def test_make_config_refuses_floats_bools_and_wide_uints():
    # no cast, as lists and as arrays: a float would truncate, a bool read as
    # 0/1 and a uint64 at or above 2^63 wrap negative
    bad = [np.array([(1.2, 1), (1.7, 0)]), np.array([(True, False)]),
           np.array([(2 ** 63, 0), (1, 0)], dtype=np.uint64),
           np.array([(2 ** 64 - 1, 0)], dtype=np.uint64)]
    for pairs in bad + [rows.tolist() for rows in bad]:
        with pytest.raises(InvalidInput, match="must be pairs of integers"):
            make_config(pairs, [])
        with pytest.raises(InvalidInput, match="must be pairs of integers"):
            make_config([], pairs)
    # every unsigned row below 2^63 is kept, exactly
    wide = np.array([(2 ** 63 - 1, 0), (1, 0), (1, 0)], dtype=np.uint64)
    for pairs in (wide, wide.tolist()):
        rows = make_config(pairs, []).points
        assert rows.dtype == np.intp and rows.tolist() == [[1, 0], [2 ** 63 - 1, 0]]
    with pytest.raises(InvalidInput, match="point coordinates outside the field"):
        incidences(Field(5, 1), make_config(wide, []))


@pytest.mark.parametrize("bad", [-1, 5, 10 ** 6])
@pytest.mark.parametrize("slot", range(4))
def test_out_of_field_coordinates_are_refused(bad, slot):
    # one bad coordinate in GF(5); -1 must not wrap to 4
    field = Field(5, 1)
    cell = [0, 0, 0, 0]
    cell[slot] = bad
    c = make_config([cell[:2]], [cell[2:]])
    message = "point coordinates" if slot < 2 else "line parameters"
    calls = (incidences, is_legal, config_to_strategy, lift_config,
             verify_incidence_preservation_exhaustive,
             lambda f, c: random_projective_regularize(f, c, seed=0))
    for call in calls:
        with pytest.raises(InvalidInput, match=f"{message} outside the field"):
            call(field, c)


@pytest.mark.parametrize("p,s", [(2, 3), (2, 5), (3, 3), (3, 5), (3, 7), (5, 3), (7, 3)])
def test_span_matches_set_loop(p, s):
    field = Field(p, s)
    g = field.primitive_element()
    for dim in range(1, s + 1):
        # the set-based loop that _span replaced
        out = {0}
        for v in [field.pow(g, i) for i in range(dim)]:
            scaled = [field.mul(c, v) for c in range(p)]
            out = {field.add(x, sv) for x in out for sv in scaled}
        got = geometry._span(field, dim)
        assert got == sorted(out)
        assert all(type(x) is int for x in got)


@pytest.mark.parametrize("q", [2, 3, 5, 8])
def test_strategy_config_roundtrip(q):
    field = field_from_q(q)
    rng = random.Random(q * 11)
    for _ in range(10):
        s = Strategy(tuple(rng.randrange(q) for _ in range(q)),
                     tuple(rng.randrange(q) for _ in range(q)))
        c = strategy_to_config(field, s)
        assert is_legal(field, c)
        assert len(c.points) == len(c.lines) == q
        assert config_to_strategy(field, c) == s
        assert incidences(field, c) == win_count(field, s).wins


def test_config_to_strategy_rejects_illegal():
    field = field_from_q(3)
    with pytest.raises(InvalidInput):
        config_to_strategy(field, make_config([(0, 0), (0, 1), (1, 0)],
                                              [(0, 0), (1, 0), (2, 0)]))


def test_is_legal():
    field = field_from_q(3)
    assert is_legal(field, make_config([(0, 1), (1, 2)], [(0, 0), (1, 2)]))
    # repeated x-coordinate
    assert not is_legal(field, make_config([(0, 1), (0, 2)], [(0, 0)]))
    # repeated slope
    assert not is_legal(field, make_config([(0, 1)], [(1, 0), (1, 2)]))
    # too many points cannot happen with distinct x over F_q by pigeonhole


def test_legal_configs_obey_trivial_bound():
    for q in (3, 5, 8):
        field = field_from_q(q)
        rng = random.Random(q)
        for _ in range(10):
            s = Strategy(tuple(rng.randrange(q) for _ in range(q)),
                         tuple(rng.randrange(q) for _ in range(q)))
            c = strategy_to_config(field, s)
            assert incidences(field, c) <= trivial_incidence_bound(
                len(c.points), len(c.lines))


def test_trivial_bound_values():
    assert trivial_incidence_bound(9, 9) == 27.0 + 18
    with pytest.raises(InvalidInput):
        trivial_incidence_bound(-1, 3)


# ---------------------------------------------------------------------------
# the three constructions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [4, 9, 16, 25])
def test_subfield_construction_hits_q_to_three_halves(q):
    field = field_from_q(q)
    c = subfield_construction(field)
    r = int(q ** 0.5)
    assert len(c.points) == len(c.lines) == q
    assert incidences(field, c) == naive_incidences(field, c) == r ** 3


def test_subfield_needs_even_degree():
    with pytest.raises(InvalidInput):
        subfield_construction(field_from_q(8))


def grid_expected_incidences(q: int) -> int:
    """Closed form |L| * floor(q^(1/3)) for the grid construction: n1 x n2
    points with n1 = floor(q^(1/3)), n2 = floor(q^(2/3)), and lines of
    slope 1..n1/2 and intercept 1..n2/2, each through n1 points."""
    n1 = max(n for n in range(q) if n ** 3 <= q)
    n2 = max(n for n in range(q) if n ** 3 <= q * q)
    return (n1 // 2) * (n2 // 2) * n1


@pytest.mark.parametrize("q", [101, 211, 1009])
def test_grid_construction_count(q):
    field = field_from_q(q)
    c = grid_construction(field)
    n1 = round(q ** (1 / 3))
    while n1 ** 3 > q:
        n1 -= 1
    got = incidences(field, c)
    assert got == grid_expected_incidences(q) == len(c.lines) * n1


def test_grid_needs_prime_field():
    with pytest.raises(InvalidInput):
        grid_construction(field_from_q(9))


def test_subspace_construction_q243():
    field = field_from_q(243)
    na, nb, nc = subspace_cardinalities(field)
    assert (na, nb, nc) == (9, 27, 9)
    c = subspace_construction(field, seed=0)
    assert len(c.points) == na * nb
    assert len(c.lines) == nc * 27   # one line per (slope, shift) pair
    assert incidences(field, c) == na * nb * nc == 2187


def test_subspace_construction_q27():
    # s = 3 thins the line set, so the exact identity is per kept line
    field = field_from_q(27)
    na, nb, nc = subspace_cardinalities(field)
    assert (na, nb, nc) == (3, 9, 9)
    c = subspace_construction(field, seed=1)
    assert len(c.lines) <= nc * nb
    assert incidences(field, c) == na * len(c.lines)
    assert subspace_construction(field, seed=1) == c   # deterministic


def fraction_thinned_lines(field, seed: int) -> list[Line]:
    # the rational keep test, random() < 1/d, that the float product replaced
    p, s = field.p, field.s
    k, r = divmod(s, 3)
    b, d = (2 * k, p) if r == 0 else (2 * k + 1, p * p)
    B, C = _span(field, b), _span(field, 2 * b - s + 1)
    rng = random.Random(seed)
    return [Line(c, e) for c in C for e in B if rng.random() < Fraction(1, d)]


@pytest.mark.parametrize("p,s", [(2, 3), (3, 3), (5, 3), (2, 7), (3, 7),
                                 (2, 9), (3, 9)])
def test_subspace_thinning_matches_fraction_rule(p, s):
    field = Field(p, s)
    for seed in range(5):
        expect = fraction_thinned_lines(field, seed)
        assert (subspace_construction(field, seed=seed).lines.tolist()
                == [list(l) for l in sorted(expect)])


def test_subspace_needs_odd_degree_at_least_three():
    with pytest.raises(InvalidInput):
        subspace_construction(field_from_q(9))
    with pytest.raises(InvalidInput):
        subspace_construction(field_from_q(5))


# ---------------------------------------------------------------------------
# PG(2, q) basics
# ---------------------------------------------------------------------------

def projective_plane_census(field) -> tuple[int, int, int]:
    """(#points, #lines, points per line); enumerated and checked for q <= 16."""
    q = field.q
    n = q * q + q + 1
    if q <= 16:
        pts = lns = plane(field)
        if len(pts) != n or len(lns) != n:
            raise InvariantViolation("projective census mismatch")
        if len({p for p in pts}) != n:
            raise InvariantViolation("canonical points not distinct")
        for line in lns:
            if sum(proj_dot(field, line, p) == 0 for p in pts) != q + 1:
                raise InvariantViolation("line with wrong point count")
    return n, n, q + 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_projective_census(q):
    field = field_from_q(q)
    n_points, n_lines, per_line = projective_plane_census(field)
    assert n_points == n_lines == q * q + q + 1
    assert per_line == q + 1


def test_census_formula_beyond_enumeration_range():
    assert projective_plane_census(field_from_q(25)) == (651, 651, 26)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_proj_points_are_the_hadamard_index_vectors(q):
    # PG(2,q) and U_3 list the canonical triples of the product listing, in its order
    field = field_from_q(q)
    listing = [list(v) for v in u_m_listing(q, 3)]
    assert build_U_m(field, 3).vectors.tolist() == proj_points(field, 3).tolist() == listing


def test_canonical_representatives_unique():
    field = field_from_q(4)
    pts = plane(field)
    assert len(pts) == len(set(pts)) == 21
    for v in pts:
        assert proj_canonical(field, v) == v
        # rescaling collapses back to the same representative
        for c in range(1, field.q):
            w = tuple(field.mul(c, vi) for vi in v)
            assert proj_canonical(field, w) == v


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_proj_point_and_points_on_line_match_scan(q):
    # the plane scans these closed forms replaced, kept as the reference
    field = field_from_q(q)
    pts = plane(field)
    assert [proj_point(field, i) for i in range(len(pts))] == pts
    for line in plane(field):
        scan = [p for p in pts if proj_dot(field, line, p) == 0]
        assert points_on_line(field, line) == scan
        # any nonzero multiple names the same line
        assert points_on_line(field, tuple(field.mul(q - 1, c) for c in line)) == scan


def test_proj_point_and_points_on_line_reject_bad_input():
    field = field_from_q(3)
    for i in (-1, 13):
        with pytest.raises(InvalidInput):
            proj_point(field, i)
    with pytest.raises(InvalidInput):
        points_on_line(field, (0, 0, 0))
    with pytest.raises(InvalidInput, match=r"^i = -1 must be an integer >= 0$"):
        point_on_line(field, (1, 2, 0), -1)
    with pytest.raises(InvalidInput, match="outside the 4 points"):
        point_on_line(field, (1, 2, 0), 4)
    with pytest.raises(InvalidInput):
        point_on_line(field, (0, 0, 0), 0)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_point_on_line_is_the_listed_point(q):
    field = field_from_q(q)
    for line in plane(field):
        listed = points_on_line(field, line)
        assert [point_on_line(field, line, i) for i in range(q + 1)] == listed


def test_cross_product_join_and_meet():
    field = field_from_q(5)
    rng = random.Random(0)
    pts = plane(field)
    for _ in range(50):
        u, v = rng.sample(pts, 2)
        line = proj_cross(field, u, v)
        assert proj_dot(field, line, u) == 0
        assert proj_dot(field, line, v) == 0
        assert set(points_on_line(field, line)) >= {u, v}


def test_lift_preserves_incidences():
    for q in (3, 5, 8):
        field = field_from_q(q)
        rng = random.Random(q)
        for _ in range(10):
            c = random_config(field, rng, q, q)
            pts, lns = lift_config(field, c)
            assert len(pts) == len(c.points) and len(lns) == len(c.lines)
            assert projective_incidences(field, pts, lns) == incidences(field, c)


def canonical_loop(field, v) -> tuple[int, ...]:
    # the per-row scalar scaling that canonical_rows replaced; zero rows stay zero
    lead = next((x for x in v if x), 0)
    return tuple(field.mul(field.inv(lead), x) for x in v) if lead else tuple(v)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 25])
def test_canonical_rows_match_scalar_loop(q):
    field = field_from_q(q)
    rng = np.random.default_rng(q)
    for m in (1, 2, 3, 4):
        rows = rng.integers(0, q, size=(40, m))
        rows[::7] = 0                               # zero rows
        rows[1::5, :m - 1] = 0                      # leads late in the row
        got = canonical_rows(field, rows)
        assert got.dtype == np.intp
        assert got.tolist() == [list(canonical_loop(field, v)) for v in rows.tolist()]
    for v in plane(field):
        assert proj_canonical(field, tuple(field.mul(q - 1, x) for x in v)) == v
    with pytest.raises(InvalidInput, match="zero triple"):
        proj_canonical(field, (0, 0, 0))


def projective_incidences_loop(field, pts, lns) -> int:
    # the scalar double loop that the one-grid count replaced
    return sum(proj_dot(field, l, p) == 0 for l in lns for p in pts)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_projective_incidences_match_scalar_loop(q):
    field = field_from_q(q)
    rng = random.Random(q)
    configs = [random_config(field, rng, n, k) for n, k in ((q, q), (2 * q, q), (1, 3))]
    full = configs[0]
    configs += [raw_config(full.points.tolist() * 2, full.lines.tolist()[:1] * 3),
                raw_config(full.points.tolist()[::-1], full.lines.tolist() * 2),
                make_config(full.points, []), make_config([], [])]
    for c in configs:
        pts, lns = lift_config(field, c)
        assert pts.shape == (len(c.points), 3) and lns.shape == (len(c.lines), 3)
        tuples = [list(map(tuple, v.tolist())) for v in (pts, lns)]
        assert tuples == [[canonical_loop(field, (x, y, 1)) for x, y in c.points.tolist()],
                          [canonical_loop(field, (a, field.neg(1), field.neg(b)))
                           for a, b in c.lines.tolist()]]
        expected = projective_incidences_loop(field, *tuples)
        assert projective_incidences(field, pts, lns) == expected
        assert projective_incidences(field, *tuples) == expected
        assert expected == naive_incidences(field, c)


# ---------------------------------------------------------------------------
# projective transforms
# ---------------------------------------------------------------------------

def all_transforms(field):
    """Every element of PGL_3(q), one ProjTransform per projective class.

    The columns c1, c2, c3 of the matrix: c1 runs over canonical points,
    which fixes the overall scalar, and c2, c3 over all nonzero vectors
    with det = (c1 x c2) . c3 != 0, that is c2 outside span(c1) and c3
    outside span(c1, c2).  Yields (q^2+q+1)(q^3-q)(q^3-q^2) transforms.
    """
    q = field.q
    vectors = [(a, b, c) for a in range(q) for b in range(q) for c in range(q)][1:]
    for c1 in plane(field):
        for c2 in vectors:
            c12 = _cross(field, c1, c2)
            for c3 in vectors:
                if proj_dot(field, c12, c3):
                    yield ProjTransform(field, tuple(zip(c1, c2, c3)))


def random_transform(field, rng: random.Random) -> ProjTransform:
    """Uniform invertible matrix by rejection (not uniform over PGL classes,
    but every class is reachable; good enough for sampling checks)."""
    q = field.q
    while True:
        rows = tuple(tuple(rng.randrange(q) for _ in range(3)) for _ in range(3))
        det, _ = _det_adjugate(field, rows)
        if det != 0:
            return ProjTransform(field, rows)


def apply_point(field, t: ProjTransform, v):
    # v -> M v, canonical
    return proj_canonical(field, tuple(proj_dot(field, row, v) for row in t.rows))


def apply_line(field, t: ProjTransform, u):
    # u -> u adj(M), canonical
    return proj_canonical(field, tuple(proj_dot(field, u, col) for col in zip(*t.adj)))


def all_transforms_span_sets(field):
    # the span-set enumeration that the det != 0 test replaced: c2 outside
    # span(c1), c3 outside span(c1, c2), each span built as a set
    q = field.q
    vectors = [(a, b, c) for a in range(q) for b in range(q) for c in range(q)][1:]
    for c1 in plane(field):
        span1 = {tuple(field.mul(t, x) for x in c1) for t in range(1, q)}
        for c2 in vectors:
            if c2 in span1:
                continue
            span2 = set()
            for t1 in range(q):
                v1 = tuple(field.mul(t1, x) for x in c1)
                for t2 in range(q):
                    span2.add(tuple(field.add(v1[i], field.mul(t2, c2[i]))
                                    for i in range(3)))
            for c3 in vectors:
                if c3 not in span2:
                    yield tuple((c1[i], c2[i], c3[i]) for i in range(3))


def det_adjugate_cofactors(field, m):
    # the cofactor expansion that the cross products replaced
    f = field
    def mul(a, b): return f.mul(a, b)
    def sub(a, b): return f.sub(a, b)
    c00 = sub(mul(m[1][1], m[2][2]), mul(m[1][2], m[2][1]))
    c01 = sub(mul(m[1][2], m[2][0]), mul(m[1][0], m[2][2]))
    c02 = sub(mul(m[1][0], m[2][1]), mul(m[1][1], m[2][0]))
    det = f.add(f.add(mul(m[0][0], c00), mul(m[0][1], c01)), mul(m[0][2], c02))
    adj = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            r = [k for k in range(3) if k != j]
            c = [k for k in range(3) if k != i]
            minor = sub(mul(m[r[0]][c[0]], m[r[1]][c[1]]),
                        mul(m[r[0]][c[1]], m[r[1]][c[0]]))
            adj[i][j] = minor if (i + j) % 2 == 0 else f.neg(minor)
    return det, tuple(tuple(row) for row in adj)


def test_transform_group_order_q2_q3():
    for q in (2, 3):
        field = field_from_q(q)
        order = (q**2 + q + 1) * (q**3 - q) * (q**3 - q**2)
        assert sum(1 for _ in all_transforms(field)) == order


@pytest.mark.parametrize("q", [2, 3])
def test_all_transforms_match_span_sets(q):
    field = field_from_q(q)
    assert [t.rows for t in all_transforms(field)] == list(all_transforms_span_sets(field))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 25])
def test_det_adjugate_matches_cofactors(q):
    field = field_from_q(q)
    rng = random.Random(q)
    mats = [tuple(tuple(rng.randrange(q) for _ in range(3)) for _ in range(3))
            for _ in range(100)]
    for _ in range(50):
        # singular: the last row is a combination of the first two
        r0, r1 = (tuple(rng.randrange(q) for _ in range(3)) for _ in range(2))
        a, b = rng.randrange(q), rng.randrange(q)
        r2 = tuple(field.add(field.mul(a, x), field.mul(b, y)) for x, y in zip(r0, r1))
        mats.append(tuple(rng.sample([r0, r1, r2], 3)))
    mats += [((0, 0, 0),) * 3, ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    singular = 0
    for m in mats:
        det, adj = _det_adjugate(field, m)
        assert (det, adj) == det_adjugate_cofactors(field, m)
        singular += det == 0
        for i in range(3):
            for k in range(3):
                entry = proj_dot(field, adj[i], [row[k] for row in m])
                assert entry == (det if i == k else 0)
    assert singular >= 51   # the constructed matrices and the zero matrix


@pytest.mark.parametrize("q", [2, 3])
def test_all_transforms_preserve_incidence_api_level(q):
    field = field_from_q(q)
    rng = random.Random(q)
    c = random_config(field, rng, q, q)
    pts, lns = lift_config(field, c)
    base = projective_incidences(field, pts, lns)
    for t in all_transforms(field):
        tp = [apply_point(field, t, v) for v in pts]
        tl = [apply_line(field, t, u) for u in lns]
        assert projective_incidences(field, tp, tl) == base


@pytest.mark.parametrize("q", [4, 5])
def test_sampled_transforms_preserve_incidence(q):
    field = field_from_q(q)
    rng = random.Random(q * 17)
    c = random_config(field, rng, q, q)
    pts, lns = lift_config(field, c)
    base = projective_incidences(field, pts, lns)
    all_points = plane(field)
    for _ in range(500):
        t = random_transform(field, rng)
        tp = [apply_point(field, t, v) for v in pts]
        tl = [apply_line(field, t, u) for u in lns]
        assert projective_incidences(field, tp, tl) == base
        # join of transformed points is the transform of the join
        u, v = rng.sample(all_points, 2)
        lhs = proj_cross(field, apply_point(field, t, u), apply_point(field, t, v))
        assert lhs == apply_line(field, t, proj_cross(field, u, v))


@st.composite
def configs_with_seed(draw):
    q = draw(st.sampled_from([3, 4, 5, 7, 8, 9]))
    pair = st.tuples(st.integers(0, q - 1), st.integers(0, q - 1))
    return (field_from_q(q), make_config(draw(st.lists(pair, max_size=2 * q)),
                                         draw(st.lists(pair, max_size=2 * q))),
            draw(st.integers(0, 1 << 32)))


@settings(max_examples=60, deadline=None)
@given(configs_with_seed())
def test_random_transform_preserves_incidences_property(case):
    field, c, seed = case
    t = random_transform(field, random.Random(seed))
    pts, lns = lift_config(field, c)
    moved = projective_incidences(field, [apply_point(field, t, v) for v in pts],
                                  [apply_line(field, t, u) for u in lns])
    assert moved == incidences(field, c)


def test_exhaustive_checker_counts_group():
    field = field_from_q(3)
    c = strategy_to_config(field, Strategy((0, 0, 1), (0, 1, 0)))
    q = 3
    checked = verify_incidence_preservation_exhaustive(field, c)
    assert checked == (q**2 + q + 1) * (q**3 - q) * (q**3 - q**2)


def test_exhaustive_checker_detects_changed_count(monkeypatch):
    field = field_from_q(3)
    c = strategy_to_config(field, Strategy((0, 0, 1), (0, 1, 0)))
    real = geometry.projective_incidences
    monkeypatch.setattr(geometry, "projective_incidences",
                        lambda f, pts, lns: real(f, pts, lns) + 1)
    with pytest.raises(InvariantViolation):
        verify_incidence_preservation_exhaustive(field, c)


def test_exhaustive_checker_detects_a_count_above_base(monkeypatch):
    # every transform then counts one incidence more than the base
    field = field_from_q(3)
    c = strategy_to_config(field, Strategy((0, 0, 1), (0, 1, 0)))
    real = geometry.projective_incidences
    assert real(field, *lift_config(field, c)) > 0
    monkeypatch.setattr(geometry, "projective_incidences",
                        lambda f, pts, lns: real(f, pts, lns) - 1)
    with pytest.raises(InvariantViolation, match="incidence count changed"):
        verify_incidence_preservation_exhaustive(field, c)


def sweep_per_column_pair(field, c: Config) -> int:
    # the sweep that the code-table sweep replaced: one batch per (c1, c2)
    # of every c3 with det != 0, all arithmetic through field.vec
    q = field.q
    ops = field.vec
    pts, lns = lift_config(field, c)
    base = projective_incidences(field, pts, lns)
    P = np.array(pts, dtype=np.intp).reshape(-1, 3).T[:, :, None]
    U = np.array(lns, dtype=np.intp).reshape(-1, 3).T[:, :, None]
    vectors = np.array([(a, b, c3) for a in range(q) for b in range(q)
                        for c3 in range(q)][1:]).T
    checked = 0
    for c1 in plane(field):
        col1 = np.array(c1)[:, None, None]
        c12s = np.array(_cross(ops, c1, vectors))
        c31s = np.array(_cross(ops, vectors, c1))
        for i2 in range(vectors.shape[1]):
            c2, c12 = vectors[:, i2], c12s[:, i2]
            keep = proj_dot(ops, c12, vectors) != 0
            c3s = vectors[:, keep]
            c23 = np.array(_cross(ops, c2, c3s))
            img_p = proj_dot(ops, (col1, c2[:, None, None], c3s[:, None]), P)
            img_l = proj_dot(ops, U, (c23[:, None], c31s[:, None, keep],
                                      c12[:, None, None]))
            d = proj_dot(ops, img_l[:, :, None], img_p[:, None])
            if not np.all((d == 0).sum(axis=(0, 1)) == base):
                raise InvariantViolation("incidence count changed under a transform")
            checked += c3s.shape[1]
    return checked


def sweep_code_pairs(field, c: Config) -> int:
    # the code-table sweep that the (c2, c3) tiles replaced: the regular
    # (c2, c3) listed with np.nonzero per c1, then blocks of that list
    # gathered through j2/j3 fancy indexing
    q = field.q
    pts, lns = lift_config(field, c)
    base = projective_incidences(field, pts, lns)
    vadd, vcross, scale, dot = geometry._code_tables(field)
    on = (dot == 0).ravel()
    n = q ** 3
    P = np.array(pts, dtype=np.intp).reshape(-1, 3).T[:, :, None]
    U = np.array(lns, dtype=np.intp).reshape(-1, 3).T[:, :, None]
    vectors = np.arange(1, n)
    v2c3 = scale[P[2], vectors]
    rows = chshq.field.block_rows(len(lns) * len(pts))
    checked = 0
    for c1 in plane(field):
        k1 = (c1[0] * q + c1[1]) * q + c1[2]
        c12 = vcross[k1 * n + vectors]
        v01 = vadd[scale[P[0], k1] * n + scale[P[1], vectors]]
        u1 = scale[U[1], vcross[vectors * n + k1]]
        u2 = scale[U[2], c12]
        i2, i3 = np.nonzero(~on[c12[:, None] * n + vectors])
        for s in range(0, len(i2), rows):
            j2, j3 = i2[s:s + rows], i3[s:s + rows]
            img_p = vadd[v01[:, j2] * n + v2c3[:, j3]]
            u0 = scale[U[0], vcross[(j2 + 1) * n + j3 + 1]]
            img_l = vadd[vadd[u0 * n + u1[:, j3]] * n + u2[:, j2]]
            hits = on[img_l[:, None] * n + img_p].reshape(-1, len(j2))
            if not np.all(hits.sum(axis=0, dtype=np.int32) == base):
                raise InvariantViolation("incidence count changed under a transform")
            checked += len(j2)
    return checked


def sweep_image_tiles(field, pts, lns):
    # the tile kernel that the beta . c3 tiles replaced, yielding the same
    # tiles as geometry._sweep_tiles: every image point and image line is
    # gathered as a code, and each (line, point) pair reads the incidence
    # table on = (dot == 0) at (image line, image point)
    q = field.q
    vadd, vcross, scale, dot = geometry._code_tables(field)
    on = (dot == 0).ravel()
    n = q ** 3
    vadd_n, scale_n = vadd * n, scale * n
    P = np.array(pts, dtype=np.intp).reshape(-1, 3).T[:, :, None]   # (3, np, 1)
    U = np.array(lns, dtype=np.intp).reshape(-1, 3).T[:, :, None]   # (3, nl, 1)
    vectors = np.arange(1, n)
    v2c3 = scale[P[2], vectors][:, None, :]                     # (np, 1, n - 1)
    cross23 = vcross.reshape(n, n)[1:, 1:]     # c2 x c3 for nonzero c2, c3
    u0s = scale_n[U[0, :, 0]]                  # n * u0*w for every code w
    per_tile = chshq.field.block_rows(len(lns) * len(pts))      # transforms
    tile_rows, tile_cols = max(1, per_tile // (n - 1)), min(n - 1, per_tile)
    for c1 in plane(field):
        k1 = (c1[0] * q + c1[1]) * q + c1[2]
        c12 = vcross[k1 * n + vectors]         # c1 x c2 for every c2
        c12_n = (c12 * n)[:, None]
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
                yield counts.reshape(singular.shape), singular


def group_order(q: int) -> int:
    return (q * q + q + 1) * (q ** 3 - q) * (q ** 3 - q * q)


def sweep_configs(field, rng, q, extra):
    # a full random config and one with no lines; with `extra`, a lopsided
    # one and ones with no points or nothing at all
    full = random_config(field, rng, q, q)
    configs = [full, make_config(full.points, [])]
    if extra:
        configs += [random_config(field, rng, q + 1, q - 1),
                    make_config([], full.lines), make_config([], [])]
    return configs


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_sweep_matches_per_column_pair_oracle(q):
    field = field_from_q(q)
    # the oracle takes about 0.4 s per config at q = 5
    for c in sweep_configs(field, random.Random(q), q, extra=q < 5):
        assert (verify_incidence_preservation_exhaustive(field, c)
                == sweep_per_column_pair(field, c) == group_order(q))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_sweep_tiles_match_code_pair_oracle(q):
    field = field_from_q(q)
    rng = random.Random(100 + q)
    configs = sweep_configs(field, rng, q, extra=True) + [
        random_config(field, rng, 2 * q, 1), random_config(field, rng, 1, 2 * q)]
    for c in configs:
        assert (verify_incidence_preservation_exhaustive(field, c)
                == sweep_code_pairs(field, c) == group_order(q))


@pytest.mark.parametrize("q,block", [(2, 1), (2, 100), (3, 100),
                                     (2, None), (3, None), (4, None), (5, None)])
def test_sweep_tile_counts_match_image_tile_oracle(monkeypatch, q, block):
    # cell by cell, singular cells included (both count lines * points there)
    field = field_from_q(q)
    rng = random.Random(200 + q)
    configs = sweep_configs(field, rng, q, extra=True) + [
        random_config(field, rng, 2 * q, 1), random_config(field, rng, 1, 2 * q)]
    if block is not None:
        monkeypatch.setattr(chshq.field, "BLOCK_CELLS", block)
    elif q <= 4:        # the whole affine plane: q^4 cells, 256 at q = 4
        plane = [(x, y) for x in range(q) for y in range(q)]
        configs.append(make_config(plane, plane))
    for c in configs:
        pts, lns = lift_config(field, c)
        tiles = 0
        for got, want in zip_longest(geometry._sweep_tiles(field, pts, lns),
                                     sweep_image_tiles(field, pts, lns)):
            assert got is not None and want is not None      # same number of tiles
            assert got[0].shape == want[0].shape
            assert np.array_equal(got[1], want[1])
            assert np.array_equal(got[0], want[0])
            tiles += 1
        assert tiles >= q * q + q + 1


@pytest.mark.parametrize("q", [3, 4])
def test_sweep_catches_one_corrupted_incidence_entry(monkeypatch, q):
    # for the first lifted line u and point v, make one dot entry that the
    # identity transform reads zero if it was nonzero and nonzero if it was
    # zero.  Under the identity the sweep has alpha = 0 and beta = (u . v) e3,
    # so it reads dot[(u . v) e3, e3]; the image kernels read dot[u, v].  The
    # base count does not use the table.
    field = field_from_q(q)
    c = random_config(field, random.Random(q), q, q)
    pts, lns = lift_config(field, c)

    def code(t):
        return (t[0] * q + t[1]) * q + t[2]
    tables = _code_tables(field)

    def corrupted(u, v):
        dot = tables[3].copy()
        dot[u, v] = 0 if dot[u, v] else 1
        return lambda f: tables[:3] + (dot,)
    e3 = code((0, 0, 1))
    monkeypatch.setattr(geometry, "_code_tables",
                        corrupted(code((0, 0, proj_dot(field, lns[0], pts[0]))), e3))
    with pytest.raises(InvariantViolation):
        verify_incidence_preservation_exhaustive(field, c)
    monkeypatch.setattr(geometry, "_code_tables", corrupted(code(lns[0]), code(pts[0])))
    with pytest.raises(InvariantViolation):
        sweep_code_pairs(field, c)
    monkeypatch.setattr(geometry, "_sweep_tiles", sweep_image_tiles)
    with pytest.raises(InvariantViolation):
        verify_incidence_preservation_exhaustive(field, c)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_sweep_and_oracle_catch_a_wrong_vec_mul(monkeypatch, q):
    field = field_from_q(q)
    c = random_config(field, random.Random(q), q, q)
    real = field.vec.mul

    def wrong(a, b):
        # off by one on the single pair (q - 1) * (q - 1); the scalar base
        # count does not use vec, so the images disagree with it
        out = real(a, b)
        return np.where((np.asarray(a) == q - 1) & (np.asarray(b) == q - 1),
                        field.vec.add(out, 1), out)
    monkeypatch.setattr(field.vec, "mul", wrong)
    with pytest.raises(InvariantViolation):
        verify_incidence_preservation_exhaustive(field, c)
    with pytest.raises(InvariantViolation):
        sweep_per_column_pair(field, c)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_code_tables_match_field_ops(q):
    field = field_from_q(q)
    vec, n = field.vec, q ** 3
    vadd, vcross, scale, dot = _code_tables(field)
    cube = (q, q, q)
    u, v = (np.array(np.unravel_index(k, cube))
            for k in np.unravel_index(np.arange(n * n), (n, n)))
    assert np.array_equal(vadd, np.ravel_multi_index(vec.add(u, v), cube))
    assert np.array_equal(vcross, np.ravel_multi_index(_cross(vec, u, v), cube))
    assert dot.shape == (n, n) and dot.dtype == np.uint8
    assert np.array_equal(dot.ravel(), proj_dot(vec, u, v))
    s, w = np.unravel_index(np.arange(q * n), (q, n))
    w = np.array(np.unravel_index(w, cube))
    assert np.array_equal(scale.ravel(), np.ravel_multi_index(vec.mul(s, w), cube))
    # and against the scalar ops on sampled pairs
    rng = random.Random(q)
    for _ in range(200):
        a, b, t = rng.randrange(n), rng.randrange(n), rng.randrange(q)
        ta, tb = (tuple(map(int, np.unravel_index(k, cube))) for k in (a, b))
        assert vadd[a * n + b] == np.ravel_multi_index(tuple(map(field.add, ta, tb)), cube)
        assert vcross[a * n + b] == np.ravel_multi_index(_cross(field, ta, tb), cube)
        assert dot[a, b] == proj_dot(field, ta, tb)
        assert scale[t, b] == np.ravel_multi_index([field.mul(t, x) for x in tb], cube)
    if q <= 4:      # every dot entry against the scalar proj_dot
        vs = [tuple(map(int, np.unravel_index(k, cube))) for k in range(n)]
        assert dot.tolist() == [[proj_dot(field, a, b) for b in vs] for a in vs]


@pytest.mark.parametrize("q,block", [(3, 1), (3, 100), (3, 1000), (4, 1000)])
def test_sweep_result_does_not_depend_on_block(monkeypatch, q, block):
    field = field_from_q(q)
    rng = random.Random(7)      # q points with distinct x, q distinct slopes
    c = make_config([(x, rng.randrange(q)) for x in range(q)],
                    [(a, rng.randrange(q)) for a in range(q)])
    per_tile = max(1, block // (len(c.points) * len(c.lines)))   # transforms
    width = q ** 3 - 1                          # nonzero c3 per c2 row
    if per_tile < width:                        # sub-row tiles, short last one
        assert block == 1 or width % per_tile
    else:                                       # whole rows, short last tile
        assert width % (per_tile // width)
    monkeypatch.setattr(chshq.field, "BLOCK_CELLS", block)
    assert verify_incidence_preservation_exhaustive(field, c) == group_order(q)
    assert sweep_code_pairs(field, c) == group_order(q)


def test_sweep_refuses_q_above_cap_before_building_tables(monkeypatch):
    def unreachable(field):
        raise AssertionError("code tables built for a refused q")
    monkeypatch.setattr(geometry, "_code_tables", unreachable)
    field = field_from_q(11)
    assert field.q > SWEEP_Q_CAP == 9
    with pytest.raises(CapExceeded, match="capped at q <= 9"):
        verify_incidence_preservation_exhaustive(field, make_config([(0, 0)], [(1, 0)]))


@pytest.mark.parametrize("q", [4, 7, 9, 25])
def test_from_chart_sends_targets_to_infinity(q):
    field = field_from_q(q)
    rng = random.Random(2)
    pts = plane(field)
    for _ in range(30):
        l_inf = rng.choice(pts)     # lines share the canonical triples
        v_inf = rng.choice(points_on_line(field, l_inf))
        t = ProjTransform.from_chart(field, l_inf, v_inf)
        assert apply_line(field, t, l_inf) == (0, 0, 1)
        assert apply_point(field, t, v_inf) == (0, 1, 0)


# ---------------------------------------------------------------------------
# regularization
# ---------------------------------------------------------------------------

def test_regularize_output_is_always_legal():
    field = field_from_q(9)
    c = subfield_construction(field)
    for seed in range(200):
        out, stats = random_projective_regularize(field, c, seed=seed)
        assert is_legal(field, out)
        assert stats.kept_points <= stats.sampled_points <= stats.input_points
        assert stats.kept_lines <= stats.sampled_lines <= stats.input_lines
        assert stats.kept_incidences == incidences(field, out)
        # the induced strategy wins at least once per kept incidence
        s = config_to_strategy(field, out)
        assert win_count(field, s).wins >= stats.kept_incidences


def test_regularize_is_deterministic_per_seed():
    field = field_from_q(9)
    c = subfield_construction(field)
    a = random_projective_regularize(field, c, seed=42)
    b = random_projective_regularize(field, c, seed=42)
    assert a == b


def test_regularize_without_downsampling_keeps_more():
    field = field_from_q(5)
    c = make_config([(0, 0), (1, 1)], [(1, 0)])
    out, stats = random_projective_regularize(field, c, seed=0)
    assert stats.sampled_points == 2 and stats.sampled_lines == 1
    assert is_legal(field, out)


def test_benchmark_projective_check_flags_an_appended_duplicate_x():
    # perfbench's regularization check, on a kept config with one more point
    # over an x it already has: the config is no longer legal
    spec = importlib.util.spec_from_file_location(
        "perfbench_checks", Path(__file__).resolve().parents[1] / "perfbench" / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    field = Field(101, 1)
    out, stats = random_projective_regularize(field, grid_construction(field), seed=4)
    assert all(ok for _, ok in checks.check_projective(101, out, stats))
    x, y = out.points[0]
    illegal = Config(np.vstack((out.points, [(x, (y + 1) % 101)])), out.lines)
    assert not is_legal(field, illegal)
    verdict = dict(checks.check_projective(101, illegal, stats))
    assert verdict["q=101 regularized config is legal"] is False


def test_regularize_golden_q1009():
    # frozen before points_on_line and the l_inf draw became closed forms
    field = Field(1009, 1)
    out, stats = random_projective_regularize(field, grid_construction(field),
                                              seed=12345)
    assert stats.l_inf == (1, 368, 73)
    assert stats.v_inf == (1, 251, 960)
    assert (stats.kept_points, stats.kept_lines, stats.kept_incidences) == (413, 234, 985)
    pairs = [out.points.tolist(), out.lines.tolist()]
    digest = hashlib.sha256(json.dumps(pairs).encode()).hexdigest()
    assert digest == "0ebdd3804acbe8d3db1621196af929c02e7246bc9e3286bb634f216493015cef"


def regularize_loop_oracle(field, c: Config, seed: int):
    # the per-element chart regularization that the array pass replaced:
    # canonical lifts through apply_point/apply_line, dehomogenization, one
    # dict per x and per slope, and the kept incidences recounted on the output
    q = field.q
    rng = random.Random(seed)
    points, lines = c.points.tolist(), c.lines.tolist()
    cap = q // 2
    if len(points) > cap:
        points = sorted(rng.sample(points, cap))
    if len(lines) > cap:
        lines = sorted(rng.sample(lines, cap))
    sampled = make_config(points, lines)
    l_inf = proj_point(field, rng.randrange(q * q + q + 1))
    on_l_inf = points_on_line(field, l_inf)
    v_inf = on_l_inf[rng.randrange(len(on_l_inf))]
    T = ProjTransform.from_chart(field, l_inf, v_inf)

    pts, lns = (list(map(tuple, v.tolist())) for v in lift_config(field, sampled))
    new_pts = []
    for p in pts:
        if proj_dot(field, l_inf, p) == 0:
            continue                      # sent to infinity
        X, Y, Z = apply_point(field, T, p)
        zi = field.inv(Z)
        new_pts.append((field.mul(X, zi), field.mul(Y, zi)))
    new_lns = []
    for l in lns:
        if l == l_inf:
            continue                      # became the line at infinity
        L, M, N = apply_line(field, T, l)
        if M == 0:
            continue                      # vertical in the new chart
        mi = field.inv(field.neg(M))      # l x + m y + n = 0  ->  y = a x - b
        new_lns.append(Line(field.mul(L, mi), field.mul(field.neg(N), mi)))
    by_x: dict[int, int] = {}
    for x, y in sorted(new_pts):
        by_x.setdefault(x, y)
    by_slope: dict[int, int] = {}
    for a, b in sorted(new_lns):
        by_slope.setdefault(a, b)
    out = make_config(by_x.items(), by_slope.items())
    stats = RegularizationStats(
        input_points=len(c.points), input_lines=len(c.lines),
        input_incidences=incidences(field, c),
        sampled_points=len(sampled.points), sampled_lines=len(sampled.lines),
        sampled_incidences=incidences(field, sampled),
        kept_points=len(out.points), kept_lines=len(out.lines),
        kept_incidences=incidences(field, out),
        l_inf=l_inf, v_inf=v_inf,
    )
    return out, stats


def config_at_infinity(field, seed: int, rng: random.Random):
    """At most q // 2 points and lines, so that nothing is sampled and the
    chart is the seed's own: points on l_inf, l_inf itself and lines through
    v_inf, filled up with random ones.  Also returns how many of its points
    lie on l_inf and how many of its lines pass through v_inf."""
    q, f = field.q, field
    _, stats = regularize_loop_oracle(field, make_config([], []), seed)
    l_inf, v_inf = stats.l_inf, stats.v_inf

    def affine_line(u):   # the triple (a : -1 : -b) as (a, b)
        return f.neg(f.mul(u[0], f.inv(u[1]))), f.mul(u[2], f.inv(u[1]))
    on_l = {(f.mul(v[0], f.inv(v[2])), f.mul(v[1], f.inv(v[2])))
            for v in points_on_line(field, l_inf) if v[2]}
    # by duality the lines through v_inf, l_inf among them, are the points
    # of the line v_inf
    thru = {affine_line(u) for u in points_on_line(field, v_inf) if u[1]}
    n = q // 2
    pts = set(rng.sample(sorted(on_l), min(len(on_l), (n + 1) // 2)))
    lns = set(rng.sample(sorted(thru), min(len(thru), n // 2)))
    if l_inf[1]:
        lns.add(affine_line(l_inf))
    for objs in (pts, lns):
        while len(objs) < n:
            objs.add((rng.randrange(q), rng.randrange(q)))
    c = make_config(pts, lns)
    return c, len(pts & on_l), len(lns & thru)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 101])
def test_regularize_matches_loop_oracle(q):
    field = field_from_q(q)
    rng = random.Random(q)
    dropped = [0, 0]
    for seed in range(6):
        full = random_config(field, rng, 2 * q, 2 * q)
        for c in (full, random_config(field, rng, q // 2, q // 2),
                  make_config(full.points, []), make_config([], full.lines),
                  make_config([], [])):
            assert (random_projective_regularize(field, c, seed)
                    == regularize_loop_oracle(field, c, seed))
        c, on_l, thru = config_at_infinity(field, seed, rng)
        out, stats = random_projective_regularize(field, c, seed)
        assert (out, stats) == regularize_loop_oracle(field, c, seed)
        assert stats.sampled_points == len(c.points) and stats.sampled_lines == len(c.lines)
        # the chart drops every point on l_inf and every line through v_inf
        assert stats.kept_points <= len(c.points) - on_l
        assert stats.kept_lines <= len(c.lines) - thru
        dropped[0] += on_l
        dropped[1] += thru
    assert dropped[0] > 0 and dropped[1] > 0


def test_regularize_kept_incidences_equal_output_count_q10007():
    field = Field(10007, 1)
    out, stats = random_projective_regularize(field, grid_construction(field), seed=3)
    assert stats.kept_incidences == incidences(field, out) == 19777


def test_regularize_draws_every_line_at_infinity():
    field = field_from_q(3)
    c = make_config([(0, 0), (1, 1)], [(1, 0)])
    drawn = {random_projective_regularize(field, c, seed=s)[1].l_inf
             for s in range(200)}
    assert drawn == set(plane(field))


def slope_collision_scan(field, l1: Line, l2: Line) -> Fraction:
    # the scan over every line at infinity that the closed count replaced
    lifted1 = proj_canonical(field, (l1.a, field.neg(1), field.neg(l1.b)))
    lifted2 = proj_canonical(field, (l2.a, field.neg(1), field.neg(l2.b)))
    meet = proj_cross(field, lifted1, lifted2)
    cands = [c for c in plane(field) if c != lifted1]
    return Fraction(sum(proj_dot(field, c, meet) == 0 for c in cands), len(cands))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_slope_collision_matches_line_scan(q):
    field = field_from_q(q)
    rng = random.Random(q)
    for _ in range(40):
        l1, l2 = (Line(rng.randrange(q), rng.randrange(q)) for _ in range(2))
        if l1 != l2:
            assert (slope_collision_probability(field, l1, l2)
                    == slope_collision_scan(field, l1, l2))


@pytest.mark.parametrize("q", [2, 3, 5])
def test_slope_collision_probability(q):
    field = field_from_q(q)
    expect = Fraction(1, q + 1)
    for a1 in range(q):
        for b1 in range(q):
            for a2 in range(q):
                for b2 in range(q):
                    if (a1, b1) == (a2, b2):
                        continue
                    got = slope_collision_probability(
                        field, Line(a1, b1), Line(a2, b2))
                    assert got == expect


def test_slope_collision_probability_q1009():
    field = Field(1009, 1)
    for l1, l2 in [(Line(0, 0), Line(1, 0)), (Line(5, 7), Line(5, 8)),
                   (Line(1008, 3), Line(2, 1000))]:
        assert slope_collision_probability(field, l1, l2) == Fraction(1, 1010)
