"""Classical values: exhaustive search, best responses, local search."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import chshq.field
from chshq import game
from chshq.errors import InvalidInput, CapExceeded
from chshq.field import field_from_q
from chshq.game import (
    Strategy, GameValue, win_count, best_response_g, best_response_f,
    exact_classical_value, exhaustive_pairs_value, normalize_shift,
    local_search, search_with_restarts, tsirelson_bound,
    bias_from_p_win, p_win_from_bias,
)


def random_strategy(q: int, rng: random.Random) -> Strategy:
    return Strategy(tuple(rng.randrange(q) for _ in range(q)),
                    tuple(rng.randrange(q) for _ in range(q)))


# ---------------------------------------------------------------------------
# value bookkeeping
# ---------------------------------------------------------------------------

def test_game_value_from_wins():
    v = GameValue.from_wins(3, 6)
    assert v.p_win == Fraction(2, 3)
    assert v.bias == Fraction(1, 2)


def test_bias_p_win_roundtrip():
    for q in (2, 3, 5, 9):
        for num in range(0, q * q + 1):
            p = Fraction(num, q * q)
            assert p_win_from_bias(q, bias_from_p_win(q, p)) == p


def test_win_count_small_example():
    # q=2: f=g=0 loses only on x=y=1
    f2 = field_from_q(2)
    v = win_count(f2, Strategy((0, 0), (0, 0)))
    assert v.wins == 3 and v.p_win == Fraction(3, 4)


def loop_win_count(field, strategy: Strategy) -> int:
    # the scalar double loop that win_count replaced
    f, g = strategy
    return sum(field.add(f[x], g[y]) == field.mul(x, y)
               for x in field.elements() for y in field.elements())


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_win_count_matches_scalar_loop(q):
    field = field_from_q(q)
    rng = random.Random(q)
    for _ in range(10):
        s = random_strategy(q, rng)
        assert win_count(field, s).wins == loop_win_count(field, s)


def test_win_count_rejects_malformed():
    f2 = field_from_q(2)
    with pytest.raises(InvalidInput):
        win_count(f2, Strategy((0,), (0, 0)))
    with pytest.raises(InvalidInput):
        win_count(f2, Strategy((0, 2), (0, 0)))


@pytest.mark.parametrize("table", [(0, 1.5, 2), (0, 2.0, 1), (0, "1", 2), (0, None, 2),
                                   (0, Fraction(1), 2), (0, np.float64(1), 2)])
def test_non_integer_strategy_entries_are_refused(table):
    # 1.5 used to be truncated to 1 by the intp conversion, and 2.0 accepted
    field = field_from_q(3)
    for s in (Strategy(table, (0, 1, 2)), Strategy((0, 1, 2), table)):
        with pytest.raises(InvalidInput, match="integers"):
            win_count(field, s)
    with pytest.raises(InvalidInput, match="integers"):
        best_response_g(field, table)


def test_numpy_integer_strategy_entries_are_accepted():
    field = field_from_q(5)
    f = tuple(np.arange(5, dtype=np.int64)[::-1])
    g = tuple(np.arange(5, dtype=np.uint8))
    assert win_count(field, Strategy(f, g)) == win_count(
        field, Strategy(tuple(map(int, f)), tuple(map(int, g))))


@pytest.mark.parametrize("f", [(0, 1, 3), (0, -1, 2), (0, 1), (0, 1, 2, 0)])
def test_best_response_refuses_tables_outside_the_field(f):
    # the flat take reads a wrong cell, not out of bounds, for such entries
    with pytest.raises(InvalidInput):
        best_response_g(field_from_q(3), f)
    with pytest.raises(InvalidInput):
        best_response_f(field_from_q(3), f)


# ---------------------------------------------------------------------------
# best responses
# ---------------------------------------------------------------------------

def best_g_batch_2d(field, F):
    """The 2-D kernel the value-major tally replaced: vals[b, y, x] =
    sub[mul[x, y], F[b, x]] is the answer g(y) that wins on (x, y); one
    bincount tallies every (b, y) row, and argmax over the last axis takes
    the first maximum, so ties pick the smallest encoding."""
    q = field.q
    F = np.asarray(F, dtype=np.intp)
    vals = field.op_table("sub")[field.op_table("mul").T[None], F[:, None, :]]
    rows = np.arange(len(F) * q).reshape(len(F), q, 1) * q
    counts = np.bincount((rows + vals).ravel(),
                         minlength=len(F) * q * q).reshape(len(F), q, q)
    return counts.argmax(axis=2), counts.max(axis=2).sum(axis=1)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 27])
def test_value_major_kernel_matches_2d_oracle(q):
    field = field_from_q(q)
    rng = np.random.default_rng(q)
    # random tables, constant tables (every y ties across values) and one row
    for F in (rng.integers(0, q, (37, q)), np.repeat(np.arange(q)[:, None], q, axis=1),
              rng.integers(0, q, (1, q))):
        g2, wins2 = best_g_batch_2d(field, F)
        for f, g, wins in zip(F.tolist(), g2.tolist(), wins2.tolist()):
            assert best_response_g(field, f) == (tuple(g), wins)
        keys = np.full(len(F) * q * q + 5, -1, dtype=np.intp)   # a reused, larger buffer
        assert np.array_equal(game._batch_wins(field, F, keys), wins2)
        assert np.array_equal(game._batch_wins(field, F[::-1], keys), wins2[::-1])


@pytest.mark.parametrize("q", [2, 3, 4])
def test_best_response_is_optimal(q):
    import itertools
    field = field_from_q(q)
    rng = random.Random(q)
    for _ in range(5):
        f = tuple(rng.randrange(q) for _ in range(q))
        g, wins = best_response_g(field, f)
        assert win_count(field, Strategy(f, g)).wins == wins
        best = max(win_count(field, Strategy(f, gg)).wins
                   for gg in itertools.product(range(q), repeat=q))
        assert wins == best


def test_best_response_f_matches_g_by_symmetry():
    field = field_from_q(3)
    rng = random.Random(7)
    for _ in range(10):
        h = tuple(rng.randrange(3) for _ in range(3))
        _, wins_g = best_response_g(field, h)
        _, wins_f = best_response_f(field, h)
        assert wins_g == wins_f   # the game is symmetric under swapping roles


# ---------------------------------------------------------------------------
# exact values
# ---------------------------------------------------------------------------

def test_exact_matches_pair_oracle_q2_q3():
    for q in (2, 3):
        field = field_from_q(q)
        v1, s1 = exact_classical_value(field)
        v2, s2 = exhaustive_pairs_value(field)
        assert v1 == v2
        assert normalize_shift(field, s1) == normalize_shift(field, s2)


def test_exact_matches_pair_oracle_q4():
    field = field_from_q(4)
    v1, s1 = exact_classical_value(field)
    v2, s2 = exhaustive_pairs_value(field)
    assert v1 == v2 and v1.wins == 9
    assert normalize_shift(field, s1) == normalize_shift(field, s2)


def test_pair_oracle_cap():
    with pytest.raises(CapExceeded):
        exhaustive_pairs_value(field_from_q(5))
    with pytest.raises(CapExceeded):
        exact_classical_value(field_from_q(11))


def reference_exact_value(field):
    """Slow oracle: every table with f(0) = 0 (no f(1) = 0 reduction), each
    paired with a per-y best response from the scalar field.add/field.mul.
    Returns (wins, f, g) for the lexicographically smallest optimal f."""
    q = field.q
    best = None
    for rest in product(range(q), repeat=q - 1):
        f = (0, *rest)
        g, wins = [], 0
        for y in range(q):
            top, arg = -1, None
            for b in range(q):
                hits = sum(field.add(f[x], b) == field.mul(x, y) for x in range(q))
                if hits > top:
                    top, arg = hits, b
            g.append(arg)
            wins += top
        if best is None or wins > best[0]:
            best = (wins, f, tuple(g))
    return best


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_exact_matches_scalar_reference(q):
    # q = 4 takes the XOR addition path
    field = field_from_q(q)
    v, s = exact_classical_value(field)
    assert (v.wins, s.f, s.g) == reference_exact_value(field)


def test_exact_golden_q8():
    # frozen after a cross-check against the per-slice search it replaced
    field = field_from_q(8)
    v, s = exact_classical_value(field)
    assert v.wins == 24 and v.p_win == Fraction(24, 64)
    assert s == Strategy((0, 0, 0, 0, 1, 2, 5, 3), (0, 3, 2, 6, 0, 5, 7, 0))


def test_exact_golden_q9():
    # frozen after a cross-check against slice_exact_value (about 11 s)
    field = field_from_q(9)
    v, s = exact_classical_value(field)
    assert v.wins == 29 and v.p_win == Fraction(29, 81)
    assert s == Strategy((0, 0, 0, 1, 3, 4, 3, 1, 4), (0, 1, 0, 3, 4, 7, 0, 5, 0))


def slice_exact_value(field):
    """Oracle: every one of the q^(q-2) tables of the f(0) = f(1) = 0 slice,
    in lex order and in chunks through the 2-D kernel, with no output-scale
    gauge.  Returns (wins, f, g) for the lexicographically smallest optimal f."""
    q = field.q
    total = q ** (q - 2)
    chunk = chshq.field.block_rows(q * q)
    radix = q ** np.arange(q - 3, -1, -1)    # f(2) is the leading digit
    best = None
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        F = np.zeros((len(idx), q), dtype=np.intp)
        F[:, 2:] = idx[:, None] // radix % q
        g, wins = best_g_batch_2d(field, F)
        i = int(wins.argmax())
        if best is None or wins[i] > best[0]:
            best = (int(wins[i]), tuple(F[i].tolist()), tuple(g[i].tolist()))
    return best


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8])
def test_exact_matches_slice_oracle(q):
    field = field_from_q(q)
    v, s = exact_classical_value(field)
    assert (v.wins, s.f, s.g) == slice_exact_value(field)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8])
def test_kernel_sees_one_table_per_gauge_class(monkeypatch, q):
    # the zero table plus (q^(q-2) - 1)/(q - 1) tables with leading entry 1
    field = field_from_q(q)
    rows = []
    kernel = game._batch_wins

    def counted(field, F, keys):
        rows.append(len(F))
        return kernel(field, F, keys)

    monkeypatch.setattr(game, "_batch_wins", counted)
    exact_classical_value(field)
    assert sum(rows) == (q ** (q - 2) - 1) // (q - 1) + 1


@pytest.mark.parametrize("tables_per_chunk", [1, 7])
def test_search_is_partition_invariant(monkeypatch, tables_per_chunk):
    # 7 does not divide the 5^3 tables of the q = 5 slice
    field = field_from_q(5)
    expected = exact_classical_value(field)
    monkeypatch.setattr(chshq.field, "BLOCK_CELLS", tables_per_chunk * field.q ** 2)
    assert exact_classical_value(field) == expected


def test_returned_witness_achieves_value():
    for q in (2, 3, 4, 5):
        field = field_from_q(q)
        v, s = exact_classical_value(field)
        assert win_count(field, s) == v
        assert s.f[0] == 0    # shift symmetry: f(0) = 0
        assert s.f[1] == 0    # linear-term symmetry: f(1) = 0
        lead = next((e for e in s.f[2:] if e), None)
        assert lead in (None, 1)   # output-scale symmetry: leading entry 1


# ---------------------------------------------------------------------------
# symmetries
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_shift_symmetry(q):
    # moving a constant from f to g never changes the score
    field = field_from_q(q)
    rng = random.Random(q + 100)
    for _ in range(10):
        s = random_strategy(q, rng)
        c = rng.randrange(q)
        shifted = Strategy(tuple(field.add(v, c) for v in s.f),
                           tuple(field.sub(v, c) for v in s.g))
        assert win_count(field, shifted) == win_count(field, s)


@st.composite
def strategies_with_constant(draw):
    q = draw(st.sampled_from([3, 4, 5, 7, 8, 9]))
    table = st.tuples(*[st.integers(0, q - 1)] * q)
    return field_from_q(q), Strategy(draw(table), draw(table)), draw(st.integers(0, q - 1))


@settings(max_examples=60, deadline=None)
@given(strategies_with_constant())
def test_shift_invariance_property(case):
    field, s, c = case
    shifted = Strategy(tuple(field.add(v, c) for v in s.f),
                       tuple(field.sub(v, c) for v in s.g))
    assert win_count(field, shifted) == win_count(field, s)


@settings(max_examples=60, deadline=None)
@given(strategies_with_constant())
def test_linear_term_invariance_property(case):
    # (f(x) + a*x, g(y - a)): the symmetry behind the f(1) = 0 reduction
    field, s, a = case
    moved = Strategy(
        tuple(field.add(s.f[x], field.mul(a, x)) for x in field.elements()),
        tuple(s.g[field.sub(y, a)] for y in field.elements()))
    assert win_count(field, moved) == win_count(field, s)


@settings(max_examples=60, deadline=None)
@given(strategies_with_constant())
def test_output_scale_invariance_property(case):
    # (u*f(x), u*g(y/u)) for u != 0: the symmetry behind the leading-1 gauge
    field, s, u = case
    u = u or 1
    scaled = Strategy(
        tuple(field.mul(u, v) for v in s.f),
        tuple(field.mul(u, s.g[field.mul(y, field.inv(u))]) for y in field.elements()))
    assert win_count(field, scaled) == win_count(field, s)


def test_normalize_shift():
    field = field_from_q(5)
    rng = random.Random(3)
    for _ in range(10):
        s = random_strategy(5, rng)
        n = normalize_shift(field, s)
        assert n.f[0] == 0
        assert win_count(field, n) == win_count(field, s)


# ---------------------------------------------------------------------------
# local search
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_local_search_monotone_and_sound(q):
    field = field_from_q(q)
    for seed in range(4):
        r = local_search(field, seed=seed)
        assert all(a <= b for a, b in zip(r.history, r.history[1:]))
        assert win_count(field, r.strategy) == r.value
        # a fixed point: neither player can improve unilaterally
        _, best_g_wins = best_response_g(field, r.strategy.f)
        _, best_f_wins = best_response_f(field, r.strategy.g)
        assert r.value.wins == best_g_wins == best_f_wins


def test_restarts_find_optimum_small_q():
    for q in (2, 3, 4):
        field = field_from_q(q)
        opt, _ = exact_classical_value(field)
        r = search_with_restarts(field, seed=0, restarts=8)
        assert r.value.wins <= opt.wins
        assert r.value == opt   # small fields: eight restarts always suffice


def test_restarts_must_be_positive():
    field = field_from_q(3)
    for restarts in (0, -1):
        with pytest.raises(InvalidInput):
            search_with_restarts(field, seed=0, restarts=restarts)


def test_max_rounds_must_be_positive():
    field = field_from_q(3)
    for max_rounds in (0, -3):
        with pytest.raises(InvalidInput):
            local_search(field, seed=0, max_rounds=max_rounds)
        with pytest.raises(InvalidInput):
            search_with_restarts(field, seed=0, max_rounds=max_rounds)


def test_search_never_beats_exact_q5():
    field = field_from_q(5)
    opt, _ = exact_classical_value(field)
    for seed in (0, 1, 2):
        r = search_with_restarts(field, seed=seed, restarts=3)
        assert r.value.wins <= opt.wins


# ---------------------------------------------------------------------------
# quantum ceiling
# ---------------------------------------------------------------------------

def test_tsirelson_closed_forms():
    assert abs(tsirelson_bound(2) - (0.5 + 0.5 / 2 ** 0.5)) < 1e-12
    assert abs(tsirelson_bound(3) - (1 / 3 + 2 / (3 * 3 ** 0.5))) < 1e-12


def test_tsirelson_between_classical_and_one():
    for q in (2, 3, 4, 5, 7):
        field = field_from_q(q)
        classical, _ = exact_classical_value(field)
        assert float(classical.p_win) < tsirelson_bound(q) < 1.0
