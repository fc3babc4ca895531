"""Regular boxes: exact error calculus, regularization, simulation."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chshq.errors import CapExceeded, InvalidInput, InvariantViolation
from chshq.field import Field, OP_TABLE_Q_CAP, block_rows, factorize, field_from_q
from chshq.game import (Strategy, distributed_win_count, win_count, bias_from_p_win,
                        p_win_from_bias, strategy_tables)
from chshq.boxes import (
    ErrorDist, RegularBox, StrategyBox, regularize, convolve, compose_m,
    compose_closed_form, distribute,
)

from mc_oracle import monte_carlo_win
from op_grids import op_grid


def random_strategy(q: int, rng: random.Random) -> Strategy:
    return Strategy(tuple(rng.randrange(q) for _ in range(q)),
                    tuple(rng.randrange(q) for _ in range(q)))


# ---------------------------------------------------------------------------
# distributions and boxes
# ---------------------------------------------------------------------------

def test_error_dist_validation():
    ErrorDist(3, Fraction(1, 2), Fraction(1, 4))
    with pytest.raises(InvalidInput, match="nonnegative"):
        ErrorDist(2, Fraction(3, 2), Fraction(-1, 2))          # negative p1
    with pytest.raises(InvalidInput, match="nonnegative"):
        ErrorDist(3, Fraction(-1, 2), Fraction(3, 4))          # negative p0
    with pytest.raises(InvalidInput, match="sum"):
        ErrorDist(2, Fraction(1, 2), Fraction(1, 3))           # sum != 1
    with pytest.raises(InvalidInput, match="sum"):
        ErrorDist(3, Fraction(1, 2), Fraction(1, 2))           # p1 counted q - 1 times
    with pytest.raises(InvalidInput, match=">= 2"):
        ErrorDist(1, Fraction(1), Fraction(0))                 # q < 2


@pytest.mark.parametrize("q", [1, 0, -3, 2.5, 3.0, "3", None])
@pytest.mark.parametrize("make", [
    lambda q: ErrorDist(q, Fraction(1), Fraction(0)),
    lambda q: RegularBox(q, Fraction(0)),
], ids=["ErrorDist", "RegularBox"])
def test_bad_q_is_invalid_input(make, q):
    # q is checked before any use: 1 would divide by zero, 2.5 fail in Fraction
    with pytest.raises(InvalidInput, match="integer >= 2"):
        make(q)


def test_regular_box_range():
    RegularBox(3, Fraction(-1, 2))     # -1/(q-1) is the floor
    with pytest.raises(InvalidInput, match="outside"):
        RegularBox(3, Fraction(-2, 3))
    with pytest.raises(InvalidInput, match="outside"):
        RegularBox(3, "3/2")           # parses, then is out of range
    assert RegularBox(3, "1/2") == RegularBox(3, 0.5) == RegularBox(3, Fraction(1, 2))


@pytest.mark.parametrize("E", [float("nan"), float("inf"), float("-inf"), None, "x", "1/0", 1j,
                               True],
                         ids=["nan", "inf", "-inf", "None", "text", "zero-denominator", "complex",
                              "bool"])
def test_non_rational_bias_is_invalid_input(E):
    with pytest.raises(InvalidInput, match="cannot parse rational"):
        RegularBox(3, E)


def test_regular_box_pmf():
    box = RegularBox(3, Fraction(1, 2))
    d = box.error_dist()
    assert d.probs == (Fraction(2, 3), Fraction(1, 6), Fraction(1, 6))
    assert d.bias() == Fraction(1, 2)
    assert box.p_win() == Fraction(2, 3)


def test_extreme_boxes():
    q = 5
    assert RegularBox(q, Fraction(1)).error_dist().probs[0] == 1
    flat = RegularBox(q, Fraction(0)).error_dist()
    assert set(flat.probs) == {Fraction(1, q)}


# ---------------------------------------------------------------------------
# regularization of deterministic strategies
# ---------------------------------------------------------------------------

def error_counts(field, strategy: Strategy) -> np.ndarray:
    """Integer tally counts[x*q + y, e] of the wrapped strategy's error e
    over every draw (alpha, beta, gamma, delta), as a (q^2, q) array: the
    oracle for the orbit count in `regularize`.

    The error splits into one half that reads x and one that reads y:
    with x~ = alpha*x + gamma and y~ = beta*y + delta,

        a = (f(x~) - delta*x~) / (alpha*beta)
        b = (g(y~) - gamma*beta*y) / (alpha*beta)

    (delta*alpha*x + gamma*delta = delta*x~).  Each half is built once over
    its five axes (x or y, alpha, beta, gamma, delta) and encoded as
    XA = x*q^3 + a*q and YB = y*q^2 + b, so XA + YB indexes one flat q^4
    table T[((x*q + y)*q + a)*q + b] = (x*q + y)*q + (a + b - x*y).  The
    draws are tallied in slabs of `block_rows(q (q-1)^2 q^2)` x-values, in
    one reused buffer: one flat take from T and one bincount per slab.
    """
    q = field.q
    f, g = strategy_tables(field, strategy)
    add, sub, mul = (op_grid(field, op) for op in ("add", "sub", "mul"))
    inv = field.vec.inv(np.arange(q))
    el, un = np.arange(q), np.arange(1, q)
    u, alpha, beta, gamma, delta = np.ix_(el, un, un, el, el)   # u is x or y
    inv_ab = inv[mul[alpha, beta]]
    xt = add[mul[alpha, u], gamma]
    a = mul[sub[f[xt], mul[delta, xt]], inv_ab]
    by = mul[beta, u]
    b = mul[sub[g[add[by, delta]], mul[gamma, by]], inv_ab]
    XA = (u * q ** 3 + a * q).reshape(q, -1)
    YB = (u * q * q + b).reshape(q, -1)
    x, y, a, b = np.ix_(el, el, el, el)
    T = ((x * q + y) * q + sub[add[a, b], mul[x, y]]).ravel()
    counts = np.zeros(q ** 3, dtype=np.intp)
    rows = block_rows(YB.size)
    slab = np.empty((rows, q, YB.shape[1]), dtype=np.intp)   # reused by every slab
    for start in range(0, q, rows):
        xa = XA[start:start + rows, None]
        idx = np.add(xa, YB[None], out=slab[:len(xa)])
        T.take(idx, out=idx, mode="clip")   # every index is < q^4
        counts += np.bincount(idx.ravel(), minlength=q ** 3)
    return counts.reshape(q * q, q)


def per_input_error_dists(field, box: StrategyBox) -> list[list[Fraction]]:
    """Error pmf of the wrapped strategy for each input pair (x, y): the
    exact average over the (q-1)^2 q^2 draws, as the `Fraction` view of
    the integer tally."""
    counts = error_counts(field, box.strategy)
    total = (field.q - 1) ** 2 * field.q ** 2
    return [[Fraction(c, total) for c in row] for row in counts.tolist()]


def tallied_box(field, strategy: Strategy, counts=None) -> RegularBox:
    """The regular box read off the tally of every draw (or off the given
    counts), after checking that the wrapped error is input-independent and
    uniform off zero and that p_win is the strategy's own."""
    counts = error_counts(field, strategy) if counts is None else counts
    first = counts[0]
    if (counts != first).any():
        raise InvariantViolation("wrapped error depends on the input pair")
    if (first[1:] != first[1]).any():
        raise InvariantViolation("wrapped error is not uniform off zero")
    q = field.q
    p_win = Fraction(int(first[0]), (q - 1) ** 2 * q ** 2)
    if p_win != win_count(field, strategy).p_win:
        raise InvariantViolation("regularization changed the winning probability")
    return RegularBox(q, bias_from_p_win(q, p_win))


def orbit_counts(q: int, wins: int) -> np.ndarray:
    """The closed form of `regularize`: every input pair has e = 0 on
    (q-1)^2 W draws and each e != 0 on (q-1)(q^2 - W) draws."""
    counts = np.full((q * q, q), (q - 1) * (q * q - wins), dtype=np.intp)
    counts[:, 0] = (q - 1) ** 2 * wins
    return counts


def assert_regularize_matches_tally(field, s: Strategy) -> None:
    counts = error_counts(field, s)
    assert np.array_equal(counts, orbit_counts(field.q, win_count(field, s).wins))
    assert regularize(field, StrategyBox(s)) == tallied_box(field, s, counts)


@pytest.mark.parametrize("q", [2, 3])
def test_wrapper_flattens_every_strategy(q):
    field = field_from_q(q)
    rng = random.Random(q)
    for _ in range(10):
        s = random_strategy(q, rng)
        dists = per_input_error_dists(field, StrategyBox(s))
        assert len(dists) == q * q
        first = dists[0]
        assert all(d == first for d in dists)          # input independence
        assert len(set(first[1:])) == 1                # uniform off zero
        assert first[0] == win_count(field, s).p_win   # p_win preserved


def per_input_error_dists_scalar(field, box: StrategyBox) -> list[list[Fraction]]:
    # the scalar loop over every draw that the broadcast replaced
    f, g = box.strategy
    q = field.q
    total = (q - 1) * (q - 1) * q * q
    out = []
    for x in range(q):
        for y in range(q):
            xy = field.mul(x, y)
            counts = [0] * q
            for alpha in range(1, q):
                ax = field.mul(alpha, x)
                for beta in range(1, q):
                    inv_ab = field.inv(field.mul(alpha, beta))
                    by = field.mul(beta, y)
                    for gamma in range(q):
                        xt = field.add(ax, gamma)
                        bg_y = field.mul(gamma, by)
                        for delta in range(q):
                            yt = field.add(by, delta)
                            a_num = field.sub(f[xt],
                                              field.add(field.mul(delta, ax),
                                                        field.mul(gamma, delta)))
                            b_num = field.sub(g[yt], bg_y)
                            a = field.mul(a_num, inv_ab)
                            b = field.mul(b_num, inv_ab)
                            counts[field.sub(field.add(a, b), xy)] += 1
            out.append([Fraction(c, total) for c in counts])
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_error_dists_match_scalar_loop(q):
    field = field_from_q(q)
    rng = random.Random(100 + q)
    for _ in range(2 if q <= 5 else 1):
        box = StrategyBox(random_strategy(q, rng))
        assert per_input_error_dists(field, box) == per_input_error_dists_scalar(field, box)


def error_counts_six_axes(field, strategy: Strategy) -> np.ndarray:
    # the six-axis broadcast that the x-slab tally replaced: every draw
    # (x, y, alpha, beta, gamma, delta) gathered from the 2-D op tables
    q = field.q
    f, g = (np.asarray(t, dtype=np.intp) for t in strategy)
    add, sub, mul = (op_grid(field, op) for op in ("add", "sub", "mul"))
    inv = field.vec.inv(np.arange(q))
    el, un = np.arange(q), np.arange(1, q)
    x, y, alpha, beta, gamma, delta = np.ix_(el, el, un, un, el, el)
    ax, by = mul[alpha, x], mul[beta, y]
    inv_ab = inv[mul[alpha, beta]]
    a_num = sub[f[add[ax, gamma]], add[mul[delta, ax], mul[gamma, delta]]]
    b_num = sub[g[add[by, delta]], mul[gamma, by]]
    e = sub[add[mul[a_num, inv_ab], mul[b_num, inv_ab]], mul[x, y]]
    counts = np.bincount(((x * q + y) * q + e).ravel(), minlength=q ** 3)
    return counts.reshape(q * q, q)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_error_counts_match_six_axis_oracle(q):
    field = field_from_q(q)
    rng = random.Random(200 + q)
    for s in [random_strategy(q, rng) for _ in range(3)] + [
            Strategy((0,) * q, (0,) * q), Strategy(tuple(range(q)), tuple(range(q))[::-1])]:
        counts = error_counts(field, s)
        assert counts.shape == (q * q, q)
        assert np.array_equal(counts, error_counts_six_axes(field, s))
        assert_regularize_matches_tally(field, s)


@pytest.mark.parametrize("q", [11, 13, 16, 17])
def test_regularize_matches_tally_at_larger_q(q):
    field = field_from_q(q)
    rng = random.Random(300 + q)
    assert_regularize_matches_tally(field, random_strategy(q, rng))


def test_error_dists_reject_malformed_strategy():
    field = field_from_q(3)
    for s in (Strategy((0, 1), (0, 1, 2)), Strategy((0, 1, 3), (0, 1, 2)),
              Strategy((0, 1.5, 2), (0, 1, 2)), Strategy((0, 1, 2), (0, 2.0, 1))):
        with pytest.raises(InvalidInput):
            per_input_error_dists(field, StrategyBox(s))
        with pytest.raises(InvalidInput):
            regularize(field, StrategyBox(s))


@pytest.mark.parametrize("box", [
    RegularBox(3, Fraction(1, 2)), StrategyBox(None), StrategyBox(((0, 1, 2),)),
    StrategyBox(((0, 1, 2),) * 3), StrategyBox((None, (0, 1, 2))), StrategyBox((0, 1)), None,
], ids=["regular-box", "none", "one-table", "three-tables", "none-table", "int-tables",
        "no-box"])
def test_regularize_refuses_what_is_not_a_strategy(box):
    with pytest.raises(InvalidInput):
        regularize(field_from_q(3), box)
    if isinstance(box, StrategyBox):
        with pytest.raises(InvalidInput, match="strateg"):
            distributed_win_count(field_from_q(3), box.strategy)


def test_regularize_at_op_table_cap():
    field = Field(2, 12)
    q = field.q
    assert q == OP_TABLE_Q_CAP
    s = random_strategy(q, random.Random(q))
    box = regularize(field, StrategyBox(s))
    assert box.p_win() == win_count(field, s).p_win


def test_regularize_refuses_fields_above_cap():
    field = Field(4099, 1)   # the smallest prime above OP_TABLE_Q_CAP
    assert field.q > OP_TABLE_Q_CAP
    s = Strategy((0,) * field.q, (0,) * field.q)
    with pytest.raises(CapExceeded, match=f"capped at q <= {OP_TABLE_Q_CAP}"):
        regularize(field, StrategyBox(s))
    assert "vec" not in vars(field)   # refused before the elementwise tables were built


def move_one(counts, row, src, dst):
    counts[row, src] -= 1
    counts[row, dst] += 1


@pytest.mark.parametrize("corrupt,match", [
    (lambda c: move_one(c, 5, 0, 1), "depends on the input pair"),
    (lambda c: [move_one(c, r, 1, 2) for r in range(len(c))], "not uniform off zero"),
    (lambda c: [move_one(c, r, 1, 0) or move_one(c, r, 2, 0) or move_one(c, r, 3, 0)
                for r in range(len(c))], "changed the winning probability"),
], ids=["input-dependent-row", "off-zero-not-uniform", "zero-entry-shifted"])
def test_regularize_reports_each_broken_invariant(corrupt, match):
    # rows keep their total of (q-1)^2 q^2 draws, so only the named check can fire
    field = field_from_q(4)
    s = random_strategy(4, random.Random(11))
    counts = error_counts(field, s)
    tallied_box(field, s, counts)
    corrupt(counts)
    with pytest.raises(InvariantViolation, match=match):
        tallied_box(field, s, counts)


def test_regularize_returns_matching_box():
    field = field_from_q(4)
    rng = random.Random(17)
    s = random_strategy(4, rng)
    box = regularize(field, StrategyBox(s))
    assert box.p_win() == win_count(field, s).p_win


def test_regularize_handles_optimal_strategy():
    field = field_from_q(3)
    box = regularize(field, StrategyBox(Strategy((0, 0, 1), (0, 1, 0))))
    assert box.p_win() == Fraction(2, 3)
    assert box.bias == Fraction(1, 2)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

PRIME_POWERS = [q for q in range(2, 4097) if len(factorize(q)) == 1]


def convolve_loop_oracle(field, probs1: tuple, probs2: tuple) -> tuple:
    # the q^2 loop over error pairs that the two-number rule replaced; it
    # takes any pmfs given as q-tuples, regular or not
    probs = [Fraction(0)] * field.q
    for e1, p1 in enumerate(probs1):
        if p1 == 0:
            continue
        for e2, p2 in enumerate(probs2):
            probs[field.add(e1, e2)] += p1 * p2
    return tuple(probs)


def regular_dist(q: int, E: Fraction) -> ErrorDist:
    return RegularBox(q, E).error_dist()


def test_convolve_commutes_and_associates():
    # on general pmfs, which only the loop oracle takes
    field = field_from_q(4)
    rng = random.Random(5)

    def rand_dist():
        w = [rng.randrange(1, 9) for _ in range(4)]
        t = sum(w)
        return tuple(Fraction(v, t) for v in w)

    conv = convolve_loop_oracle
    for _ in range(10):
        d1, d2, d3 = rand_dist(), rand_dist(), rand_dist()
        assert conv(field, d1, d2) == conv(field, d2, d1)
        assert (conv(field, conv(field, d1, d2), d3)
                == conv(field, d1, conv(field, d2, d3)))


def test_convolve_regular_commutes_and_associates():
    field = field_from_q(4)
    rng = random.Random(5)

    def rand_dist():
        return regular_dist(4, Fraction(rng.randrange(-3, 10), 9))

    for _ in range(10):
        d1, d2, d3 = rand_dist(), rand_dist(), rand_dist()
        assert convolve(field, d1, d2) == convolve(field, d2, d1)
        assert (convolve(field, convolve(field, d1, d2), d3)
                == convolve(field, d1, convolve(field, d2, d3)))


@pytest.mark.parametrize("q", [q for q in PRIME_POWERS if q <= 128])
def test_convolve_matches_loop_oracle(q):
    # p = 2, prime and Zech fields alike; E from -1/(q-1) through 0 to 1
    field = field_from_q(q)
    biases = [Fraction(-1, q - 1), Fraction(0), Fraction(1), Fraction(13, 20),
              Fraction(-1, 2 * (q - 1))]
    for E1, E2 in zip(biases, biases[1:] + biases[:1]):
        d1, d2 = regular_dist(q, E1), regular_dist(q, E2)
        assert convolve(field, d1, d2).probs == \
            convolve_loop_oracle(field, d1.probs, d2.probs)


def test_convolve_rejects_size_mismatch():
    field = field_from_q(3)
    flat = regular_dist(3, Fraction(0))
    with pytest.raises(InvalidInput, match="mismatch"):
        convolve(field, flat, regular_dist(5, Fraction(0)))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 25, 27, 49, 128])
def test_off_zero_pair_counts(q):
    # convolve's two counts: q - 1 nonzero a with -a != 0, q - 2 with 1 - a != 0
    vec = field_from_q(q).vec
    a = np.arange(1, q)
    assert int((vec.neg(a) != 0).sum()) == q - 1
    assert int((vec.sub(1, a) != 0).sum()) == q - 2


def test_compose_equals_closed_form():
    for q in (2, 3, 5, 8):
        field = field_from_q(q)
        for E in (Fraction(1, 2), Fraction(13, 20), Fraction(0), Fraction(1)):
            box = RegularBox(q, E)
            for m in range(1, 6):
                assert compose_m(field, box, m) == compose_closed_form(q, E, m)


@st.composite
def regular_boxes(draw):
    q = draw(st.sampled_from(PRIME_POWERS))
    den = draw(st.integers(1, 10 ** 6))
    return RegularBox(q, Fraction(draw(st.integers(-(den // (q - 1)), den)), den))


@settings(max_examples=40, deadline=None)
@given(box=regular_boxes(), m=st.integers(1, 8))
@example(box=RegularBox(65521, Fraction(1, 2)), m=2)
@example(box=RegularBox(65536, Fraction(1, 2)), m=2)
def test_compose_matches_closed_form_property(box, m):
    field = field_from_q(box.q)
    assert compose_m(field, box, m) == compose_closed_form(box.q, box.bias, m)


def step_loop_compose(field, E, m):
    # the m - 1 sequential convolutions that square-and-multiply replaced
    acc = base = RegularBox(field.q, E).error_dist()
    for _ in range(m - 1):
        acc = convolve(field, acc, base)
    return acc


@pytest.mark.parametrize("q", [2, 3, 7, 16])
def test_compose_by_squaring_matches_step_loop(q):
    field = field_from_q(q)
    for E in (Fraction(1, 2), Fraction(13, 20), Fraction(-1, q - 1)):
        for m in range(1, 40):
            d = compose_m(field, RegularBox(q, E), m)
            assert d == step_loop_compose(field, E, m)


@pytest.mark.parametrize("q,E,m", [
    (3, 1, 10 ** 8), (5, 0, 10 ** 8), (3, 1, 10 ** 100),
    (2, -1, 10 ** 8), (2, -1, 10 ** 8 + 1),
], ids=["E1", "E0", "E1-m1e100", "q2-E-1-even", "q2-E-1-odd"])
def test_compose_bias_that_never_grows_at_huge_m(q, E, m):
    # E^m stays printable, so no refusal: O(log m) steps must give the closed form
    field = field_from_q(q)
    assert compose_m(field, RegularBox(q, Fraction(E)), m) == \
        compose_closed_form(q, Fraction(E), m)


def test_compose_zero_bias_is_absorbing():
    field = field_from_q(3)
    d = compose_m(field, RegularBox(3, Fraction(0)), 4)
    assert set(d.probs) == {Fraction(1, 3)}


def test_compose_m_validation():
    field = field_from_q(3)
    with pytest.raises(InvalidInput):
        compose_m(field, RegularBox(3, Fraction(1, 2)), 0)
    with pytest.raises(InvalidInput, match="mismatch"):
        compose_m(field, RegularBox(5, Fraction(1, 2)), 2)
    with pytest.raises(InvalidInput, match="outside"):
        compose_closed_form(3, -1, 2)   # E is no bias at q = 3, though E^2 = 1 is


F3, BOX3 = field_from_q(3), RegularBox(3, Fraction(1, 2))


@pytest.mark.parametrize("call", [
    lambda: compose_m(F3, BOX3, 2.0),
    lambda: compose_m(F3, BOX3, -1),
    lambda: compose_m(F3, BOX3, "2"),
    lambda: compose_closed_form(3, Fraction(1, 2), 0),
    lambda: compose_closed_form(3, 0, -1),
    lambda: compose_closed_form(3, Fraction(1, 2), 2.0),
], ids=["compose-m-float", "compose-m-negative", "compose-m-text", "closed-form-m0",
        "closed-form-m-negative", "closed-form-m-float"])
def test_integer_arguments_are_checked(call):
    # m is an int >= 1; anything else is refused
    with pytest.raises(InvalidInput, match="must be an integer >= "):
        call()


# ---------------------------------------------------------------------------
# distributed game
# ---------------------------------------------------------------------------

def test_distribute_squares_the_bias():
    for q in (2, 3, 4, 5, 9):
        field = field_from_q(q)
        for num in (1, 3, 7, 10):
            E = Fraction(num, 10)
            out = distribute(field, RegularBox(q, E))
            assert out.bias == E * E


def test_distribute_of_perfect_box_is_perfect():
    field = field_from_q(5)
    assert distribute(field, RegularBox(5, Fraction(1))).p_win() == 1


# ---------------------------------------------------------------------------
# the Monte Carlo oracle against the exact counts
# ---------------------------------------------------------------------------

def test_monte_carlo_perfect_box():
    field = field_from_q(3)
    r = monte_carlo_win(field, RegularBox(3, Fraction(1)), samples=2000, seed=1)
    assert r.estimate == 1.0 and r.stderr == 0.0


def test_monte_carlo_regular_box_base_game():
    field = field_from_q(3)
    box = RegularBox(3, Fraction(1, 2))
    r = monte_carlo_win(field, box, game="base", samples=200_000, seed=7)
    assert abs(r.estimate - float(box.p_win())) < 4 * r.stderr + 1e-12


def test_monte_carlo_strategy_box_matches_exact_count():
    field = field_from_q(4)
    rng = random.Random(23)
    s = random_strategy(4, rng)
    exact = float(win_count(field, s).p_win)
    r = monte_carlo_win(field, StrategyBox(s), samples=200_000, seed=3)
    assert abs(r.estimate - exact) < 4 * r.stderr + 1e-12


def test_monte_carlo_distributed_game_trend():
    # playing the distributed game with a regular box squares the bias
    field = field_from_q(3)
    box = RegularBox(3, Fraction(1, 2))
    expect = float(p_win_from_bias(3, Fraction(1, 4)))
    r = monte_carlo_win(field, box, game="dist", samples=300_000, seed=11)
    assert abs(r.estimate - expect) < 4 * r.stderr + 1e-12


def test_monte_carlo_deterministic_per_seed():
    field = field_from_q(3)
    box = RegularBox(3, Fraction(1, 2))
    a = monte_carlo_win(field, box, samples=5000, seed=9)
    b = monte_carlo_win(field, box, samples=5000, seed=9)
    assert a == b


# wins out of 3000 draws, frozen from the op-table simulation that the
# elementwise one replaced: (q, box, game, seed) -> wins, for the strategy
# f(x) = x^2 + 1, g(y) = 2y + 3 on encodings mod q and the bias-1/3 box
MONTE_CARLO_WINS = {
    (7, "strategy", "base", 0): 373, (7, "strategy", "base", 11): 359,
    (7, "strategy", "dist", 0): 410, (7, "strategy", "dist", 11): 435,
    (7, "regular", "base", 0): 1304, (7, "regular", "base", 11): 1311,
    (7, "regular", "dist", 0): 771, (7, "regular", "dist", 11): 708,
    (8, "strategy", "base", 0): 493, (8, "strategy", "base", 11): 506,
    (8, "strategy", "dist", 0): 388, (8, "strategy", "dist", 11): 442,
    (8, "regular", "base", 0): 1265, (8, "regular", "base", 11): 1276,
    (8, "regular", "dist", 0): 710, (8, "regular", "dist", 11): 671,
    (9, "strategy", "base", 0): 255, (9, "strategy", "base", 11): 275,
    (9, "strategy", "dist", 0): 346, (9, "strategy", "dist", 11): 332,
    (9, "regular", "base", 0): 1243, (9, "regular", "base", 11): 1249,
    (9, "regular", "dist", 0): 682, (9, "regular", "dist", 11): 644,
}


def frozen_boxes(q: int) -> dict:
    return {"strategy": StrategyBox(Strategy(tuple((x * x + 1) % q for x in range(q)),
                                             tuple((2 * y + 3) % q for y in range(q)))),
            "regular": RegularBox(q, Fraction(1, 3))}


@pytest.mark.parametrize("q", [7, 8, 9])
def test_monte_carlo_reproduces_frozen_estimates(q):
    field = field_from_q(q)
    boxes = frozen_boxes(q)
    for (q_, kind, game, seed), wins in MONTE_CARLO_WINS.items():
        if q_ == q:
            r = monte_carlo_win(field, boxes[kind], game=game, samples=3000, seed=seed)
            assert r.estimate == wins / 3000, (kind, game, seed)


@pytest.mark.parametrize("q", [7, 8, 9])
def test_monte_carlo_agrees_with_every_exact_path(q):
    # each sampled game against the library's exact count for it
    field = field_from_q(q)
    boxes = frozen_boxes(q)
    s, box = boxes["strategy"].strategy, boxes["regular"]
    exact = {("regular", "base"): box.p_win(),
             ("regular", "dist"): distribute(field, box).p_win(),
             ("strategy", "base"): win_count(field, s).p_win,
             ("strategy", "dist"): Fraction(distributed_win_count(field, s), q ** 4)}
    for (kind, game), p in exact.items():
        r = monte_carlo_win(field, boxes[kind], game=game, samples=100_000, seed=q)
        assert abs(r.estimate - float(p)) < 4 * r.stderr, (kind, game, r, p)


def test_monte_carlo_rejects_bad_args():
    field = field_from_q(3)
    with pytest.raises(InvalidInput):
        monte_carlo_win(field, RegularBox(3, Fraction(0)), game="nope")
    with pytest.raises(InvalidInput):
        monte_carlo_win(field, RegularBox(3, Fraction(0)), samples=0)


@pytest.mark.parametrize("game", ["base", "dist"])
@pytest.mark.parametrize("box, match", [
    (StrategyBox(Strategy((0, -1, 0), (0, 0, 0))), "strategy tables"),    # -1 would wrap
    (StrategyBox(Strategy((0, 1), (0, 0, 0))), "strategy tables"),
    (StrategyBox(Strategy((0, 1.0, 2), (0, 0, 0))), "strategy tables"),
    (StrategyBox(Strategy((0, 1, 2), (0, 3, 0))), "strategy tables"),
    (RegularBox(5, Fraction(1, 2)), "size mismatch"),
], ids=["negative", "short", "float", "outside-field", "q5-box"])
def test_monte_carlo_refuses_what_regularize_and_convolve_refuse(box, match, game):
    # on GF(3): the same checks as regularize (tables) and convolve (sizes)
    with pytest.raises(InvalidInput, match=match):
        monte_carlo_win(field_from_q(3), box, game=game, samples=100)
