"""Regular boxes: exact error calculus, regularization, simulation."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chshq import boxes
from chshq.errors import CapExceeded, InvalidInput, InvariantViolation
from chshq.field import factorize, field_from_q
from chshq.game import Strategy, win_count, p_win_from_bias
from chshq.boxes import (
    REGULARIZE_Q_CAP, ErrorDist, RegularBox, StrategyBox,
    per_input_error_dists, regularize, convolve, compose_m,
    compose_closed_form, distribute, monte_carlo_win,
)


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


@pytest.mark.parametrize("E", [float("nan"), float("inf"), float("-inf"), None, "x", "1/0", 1j],
                         ids=["nan", "inf", "-inf", "None", "text", "zero-denominator", "complex"])
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
    for x in field.elements():
        for y in field.elements():
            xy = field.mul(x, y)
            counts = [0] * q
            for alpha in field.units():
                ax = field.mul(alpha, x)
                for beta in field.units():
                    inv_ab = field.inv(field.mul(alpha, beta))
                    by = field.mul(beta, y)
                    for gamma in field.elements():
                        xt = field.add(ax, gamma)
                        bg_y = field.mul(gamma, by)
                        for delta in field.elements():
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
    add, sub, mul = (field.op_table(op) for op in ("add", "sub", "mul"))
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
        counts = boxes._error_counts(field, s)
        assert counts.shape == (q * q, q)
        assert np.array_equal(counts, error_counts_six_axes(field, s))
        assert regularize(field, StrategyBox(s)).p_win() == win_count(field, s).p_win


def test_error_dists_reject_malformed_strategy():
    field = field_from_q(3)
    for s in (Strategy((0, 1), (0, 1, 2)), Strategy((0, 1, 3), (0, 1, 2)),
              Strategy((0, 1.5, 2), (0, 1, 2)), Strategy((0, 1, 2), (0, 2.0, 1))):
        with pytest.raises(InvalidInput):
            per_input_error_dists(field, StrategyBox(s))
        with pytest.raises(InvalidInput):
            regularize(field, StrategyBox(s))


def test_regularize_refuses_fields_above_cap(monkeypatch):
    q = 17
    assert q > REGULARIZE_Q_CAP
    field = field_from_q(q)

    def no_table(op):
        raise AssertionError("an op table was built before the refusal")

    monkeypatch.setattr(field, "op_table", no_table)
    s = Strategy((0,) * q, (0,) * q)
    for call in (regularize, per_input_error_dists):
        with pytest.raises(CapExceeded, match=str(REGULARIZE_Q_CAP)):
            call(field, StrategyBox(s))


def corrupt_counts(monkeypatch, corrupt):
    tally = boxes._error_counts

    def corrupted(field, strategy):
        counts = tally(field, strategy).copy()
        corrupt(counts)
        return counts

    monkeypatch.setattr(boxes, "_error_counts", corrupted)


def move_one(counts, row, src, dst):
    counts[row, src] -= 1
    counts[row, dst] += 1


@pytest.mark.parametrize("corrupt,match", [
    (lambda c: move_one(c, 5, 0, 1), "depends on the input pair"),
    (lambda c: [move_one(c, r, 1, 2) for r in range(len(c))], "not uniform off zero"),
    (lambda c: [move_one(c, r, 1, 0) or move_one(c, r, 2, 0) or move_one(c, r, 3, 0)
                for r in range(len(c))], "changed the winning probability"),
], ids=["input-dependent-row", "off-zero-not-uniform", "zero-entry-shifted"])
def test_regularize_reports_each_broken_invariant(monkeypatch, corrupt, match):
    # rows keep their total of (q-1)^2 q^2 draws, so only the named check can fire
    field = field_from_q(4)
    s = random_strategy(4, random.Random(11))
    corrupt_counts(monkeypatch, corrupt)
    with pytest.raises(InvariantViolation, match=match):
        regularize(field, StrategyBox(s))


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
# Monte Carlo
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
