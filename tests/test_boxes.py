"""Regular boxes: exact error calculus, regularization, simulation."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from chshq.errors import InvalidInput
from chshq.field import field_from_q
from chshq.game import Strategy, win_count, p_win_from_bias
from chshq.boxes import (
    ErrorDist, RegularBox, StrategyBox,
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
    with pytest.raises(InvalidInput):
        ErrorDist(3, (Fraction(1, 2), Fraction(1, 2)))          # wrong length
    with pytest.raises(InvalidInput):
        ErrorDist(2, (Fraction(3, 2), Fraction(-1, 2)))         # negative
    with pytest.raises(InvalidInput):
        ErrorDist(2, (Fraction(1, 2), Fraction(1, 3)))          # sum != 1


def test_error_dist_bias_requires_regularity():
    d = ErrorDist(3, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
    assert not d.is_regular()
    with pytest.raises(InvalidInput):
        d.bias()


def test_regular_box_range():
    RegularBox(3, Fraction(-1, 2))     # -1/(q-1) is the floor
    with pytest.raises(InvalidInput):
        RegularBox(3, Fraction(-2, 3))
    with pytest.raises(InvalidInput):
        RegularBox(3, Fraction(3, 2))


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


def test_error_dists_reject_malformed_strategy():
    field = field_from_q(3)
    for s in (Strategy((0, 1), (0, 1, 2)), Strategy((0, 1, 3), (0, 1, 2))):
        with pytest.raises(InvalidInput):
            per_input_error_dists(field, StrategyBox(s))


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

def test_convolve_commutes_and_associates():
    field = field_from_q(4)
    rng = random.Random(5)

    def rand_dist():
        w = [rng.randrange(1, 9) for _ in range(4)]
        t = sum(w)
        return ErrorDist(4, tuple(Fraction(v, t) for v in w))

    for _ in range(10):
        d1, d2, d3 = rand_dist(), rand_dist(), rand_dist()
        assert convolve(field, d1, d2) == convolve(field, d2, d1)
        assert (convolve(field, convolve(field, d1, d2), d3)
                == convolve(field, d1, convolve(field, d2, d3)))


def test_compose_equals_closed_form():
    for q in (2, 3, 5, 8):
        field = field_from_q(q)
        for E in (Fraction(1, 2), Fraction(13, 20), Fraction(0), Fraction(1)):
            box = RegularBox(q, E)
            for m in range(1, 6):
                assert compose_m(field, box, m) == compose_closed_form(q, E, m)


def test_compose_zero_bias_is_absorbing():
    field = field_from_q(3)
    d = compose_m(field, RegularBox(3, Fraction(0)), 4)
    assert set(d.probs) == {Fraction(1, 3)}


def test_compose_m_validation():
    field = field_from_q(3)
    with pytest.raises(InvalidInput):
        compose_m(field, RegularBox(3, Fraction(1, 2)), 0)


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
