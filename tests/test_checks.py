"""The shared input checks of `chshq.field`: every caller of the element-array
check refuses the same malformed inputs, every q x q entry point refuses
through the one cap, and the search counts go through the one int check."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

import chshq.field
from chshq.boxes import RegularBox, StrategyBox, monte_carlo_win, regularize
from chshq.errors import CapExceeded, InvalidInput
from chshq.field import Field
from chshq.fourier import fourier_matrix, tight_family
from chshq.game import (Strategy, best_response_g, local_search, normalize_shift,
                        search_with_restarts, win_count)
from chshq.geometry import (Config, config_to_strategy, incidences, is_legal, lift_config,
                            strategy_to_config)
from chshq.infotheory import HadamardTask, joint_from_error, pairwise_independence_check


def malformed(q: int):
    """(name, table, rows): one defect as a table in place of f and as the
    rows of a config or the index vectors of a task (m = 2)."""
    zeros = [0] * (q - 1)
    return [
        ("float", [0.0] * q, np.array([[0.0, 1.0]])),
        ("bool", [False] * q, np.array([[True, False]])),
        ("q", [q] + zeros, np.array([[q, 0]])),
        ("minus-one", [-1] + zeros, np.array([[-1, 0]])),
        ("1e30", [10 ** 30] + zeros, [[10 ** 30, 0]]),
        ("ragged", [[0, 1]] + zeros, [[0, 1], [0]]),
        ("none", None, None),
        ("set", set(range(q)), {(0, 1), (1, 2)}),
    ]


def _strategy(table, q):
    return Strategy(table, (0,) * q)


def _config(rows):
    return Config(rows, np.zeros((0, 2), dtype=np.intp))


CALLERS = {
    "win_count": lambda F, t, r: win_count(F, _strategy(t, F.q)),
    "best_response_g": lambda F, t, r: best_response_g(F, t),
    "monte_carlo_win": lambda F, t, r: monte_carlo_win(F, StrategyBox(_strategy(t, F.q)),
                                                       samples=10),
    "strategy_to_config": lambda F, t, r: strategy_to_config(F, _strategy(t, F.q)),
    "normalize_shift": lambda F, t, r: normalize_shift(F, _strategy(t, F.q)),
    "incidences": lambda F, t, r: incidences(F, _config(r)),
    "is_legal": lambda F, t, r: is_legal(F, _config(r)),
    "lift_config": lambda F, t, r: lift_config(F, _config(r)),
    "config_to_strategy": lambda F, t, r: config_to_strategy(F, _config(r)),
    "pairwise_independence_check":
        lambda F, t, r: pairwise_independence_check(HadamardTask(F, 2, r)),
}


@pytest.mark.parametrize("caller", CALLERS)
def test_every_caller_refuses_malformed_elements(caller):
    field = Field(5, 1)
    for name, table, rows in malformed(field.q):
        with pytest.raises(InvalidInput):
            CALLERS[caller](field, table, rows)
    assert "vec" not in vars(field)


def _q_by_q_calls(field):
    zeros = (0,) * field.q
    strategy = Strategy(zeros, zeros)
    return {
        "win_count": lambda: win_count(field, strategy),
        "best_response_g": lambda: best_response_g(field, zeros),
        "local_search": lambda: local_search(field, seed=0, max_rounds=1),
        "search_with_restarts": lambda: search_with_restarts(field, seed=0, restarts=1,
                                                             max_rounds=1),
        "regularize": lambda: regularize(field, StrategyBox(strategy)),
        "monte_carlo_win": lambda: monte_carlo_win(field, StrategyBox(strategy), samples=10),
        "joint_from_error": lambda: joint_from_error(
            field, RegularBox(field.q, Fraction(1, 2)).error_dist()),
        "fourier_matrix": lambda: fourier_matrix(field),
        "tight_family": lambda: tight_family(field),
    }


@pytest.mark.parametrize("q, cap", [(4099, None), (5, 4)], ids=["q4099", "cap-moved-to-4"])
def test_every_q_by_q_entry_point_refuses_through_the_one_cap(monkeypatch, q, cap):
    # 4099 is the smallest prime above OP_TABLE_Q_CAP; moving the cap in
    # chshq.field moves every refusal, since each one reads it there
    if cap:
        monkeypatch.setattr(chshq.field, "OP_TABLE_Q_CAP", cap)
    field = Field(q, 1)
    for name, call in _q_by_q_calls(field).items():
        with pytest.raises(CapExceeded, match=rf"capped at q <= {cap or 4096}$"):
            call()
    assert "vec" not in vars(field)


@pytest.mark.parametrize("kwargs", [
    {"restarts": 1.5}, {"restarts": "2"}, {"restarts": None},
    {"max_rounds": 1.5}, {"max_rounds": "2"}, {"max_rounds": None},
], ids=["restarts-float", "restarts-text", "restarts-none",
        "rounds-float", "rounds-text", "rounds-none"])
def test_search_counts_must_be_integers(kwargs):
    field = Field(3, 1)
    with pytest.raises(InvalidInput, match="must be an integer >= 1"):
        search_with_restarts(field, seed=0, **kwargs)
    if "max_rounds" in kwargs:
        with pytest.raises(InvalidInput, match="must be an integer >= 1"):
            local_search(field, seed=0, **kwargs)
