"""Win probabilities by simulation, as a test oracle.

The library counts every game exactly: `RegularBox.p_win` and `distribute`
for regular boxes, `win_count` and `distributed_win_count` for strategies.
This sampler shares none of those counts.  It draws the inputs (or, for a
regular box, the errors) and plays the game on them elementwise through
`field.vec`, so no q x q table is built.  It reads a strategy's tables
through the library's `strategy_tables`, so it refuses what the exact
paths refuse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from chshq.boxes import RegularBox, StrategyBox
from chshq.errors import InvalidInput
from chshq.field import Field, check_int
from chshq.game import strategy_tables


@dataclass(frozen=True)
class MonteCarloResult:
    estimate: float
    stderr: float
    samples: int


def monte_carlo_win(field: Field, box, game: str = "base",
                    samples: int = 10 ** 5, seed: int = 0) -> MonteCarloResult:
    """Estimate p_win of the base or the distributed ("dist") game by
    simulation; unbiased, deterministic per seed."""
    samples = check_int("samples", samples)
    if game not in ("base", "dist"):
        raise InvalidInput(f"unknown game {game!r}")
    q = field.q
    rng = np.random.default_rng(seed)

    if isinstance(box, RegularBox):
        if box.q != q:
            raise InvalidInput("distribution/field size mismatch")
        err = box.error_dist()
        pmf = np.array([float(err.p0)] + [float(err.p1)] * (q - 1))
        pmf = pmf / pmf.sum()   # guard float rounding in np.choice
        if game == "base":
            e = rng.choice(q, size=samples, p=pmf)
            success = e == 0
        else:
            e1 = rng.choice(q, size=samples, p=pmf)
            e2 = rng.choice(q, size=samples, p=pmf)
            success = field.vec.add(e1, e2) == 0
    elif isinstance(box, StrategyBox):
        f, g = strategy_tables(field, box.strategy)
        add, mul = field.vec.add, field.vec.mul
        if game == "base":
            x = rng.integers(0, q, size=samples)
            y = rng.integers(0, q, size=samples)
            success = add(f[x], g[y]) == mul(x, y)
        else:
            alpha = rng.integers(0, q, size=samples)
            gamma = rng.integers(0, q, size=samples)
            beta = rng.integers(0, q, size=samples)
            delta = rng.integers(0, q, size=samples)
            a = add(add(f[alpha], f[gamma]), mul(alpha, gamma))
            b = add(add(g[delta], g[beta]), mul(beta, delta))
            target = mul(add(alpha, beta), add(gamma, delta))
            success = add(a, b) == target
    else:
        raise InvalidInput("box must be a RegularBox or StrategyBox")

    est = float(success.mean())
    stderr = float(np.sqrt(est * (1.0 - est) / samples))
    return MonteCarloResult(estimate=est, stderr=stderr, samples=samples)
