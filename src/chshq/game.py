"""Classical strategies and values for CHSH_q.

Both players receive uniform x, y in GF(q) and win iff a + b = x*y.
A deterministic strategy is a pair of tables (f, g) with a = f(x),
b = g(y).  The classical value is max over strategies of the win
probability; the bias E rescales it so that E = 0 is random guessing
and E = 1 is a perfect strategy:

    p_win = 1/q + (q - 1) * E / q
"""

from __future__ import annotations

import math
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import NamedTuple

from .errors import InvalidInput, CapExceeded
from .field import Field

EXACT_Q_CAP = 8        # exhaustive classical value is q^(q-1) * q^2 work
PAIRS_Q_CAP = 4        # full double enumeration is q^(2q) * q^2 work


class Strategy(NamedTuple):
    f: tuple[int, ...]
    g: tuple[int, ...]


@dataclass(frozen=True)
class GameValue:
    q: int
    wins: int              # out of q^2 equally likely input pairs
    p_win: Fraction
    bias: Fraction

    @classmethod
    def from_wins(cls, q: int, wins: int) -> "GameValue":
        p = Fraction(wins, q * q)
        return cls(q=q, wins=wins, p_win=p, bias=bias_from_p_win(q, p))


def bias_from_p_win(q: int, p_win: Fraction) -> Fraction:
    return Fraction(q * p_win - 1, q - 1)


def p_win_from_bias(q: int, bias: Fraction) -> Fraction:
    return Fraction(1, q) + Fraction(q - 1, q) * bias


def _check_strategy(field: Field, strategy: Strategy):
    q = field.q
    for table in strategy:
        if len(table) != q or any(not 0 <= v < q for v in table):
            raise InvalidInput("strategy tables must map all of GF(q) into GF(q)")


def win_count(field: Field, strategy: Strategy) -> GameValue:
    """Exact number of winning input pairs for a deterministic strategy."""
    _check_strategy(field, strategy)
    f, g = strategy
    wins = 0
    for x in field.elements():
        for y in field.elements():
            if field.add(f[x], g[y]) == field.mul(x, y):
                wins += 1
    return GameValue.from_wins(field.q, wins)


def _op_lists(field: Field):
    # nested lists: the pure-Python loops below index them per element
    return field.op_table("mul").tolist(), field.op_table("sub").tolist()


def best_response_g(field: Field, f) -> tuple[tuple[int, ...], int]:
    """Optimal g against a fixed f, with wins; ties pick the smallest encoding."""
    return _best_g(field.q, *_op_lists(field), list(f))


def _best_g(q, mul, sub, f):
    g = []
    wins = 0
    for y in range(q):
        counts = [0] * q
        for x in range(q):
            counts[sub[mul[x][y]][f[x]]] += 1
        best = max(counts)
        g.append(counts.index(best))
        wins += best
    return tuple(g), wins


def best_response_f(field: Field, g) -> tuple[tuple[int, ...], int]:
    """Optimal f against a fixed g; x*y = y*x makes it g's best response."""
    return _best_g(field.q, *_op_lists(field), list(g))


def _better(cand, best):
    # maximize wins; break ties toward the lexicographically smallest witness
    if best is None:
        return True
    if cand[0] != best[0]:
        return cand[0] > best[0]
    return (cand[1], cand[2]) < (best[1], best[2])


def _search_slice(args):
    p, s, modulus, v = args
    field = Field(p, s, modulus)
    q = field.q
    mul, sub = _op_lists(field)
    best = None
    # f(0) = 0 w.l.o.g.: replacing (f, g) by (f + c, g - c) preserves wins
    for rest in product(range(q), repeat=q - 2):
        f = [0, v, *rest]
        g, wins = _best_g(q, mul, sub, f)
        cand = (wins, tuple(f), g)
        if _better(cand, best):
            best = cand
    return best


def exact_classical_value(field: Field, jobs: int = 1) -> tuple[GameValue, Strategy]:
    """Exhaustive classical value via the f(0) = 0 reduction.

    Enumerates the q^(q-1) tables f with f(0) = 0 and pairs each with its
    best response g.  The result is a max-reduce, so the enumeration may be
    partitioned arbitrarily (jobs > 1 splits on the value of f(1)) without
    changing the reported witness.
    """
    q = field.q
    if q > EXACT_Q_CAP:
        raise CapExceeded(f"exact classical value capped at q <= {EXACT_Q_CAP}")
    slices = [(field.p, field.s, field.modulus, v) for v in range(q)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, q)) as ex:
            results = list(ex.map(_search_slice, slices))
    else:
        results = [_search_slice(sl) for sl in slices]
    best = None
    for cand in results:
        if _better(cand, best):
            best = cand
    wins, f, g = best
    return GameValue.from_wins(q, wins), Strategy(f, g)


def exhaustive_pairs_value(field: Field) -> tuple[GameValue, Strategy]:
    """Classical value by enumerating every (f, g) pair.  Slow; q <= 4 only.

    Exists as an independent check on the symmetry-reduced search.
    """
    q = field.q
    if q > PAIRS_Q_CAP:
        raise CapExceeded(f"pair enumeration capped at q <= {PAIRS_Q_CAP}")
    mul = field.op_table("mul").tolist()
    add = field.op_table("add").tolist()
    best = None
    for f in product(range(q), repeat=q):
        for g in product(range(q), repeat=q):
            wins = 0
            for x in range(q):
                fx = f[x]
                mx = mul[x]
                for y in range(q):
                    if add[fx][g[y]] == mx[y]:
                        wins += 1
            cand = (wins, f, g)
            if _better(cand, best):
                best = cand
    wins, f, g = best
    return GameValue.from_wins(q, wins), Strategy(f, g)


def normalize_shift(field: Field, strategy: Strategy) -> Strategy:
    """Canonical representative under (f, g) -> (f + c, g - c): force f(0) = 0."""
    f, g = strategy
    c = field.neg(f[0])
    return Strategy(
        tuple(field.add(v, c) for v in f),
        tuple(field.sub(v, c) for v in g),
    )


@dataclass(frozen=True)
class SearchResult:
    value: GameValue
    strategy: Strategy
    rounds: int
    history: tuple[int, ...]   # wins after each best-response half-step


def local_search(field: Field, seed: int, max_rounds: int = 100) -> SearchResult:
    """Alternating best responses from a random start.  Deterministic per seed.

    The win count never decreases across half-steps; the loop stops at a
    fixed point (neither table changes) or after max_rounds.
    """
    q = field.q
    rng = random.Random(seed)
    f = tuple(rng.randrange(q) for _ in range(q))
    g = tuple(rng.randrange(q) for _ in range(q))
    history = []
    rounds = 0
    while rounds < max_rounds:
        rounds += 1
        g_new, wg = best_response_g(field, f)
        history.append(wg)
        f_new, wf = best_response_f(field, g_new)
        history.append(wf)
        if f_new == f and g_new == g:
            break
        f, g = f_new, g_new
    value = win_count(field, Strategy(f, g))
    return SearchResult(value=value, strategy=Strategy(f, g),
                        rounds=rounds, history=tuple(history))


def search_with_restarts(field: Field, seed: int, restarts: int = 8,
                         max_rounds: int = 100) -> SearchResult:
    """Best local_search outcome over several seeded restarts."""
    if restarts < 1:
        raise InvalidInput(f"restarts = {restarts} must be >= 1")
    best = None
    for i in range(restarts):
        r = local_search(field, seed * 1000003 + i, max_rounds)
        cand = (r.value.wins, r.strategy.f, r.strategy.g)
        if best is None or _better(cand, (best.value.wins, best.strategy.f, best.strategy.g)):
            best = r
    return best


def tsirelson_bound(q: int) -> float:
    """Upper bound 1/q + (q-1)/(q*sqrt(q)) on the entangled win probability."""
    if q < 2:
        raise InvalidInput("q must be at least 2")
    return 1.0 / q + (q - 1) / (q * math.sqrt(q))
