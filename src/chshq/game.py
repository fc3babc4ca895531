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
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import NamedTuple

import numpy as np

from .errors import InvalidInput, CapExceeded
from .field import Field, block_rows

EXACT_Q_CAP = 9        # exhaustive classical value is q^(q-2)/(q-1) * q^2 work
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


def _check_table(field: Field, table):
    q = field.q
    if len(table) != q or any(not isinstance(v, (int, np.integer)) or not 0 <= v < q
                              for v in table):
        raise InvalidInput("strategy tables must map all of GF(q) into GF(q) by integers")


def _check_strategy(field: Field, strategy: Strategy):
    for table in strategy:
        _check_table(field, table)


def win_count(field: Field, strategy: Strategy) -> GameValue:
    """Exact number of winning input pairs for a deterministic strategy."""
    _check_strategy(field, strategy)
    f, g = (np.asarray(t, dtype=np.intp) for t in strategy)
    wins = field.op_table("add")[f[:, None], g[None, :]] == field.op_table("mul")
    return GameValue.from_wins(field.q, int(wins.sum()))


def _value_counts(field: Field, F, keys=None) -> np.ndarray:
    """Value-major tally for a (B, q) batch of tables f, as a (q, q*B) array:
    counts[v, y*B + b] is the number of x with sub[mul[x, y], F[b, x]] = v,
    the answers g(y) = v that win on (x, y) against table b.

    The keys v*q*B + y*B + b are laid out (y, x, b), tables innermost, in
    `keys`, a flat intp buffer of at least B*q^2 entries (allocated when not
    given): one broadcast add writes x*y*q + F[b, x], one flat take from the
    sub table premultiplied by q*B maps it to v*q*B in place, and one more
    in-place add and one bincount tally the cells.  Max and argmax then
    reduce over the leading (value) axis, along whole rows.
    """
    q = field.q
    mul, sub = field.op_table("mul"), field.op_table("sub")   # refused above the cap
    F = np.asarray(F, dtype=np.intp)
    n = q * len(F)
    if keys is None:
        keys = np.empty(n * q, dtype=np.intp)
    keys = keys[:n * q].reshape(q, q, len(F))
    np.add(mul.T[:, :, None] * q, F.T[None], out=keys)
    sub_n = sub.ravel() * np.intp(n)
    sub_n.take(keys, out=keys, mode="clip")    # every index is < q^2
    keys += np.arange(n).reshape(q, 1, len(F))
    return np.bincount(keys.ravel(), minlength=q * n).reshape(q, n)


def _batch_wins(field: Field, F, keys) -> np.ndarray:
    """Wins of each table's best response, for a (B, q) batch of tables f."""
    return _value_counts(field, F, keys).max(axis=0).reshape(field.q, -1).sum(axis=0)


def best_response_g(field: Field, f) -> tuple[tuple[int, ...], int]:
    """Optimal g against a fixed f, with wins; ties pick the smallest encoding."""
    _check_table(field, f)
    return _best_response(field, f)


def best_response_f(field: Field, g) -> tuple[tuple[int, ...], int]:
    """Optimal f against a fixed g; x*y = y*x makes it g's best response."""
    return best_response_g(field, g)


def _best_response(field: Field, f) -> tuple[tuple[int, ...], int]:
    # unchecked: the flat take reads a wrong cell, not out of bounds, for
    # most entries outside [0, q), so outside tables go through _check_table;
    # argmax over the value axis takes the first maximum, the smallest encoding
    counts = _value_counts(field, [f])
    return tuple(counts.argmax(axis=0).tolist()), int(counts.max(axis=0).sum())


def _better(cand, best):
    # maximize wins; break ties toward the lexicographically smallest witness
    if best is None:
        return True
    if cand[0] != best[0]:
        return cand[0] > best[0]
    return (cand[1], cand[2]) < (best[1], best[2])


def exact_classical_value(field: Field) -> tuple[GameValue, Strategy]:
    """Exhaustive classical value over one gauge class of each slice table.

    Three symmetries preserve the win count: the shift (f + c, g - c); the
    linear term (f(x) + a*x, g(y - a)), because f(x) + a*x + g(y - a) = x*y
    iff f(x) + g(y') = x*y' with y' = y - a; and the output scale
    (u*f(x), u*g(y/u)) for u != 0, because u*f(x) + u*g(y') = x*y with
    y' = y/u iff f(x) + g(y') = x*y'.  The first two fix f(0) = f(1) = 0;
    the third makes the first nonzero entry of a nonzero table 1.  So only
    the zero table and the (q^(q-2) - 1)/(q - 1) slice tables with leading
    entry 1 are enumerated, each paired with its best response g.

    The witness is still the lexicographically smallest optimal f with
    f(0) = 0: an optimal f with f(1) = v > 0 maps to the optimal and
    smaller f - v*x, and an optimal slice table with leading entry v > 1
    maps to the optimal and smaller f/v, which keeps its zero prefix.

    The zero table comes first, then the tables with leading 1 at position
    k = q-1 down to 2, each block with its free suffix in lex order: lex
    order over the reduced set.  A block runs in chunks of `block_rows(q^2)`
    tables through the value-major tally (`_value_counts`), one reused key
    buffer for all chunks, and only their win counts are reduced; argmax
    keeps the first maximum of a chunk and only a strictly larger win count
    replaces the best so far, so the chunking never changes the result.  The
    best response g is then taken once, for the winning table.
    """
    q = field.q
    if q > EXACT_Q_CAP:
        raise CapExceeded(f"exact classical value capped at q <= {EXACT_Q_CAP}")
    chunk = block_rows(q * q)
    keys = np.empty(chunk * q * q, dtype=np.intp)   # one buffer for every chunk
    best = None
    for F in _gauge_tables(q, chunk):
        wins = _batch_wins(field, F, keys)
        i = int(wins.argmax())
        if best is None or wins[i] > best[0]:
            best = (int(wins[i]), tuple(F[i].tolist()))
    wins, f = best
    return GameValue.from_wins(q, wins), Strategy(f, _best_response(field, f)[0])


def _gauge_tables(q: int, chunk: int):
    """The zero table, then each block of slice tables 0..0 1 * .. * (the 1
    at position k = q-1 down to 2), in chunks of at most `chunk` rows."""
    yield np.zeros((1, q), dtype=np.intp)
    for k in range(q - 1, 1, -1):
        free = q - 1 - k
        radix = q ** np.arange(free - 1, -1, -1)   # f(k + 1) is the leading digit
        total = q ** free
        for start in range(0, total, chunk):
            idx = np.arange(start, min(start + chunk, total))
            F = np.zeros((len(idx), q), dtype=np.intp)
            F[:, k] = 1
            F[:, k + 1:] = idx[:, None] // radix % q
            yield F


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
    if max_rounds < 1:
        raise InvalidInput(f"max_rounds = {max_rounds} must be >= 1")
    q = field.q
    rng = random.Random(seed)
    f = tuple(rng.randrange(q) for _ in range(q))
    g = tuple(rng.randrange(q) for _ in range(q))
    history = []
    rounds = 0
    while rounds < max_rounds:
        rounds += 1
        g_new, wg = _best_response(field, f)
        history.append(wg)
        f_new, wf = _best_response(field, g_new)   # x*y = y*x: f's best response
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
