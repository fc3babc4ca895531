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
from typing import NamedTuple

import numpy as np

from .errors import InvalidInput, CapExceeded
from .field import Field, as_elements, block_rows, check_int, check_op_cap

EXACT_Q_CAP = 9        # exhaustive classical value is q^(q-2)/(q-1) * q^2 work


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


def _table(field: Field, table) -> np.ndarray:
    """`table` as an intp array of q GF(q) elements."""
    message = "strategy tables must map all of GF(q) into GF(q) by integers"
    arr = as_elements(field, table, message)
    if arr.shape != (field.q,):
        raise InvalidInput(message)
    return arr


def strategy_tables(field: Field, strategy: Strategy) -> tuple[np.ndarray, np.ndarray]:
    """(f, g) as intp arrays: the check of every function that takes a strategy."""
    try:
        f, g = strategy
    except (TypeError, ValueError):
        raise InvalidInput("a strategy must be two tables (f, g)") from None
    return _table(field, f), _table(field, g)


def error_histogram(field: Field, strategy: Strategy) -> np.ndarray:
    """The q counts N(v) = #{(x, y) : f(x) + g(y) - x*y = v}, by encoding v.

    Tallied in blocks of `block_rows(q)` inputs x, each x against every y
    at once, with one bincount per block, so no q x q array is formed; the
    error is (f(x) + g(y)) + x*(-y), with -y negated once per call.
    Refused above OP_TABLE_Q_CAP."""
    f, g = strategy_tables(field, strategy)
    check_op_cap(field, "win counts")
    q, vec = field.q, field.vec
    r = np.arange(q)
    neg_r = vec.neg(r)
    step = block_rows(q)
    return sum(np.bincount(vec.add(vec.add(f[x0:x0 + step, None], g),
                                   vec.mul(r[x0:x0 + step, None], neg_r)).ravel(), minlength=q)
               for x0 in range(0, q, step))


def win_count(field: Field, strategy: Strategy) -> GameValue:
    """Exact number of winning input pairs for a deterministic strategy:
    N(0) of `error_histogram`.  Refused above OP_TABLE_Q_CAP."""
    return GameValue.from_wins(field.q, int(error_histogram(field, strategy)[0]))


def distributed_win_count(field: Field, strategy: Strategy) -> int:
    """Exact winning inputs, out of q^4, of the distributed game on (f, g).

    Alice holds (alpha, gamma) and Bob (beta, delta), and they win iff
    e(alpha, delta) + e(gamma, beta) = 0, e(x, y) = f(x) + g(y) - x*y.
    The two input pairs are independent and uniform, so the count is
    D = sum_v N(v) * N(-v) over the `error_histogram` N; no regularity is
    assumed.  Refused above OP_TABLE_Q_CAP."""
    n = error_histogram(field, strategy)
    return int(n @ n[field.vec.neg(np.arange(field.q))])


def _grid(field: Field, op: str) -> np.ndarray:
    """The q x q table of `field.vec`'s "sub" or "mul", for the exact
    search, which only runs at small q (EXACT_Q_CAP)."""
    r = np.arange(field.q)
    return getattr(field.vec, op)(r[:, None], r)


def _value_counts(mul, sub, F, keys) -> np.ndarray:
    """Value-major tally for a (B, q) batch of tables f, as a (q, q*B) array:
    counts[v, y*B + b] is the number of x with sub[mul[x, y], F[b, x]] = v,
    the answers g(y) = v that win on (x, y) against table b.

    The keys v*q*B + y*B + b are laid out (y, x, b), tables innermost, in
    `keys`, a flat intp buffer of at least B*q^2 entries: one broadcast add
    writes x*y*q + F[b, x], one flat take from the sub table premultiplied
    by q*B maps it to v*q*B in place, and one more in-place add and one
    bincount tally the cells.  Max and argmax then reduce over the leading
    (value) axis, along whole rows.  mul and sub are the q x q tables of
    `_grid`, built once per search.

    Only the exact search tallies here.  A tally of the same batches on the
    antilog windows of `_responder` took 2.3x as long at q = 7 (2.5 against
    1.1 ms) and 3.6x at q = 9 (0.88 against 0.25 s) on a 2-vCPU x86_64 Xeon.
    """
    q = len(mul)
    F = np.asarray(F, dtype=np.intp)
    n = q * len(F)
    keys = keys[:n * q].reshape(q, q, len(F))
    np.add(mul.T[:, :, None] * q, F.T[None], out=keys)
    sub_n = sub.ravel() * np.intp(n)
    sub_n.take(keys, out=keys, mode="clip")    # every index is < q^2
    keys += np.arange(n).reshape(q, 1, len(F))
    return np.bincount(keys.ravel(), minlength=q * n).reshape(q, n)


def _batch_wins(mul, sub, F, keys) -> np.ndarray:
    """Wins of each table's best response, for a (B, q) batch of tables f."""
    return _value_counts(mul, sub, F, keys).max(axis=0).reshape(len(mul), -1).sum(axis=0)


def _responder(field: Field):
    """The best-response kernel of `field`: respond(f) gives the optimal g
    against the intp table f, as an intp array, with its wins; ties pick
    the smallest encoding.  Refused above OP_TABLE_Q_CAP.

    Take y = g^j in log order.  The answer that wins on (x, y) is
    x*y - f(x), and the products of a block of columns j0 <= j < j1 are the
    antilog windows `vec.mul_window(x, j0, j1 - j0)`.  A block of
    `block_rows(q)` columns costs one sub, one offset add of k*q to column
    k, one bincount of its (column, value) cells and one argmax along the
    value axis, which takes the first maximum; the column order g^j
    scatters the block back to encoding order.  y = 0, where every answer
    is -f(x), is tallied once.  When one block holds every column (q <= 256
    at the default BLOCK_CELLS) its rows are gathered once and kept for
    every call; otherwise each call gathers each block again, so no call
    holds more than one block of rows.
    """
    check_op_cap(field, "best responses")
    q, vec = field.q, field.vec
    n = q - 1
    x = np.arange(q)
    order = vec.mul_window(x[1:2], 0, n)[0]
    width = block_rows(q)
    kept = vec.mul_window(x, 0, n) if width >= n else None
    offsets = np.arange(min(width, n)) * q

    def respond(f):
        g = np.empty(q, dtype=np.intp)
        counts = np.bincount(vec.neg(f), minlength=q)
        g[0] = counts.argmax()
        wins = int(counts[g[0]])
        for j0 in range(0, n, width):
            m = min(width, n - j0)
            rows = kept if kept is not None else vec.mul_window(x, j0, m)
            keys = vec.sub(rows, f[:, None])
            keys += offsets[:m]
            counts = np.bincount(keys.ravel(), minlength=m * q)
            best = counts.reshape(m, q).argmax(axis=1)
            g[order[j0:j0 + m]] = best
            wins += int(counts.take(best + offsets[:m]).sum())
        return g, wins

    return respond


def best_response_g(field: Field, f) -> tuple[tuple[int, ...], int]:
    """Optimal g against a fixed f, with wins; ties pick the smallest encoding."""
    f = _table(field, f)
    g, wins = _responder(field)(f)
    return tuple(g.tolist()), wins


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
    tables through the value-major tally (`_value_counts`), with one mul
    table, one sub table and one key buffer for all chunks, and only their
    win counts are reduced; argmax keeps the first maximum of a chunk and
    only a strictly larger win count replaces the best so far, so the
    chunking never changes the result.  The best response g is then taken
    once, for the winning table.
    """
    q = field.q
    if q > EXACT_Q_CAP:
        raise CapExceeded(f"exact classical value capped at q <= {EXACT_Q_CAP}")
    chunk = block_rows(q * q)
    keys = np.empty(chunk * q * q, dtype=np.intp)   # one buffer for every chunk
    mul, sub = _grid(field, "mul"), _grid(field, "sub")
    best = None
    for F in _gauge_tables(q, chunk):
        wins = _batch_wins(mul, sub, F, keys)
        i = int(wins.argmax())
        if best is None or wins[i] > best[0]:
            best = (int(wins[i]), tuple(F[i].tolist()))
    wins, f = best
    g, _ = _responder(field)(np.asarray(f, dtype=np.intp))
    return GameValue.from_wins(q, wins), Strategy(f, tuple(g.tolist()))


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


def normalize_shift(field: Field, strategy: Strategy) -> Strategy:
    """Canonical representative under (f, g) -> (f + c, g - c): force f(0) = 0."""
    f, g = (t.tolist() for t in strategy_tables(field, strategy))
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
    fixed point (neither table changes) or after max_rounds.  From round 2
    on f is already the best response to g, so an unchanged g is a fixed
    point: f's half-step would return f and its count again.  f and g stay
    intp arrays until the end; refused above OP_TABLE_Q_CAP.
    """
    max_rounds = check_int("max_rounds", max_rounds)
    respond = _responder(field)
    q = field.q
    rng = random.Random(check_int("seed", seed, 0))
    f = np.array([rng.randrange(q) for _ in range(q)], dtype=np.intp)
    g = np.array([rng.randrange(q) for _ in range(q)], dtype=np.intp)
    history = []
    rounds = 0
    while rounds < max_rounds:
        rounds += 1
        g_new, wg = respond(f)
        history.append(wg)
        if rounds > 1 and np.array_equal(g_new, g):
            history.append(history[-2])
            break
        f_new, wf = respond(g_new)   # x*y = y*x: f's best response
        history.append(wf)
        if np.array_equal(f_new, f) and np.array_equal(g_new, g):
            break
        f, g = f_new, g_new
    return SearchResult(value=GameValue.from_wins(q, history[-1]),
                        strategy=Strategy(tuple(f.tolist()), tuple(g.tolist())),
                        rounds=rounds, history=tuple(history))


def search_with_restarts(field: Field, seed: int, restarts: int = 8,
                         max_rounds: int = 100) -> SearchResult:
    """Best local_search outcome over several seeded restarts: the most
    wins, ties to the lexicographically smallest (f, g), then the first."""
    seed, restarts = check_int("seed", seed, 0), check_int("restarts", restarts)
    return min((local_search(field, seed * 1000003 + i, max_rounds) for i in range(restarts)),
               key=lambda r: (-r.value.wins, r.strategy))


def tsirelson_bound(q: int) -> float:
    """Upper bound 1/q + (q-1)/(q*sqrt(q)) on the entangled win probability."""
    q = check_int("q", q, 2)
    return 1.0 / q + (q - 1) / (q * math.sqrt(q))
