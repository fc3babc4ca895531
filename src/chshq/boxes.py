"""Noisy boxes for CHSH_q as exact error channels.

A box is summarized by the distribution of its error e = a + b - x*y.
A box is regular when that distribution does not depend on the inputs
and is uniform off zero; a single rational bias E then determines it:

    p(0) = 1/q + (q-1)E/q,    p(k != 0) = 1/q - E/q

ErrorDist holds just that pair, so every error is regular by its type and
sums of errors compose in O(1) whatever q is.  Every deterministic
strategy can be wrapped (shared randomness relabeling inputs and
correcting outputs) into a regular box with the same winning probability,
which is what regularize() computes, exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import log10

import numpy as np

from .errors import CapExceeded, InvalidInput, InvariantViolation
from .field import Field, block_rows
from .game import (Strategy, win_count, bias_from_p_win, p_win_from_bias,
                   _check_strategy)

POW_DIGITS_CAP = 4300   # Python's default int-to-str digit limit
REGULARIZE_Q_CAP = 16   # q^2 (q-1)^2 q^2 draws: 0.08 s and 55 MB at q = 16,
                        # 2.1 s and 309 MB at q = 25 (2-vCPU x86_64 Xeon)


def _check_q(q) -> None:
    if not isinstance(q, int) or q < 2:
        raise InvalidInput(f"q = {q!r} must be an integer >= 2")


@dataclass(frozen=True)
class ErrorDist:
    """Exact pmf of a regular error over F_q: Pr[e = 0] = p0 and
    Pr[e = k] = p1 for each of the q - 1 values k != 0."""
    q: int
    p0: Fraction
    p1: Fraction

    def __post_init__(self):
        _check_q(self.q)
        if self.p0 < 0 or self.p1 < 0:
            raise InvalidInput("pmf entries must be nonnegative")
        if self.p0 + (self.q - 1) * self.p1 != 1:
            raise InvalidInput("pmf entries must sum to exactly 1")

    @property
    def probs(self) -> tuple[Fraction, ...]:
        """The q entries, indexed by encoding; the one O(q) view."""
        return (self.p0,) + (self.p1,) * (self.q - 1)

    def p_win(self) -> Fraction:
        return self.p0

    def bias(self) -> Fraction:
        return bias_from_p_win(self.q, self.p0)


@dataclass(frozen=True)
class RegularBox:
    q: int
    bias: Fraction

    def __post_init__(self):
        _check_q(self.q)
        E = Fraction(self.bias)
        object.__setattr__(self, "bias", E)
        if not -Fraction(1, self.q - 1) <= E <= 1:
            raise InvalidInput(f"bias {E} outside [-1/(q-1), 1]")

    def error_dist(self) -> ErrorDist:
        q, E = self.q, self.bias
        return ErrorDist(q, Fraction(1, q) + Fraction(q - 1, q) * E,
                         Fraction(1, q) - E / q)

    def p_win(self) -> Fraction:
        return p_win_from_bias(self.q, self.bias)


@dataclass(frozen=True)
class StrategyBox:
    strategy: Strategy


# ---------------------------------------------------------------------------
# regularization wrapper
# ---------------------------------------------------------------------------

def _error_counts(field: Field, strategy: Strategy) -> np.ndarray:
    """Integer tally counts[x*q + y, e] of the wrapped strategy's error e
    over every draw (alpha, beta, gamma, delta), as a (q^2, q) array.

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
    Refused above REGULARIZE_Q_CAP before anything is allocated.
    """
    q = field.q
    if q > REGULARIZE_Q_CAP:
        raise CapExceeded(f"strategy regularization capped at q <= {REGULARIZE_Q_CAP}")
    _check_strategy(field, strategy)
    f, g = (np.asarray(t, dtype=np.intp) for t in strategy)
    add, sub, mul = (field.op_table(op) for op in ("add", "sub", "mul"))
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


def per_input_error_dists(field: Field, box: StrategyBox) -> list[list[Fraction]]:
    """Error pmf of the wrapped strategy for each input pair (x, y).

    The wrapper draws shared alpha, beta in F_q^* and gamma, delta in F_q,
    plays the strategy on relabeled inputs x~ = alpha*x + gamma,
    y~ = beta*y + delta, and corrects the outputs:

        a = (f(x~) - delta*alpha*x - gamma*delta) / (alpha*beta)
        b = (g(y~) - beta*gamma*y) / (alpha*beta)

    Each returned pmf is the exact average over the (q-1)^2 q^2 draws: the
    `Fraction` view of the integer tally that `regularize` checks.
    """
    counts = _error_counts(field, box.strategy)
    total = (field.q - 1) ** 2 * field.q ** 2
    return [[Fraction(c, total) for c in row] for row in counts.tolist()]


def regularize(field: Field, box: StrategyBox) -> RegularBox:
    """Exact regular box equivalent to a deterministic strategy.

    Asserts, on the integer tally of every draw, that the wrapper really
    does produce an input-independent, off-zero-uniform error, and that
    p_win is preserved exactly.
    """
    counts = _error_counts(field, box.strategy)
    first = counts[0]
    if (counts != first).any():
        raise InvariantViolation("wrapped error depends on the input pair")
    if (first[1:] != first[1]).any():
        raise InvariantViolation("wrapped error is not uniform off zero")
    q = field.q
    p_win = Fraction(int(first[0]), (q - 1) ** 2 * q ** 2)
    if p_win != win_count(field, box.strategy).p_win:
        raise InvariantViolation("regularization changed the winning probability")
    return RegularBox(q, bias_from_p_win(q, p_win))


# ---------------------------------------------------------------------------
# composition and the distributed game
# ---------------------------------------------------------------------------

def convolve(field: Field, d1: ErrorDist, d2: ErrorDist) -> ErrorDist:
    """Error pmf of e1 + e2 for independent regular errors, in O(1)."""
    q = field.q
    if d1.q != q or d2.q != q:
        raise InvalidInput("distribution/field size mismatch")
    (p0, p1), (r0, r1) = (d1.p0, d1.p1), (d2.p0, d2.p1)
    # with both errors nonzero, e1 = a sums to 0 for the q - 1 values with
    # a != 0 and -a != 0, and to 1 for the q - 2 values with a != 0 and
    # 1 - a != 0; scaling by F_q^* gives every k != 0 the count of k = 1
    return ErrorDist(q, p0 * r0 + (q - 1) * p1 * r1,
                     p0 * r1 + p1 * r0 + (q - 2) * p1 * r1)


def compose_m(field: Field, box: RegularBox, m: int) -> ErrorDist:
    """Error of m independent uses summed over F_q (m-fold convolution),
    in O(log m) steps.

    Refused before any step when E^m could not be printed: x^m, x the
    larger of E's numerator and denominator, would reach 10^POW_DIGITS_CAP."""
    if m < 1:
        raise InvalidInput("m must be >= 1")
    x = max(abs(box.bias.numerator), box.bias.denominator)
    if x > 1 and m >= POW_DIGITS_CAP / log10(x):   # no float of a huge m
        raise CapExceeded(f"E^m would have more than {POW_DIGITS_CAP} digits")
    if box.q != field.q:
        raise InvalidInput("distribution/field size mismatch")
    # convolution is exact, associative and commutative, so square-and-multiply
    # gives the m-fold result in O(log m) steps, also when E^m never grows
    acc, power = None, box.error_dist()
    while True:
        if m & 1:
            acc = power if acc is None else convolve(field, acc, power)
        m >>= 1
        if not m:
            return acc
        power = convolve(field, power, power)


def compose_closed_form(q: int, E: Fraction, m: int) -> ErrorDist:
    """p(0) = 1/q + (q-1)E^m/q, p(k != 0) = 1/q - E^m/q."""
    return RegularBox(q, Fraction(E) ** m).error_dist()


def distribute(field: Field, box: RegularBox) -> RegularBox:
    """Regular box for the distributed game from two independent uses.

    Alice holds (alpha, gamma), Bob holds (beta, delta); the box is used on
    (alpha, delta) and (gamma, beta), outputs are corrected by alpha*gamma
    and beta*delta, and the players win iff the two errors cancel.  The
    resulting error e1 + e2 is again regular; its bias is extracted from
    the convolution rather than assumed.
    """
    err = box.error_dist()
    return RegularBox(field.q, convolve(field, err, err).bias())


# ---------------------------------------------------------------------------
# Monte Carlo sanity layer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonteCarloResult:
    estimate: float
    stderr: float
    samples: int


def monte_carlo_win(field: Field, box, game: str = "base",
                    samples: int = 10 ** 5, seed: int = 0) -> MonteCarloResult:
    """Estimate p_win by simulation; unbiased, deterministic per seed."""
    if samples < 1:
        raise InvalidInput("samples must be >= 1")
    if game not in ("base", "dist"):
        raise InvalidInput(f"unknown game {game!r}")
    q = field.q
    rng = np.random.default_rng(seed)
    add, mul = field.op_table("add"), field.op_table("mul")

    if isinstance(box, RegularBox):
        err = box.error_dist()
        pmf = np.array([float(err.p0)] + [float(err.p1)] * (q - 1))
        pmf = pmf / pmf.sum()   # guard float rounding in np.choice
        if game == "base":
            e = rng.choice(q, size=samples, p=pmf)
            success = e == 0
        else:
            e1 = rng.choice(q, size=samples, p=pmf)
            e2 = rng.choice(q, size=samples, p=pmf)
            success = add[e1, e2] == 0
    elif isinstance(box, StrategyBox):
        f = np.array(box.strategy.f)
        g = np.array(box.strategy.g)
        if game == "base":
            x = rng.integers(0, q, size=samples)
            y = rng.integers(0, q, size=samples)
            success = add[f[x], g[y]] == mul[x, y]
        else:
            alpha = rng.integers(0, q, size=samples)
            gamma = rng.integers(0, q, size=samples)
            beta = rng.integers(0, q, size=samples)
            delta = rng.integers(0, q, size=samples)
            a = add[add[f[alpha], f[gamma]], mul[alpha, gamma]]
            b = add[add[g[delta], g[beta]], mul[beta, delta]]
            target = mul[add[alpha, beta], add[gamma, delta]]
            success = add[a, b] == target
    else:
        raise InvalidInput("box must be a RegularBox or StrategyBox")

    est = float(success.mean())
    stderr = float(np.sqrt(est * (1.0 - est) / samples))
    return MonteCarloResult(estimate=est, stderr=stderr, samples=samples)
