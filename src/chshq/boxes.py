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

from dataclasses import dataclass
from fractions import Fraction
from math import log10

from .errors import CapExceeded, InvalidInput
from .field import Field, check_int
from .game import Strategy, win_count, bias_from_p_win, p_win_from_bias

POW_DIGITS_CAP = 4300   # Python's default int-to-str digit limit


def parse_fraction(value) -> Fraction:
    """value (an int, float, Fraction or text such as "13/20") as an exact
    Fraction; InvalidInput for a bool or anything not a finite rational."""
    if type(value) is Fraction:   # immutable, so returned as it is
        return value
    if not isinstance(value, bool):   # Fraction(True) would be 1
        try:
            return Fraction(value)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            pass
    raise InvalidInput(f"cannot parse rational {value!r}")


@dataclass(frozen=True)
class ErrorDist:
    """Exact pmf of a regular error over F_q: Pr[e = 0] = p0 and
    Pr[e = k] = p1 for each of the q - 1 values k != 0, held as the exact
    Fractions `parse_fraction` reads."""
    q: int
    p0: Fraction
    p1: Fraction

    def __post_init__(self):
        object.__setattr__(self, "q", check_int("q", self.q, 2))
        object.__setattr__(self, "p0", parse_fraction(self.p0))
        object.__setattr__(self, "p1", parse_fraction(self.p1))
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
        object.__setattr__(self, "q", check_int("q", self.q, 2))
        E = parse_fraction(self.bias)
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

def regularize(field: Field, box: StrategyBox) -> RegularBox:
    """Exact regular box equivalent to a deterministic strategy (f, g).

    The wrapper draws shared alpha, beta in F_q^* and gamma, delta in F_q,
    plays the strategy on x~ = alpha*x + gamma and y~ = beta*y + delta, and
    corrects the outputs to

        a = (f(x~) - delta*x~) / (alpha*beta)
        b = (g(y~) - gamma*beta*y) / (alpha*beta)

    Write E(x', y') = f(x') + g(y') - x'y'.  Since x~y~ = alpha*beta*xy +
    delta*x~ + gamma*beta*y, the wrapped error is e = a + b - xy =
    E(x~, y~) / (alpha*beta).  For fixed (x, y) the map (alpha, beta, gamma,
    delta) -> (x~, y~, alpha, beta) is a bijection onto F_q^2 x (F_q^*)^2,
    with gamma = x~ - alpha*x and delta = y~ - beta*y.  So for every input
    pair, e = 0 on the (q-1)^2 W draws with E(x~, y~) = 0, where W is the
    win count; on each of the q^2 - W pairs (x~, y~) with E != 0, beta ->
    E/(alpha*beta) is onto F_q^* for each alpha, so each e != 0 occurs on
    (q-1)(q^2 - W) draws.  The error is input-independent and uniform off
    zero, with p_win = W/q^2: the box has the strategy's own bias.
    Refused where `win_count` is, above OP_TABLE_Q_CAP.
    """
    if not isinstance(box, StrategyBox):
        raise InvalidInput("regularize takes a StrategyBox")
    return RegularBox(field.q, win_count(field, box.strategy).bias)


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


def check_pow_digits(box: RegularBox, m: int) -> None:
    """Refuse an m at which E^m could not be printed: x^m, x the larger of
    E's numerator and denominator, would reach 10^POW_DIGITS_CAP."""
    x = max(abs(box.bias.numerator), box.bias.denominator)
    if x > 1 and m >= POW_DIGITS_CAP / log10(x):   # no float of a huge m
        raise CapExceeded(f"E^m would have more than {POW_DIGITS_CAP} digits")


def compose_m(field: Field, box: RegularBox, m: int) -> ErrorDist:
    """Error of m independent uses summed over F_q (m-fold convolution),
    in O(log m) steps; refused by `check_pow_digits` before any step."""
    m = check_int("m", m)
    check_pow_digits(box, m)
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
    m = check_int("m", m)
    return RegularBox(q, RegularBox(q, E).bias ** m).error_dist()


def distribute(field: Field, box: RegularBox) -> RegularBox:
    """Regular box for the distributed game from two independent uses.

    Alice holds (alpha, gamma), Bob holds (beta, delta); the box is used on
    (alpha, delta) and (gamma, beta), outputs are corrected by alpha*gamma
    and beta*delta, and the players win iff the two errors cancel.  The
    resulting error e1 + e2 is again regular; its bias is extracted from
    the convolution rather than assumed.  `game.distributed_win_count`
    counts the same game on a strategy that is not wrapped.
    """
    err = box.error_dist()
    return RegularBox(field.q, convolve(field, err, err).bias())

