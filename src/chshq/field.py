"""Arithmetic in GF(q) for prime powers q = p^s.

Elements are plain Python ints in [0, q) under the base-p positional
encoding: the element with polynomial-basis coefficients (c_0, ..., c_{s-1})
is encoded as sum(c_i * p**i).  Encoding 0 is the additive identity and
encoding 1 is the multiplicative identity regardless of the modulus.

The modulus is the lexicographically smallest monic irreducible of degree s,
where "smallest" compares the low-degree coefficients as a base-p integer,
and the canonical primitive element g is the smallest encoding of order
q - 1.  Both depend on (p, s) alone, and no build searches for them: for
s >= 2 they are frozen constants (`_CANONICAL`), which the tests check
against the search in `tests/field_oracle.py`; a prime field has modulus x
and takes g from integer `pow` on the cofactors of p - 1.

A field is built from s x s matrices over F_p alone: M_a, the matrix of
multiplication by a, has the digits of x^i * a as row i, so the digits of
b * a are d(b) @ M_a.  The powers of g are listed from M_g by doubling,
each step a float32 (float64 for primes p > 2896) BLAS product over blocks
of columns, reduced mod p in place; every value is an integer of at most
s(p - 1)^2, small enough that the products and the floor of each quotient
by p are exact (`_powers` gives the bound).

Every field holds one set of tables, derived once by `_tables` in one
sentinel scheme from the powers of g: log, antilog, neg and inv, so that mul,
inv and pow are index arithmetic, and for addition (digit-wise mod p) a
mod-q table for prime fields, nothing for p = 2 (XOR) and Zech logarithms
for odd p with s > 1.  `_Arith` writes add, sub, neg and mul once over them,
and two faces run those bodies: the scalar methods index compact uint16 and
int32 tables as plain Python ints, and `Field.vec` gathers elementwise on
integer arrays from intp widenings of the same tables.  No q x q table
is kept: `vec.mul_window` reads the products x * g^j of a run of j as
windows of the antilog table, and `vec.log` with `vec.antilog` reads any
function of a product x * y at log x + log y.
"""

from __future__ import annotations

import cmath
import math
import numbers
import operator
from functools import cached_property

import numpy as np

from .errors import InvalidInput, InvariantViolation, CapExceeded

Q_CAP = 1 << 16        # refuse fields larger than this
OP_TABLE_Q_CAP = 1 << 12   # refuse q x q work above this q
BLOCK_CELLS = 1 << 16  # cells of one block in every blocked numpy loop

# table item types: field elements are < q <= 2**16, logarithms lie in [-2q, 2q]
_ELT, _LOG = np.uint16, np.int32


def block_rows(cells_per_row: int) -> int:
    """Rows of `cells_per_row` cells in one block of BLOCK_CELLS, at least
    one.  Read at call time, so setting BLOCK_CELLS moves every blocked loop."""
    return max(1, BLOCK_CELLS // max(1, cells_per_row))


# ---------------------------------------------------------------------------
# primality and factoring (small inputs only)
# ---------------------------------------------------------------------------

def is_prime(n: int) -> bool:
    """By trial division (`factorize`); `Field` asks only for p <= Q_CAP."""
    return n >= 2 and factorize(n) == [n]


def factorize(n: int) -> list[int]:
    """Distinct prime factors by trial division; fine for n <= 2**32."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# construction by multiplication matrices over F_p
# ---------------------------------------------------------------------------

def _digits(n: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(n % p)
        n //= p
    return out


def _mul_matrices(a: np.ndarray, x: np.ndarray, p: int) -> np.ndarray:
    """M_a for each row a of the (k, s) digit array a, stacked to (k, s, s).
    M_a is the matrix of multiplication by a = sum a_i x^i: row i holds the
    digits of x^i * a, so d(b * a) = d(b) @ M_a.  x is M_x."""
    rows = [a]
    for _ in range(x.shape[0] - 1):
        rows.append(rows[-1] @ x % p)
    return np.stack(rows, axis=1)


def _x_matrix(coeffs, p: int) -> np.ndarray:
    """M_x for the monic modulus f = coeffs (low degree first): row i holds the
    digits of x^(i+1) mod f, a shift for i < s - 1 and -f's low digits last."""
    s = len(coeffs) - 1
    x = np.eye(s, k=1, dtype=np.int64)
    x[-1] = [-c % p for c in coeffs[:-1]]
    return x


# (p, s): (code, g) for every s >= 2 with p^s <= Q_CAP.  The modulus is x^s
# plus the polynomial whose base-p digits, low degree first, are `code`: the
# lex-smallest monic irreducible of degree s, that is the first irreducible in
# the scan by code.  g is the smallest encoding of order q - 1.  Both are the
# results of that search, frozen; tests/field_oracle.py reruns it.
_CANONICAL = {
    (2, 2): (3, 2), (3, 2): (1, 4), (5, 2): (2, 6), (7, 2): (1, 9), (11, 2): (1, 15),
    (13, 2): (2, 15), (17, 2): (3, 19), (19, 2): (1, 22), (23, 2): (1, 25),
    (29, 2): (2, 30), (31, 2): (1, 35), (37, 2): (2, 41), (41, 2): (3, 43),
    (43, 2): (1, 45), (47, 2): (1, 49), (53, 2): (2, 54), (59, 2): (1, 62),
    (61, 2): (2, 63), (67, 2): (1, 74), (71, 2): (1, 79), (73, 2): (5, 76),
    (79, 2): (1, 85), (83, 2): (1, 93), (89, 2): (3, 91), (97, 2): (5, 101),
    (101, 2): (2, 102), (103, 2): (1, 105), (107, 2): (1, 109), (109, 2): (2, 111),
    (113, 2): (3, 117), (127, 2): (1, 135), (131, 2): (1, 134), (137, 2): (3, 145),
    (139, 2): (1, 143), (149, 2): (2, 152), (151, 2): (1, 160), (157, 2): (2, 159),
    (163, 2): (1, 170), (167, 2): (1, 169), (173, 2): (2, 174), (179, 2): (1, 182),
    (181, 2): (2, 185), (191, 2): (1, 201), (193, 2): (5, 198), (197, 2): (2, 200),
    (199, 2): (1, 212), (211, 2): (1, 215), (223, 2): (1, 225), (227, 2): (1, 229),
    (229, 2): (2, 231), (233, 2): (3, 241), (239, 2): (1, 247), (241, 2): (7, 248),
    (251, 2): (1, 256), (2, 3): (3, 2), (3, 3): (7, 3), (5, 3): (6, 9), (7, 3): (2, 22),
    (11, 3): (15, 11), (13, 3): (2, 15), (17, 3): (20, 17), (19, 3): (2, 29),
    (23, 3): (26, 23), (29, 3): (33, 30), (31, 3): (3, 34), (37, 3): (2, 75),
    (2, 4): (3, 2), (3, 4): (5, 3), (5, 4): (2, 6), (7, 4): (8, 12), (11, 4): (13, 11),
    (13, 4): (2, 17), (2, 5): (5, 2), (3, 5): (7, 3), (5, 5): (21, 10), (7, 5): (10, 9),
    (2, 6): (3, 2), (3, 6): (5, 3), (5, 6): (7, 5), (2, 7): (3, 2), (3, 7): (11, 5),
    (2, 8): (27, 3), (3, 8): (11, 38), (2, 9): (3, 7), (3, 9): (64, 3), (2, 10): (9, 2),
    (3, 10): (19, 34), (2, 11): (5, 2), (2, 12): (9, 3), (2, 13): (27, 2),
    (2, 14): (33, 7), (2, 15): (3, 2), (2, 16): (43, 3)
}


def _prime_root(p: int) -> int:
    """Smallest generator of F_p*: the least a with a^((p-1)/r) != 1 mod p for
    each prime r | p - 1; 1 for p = 2, where F_p* = {1}."""
    cofactors = [(p - 1) // r for r in factorize(p - 1)]
    return next(a for a in range(1, p) if all(pow(a, e, p) != 1 for e in cofactors))


def _powers(p: int, s: int, mg: np.ndarray) -> np.ndarray:
    """Encodings of g^0, ..., g^(q-2), as the uint16 array `_tables` keeps,
    by doubling: powers k .. 2k-1 are the digit vectors of powers 0 .. k-1
    times M_(g^k), which squares to M_(g^2k).

    The digits of g^j are column j of an (s, q - 1) array.  Each step is a
    float BLAS product M^T d over blocks of `block_rows(s)` columns,
    reduced mod p in place as x - floor(x / p) * p through one scratch
    block.  All of it is exact.  Digits lie in [0, p), so a sum x = kp + r
    is an integer of at most s(p - 1)^2, and k + 1 < sp.  For r > 0, x / p
    lies at least 1/p below k + 1, and a float with an m-bit significand
    rounds it up to k + 1 only if 1/p <= (k + 1) 2^-m; so floor(x / p) = k
    whenever s p^2 <= 2^m.  float32 (m = 24) serves s p^2 < 2^23, GF(2^16)
    and GF(3^10) among them, and float64 the rest: prime fields with
    p > 2896, where s p^2 < 2^32.

    The encodings, digits times p^i, are a Horner pass over the digit rows
    in the uint16 element type: integer arithmetic in which no value
    reaches q, so nothing wraps, and no float matvec runs whose status
    flags numpy would report.
    """
    n = p ** s - 1
    dtype = np.float32 if s * p * p < 2 ** 23 else np.float64
    digits = np.empty((s, n), dtype=dtype)     # every column past 0 is written first
    digits[:, 0] = 0
    digits[0, 0] = 1
    cols = block_rows(s)
    scratch = np.empty(s * min(cols, n), dtype=dtype)
    mat = mg.T.astype(dtype)
    k = 1
    while k < n:
        m = min(k, n - k)
        for i in range(0, m, cols):
            j = min(i + cols, m)
            block, t = digits[:, k + i:k + j], scratch[:s * (j - i)].reshape(s, -1)
            np.matmul(mat, digits[:, i:j], out=block)
            np.divide(block, p, out=t)
            np.floor(t, out=t)
            t *= p
            block -= t
        k += m
        if k < n:
            mat = mat @ mat % p
    out = digits[-1].astype(_ELT)
    for row in digits[-2::-1]:
        out *= p
        out += row.astype(_ELT)
    return out


def _tables(p: int, s: int, powers: np.ndarray) -> dict[str, np.ndarray]:
    """The tables of GF(p^s) from powers = g^0, ..., g^(n-1), n = q - 1.

    log[0] is the sentinel 2n, and exp is the powers twice, then 2n + 1
    zeros, so exp[log[a] + log[b]] = a * b is 0 when a or b is; neg and inv
    (inv(0) = 0) are read off exp the same way.  For addition, red[k] =
    k mod q on (-q, 2q) when s = 1, nothing (XOR) when p = 2, and otherwise
    a + b = exp[log[a] + zadd[log[b] - log[a]]]: zadd[d], d in [-2n, 2n]
    (negative d wraps), is the Zech logarithm log(1 + g^d) or 2n where
    1 + g^d = 0 for a, b != 0, d itself for a = 0 (d < -n) and 0 for b = 0
    (d > n).  Elements are uint16, logarithms int32."""
    q = p ** s
    n = q - 1
    powers = powers.astype(_ELT, copy=False)
    log = np.zeros(q, dtype=_LOG)
    log[powers] = np.arange(n, dtype=_LOG)
    if not np.array_equal(powers[log[1:]], np.arange(1, q)):
        raise InvariantViolation(f"powers of g do not cover GF({q})*")
    log[0] = 2 * n
    exp = np.concatenate([powers, powers, np.zeros(2 * n + 1, dtype=_ELT)])
    # -1 = g^(n/2) for odd p; for p = 2 negation is the identity
    tables = {"log": log, "exp": exp, "neg": exp[log + (n // 2 if p > 2 else 0)],
              "inv": exp[n - log]}
    if s == 1:
        tables["red"] = np.tile(np.arange(q, dtype=_ELT), 2)
    elif p > 2:
        # 1 + g^k bumps the constant digit; log[0] = 2n marks 1 + g^k = 0
        low = powers % p
        zech = log[powers - low + (low + 1) % p]
        tables["zadd"] = np.concatenate([zech, np.zeros(n + 1, dtype=_LOG),
                                         np.arange(-2 * n, -n, dtype=_LOG), zech])
    return tables


class _Arith:
    """add, sub, neg and mul, written once over the tables of `_tables`: the
    same bodies run on Python ints over memoryviews of the tables (`Field`)
    and on integer numpy arrays over their intp widenings (`Field.vec`).
    `_bind` fixes the add kind from (p, s) and stores closures over the
    tables, so that an instance holds no reference to itself."""

    def _bind(self, p: int, s: int, tables: dict) -> None:
        self._tables, self._n, self._inv = tables, p ** s - 1, tables["inv"]
        self._log, self._exp = log, exp = tables["log"], tables["exp"]
        neg = tables["neg"]
        if s == 1:
            red = tables["red"]
            add, sub = (lambda a, b: red[a + b]), (lambda a, b: red[a - b])
        elif p == 2:
            add = sub = operator.xor
        else:
            zadd = tables["zadd"]

            def add(a, b):
                la = log[a]
                return exp[la + zadd[log[b] - la]]
            sub = (lambda a, b: add(a, neg[b]))
        self.add, self.sub, self.neg = add, sub, neg.__getitem__
        self.mul = lambda a, b: exp[log[a] + log[b]]


# ---------------------------------------------------------------------------
# the field object
# ---------------------------------------------------------------------------

class Field(_Arith):
    """Arithmetic on integer-encoded elements of GF(p^s).

    A field is (p, s) and nothing else: the modulus and g are always the
    canonical ones, so two fields built from the same pair agree on every
    encoding, table and derived quantity."""

    def __init__(self, p: int, s: int):
        p, s = check_int("p", p, 2), check_int("s", s)
        if p > Q_CAP:   # before is_prime: trial division of a huge p never ends
            raise CapExceeded(f"p = {p} exceeds the supported cap {Q_CAP}")
        if not is_prime(p):
            raise InvalidInput(f"p = {p} is not prime")
        if s >= Q_CAP.bit_length():   # p^s >= 2^s > Q_CAP, and p ** s may never finish
            raise CapExceeded(f"q = {p}^{s} exceeds the supported cap {Q_CAP}")
        q = p ** s
        if q > Q_CAP:
            raise CapExceeded(f"q = {q} exceeds the supported cap {Q_CAP}")
        self.p, self.s, self.q = p, s, q
        code, self._g = _CANONICAL[p, s] if s > 1 else (0, _prime_root(p))
        self.modulus = (*_digits(code, p, s), 1)
        mg = _mul_matrices(np.array([_digits(self._g, p, s)]), _x_matrix(self.modulus, p), p)[0]
        powers = _powers(p, s, mg)
        # memoryviews of the tables, whose items index as plain Python ints
        self._bind(p, s, {k: memoryview(t) for k, t in _tables(p, s, powers).items()})

    # -- encoding -----------------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Polynomial-basis coefficients of an encoded element, low degree first."""
        a = check_int("a", a, 0)
        if a >= self.q:
            raise InvalidInput(f"encoding {a} outside [0, {self.q})")
        return tuple(_digits(a, self.p, self.s))

    # -- ring operations (add, sub, neg and mul come from _Arith) ----------

    def inv(self, a: int) -> int:
        if a == 0:
            raise InvalidInput("inverse of zero")
        return self._inv[a]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise InvalidInput("inverse of zero")
            return 0 if e else 1
        return self._exp[self._log[a] * e % self._n]

    @cached_property
    def vec(self) -> "FieldVec":
        """The elementwise face of this field, built on first use."""
        return FieldVec(self)

    # -- structure ----------------------------------------------------------

    def primitive_element(self) -> int:
        """Smallest encoding whose multiplicative order is q - 1."""
        return self._g

    def trace(self, a: int) -> int:
        """Absolute trace into F_p, returned as an int in [0, p)."""
        return int(self.vec.trace(a))

    def subfield_elements(self, t: int) -> list[int]:
        """Encodings of the subfield GF(p^t), requires t | s.  Sorted."""
        if self.s % check_int("t", t):
            raise InvalidInput(f"t = {t} does not divide s = {self.s}")
        # the subfield is exactly the fixed points of x -> x^(p^t)
        x = np.arange(self.q)
        out = np.flatnonzero(self.vec.pow(x, self.p ** t) == x).tolist()
        if len(out) != self.p ** t:
            raise InvariantViolation("subfield has wrong size")
        return out


class FieldVec(_Arith):
    """Elementwise GF(q) arithmetic on integer numpy arrays: branch-free
    gathers from intp widenings of the field's tables.  inv(0) is 0 here."""

    def __init__(self, field: Field):
        p, s = field.p, field.s
        self._bind(p, s, {k: np.asarray(t).astype(np.intp) for k, t in field._tables.items()})
        # Tr(b) = b + b^p + ... + b^(p^(s-1)) lies in F_p, encoded 0..p-1; it
        # is taken on the basis a^i (encoded p^i) alone, and Tr is F_p-linear,
        # so Tr(x) = sum_i d_i(x) Tr(a^i) mod p over the base-p digits d_i(x),
        # one digit position at a time: row d of step i holds x + d p^i
        tr = term = p ** np.arange(s)
        for _ in range(s - 1):
            term = self.pow(term, p)
            tr = self.add(tr, term)
        if (tr >= p).any():
            raise InvariantViolation("trace not in prime subfield")
        table, d = np.zeros(1, dtype=np.intp), np.arange(p)[:, None]
        for t in tr.tolist():
            table = ((d * t + table) % p).ravel()
        self._tr = table

    def inv(self, a):
        return self._inv[a]

    def pow(self, a, e):
        a, e = np.asarray(a), np.asarray(e)
        if ((a == 0) & (e < 0)).any():
            raise InvalidInput("inverse of zero")
        return np.where(a == 0, e == 0, self._exp[self._log[a] * e % self._n])

    def trace(self, a):
        return self._tr[a]

    def log(self, a):
        """log_g a, and the sentinel 2n for a = 0 (n = q - 1), so that
        antilog(v)[log a + log b] is v[a * b] for every a and b."""
        return self._log[a]

    def antilog(self, values) -> np.ndarray:
        """values, indexed by encoding, read through the antilog table: the
        4n + 1 entries v[exp[k]], indexed by sums k of two logs; every sum
        with log 0 = 2n in it lands in the zero tail, on v[0]."""
        return np.asarray(values)[self._exp]

    def mul_window(self, x, j0: int, m: int) -> np.ndarray:
        """The (len(x), m) products x * g^(j0 + k), k < m, of the 1-D array
        x, for 0 <= j0 and j0 + m <= q - 1.  Row x is the window of the
        doubled antilog table that starts at log x + j0, one strided slice;
        log 0 = 2n starts it in the zero tail, so x = 0 needs no branch.
        With x = [1] the one row is g^j0, ..., g^(j0 + m - 1)."""
        exp = self._exp
        windows = np.ndarray((len(exp) - m + 1, m), exp.dtype, exp, 0, (exp.itemsize,) * 2)
        return windows[self._log[x] + j0]


def field_new(p: int, s: int) -> Field:
    """Construct GF(p^s) with the canonical modulus."""
    return Field(p, s)


def field_from_q(q: int) -> Field:
    """Construct GF(q) from a prime power, factoring q as p^s."""
    q = check_int("q", q, 2)
    if q > Q_CAP:   # before factoring: trial division of a huge q never ends
        raise CapExceeded(f"q = {q} exceeds the supported cap {Q_CAP}")
    primes = factorize(q)
    if len(primes) != 1:
        raise InvalidInput(f"q = {q} is not a prime power")
    p = primes[0]
    return Field(p, round(math.log(q, p)))   # exact for every q <= Q_CAP


# ---------------------------------------------------------------------------
# input checks, one of each for every module
# ---------------------------------------------------------------------------

def _as_array(values, message: str, kinds: str) -> np.ndarray:
    """`values` as an array, InvalidInput(message) for a ragged table, a dtype
    kind outside `kinds` or a bool anywhere, which np.asarray hides among ints
    or floats unless `values` is an ndarray.  An empty array always passes."""
    try:
        arr = np.asarray(values)
    except ValueError:   # ragged
        raise InvalidInput(message) from None
    if arr.size and (arr.dtype.kind not in kinds or not isinstance(values, np.ndarray) and not
                     {bool, np.bool_}.isdisjoint(map(type, np.asarray(values, object).flat))):
        raise InvalidInput(message)
    return arr


def as_integers(values, message: str) -> np.ndarray:
    """`values` as an intp array, checked before the cast; InvalidInput(message)
    for a ragged or object array, a non-integer dtype (bool and float among
    them) or an entry beyond intp."""
    arr = _as_array(values, message, "iu")
    if arr.size and not np.can_cast(arr.dtype, np.intp) and arr.max() > np.iinfo(np.intp).max:
        raise InvalidInput(message)
    return arr.astype(np.intp, copy=False)


def as_floats(values, message: str, complex_: bool = False) -> np.ndarray:
    """`values` as a float64 (complex128, with complex_) array, not copied if
    it is one: `_as_array`'s test with the real (complex) kinds, and an object
    array (Fraction entries) only of real (complex) numbers other than a bool."""
    arr = _as_array(values, message, "iufcO" if complex_ else "iufO")
    number = numbers.Complex if complex_ else numbers.Real
    if arr.dtype.kind == "O" and not all(isinstance(v, number) and not isinstance(v, bool)
                                         for v in arr.flat):
        raise InvalidInput(message)
    try:
        return arr.astype(np.complex128 if complex_ else np.float64, copy=False)
    except OverflowError:   # an int or Fraction past float range
        raise InvalidInput(message) from None


def check_distribution(arr: np.ndarray, message: str, axis=None) -> np.ndarray:
    """The float array `arr`; InvalidInput(message) unless it is nonnegative and
    sums to 1 within 1e-12 over `axis` (the whole table by default).  Both
    tests are False on NaN, and the sum test on an infinite entry."""
    if not ((arr >= 0).all() and (abs(arr.sum(axis=axis) - 1.0) <= 1e-12).all()):
        raise InvalidInput(message)
    return arr


def as_elements(field: Field, values, message: str) -> np.ndarray:
    """`values` (a table, config rows, index vectors or triples) as an intp
    array of GF(q) elements: `as_integers`, then InvalidInput(message) for an
    entry outside [0, q)."""
    arr = as_integers(values, message)
    if arr.size and (arr.min() < 0 or arr.max() >= field.q):
        raise InvalidInput(message)
    return arr


def check_op_cap(field: Field, what: str) -> None:
    """Refuse q x q work above OP_TABLE_Q_CAP; `Field.vec` refuses nothing."""
    if field.q > OP_TABLE_Q_CAP:
        raise CapExceeded(f"{what} capped at q <= {OP_TABLE_Q_CAP}")


def check_int(name: str, value, low: int = 1) -> int:
    """`value` as a Python int: whatever `operator.index` takes (numpy integer
    scalars among them) except a bool; InvalidInput for anything else and for
    a value below `low`."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            n = operator.index(value)
        except TypeError:
            pass
        else:
            if n >= low:
                return n
    raise InvalidInput(f"{name} = {value!r} must be an integer >= {low}")


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

class AdditiveCharacter:
    """The canonical additive character x -> exp(2*pi*i * Tr(x) / p).

    Values are precomputed, so evaluation is a table lookup.  chi(0) = 1,
    and summing chi over the whole field gives 0 (orthogonality).
    """

    def __init__(self, field: Field):
        self.field = field
        p = field.p
        if p == 2:
            roots = [complex(1), complex(-1)]   # exact, avoids exp(i*pi) noise
        else:
            roots = [cmath.exp(2j * cmath.pi * k / p) for k in range(p)]
        # a list, so that entries can be read and replaced as plain complexes
        self.table = [roots[t] for t in field.vec.trace(np.arange(field.q)).tolist()]

    def __call__(self, a: int) -> complex:
        return self.table[a]
