"""Arithmetic in GF(q) for prime powers q = p^s.

Elements are plain Python ints in [0, q) under the base-p positional
encoding: the element with polynomial-basis coefficients (c_0, ..., c_{s-1})
is encoded as sum(c_i * p**i).  Encoding 0 is the additive identity and
encoding 1 is the multiplicative identity regardless of the modulus.

The modulus is the lexicographically smallest monic irreducible of degree s,
where "smallest" compares the low-degree coefficients as a base-p integer.
That makes every derived quantity (primitive element, traces, subfields)
reproducible from (p, s) alone.

A field is built from s x s matrices over F_p alone: M_a, the matrix of
multiplication by a, has the digits of x^i * a as row i, so the digits of
b * a are d(b) @ M_a.  One matrix power by squaring runs Rabin's
irreducibility test on M_x and the primitive-element search on M_g.  The
powers of g are listed by doubling, each step a float32 (float64 for primes
p > 2896) BLAS product over blocks of rows, reduced mod p in place; every
value is an integer of at most s(p - 1)^2, small enough that the products
and the floor of each quotient by p are exact (`_powers` gives the bound).

Every field holds one set of tables, derived once by `_tables` in one
sentinel scheme from the powers of its canonical primitive element g (the
smallest encoding of order q - 1): log, antilog, neg and inv, so that mul,
inv and pow are index arithmetic, and for addition (digit-wise mod p) a
mod-q table for prime fields, nothing for p = 2 (XOR) and Zech logarithms
for odd p with s > 1.  `_Arith` writes add, sub, neg and mul once over them,
and two faces run those bodies: the scalar methods index compact uint16 and
int32 tables as plain Python ints, and `Field.vec` gathers elementwise on
integer arrays from intp widenings of the same tables.  `op_table` serves
the cached q x q add/sub/mul tables that `vec` builds.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInput, InvariantViolation, CapExceeded

Q_CAP = 1 << 16        # refuse fields larger than this
OP_TABLE_Q_CAP = 1 << 12   # refuse q x q op tables above this q
POWER_ROWS = 4096      # rows per BLAS product when listing the powers of g

# op table item types: field elements are < q <= 2**16, logarithms lie in [-2q, 2q]
_ELT, _LOG = np.uint16, np.int32


# ---------------------------------------------------------------------------
# primality and factoring (small inputs only)
# ---------------------------------------------------------------------------

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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


def _matpow(m: np.ndarray, e: int, p: int) -> np.ndarray:
    """m^e over F_p for e >= 1, by squaring; m is square with entries in [0, p)."""
    out = None
    while True:
        if e & 1:
            out = m if out is None else out @ m % p
        e >>= 1
        if not e:
            return out
        m = m @ m % p


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


def _is_irreducible(coeffs: list[int], p: int) -> bool:
    """coeffs is monic of degree s >= 1, low degree first, length s+1.

    Rabin's test on X = M_x: x^(p^s) = x mod f, and for each prime r | s,
    gcd(x^(p^(s/r)) - x, f) = 1.  Given the first, F_p[x]/(f) is a product of
    fields F_(p^d) with d | s, so the gcd is 1 iff x^(p^(s/r)) - x is a unit,
    that is iff its (p^s - 1)-th power is 1."""
    s = len(coeffs) - 1
    x = _x_matrix(coeffs, p)
    frob = [x]   # X^(p^j) for j = 0 .. s
    for _ in range(s):
        frob.append(_matpow(frob[-1], p, p))
    if (frob[s] != x).any():
        return False
    one = np.eye(s, dtype=np.int64)
    return all((_matpow((frob[s // r] - x) % p, p ** s - 1, p) == one).all() for r in factorize(s))


def smallest_irreducible(p: int, s: int) -> tuple[int, ...]:
    """Lex-smallest monic irreducible of degree s over F_p.

    Returned as coefficients (c_0, ..., c_{s-1}, 1).  Candidates are ordered
    by the integer sum(c_i * p**i) over the non-leading coefficients.
    """
    if s == 1:
        return (0, 1)
    for n in range(p ** s):
        if n % p == 0:   # constant term 0: x divides the candidate
            continue
        coeffs = _digits(n, p, s) + [1]
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise InvariantViolation(f"no irreducible of degree {s} over F_{p}")


def _primitive_root(p: int, s: int, x: np.ndarray) -> tuple[int, np.ndarray]:
    """Smallest encoding g of multiplicative order p^s - 1, with M_g:
    M_g^((q-1)/r) != I for each prime r | q - 1.  Candidates are tested in
    stacks, one matrix power per cofactor for the whole stack; a stack stays
    small enough that its s^3 work per matrix costs no more than the numpy
    calls it saves."""
    q = p ** s
    cofactors = [(q - 1) // r for r in factorize(q - 1)]
    one = np.eye(s, dtype=np.int64)
    block = max(1, min(16, 4096 // s ** 3))
    for start in range(1, q, block):
        g = np.arange(start, min(start + block, q))
        mg = _mul_matrices(g[:, None] // p ** np.arange(s) % p, x, p)
        ok = np.ones(len(g), dtype=bool)
        for e in cofactors:
            ok &= ~(_matpow(mg, e, p) == one).all(axis=(1, 2))
            if not ok.any():
                break
        else:
            i = ok.argmax()
            return int(g[i]), mg[i]
    raise InvariantViolation("no primitive element found")


def _powers(p: int, s: int, mg: np.ndarray) -> np.ndarray:
    """Encodings of g^0, ..., g^(q-2), as the uint16 array `_tables` keeps,
    by doubling: powers k .. 2k-1 are the digit vectors of powers 0 .. k-1
    times M_(g^k), which squares to M_(g^2k).

    Each step is a float BLAS product taken `POWER_ROWS` rows at a time and
    reduced mod p in place as x - floor(x / p) * p through one scratch
    block; the encodings, digits times p^i, go block by block into the
    result.  All of it is exact.  Digits lie in [0, p), so a sum x = kp + r
    is an integer of at most s(p - 1)^2, and k + 1 < sp.  For r > 0, x / p
    lies at least 1/p below k + 1, and a float with an m-bit significand
    rounds it up to k + 1 only if 1/p <= (k + 1) 2^-m; so floor(x / p) = k
    whenever s p^2 <= 2^m.  float32 (m = 24) serves s p^2 < 2^23, GF(2^16)
    and GF(3^10) among them, and float64 the rest: prime fields with
    p > 2896, where s p^2 < 2^32."""
    n = p ** s - 1
    dtype = np.float32 if s * p * p < 2 ** 23 else np.float64
    digits = np.zeros((n, s), dtype=dtype)
    digits[0, 0] = 1
    scratch = np.empty((min(POWER_ROWS, n), s), dtype=dtype)
    mat = mg.astype(dtype)
    k = 1
    while k < n:
        m = min(k, n - k)
        for i in range(0, m, POWER_ROWS):
            j = min(i + POWER_ROWS, m)
            block, t = digits[k + i:k + j], scratch[:j - i]
            np.matmul(digits[i:j], mat, out=block)
            np.divide(block, p, out=t)
            np.floor(t, out=t)
            t *= p
            block -= t
        k += m
        if k < n:
            mat = mat @ mat % p
    out = np.empty(n, dtype=_ELT)
    weights = p ** np.arange(s, dtype=dtype)
    for i in range(0, n, POWER_ROWS):
        out[i:i + POWER_ROWS] = digits[i:i + POWER_ROWS] @ weights
    return out


def _tables(p: int, s: int, powers: np.ndarray) -> dict[str, np.ndarray]:
    """The op tables of GF(p^s) from powers = g^0, ..., g^(n-1), n = q - 1.

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

@dataclass(frozen=True)
class FieldSpec:
    """Immutable description of GF(p^s): reconstructible from (p, s, modulus)."""
    p: int
    s: int
    q: int
    modulus: tuple[int, ...]   # monic, length s+1, low degree first

    def to_json_dict(self) -> dict:
        return {"p": self.p, "s": self.s, "modulus": list(self.modulus)}


class Field(_Arith):
    """Arithmetic on integer-encoded elements of GF(p^s)."""

    def __init__(self, p: int, s: int, modulus: tuple[int, ...] | None = None):
        if not isinstance(p, int) or not isinstance(s, int):
            raise InvalidInput("p and s must be integers")
        if not is_prime(p):
            raise InvalidInput(f"p = {p} is not prime")
        if s < 1:
            raise InvalidInput(f"s = {s} must be >= 1")
        if s >= Q_CAP.bit_length():   # p^s >= 2^s > Q_CAP, and p ** s may never finish
            raise CapExceeded(f"q = {p}^{s} exceeds the supported cap {Q_CAP}")
        q = p ** s
        if q > Q_CAP:
            raise CapExceeded(f"q = {q} exceeds the supported cap {Q_CAP}")
        if modulus is None:
            modulus = smallest_irreducible(p, s)
        else:
            try:
                modulus = tuple(operator.index(c) for c in modulus)
            except TypeError:
                raise InvalidInput("modulus must be a sequence of integers") from None
            if len(modulus) != s + 1 or modulus[-1] != 1:
                raise InvalidInput("modulus must be monic of degree s")
            modulus = tuple(c % p for c in modulus[:-1]) + (1,)
            if not _is_irreducible(list(modulus), p):
                raise InvalidInput("modulus is reducible")
        self.p = p
        self.s = s
        self.q = q
        self.modulus = modulus
        self.spec = FieldSpec(p, s, q, modulus)

        self._g, mg = _primitive_root(p, s, _x_matrix(modulus, p))
        powers = _powers(p, s, mg)
        # memoryviews of the tables, whose items index as plain Python ints
        self._bind(p, s, {k: memoryview(t) for k, t in _tables(p, s, powers).items()})
        self._op_tables: dict[str, np.ndarray] = {}

    # -- encoding -----------------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Polynomial-basis coefficients of an encoded element, low degree first."""
        if not 0 <= a < self.q:
            raise InvalidInput(f"encoding {a} outside [0, {self.q})")
        return tuple(_digits(a, self.p, self.s))

    def from_coeffs(self, v) -> int:
        if len(v) != self.s:
            raise InvalidInput(f"expected {self.s} coefficients")
        return sum((int(c) % self.p) * self.p ** i for i, c in enumerate(v))

    def elements(self) -> range:
        return range(self.q)

    def units(self) -> range:
        return range(1, self.q)

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

    def op_table(self, op: str) -> np.ndarray:
        """The read-only q x q table of "add", "sub" or "mul", built from
        `vec` on first use and cached.  int32, so callers may form a * q + b
        freely.  Refused above OP_TABLE_Q_CAP, before anything is allocated."""
        table = self._op_tables.get(op)
        if table is None:
            if op not in ("add", "sub", "mul"):
                raise InvalidInput(f"unknown field operation {op!r}")
            if self.q > OP_TABLE_Q_CAP:
                raise CapExceeded(f"q x q op tables capped at q <= {OP_TABLE_Q_CAP}")
            r = np.arange(self.q)
            table = getattr(self.vec, op)(r[:, None], r[None, :]).astype(np.int32)
            table.flags.writeable = False
            self._op_tables[op] = table
        return table

    # -- structure ----------------------------------------------------------

    def multiplicative_order(self, a: int) -> int:
        if a == 0:
            raise InvalidInput("order of zero")
        return self._n // math.gcd(self._log[a], self._n)

    def primitive_element(self) -> int:
        """Smallest encoding whose multiplicative order is q - 1."""
        return self._g

    def trace(self, a: int) -> int:
        """Absolute trace into F_p, returned as an int in [0, p)."""
        return int(self.vec.trace(a))

    def subfield_elements(self, t: int) -> list[int]:
        """Encodings of the subfield GF(p^t), requires t | s.  Sorted."""
        if t < 1 or self.s % t != 0:
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
        # Tr(x) = x + x^p + ... + x^(p^(s-1)) lies in F_p, encoded 0..p-1
        tr = term = np.arange(field.q)
        for _ in range(s - 1):
            term = self.pow(term, p)
            tr = self.add(tr, term)
        if (tr >= p).any():
            raise InvariantViolation("trace not in prime subfield")
        self._tr = tr

    def inv(self, a):
        return self._inv[a]

    def pow(self, a, e):
        a, e = np.asarray(a), np.asarray(e)
        if ((a == 0) & (e < 0)).any():
            raise InvalidInput("inverse of zero")
        return np.where(a == 0, e == 0, self._exp[self._log[a] * e % self._n])

    def trace(self, a):
        return self._tr[a]


def field_new(p: int, s: int) -> Field:
    """Construct GF(p^s) with the canonical modulus."""
    return Field(p, s)


def field_from_q(q: int) -> Field:
    """Construct GF(q) from a prime power, factoring q as p^s."""
    if q < 2:
        raise InvalidInput(f"q = {q} is not a prime power")
    if q > Q_CAP:   # before factoring: trial division of a huge q never ends
        raise CapExceeded(f"q = {q} exceeds the supported cap {Q_CAP}")
    primes = factorize(q)
    if len(primes) != 1:
        raise InvalidInput(f"q = {q} is not a prime power")
    p = primes[0]
    return Field(p, round(math.log(q, p)))   # exact for every q <= Q_CAP


def field_from_json(d: dict) -> Field:
    """The field of `FieldSpec.to_json_dict`; InvalidInput for any malformed dict."""
    try:
        p, s, modulus = d["p"], d["s"], list(d["modulus"])
    except (KeyError, TypeError) as e:
        raise InvalidInput(f"malformed field json: {e!r}") from None
    return Field(p, s, modulus)


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


def additive_character(field: Field) -> AdditiveCharacter:
    return AdditiveCharacter(field)
