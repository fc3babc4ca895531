"""Field arithmetic, moduli, traces, characters."""

from __future__ import annotations

import cmath
import hashlib
import json
import random
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import chshq.field
from chshq.errors import InvalidInput, InvariantViolation, CapExceeded
from chshq.field import (
    Field, field_new, field_from_q,
    is_prime, factorize,
    Q_CAP, AdditiveCharacter, _digits,
)

import field_oracle
from field_oracle import smallest_irreducible

SMALL_Q = [2, 3, 4, 5, 7, 8, 9]


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
    for n in range(-2, 42):
        assert is_prime(n) == (n in primes)


def test_factorize():
    assert factorize(1) == []
    assert factorize(12) == [2, 3]
    assert factorize(243) == [3]
    assert factorize(2 * 3 * 5 * 7) == [2, 3, 5, 7]


def test_rejects_nonprime_characteristic():
    with pytest.raises(InvalidInput):
        field_new(6, 1)
    with pytest.raises(InvalidInput):
        field_new(1, 1)
    with pytest.raises(InvalidInput):
        field_new(2, 0)


@pytest.mark.parametrize("key", ["p", "s"])
@pytest.mark.parametrize("value", ["2", 2.0, None, [2]], ids=["str", "float", "None", "list"])
def test_rejects_non_integer_p_and_s(key, value):
    args = {"p": 2, "s": 2, key: value}
    with pytest.raises(InvalidInput, match=rf"^{key} = .* must be an integer >= "):
        Field(**args)


def test_rejects_non_prime_power_order():
    with pytest.raises(InvalidInput):
        field_from_q(6)
    with pytest.raises(InvalidInput):
        field_from_q(12)


def test_q_cap_enforced():
    with pytest.raises(CapExceeded):
        field_from_q(2 ** 17)
    with pytest.raises(CapExceeded):
        field_new(2, 17)
    assert field_from_q(Q_CAP).q == Q_CAP


def test_field_from_q_recovers_p_s():
    f = field_from_q(243)
    assert (f.p, f.s, f.q) == (3, 5, 243)
    f = field_from_q(1024)
    assert (f.p, f.s) == (2, 10)


# ---------------------------------------------------------------------------
# moduli
# ---------------------------------------------------------------------------

def test_known_minimal_moduli():
    # lex-smallest monic irreducibles, low coefficients first
    assert smallest_irreducible(2, 2) == (1, 1, 1)        # x^2+x+1
    assert smallest_irreducible(2, 3) == (1, 1, 0, 1)     # x^3+x+1
    assert smallest_irreducible(2, 4) == (1, 1, 0, 0, 1)  # x^4+x+1
    assert smallest_irreducible(3, 2) == (1, 0, 1)        # x^2+1
    assert smallest_irreducible(3, 3) == (1, 2, 0, 1)     # x^3+2x+1


def has_root(coeffs, p):
    # the root test Rabin's test replaced for s = 2, 3: a polynomial of
    # degree 2 or 3 is reducible iff it has a root in F_p
    return any(sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p == 0
               for x in range(p))


def test_small_degree_moduli_match_root_test():
    pairs = [(p, s) for s in (2, 3) for p in range(2, 257)
             if is_prime(p) and p ** s <= Q_CAP]
    assert len(pairs) == 66
    for p, s in pairs:
        first = next(tuple(_digits(n, p, s) + [1]) for n in range(p ** s)
                     if not has_root(_digits(n, p, s) + [1], p))
        assert smallest_irreducible(p, s) == first
    for p in (2, 3, 5, 7, 11, 13):
        for s in (2, 3):
            for n in range(p ** s):
                coeffs = _digits(n, p, s) + [1]
                assert field_oracle._is_irreducible(coeffs, p) == (not has_root(coeffs, p))


def reducible_monics(p: int, s: int) -> set[tuple[int, ...]]:
    """Every product a * b of monic a, b over F_p with deg a + deg b = s and
    both degrees >= 1, as coefficient tuples, low degree first."""
    def monics(d):
        return [[n // p ** i % p for i in range(d)] + [1] for n in range(p ** d)]
    out = set()
    for d in range(1, s // 2 + 1):
        for a in monics(d):
            for b in monics(s - d):
                c = [0] * (s + 1)
                for i, ai in enumerate(a):
                    for j, bj in enumerate(b):
                        c[i + j] = (c[i + j] + ai * bj) % p
                out.add(tuple(c))
    return out


@pytest.mark.parametrize("p,s", [(2, s) for s in range(1, 11)] + [(3, s) for s in range(1, 7)]
                         + [(5, 4), (7, 3), (13, 2), (251, 1)])
def test_irreducibility_matches_product_sieve(p, s):
    reducible = reducible_monics(p, s)
    for n in range(p ** s):
        coeffs = [n // p ** i % p for i in range(s)] + [1]
        assert field_oracle._is_irreducible(coeffs, p) == (tuple(coeffs) not in reducible)


def test_no_irreducible_raises_invariant_violation(monkeypatch):
    # degree 4: a rootless candidate of degree 2 or 3 is accepted without Rabin's test
    monkeypatch.setattr(field_oracle, "_is_irreducible", lambda coeffs, p: False)
    with pytest.raises(InvariantViolation):
        smallest_irreducible(2, 4)


def test_canonical_table_covers_every_extension_field_under_cap():
    assert set(chshq.field._CANONICAL) == {
        (p, s) for s in range(2, 17) for p in range(2, 257)
        if is_prime(p) and p ** s <= Q_CAP}
    assert len(chshq.field._CANONICAL) == 93


def test_canonical_table_matches_oracle_search():
    # the frozen (code, g) of every extension field is the search's result:
    # the modulus's index in the scan order, and the smallest primitive encoding
    wrong = []
    for (p, s), (code, g) in chshq.field._CANONICAL.items():
        modulus = smallest_irreducible(p, s)
        found, _ = field_oracle._primitive_root(p, s, chshq.field._x_matrix(modulus, p))
        if (code, g) != (sum(c * p ** i for i, c in enumerate(modulus[:-1])), found):
            wrong.append((p, s))
    assert not wrong, f"frozen constants differ from the search for (p, s) = {wrong}"


def test_prime_field_root_matches_matrix_oracle():
    x = np.zeros((1, 1), dtype=np.int64)   # M_x for the modulus x
    wrong = [p for p in primes_up_to(4096) + [65521]
             if chshq.field._prime_root(p) != field_oracle._primitive_root(p, 1, x)[0]]
    assert not wrong, f"prime-field g differs from the oracle for p = {wrong}"


def test_huge_characteristic_refused_before_primality_test(monkeypatch):
    def refuse(n):
        raise AssertionError("is_prime ran on a p above the cap")
    monkeypatch.setattr(chshq.field, "is_prime", refuse)
    with pytest.raises(CapExceeded, match="exceeds the supported cap"):
        Field(10 ** 30 + 57, 1)
    with pytest.raises(CapExceeded):
        Field(Q_CAP + 1, 1)


def test_modulus_has_no_small_roots():
    for p, s in [(2, 5), (3, 4), (5, 3), (7, 2)]:
        f = field_new(p, s)
        mod = f.modulus
        assert mod[-1] == 1 and len(mod) == s + 1
        for x in range(p):
            assert sum(c * x ** i for i, c in enumerate(mod)) % p != 0


# [p, s, modulus, primitive element, sha256 of g^0 .. g^(q-2) as little-endian
# uint16] for every p^s <= Q_CAP with s >= 2, every prime below 1000, and 65521
FIELD_BUILDS = json.loads((Path(__file__).parent / "field_builds.json").read_text())


def antilog_sha256(f: Field) -> str:
    g = f.primitive_element()
    powers = np.array([f.pow(g, k) for k in range(f.q - 1)], dtype="<u2")
    return hashlib.sha256(powers.tobytes()).hexdigest()


def test_field_builds_match_frozen_golden():
    pairs = {(p, s) for p, s, *_ in FIELD_BUILDS}
    assert len(FIELD_BUILDS) == len(pairs) == 262
    assert sum(s >= 2 for _, s in pairs) == 93
    assert {(p, s) for p, s in pairs if s >= 2} == {
        (p, s) for s in range(2, 17) for p in DEGREE_PRIMES[s]}
    assert {p for p, s in pairs if s == 1} == set(primes_up_to(1000)) | {65521}
    wrong = []
    for p, s, modulus, g, sha in FIELD_BUILDS:
        f = field_new(p, s)
        if (list(f.modulus), f.primitive_element(), antilog_sha256(f)) != (modulus, g, sha):
            wrong.append((p, s))
    assert not wrong, f"builds differ from the golden for (p, s) = {wrong}"



@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_golden_field_builds_raise_no_runtime_warning():
    # a float matvec that encoded the digits in `_powers` once raised a
    # spurious "invalid value encountered in matmul"; every golden build runs
    # here with RuntimeWarning an error
    for p, s, *_ in FIELD_BUILDS:
        field_new(p, s)

def powers_oracle(p: int, s: int, mg: np.ndarray) -> np.ndarray:
    # the doubling in exact integer matmul, one product per step: the
    # reference the float BLAS row blocks of `_powers` must reproduce
    n = p ** s - 1
    dtype = np.int32 if s * (p - 1) ** 2 < 2 ** 31 else np.int64
    digits = np.zeros((n, s), dtype=dtype)
    digits[0, 0] = 1
    mat = mg.astype(dtype)
    k = 1
    while k < n:
        m = min(k, n - k)
        block = digits[k:k + m]
        np.matmul(digits[:m], mat, out=block)
        block %= p
        mat = mat @ mat % p
        k += m
    return digits @ p ** np.arange(s, dtype=dtype)


# 2887 and 2897 are the last float32 and the first float64 prime fields
# (s * p^2 < 2^23); the golden has no s = 1 field between 1000 and 65521
POWER_FIELDS = [(2887, 1), (2897, 1), (4093, 1), (65521, 1), (2, 16), (3, 10),
                (5, 6), (7, 5), (251, 2)]


@pytest.mark.parametrize("rows", [None, 1, 7])
@pytest.mark.parametrize("p,s", POWER_FIELDS)
def test_powers_match_int_matmul_oracle(monkeypatch, p, s, rows):
    x = chshq.field._x_matrix(smallest_irreducible(p, s), p)
    _, mg = field_oracle._primitive_root(p, s, x)
    if rows is not None:   # partial last blocks, and many blocks per step
        monkeypatch.setattr(chshq.field, "BLOCK_CELLS", rows * s)
    got = chshq.field._powers(p, s, mg)
    assert got.dtype == np.uint16
    assert np.array_equal(got, powers_oracle(p, s, mg))


def test_irreducible_search_matches_unskipped_scan():
    # every candidate in order, constant term 0 included
    pairs = [(p, s) for s in range(2, 17) for p in DEGREE_PRIMES[s]]
    assert len(pairs) == 93
    for p, s in pairs:
        first = next(tuple(_digits(n, p, s) + [1]) for n in range(p ** s)
                     if field_oracle._is_irreducible(_digits(n, p, s) + [1], p))
        assert smallest_irreducible(p, s) == first


# ---------------------------------------------------------------------------
# arithmetic laws
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", SMALL_Q)
def test_field_axioms_exhaustive(q):
    f = field_from_q(q)
    els = range(f.q)
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        assert f.mul(a, 0) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.sub(a, b) == f.add(a, f.neg(b))
    rng = random.Random(q)
    for _ in range(200):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_axioms_sampled_on_large_field():
    f = field_from_q(2 ** 12)
    rng = random.Random(99)
    for _ in range(300):
        a, b, c = (rng.randrange(f.q) for _ in range(3))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        if a:
            assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("q", [4, 9, 27])
def test_coeffs_roundtrip(q):
    # coeffs inverts the base-p positional encoding
    f = field_from_q(q)
    for a in range(f.q):
        assert sum(c * f.p ** i for i, c in enumerate(f.coeffs(a))) == a


def test_pow_matches_repeated_mul():
    f = field_from_q(9)
    for a in range(f.q):
        acc = 1
        for e in range(12):
            assert f.pow(a, e) == acc
            acc = f.mul(acc, a)


def test_frobenius_is_additive():
    # (a+b)^p = a^p + b^p in characteristic p
    for q in (8, 9, 25):
        f = field_from_q(q)
        for a in range(f.q):
            for b in range(f.q):
                lhs = f.pow(f.add(a, b), f.p)
                rhs = f.add(f.pow(a, f.p), f.pow(b, f.p))
                assert lhs == rhs


# fields on both sides of q = 1024, odd p with s > 1 (Zech addition), and
# the largest prime field under the cap
REFERENCE_FIELDS = [(2, 2), (3, 2), (2, 9), (2, 10), (2, 11), (3, 5), (3, 7),
                    (3, 10), (2, 16), (5, 6), (7, 5), (251, 2), (65521, 1)]


# Polynomials over F_p as dense coefficient lists, low degree first.  The
# library builds its fields from multiplication matrices and keeps none of
# this, so PolyReference below shares no arithmetic with it.

def poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    # mod is monic; reduce as we go to keep degrees < len(mod) - 1
    res = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            res[i + j] = (res[i + j] + ai * bj) % p
    return poly_rem(res, mod, p)


def poly_rem(a: list[int], mod: list[int], p: int) -> list[int]:
    a = a[:]
    deg_m = len(mod) - 1
    for i in range(len(a) - 1, deg_m - 1, -1):
        c = a[i]
        if c == 0:
            continue
        a[i] = 0
        for j in range(deg_m):
            a[i - deg_m + j] = (a[i - deg_m + j] - c * mod[j]) % p
    return poly_trim(a[:deg_m])


def poly_powmod(a: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    base = poly_rem(a[:], mod, p)
    while e:
        if e & 1:
            result = poly_mulmod(result, base, mod, p)
        base = poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


class PolyReference:
    """GF(p^s) by polynomial arithmetic on digits, sharing no code with the
    library's matrices and tables."""

    def __init__(self, f: Field):
        self.p, self.s, self.q, self.mod = f.p, f.s, f.q, list(f.modulus)

    def coeffs(self, a):
        return [a // self.p ** i % self.p for i in range(self.s)]

    def encode(self, c):
        return sum(ci * self.p ** i for i, ci in enumerate(c))

    def digitwise(self, a, b, sign):
        return self.encode([(x + sign * y) % self.p for x, y in
                            zip(self.coeffs(a), self.coeffs(b))])

    def mul(self, a, b):
        return self.encode(poly_mulmod(self.coeffs(a), self.coeffs(b), self.mod, self.p))

    def pow(self, a, e):
        # a^e = (a^(q-2))^(-e) for e < 0
        e = e if e >= 0 else -e * (self.q - 2)
        return self.encode(poly_powmod(self.coeffs(a), e, self.mod, self.p))

    def has_full_order(self, a):
        n = self.q - 1
        return all(self.pow(a, n // r) != 1 for r in factorize(n))


@pytest.mark.parametrize("p,s", REFERENCE_FIELDS)
def test_table_ops_match_polynomial_reference(p, s):
    f = field_new(p, s)
    ref = PolyReference(f)
    q = f.q
    rng = random.Random(q)
    for _ in range(200):
        a, b = rng.randrange(q), rng.randrange(q)
        e = rng.randrange(-3 * q, 3 * q)
        assert f.add(a, b) == ref.digitwise(a, b, 1)
        assert f.sub(a, b) == ref.digitwise(a, b, -1)
        assert f.neg(a) == ref.digitwise(0, a, -1)
        assert f.mul(a, b) == ref.mul(a, b)
        if a:
            assert f.inv(a) == ref.pow(a, q - 2)
            assert f.pow(a, e) == ref.pow(a, e)
        elif e >= 0:
            assert f.pow(a, e) == ref.pow(a, e)
    # additions that cancel exercise the Zech sentinel
    for _ in range(20):
        a = rng.randrange(1, q)
        assert f.add(a, f.neg(a)) == 0 and f.sub(a, a) == 0
    assert f.pow(0, 0) == 1 and f.pow(0, 5) == 0
    with pytest.raises(InvalidInput):
        f.pow(0, -1)
    g = f.primitive_element()
    assert ref.has_full_order(g)
    assert not any(ref.has_full_order(a) for a in range(1, g))


@pytest.mark.parametrize("q", SMALL_Q + [16, 25, 27])
def test_op_table_matches_scalar_ops(q):
    # the q x q op table of each vec op, one broadcast, against the scalar ops
    f = field_from_q(q)
    r = np.arange(q)
    for op in ("add", "sub", "mul"):
        grid = getattr(f.vec, op)(r[:, None], r)
        scalar = getattr(f, op)
        assert grid.tolist() == [[scalar(a, b) for b in range(q)] for a in range(q)]


@pytest.mark.parametrize("q", [2, 4, 7, 9, 27, 256])
def test_mul_window_is_x_times_powers_of_g(q):
    f = field_from_q(q)
    n = q - 1
    x = np.arange(q)   # 0 included: its window starts in the zero tail
    g = f.primitive_element()
    for j0, m in {(0, n), (0, 1), (n - 1, 1), (n // 2, n - n // 2), (1 % n, max(1, n - 2))}:
        j = np.arange(j0, j0 + m)
        rows = f.vec.mul_window(x, j0, m)
        assert rows.shape == (q, m)
        assert np.array_equal(rows, f.vec.mul(x[:, None], f.vec.pow(g, j))), (j0, m)
        assert np.array_equal(f.vec.mul_window(x[1:2], j0, m)[0], f.vec.pow(g, j))


@pytest.mark.parametrize("q", [7, 16, 27])   # one field of each add kind
def test_scalar_ops_return_plain_ints(q):
    f = field_from_q(q)
    pairs = [(0, 0), (0, 1), (1, 0), (2, q - 1), (q - 1, 2), (q - 1, q - 1)]
    for a, b in pairs:   # a < b in sub as well as a > b
        for op in (f.add, f.sub, f.mul):
            assert type(op(a, b)) is int
    for a in (0, 1, q - 1):
        assert type(f.neg(a)) is int and type(f.trace(a)) is int
        assert type(f.pow(a, 0)) is int and type(f.pow(a, 5)) is int
    for a in (1, 2, q - 1):
        assert type(f.inv(a)) is int and type(f.pow(a, -3)) is int


# ---------------------------------------------------------------------------
# multiplicative structure, trace, subfields
# ---------------------------------------------------------------------------

def order(f, a) -> int:
    """The multiplicative order of a unit a: q - 1 divided by each prime r of
    q - 1 for as long as a to the quotient is still 1."""
    n = f.q - 1
    for r in factorize(f.q - 1):
        while n % r == 0 and f.pow(a, n // r) == 1:
            n //= r
    return n


@pytest.mark.parametrize("q", SMALL_Q + [243, 1024, 2048, 15625, 59049, 65521, 65536])
def test_primitive_element(q):
    f = field_from_q(q)
    g = f.primitive_element()
    assert order(f, g) == q - 1
    # smallest encoding with full order
    for a in range(1, g):
        assert order(f, a) < q - 1


def test_unit_orders_divide_group_order():
    f = field_from_q(16)
    for a in range(1, f.q):
        k = order(f, a)
        assert (f.q - 1) % k == 0 and f.pow(a, k) == 1
        # and no smaller power is 1, by repeated multiplication
        x = a
        for _ in range(1, k):
            assert x != 1
            x = f.mul(x, a)
        assert x == 1


@pytest.mark.parametrize("q", [4, 8, 9, 27, 16])
def test_trace_linear_and_onto(q):
    f = field_from_q(q)
    seen = set()
    for a in range(f.q):
        ta = f.trace(a)
        assert 0 <= ta < f.p
        seen.add(ta)
        for b in range(f.q):
            assert f.trace(f.add(a, b)) == (ta + f.trace(b)) % f.p
    assert seen == set(range(f.p))   # trace is surjective onto F_p


def test_subfield_elements():
    f = field_from_q(16)
    sub = f.subfield_elements(2)    # F_4 inside F_16
    assert len(sub) == 4
    for a in sub:
        for b in sub:
            assert f.add(a, b) in sub
            assert f.mul(a, b) in sub
    assert f.subfield_elements(1) == list(range(2))


# ---------------------------------------------------------------------------
# additive characters
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", SMALL_Q)
def test_character_is_homomorphism(q):
    f = field_from_q(q)
    chi = AdditiveCharacter(f)
    for a in range(f.q):
        assert abs(abs(chi(a)) - 1.0) < 1e-12
        for b in range(f.q):
            assert abs(chi(f.add(a, b)) - chi(a) * chi(b)) < 1e-12


@pytest.mark.parametrize("q", SMALL_Q)
def test_character_orthogonality(q):
    f = field_from_q(q)
    chi = AdditiveCharacter(f)
    assert abs(sum(chi(a) for a in range(f.q))) < 1e-9
    assert chi(0) == 1


def test_character_exact_signs_in_char_two():
    f = field_from_q(8)
    chi = AdditiveCharacter(f)
    for a in range(f.q):
        assert chi(a) in (complex(1), complex(-1))   # no exp() noise at p=2


def test_character_nontrivial():
    f = field_from_q(9)
    chi = AdditiveCharacter(f)
    w = cmath.exp(2j * cmath.pi / 3)
    vals = {chi(a) for a in range(f.q)}
    assert any(abs(v - w) < 1e-12 for v in vals)


# ---------------------------------------------------------------------------
# the elementwise face: Field.vec
# ---------------------------------------------------------------------------

def primes_up_to(n: int) -> list[int]:
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, int(n ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = False
    return np.flatnonzero(sieve).tolist()


PRIMES = primes_up_to(Q_CAP)
DEGREE_PRIMES = {s: [p for p in PRIMES if p ** s <= Q_CAP] for s in range(1, 17)}


@lru_cache(maxsize=8)
def cached_field(p: int, s: int) -> Field:
    return field_new(p, s)


@st.composite
def field_pairs(draw):
    # the degree first, so that extension fields are drawn as often as prime ones
    s = draw(st.integers(1, 16))
    return draw(st.sampled_from(DEGREE_PRIMES[s])), s


def loop_trace(f: Field, a: int) -> int:
    # the scalar Frobenius sum that the vec trace replaced
    acc = term = a
    for _ in range(f.s - 1):
        term = f.pow(term, f.p)
        acc = f.add(acc, term)
    return acc


def frobenius_trace_table(f: Field) -> np.ndarray:
    # the whole-field Frobenius sum that the trace by linearity replaced
    tr = term = np.arange(f.q)
    for _ in range(f.s - 1):
        term = f.vec.pow(term, f.p)
        tr = f.vec.add(tr, term)
    return tr


@pytest.mark.parametrize("p,s", [(2, 1), (5, 1), (2, 2), (2, 5), (3, 3), (5, 2), (7, 3),
                                 (2, 8), (3, 6), (13, 2), (2, 11), (5, 5), (3, 7),
                                 (251, 2), (2, 16)])
def test_trace_by_linearity_matches_frobenius_sum(p, s):
    f = cached_field(p, s)
    tr = f.vec.trace(np.arange(f.q))
    assert np.array_equal(tr, frobenius_trace_table(f))
    sample = random.Random(p ** s).sample(range(f.q), min(f.q, 64))
    assert tr[sample].tolist() == [loop_trace(f, a) for a in sample]


def test_trace_basis_outside_prime_field_raises(monkeypatch):
    # with x -> x^p broken to the constant terms (5, 6), the basis traces of
    # GF(9) read 1 + 5 = 3 and 3 + 6 = 0: 3 = p is the first encoding outside F_3
    monkeypatch.setattr(chshq.field.FieldVec, "pow", lambda self, a, e: np.array([5, 6]))
    with pytest.raises(InvariantViolation, match="prime subfield"):
        Field(3, 2).vec


operands = st.lists(st.integers(0, Q_CAP - 1), max_size=12)


@settings(max_examples=80, deadline=None)
@given(pair=field_pairs(), a=operands, b=operands, e=st.integers(-3 * Q_CAP, 3 * Q_CAP))
@example(pair=(2, 16), a=[65535, 1], b=[1, 65535], e=-1)
@example(pair=(3, 10), a=[59048, 2], b=[59048, 1], e=59048)
@example(pair=(65521, 1), a=[65520, 3], b=[1, 65520], e=-65521)
@example(pair=(5, 6), a=[15624], b=[3124], e=7)
def test_vec_ops_match_scalar_and_polynomial_ops(pair, a, b, e):
    f = cached_field(*pair)
    q, ref, vec = f.q, PolyReference(f), f.vec
    assert f.vec is vec
    # zero operands on either side and on both
    n = min(len(a), len(b))
    a = [x % q for x in a[:n]] + [0, 0, 1]
    b = [y % q for y in b[:n]] + [0, q - 1, 0]
    A, B = np.array(a), np.array(b)
    for op in ("add", "sub", "mul"):
        assert getattr(vec, op)(A, B).tolist() == [getattr(f, op)(x, y) for x, y in zip(a, b)]
    assert vec.add(A, B).tolist() == [ref.digitwise(x, y, 1) for x, y in zip(a, b)]
    assert vec.sub(A, B).tolist() == [ref.digitwise(x, y, -1) for x, y in zip(a, b)]
    assert vec.mul(A, B).tolist() == [ref.mul(x, y) for x, y in zip(a, b)]
    assert vec.neg(A).tolist() == [f.neg(x) for x in a]
    assert vec.inv(A).tolist() == [f.inv(x) if x else 0 for x in a]
    units = [x for x in a if x]
    assert vec.pow(np.array(units), e).tolist() == [f.pow(x, e) for x in units]
    assert vec.pow(np.array(units), e).tolist() == [ref.pow(x, e) for x in units]
    assert vec.pow(A, abs(e)).tolist() == [f.pow(x, abs(e)) for x in a]
    assert vec.trace(A).tolist() == [loop_trace(f, x) for x in a]
    assert [f.trace(x) for x in a] == [loop_trace(f, x) for x in a]


@settings(max_examples=80, deadline=None)
@given(pair=field_pairs(), a=operands, b=operands, c=operands)
def test_vec_ops_satisfy_field_axioms(pair, a, b, c):
    f = cached_field(*pair)
    q, vec = f.q, f.vec
    n = min(len(a), len(b), len(c))
    # zero, one and -1 operands in every position
    A = np.array([x % q for x in a[:n]] + [0, 0, 1, q - 1])
    B = np.array([x % q for x in b[:n]] + [0, q - 1, 0, q - 1])
    C = np.array([x % q for x in c[:n]] + [q - 1, 0, 0, 1])
    add, mul = vec.add, vec.mul
    assert np.array_equal(add(add(A, B), C), add(A, add(B, C)))
    assert np.array_equal(mul(mul(A, B), C), mul(A, mul(B, C)))
    assert np.array_equal(mul(A, add(B, C)), add(mul(A, B), mul(A, C)))
    assert np.array_equal(add(A, B), add(B, A)) and np.array_equal(mul(A, B), mul(B, A))
    assert not add(A, vec.neg(A)).any()
    units = A[A != 0]
    assert (mul(units, vec.inv(units)) == 1).all()


@pytest.mark.parametrize("q", [2, 4, 9, 25, 27, 65521])
def test_vec_takes_scalars_and_refuses_inverse_powers_of_zero(q):
    f = field_from_q(q)
    assert int(f.vec.add(q - 1, 1)) == f.add(q - 1, 1)
    assert int(f.vec.sub(0, 1)) == f.sub(0, 1)
    assert int(f.vec.mul(q - 1, q - 1)) == f.mul(q - 1, q - 1)
    assert int(f.vec.pow(0, 0)) == 1 and int(f.vec.pow(0, 3)) == 0
    with pytest.raises(InvalidInput):
        f.vec.pow(np.arange(q), -1)


def character_roots(p: int) -> list[complex]:
    if p == 2:
        return [complex(1), complex(-1)]
    return [cmath.exp(2j * cmath.pi * k / p) for k in range(p)]


@pytest.mark.parametrize("p,s", [(2, 11), (3, 7), (5, 4)])
def test_character_table_matches_scalar_trace_loop(p, s):
    f = field_new(p, s)
    chi = AdditiveCharacter(f)
    assert type(chi.table) is list
    roots = character_roots(p)
    assert chi.table == [roots[loop_trace(f, x)] for x in range(f.q)]


@pytest.mark.parametrize("p,s", [(2, 4), (2, 6), (2, 12), (3, 4), (3, 6), (5, 2), (7, 2)])
def test_subfield_elements_match_scalar_loop(p, s):
    f = field_new(p, s)
    for t in range(1, s + 1):
        if s % t == 0:
            e = p ** t
            got = f.subfield_elements(t)
            assert got == [x for x in range(f.q) if f.pow(x, e) == x]
            assert all(type(x) is int for x in got)
