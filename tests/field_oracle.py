"""The search for the canonical constants of GF(p^s), as a test oracle.

The library builds a field from frozen constants: `chshq.field._CANONICAL`
holds, for every extension field under `Q_CAP`, the modulus (as the index of
its low coefficients in the scan order below) and the smallest primitive
encoding g, and prime fields take g from integer `pow`.  The tests check
those constants against this search, which finds them from (p, s) alone:
`smallest_irreducible` scans monic polynomials for the first irreducible
one, and `_primitive_root` tests encodings in order for multiplicative
order q - 1, both by powers of multiplication matrices over F_p.
"""

from __future__ import annotations

import numpy as np

from chshq.errors import InvariantViolation
from chshq.field import _mul_matrices, _x_matrix, factorize


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

    Each block of candidates is first evaluated at every a in F_p, as one
    product of its digits with the powers a^i (a^s < p^s <= Q_CAP, so
    nothing overflows), and a candidate with a root a is skipped, as x - a
    divides it.  A rootless candidate of degree s <= 3 is irreducible, since
    a reducible one of degree 2 or 3 has a linear factor; only s >= 4 runs
    Rabin's test.
    """
    if s == 1:
        return (0, 1)
    q = p ** s
    powers = np.arange(p) ** np.arange(s + 1)[:, None] % p   # powers[i, a] = a^i
    radix = p ** np.arange(s)
    block = max(1, 256 // p)
    for start in range(0, q, block):
        digits = np.arange(start, min(start + block, q))[:, None] // radix % p
        value = (digits @ powers[:s] + powers[s]) % p
        for row in digits[value.all(axis=1)].tolist():
            coeffs = row + [1]
            if s <= 3 or _is_irreducible(coeffs, p):
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
