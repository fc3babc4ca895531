"""Numerical probes of the bilinear character-sum bound.

For unit vectors u_x, v_y in C^n indexed by F_q and the canonical
additive character chi, the quantity

    S = | sum_{x,y} chi(-xy) <u_x, v_y> |

never exceeds q^(3/2); the Fourier family (standard basis against
normalized character columns) attains it.  Inner products are
conjugate-linear in the first slot throughout.  Sums and maximization
apply the kernel chi(-xy) as a DFT over the trace-form digits, to column
blocks of `field.block_rows(q)` columns: they never form a q x q array, and
every temporary of the transform holds at most one block of
`field.BLOCK_CELLS` cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapExceeded, InvalidInput
from .field import (OP_TABLE_Q_CAP, Field, AdditiveCharacter, as_floats, block_rows,
                    check_int, check_op_cap)

NORM_TOL = 1e-10
BOUND_TOL = 1e-9
STOP_RTOL = 1e-13   # maximize_sum stops when a round raises the objective by less, relatively


@dataclass(frozen=True)
class VectorFamily:
    """q unit vectors u_x and q unit vectors v_y as rows of (q, n) arrays."""
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u, v = (as_floats(a, "u and v must be tables of complex numbers", complex_=True)
                for a in (self.u, self.v))
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        if u.shape != v.shape or u.ndim != 2 or 0 in u.shape:
            raise InvalidInput("u and v must both be nonempty (q, n) arrays")
        for arr in (u, v):
            norms = np.sqrt(np.vecdot(arr, arr).real)   # vecdot conjugates arr
            if not (np.abs(norms - 1.0) <= NORM_TOL).all():   # False on NaN
                raise InvalidInput("family vectors must be unit norm")

    @property
    def q(self) -> int:
        return self.u.shape[0]

    @property
    def n(self) -> int:
        return self.u.shape[1]


def random_family(q: int, n: int, seed: int) -> VectorFamily:
    """Rows drawn as complex gaussians and normalized; deterministic per seed."""
    q, n = check_int("q", q, 2), check_int("n", n)
    seed = check_int("seed", seed, 0)   # numpy takes no negative seed
    if q * n > OP_TABLE_Q_CAP ** 2:
        raise CapExceeded(f"random families capped at q * n <= {OP_TABLE_Q_CAP ** 2}")
    rng = np.random.default_rng(seed)
    shape = (2, q, n)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    z /= np.linalg.norm(z, axis=2, keepdims=True)
    return VectorFamily(u=z[0], v=z[1])


@lru_cache(maxsize=8)
def _digit_dft(p: int, a: int) -> np.ndarray:
    """F[k, m] = exp(-2 pi i d(k).d(m) / p) for the a base-p digits d(.): the
    DFT over (Z_p)^a, real +-1 for p = 2.  Read-only, as every caller shares it."""
    e = np.arange(p ** a)
    d = e[:, None] // p ** np.arange(a) % p
    t = -(d @ d.T) % p
    f = 1.0 - 2.0 * t if p == 2 else np.exp(2j * np.pi * np.arange(p) / p)[t]
    f.flags.writeable = False
    return f


def _character_transform(field: Field):
    """The map v -> K v, (K v)[x] = sum_y chi(-xy) v_y, on (q, m) arrays,
    without forming the q x q kernel K.  Callers pass column blocks
    (`_column_blocks`), so each temporary is one (q, m) block.

    With d(.) the base-p digits of the encoding and T[i, j] = Tr(a^i a^j) the
    trace form of the polynomial basis, Tr(xy) = d(x)^T T d(y).  So K v is the
    DFT over (Z_p)^s of v in encoding order, read at the frequency whose digit
    j is (d(x)^T T)_j = Tr(x a^j).  That DFT is np.fft.fft for s = 1, and
    otherwise the Kronecker product of the DFTs over the high ceil(s/2) and
    the low floor(s/2) digits: two matrix products, O(n q p^ceil(s/2))."""
    p, s, q = field.p, field.s, field.q
    x = np.arange(q)
    freq = sum(p ** j * field.vec.trace(field.vec.mul(x, p ** j)) for j in range(s))
    if s == 1:
        return lambda v: np.fft.fft(v, axis=0)[freq]
    hi, lo = _digit_dft(p, s - s // 2), _digit_dft(p, s // 2)

    def apply(v: np.ndarray) -> np.ndarray:
        # a column block of a wider array is strided: one block-sized copy
        a = np.ascontiguousarray(v)
        if p == 2:   # real factors act on the real and imaginary parts alike
            a = a.view(np.float64)
        m = a.shape[1]
        a = (hi @ a.reshape(len(hi), len(lo) * m)).reshape(len(hi), len(lo), m)
        a = np.matmul(lo, a).reshape(q, m)
        return (a.view(complex) if p == 2 else a)[freq]
    return apply


def _column_blocks(field: Field, n: int) -> list[slice]:
    """Slices of `block_rows(q)` columns covering n columns: a (q, w) block
    holds at most BLOCK_CELLS cells, or one column."""
    w = block_rows(field.q)
    return [slice(c, c + w) for c in range(0, n, w)]


def character_bilinear_sum(field: Field, fam: VectorFamily) -> float:
    """| sum over x, y of chi(-xy) <u_x, v_y> | = | <u, K v> |, accumulated
    over column blocks without holding K v whole."""
    if not isinstance(fam, VectorFamily):
        raise InvalidInput("character_bilinear_sum takes a VectorFamily")
    if fam.q != field.q:
        raise InvalidInput("family size does not match the field")
    K = _character_transform(field)
    return float(abs(sum(np.vdot(fam.u[:, b], K(fam.v[:, b]))
                         for b in _column_blocks(field, fam.n))))


def fourier_matrix(field: Field) -> np.ndarray:
    """H[x, y] = chi(xy)/sqrt(q); unitary for every prime power q.

    Read off the antilog table as H[x, y] = c[log x + log y], with c =
    (chi / sqrt(q))[exp] one vector of 4n + 1 entries, n = q - 1: log 0 = 2n
    lands every product with a zero factor in the zero tail, on chi(0).  The
    rows are filled in blocks of `block_rows(q)`, one take into the output
    each, so no q x q index array is formed.  Refused above OP_TABLE_Q_CAP."""
    check_op_cap(field, "character matrices")
    q, vec = field.q, field.vec
    c = vec.antilog(np.array(AdditiveCharacter(field).table) / np.sqrt(q))
    log = vec.log(np.arange(q))
    out = np.empty((q, q), dtype=c.dtype)
    step = block_rows(q)
    for x0 in range(0, q, step):
        c.take(log[x0:x0 + step, None] + log, out=out[x0:x0 + step], mode="clip")
    return out


def tight_family(field: Field) -> VectorFamily:
    """Standard basis against character columns: every term chi(-xy)<u_x,v_y>
    equals 1/sqrt(q), so the sum is exactly q^(3/2)."""
    v = fourier_matrix(field)                # v[y, i] = chi(iy)/sqrt(q)
    u = np.eye(field.q, dtype=complex)
    return VectorFamily(u=u, v=v)


@dataclass(frozen=True)
class MaximizeResult:
    family: VectorFamily
    value: float
    history: tuple[float, ...]   # objective after each half-step


def maximize_sum(field: Field, n: int, seed: int, rounds: int = 50) -> MaximizeResult:
    """Alternating maximization of the bilinear sum over unit families.

    Half-steps set u_x parallel to w_x = sum_y chi(-xy) v_y and then v_y
    parallel to t_y = sum_x chi(xy) u_x; each half-step maximizes the sum
    with the other side fixed, so the objective never decreases.  Rows
    with a zero update keep their previous vector."""
    rounds = check_int("rounds", rounds)
    K = _character_transform(field)
    fam = random_family(field.q, n, seed)
    blocks = _column_blocks(field, n)
    u, v = fam.u, fam.v
    kv = np.empty_like(u)   # each half-step's update, renormalized in place, then swapped in
    history = []
    for _ in range(rounds):
        for b in blocks:
            kv[:, b] = K(v[:, b])
        history.append(float(_renorm_into(kv, u).sum()))
        u, kv = kv, u
        for b in blocks:   # K^H u = conj(K conj(u)), as K is symmetric
            np.conjugate(K(u[:, b].conj()), out=kv[:, b])
        history.append(float(_renorm_into(kv, v).sum()))
        v, kv = kv, v
        if len(history) >= 4 and history[-1] - history[-3] <= STOP_RTOL * history[-1]:
            break
    best = VectorFamily(u=u, v=v)
    return MaximizeResult(family=best,
                          value=character_bilinear_sum(field, best),
                          history=tuple(history))


def _renorm_into(target: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Scale target's rows to unit norm in place, copying fallback's rows
    where target's are zero; return target's row norms."""
    norms = np.linalg.norm(target, axis=1)
    nz = norms > 0
    target /= np.where(nz, norms, 1.0)[:, None]   # zero rows stay zero, then fall back
    target[~nz] = fallback[~nz]
    return norms


def implied_bias_ceiling(q: int) -> float:
    """The bound forces every box bias to satisfy E <= q^(-1/2)."""
    return check_int("q", q, 2) ** -0.5
