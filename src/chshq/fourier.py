"""Numerical probes of the bilinear character-sum bound.

For unit vectors u_x, v_y in C^n indexed by F_q and the canonical
additive character chi, the quantity

    S = | sum_{x,y} chi(-xy) <u_x, v_y> |

never exceeds q^(3/2); the Fourier family (standard basis against
normalized character columns) attains it.  Inner products are
conjugate-linear in the first slot throughout.  Sums and maximization
apply the kernel chi(-xy) as a DFT over the trace-form digits and never
form a q x q array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapExceeded, InvalidInput
from .field import OP_TABLE_Q_CAP, Field, AdditiveCharacter

NORM_TOL = 1e-10
BOUND_TOL = 1e-9
STOP_RTOL = 1e-13   # maximize_sum stops when a round raises the objective by less, relatively


@dataclass(frozen=True)
class VectorFamily:
    """q unit vectors u_x and q unit vectors v_y as rows of (q, n) arrays."""
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u, v = np.asarray(self.u, dtype=complex), np.asarray(self.v, dtype=complex)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        if u.shape != v.shape or u.ndim != 2:
            raise InvalidInput("u and v must both be (q, n) arrays")
        if 0 in u.shape:
            raise InvalidInput(f"family shape {u.shape} is empty")
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
    if n < 1:
        raise InvalidInput(f"dimension n = {n} must be >= 1")
    if seed < 0:   # numpy's generators take no negative seed
        raise InvalidInput(f"seed = {seed} must be >= 0")
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
    """The map v -> K v, (K v)[x] = sum_y chi(-xy) v_y, on (q, n) arrays,
    without forming the q x q kernel K.

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
        # real factors act on the real and imaginary parts alike
        a = np.ascontiguousarray(v).view(np.float64) if p == 2 else v
        m = a.shape[1]
        a = (hi @ a.reshape(len(hi), len(lo) * m)).reshape(len(hi), len(lo), m)
        a = np.matmul(lo, a).reshape(q, m)
        return (a.view(complex) if p == 2 else a)[freq]
    return apply


def character_bilinear_sum(field: Field, fam: VectorFamily) -> float:
    """| sum over x, y of chi(-xy) <u_x, v_y> | = | <u, K v> |."""
    if fam.q != field.q:
        raise InvalidInput("family size does not match the field")
    return float(abs(np.vdot(fam.u, _character_transform(field)(fam.v))))


def verify_bound(field: Field, fam: VectorFamily) -> bool:
    return character_bilinear_sum(field, fam) <= field.q ** 1.5 + BOUND_TOL


def cauchy_schwarz_chain(field: Field, fam: VectorFamily) -> tuple[float, float, float]:
    """(S, sqrt(q) * sum_i ||u(., i)|| ||v(., i)||, q^(3/2)).

    The middle term applies the scalar character-sum bound per coordinate;
    a final Cauchy-Schwarz over coordinates gives the endpoint.  Both
    inequalities hold on every family, so the triple is nondecreasing."""
    s = character_bilinear_sum(field, fam)
    col_u = np.linalg.norm(fam.u, axis=0)
    col_v = np.linalg.norm(fam.v, axis=0)
    mid = float(np.sqrt(field.q) * (col_u * col_v).sum())
    return s, mid, field.q ** 1.5


def fourier_matrix(field: Field) -> np.ndarray:
    """H[x, y] = chi(xy)/sqrt(q); unitary for every prime power q."""
    mul = field.op_table("mul")   # refuses q x q work above OP_TABLE_Q_CAP
    tab = np.array(AdditiveCharacter(field).table)
    return (tab / np.sqrt(field.q))[mul]   # scaled before the q x q gather


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
    if rounds < 1:
        raise InvalidInput("rounds must be >= 1")
    K = _character_transform(field)
    fam = random_family(field.q, n, seed)
    u, v = fam.u.copy(), fam.v.copy()
    history = []
    for _ in range(rounds):
        u, norms = _renorm_into(K(v), u)
        history.append(float(norms.sum()))
        v, norms = _renorm_into(K(u.conj()).conj(), v)   # K^H u, as K is symmetric
        history.append(float(norms.sum()))
        if len(history) >= 4 and history[-1] - history[-3] <= STOP_RTOL * history[-1]:
            break
    best = VectorFamily(u=u, v=v)
    return MaximizeResult(family=best,
                          value=character_bilinear_sum(field, best),
                          history=tuple(history))


def _renorm_into(target: np.ndarray, fallback: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of target scaled to unit norm, fallback's rows where target's are
    zero; and target's row norms."""
    norms = np.linalg.norm(target, axis=1)
    out = fallback.copy()
    nz = norms > 0
    out[nz] = target[nz] / norms[nz, None]
    return out, norms


def implied_bias_ceiling(q: int) -> float:
    """The bound forces every box bias to satisfy E <= q^(-1/2)."""
    if q < 2:
        raise InvalidInput("q must be at least 2")
    return q ** -0.5
