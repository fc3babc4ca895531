"""Character bilinear sums: the q^(3/2) bound, tightness, maximization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chshq.errors import InvalidInput
from chshq.field import AdditiveCharacter, Field, factorize, field_from_q
from chshq.game import tsirelson_bound
from chshq.fourier import (
    VectorFamily, random_family, character_bilinear_sum, verify_bound,
    cauchy_schwarz_chain, fourier_matrix, tight_family, maximize_sum,
    implied_bias_ceiling, _character_transform, _renorm_into, STOP_RTOL,
)

SMALL_Q = [2, 3, 4, 5, 7, 8, 9]
PRIME_POWERS_81 = [q for q in range(2, 82) if len(factorize(q)) == 1]
LARGE_FIELDS = [(2, 11), (3, 7), (5, 5), (2, 12)]
ORACLE_ROWS = 512   # kernel rows per block: 32 MB of complex at q = 4096


def _kernel(field: Field, rows=slice(None)) -> np.ndarray:
    """The dense oracle K[x, y] = chi(-x*y), restricted to the given rows."""
    mul = field.op_table("mul")
    tab = np.array(AdditiveCharacter(field).table)
    return tab[field.vec.neg(np.arange(field.q))][mul[rows]]


def kernel_apply_oracle(field: Field, v: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """K v, or K^H v = conj(K) v as K is symmetric, a block of kernel rows at a time."""
    blocks = (_kernel(field, slice(i, i + ORACLE_ROWS)) for i in range(0, field.q, ORACLE_ROWS))
    return np.concatenate([(k.conj() if adjoint else k) @ v for k in blocks])


def bilinear_sum_oracle(field: Field, fam: VectorFamily) -> float:
    gram = fam.u.conj() @ fam.v.T            # gram[x, y] = <u_x, v_y>
    return float(abs((_kernel(field) * gram).sum()))


def maximize_oracle(field: Field, n: int, seed: int, rounds: int = 50):
    """The alternating maximization on the dense kernel: (history, value)."""
    K = _kernel(field)
    fam = random_family(field.q, n, seed)
    u, v = fam.u.copy(), fam.v.copy()
    history = []
    for _ in range(rounds):
        w = K @ v
        u, _ = _renorm_into(w, u)
        history.append(float(np.linalg.norm(w, axis=1).sum()))
        t = K.conj().T @ u
        v, _ = _renorm_into(t, v)
        history.append(float(np.linalg.norm(t, axis=1).sum()))
        if len(history) >= 4 and history[-1] - history[-3] <= STOP_RTOL * history[-1]:
            break
    return history, bilinear_sum_oracle(field, VectorFamily(u=u, v=v))


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def test_family_requires_unit_rows():
    good = np.eye(2, dtype=complex)
    with pytest.raises(InvalidInput):
        VectorFamily(u=2 * good, v=good)
    with pytest.raises(InvalidInput):
        VectorFamily(u=good, v=np.zeros((2, 2), dtype=complex))


def test_family_shape_mismatch():
    with pytest.raises(InvalidInput):
        VectorFamily(u=np.eye(2, dtype=complex), v=np.eye(3, dtype=complex))


@pytest.mark.parametrize("side", ["u", "v"])
def test_family_rejects_nan_rows(side):
    fam = random_family(3, 2, seed=0)
    bad = getattr(fam, side).copy()
    bad[1, 1] = np.nan
    with pytest.raises(InvalidInput):
        VectorFamily(**{"u": fam.u, "v": fam.v, side: bad})


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_family_rejects_empty_shapes(shape):
    empty = np.zeros(shape, dtype=complex)
    with pytest.raises(InvalidInput):
        VectorFamily(u=empty, v=empty)


def test_random_family_deterministic():
    a = random_family(5, 3, seed=4)
    b = random_family(5, 3, seed=4)
    assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)
    assert a.q == 5 and a.n == 3


# ---------------------------------------------------------------------------
# the character transform against the dense kernel
# ---------------------------------------------------------------------------

def _check_transform(field, n):
    fam = random_family(field.q, n, seed=field.q + n)
    K = _character_transform(field)
    tol = 1e-10 * field.q
    assert np.abs(K(fam.v) - kernel_apply_oracle(field, fam.v)).max() <= tol
    kh_u = K(fam.u.conj()).conj()
    assert np.abs(kh_u - kernel_apply_oracle(field, fam.u, adjoint=True)).max() <= tol


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("q", PRIME_POWERS_81)
def test_transform_matches_kernel(q, n):
    _check_transform(field_from_q(q), n)


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("p,s", LARGE_FIELDS)
def test_transform_matches_kernel_large(p, s, n):
    _check_transform(Field(p, s), n)


@settings(max_examples=40, deadline=None)
@given(q=st.sampled_from(PRIME_POWERS_81), n=st.integers(1, 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_bilinear_sum_matches_kernel_oracle(q, n, seed):
    field = field_from_q(q)
    fam = random_family(q, n, seed)
    assert abs(character_bilinear_sum(field, fam)
               - bilinear_sum_oracle(field, fam)) <= 1e-10 * q ** 1.5


# ---------------------------------------------------------------------------
# the bound
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", SMALL_Q)
def test_random_families_respect_bound(q):
    field = field_from_q(q)
    for seed in range(30):
        fam = random_family(q, q, seed=seed)
        assert verify_bound(field, fam)
        s, mid, end = cauchy_schwarz_chain(field, fam)
        assert s <= mid + 1e-9 <= end + 2e-9
        assert end == pytest.approx(q ** 1.5)


def test_bound_holds_for_rank_one_adversary():
    # all vectors equal: the sum telescopes to |sum chi(-xy)|
    field = field_from_q(5)
    e = np.zeros((5, 5), dtype=complex)
    e[:, 0] = 1.0
    fam = VectorFamily(u=e, v=e)
    assert verify_bound(field, fam)


@pytest.mark.parametrize("q", SMALL_Q)
def test_fourier_matrix_unitary(q):
    field = field_from_q(q)
    h = fourier_matrix(field)
    assert np.allclose(h @ h.conj().T, np.eye(q), atol=1e-12)


def test_fourier_matrix_unitary_large():
    field = field_from_q(64)
    h = fourier_matrix(field)
    assert np.allclose(h @ h.conj().T, np.eye(64), atol=1e-11)


@pytest.mark.parametrize("q", SMALL_Q)
def test_tight_family_achieves_bound(q):
    field = field_from_q(q)
    fam = tight_family(field)
    s = character_bilinear_sum(field, fam)
    assert abs(s - q ** 1.5) < 1e-9


# ---------------------------------------------------------------------------
# alternating maximization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_maximize_reaches_the_bound(q):
    field = field_from_q(q)
    r = maximize_sum(field, n=q, seed=0, rounds=50)
    assert r.value >= 0.999 * q ** 1.5
    assert abs(character_bilinear_sum(field, r.family) - r.value) < 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_maximize_history_is_monotone(seed):
    field = field_from_q(4)
    r = maximize_sum(field, n=4, seed=seed, rounds=40)
    for a, b in zip(r.history, r.history[1:]):
        assert b >= a - 1e-12


def test_maximize_single_vector_pair():
    # n=1 at q=2: complex phases push past the real-family optimum 2,
    # all the way to the 2*sqrt(2) ceiling
    field = field_from_q(2)
    r = maximize_sum(field, n=1, seed=3, rounds=60)
    assert abs(r.value - 2 * 2 ** 0.5) < 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
def test_maximize_matches_dense_oracle(q, seed):
    field = field_from_q(q)
    r = maximize_sum(field, n=3, seed=seed)
    history, value = maximize_oracle(field, n=3, seed=seed)
    assert len(r.history) == len(history)
    assert np.abs(np.subtract(r.history, history)).max() <= 1e-9
    assert abs(r.value - value) <= 1e-9


@pytest.mark.parametrize("p,s,n,seed", [(2, 6, 8, 3), (3, 3, 4, 1), (5, 2, 2, 7), (7, 1, 3, 2)])
def test_maximize_history_is_the_renormalized_norms(p, s, n, seed):
    # the loop as it stood when each half-step took its row norms a second
    # time for the history: the same rounds, bit for bit
    field = Field(p, s)
    K = _character_transform(field)
    fam = random_family(field.q, n, seed)
    u, v = fam.u.copy(), fam.v.copy()
    history = []
    for _ in range(50):
        w = K(v)
        u, _ = _renorm_into(w, u)
        history.append(float(np.linalg.norm(w, axis=1).sum()))
        t = K(u.conj()).conj()
        v, _ = _renorm_into(t, v)
        history.append(float(np.linalg.norm(t, axis=1).sum()))
        if len(history) >= 4 and history[-1] - history[-3] <= STOP_RTOL * history[-1]:
            break
    r = maximize_sum(field, n, seed)
    assert r.history == tuple(history)
    assert r.value == character_bilinear_sum(field, VectorFamily(u=u, v=v))


def test_maximize_rejects_bad_args():
    field = field_from_q(3)
    with pytest.raises(InvalidInput):
        maximize_sum(field, n=0, seed=0)
    with pytest.raises(InvalidInput):
        maximize_sum(field, n=2, seed=0, rounds=0)


# ---------------------------------------------------------------------------
# consequences for the game
# ---------------------------------------------------------------------------

def test_implied_bias_ceiling_matches_win_bound():
    for q in SMALL_Q:
        e = implied_bias_ceiling(q)
        assert e == pytest.approx(q ** -0.5)
        # 1/q + (q-1)/q * E ceiling reproduces the win-probability bound
        assert 1 / q + (q - 1) / q * e == pytest.approx(tsirelson_bound(q))
