"""Character bilinear sums: the q^(3/2) bound, tightness, maximization."""

from __future__ import annotations

import numpy as np
import pytest

from chshq.errors import InvalidInput
from chshq.field import field_from_q
from chshq.game import tsirelson_bound
from chshq.fourier import (
    VectorFamily, random_family, character_bilinear_sum, verify_bound,
    cauchy_schwarz_chain, fourier_matrix, tight_family, maximize_sum,
    implied_bias_ceiling,
)

SMALL_Q = [2, 3, 4, 5, 7, 8, 9]


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


def test_random_family_deterministic():
    a = random_family(5, 3, seed=4)
    b = random_family(5, 3, seed=4)
    assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)
    assert a.q == 5 and a.n == 3


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
