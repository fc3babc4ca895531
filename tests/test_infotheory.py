"""Entropy/MI toolkit, pairwise-independent codes, IC sums, reductions."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import chshq.field
from chshq.errors import InvalidInput, InvariantViolation, CapExceeded
from chshq.field import field_from_q
from chshq.boxes import RegularBox
from chshq import infotheory
from chshq.infotheory import (
    HadamardTask, check_joint, entropy, mutual_information,
    build_U_m, coordinates_pair_uniform, pairwise_independence_check,
    joint_from_error, ic_sum, per_index_mi_closed_form,
    ic_dichotomy_experiment, binary_reduction_select,
    ChannelProtocol, copy_protocol, cstar_exact, simulate_cstar,
)


def random_joint(rng: random.Random, na: int, nb: int) -> np.ndarray:
    # uniform marginal on the first axis, random rows
    rows = []
    for _ in range(na):
        w = np.array([rng.random() + 1e-3 for _ in range(nb)])
        rows.append(w / w.sum() / na)
    return np.array(rows)


# ---------------------------------------------------------------------------
# entropy and mutual information
# ---------------------------------------------------------------------------

def test_entropy_basics():
    assert entropy([1.0, 0.0]) == 0.0
    assert abs(entropy([0.5, 0.5]) - 1.0) < 1e-12
    assert abs(entropy([0.25] * 4) - 2.0) < 1e-12


def test_check_joint_rejects_garbage():
    with pytest.raises(InvalidInput):
        check_joint([[0.5, -0.1], [0.3, 0.3]])
    with pytest.raises(InvalidInput):
        check_joint([[0.5, 0.1], [0.3, 0.3]])


def test_mi_of_independent_is_zero():
    x = np.array([0.2, 0.3, 0.5])
    y = np.array([0.25, 0.75])
    assert 0.0 <= mutual_information(np.outer(x, y)) < 1e-12


def test_mi_of_identity_channel():
    n = 4
    assert abs(mutual_information(np.eye(n) / n) - 2.0) < 1e-12


def test_mi_nonnegative_and_bounded_by_entropies():
    rng = random.Random(1)
    for _ in range(50):
        j = random_joint(rng, rng.randrange(2, 6), rng.randrange(2, 6))
        mi = mutual_information(j)
        assert mi >= 0.0
        assert mi <= entropy(j.sum(axis=1)) + 1e-12
        assert mi <= entropy(j.sum(axis=0)) + 1e-12


def test_mi_symmetric_under_transpose():
    rng = random.Random(2)
    for _ in range(20):
        j = random_joint(rng, 4, 3)
        assert abs(mutual_information(j) - mutual_information(j.T)) < 1e-12


# ---------------------------------------------------------------------------
# the normalized index set U_m
# ---------------------------------------------------------------------------

def test_u_m_size_and_normalization():
    for q in (2, 3, 4, 5):
        field = field_from_q(q)
        for m in (1, 2, 3):
            task = build_U_m(field, m)
            assert len(task.vectors) == (q ** m - 1) // (q - 1)
            for xi in task.vectors:
                lead = next(v for v in xi if v != 0)
                assert lead == 1


def test_u_m_enumeration_order():
    field = field_from_q(2)
    task = build_U_m(field, 2)
    assert task.vectors == ((1, 0), (1, 1), (0, 1))


def test_codeword_coordinates_pairwise_independent():
    for q in (2, 3, 4, 5):
        field = field_from_q(q)
        for m in (2, 3):
            assert pairwise_independence_check(build_U_m(field, m))


def test_scaled_index_pair_is_not_uniform():
    # xi and 2*xi are linearly dependent, so the pair law degenerates;
    # this is exactly why U_m keeps one vector per projective direction
    field = field_from_q(3)
    xi = (1, 0)
    double = (2, 0)
    assert not coordinates_pair_uniform(field, 2, xi, double)
    assert coordinates_pair_uniform(field, 2, xi, (1, 1))


def had(field, y, xi) -> int:
    # the scalar Hadamard codeword <xi, y> that the op-table kernel replaced
    acc = 0
    for yi, xii in zip(y, xi):
        acc = field.add(acc, field.mul(xii, yi))
    return acc


@pytest.mark.parametrize("q, m", [(2, 3), (3, 2), (4, 2), (5, 2)])
def test_codeword_values_match_scalar_had(q, m):
    field = field_from_q(q)
    ys = list(product(range(q), repeat=m))   # column order of the kernel
    xis = list(product(range(q), repeat=m))
    values = infotheory._codeword_values(field, m, xis)
    assert values.shape == (len(xis), q ** m)
    for xi, row in zip(xis, values):
        assert row.tolist() == [had(field, y, xi) for y in ys]


def pairwise_scan(task) -> bool:
    # the per-pair bincount loop that the one-hot product replaced
    field, m = task.field, task.m
    q, n = field.q, field.q ** m
    values = infotheory._codeword_values(field, m, task.vectors)
    for v in values:
        if not (np.bincount(v, minlength=q) == n // q).all():
            return False
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            hist = np.bincount(values[i] * q + values[j], minlength=q * q)
            if not (hist == n // (q * q)).all():
                return False
    return True


@pytest.mark.parametrize("q, m", [(2, 8), (3, 4), (4, 3), (5, 3)])
def test_pairwise_check_matches_pair_scan(q, m):
    task = build_U_m(field_from_q(q), m)
    assert pairwise_independence_check(task) is pairwise_scan(task) is True


@pytest.mark.parametrize("block_cells", [1, 1 << 22])
@pytest.mark.parametrize("vectors", [
    ((1, 0), (2, 0)),
    ((1, 0), (0, 1), (1, 1), (1, 2), (2, 1)),
    ((1, 0), (0, 0)),
], ids=["scaled-pair", "scaled-pair-last", "constant-codeword"])
def test_pairwise_check_finds_dependent_vectors(monkeypatch, block_cells, vectors):
    # rows of one vector per block reach the failing pair in a later block
    monkeypatch.setattr(chshq.field, "BLOCK_CELLS", block_cells)
    task = HadamardTask(field_from_q(3), 2, vectors)
    assert pairwise_independence_check(task) is pairwise_scan(task) is False


def test_pairwise_check_rejects_wrong_length_vectors():
    task = HadamardTask(field_from_q(3), 2, ((1, 0), (0, 1, 0)))
    with pytest.raises(InvalidInput):
        pairwise_independence_check(task)


def test_u_m_cap():
    field = field_from_q(4)
    with pytest.raises(CapExceeded):
        build_U_m(field, 11)    # 4^11 > 2^20 entries


def test_pairwise_check_caps_the_codeword_table(monkeypatch):
    # q = 3, m = 6 has a 364 x 729 codeword table, well within QM_CAP
    assert pairwise_independence_check(build_U_m(field_from_q(3), 6))
    # 2^11 inputs are within QM_CAP, but the 2047 x 2048 codeword table is not
    def unreachable(*args):
        raise AssertionError("codeword table built past the cap")
    task = build_U_m(field_from_q(2), 11)
    monkeypatch.setattr(infotheory, "_codeword_values", unreachable)
    with pytest.raises(CapExceeded, match="2047 codewords"):
        pairwise_independence_check(task)


# ---------------------------------------------------------------------------
# IC sums
# ---------------------------------------------------------------------------

def test_joint_from_error_marginals():
    field = field_from_q(3)
    err = RegularBox(3, Fraction(1, 2)).error_dist()
    j = joint_from_error(field, err)
    assert np.allclose(j.sum(axis=1), np.full(3, 1 / 3))
    assert np.allclose(j.sum(axis=0), np.full(3, 1 / 3))
    assert abs(j.sum() - 1.0) < 1e-12


def joint_from_error_oracle(field, err) -> np.ndarray:
    """The joint table built through the q x q `sub` op table."""
    z_minus_x = field.op_table("sub").T.copy()
    return np.where(z_minus_x == 0, float(err.p0), float(err.p1)) / field.q


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 27])
def test_joint_from_error_matches_sub_table_oracle(q):
    field = field_from_q(q)
    for E in (Fraction(-1, q - 1), Fraction(0), Fraction(1, 2), Fraction(13, 20), Fraction(1)):
        err = RegularBox(q, E).error_dist()
        j = joint_from_error(field, err)
        assert j.flags.c_contiguous
        assert np.array_equal(j, joint_from_error_oracle(field, err))


def test_joint_from_error_refused_above_cap():
    field = field_from_q(8192)
    err = RegularBox(8192, Fraction(1, 2)).error_dist()
    with pytest.raises(CapExceeded, match="capped at q <= 4096"):
        joint_from_error(field, err)


def test_ic_sum_matches_closed_form():
    for q in (2, 3, 5):
        field = field_from_q(q)
        for E in (Fraction(1, 2), Fraction(13, 20)):
            for m in (1, 2, 4):
                r = ic_sum(field, m, E)
                want = per_index_mi_closed_form(q, E, m)
                assert abs(r.per_index_mi - want) < 1e-10
                assert abs(r.total - r.n_indices * r.per_index_mi) < 1e-12


def test_ic_sum_rejects_negative_bias():
    field = field_from_q(3)
    with pytest.raises(InvalidInput):
        ic_sum(field, 2, Fraction(-1, 2))


def test_dichotomy_verdicts():
    field = field_from_q(3)
    assert ic_dichotomy_experiment(field, Fraction(1, 2),
                                   range(2, 9)).verdict == "bounded"
    assert ic_dichotomy_experiment(field, Fraction(13, 20),
                                   range(2, 9)).verdict == "growing"


def test_dichotomy_needs_three_points():
    field = field_from_q(3)
    with pytest.raises(InvalidInput):
        ic_dichotomy_experiment(field, Fraction(1, 2), range(2, 4))


def test_critical_bias_grows_like_constant():
    # at E = q^(-1/2) the per-index MI decay exactly cancels the index growth
    field = field_from_q(3)
    E = Fraction(577, 1000)    # within 4e-4 of 3^(-1/2)
    rows = ic_dichotomy_experiment(field, E, range(2, 8)).rows
    totals = [r.total for r in rows]
    assert max(totals) < 10 * min(totals)


# ---------------------------------------------------------------------------
# binary reduction
# ---------------------------------------------------------------------------

def test_binary_reduction_guarantee_random_sweep():
    rng = random.Random(4)
    for _ in range(100):
        j = random_joint(rng, rng.randrange(2, 6), rng.randrange(2, 6))
        r = binary_reduction_select(j)
        assert r.achieved_mi >= r.source_mi / j.shape[1] - 1e-10
        assert set(r.f) <= {0, 1}


def test_binary_reduction_on_identity_channel():
    j = np.eye(3) / 3
    r = binary_reduction_select(j)
    assert sum(r.f) == 1    # selects a single symbol
    assert r.achieved_mi >= r.source_mi / 3 - 1e-12


def test_binary_reduction_needs_uniform_source():
    with pytest.raises(InvalidInput):
        binary_reduction_select(np.array([[0.5, 0.3], [0.1, 0.1]]))


# ---------------------------------------------------------------------------
# the guessing reduction
# ---------------------------------------------------------------------------

def test_channel_protocol_validation():
    with pytest.raises(InvalidInput):
        ChannelProtocol(x_dist=(0.5, 0.5), msg=((1.0,),), dec=((1.0,),))
    with pytest.raises(InvalidInput):
        ChannelProtocol(x_dist=(0.7, 0.7), msg=((1.0,), (1.0,)),
                        dec=((1.0,),))


def test_cstar_exact_facts():
    proto = copy_protocol(3)
    p1, cond1, cond0 = cstar_exact(proto)
    assert p1 == Fraction(1, 3)
    assert np.allclose(cond1, proto.joint_xz())
    assert np.allclose(cond0, np.full((3, 3), 1 / 9))
    assert mutual_information(cond0) == 0.0


def test_simulate_cstar_copy_channel():
    proto = copy_protocol(3)
    st = simulate_cstar(proto, samples=40_000, seed=5)
    assert abs(st.p1_hat - st.p1_expected) <= 3 * st.p1_stderr
    assert abs(st.mi_cond - st.mi_original) <= st.mi_tolerance


def test_simulate_cstar_noisy_channel():
    proto = ChannelProtocol(
        x_dist=(0.5, 0.5),
        msg=((0.9, 0.1), (0.2, 0.8)),
        dec=((0.8, 0.2), (0.3, 0.7)))
    st = simulate_cstar(proto, samples=60_000, seed=8)
    assert abs(st.p1_hat - 0.5) <= 3 * st.p1_stderr
    assert abs(st.mi_cond - st.mi_original) <= st.mi_tolerance
    assert abs(st.mi_original - mutual_information(proto.joint_xz())) < 1e-12


def test_simulate_cstar_deterministic_per_seed():
    proto = copy_protocol(2)
    a = simulate_cstar(proto, samples=3000, seed=1)
    b = simulate_cstar(proto, samples=3000, seed=1)
    assert a.p1_hat == b.p1_hat and a.mi_cond == b.mi_cond
