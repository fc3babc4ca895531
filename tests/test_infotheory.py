"""Entropy/MI toolkit, pairwise-independent codes, IC sums, reductions."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import chshq.field
from chshq.errors import InvalidInput, InvariantViolation, CapExceeded
from chshq.field import field_from_q
from chshq.boxes import RegularBox
from chshq.infotheory import (
    HadamardTask, check_joint, entropy, mutual_information,
    build_U_m, pairwise_independence_check,
    joint_from_error, ic_sum,
    ic_dichotomy_experiment, binary_reduction_select,
    ChannelProtocol, copy_protocol, simulate_cstar,
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
    for pair, expected in (((xi, double), False), ((xi, (1, 1)), True)):
        task = HadamardTask(field, 2, pair)
        assert pairwise_independence_check(task) is pairwise_scan(task) is expected


def had(field, y, xi) -> int:
    # the scalar Hadamard codeword <xi, y>, the reference for the op-table oracle
    acc = 0
    for yi, xii in zip(y, xi):
        acc = field.add(acc, field.mul(xii, yi))
    return acc


def codeword_values_op_tables(field, m, vectors) -> np.ndarray:
    # Had_xi over all q^m inputs Y, Y_0 most significant, for each xi in
    # vectors: m full (k, q^m) two-dimensional gathers from the q x q op tables
    q = field.q
    add, mul = field.op_table("add"), field.op_table("mul")
    xis = np.asarray(vectors, dtype=np.intp).reshape(-1, m)
    vals = np.zeros((len(xis), q ** m), dtype=np.int64)
    for i in range(m):
        coord = (np.arange(q ** m) // q ** (m - 1 - i)) % q
        vals = add[vals, mul[xis[:, i:i + 1], coord]]
    return vals


@pytest.mark.parametrize("q, m", [(2, 3), (3, 2), (4, 2), (5, 2)])
def test_codeword_values_match_scalar_had(q, m):
    field = field_from_q(q)
    ys = list(product(range(q), repeat=m))   # column order of the oracle
    xis = list(product(range(q), repeat=m))
    values = codeword_values_op_tables(field, m, xis)
    assert values.shape == (len(xis), q ** m)
    for xi, row in zip(xis, values):
        assert row.tolist() == [had(field, y, xi) for y in ys]


@pytest.mark.parametrize("bad", [(-1, 1), (4, 1), (5, 1), (1.5, 1), (1, 2.0)],
                         ids=["negative", "q", "past-q", "fraction", "float"])
def test_index_entries_outside_the_field_are_refused(bad):
    # on GF(4): -1 used to wrap around, 5 raised a bare IndexError and 1.5
    # was truncated to 1
    field = field_from_q(4)
    with pytest.raises(InvalidInput, match=r"integers in \[0, 4\)"):
        pairwise_independence_check(HadamardTask(field, 2, ((1, 0), bad)))


def pairwise_scan(task) -> bool:
    # exhaustive reference: every marginal and every pair's joint histogram
    # over all q^m inputs, one bincount each
    field, m = task.field, task.m
    q, n = field.q, field.q ** m
    values = codeword_values_op_tables(field, m, task.vectors)
    for v in values:
        if not (np.bincount(v, minlength=q) == n // q).all():
            return False
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            hist = np.bincount(values[i] * q + values[j], minlength=q * q)
            if not (hist == n // (q * q)).all():
                return False
    return True


def pairwise_onehot_q(task) -> bool:
    # exhaustive reference by one float64 product: all q values one-hot,
    # every joint cell compared, marginals by bincount
    field, m = task.field, task.m
    q, n = field.q, field.q ** m
    values = codeword_values_op_tables(field, m, task.vectors)
    for v in values:
        if not (np.bincount(v, minlength=q) == n // q).all():
            return False
    k = len(values)
    H = (values.T[:, :, None] == np.arange(q)).reshape(n, k * q).astype(np.float64)
    joint = (H.T @ H).reshape(k, q, k, q)
    uniform = (joint == n // (q * q)).all(axis=(1, 3))
    return bool(uniform[np.triu_indices(k, 1)].all())


@st.composite
def hadamard_tasks(draw):
    # index vectors from U_m and arbitrary ones, then zero, repeated and
    # scaled copies, shuffled
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    field = field_from_q(q)
    m = draw(st.integers(1, 3 if q <= 5 else 2))
    any_vector = st.tuples(*[st.integers(0, q - 1)] * m)
    vector = st.one_of(st.sampled_from(build_U_m(field, m).vectors), any_vector)
    vectors = draw(st.lists(vector, max_size=8))
    if vectors:
        copies = draw(st.lists(st.tuples(st.sampled_from(vectors), st.integers(0, q - 1)),
                               max_size=3))
        vectors += [tuple(field.mul(c, x) for x in xi) for xi, c in copies]
    return HadamardTask(field, m, tuple(draw(st.permutations(vectors))))


@settings(max_examples=150, deadline=None)
@given(hadamard_tasks())
def test_pairwise_check_matches_scan_on_arbitrary_tasks(task):
    expected = pairwise_scan(task)
    assert pairwise_onehot_q(task) is expected
    assert pairwise_independence_check(task) is expected


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_pairwise_check_matches_oracles_at_each_q(q):
    # U_2 passes; with a multiple of its vector (1, 1) added, or at m = 1, it fails
    field = field_from_q(q)
    u2 = build_U_m(field, 2).vectors
    for task, expected in ((HadamardTask(field, 2, u2), True),
                           (HadamardTask(field, 2, u2 + ((q - 1, q - 1),)), False),
                           (HadamardTask(field, 1, ((1,), (1,))), False)):
        assert pairwise_scan(task) is pairwise_onehot_q(task) is expected
        assert pairwise_independence_check(task) is expected


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
    # the rank test reads no batch size, so no BLOCK_CELLS may move its answer
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
    # 32^4 = 2^20 is exactly at the cap
    assert len(build_U_m(field_from_q(32), 4).vectors) == (32 ** 4 - 1) // 31


@pytest.mark.parametrize("q, m", [(2, 21), (3, 10 ** 9)])
def test_u_m_cap_refuses_huge_m_at_once(q, m):
    # refused before q ** m is formed, which for m = 10^9 would not finish
    with pytest.raises(CapExceeded):
        build_U_m(field_from_q(q), m)


@pytest.mark.parametrize("q, m", [(2, 11), (101, 2), (101, 3)])
def test_pairwise_check_needs_no_codeword_table(q, m):
    # U_11 over GF(2) has 2047 vectors, so its codeword table would hold
    # 2047 * 2^11 entries, past QM_CAP; U_2 over GF(101) would take 101^2
    # inputs times 102 codewords, and U_3 over GF(101) 101^3 times 10303
    assert pairwise_independence_check(build_U_m(field_from_q(q), m)) is True


@pytest.mark.parametrize("m, vectors", [(0, ()), (0, ((),)), (-1, ())],
                         ids=["m0-empty", "m0-empty-vector", "m-negative"])
def test_pairwise_check_refuses_m_below_one(m, vectors):
    with pytest.raises(InvalidInput, match="m must be >= 1"):
        pairwise_independence_check(HadamardTask(field_from_q(3), m, vectors))


def test_pairwise_check_passes_an_empty_task():
    assert pairwise_independence_check(HadamardTask(field_from_q(3), 2, ())) is True


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


def per_index_mi_closed_form(q: int, E, m: int) -> float:
    """Analytic MI of the composed channel, for cross-checking ic_sum:

        I = p0 log2(q p0) + (q-1) p1 log2(q p1)

    with p0 = 1/q + (q-1)E^m/q and p1 = (1 - E^m)/q.  Equivalently
    p0 log2(1 + (q-1)E^m) + ((q-1)(1-E^m)/q) log2(1-E^m)."""
    Em = float(Fraction(E) ** m)
    p0 = 1 / q + (q - 1) * Em / q
    p1 = (1 - Em) / q
    out = 0.0
    if p0 > 0:
        out += p0 * math.log2(q * p0)
    if p1 > 0:
        out += (q - 1) * p1 * math.log2(q * p1)
    return out


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


def cstar_exact(protocol: ChannelProtocol):
    """Analytic facts about the guessing reduction: match probability is
    exactly 1/|Sigma|; given a match the joint of (X, Z~) is the original
    channel joint; given a miss, Z~ is uniform and independent of X."""
    sigma = protocol.n_messages
    p1 = Fraction(1, sigma)
    cond1 = protocol.joint_xz()
    x = np.array(protocol.x_dist)
    cond0 = np.repeat(x[:, None] / protocol.n_outputs, protocol.n_outputs, axis=1)
    return p1, cond1, cond0


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
