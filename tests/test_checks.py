"""The shared input checks of `chshq.field`: every caller of the element-array
check refuses the same malformed inputs, every q x q entry point refuses
through the one cap, and every count and size goes through the one int check."""

from __future__ import annotations

import argparse
import dataclasses
from fractions import Fraction

import numpy as np
import pytest

import chshq.field
from chshq import cli
from chshq.boxes import ErrorDist, RegularBox, StrategyBox, regularize
from chshq.errors import CapExceeded, InvalidInput
from chshq.field import Field, field_from_q
from chshq.fourier import (VectorFamily, character_bilinear_sum, fourier_matrix,
                           implied_bias_ceiling, maximize_sum, random_family, tight_family)
from chshq.game import (Strategy, best_response_g, distributed_win_count, local_search,
                        normalize_shift, search_with_restarts, tsirelson_bound, win_count)
from chshq.geometry import (Config, config_to_strategy, incidences, is_legal, lift_config,
                            make_config, point_on_line, proj_canonical, proj_cross,
                            proj_point, proj_points, projective_incidences,
                            random_projective_regularize, strategy_to_config,
                            subspace_construction, trivial_incidence_bound)
from chshq.infotheory import (ChannelProtocol, HadamardTask, binary_reduction_select,
                              build_U_m, check_joint, copy_protocol, entropy,
                              ic_dichotomy_experiment, ic_sum, joint_from_error,
                              mutual_information, pairwise_independence_check,
                              simulate_cstar)


def malformed(q: int):
    """(name, table, rows): one defect as a table in place of f and as the
    rows of a config or the index vectors of a task (m = 2)."""
    zeros = [0] * (q - 1)
    return [
        ("float", [0.0] * q, np.array([[0.0, 1.0]])),
        ("bool", [False] * q, np.array([[True, False]])),
        # np.asarray promotes a bool among ints, so these pass the dtype test
        ("bool-among-ints", [True] + zeros, [[True, 0]]),
        ("np-bool-among-ints", [np.True_] + zeros, [[0, np.True_]]),
        ("q", [q] + zeros, np.array([[q, 0]])),
        ("minus-one", [-1] + zeros, np.array([[-1, 0]])),
        ("1e30", [10 ** 30] + zeros, [[10 ** 30, 0]]),
        ("ragged", [[0, 1]] + zeros, [[0, 1], [0]]),
        ("none", None, None),
        ("set", set(range(q)), {(0, 1), (1, 2)}),
    ]


def _strategy(table, q):
    return Strategy(table, (0,) * q)


def _config(rows):
    return Config(rows, np.zeros((0, 2), dtype=np.intp))


CALLERS = {
    "win_count": lambda F, t, r: win_count(F, _strategy(t, F.q)),
    "best_response_g": lambda F, t, r: best_response_g(F, t),
    "distributed_win_count": lambda F, t, r: distributed_win_count(F, _strategy(t, F.q)),
    "strategy_to_config": lambda F, t, r: strategy_to_config(F, _strategy(t, F.q)),
    "normalize_shift": lambda F, t, r: normalize_shift(F, _strategy(t, F.q)),
    "incidences": lambda F, t, r: incidences(F, _config(r)),
    "is_legal": lambda F, t, r: is_legal(F, _config(r)),
    "lift_config": lambda F, t, r: lift_config(F, _config(r)),
    "config_to_strategy": lambda F, t, r: config_to_strategy(F, _config(r)),
    "pairwise_independence_check":
        lambda F, t, r: pairwise_independence_check(HadamardTask(F, r)),
}


@pytest.mark.parametrize("caller", CALLERS)
def test_every_caller_refuses_malformed_elements(caller):
    field = Field(5, 1)
    for name, table, rows in malformed(field.q):
        with pytest.raises(InvalidInput):
            CALLERS[caller](field, table, rows)
    assert "vec" not in vars(field)


# one defect in a real or complex table; a text table reads as numbers
# through np.asarray(..., dtype=float), and None as NaN
BAD_TABLES = {
    "ragged": [[0.5, 0.5], [1.0]],
    "text": [["0.5", "0"], ["0", "0.5"]],
    "bool": [[True, False], [False, True]],
    "none": None,
    "none-entry": [[None, 0.5], [0.5, 0.0]],
    "object": [[object(), 0.5], [0.5, 0.0]],
}
HALF, EYE = [0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]]
# caller: each puts the table t into one slot of a valid call
TABLE_CALLERS = {
    "check_joint": check_joint,
    "entropy": entropy,
    "mutual_information": mutual_information,
    "binary_reduction_select": binary_reduction_select,
    "ChannelProtocol-x_dist": lambda t: ChannelProtocol(x_dist=t, msg=EYE, dec=EYE),
    "ChannelProtocol-msg": lambda t: ChannelProtocol(x_dist=HALF, msg=t, dec=EYE),
    "ChannelProtocol-dec": lambda t: ChannelProtocol(x_dist=HALF, msg=EYE, dec=t),
    "VectorFamily-u": lambda t: VectorFamily(u=t, v=EYE),
    "VectorFamily-v": lambda t: VectorFamily(u=EYE, v=t),
    "ErrorDist-p0": lambda t: ErrorDist(2, t, Fraction(1, 2)),
    "ErrorDist-p1": lambda t: ErrorDist(2, Fraction(1, 2), t),
}


@pytest.mark.parametrize("caller", TABLE_CALLERS)
def test_every_caller_refuses_malformed_tables(caller):
    for name, table in BAD_TABLES.items():
        with pytest.raises(InvalidInput):
            TABLE_CALLERS[caller](table)


# a valid call with one entry set to `one`: np.asarray promotes a bool among
# ints or floats, so True or np.True_ there passes the dtype test, and must
# still be refused where 1 is read
ONE_ENTRY_CALLERS = {
    "make_config-points": lambda one: make_config([(one, 2)], []),
    "make_config-lines": lambda one: make_config([], [(0, 1), (2, one)]),
    "point_on_line": lambda one: point_on_line(F3, (one, 2, 0), 1),
    "check_joint": lambda one: check_joint([[one, 0], [0, 0]]),
    "entropy": lambda one: entropy([0.0, one]),
    "ChannelProtocol-x_dist": lambda one: ChannelProtocol(x_dist=[one, 0.0], msg=EYE, dec=EYE),
    "ChannelProtocol-msg": lambda one: ChannelProtocol(x_dist=HALF, msg=[[0.0, one], [1.0, 0.0]],
                                                       dec=EYE),
    "ChannelProtocol-dec": lambda one: ChannelProtocol(x_dist=HALF, msg=EYE,
                                                       dec=[[one, 0.0], [0.0, 1.0]]),
    "VectorFamily-u": lambda one: VectorFamily(u=[[one], [1j]], v=[[1], [1]]),
    "VectorFamily-v": lambda one: VectorFamily(u=[[1], [1]], v=[[1.0], [one]]),
}


@pytest.mark.parametrize("caller", ONE_ENTRY_CALLERS)
def test_a_bool_among_numbers_is_refused(caller):
    call = ONE_ENTRY_CALLERS[caller]
    call(1)
    for one in (True, np.True_):
        with pytest.raises(InvalidInput):
            call(one)


@pytest.mark.parametrize("q", ["4", None, 4.0, True], ids=["text", "none", "float", "bool"])
def test_field_from_q_reads_q_through_check_int(q):
    with pytest.raises(InvalidInput, match=rf"^q = {q!r} must be an integer >= 2$"):
        field_from_q(q)


def test_int_and_fraction_tables_are_read_as_numbers():
    half = Fraction(1, 2)
    joint = np.array([[0.5, 0.0], [0.0, 0.5]])
    assert check_joint(joint) is joint   # a float64 table is not copied
    for table in ([[1, 0], [0, 0]], [[half, 0], [0, half]]):
        assert check_joint(table).dtype == np.float64
        assert entropy(table) in (0.0, 1.0)
    assert binary_reduction_select([[half, 0], [0, half]]).source_mi == 1.0
    proto = ChannelProtocol(x_dist=[half, half], msg=[[1, 0], [0, 1]], dec=EYE)
    for arr in (proto.x_dist, proto.msg, proto.dec):
        assert type(arr) is np.ndarray and arr.dtype == np.float64
    assert proto.joint_xz().tolist() == copy_protocol(2).joint_xz().tolist()
    a, b = Fraction(3, 5), Fraction(4, 5)   # exact unit rows
    fam = VectorFamily(u=[[1, 0], [0, 1]], v=[[a, b], [b, -a]])
    assert fam.u.dtype == fam.v.dtype == np.complex128
    # ErrorDist keeps its entries exact, whatever number or text they are given as
    for p0, p1 in ((0.5, 0.25), ("1/2", "1/4"), (half, Fraction(1, 4))):
        err = ErrorDist(3, p0, p1)
        assert (err.p0, err.p1) == (half, Fraction(1, 4)) and type(err.p0) is Fraction
        assert err.bias() == Fraction(1, 4)
    assert ErrorDist(3, "1", "0").bias() == 1


def test_wrong_argument_types_are_refused():
    # as regularize refuses anything but a StrategyBox
    field = Field(3, 1)
    for call in (lambda: character_bilinear_sum(field, None),
                 lambda: character_bilinear_sum(field, (np.eye(3), np.eye(3))),
                 lambda: simulate_cstar(None, samples=10),
                 lambda: simulate_cstar(copy_protocol(2).joint_xz(), samples=10)):
        with pytest.raises(InvalidInput, match="takes a"):
            call()


def _q_by_q_calls(field):
    zeros = (0,) * field.q
    strategy = Strategy(zeros, zeros)
    return {
        "win_count": lambda: win_count(field, strategy),
        "best_response_g": lambda: best_response_g(field, zeros),
        "local_search": lambda: local_search(field, seed=0, max_rounds=1),
        "search_with_restarts": lambda: search_with_restarts(field, seed=0, restarts=1,
                                                             max_rounds=1),
        "regularize": lambda: regularize(field, StrategyBox(strategy)),
        "distributed_win_count": lambda: distributed_win_count(field, strategy),
        "joint_from_error": lambda: joint_from_error(
            field, RegularBox(field.q, Fraction(1, 2)).error_dist()),
        "fourier_matrix": lambda: fourier_matrix(field),
        "tight_family": lambda: tight_family(field),
    }


@pytest.mark.parametrize("q, cap", [(4099, None), (5, 4)], ids=["q4099", "cap-moved-to-4"])
def test_every_q_by_q_entry_point_refuses_through_the_one_cap(monkeypatch, q, cap):
    # 4099 is the smallest prime above OP_TABLE_Q_CAP; moving the cap in
    # chshq.field moves every refusal, since each one reads it there
    if cap:
        monkeypatch.setattr(chshq.field, "OP_TABLE_Q_CAP", cap)
    field = Field(q, 1)
    for name, call in _q_by_q_calls(field).items():
        with pytest.raises(CapExceeded, match=rf"capped at q <= {cap or 4096}$"):
            call()
    assert "vec" not in vars(field)


@pytest.mark.parametrize("kwargs", [
    {"restarts": 1.5}, {"restarts": "2"}, {"restarts": None},
    {"max_rounds": 1.5}, {"max_rounds": "2"}, {"max_rounds": None},
], ids=["restarts-float", "restarts-text", "restarts-none",
        "rounds-float", "rounds-text", "rounds-none"])
def test_search_counts_must_be_integers(kwargs):
    field = Field(3, 1)
    with pytest.raises(InvalidInput, match="must be an integer >= 1"):
        search_with_restarts(field, seed=0, **kwargs)
    if "max_rounds" in kwargs:
        with pytest.raises(InvalidInput, match="must be an integer >= 1"):
            local_search(field, seed=0, **kwargs)


F3 = Field(3, 1)
F27 = Field(3, 3)   # s = 3: the subspace construction thins its lines with seeded draws


def _fourier_verify(trials, capsys):
    args = argparse.Namespace(p=3, s=1, n=2, trials=trials, seed=0, format="json", out=None)
    assert cli.cmd_fourier_verify(args) == 0
    return capsys.readouterr().out


# argument: (call on the value, a valid value); each call goes through check_int
COUNTS = {
    "random_family-n": (lambda v: random_family(3, v, 0), 2),
    "random_family-seed": (lambda v: random_family(3, 2, v), 0),
    "random_family-q": (lambda v: random_family(v, 2, 0), 3),
    "maximize_sum-rounds": (lambda v: maximize_sum(F3, 2, 0, rounds=v), 2),
    "implied_bias_ceiling-q": (implied_bias_ceiling, 5),
    "tsirelson_bound-q": (tsirelson_bound, 5),
    "build_U_m-m": (lambda v: build_U_m(F3, v), 2),
    "ic_sum-m": (lambda v: ic_sum(F3, v, Fraction(1, 2)), 2),
    "ic_dichotomy_experiment-m":
        (lambda v: ic_dichotomy_experiment(F3, Fraction(1, 2), [v, 2, 3]), 1),
    "simulate_cstar-samples": (lambda v: simulate_cstar(copy_protocol(2), samples=v), 50),
    "simulate_cstar-seed": (lambda v: simulate_cstar(copy_protocol(2), 50, seed=v), 0),
    "trivial_incidence_bound-n_points": (lambda v: trivial_incidence_bound(v, 3), 0),
    "trivial_incidence_bound-n_lines": (lambda v: trivial_incidence_bound(3, v), 2),
    "Field-p": (lambda v: Field(v, 2), 3),
    "Field-s": (lambda v: Field(3, v), 2),
    "subfield_elements-t": (lambda v: Field(2, 4).subfield_elements(v), 2),
    "coeffs-a": (lambda v: Field(3, 2).coeffs(v), 5),
    "proj_point-i": (lambda v: proj_point(F3, v), 7),
    "proj_points-m": (lambda v: proj_points(F3, v), 2),
    "local_search-seed": (lambda v: local_search(F3, v, max_rounds=2), 0),
    "search_with_restarts-seed":
        (lambda v: search_with_restarts(F3, v, restarts=2, max_rounds=2), 0),
    "subspace_construction-seed": (lambda v: subspace_construction(F27, v), 0),
    "random_projective_regularize-seed":
        (lambda v: random_projective_regularize(
            F3, make_config([(0, 0), (1, 1), (2, 0)], [(1, 0), (2, 1)]), v), 0),
    "point_on_line-i": (lambda v: point_on_line(F3, (1, 2, 0), v), 2),
    "cli-trials": (None, 2),
}


def _plain(x):
    """x with its arrays, dataclasses and fields spelled out, types kept, so
    that an np.int64 left in a result shows."""
    if isinstance(x, Field):
        return "Field", _plain(x.p), _plain(x.s), _plain(x.q)
    if isinstance(x, np.ndarray):
        return "array", x.dtype.str, x.tolist()
    if dataclasses.is_dataclass(x):
        return type(x).__name__, {k: _plain(v) for k, v in vars(x).items()}
    if isinstance(x, (list, tuple)):
        return tuple(map(_plain, x))
    return type(x).__name__, x


@pytest.mark.parametrize("argument", COUNTS)
def test_every_count_goes_through_check_int(argument, capsys):
    call, valid = COUNTS[argument]
    if call is None:
        def call(v):
            return _fourier_verify(v, capsys)
    for bad in (1.5, True, "2", None):
        with pytest.raises(InvalidInput, match=rf"^\w+ = {bad!r} must be an integer >= \d$"):
            call(bad)
    # a numpy integer is the same count, and nothing of its type leaks out
    assert _plain(call(np.int64(valid))) == _plain(call(valid))


@pytest.mark.parametrize("value, low", [(0, 0), (-1, 0), (1, 1), (np.int32(7), 7)])
def test_check_int_returns_a_python_int(value, low):
    if value < low:
        with pytest.raises(InvalidInput, match=f"must be an integer >= {low}$"):
            chshq.field.check_int("k", value, low)
    else:
        out = chshq.field.check_int("k", value, low)
        assert type(out) is int and out == value
    for bad in (np.True_, np.float64(2.0), Fraction(2), np.array([2])):
        with pytest.raises(InvalidInput):
            chshq.field.check_int("k", bad, low)


# one malformed triple or matrix over GF(5): -1 must not wrap to 4, 7 must
# not index past the tables, and no shape may be read as another
BAD_TRIPLES = {"minus-one": (1, -1, 0), "seven": (1, 7, 0), "two-entries": (1, 0),
               "3x2": ((1, 0), (0, 1), (0, 0))}
TRIPLE_CALLERS = {
    "projective_incidences-points": lambda F, t: projective_incidences(F, [t], [(0, 0, 1)]),
    "projective_incidences-lines": lambda F, t: projective_incidences(F, [(0, 0, 1)], [t]),
    "proj_canonical": proj_canonical,
    "proj_cross-u": lambda F, t: proj_cross(F, t, (0, 0, 1)),
    "proj_cross-v": lambda F, t: proj_cross(F, (0, 0, 1), t),
    "point_on_line": lambda F, t: point_on_line(F, t, 0),
}


@pytest.mark.parametrize("bad", BAD_TRIPLES)
@pytest.mark.parametrize("caller", TRIPLE_CALLERS)
def test_projective_triples_are_checked(caller, bad):
    field = Field(5, 1)
    with pytest.raises(InvalidInput):
        TRIPLE_CALLERS[caller](field, BAD_TRIPLES[bad])
    # -1 is refused, not wrapped: its residue, (1, 4, 0), passes
    TRIPLE_CALLERS[caller](field, (1, 4, 0))


def test_projective_arrays_must_be_n_by_3():
    # a reshape would read the six entries of a 3x2 matrix as two triples
    field, matrix = Field(5, 1), np.array(BAD_TRIPLES["3x2"])
    for pts, lns in ((matrix, []), ([], matrix), (matrix, matrix.T)):
        with pytest.raises(InvalidInput, match="must be triples of integers in"):
            projective_incidences(field, pts, lns)
    assert projective_incidences(field, [], []) == 0
