"""One batch size: every blocked kernel gives its default-size result at
any `field.BLOCK_CELLS`."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

import chshq.field
from chshq.boxes import StrategyBox, regularize
from chshq.field import Field, field_from_q
from chshq.fourier import fourier_matrix
from chshq.game import Strategy, best_response_g, exact_classical_value, search_with_restarts
from chshq.geometry import (
    incidences, make_config, subfield_construction,
    verify_incidence_preservation_exhaustive,
)

import field_oracle
from field_oracle import smallest_irreducible


spec = importlib.util.spec_from_file_location(
    "boxes_oracle", Path(__file__).with_name("test_boxes.py"))
BOX_ORACLE = importlib.util.module_from_spec(spec)
spec.loader.exec_module(BOX_ORACLE)   # the x-slab tally of every regularization draw


def powers(p, s):
    x = chshq.field._x_matrix(smallest_irreducible(p, s), p)
    _, mg = field_oracle._primitive_root(p, s, x)
    return chshq.field._powers(p, s, mg).tolist()


KERNELS = {
    "powers-251^2": lambda: powers(251, 2),
    "powers-2^16": lambda: powers(2, 16),
    "exact-q5": lambda: exact_classical_value(field_from_q(5)),
    # 26 and 63 columns of windows: one block by default, one column per block at 1 or 7
    "search-q27": lambda: search_with_restarts(field_from_q(27), seed=4, restarts=3),
    "best-response-q64": lambda: best_response_g(
        field_from_q(64), [(7 * x * x + 3) % 64 for x in range(64)]),
    # 12348 cells per x-slab: five x, then two, at the default size
    "regularize-q7": lambda: [f(field_from_q(7), StrategyBox(Strategy(
        (3, 0, 6, 1, 1, 5, 2), (4, 4, 0, 2, 6, 1, 3))))
        for f in (regularize, BOX_ORACLE.per_input_error_dists)],
    "incidences-subfield-16": lambda: incidences(
        Field(2, 4), subfield_construction(Field(2, 4))),
    "incidences-parabola-7": lambda: incidences(field_from_q(7), make_config(
        [(x, x * x % 7) for x in range(7)], [(a, b) for a in range(7) for b in range(7)])),
    # one block of rows by default, one row per block at 1 or 7
    "fourier-matrix-q27": lambda: fourier_matrix(field_from_q(27)).tobytes(),
    "sweep-q3": lambda: verify_incidence_preservation_exhaustive(
        field_from_q(3), make_config([(0, 0), (1, 2), (2, 1)], [(1, 0), (2, 1), (0, 2)])),
}


@pytest.mark.parametrize("block_cells", [1, 7, 1 << 22])
def test_every_blocked_kernel_is_partition_invariant(monkeypatch, block_cells):
    expected = {name: kernel() for name, kernel in KERNELS.items()}
    monkeypatch.setattr(chshq.field, "BLOCK_CELLS", block_cells)
    for name, kernel in KERNELS.items():
        assert kernel() == expected[name], name
