"""One batch size: every blocked kernel gives its default-size result at
any `field.BLOCK_CELLS`."""

from __future__ import annotations

import pytest

import chshq.field
from chshq.boxes import StrategyBox, per_input_error_dists, regularize
from chshq.field import Field, field_from_q, smallest_irreducible
from chshq.game import Strategy, exact_classical_value
from chshq.geometry import (
    incidences, make_config, subfield_construction,
    verify_incidence_preservation_exhaustive,
)


def powers(p, s):
    x = chshq.field._x_matrix(smallest_irreducible(p, s), p)
    _, mg = chshq.field._primitive_root(p, s, x)
    return chshq.field._powers(p, s, mg).tolist()


KERNELS = {
    "powers-251^2": lambda: powers(251, 2),
    "powers-2^16": lambda: powers(2, 16),
    "exact-q5": lambda: exact_classical_value(field_from_q(5)),
    # 12348 cells per x-slab: five x, then two, at the default size
    "regularize-q7": lambda: [f(field_from_q(7), StrategyBox(Strategy(
        (3, 0, 6, 1, 1, 5, 2), (4, 4, 0, 2, 6, 1, 3)))) for f in (regularize, per_input_error_dists)],
    "incidences-subfield-16": lambda: incidences(
        Field(2, 4), subfield_construction(Field(2, 4))),
    "incidences-parabola-7": lambda: incidences(field_from_q(7), make_config(
        [(x, x * x % 7) for x in range(7)], [(a, b) for a in range(7) for b in range(7)])),
    "sweep-q3": lambda: verify_incidence_preservation_exhaustive(
        field_from_q(3), make_config([(0, 0), (1, 2), (2, 1)], [(1, 0), (2, 1), (0, 2)])),
}


@pytest.mark.parametrize("block_cells", [1, 7, 1 << 22])
def test_every_blocked_kernel_is_partition_invariant(monkeypatch, block_cells):
    expected = {name: kernel() for name, kernel in KERNELS.items()}
    monkeypatch.setattr(chshq.field, "BLOCK_CELLS", block_cells)
    for name, kernel in KERNELS.items():
        assert kernel() == expected[name], name
