"""The classical value by enumerating every (f, g) pair, as a test oracle.

The library's exact search enumerates one gauge class of slice tables and
pairs each with its best response.  This enumeration shares none of that:
it scores every pair of tables against the scalar op tables of
`op_grids.op_grid`, so it checks the symmetry reduction independently.
"""

from __future__ import annotations

from itertools import product

from chshq.errors import CapExceeded
from chshq.field import Field
from chshq.game import GameValue, Strategy

from op_grids import op_grid

PAIRS_Q_CAP = 4        # full double enumeration is q^(2q) * q^2 work


def exhaustive_pairs_value(field: Field) -> tuple[GameValue, Strategy]:
    """Classical value and the lexicographically smallest optimal (f, g).
    Slow; q <= 4 only.  Pairs come in lex order and only a strictly larger
    win count replaces the best, so the first optimal pair is kept."""
    q = field.q
    if q > PAIRS_Q_CAP:
        raise CapExceeded(f"pair enumeration capped at q <= {PAIRS_Q_CAP}")
    mul, add = op_grid(field, "mul").tolist(), op_grid(field, "add").tolist()
    best = None
    for f in product(range(q), repeat=q):
        for g in product(range(q), repeat=q):
            wins = 0
            for x in range(q):
                fx = f[x]
                mx = mul[x]
                for y in range(q):
                    if add[fx][g[y]] == mx[y]:
                        wins += 1
            if best is None or wins > best[0]:
                best = (wins, f, g)
    wins, f, g = best
    return GameValue.from_wins(q, wins), Strategy(f, g)
