"""Acceptance gate: twelve numbered criteria, one pass/fail line each.

Each test prints its verdict directly to the real stderr so the lines
survive pytest's capture; tolerances and runtime limits are asserted,
not just reported.  Golden values for q in {4, 5, 7} were computed once
by the exhaustive searcher, cross-checked against the independent
full-pair oracle where feasible, and frozen below as literals; q = 9 was
cross-checked against the full f(0) = f(1) = 0 slice search before freezing.
"""

from __future__ import annotations

import importlib.util
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from chshq.field import field_from_q
from chshq.game import (
    Strategy, exact_classical_value,
    normalize_shift, win_count, tsirelson_bound,
)
from chshq.geometry import (
    Line, make_config, is_legal, incidences, strategy_to_config,
    config_to_strategy, subfield_construction, grid_construction,
    subspace_construction, subspace_cardinalities,
    verify_incidence_preservation_exhaustive,
    random_projective_regularize, slope_collision_probability,
)
from chshq.boxes import (
    RegularBox, StrategyBox, regularize, compose_m, compose_closed_form,
    distribute,
)
from chshq.infotheory import (
    binary_reduction_select, ic_dichotomy_experiment,
    copy_protocol, simulate_cstar,
)
from chshq.fourier import (
    random_family, character_bilinear_sum, tight_family, maximize_sum,
)

from game_oracle import exhaustive_pairs_value


def _load_by_path(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the tally of every draw of the regularization wrapper, with its checks
BOX_ORACLE = _load_by_path("boxes_oracle", Path(__file__).with_name("test_boxes.py"))

# frozen goldens: q -> (wins, p_win, f, g), witnesses normalized to f(0)=0
GOLDEN_VALUES = {
    2: (3, Fraction(3, 4), (0, 0), (0, 0)),
    3: (6, Fraction(2, 3), (0, 0, 1), (0, 1, 0)),
    4: (9, Fraction(9, 16), (0, 0, 0, 1), (0, 2, 0, 3)),
    5: (12, Fraction(12, 25), (0, 0, 0, 0, 1), (0, 3, 2, 1, 0)),
    7: (19, Fraction(19, 49), (0, 0, 0, 0, 1, 2, 5), (0, 3, 0, 6, 1, 5, 0)),
    9: (29, Fraction(29, 81), (0, 0, 0, 1, 3, 4, 3, 1, 4),
        (0, 1, 0, 3, 4, 7, 0, 5, 0)),
}


VERDICT_LINES: list[str] = []    # echoed by the terminal-summary hook


def _verdict(num: int, ok: bool, elapsed: float, limit: float, detail: str):
    tag = "PASS" if ok and elapsed < limit else "FAIL"
    line = (f"[{tag}] criterion {num:2d} ({elapsed:6.2f}s < {limit:g}s): "
            f"{detail}")
    VERDICT_LINES.append(line)
    print(line, file=sys.__stderr__, flush=True)
    assert ok, line
    assert elapsed < limit, line


def random_strategy(q: int, rng: random.Random) -> Strategy:
    return Strategy(tuple(rng.randrange(q) for _ in range(q)),
                    tuple(rng.randrange(q) for _ in range(q)))


# ---------------------------------------------------------------------------

def test_criterion_01_q2_value_by_two_methods():
    t0 = time.perf_counter()
    field = field_from_q(2)
    v1, s1 = exact_classical_value(field)
    v2, s2 = exhaustive_pairs_value(field)
    ok = (v1.p_win == v2.p_win == Fraction(3, 4)
          and normalize_shift(field, s1) == normalize_shift(field, s2))
    _verdict(1, ok, time.perf_counter() - t0, 1.0,
             f"q=2 value 3/4 by both methods, witness {tuple(s1.f)}/{tuple(s1.g)}")


def test_criterion_02_exact_values_and_goldens():
    t0 = time.perf_counter()
    field3 = field_from_q(3)
    v1, s1 = exact_classical_value(field3)
    v2, s2 = exhaustive_pairs_value(field3)
    ok = (v1 == v2
          and normalize_shift(field3, s1) == normalize_shift(field3, s2))
    got = {}
    for q, (wins, p_win, f, g) in GOLDEN_VALUES.items():
        field = field_from_q(q)
        value, strategy = exact_classical_value(field)
        got[q] = value.wins
        ok = ok and (value.wins, value.p_win) == (wins, p_win)
        ok = ok and strategy == Strategy(f, g)          # bit-exact rerun
        ok = ok and win_count(field, strategy).wins == wins
    _verdict(2, ok, time.perf_counter() - t0, 120.0,
             f"q=3 matches 729-pair oracle; frozen goldens rerun {got}")


def test_criterion_03_tsirelson_table():
    t0 = time.perf_counter()
    b2, b3 = tsirelson_bound(2), tsirelson_bound(3)
    ok = (abs(b2 - (0.5 + 0.5 / 2 ** 0.5)) < 1e-9
          and abs(b3 - (1 / 3 + 2 / (3 * 3 ** 0.5))) < 1e-9)
    _verdict(3, ok, time.perf_counter() - t0, 1.0,
             f"q=2 -> {b2:.10f}, q=3 -> {b3:.10f} (1e-9)")


def test_criterion_04_convolution_identity():
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for q in (2, 3, 4, 5, 7, 8, 9):
        field = field_from_q(q)
        biases = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(13, 20),
                  Fraction(-1, q - 1)]
        for E in biases:
            box = RegularBox(q, E)
            for m in range(1, 9):
                ok = ok and (compose_m(field, box, m)
                             == compose_closed_form(q, E, m))
                checked += 1
    _verdict(4, ok, time.perf_counter() - t0, 5.0,
             f"{checked} exact m-fold convolutions equal the closed form")


def test_criterion_05_distributed_bias_squares():
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        field = field_from_q(q)
        for k in range(1, 21):
            E = Fraction(k, 20)
            out = distribute(field, RegularBox(q, E))
            ok = ok and out.bias == E * E
            checked += 1
    _verdict(5, ok, time.perf_counter() - t0, 1.0,
             f"{checked} distributed boxes have bias exactly E^2")


def test_criterion_06_strategy_regularization():
    t0 = time.perf_counter()
    ok = True
    total = 0
    for q in (2, 3, 4, 5):
        field = field_from_q(q)
        rng = random.Random(q)
        for _ in range(50):
            s = random_strategy(q, rng)
            box = BOX_ORACLE.tallied_box(field, s)   # raises if not flat
            ok = (ok and box.p_win() == win_count(field, s).p_win
                  and regularize(field, StrategyBox(s)) == box)
            total += 1
    _verdict(6, ok, time.perf_counter() - t0, 30.0,
             f"{total} wrapped strategies exactly regular, p_win preserved")


def test_criterion_07_constructions():
    t0 = time.perf_counter()
    ok = True
    for q in (4, 9, 16, 25):
        field = field_from_q(q)
        got = incidences(field, subfield_construction(field))
        ok = ok and got == int(q ** 0.5) ** 3
    grid_counts = {}
    for q in (101, 1009):
        field = field_from_q(q)
        got = incidences(field, grid_construction(field))
        n1 = next(n for n in range(q) if (n + 1) ** 3 > q)
        n2 = next(n for n in range(q) if (n + 1) ** 3 > q * q)
        expect = (n1 // 2) * (n2 // 2) * n1
        ok = ok and got == expect and got >= q ** (4 / 3) / 8
        grid_counts[q] = got
    field = field_from_q(243)
    na, nb, nc = subspace_cardinalities(field)
    got = incidences(field, subspace_construction(field, seed=0))
    ok = ok and got == na * nb * nc == 2187 and got >= 243 ** (4 / 3)
    _verdict(7, ok, time.perf_counter() - t0, 10.0,
             f"subfield q^(3/2) at 4/9/16/25, grid {grid_counts}, "
             f"subspace 243 -> {got}")


def test_criterion_08_projective_suite():
    t0 = time.perf_counter()
    ok = True
    # (a) exhaustive transform sweep, q <= 5
    for q in (2, 3, 4, 5):
        field = field_from_q(q)
        v, s = exact_classical_value(field)
        checked = verify_incidence_preservation_exhaustive(
            field, strategy_to_config(field, s))
        ok = ok and checked == (q**2 + q + 1) * (q**3 - q) * (q**3 - q**2)
    # (b) slope collisions over every line pair and every chart line
    for q in (2, 3, 4, 5, 7):
        field = field_from_q(q)
        want = Fraction(1, q + 1)
        for a1 in range(q):
            for b1 in range(q):
                for a2 in range(q):
                    for b2 in range(q):
                        if (a1, b1) == (a2, b2):
                            continue
                        ok = ok and slope_collision_probability(
                            field, Line(a1, b1), Line(a2, b2)) == want
    # (c) + (d) randomized regularization at q = 9
    field = field_from_q(9)
    base = subfield_construction(field)
    kept_lines = []
    for seed in range(1000):
        out, stats = random_projective_regularize(field, base, seed=seed)
        kept_lines.append(stats.kept_lines)
        ok = ok and is_legal(field, out)
        s = config_to_strategy(field, out)
        ok = ok and win_count(field, s).p_win >= Fraction(
            stats.kept_incidences, 81)
    mean = float(np.mean(kept_lines))
    sigma = float(np.std(kept_lines)) / len(kept_lines) ** 0.5
    ok = ok and mean >= (9 + 1) / 4 - 3 * sigma
    _verdict(8, ok, time.perf_counter() - t0, 60.0,
             f"transforms exact q<=5; collisions 1/(q+1) q<=7; "
             f"mean kept lines {mean:.3f} >= 2.5 - 3 * {sigma:.3f}")


def test_criterion_09_character_sum_bound():
    t0 = time.perf_counter()
    ok = True
    worst_slack = 0.0
    for q in (2, 3, 4, 5, 7):
        field = field_from_q(q)
        bound = q ** 1.5
        for seed in range(1000):
            s = character_bilinear_sum(field, random_family(q, q, seed=seed))
            ok = ok and s <= bound + 1e-9
            worst_slack = max(worst_slack, s - bound)
        tight = character_bilinear_sum(field, tight_family(field))
        ok = ok and abs(tight - bound) < 1e-9
        r = maximize_sum(field, n=q, seed=0, rounds=50)
        ok = ok and r.value >= 0.999 * bound
    _verdict(9, ok, time.perf_counter() - t0, 60.0,
             f"5000 random families under q^(3/2) (worst slack "
             f"{worst_slack:.2e}); explicit family tight; maximization "
             f">= 0.999 bound")


def test_criterion_10_binary_reduction():
    t0 = time.perf_counter()
    rng = random.Random(10)
    ok = True
    worst = float("inf")
    for _ in range(500):
        na, nb = rng.randrange(2, 7), rng.randrange(2, 7)
        rows = []
        for _ in range(na):
            w = [rng.random() + 1e-3 for _ in range(nb)]
            t = sum(w)
            rows.append([v / t / na for v in w])
        r = binary_reduction_select(np.array(rows))
        margin = r.achieved_mi - r.source_mi / nb
        worst = min(worst, margin)
        ok = ok and margin >= -1e-10
    _verdict(10, ok, time.perf_counter() - t0, 10.0,
             f"500 joints: I(X;f(Y)) >= I(X;Y)/|B| (worst margin {worst:.2e})")


def test_criterion_11_ic_dichotomy():
    t0 = time.perf_counter()
    field = field_from_q(3)
    low = ic_dichotomy_experiment(field, Fraction(1, 2), range(2, 9))
    high = ic_dichotomy_experiment(field, Fraction(13, 20), range(2, 9))
    ok = low.verdict == "bounded" and high.verdict == "growing"
    _verdict(11, ok, time.perf_counter() - t0, 10.0,
             f"q=3: E=0.5 -> {low.verdict}, E=0.65 -> {high.verdict} "
             f"(threshold 3^-0.5 ~ 0.577)")


def test_criterion_12_guessing_reduction():
    t0 = time.perf_counter()
    ok = True
    details = []
    for n in (2, 3, 4):
        st = simulate_cstar(copy_protocol(n), samples=10 ** 5, seed=n)
        ok = ok and abs(st.p1_hat - 1 / n) <= 3 * st.p1_stderr
        ok = ok and abs(st.mi_cond - st.mi_original) <= st.mi_tolerance
        details.append(f"|S|={n}: {st.p1_hat:.4f}~{1 / n:.4f}")
    _verdict(12, ok, time.perf_counter() - t0, 30.0, "; ".join(details))
