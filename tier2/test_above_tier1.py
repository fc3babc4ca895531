"""Checks above Tier-1 sizes: the exhaustive verifiers at their caps, the
pairwise rank test and strategy regularization against the exhaustive
oracles of the Tier-1 tests, local search at the op-table cap against
frozen results, the GF(65536) subfield configuration and character-sum
probe through the CLI, the traced peaks of U_20, the character transform,
the Fourier maximization, a q = 4096 search round, win count, distributed
win count and character matrix, the generator of every prime field against
the matrix search, and `report --all` in two fresh interpreters.
Outside the Tier-1 `testpaths`; run with

    python -m pytest -q tier2
"""

from __future__ import annotations

import importlib.util
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]   # tests/ for the oracles

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import chshq.field  # noqa: E402
import field_oracle  # noqa: E402
from chshq import cli  # noqa: E402
from chshq.boxes import StrategyBox, regularize  # noqa: E402
from chshq.field import Field  # noqa: E402
from chshq.fourier import (character_bilinear_sum, fourier_matrix, maximize_sum,  # noqa: E402
                           random_family)
from chshq.game import (Strategy, distributed_win_count, exact_classical_value,  # noqa: E402
                        local_search, win_count)
from chshq.geometry import make_config, verify_incidence_preservation_exhaustive  # noqa: E402
from chshq.infotheory import HadamardTask, build_U_m, pairwise_independence_check  # noqa: E402


def load_by_path(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the exhaustive pairwise oracles, pairwise_scan and pairwise_onehot_q
ORACLES = load_by_path("infotheory_oracles", ROOT / "tests" / "test_infotheory.py")
# the tally of every regularization draw, the closed form and the tally's checks
BOX_ORACLE = load_by_path("boxes_oracle", ROOT / "tests" / "test_boxes.py")


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_prime_field_roots_below_65536():
    x = np.zeros((1, 1), dtype=np.int64)   # M_x for the modulus x
    primes = [p for p in range(2, 1 << 16) if chshq.field.is_prime(p)]
    assert len(primes) == 6542
    wrong = [p for p in primes
             if chshq.field._prime_root(p) != field_oracle._primitive_root(p, 1, x)[0]]
    assert not wrong, f"prime-field g differs from the oracle for p = {wrong}"


def test_sweep_at_q7_and_q8():
    c = make_config([(0, 1), (2, 3), (4, 5)], [(1, 2), (3, 4), (5, 6)])
    order = verify_incidence_preservation_exhaustive(Field(7, 1), c)
    assert order == 57 * (7 ** 3 - 7) * (7 ** 3 - 49), order
    order = verify_incidence_preservation_exhaustive(Field(2, 3), c)   # q = 8
    assert order == 16482816 == 73 * (8 ** 3 - 8) * (8 ** 3 - 64), order


def test_pairwise_independence_of_large_hadamard_subcodes():
    assert pairwise_independence_check(build_U_m(Field(2, 1), 10)) is True
    assert pairwise_independence_check(build_U_m(Field(2, 2), 5)) is True
    assert pairwise_independence_check(build_U_m(Field(101, 1), 3)) is True


def test_u20_build_and_check_peak():
    # 2^20 = QM_CAP; U_20 is a 168 MB intp array, and its tuple form peaked at 732 MB
    def run():
        assert pairwise_independence_check(build_U_m(Field(2, 1), 20)) is True
    peak = traced_peak(run)
    assert peak <= 600 * 2 ** 20, peak


@pytest.mark.parametrize("p, s, m, oracles", [
    (2, 1, 10, ("pairwise_onehot_q",)),
    (2, 2, 5, ("pairwise_scan", "pairwise_onehot_q")),
], ids=["U10-GF2", "U5-GF4"])
def test_rank_test_matches_exhaustive_oracles(p, s, m, oracles):
    # U_m passes; with one scaled copy of a row appended it fails
    field = Field(p, s)
    u = build_U_m(field, m)
    scaled = field.vec.mul(field.q - 1, u.vectors[len(u.vectors) // 2])
    for task, expected in ((u, True),
                           (HadamardTask(field, np.vstack((u.vectors, scaled))), False)):
        assert pairwise_independence_check(task) is expected
        for name in oracles:
            assert getattr(ORACLES, name)(task) is expected, name


def test_exact_value_at_q9():
    value, _ = exact_classical_value(Field(3, 2))
    assert value.wins == 29, value


@pytest.mark.parametrize("p, s", [(2, 4), (5, 2)], ids=["q16", "q25"])
def test_regularize_matches_tally(p, s):
    # the x-slab tally of every draw: 0.1 s at q = 16; 2.6 s and a 263 MB
    # ru_maxrss at q = 25, in a fresh process on a 2-vCPU x86_64 Xeon
    field = Field(p, s)
    rng = random.Random(field.q)
    strategy = Strategy(*(tuple(rng.randrange(field.q) for _ in range(field.q))
                          for _ in range(2)))
    counts = BOX_ORACLE.error_counts(field, strategy)
    wins = win_count(field, strategy).wins
    assert np.array_equal(counts, BOX_ORACLE.orbit_counts(field.q, wins))
    assert regularize(field, StrategyBox(strategy)) == BOX_ORACLE.tallied_box(
        field, strategy, counts)


@pytest.mark.parametrize("p, s, wins, history", [
    (2, 12, 34762, (25644, 29577, 31389, 32511, 33217, 33729, 34090, 34391, 34618, 34762)),
    (4093, 1, 34745, (25597, 29539, 31436, 32507, 33212, 33678, 34056, 34330, 34550, 34745)),
], ids=["q4096", "q4093"])
def test_local_search_at_op_table_cap(p, s, wins, history):
    # frozen from the op-table kernel this search replaced, which took 12.2 s
    # and 8.5 s with a 542 MB ru_maxrss (fresh process, 2-vCPU x86_64 Xeon)
    field = Field(p, s)
    r = local_search(field, 1, max_rounds=5)
    assert (r.rounds, r.value.wins, r.history) == (5, wins, history), r
    assert win_count(field, r.strategy) == r.value


def test_search_round_and_win_count_peaks_at_q4096():
    # best responses and counts run on blocks of 2^16 cells: no q x q array
    # (a 134 MB intp array at q = 4096) is ever formed
    field = Field(2, 12)
    field.vec   # built outside the traced calls
    peak = traced_peak(lambda: local_search(field, 1, max_rounds=1))
    assert peak <= 16 * 2 ** 20, peak
    rng = random.Random(field.q)
    strategy = Strategy(*(tuple(rng.randrange(field.q) for _ in range(field.q))
                          for _ in range(2)))
    peak = traced_peak(lambda: win_count(field, strategy))
    assert peak <= 16 * 2 ** 20, peak


def test_distributed_win_count_peak_at_q4096():
    # the error histogram runs on blocks of 2^16 cells: no q x q array
    field = Field(2, 12)
    field.vec   # built outside the traced call
    rng = random.Random(field.q)
    strategy = Strategy(*(tuple(rng.randrange(field.q) for _ in range(field.q))
                          for _ in range(2)))
    peak = traced_peak(lambda: distributed_win_count(field, strategy))
    assert peak <= 16 * 2 ** 20, peak


def test_fourier_matrix_peak_at_q4096():
    # the 256 MB output plus at most two blocks of BLOCK_CELLS complex cells
    field = Field(2, 12)
    field.vec
    peak = traced_peak(lambda: fourier_matrix(field))
    q, block = field.q, chshq.field.BLOCK_CELLS * 16
    assert peak <= q * q * 16 + 2 * block, peak


def test_subfield_configuration_at_gf65536_end_to_end(tmp_path, capsys):
    sub16, inc16, reg16 = (tmp_path / f"{name}16.json" for name in ("sub", "inc", "reg"))
    assert cli.run(["construct", "--kind", "subfield", "--p", "2", "--s", "16",
                    "--out", str(sub16)]) == 0
    assert cli.run(["incidences", "--in", str(sub16), "--out", str(inc16)]) == 0
    n = json.loads(inc16.read_text())["incidences"]
    assert n == 16777216, n
    assert cli.run(["regularize", "--in", str(sub16), "--out", str(reg16)]) == 0
    assert capsys.readouterr().err == ""


def test_character_sum_temporaries_on_a_32mb_family():
    field = Field(2, 12)
    fam = random_family(field.q, 256, seed=0)   # two (4096, 256) complex arrays
    peak = traced_peak(lambda: character_bilinear_sum(field, fam))
    assert peak <= 4 * 2 ** 20, peak   # two whole-width temporaries of K v would be 32 MB


def test_maximize_sum_renormalizes_in_place():
    # a (4096, 256) complex array is 16 MB: random_family's draw sets the
    # peak, near 64 MB; copies of u and v and of each fallback made it 128 MB
    peak = traced_peak(lambda: maximize_sum(Field(2, 12), 256, seed=0, rounds=3))
    assert peak <= 80 * 2 ** 20, peak


def test_fourier_verify_at_gf65536(capsys):
    assert cli.run(["fourier", "verify", "--p", "2", "--s", "16", "--n", "4",
                    "--trials", "3"]) == 0
    assert capsys.readouterr().err == ""


def test_report_is_reproducible_in_fresh_processes(tmp_path):
    # two interpreters with different str hash seeds write the same tables
    files = ["classical_values.csv", "tsirelson.csv", "constructions.csv", "ic_sweep.csv"]
    outs = [tmp_path / "report-0", tmp_path / "report-1"]
    for hashseed, out in enumerate(outs):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": str(hashseed)}
        proc = subprocess.run([sys.executable, "-m", "chshq.cli", "report", "--all",
                               "--seed", "7", "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["files"] == files
    for name in files:
        a, b = ((out / name).read_bytes() for out in outs)
        assert a == b and a, name
