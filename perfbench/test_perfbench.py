"""Tests of the benchmark itself: each output check passes on a correct
result and flags a deliberately corrupted one; the runner and the tracer
count and attribute what they should.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from chshq import boxes, cli, fourier, game, geometry  # noqa: E402
from chshq.field import AdditiveCharacter, Field  # noqa: E402


def passed(verdicts) -> bool:
    return all(ok for _, ok in verdicts)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def report_output(tmp_path_factory):
    out = tmp_path_factory.mktemp("report")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(["report", "--all", "--seed", "7", "--out", str(out)])
    files = {n: (out / n).read_bytes() for n in checks.REPORT_FILES}
    return code, buf.getvalue(), files


def _replace(files, name, old, new):
    text = files[name].decode()
    assert old in text
    return {**files, name: text.replace(old, new, 1).encode()}


def test_report_check_accepts_a_real_report(report_output):
    code, stdout, files = report_output
    assert passed(checks.check_report(code, stdout, files, 7, None))
    assert passed(checks.check_report(code, stdout, files, 7, files))


@pytest.mark.parametrize("name, old, new", [
    ("classical_values.csv", "7,7,1,19,19/49", "7,7,1,20,20/49"),     # golden row changed
    ("constructions.csv", "grid,1009,1000,250,2500", "grid,1009,1000,250,2501"),
    ("constructions.csv", "subspace,243,243,243,2187", "subspace,243,243,243,2186"),
    ("constructions.csv", "subfield,16,16,16,64", "subfield,16,16,16,63"),
    ("ic_sweep.csv", "growing", "bounded"),
    ("tsirelson.csv", "\n16,", "\n17,"),
])
def test_report_check_flags_corrupted_tables(report_output, name, old, new):
    code, stdout, files = report_output
    assert not passed(checks.check_report(code, stdout, _replace(files, name, old, new), 7, None))


def test_report_check_flags_exit_code_seed_and_byte_drift(report_output):
    code, stdout, files = report_output
    assert not passed(checks.check_report(2, stdout, files, 7, None))
    assert not passed(checks.check_report(code, stdout, files, 8, None))
    assert not passed(checks.check_report(code, "", files, 7, None))
    drifted = {**files, "tsirelson.csv": files["tsirelson.csv"] + b"\n"}
    assert not passed(checks.check_report(code, stdout, files, 7, drifted))
    missing = {k: v for k, v in files.items() if k != "ic_sweep.csv"}
    assert not passed(checks.check_report(code, stdout, missing, 7, None))


# ---------------------------------------------------------------------------
# large-field
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p, s", [(2, 5), (3, 3), (2, 11), (5, 1)])
def test_reference_arithmetic_agrees_with_chshq(p, s):
    f = Field(p, s)
    ref = checks.ref_of(f)
    for a in range(0, f.q, max(1, f.q // 40)):
        for b in range(1, f.q, max(1, f.q // 30)):
            assert ref.mul(a, b) == f.mul(a, b)
            assert ref.add(a, b) == f.add(a, b)


def test_field_check_flags_a_reducible_modulus_and_a_wrong_size():
    f = Field(2, 5)
    pairs = [(3, 17), (30, 9), (21, 2), (7, 31)]
    assert passed(checks.check_field(f, 2, 5, pairs))
    assert not passed(checks.check_field(f, 2, 6, pairs))
    # x^5 + 1 = (x + 1)(x^4 + x^3 + x^2 + x + 1)
    reducible = SimpleNamespace(p=2, s=5, q=32, modulus=(1, 0, 0, 0, 0, 1),
                                mul=checks.RefField(2, 5, (1, 0, 0, 0, 0, 1)).mul)
    assert not passed(checks.check_field(reducible, 2, 5, pairs))
    wrong_mul = SimpleNamespace(p=2, s=5, q=32, modulus=f.modulus,
                                mul=lambda a, b: f.mul(a, b) ^ (a == 3))
    assert not passed(checks.check_field(wrong_mul, 2, 5, pairs))


@pytest.mark.parametrize("op", ["mul", "add", "inv"])
def test_op_batch_check_flags_one_wrong_result(op):
    f = Field(3, 4)
    a = [5, 17, 80, 0, 44]
    b = [1, 9, 33, 71, 2]
    if op == "inv":
        results = [f.inv(y) for y in b]
    else:
        results = [getattr(f, op)(x, y) for x, y in zip(a, b)]
    sample = range(len(b))
    assert passed(checks.check_op_batch(f, op, a, b, results, sample))
    results[3] = (results[3] + 1) % f.q
    assert not passed(checks.check_op_batch(f, op, a, b, results, sample))
    assert not passed(checks.check_op_batch(f, op, a, b, results[:-1], sample))


def test_character_and_tight_sum_checks():
    f = Field(2, 5)
    chi = AdditiveCharacter(f)
    assert passed(checks.check_character(chi, 32))
    chi.table[5] = -chi.table[5]
    assert not passed(checks.check_character(chi, 32))
    g = Field(2, 4)
    value = fourier.character_bilinear_sum(g, fourier.tight_family(g))
    assert passed(checks.check_tight_sum(value, 16))
    assert not passed(checks.check_tight_sum(value + 1e-6, 16))


def test_incidence_counts_off_by_one_are_flagged():
    f = Field(2, 4)
    n = geometry.incidences(f, geometry.subfield_construction(f))
    assert passed(checks.equal("subfield", n, 4 ** 3))
    assert not passed(checks.equal("subfield", n - 1, 4 ** 3))
    h = Field(3, 5)
    cfg = geometry.subspace_construction(h, seed=1)
    expected = checks.subspace_point_factor(3, 5) * len(cfg.lines)
    assert geometry.incidences(h, cfg) == expected
    assert checks.subspace_point_factor(3, 7) == geometry.subspace_cardinalities(Field(3, 7))[0]


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def test_regularized_check_flags_a_changed_p_win():
    f = Field(2, 2)
    strategy = game.Strategy((0, 1, 3, 2), (2, 2, 0, 1))
    box = boxes.regularize(f, boxes.StrategyBox(strategy))
    assert passed(checks.check_regularized(f, strategy, box))
    off = boxes.RegularBox(4, box.bias + Fraction(1, 12))
    assert not passed(checks.check_regularized(f, strategy, off))


def test_sweep_and_search_checks_flag_off_by_one():
    assert passed(checks.check_sweep(4, 60480))
    assert not passed(checks.check_sweep(4, 60479))
    f = Field(2, 3)
    r = game.search_with_restarts(f, seed=3, restarts=2)
    assert passed(checks.check_search(f, r))
    bad = dataclasses.replace(r, value=game.GameValue.from_wins(8, r.value.wins + 1))
    assert not passed(checks.check_search(f, bad))


def test_projective_check_flags_illegal_output_and_miscount():
    f = Field(101, 1)
    out, stats = geometry.random_projective_regularize(f, geometry.grid_construction(f), seed=4)
    assert passed(checks.check_projective(101, out, stats))
    miscount = dataclasses.replace(stats, kept_incidences=stats.kept_incidences + 1)
    assert not passed(checks.check_projective(101, out, miscount))
    x, y = out.points[0]
    illegal = geometry.Config(points=out.points + ((x, (y + 1) % 101),), lines=out.lines)
    assert not passed(checks.check_projective(101, illegal, stats))


def test_maximize_and_compose_checks():
    assert passed(checks.check_maximize(64, 511.9))
    assert not passed(checks.check_maximize(64, 512.001))
    f = Field(7, 1)
    E = Fraction(3, 10)
    box = boxes.RegularBox(7, E)
    composed, distributed = boxes.compose_m(f, box, 3), boxes.distribute(f, box)
    assert passed(checks.check_compose(7, E, 3, composed, distributed))
    assert not passed(checks.check_compose(7, E, 4, composed, distributed))
    assert not passed(checks.check_compose(7, E, 3, composed, boxes.RegularBox(7, E)))


# ---------------------------------------------------------------------------
# seeds, runner, tracer, metric names
# ---------------------------------------------------------------------------

def test_inputs_depend_only_on_the_seed():
    a = workloads.Wrappers(5, "unused")
    b = workloads.Wrappers(5, "unused")
    c = workloads.Wrappers(6, "unused")
    assert a.strategies == b.strategies and a.compose_cases == b.compose_cases
    assert a.strategies != c.strategies
    assert workloads.LargeField(5, "x").batches == workloads.LargeField(5, "x").batches
    assert workloads.Report(5, "x").seed != workloads.Report(6, "x").seed


def test_runner_counts_a_raising_step_and_goes_on():
    runner = run.Runner(run.SpeedProbe())
    runner.begin_pass(None)
    assert runner.step("boom", "field", lambda: Field(4, 1), lambda f: []) is None
    assert runner.step("ok", "field", lambda: 3, lambda v: checks.equal("v", v, 3)) == 3
    runner.step("bad", "field", lambda: 2, lambda v: checks.equal("v", v, 3))
    assert (runner.attempted, runner.failed) == (3, 2)
    assert set(runner.steps) == {"ok", "bad"}


def test_calibration_samples_are_not_step_time():
    probe = run.SpeedProbe()
    runner = run.Runner(probe)
    runner.begin_pass(None)

    def call():
        probe._sample(signal.SIGALRM, None)   # what the timer does mid-step
        return 1
    runner.step("s", "field", call, lambda v: [])
    assert len(probe.samples) == 1
    assert runner.steps["s"] < 0.5 * probe.spent


def test_speed_probe_samples_on_a_timer_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    probe = run.SpeedProbe()
    with probe:
        end = time.perf_counter() + 3 * run.CALIB_EVERY_S
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 2
    assert signal.getsignal(signal.SIGALRM) is previous
    assert run.at_reference_speed(2.0, [run.CALIB_REF_S * 2]) == pytest.approx(1.0)


def test_self_time_subtracts_children():
    recs = [["step.a", "geometry", 0.0, 10.0, None],
            ["geometry.incidences", "geometry", 1.0, 4.0, 0],
            ["field.Field", "field", 5.0, 9.0, 0],
            ["field.primitive_element", "field", 6.0, 7.0, 2]]
    own = spans.self_times(recs)
    assert own["geometry"] == pytest.approx(3.0 + 3.0)
    assert own["field"] == pytest.approx(4.0)
    assert spans.totals(recs)["geometry.incidences"] == pytest.approx(3.0)


def test_tracer_catches_by_name_imports_and_restores_them():
    original_init = Field.__init__
    original_field_new = cli.field_new
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.field_new is not original_field_new
        assert boxes.win_count is game.win_count
        Field(2, 3)   # outside a step: not recorded
        assert tracer.spans == []
        with tracer.span("step.t", "cli"):
            f = cli.field_new(2, 3)
            game.search_with_restarts(f, seed=1, restarts=2)
    finally:
        tracer.uninstall()
    assert Field.__init__ is original_init and cli.field_new is original_field_new
    names = [s[0] for s in tracer.spans]
    assert names[:3] == ["step.t", "field.field_new", "field.Field"]
    assert names.count("game.local_search") == 2
    assert tracer.counts["game.search_rounds"] >= 2
    metrics = run.layer_metrics(tracer, {}, workloads.OPS_PER_BATCH)
    assert set(metrics) | {"trace.overhead_s", "fail_ratio"} == set(run.PER_LAYER)
    assert metrics["field.builds"] == 1


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(run.OP_TAGS) == set(workloads.OP_FIELDS)


def test_run_refuses_a_checkout_without_chshq(tmp_path):
    bare = tmp_path / "perfbench"
    bare.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bare / name).write_bytes((HERE / name).read_bytes())
    proc = subprocess.run([sys.executable, str(bare / "run.py"), "--workload", "report",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
