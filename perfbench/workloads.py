"""The three benchmark workloads: seeded inputs, and one pass of timed calls.

A workload object is built from the seed alone (that is the set-up the
benchmark times as `setup_s`); `run_pass` then makes its calls into chshq
through `runner.step`, which times each call and checks its output.
Library functions are looked up on their modules at call time so that the
traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shutil
from fractions import Fraction

import numpy  # noqa: F401  -- set-up time covers importing numpy
from chshq import boxes, cli, fourier, game, geometry, infotheory
from chshq.field import AdditiveCharacter, Field

import checks

CHECK_SAMPLES = 64   # positions of each op batch recomputed by the reference


class Report:
    """`chshq report --all` in-process: the end-to-end run of the ROADMAP.

    Time goes to the exact search and to building fields (GF(243) has dense
    op tables); large-field op throughput does not enter.
    """

    def __init__(self, seed: int, workdir: str):
        self.seed = random.Random(seed).randrange(1 << 31)
        self.workdir = workdir
        self.first: dict[str, bytes] | None = None
        self.passes = 0

    def run_pass(self, runner):
        out = os.path.join(self.workdir, f"report-{self.passes}")
        self.passes += 1
        argv = ["report", "--all", "--seed", str(self.seed), "--out", out]

        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.run(argv)
            return code, buf.getvalue()

        def check(result):
            files = {}
            for name in checks.REPORT_FILES:
                with contextlib.suppress(OSError), open(os.path.join(out, name), "rb") as fh:
                    files[name] = fh.read()
            verdict = checks.check_report(*result, files, self.seed, self.first)
            if self.first is None:
                self.first = files
            return verdict

        runner.step("report", "cli", call, check)
        shutil.rmtree(out, ignore_errors=True)


DENSE_BUILDS = ((3, 5), (2, 9))                       # q <= TABLE_CAP
POLY_BUILDS = ((2, 11), (3, 10), (2, 12), (2, 16), (3, 7))
OP_FIELDS = {"q2048": (2, 11), "q59049": (3, 10), "q65536": (2, 16)}
OPS_PER_BATCH = 3000


class LargeField:
    """Fields on both sides of the dense-table cap, op throughput, and the
    q^(3/2) constructions whose incidence counts are bound by field.mul.

    No game code runs here, so a game-only change should leave it unchanged.
    """

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.pairs = {(p, s): [(rng.randrange(p ** s), rng.randrange(p ** s))
                               for _ in range(4)]
                      for p, s in DENSE_BUILDS + POLY_BUILDS}
        self.batches = {}
        for tag, (p, s) in OP_FIELDS.items():
            q = p ** s
            self.batches[tag] = ([rng.randrange(q) for _ in range(OPS_PER_BATCH)],
                                 [rng.randrange(1, q) for _ in range(OPS_PER_BATCH)])
        self.sample = rng.sample(range(OPS_PER_BATCH), CHECK_SAMPLES)
        self.subspace_seed = rng.randrange(1 << 31)

    def run_pass(self, runner):
        fields = {}
        for p, s in DENSE_BUILDS + POLY_BUILDS:
            fields[p, s] = runner.step(
                f"build.q{p ** s}", "field", lambda: Field(p, s),
                lambda f: checks.check_field(f, p, s, self.pairs[p, s]))

        for tag, (p, s) in OP_FIELDS.items():
            f = fields[p, s]
            a, b = self.batches[tag]
            runner.step(f"mul.{tag}", "field", lambda: [f.mul(x, y) for x, y in zip(a, b)],
                        lambda r: checks.check_op_batch(f, "mul", a, b, r, self.sample))
            runner.step(f"add.{tag}", "field", lambda: [f.add(x, y) for x, y in zip(a, b)],
                        lambda r: checks.check_op_batch(f, "add", a, b, r, self.sample))
            runner.step(f"inv.{tag}", "field", lambda: [f.inv(y) for y in b],
                        lambda r: checks.check_op_batch(f, "inv", a, b, r, self.sample))

        runner.step("character.q2048", "field", lambda: AdditiveCharacter(fields[2, 11]),
                    lambda chi: checks.check_character(chi, 2048))

        f = fields[2, 12]
        runner.step("subfield.q4096", "geometry",
                    lambda: geometry.incidences(f, geometry.subfield_construction(f)),
                    lambda n: checks.equal("GF(4096) subfield incidences", n, 64 ** 3))

        f = fields[3, 7]

        def subspace():
            cfg = geometry.subspace_construction(f, seed=self.subspace_seed)
            return len(cfg.lines), geometry.incidences(f, cfg)
        runner.step("subspace.q2187", "geometry", subspace,
                    lambda r: checks.equal("GF(2187) subspace incidences", r[1],
                                           checks.subspace_point_factor(3, 7) * r[0]))

        f = fields[2, 9]
        runner.step("tight.q512", "fourier",
                    lambda: fourier.character_bilinear_sum(f, fourier.tight_family(f)),
                    lambda v: checks.check_tight_sum(v, 512))


REGULARIZE_FIELDS = ((7, 1), (2, 3), (3, 2))
SWEEP_FIELDS = ((2, 2), (5, 1))
SEARCH_FIELDS = ((2, 5), (2, 6))
COMPOSE_FIELDS = ((5, 1), (7, 1), (2, 3), (3, 2))
PROJECTIVE_Q = 1009


class Wrappers:
    """Many calls on small fields: the regularization wrapper, the PGL_3
    sweep, chart regularization, local search, IC and Fourier probes.

    Field construction costs almost nothing here; scalar field ops on small
    fields are called millions of times.
    """

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)

        def table(q):
            return tuple(rng.randrange(q) for _ in range(q))

        self.strategies = {(p, s): game.Strategy(table(p ** s), table(p ** s))
                           for p, s in REGULARIZE_FIELDS}
        self.sweep_configs = {}
        for p, s in SWEEP_FIELDS:
            q = p ** s
            pts = [(rng.randrange(q), rng.randrange(q)) for _ in range(3)]
            lns = [(rng.randrange(q), rng.randrange(q)) for _ in range(3)]
            self.sweep_configs[p, s] = geometry.make_config(pts, lns)
        self.chart_seed = rng.randrange(1 << 31)
        self.search_seeds = {ps: rng.randrange(1 << 20) for ps in SEARCH_FIELDS}
        self.maximize_seed = rng.randrange(1 << 31)
        self.compose_cases = [(ps, Fraction(rng.randrange(21), 20), rng.randrange(2, 7))
                              for ps in COMPOSE_FIELDS for _ in range(2)]

    def run_pass(self, runner):
        for (p, s), strategy in self.strategies.items():
            def regularize():
                f = Field(p, s)
                return f, boxes.regularize(f, boxes.StrategyBox(strategy))
            runner.step(f"regularize.q{p ** s}", "boxes", regularize,
                        lambda r: checks.check_regularized(r[0], strategy, r[1]))

        for (p, s), cfg in self.sweep_configs.items():
            runner.step(f"sweep.q{p ** s}", "geometry",
                        lambda: geometry.verify_incidence_preservation_exhaustive(Field(p, s), cfg),
                        lambda order: checks.check_sweep(p ** s, order))

        def chart():
            f = Field(PROJECTIVE_Q, 1)
            return geometry.random_projective_regularize(
                f, geometry.grid_construction(f), seed=self.chart_seed)
        runner.step(f"projective.q{PROJECTIVE_Q}", "geometry", chart,
                    lambda r: checks.check_projective(PROJECTIVE_Q, *r))

        for (p, s), seed in self.search_seeds.items():
            def search():
                f = Field(p, s)
                return f, game.search_with_restarts(f, seed=seed)
            runner.step(f"search.q{p ** s}", "game", search,
                        lambda r: checks.check_search(*r))

        def pairwise():
            f = Field(3, 1)
            return infotheory.pairwise_independence_check(infotheory.build_U_m(f, 6))
        runner.step("pairwise.q3", "infotheory", pairwise,
                    lambda ok: checks.equal("q=3 m=6 pairwise independence", ok, True))

        for E, verdict in checks.IC_VERDICTS.items():
            runner.step(f"ic.{E}", "infotheory",
                        lambda: infotheory.ic_dichotomy_experiment(
                            Field(3, 1), Fraction(E), range(2, 9)).verdict,
                        lambda v: checks.equal(f"q=3 E={E} IC verdict", v, verdict))

        runner.step("maximize.q64", "fourier",
                    lambda: fourier.maximize_sum(Field(2, 6), n=8, seed=self.maximize_seed).value,
                    lambda v: checks.check_maximize(64, v))

        for (p, s), E, m in self.compose_cases:
            def compose():
                f = Field(p, s)
                box = boxes.RegularBox(f.q, E)
                return boxes.compose_m(f, box, m), boxes.distribute(f, box)
            runner.step(f"compose.q{p ** s}", "boxes", compose,
                        lambda r: checks.check_compose(p ** s, E, m, *r))


WORKLOADS = {"report": Report, "large-field": LargeField, "wrappers": Wrappers}
