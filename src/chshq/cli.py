"""Command-line front end.

Subcommands map one-to-one onto the library layers; every randomized run
records its seed in the output, exact rationals serialize as "num/den"
strings, and outputs carry a schema tag.  Exit codes: 0 ok, 2 invalid
input, 3 invariant violation, 4 cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
from fractions import Fraction

from .errors import InvalidInput, InvariantViolation, CapExceeded
from .field import Field, field_new, field_from_q
from . import game, geometry, boxes, infotheory, fourier

SCHEMA = "chshq/1"
PMF_TEXT_CAP = 1 << 26   # characters of the q strings of one printed pmf


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def frac_str(x: Fraction) -> str:
    try:
        return f"{x.numerator}/{x.denominator}"
    except ValueError as e:   # an int past sys.get_int_max_str_digits()
        raise CapExceeded(f"rational too long to print: {e}")


def pmf_strs(dist: boxes.ErrorDist) -> list[str]:
    """frac_str of the q entries, two values each printed once; refused
    before the list is built when they would pass PMF_TEXT_CAP characters."""
    s0, s1 = frac_str(dist.p0), frac_str(dist.p1)
    if len(s0) + (dist.q - 1) * len(s1) > PMF_TEXT_CAP:
        raise CapExceeded(f"pmf text at q = {dist.q} exceeds "
                          f"{PMF_TEXT_CAP} characters")
    return [s0] + [s1] * (dist.q - 1)


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InvalidInput(f"cannot parse rational {text!r}")


def config_to_json(q: int, c: geometry.Config) -> dict:
    return {
        "schema": SCHEMA,
        "q": q,
        "points": [list(p) for p in c.points],
        "lines": [list(l) for l in c.lines],
    }


def _json_int(v) -> int:
    # bool is an int subclass; floats (4.7, 1e400) and strings are refused
    if type(v) is not int:
        raise InvalidInput(f"{v!r} is not an integer")
    return v


def _json_pair(v) -> tuple[int, int]:
    x, y = map(_json_int, v)
    return x, y


def config_from_json(d: dict) -> tuple[Field, geometry.Config]:
    """The field and the normalized config of a config payload.  Every
    coordinate is range-checked before the config is normalized, so any
    integer, however large, is refused as InvalidInput."""
    try:
        q = _json_int(d["q"])
        points = [_json_pair(p) for p in d["points"]]
        lines = [_json_pair(l) for l in d["lines"]]
    except (KeyError, TypeError, ValueError) as e:
        raise InvalidInput(f"malformed config json: {e}")
    field = field_from_q(q)
    for pairs, what in ((points, "point coordinates"), (lines, "line parameters")):
        if not all(0 <= u < field.q and 0 <= v < field.q for u, v in pairs):
            raise InvalidInput(f"{what} outside the field")
    return field, geometry.make_config(points, lines)


def _write(text: str, out) -> None:
    """Write text to the file out, or to stdout when no file is given."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload: dict, args):
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["key", "value"])
        for k in sorted(payload):
            v = payload[k]
            w.writerow([k, json.dumps(v, sort_keys=True)
                        if isinstance(v, (list, dict)) else v])
        text = buf.getvalue()
    _write(text, args.out)


def _read_json(path: str) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as e:   # JSONDecodeError and UnicodeDecodeError
            raise InvalidInput(f"{path} is not valid JSON: {e}")
        except RecursionError:    # the decoder recurses once per nesting level
            raise InvalidInput(f"{path} nests JSON too deeply to read")


def _field_from_args(args) -> Field:
    return field_new(args.p, args.s)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_classical_value(args) -> int:
    field = _field_from_args(args)
    if args.search:
        r = game.search_with_restarts(field, seed=args.seed,
                                      restarts=args.restarts,
                                      max_rounds=args.max_rounds)
        value, strategy = r.value, r.strategy
        method = "search"
    else:
        value, strategy = game.exact_classical_value(field)
        method = "exact"
    _emit({
        "schema": SCHEMA, "method": method, "q": field.q,
        "p": field.p, "s": field.s, "seed": args.seed,
        "wins": value.wins, "p_win": frac_str(value.p_win),
        "bias": frac_str(value.bias),
        "f": list(strategy.f), "g": list(strategy.g),
    }, args)
    return 0


def cmd_construct(args) -> int:
    field = _field_from_args(args)
    if args.kind == "subfield":
        cfg = geometry.subfield_construction(field)
    elif args.kind == "grid":
        cfg = geometry.grid_construction(field)
    else:
        cfg = geometry.subspace_construction(field, seed=args.seed)
    payload = config_to_json(field.q, cfg)
    payload["kind"] = args.kind
    payload["seed"] = args.seed
    _emit(payload, args)
    return 0


def cmd_incidences(args) -> int:
    field, cfg = config_from_json(_read_json(args.infile))
    _emit({
        "schema": SCHEMA, "q": field.q,
        "n_points": len(cfg.points), "n_lines": len(cfg.lines),
        "incidences": geometry.incidences(field, cfg),
        "legal": geometry.is_legal(field, cfg),
        "trivial_bound": geometry.trivial_incidence_bound(
            len(cfg.points), len(cfg.lines)),
    }, args)
    return 0


def cmd_regularize(args) -> int:
    field, cfg = config_from_json(_read_json(args.infile))
    out, stats = geometry.random_projective_regularize(field, cfg, seed=args.seed)
    payload = config_to_json(field.q, out)
    payload["seed"] = args.seed
    payload["stats"] = dataclasses.asdict(stats)
    _emit(payload, args)
    return 0


def cmd_box_compose(args) -> int:
    field = field_from_q(args.q)
    E = parse_fraction(args.E)
    box = boxes.RegularBox(field.q, E)
    dist = boxes.compose_m(field, box, args.m)
    _emit({
        "schema": SCHEMA, "q": field.q, "E": frac_str(E), "m": args.m,
        "pmf": pmf_strs(dist),
        "p_win": frac_str(dist.p_win()),
        "bias": frac_str(dist.bias()),
    }, args)
    return 0


def cmd_box_distribute(args) -> int:
    field = field_from_q(args.q)
    E = parse_fraction(args.E)
    box = boxes.distribute(field, boxes.RegularBox(field.q, E))
    _emit({
        "schema": SCHEMA, "q": field.q, "E": frac_str(E),
        "E_dist": frac_str(box.bias),
        "p_win_dist": frac_str(box.p_win()),
        "pmf": pmf_strs(box.error_dist()),
    }, args)
    return 0


def _sweep_rows(field: Field, E: Fraction, m_lo: int, m_hi: int):
    result = infotheory.ic_dichotomy_experiment(field, E, range(m_lo, m_hi + 1))
    rows = [[r.m, r.n_indices, repr(r.per_index_mi), repr(r.total), result.verdict]
            for r in result.rows]
    return rows, result.verdict


def cmd_ic_sweep(args) -> int:
    field = _field_from_args(args)
    E = parse_fraction(args.E)
    if args.m_max - args.m_min < 2:
        raise InvalidInput("sweep needs at least three m values")
    rows, verdict = _sweep_rows(field, E, args.m_min, args.m_max)
    text = _csv_text(f"# schema={SCHEMA} q={field.q} E={frac_str(E)}",
                     ["m", "n_indices", "per_index_mi", "total", "verdict"],
                     rows)
    _write(text, args.out)
    return 0


def cmd_fourier_verify(args) -> int:
    field = _field_from_args(args)
    if args.trials < 1:
        raise InvalidInput(f"trials = {args.trials} must be >= 1")
    worst = 0.0
    for i in range(args.trials):
        fam = fourier.random_family(field.q, args.n, seed=args.seed + i)
        s = fourier.character_bilinear_sum(field, fam)
        worst = max(worst, s)
        if s > field.q ** 1.5 + fourier.BOUND_TOL:
            raise InvariantViolation(
                f"character-sum bound violated at trial {i}")
    _emit({
        "schema": SCHEMA, "q": field.q, "n": args.n, "trials": args.trials,
        "seed": args.seed, "max_sum": worst, "bound": field.q ** 1.5,
        "all_within_bound": True,
    }, args)
    return 0


def cmd_fourier_maximize(args) -> int:
    field = _field_from_args(args)
    r = fourier.maximize_sum(field, n=args.n, seed=args.seed, rounds=args.rounds)
    _emit({
        "schema": SCHEMA, "q": field.q, "n": args.n, "seed": args.seed,
        "rounds_used": len(r.history) // 2,
        "value": r.value, "bound": field.q ** 1.5,
        "ratio": r.value / field.q ** 1.5,
    }, args)
    return 0


# ---------------------------------------------------------------------------
# report: regenerate the golden tables
# ---------------------------------------------------------------------------

def _csv_text(header_comment: str, columns: list[str], rows) -> str:
    buf = io.StringIO()
    buf.write(header_comment + "\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    for row in rows:
        w.writerow(row)
    return buf.getvalue()


def cmd_report(args) -> int:
    if not args.all:
        raise InvalidInput("report currently only supports --all")
    os.makedirs(args.out, exist_ok=True)
    seed = args.seed
    wrote = []

    rows = []
    for p, s in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1)]:
        field = field_new(p, s)
        value, strategy = game.exact_classical_value(field)
        rows.append([field.q, p, s, value.wins, frac_str(value.p_win),
                     frac_str(value.bias),
                     " ".join(map(str, strategy.f)),
                     " ".join(map(str, strategy.g))])
    wrote.append(_write_table(args.out, "classical_values.csv", seed,
                              ["q", "p", "s", "wins", "p_win", "bias", "f", "g"],
                              rows))

    rows = []
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        rows.append([q, repr(game.tsirelson_bound(q)),
                     repr(fourier.implied_bias_ceiling(q))])
    wrote.append(_write_table(args.out, "tsirelson.csv", seed,
                              ["q", "win_prob_bound", "bias_ceiling"], rows))

    rows = []
    for q in (4, 9, 16, 25):
        field = field_from_q(q)
        cfg = geometry.subfield_construction(field)
        rows.append(["subfield", q, len(cfg.points), len(cfg.lines),
                     geometry.incidences(field, cfg)])
    for q in (101, 1009):
        field = field_from_q(q)
        cfg = geometry.grid_construction(field)
        rows.append(["grid", q, len(cfg.points), len(cfg.lines),
                     geometry.incidences(field, cfg)])
    field = field_from_q(243)
    cfg = geometry.subspace_construction(field, seed=seed)
    rows.append(["subspace", 243, len(cfg.points), len(cfg.lines),
                 geometry.incidences(field, cfg)])
    wrote.append(_write_table(args.out, "constructions.csv", seed,
                              ["kind", "q", "n_points", "n_lines", "incidences"],
                              rows))

    field = field_new(3, 1)
    rows = []
    for E in (Fraction(1, 2), Fraction(13, 20)):
        sweep, verdict = _sweep_rows(field, E, 2, 8)
        for r in sweep:
            rows.append([frac_str(E)] + r)
    wrote.append(_write_table(args.out, "ic_sweep.csv", seed,
                              ["E", "m", "n_indices", "per_index_mi", "total",
                               "verdict"], rows))

    print(json.dumps({"schema": SCHEMA, "seed": seed, "out": args.out,
                      "files": wrote}, sort_keys=True))
    return 0


def _write_table(outdir: str, name: str, seed: int, columns, rows) -> str:
    _write(_csv_text(f"# schema={SCHEMA} seed={seed}", columns, rows),
           os.path.join(outdir, name))
    return name


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="chshq",
        description="Classical values, incidence constructions, and box "
                    "protocols for CHSH_q games over finite fields.")
    sub = top.add_subparsers(dest="command", required=True)

    def add_field_args(p):
        p.add_argument("--p", type=int, required=True, help="characteristic")
        p.add_argument("--s", type=int, default=1, help="extension degree")

    def add_io_args(p):
        p.add_argument("--out", help="output file (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("classical-value", help="optimal deterministic strategy")
    add_field_args(p)
    p.add_argument("--search", action="store_true",
                   help="seeded local search instead of exhaustion")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--max-rounds", type=int, default=100)
    add_io_args(p)
    p.set_defaults(func=cmd_classical_value)

    p = sub.add_parser("construct", help="high-incidence point/line sets")
    p.add_argument("--kind", choices=("subfield", "grid", "subspace"),
                   required=True)
    add_field_args(p)
    p.add_argument("--seed", type=int, default=0)
    add_io_args(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("incidences", help="count incidences of a config")
    p.add_argument("--in", dest="infile", required=True)
    add_io_args(p)
    p.set_defaults(func=cmd_incidences)

    p = sub.add_parser("regularize", help="random projective regularization")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--seed", type=int, default=0)
    add_io_args(p)
    p.set_defaults(func=cmd_regularize)

    box = sub.add_parser("box", help="regular box calculus").add_subparsers(
        dest="box_command", required=True)
    p = box.add_parser("compose", help="m-fold error convolution")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--E", required=True, help='bias as "num/den"')
    p.add_argument("--m", type=int, required=True)
    add_io_args(p)
    p.set_defaults(func=cmd_box_compose)
    p = box.add_parser("distribute", help="distributed-game box")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--E", required=True, help='bias as "num/den"')
    add_io_args(p)
    p.set_defaults(func=cmd_box_distribute)

    p = sub.add_parser("ic-sweep", help="IC totals over m with verdict")
    add_field_args(p)
    p.add_argument("--E", required=True, help='bias as "num/den"')
    p.add_argument("--m-min", type=int, default=2)
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ic_sweep)

    fr = sub.add_parser("fourier", help="character-sum bound probes"
                        ).add_subparsers(dest="fourier_command", required=True)
    p = fr.add_parser("verify", help="random families against the bound")
    add_field_args(p)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    add_io_args(p)
    p.set_defaults(func=cmd_fourier_verify)
    p = fr.add_parser("maximize", help="alternating maximization")
    add_field_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rounds", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    add_io_args(p)
    p.set_defaults(func=cmd_fourier_maximize)

    p = sub.add_parser("report", help="regenerate the golden tables")
    p.add_argument("--all", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_report)

    return top


def run(argv=None) -> int:
    """Parse and execute; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CapExceeded, InvariantViolation, InvalidInput, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return (4 if isinstance(e, CapExceeded) else
                3 if isinstance(e, InvariantViolation) else 2)


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
