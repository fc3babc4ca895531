"""Output checks for the benchmark workloads.

Every check returns a list of (label, ok) pairs; each pair is one attempted
check.  The checks recompute what they can with the plain arithmetic below
rather than with the library's own code paths, and otherwise compare with
closed forms from the paper or with values frozen at the commit that
introduced the benchmark.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction

REPORT_FILES = ("classical_values.csv", "tsirelson.csv", "constructions.csv",
                "ic_sweep.csv")

# classical_values.csv rows as `chshq report --all` wrote them when the
# benchmark was introduced (the frozen goldens for q = 2, 3, 4, 5, 7)
GOLDEN_CLASSICAL_ROWS = (
    "2,2,1,3,3/4,1/2,0 0,0 0",
    "3,3,1,6,2/3,1/2,0 0 1,0 1 0",
    "4,2,2,9,9/16,5/12,0 0 0 1,0 2 0 3",
    "5,5,1,12,12/25,7/20,0 0 0 0 1,0 3 2 1 0",
    "7,7,1,19,19/49,2/7,0 0 0 0 1 2 5,0 3 0 6 1 5 0",
)

IC_VERDICTS = {"1/2": "bounded", "13/20": "growing"}


class RefField:
    """GF(p^s) in the polynomial basis, schoolbook multiply then reduce.

    Encodings match chshq: the digits of an element in base p are its
    coefficients, low degree first.  `modulus` is monic, low degree first.
    """

    def __init__(self, p: int, s: int, modulus):
        self.p, self.s, self.q = p, s, p ** s
        self.modulus = tuple(modulus)

    def digits(self, a: int) -> list[int]:
        return [a // self.p ** i % self.p for i in range(self.s)]

    def encode(self, coeffs) -> int:
        return sum(c * self.p ** i for i, c in enumerate(coeffs))

    def add(self, a: int, b: int) -> int:
        p = self.p
        return self.encode((x + y) % p for x, y in zip(self.digits(a), self.digits(b)))

    def mul(self, a: int, b: int) -> int:
        p, s, mod = self.p, self.s, self.modulus
        prod = [0] * (2 * s - 1)
        for i, x in enumerate(self.digits(a)):
            for j, y in enumerate(self.digits(b)):
                prod[i + j] = (prod[i + j] + x * y) % p
        for k in range(2 * s - 2, s - 1, -1):
            c = prod[k]
            if c:
                for j in range(s + 1):
                    prod[k - s + j] = (prod[k - s + j] - c * mod[j]) % p
        return self.encode(prod[:s])

    def pow(self, a: int, e: int) -> int:
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result


def ref_of(field) -> RefField:
    return RefField(field.p, field.s, field.modulus)


def wins(ref: RefField, f, g) -> int:
    """Input pairs (x, y) with f(x) + g(y) = x*y."""
    return sum(ref.add(f[x], g[y]) == ref.mul(x, y)
               for x in range(ref.q) for y in range(ref.q))


def icbrt(n: int) -> int:
    r = round(n ** (1 / 3))
    while r ** 3 > n:
        r -= 1
    while (r + 1) ** 3 <= n:
        r += 1
    return r


def grid_incidences(q: int) -> int:
    """Integer grid [n1] x [n2] with n1 = floor(q^(1/3)), n2 = floor(q^(2/3)),
    and lines y = c*x + d, c <= n1/2, d <= n2/2: each (line, column) pair
    is one incidence."""
    n1 = icbrt(q)
    n2 = icbrt(q * q)
    return (n1 // 2) * (n2 // 2) * n1


def subspace_point_factor(p: int, s: int) -> int:
    """|A| of the span construction for odd s: a = s - b, b = 2k or 2k + 1."""
    k, r = divmod(s, 3)
    b = 2 * k if r == 0 else 2 * k + 1
    return p ** (s - b)


def prime_power(q: int) -> tuple[int, int]:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    s = 0
    while q % p == 0:
        q //= p
        s += 1
    return p, s


def pgl3_order(q: int) -> int:
    return (q * q + q + 1) * (q ** 3 - q) * (q ** 3 - q * q)


def equal(label: str, got, expected) -> list[tuple[str, bool]]:
    return [(f"{label}: got {got!r}, expected {expected!r}", got == expected)]


# ---------------------------------------------------------------------------
# large-field
# ---------------------------------------------------------------------------

def check_field(field, p: int, s: int, pairs) -> list[tuple[str, bool]]:
    """Size, monic modulus of degree s, mul against the reference on `pairs`,
    and x^q = x on their first coordinates (false if the modulus is reducible)."""
    out = equal(f"GF({p}^{s}) size", field.q, p ** s)
    mod = tuple(field.modulus)
    out.append((f"GF({p}^{s}) modulus monic of degree {s}",
                len(mod) == s + 1 and mod[-1] == 1))
    ref = ref_of(field)
    out.append((f"GF({p}^{s}) mul matches the reference",
                all(field.mul(a, b) == ref.mul(a, b) for a, b in pairs)))
    out.append((f"GF({p}^{s}) x^q = x",
                all(ref.pow(a, field.q) == a for a, _ in pairs)))
    return out


def check_op_batch(field, op: str, a, b, results, sample) -> list[tuple[str, bool]]:
    """Batch results at the sampled positions: mul and add against the
    reference, inv as b * inv(b) = 1 in the reference."""
    ref = ref_of(field)
    label = f"GF({field.p}^{field.s}) {op} batch"
    if len(results) != len(b):
        return [(f"{label} length", False)]
    if op == "inv":
        ok = all(ref.mul(b[i], results[i]) == 1 for i in sample)
    else:
        ok = all(results[i] == getattr(ref, op)(a[i], b[i]) for i in sample)
    return [(label, ok)]


def check_character(chi, q: int) -> list[tuple[str, bool]]:
    table = list(chi.table)
    return [(f"character on GF({q}) has {q} values", len(table) == q),
            ("character at 0 is 1", len(table) > 0 and table[0] == 1),
            ("character sums to 0", abs(sum(table)) < 1e-9)]


def check_tight_sum(value: float, q: int) -> list[tuple[str, bool]]:
    return [(f"tight family sum {value!r} is q^(3/2) = {q ** 1.5!r} within 1e-9",
             abs(value - q ** 1.5) <= 1e-9)]


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _csv_rows(text: str) -> list[list[str]]:
    lines = text.splitlines()
    return list(csv.reader(lines[2:]))


def check_report(code: int, stdout: str, files: dict[str, bytes], seed: int,
                 first: dict[str, bytes] | None) -> list[tuple[str, bool]]:
    """One `report --all` pass: exit code, the summary line, the golden
    classical values, closed forms in the other tables, and byte identity
    with the first pass of the run (`first` is None on that pass)."""
    out = equal("report exit code", code, 0)
    try:
        summary = json.loads(stdout)
    except ValueError:
        summary = None
    if not isinstance(summary, dict):
        summary = {}
    out += equal("report summary files", summary.get("files"), list(REPORT_FILES))
    out += equal("report summary seed", summary.get("seed"), seed)
    text = {n: files.get(n, b"").decode("utf-8", "replace") for n in REPORT_FILES}
    for name in REPORT_FILES:
        out += equal(f"{name} header", text[name].split("\n", 1)[0],
                     f"# schema=chshq/1 seed={seed}")

    rows = text["classical_values.csv"].splitlines()[2:]
    out += equal("classical_values.csv row count", len(rows), len(GOLDEN_CLASSICAL_ROWS))
    for i, golden in enumerate(GOLDEN_CLASSICAL_ROWS):
        out += equal(f"classical_values.csv row {i}", rows[i] if i < len(rows) else None, golden)

    rows = _csv_rows(text["tsirelson.csv"])
    out += equal("tsirelson.csv row count", len(rows), 10)
    for row in rows:
        try:
            q, bound, ceiling = int(row[0]), float(row[1]), float(row[2])
        except (ValueError, IndexError):
            out.append((f"tsirelson.csv row {row!r} parses", False))
            continue
        out.append((f"tsirelson.csv q={q}",
                    abs(bound - (1 / q + (q - 1) / (q * q ** 0.5))) < 1e-12
                    and abs(ceiling - q ** -0.5) < 1e-12))

    rows = _csv_rows(text["constructions.csv"])
    out += equal("constructions.csv row count", len(rows), 7)
    for row in rows:
        try:
            kind, q, n_points, n_lines, inc = row[0], *map(int, row[1:5])
        except (ValueError, IndexError, TypeError):
            out.append((f"constructions.csv row {row!r} parses", False))
            continue
        if kind == "subfield":
            expected = math.isqrt(q) ** 3
        elif kind == "grid":
            expected = grid_incidences(q)
        elif kind == "subspace":
            expected = subspace_point_factor(*prime_power(q)) * n_lines
        else:
            expected = f"a known kind, not {kind!r}"
        out += equal(f"constructions.csv {kind} q={q} incidences", inc, expected)

    verdicts = {}
    for row in _csv_rows(text["ic_sweep.csv"]):
        if row:
            verdicts.setdefault(row[0], set()).add(row[-1])
    out += equal("ic_sweep.csv verdicts", verdicts,
                 {E: {v} for E, v in IC_VERDICTS.items()})

    if first is not None:
        for name in REPORT_FILES:
            out.append((f"{name} byte-identical across passes",
                        files.get(name) == first.get(name)))
    return out


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def check_regularized(field, strategy, box) -> list[tuple[str, bool]]:
    """The box is exactly regular and keeps the strategy's winning probability."""
    q = field.q
    probs = box.error_dist().probs
    return [(f"q={q} regularized box is regular", len(set(probs[1:])) <= 1),
            *equal(f"q={q} regularized p_win", box.p_win(),
                   Fraction(wins(ref_of(field), *strategy), q * q))]


def check_sweep(q: int, order: int) -> list[tuple[str, bool]]:
    return equal(f"q={q} transforms checked", order, pgl3_order(q))


def check_projective(q: int, out, stats) -> list[tuple[str, bool]]:
    """Legal output (<= q points with distinct x, <= q lines with distinct
    slopes) whose incidences, counted over the integers mod q, match."""
    xs = [x for x, _ in out.points]
    slopes = [a for a, _ in out.lines]
    legal = (len(xs) <= q and len(slopes) <= q
             and len(set(xs)) == len(xs) and len(set(slopes)) == len(slopes))
    ys = {}
    for x, y in out.points:
        ys.setdefault(x, set()).add(y)
    kept = sum((a * x - b) % q in s for a, b in out.lines for x, s in ys.items())
    return [(f"q={q} regularized config is legal", legal),
            *equal(f"q={q} kept incidences", stats.kept_incidences, kept),
            *equal(f"q={q} input incidences", stats.input_incidences, grid_incidences(q))]


def check_search(field, result) -> list[tuple[str, bool]]:
    return equal(f"q={field.q} search wins", result.value.wins,
                 wins(ref_of(field), *result.strategy))


def check_maximize(q: int, value: float) -> list[tuple[str, bool]]:
    return [(f"q={q} maximized sum {value!r} <= q^(3/2)", 0 < value <= q ** 1.5 + 1e-9)]


def closed_form_pmf(q: int, E: Fraction, m: int) -> tuple[Fraction, ...]:
    """Error pmf of m composed regular boxes of bias E."""
    Em = Fraction(E) ** m
    return (Fraction(1, q) + (q - 1) * Em / q,) + (Fraction(1, q) - Em / q,) * (q - 1)


def check_compose(q: int, E: Fraction, m: int, composed, distributed) -> list[tuple[str, bool]]:
    return [*equal(f"q={q} E={E} m={m} composed pmf", tuple(composed.probs),
                   closed_form_pmf(q, E, m)),
            *equal(f"q={q} E={E} distributed bias", distributed.bias, E * E)]
