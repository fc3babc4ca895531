"""End-to-end CLI behavior: outputs, exit codes, determinism."""

from __future__ import annotations

import json
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from chshq import cli, fourier
from chshq.boxes import compose_closed_form
from chshq.cli import PMF_TEXT_CAP, run, parse_fraction, frac_str, pmf_strs
from chshq.errors import CapExceeded, InvalidInput
from fractions import Fraction


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def test_fraction_io():
    assert parse_fraction("13/20") == Fraction(13, 20)
    assert parse_fraction("0.65") == Fraction(13, 20)
    assert frac_str(Fraction(3, 4)) == "3/4"
    with pytest.raises(InvalidInput):
        parse_fraction("three quarters")
    with pytest.raises(InvalidInput):
        parse_fraction("1/0")
    with pytest.raises(CapExceeded, match="too long to print"):
        frac_str(Fraction(1, 10 ** 4300))   # past Python's int-to-str limit


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_classical_value_exact(capsys):
    code, d = run_json(capsys, ["classical-value", "--p", "2", "--s", "1"])
    assert code == 0
    assert d["p_win"] == "3/4" and d["wins"] == 3 and d["method"] == "exact"


def test_classical_value_exact_q9(capsys):
    code, d = run_json(capsys, ["classical-value", "--p", "3", "--s", "2"])
    assert code == 0 and d["method"] == "exact" and d["wins"] == 29
    assert d["f"] == [0, 0, 0, 1, 3, 4, 3, 1, 4]


def test_exit_code_exact_over_cap(capsys):
    assert run(["classical-value", "--p", "11"]) == 4
    assert "capped at q <= 9" in capsys.readouterr().err


def test_classical_value_search(capsys):
    code, d = run_json(capsys, ["classical-value", "--p", "3", "--s", "1",
                                "--search", "--seed", "1", "--restarts", "6"])
    assert code == 0
    assert d["method"] == "search" and d["p_win"] == "2/3"


def test_construct_then_incidences(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    code = run(["construct", "--kind", "subfield", "--p", "3", "--s", "2",
                "--out", str(cfg)])
    assert code == 0
    capsys.readouterr()
    code, d = run_json(capsys, ["incidences", "--in", str(cfg)])
    assert code == 0
    assert d["incidences"] == 27 and d["q"] == 9


def test_config_json_schema(tmp_path):
    cfg = tmp_path / "c.json"
    run(["construct", "--kind", "grid", "--p", "101", "--s", "1",
         "--out", str(cfg)])
    d = json.loads(cfg.read_text())
    assert d["schema"] == "chshq/1" and d["kind"] == "grid"
    assert all(len(pt) == 2 for pt in d["points"])


def test_regularize_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    reg = tmp_path / "r.json"
    run(["construct", "--kind", "subfield", "--p", "3", "--s", "2",
         "--out", str(cfg)])
    code = run(["regularize", "--in", str(cfg), "--seed", "4",
                "--out", str(reg)])
    assert code == 0
    capsys.readouterr()
    code, d = run_json(capsys, ["incidences", "--in", str(reg)])
    assert code == 0
    assert d["legal"] is True
    stats = json.loads(reg.read_text())["stats"]
    assert d["incidences"] == stats["kept_incidences"]


def test_box_compose(capsys):
    code, d = run_json(capsys, ["box", "compose", "--q", "3", "--E", "1/2",
                                "--m", "2"])
    assert code == 0
    assert d["bias"] == "1/4"


def test_box_distribute(capsys):
    code, d = run_json(capsys, ["box", "distribute", "--q", "5",
                                "--E", "0.5"])
    assert code == 0
    assert d["E_dist"] == "1/4"


def test_ic_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(["ic-sweep", "--p", "3", "--s", "1", "--E", "1/2",
                "--m-max", "5", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# schema=chshq/1")
    assert lines[1] == "m,n_indices,per_index_mi,total,verdict"
    assert len(lines) == 2 + 4   # m = 2..5
    assert lines[-1].endswith("bounded")


def test_fourier_verify(capsys):
    code, d = run_json(capsys, ["fourier", "verify", "--p", "2", "--s", "2",
                                "--n", "3", "--trials", "25", "--seed", "2"])
    assert code == 0
    assert d["all_within_bound"] is True and d["max_sum"] <= d["bound"]


def test_fourier_maximize(capsys):
    code, d = run_json(capsys, ["fourier", "maximize", "--p", "3", "--s", "1",
                                "--n", "3", "--rounds", "40"])
    assert code == 0
    assert d["ratio"] >= 0.999


def test_csv_format_option(capsys):
    code = run(["classical-value", "--p", "2", "--s", "1", "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "key,value"
    assert any(row == "p_win,3/4" for row in out)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_exit_code_invalid_input(capsys):
    assert run(["classical-value", "--p", "6", "--s", "1"]) == 2
    assert "prime" in capsys.readouterr().err


def test_exit_code_cap(capsys):
    assert run(["classical-value", "--p", "2", "--s", "17"]) == 4
    capsys.readouterr()


def test_exit_code_huge_extension_degree(capsys):
    # refused before p ** s, which would not finish
    assert run(["classical-value", "--p", "2", "--s", str(10 ** 20)]) == 4
    assert "exceeds the supported cap" in capsys.readouterr().err


def test_exit_code_missing_file(capsys):
    assert run(["incidences", "--in", "/nonexistent/x.json"]) == 2
    capsys.readouterr()


def test_exit_code_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "chshq/1", "q": 4,
                               "points": [[9, 0]], "lines": []}))
    assert run(["incidences", "--in", str(bad)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["incidences", "regularize"])
@pytest.mark.parametrize("value", [10 ** 30, -1, -(10 ** 30), 2 ** 63])
@pytest.mark.parametrize("slot, message", [
    ("points", "point coordinates outside the field"),
    ("lines", "line parameters outside the field"),
])
def test_exit_code_coordinate_out_of_range(tmp_path, capsys, command, value, slot, message):
    # refused by the range check before the config is normalized in numpy,
    # so no coordinate can overflow an integer array
    d = {"q": 5, "points": [[1, 2]], "lines": [[0, 3]]}
    d[slot] = [[3, 4], [0, value]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    assert run([command, "--in", str(bad)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["incidences", "regularize"])
@pytest.mark.parametrize("content, message", [
    (b"{bad", "not valid JSON"),
    (b"\xff\xfe{", "not valid JSON"),
    (b"", "not valid JSON"),
    (b'{"q": 1e400, "points": [], "lines": []}', "not an integer"),
    (b'{"q": 4.7, "points": [], "lines": []}', "not an integer"),
    (b'{"q": true, "points": [], "lines": []}', "not an integer"),
    (b'{"q": 5, "points": [[1.9, 0]], "lines": []}', "not an integer"),
    (b'{"q": 5, "points": [], "lines": [[0, false]]}', "not an integer"),
    (b'{"q": 5, "points": [[1, 2, 3]], "lines": []}', "malformed config json"),
    (b'{"q": 5, "points": [1], "lines": []}', "malformed config json"),
    (b"[]", "malformed config json"),
    (b"[" * 100000 + b"]" * 100000, "nests JSON too deeply"),
], ids=["syntax", "not-utf8", "empty", "q-overflow", "q-fraction", "q-bool",
        "point-fraction", "line-bool", "point-triple", "point-scalar",
        "not-object", "nested-too-deep"])
def test_exit_code_malformed_json(tmp_path, capsys, command, content, message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert run([command, "--in", str(bad)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["incidences", "regularize", "box"])
def test_exit_code_q_far_over_cap(tmp_path, capsys, command):
    # refused before factoring q, which would not finish by trial division
    q = 10 ** 30 + 57
    if command == "box":
        argv = ["box", "compose", "--q", str(q), "--E", "1/2", "--m", "2"]
    else:
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps({"q": q, "points": [], "lines": []}))
        argv = [command, "--in", str(cfg)]
    assert run(argv) == 4
    assert "exceeds the supported cap" in capsys.readouterr().err


def test_exit_code_zero_restarts(capsys):
    assert run(["classical-value", "--p", "3", "--search",
                "--restarts", "0"]) == 2
    assert "restarts" in capsys.readouterr().err


@pytest.mark.parametrize("rounds", ["0", "-3"])
def test_exit_code_nonpositive_max_rounds(capsys, rounds):
    assert run(["classical-value", "--p", "3", "--search",
                "--max-rounds", rounds]) == 2
    assert "max_rounds" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["fourier", "verify", "--p", "3", "--n", "-1"],
    ["fourier", "verify", "--p", "3", "--n", "0"],
    ["fourier", "maximize", "--p", "3", "--n", "-1"],
    ["fourier", "maximize", "--p", "3", "--n", "0"],
    ["fourier", "verify", "--p", "3", "--trials", "-3"],
    ["fourier", "verify", "--p", "3", "--trials", "0"],
], ids=["verify-n-neg", "verify-n-zero", "maximize-n-neg", "maximize-n-zero",
        "verify-trials-neg", "verify-trials-zero"])
def test_exit_code_fourier_bad_sizes(capsys, argv):
    assert run(argv) == 2
    assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["fourier", "verify", "--p", "3", "--n", "100000000", "--trials", "1"],
     "capped at q * n <= 16777216"),
    (["fourier", "maximize", "--p", "3", "--n", "100000000", "--rounds", "1"],
     "capped at q * n <= 16777216"),
], ids=["verify-n1e8", "maximize-n1e8"])
def test_exit_code_fourier_over_cap(capsys, argv, message):
    # refused before the (2, q, n) family (4.5 GiB at q = 3, n = 1e8) is built
    assert run(argv) == 4
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv,key", [
    (["fourier", "verify", "--p", "2", "--s", "16", "--n", "4", "--trials", "3"], "max_sum"),
    (["fourier", "verify", "--p", "2", "--s", "16", "--n", "1", "--trials", "1"], "max_sum"),
    (["fourier", "maximize", "--p", "3", "--s", "10", "--n", "1", "--rounds", "1"], "value"),
], ids=["verify-q65536-n4", "verify-q65536", "maximize-q59049"])
def test_fourier_at_large_q(capsys, argv, key):
    # the character transform builds no q x q kernel or gram, so the probes run
    # past OP_TABLE_Q_CAP, and the paper's q^(3/2) bound holds there
    code, d = run_json(capsys, argv)
    assert code == 0
    assert d["q"] > 4096
    assert 0 < d[key] <= d["bound"] == d["q"] ** 1.5


@pytest.mark.parametrize("argv", [
    ["ic-sweep", "--p", "2", "--s", "16", "--E", "1/2", "--m-max", "4"],
], ids=["ic-sweep-q65536"])
def test_exit_code_q_squared_pmf_work_over_cap(capsys, argv):
    # refused before a q x q joint table
    assert run(argv) == 4
    assert "capped at q <= 4096" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["box", "compose", "--q", "65536", "--E", "1/2", "--m", "2"],
    ["box", "distribute", "--q", "65536", "--E", "1/2"],
], ids=["compose-q65536", "distribute-q65536"])
def test_box_at_largest_q_prints_closed_form(capsys, argv):
    # regular errors compose in O(1), and the printed pmf is under PMF_TEXT_CAP
    code, d = run_json(capsys, argv)
    assert code == 0
    expect = compose_closed_form(65536, Fraction(1, 2), 2)
    assert d["pmf"] == [frac_str(p) for p in expect.probs]


@pytest.mark.parametrize("argv,message", [
    (["ic-sweep", "--p", "3", "--E", "1/2", "--m-min", "645", "--m-max", "648"],
     "exceeds float range"),
    (["box", "compose", "--q", "3", "--E", "13/20", "--m", "3400"],
     "more than 4300 digits"),
    (["box", "compose", "--q", "3", "--E", "1/2", "--m", "100000000"],
     "more than 4300 digits"),
], ids=["ic-sweep-m648", "compose-m3400", "compose-m1e8"])
def test_exit_code_large_m_over_cap(capsys, argv, message):
    # refused before the work: a float overflow in ic_sum, an unprintable
    # E^m, and 10^8 convolution steps
    start = time.perf_counter()
    assert run(argv) == 4
    assert time.perf_counter() - start < 5
    assert message in capsys.readouterr().err


def test_box_compose_bias_that_never_grows_at_huge_m(capsys):
    # E = 1 never reaches the digit cap; 10^8 sequential steps took about an hour
    start = time.perf_counter()
    code, d = run_json(capsys, ["box", "compose", "--q", "3", "--E", "1",
                                "--m", "100000000"])
    assert time.perf_counter() - start < 1
    assert code == 0
    assert d["pmf"] == ["1/1", "0/1", "0/1"] and d["bias"] == "1/1"


# `box compose --q 5 --E 13/20 --m 3` and `box distribute --q 9 --E 1/2`,
# byte for byte, frozen while ErrorDist still held q entries
BOX_GOLDEN = {
    ("compose", "json"): '''\
{
  "E": "13/20",
  "bias": "2197/8000",
  "m": 3,
  "p_win": "4197/10000",
  "pmf": [
    "4197/10000",
    "5803/40000",
    "5803/40000",
    "5803/40000",
    "5803/40000"
  ],
  "q": 5,
  "schema": "chshq/1"
}
''',
    ("compose", "csv"): '''\
key,value
E,13/20
bias,2197/8000
m,3
p_win,4197/10000
pmf,"[""4197/10000"", ""5803/40000"", ""5803/40000"", ""5803/40000"", ""5803/40000""]"
q,5
schema,chshq/1
''',
    ("distribute", "json"): '''\
{
  "E": "1/2",
  "E_dist": "1/4",
  "p_win_dist": "1/3",
  "pmf": [
    "1/3",
    "1/12",
    "1/12",
    "1/12",
    "1/12",
    "1/12",
    "1/12",
    "1/12",
    "1/12"
  ],
  "q": 9,
  "schema": "chshq/1"
}
''',
    ("distribute", "csv"): '''\
key,value
E,1/2
E_dist,1/4
p_win_dist,1/3
pmf,"[""1/3"", ""1/12"", ""1/12"", ""1/12"", ""1/12"", ""1/12"", ""1/12"", ""1/12"", ""1/12""]"
q,9
schema,chshq/1
''',
}


@pytest.mark.parametrize("command,fmt", sorted(BOX_GOLDEN))
def test_box_output_bytes(capsys, command, fmt):
    argv = (["box", "compose", "--q", "5", "--E", "13/20", "--m", "3"]
            if command == "compose" else
            ["box", "distribute", "--q", "9", "--E", "1/2"])
    assert run(argv + ["--format", fmt]) == 0
    assert capsys.readouterr().out == BOX_GOLDEN[command, fmt]


@pytest.mark.parametrize("q", ["16384", "65536"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_exit_code_box_pmf_text_over_cap(capsys, q, fmt):
    # uncapped, q = 16384 would write 128 MB of JSON
    start = time.perf_counter()
    assert run(["box", "compose", "--q", q, "--E", "13/20", "--m", "3000",
                "--format", fmt]) == 4
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"exceeds {PMF_TEXT_CAP} characters" in captured.err


def test_pmf_text_cap_boundary(monkeypatch):
    d = compose_closed_form(5, Fraction(13, 20), 3)    # 10 + 4 * 10 characters
    monkeypatch.setattr(cli, "PMF_TEXT_CAP", 50)
    assert pmf_strs(d) == ["4197/10000"] + ["5803/40000"] * 4
    monkeypatch.setattr(cli, "PMF_TEXT_CAP", 49)
    with pytest.raises(CapExceeded, match="exceeds 49 characters"):
        pmf_strs(d)


def test_box_compose_long_exact_power(capsys):
    # E^3000 at 13/20 has 3904 digits, under the 4300-digit print limit
    code, d = run_json(capsys, ["box", "compose", "--q", "3", "--E", "13/20",
                                "--m", "3000"])
    assert code == 0
    expect = compose_closed_form(3, Fraction(13, 20), 3000)
    assert d["pmf"] == [frac_str(p) for p in expect.probs]
    assert d["bias"] == frac_str(Fraction(13, 20) ** 3000)


def test_exit_code_local_search_over_op_table_cap(capsys):
    # refused before the (65536, 65536) op tables (32 GiB) are built
    argv = ["classical-value", "--p", "2", "--s", "16", "--search",
            "--restarts", "1", "--max-rounds", "1"]
    assert run(argv) == 4
    assert "capped at q <= 4096" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "maximize"])
def test_exit_code_fourier_negative_seed(capsys, command):
    # numpy's generators refuse negative seeds with a ValueError
    assert run(["fourier", command, "--p", "3", "--n", "2", "--seed", "-1"]) == 2
    assert "seed = -1 must be >= 0" in capsys.readouterr().err


def test_fourier_verify_sums_once_per_trial(monkeypatch, capsys):
    calls = []
    real = fourier.character_bilinear_sum

    def counted(field, fam):
        calls.append(1)
        return real(field, fam)
    monkeypatch.setattr(fourier, "character_bilinear_sum", counted)
    code, d = run_json(capsys, ["fourier", "verify", "--p", "3", "--n", "2",
                                "--trials", "5"])
    assert code == 0 and d["all_within_bound"] is True
    assert len(calls) == 5


# ---------------------------------------------------------------------------
# fuzz: the exit-code contract holds on any argv
# ---------------------------------------------------------------------------

# each subcommand with its own flags; --help is the one flag no entry lists
FUZZ_COMMANDS = {
    ("classical-value",): ["--p", "--s", "--search", "--seed", "--restarts",
                           "--max-rounds", "--out", "--format"],
    ("construct",): ["--kind", "--p", "--s", "--seed", "--out", "--format"],
    ("incidences",): ["--in", "--out", "--format"],
    ("regularize",): ["--in", "--seed", "--out", "--format"],
    ("box", "compose"): ["--q", "--E", "--m", "--out", "--format"],
    ("box", "distribute"): ["--q", "--E", "--out", "--format"],
    ("ic-sweep",): ["--p", "--s", "--E", "--m-min", "--m-max", "--out"],
    ("fourier", "verify"): ["--p", "--s", "--n", "--trials", "--seed", "--out",
                            "--format"],
    ("fourier", "maximize"): ["--p", "--s", "--n", "--rounds", "--seed", "--out",
                              "--format"],
    ("report",): ["--all", "--seed", "--out"],
}
FUZZ_FLAGS = sorted({f for flags in FUZZ_COMMANDS.values() for f in flags}
                    | {"--help"})
FUZZ_WALL_S = 10.0

# flag values: a plausible one three times in four, else garbage.  Sizes
# stay in [-1, 4] and --p in {2, 3}, so an accepted run is small: q <= 3^4,
# and m, n, trials, rounds and restarts are at most 4
fuzz_plausible = {
    "--p": st.sampled_from(["2", "3"]),
    "--q": st.sampled_from(["2", "3", "4", "5", "7", "8", "9"]),
    "--E": st.sampled_from(["0", "1/2", "13/20", "0.65", "1", "3/2", "-1/3",
                            "1/0"]),
    "--kind": st.sampled_from(["subfield", "grid", "subspace"]),
    "--format": st.sampled_from(["json", "csv"]),
}
fuzz_sizes = st.integers(-1, 4).map(str)


def not_an_int(text: str) -> bool:
    # garbage text must not parse as a size, which could be large
    try:
        int(text)
    except ValueError:
        return True
    return False


fuzz_garbage = st.one_of(
    st.sampled_from(["", "1e400", "nan", "0x10", "2**3", "1.5", "-", "\uff11"]),
    st.text(max_size=6).filter(not_an_int))
json_scalars = st.one_of(st.none(), st.booleans(), st.integers(-1, 10),
                         st.floats(), st.text(max_size=3))
json_pairs = st.lists(st.one_of(st.lists(st.integers(-1, 9), max_size=3),
                                json_scalars), max_size=6)


@st.composite
def legal_config_json(draw):
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    pairs = st.lists(st.lists(st.integers(0, q - 1), min_size=2, max_size=2),
                     max_size=2 * q)
    return {"q": q, "points": draw(pairs), "lines": draw(pairs)}


fuzz_files = st.one_of(
    legal_config_json().map(lambda d: json.dumps(d).encode()),
    st.fixed_dictionaries({}, optional={"q": json_scalars, "points": json_pairs,
                                        "lines": json_pairs}
                          ).map(lambda d: json.dumps(d).encode()),
    st.binary(max_size=30))


def often(data, n=4):
    """True about n - 1 times in n."""
    return data.draw(st.sampled_from([True] * (n - 1) + [False]))


def mostly(data, usual, other):
    return data.draw(usual if often(data) else other)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_exit_codes_on_fuzzed_argv(tmp_path, data):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(data.draw(fuzz_files))
    paths = {"--in": (cfg, [tmp_path, tmp_path / "missing.json"]),
             "--out": (tmp_path / "out", [tmp_path, tmp_path / "missing" / "x"])}
    command = data.draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    flags = [f for f in FUZZ_COMMANDS[command] if often(data, 8)]
    if not often(data, 8):
        command = command[:-1]                # a bare group, or no command
    argv = list(command)
    for flag in flags + data.draw(st.lists(st.sampled_from(FUZZ_FLAGS), max_size=1)):
        argv.append(flag)
        if flag in paths:
            good, bad = paths[flag]
            argv.append(str(mostly(data, st.just(good), st.sampled_from(bad))))
        elif flag not in ("--search", "--all", "--help"):
            argv.append(mostly(data, fuzz_plausible.get(flag, fuzz_sizes), fuzz_garbage))
    start = time.perf_counter()
    try:
        code = run(argv)
    except SystemExit as e:   # argparse: 2 on a usage error, 0 after --help
        code = e.code
    assert code in (0, 2, 3, 4), argv
    assert time.perf_counter() - start < FUZZ_WALL_S, argv


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_report_is_byte_identical(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert run(["report", "--all", "--seed", "7", "--out", str(d1)]) == 0
    assert run(["report", "--all", "--seed", "7", "--out", str(d2)]) == 0
    capsys.readouterr()
    names = ["classical_values.csv", "tsirelson.csv", "constructions.csv",
             "ic_sweep.csv"]
    for name in names:
        a, b = (d1 / name).read_bytes(), (d2 / name).read_bytes()
        assert a == b and a


def test_report_tables_content(tmp_path, capsys):
    out = tmp_path / "rep"
    run(["report", "--all", "--seed", "7", "--out", str(out)])
    capsys.readouterr()
    cls = (out / "classical_values.csv").read_text().splitlines()
    assert "2,2,1,3,3/4,1/2,0 0,0 0" in cls
    assert any(row.startswith("7,7,1,19,19/49") for row in cls)
    cons = (out / "constructions.csv").read_text().splitlines()
    assert "subfield,9,9,9,27" in cons
    assert "grid,1009,1000,250,2500" in cons
    assert any(row.startswith("subspace,243") and row.endswith("2187")
               for row in cons)
