"""Command line interface: documents, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time

import pytest

from xfan import cli, enumerate_pattern, locate, mutate, validate
from xfan.jsonio import MAX_DIGITS, decode_matrix

B_A3 = {"B": [[0, 1, 0], [-1, 0, -1], [0, 1, 0]]}
B_KRONECKER = {"B": [[0, 2], [-2, 0]]}
B_MARKOV = {"B": [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]}


def _run(args, stdin=None, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "xfan.cli", *args],
        capture_output=True,
        text=True,
        input=stdin,
        timeout=timeout,
    )


def _b_file(tmp_path, doc, name="b.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _canonical(text):
    return json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))


def test_validate(tmp_path):
    p = _run(["validate", "--B", _b_file(tmp_path, B_A3)])
    assert p.returncode == 0
    assert json.loads(p.stdout) == {"ok": True, "n": 3, "d": [1, 1, 1], "skew_symmetric": True}


def test_output_is_compact_and_sorted(tmp_path):
    p = _run(["cone", "--B", _b_file(tmp_path, B_A3), "--seq", "1,3"])
    assert p.returncode == 0
    assert p.stdout.strip() == _canonical(p.stdout)


def test_stdin_input():
    p = _run(["validate", "--B", "-"], stdin=json.dumps(B_KRONECKER))
    assert p.returncode == 0
    assert json.loads(p.stdout)["d"] == [1, 1]


def test_mutate(tmp_path):
    p = _run(["mutate", "--B", _b_file(tmp_path, B_A3), "--seq", "1,3"])
    doc = json.loads(p.stdout)
    assert doc == {
        "history": [1, 3],
        "B": [[0, -1, 0], [1, 0, 1], [0, -1, 0]],
        "d": [1, 1, 1],
    }


def test_cmatrix_gmatrix_fpoly(tmp_path):
    b = _b_file(tmp_path, B_A3)
    cm = json.loads(_run(["cmatrix", "--B", b, "--seq", "1,3"]).stdout)
    assert cm["C_t"] == [[-1, 1, 0], [0, 1, 0], [0, 1, -1]]
    assert cm["B_t"] == [[0, -1, 0], [1, 0, 1], [0, -1, 0]]
    gm = json.loads(_run(["gmatrix", "--B", b, "--seq", "1,3"]).stdout)
    assert gm["G_t"] == [[-1, 0, 0], [1, 1, 1], [0, 0, -1]]
    assert gm["C_t"] == cm["C_t"]
    fp = json.loads(_run(["fpoly", "--B", b, "--seq", "1,3"]).stdout)
    assert fp["F_t"] == [
        [{"coeff": 1, "exponents": [0, 0, 0]}, {"coeff": 1, "exponents": [1, 0, 0]}],
        [{"coeff": 1, "exponents": [0, 0, 0]}],
        [{"coeff": 1, "exponents": [0, 0, 0]}, {"coeff": 1, "exponents": [0, 0, 1]}],
    ]


def test_cone_document(tmp_path):
    p = _run(["cone", "--B", _b_file(tmp_path, B_A3), "--seq", "1,3"])
    doc = json.loads(p.stdout)
    assert doc == {
        "history": [1, 3],
        "rows": [[0, -1, 0], [-1, 2, -1], [0, -1, 0]],
        "implicit": [],
        "strict": [1, 2, 3],
        "dim": 3,
        "lineality": [[1, 0, -1]],
        "facets": [
            {"normal": [0, -1, 0], "representative": 1, "supporting": [1, 3]},
            {"normal": [-1, 2, -1], "representative": 2, "supporting": [2]},
        ],
    }


def test_fan_document(tmp_path):
    p = _run(["fan", "--B", _b_file(tmp_path, B_A3), "--exhaustive"])
    doc = json.loads(p.stdout)
    assert doc["complete"] is True
    assert doc["nodes"] == 84
    assert doc["depth"] == 10
    assert doc["seed_classes"] == 14
    assert doc["dims"] == {"3": 6, "2": 3, "1": 1}
    assert len(doc["cones"]) == 10
    for cone in doc["cones"]:
        assert set(cone) == {"dim", "facets", "implicit", "lineality", "rows", "strict", "witnesses"}
    assert sum(len(c["witnesses"]) for c in doc["cones"]) == 84


def test_fan_emit_rays(tmp_path):
    p = _run(["fan", "--B", _b_file(tmp_path, B_KRONECKER), "--depth", "2", "--emit-rays"])
    doc = json.loads(p.stdout)
    assert doc["complete"] is False
    root = doc["cones"][0]
    assert root["rays"] == [[-1, 0], [0, 1]]


def _quiver(n, arrows):
    """Exchange matrix of a quiver given by its 1-based arrows i -> j."""
    rows = [[0] * n for _ in range(n)]
    for i, j in arrows:
        rows[i - 1][j - 1], rows[j - 1][i - 1] = 1, -1
    return rows


@pytest.mark.parametrize(
    "rows, digest",
    [
        (
            _quiver(5, [(1, 2), (2, 3), (3, 4), (4, 5)]),
            "0077b17ab261c67f179b262febcf0a3935972a010fe419150451bc1114148366",
        ),
        (
            _quiver(5, [(1, 2), (2, 3), (3, 4), (3, 5)]),
            "5fa0c3dfe49b286fba61f490c664324d7dac73d7f5f7eeea0435d92e4b645b5d",
        ),
    ],
    ids=["A5", "D5"],
)
def test_exhaustive_fan_document_bytes(rows, digest):
    # 15840 and 21840 labelled nodes over 132 and 182 seeds
    p = _run(["fan", "--B", "-", "--exhaustive", "--emit-rays"], stdin=json.dumps({"B": rows}))
    assert p.returncode == 0
    assert hashlib.sha256(p.stdout.encode()).hexdigest() == digest


def test_facet_of_strict_rows_agreeing_on_the_span(tmp_path):
    # Rows 1 and 4 differ in direction but agree modulo the implicit rows'
    # span: together they support the cone's one facet.
    seed = _b_file(tmp_path, {"B": [[0, -1, 0, 1], [1, 0, -1, -2], [0, 1, 0, -1], [-1, 2, 1, 0]]})
    doc = json.loads(_run(["cone", "--B", seed, "--seq", "2,1"]).stdout)
    assert doc["dim"] == 3
    assert doc["implicit"] == [2, 3]
    assert doc["facets"] == [{"normal": [-1, 1, 1, 1], "representative": 1, "supporting": [1, 4]}]
    fan = json.loads(_run(["fan", "--B", seed, "--depth", "4", "--emit-rays"]).stdout)
    (cone,) = [c for c in fan["cones"] if [2, 1] in c["witnesses"]]
    assert cone["rays"] == [[-1, 1, 1, 1]]


def test_theta_document(tmp_path):
    p = _run(["theta", "--B", _b_file(tmp_path, B_A3), "--beta", "[-1,-1,-1]"])
    doc = json.loads(p.stdout)
    assert doc == {
        "beta": [-1, -1, -1],
        "witness": [1, 3],
        "alpha": [1, 0, 1],
        "value": [
            {"coeff": 1, "exponents": [-1, -1, -1]},
            {"coeff": 1, "exponents": [-1, -1, 0]},
            {"coeff": 1, "exponents": [0, -1, -1]},
            {"coeff": 1, "exponents": [0, -1, 0]},
        ],
    }


def test_ar_document(tmp_path):
    p = _run(["ar", "--B", _b_file(tmp_path, B_A3)])
    doc = json.loads(p.stdout)
    assert doc["exhaustive"] is True
    assert doc["modules"] == [[0, 0, 1], [0, 1, 0], [0, 1, 1], [1, 0, 0], [1, 1, 0], [1, 1, 1]]
    assert {"slice": 0, "vertex": 1, "dim": [1, 0, 0]} in doc["positions"]
    assert doc["meshes"][0] == {"source": [0, 1], "middles": [[0, 2]], "target": [1, 1]}


def test_ar_document_of_a_disconnected_quiver(tmp_path):
    # A1 + A2: vertex 1 stops at slice 1, vertices 2 and 3 at slice 2, so
    # P1[2] = tau^-2 P1 on slice 2 is never listed as a module position
    p = _run(["ar", "--B", _b_file(tmp_path, {"B": [[0, 0, 0], [0, 0, 1], [0, -1, 0]]})])
    assert p.returncode == 0
    assert p.stdout == (
        '{"exhaustive":true,"meshes":['
        '{"middles":[],"source":[0,1],"target":[1,1]},'
        '{"middles":[[0,3]],"source":[0,2],"target":[1,2]},'
        '{"middles":[[1,2]],"source":[0,3],"target":[1,3]},'
        '{"middles":[[1,3]],"source":[1,2],"target":[2,2]},'
        '{"middles":[[2,2]],"source":[1,3],"target":[2,3]}],'
        '"modules":[[0,0,1],[0,1,0],[0,1,1],[1,0,0]],"positions":['
        '{"dim":[1,0,0],"slice":0,"vertex":1},{"dim":[0,1,0],"slice":0,"vertex":2},'
        '{"dim":[0,1,1],"slice":0,"vertex":3},{"dim":[-1,0,0],"slice":1,"vertex":1},'
        '{"dim":[0,0,1],"slice":1,"vertex":2},{"dim":[0,-1,0],"slice":1,"vertex":3},'
        '{"dim":[0,-1,-1],"slice":2,"vertex":2},{"dim":[0,0,-1],"slice":2,"vertex":3}]}\n'
    )


def test_ar_window(tmp_path):
    p = _run(["ar", "--B", _b_file(tmp_path, B_KRONECKER), "--window", "3"])
    doc = json.loads(p.stdout)
    assert doc["exhaustive"] is False
    assert [1, 0] in doc["modules"] and [2, 1] in doc["modules"]


def test_normals_document(tmp_path):
    p = _run(["normals", "--B", _b_file(tmp_path, B_A3), "--cvec", "[1,1,1]"])
    doc = json.loads(p.stdout)
    assert doc == {
        "cvec": [1, 1, 1],
        "normal": [-1, 2, -1],
        "primitive": [-1, 2, -1],
        "mesh_checked": True,
    }


def test_certify_document(tmp_path):
    p = _run(["certify", "--B", _b_file(tmp_path, B_A3), "--seq", "1,3"])
    doc = json.loads(p.stdout)
    assert doc == {
        "history": [1, 3],
        "cvectors": [[-1, 0, 0], [1, 1, 1], [0, 0, -1]],
        "certificates": [],
    }


def test_certify_finds_pair(tmp_path):
    b = _b_file(tmp_path, {"B": [[0, 0, -1], [0, 0, 1], [1, -1, 0]]})
    p = _run(["certify", "--B", b])
    doc = json.loads(p.stdout)
    assert doc["history"] == []
    assert doc["certificates"] == [{"columns": [1, 2], "lambda": [1, 1]}]


def test_big_integers_round_trip(tmp_path):
    # the second input carries the string "-12345678901234567890"
    for huge in (2 ** 60, 12345678901234567890):
        b = _b_file(tmp_path, {"B": [["0", str(huge)], [str(-huge), "0"]]})
        p = _run(["mutate", "--B", b, "--seq", "1"])
        assert p.returncode == 0
        doc = json.loads(p.stdout)
        assert doc["B"] == [[0, str(-huge)], [str(huge), 0]]
        # strings only appear outside the exactly-representable range
        assert isinstance(doc["B"][0][0], int)
        assert isinstance(doc["B"][0][1], str)


def test_integers_past_the_interpreter_digit_limit_round_trip(tmp_path, capsys):
    # entries of about 9,000 digits; CPython's default int <-> str limit is 4,300
    rows = [[0, "9" * 3000, 0], ["-1", 0, 1], [0, -1, 0]]
    seq = (2, 1, 3, 2, 1)
    has_limit = hasattr(sys, "set_int_max_str_digits")  # CPython 3.11 and later
    limit = sys.get_int_max_str_digits() if has_limit else None
    argv = ["mutate", "--B", _b_file(tmp_path, {"B": rows}), "--seq", ",".join(map(str, seq))]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    if has_limit:
        # main restores the limit on return, so the test lifts it to decode
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
    try:
        doc = json.loads(out)
        em = validate([[int(x) for x in row] for row in rows])
        for k in seq:
            em = mutate(em, k)
        assert decode_matrix(doc["B"]) == em.B.entries
        assert doc["history"] == list(seq)
        assert max(len(x) for row in doc["B"] for x in row if isinstance(x, str)) > 4300
    finally:
        if has_limit:
            sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["validate", "--B", "-"], '{"B":' + "[" * 100000),
        (["theta", "--B", "-", "--beta", "[" * 100000], json.dumps(B_A3)),
        (["normals", "--B", "-", "--cvec", "[" * 100000], json.dumps(B_A3)),
    ],
    ids=["B", "beta", "cvec"],
)
def test_exit_one_on_deeply_nested_json(argv, stdin):
    p = _run(argv, stdin=stdin)
    assert p.returncode == 1
    assert p.stdout == ""
    assert len(p.stderr.splitlines()) == 1
    assert p.stderr.startswith("xfan: error:")
    assert len(p.stderr.encode()) < 200


@pytest.mark.parametrize(
    "argv",
    [
        ["theta", "--beta", "[1" * 50000],
        ["mutate", "--seq", "1," + "x" * 100000],
        ["fan", "--depth", "x" * 100000],
        ["ar", "--window", "1_" * 50000],
    ],
    ids=["beta", "seq", "depth", "window"],
)
def test_malformed_flag_messages_stay_short(tmp_path, capsys, argv):
    # the message quotes the first 40 characters and the length, not the argument
    assert cli.main([*argv, "--B", _b_file(tmp_path, B_A3)]) == 1
    err = capsys.readouterr().err
    assert len(err.encode()) < 200
    assert len(err.splitlines()) == 1
    assert "100000 characters" in err


TEN_FLAGS = ["--" + letter * 38 for letter in "abcdefghij"]
TEN_KEYS = {letter * 20: 1 for letter in "abcdefghij"}


@pytest.mark.parametrize(
    "argv, stated",
    [
        (["x" * 500], "... (500 characters)"),
        (["fan", "--B", "A3", "--bogus" + "z" * 300], "... (307 characters)"),
        (["fan", "--B", "A3", "--x" + "ab " * 100], "... (303 characters)"),
        # repr writes each ' as \', but the length stated is the argument's
        (["fan", "--B", "A3", "--x" + "ü\"'" * 100], "... (303 characters)"),
        (["fan", "--B", "A3", "--emit-rays=" + "y" * 300], "... (300 characters)"),
        (["validate", "--B", "/nonexistent/" + "p" * 250], "... (263 characters)"),
        (["validate", "--B", "KEY"], "... (300 characters)"),
        (["validate", "--B", "A3", *TEN_FLAGS], "... (message of 453 characters)"),
        (["validate", "--B", "KEYS"], "... (message of 260 characters)"),
    ],
    ids=[
        "command", "unknown-flag", "blanks", "escaped-quotes", "explicit-argument", "unreadable-file",
        "unknown-key", "ten-flags", "ten-keys",
    ],
)
def test_exit_one_lines_cut_long_runs(tmp_path, capsys, argv, stated):
    # an echoed argument, or a run of more than 40 non-blank characters, keeps its first 40 and its
    # length; a line still 200 bytes or longer keeps what fits and the message's length
    files = {
        "A3": _b_file(tmp_path, B_A3),
        "KEY": _b_file(tmp_path, {**B_A3, "k" * 300: 1}, "key.json"),
        "KEYS": _b_file(tmp_path, {**B_A3, **TEN_KEYS}, "keys.json"),
    }
    code = cli.main([files.get(arg, arg) for arg in argv])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("xfan: error: ") and len(err.splitlines()) == 1
    assert len(err.encode()) < 200
    assert stated in err


def test_one_parser_serves_every_job(tmp_path, capsys):
    # a command's parser is built by its first job in a process and reused, with the output of a fresh process
    b = _b_file(tmp_path, B_A3)
    jobs = [
        ["fan", "--B", b, "--exhaustive"],
        ["fan", "--B", b, "--bogus"],
        ["theta", "--B", b, "--beta", "[1,0,1]"],
        ["fan", "--B", b, "--depth", "2", "--emit-rays"],
    ]
    cli._parser.cache_clear()
    for argv in jobs:
        code = cli.main(argv)
        fresh = _run(argv)
        assert (code, *capsys.readouterr()) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert cli._parser.cache_info().misses == len({argv[0] for argv in jobs}) == 2


@pytest.mark.parametrize(
    "argv, code, built", [(["validate", "--B", "b.json"], 0, 1), (["bogus"], 1, 12)], ids=["command", "full"]
)
def test_a_job_builds_only_its_commands_parser(tmp_path, argv, code, built):
    # parsers counted by a wrapper around ArgumentParser.__init__, installed before xfan is imported: a
    # job builds its command's parser alone, and the full parser, with a subparser per command, only
    # when the first argument names no command
    (tmp_path / "b.json").write_text(json.dumps(B_A3))
    script = (
        "import argparse, sys; built = []; init = argparse.ArgumentParser.__init__;"
        " argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(self) or init(self, *a, **k);"
        " from xfan import cli; code = cli.main(sys.argv[1:]); print(code, len(built), file=sys.stderr)"
    )
    p = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, cwd=tmp_path)
    assert p.stderr.splitlines()[-1] == f"{code} {built}"


def test_import_builds_no_parser_and_loads_no_number_tower():
    # fractions and decimal cost milliseconds in every CLI process
    p = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, xfan.cli as cli;"
            " print(sorted({'fractions', 'decimal'} & set(sys.modules)), cli._parser.cache_info().currsize)",
        ],
        capture_output=True,
        text=True,
    )
    assert (p.returncode, p.stdout) == (0, "[] 0\n")


def test_exit_one_line_is_cut_in_linear_time(tmp_path, capsys):
    # argparse echoes an ambiguous option unquoted, escaped quotes included
    start = time.perf_counter()
    assert cli.main(["fan", "--B", _b_file(tmp_path, B_A3), "--e=" + '"\\' * 20000]) == 1
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("xfan: error: ambiguous option: ") and len(err.encode()) < 200


HELP = """usage: xfan [-h] command ...

Command-line interface.

positional arguments:
  command
    validate  check skew-symmetrizability, report d
    mutate    mutate the exchange matrix
    cmatrix   c-matrix of the seed at --seq
    gmatrix   g-matrix of the seed at --seq
    fpoly     F-polynomials of the seed at --seq
    cone      inequality system and cone of the seed at --seq
    fan       enumerate seeds, merge equal cones
    theta     theta function at an integral point
    ar        knit the AR quiver of an acyclic skew-symmetric seed
    normals   hyperplane normal of a positive c-vector
    certify   kernel certificates among the c-matrix columns at --seq

options:
  -h, --help  show this help message and exit
"""


COMMANDS = ["validate", "mutate", "cmatrix", "gmatrix", "fpoly", "cone", "fan", "theta", "ar", "normals", "certify"]


@pytest.mark.parametrize("command", ["", *COMMANDS])
def test_help_exits_zero(capsys, monkeypatch, command):
    # --help is the one way out of the parser that is not an exit-1 line; a job prints the help of
    # its command's own parser, which is the full parser's help for that command, byte for byte
    monkeypatch.setenv("COLUMNS", "80")
    argv = [command, "--help"] if command else ["--help"]
    printed = []
    for parse in (cli.main, cli._parser(None).parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, err) == (0, "")
        printed.append(out)
    assert printed[0] == printed[1] == cli._parser(command or None).format_help()
    if command:
        assert printed[0].startswith(f"usage: xfan {command} [-h] --B FILE")
    else:
        assert printed[0] == HELP


@pytest.mark.parametrize(
    "rest",
    [
        ["--B", "b.json", "--bogus"],
        ["--B", "b.json", "--e"],
        ["--B", "b.json", "--seq", "1,x"],
        ["--seq", "1"],
        ["--B", "b.json", "a word"],
        ["--B", "b.json", "-h=1"],
    ],
    ids=["unknown-flag", "ambiguous", "bad-seq", "missing-B", "stray-word", "help-with-value"],
)
@pytest.mark.parametrize("command", COMMANDS)
def test_command_parser_fails_as_the_full_parser(capsys, command, rest):
    # the same message, so the same exit-1 line, whether the command's own parser or the full one reads it
    messages = []
    for parse, argv in ((cli._parser(command).parse_args, rest), (cli._parser(None).parse_args, [command, *rest])):
        with pytest.raises(ValueError) as exc:
            parse(argv)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert cli.main([command, *rest]) == 1
    assert capsys.readouterr() == ("", f"xfan: error: {messages[0]}\n")


WELL_FORMED = {
    "validate": ["--B", "b.json"],
    "fan": ["--B", "b.json", "--depth", "2", "--emit-rays"],
    "theta": ["--beta", "[1,0,1]", "--exhaustive", "--B", "b.json"],
    "ar": ["--B", "b.json", "--window", "4"],
    "normals": ["--cvec", "[1,0,0]", "--B=-", "--window", "2"],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_command_parser_reads_as_the_full_parser(command):
    rest = WELL_FORMED.get(command, ["--B", "-", "--seq", "1,3"])
    assert cli._parser(command).parse_args(rest) == cli._parser(None).parse_args([command, *rest])


def test_a_leading_double_dash_goes_to_the_full_parser(tmp_path, capsys):
    # "--" names no command, so the full parser reads the arguments, and takes "--" for the command
    cli._parser.cache_clear()
    assert cli.main(["--", "fan", "--B", _b_file(tmp_path, B_A3)]) == 1
    choices = ", ".join(map(repr, COMMANDS))
    assert capsys.readouterr() == ("", f"xfan: error: argument command: invalid choice: '--' (choose from {choices})\n")
    cli._parser(None)  # built by the job, so read from the cache
    assert cli._parser.cache_info()[:2] == (1, 1)  # hits, misses


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fan", "--depth", "-1"], "max_depth must be nonnegative or None"),
        (["theta", "--beta", "[1,0,0]", "--depth", "-1"], "max_depth must be nonnegative or None"),
        (["ar", "--window", "-1"], "window must be nonnegative"),
        (["normals", "--cvec", "[1,0,0]", "--window", "-1"], "window must be nonnegative"),
        (["theta", "--beta", '{"a": 1}'], "expected a JSON array of integers"),
        (["normals", "--cvec", "1"], "expected a JSON array of integers"),
    ],
    ids=["fan-depth", "theta-depth", "ar-window", "normals-window", "beta-object", "cvec-number"],
)
def test_exit_one_on_flags_the_library_rejects(tmp_path, capsys, argv, message):
    assert cli.main([*argv, "--B", _b_file(tmp_path, B_A3)]) == 1
    assert capsys.readouterr() == ("", f"xfan: error: {message}\n")


@pytest.mark.parametrize("d", [[1], [1, 0]], ids=["short", "zero"])
def test_exit_two_on_a_malformed_supplied_symmetrizer(tmp_path, capsys, d):
    assert cli.main(["validate", "--B", _b_file(tmp_path, {"B": [[0, 1], [-1, 0]], "d": d})]) == 2
    expected = '{"error":"NotSkewSymmetrizable","message":"supplied d must be n positive integers"}\n'
    assert capsys.readouterr().out == expected


def test_normals_checks_the_mesh_only_inside_the_window(tmp_path, capsys):
    b = _b_file(tmp_path, B_A3)
    for window, checked in (("0", False), ("1", True)):
        assert cli.main(["normals", "--B", b, "--cvec", "[1,0,0]", "--window", window]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"cvec": [1, 0, 0], "mesh_checked": checked, "normal": [0, 1, 0], "primitive": [0, 1, 0]}


@pytest.mark.parametrize("argv", [["ar"], ["normals", "--cvec", "[1,0,0]"]], ids=["ar", "normals"])
def test_exit_three_at_the_window_cap(tmp_path, argv):
    # 3 * (10**100 + 1) positions: refused before knitting, with their count; a child
    # process, so that a knit without the cap is killed at the timeout
    start = time.perf_counter()
    p = _run([*argv, "--window", str(10**100), "--B", _b_file(tmp_path, B_A3)], timeout=10)
    assert time.perf_counter() - start < 1
    assert (p.returncode, p.stderr) == (3, "")
    assert json.loads(p.stdout) == {
        "error": "ExhaustionCapExceeded",
        "message": f"a window of {3 * (10**100 + 1)} positions exceeds 1000000",
    }


@pytest.mark.parametrize(
    "name, argv",
    [
        ("enumerate_pattern", ["fan"]),
        ("enumerate_pattern", ["theta", "--beta", "[1,0,0]"]),
        ("knit", ["ar"]),
        ("knit", ["normals", "--cvec", "[1,0,0]"]),
    ],
    ids=["fan", "theta", "ar", "normals"],
)
def test_exit_three_when_a_job_runs_out_of_memory(tmp_path, capsys, monkeypatch, name, argv):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, name, exhausted)
    assert cli.main([*argv, "--B", _b_file(tmp_path, B_A3)]) == 3
    assert capsys.readouterr() == (
        '{"error":"ExhaustionCapExceeded","message":"the job ran out of memory","reason":"out_of_memory"}\n',
        "",
    )


def _digits_seed(tmp_path, digits, as_string):
    big = "9" * digits
    entry = f'"{big}"' if as_string else big
    path = tmp_path / "big.json"
    path.write_text('{"B": [[0, %s], [-%s, 0]]}' % (entry, entry.replace('"', "")))
    return str(path)


@pytest.mark.parametrize("as_string", [True, False], ids=["decimal-string", "json-number"])
def test_input_digit_bound(tmp_path, as_string):
    p = _run(["validate", "--B", _digits_seed(tmp_path, MAX_DIGITS, as_string)], timeout=30)
    assert p.returncode == 0
    assert json.loads(p.stdout)["d"] == [1, 1]
    start = time.perf_counter()
    p = _run(["validate", "--B", _digits_seed(tmp_path, MAX_DIGITS + 1, as_string)], timeout=30)
    assert time.perf_counter() - start < 1
    assert p.returncode == 1
    assert p.stdout == ""
    assert p.stderr == f"xfan: error: integer of {MAX_DIGITS + 1} digits exceeds the {MAX_DIGITS}-digit input bound\n"


@pytest.mark.parametrize(
    "argv",
    [["mutate", "--seq", "1,{}"], ["fan", "--depth", "{}"], ["ar", "--window", "{}"],
     ["theta", "--beta", "[{},0,0]"], ["normals", "--cvec", "[1,{},0]"]],
    ids=["seq", "depth", "window", "beta", "cvec"],
)
def test_flag_digit_bound(tmp_path, capsys, argv):
    over = "9" * (MAX_DIGITS + 1)
    assert cli.main([argv[0], argv[1], argv[2].format(over), "--B", _b_file(tmp_path, B_A3)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert f"integer of {MAX_DIGITS + 1} digits exceeds the {MAX_DIGITS}-digit input bound" in err


def test_flag_digit_bound_admits_its_own_length(tmp_path, capsys):
    # 100,000 digits parse: the direction is out of range, a domain error
    at = "9" * MAX_DIGITS
    assert cli.main(["mutate", "--seq", at, "--B", _b_file(tmp_path, B_A3)]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "IndexOutOfRange"
    assert cli.main(["normals", "--cvec", f"[{at},1,0]", "--B", _b_file(tmp_path, B_A3)]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "NotARoot"


def test_normals_wrong_length_exits_two(tmp_path, capsys):
    # the same contract as theta's --beta: a DimensionMismatch document
    assert cli.main(["normals", "--B", _b_file(tmp_path, B_A3), "--cvec", "[1,0]"]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "DimensionMismatch",
        "message": "cvec has length 2, expected 3",
    }


@pytest.mark.parametrize(
    "entries",
    [[[0, "1_0"], ["-\u0661\u0660", 0]], [[0, "1_000"], [-1, 0]], [[0, " 7 "], [-7, 0]],
     [[0, "+7"], [-7, 0]], [[0, "\u0663"], [-3, 0]]],
    ids=["underscore-and-arabic-indic", "underscore", "blanks", "plus", "arabic-indic"],
)
def test_exit_one_on_non_decimal_strings(tmp_path, entries):
    p = _run(["validate", "--B", _b_file(tmp_path, {"B": entries})])
    assert p.returncode == 1
    assert p.stdout == ""
    assert "not a decimal integer" in p.stderr


@pytest.mark.parametrize(
    "argv",
    [["mutate", "--seq", "\u0661,\u0662"], ["fan", "--depth", "\u0661"], ["ar", "--window", "1_0"]],
    ids=["seq", "depth", "window"],
)
def test_exit_one_on_non_decimal_flags(tmp_path, argv):
    p = _run([*argv, "--B", _b_file(tmp_path, B_A3)])
    assert p.returncode == 1
    assert p.stdout == ""
    assert f"argument {argv[1]}" in p.stderr


def test_exit_one_on_malformed_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    p = _run(["validate", "--B", str(bad)])
    assert p.returncode == 1
    assert p.stdout == ""
    assert "not valid JSON" in p.stderr
    assert _run(["validate", "--B", "/nonexistent/b.json"]).returncode == 1
    assert _run(["validate"]).returncode == 1
    assert _run(["validate", "--B", str(bad), "--bogus"]).returncode == 1
    assert _run(["nosuchcommand"]).returncode == 1


def test_exit_two_on_domain_errors(tmp_path):
    ns = _b_file(tmp_path, {"B": [[0, 1], [1, 0]]})
    p = _run(["validate", "--B", ns])
    assert p.returncode == 2
    doc = json.loads(p.stdout)
    assert doc["error"] == "NotSkewSymmetrizable"
    p = _run(["theta", "--B", _b_file(tmp_path, B_A3, "a3.json"), "--beta", "[1,0]"])
    assert p.returncode == 2
    assert json.loads(p.stdout)["error"] == "DimensionMismatch"


NOT_SKEW_SYMMETRIC = (
    '{"error":"NotSkewSymmetric","message":"quiver construction needs B^T = -B with d = (1,...,1)"}\n'
)
NOT_ACYCLIC = '{"error":"NotAcyclic","message":"path algebra data needs an acyclic quiver"}\n'


@pytest.mark.parametrize(
    "seed, expected",
    [({"B": [[0, 1, 0], [-1, 0, 1], [0, -2, 0]]}, NOT_SKEW_SYMMETRIC), (B_MARKOV, NOT_ACYCLIC)],
    ids=["B3", "Markov"],
)
@pytest.mark.parametrize(
    "argv",
    [["ar"], ["normals", "--cvec", "[1,0,0]"], ["certify", "--seq", "1"]],
    ids=["ar", "normals", "certify"],
)
def test_exit_two_documents_of_representation_commands(tmp_path, capsys, seed, expected, argv):
    assert cli.main([*argv, "--B", _b_file(tmp_path, seed)]) == 2
    assert capsys.readouterr().out == expected


def test_exit_two_beyond_depth_carries_reason(tmp_path):
    shallow = enumerate_pattern(validate(B_KRONECKER["B"]), max_depth=1)
    deep = enumerate_pattern(validate(B_KRONECKER["B"]), max_depth=9)
    beta = None
    for b1 in range(-8, 9):
        for b2 in range(-8, 9):
            if locate((b1, b2), deep) is not None and locate((b1, b2), shallow) is None:
                beta = (b1, b2)
                break
        if beta:
            break
    assert beta is not None
    b = _b_file(tmp_path, B_KRONECKER)
    p = _run(["theta", "--B", b, "--beta", json.dumps(list(beta)), "--depth", "1"])
    assert p.returncode == 2
    doc = json.loads(p.stdout)
    assert doc["error"] == "NotInVisitedComplex"
    assert doc["reason"] == "beyond_depth"
    assert _run(["theta", "--B", b, "--beta", json.dumps(list(beta)), "--depth", "9"]).returncode == 0


def test_theta_markov_default_depth_answers(tmp_path):
    # the catalog walks without F; only the witness's history builds it
    b = _b_file(tmp_path, B_MARKOV)
    p = _run(["theta", "--B", b, "--beta", "[1,1,1]"], timeout=30)
    assert p.returncode == 0
    assert json.loads(p.stdout)["witness"] == []
    p = _run(["theta", "--B", b, "--beta", "[1,0,0]"], timeout=30)
    assert p.returncode == 2
    assert json.loads(p.stdout)["reason"] == "beyond_depth"


def test_exit_three_on_exhaustion(tmp_path):
    # A4 has 42 seeds and 1,008 labelled nodes
    b = _b_file(tmp_path, {"B": [[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]]})
    p = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, xfan.cli as cli; cli.NODE_CAP = 120;"
            " sys.exit(cli.main(['fan', '--B', sys.argv[1], '--exhaustive']))",
            b,
        ],
        capture_output=True,
        text=True,
    )
    assert p.returncode == 3
    doc = json.loads(p.stdout)
    assert doc["error"] == "ExhaustionCapExceeded"
    assert sorted(doc) == ["error", "message"]
    assert doc["message"] == "more than 120 labelled nodes before the frontier emptied"


def test_exit_three_when_an_f_polynomial_outgrows_the_budget(tmp_path):
    # F'_2 at history (1,) is (1 + y_1)^(10**1000 - 1) + ...: its Newton box is refused
    # before any power is formed; a child process, so that a hang is killed at the timeout
    b = _b_file(tmp_path, {"B": [[0, 10**1000 - 1, 0], [1 - 10**1000, 0, 1], [0, -1, 0]]})
    start = time.perf_counter()
    p = _run(["fpoly", "--B", b, "--seq", "1,2"], timeout=10)
    assert time.perf_counter() - start < 1
    assert (p.returncode, p.stderr) == (3, "")
    assert json.loads(p.stdout) == {
        "error": "ExhaustionCapExceeded",
        "message": "F'_2 at history (1,) spans a Newton box of more than 1000000 lattice points",
        "reason": "f_polynomial_budget",
    }


def test_exit_three_at_the_cap_without_exhaustive(tmp_path, monkeypatch, capsys):
    # Markov at depth 5 has 1 + 3(2^5 - 1) = 94 labelled nodes
    monkeypatch.setattr(cli, "NODE_CAP", 20)
    assert cli.main(["fan", "--B", _b_file(tmp_path, B_MARKOV), "--depth", "5"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert sorted(doc) == ["error", "message"]
    assert doc["error"] == "ExhaustionCapExceeded"
    assert doc["message"] == "more than 20 labelled nodes before the frontier emptied"


@pytest.mark.parametrize("seed", [B_MARKOV, B_KRONECKER], ids=["Markov", "Kronecker"])
@pytest.mark.parametrize("command", ["fan", "theta"])
def test_exit_three_on_infinite_type(tmp_path, seed, command):
    # the root's B_t has b_12.b_21 = -4, so the walk stops before it mutates
    beta = ["--beta", json.dumps([1] + [0] * (len(seed["B"]) - 1))] if command == "theta" else []
    p = _run([command, "--B", _b_file(tmp_path, seed), "--exhaustive", *beta], timeout=30)
    assert p.returncode == 3
    doc = json.loads(p.stdout)
    assert doc["error"] == "ExhaustionCapExceeded"
    assert doc["reason"] == "infinite_type"
    assert "history ()" in doc["message"]
