"""The exit-code contract of the CLI as a property over generated jobs.

Each example runs one in-process ``cli.main`` on a generated seed, read
from standard input, with one of the eleven commands and its flags,
well-formed or not, sometimes with unknown flags, stray input keys or an
unknown command. Text is any printable Unicode. ``NODE_CAP`` is patched
to CAP where the CLI and ``knit`` read it, so that every exit-3 case
(the node cap, the window cap and ``infinite_type``) stays cheap.
"""

from __future__ import annotations

import io
import json
import string
import sys

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from xfan import cli, reptheory

COMMANDS = ("validate", "mutate", "cmatrix", "gmatrix", "fpoly", "cone", "fan", "theta", "ar", "normals", "certify")
SEQ_COMMANDS = ("mutate", "cmatrix", "gmatrix", "fpoly", "cone", "certify")
CAP = 2000
A3 = '{"B": [[0, 1, 0], [-1, 0, -1], [0, 1, 0]]}'
A5 = json.dumps({"B": [[(j == i + 1) - (i == j + 1) for j in range(5)] for i in range(5)]})
MARKOV = '{"B": [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]}'
# three leaves on each vertex of a path of three: n = 12, corank 6
TREE_ARROWS = {0: (1, 3, 4, 5), 1: (2, 6, 7, 8), 2: (9, 10, 11)}
TREE = json.dumps(
    {"B": [[int(j in TREE_ARROWS.get(i, ())) - int(i in TREE_ARROWS.get(j, ())) for j in range(12)] for i in range(12)]}
)
HUGE = json.dumps({"B": [[0, 10**999 - 1, 0], [1 - 10**999, 0, 1], [0, -1, 0]]})
RARELY = st.sampled_from((False,) * 9 + (True,))
PRINTABLE = st.characters(exclude_categories=("Cc", "Cf", "Cs", "Co", "Cn", "Zl", "Zp", "Zs"), include_characters=" ")
TEXT = st.one_of(st.text(PRINTABLE, max_size=40), st.text(PRINTABLE, min_size=41, max_size=300))


@st.composite
def seed_documents(draw):
    """B with 1-6 rows and entries -3..3, skew-symmetrizable or not, sometimes with d or stray keys;
    or, one time in ten, a quiver of leaves on a short path, of up to 12 vertices and corank up to 6."""
    if draw(RARELY):
        path, leaves = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        n = path * (leaves + 1)
        rows = [[0] * n for _ in range(n)]
        edges = [(v, v + 1) for v in range(path - 1)] + [(v, path + leaves * v + i) for v in range(path) for i in range(leaves)]
        for i, j in edges:
            sign = draw(st.sampled_from((1, -1)))
            rows[i][j], rows[j][i] = sign, -sign
        return json.dumps({"B": rows}), n
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):  # B = S.D with S skew-symmetric is skew-symmetrized by D
        d = [1] * n if draw(st.booleans()) else draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        s = {(i, j): draw(st.integers(-1, 1)) for i in range(n) for j in range(i + 1, n)}
        rows = [[(s.get((i, j), 0) - s.get((j, i), 0)) * d[j] for j in range(n)] for i in range(n)]
    else:  # square or not, ragged or not
        width = st.integers(1, 6) if draw(st.booleans()) else st.just(n)
        rows = [draw(st.lists(st.integers(-3, 3), min_size=w, max_size=w)) for w in [draw(width)] * n]
        if draw(RARELY):
            rows[-1] = rows[-1] + [0]
        d = None
    doc = {"B": rows}
    if draw(st.booleans()) and draw(st.booleans()):
        doc["d"] = d if d is not None and draw(st.booleans()) else draw(st.lists(st.integers(-1, 3), max_size=7))
    if draw(RARELY):
        for key in draw(st.lists(TEXT, min_size=1, max_size=10)):
            doc.setdefault(key, 0)
    return json.dumps(doc), n


def _mostly(good, bad):
    return st.one_of(good, good, good, bad)


TOKENS = st.one_of(st.integers(-1, 7).map(str), st.text(string.digits, max_size=3), TEXT.filter(lambda t: "," not in t))
# a depth or window: small, near the patched cap, past it by far, or text
COUNTS = _mostly(st.one_of(st.integers(-1, 5), st.integers(CAP // 6, CAP), st.just(10**100)).map(str), TEXT)


def _vectors(n):
    """JSON arrays, mostly of length n and nonnegative, or any text."""
    right = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    return _mostly(st.one_of(right, right, st.lists(st.integers(-2, 3), max_size=7)).map(json.dumps), TEXT)


def _flag(argv, name, value):
    # a value starting with "-" is attached, so it is never read as a flag such as -h
    argv += [f"{name}={value}"] if value.startswith("-") else [name, value]


@st.composite
def jobs(draw):
    """(argv, standard input) of one job, well-formed or not."""
    stdin, n = draw(seed_documents())
    command = draw(st.sampled_from(COMMANDS))
    argv = [command, "--B", "-"]
    if command in SEQ_COMMANDS and not draw(RARELY):
        tokens = _mostly(st.integers(1, 6).map(str), TOKENS)
        _flag(argv, "--seq", ",".join(draw(st.lists(tokens, max_size=6))))
    if command in ("fan", "theta"):
        if draw(st.booleans()):
            _flag(argv, "--depth", draw(COUNTS))
        if draw(st.booleans()):
            argv.append("--exhaustive")
    if command == "fan" and draw(st.booleans()):
        argv.append("--emit-rays")
    if command == "theta" and not draw(RARELY):
        _flag(argv, "--beta", draw(_vectors(n)))
    if command == "normals" and not draw(RARELY):
        _flag(argv, "--cvec", draw(_vectors(n)))
    if command in ("ar", "normals") and draw(st.booleans()):
        _flag(argv, "--window", draw(COUNTS))
    if draw(RARELY):  # a flag of another command
        _flag(argv, draw(st.sampled_from(("--seq", "--depth", "--beta", "--cvec", "--window"))), draw(TOKENS))
    if draw(RARELY):
        argv += ["--x" + text for text in draw(st.lists(TEXT, min_size=1, max_size=10))]
    if draw(RARELY):
        argv[0] = draw(st.text(PRINTABLE, min_size=1, max_size=300).filter(lambda t: t not in COMMANDS and t[0] != "-"))
    return argv, stdin


def _run(argv, stdin):
    saved = sys.stdin, sys.stdout, sys.stderr, cli.NODE_CAP, reptheory.NODE_CAP
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), io.StringIO(), io.StringIO()
    cli.NODE_CAP = reptheory.NODE_CAP = CAP
    try:
        code = cli.main(argv)
        return code, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr, cli.NODE_CAP, reptheory.NODE_CAP = saved


@settings(
    max_examples=500,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(job=jobs())
@example(job=(["x" * 500], A3))
@example(job=(["fan", "--B", "-", "--bogus" + "z" * 300], A3))
@example(job=(["fan", "--B", "-", "--emit-rays=" + "y" * 300], A3))
@example(job=(["validate", "--B", "-", "--x" + "ab " * 100], A3))
@example(job=(["validate", "--B", "-"], '{"B": [[0]], "' + "k " * 150 + '": 1}'))
@example(job=(["validate", "--B", "-", *("--" + c * 38 for c in "abcdefghij")], A3))
@example(job=(["validate", "--B", "-"], json.dumps({"B": [[0]], **{c * 20: 1 for c in "abcdefghij"}})))
@example(job=(["fan", "--B", "-", "--ünïcödé" + "é" * 291], A3))
@example(job=(["ar", "--B", "-", "--window", str(10**100)], A3))
@example(job=(["fan", "--B", "-", "--e=a\nb"], A3))  # argparse echoes an ambiguous option unquoted
@example(job=(["theta", "--B", "-", "--beta", "[" * 100000], A3))
@example(job=(["fan", "--B", "-", "--exhaustive"], MARKOV))
@example(job=(["fan", "--B", "-", "--exhaustive"], A5))
@example(job=(["fan", "--B", "-", "--depth", "2", "--emit-rays"], A3))
@example(job=(["theta", "--B", "-", "--beta", "[1,0,0]", "--exhaustive"], A3))
@example(job=(["normals", "--B", "-", "--cvec", "[1,1,0]", "--window", "3"], A3))
@example(job=(["cone", "--B", "-", "--seq", "1,5,2"], TREE))
@example(job=(["fan", "--B", "-", "--depth", "2", "--emit-rays"], TREE))
@example(job=(["cone", "--B", "-", "--seq", "1,2"], HUGE))  # the frame's elimination on thousand-digit entries
def test_every_job_keeps_the_exit_code_contract(job):
    code, out, err = _run(*job)
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert out == ""
        assert err.startswith("xfan: error: ") and err.endswith("\n") and err.count("\n") == 1
        assert len(err.encode()) < 200
        return
    assert err == ""
    assert out.endswith("\n") and out.count("\n") == 1
    doc = json.loads(out)
    if code in (2, 3):
        assert {"error", "message"} <= set(doc)
