"""The exit-code contract of the CLI as a property over generated jobs.

Each example runs one in-process ``cli.main`` on a generated seed, read
from standard input, and a generated ``--seq``, sometimes with an
unknown flag or command. Text is printable ASCII: the 200-byte bound on
an exit-1 line is in bytes, while the promise behind it (at most 40
characters of a run) is in characters.
"""

from __future__ import annotations

import io
import json
import string
import sys

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from xfan import cli

COMMANDS = ("validate", "mutate", "cmatrix", "gmatrix", "cone")
ALL_COMMANDS = COMMANDS + ("fpoly", "fan", "theta", "ar", "normals", "certify")
A3 = '{"B": [[0, 1, 0], [-1, 0, -1], [0, 1, 0]]}'
RARELY = st.sampled_from((False,) * 9 + (True,))
ASCII = string.ascii_letters + string.digits + string.punctuation + " "
TEXT = st.one_of(st.text(ASCII, max_size=40), st.text(ASCII, min_size=41, max_size=300))


@st.composite
def seed_documents(draw):
    """B with 1-4 rows and entries -3..3, skew-symmetrizable or not, sometimes with d or a stray key."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):  # B = S.D with S skew-symmetric is skew-symmetrized by D
        d = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        s = {(i, j): draw(st.integers(-1, 1)) for i in range(n) for j in range(i + 1, n)}
        rows = [[(s.get((i, j), 0) - s.get((j, i), 0)) * d[j] for j in range(n)] for i in range(n)]
    else:  # square or not, ragged or not
        width = st.integers(1, 4) if draw(st.booleans()) else st.just(n)
        rows = [draw(st.lists(st.integers(-3, 3), min_size=w, max_size=w)) for w in [draw(width)] * n]
        if draw(RARELY):
            rows[-1] = rows[-1] + [0]
        d = None
    doc = {"B": rows}
    if draw(st.booleans()) and draw(st.booleans()):
        doc["d"] = d if d is not None and draw(st.booleans()) else draw(st.lists(st.integers(-1, 3), max_size=5))
    if draw(RARELY):
        doc.setdefault(draw(TEXT), 0)
    return json.dumps(doc)


TOKENS = st.one_of(st.integers(-1, 5).map(str), st.text(string.digits, max_size=3), TEXT.filter(lambda t: "," not in t))


@st.composite
def jobs(draw):
    """(argv, standard input) of one job, well-formed or not."""
    command = draw(st.sampled_from(COMMANDS))
    argv = [command, "--B", "-"]
    if command != "validate" and not draw(RARELY):
        tokens = st.integers(1, 4).map(str) if draw(st.booleans()) else TOKENS
        seq = ",".join(draw(st.lists(tokens, max_size=6)))
        # a value starting with "-" is attached, so it is never read as a flag such as -h
        argv += [f"--seq={seq}"] if seq.startswith("-") else ["--seq", seq]
    if draw(RARELY):
        argv.append("--x" + draw(TEXT))
    if draw(RARELY):
        argv[0] = draw(st.text(string.ascii_lowercase, min_size=1, max_size=300).filter(lambda t: t not in ALL_COMMANDS))
    return argv, draw(seed_documents())


def _run(argv, stdin):
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), io.StringIO(), io.StringIO()
    try:
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse exits through SystemExit
            code = exc.code
        return code, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


@settings(
    max_examples=250,
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
def test_every_job_keeps_the_exit_code_contract(job):
    code, out, err = _run(*job)
    assert code in (0, 1, 2)
    if code == 1:
        assert out == ""
        assert err.startswith("xfan") and err.endswith("\n") and err.count("\n") == 1
        assert len(err.encode()) < 200
        return
    assert err == ""
    assert out.endswith("\n") and out.count("\n") == 1
    doc = json.loads(out)
    if code == 2:
        assert {"error", "message"} <= set(doc)
