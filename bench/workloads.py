"""Workload inputs, bodies and output checks for the xfan benchmark.

Inputs come only from the workload seed: a mutation sequence applied to
each named seed matrix (seed 0 keeps the matrices as listed), the beta
points, and the CLI arguments. Every operation is checked after it is
timed; a wrong result counts as a failed operation. On seed 0 every
operation's output is also compared with the sha256 digest pinned in
``digests.json``.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time

from tracer import TRACE_MARK

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(BENCH_DIR, "digests.json")

WORKLOADS = ("fan_exhaustive", "theta_batch", "cli_jobs")


def _quiver(n, arrows):
    """Exchange matrix of a quiver given by its arrows (i, j), i -> j."""
    b = [[0] * n for _ in range(n)]
    for s, t in arrows:
        b[s][t], b[t][s] = 1, -1
    return b


def _path(n):
    return [(i, i + 1) for i in range(n - 1)]


MATRICES = {
    "A3": [[0, 1, 0], [-1, 0, -1], [0, 1, 0]],
    "B3": [[0, 1, 0], [-1, 0, 1], [0, -2, 0]],
    "A4": _quiver(4, _path(4)),
    "D4": _quiver(4, [(0, 3), (1, 3), (2, 3)]),
    # a path with one more vertex hung on its third vertex
    "E6": _quiver(6, _path(5) + [(2, 5)]),
    "E7": _quiver(7, _path(6) + [(2, 6)]),
    "Markov": [[0, 2, -2], [-2, 0, 2], [2, -2, 0]],
}

# Mutation invariants of the finite-type seeds: labelled nodes of the
# exhaustive catalog, and seeds up to relabelling.
FINITE = {"A3": (84, 14), "B3": (40, 20), "A4": (1008, 42), "D4": (1200, 50)}
MARKOV_DEPTH = 6


class Failure(Exception):
    """An operation whose output failed a check."""


# ----------------------------------------------------------------- inputs


def _mutate(b, k):
    """Matrix mutation at 0-based k, kept apart from xfan so inputs do not depend on the code measured."""
    n = len(b)
    out = [row[:] for row in b]
    for i in range(n):
        for j in range(n):
            if i == k or j == k:
                out[i][j] = -b[i][j]
            elif b[i][k] * b[k][j] > 0:
                out[i][j] = b[i][j] + (1 if b[i][k] > 0 else -1) * b[i][k] * b[k][j]
    return out


def mutated(name, rng, seed, reflections=False):
    """The named matrix after a seeded mutation sequence (none on seed 0).

    With ``reflections`` only sinks and sources are mutated, which keeps an
    acyclic quiver acyclic, so the representation-theoretic commands stay in
    their domain.
    """
    b = [row[:] for row in MATRICES[name]]
    if seed == 0:
        return b
    n = len(b)
    last = None
    for _ in range(rng.randint(3, 8)):
        if reflections:
            choices = [k for k in range(n) if all(x >= 0 for x in b[k]) or all(x <= 0 for x in b[k])]
        else:
            choices = [k for k in range(n) if k != last]
        last = rng.choice(choices)
        b = _mutate(b, last)
    return b


def positive_roots(b):
    """Positive roots of a simply laced Dynkin quiver, by simple reflections."""
    n = len(b)
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots = set(simple)
    frontier = simple
    while frontier:
        grown = []
        for x in frontier:
            for i in range(n):
                pairing = 2 * x[i] - sum(abs(b[i][j]) * x[j] for j in range(n) if j != i)
                if pairing < 0:
                    y = tuple(x[j] - pairing * (j == i) for j in range(n))
                    if y not in roots:
                        roots.add(y)
                        grown.append(y)
        frontier = grown
    return sorted(roots)


def _vector(rng, n, bound):
    return [rng.randint(-bound, bound) for _ in range(n)]


def _seq(rng, n, lo, hi):
    length = rng.randint(lo, hi)
    out = []
    while len(out) < length:
        k = rng.randint(1, n)
        if not out or out[-1] != k:
            out.append(k)
    return out


def build_inputs(workload, seed, smoke=False):
    """Plain-data inputs of one workload; the program sees only these."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "fan_exhaustive":
        names = ("A3",) if smoke else ("A3", "B3", "A4", "D4")
        return [(name, mutated(name, rng, seed)) for name in names]
    if workload == "theta_batch":
        plan = (("A3", 10), ("Markov", 5)) if smoke else (("B3", 200), ("A4", 200), ("D4", 200), ("Markov", 100))
        depth = 3 if smoke else MARKOV_DEPTH
        out = []
        for name, count in plan:
            b = mutated(name, rng, seed)
            out.append((name, b, None if name in FINITE else depth, [_vector(rng, len(b), 2) for _ in range(count)]))
        return out
    if workload == "cli_jobs":
        return cli_jobs(rng, seed, smoke)
    raise ValueError(f"unknown workload {workload!r}")


def cli_jobs(rng, seed, smoke=False):
    """About forty-five short CLI jobs covering all eleven commands.

    Each job is (key, argv, stdin text, expected exit code). Exit 1 jobs
    carry malformed flags or a missing file, exit 2 jobs a domain error.
    """
    jobs = []

    def job(name, b, argv, expect=0):
        key = f"{len(jobs):02d}:{name}:{argv[0]}"
        doc = None if b is None else json.dumps({"B": b})
        jobs.append((key, argv if b is None else [argv[0], "--B", "-", *argv[1:]], doc, expect))

    def seq(n):
        return ",".join(map(str, _seq(rng, n, 1, 4)))

    q = {name: mutated(name, rng, seed, reflections=True) for name in ("A3", "A4", "B3", "D4", "E6", "E7")}
    markov = mutated("Markov", rng, seed)
    roots = {name: positive_roots(q[name]) for name in ("A3", "A4", "D4", "E6", "E7")}

    def cvec(name):
        return json.dumps(list(rng.choice(roots[name])))

    a3 = q["A3"]
    job("A3", a3, ["validate"])
    job("A3", a3, ["fan", "--exhaustive", "--emit-rays"])
    job("A3", a3, ["theta", "--beta", json.dumps(_vector(rng, 3, 2)), "--exhaustive"])
    job("A3", a3, ["ar"])
    job("A3", a3, ["certify", "--seq", seq(3)])
    job("A3", a3, ["cone", "--seq", "1,x"], expect=1)
    job("A3", a3, ["normals", "--cvec", "[1,-1,0]"], expect=2)
    if smoke:
        return jobs
    job("A3", a3, ["mutate", "--seq", seq(3)])
    job("A3", a3, ["cmatrix", "--seq", seq(3)])
    job("A3", a3, ["gmatrix", "--seq", seq(3)])
    job("A3", a3, ["fpoly", "--seq", seq(3)])
    job("A3", a3, ["cone", "--seq", seq(3)])
    job("A3", a3, ["normals", "--cvec", cvec("A3")])
    for name in ("A4", "D4"):
        b = q[name]
        job(name, b, ["fpoly", "--seq", seq(4)])
        job(name, b, ["cone", "--seq", seq(4)])
        job(name, b, ["fan", "--depth", "2", "--emit-rays"])
        job(name, b, ["ar"])
        job(name, b, ["normals", "--cvec", cvec(name)])
        job(name, b, ["certify", "--seq", seq(4)])
    b3 = q["B3"]
    job("B3", b3, ["gmatrix", "--seq", seq(3)])
    job("B3", b3, ["fan", "--exhaustive"])
    job("B3", b3, ["theta", "--beta", json.dumps(_vector(rng, 3, 2)), "--exhaustive"])
    job("B3", b3, ["ar"], expect=2)
    for name in ("E6", "E7"):
        b = q[name]
        n = len(b)
        job(name, b, ["cone", "--seq", seq(n)])
        job(name, b, ["ar"])
        job(name, b, ["normals", "--cvec", cvec(name)])
        job(name, b, ["certify", "--seq", seq(n)])
    job("Markov", markov, ["mutate", "--seq", seq(3)])
    job("Markov", markov, ["cmatrix", "--seq", seq(3)])
    job("Markov", markov, ["fpoly", "--seq", ",".join(map(str, _seq(rng, 3, 1, 3)))])
    job("Markov", markov, ["fan", "--depth", "4"])
    # every entry equal: B.beta = 0, so the root cone holds beta
    job("Markov", markov, ["theta", "--beta", json.dumps([rng.randint(-3, 3)] * 3), "--depth", "3"])
    # the root cone of Markov is a line, so depth 0 cannot reach this beta
    job("Markov", markov, ["theta", "--beta", json.dumps([1, 0, rng.randint(-2, 2)]), "--depth", "0"], expect=2)
    job("Markov", markov, ["ar"], expect=2)
    job("D4", q["D4"], ["cone", "--seq", "5"], expect=2)
    job("A4", q["A4"], ["theta", "--beta", "[1,2", "--exhaustive"], expect=1)
    job("missing", None, ["validate", "--B", os.path.join(BENCH_DIR, "no-such-input.json")], expect=1)
    return jobs


# ----------------------------------------------------------- digests/checks


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def load_pins():
    with open(DIGESTS_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def job_of(key):
    """The job an operation counts in for the latency metrics.

    The theta values of one matrix form one job; every other operation is
    a job of its own.
    """
    kind, name, *_ = key.split(":")
    return f"{kind}:{name}" if kind == "theta" else key


def _terms(value):
    return [[list(e), c] for e, c in value.sorted_terms()]


def _alpha(c_rows, b, beta):
    """C^T . B . beta in plain integers, independent of the library."""
    image = [sum(row[j] * beta[j] for j in range(len(beta))) for row in b]
    n = len(image)
    return [sum(c_rows[i][j] * image[i] for i in range(n)) for j in range(n)]


def _expect(ok, message):
    if not ok:
        raise Failure(message)


def _check_fan_doc(doc, name):
    nodes, classes = FINITE[name]
    _expect(doc.get("complete") is True, f"{name}: exhaustive catalog not complete")
    _expect(doc.get("nodes") == nodes, f"{name}: {doc.get('nodes')} nodes, expected {nodes}")
    _expect(doc.get("seed_classes") == classes, f"{name}: {doc.get('seed_classes')} seed classes, expected {classes}")


def _check_theta_doc(doc, beta):
    value = {tuple(t["exponents"]): t["coeff"] for t in doc["value"]}
    _expect(value.get(tuple(beta)) == 1, f"theta at {beta} lacks y^beta with coefficient 1")


# ------------------------------------------------------------------ timing


# Seconds ``calibrate`` takes at the reference speed: a 2-core Intel Xeon VM
# running CPython 3.11, in its faster phases.
CALIBRATION_REF_S = 0.0035
CALIBRATE_EVERY_S = 0.2


def calibrate():
    """Seconds a fixed pure-Python loop takes now: a probe of the CPU speed this process gets."""
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(30000):
        acc += i * i % 7
        table[i & 255] = (i, acc)
    return time.perf_counter() - start


def speed(calibrations):
    """Reference seconds per measured second, from ``calibrate`` samples."""
    return CALIBRATION_REF_S / statistics.median(calibrations)


class Run:
    """Times and checks the operations of one repetition.

    ``ops`` maps each operation key to its output digest, ``op_s`` to its
    seconds and ``ref_s`` to its seconds at the reference speed;
    ``failures`` lists the keys whose checks failed, with the reason.
    ``calibrations`` holds ``calibrate`` samples: one at the start, one
    after an operation once CALIBRATE_EVERY_S of operations went unsampled,
    and, inside ``sampling``, one on a timer signal every CALIBRATE_EVERY_S.
    ``clock`` leaves out ``sampling_s``, the time spent sampling.
    ``now`` also reads a reference clock, on which each stretch between two
    samples is scaled by the median of the three samples before it, so it
    follows a speed that drifts while a long operation runs. The timer
    suits work done in this process: a sample taken while a child process
    works would compete with it for the CPU.
    """

    def __init__(self, on_op=None):
        self.wall_s = 0.0
        self.ops = {}
        self.failures = []
        self.op_s = {}
        self.ref_s = {}
        self.on_op = on_op
        self.calibrations = []
        self.sampling_s = 0.0
        self._unsampled_s = 0.0
        # reference seconds and clock() at the last sample, and the scale since
        self._mark = (0.0, self.clock(), 1.0)
        self._sample(None, None)

    def clock(self):
        return time.perf_counter() - self.sampling_s

    def now(self):
        """``clock()`` and the reference clock, read together."""
        ref, last, scale = self._mark
        now = self.clock()
        return now, ref + (now - last) * scale

    def _sample(self, signum, frame):
        start = time.perf_counter()
        now, ref = self.now()
        self.calibrations.append(calibrate())
        self._mark = (ref, now, speed(self.calibrations[-3:]))
        self.sampling_s += time.perf_counter() - start
        self._unsampled_s = 0.0

    @contextlib.contextmanager
    def sampling(self):
        """Samples the CPU speed on a timer signal while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def op(self, key, work, check):
        """Time ``work()``, then check its result outside the timed span."""
        start, ref_start = self.now()
        try:
            result = work()
        except Exception as exc:  # a crashing operation counts as failed, the run goes on
            result = exc
        end, ref_end = self.now()
        elapsed = end - start
        self.wall_s += elapsed
        self.op_s[key] = elapsed
        self.ref_s[key] = ref_end - ref_start
        try:
            self.ops[key] = check(result)
        except Failure as exc:
            self.ops[key] = None
            self.failures.append(f"{key}: {exc}")
        except Exception as exc:
            self.ops[key] = None
            self.failures.append(f"{key}: {type(exc).__name__}: {exc}")
        if self.on_op is not None:
            self.on_op(key)
        self._unsampled_s += elapsed
        if self._unsampled_s >= CALIBRATE_EVERY_S:
            self._sample(None, None)
        return result


# ------------------------------------------------------------------ bodies


def _raise_if_error(result):
    if isinstance(result, BaseException):
        raise Failure(f"raised {type(result).__name__}: {result}")


def run_fan_exhaustive(inputs, run):
    import xfan.cli

    def cli(doc):
        out = io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(doc)
        try:
            with contextlib.redirect_stdout(out):
                code = xfan.cli.main(["fan", "--B", "-", "--exhaustive", "--emit-rays"])
        finally:
            sys.stdin = saved
        return code, out.getvalue()

    for name, b in inputs:
        def check(result, name=name):
            _raise_if_error(result)
            code, text = result
            _expect(code == 0, f"exit {code}")
            _check_fan_doc(json.loads(text), name)
            return digest(text)

        run.op(f"fan:{name}", lambda b=b: cli(json.dumps({"B": b})), check)


def run_theta_batch(inputs, run):
    from xfan import NotInVisitedComplex, enumerate_pattern, theta, validate

    for name, b, depth, betas in inputs:
        finite = depth is None

        def build(b=b, depth=depth):
            return enumerate_pattern(validate(b), max_depth=depth, with_polynomials=True, node_cap=10**6)

        def check_catalog(catalog, name=name, finite=finite, depth=depth):
            _raise_if_error(catalog)
            if finite:
                _check_fan_doc(
                    {"complete": catalog.complete, "nodes": len(catalog.nodes), "seed_classes": catalog.seed_class_count()},
                    name,
                )
            else:
                _expect(not catalog.complete and catalog.depth == depth, "Markov catalog should stop at its depth")
            largest = max(len(f.sorted_terms()) for node in catalog.nodes for f in node.F_t)
            return digest(json.dumps([len(catalog.nodes), catalog.depth, largest]))

        catalog = run.op(f"catalog:{name}", build, check_catalog)
        if isinstance(catalog, BaseException):
            continue
        c_rows = [node.C_t.entries for node in catalog.nodes]
        by_history = {node.history: node for node in catalog.nodes}
        for i, beta in enumerate(betas):
            def check(result, beta=beta, finite=finite, b=b, c_rows=c_rows, by_history=by_history):
                if isinstance(result, NotInVisitedComplex):
                    _expect(not finite and result.reason == "beyond_depth", f"{beta}: {result.reason}")
                    _expect(
                        all(min(_alpha(c, b, beta)) < 0 for c in c_rows),
                        f"{beta}: reported beyond depth but a visited cone holds it",
                    )
                    return digest(json.dumps([beta, "beyond_depth"]))
                _raise_if_error(result)
                _expect(result.value.coefficient(tuple(beta)) == 1, f"{beta}: no y^beta term with coefficient 1")
                alpha = _alpha(by_history[result.witness].C_t.entries, b, beta)
                _expect(list(result.alpha) == alpha and min(alpha) >= 0, f"{beta}: witness does not hold beta")
                return digest(json.dumps([beta, list(result.witness), alpha, _terms(result.value)]))

            run.op(f"theta:{name}:{i}:{beta}", lambda beta=beta, catalog=catalog: theta(beta, catalog), check)


def cli_command(argv, traced):
    if traced:
        return [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--cli-traced", *argv]
    return [sys.executable, "-m", "xfan.cli", *argv]


def run_cli_jobs(inputs, run, traced=False, on_trace=None):
    """Runs each job as its own ``python -m xfan.cli`` process.

    ``on_trace`` receives the span summary a traced child prints as the
    last line of its standard error.
    """
    for key, argv, stdin, expect in inputs:
        def work(argv=argv, stdin=stdin):
            return subprocess.run(
                cli_command(argv, traced), input=stdin, capture_output=True, text=True, timeout=120
            )

        def check(proc, expect=expect, argv=argv):
            _raise_if_error(proc)
            err_lines = proc.stderr.splitlines()
            if traced and err_lines and err_lines[-1].startswith(TRACE_MARK):
                on_trace(json.loads(err_lines.pop()[len(TRACE_MARK):]))
            _expect(proc.returncode == expect, f"exit {proc.returncode}, expected {expect}: {proc.stderr.strip()[-200:]}")
            if expect == 1:
                _expect(proc.stdout == "" and err_lines and "error" in err_lines[-1], "exit 1 without a message")
            else:
                doc = json.loads(proc.stdout)
                _expect(("error" in doc) == (expect == 2), "error document mismatch")
                if expect == 0 and argv[0] == "theta":
                    _check_theta_doc(doc, json.loads(argv[argv.index("--beta") + 1]))
                if expect == 0 and argv[0] == "fan" and "--exhaustive" in argv:
                    _check_fan_doc(doc, key.split(":")[1])
            return digest(f"{proc.returncode}\n{proc.stdout}")

        run.op(key, work, check)
