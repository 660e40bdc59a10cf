"""Benchmark runner for xfan.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an xfan checkout. Each repetition of the workload
runs in a fresh interpreter (``bench/worker.py``) that imports the
checkout's ``src/xfan``, so no module-level cache carries work from one
repetition to the next, one worker at a time. Repetitions start while one
more fits in ``--seconds``, and at least three run.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the ``end_to_end`` metrics of ``BENCHMARK.json``:

    wall_s       seconds of work in one repetition, set-up excluded
    setup_s      median seconds from spawning a worker until it has
                 imported xfan and built its inputs
    peak_rss_mb  median peak RSS of a worker (of the largest CLI process
                 on cli_jobs)
    job_p50_s    median and 90th percentile latency of one job: a fan
    job_p90_s    document, a catalog, the theta values of one matrix, or
                 a CLI job from spawn to exit

Every time is in seconds at a reference speed: the worker measures, with a
fixed pure-Python loop, the CPU speed it gets, several times a second, and
scales its measured seconds by it (``workloads.Run``), so a drifting shared
VM does not move the figures. The report line also carries the unscaled times. An
operation counts at its median over the run's repetitions; one that fails
its checks counts in ``failed``.

With ``--trace 1`` the metrics are the ``per_layer`` metrics, from
repetitions whose xfan calls are wrapped by ``bench/tracer.py``, plus the
tracing overhead: the median traced minus the median untraced repetition,
run in equal numbers and scaled alike. Lines before the result record the
environment and a report of the run.

``--smoke`` cuts every workload down to A3-sized inputs.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import workloads  # noqa: E402
from tracer import TARGETS  # noqa: E402

WORKER = os.path.join(BENCH_DIR, "worker.py")
HARD_LIMIT_S = 170  # the whole run, spawns included
MIN_REPS = 3
SETUP_PROBES = 2  # set-up-only spawns before each repetition
# ROADMAP baseline, seconds of enumerate_pattern and assemble_fan on seed 0
BASELINE = {"A4": (0.9, 4.8), "D4": (1.1, 3.2)}


class Broken(Exception):
    """The harness or the program failed in a way no check can count."""


def environment(args):
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + HARD_LIMIT_S
        self.env = {k: v for k, v in os.environ.items() if k != "XFAN_THREADS"}
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        # smoke inputs are cut down, so only full seed-0 runs have pinned outputs
        self.pins = workloads.load_pins().get(args.workload, {}) if args.seed == 0 and not args.smoke else None
        self.attempted = 0
        self.failures = []

    def spawn(self, trace=False, setup_only=False):
        """One worker process; returns its report."""
        spec = {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "smoke": self.args.smoke,
            "trace": trace,
            "setup_only": setup_only,
        }
        spec["spawned"] = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, WORKER, json.dumps(spec)],
            cwd=ROOT,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,  # a timeout kills the CLI jobs it started too
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise Broken(f"a repetition of {self.args.workload} ran past {HARD_LIMIT_S} s") from None
        if proc.returncode != 0:
            raise Broken(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
        report = json.loads(out.splitlines()[-1])
        if not setup_only:
            self._count(report)
        return report

    def _count(self, report):
        """Adds a repetition's operations and failures, pinned digests included."""
        failed = {line.split(": ", 1)[0]: line for line in report["failures"]}
        for key, value in report["digests"].items():
            if self.pins is None or value is None:
                continue
            pin = self.pins.get(key)
            if pin is None:
                failed[key] = f"{key}: no pinned digest"
            elif pin != value:
                failed[key] = f"{key}: output differs from the pinned digest"
        self.attempted += len(report["digests"])
        self.failures.extend(failed.values())

    def rounds(self, least, *kinds):
        """Rounds of spawns while another round fits in the measuring time, at least ``least``.

        Each round spawns one worker per ``kinds`` entry, a dict of
        ``spawn`` arguments, in order; returns one list of reports per kind.
        Interleaving the kinds spreads each over the whole run.
        """
        start = time.monotonic()
        end = start + self.args.seconds
        out = [[] for _ in kinds]
        done = 0
        while done < least or time.monotonic() + (time.monotonic() - start) / done <= end:
            for reports, kind in zip(out, kinds):
                reports.append(self.spawn(**kind))
            done += 1
        return out

    def result(self, metrics):
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": metrics,
        }


def end_to_end(runner):
    runner.spawn(setup_only=True)  # fills the bytecode cache; not timed
    least = 1 if runner.args.smoke else MIN_REPS
    *probes, reps = runner.rounds(least, *[{"setup_only": True}] * SETUP_PROBES, {})
    setups = [r for reports in probes for r in reports] + reps
    # On a shared VM the CPU speed a process gets drifts by 20-60 %, within
    # seconds and over minutes, so every time is scaled to a reference speed
    # by calibration samples taken in the same worker (see workloads.Run).
    # Each operation counts at its median over repetitions.
    scaled = {}
    for r in reps:
        for key, seconds in r["ref_s"].items():
            scaled.setdefault(key, []).append(seconds)
    per_job = {}
    for key, seconds in scaled.items():
        job = workloads.job_of(key)
        per_job[job] = per_job.get(job, 0.0) + statistics.median(seconds)
    jobs = sorted(per_job.values())
    values = {
        "wall_s": sum(jobs),
        "setup_s": statistics.median(r["setup_s"] * r["speed"] for r in setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "job_p50_s": statistics.median(jobs),
        "job_p90_s": statistics.quantiles(jobs, n=10, method="inclusive")[8] if len(jobs) > 1 else jobs[0],
    }
    report = {
        "repetitions": len(reps),
        "rep_wall_s": [r["wall_s"] for r in reps],
        "rep_speed": [r["speed"] for r in reps],
        "unscaled_setup_s": statistics.median(r["setup_s"] for r in setups),
        "setup_samples": len(setups),
        "jobs": len(jobs),
    }
    return values, report


def per_layer(runner):
    runner.spawn(setup_only=True)
    untraced, traced = runner.rounds(1, {}, {"trace": True})
    reps = sorted(traced, key=lambda rep: rep["wall_s"])
    rep = reps[(len(reps) - 1) // 2]
    summary = rep["trace"]
    calls, self_s, total_s, counters = summary["calls"], summary["self_s"], summary["total_s"], summary["counters"]
    values = {}
    for module, qualname in TARGETS:
        name = f"{module}.{qualname}"
        values[f"{name}.calls"] = calls.get(name, 0)
        values[f"{name}.self_s"] = self_s.get(name, 0.0)
        values[f"{name}.total_s"] = total_s.get(name, 0.0)
    values.update(counters)
    kept = counters["pattern.nodes"] - calls.get("pattern.enumerate_pattern", 0)
    values["pattern.dedup_ratio"] = _ratio(kept, calls.get("pattern.mutate_node", 0))
    values["fan.cones_per_classify"] = _ratio(counters["fan.cones"], calls.get("cones.classify", 0))
    values["cli.import_s"] = summary["import_s"]
    values["trace.overhead_s"] = _median_ref_s(traced) - _median_ref_s(untraced)
    busiest = max(self_s, key=self_s.get) if self_s else None
    report = {
        "repetitions": len(reps),
        "traced_wall_s": rep["wall_s"],
        "untraced_wall_s": statistics.median(r["wall_s"] for r in untraced),
        "trace_overhead_s": values["trace.overhead_s"],
        "largest_self_s": busiest,
        "absent": summary["absent"],
    }
    notes = _baseline_notes(rep["stages"], runner.args.seed)
    if notes:
        report["baseline_note"] = notes
    return values, report


def _median_ref_s(reps):
    return statistics.median(sum(r["ref_s"].values()) for r in reps)


def _ratio(num, den):
    return num / den if den else 0.0


def _baseline_notes(stages, seed):
    notes = []
    for key, seconds in stages.items():
        name = key.split(":")[1]
        if name in BASELINE:
            enum_s, fan_s = BASELINE[name]
            notes.append(
                f"{name}: enumerate_pattern {seconds['pattern.enumerate_pattern']:.2f} s (ROADMAP ~{enum_s} s), "
                f"assemble_fan {seconds['fan.assemble_fan']:.2f} s (ROADMAP ~{fan_s} s), traced"
                + ("" if seed == 0 else f", seed {seed} mutates the matrix; the baseline is seed 0")
            )
    return notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="A3-sized inputs, one repetition")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "xfan", "__init__.py")):
        print(f"bench: no xfan sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    runner = Runner(args)
    try:
        values, report = per_layer(runner) if args.trace else end_to_end(runner)
    except Broken as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    report["failed_ratio"] = _ratio(len(runner.failures), runner.attempted)
    report["failures"] = runner.failures[:20]
    print("env " + json.dumps(environment(args)))
    print("report " + json.dumps(report))
    for line in runner.failures[:20]:
        print(f"bench: failed {line}", file=sys.stderr)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps(runner.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
