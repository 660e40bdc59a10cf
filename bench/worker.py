"""One benchmark repetition, run by ``run.py`` in a fresh interpreter.

    worker.py SPEC            run one repetition of a workload and print one
                              JSON line with its timings, checks and spans
    worker.py --cli-traced ARGS...
                              run one ``xfan`` CLI job with spans recorded;
                              the span summary is the last line on stderr

SPEC is a JSON object with ``workload``, ``seed``, ``smoke``, ``trace``,
``setup_only`` and ``spawned``, run.py's ``time.monotonic()`` just
before it started this process (one clock for every process on the
machine), so set-up time covers interpreter start.
"""

import json
import resource
import statistics
import sys
import time


def _import_xfan():
    start = time.perf_counter()
    import xfan.cli  # noqa: F401  (loads every xfan module)

    return time.perf_counter() - start


def _peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


def cli_traced(argv):
    import_s = _import_xfan()
    import xfan.cli
    from tracer import TRACE_MARK, Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return xfan.cli.main(argv)
    finally:
        sys.stdout.flush()
        print(TRACE_MARK + json.dumps({**tracer.summary(), "import_s": import_s}), file=sys.stderr)


def repetition(spec):
    import_s = _import_xfan()
    import workloads

    inputs = workloads.build_inputs(spec["workload"], spec["seed"], spec["smoke"])
    result = {"setup_s": time.monotonic() - spec["spawned"], "import_s": import_s}
    if spec["setup_only"]:
        result["speed"] = workloads.speed([workloads.calibrate() for _ in range(3)])
        return result
    workload = spec["workload"]
    tracer = None
    stages = {}
    totals = dict.fromkeys(("pattern.enumerate_pattern", "fan.assemble_fan"), 0.0)

    def on_op(key):
        # stage seconds per fan document, for the baseline note
        if tracer is not None and workload == "fan_exhaustive":
            stages[key] = {s: tracer.total_s.get(s, 0.0) - totals[s] for s in totals}
            totals.update((s, tracer.total_s.get(s, 0.0)) for s in totals)

    run = workloads.Run(on_op)
    children = []
    if workload == "cli_jobs":  # each CLI job traces itself; samples are taken between jobs
        workloads.run_cli_jobs(inputs, run, traced=spec["trace"], on_trace=children.append)
    else:
        if spec["trace"]:
            from tracer import Tracer

            # spans leave out the time the sampling timer takes, as operations do
            tracer = Tracer(clock=run.clock)
            tracer.install()
        body = {
            "fan_exhaustive": workloads.run_fan_exhaustive,
            "theta_batch": workloads.run_theta_batch,
        }[workload]
        with run.sampling():
            body(inputs, run)
    peak = _peak_rss_mb(resource.RUSAGE_SELF)
    if workload == "cli_jobs":
        # the CLI processes do the work; RUSAGE_CHILDREN holds the largest of them
        peak = _peak_rss_mb(resource.RUSAGE_CHILDREN)
    result.update(
        wall_s=run.wall_s,
        ref_s=run.ref_s,
        speed=workloads.speed(run.calibrations),
        peak_rss_mb=peak,
        digests=run.ops,
        failures=run.failures,
        stages=stages,
    )
    if spec["trace"]:
        if workload == "cli_jobs":
            from tracer import merge

            summary = merge(children)
            summary["import_s"] = statistics.median(c["import_s"] for c in children) if children else import_s
            if len(children) != len(inputs):
                run.failures.append(f"{len(inputs) - len(children)} CLI jobs returned no span summary")
        else:
            summary = {**tracer.summary(), "import_s": import_s}
        result["trace"] = summary
    return result


def main(argv):
    if argv and argv[0] == "--cli-traced":
        return cli_traced(argv[1:])
    print(json.dumps(repetition(json.loads(argv[0]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
