"""One execution of a workload command in a fresh interpreter.

Usage: child.py SPEC_JSON RESULT_JSON

SPEC_JSON holds the CLI arguments, the workload seed, whether to trace, the
run id, and the parent's ``time.monotonic()`` just before it started this
process.  Set-up (interpreter start, importing ``splitsgd.cli`` and
building the workload's problem) is timed from that moment; the command is
then timed from entry into ``splitsgd.cli.cli`` until it returns, which is
after the sidecar is written.  The timings, peak RSS and any spans go to
RESULT_JSON.
"""

import json
import resource
import sys
import time


def main(spec_path: str, result_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    import numpy
    from splitsgd import cli, objectives
    from splitsgd.core import RngStream

    objectives.build_problem(
        objectives.make_default_spec(
            "linear", RngStream(spec["seed"]).fork(objectives.DATA_STREAM_CHILD)
        )
    )
    setup_s = time.monotonic() - spec["spawned"]

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer(spec["run_id"])
        tracing.install(tracer)

    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    cli.cli.main(args=spec["argv"], prog_name="splitsgd", standalone_mode=False)
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
        "package": cli.__file__,
        "spans": tracer.spans if tracer else None,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
