"""One pass of a benchmark workload, in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED SIZE MODE [TRACE_FILE]

MODE is ``setup`` (stop once set up), ``run`` (an untraced pass) or
``trace`` (a traced pass that writes its spans to TRACE_FILE).  Set-up is
interpreter start, ``import qcatalan`` and input generation; it ends at the
``ready`` timestamp (``time.monotonic``, system-wide on Linux), so the
parent can measure it from the moment it started this process.  The
library's module caches start cold, as in every ``qcatalan verify`` run.
Prints one JSON object.
"""

import json
import resource
import sys
import time


def main() -> int:
    workload, seed, size, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
    import workloads

    inputs = workloads.make_inputs(workload, seed, size)
    ready = time.monotonic()
    if mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0
    tracer = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    result = workloads.run_pass(workload, inputs)
    result["ready"] = ready
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["stats"] = dict(tracer.stats)
        result["inv_distinct"] = len(tracer.inv_inputs)
        result["spans"] = len(tracer.spans)
        tracer.write(sys.argv[5])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
