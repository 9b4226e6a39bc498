"""One botminer CLI run in a fresh, single-threaded process.

Usage: python3 perfbench/worker.py JOB_JSON

JOB_JSON is an object with
    src     directory holding the ``botminer`` package
    flags   pipeline flags the argv resolves to (for settings_from_flags)
    argv    arguments for botminer.cli.main
    trace   true to wrap the public calls in spans (see spans.py)
    cpu     the CPU to run on, which it shares with the pacer (see pacer.py)
    result  path of the JSON result file to write

The worker measures set-up (importing botminer, resolving the settings and
fingerprinting them, which loads the bundled lists) before it reads any corpus
byte, then the wall time of the cli.main call, then the process's peak
resident set size.  It writes them, the exit code and the spans (if traced)
to the result file.
"""

from __future__ import annotations

import json
import os
import sys
import time

from spans import Tracer, peak_rss_kib


def main(job: dict) -> int:
    os.sched_setaffinity(0, {job["cpu"]})
    sys.path.insert(0, job["src"])
    tracer = None
    t0 = time.perf_counter()
    import botminer.cli
    import botminer.pipeline

    if job["trace"]:
        tracer = Tracer()
        tracer.install()
    settings = botminer.pipeline.settings_from_flags(None, job["flags"])
    settings.fingerprint()
    setup_s = time.perf_counter() - t0

    t1 = time.perf_counter()
    exit_code = botminer.cli.main(job["argv"])
    wall_s = time.perf_counter() - t1
    peak_rss_mib = peak_rss_kib() / 1024.0

    result = {
        "exit_code": exit_code,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mib": peak_rss_mib,
        "spans": tracer.spans if tracer is not None else None,
    }
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
