"""A pacer: a fixed reference job that runs beside each worker, on its core.

On a shared host the same botminer run can take 1.8 s in one minute and 3.3 s
a few minutes later, because other tenants share the physical core and its
caches.  A reference job timed just before and after a run tracks that only
loosely, since the host's load changes within the run.  So the pacer runs the
reference job all the time, niced, in its own process pinned to the same CPU
as the worker: the two share that CPU in slices of a few milliseconds and see
the same host load.  The pacer counts the passes it completes and the CPU
time they take; over a worker's run, passes per CPU-second over
REFERENCE_RATE is that run's speed.  The harness multiplies the run's times by
its speed, which gives "seconds on a CPU on which the reference job makes
REFERENCE_RATE passes per second": a change in them is a change in botminer,
not in the host's load.

The job does the same kind of work as a botminer run, in plain Python and
independent of botminer's code: decode JSON lines, lower-case and split the
text, count tokens and adjacent pairs in dicts, group by account and sort.
Its input is built once from a fixed seed, so it is the same for every
workload and every --seed.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import time

REFERENCE_RATE = 1000.0  # passes per CPU-second at reference speed
PACER_NICE = 10          # the worker keeps about 90% of the shared CPU
N_LINES = 40
N_WORDS = 3000
N_USERS = 12
SEQ, PASSES, CPU_S = range(3)  # slots of the shared state


def make_input() -> list[str]:
    rng = random.Random(180510105)
    letters = "abcdefghijklmnopqrstuvwxyz"
    words = ["".join(rng.choice(letters) for _ in range(rng.randint(3, 9)))
             for _ in range(N_WORDS)]
    lines = []
    for i in range(N_LINES):
        text = " ".join(rng.choice(words).capitalize() if rng.random() < 0.1
                        else rng.choice(words) for _ in range(rng.randint(6, 20)))
        lines.append(json.dumps({"id": str(10**9 + i),
                                 "user": {"id": str(rng.randrange(N_USERS))},
                                 "created_at": 1_500_000_000 + 37 * i,
                                 "text": text}))
    return lines


def reference_job(lines: list[str]) -> int:
    """One pass of the reference work; returns a checksum of its result."""
    counts: dict[str, int] = {}
    pairs: dict[tuple[str, str], int] = {}
    by_user: dict[str, list[int]] = {}
    for line in lines:
        rec = json.loads(line)
        tokens = rec["text"].lower().split()
        for tok in tokens:
            counts[tok] = counts.get(tok, 0) + 1
        for pair in zip(tokens, tokens[1:]):
            pairs[pair] = pairs.get(pair, 0) + 1
        by_user.setdefault(rec["user"]["id"], []).append(rec["created_at"])
    top = sorted(pairs.items(), key=lambda kv: (-kv[1], kv[0]))[:100]
    gaps = sorted(b - a for times in by_user.values() for a, b in zip(times, times[1:]))
    return len(counts) + sum(n for _, n in top) + len(gaps)


def _pace(state, cpu: int, parent: int):
    """Pacer process body: run the reference job until the harness is gone."""
    os.sched_setaffinity(0, {cpu})
    os.nice(PACER_NICE)
    lines = make_input()
    checksum = reference_job(lines)
    while os.getppid() == parent:
        t0 = time.process_time()
        if reference_job(lines) != checksum:
            raise RuntimeError("reference job gave a different result")
        cpu_s = time.process_time() - t0
        state[SEQ] += 1  # odd: an update is under way
        state[PASSES] += 1
        state[CPU_S] += cpu_s
        state[SEQ] += 1


class Pacer:
    """The pacer process on one CPU; use as a context manager."""

    def __init__(self, cpu: int):
        self.cpu = cpu
        ctx = multiprocessing.get_context("fork")
        self._state = ctx.RawArray("d", 3)  # written only by the pacer
        self._proc = ctx.Process(target=_pace, args=(self._state, cpu, os.getpid()),
                                 daemon=True)

    def __enter__(self) -> Pacer:
        self._proc.start()
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        if self._proc.is_alive():
            self._proc.kill()
        self._proc.join()

    def reading(self) -> tuple[float, float]:
        """(passes, CPU seconds) so far, read while no pass is being added."""
        state = self._state
        while True:
            seq = state[SEQ]
            passes, cpu_s = state[PASSES], state[CPU_S]
            if seq % 2 == 0 and state[SEQ] == seq:
                return passes, cpu_s
            time.sleep(0.0005)

    def speed(self, before: tuple[float, float], after: tuple[float, float]) -> float:
        """Speed between two readings: passes per CPU-second over REFERENCE_RATE."""
        if not self._proc.is_alive():
            raise RuntimeError(f"pacer exited with code {self._proc.exitcode}")
        passes, cpu_s = after[0] - before[0], after[1] - before[1]
        if passes < 1 or cpu_s <= 0:
            raise RuntimeError("pacer completed no pass during the run")
        return passes / cpu_s / REFERENCE_RATE
