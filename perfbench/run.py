#!/usr/bin/env python3
"""botminer benchmark: one workload, closed loop, one worker at a time.

Usage (from the root of a botminer checkout):

    python3 perfbench/run.py --workload paper_run --seed 1 --seconds 35 --trace 0

The harness generates the workload's corpus and ground truth with
botminer.syngen (merging several shards for some workloads, see
synth_configs) and keeps the first ``records`` tweets, so every seed gives the
same input size (cached under .bench_cache/, keyed by a hash of the
SynthConfigs and the size).  It then runs ``botminer.cli.main(argv)`` in a
fresh worker process per run (perfbench/worker.py): one warm-up run that is
checked but not timed, then runs for --seconds (no run is started that would
end past it).  Every run's artifacts are checked (checks.py); a run that
crashes, exits non-zero or fails a check counts as failed.  The harness and
its workers run with PYTHONHASHSEED=0, so every run does the same work.

Times are reported at reference speed.  The speed of a shared host drifts by
tens of percent within minutes, so every worker runs pinned to one CPU beside
a pacer (pacer.py): a niced process on the same CPU that runs a fixed
reference job all along and so measures the CPU's speed during the run.  Each
of the run's times is multiplied by that speed.  The times as measured are
printed too, as raw_wall_s, raw_tweets_per_s and raw_setup_s.

--trace 0 reports the end-to-end metrics: the median wall_s, tweets_per_s,
peak_rss_mib and setup_s over the timed runs.  --trace 1 alternates untraced
and traced runs and reports the per-layer metrics (spans.py) as medians over
the traced runs, plus the tracing overhead; their times are at reference speed
as well.  Human-readable lines come first, among them failed_ratio (failed
runs / attempted runs, warm-up included); the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  The exit code is
0 only when every run passed its checks.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import heapq
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import pacer  # noqa: E402
import spans  # noqa: E402

END_TO_END = {"wall_s": "s", "tweets_per_s": "tweets/s", "peak_rss_mib": "MiB", "setup_s": "s"}
FIXED_ENV = {"PYTHONHASHSEED": "0"}  # same dict and set layouts, so the same work, every run
MIN_RUNS = 3            # timed runs (trace: pairs) even when --seconds is shorter
DEADLINE_S = 110        # start no run after this; the whole invocation must end within 180 s
RUN_TIMEOUT_S = 60      # one worker run (about 3 s at full size)
CACHE_KEEP = 12         # generated inputs kept in the cache, least recently used dropped


def load_workloads() -> dict:
    with open(HERE / "workloads.json", encoding="utf-8") as fh:
        return json.load(fh)


def synth_configs(workload: dict, seed: int, scale: float = 1.0):
    """The workload's shard SynthConfigs and corpus size; scale multiplies the sizes.

    A workload of k shards (``shards``, default 1) merges k syngen corpora of
    the same shape, with seeds seed*k to seed*k + k-1.  syngen draws the bots'
    shared texts from a pool of 12 per corpus, so on a duplicate-heavy shape
    the amount of text to mine depends on the lengths of those 12 texts and
    varies with the seed; k shards have 12k of them and vary less.
    """
    from botminer.syngen import SynthConfig

    shards = workload.get("shards", 1)
    synth = dict(workload["synth"])
    for key in ("n_humans", "n_bots"):
        synth[key] = max(1, round(synth[key] * scale))
    configs = [SynthConfig(seed=seed * shards + i, **synth) for i in range(shards)]
    return configs, max(1, round(workload["records"] * scale))


@dataclasses.dataclass
class Inputs:
    corpus: Path
    n_records: int
    author_of: dict      # tweet id -> account id
    truth: dict          # account id -> "human" | "bot"
    prepare_s: float
    cached: bool


def _shard_records(path: Path, prefix: str):
    """(created_at, tweet id, author id, line) of a syngen corpus, in file order.

    With a prefix, every tweet, account and retweet id and screen name gets
    it, so that the ids of merged shards stay distinct.
    """
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if prefix:
                rec["id"] = prefix + rec["id"]
                rec["user"]["id"] = prefix + rec["user"]["id"]
                rec["user"]["screen_name"] = prefix + rec["user"]["screen_name"]
                if "retweeted_status_id" in rec:
                    rec["retweeted_status_id"] = prefix + rec["retweeted_status_id"]
                line = json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"
            yield rec["created_at"], rec["id"], rec["user"]["id"], line


def prepare_inputs(configs: list, records: int, cache_dir: Path) -> Inputs:
    """Generate (or reuse) the corpus, ground truth and author map for configs.

    The corpus is the first ``records`` tweets, in time order, of the shards
    syngen writes for configs, so that every seed gives the same input size;
    the ground truth keeps the accounts that appear in it.
    """
    from botminer import syngen

    t0 = time.perf_counter()
    blob = json.dumps({"synth": [dataclasses.asdict(c) for c in configs], "records": records},
                      sort_keys=True)
    key = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:20]
    entry = cache_dir / "inputs" / key
    cached = (entry / "meta.json").is_file()
    if cached:
        os.utime(entry)
    else:
        tmp = entry.with_name(key + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.rmtree(entry, ignore_errors=True)
        tmp.mkdir(parents=True)
        truth = {}
        streams = []
        for i, config in enumerate(configs):
            prefix = f"s{i}" if len(configs) > 1 else ""
            shard = syngen.generate(config, tmp / f"shard{i}.ndjson", tmp / f"shard{i}.csv")
            truth.update((prefix + acct, label) for acct, label in shard.items())
            streams.append(_shard_records(tmp / f"shard{i}.ndjson", prefix))
        author_of = {}
        with open(tmp / "corpus.ndjson", "w", encoding="utf-8", newline="\n") as dst:
            for _, tweet_id, author, line in heapq.merge(*streams):
                if len(author_of) == records:
                    break
                author_of[tweet_id] = author
                dst.write(line)
        for stream in streams:
            stream.close()
        if len(author_of) < records:
            raise ValueError(f"{configs} give {len(author_of)} tweets, fewer than {records}")
        present = set(author_of.values())
        with open(tmp / "ground_truth.csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write("account_id,label\n")
            fh.writelines(f"{acct},{truth[acct]}\n" for acct in sorted(present))
        for i in range(len(configs)):
            (tmp / f"shard{i}.ndjson").unlink()
            (tmp / f"shard{i}.csv").unlink()
        (tmp / "authors.json").write_text(json.dumps(author_of), "utf-8")
        (tmp / "meta.json").write_text(json.dumps({"key": json.loads(blob),
                                                   "n_records": records}), "utf-8")
        os.replace(tmp, entry)
        _prune(entry.parent)
    meta = json.loads((entry / "meta.json").read_text("utf-8"))
    author_of = json.loads((entry / "authors.json").read_text("utf-8"))
    truth = syngen.load_ground_truth(entry / "ground_truth.csv")
    return Inputs(entry / "corpus.ndjson", meta["n_records"], author_of, truth,
                  time.perf_counter() - t0, cached)


def _prune(inputs_dir: Path):
    entries = sorted((p for p in inputs_dir.iterdir() if (p / "meta.json").is_file()),
                     key=lambda p: p.stat().st_mtime, reverse=True)
    for stale in entries[CACHE_KEEP:]:
        shutil.rmtree(stale, ignore_errors=True)


class RunFailed(Exception):
    """A run that crashed, exited non-zero or failed its output checks."""


@dataclasses.dataclass
class RunResult:
    wall_s: float
    setup_s: float
    peak_rss_mib: float
    class_digest: str
    artifact_bytes: int
    spans: list | None
    speed: float = 1.0   # the pacer's speed during the run

    @property
    def ref_wall_s(self) -> float:
        return self.wall_s * self.speed

    @property
    def ref_setup_s(self) -> float:
        return self.setup_s * self.speed


def run_worker(src: Path, workload: dict, inputs: Inputs, work_dir: Path,
               trace: bool, cpu: int) -> tuple[dict, Path]:
    """One CLI run in a fresh worker on cpu; returns its result record and out dir."""
    out_dir = work_dir / "out"
    result_path = work_dir / "result.json"
    shutil.rmtree(out_dir, ignore_errors=True)
    result_path.unlink(missing_ok=True)
    job = {
        "src": str(src),
        "flags": workload["flags"],
        "argv": [arg.format(corpus=inputs.corpus, out=out_dir) for arg in workload["argv"]],
        "trace": trace,
        "cpu": cpu,
        "result": str(result_path),
    }
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=dict(os.environ, **FIXED_ENV))
    except subprocess.TimeoutExpired:
        raise RunFailed(f"worker ran past {RUN_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RunFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    record = json.loads(result_path.read_text("utf-8"))
    if record["exit_code"] != 0:
        raise RunFailed(f"botminer exited {record['exit_code']}: {proc.stderr.strip()[-2000:]}")
    return record, out_dir


class Checker:
    """Checks each run; runs with identical artifacts are checked once."""

    def __init__(self, workload: dict, inputs: Inputs):
        self.workload = workload
        self.inputs = inputs
        self.first_digest = None
        self.report = None  # DetectionReport of the first run
        self._problems: dict[str, list] = {}

    def check(self, out_dir: Path) -> str:
        """Raise RunFailed on any problem; return the classification file's sha256."""
        digest = checks.artifact_digest(out_dir)
        if digest not in self._problems:
            self._problems[digest], report = checks.check_run(
                out_dir, self.workload, self.inputs.n_records,
                self.inputs.author_of, self.inputs.truth)
            self.report = self.report or report
        problems = list(self._problems[digest])
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            problems.append(f"artifact sha256 {digest[:16]} differs from the first run's"
                            f" {self.first_digest[:16]}")
        if problems:
            raise RunFailed("; ".join(problems))
        return checks.file_digest(out_dir / self.workload["classification_file"])


def run_checked(src, workload, inputs, work_dir, checker, trace, pace) -> RunResult:
    before = pace.reading()
    record, out_dir = run_worker(src, workload, inputs, work_dir, trace, pace.cpu)
    speed = pace.speed(before, pace.reading())
    class_digest = checker.check(out_dir)
    artifact_bytes = sum(p.stat().st_size for p in out_dir.iterdir())
    return RunResult(record["wall_s"], record["setup_s"], record["peak_rss_mib"],
                     class_digest, artifact_bytes, record["spans"], speed)


def _line(name: str, value, unit: str, note: str = ""):
    print(f"{name:<34}{value:>16.6f} {unit:<9}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply the workload's corpus size (tests use a tiny scale)")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    root = Path.cwd()
    src = root / "src"
    if not (src / "botminer" / "__init__.py").is_file():
        print(f"perfbench: no botminer sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    spec = load_workloads()
    if args.workload not in spec["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r};"
              f" choose from {sorted(spec['workloads'])}", file=sys.stderr)
        return 2
    workload = spec["workloads"][args.workload]
    cache_dir = root / ".bench_cache"
    work_dir = cache_dir / "run" / args.workload
    work_dir.mkdir(parents=True, exist_ok=True)

    configs, records = synth_configs(workload, args.seed, args.scale)
    inputs = prepare_inputs(configs, records, cache_dir)
    print(f"workload {args.workload} seed {args.seed}: {inputs.n_records} tweets,"
          f" {len(inputs.truth)} accounts; inputs {'reused' if inputs.cached else 'generated'}"
          f" in {inputs.prepare_s:.2f} s")

    checker = Checker(workload, inputs)
    attempted = failed = 0
    plain: list[RunResult] = []
    traced: list[RunResult] = []
    schedule = [False, True] if args.trace else [False]

    def attempt(trace: bool) -> RunResult | None:
        nonlocal attempted, failed
        attempted += 1
        try:
            return run_checked(src, workload, inputs, work_dir, checker, trace, pace)
        except RunFailed as exc:
            failed += 1
            print(f"run {attempted} failed: {exc}")
            return None

    with pacer.Pacer(max(os.sched_getaffinity(0))) as pace:
        attempt(False)  # warm-up: checked, not timed
        t0 = time.perf_counter()
        rounds = 0
        round_s = 0.0
        while ((rounds < MIN_RUNS or time.perf_counter() - t0 + round_s <= args.seconds)
               and time.perf_counter() - started < DEADLINE_S):
            round_t0 = time.perf_counter()
            for trace in schedule:
                result = attempt(trace)
                if result is not None:
                    (traced if trace else plain).append(result)
            rounds += 1
            round_s = time.perf_counter() - round_t0

    _line("failed_ratio", failed / attempted, "ratio", f"{failed}/{attempted} runs")
    if checker.report is not None:
        print(f"planted-bot recall {checker.report.recall:.4f},"
              f" false-positive rate {checker.report.false_positive_rate:.4f}"
              f" ({checker.report.true_bots} bots, {checker.report.true_humans} humans)")
    if checker.first_digest is not None and not failed:
        print(f"artifacts_sha256 {args.workload} seed={args.seed} {checker.first_digest}")
        print(f"classification_sha256 {args.workload} seed={args.seed}"
              f" {(plain or traced)[0].class_digest}")
    metrics = {}
    if not failed and plain and (traced or not args.trace):
        wall = statistics.median(r.ref_wall_s for r in plain)
        speed = statistics.median(r.speed for r in plain + traced)
        _line("speed_factor", speed, "ratio",
              f"median pacer speed over {len(plain) + len(traced)} runs")
        if args.trace:
            metrics = trace_metrics(traced)
            overhead = statistics.median(r.ref_wall_s for r in traced) - wall
            _line("tracing_overhead_s", overhead, "s",
                  f"traced minus untraced median wall_s, {len(traced)} + {len(plain)} runs")
        else:
            raw_wall = statistics.median(r.wall_s for r in plain)
            for name, value, unit in (
                    ("raw_wall_s", raw_wall, "s"),
                    ("raw_tweets_per_s", inputs.n_records / raw_wall, "tweets/s"),
                    ("raw_setup_s", statistics.median(r.setup_s for r in plain), "s")):
                _line(name, value, unit, f"as measured, median of {len(plain)} runs")
            values = {
                "wall_s": wall,
                "tweets_per_s": inputs.n_records / wall,
                "peak_rss_mib": statistics.median(r.peak_rss_mib for r in plain),
                "setup_s": statistics.median(r.ref_setup_s for r in plain),
            }
            for name, value in values.items():
                note = "" if name == "peak_rss_mib" else ", at reference speed"
                _line(name, value, END_TO_END[name], f"median of {len(plain)} runs{note}")
            metrics = {name: {"value": value, "unit": END_TO_END[name]}
                       for name, value in values.items()}
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def trace_metrics(traced: list[RunResult]) -> dict:
    """Median of each per-layer metric over the traced runs; prints them."""
    per_run = []
    absent = []
    for r in traced:
        values, absent = spans.layer_metrics(r.spans, r.artifact_bytes)
        per_run.append({name: value * r.speed if spans.LAYER_METRICS[name] == "s" else value
                        for name, value in values.items()})
    print(f"layers not reached: {', '.join(absent) if absent else 'none'}"
          " (their metrics read 0)")
    metrics = {}
    for name, unit in spans.LAYER_METRICS.items():
        value = statistics.median(v[name] for v in per_run)
        _line(name, value, unit, f"median of {len(per_run)} traced runs")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


if __name__ == "__main__":
    if any(os.environ.get(k) != v for k, v in FIXED_ENV.items()):
        # the pacer hashes strings too: give it the workers' fixed layout
        os.execve(sys.executable, [sys.executable, *sys.argv], dict(os.environ, **FIXED_ENV))
    sys.exit(main())
