"""Output checks for one benchmark run of the botminer CLI.

A run passes when its artifacts are internally consistent and its detection
quality against the planted ground truth meets the workload's floors.  Each
check returns a list of problems; an empty list means the run is correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path
from types import SimpleNamespace

SLUG_OF = {"NoBot": "nobot", "Suspicious": "suspicious", "Bot": "bot"}


def artifact_digest(out_dir: Path) -> str:
    """sha256 over every file name and its bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode("utf-8") + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _data_lines(path: Path):
    with open(path, encoding="utf-8", newline="") as fh:
        for line in fh:
            if not line.startswith("#"):
                yield line


def read_labels(path: Path) -> list[tuple[str, str]]:
    """(tweet_id, label) per row of a csv or jsonl classification file."""
    if path.suffix == ".jsonl":
        rows = [json.loads(line) for line in _data_lines(path)]
        return [(r["tweet_id"], r["label"]) for r in rows]
    reader = csv.reader(_data_lines(path))
    header = next(reader)
    if header[:2] != ["tweet_id", "label"]:
        raise ValueError(f"unexpected classification header {header}")
    return [(row[0], row[1]) for row in reader]


def read_ecdf(path: Path) -> list[tuple[float, float]]:
    reader = csv.reader(_data_lines(path))
    header = next(reader)
    if header != ["value", "cumulative_probability"]:
        raise ValueError(f"unexpected ECDF header {header}")
    return [(float(x), float(p)) for x, p in reader]


def ks_d_from_tables(a: list, b: list) -> float:
    """sup |F_a - F_b| over the pooled points of two written ECDF tables."""
    d = 0.0
    fa = fb = 0.0
    i = j = 0
    while i < len(a) or j < len(b):
        xa = a[i][0] if i < len(a) else float("inf")
        xb = b[j][0] if j < len(b) else float("inf")
        x = min(xa, xb)
        if xa == x:
            fa = a[i][1]
            i += 1
        if xb == x:
            fb = b[j][1]
            j += 1
        d = max(d, abs(fa - fb))
    return d


def detection_quality(labels, author_of: dict, truth: dict):
    """Account-level recall and false-positive rate via syngen.evaluate_detection."""
    from botminer.detector import Classification, Label
    from botminer.syngen import evaluate_detection

    bots = [Classification(tid, Label.BOT, frozenset()) for tid, label in labels
            if label == Label.BOT.value]
    tweets = [SimpleNamespace(id=tid, author_id=acct) for tid, acct in author_of.items()]
    return evaluate_detection(bots, SimpleNamespace(tweets=tweets), truth)


def check_run(out_dir: Path, workload: dict, n_records: int,
              author_of: dict, truth: dict) -> tuple[list[str], object]:
    """Every problem found in one run's artifacts (empty list: correct), and
    the run's DetectionReport (None when the classification file is missing)."""
    problems = []
    class_path = out_dir / workload["classification_file"]
    if not class_path.exists():
        return [f"missing {class_path.name}"], None
    labels = read_labels(class_path)
    if len(labels) != n_records:
        problems.append(f"{class_path.name} has {len(labels)} rows, corpus has {n_records} tweets")
    label_counts = {}
    for _, label in labels:
        label_counts[label] = label_counts.get(label, 0) + 1

    summary_path = out_dir / "run_summary.json"
    if workload["writes_summary"]:
        if not summary_path.exists():
            return problems + ["missing run_summary.json"], None
        summary = json.loads(summary_path.read_text("utf-8"))
        problems += _check_summary(out_dir, summary, label_counts, len(labels))

    report = detection_quality(labels, author_of, truth)
    floors = workload["floors"]
    if report.recall is None or report.recall < floors["min_recall"]:
        problems.append(f"planted-bot recall {report.recall} below {floors['min_recall']}")
    if report.false_positive_rate is None or report.false_positive_rate > floors["max_fpr"]:
        problems.append(f"false-positive rate {report.false_positive_rate} above {floors['max_fpr']}")
    return problems, report


def _check_summary(out_dir: Path, summary: dict, label_counts: dict, n_rows: int) -> list:
    problems = []
    if summary["corpus"]["total_tweets"] != n_rows:
        problems.append("run_summary total_tweets differs from classification rows")
    disjoint = summary["detection"]["disjoint_label_shares"]
    for label, row in disjoint.items():
        if row["count"] != label_counts.get(label, 0):
            problems.append(f"run_summary counts {row['count']} {label} tweets,"
                            f" classification file {label_counts.get(label, 0)}")
    missing = [name for name in summary["artifacts"] if not (out_dir / name).exists()]
    if missing:
        problems.append(f"run_summary names missing artifacts {missing}")

    tables = {}
    for label, slug in SLUG_OF.items():
        try:
            points = read_ecdf(out_dir / f"ecdf_{slug}.csv")
        except (OSError, ValueError) as exc:
            problems.append(f"ecdf_{slug}.csv unreadable: {exc}")
            continue
        if points and points[-1][1] != 1.0:
            problems.append(f"ecdf_{slug}.csv ends at {points[-1][1]}, not 1.0")
        tables[label] = points
    for pair, res in summary["sentiment"]["ks_comparisons"].items():
        if res is None:
            continue
        a, _, b = pair.partition("_vs_")
        if a not in tables or b not in tables:
            continue
        d = ks_d_from_tables(tables[a], tables[b])
        if abs(d - res["d_statistic"]) > 1e-12:
            problems.append(f"{pair}: d_statistic {res['d_statistic']} but the ECDF tables give {d}")
    return problems
