"""Command-line entry point.

Subcommands:
    ingest-check  parse a corpus file and report what loaded
    detect        classify tweets and print label shares
    analyze       full pipeline, console output focused on the text analyses
    synth         generate a synthetic corpus with planted ground truth
    run           full pipeline with the complete summary report
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import corpus as corpus_mod
from . import detector as detector_mod
from . import pipeline as pipeline_mod
from .errors import BotminerError


def _corpus_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("corpus", help="newline-delimited JSON tweet dump")
    p.add_argument("--strict", action="store_true",
                   help="abort on the first malformed record (default: skip and count)")
    return p


def _detector_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--config", metavar="PATH", help="detector config file (key = value lines)")
    p.add_argument("--rate-basis", choices=["window", "lifetime"], default=None,
                   help="tweets-per-day basis: corpus window (default) or account lifetime")
    p.add_argument("--activity-strategy", choices=["quantile", "iqr"], default=None,
                   help="posting-rate outlier strategy")
    p.add_argument("--quantile", type=float, default=None, metavar="Q",
                   help="activity quantile level (default 0.95)")
    p.add_argument("--ratio-tolerance", type=float, default=None, metavar="T",
                   help="max relative follower/friend gap (default 0.10)")
    p.add_argument("--sources", metavar="PATH",
                   help="suspicious app list, one name per line")
    return p


def _textmine_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--lexicon", metavar="PATH", help="sentiment lexicon TSV")
    p.add_argument("--stopwords", metavar="PATH", help="stop-word list")
    return p


def _flags_from_args(args) -> dict:
    return {flag: getattr(args, flag, None) for flag in pipeline_mod.FLAGS}


def _print_shares(detection: dict):
    """The label table and threshold line of run_summary.json's ``detection`` section."""
    print(f"{'label':<12}{'count':>10}   share")
    for label in detector_mod.Label:
        row = detection["inclusive_label_shares"][label.value]
        note = "  (includes Bot)" if label is detector_mod.Label.SUSPICIOUS else ""
        print(f"{label.value:<12}{row['count']:>10}   {row['share']:7.2%}{note}")
    print(f"activity threshold: {detection['activity_threshold']:.4f} tweets/day "
          f"({detection['activity_strategy']})")


def _print_sentiment(sentiment: dict):
    """Group means and KS comparisons of run_summary.json's ``sentiment`` section."""
    print("group mean sentiment (per tweet):")
    for label in detector_mod.Label:
        mean = sentiment["group_means"][label.value]
        print(f"  {label.value:<12}{'undefined' if mean is None else format(mean, '+.4f')}")
    print("KS comparisons (word-level sentiment):")
    for pair, res in sentiment["ks_comparisons"].items():
        if res is None:
            print(f"  {pair:<24}skipped (empty group)")
        else:
            print(f"  {pair:<24}d={res['d_statistic']:.4f}  p={res['p_value']:.3g}")


def cmd_ingest_check(args) -> int:
    settings = pipeline_mod.settings_from_flags(None, _flags_from_args(args))
    corp = corpus_mod.ingest(args.corpus, strictness=settings.strictness)
    report = pipeline_mod.corpus_report(corp)
    print(f"tweets: {report['total_tweets']}")
    print(f"accounts: {report['total_accounts']}")
    print(f"span: {report['span_start']} .. {report['span_end']} ({corp.span_days:.3f} days)")
    print(f"skipped records: {report['skipped_records']}")
    print(f"duplicate ids: {report['duplicate_ids']}")
    return 0


def cmd_detect(args) -> int:
    settings = pipeline_mod.settings_from_flags(args.config, _flags_from_args(args))
    corp = corpus_mod.ingest(args.corpus, strictness=settings.strictness,
                             rate_basis=settings.rate_basis)
    detection = detector_mod.classify(corp, settings.detector)
    _print_shares(pipeline_mod.detection_report(detection, settings.detector))
    if args.out:
        path = pipeline_mod.save_classifications(args.out, settings.fingerprint(),
                                                 detection, settings.output_format)
        print(f"wrote {path}")
    return 0


def cmd_pipeline(args) -> int:
    """The full pipeline: run reports it all, analyze (``full_report`` false) its sentiment."""
    report, timings = pipeline_mod.run_pipeline(args.corpus, args.config, args.out,
                                                _flags_from_args(args))
    if args.full_report:
        _print_shares(report["detection"])
    _print_sentiment(report["sentiment"])
    if args.full_report:
        print(f"config fingerprint: {report['config_fingerprint']}")
    print(f"artifacts in {args.out}: {', '.join(report['artifacts'])}")
    if args.full_report:
        for stage, seconds in timings.items():
            print(f"timing {stage}: {seconds:.3f}s", file=sys.stderr)
    return 0


def cmd_synth(args) -> int:
    from . import syngen as syngen_mod  # only synth needs it: other commands start without

    config = syngen_mod.SynthConfig(
        seed=args.seed, n_humans=args.humans, n_bots=args.bots,
        span_hours=args.span_hours, human_rate_mean=args.human_rate,
        bot_rate_mean=args.bot_rate)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus_path = out_dir / "corpus.ndjson"
    truth_path = out_dir / "ground_truth.csv"
    truth = syngen_mod.generate(config, corpus_path, truth_path)
    with open(corpus_path, encoding="utf-8") as fh:
        n_lines = sum(1 for _ in fh)
    print(f"wrote {corpus_path} ({n_lines} tweets)")
    print(f"wrote {truth_path} ({len(truth)} accounts)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="botminer",
        description="Heuristic social-bot detection and tweet-corpus text mining")
    sub = parser.add_subparsers(dest="command", required=True)

    corpus_parent = _corpus_parent()
    detector_parent = _detector_parent()
    textmine_parent = _textmine_parent()
    formats = list(pipeline_mod.CLASSIFICATION_FILES)

    p = sub.add_parser("ingest-check", parents=[corpus_parent],
                       help="parse a corpus file and report what loaded")
    p.set_defaults(func=cmd_ingest_check)

    p = sub.add_parser("detect", parents=[corpus_parent, detector_parent],
                       help="classify tweets and print label shares")
    p.add_argument("--out", metavar="DIR", help="also write per-tweet classification records")
    p.add_argument("--format", choices=formats, default=None,
                   help="classification record format (default csv)")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("analyze", parents=[corpus_parent, detector_parent, textmine_parent],
                       help="full pipeline, reporting sentiment and KS comparisons")
    p.add_argument("--out", metavar="DIR", required=True, help="artifact directory")
    p.add_argument("--format", choices=formats, default=None)
    p.set_defaults(func=cmd_pipeline, full_report=False)

    p = sub.add_parser("run", parents=[corpus_parent, detector_parent, textmine_parent],
                       help="full pipeline with the complete summary report")
    p.add_argument("--out", metavar="DIR", required=True, help="artifact directory")
    p.add_argument("--format", choices=formats, default=None)
    p.set_defaults(func=cmd_pipeline, full_report=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus with ground truth")
    p.add_argument("--out", metavar="DIR", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--humans", type=int, default=500)
    p.add_argument("--bots", type=int, default=25)
    p.add_argument("--span-hours", type=float, default=24.0)
    p.add_argument("--human-rate", type=float, default=5.0,
                   help="mean human tweets/day")
    p.add_argument("--bot-rate", type=float, default=300.0,
                   help="mean bot tweets/day")
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BotminerError, OSError, ValueError) as exc:
        print(f"botminer: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
