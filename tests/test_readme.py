"""The README's examples and artifact layout, checked against the code."""

import json
import re
from pathlib import Path

from botminer.cli import main
from botminer.corpus import AccountSnapshot, AccountStats, Tweet
from botminer.detector import ActivityStrategy, DetectorConfig, load_detector_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")


def _code_block(after_heading: str, lang: str = "") -> str:
    section = README.split(after_heading, 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.DOTALL).group(1)


def _artifact_columns() -> dict:
    """File name -> column list, from the README's Artifacts block."""
    columns = {}
    for line in _code_block("## Artifacts").splitlines():
        pattern, described = line.split(None, 1)
        names = [pattern]
        brace = re.search(r"\{(.*?)\}", pattern)
        if brace:
            names = [pattern.replace(brace.group(0), part)
                     for part in brace.group(1).split(",")]
        for name in names:
            columns[name.replace(".csv|jsonl", ".csv")] = described
    return columns


def test_readme_synth_names_its_files(tmp_path, capsys):
    named = re.search(r"`botminer synth` writes `(\S+)` plus `(\S+)`", README).groups()
    assert main(["synth", "--out", str(tmp_path), "--humans", "30", "--bots", "3"]) == 0
    capsys.readouterr()
    assert {p.name for p in tmp_path.iterdir()} == set(named)


def test_readme_library_example_and_artifact_headers(tmp_path, monkeypatch, capsys):
    assert main(["synth", "--out", str(tmp_path), "--seed", "11",
                 "--humans", "30", "--bots", "3"]) == 0
    monkeypatch.chdir(tmp_path)
    exec(_code_block("## Library use", "python"), {})
    assert capsys.readouterr().out.strip()

    out = tmp_path / "out"
    expected = _artifact_columns()
    assert set(expected) == {p.name for p in out.iterdir()}
    for name, described in expected.items():
        lines = (out / name).read_text("utf-8").splitlines()
        if name.endswith(".csv"):
            assert described.split("(")[0].strip() == ", ".join(lines[1].split(",")), name
        else:
            sections = [s.strip() for s in described.split("/")]
            assert set(sections) <= set(json.loads("\n".join(lines)))


def test_readme_detector_config_loads_and_runs(tmp_path, capsys):
    cfg_path = tmp_path / "detector.cfg"
    cfg_path.write_text(_code_block("**Detector config**", "ini"), encoding="utf-8")
    (tmp_path / "sources.txt").write_text("twittbot.net\nIFTTT\n", encoding="utf-8")
    assert load_detector_config(cfg_path) == DetectorConfig(
        min_followers=100, ratio_tolerance=0.10, activity_strategy=ActivityStrategy.QUANTILE,
        activity_quantile=0.95, iqr_multiplier=1.5, iqr_fence_base="q3",
        duplicate_min_cluster=2, suspicious_sources=frozenset({"twittbot.net", "ifttt"}))
    assert main(["synth", "--out", str(tmp_path), "--humans", "30", "--bots", "3"]) == 0
    assert main(["detect", str(tmp_path / "corpus.ndjson"), "--config", str(cfg_path)]) == 0
    assert "Bot" in capsys.readouterr().out


def _listed_fields(intro: str) -> tuple:
    """The backticked names of the README sentence that *intro* opens, asides left out."""
    text = " ".join(README.split())  # a sentence may wrap anywhere
    sentence = re.search(re.escape(intro) + r"(.*?)\. ", text).group(1)
    return tuple(re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", sentence)))


def test_readme_data_model_lists_each_named_tuples_fields():
    for intro, model in [("A `Tweet` is a named tuple of", Tweet),
                         ("The `AccountSnapshot` is the author state the record carries:",
                          AccountSnapshot),
                         ("`AccountStats` is a named tuple of", AccountStats)]:
        assert _listed_fields(intro) == model._fields, intro
