"""Tests of the benchmark harness itself, at a tiny corpus size.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
TINY = "0.05"


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--scale", TINY],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_metric_names_and_units_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.spans.LAYER_METRICS
    assert [w["name"] for w in SPEC["workloads"]] == list(run.load_workloads()["workloads"])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line.split()
                   for line in lines[:-1]), m["name"]
    assert any(line.startswith("failed_ratio ") for line in lines)
    if trace:
        assert any(line.startswith("tracing_overhead_s ") for line in lines)
        absent = "stats, textmine" if workload == "organic_detect" else "none"
        assert f"layers not reached: {absent} " in proc.stdout


def test_flipped_byte_in_ecdf_table_fails_the_run(tmp_path):
    workload = run.load_workloads()["workloads"]["paper_run"]
    configs, records = run.synth_configs(workload, 3, float(TINY))
    inputs = run.prepare_inputs(configs, records, tmp_path / "cache")
    work_dir = tmp_path / "work"
    work_dir.mkdir()
    checker = run.Checker(workload, inputs)
    with run.pacer.Pacer(max(os.sched_getaffinity(0))) as pace:
        run.run_checked(ROOT / "src", workload, inputs, work_dir, checker, False, pace)

    table = work_dir / "out" / "ecdf_bot.csv"
    data = bytearray(table.read_bytes())
    last_one = data.rindex(b"1.0")
    data[last_one] ^= 0x01  # "1.0" -> "0.0"
    table.write_bytes(bytes(data))

    problems, _ = run.checks.check_run(work_dir / "out", workload, inputs.n_records,
                                       inputs.author_of, inputs.truth)
    assert any("ecdf_bot.csv ends at 0.0" in p for p in problems)
    assert any("d_statistic" in p for p in problems)
    with pytest.raises(run.RunFailed, match="differs from the first run"):
        checker.check(work_dir / "out")


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("paper_run", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_pacer_measures_speed_and_stops():
    assert run.pacer.reference_job(run.pacer.make_input()) == \
        run.pacer.reference_job(run.pacer.make_input())
    with run.pacer.Pacer(max(os.sched_getaffinity(0))) as pace:
        before = pace.reading()
        time.sleep(0.5)
        assert pace.speed(before, pace.reading()) > 0
    assert pace._proc.exitcode is not None
