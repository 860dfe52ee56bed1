"""Tests of the benchmark harness itself, on shrunk inputs.

Run from the repository root with `python3 -m pytest perfbench -q`; the
tier-1 suite (testpaths = tests) does not collect them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from layers import PER_LAYER, covered, self_times
from run import END_TO_END, OUT_DIR, SRC, median_and_tail
from traced_cli import MissingHook, Tracer
from workloads import WORKLOADS, Calibrate, Command, Outcome, _summaries_agree, params_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_file_lists_what_the_harness_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == PER_LAYER


def test_self_time_subtracts_the_union_of_children():
    assert covered((0.0, 10.0), [(1.0, 3.0), (2.0, 4.0), (9.0, 12.0)]) == pytest.approx(4.0)
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 1, "start": 2.0, "end": 3.0},
        {"id": 3, "parent": 0, "start": 6.0, "end": 7.0},
    ]
    assert self_times(spans) == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert median_and_tail([1.0] * 10) == "median 1, n=10"
    assert median_and_tail([float(v) for v in range(1, 21)]) == "median 10.5, p50 10, n=20"


def test_tracer_refuses_a_missing_function(monkeypatch):
    with pytest.raises(MissingHook, match="json.no_such_function"):
        Tracer().wrap("json", "no_such_function", "json.no_such_function")
    monkeypatch.syspath_prepend(str(SRC))
    from vortexloc import bloch

    monkeypatch.delattr(bloch, "_rk4_samples")
    with pytest.raises(MissingHook, match="_rk4_samples"):
        Tracer().count_steps()


def test_seed_fixes_the_inputs():
    assert params_for(7) == params_for(7)
    assert 150.0 <= params_for(7).kappa <= 500.0


def _outcome(path: Path, text: str) -> Outcome:
    path.write_text(text)
    return Outcome(Command(path.stem, ()), path, 0, "ok\n", 1.0, 1.0, 1.0)


def test_calibrate_oracle_flags_thread_dependent_output_and_a_wrong_offset(tmp_path):
    good = "# summary.delta_c0_mhz = 30\n# summary.delta_mhz = 30.41504135\n# summary.s0_mhz = 0.415041349\nx\n1\n"
    bad = good.replace("30.41504135", "30.41504235")
    params = params_for(1)
    ok = {"t1": _outcome(tmp_path / "a.csv", good), "t2": _outcome(tmp_path / "b.csv", good)}
    assert Calibrate().check(params, False, ok) == {}
    broken = {"t1": _outcome(tmp_path / "c.csv", bad), "t2": _outcome(tmp_path / "d.csv", good)}
    assert set(Calibrate().check(params, False, broken)) == {"t1", "t2"}


def test_csv_and_json_summaries_compare_at_print_precision():
    csv = {"peak": "1", "iso_x_um": "-0.00556477765 0.00556477765", "iso_z_um": "absent"}
    same = {"peak": 1.0, "iso_x_um": [-0.005564777649968916, 0.005564777649968916], "iso_z_um": "absent"}
    assert _summaries_agree(csv, same)
    assert not _summaries_agree(csv, dict(same, peak=0.99))
    assert not _summaries_agree(csv, dict(same, extra=1))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program_sources():
    bare = OUT_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for source in HERE.glob("*.py"):
            shutil.copy(source, bare / "perfbench")
        done = _run(bare, "--workload", "direct", "--seed", "1", "--seconds", "1", "--trace", "0")
        assert done.returncode != 0
        assert '"correct"' not in done.stdout
    finally:
        shutil.rmtree(bare)
