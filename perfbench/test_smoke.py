"""Smoke test of the benchmark itself, on tiny inputs.

Run from the root of the repository:

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from refclock import RefClock, clock  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def tiny_run(workload: str, trace: int, out: Path) -> dict:
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--size", "tiny", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_and_every_check_ran(workload, trace, tmp_path):
    out = tmp_path / "result.json"
    last = tiny_run(workload, trace, out)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["failed"] == 0 and last["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in last["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in last["metrics"].values())

    full = json.loads(out.read_text())["runs"][workload][f"trace{trace}"]
    assert full["checks"] and all(count > 0 for count in full["checks"].values()), full["checks"]
    assert {"nproc", "python", "git_sha", "seed", "kernel_backend"} <= set(full["meta"])
    if workload == "campaign":
        assert full["info"]["selftest_failed_ratio"] > 0
    if workload == "cli":
        assert full["info"]["defect_probe"]["calls"] == 3
    if trace:
        with gzip.open(full["info"]["spans_file"], "rt", encoding="utf-8") as fh:
            rows = fh.read().splitlines()
        assert rows[0] == "index\tname\tstart_s\tend_s\tparent"
        assert len(rows) - 1 == full["info"]["spans"] + full["info"]["reference_slices"]


def test_compare_prints_every_metric(tmp_path):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    tiny_run("cli", 0, old)
    tiny_run("cli", 0, new)
    proc = run_bench("--old", str(old), "--new", str(new))
    assert proc.returncode in (0, 1), proc.stderr
    for metric in SPEC["end_to_end"]:
        assert metric["name"] in proc.stdout


def write_runs(tmp_path, side: str, walls: list[float]) -> list[str]:
    paths = []
    for k, wall in enumerate(walls):
        path = tmp_path / f"{side}{k}.json"
        run.write_result(str(path), "scale", 0, {
            "meta": {"kernel_backend": "python", "python": "CPython", "nproc": 2},
            "metrics": {"wall_s": {"value": wall, "unit": "s"}},
        })
        paths.append(str(path))
    return paths


@pytest.mark.parametrize("new, verdict, code", [
    ([1.02, 0.99, 1.0, 1.01, 0.98], "within bound", 0),
    ([1.51, 1.49, 1.5, 1.52, 1.48], "WORSE", 1),
    ([0.6, 2.9, 1.5, 1.0, 2.0], "unresolved (spread", 0),
])
def test_compare_judges_medians_against_the_spread(tmp_path, capsys, new, verdict, code):
    old = write_runs(tmp_path, "old", [1.0, 1.01, 0.99, 1.02, 0.98])
    assert run.compare(old, write_runs(tmp_path, "new", new)) == code
    assert verdict in capsys.readouterr().out


def test_compare_needs_several_runs_per_side(tmp_path, capsys):
    old = write_runs(tmp_path, "old", [1.0])
    assert run.compare(old, write_runs(tmp_path, "new", [1.5])) == 0
    assert "unresolved (too few runs" in capsys.readouterr().out


def test_refclock_scales_each_gap_by_its_own_slices():
    refclock = RefClock()
    # slices of 2 ms and 4 ms; the gap between them runs at 3 ms per slice
    refclock.starts.extend([1.000, 1.022])
    refclock.ends.extend([1.002, 1.026])
    refclock.index()
    nominal = run.NOMINAL_SLICE_S
    assert refclock.seconds(0.990, 0.998) == pytest.approx(0.008 * nominal / 0.002)
    assert refclock.seconds(1.003, 1.013) == pytest.approx(0.010 * nominal / 0.003)
    across = 0.008 / 0.002 + 0.020 / 0.003 + 0.004 / 0.004
    assert refclock.seconds(0.992, 1.030) == pytest.approx(across * nominal)


def test_refclock_samples_a_running_interval():
    refclock = RefClock().start()
    start = clock()
    while clock() - start < 0.3:
        pass
    end = clock()
    refclock.stop()
    assert sum(start < s < e < end for s, e in refclock.slices) >= 5
    assert refclock.seconds(start, end) > 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
