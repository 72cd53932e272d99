from noetherlab.campaign import SUITES, RunConfig, emit_report, run_campaign
from noetherlab.errors import NoetherError

import pytest


def test_every_registered_suite_passes_briefly():
    config = RunConfig(seed=5, trials=4)
    names = sorted(n for n in SUITES if n != "selftest-mutation")
    report = run_campaign(config, names)
    failing = {n: r for n, r in report["suites"].items() if r["failures"]}
    assert not failing, failing
    assert report["all_passed"]


def test_reports_are_byte_identical_across_runs():
    config = RunConfig(seed=11, trials=6, bounds={"maxPoints": 8})
    names = ["prop43-equivalence", "lattice-laws"]
    a = emit_report(run_campaign(config, names))
    b = emit_report(run_campaign(config, names))
    assert a == b


def test_reports_are_stable_across_parallelism(tmp_path):
    config = RunConfig(seed=11, trials=6)
    names = ["adjacency-laws", "coloring-constructions"]
    serial = emit_report(run_campaign(config, names, jobs=1))
    parallel = emit_report(run_campaign(config, names, jobs=2), str(tmp_path / "r.json"))
    assert serial == parallel
    assert (tmp_path / "r.json").read_text() == parallel


def test_different_seeds_differ():
    names = ["selftest-mutation"]
    a = run_campaign(RunConfig(seed=1, trials=20), names)
    b = run_campaign(RunConfig(seed=2, trials=20), names)
    fa = a["suites"]["selftest-mutation"]["failures"]
    fb = b["suites"]["selftest-mutation"]["failures"]
    assert fa > 0 and fb > 0  # the corrupted checker must surface failures
    assert a["suites"] != b["suites"] or fa != fb


def test_mutation_fixture_reports_counterexamples():
    report = run_campaign(RunConfig(seed=1, trials=20), ["selftest-mutation"])
    suite = report["suites"]["selftest-mutation"]
    assert suite["failures"] > 0
    assert not report["all_passed"]
    assert suite["counterexamples"][0]["detail"]["note"] == "deliberate mutation fixture"


def test_unknown_suite_rejected():
    with pytest.raises(NoetherError):
        run_campaign(RunConfig(seed=0, trials=1), ["no-such-suite"])


def test_one_pool_per_campaign_clamped_to_cpus(monkeypatch):
    import multiprocessing
    import os

    made = []

    class RecordingPool:
        """Runs the trials in this process and records each pool's size."""

        def __init__(self, processes):
            made.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, args):
            return [fn(*a) for a in args]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    config = RunConfig(seed=11, trials=3)
    names = ["adjacency-laws", "box-enumeration", "lattice-laws"]
    serial = emit_report(run_campaign(config, names))
    assert emit_report(run_campaign(config, names, jobs=100_000)) == serial
    assert made == [3]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert emit_report(run_campaign(config, names, jobs=4)) == serial
    assert made == [3]
