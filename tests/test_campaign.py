import random

from conftest import universes_of_every_kind
from noetherlab import _kernels, adjacent
from noetherlab.campaign import (
    BOUND_MINIMA,
    DEFAULT_BOUNDS,
    MAX_POINTS,
    SUITES,
    RunConfig,
    _first_fit_chain,
    emit_report,
    run_campaign,
    run_one,
)
from noetherlab.cli import main
from noetherlab.errors import NoetherError

import pytest


def test_every_registered_suite_passes_briefly():
    config = RunConfig(seed=5, trials=4)
    names = sorted(n for n in SUITES if n != "selftest-mutation")
    report = run_campaign(config, names)
    failing = {n: r for n, r in report["suites"].items() if r["failures"]}
    assert not failing, failing
    assert report["all_passed"]


def test_every_suite_draws_within_the_bound_minima():
    assert BOUND_MINIMA.keys() == DEFAULT_BOUNDS.keys()
    bounds = dict(BOUND_MINIMA)
    names = sorted(n for n in SUITES if n != "selftest-mutation")
    for seed in (1, 2):
        report = run_campaign(RunConfig(seed=seed, trials=8, bounds=bounds), names)
        assert report["all_passed"], seed


def test_run_config_refuses_unknown_and_too_small_bounds():
    refused = [
        ({"oracle": 5}, "bound 'oracle': unknown name (known: colorBudget, maxPoints)"),
        ({"maxPoints": 5}, "bound maxPoints: 5 is not an integer >= 6"),
        ({"colorBudget": 1}, "bound colorBudget: 1 is not an integer >= 2"),
        ({"maxPoints": "8"}, "bound maxPoints: '8' is not an integer >= 6"),
    ]
    for bounds, message in refused:
        with pytest.raises(NoetherError) as caught:
            RunConfig(1, 2, bounds=bounds)
        assert str(caught.value) == message
    report = run_campaign(RunConfig(1, 2, bounds=dict(BOUND_MINIMA)), ["hamming-chromatic"])
    assert report["config"]["bounds"] == {"colorBudget": 2, "maxPoints": 6}


def test_run_config_refuses_max_points_past_its_bound():
    with pytest.raises(NoetherError) as caught:
        RunConfig(1, 2, bounds={"maxPoints": MAX_POINTS + 1})
    assert str(caught.value) == "bound maxPoints: 1025 exceeds the bound 1024"
    assert RunConfig(1, 2, bounds={"maxPoints": MAX_POINTS}).bound("maxPoints") == MAX_POINTS


def test_reports_are_byte_identical_across_runs():
    config = RunConfig(seed=11, trials=6, bounds={"maxPoints": 8})
    names = ["prop43-equivalence", "lattice-laws"]
    a = emit_report(run_campaign(config, names))
    b = emit_report(run_campaign(config, names))
    assert a == b


def test_reports_are_stable_across_parallelism():
    config = RunConfig(seed=11, trials=6)
    names = ["adjacency-laws", "coloring-constructions"]
    serial = emit_report(run_campaign(config, names, jobs=1))
    parallel = emit_report(run_campaign(config, names, jobs=2))
    assert serial == parallel


def test_different_seeds_differ():
    names = ["selftest-mutation"]
    a = run_campaign(RunConfig(seed=1, trials=20), names)
    b = run_campaign(RunConfig(seed=2, trials=20), names)
    fa = a["suites"]["selftest-mutation"]["failures"]
    fb = b["suites"]["selftest-mutation"]["failures"]
    assert fa > 0 and fb > 0  # the corrupted checker must surface failures
    assert a["suites"] != b["suites"] or fa != fb


def test_mutation_fixture_reports_counterexamples():
    config = RunConfig(seed=1, trials=20)
    report = run_campaign(config, ["selftest-mutation"])
    suite = report["suites"]["selftest-mutation"]
    assert suite["failures"] > 0
    assert not report["all_passed"]
    assert suite["counterexamples"][0]["detail"]["note"] == "deliberate mutation fixture"
    # run_one returns a failing trial's counterexample and None for a pass;
    # the report lists the first failures, so the trials before them passed
    for example in suite["counterexamples"]:
        assert run_one("selftest-mutation", 1, example["trial"], config) == example["detail"]
    first = suite["counterexamples"][0]["trial"]
    assert first > 0
    assert all(run_one("selftest-mutation", 1, i, config) is None for i in range(first))


def test_a_raised_library_check_is_the_trial_counterexample(monkeypatch, tmp_path):
    # a kernel that gives every point color 0, which chromatic_number's
    # post-condition refuses on any universe with an edge
    monkeypatch.setattr(_kernels, "chromatic_number", lambda masks: (1, [0] * len(masks)))
    config = RunConfig(seed=20260811, trials=6)
    names = ["chromatic-oracle-agreement"]
    report = run_campaign(config, names)
    suite = report["suites"]["chromatic-oracle-agreement"]
    assert suite["failures"] > 0 and not report["all_passed"]
    for example in suite["counterexamples"]:
        detail = example["detail"]
        assert detail.keys() == {"raised", "message"}
        assert detail["raised"] == "VerificationError"
        assert detail["message"].startswith("oracle returned improper coloring")
        assert run_one(names[0], config.seed, example["trial"], config) == detail
    serial = emit_report(report)
    assert emit_report(run_campaign(config, names, jobs=2)) == serial
    out = tmp_path / "report.json"
    argv = ["campaign", *names, "--seed", "20260811", "--trials", "6", "--out", str(out)]
    assert main(argv) == 1
    assert out.read_text(encoding="utf-8") == serial


def test_budget_clamp_suite_holds_where_the_old_clamp_failed():
    # at seed 23 the old max(d)+2 clamp failed one trial in 150 (trial 121)
    for seed in (23, 20260811):
        report = run_campaign(RunConfig(seed=seed, trials=150), ["budget-clamp"])
        assert report["suites"]["budget-clamp"]["failures"] == 0, seed


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


def test_shared_universes_give_the_same_report_as_fresh_ones(monkeypatch):
    from noetherlab import campaign, generators, graphs, hamming

    caches = [
        generators.line_universe,
        generators.path_explicit_universe,
        generators.clustered_line_universe,
        hamming.make_diagonal_hamming,
        hamming.make_uniform_hamming,
        graphs.vertex_point,
    ]
    config = RunConfig(seed=20260811, trials=20)
    names = [
        "hamming-chromatic",
        "predense-equivalence",
        "ramsey-thm59",
        "liminf-thin",
        "mask-adjacency-agreement",
    ]
    shared = emit_report(run_campaign(config, names))
    run_one = campaign.run_one
    cleared = []

    def fresh_run_one(*args):
        for cache in caches:
            cache.cache_clear()
        cleared.append(args[2])
        return run_one(*args)

    monkeypatch.setattr(campaign, "run_one", fresh_run_one)
    assert emit_report(run_campaign(config, names)) == shared
    assert cleared == list(range(20)) * len(names)


def _first_fit_pairwise(universe, stages):
    """The stage colorings by one adjacent() call per pair of points."""
    colorings = []
    for stage in stages:
        coloring = {}
        for x in sorted(stage, key=universe.index):
            used = {coloring[y] for y in coloring if adjacent(universe.instance, x, y)}
            c = 0
            while c in used:
                c += 1
            coloring[x] = c
        colorings.append(coloring)
    return colorings


def test_first_fit_chain_agrees_with_pairwise_adjacency():
    rng = random.Random(65)
    for _ in range(40):
        for u in universes_of_every_kind(rng):
            acc, stages = set(), []
            for _ in range(rng.randint(1, 4)):
                acc |= set(rng.sample(u.points, k=rng.randint(1, len(u))))
                stages.append(frozenset(acc))
            chain = _first_fit_chain(u, stages)
            assert chain.stages == tuple(stages)
            # equal colors, inserted in the same (universe) order
            reference = _first_fit_pairwise(u, stages)
            got = [list(c.items()) for c in chain.stage_colorings]
            assert got == [list(c.items()) for c in reference]
