"""Acceptance gate: the eight headline criteria at their stated scales.

Every criterion is exact (rational arithmetic, zero numerical tolerance);
the randomized ones run seeded campaigns at the stated trial counts and
demand zero failures.  Each test prints one pass/fail line.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import noetherlab
from noetherlab import (
    chromatic_number,
    k_colorable_fixed_order,
    make_diagonal_hamming,
    ramsey_bound,
    two_coloring_forces_clique,
    verify_embedding,
    verify_vitali_homomorphism,
)
from noetherlab.campaign import RunConfig, run_campaign
from noetherlab.hamming import epsilon_matrix, make_uniform_hamming

SEED = 20260811


def _line(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {n}: {status} - {detail}")
    assert ok, detail


def _campaign(names, trials, bounds=None):
    config = RunConfig(seed=SEED, trials=trials, bounds=bounds or {})
    return run_campaign(config, names)


def test_criterion_1_prop43_equivalence():
    started = time.monotonic()
    report = _campaign(["prop43-equivalence"], 1000)
    elapsed = time.monotonic() - started
    suite = report["suites"]["prop43-equivalence"]
    ok = suite["failures"] == 0 and elapsed < 60
    _line(
        1,
        ok,
        f"compatibility <=> lower bound on {suite['trials']} families, "
        f"{suite['failures']} failures, {elapsed:.1f}s",
    )


def test_criterion_2_ramsey_centeredness():
    report = _campaign(["ramsey-thm59"], 500)
    suite = report["suites"]["ramsey-thm59"]
    bound_ok = ramsey_bound(3, 1) == 6
    oracle_ok = two_coloring_forces_clique(6, 3) and not two_coloring_forces_clique(5, 3)
    ok = suite["failures"] == 0 and bound_ok and oracle_ok
    _line(
        2,
        ok,
        f"compatible triples among any 6 conditions in {suite['trials']} trials, "
        f"{suite['failures']} failures; R(3,3)=6 re-verified on K_5/K_6",
    )


def test_criterion_3_predensity_reduction():
    report = _campaign(["predense-equivalence", "predense-reduce"], 200)
    eq = report["suites"]["predense-equivalence"]
    red = report["suites"]["predense-reduce"]
    ok = eq["failures"] == 0 and red["failures"] == 0
    _line(
        3,
        ok,
        f"full == reduced predensity check on {eq['trials']} trials and every "
        f"reduction verified incompatible inside its support, "
        f"{eq['failures'] + red['failures']} failures",
    )


def test_criterion_4_coloring_constructions():
    report = _campaign(["coloring-constructions"], 500)
    suite = report["suites"]["coloring-constructions"]
    ok = suite["failures"] == 0
    _line(
        4,
        ok,
        f"greedy/extend/stitch verified proper+suitable (with extension order) "
        f"on {suite['trials']} seeded instances, {suite['failures']} failures",
    )


def test_criterion_5_exact_chromatic_numbers():
    started = time.monotonic()
    values = []
    for breadth in (1, 2, 3, 4):
        universe = make_diagonal_hamming(breadth)
        chi, _ = chromatic_number(universe)
        values.append(chi)
        assert k_colorable_fixed_order(universe, chi) is not None
        if chi > 1:
            assert k_colorable_fixed_order(universe, chi - 1) is None
    elapsed = time.monotonic() - started
    ok = values == [1, 2, 3, 4] and elapsed < 30
    _line(
        5,
        ok,
        f"diagonal Hamming chromatic numbers {values} (expected [1, 2, 3, 4]), "
        f"cross-checked by the independent decision procedure, {elapsed:.1f}s",
    )


def test_criterion_6_vitali_and_embedding_exactness():
    vitali_ok = True
    for breadth in range(1, 7):
        report = verify_vitali_homomorphism(
            make_uniform_hamming(breadth, 2), epsilon_matrix(breadth, 2)
        )
        vitali_ok = vitali_ok and report["passed"]
    for breadth in range(1, 5):
        report = verify_vitali_homomorphism(
            make_uniform_hamming(breadth, 3), epsilon_matrix(breadth, 3)
        )
        vitali_ok = vitali_ok and report["passed"]
    embed_ok = True
    edges = 0
    for breadth in range(1, 6):
        report = verify_embedding(breadth)
        embed_ok = embed_ok and report["passed"]
        edges += report["edges_checked"]
    ok = vitali_ok and embed_ok
    _line(
        6,
        ok,
        f"Vitali homomorphism exact through breadth 6 and the distance embedding "
        f"exact through breadth 5 ({edges} edges), zero tolerance",
    )


def test_criterion_7_pattern_detector_soundness():
    planted = _campaign(["pattern-planted"], 25)["suites"]["pattern-planted"]
    agreement = _campaign(["pattern-oracle"], 200)["suites"]["pattern-oracle"]
    ok = planted["failures"] == 0 and agreement["failures"] == 0
    _line(
        7,
        ok,
        f"depth-5 plants recovered in 40-vertex graphs ({planted['trials']} trials) "
        f"and detector == brute-force oracle on {agreement['trials']} trials, "
        f"{planted['failures'] + agreement['failures']} failures",
    )


def test_criterion_8_lattice_laws():
    report = _campaign(["lattice-laws"], 1000)
    laws = report["suites"]["lattice-laws"]
    bound = _campaign(["minimal-subfamily-bound"], 200)["suites"][
        "minimal-subfamily-bound"
    ]
    ok = laws["failures"] == 0 and bound["failures"] == 0
    _line(
        8,
        ok,
        f"intersection/closure/heart/subfamily laws on {laws['trials']} trials and "
        f"planar minimal subfamilies within the clique-bound constant 128 "
        f"({bound['trials']} trials), {laws['failures'] + bound['failures']} failures",
    )


# The campaign criteria above, grouped by trial count.
_CAMPAIGNS_BY_TRIALS = {
    1000: ["prop43-equivalence", "lattice-laws"],
    500: ["ramsey-thm59", "coloring-constructions"],
    200: [
        "predense-equivalence",
        "predense-reduce",
        "pattern-oracle",
        "minimal-subfamily-bound",
    ],
    25: ["pattern-planted"],
}


def test_campaign_criteria_pass_under_python_O():
    # through the CLI, because pytest's own asserts are stripped under -O
    package_root = str(Path(noetherlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    runs = {
        trials: subprocess.Popen(
            [sys.executable, "-O", "-m", "noetherlab.cli", "campaign", *names,
             "--seed", str(SEED), "--trials", str(trials)],
            env=dict(os.environ, PYTHONPATH=path),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        for trials, names in _CAMPAIGNS_BY_TRIALS.items()
    }
    for trials, run in runs.items():
        _, err = run.communicate(timeout=120)
        assert run.returncode == 0, (trials, err)
