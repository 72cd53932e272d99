"""Worst-case budgets for CLI calls on inputs the parser accepts.

Each row is one call: a builder that writes the call's input under a
directory and returns its argv, the exit code it must give, a wall-time
budget in seconds, and optionally a bound on the bytes of its stderr.

Rows still open, with the range of in-process times over a few runs on a
2-vCPU host (CPython 3.11); they become rows with the changes that bring
them under budget:

- ``color verify`` on ``gen planar --size 4096 --seed 3`` with every point
  given the level-0 box at corners (0, 0): 21.4-22.9 s, exit 1, 8,540
  problems.
- ``poset compat`` with 2000 pairwise compatible one-point conditions at
  points 0-1999 of ``gen line --size 4096``, color = index mod 2:
  2.9-4.7 s.
"""

import json
import random
import time
from itertools import islice

import pytest

from noetherlab import pt
from noetherlab.cli import main
from noetherlab.geometry import first_box_containing
from noetherlab.serialize import MAX_EXPLICIT_EDGES, MAX_LOCATION_BOXES, box_to_json

# A coordinate of 4300 digits, the most that Python converts to an int.
LONG = "7" * 4300


def _predense_line64(tmp_path):
    # 40 one-point conditions at distinct seeded points; the subset
    # enumeration that built the reduced support did not finish in 100 s
    line = str(tmp_path / "line64.json")
    assert main(["gen", "line", "--size", "64", "--out", line]) == 0
    rng = random.Random(40)
    conditions = [{"assignment": {str(i): rng.randrange(3)}} for i in rng.sample(range(64), 40)]
    file = tmp_path / "conditions.json"
    file.write_text(json.dumps({"conditions": conditions}))
    return ["poset", "predense", line, "--file", str(file), "--out", str(tmp_path / "out.json")]


def _predense_one_condition_on_line_4096(tmp_path):
    # the search skips point after point before it reaches point 4000; with
    # one recursion level per point it ended in a RecursionError
    line = str(tmp_path / "line4096.json")
    assert main(["gen", "line", "--size", "4096", "--out", line]) == 0
    file = tmp_path / "conditions.json"
    file.write_text(json.dumps({"conditions": [{"assignment": {"4000": 0}}]}))
    return ["poset", "predense", line, "--file", str(file)]


def _detect_half_depth_600(tmp_path):
    # the half graph of depth 600, edges (2n, 2m + 1) for m < n, holds the
    # pattern as the identity; with one recursion level per placed vertex
    # the search ended in a RecursionError after 1.9 s (2-vCPU host)
    instance = tmp_path / "half600.json"
    edges = [[2 * n, 2 * m + 1] for n in range(600) for m in range(n)]
    instance.write_text(json.dumps({"kind": "explicit", "vertices": 1200, "edges": edges}))
    return ["detect", str(instance), "--family", "half", "--left", "anticlique",
            "--right", "anticlique", "--depth", "600"]


def _detect_on_explicit_200(*options):
    # a seeded graph of 200 vertices, each pair joined with probability 1/2:
    # with no node limit the depth-8 half clique/clique search did not stop
    # in 90 s, nor the threeQuarter stress searches from depth 2 up in 120 s
    # (2-vCPU host), and depth 7 alone passes 2,000,000 nodes; the stress
    # searches share the first search's limit
    def build(tmp_path):
        universe = str(tmp_path / "explicit200.json")
        assert main(["gen", "explicit", "--size", "200", "--seed", "1",
                     "--edge-probability", "0.5", "--out", universe]) == 0
        return ["detect", universe, "--left", "clique", "--right", "clique", *options]

    return build


def _budget_clamp_seed1(tmp_path):
    # trial 118 runs the unclamped predensity search at 7 colors on a
    # 6-vertex explicit graph; while the search tried every fresh color,
    # the call took 0.38-0.40 s (2-vCPU host), most of it in that trial
    argv = ["campaign", "budget-clamp", "--seed", "1", "--trials", "150"]
    return [*argv, "--out", str(tmp_path / "out.json")]


def _campaign(*argv):
    def build(tmp_path):
        return ["campaign", *argv, "--out", str(tmp_path / "out.json")]

    return build


# The predensity suites draw member colors up to colorBudget, so the budget
# clamp does not lower it.  While each search node scanned every color below
# the budget, 50 trials took 0.44 s at 10**5, 3.9 s at 10**6 and 56 s at
# 10**7, and at 10**9 held 4.3 GB after 10 minutes (2-vCPU host).
_PREDENSE_SUITES = ("predense-equivalence", "budget-clamp", "predense-reduce")


def _predense_large_color_budget(tmp_path):
    # a member names the color just below the budget, so the clamp keeps it;
    # with a scan of every color per node the call took 2.4 s
    line = str(tmp_path / "line8.json")
    assert main(["gen", "line", "--size", "8", "--out", line]) == 0
    conditions = [{"assignment": {"0": 10**7 - 1}}, {"assignment": {"1": 0, "5": 1}}]
    file = tmp_path / "conditions.json"
    file.write_text(json.dumps({"conditions": conditions, "color_budget": 10**7}))
    return ["poset", "predense", line, "--file", str(file), "--out", str(tmp_path / "out.json")]


def _liminf_box_cells_on_line(n):
    # one level-11 box per point of a line, colors alternating, and two
    # conditions at the location; validation certifies every same-colored
    # box pair, and past the bound it took 9.1 s at 1024 cells
    def build(tmp_path):
        line = str(tmp_path / "line.json")
        assert main(["gen", "line", "--size", str(n), "--out", line]) == 0
        boxes = [first_box_containing(pt(i), tag=0, min_level=11) for i in range(n)]
        file = tmp_path / "liminf.json"
        file.write_text(json.dumps({
            "conditions": [{"assignment": {str(i): i % 2 for i in range(n)}}] * 2,
            "location": {
                "cells": [{"box": box_to_json(b)} for b in boxes],
                "colors": [i % 2 for i in range(n)],
            },
        }))
        return ["poset", "liminf", line, "--file", str(file), "--out", str(tmp_path / "out.json")]

    return build


def _liminf_box_cells_on_path(n, cells):
    # one level-13 box around every eighth vertex of an explicit path,
    # colors alternating, and two conditions at the location; testing each
    # box against every vertex took validation 2.5 s at 512 cells
    def build(tmp_path):
        path = tmp_path / "path.json"
        edges = [[v, v + 1] for v in range(n - 1)]
        path.write_text(json.dumps({"kind": "explicit", "vertices": n, "edges": edges}))
        vertices = range(0, 8 * cells, 8)
        boxes = [first_box_containing(pt(v), tag=0, min_level=13) for v in vertices]
        file = tmp_path / "liminf.json"
        file.write_text(json.dumps({
            "conditions": [{"assignment": {str(v): i % 2 for i, v in enumerate(vertices)}}] * 2,
            "location": {
                "cells": [{"box": box_to_json(b)} for b in boxes],
                "colors": [i % 2 for i in range(cells)],
            },
        }))
        out = str(tmp_path / "out.json")
        return ["poset", "liminf", str(path), "--file", str(file), "--out", out]

    return build


def _ramsey_complete(k, m):
    # K_k with one color-0 condition per vertex in one cell: every pair is
    # incompatible, so no m-subset is; scanning all C(k, m) subsets took
    # 3.9 s at (k, m) = (240, 3) and 17.7 s at (26, 13)
    def build(tmp_path):
        instance = tmp_path / "complete.json"
        edges = [[i, j] for i in range(k) for j in range(i + 1, k)]
        instance.write_text(json.dumps({"kind": "explicit", "vertices": k, "edges": edges}))
        file = tmp_path / "conditions.json"
        file.write_text(json.dumps({
            "conditions": [{"assignment": {str(v): 0}} for v in range(k)],
            "location": {"cells": [{"vertices": list(range(k))}], "colors": [0]},
            "m": m,
        }))
        return ["poset", "ramsey", str(instance), "--file", str(file)]

    return build


def _lattice_trials_on(kind, *options):
    # 10000 closures, hearts and subfamilies on a 4096-point universe; the
    # closure fixpoint that tested every point in every round took 63 s on
    # the line, 71 s on the sparse graph and 104 s on the planar sample
    def build(tmp_path):
        universe = str(tmp_path / "universe.json")
        assert main(["gen", kind, "--size", "4096", *options, "--out", universe]) == 0
        return ["lattice", universe, "--trials", "10000", "--out", str(tmp_path / "out.json")]

    return build


def _lattice_chain_on_hamming_4096(tmp_path):
    # the optimum is 4 steps, below the arity, so nothing stops the exact
    # chain search early: proving 4 walks 290,817 states in 24-25 s (2-vCPU
    # host), and the state budget returns the 4 steps found, uncertified
    universe = str(tmp_path / "universe.json")
    assert main(["gen", "hamming-uniform", "--size", "6", "--alphabet", "4", "--out", universe]) == 0
    return ["lattice", universe, "--max-arity", "8", "--out", str(tmp_path / "out.json")]


def _hamming(*argv):
    # a breadth far past the size bound is refused before any word, epsilon
    # or power is built; bounded after them, embed and alphabet-3 vitali
    # ran past 15 s, gen ran out of a 1 GiB cap, and alphabet-1 vitali
    # raised an uncaught OverflowError
    def build(tmp_path):
        return [*argv, "--out", str(tmp_path / "out.json")]

    return build


HUGE = str(2**62)
# An alphabet of 4299 digits: while the power alphabet**breadth was
# computed before the alphabet was refused, breadth 4096 took 23.3 s
NINES = "9" * 4299


def _adj_on(universe):
    def build(tmp_path):
        file = tmp_path / "universe.json"
        file.write_text(json.dumps(universe))
        return ["adj", str(file), "--indices", "0"]

    return build


def _adj_on_explicit_edges(count):
    # the first `count` vertex pairs of 4096 vertices, in index order
    def build(tmp_path):
        pairs = ([i, j] for i in range(4096) for j in range(i + 1, 4096))
        instance = {"kind": "explicit", "vertices": 4096, "edges": list(islice(pairs, count))}
        file = tmp_path / "explicit.json"
        file.write_text(json.dumps({"instance": instance}))
        return ["adj", str(file), "--indices", "0", "--out", str(tmp_path / "out.json")]

    return build


def _gen_complete(n):
    # the complete graph on 1024 vertices has 2^19 - 512 edges, on 1025
    # vertices 2^19 + 512; the draw of the denser one stops past the bound
    def build(tmp_path):
        return ["gen", "explicit", "--size", str(n), "--edge-probability", "1",
                "--out", str(tmp_path / "out.json")]

    return build


ROWS = {
    "predense-40-conditions-on-line-64": (_predense_line64, 0, 2.0, None),
    "predense-one-condition-on-line-4096": (_predense_one_condition_on_line_4096, 0, 1.0, None),
    "campaign-budget-clamp-seed-1-150-trials": (_budget_clamp_seed1, 0, 0.3, None),
    "detect-half-depth-600": (_detect_half_depth_600, 0, 10.0, None),
    "detect-half-clique-clique-depth-8-on-explicit-200": (
        _detect_on_explicit_200("--family", "half", "--depth", "8"), 1, 10.0, 200,
    ),
    "detect-threeQuarter-clique-clique-depth-101-stress-on-explicit-200": (
        _detect_on_explicit_200("--family", "threeQuarter", "--depth", "101", "--stress"),
        1, 10.0, 200,
    ),
    "campaign-predensity-suites-color-budget-10**7": (
        _campaign(*_PREDENSE_SUITES, "--trials", "50", "--color-budget", str(10**7)), 0, 1.0, None,
    ),
    "predense-color-budget-10**7-with-a-member-color-below-it": (
        _predense_large_color_budget, 0, 1.0, None,
    ),
    # the bound on maxPoints, and one past it
    "campaign-every-suite-max-points-1024": (
        _campaign("--trials", "5", "--max-points", "1024"), 0, 10.0, None,
    ),
    "campaign-max-points-1025": (
        _campaign("pattern-oracle", "--max-points", "1025"), 2, 1.0, 200,
    ),
    # the bound on box cells, and one past it
    "liminf-box-cells-at-the-bound-on-line": (
        _liminf_box_cells_on_line(MAX_LOCATION_BOXES), 0, 10.0, None,
    ),
    "liminf-box-cells-past-the-bound-on-line": (
        _liminf_box_cells_on_line(MAX_LOCATION_BOXES + 1), 2, 1.0, 200,
    ),
    "liminf-box-cells-at-the-bound-on-explicit-path-4096": (
        _liminf_box_cells_on_path(4096, MAX_LOCATION_BOXES), 0, 10.0, None,
    ),
    "ramsey-3-of-240-on-complete-graph": (_ramsey_complete(240, 3), 0, 1.0, None),
    "ramsey-13-of-26-on-complete-graph": (_ramsey_complete(26, 13), 0, 1.0, None),
    "lattice-10000-trials-on-line-4096": (_lattice_trials_on("line"), 0, 10.0, None),
    "lattice-10000-trials-on-sparse-explicit-4096": (
        _lattice_trials_on("explicit", "--edge-probability", "0.001"), 0, 10.0, None,
    ),
    "lattice-10000-trials-on-planar-4096": (_lattice_trials_on("planar"), 0, 10.0, None),
    "lattice-maxArity-8-on-hamming-uniform-4096": (_lattice_chain_on_hamming_4096, 0, 10.0, None),
    "hamming-embed-breadth-2**62": (_hamming("hamming", "embed", "--breadth", HUGE), 1, 1.0, None),
    "hamming-vitali-breadth-2**62-alphabet-1": (
        _hamming("hamming", "vitali", "--breadth", HUGE, "--alphabet", "1"), 1, 1.0, None,
    ),
    "hamming-vitali-breadth-2**62-alphabet-3": (
        _hamming("hamming", "vitali", "--breadth", HUGE, "--alphabet", "3"), 1, 1.0, None,
    ),
    "gen-hamming-uniform-size-2**62": (
        _hamming("gen", "hamming-uniform", "--size", HUGE), 1, 1.0, None,
    ),
    "hamming-vitali-breadth-4096-alphabet-4299-nines": (
        _hamming("hamming", "vitali", "--breadth", "4096", "--alphabet", NINES), 1, 1.0, 200,
    ),
    "gen-hamming-uniform-size-4096-alphabet-4299-nines": (
        _hamming("gen", "hamming-uniform", "--size", "4096", "--alphabet", NINES), 1, 1.0, 200,
    ),
    "hamming-vitali-breadth-4096-alphabet-1": (
        _hamming("hamming", "vitali", "--breadth", "4096", "--alphabet", "1"), 0, 1.0, None,
    ),
    "adj-vertex-index-out-of-range": (
        _adj_on({"instance": {"kind": "explicit", "vertices": 3, "edges": []}, "points": [[LONG]]}),
        2, 10.0, 200,
    ),
    "adj-explicit-at-the-edge-bound": (_adj_on_explicit_edges(MAX_EXPLICIT_EDGES), 0, 10.0, None),
    "adj-explicit-past-the-edge-bound": (
        _adj_on_explicit_edges(MAX_EXPLICIT_EDGES + 1), 2, 10.0, 200,
    ),
    "gen-explicit-complete-1024": (_gen_complete(1024), 0, 10.0, None),
    "gen-explicit-complete-1025": (_gen_complete(1025), 2, 1.0, 200),
    "adj-duplicate-point": (
        _adj_on({
            "instance": {"kind": "distance", "dim": 1, "squared_distances": ["1"]},
            "points": [[LONG], [LONG]],
        }),
        2, 10.0, 200,
    ),
}


# The fields that a row's report on stdout must hold.
REPORTS = {
    "predense-one-condition-on-line-4096": {
        "agree": True, "predense": False, "predense_reduced": False,
    },
    "detect-half-depth-600": {
        "witness": [[str(v)] for v in range(1200)], "nodes_explored": 1201,
    },
}


# The text that a row's stderr must hold.
MESSAGES = {
    "detect-half-clique-clique-depth-8-on-explicit-200": "limit of 2000000 nodes",
    "detect-threeQuarter-clique-clique-depth-101-stress-on-explicit-200": "limit of 2000000 nodes",
    "campaign-max-points-1025": "bound maxPoints: 1025 exceeds the bound 1024",
    "liminf-box-cells-past-the-bound-on-line": "513 box cells exceed the bound 512",
    "hamming-vitali-breadth-4096-alphabet-4299-nines": "exceeds size bound 4096",
    "gen-hamming-uniform-size-4096-alphabet-4299-nines": "exceeds size bound 4096",
}


@pytest.mark.parametrize("name", ROWS)
def test_call_within_budget(name, tmp_path, capsys):
    build, code, seconds, stderr_bytes = ROWS[name]
    argv = build(tmp_path)
    capsys.readouterr()
    started = time.perf_counter()
    assert main(argv) == code
    elapsed = time.perf_counter() - started
    assert elapsed < seconds, elapsed
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if name in REPORTS:
        report = json.loads(out)
        assert {key: report[key] for key in REPORTS[name]} == REPORTS[name]
    assert MESSAGES.get(name, "") in err
    if stderr_bytes is not None:
        assert len(err.encode()) < stderr_bytes, err
