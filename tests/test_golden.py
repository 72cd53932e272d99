"""Golden corpus: SHA-256 digests of fixed outputs, so that an output change
fails Tier-1 and names the entries that moved.

The digests change only with a deliberate output change.  After one, rewrite
them with

    PYTHONPATH=src python tests/test_golden.py --update

and say in CHANGES.md which entries moved and why.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from noetherlab.campaign import RunConfig, _plant_variation, emit_report, run_campaign
from noetherlab.cli import main
from noetherlab.geometry import TaggedBox
from noetherlab.graphs import box_edge_free, distance_graph
from noetherlab.hamming import verify_embedding
from noetherlab.patterns import VariationSpec, all_variations
from noetherlab.serialize import dump_canonical, instance_to_json
from test_hamming import _sequences

DIGESTS = Path(__file__).parent / "golden" / "digests.json"

CAMPAIGN_SEED = 20260811
CAMPAIGN_TRIALS = 50
# Three more seeds at 40 trials, over every suite except the
# selftest-mutation fixture: this adds mask-adjacency-agreement, the
# campaign check of the masks against the pair predicate.
EXTRA_SEEDS = (1, 2, 3)
EXTRA_TRIALS = 40
# The 21 suites of the acceptance campaign: every suite except the
# mask-adjacency-agreement check and the selftest-mutation fixture.
CAMPAIGN_SUITES = (
    "adjacency-laws",
    "box-enumeration",
    "budget-clamp",
    "chromatic-oracle-agreement",
    "coloring-constructions",
    "hamming-chromatic",
    "homogeneous-bound",
    "lattice-laws",
    "liminf-thin",
    "minimal-subfamily-bound",
    "neighborhood-laws",
    "no-rational-unit-triangle",
    "pattern-oracle",
    "pattern-planted",
    "predense-equivalence",
    "predense-reduce",
    "prop43-equivalence",
    "ramsey-centered",
    "ramsey-thm59",
    "stitch-nongood-experiment",
    "vitali-embedding",
)
# Suites added after the acceptance campaign was fixed, digested at every
# seed above.
LATER_SUITES = ("descent-chain",)
CLI_CALLS = (
    *(["hamming", verb, "--breadth", "3"] for verb in ("embed", "vitali", "chi")),
    # one universe of each generator family, printed to stdout
    ["gen", "line", "--size", "12"],
    ["gen", "clustered-line"],
    ["gen", "planar", "--size", "8", "--seed", "3"],
    ["gen", "explicit", "--size", "12", "--seed", "7"],
    ["gen", "hamming-diagonal", "--size", "4"],
    ["gen", "hamming-uniform", "--size", "3", "--alphabet", "3"],
)


def _cli_output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}"


def _write_json(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _explicit_file(path, n, edges):
    return _write_json(
        path, {"instance": {"kind": "explicit", "vertices": n, "edges": [list(e) for e in edges]}}
    )


def _planted_edges(seed):
    """A depth-5 half anticlique/clique prefix planted in 40 vertices, with the
    vertex labels shuffled so that the witness is not the first ten indices."""
    rng = random.Random(seed)
    spec = VariationSpec("half", "anticlique", "clique", 5)
    universe = _plant_variation(rng, spec, 30, 0.3)
    label = list(range(40))
    rng.shuffle(label)
    return [(label[a], label[b]) for a, b in instance_to_json(universe.instance)["edges"]]


def _detect_calls(tmp):
    """The ``detect`` entries of the corpus, on inputs written into ``tmp``."""
    line12, gnp12 = str(tmp / "line12.json"), str(tmp / "gnp12.json")
    for argv in (
        ["gen", "line", "--size", "12", "--out", line12],
        ["gen", "explicit", "--size", "12", "--seed", "7", "--out", gnp12],
    ):
        code = main(argv)
        assert code == 0, argv
    circ = _explicit_file(
        tmp / "circulant40.json", 40, [(i, (i + o) % 40) for i in range(40) for o in (1, 2)]
    )
    planted = _explicit_file(tmp / "planted40.json", 40, _planted_edges(5))
    yield "C40(1,2)", [circ, "--family", "threeQuarter", "--left", "anticlique",
                       "--right", "anticlique", "--depth", "4"]
    yield "line12", [line12, "--depth", "3", "--family", "half"]
    for spec in all_variations(3):
        yield "gnp12", [gnp12, "--family", spec.family, "--left", spec.left,
                        "--right", spec.right, "--depth", "3"]
    yield "planted40", [planted, "--family", "half", "--left", "anticlique",
                        "--right", "clique", "--depth", "5"]
    yield "gnp12", [gnp12, "--depth", "4", "--stress"]


def _cell(m):
    """The level-3 box (m/8, (m+2)/8) as a location cell."""
    return {"box": {"tag": 0, "level": 3, "corners": [m]}}


def _color_lattice_poset_calls(tmp):
    """The ``color``, ``lattice`` and ``poset`` entries, on inputs written
    into ``tmp``: the line 0..11 and the clustered line."""
    line12, clustered = str(tmp / "line12.json"), str(tmp / "clustered.json")
    coloring = str(tmp / "coloring.json")
    for argv in (
        ["gen", "line", "--size", "12", "--out", line12],
        ["gen", "clustered-line", "--out", clustered],
        ["color", "make", line12, "--out", coloring],
    ):
        code = main(argv)
        assert code == 0, argv
    boxes = json.loads(Path(coloring).read_text(encoding="utf-8"))["assignment"]
    bad = dict(boxes, **{"0": boxes["1"]})
    yield "color make line12", ["color", "make", line12]
    yield "color verify line12 ok", ["color", "verify", line12, "--file", coloring]
    yield "color verify line12 bad", ["color", "verify", line12, "--file",
                                      _write_json(tmp / "bad.json", {"assignment": bad})]
    yield "lattice line12 --trials 3", ["lattice", line12, "--trials", "3"]

    def restrict(*indices):
        return {"assignment": {str(i): boxes[str(i)] for i in indices}}

    p_conds = _write_json(tmp / "p.json", {"conditions": [restrict(0, 1), restrict(2, 3)]})
    p_bound = _write_json(tmp / "pbound.json",
                          {"conditions": [restrict(0, 1), restrict(3, 4)], "point": 6})
    q_conds = _write_json(tmp / "q.json", {"conditions": [
        {"assignment": {"0": 0, "2": 0}}, {"assignment": {"1": 1, "3": 1}},
        {"assignment": {"2": 0, "4": 1}},
    ]})
    yield "poset compat line12 --kind p", ["poset", "compat", line12, "--kind", "p",
                                          "--file", p_conds]
    yield "poset compat line12 --kind q", ["poset", "compat", line12, "--kind", "q",
                                          "--file", q_conds]
    yield "poset lower-bound line12", ["poset", "lower-bound", line12, "--file", p_bound]
    yield "poset predense line12", ["poset", "predense", line12, "--file", q_conds]

    # The clustered line: points i/16 (indices 0-7) and 1 + i/16 (8-15).
    # (0, 1/4) and (1/4, 1/2) are edge-free; (0, 1/4) and (1, 5/4) carry the
    # unit edge 1/16 - 17/16.
    near = {"cells": [_cell(0), _cell(2)], "colors": [0, 0]}
    far = {"cells": [_cell(0), _cell(8)], "colors": [0, 0]}
    at_near = [{"assignment": {str(a): 0, str(b): 0}}
               for a, b in ((0, 4), (1, 5), (2, 6), (0, 5), (1, 4))]
    at_far = [{"assignment": {str(a): 0, str(b): 0}} for a, b in ((0, 8), (1, 9), (2, 10))]
    yield "poset liminf clustered", ["poset", "liminf", clustered, "--file", _write_json(
        tmp / "liminf.json", {"conditions": at_near, "location": near, "test_set": [8, 12]})]
    yield "poset ramsey clustered edge-free", ["poset", "ramsey", clustered, "--file",
        _write_json(tmp / "near.json", {"conditions": at_near, "location": near, "m": 3})]
    yield "poset ramsey clustered unit-edge", ["poset", "ramsey", clustered, "--file",
        _write_json(tmp / "far.json", {"conditions": at_far, "location": far, "m": 2})]


def box_edge_free_statuses(seed=13, pairs=300):
    """The box_edge_free verdicts over a seeded sweep of box pairs in
    dimensions 1-3, each against a random set of squared distances."""
    rng = random.Random(seed)

    def box(dim):
        level = rng.randint(0, 3)
        bound = min(4**level, 2 ** (level + 1))
        return TaggedBox(0, level, tuple(rng.randint(-bound, bound) for _ in range(dim)))

    statuses = []
    for _ in range(pairs):
        dim = rng.randint(1, 3)
        squared = {Fraction(rng.randint(1, 16), 4 ** rng.randint(0, 3))
                   for _ in range(rng.randint(1, 3))}
        statuses.append(box_edge_free(distance_graph(dim, squared), box(dim), box(dim)).status)
    return "\n".join(statuses) + "\n"


def golden_outputs():
    """(entry name, output text) of every entry of the corpus."""
    config = RunConfig(seed=CAMPAIGN_SEED, trials=CAMPAIGN_TRIALS)
    for suite in (*CAMPAIGN_SUITES, *LATER_SUITES):
        yield f"campaign {suite}", emit_report(run_campaign(config, [suite]))
    for seed in EXTRA_SEEDS:
        config = RunConfig(seed=seed, trials=EXTRA_TRIALS)
        for suite in sorted((*CAMPAIGN_SUITES, *LATER_SUITES, "mask-adjacency-agreement")):
            yield f"campaign seed {seed} {suite}", emit_report(run_campaign(config, [suite]))
    for breadth in range(1, 7):
        for k, eps in enumerate(_sequences(breadth)):
            yield f"verify_embedding {breadth} sequence {k}", dump_canonical(
                verify_embedding(breadth, eps)
            )
    for argv in CLI_CALLS:
        yield f"cli {' '.join(argv)}", _cli_output(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in _detect_calls(Path(tmp)):
            yield f"cli detect {name} {' '.join(argv[1:])}", _cli_output(["detect", *argv])
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in _color_lattice_poset_calls(Path(tmp)):
            yield f"cli {name}", _cli_output(argv)
    yield "box_edge_free statuses", box_edge_free_statuses()


def golden_digests():
    return {
        name: hashlib.sha256(text.encode("utf-8")).hexdigest()
        for name, text in golden_outputs()
    }


def test_outputs_match_the_golden_digests():
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = golden_digests()
    moved = sorted(name for name in expected.keys() & got.keys() if expected[name] != got[name])
    missing = sorted(expected.keys() - got.keys())
    new = sorted(got.keys() - expected.keys())
    assert not (moved or missing or new), {"moved": moved, "missing": missing, "new": new}


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/test_golden.py --update")
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(golden_digests(), indent=2) + "\n", encoding="utf-8")
