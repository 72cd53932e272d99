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
from pathlib import Path

from noetherlab.campaign import RunConfig, _plant_variation, emit_report, run_campaign
from noetherlab.cli import main
from noetherlab.hamming import verify_embedding
from noetherlab.patterns import VariationSpec, all_variations
from noetherlab.serialize import dump_canonical, instance_to_json
from test_hamming import _sequences

DIGESTS = Path(__file__).parent / "golden" / "digests.json"

CAMPAIGN_SEED = 20260811
CAMPAIGN_TRIALS = 50
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
CLI_CALLS = tuple(["hamming", verb, "--breadth", "3"] for verb in ("embed", "vitali", "chi"))


def _cli_output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}"


def _explicit_file(path, n, edges):
    data = {"instance": {"kind": "explicit", "vertices": n, "edges": [list(e) for e in edges]}}
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


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


def golden_outputs():
    """(entry name, output text) of every entry of the corpus."""
    config = RunConfig(seed=CAMPAIGN_SEED, trials=CAMPAIGN_TRIALS)
    for suite in CAMPAIGN_SUITES:
        yield f"campaign {suite}", emit_report(run_campaign(config, [suite]))
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
