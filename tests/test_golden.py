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
import sys
from pathlib import Path

from noetherlab.campaign import RunConfig, emit_report, run_campaign
from noetherlab.cli import main
from noetherlab.hamming import verify_embedding
from noetherlab.serialize import dump_canonical
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
