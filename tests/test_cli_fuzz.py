"""Fuzz the CLI input files: any JSON keeps the exit-code contract.

Every verb that reads a file (adj, detect, lattice, color verify and the
poset verbs) gets arbitrary JSON, valid files with one subtree replaced by
arbitrary JSON, and valid files with one field replaced by a value of
another JSON type.  ``main`` must return 0, 1 or 2 without raising, and a
field of the wrong type must exit 2.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noetherlab import PCondition, SampleUniverse, TaggedBox, TwoVarPoly, cli, pt
from noetherlab.coloring import greedy_coloring
from noetherlab.generators import line_universe
from noetherlab.graphs import curve_difference_graph
from noetherlab.hamming import make_diagonal_hamming, make_uniform_hamming
from noetherlab.serialize import box_to_json, pcondition_to_json, universe_to_json

_LINE = line_universe(3)
_CURVE = SampleUniverse(
    curve_difference_graph(TwoVarPoly.from_dict({(1, 0): 1, (0, 1): -1})),
    [pt(0, 0), pt(1, 1), pt(2, 3)],
)
INSTANCES = {
    "line": universe_to_json(_LINE),
    "path4": {"kind": "explicit", "vertices": 4, "edges": [[0, 1], [1, 2], [2, 3]]},
    "curve": universe_to_json(_CURVE),
    "uniform": universe_to_json(make_uniform_hamming(2, 2)),
    "diagonal": universe_to_json(make_diagonal_hamming(2)),
}
# written for curve-difference instances but never read: the plane is fixed
del INSTANCES["curve"]["instance"]["dim"]

_Q = [{"assignment": {"0": 0, "3": 1}}, {"assignment": {"1": 0, "3": 1}}]
_P = [
    pcondition_to_json(PCondition(_LINE, {pt(0): TaggedBox(0, 2, (-1,))})),
    pcondition_to_json(PCondition(_LINE, {pt(1): TaggedBox(0, 2, (3,))})),
]
_LOC = {"cells": [{"vertices": [0, 1]}, {"vertices": [3]}], "colors": [0, 1]}
_BOX_LOC = {"cells": [{"box": {"tag": 0, "level": 0, "corners": [-1]}}], "colors": [0]}
_COLORING = {
    str(_LINE.index(x)): box_to_json(b) for x, b in greedy_coloring(_LINE).assignment.items()
}

# (argv, instance, --file contents); a case with a --file fuzzes that file,
# the others fuzz the instance
CASES = [
    (["adj", "INSTANCE", "--indices", "0", "1"], name, None) for name in INSTANCES
] + [
    (["detect", "INSTANCE"], "path4", None),
    (["lattice", "INSTANCE", "--trials", "2"], "curve", None),
    (["color", "verify", "INSTANCE"], "line", {"assignment": _COLORING}),
    (["poset", "compat", "INSTANCE"], "path4", {"conditions": _Q}),
    (["poset", "compat", "INSTANCE", "--kind", "p"], "line", {"conditions": _P}),
    (
        ["poset", "lower-bound", "INSTANCE", "--kind", "p"],
        "line",
        {"conditions": _P, "point": 2},
    ),
    (["poset", "ramsey", "INSTANCE"], "path4", {"conditions": _Q, "location": _LOC, "m": 2}),
    (
        ["poset", "liminf", "INSTANCE"],
        "path4",
        {"conditions": _Q, "location": _LOC, "test_set": [0, 2], "threshold": 2},
    ),
    (
        ["poset", "liminf", "INSTANCE"],
        "line",
        {"conditions": [{"assignment": {"0": 0}}] * 2, "location": _BOX_LOC},
    ),
    (["poset", "predense", "INSTANCE"], "path4", {"conditions": _Q, "color_budget": 2}),
]

# Values of a JSON type that a field of the given type never accepts.
# Rationals are "p/q" strings or integers and point indices are integers or
# decimal strings, so no integer replaces a string, and the string replacing
# an integer is not a number.
_WRONG_TYPES = {
    int: [True, 1.5, "x", [], {}, None],
    str: [True, 1.5, [], {}, None],
    list: [True, 7, 1.5, "x", {}, None],
    dict: [True, 7, 1.5, "x", [], None],
}
# JSON null is a valid value here: it selects the default.
_NULL_MEANS_DEFAULT = {"threshold"}

# Integers stay small: JSON integers are sizes and exponents here (vertex
# counts, box levels, polynomial powers), and none of them has an upper bound
# yet, so a large one would exhaust memory instead of exercising a parser.
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4)
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)


def _paths(doc, path=()):
    """(path, key) of every node of a JSON document, the root included."""
    yield path, path[-1] if path else None
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _paths(v, path + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _paths(v, path + (i,))


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _replace(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    _at(doc, path[:-1])[path[-1]] = value
    return doc


def _fuzzed_doc(case):
    _, inst, file = case
    return INSTANCES[inst] if file is None else file


def _run(tmp, case, doc):
    """``main`` on the case's files, with ``doc`` as the fuzzed one."""
    argv, inst, file = case
    inst_path, file_path = tmp / "instance.json", tmp / "file.json"
    inst_path.write_text(json.dumps(doc if file is None else INSTANCES[inst]))
    argv = [str(inst_path) if a == "INSTANCE" else a for a in argv]
    if file is not None:
        file_path.write_text(json.dumps(doc))
        argv += ["--file", str(file_path)]
    return cli.main(argv)


_MUTATIONS = [
    (case, path, wrong)
    for case in CASES
    for path, key in _paths(_fuzzed_doc(case))
    for wrong in _WRONG_TYPES[type(_at(_fuzzed_doc(case), path))]
    if wrong is not None or key not in _NULL_MEANS_DEFAULT
]


@pytest.fixture(scope="module", autouse=True)
def one_parser():
    # main builds its argparse parser on every call, about 5 ms, which would
    # dominate here; only the files vary, so one parser serves every call
    parser = cli.build_parser()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "build_parser", lambda: parser)
        yield


def test_valid_files_pass(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("valid")
    for case in CASES:
        assert _run(tmp, case, _fuzzed_doc(case)) == 0, case


def test_every_type_mutated_field_exits_2(tmp_path_factory, capsys):
    tmp = tmp_path_factory.mktemp("mutated")
    for case, path, wrong in _MUTATIONS:
        doc = _replace(_fuzzed_doc(case), path, wrong)
        assert _run(tmp, case, doc) == 2, (case[0], path, wrong)
    assert "Traceback" not in capsys.readouterr().err


@settings(derandomize=True, deadline=None, max_examples=150)
@given(case=st.sampled_from(CASES), data=st.data())
def test_arbitrary_json_keeps_the_exit_code_contract(tmp_path_factory, case, data):
    doc = _fuzzed_doc(case)
    path = data.draw(st.sampled_from([p for p, _ in _paths(doc)]))
    doc = _replace(doc, path, data.draw(_JSON))
    assert _run(tmp_path_factory.getbasetemp(), case, doc) in (0, 1, 2)
