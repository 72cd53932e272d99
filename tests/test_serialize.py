import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MALFORMED_RATIONALS, explicit_universe
from noetherlab import (
    Location,
    PCondition,
    QCondition,
    TaggedBox,
    TwoVarPoly,
    curve_difference_graph,
    distance_graph,
    hamming_diagonal,
    pt,
    vertex_point,
)
from noetherlab.errors import ParseError
from noetherlab.generators import line_universe, random_pcondition
from noetherlab.hamming import DEFAULT_SIZE_BOUND
from noetherlab.serialize import (
    box_from_json,
    box_to_json,
    dump_canonical,
    instance_from_json,
    instance_to_json,
    location_from_json,
    parse_instance_file,
    pcondition_from_json,
    pcondition_to_json,
    point_at,
    point_from_json,
    point_to_json,
    qcondition_from_json,
    rational_from_str,
    rational_to_str,
    universe_from_json,
    universe_to_json,
)


def test_rational_strings():
    assert rational_to_str(Fraction(1, 4)) == "1/4"
    assert rational_to_str(Fraction(3)) == "3"
    assert rational_from_str("1/4") == Fraction(1, 4)
    with pytest.raises(ParseError):
        rational_from_str("3/0")
    with pytest.raises(ParseError):
        rational_from_str("zebra")
    # the grammar is -?[0-9]+(/[0-9]+)?; "2/4" is normalised, ints pass
    assert rational_from_str("-3") == -3 and rational_from_str(-3) == -3
    assert rational_from_str("2/4") == Fraction(1, 2)
    assert rational_from_str("-0/5") == 0 and rational_from_str("007") == 7
    for text in MALFORMED_RATIONALS:
        with pytest.raises(ParseError, match="^squared_distances.0.: malformed rational"):
            rational_from_str(text, "squared_distances[0]")


def test_point_and_box_roundtrip():
    p = pt("1/3", -2)
    assert point_from_json(point_to_json(p)) == p
    b = TaggedBox(tag=2, level=1, corners=(3, -4))
    assert box_from_json(box_to_json(b)) == b
    with pytest.raises(ParseError):
        box_from_json({"tag": 0})


def test_instance_roundtrips():
    insts = [
        distance_graph(2, ["1", "1/4"]),
        curve_difference_graph(TwoVarPoly.from_dict({(0, 1): 1, (2, 0): -1})),
        hamming_diagonal(3),
        explicit_universe(4, [(0, 1), (2, 3)]).instance,
    ]
    for inst in insts:
        assert instance_from_json(instance_to_json(inst)) == inst
    with pytest.raises(ParseError):
        instance_from_json({"kind": "mystery"})
    with pytest.raises(ParseError):
        instance_from_json({"kind": "distance", "dim": 1, "squared_distances": ["1/0"]})


def test_negative_curve_exponents_are_refused():
    # u**-1 is undefined at u = 0, so no negative exponent is accepted
    for powers in ([-1, 0], [0, -2]):
        data = {"kind": "curveDifference", "poly": [{"powers": powers, "coeff": "1"}]}
        with pytest.raises(ParseError, match="negative exponent"):
            instance_from_json(data)
        with pytest.raises(ValueError, match="negative exponent"):
            TwoVarPoly.from_dict({tuple(powers): 1})


def test_universe_roundtrip_and_errors():
    u = line_universe(3)
    data = universe_to_json(u)
    back = universe_from_json(data)
    assert back.points == u.points
    dup = json.loads(json.dumps(data))
    dup["points"].append(dup["points"][0])
    with pytest.raises(ParseError) as err:
        universe_from_json(dup)
    assert "index" in str(err.value)
    bad_dim = json.loads(json.dumps(data))
    bad_dim["points"][0] = ["0", "0"]
    with pytest.raises(ParseError):
        universe_from_json(bad_dim)


def test_explicit_universe_points_optional():
    u = explicit_universe(3, [(0, 1)])
    data = {"instance": instance_to_json(u.instance)}
    back = universe_from_json(data)
    assert back.points == u.points


def test_explicit_vertex_count_is_bounded():
    # the count sizes every default point and n-bit mask, so it is bounded
    # like the Hamming truncations; the bound itself still parses
    u = universe_from_json({"instance": {"kind": "explicit", "vertices": DEFAULT_SIZE_BOUND, "edges": []}})
    assert len(u) == DEFAULT_SIZE_BOUND
    for n in (DEFAULT_SIZE_BOUND + 1, 100_000, -1):
        with pytest.raises(ParseError, match="instance.vertices"):
            instance_from_json({"kind": "explicit", "vertices": n, "edges": []})


def test_universe_point_count_is_bounded():
    # the points feed an O(n^2) mask build, so the list is bounded like the
    # explicit vertex count; the bound itself still parses
    line = {"kind": "distance", "dim": 1, "squared_distances": ["1"]}
    u = universe_from_json({"instance": line, "points": [[str(i)] for i in range(DEFAULT_SIZE_BOUND)]})
    assert len(u) == DEFAULT_SIZE_BOUND
    # rejected on the count, before any entry is parsed as a point
    with pytest.raises(ParseError, match="universe.points"):
        universe_from_json({"instance": line, "points": ["junk"] * (DEFAULT_SIZE_BOUND + 1)})


def test_condition_roundtrips():
    import random

    u = line_universe(4)
    p = random_pcondition(random.Random(0), u)
    assert pcondition_from_json(pcondition_to_json(p), u).assignment == p.assignment
    q = QCondition(u, {pt(0): 0, pt(2): 1})
    assert qcondition_from_json({"assignment": {"2": 1, "0": 0}}, u).assignment == q.assignment


def test_point_index_is_checked():
    u = line_universe(3)
    assert point_at(u, 2) == point_at(u, "2") == pt(2)
    for raw in (-1, "-1", 3, "3", "x", 1.0, True, None, [0]):
        with pytest.raises(ParseError):
            point_at(u, raw)
    with pytest.raises(ParseError):
        qcondition_from_json({"assignment": {"-1": 0}}, u)
    with pytest.raises(ParseError):
        pcondition_from_json({"assignment": {"3": box_to_json(TaggedBox(0, 0, (1,)))}}, u)
    with pytest.raises(ParseError):
        location_from_json({"cells": [{"vertices": [-1]}], "colors": [0]}, u)


def test_location_roundtrip():
    u = explicit_universe(4, [(0, 1)])
    loc = Location(
        (frozenset([vertex_point(0)]), frozenset([vertex_point(2), vertex_point(3)])),
        (0, 1),
    )
    data = {"cells": [{"vertices": [0]}, {"vertices": [3, 2]}], "colors": [0, 1]}
    assert location_from_json(data, u) == loc

    line = line_universe(3)
    box_loc = Location((TaggedBox(0, 2, (-1,)),), (0,))
    data = {"cells": [{"box": box_to_json(box_loc.cells[0])}], "colors": [0]}
    assert location_from_json(data, line) == box_loc


def test_parse_instance_file(tmp_path):
    u = line_universe(3)
    path = tmp_path / "line.json"
    path.write_text(json.dumps(universe_to_json(u)))
    back = parse_instance_file(str(path))
    assert back.points == u.points
    missing = tmp_path / "nope.json"
    with pytest.raises(ParseError):
        parse_instance_file(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError) as err:
        parse_instance_file(str(bad))
    assert "line" in str(err.value)


def _dumps(data):
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


# every code point, control characters and lone surrogates included
_TEXT = st.text(st.characters(codec=None, exclude_categories=()), max_size=6)
_EMITTED_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**4000), 10**4000)
    | _TEXT
)


def _containers(inner, keys=_TEXT):
    return (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(keys, inner, max_size=4)
    )


@settings(derandomize=True, max_examples=300)
@given(st.recursive(_EMITTED_LEAVES, _containers, max_leaves=40))
def test_canonical_dump_matches_json_dumps(data):
    assert dump_canonical(data) == _dumps(data)


@settings(derandomize=True, max_examples=200)
@given(
    st.recursive(
        _EMITTED_LEAVES | st.floats(),
        lambda inner: _containers(inner)
        | st.dictionaries(st.integers(), inner, max_size=3)
        | st.dictionaries(st.floats(allow_nan=False), inner, max_size=3)
        | st.dictionaries(st.none(), inner, max_size=1),
        max_leaves=20,
    )
)
def test_canonical_dump_falls_back_to_json_dumps(data):
    # floats and non-str keys go through json.dumps itself
    assert dump_canonical(data) == _dumps(data)


@given(st.integers(1, 300), st.booleans())
def test_canonical_dump_of_deep_nesting(depth, leaf):
    data = leaf
    for level in range(depth):
        data = {"k": data} if level % 2 else [data, []]
    assert dump_canonical(data) == _dumps(data)
    assert dump_canonical({}) == _dumps({}) and dump_canonical(()) == _dumps(())
