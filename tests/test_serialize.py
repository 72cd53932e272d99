import json

import pytest

from conftest import explicit_universe
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
from noetherlab.serialize import (
    box_from_json,
    box_to_json,
    instance_from_json,
    instance_to_json,
    location_from_json,
    location_to_json,
    parse_instance_file,
    pcondition_from_json,
    pcondition_to_json,
    point_at,
    point_from_json,
    point_to_json,
    qcondition_from_json,
    qcondition_to_json,
    rational_from_str,
    rational_to_str,
    universe_from_json,
    universe_to_json,
)


def test_rational_strings():
    from fractions import Fraction

    assert rational_to_str(Fraction(1, 4)) == "1/4"
    assert rational_to_str(Fraction(3)) == "3"
    assert rational_from_str("1/4") == Fraction(1, 4)
    with pytest.raises(ParseError):
        rational_from_str("3/0")
    with pytest.raises(ParseError):
        rational_from_str("zebra")


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


def test_condition_roundtrips():
    import random

    u = line_universe(4)
    p = random_pcondition(random.Random(0), u)
    assert pcondition_from_json(pcondition_to_json(p), u).assignment == p.assignment
    q = QCondition(u, {pt(0): 0, pt(2): 1})
    assert qcondition_from_json(qcondition_to_json(q), u).assignment == q.assignment


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
    data = location_to_json(loc, u)
    back = location_from_json(data, u)
    assert back == loc

    line = line_universe(3)
    box_loc = Location((TaggedBox(0, 2, (-1,)),), (0,))
    assert location_from_json(location_to_json(box_loc, line), line) == box_loc


def test_parse_instance_file(tmp_path):
    u = line_universe(3)
    path = tmp_path / "line.json"
    path.write_text(json.dumps(universe_to_json(u)))
    instance, back = parse_instance_file(str(path))
    assert back.points == u.points
    missing = tmp_path / "nope.json"
    with pytest.raises(ParseError):
        parse_instance_file(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError) as err:
        parse_instance_file(str(bad))
    assert "line" in str(err.value)
