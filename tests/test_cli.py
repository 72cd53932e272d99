import argparse
import json
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from noetherlab import (
    PCondition,
    SampleUniverse,
    TaggedBox,
    VariationSpec,
    cli,
    distance_graph,
    patterns,
    pt,
)
from noetherlab.campaign import SUITES
from noetherlab.cli import MAX_TRIALS, build_parser, main
from noetherlab.patterns import SearchStats, find_variation_prefix
from noetherlab.serialize import (
    MAX_CURVE_POINTS,
    MAX_POWER,
    parse_instance_file,
    pcondition_to_json,
    universe_to_json,
)
from noetherlab.generators import line_universe


def _write_line_universe(tmp_path, n=3):
    path = tmp_path / "line.json"
    path.write_text(json.dumps(universe_to_json(line_universe(n))))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_gen_and_adj(tmp_path, capsys):
    out_file = tmp_path / "u.json"
    assert main(["gen", "line", "--size", "3", "--out", str(out_file)]) == 0
    data = json.loads(out_file.read_text())
    assert data["instance"]["kind"] == "distance"

    inst = _write_line_universe(tmp_path)
    code, report = _run(capsys, ["adj", inst, "--x", "[\"1\"]", "--y", "[\"2\"]"])
    assert code == 0 and report["adjacent"] is True
    code, report = _run(capsys, ["adj", inst, "--x", "[\"1\"]"])
    assert code == 0 and len(report["neighborhood"]) == 3
    code, report = _run(capsys, ["adj", inst, "--indices", "0", "2"])
    assert code == 0 and report["common_neighborhood"] == [["1"]]


def test_detect_report_shape(tmp_path, capsys):
    inst = _write_line_universe(tmp_path, 4)
    code, report = _run(
        capsys,
        ["detect", inst, "--family", "half", "--depth", "2", "--stress"],
    )
    assert code == 0
    assert set(report) >= {"pattern", "witness", "nodes_explored", "max_embedded_depth"}
    assert report["nodes_explored"] > 0


def test_detect_stress_runs_one_search_when_the_depth_embeds(tmp_path, capsys, monkeypatch):
    # the depth-4 half anticlique/anticlique prefix itself, on 8 vertices
    spec = VariationSpec("half", "anticlique", "anticlique", 4)
    verts = spec.vertices()
    edges = [[i, j] for i in range(8) for j in range(i + 1, 8)
             if spec.has_edge(verts[i], verts[j])]
    inst = tmp_path / "prefix4.json"
    inst.write_text(json.dumps({"kind": "explicit", "vertices": 8, "edges": edges}))
    calls = []

    def counted(universe, spec, stats=None):
        calls.append(spec.depth)
        return find_variation_prefix(universe, spec, stats)

    monkeypatch.setattr(cli, "find_variation_prefix", counted)
    monkeypatch.setattr(patterns, "find_variation_prefix", counted)
    code, report = _run(capsys, ["detect", str(inst), "--depth", "4", "--stress"])
    assert code == 0 and report["witness"] is not None
    assert report["max_embedded_depth"] == 4 and calls == [4]
    # no depth-6 witness: the statistic comes from the depths below 6
    calls.clear()
    code, report = _run(capsys, ["detect", str(inst), "--depth", "6", "--stress"])
    assert code == 0 and report["witness"] is None
    assert report["max_embedded_depth"] == 4 and calls == [6, 2, 3, 4, 5]


def test_detect_stress_searches_share_the_first_search_limit(tmp_path, capsys, monkeypatch):
    # the depth-4 half anticlique/anticlique prefix on 8 vertices: depth 6
    # does not embed, so --stress then searches the depths 2 to 5
    spec = VariationSpec("half", "anticlique", "anticlique", 4)
    verts = spec.vertices()
    edges = [[i, j] for i in range(8) for j in range(i + 1, 8)
             if spec.has_edge(verts[i], verts[j])]
    inst = tmp_path / "prefix4.json"
    inst.write_text(json.dumps({"kind": "explicit", "vertices": 8, "edges": edges}))
    universe = parse_instance_file(str(inst))
    counts = []
    for depth in (6, 2, 3, 4, 5):
        stats = SearchStats()
        find_variation_prefix(universe, VariationSpec(spec.family, spec.left, spec.right, depth), stats)
        counts.append(stats.nodes_explored)
    total = sum(counts)
    assert max(counts) < total - 1  # each search alone fits the smaller limit
    argv = ["detect", str(inst), "--depth", "6", "--stress"]
    monkeypatch.setattr("noetherlab.errors.NODE_LIMIT", total)
    code, report = _run(capsys, argv)
    assert code == 0 and report["witness"] is None
    assert report["nodes_explored"] == counts[0] and report["max_embedded_depth"] == 4
    monkeypatch.setattr("noetherlab.errors.NODE_LIMIT", total - 1)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: pattern search stopped at its limit of {total - 1} nodes\n"


def test_predense_past_its_node_limit_exits_1(tmp_path, capsys, monkeypatch):
    inst = _write_line_universe(tmp_path)
    cond_file = tmp_path / "conds.json"
    cond_file.write_text(
        json.dumps({"conditions": [{"assignment": {"0": 0}}, {"assignment": {"1": 1}}]})
    )
    monkeypatch.setattr("noetherlab.errors.NODE_LIMIT", 3)
    assert main(["poset", "predense", inst, "--file", str(cond_file)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: predensity search stopped at its limit of 3 nodes\n"


def test_lattice_report(tmp_path, capsys):
    inst = _write_line_universe(tmp_path, 4)
    code, report = _run(capsys, ["lattice", inst, "--trials", "5"])
    assert code == 0
    assert report["descent_chain_length"] >= 3
    assert report["relative_to_universe"] is True


def test_color_make_and_verify(tmp_path, capsys):
    inst = _write_line_universe(tmp_path)
    code, coloring = _run(capsys, ["color", "make", inst])
    assert code == 0
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps(coloring))
    code, verdict = _run(capsys, ["color", "verify", inst, "--file", str(cfile)])
    assert code == 0 and verdict["valid"] is True
    # corrupt it: same box for adjacent points 0 and 1 is impossible, so
    # instead put every point inside a box missing it
    coloring["assignment"]["0"] = coloring["assignment"]["1"]
    cfile.write_text(json.dumps(coloring))
    code, verdict = _run(capsys, ["color", "verify", inst, "--file", str(cfile)])
    assert code == 1 and verdict["valid"] is False


def test_color_verify_bounds_the_box_level(tmp_path, capsys):
    from noetherlab.serialize import MAX_BOX_LEVEL

    inst = _write_line_universe(tmp_path, 4)
    code, coloring = _run(capsys, ["color", "make", inst])
    assert code == 0
    cfile = tmp_path / "c.json"
    for level in (40000000, MAX_BOX_LEVEL + 1):
        coloring["assignment"]["1"]["level"] = level
        cfile.write_text(json.dumps(coloring))
        assert main(["color", "verify", inst, "--file", str(cfile)]) == 2, level
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err == (
            f"parse error: assignment[1].level: {level} exceeds the bound {MAX_BOX_LEVEL}\n"
        )
    # at the bound the box parses, and verify judges it (it misses point 1)
    coloring["assignment"]["1"]["level"] = MAX_BOX_LEVEL
    cfile.write_text(json.dumps(coloring))
    code, verdict = _run(capsys, ["color", "verify", inst, "--file", str(cfile)])
    assert code == 1 and verdict["valid"] is False


def test_color_make_keeps_to_the_box_level_bound(tmp_path, capsys):
    from noetherlab.serialize import MAX_BOX_LEVEL

    # two adjacent points past 2**1024 are parted only by a box of level
    # 1025, which color verify would refuse: make writes nothing
    far = SampleUniverse(distance_graph(1, [1]), [pt(2**1024 + 5), pt(2**1024 + 6)])
    inst = tmp_path / "far.json"
    inst.write_text(json.dumps(universe_to_json(far)))
    cfile = tmp_path / "c.json"
    for out in ([], ["--out", str(cfile)]):
        assert main(["color", "make", str(inst), *out]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not cfile.exists()
        assert captured.err == (
            f"parse error: point 0 needs a box of level 1025, past the bound {MAX_BOX_LEVEL}\n"
        )
    # one power of two lower, the boxes reach the bound and verify accepts them
    near = SampleUniverse(distance_graph(1, [1]), [pt(2**1023 + 5), pt(2**1023 + 6)])
    inst.write_text(json.dumps(universe_to_json(near)))
    assert main(["color", "make", str(inst), "--out", str(cfile)]) == 0
    assert MAX_BOX_LEVEL in {b["level"] for b in json.loads(cfile.read_text())["assignment"].values()}
    code, verdict = _run(capsys, ["color", "verify", str(inst), "--file", str(cfile)])
    assert code == 0 and verdict["valid"] is True


def test_integer_literals_past_the_digit_limit_exit_2(tmp_path, capsys):
    inst = _write_line_universe(tmp_path)
    huge = "1" * 5000  # Python refuses to convert an int string this long
    cfile = tmp_path / "c.json"
    cfile.write_text('{"assignment": {"0": {"tag": 0, "level": 0, "corners": [%s]}}}' % huge)
    for argv in (
        ["color", "verify", inst, "--file", str(cfile)],
        ["adj", inst, "--x", f"[{huge}]", "--y", "[1]"],
    ):
        assert main(argv) == 2, argv[:2]
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith("parse error: ") and "invalid JSON" in captured.err


def test_poset_verbs(tmp_path, capsys):
    inst = _write_line_universe(tmp_path)
    cond_file = tmp_path / "conds.json"
    cond_file.write_text(
        json.dumps({"conditions": [{"assignment": {"0": 0}}, {"assignment": {"1": 0}}]})
    )
    code, report = _run(capsys, ["poset", "compat", inst, "--file", str(cond_file)])
    assert code == 0 and report["pairwise_compatible"] is False

    cond_file.write_text(
        json.dumps({"conditions": [{"assignment": {"0": 0}}, {"assignment": {"1": 1}}]})
    )
    code, report = _run(capsys, ["poset", "predense", inst, "--file", str(cond_file)])
    assert code == 0 and report["agree"] is True


def test_poset_lower_bound(tmp_path, capsys):
    inst = _write_line_universe(tmp_path)
    from noetherlab import PCondition, TaggedBox
    from noetherlab.serialize import pcondition_to_json

    u = line_universe(3)
    p0 = pcondition_to_json(PCondition(u, {pt(0): TaggedBox(0, 2, (-1,))}))
    p1 = pcondition_to_json(PCondition(u, {pt(1): TaggedBox(0, 2, (3,))}))
    cfile = tmp_path / "p.json"
    cfile.write_text(json.dumps({"conditions": [p0, p1], "point": 2}))
    code, report = _run(capsys, ["poset", "lower-bound", inst, "--file", str(cfile)])
    assert code == 0 and report["built"] is True
    assert set(report["bound"]["assignment"]) == {"0", "1", "2"}


def _poset_file(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_poset_verbs_refuse_invalid_conditions(tmp_path, capsys):
    inst = _write_line_universe(tmp_path, 4)
    negative = _poset_file(tmp_path, "negative.json", {"conditions": [{"assignment": {"0": -1}}]})
    improper = _poset_file(tmp_path, "improper.json", {"conditions": [{"assignment": {"0": 0, "1": 0}}]})
    for verb in ("compat", "predense"):
        assert main(["poset", verb, inst, "--file", negative]) == 2, verb
        err = capsys.readouterr().err
        assert err == "parse error: q-condition.assignment[0]: color -1 is not a natural\n"
        assert main(["poset", verb, inst, "--file", improper]) == 1, verb
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: adjacent ")
    # the box (1/2, 3/2) does not hold point 0
    unsuitable = _poset_file(tmp_path, "unsuitable.json", {"conditions": [
        {"assignment": {"0": {"tag": 0, "level": 1, "corners": [1]}}}
    ]})
    for argv in (["compat", "--kind", "p"], ["lower-bound"]):
        assert main(["poset", *argv, inst, "--file", unsuitable]) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "not inside its color" in captured.err


def test_poset_locations_are_checked(tmp_path, capsys):
    clustered = str(tmp_path / "clustered.json")
    assert main(["gen", "clustered-line", "--out", clustered]) == 0
    # points i/16 (indices 0-7) and 1 + i/16 (8-15); the level-3 boxes
    # (0, 1/4) and (1, 5/4) carry the unit edge 1/16 - 17/16
    cell0, cell8 = ({"box": {"tag": 0, "level": 3, "corners": [m]}} for m in (0, 8))
    conds = [{"assignment": {str(a): 0, str(b): 0}} for a, b in ((0, 9), (1, 10))]
    malformed = [
        ({"cells": [], "colors": []}, "a location needs at least one cell"),
        ({"cells": [cell0], "colors": [0, 1]}, "cells and colors must align"),
    ]
    for location, message in malformed:
        for verb in ("ramsey", "liminf"):
            data = {"conditions": conds, "location": location}
            assert main(["poset", verb, clustered, "--file", _poset_file(tmp_path, "bad.json", data)]) == 2
            assert capsys.readouterr().err == f"parse error: location: {message}\n"
    far = {"conditions": conds, "location": {"cells": [cell0, cell8], "colors": [0, 0]}, "m": 2}
    assert main(["poset", "ramsey", clustered, "--file", _poset_file(tmp_path, "far.json", far)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: same-colored cells 0,1 are not certified edge-free" in captured.err


def test_malformed_boxes_and_cells_exit_2_and_name_the_field(tmp_path, capsys):
    line = _write_line_universe(tmp_path)  # a distance instance of dimension 1
    plane_box = {"tag": 0, "level": 1, "corners": [0, 0]}
    conds = [{"assignment": {"0": 0}}, {"assignment": {"1": 0}}]
    coloring = _poset_file(tmp_path, "coloring.json", {"assignment": {"0": plane_box}})
    p_conds = _poset_file(tmp_path, "p.json", {"conditions": [{"assignment": {"0": plane_box}}]})
    box_cell = _poset_file(tmp_path, "box.json", {
        "conditions": conds, "location": {"cells": [{"box": plane_box}], "colors": [0]}
    })
    vertex_cell = _poset_file(tmp_path, "vertex.json", {
        "conditions": conds, "location": {"cells": [{"vertices": [0]}], "colors": [0]}
    })
    corners = "corners: 2 corners in dimension 1"
    cases = [
        (["color", "verify", line, "--file", coloring], f"assignment[0].{corners}"),
        (["poset", "compat", "--kind", "p", line, "--file", p_conds], f"assignment[0].{corners}"),
        (["poset", "lower-bound", line, "--file", p_conds], f"assignment[0].{corners}"),
        (["poset", "ramsey", line, "--file", box_cell], f"cells[0].{corners}"),
        (["poset", "liminf", line, "--file", box_cell], f"cells[0].{corners}"),
        (["poset", "ramsey", line, "--file", vertex_cell],
         "location.cells[0]: vertex cells need an explicit instance"),
        (["poset", "liminf", line, "--file", vertex_cell],
         "location.cells[0]: vertex cells need an explicit instance"),
    ]
    for argv, message in cases:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"parse error: {message}\n"), argv


def _path_instance(tmp_path, n):
    return _poset_file(tmp_path, f"path{n}.json", {
        "kind": "explicit", "vertices": n, "edges": [[v, v + 1] for v in range(n - 1)]
    })


def test_ramsey_scalars_exit_0_1_or_2(tmp_path, capsys):
    clustered = str(tmp_path / "clustered.json")
    assert main(["gen", "clustered-line", "--out", clustered]) == 0
    box = {"cells": [{"box": {"tag": 0, "level": 0, "corners": [0]}}], "colors": [0]}
    conds = [{"assignment": {"0": 0}}, {"assignment": {"3": 0}}]
    path = _path_instance(tmp_path, 1024)
    singletons = {"cells": [{"vertices": [v]} for v in range(1024)], "colors": list(range(1024))}
    every = [{"assignment": {str(v): v for v in range(1024)}}] * 2
    cases = [(clustered, {"conditions": conds, "location": box, "m": m}) for m in (-5, 0, 1)]
    cases += [
        (clustered, {"conditions": conds, "location": box, "m": 400}),
        (path, {"conditions": every, "location": singletons}),
        (clustered, {"conditions": conds, "location": box, "m": 2}),
    ]
    for (inst, data), expected in zip(cases, (2, 2, 2, 1, 1, 0)):
        file = _poset_file(tmp_path, "ramsey.json", data)
        start = time.perf_counter()
        assert main(["poset", "ramsey", inst, "--file", file]) == expected, data.get("m")
        assert time.perf_counter() - start < 2.0, data.get("m")
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if expected == 2:
            assert captured.err == f"parse error: {file}.m: {data['m']} is below 2\n"
        elif expected == 1:
            assert captured.out == "" and captured.err.startswith("error: the Ramsey recursion ")
    assert json.loads(captured.out) == {"bound": 2, "subset": [0, 1]}


def test_liminf_negative_threshold_exits_2(tmp_path):
    path = _path_instance(tmp_path, 10)
    # no selection is adjacent to 9, so a threshold of -1 could never be met
    data = {
        "conditions": [{"assignment": {str(v): 0}} for v in (0, 2, 4, 6)],
        "location": {"cells": [{"vertices": list(range(10))}], "colors": [0]},
        "test_set": [9],
    }
    for threshold, expected in ((-1, 2), (0, 0)):
        file = _poset_file(tmp_path, "liminf.json", {**data, "threshold": threshold})
        out = subprocess.run(
            [sys.executable, "-m", "noetherlab.cli", "poset", "liminf", path, "--file", file],
            capture_output=True, text=True, timeout=20,
        )
        assert out.returncode == expected, out.stderr
        if expected == 2:
            assert out.stderr == f"parse error: {file}.threshold: -1 is negative\n"
        else:
            assert json.loads(out.stdout)["kept"] == [0, 1, 2, 3]


def test_predense_color_budget_below_1_exits_2(tmp_path, capsys):
    path = _path_instance(tmp_path, 4)
    conditions = [{"assignment": {"0": 0}}]
    for budget, expected in ((-1, 2), (0, 2), (1, 0)):
        data = {"conditions": conditions, "color_budget": budget}
        file = _poset_file(tmp_path, "predense.json", data)
        assert main(["poset", "predense", path, "--file", file]) == expected, budget
        captured = capsys.readouterr()
        if expected == 2:
            assert captured.err == f"parse error: {file}.color_budget: {budget} is below 1\n"
        else:
            assert json.loads(captured.out)["agree"] is True


def test_abbreviated_options_exit_2(tmp_path, capsys):
    # argparse would read each as the option it abbreviates
    inst = _write_line_universe(tmp_path)
    for argv, flag in (
        (["detect", inst, "--dep", "3"], "--dep"),
        (["lattice", inst, "--tri", "1"], "--tri"),
        (["lattice", inst, "--max", "2"], "--max"),
        (["campaign", "adjacency-laws", "--max-p", "6"], "--max-p"),
        (["gen", "line", "--si", "4"], "--si"),
        (["--he", "gen", "line"], "--he"),
        (["color", "--he", "make", inst], "--he"),
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and flag in captured.err, argv
    assert main(["detect", inst, "--depth", "3"]) == 0
    capsys.readouterr()


def test_long_values_are_quoted_short(tmp_path, capsys):
    digits = "7" * 4301  # one past Python's int conversion limit
    line = _write_line_universe(tmp_path, 12)
    data = universe_to_json(line_universe(12))
    data["points"][3] = [digits]
    points = _poset_file(tmp_path, "points.json", data)
    key = _poset_file(tmp_path, "key.json", {"conditions": [{"assignment": {digits: 0}}]})
    for argv in (
        ["adj", line, "--x", json.dumps([digits])],
        ["adj", line, "--indices", digits],
        ["adj", points, "--indices", "0"],
        ["poset", "compat", line, "--file", key],
    ):
        assert main(argv) == 2, argv[:3]
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.encode()) <= 300, argv[:3]
        assert f"'{digits[:39]}... (4301 characters)" in captured.err, argv[:3]
    # a short value keeps argparse's own wording
    assert main(["adj", line, "--indices", "1x"]) == 2
    assert capsys.readouterr().err.endswith("argument --indices: invalid int value: '1x'\n")


def test_mistyped_calls_exit_2(tmp_path, capsys):
    inst = _write_line_universe(tmp_path)
    assert main(["color", "verify", inst]) == 2
    assert main(["adj", inst, "--y", '["1"]']) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "the following arguments are required: --file" in captured.err
    assert captured.err.endswith("\nparse error: --y needs --x\n")


def test_hamming_verbs(capsys):
    code, report = _run(capsys, ["hamming", "chi", "--breadth", "3"])
    assert code == 0 and report["chromatic_number"] == 3
    code, report = _run(capsys, ["hamming", "vitali", "--breadth", "3"])
    assert code == 0 and report["passed"] is True
    code, report = _run(capsys, ["hamming", "embed", "--breadth", "4"])
    assert code == 0 and report["passed"] is True
    # single piece at index 0 carries bound 2: chi(diag 2)=2 passes,
    # chi(diag 3)=3 fails and flips the exit code
    code, report = _run(capsys, ["hamming", "sigma", "--breadth", "2"])
    assert code == 0 and report["passed"] is True
    code, report = _run(capsys, ["hamming", "sigma", "--breadth", "3"])
    assert code == 1 and report["passed"] is False


def test_hamming_gen_is_not_a_verb(capsys):
    # Hamming universe files come from gen hamming-diagonal|hamming-uniform
    assert main(["hamming", "gen", "--breadth", "3"]) == 2
    assert main(["hamming", "chi", "--breadth", "3", "--diagonal"]) == 2
    assert "invalid choice: 'gen'" in capsys.readouterr().err


def test_campaign_exit_codes(capsys):
    code, report = _run(capsys, ["campaign", "adjacency-laws", "--trials", "3"])
    assert code == 0 and report["all_passed"] is True
    code, report = _run(capsys, ["campaign", "selftest-mutation", "--trials", "10"])
    assert code == 1
    assert report["suites"]["selftest-mutation"]["counterexamples"]


def test_campaign_list_names_every_registered_suite(capsys):
    code, report = _run(capsys, ["campaign", "--list"])
    assert code == 0
    assert report == {"suites": sorted(SUITES)}
    assert "selftest-mutation" in report["suites"]


def test_campaign_report_is_the_same_at_every_jobs_level(capsys):
    # a pool of at most two workers; the trials of every suite share it, and
    # selftest-mutation's failures fill the counterexample lists
    argv = ["campaign", "adjacency-laws", "box-enumeration", "predense-equivalence",
            "selftest-mutation", "--trials", "20", "--seed", "7"]
    assert main([*argv, "--jobs", "1"]) == 1
    serial = capsys.readouterr().out
    assert json.loads(serial)["suites"]["selftest-mutation"]["counterexamples"]
    assert main([*argv, "--jobs", "2"]) == 1
    assert capsys.readouterr().out == serial


def test_out_file_holds_the_stdout_bytes(tmp_path, capsys):
    line = _write_line_universe(tmp_path)
    path4 = _path_instance(tmp_path, 4)
    coloring = tmp_path / "coloring.json"
    assert main(["color", "make", line, "--out", str(coloring)]) == 0
    improper = json.loads(coloring.read_text())
    improper["assignment"]["0"] = improper["assignment"]["1"]
    u = line_universe(3)
    # point 0 under two tags: the conditions have no common lower bound
    clash = [pcondition_to_json(PCondition(u, {pt(0): TaggedBox(tag, 2, (-1,))})) for tag in (0, 1)]
    q = {
        "conditions": [{"assignment": {"0": 0, "3": 1}}, {"assignment": {"1": 0, "3": 1}}],
        "location": {"cells": [{"vertices": [0, 1]}, {"vertices": [3]}], "colors": [0, 1]},
        "m": 2,
    }
    files = {
        "improper": _poset_file(tmp_path, "improper.json", improper),
        "clash": _poset_file(tmp_path, "clash.json", {"conditions": clash}),
        "q": _poset_file(tmp_path, "q.json", q),
        "m1": _poset_file(tmp_path, "m1.json", {**q, "m": 1}),
    }
    # a call per leaf and one more for campaign, with its exit code; each prints a report
    calls = [
        (["gen", "line", "--size", "5"], 0),
        (["gen", "clustered-line"], 0),
        (["gen", "planar", "--size", "5", "--seed", "3"], 0),
        (["gen", "explicit", "--size", "5", "--seed", "3"], 0),
        (["gen", "hamming-diagonal", "--size", "3"], 0),
        (["gen", "hamming-uniform", "--size", "2", "--alphabet", "3"], 0),
        (["adj", line, "--indices", "0", "2"], 0),
        (["detect", line, "--stress"], 0),
        (["lattice", line, "--trials", "5"], 0),
        (["color", "make", line], 0),
        (["color", "chi", line], 0),
        (["color", "verify", line, "--file", files["improper"]], 1),
        (["poset", "compat", path4, "--file", files["q"]], 0),
        (["poset", "lower-bound", line, "--file", files["clash"]], 1),
        (["poset", "ramsey", path4, "--file", files["q"]], 0),
        (["poset", "liminf", path4, "--file", files["q"]], 0),
        (["poset", "predense", path4, "--file", files["q"]], 0),
        (["hamming", "chi", "--breadth", "3"], 0),
        (["hamming", "vitali", "--breadth", "3"], 0),
        (["hamming", "embed", "--breadth", "4"], 0),
        (["hamming", "sigma", "--breadth", "3"], 1),
        (["campaign", "adjacency-laws", "--trials", "3"], 0),
        (["campaign", "selftest-mutation", "--trials", "10"], 1),
    ]
    leaves = [verb.split() for verb, _ in _leaves(build_parser())]
    assert len(leaves) == 22
    assert all(any(argv[:len(verb)] == verb for argv, _ in calls) for verb in leaves)
    out = tmp_path / "report.json"
    for argv, code in calls:
        assert main(argv) == code, argv
        printed = capsys.readouterr().out
        assert json.loads(printed), argv
        assert main([*argv, "--out", str(out)]) == code, argv
        assert capsys.readouterr().out == "", argv
        assert out.read_bytes() == printed.encode("utf-8"), argv
        out.unlink()
    # a call that fails before its report is written leaves no --out file
    for argv, code in (
        (["poset", "ramsey", path4, "--file", files["m1"]], 2),
        (["color", "verify", line, "--file", files["q"]], 2),
        (["adj", line, "--y", "[1]"], 2),
        (["campaign", "--jobs", "0"], 2),
        (["hamming", "chi", "--breadth", "5"], 1),
    ):
        assert main([*argv, "--out", str(out)]) == code, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err, argv
        assert not out.exists(), argv


def test_each_verb_reads_only_its_own_options(tmp_path, capsys):
    inst = _write_line_universe(tmp_path)
    # --seed, --trials and the three bounds on a verb that does not read them
    for argv in (
        ["adj", inst, "--indices", "0", "--trials", "5"],
        ["detect", inst, "--seed", "9"],
        ["detect", inst, "--bound", "oracle=x"],
        ["color", "make", inst, "--max-points", "3"],
        ["hamming", "chi", "--breadth", "2", "--trials", "7"],
        ["hamming", "vitali", "--breadth", "2", "--color-budget", "3"],
        ["poset", "compat", inst, "--file", inst, "--color-budget", "3"],
        ["lattice", inst, "--color-budget", "3"],
        ["campaign", "--max-arity", "3"],
        # the oracle's 24 points and predensity's file field are no options
        ["color", "chi", inst, "--max-arity", "3"],
        ["hamming", "chi", "--breadth", "2", "--max-arity", "3"],
        ["hamming", "sigma", "--breadth", "2", "--max-arity", "3"],
        ["poset", "predense", inst, "--file", inst, "--color-budget", "3"],
        ["campaign", "--oracle=24"],
    ):
        assert main(argv) == 2, argv
    err = capsys.readouterr().err
    assert "unrecognized arguments: --trials 5" in err
    assert "unrecognized arguments: --bound oracle=x" in err
    assert "unrecognized arguments: --max-points 3" in err
    assert "unrecognized arguments: --max-arity 3" in err
    assert "unrecognized arguments: --color-budget 3" in err
    assert "unrecognized arguments: --oracle=24" in err
    # and each verb that reads one still takes it
    for argv in (
        ["gen", "explicit", "--size", "4", "--seed", "9"],
        ["lattice", inst, "--seed", "9", "--trials", "2", "--max-arity", "2"],
        ["campaign", "adjacency-laws", "--trials", "1", "--max-points", "6", "--color-budget", "2"],
    ):
        assert main(argv) == 0, argv
    capsys.readouterr()


def test_options_a_verb_does_not_read_exit_2(tmp_path, capsys):
    line = _write_line_universe(tmp_path)
    path4 = _poset_file(tmp_path, "path4.json",
                        {"kind": "explicit", "vertices": 4, "edges": [[0, 1], [1, 2], [2, 3]]})
    q = _poset_file(tmp_path, "q.json", {
        "conditions": [{"assignment": {"0": 0, "3": 1}}, {"assignment": {"1": 0, "3": 1}}],
        "location": {"cells": [{"vertices": [0, 1]}, {"vertices": [3]}], "colors": [0, 1]},
        "m": 2,
    })
    u = line_universe(3)
    p = _poset_file(tmp_path, "p.json", {"point": 2, "conditions": [
        pcondition_to_json(PCondition(u, {pt(0): TaggedBox(0, 2, (-1,))})),
        pcondition_to_json(PCondition(u, {pt(1): TaggedBox(0, 2, (3,))})),
    ]})
    seed, alphabet, edge = ["--seed", "3"], ["--alphabet", "3"], ["--edge-probability", "0.5"]
    # each verb with an option that it does not read; without the option it runs
    ignored = [
        *((["gen", "line"], option) for option in (seed, alphabet, edge)),
        *((["gen", "hamming-diagonal", "--size", "3"], option) for option in (seed, alphabet, edge)),
        *((["gen", "clustered-line"], option) for option in (["--size", "5"], seed, alphabet, edge)),
        (["gen", "planar"], alphabet),
        (["gen", "planar"], edge),
        (["gen", "explicit"], alphabet),
        (["gen", "hamming-uniform"], seed),
        (["gen", "hamming-uniform"], edge),
        *((["color", verb, line], ["--file", p]) for verb in ("make", "chi")),
        (["poset", "lower-bound", line, "--file", p], ["--kind", "q"]),
        *((["poset", verb, path4, "--file", q], ["--kind", "p"])
          for verb in ("ramsey", "liminf", "predense")),
        *((["hamming", verb, "--breadth", "2"], alphabet) for verb in ("chi", "embed", "sigma")),
        (["adj", line, "--x", '["1"]'], ["--indices", "0"]),
    ]
    assert len(ignored) == 25
    for argv, option in ignored:
        assert main(argv) == 0, argv
        capsys.readouterr()
        assert main([*argv, *option]) == 2, (argv, option)
        assert capsys.readouterr().out == "", (argv, option)
    # each verb that reads one of these options still takes it
    coloring = str(tmp_path / "coloring.json")
    assert main(["color", "make", line, "--out", coloring]) == 0
    for argv in (
        ["gen", "line", "--size", "5"],
        ["gen", "planar", "--size", "5", "--seed", "3"],
        ["gen", "explicit", "--seed", "3", "--edge-probability", "0.5"],
        ["gen", "hamming-uniform", "--size", "3", "--alphabet", "3"],
        ["color", "verify", line, "--file", coloring],
        ["poset", "compat", line, "--file", p, "--kind", "p"],
        ["hamming", "vitali", "--breadth", "2", "--alphabet", "3"],
        ["adj", line, "--indices", "0"],
    ):
        assert main(argv) == 0, argv
    capsys.readouterr()


def test_campaign_bounds_below_their_minimum_exit_2(capsys):
    # each suite's draws need maxPoints >= 6 and colorBudget >= 2; RunConfig
    # checks them, also under --list
    for suite, bound in (
        ("lattice-laws", ["--max-points", "1"]),
        ("pattern-oracle", ["--max-points", "5"]),
        ("predense-equivalence", ["--color-budget", "1"]),
        ("--list", ["--color-budget", "-3"]),
    ):
        assert main(["campaign", suite, "--trials", "2", *bound]) == 2, bound
    err = capsys.readouterr().err
    assert "parse error: bound maxPoints: 5 is not an integer >= 6\n" in err
    assert "parse error: bound colorBudget: 1 is not an integer >= 2\n" in err
    assert "parse error: bound colorBudget: -3 is not an integer >= 2\n" in err
    for suite, bound in (
        ("pattern-oracle", ["--max-points", "6"]),
        ("predense-equivalence", ["--color-budget", "2"]),
    ):
        code, report = _run(capsys, ["campaign", suite, "--trials", "3", *bound])
        assert code == 0 and report["all_passed"] is True, bound


def test_other_verbs_take_a_bound_below_the_campaign_minimum(tmp_path, capsys):
    line = str(tmp_path / "line64.json")
    assert main(["gen", "line", "--size", "64", "--out", line]) == 0
    # colored from {0}, the conditions on 0 and 1 meet every condition; from {0, 1, 2} not
    conditions = [{"assignment": {"0": 0}}, {"assignment": {"1": 0}}]
    default = _poset_file(tmp_path, "default.json", {"conditions": conditions})
    key = _poset_file(tmp_path, "key.json", {"conditions": conditions, "color_budget": 1})
    # the file's color_budget goes below the campaign's colorBudget minimum of 2
    assert _run(capsys, ["poset", "predense", line, "--file", key]) == (
        0, {"predense": True, "predense_reduced": True, "agree": True}
    )
    assert _run(capsys, ["poset", "predense", line, "--file", default])[1]["predense"] is False


def test_negative_curve_exponent_exits_2(tmp_path, capsys):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({
        "instance": {"kind": "curveDifference", "poly": [{"powers": [-1, 0], "coeff": "1"}]},
        "points": [["0", "0"], ["0", "1"]],
    }))
    assert main(["adj", str(path), "--indices", "0", "1"]) == 2
    assert "negative exponent" in capsys.readouterr().err


def test_curve_exponent_bound(tmp_path, capsys):
    path = tmp_path / "curve.json"
    for power, code in ((MAX_POWER, 0), (MAX_POWER + 1, 2)):
        path.write_text(json.dumps({
            "instance": {"kind": "curveDifference", "poly": [
                {"powers": [0, 1], "coeff": "1"}, {"powers": [power, 0], "coeff": "-1"},
            ]},
            "points": [["0", "0"], ["1", "1"], ["2", "1"]],
        }))
        assert main(["adj", str(path), "--indices", "0"]) == code, power
    captured = capsys.readouterr()
    assert json.loads(captured.out)["common_neighborhood"] == [["0", "0"], ["1", "1"]]
    assert captured.err == (
        f"parse error: instance.poly[1].powers: [{MAX_POWER + 1}, 0] "
        f"exceeds the bound {MAX_POWER}\n"
    )


def test_curve_point_bound(tmp_path, capsys):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({
        "instance": {"kind": "curveDifference", "poly": [
            {"powers": [0, 1], "coeff": "1"}, {"powers": [1, 0], "coeff": "-1"},
        ]},
        "points": [[str(i), "0"] for i in range(MAX_CURVE_POINTS + 1)],
    }))
    assert main(["adj", str(path), "--indices", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"parse error: universe.points: {MAX_CURVE_POINTS + 1} points "
        f"exceed the bound {MAX_CURVE_POINTS}\n"
    )


def test_repeated_polynomial_term_exits_2(tmp_path, capsys):
    # keeping the last coefficient would read p = -u - v, and summing the
    # terms p = -v; either way the file means something it does not say
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({
        "instance": {"kind": "curveDifference", "poly": [
            {"powers": [1, 0], "coeff": "1"},
            {"powers": [1, 0], "coeff": "-1"},
            {"powers": [0, 1], "coeff": "-1"},
        ]},
        "points": [["0", "0"], ["1", "0"]],
    }))
    assert main(["adj", str(path), "--x", '["0","0"]', "--y", '["1","0"]']) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parse error: instance.poly[1].powers: [1, 0] repeats an earlier term\n"


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main(["adj", str(tmp_path / "missing.json")]) == 2
    assert main(["campaign", "--bound", "oracle"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "distance", "dim": 1, "squared_distances": ["3/0"]}))
    assert main(["adj", str(bad)]) == 2
    capsys.readouterr()


def test_bad_point_indices_exit_2(tmp_path, capsys):
    inst = _write_line_universe(tmp_path)
    assert main(["adj", inst, "--indices", "-1"]) == 2
    assert main(["adj", inst, "--indices", "0", "3"]) == 2
    files = {
        "compat": {"conditions": [{"assignment": {"-1": 0}}]},
        "predense": {"conditions": [{"assignment": {"1.5": 0}}]},
        "liminf": {
            "location": {"cells": [{"vertices": [0, 1]}], "colors": [0]},
            "conditions": [{"assignment": {"0": 0}}],
            "test_set": [-1],
        },
        "lower-bound": {"conditions": [], "point": -1},
    }
    for verb, data in files.items():
        path = tmp_path / f"{verb}.json"
        path.write_text(json.dumps(data))
        assert main(["poset", verb, inst, "--file", str(path)]) == 2, verb
    assert "outside" in capsys.readouterr().err


def test_point_keys_name_one_point_each(tmp_path, capsys):
    # "00" and " 1" would alias 0 and 1, "1_0" would read as 10, and a
    # repeated key would keep only its last value
    inst = tmp_path / "line12.json"
    inst.write_text(json.dumps(universe_to_json(line_universe(12))))
    other = '{"assignment": {"5": 0}}'
    for assignment in ('{"0": 0, "00": 1}', '{" 1": 0}', '{"1_0": 0}', '{"0": 0, "0": 1}'):
        path = tmp_path / "conds.json"
        path.write_text('{"conditions": [{"assignment": %s}, %s]}' % (assignment, other))
        assert main(["poset", "compat", str(inst), "--file", str(path)]) == 2, assignment
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("parse error: "), assignment
    assert main(["adj", str(inst), "--x", '{"0": 1, "0": 2}']) == 2
    assert "repeated key '0'" in capsys.readouterr().err


def test_malformed_containers_exit_2(tmp_path, capsys):
    def write(name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    instances = {
        "top_list": [],
        "points_string": {"instance": {"kind": "distance", "dim": 1, "squared_distances": ["1"]},
                          "points": "01"},
        "distances_string": {"kind": "distance", "dim": 1, "squared_distances": "14",
                             "points": [["0"]]},
        "poly_powers_string": {"kind": "curveDifference", "poly": [{"powers": "12", "coeff": "1"}],
                               "points": [["0", "0"]]},
        "edge_string": {"kind": "explicit", "vertices": 2, "edges": ["01"]},
        "dim_float": {"kind": "distance", "dim": 1.5, "squared_distances": ["1"],
                      "points": [["0"]]},
        "dim_bool": {"kind": "distance", "dim": True, "squared_distances": ["1"],
                     "points": [["0"]]},
        "breadth_string": {"kind": "hammingDiagonal", "breadth": "2", "points": [["0", "0"]]},
        "alphabet_float": {"kind": "hammingUniform", "breadth": 2, "alphabet": 2.0,
                           "points": [["0", "0"]]},
        "vertices_string": {"kind": "explicit", "vertices": "2", "edges": []},
        "vertices_huge": {"kind": "explicit", "vertices": 100000, "edges": []},
        "points_4097": {"kind": "distance", "dim": 1, "squared_distances": ["1"],
                        "points": [[str(i)] for i in range(4097)]},
        "edge_endpoint_bool": {"kind": "explicit", "vertices": 2, "edges": [[0, True]]},
        "poly_powers_float": {"kind": "curveDifference", "poly": [{"powers": [1.0, 0], "coeff": "1"}],
                              "points": [["0", "0"]]},
    }
    for name, data in instances.items():
        assert main(["adj", write(f"{name}.json", data), "--indices", "0"]) == 2, name

    inst = _write_line_universe(tmp_path)
    loc = {"cells": [{"vertices": [0, 1]}], "colors": [0]}
    conds = [{"assignment": {"0": 0}}]
    files = [
        ("compat", "q", []),
        ("compat", "q", {"conditions": 5}),
        ("compat", "q", {"conditions": [5]}),
        ("compat", "q", {"conditions": [{"assignment": "x"}]}),
        ("compat", "q", {"conditions": [{}]}),
        ("compat", "p", {"conditions": [{"assignment": "x"}]}),
        ("compat", "p", {"conditions": [{"assignment": {"0": [0, 1, 0]}}]}),
        ("compat", "p", {"conditions": [{"assignment": {"0": {"tag": 0, "level": 1, "corners": "0"}}}]}),
        ("compat", "p", {"conditions": [{"assignment": {"0": {"tag": True, "level": 1, "corners": [0]}}}]}),
        ("compat", "p", {"conditions": [{"assignment": {"0": {"tag": 0, "level": 1.0, "corners": [0]}}}]}),
        ("compat", "p", {"conditions": [{"assignment": {"0": {"tag": 0, "level": 1, "corners": ["0"]}}}]}),
        ("compat", "q", {"conditions": [{"assignment": {"0": 1.7}}]}),
        ("compat", "q", {"conditions": [{"assignment": {"0": "2"}}]}),
        ("predense", "q", {"conditions": 5}),
        ("predense", "q", {"conditions": conds, "color_budget": "3"}),
        ("lower-bound", "p", {"conditions": {"0": 0}}),
        ("ramsey", "q", {"conditions": conds}),
        ("ramsey", "q", {"conditions": conds, "location": loc, "m": "3"}),
        ("ramsey", "q", {"conditions": conds, "location": {"cells": "ab", "colors": [0]}}),
        ("ramsey", "q", {"conditions": conds, "location": {"cells": ["box"], "colors": [0]}}),
        ("ramsey", "q", {"conditions": conds, "location": {"cells": [{"vertices": 0}], "colors": [0]}}),
        ("liminf", "q", {"conditions": conds}),
        ("liminf", "q", {"conditions": conds, "location": [loc]}),
        ("liminf", "q", {"conditions": conds, "location": {"cells": loc["cells"], "colors": 0}}),
        ("liminf", "q", {"conditions": conds, "location": {"cells": loc["cells"], "colors": ["0"]}}),
        ("liminf", "q", {"conditions": conds, "location": loc, "test_set": 0}),
        ("liminf", "q", {"conditions": conds, "location": loc, "threshold": True}),
    ]
    for i, (verb, kind, data) in enumerate(files):
        argv = ["poset", verb, inst, "--file", write(f"poset{i}.json", data)]
        if verb == "compat":
            argv += ["--kind", kind]
        assert main(argv) == 2, (verb, data)
    assert main(["color", "verify", inst, "--file", write("c.json", {"assignment": "x"})]) == 2
    assert main(["adj", inst, "--x", "nope"]) == 2
    assert main(["lattice", inst, "--max-arty", "1"]) == 2  # a misspelt option
    # arities, breadths and alphabets are positive integers
    assert main(["lattice", inst, "--max-arity", "0"]) == 2
    assert main(["lattice", inst, "--max-arity", "-1"]) == 2
    for argv in (
        ["vitali", "--breadth", "0"],
        ["vitali", "--breadth", "3", "--alphabet", "0"],
        ["chi", "--breadth", "0"],
        ["sigma", "--breadth", "0"],
        ["embed", "--breadth", "0"],
    ):
        assert main(["hamming", *argv]) == 2, argv
    empty = {"kind": "distance", "dim": 1, "squared_distances": ["1"], "points": []}
    assert main(["lattice", write("empty.json", empty)]) == 2
    assert main(["adj", inst, "--x", '["1"]', "--y", "[1,"]) == 2
    # a point the universe or the instance does not hold is a usage error
    line5 = tmp_path / "line5.json"
    line5.write_text(json.dumps(universe_to_json(line_universe(5))))
    assert main(["adj", str(line5), "--x", '["9"]']) == 2
    assert main(["adj", inst, "--x", '["1","2"]', "--y", '["1"]']) == 2
    err = capsys.readouterr().err
    assert "expected a JSON array" in err and "expected a JSON object" in err
    assert "missing 'location'" in err and "Traceback" not in err
    assert "unrecognized arguments: --max-arty 1" in err
    assert "--max-arity must be a positive integer, got -1" in err
    assert "--alphabet must be a positive integer, got 0" in err

    # null stays the default threshold
    two = [{"assignment": {"0": 0}}, {"assignment": {"1": 0}}]
    liminf = write("liminf.json", {"conditions": two, "location": loc, "threshold": None})
    path4 = write("path4.json", {"kind": "explicit", "vertices": 4, "edges": [[0, 1], [1, 2], [2, 3]]})
    code, report = _run(capsys, ["poset", "liminf", path4, "--file", liminf])
    assert code == 0 and report["threshold"] == 2


def test_numeric_options_exit_2(tmp_path, capsys):
    inst = _write_line_universe(tmp_path)
    probability = "--edge-probability must be a number in [0, 1],"
    cases = [
        (["gen", "hamming-diagonal", "--size", "0"], "--size must be a positive integer, got 0"),
        (["gen", "hamming-uniform", "--size", "-2"], "--size must be a positive integer, got -2"),
        (["gen", "hamming-uniform", "--alphabet", "0"],
         "--alphabet must be a positive integer, got 0"),
        (["gen", "line", "--size", "-1"], "--size must be a positive integer, got -1"),
        (["gen", "planar", "--size", "-1"], "--size must be a positive integer, got -1"),
        (["gen", "explicit", "--size", "-1"], "--size must be a positive integer, got -1"),
        (["gen", "line", "--size", "5000"], "--size 5000 exceeds the bound 4096"),
        (["gen", "planar", "--size", "4097"], "--size 4097 exceeds the bound 4096"),
        (["gen", "explicit", "--edge-probability", "-1"], f"{probability} got -1.0"),
        (["gen", "explicit", "--edge-probability", "7"], f"{probability} got 7.0"),
        (["gen", "explicit", "--edge-probability", "nan"], f"{probability} got nan"),
        (["campaign", "--trials", "-1"], "--trials must be a positive integer, got -1"),
        (["campaign", "--trials", "0"], "--trials must be a positive integer, got 0"),
        (["lattice", inst, "--trials", "-5"], "--trials must be a positive integer, got -5"),
        (["lattice", inst, "--trials", str(MAX_TRIALS + 1)],
         f"--trials {MAX_TRIALS + 1} exceeds the bound {MAX_TRIALS}"),
        (["campaign", "--trials", str(MAX_TRIALS + 1)],
         f"--trials {MAX_TRIALS + 1} exceeds the bound {MAX_TRIALS}"),
        (["campaign", "--jobs", "0"], "--jobs must be a positive integer, got 0"),
        (["campaign", "--jobs", "-2"], "--jobs must be a positive integer, got -2"),
        (["detect", inst, "--depth", "1"], "--depth must be an integer >= 2, got 1"),
    ]
    for argv, message in cases:
        out = tmp_path / "out.json"
        assert main([*argv, "--out", str(out)]) == 2, argv
        captured = capsys.readouterr()
        assert f"parse error: {message}" in captured.err, argv
        assert "Traceback" not in captured.err and not out.exists(), argv
    # the least and greatest accepted values still run
    for argv in (
        ["gen", "line", "--size", "4096"],
        ["gen", "explicit", "--size", "1", "--edge-probability", "0"],
        ["gen", "explicit", "--size", "3", "--edge-probability", "1"],
        ["campaign", "adjacency-laws", "--trials", "1", "--jobs", "1"],
        ["detect", inst, "--depth", "2"],
        ["lattice", inst, "--trials", str(MAX_TRIALS)],
    ):
        assert main([*argv, "--out", str(tmp_path / "ok.json")]) == 0, argv
    # a Hamming breadth above the size bound is a bounded oracle, not a usage error
    assert main(["gen", "hamming-diagonal", "--size", "5000"]) == 1
    assert "exceeds size bound 4096" in capsys.readouterr().err


def test_parser_reuse_leaks_nothing_between_calls(tmp_path, capsys):
    inst = _write_line_universe(tmp_path, 6)
    sequences = [
        # a 120-point truncation exceeds the oracle's 24 points (exit 1); a
        # bound set in one call does not outlive it
        [
            (["hamming", "chi", "--breadth", "5"], 1),
            (["lattice", inst, "--trials", "1", "--max-arity", "1"], 0),
            (["lattice", inst, "--trials", "1"], 0),
        ],
        [(["adj", inst, "--indices", "0", "1"], 0), (["adj", inst, "--x", '["1"]'], 0)],
        [(["adj", inst, "--no-such-flag"], 2), (["adj", inst, "--indices", "2"], 0)],
        [(["detect", inst, "--depth", "x"], 2), (["detect", inst, "--stress"], 0)],
    ]

    def outcome(argv):
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    assert build_parser() is build_parser()
    for calls in sequences:
        reused = [outcome(argv) for argv, _ in calls]
        fresh = []
        for argv, _ in calls:
            build_parser.cache_clear()
            fresh.append(outcome(argv))
        assert reused == fresh, calls
        assert [code for code, _, _ in reused] == [code for _, code in calls], calls


def test_console_entrypoint_runs():
    out = subprocess.run(
        [sys.executable, "-m", "noetherlab.cli", "campaign", "box-enumeration", "--trials", "2"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0


def _leaves(parser, prefix=()):
    """(verb, parser) of each leaf sub-command, the verb as it is typed."""
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        yield " ".join(prefix), parser
    for group in groups:
        for name, child in group.choices.items():
            yield from _leaves(child, (*prefix, name))


def test_readme_command_line_matches_the_parser():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    # every example parses; none is run
    examples = [line for line in section.splitlines() if line.startswith("noetherlab ")]
    assert len(examples) >= 10
    for line in examples:
        try:
            build_parser().parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")
    # the option table names each verb with exactly the options its parser declares
    table = {}
    for row in section.splitlines():
        if row.startswith("| `"):
            verbs, options = row.split("|")[1:3]
            for verb in re.findall(r"`([^`]+)`", verbs):
                table[verb] = set(re.findall(r"--[a-z-]+", options))
    leaves = dict(_leaves(build_parser()))
    assert table == {
        verb: {flag for a in leaf._actions for flag in a.option_strings} - {"-h", "--help", "--out"}
        for verb, leaf in leaves.items()
    }


def test_unreadable_input_and_unwritable_output_exit_2(tmp_path, capsys):
    assert main(["adj", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"parse error: {tmp_path}: cannot read")
    for out in (tmp_path / "no" / "dir" / "x.json", tmp_path):
        assert main(["gen", "line", "--size", "3", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith(f"parse error: --out {out}: cannot write")


def test_rationals_outside_the_grammar_exit_2(tmp_path, capsys):
    from conftest import MALFORMED_RATIONALS

    line = _write_line_universe(tmp_path, 12)
    data = universe_to_json(line_universe(12))
    for text in MALFORMED_RATIONALS:
        assert main(["adj", line, "--x", json.dumps([text])]) == 2, text
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("parse error: --x[0]: "), text
        data["points"][3] = ["3/4", text]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["adj", str(path), "--indices", "0"]) == 2, text
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("parse error: points[3][1]: "), text


def test_rationals_in_the_grammar_parse(tmp_path, capsys):
    path = tmp_path / "u.json"
    path.write_text(json.dumps({
        "instance": {"kind": "distance", "dim": 1, "squared_distances": ["1/16", 1]},
        "points": [["3/4"], ["-3"], ["2/4"], [-2], ["007/4"]],
    }))
    # "2/4" reads as 1/2, a quarter below 3/4, and "007/4" as 7/4, one above
    assert _run(capsys, ["adj", str(path), "--x", '["3/4"]']) == (
        0, {"neighborhood": [["1/2"], ["3/4"], ["7/4"]]}
    )
    assert _run(capsys, ["adj", str(path), "--x", "[-3]", "--y", '["-2"]']) == (
        0, {"adjacent": True}
    )
