import json
import subprocess
import sys

from noetherlab.cli import main
from noetherlab.serialize import universe_to_json
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
    from noetherlab import PCondition, TaggedBox, pt
    from noetherlab.serialize import pcondition_to_json

    u = line_universe(3)
    p0 = pcondition_to_json(PCondition(u, {pt(0): TaggedBox(0, 2, (-1,))}))
    p1 = pcondition_to_json(PCondition(u, {pt(1): TaggedBox(0, 2, (3,))}))
    cfile = tmp_path / "p.json"
    cfile.write_text(json.dumps({"conditions": [p0, p1], "point": 2}))
    code, report = _run(
        capsys, ["poset", "lower-bound", inst, "--kind", "p", "--file", str(cfile)]
    )
    assert code == 0 and report["built"] is True
    assert set(report["bound"]["assignment"]) == {"0", "1", "2"}


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


def test_campaign_exit_codes(capsys):
    code, report = _run(capsys, ["campaign", "adjacency-laws", "--trials", "3"])
    assert code == 0 and report["all_passed"] is True
    code, report = _run(capsys, ["campaign", "selftest-mutation", "--trials", "10"])
    assert code == 1
    assert report["suites"]["selftest-mutation"]["counterexamples"]


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
        argv = ["poset", verb, inst, "--file", str(path)]
        if verb == "lower-bound":
            argv += ["--kind", "p"]
        assert main(argv) == 2, verb
    assert "outside" in capsys.readouterr().err


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
        argv = ["poset", verb, inst, "--kind", kind, "--file", write(f"poset{i}.json", data)]
        assert main(argv) == 2, (verb, data)
    assert main(["color", "verify", inst, "--file", write("c.json", {"assignment": "x"})]) == 2
    assert main(["adj", inst, "--x", "nope"]) == 2
    empty = {"kind": "distance", "dim": 1, "squared_distances": ["1"], "points": []}
    assert main(["lattice", write("empty.json", empty)]) == 2
    assert main(["adj", inst, "--x", '["1"]', "--y", "[1,"]) == 2
    err = capsys.readouterr().err
    assert "expected a JSON array" in err and "expected a JSON object" in err
    assert "missing 'location'" in err and "Traceback" not in err

    # null stays the default threshold
    two = [{"assignment": {"0": 0}}, {"assignment": {"1": 0}}]
    liminf = write("liminf.json", {"conditions": two, "location": loc, "threshold": None})
    path4 = write("path4.json", {"kind": "explicit", "vertices": 4, "edges": [[0, 1], [1, 2], [2, 3]]})
    code, report = _run(capsys, ["poset", "liminf", path4, "--file", liminf])
    assert code == 0 and report["threshold"] == 2


def test_console_entrypoint_runs():
    out = subprocess.run(
        [sys.executable, "-m", "noetherlab.cli", "campaign", "box-enumeration", "--trials", "2"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
