"""End-to-end and per-layer benchmark of noetherlab.

Run from the root of a checkout:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric; with ``--trace 1`` it holds every per-layer
metric from a separate traced run.  Times are in reference seconds (see
refclock.py).  Lines before it, starting with ``#``, give the run
metadata and how the tail latency was taken.  ``--out FILE`` also merges
the full result into FILE, and ``--old FILE... --new FILE...`` compares
the medians of several such files per side.  See README.md here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_REPEATS = 21
MIN_COMPARE_RUNS = 5
DEFAULT_SEED = 20260811  # the acceptance seed

from refclock import NOMINAL_SLICE_S, RefClock, clock


def load_library():
    """Import noetherlab from this checkout's src, or exit with a non-zero code."""
    if not (SRC / "noetherlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no noetherlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import noetherlab

    if Path(noetherlab.__file__).resolve().parent != (SRC / "noetherlab").resolve():
        sys.exit(f"perfbench: imported noetherlab from {noetherlab.__file__}, not {SRC}")
    return noetherlab


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_metadata(noetherlab, args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "python": platform.python_implementation() + " " + platform.python_version(),
        "git_sha": git_sha(),
        "kernel_backend": noetherlab.backend_name(),
    }


# -- measurement ----------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond
    it; the maximum when there are no more than ten samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure(workload, seconds: float) -> tuple[list, RefClock]:
    """Identical passes until ``seconds`` have elapsed; at least one."""
    passes = []
    refclock = RefClock().start()
    try:
        start = clock()
        while not passes or clock() - start < seconds:
            passes.append(workload.run_pass())
    finally:
        refclock.stop()
    return passes, refclock


def walls(passes, refclock) -> list[float]:
    return [refclock.seconds(p.start, p.end) for p in passes]


def end_to_end(passes, refclock, setup_times, workload) -> tuple[dict, dict]:
    wall_per_pass = walls(passes, refclock)
    wall = statistics.median(wall_per_pass)
    ops = workload.ops_per_pass
    attempted = ops * len(passes)
    failed = sum(p.failed for p in passes)
    # An operation's latency is its median over the identical passes.
    per_op = [
        statistics.median(refclock.seconds(*interval) for interval in op)
        for op in zip(*(p.ops for p in passes))
    ]
    tail_value, tail_percentile = tail(per_op)
    metrics = {
        "setup_s": (statistics.median(t for t, _ in setup_times), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (ops / wall, "1/s"),
        "latency_p50_ms": (1000 * statistics.median(per_op), "ms"),
        "latency_tail_ms": (1000 * tail_value, "ms"),
        "ok_ratio": ((attempted - failed) / attempted, "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {
        "passes": len(passes),
        "ops_per_pass": ops,
        "tail_percentile": tail_percentile,
        "failed_ratio": failed / attempted,
        "setup_ref_s": [t for t, _ in setup_times],
        "setup_wall_s": [w for _, w in setup_times],
        "wall_ref_s_per_pass": wall_per_pass,
        "wall_raw_s_per_pass": [p.end - p.start for p in passes],
        "mean_slice_s": refclock.mean_slice_s(),
    }
    return metrics, info


def time_setups(args) -> list[tuple[float, float]]:
    """(reference seconds, wall seconds) of fresh processes that import the
    library and build the workload's inputs."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    times = []
    for _ in range(SETUP_REPEATS):
        start = clock()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        wall = clock() - start
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up process failed:\n{proc.stderr}")
        times.append((float(proc.stdout.split()[-1]), wall))
    return times


# -- per-layer metrics ----------------------------------------------------------

# (metric, span, statistic); statistics are per pass.
SPAN_METRICS = [
    ("graphs.adjacent.calls", "graphs.adjacent", "calls"),
    ("graphs.adjacent.self_s", "graphs.adjacent", "self_s"),
    ("graphs.validate_point.calls", "graphs.validate_point", "calls"),
    ("graphs.closed_masks.builds", "graphs.closed_masks", "calls"),
    ("graphs.closed_masks.self_s", "graphs.closed_masks", "self_s"),
    ("graphs.SampleUniverse.self_s", "graphs.SampleUniverse", "self_s"),
    ("geometry.box_contains.calls", "geometry.box_contains", "calls"),
    ("geometry.box_contains.self_s", "geometry.box_contains", "self_s"),
    ("coloring.separating_box.calls", "coloring.separating_box", "calls"),
    ("coloring.separating_box.self_s", "coloring.separating_box", "self_s"),
    ("coloring.check_proper.calls", "coloring.check_proper", "calls"),
    ("coloring.check_proper.self_s", "coloring.check_proper", "self_s"),
    ("coloring.greedy_coloring.self_s", "coloring.greedy_coloring", "self_s"),
    ("coloring.extend_coloring.self_s", "coloring.extend_coloring", "self_s"),
    ("coloring.stitch_colorings.self_s", "coloring.stitch_colorings", "self_s"),
    ("coloring.k_colorable_fixed_order.self_s", "coloring.k_colorable_fixed_order", "self_s"),
    ("kernels.find_clique.calls", "kernels.find_clique", "calls"),
    ("kernels.find_clique.self_s", "kernels.find_clique", "self_s"),
    ("kernels.chromatic_number.calls", "kernels.chromatic_number", "calls"),
    ("kernels.chromatic_number.self_s", "kernels.chromatic_number", "self_s"),
    ("kernels.min_subfamily.calls", "kernels.min_subfamily", "calls"),
    ("kernels.min_subfamily.self_s", "kernels.min_subfamily", "self_s"),
    ("patterns.find_variation_prefix.calls", "patterns.find_variation_prefix", "calls"),
    ("patterns.find_variation_prefix.self_s", "patterns.find_variation_prefix", "self_s"),
    ("control_poset.predense_check.calls", "control_poset.predense_check", "calls"),
    ("control_poset.predense_check.self_s", "control_poset.predense_check", "self_s"),
    ("control_poset.reduced_support.self_s", "control_poset.reduced_support", "self_s"),
    ("control_poset.ramsey_compatible_subset.self_s", "control_poset.ramsey_compatible_subset", "self_s"),
    ("control_poset.liminf_thin.self_s", "control_poset.liminf_thin", "self_s"),
    ("control_poset.q_compatible.calls", "control_poset.q_compatible", "calls"),
    ("lattice.good_closure.self_s", "lattice.good_closure", "self_s"),
    ("lattice.heart.self_s", "lattice.heart", "self_s"),
    ("lattice.minimal_subfamily.self_s", "lattice.minimal_subfamily", "self_s"),
    ("lattice.longest_descent_chain.self_s", "lattice.longest_descent_chain", "self_s"),
    ("coloring_poset.p_leq.self_s", "coloring_poset.p_leq", "self_s"),
    ("coloring_poset.p_compatible.self_s", "coloring_poset.p_compatible", "self_s"),
    ("coloring_poset.p_lower_bound.self_s", "coloring_poset.p_lower_bound", "self_s"),
    ("hamming.verify_embedding.self_s", "hamming.verify_embedding", "self_s"),
    ("hamming.verify_vitali_homomorphism.self_s", "hamming.verify_vitali_homomorphism", "self_s"),
    ("serialize.parse_instance_file.self_s", "serialize.parse_instance_file", "self_s"),
    ("serialize.load_path.self_s", "serialize.load_path", "self_s"),
    ("serialize.dump_canonical.self_s", "serialize.dump_canonical", "self_s"),
    ("cli.main.self_s", "cli.main", "self_s"),
]
# (tracer counter, unit); per pass.
COUNTER_METRICS = [
    ("geometry.iter_boxes_containing.yielded", "count"),
    ("patterns.find_variation_prefix.nodes", "count"),
    ("serialize.bytes_in", "B"),
    ("serialize.bytes_out", "B"),
]
CLI_COUNTERS = ["cli.exit_code_0.calls", "cli.exit_code_1.calls", "cli.exit_code_2.calls", "cli.uncaught.calls"]


def per_layer(tracer, traced, traced_clock, untraced, untraced_clock, workload) -> tuple[dict, dict]:
    from workloads import CAMPAIGN_SUITES

    n = len(traced)
    totals = tracer.totals(traced_clock.slices)
    # self times lose the slices inside them; scale the rest to reference seconds
    scale = NOMINAL_SLICE_S / traced_clock.mean_slice_s()
    metrics = {}
    for metric, span, stat in SPAN_METRICS:
        calls, self_s = totals.get(span, (0, 0.0))
        metrics[metric] = (calls / n, "count") if stat == "calls" else (self_s * scale / n, "s")
    for metric, unit in COUNTER_METRICS:
        metrics[metric] = (tracer.counters.get(metric, 0) / n, unit)
    sep_calls = totals.get("coloring.separating_box", (0, 0.0))[0]
    boxes = tracer.counters.get("coloring.separating_box.boxes", 0)
    metrics["coloring.separating_box.boxes_per_call"] = (boxes / sep_calls if sep_calls else 0.0, "1")
    generators = sum(s for name, (_, s) in totals.items() if name.startswith("generators."))
    metrics["generators.all.self_s"] = (generators * scale / n, "s")
    for name in CLI_COUNTERS:
        metrics[name] = (workload.counters.get(name, 0), "count")
    for suite in CAMPAIGN_SUITES:
        per_trial = [untraced_clock.seconds(*p.per_suite[suite]) * 1000 / workload.config.trials
                     for p in untraced if suite in p.per_suite]
        metrics[f"campaign.{suite}.ms_per_trial"] = (statistics.median(per_trial) if per_trial else 0.0, "ms")
    untraced_wall = statistics.median(walls(untraced, untraced_clock))
    traced_wall = statistics.median(walls(traced, traced_clock))
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "1")
    info = {
        "untraced_passes": len(untraced),
        "traced_passes": n,
        "spans": len(tracer.span_start),
        "reference_slices": len(traced_clock.starts),
        "boxes_per_call_base": f"{boxes / n:g} boxes over {sep_calls / n:g} separating_box calls per pass",
    }
    return metrics, info


# -- commands -------------------------------------------------------------------


def setup_only(args) -> int:
    """Import the library and build the inputs; print the reference seconds."""
    refclock = RefClock().start()
    start = clock()
    load_library()
    from workloads import WORKLOADS

    workdir = make_workdir()
    try:
        WORKLOADS[args.workload](args.seed, args.size, workdir).close()
    finally:
        remove_workdir(workdir)
    end = clock()
    refclock.stop()
    print(refclock.seconds(start, end))
    return 0


def make_workdir() -> str:
    WORK_ROOT.mkdir(exist_ok=True)
    return tempfile.mkdtemp(dir=WORK_ROOT)


def remove_workdir(workdir: str) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass  # another run still uses it


def run(args) -> int:
    noetherlab = load_library()
    from tracing import Tracer
    from workloads import WORKLOADS

    meta = run_metadata(noetherlab, args)
    setup_times = time_setups(args) if not args.trace else []
    workdir = make_workdir()
    try:
        workload = WORKLOADS[args.workload](args.seed, args.size, workdir)
        try:
            if args.trace:
                untraced, untraced_clock = measure(workload, args.seconds / 2)
                tracer = Tracer()
                tracer.install()
                try:
                    traced, traced_clock = measure(workload, args.seconds / 2)
                finally:
                    tracer.uninstall()
                passes = untraced + traced
                workload.finish()
                metrics, info = per_layer(tracer, traced, traced_clock, untraced, untraced_clock, workload)
                info["spans_file"] = str(WORK_ROOT / f"spans-{args.workload}.tsv.gz")
                tracer.write_spans(info["spans_file"], traced_clock.slices)
            else:
                passes, refclock = measure(workload, args.seconds)
                workload.finish()
                metrics, info = end_to_end(passes, refclock, setup_times, workload)
        finally:
            workload.close()
    finally:
        remove_workdir(workdir)

    attempted = workload.ops_per_pass * len(passes)
    failed = sum(p.failed for p in passes)
    info.update(workload.info)
    result = {
        "correct": not workload.check_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print("# meta " + json.dumps(meta, sort_keys=True))
    if not args.trace:
        print(f"# latency_tail_ms is p{info['tail_percentile']:.2f} of {workload.ops_per_pass} "
              f"operation(s) per pass, each timed as its median over {info['passes']} passes")
    else:
        print(f"# spans and reference slices of the traced passes: {info['spans_file']}")
    print("# checks run " + json.dumps(workload.check_runs, sort_keys=True))
    for failure in workload.check_failures[:20]:
        print("# check failed: " + failure)
    if "defect_probe" in info:
        probe = info["defect_probe"]
        print(f"# {args.workload} defect probe: {probe['wrong']} of {probe['calls']} operations "
              f"went wrong (failed_ratio {probe['failed_ratio']:.4g})")
    if "selftest_failed_ratio" in info:
        print(f"# selftest-mutation failed_ratio {info['selftest_failed_ratio']:.4g}")
    if args.out:
        write_result(args.out, args.workload, args.trace, {
            **result, "meta": meta, "info": info,
            "checks": workload.check_runs, "check_failures": workload.check_failures,
        })
    print(json.dumps(result), flush=True)
    return 0


def write_result(path: str, workload: str, trace: int, result: dict) -> None:
    """Merge one run into a result file keyed by workload and trace mode."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        data = {"runs": {}}
    data["runs"].setdefault(workload, {})[f"trace{trace}"] = result
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def spread(values: list[float]) -> float:
    """Interquartile range over median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def compare(old_paths: list[str], new_paths: list[str]) -> int:
    """Per workload, compare each metric's median over the old result files
    with its median over the new ones.

    An end-to-end metric is WORSE when its median moved the wrong way by
    more than its bound, each side has MIN_COMPARE_RUNS runs or more, and
    the run-to-run spread on both sides is within the bound or every new
    run is worse than every old one.  Any other move beyond the bound is
    unresolved.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_spec = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    def load(paths):
        runs: dict = {}
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                for workload, modes in json.load(fh)["runs"].items():
                    for mode, result in modes.items():
                        runs.setdefault((workload, mode), []).append(result)
        return runs

    old, new = load(old_paths), load(new_paths)
    worse_count = unresolved = 0
    for key in sorted(set(old) & set(new)):
        before, after = old[key], new[key]
        print(f"== {key[0]} {key[1]}: {len(before)} old run(s), {len(after)} new run(s)")
        for field in ("kernel_backend", "python", "nproc"):
            values = {str(r["meta"].get(field)) for r in before + after}
            if len(values) > 1:
                worse_count += 1
                print(f"   WARNING {field} differs between runs: {sorted(values)}")
        names = set.intersection(*(set(r["metrics"]) for r in before + after))
        for name in sorted(names):
            a = [r["metrics"][name]["value"] for r in before]
            b = [r["metrics"][name]["value"] for r in after]
            m = metric_spec.get(name, {})
            sign = -1 if m.get("better") == "higher" else 1
            med_a, med_b = statistics.median(a), statistics.median(b)
            delta = (med_b - med_a) / med_a if med_a else 0.0
            verdict = ""
            bound = m.get("bound")
            if bound is not None:
                if sign * delta <= bound:
                    verdict = "within bound"
                elif min(len(a), len(b)) < MIN_COMPARE_RUNS:
                    unresolved += 1
                    verdict = f"unresolved (too few runs; bound {bound:g})"
                elif (max(spread(a), spread(b)) > bound
                      and min(sign * v for v in b) <= max(sign * v for v in a)):
                    unresolved += 1
                    verdict = f"unresolved (spread wider than bound {bound:g})"
                else:
                    worse_count += 1
                    verdict = f"WORSE by more than bound {bound:g}"
            print(f"   {name:48s} {med_a:14.6g} -> {med_b:14.6g} {100 * delta:+8.2f}%  {verdict}")
    print(f"# {worse_count} flagged, {unresolved} unresolved")
    return 1 if worse_count else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["campaign", "scale", "cli"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny inputs, for the benchmark's own smoke test")
    parser.add_argument("--out", help="merge the full result into this JSON file")
    parser.add_argument("--old", nargs="+", metavar="FILE", help="--out files of the parent")
    parser.add_argument("--new", nargs="+", metavar="FILE", help="--out files of the change")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.old or args.new:
        if not (args.old and args.new):
            parser.error("--old and --new go together")
        return compare(args.old, args.new)
    if not args.workload:
        parser.error("--workload is required")
    if args.setup_only:
        return setup_only(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
