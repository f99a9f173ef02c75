"""The benchmark's workloads, their operations and the run loop.

Every operation calls `graphhac.cli.main` in this process, one after another
(a closed loop with one caller), except `naive`, which makes the library
calls `hac` would make, since `hac` does not expose the naive engine. A
reference round runs first, untimed; its outputs go to the oracles. Timed
rounds then repeat until the run's seconds have passed, and each later output
must equal the reference byte for byte.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import calibration
import inputs
import layers
import oracles
from graphhac import average, cli, graph
from graphhac.graph import load_edge_list, load_labels, parse_edge_list
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"

WORKLOADS = ("sparse", "star")
# Sized so one round takes a few seconds here while keeping each input's
# property: sparse's cluster loop >> ingest, star's stale pops >> merges,
# the blobs' eval > any single hac run. The global-heap driver's stale pops
# vary several-fold between random sparse graphs, so `sparse` times a batch
# of SPARSE_GRAPHS graphs per round rather than one draw.
SPARSE_GRAPHS, SPARSE_N, STAR_N, BLOBS_N = 4, 300, 800, 600
BLOBS_K = 15
IRIS_K = 50
EPSILON = 0.1
SETUP_REPS = 5  # at least; one more per timed round
# A chain's knn-graph and hac are single short calls whose samples spread
# about twice as wide as a hac_s sample, which sums four graphs; averaging
# three runs per round steadies their medians.
CHAIN_REPEATS = 3

# Every config pins --heap-impl, so the names keep their meaning if the
# default heap changes. `naive` has no hac flags: it runs through the library.
CONFIGS: dict[str, list[str] | None] = {
    "naive": None,
    "approx-tree": ["--linkage", "avg-approx", "--epsilon", str(EPSILON), "--heap-impl", "tree"],
    "approx-meld": ["--linkage", "avg-approx", "--epsilon", str(EPSILON), "--heap-impl", "meld"],
    "exact-tree": ["--linkage", "avg-exact", "--heap-impl", "tree"],
    "exact-meld": ["--linkage", "avg-exact", "--heap-impl", "meld"],
    "single-chain": ["--linkage", "single", "--driver", "chain", "--heap-impl", "tree"],
    "single-heap": ["--linkage", "single", "--driver", "heap", "--heap-impl", "tree"],
}
TWINS = (("approx-tree", "approx-meld"), ("exact-tree", "exact-meld"))

# name -> unit, in BENCHMARK.json order
END_TO_END = {
    "setup_s": "s",
    **{f"hac_s.{c}": "s" for c in CONFIGS},
    "knn_graph_s": "s",
    "knn_hac_s": "s",
    "eval_s": "s",
    "peak_rss_mb": "MiB",
    "best_ari": "1",
    "best_nmi": "1",
}

Outputs = dict[str, str | None]
Problems = dict[str, list[str]]


@dataclass
class Op:
    label: str  # unique within a workload
    metric: str | None  # end-to-end metric fed by this op's time
    scope: str  # per-layer scope in the traced round
    out: Path
    run: Callable[[], int]  # returns the exit code
    repeats: int = 1  # timed runs per round, averaged into one sample
    runs: int = 0
    bad: int = 0  # runs that exited non-zero or wrote other bytes than the reference


@dataclass
class Workload:
    ops: list[Op]
    verify: Callable[[Outputs], Problems]


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None


def _cli_op(label: str, metric: str | None, scope: str, argv: list[str], out: Path,
            repeats: int = 1) -> Op:
    # look `main` up at call time so the tracer's wrapper is seen
    return Op(label, metric, scope, out, lambda: cli.main(argv), repeats)


def _naive_op(label: str, graph_path: Path, out: Path, unweighted: bool) -> Op:
    """The library calls `_cmd_hac` makes, with the naive engine."""

    def run() -> int:
        g = graph.load_edge_list(graph_path, weighted=not unweighted)
        if unweighted:
            g = graph.degree_log_reweight(g)
        average.naive_avg_hac(g).write(out)
        return 0

    return Op(label, "hac_s.naive", "naive", out, run)


def _hac_ops(graph_path: Path, work: Path, unweighted: bool, suffix: str = "") -> list[Op]:
    """One op per config on `graph_path`, labelled `<config><suffix>`."""
    ops = []
    for cfg, flags in CONFIGS.items():
        label = cfg + suffix
        out = work / f"{label}.dendro"
        if flags is None:
            ops.append(_naive_op(label, graph_path, out, unweighted))
            continue
        argv = ["hac", "--input", str(graph_path), "--output", str(out), *flags]
        if unweighted:
            argv.append("--unweighted")
        ops.append(_cli_op(label, f"hac_s.{cfg}", cfg, argv, out))
    return ops


def _chain_ops(name: str, points: Path, labels: Path, k: int, work: Path) -> list[Op]:
    """knn-graph -> hac (approx-tree) -> eval over every level, on a labelled
    point set; labels are "<name>-knn", "<name>-hac" and "<name>-eval"."""
    edges, dendro, report = (work / f"{name}.{ext}" for ext in ("edges", "dendro", "report"))
    return [
        _cli_op(f"{name}-knn", "knn_graph_s", "knn",
                ["knn-graph", "--input", str(points), "--output", str(edges), "--k", str(k)], edges,
                CHAIN_REPEATS),
        _cli_op(f"{name}-hac", "knn_hac_s", "chain",
                ["hac", "--input", str(edges), "--output", str(dendro), *CONFIGS["approx-tree"]],
                dendro, CHAIN_REPEATS),
        _cli_op(f"{name}-eval", "eval_s", "eval",
                ["eval", "--dendrogram", str(dendro), "--labels", str(labels),
                 "--output", str(report)], report),
    ]


def verify_configs(g, outs: Outputs, problems: Problems) -> dict:
    """Oracles for the seven configs on a weighted graph with distinct
    weights; returns the parsed dendrograms (None where a check failed)."""
    forest = oracles.max_spanning_forest(g.n, g.edges)
    ds = {}
    for cfg in CONFIGS:
        d, errs = oracles.parse(outs[cfg])
        if d is not None and len(d.merges) != len(forest):
            errs.append(f"{len(d.merges)} merges, want n - components = {len(forest)}")
        problems[cfg] = errs
        ds[cfg] = None if errs else d
    for cfg in ("naive", *(c for pair in TWINS for c in pair)):
        if ds[cfg] is not None:
            problems[cfg] += oracles.average_weights(g.n, g.edges, ds[cfg])
    naive = ds["naive"]
    if naive is not None:
        problems["naive"] += oracles.closeness(g, naive, 0.0)
    for cfg in ("exact-tree", "exact-meld"):
        if ds[cfg] is not None:
            problems[cfg] += oracles.agrees(ds[cfg], naive, "naive") if naive else ["no naive reference"]
    for cfg in ("approx-tree", "approx-meld"):
        if ds[cfg] is not None:
            problems[cfg] += oracles.closeness(g, ds[cfg], EPSILON)
    for cfg in ("single-chain", "single-heap"):
        if ds[cfg] is not None:
            problems[cfg] += oracles.single_linkage_weights(ds[cfg], forest)
    if ds["single-chain"] is not None and ds["single-heap"] is not None:
        problems["single-heap"] += oracles.agrees(ds["single-heap"], ds["single-chain"], "single-chain")
    verify_twins(outs, problems)
    return ds


def verify_twins(outs: Outputs, problems: Problems) -> None:
    """Each *-tree dendrogram file is byte-identical to its *-meld twin; when
    they differ, both are counted as failed."""
    for tree, meld in TWINS:
        problems[tree] += oracles.identical(outs[tree], outs[meld], f"its twin {meld}")
        problems[meld] += oracles.identical(outs[meld], outs[tree], f"its twin {tree}")


def verify_star(n: int, outs: Outputs, problems: Problems) -> None:
    for cfg in CONFIGS:
        d, errs = oracles.parse(outs[cfg])
        if d is not None:
            errs += oracles.star_closed_form(d, n, average=not cfg.startswith("single"))
        problems[cfg] = errs
    verify_twins(outs, problems)


def verify_chain(name: str, points: np.ndarray, truth: list[int], k: int,
                 outs: Outputs, problems: Problems) -> None:
    problems[f"{name}-knn"] = oracles.knn_graph(outs[f"{name}-knn"], points, k)
    d, errs = oracles.parse(outs[f"{name}-hac"])
    if d is not None and not problems[f"{name}-knn"]:
        errs += oracles.closeness(parse_edge_list(outs[f"{name}-knn"]), d, EPSILON)
    problems[f"{name}-hac"] = errs
    problems[f"{name}-eval"] = oracles.eval_report(outs[f"{name}-eval"], None if errs else d, truth)


def build_workload(name: str, seed: int, work: Path, scale: float = 1.0) -> Workload:
    """Generate the workload's inputs from `seed` into `work`, load them back
    through the program's loaders, and return its operations. `scale`
    shrinks the generated inputs for the self-tests."""
    if name == "sparse":
        n = round(SPARSE_N * scale)
        paths = [work / f"sparse{i}.edges" for i in range(SPARSE_GRAPHS)]
        for i, path in enumerate(paths):
            inputs.write_weighted(path, inputs.sparse_edges(seed, n, i))
            load_edge_list(path)
        pts, labels = inputs.blobs(seed, round(BLOBS_N * scale))
        csv, lab = work / "blobs.csv", work / "blobs.labels"
        inputs.write_points(csv, pts)
        inputs.write_labels(lab, labels)
        graph.load_points_csv(csv)
        load_labels(lab)

        def verify_sparse(outs: Outputs) -> Problems:
            problems: Problems = {}
            for i, path in enumerate(paths):
                mine: Problems = {}
                verify_configs(load_edge_list(path), {c: outs[f"{c}@{i}"] for c in CONFIGS}, mine)
                problems.update({f"{c}@{i}": errs for c, errs in mine.items()})
            verify_chain("blobs", pts, labels.tolist(), BLOBS_K, outs, problems)
            return problems

        ops = [op for i, path in enumerate(paths) for op in _hac_ops(path, work, False, f"@{i}")]
        ops += _chain_ops("blobs", csv, lab, BLOBS_K, work)
        return Workload(ops, verify_sparse)

    if name != "star":
        raise ValueError(f"unknown workload {name!r}")
    n = round(STAR_N * scale)
    path = work / "star.edges"
    inputs.write_pairs(path, inputs.star_pairs(seed, n))
    graph.degree_log_reweight(load_edge_list(path, weighted=False))
    iris, iris_labels = DATA / "iris.csv", DATA / "iris_labels.txt"

    def verify_star_workload(outs: Outputs) -> Problems:
        problems: Problems = {}
        verify_star(n, outs, problems)
        truth = [int(x) for x in load_labels(iris_labels)]
        verify_chain("iris", np.loadtxt(iris, delimiter=","), truth, IRIS_K, outs, problems)
        problems["iris-eval"] += oracles.iris_quality(outs["iris-eval"])
        return problems

    ops = _hac_ops(path, work, True) + _chain_ops("iris", iris, iris_labels, IRIS_K, work)
    return Workload(ops, verify_star_workload)


def _call(op: Op) -> int:
    try:
        return op.run()
    except Exception:  # any crash is a failed operation; keep the run going
        traceback.print_exc()
        return 1


def execute(op: Op, ref: str | None) -> tuple[float, float]:
    """Run `op` `op.repeats` times, timed, and tally each run against its
    reference output; returns the mean wall time and the mean time scaled to
    the reference speed."""
    wall = scaled = 0.0
    for _ in range(op.repeats):
        gc.collect()
        rc, w, s = calibration.timed(lambda: _call(op))
        _tally(op, rc, ref)
        wall += w
        scaled += s
    return wall / op.repeats, scaled / op.repeats


def _round(wl: Workload, outs: Outputs,
           run: Callable[[Op, str | None], tuple[float, float]]) -> dict[str, tuple[float, float]]:
    """Run every op once; returns each metric's (wall, scaled) times summed
    over its ops."""
    totals: dict[str, tuple[float, float]] = {}
    for op in wl.ops:
        wall, scaled = run(op, outs[op.label])
        if op.metric:
            w0, s0 = totals.get(op.metric, (0.0, 0.0))
            totals[op.metric] = (w0 + wall, s0 + scaled)
    return totals


def best_scores(report: str | None) -> dict[str, float]:
    if report is None:
        return {}
    try:
        _rows, best = oracles.parse_report(report)
        return {"best_ari": best["best_ari"][0], "best_nmi": best["best_nmi"][0]}
    except (ValueError, IndexError, KeyError):
        return {}


def bench(name: str, seed: int, seconds: float, trace_dir: Path | None, work: Path,
          scale: float = 1.0) -> dict:
    """One benchmark run. With `trace_dir`, a traced round follows the timed
    ones and its spans are written there. Every time metric is the median of
    its samples scaled to the reference speed (see calibration.py); the
    medians of the wall times are returned too, as `wall`."""
    def timed_setup(into: Path) -> Workload:
        into.mkdir(exist_ok=True)
        wl, wall, scaled = calibration.timed(lambda: build_workload(name, seed, into, scale))
        walls.setdefault("setup_s", []).append(wall)
        samples.setdefault("setup_s", []).append(scaled)
        return wl

    # Set-up repeats once per timed round, into a spare directory, so its
    # samples see the same host conditions as the operations they precede.
    samples: dict[str, list[float]] = {}
    walls: dict[str, list[float]] = {}
    wl = timed_setup(work)

    outs: Outputs = {}
    for op in wl.ops:
        gc.collect()
        rc = _call(op)
        op.runs += 1
        outs[op.label] = _read(op.out) if rc == 0 else None
        op.bad += rc != 0

    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds == 0 or time.perf_counter() < deadline:
        timed_setup(work / "setup")
        for metric, (wall, scaled) in _round(wl, outs, execute).items():
            walls.setdefault(metric, []).append(wall)
            samples.setdefault(metric, []).append(scaled)
        rounds += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(samples["setup_s"]) < SETUP_REPS:
        timed_setup(work / "setup")

    problems = wl.verify(outs)
    for label, errs in problems.items():
        for e in errs:
            print(f"FAIL {label}: {e}", file=sys.stderr)

    medians = {k: statistics.median(v) for k, v in samples.items()}
    wall = {k: statistics.median(v) for k, v in walls.items()}
    e2e = {**medians, "peak_rss_mb": peak_rss_mb}
    e2e.update(best_scores(outs["blobs-eval" if name == "sparse" else "iris-eval"]))

    per_layer = None
    if trace_dir is not None:
        per_layer = traced_round(wl, outs, wall, trace_dir / f"trace-{name}-seed{seed}.json")

    ops = wl.ops
    return {
        "rounds": rounds,
        "samples": samples,
        "wall": wall,
        "e2e": e2e,
        "per_layer": per_layer,
        "attempted": sum(op.runs for op in ops),
        "failed": sum(op.runs if problems.get(op.label) else op.bad for op in ops),
    }


def traced_round(wl: Workload, outs: Outputs, wall: dict[str, float],
                 path: Path) -> dict[str, tuple[float, str]]:
    """Run every operation once under the tracer (after the oracles, so no
    oracle call is traced); returns the per-layer metrics. `wall` holds the
    untraced median wall times, the base of the tracing overhead."""
    tracer = Tracer()
    labels: dict[int, str] = {}

    def traced_op(op: Op, ref: str | None) -> tuple[float, float]:
        labels[tracer.op_id + 1] = op.label
        start = time.perf_counter()
        tracer.run_op(op.scope, lambda: _tally(op, _call(op), ref))
        dt = time.perf_counter() - start
        return dt, dt

    tracer.install()
    try:
        traced = _round(wl, outs, traced_op)
    finally:
        tracer.uninstall()
    tracer.dump(path, labels)
    overhead = {cfg: traced[f"hac_s.{cfg}"][0] - wall[f"hac_s.{cfg}"] for cfg in CONFIGS}
    return layers.per_layer(tracer, overhead)


def _tally(op: Op, rc: int, ref: str | None) -> None:
    op.runs += 1
    if rc != 0 or ref is None or _read(op.out) != ref:
        op.bad += 1
