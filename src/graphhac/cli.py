"""Command-line interface.

Exit codes: 0 success, 1 selftest failure, 2 usage or invalid flag
combination, 3 unreadable or unwritable path, 4 input format error or a
file that is not UTF-8, 5 data validation error.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import random
import sys
import tempfile
import time
from pathlib import Path

from . import average, engine, evaluation, instances, linkage, reference
from .dendrogram import DendrogramError, load_dendrogram, same_clustering
from .graph import (
    GraphFormatError,
    WeightedGraph,
    build_knn_graph,
    degree_log_reweight,
    load_edge_list,
    load_labels,
    load_points_csv,
    write_edge_list,
)
from .heaps import HEAP_IMPLS, new_heap

log = logging.getLogger("graphhac")

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_FORMAT = 4
EXIT_DATA = 5


class UsageError(ValueError):
    pass


def _setup_logging() -> None:
    level = os.environ.get("HAC_LOG", "off").lower()
    mapping = {"off": logging.CRITICAL + 10, "info": logging.INFO, "debug": logging.DEBUG}
    if level not in mapping:
        raise UsageError(f"HAC_LOG must be off, info, or debug, not {level!r}")
    logging.basicConfig(level=mapping[level], format="%(levelname)s %(name)s: %(message)s")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused: `parse_args` leaves it
    unchanged and returns a fresh namespace each time."""
    p = argparse.ArgumentParser(
        prog="graphhac",
        description="Graph-based hierarchical agglomerative clustering.",
        epilog=(
            "exit codes: 0 ok, 1 selftest failure, 2 usage, 3 unreadable or "
            "unwritable path, 4 format error or non-UTF-8 file, 5 validation "
            "error. Set HAC_LOG=info to log graph sizes and the clustering "
            "time."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    hac = sub.add_parser("hac", help="cluster an edge-list graph into a dendrogram")
    hac.add_argument("--input", required=True, help="edge list file")
    hac.add_argument("--output", required=True, help="dendrogram file to write")
    hac.add_argument(
        "--linkage", required=True, choices=list(linkage.ALL_KINDS)
    )
    hac.add_argument(
        "--unweighted",
        action="store_true",
        help="parse 'u v' lines and weight edges by 1/ln(d(u)+d(v))",
    )
    hac.add_argument("--duplicates", choices=["error", "max"], default="error")
    hac.add_argument(
        "--driver",
        choices=["chain", "heap"],
        default=None,
        help="driver for triangle-based linkages (default chain)",
    )
    hac.add_argument("--epsilon", type=float, default=None, help="avg-approx closeness")
    hac.add_argument("--heap-impl", choices=list(HEAP_IMPLS), default="meld")
    hac.add_argument("--audit", action="store_true", help="run instrumented checks")

    knn = sub.add_parser("knn-graph", help="build a k-NN similarity graph from points")
    knn.add_argument("--input", required=True, help="CSV point file")
    knn.add_argument("--output", required=True, help="edge list file to write")
    knn.add_argument("--k", required=True, type=int)

    ev = sub.add_parser("eval", help="score a dendrogram against ground-truth labels")
    ev.add_argument("--dendrogram", required=True)
    ev.add_argument("--labels", required=True)
    ev.add_argument("--output", default=None, help="report file (default stdout)")
    ev.add_argument(
        "--levels",
        default=None,
        help="comma-separated cluster counts to score (default: all)",
    )

    st = sub.add_parser("selftest", help="run the oracle-equivalence and audit suites")
    st.add_argument("--trials", type=int, default=20)
    st.add_argument("--seed", type=int, default=0)
    return p


def _cmd_hac(args) -> int:
    kind = args.linkage
    if args.epsilon is not None and kind != linkage.AVG_APPROX:
        raise UsageError("--epsilon only applies to --linkage avg-approx")
    if args.driver is not None and kind not in linkage.TRIANGLE_KINDS:
        raise UsageError("--driver only applies to triangle-based linkages")
    g = load_edge_list(
        args.input, weighted=not args.unweighted, duplicate_policy=args.duplicates
    )
    if args.unweighted:
        g = degree_log_reweight(g)
    log.info("loaded graph: n=%d m=%d (heap=%s)", g.n, g.m, args.heap_impl)
    audit = engine.RunAudit(checks=True) if args.audit else None
    t0 = time.perf_counter()
    if kind in linkage.TRIANGLE_KINDS:
        run = engine.heap_hac if args.driver == "heap" else engine.chain_hac
        d = run(g, kind, heap_impl=args.heap_impl, audit=audit)
    elif kind == linkage.AVG_EXACT:
        d = average.exact_avg_hac(g, heap_impl=args.heap_impl, audit=audit)
    else:
        eps = 0.1 if args.epsilon is None else args.epsilon
        d = average.approx_avg_hac(g, eps, heap_impl=args.heap_impl, audit=audit)
    log.info("clustered in %.3fs: %d merges, %d roots",
             time.perf_counter() - t0, len(d.merges), len(d.roots))
    d.write(args.output)
    return EXIT_OK


def _cmd_knn(args) -> int:
    pts = load_points_csv(args.input)
    g = build_knn_graph(pts, args.k)
    write_edge_list(g, args.output)
    log.info("wrote %d-vertex %d-edge graph to %s", g.n, g.m, args.output)
    return EXIT_OK


def _format_report(scores: evaluation.LevelScores) -> str:
    lines = ["clusters\tari\tnmi"]
    for k, a, m in scores.table:
        lines.append(f"{k}\t{a:.17g}\t{m:.17g}")
    lines.append(f"best_ari {scores.best_ari:.17g} at {scores.best_ari_at}")
    lines.append(f"best_nmi {scores.best_nmi:.17g} at {scores.best_nmi_at}")
    return "\n".join(lines) + "\n"


def _cmd_eval(args) -> int:
    d = load_dendrogram(args.dendrogram)
    truth = load_labels(args.labels)
    if len(truth) != d.n:
        raise ValueError(f"dendrogram has {d.n} leaves but {len(truth)} labels given")
    levels = None
    if args.levels is not None:
        try:
            levels = [int(x) for x in args.levels.split(",") if x]
        except ValueError:
            raise UsageError(f"bad --levels list {args.levels!r}") from None
        if not levels:
            raise UsageError(f"--levels {args.levels!r} holds no cluster counts")
    scores = evaluation.best_level_scores(d, list(truth), levels)
    report = _format_report(scores)
    if args.output:
        Path(args.output).write_text(report, encoding="utf-8")
    else:
        sys.stdout.write(report)
    return EXIT_OK


def _heap_ops_mismatch(seed: int) -> str:
    """Run a seeded random sequence of insert/update/upsert/delete/rekey/
    relabel/union/best_edge on every heap representation beside a dict
    oracle; a rekey onto a present key must raise KeyError and change
    nothing. Returns the first disagreement, or "" when there is none."""
    rng = random.Random(seed)
    pools = [([new_heap(impl) for impl in HEAP_IMPLS], {}) for _ in range(4)]
    for step in range(1000):
        i = rng.randrange(len(pools))
        hs, oracle = pools[i]
        op = rng.choice(("insert", "update", "upsert", "delete", "rekey", "relabel", "union"))
        k, p = rng.randrange(48), rng.choice((0.25, 0.5, rng.random()))
        try:
            if op == "insert" and k not in oracle or op == "upsert":
                for h in hs:
                    getattr(h, op)(k, p)
                oracle[k] = p
            elif op == "update" and k in oracle:
                for h in hs:
                    h.update(k, p)
                oracle[k] = p
            elif op == "delete" and k in oracle:
                want = oracle.pop(k)
                if any(h.delete(k) != want for h in hs):
                    return f"step {step}: delete({k}) returned a wrong priority"
            elif op == "rekey" and k in oracle:
                new = rng.randrange(48)
                for h in hs:
                    try:
                        h.rekey(k, new, p)
                    except KeyError:
                        if new not in oracle:
                            raise
                    else:
                        if new in oracle:
                            return f"step {step}: rekey({k}, {new}) onto a present key did not raise"
                if new not in oracle:
                    del oracle[k]
                    oracle[new] = p
            elif op == "relabel" and k in oracle:
                new = rng.randrange(48)
                for h in hs:
                    h.relabel(k, new, max)
                p = oracle.pop(k)
                oracle[new] = max(oracle[new], p) if new in oracle else p
            elif op == "union":
                j = rng.randrange(len(pools))
                if j == i:
                    continue
                gs, other = pools[j]
                hs = [h.union(g, max) for h, g in zip(hs, gs)]
                for key, q in other.items():
                    oracle[key] = max(oracle[key], q) if key in oracle else q
                pools[i], pools[j] = (hs, oracle), ([new_heap(im) for im in HEAP_IMPLS], {})
        except Exception as e:  # a broken heap may raise anything
            return f"step {step}: {op} raised {e!r}"
        for impl, h in zip(HEAP_IMPLS, hs):
            if dict(h.entries()) != oracle:
                return f"step {step}: {op} left the {impl} heap unlike the oracle"
            if oracle and h.best_edge() != _oracle_best(oracle):
                return f"step {step}: {op} broke the {impl} heap's best_edge"
    # drain every heap best-first, so a misplaced entry that has not reached
    # the top yet shows too
    for hs, oracle in pools:
        while oracle:
            want = _oracle_best(oracle)
            del oracle[want[0]]
            for impl, h in zip(HEAP_IMPLS, hs):
                if h.best_edge() != want or h.delete(want[0]) != want[1]:
                    return f"drain: the {impl} heap left best-first order"
    return ""


def _oracle_best(oracle: dict[int, float]) -> tuple[int, float]:
    """(key, priority) of the max priority, ties to the smaller key."""
    bp = max(oracle.values())
    return min(c for c, q in oracle.items() if q == bp), bp


def _cmd_selftest(args) -> int:
    trials = args.trials
    if trials < 1:
        raise UsageError(f"--trials must be at least 1, got {trials}")
    failures = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        line = f"{'ok' if ok else 'FAIL'} {name}"
        if detail and not ok:
            line += f": {detail}"
        print(line)
        if not ok:
            failures.append(name)

    # triangle linkages: the heap driver must match the quadratic reference
    # for all three; the chain driver must match wherever weights are a pure
    # function of cluster contents (single, complete). WPGMA weights depend
    # on merge interleaving when edges are missing, so the chain driver is
    # only required to emit a structurally valid mutual-best dendrogram.
    # Every heap-backed engine must merge identically on both heaps, and
    # both heaps must match a dict oracle over a random op sequence.
    ok_tri, detail, repr_fail = True, "", ""
    for t in range(trials):
        g = instances.random_connected_graph(args.seed * 100003 + t)
        for kind in linkage.TRIANGLE_KINDS:
            ref = reference.reference_hac(g, kind)
            chain = engine.chain_hac(g, kind, heap_impl="tree")
            heap_d = engine.heap_hac(g, kind, heap_impl="tree")
            ok = same_clustering(heap_d, ref)
            if kind != linkage.WPGMA:
                ok = ok and same_clustering(chain, ref)
            if not ok:
                ok_tri, detail = False, f"trial {t} kind {kind}"
                break
            for name, run, tree_d in (("chain", engine.chain_hac, chain),
                                      ("heap", engine.heap_hac, heap_d)):
                if run(g, kind, heap_impl="meld").merges != tree_d.merges:
                    repr_fail = f"{name}_hac {kind} trial {t}"
        if not ok_tri:
            break
    check("triangle-oracle-equivalence", ok_tri, detail)

    ok_avg, ok_close, detail = True, True, ""
    for t in range(trials):
        g = instances.random_connected_graph(args.seed * 7919 + t)
        naive = average.naive_avg_hac(g)
        exact = average.exact_avg_hac(g, heap_impl="tree")
        if not same_clustering(exact, naive):
            ok_avg, detail = False, f"trial {t}"
            break
        if not evaluation.closeness_audit(g, naive, 0.0).passed:
            ok_close, detail = False, f"naive trial {t}"
        approx = average.approx_avg_hac(g, 0.1, heap_impl="tree")
        if not evaluation.closeness_audit(g, approx, 0.1).passed:
            ok_close, detail = False, f"approx trial {t}"
        if average.exact_avg_hac(g, heap_impl="meld").merges != exact.merges:
            repr_fail = f"exact_avg_hac trial {t}"
        if average.approx_avg_hac(g, 0.1, heap_impl="meld").merges != approx.merges:
            repr_fail = f"approx_avg_hac trial {t}"
        repr_fail = repr_fail or _heap_ops_mismatch(args.seed * 31 + t)
    check("average-oracle-equivalence", ok_avg, detail)
    check("closeness-audit", ok_close, detail)
    check("heap-representation-equivalence", not repr_fail, repr_fail)
    trip_fail = _round_trip_mismatch(args.seed, trials)
    check("edge-list-round-trip", not trip_fail, trip_fail)
    return EXIT_OK if not failures else EXIT_SELFTEST


def _round_trip_mismatch(seed: int, trials: int) -> str:
    """write_edge_list then load_edge_list on random graphs, with weights
    of either sign, signed zeros, subnormals and large magnitudes, and on
    one k-NN graph: each must come back bitwise. Returns the first graph
    that does not, or "" when all do."""
    rng = random.Random(seed)
    graphs = []
    for t in range(trials):
        g = instances.random_connected_graph(seed * 4099 + t)
        scales = (1.0, -1.0, 0.0, -0.0, 1e-320, 1e300)
        edges = tuple((u, v, w * rng.choice(scales)) for u, v, w in g.edges)
        graphs.append(WeightedGraph(g.n, edges))
    points = [[rng.gauss(0.0, 1.0) for _ in range(3)] for _ in range(60)]
    graphs.append(build_knn_graph(points, 5))

    def bits(g: WeightedGraph) -> tuple:
        return g.n, [(u, v, w.hex()) for u, v, w in g.edges]

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.edges"
        for i, g in enumerate(graphs):
            write_edge_list(g, path)
            if bits(load_edge_list(path)) != bits(g):
                return f"graph {i} of {len(graphs)} came back changed"
    return ""


def main(argv: list[str] | None = None) -> int:
    try:
        _setup_logging()
        args = _build_parser().parse_args(argv)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "hac":
            return _cmd_hac(args)
        if args.command == "knn-graph":
            return _cmd_knn(args)
        if args.command == "eval":
            return _cmd_eval(args)
        return _cmd_selftest(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:  # a missing, unreadable or unwritable path
        print(f"error: {e.filename}: {e.strerror}" if e.filename else f"error: {e}",
              file=sys.stderr)
        return EXIT_IO
    except (GraphFormatError, DendrogramError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FORMAT
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
