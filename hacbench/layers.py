"""Per-layer metrics of the traced round, computed from the tracer's sums.

Names for `hac` operations start with the config (e.g.
`approx-tree.heaps.union_s`); `hac.*` sums a layer over all seven configs;
k-NN and eval names have no prefix. A name is listed for the configs whose
code path can touch it, so the set is the same on every workload, and a
value of 0 on some workload is a measurement (relabels never happen on a
star). Every `_s` value is self time: a call's duration minus its wrapped
children's.
"""

from __future__ import annotations

NAIVE = "naive"
APPROX = ("approx-tree", "approx-meld")
EXACT = ("exact-tree", "exact-meld")
SINGLE = ("single-chain", "single-heap")
CONFIGS = (NAIVE, *APPROX, *EXACT, *SINGLE)
NEIGHBOR_HEAP = (*APPROX, *EXACT, *SINGLE)
GLOBAL_HEAP = (NAIVE, *APPROX, "single-heap")
POINT_OPS = tuple(f"heaps.{op}" for op in ("get", "best_edge", "insert", "update", "upsert", "delete"))
DRIVER = {
    NAIVE: "average.naive_avg_hac",
    "approx-tree": "average.approx_avg_hac",
    "approx-meld": "average.approx_avg_hac",
    "exact-tree": "average.exact_avg_hac",
    "exact-meld": "average.exact_avg_hac",
    "single-chain": "engine.chain_hac",
    "single-heap": "engine.heap_hac",
}
MERGE = {c: "average.merge_structural" for c in (*APPROX, *EXACT)}
MERGE.update({c: "engine.merge_clusters" for c in SINGLE})


def _config_metrics(t, cfg: str) -> dict[str, tuple[float, str]]:
    out: dict[str, tuple[float, str]] = {}
    merges = t.count(cfg, "engine.merges")
    if cfg in GLOBAL_HEAP:
        pops = t.count(cfg, "engine.gheap_pops")
        out["engine.gheap_pops"] = (pops, "count")
        out["engine.gheap_pushes"] = (t.count(cfg, "engine.gheap_pushes"), "count")
        out["engine.useful_pop_ratio"] = (merges / pops if pops else 0.0, "1")
    if cfg in NEIGHBOR_HEAP:
        out["heaps.build_calls"] = (t.n_calls(cfg, "heaps.build"), "count")
        out["heaps.build_s"] = (t.self_time(cfg, "heaps.build"), "s")
        out["heaps.point_ops"] = (t.n_calls(cfg, *POINT_OPS), "count")
        out["heaps.point_ops_s"] = (t.self_time(cfg, *POINT_OPS), "s")
        out["heaps.union_calls"] = (t.n_calls(cfg, "heaps.union"), "count")
        out["heaps.union_s"] = (t.self_time(cfg, "heaps.union"), "s")
        out["heaps.union_cost"] = (t.count(cfg, "heaps.union_cost"), "count")
        out["heaps.combine_calls"] = (t.count(cfg, "heaps.combine"), "count")
    if cfg in SINGLE:
        out["heaps.relabel_calls"] = (t.n_calls(cfg, "heaps.relabel"), "count")
        out["heaps.relabel_s"] = (t.self_time(cfg, "heaps.relabel"), "s")
    if cfg in EXACT:
        out["orientation.inserts"] = (t.count(cfg, "orientation.inserts"), "count")
        out["orientation.flips"] = (t.count(cfg, "orientation.flips"), "count")
        out["orientation.max_outdegree"] = (t.max_outdegree[cfg], "count")
        out["orientation.out_neighbors_calls"] = (t.n_calls(cfg, "orientation.out_neighbors"), "count")
        out["orientation.out_neighbors_s"] = (t.self_time(cfg, "orientation.out_neighbors"), "s")
        out["average.refresh_calls"] = (t.n_calls(cfg, "average.refresh_out_edges"), "count")
        out["average.refresh_s"] = (t.self_time(cfg, "average.refresh_out_edges"), "s")
    if cfg in APPROX:
        out["average.rebuilds"] = (t.n_calls(cfg, "average.rebuild_cluster"), "count")
        out["average.rebuild_entries"] = (t.count(cfg, "average.rebuild_entries"), "count")
        out["average.rebuild_s"] = (t.self_time(cfg, "average.rebuild_cluster"), "s")
    out["engine.merges"] = (merges, "count")
    layer = DRIVER[cfg].split(".")[0]
    if cfg in MERGE:
        out[f"{layer}.merge_s"] = (t.self_time(cfg, MERGE[cfg]), "s")
    out[f"{layer}.driver_self_s"] = (t.self_time(cfg, DRIVER[cfg]), "s")
    return {f"{cfg}.{k}": v for k, v in out.items()}


def per_layer(t, overhead: dict[str, float]) -> dict[str, tuple[float, str]]:
    """All per-layer metrics from a finished traced round. `overhead` maps a
    config to its traced minus untraced wall time."""
    out: dict[str, tuple[float, str]] = {}
    for cfg in CONFIGS:
        out.update(_config_metrics(t, cfg))

    def hac(*names: str) -> float:
        return sum(t.self_time(cfg, *names) for cfg in CONFIGS)

    out["hac.graph.parse_s"] = (hac("graph.parse_edge_list"), "s")
    out["hac.graph.make_graph_s"] = (hac("graph.make_graph"), "s")
    out["hac.graph.reweight_s"] = (hac("graph.degree_log_reweight"), "s")
    out["hac.dendrogram.finish_s"] = (hac("dendrogram.finish"), "s")
    out["hac.dendrogram.write_s"] = (hac("dendrogram.write"), "s")
    out["hac.cli.self_s"] = (hac("cli.main"), "s")
    out["graph.load_points_s"] = (t.self_time("knn", "graph.load_points_csv"), "s")
    out["graph.knn_s"] = (t.self_time("knn", "graph.build_knn_graph"), "s")
    out["graph.symmetrize_s"] = (t.self_time("knn", "graph.symmetrize", "graph.make_graph"), "s")
    out["graph.write_edges_s"] = (t.self_time("knn", "graph.write_edge_list"), "s")
    out["dendrogram.load_s"] = (t.self_time("eval", "dendrogram.load_dendrogram"), "s")
    out["evaluation.cut_calls"] = (t.n_calls("eval", "evaluation.cut_dendrogram"), "count")
    out["evaluation.cut_s"] = (t.self_time("eval", "evaluation.cut_dendrogram"), "s")
    out["evaluation.ari_s"] = (t.self_time("eval", "evaluation.ari"), "s")
    out["evaluation.nmi_s"] = (t.self_time("eval", "evaluation.nmi"), "s")
    out["evaluation.scores_self_s"] = (t.self_time("eval", "evaluation.best_level_scores"), "s")
    for cfg in CONFIGS:
        out[f"{cfg}.trace_overhead_s"] = (overhead[cfg], "s")
    return out
