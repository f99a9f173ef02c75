"""In-memory tracer that wraps graphhac's public functions from outside.

`Tracer.install()` replaces the layer functions and methods listed below
with wrappers, in every graphhac module that references them, and
`uninstall()` restores the originals. Coarse calls record a span (operation
id, span id, parent span, name, start, end); hot calls (neighbor-heap
operations, orientation queries, out-edge refreshes, global-heap pops and
pushes) are only counted and their time summed. Every wrapped call's self
time (its duration minus its wrapped children) is summed per operation
scope and name. Nothing is written until `dump()` at the end of the run.
"""

from __future__ import annotations

import heapq
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from graphhac import average, cli, dendrogram, engine, evaluation, graph, heaps, orientation

# (module or class, attribute, layer name). Spanned calls.
SPANNED = [
    (cli, "main", "cli.main"),
    (engine, "chain_hac", "engine.chain_hac"),
    (engine, "heap_hac", "engine.heap_hac"),
    (engine, "merge_clusters", "engine.merge_clusters"),
    (average, "naive_avg_hac", "average.naive_avg_hac"),
    (average, "exact_avg_hac", "average.exact_avg_hac"),
    (average, "approx_avg_hac", "average.approx_avg_hac"),
    (average._AvgState, "merge_structural", "average.merge_structural"),
    (average, "rebuild_cluster", "average.rebuild_cluster"),
    (graph, "parse_edge_list", "graph.parse_edge_list"),
    (graph, "make_graph", "graph.make_graph"),
    (graph, "degree_log_reweight", "graph.degree_log_reweight"),
    (graph, "load_points_csv", "graph.load_points_csv"),
    (graph, "build_knn_graph", "graph.build_knn_graph"),
    (graph, "symmetrize", "graph.symmetrize"),
    (graph, "write_edge_list", "graph.write_edge_list"),
    (dendrogram.DendrogramBuilder, "finish", "dendrogram.finish"),
    (dendrogram.Dendrogram, "write", "dendrogram.write"),
    (dendrogram, "load_dendrogram", "dendrogram.load_dendrogram"),
    (evaluation, "best_level_scores", "evaluation.best_level_scores"),
    (evaluation, "cut_dendrogram", "evaluation.cut_dendrogram"),
    (evaluation, "ari", "evaluation.ari"),
    (evaluation, "nmi", "evaluation.nmi"),
]
# Hot calls: counted and timed, no span.
HOT = [
    (orientation.Orientation, "out_neighbors", "orientation.out_neighbors"),
    (average, "refresh_out_edges", "average.refresh_out_edges"),
]
POINT_OPS = ("get", "best_edge", "insert", "update", "upsert", "delete")
HEAP_CLASSES = (heaps.TreeNeighborHeap, heaps.MeldNeighborHeap)


class _Frame:
    __slots__ = ("child", "span")

    def __init__(self, span):
        self.child = 0.0
        self.span = span


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.scope = ""
        self.op_id = -1
        self.spans: list[tuple[int, int, int | None, str, float, float]] = []
        self.stack: list[_Frame] = []
        self.calls: Counter = Counter()  # (scope, name) -> calls
        self.self_s: defaultdict = defaultdict(float)  # (scope, name) -> seconds
        self.counts: Counter = Counter()  # (scope, counter) -> total
        self.max_outdegree: Counter = Counter()  # scope -> max seen
        self._next_span = 0
        self._heap_depth = 0
        self._orientations: list = []
        self._undo: list[tuple[object, str, object]] = []
        self._heapq = _CountingHeapq()

    # -- recording ---------------------------------------------------------

    def _enter(self, span: bool) -> tuple[_Frame, float]:
        if span:
            self._next_span += 1
            frame = _Frame(self._next_span)
        else:
            frame = _Frame(self.stack[-1].span if self.stack else None)
        self.stack.append(frame)
        return frame, self.clock()

    def _exit(self, name: str, frame: _Frame, start: float, span: bool) -> None:
        end = self.clock()
        self.stack.pop()
        dur = end - start
        if self.stack:
            self.stack[-1].child += dur
        key = (self.scope, name)
        self.calls[key] += 1
        self.self_s[key] += dur - frame.child
        if span:
            parent = self.stack[-1].span if self.stack else None
            self.spans.append((self.op_id, frame.span, parent, name, start, end))

    def _timed(self, name: str, fn, span: bool, pre=None):
        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args)
            frame, start = self._enter(span)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, frame, start, span)

        return wrapper

    def _heap_layer(self, name: str, fn, adapt=None):
        """Neighbor-heap calls: only the outermost one is counted, so a
        relabel's inner delete/insert or a build's inserts are part of it.
        `adapt(args)` may count and return replacement arguments."""

        def wrapper(*args):
            if self._heap_depth:
                return fn(*args)
            if adapt is not None:
                args = adapt(args)
            self._heap_depth = 1
            frame, start = self._enter(False)
            try:
                return fn(*args)
            finally:
                self._heap_depth = 0
                self._exit(name, frame, start, False)

        return wrapper

    def bump(self, counter: str, by: int = 1) -> None:
        self.counts[(self.scope, counter)] += by

    def _counted_combine(self, combine):
        def counted(a, b):
            self.counts[(self.scope, "heaps.combine")] += 1
            return combine(a, b)

        return counted

    # -- operations ----------------------------------------------------------

    def run_op(self, scope: str, fn):
        """Run one benchmark operation under a root span; returns fn()."""
        self.scope = scope
        self.op_id += 1
        frame, start = self._enter(True)
        try:
            return fn()
        finally:
            self._exit("op", frame, start, True)
            self.bump("orientation.flips", sum(o.flip_count for o in self._orientations))
            self.bump("engine.gheap_pops", self._heapq.pops)
            self.bump("engine.gheap_pushes", self._heapq.pushes)
            self._heapq.pops = self._heapq.pushes = 0
            self._orientations.clear()
            self.scope = ""

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, orig, wrapper) -> None:
        """Swap `orig` for `wrapper` in every graphhac module namespace that
        holds it, so `from .x import f` bindings are covered too."""
        for name, mod in list(sys.modules.items()):
            if name == "graphhac" or name.startswith("graphhac."):
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, attr, wrapper)

    def install(self) -> None:
        pre = {
            # builder.finish(active): one merge per record() call
            "dendrogram.finish": lambda a: self.bump("engine.merges", len(a[0].merges)),
            # rebuild_cluster(state, stale_base, x): entries rewritten
            "average.rebuild_cluster": lambda a: self.bump(
                "average.rebuild_entries", len(a[0].heaps[a[2]])),
        }
        for owner, attr, name in SPANNED + HOT:
            orig = owner.__dict__[attr]
            wrapper = self._timed(name, orig, (owner, attr, name) in SPANNED, pre.get(name))
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
            else:
                self._replace_everywhere(orig, wrapper)
        self._replace_everywhere(heaps.new_heap, self._heap_layer("heaps.build", heaps.new_heap))
        for cls in HEAP_CLASSES:
            for op in POINT_OPS:
                self._set(cls, op, self._heap_layer(f"heaps.{op}", cls.__dict__[op]))
            self._set(cls, "union", self._heap_layer("heaps.union", cls.__dict__["union"], self._union_args))
            self._set(cls, "relabel", self._heap_layer("heaps.relabel", cls.__dict__["relabel"], self._relabel_args))
        self._set(engine, "heapq", self._heapq)
        self._set(average, "heapq", self._heapq)
        self._install_orientation()

    def _union_args(self, args):
        a, b, combine = args
        self.bump("heaps.union_cost", min(len(a), len(b)))
        return a, b, self._counted_combine(combine)

    def _relabel_args(self, args):
        h, old, new, combine = args
        return h, old, new, self._counted_combine(combine)

    def _install_orientation(self) -> None:
        cls = orientation.Orientation
        init, insert_edge = cls.__dict__["__init__"], cls.__dict__["insert_edge"]
        tracer = self

        def wrapped_init(inst, *args, **kwargs):
            init(inst, *args, **kwargs)
            inst._bench_tails = []
            on_flip = inst.on_flip

            def flip(tail, head):
                inst._bench_tails.append(tail)
                if on_flip is not None:
                    on_flip(tail, head)

            inst.on_flip = flip
            tracer._orientations.append(inst)

        def wrapped_insert(inst, u, v):
            insert_edge(inst, u, v)
            tracer.bump("orientation.inserts")
            seen = max(inst.outdegree(u), inst.outdegree(v))
            for t in inst._bench_tails:
                seen = max(seen, inst.outdegree(t))
            inst._bench_tails.clear()
            if seen > tracer.max_outdegree[tracer.scope]:
                tracer.max_outdegree[tracer.scope] = seen

        self._set(cls, "__init__", wrapped_init)
        self._set(cls, "insert_edge", wrapped_insert)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- queries -------------------------------------------------------------

    def self_time(self, scope: str, *names: str) -> float:
        return sum(self.self_s[(scope, n)] for n in names)

    def n_calls(self, scope: str, *names: str) -> int:
        return sum(self.calls[(scope, n)] for n in names)

    def count(self, scope: str, counter: str) -> int:
        return self.counts[(scope, counter)]

    def dump(self, path: Path, labels: dict[int, str]) -> None:
        """Write every span plus the per-scope aggregates as one JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "ops": {str(k): v for k, v in labels.items()},
            "span_fields": ["op", "span", "parent", "name", "start", "end"],
            "spans": self.spans,
            "self_s": [[s, n, t] for (s, n), t in sorted(self.self_s.items())],
            "calls": [[s, n, c] for (s, n), c in sorted(self.calls.items())],
            "counts": [[s, n, c] for (s, n), c in sorted(self.counts.items())],
        }
        path.write_text(json.dumps(doc), encoding="utf-8")


class _CountingHeapq:
    """Stands in for the `heapq` module inside engine and average, counting
    the global heap's pops and pushes."""

    def __init__(self):
        self.pops = 0
        self.pushes = 0

    def heappop(self, heap):
        self.pops += 1
        return heapq.heappop(heap)

    def heappush(self, heap, item):
        self.pushes += 1
        heapq.heappush(heap, item)

    def __getattr__(self, name):
        return getattr(heapq, name)
