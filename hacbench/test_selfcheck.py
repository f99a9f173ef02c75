"""Self-tests of the benchmark: generators, oracles, metric names.

Run from the repository root:

    python3 -m pytest -q hacbench/test_selfcheck.py
"""

from __future__ import annotations

import gc
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import calibration  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from graphhac.dendrogram import Dendrogram  # noqa: E402
from tracing import Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SCALE = 0.2  # sparse 4 x n=60, blobs n=120, star n=160


def test_times_are_scaled_by_the_calibration_loops_around_them(monkeypatch):
    assert gc.isenabled() and calibration.loop_s() > 0 and gc.isenabled()
    # the loops before and after take 1x and 3x their reference time: the
    # host ran at half the reference speed, so the scaled time is half the wall
    loops = iter([calibration.REFERENCE_S, 3 * calibration.REFERENCE_S])
    monkeypatch.setattr(calibration, "loop_s", lambda: next(loops))
    result, wall, scaled = calibration.timed(lambda: sum(range(10_000)))
    assert result == sum(range(10_000))
    assert wall > 0 and scaled == pytest.approx(wall / 2)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n", [20, 300])
def test_sparse_graph_is_connected_with_average_degree_8(seed, n):
    edges = inputs.sparse_edges(seed, n)
    assert len(edges) == 4 * n
    assert len({(u, v) for u, v, _ in edges}) == len(edges)
    assert all(0 <= u < v < n for u, v, _ in edges)
    assert len({w for _, _, w in edges}) == len(edges)
    assert len(oracles.max_spanning_forest(n, edges)) == n - 1  # connected
    assert inputs.sparse_edges(seed, n) == edges


@pytest.mark.parametrize("seed", range(5))
def test_star_is_a_star_with_a_middle_hub(seed):
    n = 200
    pairs = inputs.star_pairs(seed, n)
    degree = [0] * n
    for u, v in pairs:
        degree[u] += 1
        degree[v] += 1
    hub = max(range(n), key=degree.__getitem__)
    assert len(pairs) == n - 1 and degree[hub] == n - 1
    assert sorted(degree) == [1] * (n - 1) + [n - 1]
    assert 0.45 * n <= hub < 0.55 * n


def test_blobs_are_balanced_and_seeded():
    pts, labels = inputs.blobs(4, 120)
    assert pts.shape == (120, 8)
    assert sorted(labels.tolist()) == sorted(list(range(6)) * 20)
    again, _ = inputs.blobs(4, 120)
    assert (again == pts).all()


def _reference_outputs(name, tmp_path, seed=3):
    wl = workloads.build_workload(name, seed, tmp_path, SCALE)
    outs = {}
    for op in wl.ops:
        assert workloads._call(op) == 0, op.label
        outs[op.label] = workloads._read(op.out)
    return wl, outs


def _label(name, cfg):
    """The op label of `cfg` on the workload's first graph."""
    return f"{cfg}@0" if name == "sparse" else cfg


def _failing(problems):
    return {label for label, errs in problems.items() if errs}


def _swap_two_merges(text: str) -> str:
    lines = text.splitlines()
    a, b = lines[3].split(" ", 1), lines[7].split(" ", 1)
    lines[3], lines[7] = f"{a[0]} {b[1]}", f"{b[0]} {a[1]}"
    return "\n".join(lines) + "\n"


def _perturb_weight(text: str, line: int = 5) -> str:
    lines = text.splitlines()
    i, left, right, w, size = lines[line].split()
    lines[line] = f"{i} {left} {right} {float(w) * (1 + 1e-6)!r} {size}"
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_reference_outputs_pass_every_oracle(name, tmp_path):
    wl, outs = _reference_outputs(name, tmp_path)
    assert _failing(wl.verify(outs)) == set()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_oracles_flag_swapped_merges(name, tmp_path):
    wl, outs = _reference_outputs(name, tmp_path)
    label = _label(name, "naive")
    outs[label] = _swap_two_merges(outs[label])
    assert label in _failing(wl.verify(outs))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("cfg", workloads.CONFIGS)
def test_oracles_flag_a_perturbed_weight(name, cfg, tmp_path):
    wl, outs = _reference_outputs(name, tmp_path)
    label = _label(name, cfg)
    outs[label] = _perturb_weight(outs[label])
    assert label in _failing(wl.verify(outs))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_oracles_flag_a_corrupted_eval_report(name, tmp_path):
    wl, outs = _reference_outputs(name, tmp_path)
    label = "blobs-eval" if name == "sparse" else "iris-eval"
    outs[label] = outs[label].replace("best_ari 0.", "best_ari 0.0", 1)
    assert label in _failing(wl.verify(outs))


def test_oracles_flag_a_tree_file_that_differs_from_its_meld_twin(tmp_path):
    wl, outs = _reference_outputs("sparse", tmp_path)
    # a trailing blank line: same dendrogram, different bytes
    outs["exact-tree@0"] += "\n"
    assert _failing(wl.verify(outs)) == {"exact-tree@0", "exact-meld@0"}


def test_a_corrupted_dendrogram_makes_the_run_report_a_failure(tmp_path, monkeypatch):
    write = Dendrogram.write

    def corrupt(self, path):
        write(self, path)
        if Path(path).name == "naive.dendro":
            Path(path).write_text(_swap_two_merges(Path(path).read_text()))

    monkeypatch.setattr(Dendrogram, "write", corrupt)
    res = workloads.bench("star", 1, 0.0, None, tmp_path, SCALE)
    naive_runs = 2  # reference round plus one timed round
    assert res["failed"] == naive_runs and res["attempted"] > naive_runs


def test_traced_counts_repeat_exactly(tmp_path):
    first = workloads.bench("sparse", 2, 0.0, tmp_path, tmp_path, SCALE)
    second = workloads.bench("sparse", 2, 0.0, tmp_path, tmp_path, SCALE)
    assert first["failed"] == second["failed"] == 0
    counts = {k for k, (_v, unit) in first["per_layer"].items() if unit == "count"}
    assert counts
    assert {k: first["per_layer"][k] for k in counts} == {k: second["per_layer"][k] for k in counts}
    assert (tmp_path / "trace-sparse-seed2.json").is_file()


def test_metric_names_and_counts_match_the_contract():
    per_layer = layers.per_layer(Tracer(), {cfg: 0.0 for cfg in layers.CONFIGS})
    e2e = workloads.END_TO_END
    assert layers.CONFIGS == tuple(workloads.CONFIGS)
    assert run.WORKLOADS == workloads.WORKLOADS
    assert len(e2e) <= 16 and len(per_layer) <= 128
    assert all(NAME.match(name) for name in [*e2e, *per_layer])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert [m["unit"] for m in spec["end_to_end"]] == list(e2e.values())
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer)
    assert [m["unit"] for m in spec["per_layer"]] == [u for _v, u in per_layer.values()]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
