import errno
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from graphhac import cli, evaluation
from graphhac.cli import main
from graphhac.dendrogram import DendrogramError, load_dendrogram, parse_dendrogram
from graphhac.heaps import HEAP_IMPLS
from graphhac.instances import random_connected_graph

PATH_EDGES = "0 1 1.0\n1 2 0.6\n"


def run_cli(args):
    return main(args)


def test_hac_wpgma_path(tmp_path):
    inp = tmp_path / "g.wel"
    out = tmp_path / "d.tsv"
    inp.write_text(PATH_EDGES)
    assert run_cli(["hac", "--linkage", "wpgma", "--input", str(inp), "--output", str(out)]) == 0
    d = load_dendrogram(out)
    assert [(m.left, m.right, m.weight) for m in d.merges] == [(0, 1, 1.0), (3, 2, 0.6)]


def test_hac_all_linkages_and_drivers(tmp_path):
    inp = tmp_path / "g.wel"
    inp.write_text("0 1 0.9\n1 2 0.5\n0 2 0.3\n2 3 0.8\n")
    for linkage in ("single", "complete", "wpgma", "avg-exact", "avg-approx"):
        out = tmp_path / f"{linkage}.tsv"
        assert run_cli(
            ["hac", "--linkage", linkage, "--input", str(inp), "--output", str(out), "--audit"]
        ) == 0
        assert load_dendrogram(out).n == 4
    out2 = tmp_path / "heapdrv.tsv"
    assert run_cli(
        ["hac", "--linkage", "single", "--driver", "heap", "--input", str(inp),
         "--output", str(out2), "--heap-impl", "meld"]
    ) == 0


def test_hac_unweighted_reweighting(tmp_path):
    inp = tmp_path / "g.el"
    out = tmp_path / "d.tsv"
    inp.write_text("0 1\n1 2\n")
    assert run_cli(
        ["hac", "--linkage", "single", "--unweighted", "--input", str(inp), "--output", str(out)]
    ) == 0
    d = load_dendrogram(out)
    # both edges get weight 1/ln(1+2); merge order resolved by ids
    assert d.merges[0].weight == pytest.approx(0.9102392266268373, rel=1e-12)


def test_byte_identical_reruns(tmp_path):
    inp = tmp_path / "g.wel"
    inp.write_text("0 1 0.9\n1 2 0.5\n0 2 0.3\n2 3 0.8\n")
    outs = []
    for rep in range(2):
        out = tmp_path / f"d{rep}.tsv"
        assert run_cli(
            ["hac", "--linkage", "avg-approx", "--epsilon", "0.1",
             "--input", str(inp), "--output", str(out)]
        ) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_knn_graph_pipeline(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("0.0\n1.0\n10.0\n")
    out = tmp_path / "g.wel"
    assert run_cli(["knn-graph", "--k", "1", "--input", str(pts), "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[0].split()[:2] == ["0", "1"]


def test_eval_perfect_labels(tmp_path, capsys):
    inp = tmp_path / "g.wel"
    inp.write_text("0 1 0.9\n1 2 0.1\n2 3 0.8\n")
    dend = tmp_path / "d.tsv"
    run_cli(["hac", "--linkage", "single", "--input", str(inp), "--output", str(dend)])
    labels = tmp_path / "l.txt"
    labels.write_text("0\n0\n1\n1\n")
    report = tmp_path / "report.tsv"
    assert run_cli(
        ["eval", "--dendrogram", str(dend), "--labels", str(labels), "--output", str(report)]
    ) == 0
    text = report.read_text()
    assert text.splitlines()[0] == "clusters\tari\tnmi"
    assert "best_ari 1 at 2" in text
    assert "best_nmi 1 at 2" in text


def test_eval_levels_flag(tmp_path, capsys):
    inp = tmp_path / "g.wel"
    inp.write_text("0 1 0.9\n1 2 0.1\n2 3 0.8\n")
    dend = tmp_path / "d.tsv"
    run_cli(["hac", "--linkage", "single", "--input", str(inp), "--output", str(dend)])
    labels = tmp_path / "l.txt"
    labels.write_text("0\n0\n1\n1\n")
    assert run_cli(
        ["eval", "--dendrogram", str(dend), "--labels", str(labels), "--levels", "2,003"]
    ) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1].startswith("2\t")


def test_eval_report_equals_per_level_path(tmp_path):
    # the one-sweep scores must print exactly what cutting and rescoring
    # every level prints, on k-NN approx dendrograms of 300 blob points; at
    # epsilon 0.5, seed 1's dendrogram has merges stronger than their children
    for seed, flags in ((3, []), (1, ["--epsilon", "0.5"])):
        rng = np.random.default_rng(seed)
        truth = np.arange(300) % 5
        points = 3.0 * np.eye(5, 6)[truth] + rng.standard_normal((300, 6))
        pts, labels = tmp_path / "p.csv", tmp_path / "l.txt"
        pts.write_text("".join(",".join(repr(float(x)) for x in row) + "\n" for row in points))
        labels.write_text("".join(f"{y}\n" for y in truth))
        edges, dend, report = tmp_path / "g.wel", tmp_path / "d.tsv", tmp_path / "r.tsv"
        assert run_cli(["knn-graph", "--k", "10", "--input", str(pts), "--output", str(edges)]) == 0
        assert run_cli(["hac", "--linkage", "avg-approx", *flags, "--input", str(edges),
                        "--output", str(dend)]) == 0
        assert run_cli(["eval", "--dendrogram", str(dend), "--labels", str(labels),
                        "--output", str(report)]) == 0

        d, t = load_dendrogram(dend), truth.tolist()
        table = []
        for k in range(d.n - len(d.merges), d.n + 1):
            cut = evaluation.cut_dendrogram(d, k)
            table.append((k, evaluation.ari(cut, t), evaluation.nmi(cut, t)))
        best_a = max(table, key=lambda row: (row[1], -row[0]))
        best_m = max(table, key=lambda row: (row[2], -row[0]))
        oracle = evaluation.LevelScores(best_a[1], best_a[0], best_m[2], best_m[0], tuple(table))
        assert report.read_bytes() == cli._format_report(oracle).encode(), seed


def test_selftest_passes(capsys):
    assert run_cli(["selftest", "--trials", "4"]) == 0
    out = capsys.readouterr().out
    assert "ok triangle-oracle-equivalence" in out
    assert "ok average-oracle-equivalence" in out
    assert "ok heap-representation-equivalence" in out
    assert "ok edge-list-round-trip" in out


def test_selftest_round_trip_catches_a_lossy_writer(monkeypatch):
    assert cli._round_trip_mismatch(0, 3) == ""

    def lossy(g, path):
        Path(path).write_text("".join(f"{u} {v} {w:.15g}\n" for u, v, w in g.edges))

    monkeypatch.setattr(cli, "write_edge_list", lossy)
    assert cli._round_trip_mismatch(0, 3).startswith("graph 0 of 4")


def test_selftest_heap_ops_catch_a_broken_heap(monkeypatch):
    """The selftest's random heap-op run reports a tree heap whose slot
    move leaves every entry where it lands."""
    import graphhac.heaps as heap_module

    assert all(cli._heap_ops_mismatch(seed) == "" for seed in range(3))

    def stay_put(heap, pos, i, item):
        heap[i] = item
        pos[item[1]] = i

    monkeypatch.setattr(heap_module, "_move", stay_put)
    assert "tree heap" in cli._heap_ops_mismatch(0)


def test_exit_code_missing_file(tmp_path):
    assert run_cli(
        ["hac", "--linkage", "single", "--input", str(tmp_path / "nope.wel"),
         "--output", str(tmp_path / "d.tsv")]
    ) == 3


def _command_args(tmp_path):
    """Arguments after the command name of a run of each file-reading
    command that exits 0, with paths as `Path`s."""
    g, pts, dend, labels = (tmp_path / n for n in ("g.wel", "pts.csv", "d.tsv", "l.txt"))
    g.write_text(PATH_EDGES)
    pts.write_text("0.0\n1.0\n10.0\n")
    labels.write_text("0\n0\n1\n")
    assert run_cli(["hac", "--linkage", "single", "--input", str(g), "--output", str(dend)]) == 0
    return {
        "hac": ["--linkage", "single", "--input", g, "--output", tmp_path / "out.tsv"],
        "knn-graph": ["--k", "1", "--input", pts, "--output", tmp_path / "out.wel"],
        "eval": ["--dendrogram", dend, "--labels", labels, "--output", tmp_path / "report.tsv"],
    }


@pytest.mark.parametrize("missing", [False, True], ids=["directory", "missing-parent"])
@pytest.mark.parametrize("command, flag", [
    ("hac", "--input"), ("hac", "--output"), ("knn-graph", "--input"), ("knn-graph", "--output"),
    ("eval", "--dendrogram"), ("eval", "--labels"), ("eval", "--output"),
])
def test_exit_code_unusable_path(tmp_path, capsys, command, flag, missing):
    """A path that names a directory, or lies in a directory that does not
    exist, exits 3 with the path and the OS reason, read or write alike."""
    args = _command_args(tmp_path)[command]
    path = tmp_path / "nodir" / "f" if missing else tmp_path / "dir"
    if not missing:
        path.mkdir()
    args[args.index(flag) + 1] = path
    assert run_cli([command, *map(str, args)]) == 3
    reason = os.strerror(errno.ENOENT if missing else errno.EISDIR)
    assert capsys.readouterr().err == f"error: {path}: {reason}\n"


@pytest.mark.parametrize("command, flag", [
    ("hac", "--input"), ("knn-graph", "--input"), ("eval", "--dendrogram"), ("eval", "--labels"),
])
def test_exit_code_non_utf8_file(tmp_path, capsys, command, flag):
    """A file of any kind the CLI reads that is not UTF-8 is a format error."""
    args = _command_args(tmp_path)[command]
    path = args[args.index(flag) + 1]
    path.write_bytes(b"\xff" + path.read_bytes())
    assert run_cli([command, *map(str, args)]) == 4
    assert "can't decode byte 0xff" in capsys.readouterr().err


def test_exit_code_format_error(tmp_path):
    bad = tmp_path / "bad.wel"
    bad.write_text("0 0 1.0\n")
    assert run_cli(
        ["hac", "--linkage", "single", "--input", str(bad), "--output", str(tmp_path / "d.tsv")]
    ) == 4


@pytest.mark.parametrize("field", ["nan", "inf"])
def test_knn_graph_rejects_non_finite_point(tmp_path, capsys, field):
    pts = tmp_path / "pts.csv"
    pts.write_text(f"0\n{field}\n1\n5\n")
    out = tmp_path / "g.wel"
    assert run_cli(["knn-graph", "--k", "1", "--input", str(pts), "--output", str(out)]) == 4
    assert not out.exists()
    assert "line 2" in capsys.readouterr().err


def test_knn_graph_overflowing_distance_exits_5(tmp_path, capsys):
    # finite coordinates whose squared difference overflows to inf
    pts = tmp_path / "pts.csv"
    pts.write_text("0\n1e200\n-1e200\n5\n")
    out = tmp_path / "g.wel"
    assert run_cli(["knn-graph", "--k", "2", "--input", str(pts), "--output", str(out)]) == 5
    assert not out.exists()
    assert "overflows" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("n 2\n0 0 1 0.5\nroot 2\n", "line 2: expected 5 fields"),
    ("n 2\n1 0 1 0.5 2\nroot 2\n", "line 2: merge index out of order"),
    ("n 2\n0 0 1 0.5 2\nroot 2 3\n", "line 3: bad root line"),
])
def test_dendrogram_format_errors_keep_their_message(tmp_path, capsys, text, message):
    with pytest.raises(DendrogramError) as exc:
        parse_dendrogram(text)
    assert str(exc.value) == message
    dend, labels = tmp_path / "d.tsv", tmp_path / "l.txt"
    dend.write_text(text)
    labels.write_text("0\n1\n")
    assert run_cli(["eval", "--dendrogram", str(dend), "--labels", str(labels)]) == 4
    assert message in capsys.readouterr().err


def test_exit_code_bad_flag_combo(tmp_path):
    inp = tmp_path / "g.wel"
    inp.write_text(PATH_EDGES)
    assert run_cli(
        ["hac", "--linkage", "wpgma", "--epsilon", "0.2", "--input", str(inp),
         "--output", str(tmp_path / "d.tsv")]
    ) == 2
    # exact average linkage takes no outdegree cap: the flag is unknown
    with pytest.raises(SystemExit) as exc:
        run_cli(["hac", "--linkage", "avg-exact", "--delta-cap", "4", "--input", str(inp),
                 "--output", str(tmp_path / "d.tsv")])
    assert exc.value.code == 2


@pytest.mark.parametrize("linkage", ["avg-exact", "avg-approx"])
@pytest.mark.parametrize("driver", ["chain", "heap"])
def test_exit_code_driver_with_average_linkage(tmp_path, capsys, linkage, driver):
    # the average engines have fixed drivers: an explicit --driver is refused
    inp = tmp_path / "g.wel"
    inp.write_text(PATH_EDGES)
    out = tmp_path / "d.tsv"
    assert run_cli(
        ["hac", "--linkage", linkage, "--driver", driver, "--input", str(inp),
         "--output", str(out)]
    ) == 2
    assert "--driver" in capsys.readouterr().err
    assert not out.exists()


WEIGHT_CASES = {
    # avg-exact returned a non-greedy tree here: a missing edge counts as cut
    # 0, so a merge can raise a negative similarity
    "negative": "".join(f"{u} {v} {w - 0.5!r}\n" for u, v, w in random_connected_graph(1).edges),
    # cut sums and WPGMA means overflow to inf
    "overflow": "0 2 1e308\n0 3 1e308\n0 4 -1.7e308\n1 2 1.7e308\n"
    "1 4 1e308\n2 3 1e308\n2 4 1.7e308\n3 4 -1.7e308\n",
}


@pytest.mark.parametrize("heap", HEAP_IMPLS)
@pytest.mark.parametrize(
    "linkage, driver",
    [(k, d) for k in ("single", "complete", "wpgma") for d in ("chain", "heap")]
    + [("avg-exact", None), ("avg-approx", None)],
)
@pytest.mark.parametrize("case", sorted(WEIGHT_CASES))
def test_exit_code_weights_outside_linkage_domain(tmp_path, capsys, case, linkage, driver, heap):
    # average linkage needs w >= 0 and a finite weight sum, WPGMA finite means;
    # single and complete only compare weights
    inp, out = tmp_path / "g.wel", tmp_path / "d.tsv"
    inp.write_text(WEIGHT_CASES[case])
    args = ["hac", "--linkage", linkage, "--heap-impl", heap, "--input", str(inp),
            "--output", str(out)]
    code = run_cli(args + (["--driver", driver] if driver else []))
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if linkage.startswith("avg") or (linkage == "wpgma" and case == "overflow"):
        assert code == 5 and not out.exists()
        assert f"error: {linkage} needs" in err and ("edge (" in err or "weights sum" in err)
    else:
        assert code == 0 and err == ""
        assert all(math.isfinite(m.weight) for m in load_dendrogram(out).merges)


@pytest.mark.parametrize(
    "args, flag",
    [
        (["selftest", "--trials", "0"], "--trials"),
        (["selftest", "--trials", "-3"], "--trials"),
    ],
)
def test_exit_code_repeat_count_below_one(capsys, args, flag):
    # zero trials would print "ok" without checking anything
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert flag in captured.err and "Traceback" not in captured.err
    assert "ok" not in captured.out


def test_exit_code_huge_vertex_id(tmp_path, capsys):
    inp = tmp_path / "huge.wel"
    inp.write_text("0 4000000000 1.0\n")
    out = tmp_path / "d.tsv"
    t0 = time.perf_counter()
    assert run_cli(
        ["hac", "--linkage", "single", "--input", str(inp), "--output", str(out)]
    ) == 5
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert "4000000000" in err and "Traceback" not in err
    assert not out.exists()


def test_exit_code_label_mismatch(tmp_path):
    inp = tmp_path / "g.wel"
    inp.write_text(PATH_EDGES)
    dend = tmp_path / "d.tsv"
    run_cli(["hac", "--linkage", "single", "--input", str(inp), "--output", str(dend)])
    labels = tmp_path / "l.txt"
    labels.write_text("0\n1\n")
    assert run_cli(["eval", "--dendrogram", str(dend), "--labels", str(labels)]) == 5


@pytest.mark.parametrize("levels", [",", ""])
def test_exit_code_levels_without_counts(tmp_path, capsys, levels):
    inp = tmp_path / "g.wel"
    inp.write_text(PATH_EDGES)
    dend, labels = tmp_path / "d.tsv", tmp_path / "l.txt"
    run_cli(["hac", "--linkage", "single", "--input", str(inp), "--output", str(dend)])
    labels.write_text("0\n0\n1\n")
    assert run_cli(["eval", "--dendrogram", str(dend), "--labels", str(labels),
                    "--levels", levels]) == 2
    assert "--levels" in capsys.readouterr().err


@pytest.mark.parametrize("weight", ["nan", "inf"])
def test_exit_code_non_finite_merge_weight(tmp_path, capsys, weight):
    dend, labels = tmp_path / "d.tsv", tmp_path / "l.txt"
    dend.write_text(f"n 3\n0 0 1 0.5 2\n1 3 2 {weight} 3\nroot 4\n")
    labels.write_text("0\n0\n1\n")
    assert run_cli(["eval", "--dendrogram", str(dend), "--labels", str(labels)]) == 4
    err = capsys.readouterr().err
    assert "line 3" in err and "not finite" in err


def test_eval_huge_leaf_count_fails_before_per_leaf_work(tmp_path, capsys):
    # a root count that cannot match is refused before n leaves are sized
    dend, labels = tmp_path / "d.tsv", tmp_path / "l.txt"
    dend.write_text("n 1000000000000\n0 0 1 0.5 2\nroot 1000000000000\n")
    labels.write_text("0\n0\n")
    assert run_cli(["eval", "--dendrogram", str(dend), "--labels", str(labels)]) == 4
    err = capsys.readouterr().err
    assert "must leave 999999999999 roots, got 1" in err and len(err) < 300


def test_usage_error_from_argparse(capsys):
    # an unknown choice of linkage or of command is argparse's to refuse
    for argv in (["hac", "--linkage", "ward", "--input", "x", "--output", "y"], ["bench"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err


def test_parser_reuse_leaks_nothing_between_calls(tmp_path, monkeypatch):
    """`main` reuses one parser: flags given in one call must not reach the
    next, and a usage error still exits 2 without spoiling later calls."""
    inp = tmp_path / "g.wel"
    out = str(tmp_path / "d.tsv")
    inp.write_text(PATH_EDGES)
    seen = []
    real = cli._cmd_hac

    def spy(args):
        seen.append(vars(args).copy())
        return real(args)

    monkeypatch.setattr(cli, "_cmd_hac", spy)
    assert main(["hac", "--linkage", "avg-approx", "--epsilon", "0.5", "--heap-impl", "meld",
                 "--audit", "--input", str(inp), "--output", out]) == 0
    # a leaked --epsilon would make this an exit-2 usage error
    assert main(["hac", "--linkage", "avg-exact", "--input", str(inp), "--output", out]) == 0
    assert seen[0]["epsilon"] == 0.5 and seen[0]["heap_impl"] == "meld" and seen[0]["audit"]
    assert seen[1]["epsilon"] is None and seen[1]["heap_impl"] == "tree" and not seen[1]["audit"]
    assert main(["hac", "--linkage", "wpgma", "--epsilon", "0.2", "--input", str(inp),
                 "--output", out]) == 2
    assert main(["hac", "--linkage", "wpgma", "--input", str(inp), "--output", out]) == 0
    assert seen[3]["epsilon"] is None
    labels = tmp_path / "labels.txt"
    labels.write_text("0\n0\n1\n")
    report = tmp_path / "report.tsv"
    assert main(["eval", "--dendrogram", out, "--labels", str(labels), "--levels", "2",
                 "--output", str(report)]) == 0
    assert report.read_text().startswith("clusters\tari\tnmi\n2\t")
    assert main(["hac", "--linkage", "avg-exact", "--input", str(inp), "--output", out]) == 0
    assert "levels" not in seen[4] and "output" in seen[4] and seen[4]["output"] == out
    assert cli._build_parser() is cli._build_parser()


def test_hac_log_env_validation(tmp_path, monkeypatch):
    monkeypatch.setenv("HAC_LOG", "nonsense")
    assert main(["selftest", "--trials", "1"]) == 2


def test_console_entry_point(tmp_path):
    inp = tmp_path / "g.wel"
    out = tmp_path / "d.tsv"
    inp.write_text(PATH_EDGES)
    env = dict(os.environ, HAC_LOG="info")
    proc = subprocess.run(
        [sys.executable, "-m", "graphhac.cli", "hac", "--linkage", "single",
         "--input", str(inp), "--output", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert parse_dendrogram(out.read_text()).n == 3
