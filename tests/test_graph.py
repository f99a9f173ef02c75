import math
import tracemalloc
import warnings
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from graphhac import graph
from graphhac.graph import (
    ID_SLACK,
    GraphFormatError,
    PointSet,
    WeightedGraph,
    build_knn_graph,
    degree_log_reweight,
    load_labels,
    load_points_csv,
    make_graph,
    parse_edge_list,
    symmetrize,
    validate_graph,
    write_edge_list,
)
from graphhac.instances import random_connected_graph, random_sparse_graph

DATA = Path(__file__).resolve().parent.parent / "data"


def knn_reference(pts: np.ndarray, k: int) -> dict[tuple[int, int], float]:
    """Exact k-NN graph as {(u, v): weight}: all distances by direct
    differences, each row's neighbors by (distance, index), and every pair
    max-symmetrized by hand, with s = 1/(1+d)."""
    n = len(pts)
    d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    expect: dict[tuple[int, int], float] = {}
    for i in range(n):
        for j in sorted((j for j in range(n) if j != i), key=lambda j: (d[i, j], j))[:k]:
            key = (min(i, j), max(i, j))
            expect[key] = max(expect.get(key, 0.0), float(1.0 / (1.0 + d[i, j])))
    return expect


def test_parse_weighted():
    g = parse_edge_list("0 1 0.5\n1 2 0.25")
    assert g.n == 3
    assert g.edges == ((0, 1, 0.5), (1, 2, 0.25))


def test_parse_comments_and_blanks():
    g = parse_edge_list("# header\n\n0 1 0.5\n  # trailing comment line\n")
    assert g.m == 1


def test_parse_self_loop_reports_line():
    with pytest.raises(GraphFormatError, match="line 1.*self-loop"):
        parse_edge_list("0 0 1.0")


def test_parse_negative_id():
    with pytest.raises(GraphFormatError, match="negative"):
        parse_edge_list("-1 2 1.0")


def test_parse_malformed_field_count():
    with pytest.raises(GraphFormatError, match="line 2"):
        parse_edge_list("0 1 0.5\n0 2")


def test_parse_duplicate_policies():
    with pytest.raises(GraphFormatError, match="line 2.*duplicate"):
        parse_edge_list("0 1 0.5\n1 0 0.7")
    g = parse_edge_list("0 1 0.5\n1 0 0.7", duplicate_policy="max")
    assert g.edges == ((0, 1, 0.7),)


def test_parse_rejects_vertex_ids_above_edge_bound():
    # n = 1 + max id may reach 2 * m + ID_SLACK and no further
    top = 2 * 2 + ID_SLACK - 1
    assert parse_edge_list(f"0 1 0.5\n1 {top} 0.5").n == top + 1
    with pytest.raises(ValueError, match=f"max vertex id {top + 1} .* bound") as exc:
        parse_edge_list(f"0 1 0.5\n1 {top + 1} 0.5")
    assert not isinstance(exc.value, GraphFormatError)
    with pytest.raises(ValueError, match="4000000000"):
        parse_edge_list("0 4000000000 1.0")


def test_parse_unweighted_placeholder():
    g = parse_edge_list("0 1\n1 2", weighted=False)
    assert all(w == 1.0 for _, _, w in g.edges)


def reference_parse(text: str, weighted: bool, duplicate_policy: str):
    """(n, edges) of a valid edge-list text, read one line at a time from
    the format's description alone: '#' opens a comment line, each pair is
    stored as (min, max), a repeated pair under "max" keeps its larger
    weight and, on equal weights, the first one, and edges come sorted."""
    best: dict[tuple[int, int], float] = {}
    for line in text.splitlines():
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        a, b = sorted((int(tokens[0]), int(tokens[1])))
        w = float(tokens[2]) if weighted else 1.0
        if (a, b) not in best:
            best[a, b] = w
        else:
            assert duplicate_policy == "max"
            if w > best[a, b]:
                best[a, b] = w
    n = 1 + max((b for _, b in best), default=-1)
    return n, sorted((a, b, w) for (a, b), w in best.items())


def long_weight(rng: np.random.Generator) -> str:
    """A finite decimal weight of 17 to 40 significant digits, signed or
    not, with an exponent anywhere from underflow to near the largest
    float: more digits than a float holds, so the reader must round as
    `float` does."""
    digits = "".join(map(str, rng.integers(10, size=int(rng.integers(17, 41)))))
    p = int(rng.integers(len(digits) + 1))
    sign = ("", "-", "+")[rng.integers(3)]
    return f"{sign}{digits[:p]}.{digits[p:]}e{int(rng.integers(-345, 309 - p))}"


def random_edge_file(rng: np.random.Generator, weighted: bool, duplicates: bool, form: int) -> str:
    """A valid edge list with shuffled lines, randomly reversed pairs, blank
    lines, padding and mixed line ends; weights include 0.0, -0.0,
    negatives, subnormals and large magnitudes, and with `duplicates` some
    pairs repeat, reversed or not. The bits of `form` choose what else the
    reader meets: 1 comment lines, 2 Unicode whitespace (no-break and em
    spaces inside lines, and the file separator, a line break to
    `str.splitlines`, as a line end), 4 `+`-signed ids, 8 weights of 17 to
    40 digits."""
    n = int(rng.integers(2, 40))
    pairs = {tuple(sorted(rng.choice(n, 2, replace=False).tolist())) for _ in range(3 * n)}
    pool = [0.0, -0.0, 1.0, -2.5, 5e-324, 1e-310, 1.7e308, 1 / 3]
    seps = ("\t", " ", "  \t ") + ("\xa0", "\u2003", " \xa0\t") * bool(form & 2)
    lines = []
    for a, b in pairs:
        for _ in range(int(rng.integers(1, 4)) if duplicates else 1):
            w = repr(pool[rng.integers(len(pool))])
            if rng.random() < 0.5:
                w = repr(float(rng.normal() * 10.0 ** rng.integers(-5, 5)))
            if form & 8 and rng.random() < 0.5:
                w = long_weight(rng)
            u, v = (a, b) if rng.random() < 0.5 else (b, a)
            ids = [("+" if form & 4 and rng.random() < 0.5 else "") + str(x) for x in (u, v)]
            sep = seps[rng.integers(len(seps))]
            pad = seps[rng.integers(len(seps))]
            fields = ids + ([w] if weighted else [])
            lines.append(pad * int(rng.integers(2)) + sep.join(fields) + pad * int(rng.integers(2)))
    lines += ["", "   "] * int(rng.integers(3))
    if form & 1:
        lines += ["# a comment", "\t#x 1 2", "#", "# 0 1 caf\xe9", "#\xa0\u2003"] * int(rng.integers(1, 3))
    rng.shuffle(lines)
    eols = ("\n", "\r\n") + ("\x1c",) * bool(form & 2)
    eol = eols[rng.integers(len(eols))]
    return eol.join(lines) + eol * int(rng.integers(2))


@pytest.mark.parametrize("weighted", [True, False])
@pytest.mark.parametrize("duplicate_policy", ["error", "max"])
@pytest.mark.parametrize("seed", [1, 7, 1024])
def test_parse_matches_reference_parser(weighted, duplicate_policy, seed):
    """Every form of `random_edge_file`, 4 files of each, read from a str
    and from an iterable of lines that keep their line ends."""
    rng = np.random.default_rng([seed, int(weighted), len(duplicate_policy)])
    for form in list(range(16)) * 4:
        text = random_edge_file(rng, weighted, duplicate_policy == "max", form)
        n, edges = reference_parse(text, weighted, duplicate_policy)
        for source in (text, iter(text.splitlines(keepends=True))):
            g = parse_edge_list(source, weighted=weighted, duplicate_policy=duplicate_policy)
            assert g.n == n
            assert [(u, v, w.hex()) for u, v, w in g.edges] == [(u, v, w.hex()) for u, v, w in edges]
            assert all(type(u) is int and type(v) is int and type(w) is float for u, v, w in g.edges)


def test_parse_max_duplicates_keep_the_first_signed_zero():
    text = "0 1 -0.0\n1 0 0.0\n2 3 0.0\n3 2 -0.0\n2 3 -1\n4 5 -1\n5 4 -0.0\n4 5 0.0\n"
    g = parse_edge_list(text, duplicate_policy="max")
    assert [math.copysign(1.0, w) for _, _, w in g.edges] == [-1.0, 1.0, -1.0]


@pytest.mark.parametrize(
    "text, kind, message, line",
    [
        # a whole-file token split would read these six tokens as two edges
        ("0 1 0.5 7\n2 3\n", GraphFormatError, "expected 3 fields, got 4", 1),
        ("0 1 0.5\n2 3\n", GraphFormatError, "expected 3 fields, got 2", 2),
        (f"0 1 0.5\n1 {10**20} 0.5\n", ValueError,
         f"max vertex id {10**20} gives n = {10**20 + 1} vertices, above the bound "
         f"2 * m + {ID_SLACK} = {4 + ID_SLACK} for m = 2 edges", None),
        # numpy < 2 reads these ids through float, with a DeprecationWarning
        ("0 1 0.5\n1.5 2 0.5\n", GraphFormatError,
         "bad vertex id: invalid literal for int() with base 10: '1.5'", 2),
        ("0 1 0.5\n1 1e3 0.5\n", GraphFormatError,
         "bad vertex id: invalid literal for int() with base 10: '1e3'", 2),
        ("0 1 nan\n", GraphFormatError, "non-finite weight 'nan'", 1),
        ("0 1 0.5\n1 2 inf\n", GraphFormatError, "non-finite weight 'inf'", 2),
        ("0 1 0.5\n1 2 1e400\n", GraphFormatError, "non-finite weight '1e400'", 2),
        # under "max" a merge of these pairs would hide the -inf
        ("0 1 0.5\n0 2 -inf\n2 0 1.0\n", GraphFormatError, "non-finite weight '-inf'", 2),
        ("0 1 1.0\n1 0 -1e400\n", GraphFormatError, "non-finite weight '-1e400'", 2),
        ("0 1 0.5\n1 2 x\n", GraphFormatError, "bad weight 'x'", 2),
        ("0 1 0.5\n2 3 0.5\n1 0 0.25\n", GraphFormatError, "duplicate edge (1,0)", 3),
        ("0 1 0.5\n4 4 1.0\n", GraphFormatError, "self-loop (4,4)", 2),
        ("0 1 0.5\n2 -3 1.0\n", GraphFormatError, "negative vertex id in (2,-3)", 2),
        # the first error in line order wins, whatever its kind
        ("0 0 1.0\n-1 2 1.0\n", GraphFormatError, "self-loop (0,0)", 1),
        ("# c\n\n0 1 0.5\r\n3 3 1\r\n", GraphFormatError, "self-loop (3,3)", 4),
        # `int` and `float` read digit groups and non-ASCII digits; the
        # format, like the bulk reader, does not
        ("0 1 0.5\n1_0 2 0.5\n", GraphFormatError,
         "bad vertex id: '1_0' holds '_' or a non-ASCII character", 2),
        ("0 1 0.5\n1 \uff12 0.5\n", GraphFormatError,
         "bad vertex id: '\uff12' holds '_' or a non-ASCII character", 2),
        ("0 1 0.5\n1 2 \u0661.\u0665\n", GraphFormatError, "bad weight '\u0661.\u0665'", 2),
    ],
)
def test_parse_hostile_file_keeps_its_error(text, kind, message, line):
    policies = ["error"] if "duplicate" in message else ["error", "max"]
    for lines, policy in product((False, True), policies):
        source = iter(text.splitlines(keepends=True)) if lines else text
        # a warning that escaped the parse would fail pytest.raises
        with warnings.catch_warnings(), pytest.raises(ValueError) as exc:
            warnings.simplefilter("error")
            parse_edge_list(source, duplicate_policy=policy)
        assert type(exc.value) is kind
        assert str(exc.value) == (message if line is None else f"line {line}: {message}")
        assert getattr(exc.value, "line", None) == line


def test_parse_rejects_a_reader_that_truncates_with_a_warning(monkeypatch):
    """numpy < 2 reads an int64 field such as 1.5 through float and
    truncates it, warning only. Such a reader must not turn a bad id into a
    different graph: the warning sends the file to the line loop."""
    real = np.loadtxt

    def truncating(lines, *args, **kwargs):
        lines = [line.replace("1.5", "1") for line in lines]
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning, stacklevel=2)
        return real(lines, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", truncating)
    with pytest.raises(GraphFormatError, match="line 2: bad vertex id"):
        parse_edge_list("0 1 0.5\n1.5 2 0.5\n")


@pytest.mark.parametrize("weighted", [True, False])
def test_parse_corrupted_file_names_an_error(weighted):
    """One token of a valid file replaced by one no field may hold, or one
    token dropped or added: the bulk reader rejects the file and the line
    loop names an error, never the AssertionError of a disagreement."""
    rng = np.random.default_rng([5, int(weighted)])
    bad = ["1_0", "\uff11", "\u0663", "0x1", "+-1", "1e", "0\x00", "nan", "-inf", "1.5e999", "\xbd"]
    for form in list(range(16)) * 4:
        lines = random_edge_file(rng, weighted, False, form).splitlines()
        i = int(rng.choice([j for j, line in enumerate(lines) if line.split() and line.split()[0][0] != "#"]))
        fields = lines[i].split()
        k = int(rng.integers(len(fields)))
        edit = int(rng.integers(3))
        if edit == 0:
            fields[k] = bad[rng.integers(len(bad))]
        elif edit == 1:
            del fields[k]
        else:
            fields.insert(k, "1")
        lines[i] = " ".join(fields)
        with pytest.raises(ValueError) as exc:
            parse_edge_list(lines, weighted=weighted)
        if isinstance(exc.value, GraphFormatError):
            assert exc.value.line is not None


def test_parse_iterable_items_split_into_lines():
    """An item of an iterable source is split into lines as a str source
    is, so a line break inside an item ends a line."""
    text = "0 1 0.5\n1 2 0.25\r\n2 3 1.0\n"
    assert parse_edge_list(["0 1 0.5\n1 2 0.25\r\n", "2 3 1.0"]) == parse_edge_list(text)
    with pytest.raises(GraphFormatError, match="line 1: expected 3 fields, got 2"):
        parse_edge_list(["0 1\n0.5"])


def test_point_and_label_files_keep_their_errors(tmp_path):
    f = tmp_path / "f"
    for text, message in [
        ("1,2\n\n3,x\n", "line 3: non-numeric field"),
        ("1,2\n3,nan\n4,5,6\n", "line 2: non-finite coordinate"),
        ("1,2\n4,5,6\n3,inf\n", "line 2: dimension mismatch: 3 vs 2"),
        ("\n  \n", "empty point file"),
    ]:
        f.write_text(text)
        with pytest.raises(GraphFormatError) as exc:
            load_points_csv(f)
        assert str(exc.value) == message
    f.write_text("1, 2\n\n-3.5,4e1\n")
    assert load_points_csv(f).points.tolist() == [[1.0, 2.0], [-3.5, 40.0]]
    f.write_text("1\n\n 2 \n1.0\n")
    with pytest.raises(GraphFormatError) as exc:
        load_labels(f)
    assert str(exc.value) == "line 4: bad label '1.0'"
    f.write_text("1\n\n 2 \n-3\n")
    assert load_labels(f).tolist() == [1, 2, -3]


def test_validator_catches_violations():
    with pytest.raises(ValueError):
        validate_graph(make_graph(2, [(0, 5, 1.0)]))
    with pytest.raises(ValueError):
        make_graph(2, [(0, 1, math.inf)])
    validate_graph(WeightedGraph(0, ()))
    for edges, message in [
        (((0, 1, 0.5), (2, 2, 0.5)), "self-loop at vertex 2"),
        (((0, 1, 0.5), (2, 1, 0.5)), r"edge \(2,1\) not stored with u < v"),
        (((0, 1, 0.5), (0, 1, 0.7)), r"duplicate edge \(0,1\)"),
        (((1, 2, 0.5), (0, 1, 0.5)), r"edge \(0,1\) out of sorted order"),
        (((0, 1, 0.5), (1, 2, math.nan)), r"non-finite weight on edge \(1,2\)"),
        (((-1, 1, 0.5),), r"edge \(-1,1\) out of range for n=3"),
        (((0, 2**70, 0.5),), r"edge \(0,1180591620717411303424\) out of range for n=3"),
    ]:
        with pytest.raises(ValueError, match=message):
            validate_graph(WeightedGraph(3, edges))


# 1/ln(d(u)+d(v)) values computed directly from the formula
def test_degree_log_reweight_pair_degrees():
    # path on 4 vertices: middle edge has endpoint degrees 2 and 2
    g = make_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    rw = degree_log_reweight(g)
    w = dict(((u, v), w) for u, v, w in rw.edges)
    assert w[(0, 1)] == pytest.approx(1.0 / math.log(3), rel=1e-12)
    assert w[(1, 2)] == pytest.approx(1.0 / math.log(4), rel=1e-12)


def test_degree_log_reweight_examples():
    # single edge: d(u)=d(v)=1 -> 1/ln 2
    g = degree_log_reweight(make_graph(2, [(0, 1, 9.9)]))
    assert g.edges[0][2] == pytest.approx(1.4426950408889634, rel=1e-12)
    # star with 4 leaves: every edge 1/ln 5
    star = make_graph(5, [(0, i, 1.0) for i in range(1, 5)])
    rs = degree_log_reweight(star)
    for _, _, w in rs.edges:
        assert w == pytest.approx(1.0 / math.log(5), rel=1e-12)
    # degrees 3 and 5 -> 1/ln 8 ~ 0.480898
    assert 1.0 / math.log(8) == pytest.approx(0.480898, abs=1e-6)


def test_degree_log_reweight_preserves_structure():
    g = make_graph(4, [(0, 1, 0.1), (1, 2, 0.2), (0, 3, 0.3)])
    rw = degree_log_reweight(g)
    assert [(u, v) for u, v, _ in rw.edges] == [(u, v) for u, v, _ in g.edges]


def test_degree_log_reweight_empty_rejected():
    with pytest.raises(ValueError):
        degree_log_reweight(make_graph(3, []))


def test_symmetrize_max_rule():
    g, dropped = symmetrize([(0, 1, 0.9), (1, 0, 0.4)])
    assert g.edges == ((0, 1, 0.9),)
    assert dropped == 0


def test_symmetrize_identity_and_self_loops():
    g, dropped = symmetrize([(0, 1, 0.9)])
    assert g.edges == ((0, 1, 0.9),)
    g2, dropped2 = symmetrize([(0, 0, 1.0), (0, 1, 0.5)])
    assert g2.edges == ((0, 1, 0.5),)
    assert dropped2 == 1


def test_symmetrize_empty_input():
    assert symmetrize([]) == (WeightedGraph(0, ()), 0)
    assert symmetrize([], n=3) == (WeightedGraph(3, ()), 0)


def test_symmetrize_only_self_loops():
    g, dropped = symmetrize([(2, 2, 1.0), (0, 0, 0.5), (2, 2, 0.1)])
    assert (g.n, g.edges, dropped) == (3, (), 3)


def test_symmetrize_n_above_max_id():
    g, dropped = symmetrize([(1, 0, 0.5)], n=5)
    assert (g.n, g.edges, dropped) == (5, ((0, 1, 0.5),), 0)


def test_symmetrize_reversed_duplicates_keep_max():
    g, dropped = symmetrize(
        [(1, 0, 0.25), (3, 2, 0.1), (0, 1, 0.75), (1, 0, 0.5), (2, 3, 0.05), (1, 1, 9.0)]
    )
    assert g.edges == ((0, 1, 0.75), (2, 3, 0.1))
    assert dropped == 1


def test_symmetrize_integer_weights_come_back_float():
    g, _ = symmetrize([(0, 1, 2), (1, 0, 3), (np.int64(2), np.int64(1), np.int64(4))])
    assert g.edges == ((0, 1, 3.0), (1, 2, 4.0))
    assert all(type(x) is int for u, v, _ in g.edges for x in (u, v))
    assert all(type(w) is float for _, _, w in g.edges)


def test_symmetrize_rejects_bad_edges():
    with pytest.raises(ValueError, match="non-finite"):
        symmetrize([(0, 1, 0.5), (1, 0, math.nan)])
    with pytest.raises(ValueError, match="out of range"):
        symmetrize([(0, 3, 0.5)], n=3)
    with pytest.raises(ValueError, match="out of range"):
        symmetrize([(-1, 2, 0.5)])
    with pytest.raises(ValueError, match="integers"):
        symmetrize([(0.0, 1.5, 0.5)])
    with pytest.raises(ValueError, match="triple"):
        symmetrize([(0, 1, 0.5), (1, 2)])


def test_write_edge_list_bytes(tmp_path):
    out = tmp_path / "g.wel"
    write_edge_list(make_graph(4, [(0, 1, 1 / 3), (2, 3, 0.5), (1, 2, 0.1)]), out)
    assert out.read_bytes() == (
        b"0 1 0.33333333333333331\n1 2 0.10000000000000001\n2 3 0.5\n"
    )
    write_edge_list(make_graph(2, []), out)
    assert out.read_bytes() == b""


def test_symmetrize_idempotent():
    edges = [(0, 1, 0.9), (1, 0, 0.4), (2, 1, 0.3), (0, 0, 1.0)]
    once, _ = symmetrize(edges)
    twice, dropped = symmetrize(once.edges)
    assert twice.edges == once.edges
    assert dropped == 0


def test_knn_collinear_example():
    # 1-D points {0, 1, 10}, k=1: directed 0->1, 1->0, 2->1
    pts = np.array([[0.0], [1.0], [10.0]])
    g = build_knn_graph(pts, 1)
    expect = {(0, 1): 1.0 / 2.0, (1, 2): 1.0 / 10.0}  # s = 1/(1+d)
    assert {(u, v): w for u, v, w in g.edges} == pytest.approx(expect)


def test_knn_complete_when_k_is_n_minus_1():
    from graphhac.average import naive_avg_hac

    rng = np.random.default_rng(7)
    pts = rng.normal(size=(9, 3))
    g = build_knn_graph(pts, 8)
    assert g.m == 9 * 8 // 2
    # matches the complete similarity graph built directly, so clustering
    # either one gives the same dendrogram
    d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    direct = make_graph(
        9, ((u, v, 1.0 / (1.0 + d[u, v])) for u in range(9) for v in range(u + 1, 9))
    )
    assert g == direct
    assert naive_avg_hac(g) == naive_avg_hac(direct)


@pytest.mark.parametrize("k", [1, 5])
def test_knn_iris_neighbor_selection(k):
    # k = n-1 keeps every pair, so it cannot catch a wrong choice of
    # neighbor; at small k on real data, near-tied distances decide which
    # edges exist. Reference: direct-difference distances, (distance, index)
    # order, max-symmetrized by hand.
    pts = load_points_csv(DATA / "iris.csv").points
    expect = knn_reference(pts, k)
    got = {(u, v): w for u, v, w in build_knn_graph(pts, k).edges}
    wrong = sorted(set(got) ^ set(expect))
    assert not wrong, f"{len(wrong)} edges differ, first {wrong[:4]}"
    assert got == expect


def _as_graph(n: int, edges: dict[tuple[int, int], float]) -> WeightedGraph:
    return WeightedGraph(n, tuple((u, v, w) for (u, v), w in sorted(edges.items())))


def _lattice(seed: int, n: int, d: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 3, size=(n, d)).astype(float)


def _normal(seed: int, n: int, d: int) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(n, d))


@pytest.mark.parametrize("make", [_normal, _lattice])
@pytest.mark.parametrize("n, d, rows", [
    (30, 9, 31),  # n below the block row count: one short block
    (30, 9, 30),  # n equal to it: one full block
    (30, 9, 29),  # n one above it: a full block and a one-row block
    (23, 8, 1),
    (23, 12, 4),
    (40, 17, 7),
    (12, 39, 5),
])
def test_knn_matches_reference_at_any_block_size(monkeypatch, make, n, d, rows):
    # The block budget is set so that exactly `rows` rows of (rows, n) Gram
    # values fit in one block (and candidates are verified in chunks of
    # rows * n // (2 d)); the graph must not depend on it, bit for bit.
    monkeypatch.setattr(graph, "KNN_BLOCK_BYTES", rows * 8 * n)
    pts = make(n + d, n, d)
    for k in (1, 3, n // 2, n - 1):
        assert build_knn_graph(pts, k) == _as_graph(n, knn_reference(pts, k)), (k, rows)


def test_knn_lattice_ties_at_kth_distance_follow_index_rule(monkeypatch):
    # rows with more than k points within their k-th distance take the exact
    # tie rule; check such rows occur, then compare in one- and 5-row blocks
    pts = _lattice(3, 40, 2)
    k = 4
    d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    np.fill_diagonal(d, np.inf)
    kth = np.sort(d, axis=1)[:, k - 1]
    assert ((d <= kth[:, None]).sum(axis=1) > k).sum() > 10
    expect = _as_graph(40, knn_reference(pts, k))
    for rows in (1, 5, 40):
        monkeypatch.setattr(graph, "KNN_BLOCK_BYTES", rows * 8 * 40)
        assert build_knn_graph(pts, k) == expect, rows


def test_knn_matches_reference_at_default_block_size():
    # n=250 splits into several (rows, n) blocks under the default budget
    pts = _normal(11, 250, 8)
    assert graph.KNN_BLOCK_BYTES // (8 * 250) < 250
    assert build_knn_graph(pts, 15) == _as_graph(250, knn_reference(pts, 15))


def _two_blobs(seed: int, n: int, d: int, offset: float) -> np.ndarray:
    pts = _normal(seed, n, d)
    pts[: n // 2] += offset
    pts[n // 2 :] -= offset
    return pts


def _near_overflow(seed: int, n: int) -> np.ndarray:
    # x near +-6e153, y near 6e153: the widest difference squares to about
    # 1.44e308, so no distance overflows, but the centred squared norms
    # (about 3.6e307) fail the Gram certificate 8 max s <= the largest float
    rng = np.random.default_rng(seed)
    side = rng.choice([-1.0, 1.0], size=n)
    return np.c_[side * 6e153, np.full(n, 6e153)] + rng.normal(size=(n, 2)) * 1e150


HARD_INPUTS = {
    "two_blobs_1e8": lambda: _two_blobs(21, 80, 3, 1e8),
    "blob_offset_1e12": lambda: _normal(22, 60, 4) + 1e12,
    "near_overflow": lambda: _near_overflow(23, 40),
    "duplicates": lambda: np.repeat(_normal(24, 15, 3), 4, axis=0),
    "d1": lambda: _normal(25, 50, 1),
    "d39": lambda: _normal(26, 40, 39),
}


@pytest.mark.parametrize("name", HARD_INPUTS)
def test_knn_exact_where_the_gram_form_cancels(name):
    # large offsets widen the filter's window until it passes whole
    # clusters, duplicates tie at the k-th distance, and near-overflow
    # coordinates skip the filter; every graph must equal the direct-
    # difference reference bit for bit
    pts = HARD_INPUTS[name]()
    n = len(pts)
    for k in (1, 3, 5, n // 2, n - 1):
        assert build_knn_graph(pts, k) == _as_graph(n, knn_reference(pts, k)), k


def test_knn_near_overflow_builds_without_the_gram_form(monkeypatch):
    # the certificate fails, so the block is verified whole: the Gram block
    # is never formed, and the build succeeds instead of raising
    def no_gram(*args):
        raise AssertionError("Gram block formed past the overflow certificate")

    monkeypatch.setattr(graph, "_gram_block", no_gram)
    pts = _near_overflow(27, 30)
    assert build_knn_graph(pts, 4) == _as_graph(30, knn_reference(pts, 4))


@pytest.mark.parametrize("name, k", [
    ("two_blobs_1e8", 5),
    ("blob_offset_1e12", 4),
    ("duplicates", 5),
    ("lattice", 4),
    ("iris", 50),
])
def test_knn_filter_survives_a_gram_error_of_its_bound(monkeypatch, name, k):
    # Each Gram value is within e_i = 2 (d + 4) (u (s_i + max s) + eta) of
    # the exact squared distance; the filter's window is 8 e_i, so a further
    # error of e_i must not lose a neighbor. The worst such error raises
    # each row's true k nearest by e_i and lowers every other value by e_i.
    if name == "lattice":
        pts = _lattice(3, 40, 2)
    elif name == "iris":
        pts = load_points_csv(DATA / "iris.csv").points
    else:
        pts = HARD_INPUTS[name]()
    n, d = pts.shape
    dist = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    np.fill_diagonal(dist, np.inf)
    nearest = np.zeros((n, n), dtype=bool)
    for i in range(n):
        nearest[i, np.lexsort((np.arange(n), dist[i]))[:k]] = True
    u, eta = np.finfo(float).eps / 2, np.finfo(float).smallest_subnormal
    gram = graph._gram_block

    def off_by_bound(ct, s, i0, i1):
        e = 2 * (d + 4) * (u * (s[i0:i1] + s.max()) + eta)
        return gram(ct, s, i0, i1) + np.where(nearest[i0:i1], 1.0, -1.0) * e[:, None]

    expect = _as_graph(n, knn_reference(pts, k))
    monkeypatch.setattr(graph, "_gram_block", off_by_bound)
    assert build_knn_graph(pts, k) == expect


def test_knn_working_memory_stays_below_a_distance_matrix():
    # blocks keep the temporaries to KNN_BLOCK_BYTES: at n=600, d=8, k=15 the
    # traced peak is about 1.7 MiB (the per-row loop's was 2.7 MiB), and one
    # n x n float64 matrix alone would take 2.75 MiB
    pts = _normal(0, 600, 8)
    build_knn_graph(pts, 15)
    tracemalloc.start()
    try:
        build_knn_graph(pts, 15)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_knn_rejects_non_finite_coordinate():
    with pytest.raises(ValueError, match="non-finite coordinate"):
        build_knn_graph(np.array([[0.0], [math.nan], [1.0], [5.0]]), 1)
    with pytest.raises(ValueError, match="non-finite coordinate"):
        build_knn_graph(np.array([[0.0, 1.0], [2.0, -math.inf], [1.0, 1.0]]), 1)


def test_knn_rejects_overflowing_distance():
    # |1e200 - (-1e200)|^2 overflows to inf; the points themselves are finite
    with pytest.raises(ValueError, match="overflows"):
        build_knn_graph(np.array([[0.0], [1e200], [-1e200], [5.0]]), 2)
    # here the difference itself overflows, before it is squared
    with pytest.raises(ValueError, match="points 0 and 1 overflows"):
        build_knn_graph(np.array([[-1e308], [1e308], [0.0]]), 1)


def test_knn_identical_points():
    g = build_knn_graph(np.array([[2.0, 3.0], [2.0, 3.0]]), 1)
    assert g.edges == ((0, 1, 1.0),)


def test_knn_tie_breaks_by_lower_index():
    # point 0 equidistant from 1 and 2; the k=1 neighbor must be 1
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
    g = build_knn_graph(pts, 1)
    assert (0, 1) in {(u, v) for u, v, _ in g.edges}


def test_knn_errors():
    with pytest.raises(ValueError):
        build_knn_graph(np.zeros((3, 2)), 3)
    with pytest.raises(ValueError):
        build_knn_graph(np.zeros((0, 2)), 1)


def test_pointset_validation():
    for bad in (np.zeros(4), np.zeros((4, 0)), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError, match=r"\(n, d\) array"):
            PointSet(bad)
    assert len(PointSet(np.zeros((4, 2)))) == 4


def test_points_csv_round_trip(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("1.0,2.0\n3.5,4.5\n")
    ps = load_points_csv(p)
    assert ps.points.shape == (2, 2)
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\n1.0,oops\n")
    with pytest.raises(GraphFormatError, match="line 2"):
        load_points_csv(bad)


def test_random_sparse_graph_has_promised_edge_count():
    for seed in range(6):
        g = random_sparse_graph(seed, 2000)
        assert g.m == 8000, (seed, g.m)
        validate_graph(g)


def test_random_connected_graph_rejects_impossible_edge_count():
    with pytest.raises(ValueError):
        random_connected_graph(0, n=4, m=7)
    with pytest.raises(ValueError):
        random_connected_graph(0, n=4, m=2)
