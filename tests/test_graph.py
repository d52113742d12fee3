from collections import Counter
from itertools import count

import pytest
from hypothesis import example, given, settings, strategies as st

from quivpush import graph
from quivpush.graph import (Graph, GraphError, Path, PreconditionError,
                            check_word, classify_vertices, intersection_graph,
                            is_subgraph, path_counts, path_walk, paths_up_to,
                            union_graph)
from quivpush.jsonio import FormatError, graph_from_obj, graph_to_obj
from quivpush.leavitt import normal_form
from quivpush.randgen import case_rng, random_graph, restrict_graph


def test_validate_single_vertex_ok():
    assert graph_from_obj({"vertices": ["v"]}) == Graph(["v"])


def test_validate_dangling_source():
    with pytest.raises(FormatError, match="edge e: dangling source v"):
        graph_from_obj({"vertices": ["w"], "edges": [{"id": "e", "src": "v", "tgt": "w"}]})


def test_validate_dangling_tail():
    with pytest.raises(FormatError, match=r"omega tail \(v,w\): dangling target w"):
        graph_from_obj({"vertices": ["v"], "omega_tails": [["v", "w"]]})


def test_classify_loop():
    g = Graph.build(["u"], [("l", "u", "u")])
    classes = classify_vertices(g)
    assert classes.regular == {"u"}
    assert not classes.sinks and not classes.sources


def test_classify_single_edge():
    g = Graph.build(["v", "w"], [("e", "v", "w")])
    classes = classify_vertices(g)
    assert classes.regular == {"v"}
    assert classes.sinks == {"w"}
    assert classes.sources == {"v"}


def test_classify_omega_tail_emitter():
    g = Graph(["v", "w"], omega_tails=[("v", "w")])
    classes = classify_vertices(g)
    assert classes.infinite_emitters == {"v"}
    assert "v" not in classes.regular
    assert classes.sinks == {"w"}


def test_extended_single_edge():
    g = Graph.build(["v", "w"], [("e", "v", "w")])
    e, e_ghost = ("e", False), ("e", True)
    check_word(g, [e_ghost, e])          # e* runs from w back to v
    check_word(g, [e, e_ghost])
    for word in ([e, e], [e_ghost, e_ghost]):
        with pytest.raises(GraphError, match="not a path"):
            check_word(g, word)


def test_extended_loop_ghost_is_loop():
    g = Graph.build(["u"], [("l", "u", "u")])
    check_word(g, [("l", True), ("l", True), ("l", False)])


def test_extended_no_edges():
    g = Graph(["v"])
    with pytest.raises(GraphError, match="empty word"):
        check_word(g, [])
    with pytest.raises(GraphError, match="unknown edge"):
        check_word(g, [("v", False)])


def test_extended_rejects_tails():
    with pytest.raises(PreconditionError, match="tail-free failed: the graph has omega tails"):
        normal_form(Graph(["v"], ["l"], {"l": "v"}, {"l": "v"}, [("v", "v")]),
                    [("l", True)])


def test_paths_single_vertex():
    assert paths_up_to(Graph(["v"]), 5) == [Path("v")]


def test_paths_loop():
    g = Graph.build(["u"], [("l", "u", "u")])
    paths = paths_up_to(g, 3)
    assert len(paths) == 4
    assert Path("u", ("l", "l", "l")) in paths


def test_paths_single_edge():
    g = Graph.build(["v", "w"], [("e", "v", "w")])
    paths = paths_up_to(g, 2)
    assert len(paths) == 3
    assert {str(p) for p in paths} == {"v", "w", "e"}


def _matrix_power_count(g, n):
    """Independent oracle: |V| + sum over k<=n of entries of A^k."""
    verts = sorted(g.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    size = len(verts)
    a = [[0] * size for _ in range(size)]
    for e in g.edges:
        a[idx[g.src[e]]][idx[g.tgt[e]]] += 1
    total = size
    power = [row[:] for row in a]
    for _ in range(n):
        total += sum(sum(row) for row in power)
        power = [[sum(power[i][k] * a[k][j] for k in range(size))
                  for j in range(size)] for i in range(size)]
    return total


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 4))
def test_path_count_matches_matrix_power(seed, n):
    g = random_graph(case_rng(seed, 0), max_v=4, max_e=5)
    assert len(paths_up_to(g, n)) == _matrix_power_count(g, n)


def test_union_intersection_idempotent():
    g = Graph.build(["v", "w"], [("e", "v", "w")], [("v", "w")])
    assert union_graph(g, g) == g
    assert intersection_graph(g, g) == g


def test_union_disjoint():
    f = Graph.build(["a"], [])
    g = Graph.build(["b"], [])
    assert intersection_graph(f, g) == Graph(())
    u = union_graph(f, g)
    assert u.vertices == {"a", "b"}


def test_union_intersection_spec_example():
    f = Graph.build(["v", "w"], [("e", "v", "w")])
    g = Graph(["w"])
    inter = intersection_graph(f, g)
    assert inter == Graph(["w"])
    assert union_graph(f, g) == f


def test_union_rejects_incompatible_overlap():
    f = Graph.build(["v", "w"], [("e", "v", "w")])
    g = Graph.build(["v", "w"], [("e", "w", "v")])
    for combine in (union_graph, intersection_graph):
        with pytest.raises(PreconditionError, match="compatible-overlap failed: "
                           r"edge e: sources differ \(v vs w\); edge e: targets differ"):
            combine(f, g)


def _overlapping_pair(seed):
    """A drawn graph with omega tails and two of its induced subgraphs,
    which agree on every shared id."""
    rng = case_rng(seed, 1)
    base = random_graph(rng, max_v=5, max_e=6, tails=True)
    keep_f = {v for v in base.vertices if rng.random() < 0.8}
    keep_g = {v for v in base.vertices if rng.random() < 0.8}
    return base, restrict_graph(base, keep_f), restrict_graph(base, keep_g)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_graph_objects_read_back(seed):
    """Every drawn graph, its subgraphs, their union and their
    intersection are valid: the parser reads each one's object back to it."""
    base, f, g = _overlapping_pair(seed)
    for h in (base, f, g, union_graph(f, g), intersection_graph(f, g)):
        assert graph_from_obj(graph_to_obj(h)) == h


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_union_intersection_subgraph_invariants(seed):
    _, f, g = _overlapping_pair(seed)
    u = union_graph(f, g)
    inter = intersection_graph(f, g)
    assert is_subgraph(inter, f) and is_subgraph(inter, g)
    assert is_subgraph(f, u) and is_subgraph(g, u)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_extended_functorial_for_inclusions(seed):
    """A word that spells a path in a subgraph spells one in the graph."""
    rng = case_rng(seed, 2)
    sup = random_graph(rng, max_v=5, max_e=6)
    from quivpush.randgen import restrict_graph
    sub = restrict_graph(sup, {v for v in sup.vertices if rng.random() < 0.7})
    letters = [(e, ghost) for e in sorted(sub.edges) for ghost in (False, True)]
    for x in letters:
        for y in letters:
            try:
                check_word(sub, [x, y])
            except GraphError:
                continue
            check_word(sup, [x, y])


def _arcs(g):
    """(source, target) of every edge and every omega tail."""
    return [(g.src[e], g.tgt[e]) for e in g.edges] + list(g.omega_tails)


def topological_order(g):
    """Kahn's topological vertex order, or None if the graph has a cycle
    (tails count): the acyclicity test of the path and Leavitt oracles."""
    succ = {v: set() for v in g.vertices}
    indeg = {v: 0 for v in g.vertices}
    for u, w in _arcs(g):
        succ[u].add(w)
    for u in succ:
        for w in succ[u]:
            indeg[w] += 1
    ready = sorted(v for v in g.vertices if indeg[v] == 0)
    order = []
    while ready:
        v = ready.pop()
        order.append(v)
        for w in sorted(succ[v]):
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return order if len(order) == len(g.vertices) else None


def longest_by_order(g):
    """The longest path of an acyclic graph, a tail counting as one arc,
    relaxed along its topological order."""
    best = {v: 0 for v in g.vertices}
    for v in reversed(topological_order(g)):
        for u, w in _arcs(g):
            if u == v:
                best[v] = max(best[v], 1 + best[w])
    return max(best.values(), default=0)


@st.composite
def small_graphs(draw):
    """Up to four vertices, and edges between any two of them: loops,
    parallel edges, sinks and the empty graph all occur."""
    vertices = [f"v{i}" for i in range(draw(st.integers(0, 4)))]
    if not vertices:
        return Graph(())
    arc = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices))
    edges = draw(st.lists(arc, max_size=6))
    return Graph.build(vertices, [(f"e{i}", u, w) for i, (u, w) in enumerate(edges)])


LOOP_AND_SINK = Graph.build(["u", "s"], [("l", "u", "u"), ("e", "u", "s")])
PARALLEL = Graph.build(["v", "w"], [("a", "v", "w"), ("b", "v", "w"), ("c", "w", "w")])


@settings(max_examples=200, deadline=None)
@given(small_graphs(), st.integers(0, 4))
@example(Graph(()), 3)
@example(LOOP_AND_SINK, 3)
@example(PARALLEL, 2)
def test_path_counts_count_the_listed_paths(g, n):
    """path_counts agrees with the listing, whose entries are paths: each
    starts at its first edge's source and its edges compose, none is listed
    twice, and the list is in sort_key order.  path_counts has one row per
    listed length, none for the empty graph, and each has a nonzero entry:
    it stops where the paths do."""
    paths = paths_up_to(g, n)
    assert all(g.src[p.edges[0]] == p.start for p in paths if p.edges)
    assert all(g.tgt[e] == g.src[x] for p in paths for e, x in zip(p.edges, p.edges[1:]))
    assert len(set(paths)) == len(paths)
    assert paths == sorted(paths, key=Path.sort_key)
    vertices = sorted(g.vertices)
    listed = Counter((p.length, vertices.index(p.target(g))) for p in paths)
    counts = path_counts(g, n)
    assert len(counts) == max((p.length + 1 for p in paths), default=0)
    assert all(any(row) for row in counts)
    assert all(counts[l][i] == listed[l, i]
               for l in range(len(counts)) for i in range(len(vertices)))


@settings(max_examples=200, deadline=None)
@given(small_graphs(), st.integers(0, 5))
@example(Graph(()), 3)
@example(LOOP_AND_SINK, 5)
@example(PARALLEL, 4)
def test_path_walk_is_the_listing(g, n):
    """Each id of the walk holds its Path's parent, last edge, end vertex
    and length, on drawn graphs with loops, parallel edges and sinks, and
    the empty graph; test_path_counts_count_the_listed_paths and the
    matrix-power count check the listing itself."""
    walk = path_walk(g, n)
    paths = walk.paths()
    assert len(walk.parent) == len(walk.last) == len(walk.length) == len(paths)
    for i, p in enumerate(paths):
        assert (walk.end[i], walk.length[i]) == (p.target(g), p.length)
        if p.edges:
            assert paths[walk.parent[i]] == Path(p.start, p.edges[:-1])
            assert walk.last[i] == p.edges[-1]
        else:
            assert (walk.parent[i], walk.last[i]) == (-1, None)


def _drawn_cyclic_graph():
    """The first drawn graph at seed 1 with a cycle, that is with a path
    as long as it has vertices."""
    for k in count():
        g = random_graph(case_rng(1, k), max_v=4, max_e=6)
        if len(path_counts(g, len(g.vertices))) > len(g.vertices):
            return g


@pytest.mark.parametrize("g", [LOOP_AND_SINK, PARALLEL, _drawn_cyclic_graph()],
                         ids=["loop-and-sink", "parallel", "drawn-cyclic"])
def test_paths_up_to_builds_only_what_it_returns(monkeypatch, g):
    """paths_up_to builds one Path per path it lists, and none of the
    length n + 1 beyond them."""
    built = []

    def counted(*args):
        built.append(None)
        return Path(*args)

    monkeypatch.setattr(graph, "Path", counted)
    for n in range(6):
        built.clear()
        assert len(paths_up_to(g, n)) == len(built) == _matrix_power_count(g, n)


def test_path_walk_refuses_what_paths_up_to_refuses():
    tailed = Graph.build(["v", "w"], [("e", "v", "w")], omega_tails=[("v", "w")])
    for enumerate_paths in (path_walk, paths_up_to):
        with pytest.raises(PreconditionError, match="tail-free failed: the graph has omega tails"):
            enumerate_paths(tailed, 2)
        with pytest.raises(GraphError, match="path length bound must be nonnegative"):
            enumerate_paths(LOOP_AND_SINK, -1)
