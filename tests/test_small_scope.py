"""Every small pushout square, not a sample of them.

The small-scope hypothesis (Jackson, Software Abstractions, MIT Press
2006) holds that most faults show on some small instance.  So this lists
every tail-free graph up to isomorphism with at most 3 vertices and 3
edges, every hom between two of them, and every square E <-f- G -g-> F
with G of at most 2 vertices and 2 edges, f injective (P1) and both legs
CRTBPOG.  On each, the square graph_pushout builds has the properties that
leavitt.verify_leavitt_pullback and path_algebra.verify_path_pullback
prove in their docstrings and leave unchecked, verify --leavitt passes,
its EXACT verdicts count all of L(P), and the image dimension it counts
is the rank of the columns that the tests' oracle builds in full.  Where
verify --path does not refuse the square, the image dimension it ranks
in each degree is the number of distinct image paths.  On every square,
the window sizes that verify --leavitt counts satisfy Lemma B of
leavitt._window_cross_check at each n from 2 to 8.  Each square's
pushout, path_degrees and Leavitt verdict are built once, by
_built_squares, for every test that reads them.  small_scope_wide.py
makes the Leavitt and path checks on a wider scope, outside the test run.
"""

import functools
import itertools
from collections import defaultdict
from operator import add, sub

from test_faults import _square_postconditions
from test_leavitt import _image_ranks

from quivpush import leavitt
from quivpush.graph import Graph, PreconditionError
from quivpush.leavitt import verify_leavitt_pullback
from quivpush.linalg import rank
from quivpush.morphism import CATEGORY_CRTBPOG, GraphHom
from quivpush.path_algebra import verify_path_pullback
from quivpush.pushout import graph_pushout, path_degrees


def _graphs(max_v, max_e):
    """Every graph with at most max_v vertices and max_e edges, loops and
    parallel edges included, once per isomorphism class: its edges, as
    pairs of vertex numbers, are the least sorted list over every
    renumbering of the vertices.  Vertex i is named v<i>, and edge j of
    that list e<j>, so small graphs share ids and some homs are
    inclusions."""
    graphs = []
    for k in range(max_v + 1):
        pairs = list(itertools.product(range(k), repeat=2))
        renumberings = list(itertools.permutations(range(k)))
        for m in range(max_e + 1):
            forms = {min(tuple(sorted((p[s], p[t]) for s, t in edges)) for p in renumberings)
                     for edges in itertools.combinations_with_replacement(pairs, m)}
            graphs += [Graph.build([f"v{i}" for i in range(k)],
                                   [(f"e{j}", f"v{s}", f"v{t}")
                                    for j, (s, t) in enumerate(form)])
                       for form in sorted(forms)]
    return graphs


def _homs(dom, cod):
    """Every hom dom -> cod: each vertex map, with each choice of an edge
    over each edge of dom."""
    vertices, edges = sorted(dom.vertices), sorted(dom.edges)
    for image in itertools.product(sorted(cod.vertices), repeat=len(vertices)):
        f0 = dict(zip(vertices, image))
        over = [[x for x in sorted(cod.edges)
                 if (cod.src[x], cod.tgt[x]) == (f0[dom.src[e]], f0[dom.tgt[e]])]
                for e in edges]
        for f1 in itertools.product(*over):
            yield GraphHom(dom, cod, f0, dict(zip(edges, f1)))


def _squares(g_max=(2, 2), large_max=(3, 3)):
    """The legs (f, g) of every square in scope: G of at most g_max
    vertices and edges, E and F of at most large_max."""
    large = _graphs(*large_max)
    squares = []
    for G in _graphs(*g_max):
        legs = [h for H in large for h in _homs(G, H)
                if h.classification.category == CATEGORY_CRTBPOG]
        squares += [(f, g) for f in legs if f.classification.injective for g in legs]
    return squares


@functools.cache
def _built_squares():
    """(f, g, po, degrees, report) for each square of _squares(): po is its
    graph_pushout, degrees the _degree_summary of its path_degrees at n = 2
    and report its verify_leavitt_pullback at n = 2, built once and kept
    for each test of this file that reads them."""
    built = []
    for f, g in _squares():
        po = graph_pushout(f, g)
        built.append((f, g, po, _degree_summary(path_degrees(f, g, 2, po)),
                      verify_leavitt_pullback(f, g, 2)))
    return tuple(built)


def _degree_summary(degrees):
    """For each pushout.PathDegree of degrees: whether each of its links
    joins two paths with one image, and the number of distinct images.
    _built_squares keeps this in place of the degrees, whose paths would
    add about 50 MB to the peak memory of a test run."""
    return tuple((all(deg.images[i] == deg.images[j] for i, j in deg.links),
                  len(set(deg.images))) for deg in degrees)


def _residues(po, n):
    """Degree -> the columns that the window cross-check of the square po
    at n ranks: those whose key has no row of its own."""
    private, columns, images = defaultdict(set), defaultdict(dict), {}
    walk = leavitt._window_columns(po.iota_left, n, private, columns, images)
    leavitt._window_columns(po.iota_right, n, private, columns, images, len(walk.end) ** 2)
    return {d: [col for key, col in cols.items() if key not in private[d]]
            for d, cols in columns.items()}


def _assert_pullback_square(f, g, po, degrees, report):
    """The injections of the square po on f and g are CRTBPOG, its
    postconditions hold, and so does their path form, which verify --path
    and the comparison map take as given: in each degree of degrees, the
    _degree_summary of its pushout.path_degrees at n = 2, each link joins
    two paths with one image.  report, verify --leavitt's verdict at n = 2,
    passes, and each window's counted image has the oracle's rank."""
    assert po.iota_left.classification.category == CATEGORY_CRTBPOG, (f, g)
    assert po.iota_right.classification.category == CATEGORY_CRTBPOG, (f, g)
    assert _square_postconditions(f, g, po) == [], (f, g)
    assert all(linked for linked, _ in degrees), (f, g)
    assert report.ok, (f, g)
    ranks = _image_ranks(po, 2, 0)
    assert all(w.dim_image == ranks.get(w.degree, 0) for w in report.degrees), (f, g)


def test_every_small_square_is_a_pullback_square():
    """Each square passes _assert_pullback_square.  Of the 8,232 squares,
    4,624 have the empty G, where P is the disjoint union of E and F, and
    3,608 a nonempty one."""
    assert (len(_graphs(2, 2)), len(_graphs(3, 3))) == (13, 68)
    squares = _built_squares()
    assert len(squares) == 8232
    assert sum(1 for f, *_ in squares if f.domain.vertices) == 3608
    for square in squares:
        _assert_pullback_square(*square)


def test_a_rewritten_column_is_ranked():
    """G is the edge v0 -> v1, f its identity, and g sends it to e1 of F,
    where v0 also emits e0.  E's special edge e0 then maps to an edge of P
    that is not special, so CK2 rewrites e0 e0* to v0, and the column of
    its image holds only that rewritten row, which the pair v0 v0* reaches
    too.  So that column has no row of its own: it is the residue of
    degree 0, and the rank counts it."""
    G = Graph.build(["v0", "v1"], [("e0", "v0", "v1")])
    F = Graph.build(["v0", "v1", "v2"], [("e0", "v0", "v1"), ("e1", "v0", "v2")])
    f = GraphHom.identity(G)
    g = GraphHom(G, F, {"v0": "v0", "v1": "v2"}, {"e0": "e1"})
    def maps(h):
        return h.domain, h.codomain, dict(h.f0), dict(h.f1)
    assert (maps(f), maps(g)) in [(maps(x), maps(y)) for x, y in _squares()]
    po = graph_pushout(f, g)
    _assert_pullback_square(f, g, po, _degree_summary(path_degrees(f, g, 2, po)),
                            verify_leavitt_pullback(f, g, 2))
    residues = _residues(po, 2)
    assert {d: len(cols) for d, cols in residues.items() if cols} == {0: 1}
    assert rank(residues[0], 0) == 1


def test_path_rank_counts_distinct_images():
    """On each square with a nonempty G that verify_path_pullback does not
    refuse at n = 2, the dim_image it ranks in each degree is the number of
    distinct images, len(set(deg.images)), in that degree of the
    pushout.path_degrees, as _built_squares keeps it: the rank of unit rows,
    one per image path, is the number of distinct rows, and the verdict
    passes.  Of the 3,608 squares, 2,648 get a verdict and 960 are
    refused."""
    counts = {"verdict": 0, "refused": 0}
    for f, g, _, degrees, _ in _built_squares():
        if not f.domain.vertices:
            continue
        try:
            report = verify_path_pullback(f, g, 2)
        except PreconditionError:
            counts["refused"] += 1
            continue
        counts["verdict"] += 1
        distinct = [count for _, count in degrees]
        assert [d.dim_image for d in report.degrees] == distinct, (f, g)
        assert report.ok, (f, g)
    assert counts == {"verdict": 2648, "refused": 960}


def _fiber_sizes(sizes, f, g, n):
    """E_d + F_d - G_d for each degree d from -n to n, from the
    _window_vector of each of the three graphs of the legs f and g."""
    E, F, G = (_window_vector(sizes, x, n) for x in (f.codomain, g.codomain, f.domain))
    return tuple(map(sub, map(add, E, F), G))


def _window_vector(sizes, graph, n):
    """leavitt._window_sizes(graph, n) as the tuple of its sizes in the
    degrees -n to n, kept in the dict sizes by (graph, n): a graph is in
    many squares, and so is a pushout graph."""
    if (graph, n) not in sizes:
        window = leavitt._window_sizes(graph, n)
        assert all(-n <= d <= n for d in window), (graph, n)
        sizes[graph, n] = tuple(window.get(d, 0) for d in range(-n, n + 1))
    return sizes[graph, n]


def test_window_sizes_count_the_fiber():
    """Lemma B of leavitt._window_cross_check: on every square, at each n
    from 2 to 8, leavitt._window_sizes gives E_d + F_d - G_d = P_d in every
    degree d, so the fiber the verdict counts is as large as P's window."""
    sizes = {}
    for f, g, po, *_ in _built_squares():
        for n in range(2, 9):
            assert _fiber_sizes(sizes, f, g, n) == _window_vector(sizes, po.graph, n), (f, g, n)


def _dim_acyclic(p):
    """dim L(p) of an acyclic graph p: the sum over its sinks v of n(v)^2,
    n(v) the number of paths that end at v, the trivial one included
    (Abrams, Aranda Pino and Siles Molina, "Finite-dimensional Leavitt path
    algebras", J. Pure Appl. Algebra 209, 2007)."""
    into = defaultdict(list)
    for e in p.edges:
        into[p.tgt[e]].append(p.src[e])

    @functools.cache
    def ending_at(v):
        return 1 + sum(map(ending_at, into[v]))
    emitters = set(p.src.values())
    return sum(ending_at(v) ** 2 for v in p.vertices - emitters)


def test_exact_leavitt_verdicts_count_the_whole_algebra():
    """A Leavitt verdict at n = 2 is EXACT when P has no path of length 2,
    and then its windows are all of L(P): the dim_pushout of its degrees
    sum to dim L(P), which _dim_acyclic counts from P's sinks.  474 of the
    8,232 squares are EXACT."""
    exact = 0
    for f, g, po, _, report in _built_squares():
        p = po.graph
        assert report.exact == (not set(p.tgt.values()) & set(p.src.values())), (f, g)
        if report.exact:
            exact += 1
            assert sum(w.dim_pushout for w in report.degrees) == _dim_acyclic(p), (f, g)
    assert exact == 474


def test_wide_scope_check_runs_on_a_few_squares(monkeypatch):
    """small_scope_wide.square_lines, the per-square check of a script that
    pytest does not collect, finds nothing on every 100th small square with
    a nonempty G, and reports a failed verdict on a square with an extra
    vertex in P."""
    from small_scope_wide import square_lines
    from test_faults import _with_isolated_vertex

    picked = [(f, g, po) for f, g, po, *_ in _built_squares() if f.domain.vertices][::100]
    sizes, verdicts = {}, 0
    for f, g, po in picked:
        lines, path_verdict = square_lines(f, g, po, sizes)
        assert lines == [], lines
        verdicts += path_verdict
    assert (len(picked), verdicts) == (37, 28)
    f, g, po = picked[-1]
    monkeypatch.setattr(leavitt, "pushout_square", _with_isolated_vertex)
    lines, _ = square_lines(f, g, po, sizes)
    assert [line.split(":")[0] for line in lines] == ["failed"]
