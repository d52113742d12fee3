"""Every small pushout square, not a sample of them.

The small-scope hypothesis (Jackson, Software Abstractions, MIT Press
2006) holds that most faults show on some small instance.  So this lists
every tail-free graph up to isomorphism with at most 3 vertices and 3
edges, every hom between two of them, and every square E <-f- G -g-> F
with G of at most 2 vertices and 2 edges, f injective (P1) and both legs
CRTBPOG.  On each, the square graph_pushout builds has the properties that
leavitt.verify_leavitt_pullback and path_algebra.verify_path_pullback
prove in their docstrings and leave unchecked, verify --leavitt passes
with leakage 0 in every window, and the image dimension it counts is the
rank of the columns that the tests' oracle builds in full.  Where verify
--path does not refuse the square, the image dimension it ranks in each
degree is the number of distinct image paths.  small_scope_wide.py makes
the Leavitt and path checks on a wider scope, outside the test run.
"""

import itertools
from collections import defaultdict

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


def _residues(po, n):
    """Degree -> the columns that the window cross-check of the square po
    at n ranks: those whose key has no row of its own."""
    private, columns, images = defaultdict(set), defaultdict(dict), {}
    walk = leavitt._window_columns(po.iota_left, n, private, columns, images)
    leavitt._window_columns(po.iota_right, n, private, columns, images, len(walk.end) ** 2)
    return {d: [col for key, col in cols.items() if key not in private[d]]
            for d, cols in columns.items()}


def _assert_pullback_square(f, g, n):
    """The injections of the square on f and g are CRTBPOG, its
    postconditions hold, and so does their path form, which verify --path
    and the comparison map take as given: in each degree up to n of
    path_degrees, each link joins two paths with one image.  verify
    --leavitt's verdict at n passes with leakage 0, and each window's
    counted image has the oracle's rank."""
    po = graph_pushout(f, g)
    assert po.iota_left.classification.category == CATEGORY_CRTBPOG, (f, g)
    assert po.iota_right.classification.category == CATEGORY_CRTBPOG, (f, g)
    assert _square_postconditions(f, g, po) == [], (f, g)
    for deg in path_degrees(f, g, n, po):
        assert all(deg.images[i] == deg.images[j] for i, j in deg.links), (f, g)
    report = verify_leavitt_pullback(f, g, n)
    assert report.ok and all(w.leakage == 0 for w in report.window_checks), (f, g)
    ranks = _image_ranks(po, n, 0)
    assert all(w.dim_image == ranks.get(w.degree, 0) for w in report.window_checks), (f, g)
    return po


def test_every_small_square_is_a_pullback_square():
    """Each square passes _assert_pullback_square at n = 2.  Of the 8,232
    squares, 4,624 have the empty G, where P is the disjoint union of E
    and F, and 3,608 a nonempty one."""
    assert (len(_graphs(2, 2)), len(_graphs(3, 3))) == (13, 68)
    squares = _squares()
    assert len(squares) == 8232
    assert sum(1 for f, _ in squares if f.domain.vertices) == 3608
    for f, g in squares:
        _assert_pullback_square(f, g, 2)


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
    residues = _residues(_assert_pullback_square(f, g, 2), 2)
    assert {d: len(cols) for d, cols in residues.items() if cols} == {0: 1}
    assert rank(residues[0], 0) == 1


def test_path_rank_counts_distinct_images():
    """On each square with a nonempty G that verify_path_pullback does not
    refuse at n = 2, the dim_image it ranks in each degree is the number of
    distinct images, len(set(deg.images)), in that degree of
    pushout.path_degrees: the rank of unit rows, one per image path, is
    the number of distinct rows.  Of the 3,608 squares, 2,648 get a verdict
    and 960 are refused."""
    counts = {"verdict": 0, "refused": 0}
    for f, g in _squares():
        if not f.domain.vertices:
            continue
        try:
            report = verify_path_pullback(f, g, 2)
        except PreconditionError:
            counts["refused"] += 1
            continue
        counts["verdict"] += 1
        distinct = [len(set(deg.images)) for deg in path_degrees(f, g, 2, graph_pushout(f, g))]
        assert [d.dim_image for d in report.degrees] == distinct, (f, g)
    assert counts == {"verdict": 2648, "refused": 960}
