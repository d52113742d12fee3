from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from quivpush.graph import Graph, GraphError, Path, path_walk
from quivpush.morphism import (GraphHom, HomError, _path_image, admissible_equiv_crtbpog,
                               breaking_vertices, classify_hom, compose,
                               desaturating_vertices, induced_path_map,
                               is_admissible, walk_images)
from quivpush.pushout import graph_pushout
from quivpush.randgen import (case_rng, composable_tb_pair, one_color_instance,
                              random_general_hom, random_graph, random_injective_hom,
                              random_tb_hom)

LOOP = Graph.build(["u"], [("l", "u", "u")])
EDGE = Graph.build(["v", "w"], [("e", "v", "w")])
ONE = Graph(["p"])
VERTEX_TO_LOOP = GraphHom(ONE, LOOP, {"p": "u"}, {})


def test_validate_identity():
    assert GraphHom.identity(EDGE).problems == ()


def test_validate_vertex_into_loop():
    assert VERTEX_TO_LOOP.problems == ()


def test_validate_broken_square():
    cod = Graph.build(["a", "b"], [("x", "a", "b")])
    h = GraphHom(EDGE, cod, {"v": "b", "w": "b"}, {"e": "x"})
    assert any("source square" in p for p in h.problems)


def test_stray_keys_are_problems_and_not_an_inclusion():
    """Keys outside the domain are named, and an identity that carries one
    is no longer an inclusion, so the pushout cannot route it around the
    validity check."""
    point = Graph(["a"])
    h = GraphHom(point, point, {"a": "a", "zz": "a"}, {"x": "y"})
    assert h.problems == ("f0 key zz: not a domain vertex",
                          "f1 key x: not a domain edge")
    assert not h.is_inclusion()
    assert GraphHom.identity(point).is_inclusion()


def test_classify_vertex_to_loop_not_target_bijective():
    cls = classify_hom(VERTEX_TO_LOOP)
    assert cls.injective
    assert not cls.target_bijective
    assert cls.category == "POG"


def test_classify_isomorphism_is_crtbpog():
    cls = classify_hom(GraphHom.identity(LOOP))
    assert cls.injective and cls.surjective and cls.target_bijective and cls.regular
    assert cls.category == "CRTBPOG"


def test_classify_sink_inclusion_fails_target_bijectivity():
    h = GraphHom.inclusion(Graph(["w"]), EDGE)
    cls = classify_hom(h)
    assert not cls.target_bijective


def test_compose_identity_law():
    h = random_tb_hom(case_rng(3, 0), EDGE)
    left = compose(GraphHom.identity(EDGE), h)
    assert left.f0 == h.f0 and left.f1 == h.f1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_compose_preserves_target_bijectivity(seed):
    outer, inner = composable_tb_pair(case_rng(seed, 1))
    comp = compose(outer, inner)
    cls = classify_hom(comp)
    assert cls.target_bijective


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_compose_preserves_regularity(seed):
    rng = case_rng(seed, 7)
    base = random_graph(rng, max_v=3, max_e=4, prefix="h")
    outer = random_tb_hom(rng, base, prefix="m", regular=True)
    inner = random_tb_hom(rng, outer.domain, prefix="d", regular=True)
    cls = classify_hom(compose(outer, inner))
    assert cls.category == "CRTBPOG"


def test_compose_inclusions():
    mid = Graph.build(["v", "w"], [("e", "v", "w")])
    big = Graph.build(["v", "w", "z"], [("e", "v", "w"), ("e2", "w", "z")])
    comp = compose(GraphHom.inclusion(mid, big), GraphHom.inclusion(Graph(["v"]), mid))
    assert comp.is_inclusion()


def test_compose_rejects_domain_mismatch():
    from quivpush.morphism import DomainMismatch
    with pytest.raises(DomainMismatch):
        compose(GraphHom.identity(LOOP), GraphHom.identity(EDGE))


def test_induced_path_map_vertex_and_edges():
    h = GraphHom.identity(EDGE)
    assert induced_path_map(h, Path("v")) == Path("v")
    two = Graph.build(["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c")])
    fold = GraphHom(two, LOOP, {"a": "u", "b": "u", "c": "u"},
                    {"e1": "l", "e2": "l"})
    assert induced_path_map(fold, Path("a", ("e1", "e2"))) == Path("u", ("l", "l"))


def test_induced_path_map_rejects_non_paths():
    h = GraphHom.identity(EDGE)
    with pytest.raises(GraphError, match="not a path"):
        induced_path_map(h, Path("v", ("e", "e")))
    with pytest.raises(GraphError, match="e starts at v, not w"):
        induced_path_map(h, Path("w", ("e",)))


def _assert_ids_name_images(homs, n=3):
    """Walk the domain of each hom of homs to length n, all with one images
    dict: two walked paths get one id exactly when their _path_images are
    equal, and images has one key per distinct image."""
    images, ids, targets = {}, [], []
    for h in homs:
        walk = path_walk(h.domain, n)
        ids += walk_images(h, walk, images)
        targets += [_path_image(h, p) for p in walk.paths()]
    id_of = {}
    for i, target in zip(ids, targets):
        assert id_of.setdefault(target, i) == i, (target, i)
    # id_of is onto the ids, so a bijection when the counts agree
    assert len(id_of) == len(set(ids)) == len(images)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_walk_images_number_the_path_images(seed):
    """walk_images agrees with _path_image on a hom with folds, on both
    injections of its square with itself, and on both injections of a
    one-color square, each pair sharing one images dict."""
    rng = case_rng(seed, 8)
    h = random_general_hom(rng, random_graph(rng, max_v=3, max_e=4, prefix="b"))
    _assert_ids_name_images([h])
    for f, g in ((h, h), one_color_instance(rng)):
        po = graph_pushout(f, g)
        _assert_ids_name_images([po.iota_left, po.iota_right])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_induced_path_map_functorial(seed):
    rng = case_rng(seed, 2)
    outer, inner = composable_tb_pair(rng)
    comp = compose(outer, inner)
    from quivpush.graph import paths_up_to
    for p in paths_up_to(inner.domain, 3)[:20]:
        assert induced_path_map(comp, p) == \
            induced_path_map(outer, induced_path_map(inner, p))


@dataclass(frozen=True)
class HereditaryReport:
    ok: bool
    prodigal: frozenset

    def __bool__(self):
        return self.ok


def is_hereditary(g: Graph, h_set) -> HereditaryReport:
    """True iff every edge or tail starting in the set also ends in it."""
    h_set = frozenset(h_set)
    if not h_set <= g.vertices:
        raise GraphError("subset contains unknown vertices")
    prodigal = set()
    for e in g.edges:
        if g.src[e] in h_set and g.tgt[e] not in h_set:
            prodigal.add(g.src[e])
    for v, w in g.omega_tails:
        if v in h_set and w not in h_set:
            prodigal.add(v)
    return HereditaryReport(not prodigal, frozenset(prodigal))


def is_saturated(g: Graph, h_set) -> bool:
    return not desaturating_vertices(g, h_set)


def test_hereditary_examples():
    assert is_hereditary(EDGE, {"w"}).ok
    report = is_hereditary(EDGE, {"v"})
    assert not report.ok and report.prodigal == {"v"}
    assert is_hereditary(EDGE, {"v", "w"}).ok


def test_hereditary_counts_tails():
    g = Graph(["v", "w"], omega_tails=[("v", "w")])
    assert not is_hereditary(g, {"v"}).ok


def test_breaking_vertices_finite_graph_empty():
    assert breaking_vertices(EDGE, {"w"}) == frozenset()
    assert not breaking_vertices(EDGE, {"v"})


def test_breaking_vertex_from_spec():
    g = Graph(["v", "h", "w"], ["e"], {"e": "v"}, {"e": "w"},
              omega_tails=[("v", "h")])
    assert breaking_vertices(g, {"h"}) == {"v"}


def test_tail_into_complement_not_breaking():
    g = Graph(["v", "w"], omega_tails=[("v", "w")])
    assert breaking_vertices(g, set()) == frozenset()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_breaking_vertices_become_regular_in_complement_subgraph(seed):
    """Removing the set and the edges into it turns each of its breaking
    vertices into a regular vertex of what remains."""
    rng = case_rng(seed, 15)
    g = random_graph(rng, max_v=6, max_e=8, tails=True)
    from quivpush.randgen import admissible_subgraph
    from quivpush.graph import classify_vertices
    sub, h_set = admissible_subgraph(rng, g)
    for v in breaking_vertices(g, h_set):
        assert v in classify_vertices(sub).regular


def test_admissible_sink_inclusion_fails_a2():
    report = is_admissible(GraphHom.inclusion(Graph(["w"]), EDGE))
    assert not report.admissible
    assert report.witnesses.get("A2_edge") == "e"


def test_admissible_identity():
    report = is_admissible(GraphHom.identity(EDGE))
    assert report.admissible and report.strongly


def test_admissible_a1_failure():
    # keeping only the source drops e; its regular source desaturates the
    # complement {w}, so (A1) fails while (A2) holds vacuously
    report = is_admissible(GraphHom.inclusion(Graph(["v"]), EDGE))
    assert not report.admissible
    assert report.witnesses.get("A1_desaturating") == ["v"]
    assert "A2_edge" not in report.witnesses


def test_admissible_requires_injective():
    fold = GraphHom(Graph(["a", "b"]), ONE, {"a": "p", "b": "p"}, {})
    with pytest.raises(HomError):
        is_admissible(fold)


def test_admissible_equiv_spec_examples():
    assert admissible_equiv_crtbpog(GraphHom.identity(EDGE))
    assert admissible_equiv_crtbpog(GraphHom.inclusion(Graph(["w"]), EDGE))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_admissible_equiv_random(seed):
    h = random_injective_hom(case_rng(seed, 4), tails=seed % 3 == 0)
    assert admissible_equiv_crtbpog(h)


def test_hereditarity_from_a2():
    """An injective hom whose every codomain edge into the vertex image is
    in the edge image, (A2) as is_admissible reads it, misses a hereditary
    set of vertices.  Of 200 seeded random_injective_homs, 107 satisfy
    (A2), and 53 of those miss some vertex; at least 40 must, so that the
    check is not vacuous."""
    holds = missed = 0
    for i in range(200):
        h = random_injective_hom(case_rng(5, i))
        if "A2_edge" in is_admissible(h).witnesses:
            continue
        complement = h.codomain.vertices - h.vertex_image()
        assert is_hereditary(h.codomain, complement).ok
        holds += 1
        missed += bool(complement)
    assert holds >= 80 and missed >= 40, (holds, missed)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_vertex_injective_tb_implies_injective(seed):
    rng = case_rng(seed, 6)
    cod = random_graph(rng, max_v=4, max_e=5)
    h = random_tb_hom(rng, cod)
    cls = classify_hom(h)
    f0_injective = len(set(h.f0.values())) == len(h.f0)
    if f0_injective and cls.target_bijective:
        assert cls.injective
