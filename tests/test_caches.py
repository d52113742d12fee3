"""Derived graph and homomorphism tables against from-scratch references,
and the immutability that keeps those tables from going stale."""

import pytest
from test_leavitt import _pullback_through_extended_hom

from quivpush.fields import field_from_name
from quivpush.graph import (Graph, GraphError, Path, PreconditionError, check_word,
                            classify_vertices, paths_up_to)
from quivpush.leavitt import (LMonomial, l_pullback, monomial_element, normal_form,
                              normal_monomials_window, vertex_monomial)
from quivpush.morphism import GraphHom, classify_hom, induced_path_map
from quivpush.path_algebra import path_preimages
from quivpush.randgen import (case_rng, random_crtbpog_hom, random_general_hom, random_graph,
                              random_tb_hom)

SEEDS = range(40)


def _graph(seed):
    return random_graph(case_rng(seed, 71), max_v=5, max_e=7, tails=seed % 4 == 0)


def _homs(seed):
    rng = case_rng(seed, 72)
    cod = random_graph(rng, max_v=4, max_e=5)
    return [random_general_hom(rng, cod), random_tb_hom(rng, cod, regular=True)]


def _ref_out(g):
    return {v: tuple(sorted(e for e in g.edges if g.src[e] == v)) for v in g.vertices}


def _ref_fibers(mapping, keys):
    return {x: tuple(sorted(k for k in keys if mapping[k] == x))
            for x in set(mapping[k] for k in keys)}


@pytest.mark.parametrize("seed", SEEDS)
def test_graph_tables_match_references(seed):
    g = _graph(seed)
    assert dict(g.out_map) == _ref_out(g)

    emits = {g.src[e] for e in g.edges} | {v for v, _ in g.omega_tails}
    receives = {g.tgt[e] for e in g.edges} | {w for _, w in g.omega_tails}
    infinite = {v for v, _ in g.omega_tails}
    classes = classify_vertices(g)
    assert classes.sinks == g.vertices - emits
    assert classes.sources == g.vertices - receives
    assert classes.infinite_emitters == infinite
    assert classes.regular == (g.vertices & emits) - infinite

    assert g.designated == {min(e for e in g.edges if g.src[e] == v) for v in classes.regular}


@pytest.mark.parametrize("seed", SEEDS)
def test_extended_graph_matches_reference(seed):
    """The two-letter words that check_word accepts are the paths of length
    two in the extended graph, built here from scratch."""
    g = _graph(seed)
    if g.omega_tails:
        with pytest.raises(PreconditionError, match="omega tails"):
            normal_form(g, [(e, False) for e in sorted(g.edges)[:1]])
        return
    src, tgt = {}, {}
    for e in g.edges:
        src[e, False], tgt[e, False] = g.src[e], g.tgt[e]
        src[e, True], tgt[e, True] = g.tgt[e], g.src[e]
    for x in src:
        check_word(g, [x])
        for y in src:
            if tgt[x] == src[y]:
                check_word(g, [x, y])
            else:
                with pytest.raises(GraphError, match="not a path"):
                    check_word(g, [x, y])


@pytest.mark.parametrize("seed", SEEDS)
def test_hom_tables_match_references(seed):
    for h in _homs(seed):
        assert dict(h.vertex_fibers) == _ref_fibers(h.f0, h.domain.vertices)
        assert dict(h.edge_fibers) == _ref_fibers(h.f1, h.domain.edges)
        assert classify_hom(h) is classify_hom(h)


@pytest.mark.parametrize("seed", SEEDS)
def test_path_preimages_match_enumeration(seed):
    for h in _homs(seed):
        dom_paths = paths_up_to(h.domain, 3)
        for p in paths_up_to(h.codomain, 3):
            want = sorted((q for q in dom_paths if induced_path_map(h, q) == p),
                          key=lambda q: q.sort_key())
            assert sorted(path_preimages(h, p), key=lambda q: q.sort_key()) == want


@pytest.mark.parametrize("seed", range(20))
def test_pullback_table_is_field_independent(seed):
    """Leavitt pullbacks along one hom agree over every field.  Each window
    monomial is pulled back over q, fp:2 and fp:7 in turn on the same hom;
    a monomial pulls back to one int combination in every field, so state
    kept on the hom from an earlier field would give a wrong result or
    raise.  The references are a fresh hom per field and the
    extended-graph oracle."""
    h = random_crtbpog_hom(case_rng(seed, 73))
    fields = [field_from_name(name) for name in ("q", "fp:2", "fp:7")]
    fresh = {field: GraphHom(h.domain, h.codomain, h.f0, h.f1) for field in fields}
    window = normal_monomials_window(h.codomain, 3)
    for mono in window:
        for field in fields:
            x = monomial_element(h.codomain, mono, field)
            got = l_pullback(h, x)
            assert got == l_pullback(fresh[field], x)
            assert got == _pullback_through_extended_hom(h, x)


def test_graphs_and_homs_are_frozen():
    src = {"e": "u"}
    g = Graph(["u", "v"], ["e"], src, {"e": "v"})
    src["e"] = "v"
    assert g.src["e"] == "u"
    h = GraphHom.identity(g)
    with pytest.raises(TypeError):
        g.src["e"] = "v"
    with pytest.raises(TypeError):
        g.out_map["u"] = ()
    with pytest.raises(TypeError):
        h.f0["u"] = "v"
    with pytest.raises(TypeError):
        h.vertex_fibers["u"] = ()
    for mutate in (lambda: g.src.update(e="v"), lambda: g.tgt.pop("e"),
                   lambda: g.src.setdefault("x", "u"), lambda: h.f1.clear()):
        with pytest.raises((TypeError, AttributeError)):
            mutate()
    assert dict(g.src) == {"e": "u"} and dict(h.f1) == {"e": "e"}
    for obj, attr in ((g, "vertices"), (g, "out_map"), (h, "domain"), (h, "f1")):
        with pytest.raises(AttributeError):
            setattr(obj, attr, None)
        with pytest.raises(AttributeError):
            delattr(obj, attr)


def test_equal_graphs_hash_alike():
    a = Graph.build(["u", "v"], [("e", "u", "v")])
    b = Graph.build(["v", "u"], [("e", "u", "v")])
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != Graph.build(["u", "v"], [("e", "v", "u")])


def test_paths_and_monomials_are_frozen_values():
    p = Path("u", ("e",))
    m = LMonomial(p, Path("v"))
    for obj, attr in ((p, "start"), (p, "edges"), (m, "alpha"), (m, "beta"), (p, "extra")):
        with pytest.raises(AttributeError):
            setattr(obj, attr, None)
        with pytest.raises(AttributeError):
            delattr(obj, attr)
    assert p == Path("u", ("e",)) and hash(p) == hash(Path("u", ("e",)))
    twin = LMonomial(Path("u", ("e",)), Path("v"))
    assert m is not twin and m == twin and hash(m) == hash(twin)
    assert Path("v") != Path("u", ("v",))
    for mono in (m, vertex_monomial("v"), LMonomial(p, p)):
        for path in (mono.alpha, mono.beta, Path("v"), Path("u", ("v",))):
            assert mono != path and path != mono
