from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from quivpush.fields import QQ, Field, FieldError, field_from_name
from quivpush.graph import Graph, GraphError, Path, paths_up_to, union_graph
from quivpush.linalg import rank
from quivpush.morphism import GraphHom, compose, induced_path_map
from quivpush import path_algebra
from quivpush.path_algebra import (DegreeCheck, PAElement, pa_mul, pa_pullback,
                                   pa_unit, verify_path_pullback)
from quivpush.pushout import PreconditionError, pushout_square
from quivpush.randgen import (captocup_pair, case_rng, collapse_duplicate_edges,
                              one_color_instance, random_general_hom, random_graph,
                              union_legs)
from test_graph import longest_by_order, topological_order

LOOP = Graph.build(["u"], [("l", "u", "u")])
EDGE = Graph.build(["v", "w"], [("e", "v", "w")])


def path_theorem_instance(rng):
    """Acyclic legs meeting all three path-theorem hypotheses."""
    return union_legs(*captocup_pair(rng, tails=False, max_v=5, max_e=6, acyclic=True))


def _chi(g, *edges, vertex=None, field=QQ):
    path = Path(vertex) if vertex else Path(g.src[edges[0]], edges)
    return PAElement(g, field, PAElement.basis(g, path).terms)


def test_prime_field_arithmetic():
    f7 = field_from_name("fp:7")
    one = _chi(EDGE, vertex="v", field=f7)
    a = one.scale(3)
    assert a + a == one.scale(6)
    assert a * a == one.scale(2)
    assert a.scale(f7.parse("1/3")) == one
    assert -a == one.scale(4)
    assert f7.parse("1/2") == 4


def test_field_from_name():
    assert field_from_name("q") is QQ
    assert field_from_name("fp:31").characteristic == 31
    with pytest.raises(FieldError):
        field_from_name("fp:32")
    with pytest.raises(FieldError):
        field_from_name("fp:2147483659")  # > 2^31


def test_vertex_idempotent():
    chi_v = _chi(EDGE, vertex="v")
    assert pa_mul(chi_v, chi_v) == chi_v


def test_equality_compares_the_field():
    f7 = Field(7)
    assert PAElement(EDGE, QQ, {}) != PAElement(EDGE, f7, {})
    assert PAElement(EDGE, f7, {}) == PAElement(EDGE, Field(7), {})
    assert len({PAElement(EDGE, f7, {}), PAElement(EDGE, Field(7), {})}) == 1


def test_mismatched_concatenation_is_zero():
    two = Graph.build(["a", "b", "c", "d"],
                      [("e", "a", "b"), ("f", "c", "d")])
    assert pa_mul(_chi(two, "e"), _chi(two, "f")).is_zero()


def test_loop_concatenation_and_associativity():
    chi_l = _chi(LOOP, "l")
    chi_u = _chi(LOOP, vertex="u")
    assert pa_mul(chi_l, chi_l) == _chi(LOOP, "l", "l")
    assert pa_mul(pa_mul(chi_l, chi_l), chi_u) == pa_mul(chi_l, pa_mul(chi_l, chi_u))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_pa_mul_associative_and_bilinear(seed):
    rng = case_rng(seed, 20)
    g = random_graph(rng, max_v=4, max_e=5)
    paths = paths_up_to(g, 3)
    coeffs = [Fraction(1), Fraction(-2), Fraction(3, 2)]
    for _ in range(10):
        a = PAElement(g, QQ, {rng.choice(paths): rng.choice(coeffs)})
        b = PAElement(g, QQ, {rng.choice(paths): rng.choice(coeffs)})
        c = PAElement(g, QQ, {rng.choice(paths): rng.choice(coeffs)})
        assert pa_mul(pa_mul(a, b), c) == pa_mul(a, pa_mul(b, c))
        assert pa_mul(a + b, c) == pa_mul(a, c) + pa_mul(b, c)
        assert pa_mul(c, a + b) == pa_mul(c, a) + pa_mul(c, b)


def test_unit_single_vertex():
    g = Graph(["v"])
    assert pa_unit(g) == PAElement.basis(g, Path("v"))


def test_basis_refuses_what_is_not_a_path():
    """a: u->v and b: w->u, so a.b does not compose; the raw constructor
    stays unchecked, basis checks its one path."""
    g = Graph.build(["u", "v", "w"], [("a", "u", "v"), ("b", "w", "u")])
    with pytest.raises(GraphError, match="not a path: a ends at v, b starts at w"):
        PAElement.basis(g, Path("u", ("a", "b")))
    with pytest.raises(GraphError, match="unknown edge 'c'"):
        PAElement.basis(g, Path("u", ("c",)))
    with pytest.raises(GraphError, match="unknown vertex 'x'"):
        PAElement.basis(g, Path("x"))
    with pytest.raises(GraphError, match="e starts at v, not w"):
        PAElement.basis(EDGE, Path("w", ("e",)))
    assert str(PAElement.basis(g, Path("w", ("b", "a")))) == "1*chi[b.a]"


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_unit_is_two_sided_identity(seed):
    rng = case_rng(seed, 21)
    g = random_graph(rng, max_v=4, max_e=6)
    one = pa_unit(g)
    for p in paths_up_to(g, 3):
        chi = PAElement.basis(g, p)
        assert pa_mul(one, chi) == chi
        assert pa_mul(chi, one) == chi


def test_unit_of_disjoint_union_is_sum():
    f = Graph(["a"])
    g = Graph(["b"])
    u = union_graph(f, g)
    total = pa_unit(u)
    assert total.terms == {Path("a"): 1, Path("b"): 1}


def test_pullback_identity():
    h = GraphHom.identity(EDGE)
    chi = _chi(EDGE, "e")
    assert pa_pullback(h, chi) == chi


def test_pullback_discrete_fold():
    dom = Graph(["a", "b"])
    cod = Graph(["c"])
    h = GraphHom(dom, cod, {"a": "c", "b": "c"}, {})
    image = pa_pullback(h, PAElement.basis(cod, Path("c")))
    assert image.terms == {Path("a"): 1, Path("b"): 1}


def test_pullback_empty_preimage_is_zero():
    h = GraphHom.inclusion(Graph(["w"]), EDGE)
    assert pa_pullback(h, _chi(EDGE, "e")).is_zero()
    assert pa_pullback(h, _chi(EDGE, vertex="v")).is_zero()


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_pullback_is_algebra_hom_unital_graded(seed):
    rng = case_rng(seed, 22)
    cod = random_graph(rng, max_v=4, max_e=5)
    h = random_general_hom(rng, cod)
    paths = paths_up_to(cod, 3)
    for _ in range(6):
        a = PAElement.basis(cod, rng.choice(paths))
        b = PAElement.basis(cod, rng.choice(paths))
        assert pa_pullback(h, pa_mul(a, b)) == \
            pa_mul(pa_pullback(h, a), pa_pullback(h, b))
    assert pa_pullback(h, pa_unit(cod)) == pa_unit(h.domain)
    for p in paths[:10]:
        image = pa_pullback(h, PAElement.basis(cod, p))
        assert all(q.length == p.length for q in image.terms)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_pullback_contravariant(seed):
    rng = case_rng(seed, 23)
    cod = random_graph(rng, max_v=3, max_e=4)
    outer = random_general_hom(rng, cod)
    inner = random_general_hom(rng, outer.domain)
    comp = compose(outer, inner)
    for p in paths_up_to(cod, 3)[:12]:
        chi = PAElement.basis(cod, p)
        assert pa_pullback(comp, chi) == \
            pa_pullback(inner, pa_pullback(outer, chi))


def test_verify_disjoint_union_exact():
    e_graph = Graph.build(["a", "b"], [("e1", "a", "b")])
    f_graph = Graph.build(["c"], [])
    empty = Graph(())
    f = GraphHom(empty, e_graph, {}, {})
    g = GraphHom(empty, f_graph, {}, {})
    report = verify_path_pullback(f, g, 4)
    assert report.ok and report.exact
    assert sum(d.dim_pushout for d in report.degrees) == 3 + 1


def test_verify_wedge_gluing_exact_dimension_five():
    """Two single-edge graphs glued at their sources satisfy all three
    hypotheses; both routes give dimension 5."""
    e_graph = Graph.build(["v", "w"], [("e", "v", "w")])
    f_graph = Graph.build(["vp", "wp"], [("ep", "vp", "wp")])
    point = Graph(["z"])
    f = GraphHom(point, e_graph, {"z": "v"}, {})
    g = GraphHom(point, f_graph, {"z": "vp"}, {})
    report = verify_path_pullback(f, g, 4)
    assert report.ok and report.exact
    assert sum(d.dim_pushout for d in report.degrees) == 5
    assert sum(d.dim_fiber for d in report.degrees) == 5


def test_verify_fails_on_coproduct_in_place_of_pushout(monkeypatch):
    """The coproduct keeps v and vp apart, so it is no pushout of the wedge:
    its degree 0 does not match the 3-dimensional fiber product."""
    e_graph = Graph.build(["v", "w"], [("e", "v", "w")])
    f_graph = Graph.build(["vp", "wp"], [("ep", "vp", "wp")])
    point = Graph(["z"])
    f = GraphHom(point, e_graph, {"z": "v"}, {})
    g = GraphHom(point, f_graph, {"z": "vp"}, {})
    empty = Graph([])
    cop = pushout_square(GraphHom.inclusion(empty, e_graph),
                         GraphHom.inclusion(empty, f_graph))
    monkeypatch.setattr(path_algebra, "pushout_square", lambda f, g: cop)
    report = verify_path_pullback(f, g, 2)
    assert not report.ok
    assert report.degrees[0] == DegreeCheck(degree=0, dim_pushout=4, dim_image=4,
                                            dim_fiber=3)
    assert all(d.ok for d in report.degrees[1:])


def test_verify_refuses_two_path_gluing():
    """Gluing target to source composes edges of different colors, so the
    one-color hypothesis fails and the verifier must refuse."""
    e_graph = Graph.build(["v", "w"], [("e", "v", "w")])
    f_graph = Graph.build(["vp", "wp"], [("ep", "vp", "wp")])
    point = Graph(["z"])
    f = GraphHom(point, e_graph, {"z": "w"}, {})
    g = GraphHom(point, f_graph, {"z": "vp"}, {})
    with pytest.raises(PreconditionError) as err:
        verify_path_pullback(f, g, 4)
    assert err.value.flag == "one_color"


def test_verify_loop_instance_truncated():
    ident = GraphHom.identity(LOOP)
    report = verify_path_pullback(ident, ident, 4)
    assert report.ok and not report.exact
    assert [d.dim_pushout for d in report.degrees] == [1, 1, 1, 1, 1]


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_verify_random_acyclic_instances(seed):
    f, g = path_theorem_instance(case_rng(seed, 24))
    report = verify_path_pullback(f, g, 4)
    assert report.ok


def _fiber_rank_oracle(f, g, n):
    """Degree -> rank over Q of the fiber's constraint rows {f(q): 1,
    g(q): -1}, one per path q of G of that length, over the paths of
    E ⊔ F.  The verifier counts the fiber as |E_d| + |F_d| - |G_d|
    instead, which needs this rank to be |G_d|."""
    rows = [[] for _ in range(n + 1)]
    cols = {}
    for q in paths_up_to(f.domain, n):
        e = cols.setdefault(("E", induced_path_map(f, q)), len(cols))
        x = cols.setdefault(("F", induced_path_map(g, q)), len(cols))
        rows[q.length].append({e: 1, x: -1})
    return [rank(r, 0) for r in rows]


def _path_counts(g, n):
    """Length -> the number of paths of g of that length, up to n."""
    return Counter(p.length for p in paths_up_to(g, n))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([one_color_instance, path_theorem_instance]))
def test_fiber_count_matches_the_rank_oracle(seed, instance):
    f, g = instance(case_rng(seed, 25))
    try:
        report = verify_path_pullback(f, g, 4)
    except PreconditionError:
        assume(False)
    ranks = _fiber_rank_oracle(f, g, 4)
    counts_e, counts_f, counts_g = (_path_counts(x, 4)
                                    for x in (f.codomain, g.codomain, f.domain))
    for deg in report.degrees:
        d = deg.degree
        assert ranks[d] == counts_g[d]
        assert deg.dim_fiber == counts_e[d] + counts_f[d] - ranks[d]


def test_exact_and_pushout_dimensions_match_the_enumerated_pushout():
    """EXACT is "acyclic, and n bounds the longest path" by a topological
    sort, the degrees are 0..min(n, L), and each dim_pushout is the number
    of P's listed paths of that length; acyclic P run at n = L - 1, L and
    L + 1 for its longest path L, cyclic P at n = 1, 2 and 3."""
    kinds = Counter()
    for case in range(40):
        for instance in (one_color_instance, path_theorem_instance):
            f, g = instance(case_rng(9, case))
            P = pushout_square(f, g).graph
            acyclic = topological_order(P) is not None
            longest = longest_by_order(P) if acyclic else 2
            for n in range(max(longest - 1, 0), longest + 2):
                try:
                    report = verify_path_pullback(f, g, n)
                except PreconditionError:
                    break
                kinds[acyclic, report.exact] += 1
                assert report.exact == (acyclic and longest <= n)
                counts = _path_counts(P, n)
                degrees = range(min(n, longest) + 1 if acyclic else n + 1)
                assert [d.degree for d in report.degrees] == list(degrees)
                assert [d.dim_pushout for d in report.degrees] == [counts[d] for d in degrees]
    assert kinds.keys() == {(True, True), (True, False), (False, False)}


def test_fiber_count_needs_one_injective_leg():
    """Duplicated domain edges collapsed on both legs make neither leg
    injective on edges: two constraint rows coincide, the rank falls short
    of |G_1| and the count would be wrong, so the verifier refuses by
    one_sided_injectivity.  Only draws whose domain has an edge to
    duplicate are kept."""
    draws = []
    for case in range(80):
        rng = case_rng(4, case)
        legs = collapse_duplicate_edges(rng, one_color_instance(rng, need_one_sided=True))
        if legs[0].domain.edges:
            draws.append(legs)
    assert len(draws) >= 30
    for f, g in draws:
        ranks = _fiber_rank_oracle(f, g, 2)
        counts = _path_counts(f.domain, 2)
        assert any(r < counts[d] for d, r in enumerate(ranks))
        with pytest.raises(PreconditionError) as err:
            verify_path_pullback(f, g, 2)
        assert err.value.flag == "one_sided_injectivity"


def test_verify_loop_union_truncated_components_match():
    """A shared loop with one pendant edge on each side: infinitely many
    paths, so the verdict is truncated, but every graded component up to the
    bound must match the fiber product exactly."""
    d_graph = Graph.build(["u"], [("l", "u", "u")])
    e_graph = Graph.build(["u", "x"], [("l", "u", "u"), ("ex", "u", "x")])
    f_graph = Graph.build(["u", "y"], [("l", "u", "u"), ("ey", "u", "y")])
    f = GraphHom.inclusion(d_graph, e_graph)
    g = GraphHom.inclusion(d_graph, f_graph)
    report = verify_path_pullback(f, g, 4)
    assert report.ok and not report.exact
    for deg in report.degrees:
        assert deg.dim_fiber == deg.dim_pushout
