"""Wrong pushout squares that the square's postconditions, the Leavitt and
path pullback verifiers and the path comparison map must reject.

Each fault replaces leavitt.pushout_square, path_algebra.pushout_square or
cli.pushout_square with a square that is not the pushout, or is handed
to _square_postconditions directly, so a verdict of ok would mean that the
check named in the expected failures cannot say no.

Given P1 and CRTBPOG legs, four facts hold on every square that
graph_pushout builds, by the proof in verify_leavitt_pullback's
docstring, so the verifier decides by its window cross-check alone and
_square_postconditions checks the four here, on fibers, after a fifth
that the proof takes as given: both injections are graph maps into P.  A
slow oracle decides three of them in the algebra, by pulling back each
generator as an element, and every square below, faulty or not, must
agree with it."""

import json

import pytest
from hypothesis import given, settings, strategies as st
from test_leavitt import _window_sizes
from test_path_algebra import _path_counts

from quivpush import cli, leavitt, path_algebra
from quivpush.cli import main
from quivpush.fields import QQ, field_from_name
from quivpush.graph import Graph, paths_up_to
from quivpush.jsonio import hom_to_obj, save_json
from quivpush.leavitt import (edge_monomial, generator_monomials, ghost_monomial,
                              ker_generators, l_pullback, monomial_element,
                              verify_leavitt_pullback, vertex_monomial)
from quivpush.morphism import GraphHom, _path_image, compose
from quivpush.path_algebra import DegreeCheck
from quivpush.pushout import (PreconditionError, breakarrow_identity, path_pushout_compare,
                              pushout_square)
from quivpush.randgen import (admpush_instance, case_rng, leavitt_union_instance,
                              one_color_instance)

EXTRA = "extra"
POSTCONDITIONS = ("graph-map", "kerint", "surjectivity", "kernel-vertex", "commutes")
FIBER_OBLIGATIONS = ("surjectivity", "kernel-vertex", "commutes")


def _fiber_mismatches(g, vertex_ok, edge_ok):
    """The generators of L(g) that fail a test on their vertex or edge,
    named as str names their monomials, in generator_monomials order: an
    edge e that fails is reported as e and then e*."""
    bad = [v for v in sorted(g.vertices) if not vertex_ok(v)]
    for e in sorted(g.edges):
        if not edge_ok(e):
            bad += [e, e + "*"]
    return bad


def _square_postconditions(f, g, po):
    """The failures of the five postconditions of the square po on the
    legs E <-f- G -g-> F, with f injective and both legs CRTBPOG, in this
    order, each a tuple that names its postcondition first:
      graph-map: each injection is a graph map into P (its problems, which
          the other four take to be empty);
      kerint: every vertex of P lifts to E or F (kernel intersection zero);
      surjectivity: each generator of L(F) pulls back from its image along
          iota_F (that of L(G) along f needs no check, as f is injective);
      kernel-vertex: the class of each vertex of E outside f's image is
          reached from no vertex of F and pulls back to that vertex alone;
      commutes: the square commutes on every generator of L(P).
    Along a CRTBPOG morphism a generator v, e or e* pulls back to the sum
    over its fiber, so the last three are decided on vertex_fibers and
    edge_fibers, the same over every field."""
    iota_e, iota_f = po.iota_left, po.iota_right
    failures = [("graph-map", side, problem)
                for side, iota in (("iota_E", iota_e), ("iota_F", iota_f))
                for problem in iota.problems]
    uncovered = po.graph.vertices - set(iota_e.f0.values()) - set(iota_f.f0.values())
    if uncovered:
        failures.append(("kerint", sorted(uncovered)))
    # x pulls back from iota_F(x) iff x alone maps there
    vfib, efib = iota_f.vertex_fibers, iota_f.edge_fibers
    failures += [("surjectivity", "iota_F", x) for x in _fiber_mismatches(
        iota_f.domain, lambda v: vfib[iota_f.f0[v]] == (v,),
        lambda e: efib[iota_f.f1[e]] == (e,))]
    # the idempotent of q = iota_E(v) pulls back to v along iota_E and to 0
    # along iota_F
    for v in sorted(ker_generators(f)):
        q = iota_e.f0[v]
        if q in iota_f.vertex_fibers or iota_e.vertex_fibers[q] != (v,):
            failures.append(("kernel-vertex", v))
    left, right = compose(iota_e, f), compose(iota_f, g)
    failures += [("commutes", x) for x in _fiber_mismatches(
        po.graph,
        lambda q: left.vertex_fibers.get(q, ()) == right.vertex_fibers.get(q, ()),
        lambda e: left.edge_fibers.get(e, ()) == right.edge_fibers.get(e, ()))]
    return failures


def _image_monomial(h, mono):
    """The generator of L(codomain) that h sends the generator mono to."""
    cod = h.codomain
    if mono.total == 0:
        return vertex_monomial(h.f0[mono.alpha.start])
    if not mono.beta.edges:
        return edge_monomial(cod, h.f1[mono.alpha.edges[0]])
    return ghost_monomial(cod, h.f1[mono.beta.edges[0]])


def _algebra_obligations(f, g, po, field):
    """The failures of surjectivity, kernel-vertex and commutes, in
    _square_postconditions order, decided in the algebras over field:
    surjectivity pulls the image of each generator back along f and
    iota_F, kernel-vertex pulls the idempotent of each kernel vertex's
    class back along both injections, and commutes pulls each generator of
    L(P) back through both composites."""
    iota_e, iota_f = po.iota_left, po.iota_right
    failures = []
    for hom, side in ((f, "f"), (iota_f, "iota_F")):
        for mono in generator_monomials(hom.domain):
            image = monomial_element(hom.codomain, _image_monomial(hom, mono), field)
            if l_pullback(hom, image) != monomial_element(hom.domain, mono, field):
                failures.append(("surjectivity", side, str(mono)))
    for v in sorted(ker_generators(f)):
        lifted = monomial_element(po.graph, vertex_monomial(iota_e.f0[v]), field)
        if (not l_pullback(iota_f, lifted).is_zero()
                or l_pullback(iota_e, lifted)
                != monomial_element(f.codomain, vertex_monomial(v), field)):
            failures.append(("kernel-vertex", v))
    for mono in generator_monomials(po.graph):
        x = monomial_element(po.graph, mono, field)
        if l_pullback(f, l_pullback(iota_e, x)) != l_pullback(g, l_pullback(iota_f, x)):
            failures.append(("commutes", str(mono)))
    return failures


def _checked_postconditions(f, g, po, field=QQ):
    """_square_postconditions of the square, after checking its fiber
    obligations against _algebra_obligations on the same square."""
    failures = _square_postconditions(f, g, po)
    want = _algebra_obligations(f, g, po, field)
    assert [x for x in failures if x[0] in FIBER_OBLIGATIONS] == want
    return failures


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([leavitt_union_instance, admpush_instance]),
       st.sampled_from(["q", "fp:2"]))
def test_fiber_obligations_match_the_algebra(seed, instance, field_name):
    f, g = instance(case_rng(seed, 43))
    field = field_from_name(field_name)
    assert _checked_postconditions(f, g, pushout_square(f, g), field) == []
    assert verify_leavitt_pullback(f, g, 1, field).ok


def _with_isolated_vertex(f, g):
    """The true square with one isolated vertex added to P; both injections
    are the true ones, retargeted to the larger P.  Nothing maps onto the
    new vertex, so its idempotent pulls back to zero on both sides."""
    po = pushout_square(f, g)
    p = po.graph
    assert EXTRA not in p.vertices
    bigger = Graph(p.vertices | {EXTRA}, p.edges, p.src, p.tgt)
    return po._replace(
        graph=bigger,
        iota_left=GraphHom(po.iota_left.domain, bigger, po.iota_left.f0, po.iota_left.f1),
        iota_right=GraphHom(po.iota_right.domain, bigger, po.iota_right.f0,
                            po.iota_right.f1))


@pytest.mark.parametrize("case", range(10))
def test_extra_pushout_vertex_fails_kerint_and_window(monkeypatch, case):
    f, g = leavitt_union_instance(case_rng(5, case))
    assert verify_leavitt_pullback(f, g, 3).ok
    assert _checked_postconditions(f, g, _with_isolated_vertex(f, g)) == [("kerint", [EXTRA])]
    monkeypatch.setattr(leavitt, "pushout_square", _with_isolated_vertex)
    report = verify_leavitt_pullback(f, g, 3)
    # the extra vertex idempotent is the one monomial of P's window that the
    # image lacks, and the only degree that fails is 0
    assert [w.degree for w in report.degrees if not w.ok] == [0]
    zero = next(w for w in report.degrees if w.degree == 0)
    assert zero.dim_image == zero.dim_pushout - 1 == zero.dim_fiber


def _degree_rows(cert):
    """The checks of a verify certificate as (name, ok, dim_pushout,
    dim_image, dim_fiber), in order."""
    return [(c["name"], c["ok"], c["dim_pushout"], c["dim_image"], c["dim_fiber"])
            for c in cert["checks"]]


def test_cli_exits_1_and_lists_failures_on_a_wrong_square(monkeypatch, tmp_path, capsys):
    """On the extra-vertex and the coproduct square verify --leavitt fails
    through its degree_<d> checks: one per degree of the report, each with
    the report's three numbers, false exactly where they are not one."""
    f, g = leavitt_union_instance(case_rng(5, 0))
    fp, gp = str(tmp_path / "f.json"), str(tmp_path / "g.json")
    save_json(fp, hom_to_obj(f))
    save_json(gp, hom_to_obj(g))
    argv = ["verify", "--leavitt", fp, gp, "--max-degree", "3"]
    assert main(argv) == 0
    rows = _degree_rows(json.loads(capsys.readouterr().out))
    assert rows and all(ok for _, ok, *_ in rows)
    for square in (_with_isolated_vertex, _coproduct):
        monkeypatch.setattr(leavitt, "pushout_square", square)
        assert main(argv) == 1
        cert = json.loads(capsys.readouterr().out)
        assert cert["ok"] is False
        assert set(cert) == {"checks", "command", "inputs", "ok", "params", "version"}
        report = verify_leavitt_pullback(f, g, 3)
        assert _degree_rows(cert) == [(f"degree_{w.degree}", w.ok, *w[1:])
                                      for w in report.degrees]
        # a degree fails when P's window, the image and the fiber differ
        failing = [name for name, _, *dims in _degree_rows(cert) if len(set(dims)) > 1]
        assert failing and failing == [name for name, ok, *_ in _degree_rows(cert) if not ok]


# G = {}, E = {a}, F = {b1, b2} with empty legs: the true pushout is
# {a, b1, b2}.  Each square below maps E and F into a P with two vertices.
LONELY_E, TWIN_F = Graph(["a"]), Graph(["b1", "b2"])
EMPTY_LEGS = (GraphHom(Graph(()), LONELY_E, {}, {}), GraphHom(Graph(()), TWIN_F, {}, {}))


def _square(p_vertices, iota_e_f0, iota_f_f0):
    """A pushout_square stand-in with the edgeless P and injections given."""
    def square(f, g):
        p = Graph(p_vertices)
        return pushout_square(f, g)._replace(
            graph=p,
            iota_left=GraphHom(f.codomain, p, iota_e_f0, {}),
            iota_right=GraphHom(g.codomain, p, iota_f_f0, {}))
    return square


# b1 and b2 merge in P: neither is the whole pullback of b
MERGED_TWINS = _square(["a", "b"], {"a": "a"}, {"b1": "b", "b2": "b"})
# a, outside the image of f, shares its class with b1 from F
KERNEL_HIT_FROM_F = _square(["ab", "b2"], {"a": "ab"}, {"b1": "ab", "b2": "b2"})


@pytest.mark.parametrize("square, failures", [
    (MERGED_TWINS, [("surjectivity", "iota_F", "b1"), ("surjectivity", "iota_F", "b2")]),
    (KERNEL_HIT_FROM_F, [("kernel-vertex", "a")]),
], ids=["merged-twins", "kernel-vertex-hit-from-F"])
@pytest.mark.parametrize("field_name", ["q", "fp:2"])
def test_two_vertex_squares_fail_one_fiber_obligation(monkeypatch, square, failures,
                                                      field_name):
    f, g = EMPTY_LEGS
    field = field_from_name(field_name)
    assert _checked_postconditions(f, g, pushout_square(f, g), field) == []
    assert _checked_postconditions(f, g, square(f, g), field) == failures
    # the image fills the two-vertex P, but the fiber counts three vertices:
    # P is too small, so degree 0, the only degree of these edgeless
    # graphs, fails with (dim_pushout, dim_image, dim_fiber) = (2, 2, 3)
    monkeypatch.setattr(leavitt, "pushout_square", square)
    report = verify_leavitt_pullback(f, g, 2, field)
    assert not report.ok and report.exact
    assert report.degrees == (DegreeCheck(0, 2, 2, 3),)


# b1 and b2 merge in P, and P has a third vertex c that nothing maps to:
# P's window and the fiber have three vertices, the image one fewer
ONE_SHORT = _square(["a", "b", "c"], {"a": "a"}, {"b1": "b", "b2": "b"})

# G = {}, E = the loop e at a, F = the edge x: b0 -> b1 with empty legs:
# the true pushout is E and F side by side
LOOP_E = Graph.build(["a"], [("e", "a", "a")])
EDGE_F = Graph.build(["b0", "b1"], [("x", "b0", "b1")])
EDGE_LEGS = (GraphHom(Graph(()), LOOP_E, {}, {}), GraphHom(Graph(()), EDGE_F, {}, {}))


def _swapped_targets(f, g):
    """The true square on EDGE_LEGS with the targets of e and x swapped in
    P, which becomes the path b0 -x-> a -e-> b1; the injections keep their
    maps, so neither is a graph map into P any more, and of the
    postconditions only graph-map fails: the other four take it as given.
    P's window loses the loop's monomials eee and (eee)*, of degrees 3 and
    -3."""
    p = Graph.build(["a", "b0", "b1"], [("e", "a", "b1"), ("x", "b0", "a")])
    return pushout_square(f, g)._replace(
        graph=p, iota_left=GraphHom(f.codomain, p, {"a": "a"}, {"e": "e"}),
        iota_right=GraphHom(g.codomain, p, {"b0": "b0", "b1": "b1"}, {"x": "x"}))


def test_one_short_square_fails_kerint_and_surjectivity():
    f, g = EMPTY_LEGS
    assert _checked_postconditions(f, g, ONE_SHORT(f, g)) == [
        ("kerint", ["c"]), ("surjectivity", "iota_F", "b1"),
        ("surjectivity", "iota_F", "b2")]


def test_swapped_targets_fail_only_graph_map():
    """Of the postconditions, only graph-map sees _swapped_targets; the
    verdict's window sees it too (see
    test_cli_exits_1_on_the_stand_in_squares)."""
    f, g = EDGE_LEGS
    assert _square_postconditions(f, g, _swapped_targets(f, g)) == [
        ("graph-map", "iota_E", "edge e: target square fails"),
        ("graph-map", "iota_F", "edge x: target square fails")]
    assert verify_leavitt_pullback(f, g, 3).ok


@pytest.mark.parametrize("legs, square, n, failing", [
    (EMPTY_LEGS, MERGED_TWINS, 2, [DegreeCheck(0, 2, 2, 3)]),
    (EMPTY_LEGS, KERNEL_HIT_FROM_F, 2, [DegreeCheck(0, 2, 2, 3)]),
    (EMPTY_LEGS, ONE_SHORT, 2, [DegreeCheck(0, 3, 2, 3)]),
    (EDGE_LEGS, _swapped_targets, 3, [DegreeCheck(-3, 0, 1, 1), DegreeCheck(3, 0, 1, 1)]),
], ids=["merged-twins", "kernel-vertex-hit-from-F", "one-short", "swapped-targets"])
def test_cli_exits_1_on_the_stand_in_squares(monkeypatch, tmp_path, capsys, legs, square,
                                             n, failing):
    """verify --leavitt passes on the true square of legs and exits 1 on
    the stand-in, whose failing degree_<d> rows carry the numbers given."""
    paths = [str(tmp_path / "f.json"), str(tmp_path / "g.json")]
    for path, leg in zip(paths, legs):
        save_json(path, hom_to_obj(leg))
    argv = ["verify", "--leavitt", *paths, "--max-degree", str(n)]
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(leavitt, "pushout_square", square)
    assert main(argv) == 1
    rows = _degree_rows(json.loads(capsys.readouterr().out))
    assert [row for row in rows if not row[1]] == [
        (f"degree_{w.degree}", False, *w[1:]) for w in failing]


def _coproduct(f, g):
    """E and F side by side, with nothing glued: every id gets its side's
    prefix, so the square commutes on no generator that G reaches."""
    po = pushout_square(f, g)

    def tagged(side, x):
        return f"{side}.{x}"

    E, F = f.codomain, g.codomain
    src = {tagged(s, e): tagged(s, x.src[e]) for s, x in (("E", E), ("F", F)) for e in x.edges}
    tgt = {tagged(s, e): tagged(s, x.tgt[e]) for s, x in (("E", E), ("F", F)) for e in x.edges}
    p = Graph([tagged("E", v) for v in E.vertices] + [tagged("F", v) for v in F.vertices],
              src.keys(), src, tgt)

    def injection(side, x):
        return GraphHom(x, p, {v: tagged(side, v) for v in x.vertices},
                        {e: tagged(side, e) for e in x.edges})
    return po._replace(graph=p, iota_left=injection("E", E),
                       iota_right=injection("F", F))


@pytest.mark.parametrize("case", range(10))
def test_coproduct_square_fails_commutes(monkeypatch, case):
    """The coproduct also reaches the fiber count: its image is all of
    E_d ⊕ F_d, which exceeds the fiber |E_d| + |F_d| - |G_d| by |G_d|, so
    the verifier's window fails in every degree that G's window has."""
    f, g = leavitt_union_instance(case_rng(5, case))
    failures = _checked_postconditions(f, g, _coproduct(f, g))
    assert {item[0] for item in failures} == {"commutes"}
    reached = {"E." + f.f0[v] for v in f.domain.vertices}
    assert reached and {("commutes", q) for q in reached} <= set(failures)
    monkeypatch.setattr(leavitt, "pushout_square", _coproduct)
    report = verify_leavitt_pullback(f, g, 2)
    assert not report.ok
    window_g = _window_sizes(f.domain, 2)
    for w in report.degrees:
        assert w.dim_image - w.dim_fiber == window_g[w.degree]


def _isolated_vertices(p):
    """The vertices of p that no edge starts or ends at, sorted."""
    return sorted(p.vertices - {p.src[e] for e in p.edges} - {p.tgt[e] for e in p.edges})


def _merged_isolated(f, g):
    """The true square with the first two vertices of P that no edge
    touches merged into one; both injections are the true ones followed by
    the merge.  P must have two such vertices."""
    po = pushout_square(f, g)
    p = po.graph
    keep, drop = _isolated_vertices(p)[:2]
    merged = Graph(p.vertices - {drop}, p.edges, p.src, p.tgt)

    def merge(h):
        return GraphHom(h.domain, merged,
                        {v: keep if q == drop else q for v, q in h.f0.items()}, h.f1)
    return po._replace(graph=merged, iota_left=merge(po.iota_left),
                       iota_right=merge(po.iota_right))


def _applies(square, f, g):
    """Whether square can be built on the legs f, g: the merge needs two
    isolated vertices in P."""
    return (square is not _merged_isolated
            or len(_isolated_vertices(pushout_square(f, g).graph)) >= 2)


def _one_color_draws():
    """The first 40 one_color_instance draws at seed 112 whose true square
    verify --path accepts at n = 3 (29 of them); the others are refused."""
    draws = []
    for case in range(40):
        f, g = one_color_instance(case_rng(112, case))
        try:
            assert path_algebra.verify_path_pullback(f, g, 3).ok
        except PreconditionError:
            continue
        draws.append((f, g))
    return draws


def _broken_equalities(check):
    """Which of the two equalities of a DegreeCheck fail: "injective" when
    the image falls short of P's piece, "surjective" when it is not the
    fiber product."""
    return ({"injective"} if check.dim_image != check.dim_pushout else set()) | (
        {"surjective"} if check.dim_image != check.dim_fiber else set())


@pytest.mark.parametrize("square, fails", [
    # the extra vertex idempotent is in the pushout but in no image
    (_with_isolated_vertex, {"injective"}),
    # the merged vertex has one image where the fiber product has two
    (_merged_isolated, {"surjective"}),
    # the image is all of E_d + F_d, |G_d| more than the fiber
    (_coproduct, {"surjective"}),
], ids=["extra-vertex", "merged-isolated", "coproduct"])
def test_wrong_squares_fail_one_path_obligation(monkeypatch, square, fails):
    draws = [(f, g) for f, g in _one_color_draws() if _applies(square, f, g)]
    assert len(draws) >= 10
    monkeypatch.setattr(path_algebra, "pushout_square", square)
    for f, g in draws:
        report = path_algebra.verify_path_pullback(f, g, 3)
        assert not report.ok
        assert set().union(*map(_broken_equalities, report.degrees)) == fails


def test_coproduct_image_exceeds_the_path_fiber_by_g(monkeypatch):
    """On the coproduct square the image in each degree is all of
    E_d ⊕ F_d, |G_d| more than the counted fiber |E_d| + |F_d| - |G_d|."""
    draws = _one_color_draws()
    monkeypatch.setattr(path_algebra, "pushout_square", _coproduct)
    for f, g in draws:
        report = path_algebra.verify_path_pullback(f, g, 3)
        paths_g = _path_counts(f.domain, 3)
        for d in report.degrees:
            assert d.dim_image - d.dim_fiber == paths_g[d.degree]


def test_cli_verify_path_exits_1_on_a_wrong_square(monkeypatch, tmp_path, capsys):
    f, g = _one_color_draws()[0]
    fp, gp = str(tmp_path / "f.json"), str(tmp_path / "g.json")
    save_json(fp, hom_to_obj(f))
    save_json(gp, hom_to_obj(g))
    argv = ["verify", "--path", fp, gp, "--max-degree", "3"]
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(path_algebra, "pushout_square", _with_isolated_vertex)
    assert main(argv) == 1
    cert = json.loads(capsys.readouterr().out)
    assert cert["ok"] is False
    failing = [c for c in cert["checks"] if not c["ok"]]
    assert [c["name"] for c in failing] == ["degree_0"]
    # the extra vertex is in P's piece but not in the image, which is the
    # whole fiber product
    assert failing[0]["dim_image"] == failing[0]["dim_pushout"] - 1 == failing[0]["dim_fiber"]


def test_comparison_map_misses_g_on_the_coproduct_square(monkeypatch, tmp_path, capsys):
    """On the coproduct square a path q of G joins E:f(q) and F:g(q) in one
    class of the path-set pushout, but P keeps their images apart, so the
    square does not commute; only _square_postconditions checks that, as
    it holds on every square of graph_pushout.  The comparison map sends
    the class to the image of its first path, E.f(q), so where g is
    injective pushout --check-h exits 0 with a false verdict: the missing
    paths are the F.-prefixed images of g's paths, with no collision."""
    draws = [(f, g) for f, g in _one_color_draws() if g.classification.injective]
    assert len(draws) >= 10
    for f, g in draws:
        square = _coproduct(f, g)
        assert "commutes" in {x[0] for x in _square_postconditions(f, g, square)}
        reached = {str(_path_image(square.iota_right, _path_image(g, q)))
                   for q in paths_up_to(f.domain, 2)}
        report = path_pushout_compare(f, g, 2, square)
        assert not report.surjective and set(report.missing) == reached
        assert all(p.startswith("F.") for p in reached)
        assert report.injective and report.collisions == ()
    f, g = draws[0]
    fp, gp = str(tmp_path / "f.json"), str(tmp_path / "g.json")
    save_json(fp, hom_to_obj(f))
    save_json(gp, hom_to_obj(g))
    argv = ["pushout", fp, gp, "--check-h", "2"]
    monkeypatch.setattr(cli, "pushout_square", _coproduct)
    assert main(argv) == 0
    cert = json.loads(capsys.readouterr().out)
    check = next(c for c in cert["checks"] if c["name"] == "h_bijective_up_to_N")
    assert check["value"] is False and not check["surjective"]
    assert check["missing"] == list(path_pushout_compare(f, g, 2, _coproduct(f, g)).missing)
    assert check["collisions"] == []


def _fault_squares():
    """(f, g, square) for every fault square of this module, over the
    draws its tests use."""
    draws = ([leavitt_union_instance(case_rng(5, case)) for case in range(10)]
             + _one_color_draws())
    squares = [(f, g, square) for f, g in draws
               for square in (_with_isolated_vertex, _coproduct, _merged_isolated)
               if _applies(square, f, g)]
    stand_ins = [(*EMPTY_LEGS, square)
                 for square in (MERGED_TWINS, KERNEL_HIT_FROM_F, ONE_SHORT)]
    return squares + stand_ins + [(*EDGE_LEGS, _swapped_targets)]


def test_breakarrow_fails_only_with_kernel_or_commutes():
    """At a uniquely covered vertex w of E the two sides of the breaking-
    arrow identity can differ only on an edge e from w whose target t(e)
    is outside f(G) while its class lies in the image of iota_F, where
    kernel-vertex fails at t(e), or is some f(z) while its class does not,
    where the square does not commute at z.  That argument needs graph
    maps.  So on no fault square does the identity fail while the
    postconditions graph-map, kernel-vertex and commutes all hold, and
    neither they nor the verifier check it; graph-map fails on
    _swapped_targets alone."""
    failing = [(square, _square_postconditions(f, g, po)) for f, g, square in _fault_squares()
               if not breakarrow_identity(f, po := square(f, g))[0]]
    assert _swapped_targets in {square for square, _ in failing}
    for square, failures in failing:
        names = {x[0] for x in failures}
        assert ("graph-map" in names) == (square is _swapped_targets), failures
        assert {"graph-map", "kernel-vertex", "commutes"} & names, failures


def test_every_leavitt_certificate_check_can_fail(monkeypatch):
    """The window check of verify --leavitt, which its degree_<d> rows
    print, is false on some fault square of this module, and so is each of
    the five postconditions that hold by construction of a pushout
    square."""
    failed = set()
    for f, g, square in _fault_squares():
        failed |= {x[0] for x in _square_postconditions(f, g, square(f, g))}
        monkeypatch.setattr(leavitt, "pushout_square", square)
        if not verify_leavitt_pullback(f, g, 2).ok:
            failed.add("window")
    assert failed == {*POSTCONDITIONS, "window"}
