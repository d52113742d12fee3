"""Wrong pushout squares that the Leavitt pullback verifier must reject.

Each fault replaces leavitt.pushout_square with a square that is not the
pushout, so a verdict of ok would mean that the obligations named in the
expected failures cannot say no.

The verifier decides obligations (2), (3) and commutativity on fibers.  A
slow oracle here decides them in the algebra, by pulling back each
generator as an element, and every verdict below, faulty or not, must
agree with it."""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from quivpush import leavitt
from quivpush.cli import main
from quivpush.fields import QQ, field_from_name
from quivpush.graph import Graph
from quivpush.jsonio import hom_to_obj, save_json
from quivpush.leavitt import (edge_monomial, generator_monomials, ghost_monomial,
                              ker_generators, l_pullback, monomial_element,
                              verify_leavitt_pullback, vertex_monomial)
from quivpush.morphism import GraphHom
from quivpush.pushout import pushout_square
from quivpush.randgen import admpush_instance, case_rng, leavitt_union_instance

EXTRA = "extra"
FIBER_OBLIGATIONS = ("surjectivity", "kernel-vertex", "commutes")


def _image_monomial(h, mono):
    """The generator of L(codomain) that h sends the generator mono to."""
    cod = h.codomain
    if mono.total == 0:
        return vertex_monomial(h.f0[mono.alpha.vertex])
    if mono.beta.is_vertex:
        return edge_monomial(cod, h.f1[mono.alpha.edges[0]])
    return ghost_monomial(cod, h.f1[mono.beta.edges[0]])


def _algebra_obligations(f, g, po, field):
    """The failures of obligations (2), (3) and commutativity, in report
    order, decided in the algebras over field: (2) pulls the image of each
    generator back along f and iota_F, (3) pulls the idempotent of each
    kernel vertex's class back along both injections, and commutativity
    pulls each generator of L(P) back through both composites."""
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


def _verify_against_oracle(f, g, n, field=QQ):
    """verify_leavitt_pullback's report, after checking its fiber
    obligations against _algebra_obligations on the same square."""
    report = verify_leavitt_pullback(f, g, n, field)
    want = _algebra_obligations(f, g, leavitt.pushout_square(f, g), field)
    assert [x for x in report.failures if x[0] in FIBER_OBLIGATIONS] == want
    kinds = {x[0] for x in want}
    assert report.surjectivity_ok == ("surjectivity" not in kinds)
    assert report.kernel_ok == ("kernel-vertex" not in kinds)
    assert report.commutes_ok == ("commutes" not in kinds)
    return report


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([leavitt_union_instance, admpush_instance]),
       st.sampled_from(["q", "fp:2"]))
def test_fiber_obligations_match_the_algebra(seed, instance, field_name):
    f, g = instance(case_rng(seed, 43))
    assert _verify_against_oracle(f, g, 1, field_from_name(field_name)).ok


def _with_isolated_vertex(f, g):
    """The true square with one isolated vertex added to P; both injections
    are the true ones, retargeted to the larger P.  Nothing maps onto the
    new vertex, so its idempotent pulls back to zero on both sides."""
    po = pushout_square(f, g)
    p = po.graph
    assert EXTRA not in p.vertices
    bigger = Graph(p.vertices | {EXTRA}, p.edges, p.src, p.tgt)
    return dataclasses.replace(
        po, graph=bigger,
        iota_left=GraphHom(po.iota_left.domain, bigger, po.iota_left.f0, po.iota_left.f1),
        iota_right=GraphHom(po.iota_right.domain, bigger, po.iota_right.f0,
                            po.iota_right.f1))


@pytest.mark.parametrize("case", range(10))
def test_extra_pushout_vertex_fails_kerint_and_window(monkeypatch, case):
    f, g = leavitt_union_instance(case_rng(5, case))
    assert verify_leavitt_pullback(f, g, 3).ok
    monkeypatch.setattr(leavitt, "pushout_square", _with_isolated_vertex)
    report = _verify_against_oracle(f, g, 3)
    assert not report.ok
    assert not report.kerint_ok and not report.window_consistent()
    assert ("kerint", [EXTRA]) in report.failures
    assert {item[0] for item in report.failures} == {"kerint", "window"}
    # the extra vertex idempotent is the one column of degree 0 the image loses
    zero = next(w for w in report.window_checks if w.degree == 0)
    assert not zero.injective and zero.dim_image == zero.dim_window - 1


def test_cli_exits_1_and_lists_failures_on_a_wrong_square(monkeypatch, tmp_path, capsys):
    f, g = leavitt_union_instance(case_rng(5, 0))
    fp, gp = str(tmp_path / "f.json"), str(tmp_path / "g.json")
    save_json(fp, hom_to_obj(f))
    save_json(gp, hom_to_obj(g))
    argv = ["verify", "--leavitt", fp, gp, "--max-degree", "3"]
    assert main(argv) == 0
    assert "failures" not in json.loads(capsys.readouterr().out)
    monkeypatch.setattr(leavitt, "pushout_square", _with_isolated_vertex)
    assert main(argv) == 1
    cert = json.loads(capsys.readouterr().out)
    assert cert["ok"] is False
    assert ["kerint", str([EXTRA])] in cert["failures"]
    assert {item[0] for item in cert["failures"]} == {"kerint", "window"}
    checks = {c["name"]: c["ok"] for c in cert["checks"]}
    assert not checks["kernel_intersection"] and not checks["window_cross_check"]


# G = {}, E = {a}, F = {b1, b2} with empty legs: the true pushout is
# {a, b1, b2}.  Each square below maps E and F into a P with two vertices.
LONELY_E, TWIN_F = Graph(["a"]), Graph(["b1", "b2"])
EMPTY_LEGS = (GraphHom(Graph(()), LONELY_E, {}, {}), GraphHom(Graph(()), TWIN_F, {}, {}))


def _square(p_vertices, iota_e_f0, iota_f_f0):
    """A pushout_square stand-in with the edgeless P and injections given."""
    def square(f, g):
        p = Graph(p_vertices)
        return dataclasses.replace(
            pushout_square(f, g), graph=p,
            iota_left=GraphHom(f.codomain, p, iota_e_f0, {}),
            iota_right=GraphHom(g.codomain, p, iota_f_f0, {}))
    return square


@pytest.mark.parametrize("square, failures", [
    # b1 and b2 merge in P: neither is the whole pullback of b
    (_square(["a", "b"], {"a": "a"}, {"b1": "b", "b2": "b"}),
     (("surjectivity", "iota_F", "b1"), ("surjectivity", "iota_F", "b2"))),
    # a, outside the image of f, shares its class with b1 from F
    (_square(["ab", "b2"], {"a": "ab"}, {"b1": "ab", "b2": "b2"}),
     (("kernel-vertex", "a"),)),
], ids=["merged-twins", "kernel-vertex-hit-from-F"])
@pytest.mark.parametrize("field_name", ["q", "fp:2"])
def test_two_vertex_squares_fail_one_fiber_obligation(monkeypatch, square, failures,
                                                      field_name):
    f, g = EMPTY_LEGS
    field = field_from_name(field_name)
    assert _verify_against_oracle(f, g, 2, field).ok
    monkeypatch.setattr(leavitt, "pushout_square", square)
    report = _verify_against_oracle(f, g, 2, field)
    assert not report.ok and report.failures == failures
    assert report.kerint_ok and report.breakarrow_ok and report.commutes_ok
    assert report.surjectivity_ok != report.kernel_ok
    # the truncated window cannot see either fault: it only asks for
    # dim_image <= dim_fiber, and the image falls one short of the fiber
    assert report.window_consistent()
    zero = next(w for w in report.window_checks if w.degree == 0)
    assert (zero.dim_window, zero.dim_image, zero.dim_fiber) == (2, 2, 3)


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
    return dataclasses.replace(po, graph=p, iota_left=injection("E", E),
                               iota_right=injection("F", F))


@pytest.mark.parametrize("case", range(10))
def test_coproduct_square_fails_commutes(monkeypatch, case):
    f, g = leavitt_union_instance(case_rng(5, case))
    monkeypatch.setattr(leavitt, "pushout_square", _coproduct)
    report = _verify_against_oracle(f, g, 2)
    assert not report.ok and not report.commutes_ok
    assert report.kerint_ok and report.surjectivity_ok and report.kernel_ok
    reached = {"E." + f.f0[v] for v in f.domain.vertices}
    assert {("commutes", q) for q in reached} <= set(report.failures)
