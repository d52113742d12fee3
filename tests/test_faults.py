"""Wrong pushout squares that the Leavitt and path pullback verifiers and
the path comparison map must reject.

Each fault replaces leavitt.pushout_square, path_algebra.pushout_square or
cli.pushout_square with a square that is not the pushout, so a verdict of
ok would mean that the obligations named in the expected failures cannot
say no.

The Leavitt verifier decides obligations (2), (3) and commutativity on
fibers.  A slow oracle here decides them in the algebra, by pulling back
each generator as an element, and every Leavitt verdict below, faulty or
not, must agree with it."""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st
from test_leavitt import _window_sizes
from test_path_algebra import _path_counts

from quivpush import cli, leavitt, path_algebra
from quivpush.cli import LEAVITT_CHECKS, main
from quivpush.fields import QQ, field_from_name
from quivpush.graph import Graph, GraphError
from quivpush.jsonio import hom_to_obj, save_json
from quivpush.leavitt import (edge_monomial, generator_monomials, ghost_monomial,
                              ker_generators, l_pullback, monomial_element,
                              verify_leavitt_pullback, vertex_monomial)
from quivpush.morphism import GraphHom
from quivpush.pushout import (PreconditionError, breakarrow_identity, path_pushout_compare,
                              pushout_square)
from quivpush.randgen import (admpush_instance, case_rng, leavitt_union_instance,
                              one_color_instance)

EXTRA = "extra"
FIBER_OBLIGATIONS = ("surjectivity", "kernel-vertex", "commutes")


def _image_monomial(h, mono):
    """The generator of L(codomain) that h sends the generator mono to."""
    cod = h.codomain
    if mono.total == 0:
        return vertex_monomial(h.f0[mono.alpha.start])
    if not mono.beta.edges:
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
    for obligation in FIBER_OBLIGATIONS:
        assert report.holds(obligation) == (obligation not in kinds)
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
    assert not report.holds("kerint") and not report.holds("window")
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


# b1 and b2 merge in P: neither is the whole pullback of b
MERGED_TWINS = _square(["a", "b"], {"a": "a"}, {"b1": "b", "b2": "b"})
# a, outside the image of f, shares its class with b1 from F
KERNEL_HIT_FROM_F = _square(["ab", "b2"], {"a": "ab"}, {"b1": "ab", "b2": "b2"})


@pytest.mark.parametrize("square, failures", [
    (MERGED_TWINS, (("surjectivity", "iota_F", "b1"), ("surjectivity", "iota_F", "b2"))),
    (KERNEL_HIT_FROM_F, (("kernel-vertex", "a"),)),
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
    assert report.holds("kerint") and report.holds("commutes")
    assert report.holds("surjectivity") != report.holds("kernel-vertex")
    # the truncated window cannot see either fault: it only asks for
    # dim_image <= dim_fiber, and the image falls one short of the fiber
    assert report.holds("window")
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
    """The coproduct also reaches the fiber count: its image is all of
    E_d ⊕ F_d, which exceeds the fiber |E_d| + |F_d| - |G_d| by |G_d|."""
    f, g = leavitt_union_instance(case_rng(5, case))
    monkeypatch.setattr(leavitt, "pushout_square", _coproduct)
    report = _verify_against_oracle(f, g, 2)
    assert not report.ok and not report.holds("commutes")
    assert all(report.holds(x) for x in ("kerint", "surjectivity", "kernel-vertex"))
    reached = {"E." + f.f0[v] for v in f.domain.vertices}
    assert {("commutes", q) for q in reached} <= set(report.failures)
    window_g = _window_sizes(f.domain, 2)
    for w in report.window_checks:
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
    return dataclasses.replace(po, graph=merged, iota_left=merge(po.iota_left),
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


# A degree is surjective only if it commutes, so a square that does not
# commute also fails surjective.
@pytest.mark.parametrize("square, fails", [
    # the extra vertex idempotent is in the pushout but in no image
    (_with_isolated_vertex, {"injective"}),
    # the merged vertex has one image where the fiber product has two
    (_merged_isolated, {"surjective"}),
    (_coproduct, {"commutes", "surjective"}),
], ids=["extra-vertex", "merged-isolated", "coproduct"])
def test_wrong_squares_fail_one_path_obligation(monkeypatch, square, fails):
    draws = [(f, g) for f, g in _one_color_draws() if _applies(square, f, g)]
    assert len(draws) >= 10
    monkeypatch.setattr(path_algebra, "pushout_square", square)
    for f, g in draws:
        report = path_algebra.verify_path_pullback(f, g, 3)
        assert not report.ok
        assert {kind for d in report.degrees
                for kind in ("commutes", "injective", "surjective")
                if not getattr(d, kind)} == fails


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
    assert not failing[0]["injective"]
    assert failing[0]["commutes"] and failing[0]["surjective"]


def test_comparison_map_is_ill_defined_on_the_coproduct_square(monkeypatch, tmp_path,
                                                                 capsys):
    """On the coproduct square a path q of G joins E:f(q) and F:g(q) in one
    class of the path-set pushout, but P keeps them apart: the natural path
    map has two values on that class, and pushout --check-h fails with an
    error instead of a certificate."""
    f, g = _one_color_draws()[0]
    assert f.domain.vertices
    with pytest.raises(GraphError, match="natural path map ill defined on class of E:"):
        path_pushout_compare(f, g, 2, _coproduct(f, g))
    fp, gp = str(tmp_path / "f.json"), str(tmp_path / "g.json")
    save_json(fp, hom_to_obj(f))
    save_json(gp, hom_to_obj(g))
    argv = ["pushout", fp, gp, "--check-h", "2"]
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "pushout_square", _coproduct)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: natural path map ill defined")
    assert not captured.out


def _fault_reports(monkeypatch):
    """(f, g, square, the Leavitt verifier's report) for every fault square
    of this module, over the draws its tests use, except where the legs
    are refused."""
    draws = ([leavitt_union_instance(case_rng(5, case)) for case in range(10)]
             + _one_color_draws())
    squares = [(f, g, square) for f, g in draws
               for square in (_with_isolated_vertex, _coproduct, _merged_isolated)
               if _applies(square, f, g)]
    squares += [(*EMPTY_LEGS, MERGED_TWINS), (*EMPTY_LEGS, KERNEL_HIT_FROM_F)]
    reports = []
    for f, g, square in squares:
        monkeypatch.setattr(leavitt, "pushout_square", square)
        try:
            reports.append((f, g, square, verify_leavitt_pullback(f, g, 2)))
        except PreconditionError:
            pass
    return reports


def test_breakarrow_fails_only_with_kernel_or_commutes(monkeypatch):
    """At a uniquely covered vertex w of E the two sides of the breaking-
    arrow identity can differ only on an edge e from w whose target t(e)
    is outside f(G) while its class lies in the image of iota_F, where
    kernel-vertex fails at t(e), or is some f(z) while its class does not,
    where the square does not commute at z.  So on no fault square does
    the identity fail while the verifier's kernel-vertex and commutes both
    hold, and the verifier does not check it."""
    failing = [report for f, g, square, report in _fault_reports(monkeypatch)
               if not breakarrow_identity(f, square(f, g))[0]]
    assert failing
    for r in failing:
        assert not r.holds("kernel-vertex") or not r.holds("commutes"), r.failures


def test_every_leavitt_certificate_check_can_fail(monkeypatch):
    """Each obligation that a verify --leavitt certificate reports is false
    on some fault square of this module."""
    reports = [report for *_, report in _fault_reports(monkeypatch)]
    obligations = [obligation for _, obligation in LEAVITT_CHECKS] + ["window"]
    assert obligations == ["kerint", "surjectivity", "kernel-vertex", "commutes", "window"]
    for obligation in obligations:
        assert any(not r.holds(obligation) for r in reports), obligation
