"""Seeded randomized suites for the library's theorems and invariants.

Each suite draws one instance satisfying its hypotheses and checks the
claimed conclusion.  Failures are minimized by greedy vertex/edge deletion
preserving the failure, then reported as findings; the admpush suite in
particular treats its closure property as a conjecture to probe, never as
an assumption.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import Graph, intersection_graph, paths_up_to, union_graph
from .morphism import (GraphHom, classify_hom, compose, is_admissible,
                       admissible_equiv_crtbpog)
from .pushout import (breakarrow_identity, check_theorem_preconditions,
                      path_pushout_compare, pushout_square)
from .path_algebra import PAElement, pa_mul, pa_pullback, pa_unit
from .leavitt import (generator_monomials, ker_generators, l_mul, l_pullback, l_unit,
                      monomial_element, vertex_monomial)
from . import randgen


class CaseResult(NamedTuple):
    ok: bool
    detail: str = ""
    minimized: str = ""


def _restrict_hom(h: GraphHom, keep_dom_v, keep_dom_e) -> GraphHom:
    dom = randgen.restrict_graph(h.domain, keep_dom_v, keep_dom_e)
    return GraphHom(dom, h.codomain,
                    {v: h.f0[v] for v in dom.vertices},
                    {e: h.f1[e] for e in dom.edges})


def _shrink_codomain(h: GraphHom):
    """Candidate homs with one junk codomain vertex or edge removed."""
    cod = h.codomain
    used_v = h.vertex_image()
    used_e = h.edge_image()
    for e in sorted(cod.edges - used_e):
        yield GraphHom(h.domain,
                       randgen.restrict_graph(cod, cod.vertices, cod.edges - {e}),
                       dict(h.f0), dict(h.f1))
    for v in sorted(cod.vertices - used_v):
        incident = {e for e in cod.edges
                    if cod.src[e] == v or cod.tgt[e] == v}
        if incident & used_e:
            continue
        yield GraphHom(h.domain, randgen.restrict_graph(cod, cod.vertices - {v}),
                       dict(h.f0), dict(h.f1))


def _greedy(fails, state, candidates):
    """Replace state by the first candidate that still fails and start over,
    until no candidate of the current state fails."""
    while True:
        for cand in candidates(*state):
            if fails(*cand):
                state = cand
                break
        else:
            return state


def _leg_candidates(f: GraphHom, g: GraphHom):
    dom = f.domain
    for e in sorted(dom.edges):
        yield (_restrict_hom(f, dom.vertices, dom.edges - {e}),
               _restrict_hom(g, dom.vertices, dom.edges - {e}))
    for v in sorted(dom.vertices):
        keep_v = dom.vertices - {v}
        yield _restrict_hom(f, keep_v, dom.edges), _restrict_hom(g, keep_v, dom.edges)
    for cand_f in _shrink_codomain(f):
        yield cand_f, g
    for cand_g in _shrink_codomain(g):
        yield f, cand_g


def minimize_legs(fails, f: GraphHom, g: GraphHom):
    """Greedy deletion preserving failure: shared-domain vertices/edges, then
    junk in either codomain."""
    return _greedy(fails, (f, g), _leg_candidates)


def _graph_shrinks(graph: Graph):
    for e in sorted(graph.edges):
        yield randgen.restrict_graph(graph, graph.vertices, graph.edges - {e})
    for v in sorted(graph.vertices):
        yield randgen.restrict_graph(graph, graph.vertices - {v})


def _graph_pair_candidates(f_graph: Graph, g_graph: Graph):
    for cand in _graph_shrinks(f_graph):
        yield cand, g_graph
    for cand in _graph_shrinks(g_graph):
        yield f_graph, cand


def minimize_graph_pair(fails, f_graph: Graph, g_graph: Graph):
    """Greedy deletion on either graph preserving failure and validity."""
    return _greedy(fails, (f_graph, g_graph), _graph_pair_candidates)


def _show_legs(f: GraphHom, g: GraphHom) -> str:
    return (f"domain={f.domain!r} left={f.codomain!r} right={g.codomain!r} "
            f"f=({f.f0},{f.f1}) g=({g.f0},{g.f1})")


def suite_composition(rng) -> CaseResult:
    outer, inner = randgen.composable_tb_pair(rng)
    comp = compose(outer, inner)
    cls = classify_hom(comp)
    ok = cls.target_bijective
    return CaseResult(ok, "" if ok else f"composite not TB: {_show_legs(outer, inner)}")


def suite_admissible_equiv(rng) -> CaseResult:
    h = randgen.random_injective_hom(rng, tails=rng.random() < 0.3)
    ok = admissible_equiv_crtbpog(h)
    return CaseResult(ok, "" if ok else
                      f"admissible != CRTBPOG on {_show_legs(h, h)}")


def suite_captocup(rng) -> CaseResult:
    f_graph, g_graph = randgen.captocup_pair(rng, tails=True)

    def fails(fg, gg):
        inter = intersection_graph(fg, gg)
        if not (is_admissible(GraphHom.inclusion(inter, fg)).strongly
                and is_admissible(GraphHom.inclusion(inter, gg)).strongly):
            return False
        u = union_graph(fg, gg)
        return not (is_admissible(GraphHom.inclusion(fg, u)).strongly
                    and is_admissible(GraphHom.inclusion(gg, u)).strongly)

    if not fails(f_graph, g_graph):
        return CaseResult(True)
    small = minimize_graph_pair(fails, f_graph, g_graph)
    return CaseResult(False, "union not strongly admissible",
                      f"F={small[0]!r} G={small[1]!r}")


def suite_admpush(rng) -> CaseResult:
    f, g = randgen.admpush_instance(rng)

    def fails(ff, gg):
        if ff.problems or gg.problems:
            return False
        cf, cg = classify_hom(ff), classify_hom(gg)
        if not (cf.target_bijective and cf.regular and cg.target_bijective
                and cg.regular):
            return False
        if not (cf.injective or cg.injective):
            return False
        po = pushout_square(ff, gg)
        ce = classify_hom(po.iota_left)
        cf2 = classify_hom(po.iota_right)
        return not (ce.target_bijective and ce.regular
                    and cf2.target_bijective and cf2.regular)

    if not fails(f, g):
        return CaseResult(True)
    small = minimize_legs(fails, f, g)
    return CaseResult(False, "pushout injections lost regularity or target bijectivity",
                      _show_legs(*small))


def suite_h_bijective(rng) -> CaseResult:
    f, g = randgen.one_color_instance(rng)
    if path_pushout_compare(f, g, 4, pushout_square(f, g)).bijective:
        return CaseResult(True)

    def fails(ff, gg):
        if ff.problems or gg.problems:
            return False
        po = pushout_square(ff, gg)
        flags = check_theorem_preconditions(ff, gg, po)
        if not (flags.vertex_injectivity and flags.one_color):
            return False
        return not path_pushout_compare(ff, gg, 4, po).bijective

    small = minimize_legs(fails, f, g)
    return CaseResult(False, "path comparison map not bijective",
                      _show_legs(*small))


def suite_pa_hom(rng) -> CaseResult:
    base = randgen.random_graph(rng, max_v=4, max_e=5, prefix="b")
    h = randgen.random_general_hom(rng, base)
    paths = paths_up_to(base, 3)
    if not paths:
        return CaseResult(True)
    for _ in range(6):
        p = rng.choice(paths)
        q = rng.choice(paths)
        a = PAElement.basis(base, p)
        b = PAElement.basis(base, q)
        lhs = pa_pullback(h, pa_mul(a, b))
        rhs = pa_mul(pa_pullback(h, a), pa_pullback(h, b))
        if lhs != rhs:
            return CaseResult(False, f"f*({p}.{q}) != f*({p})f*({q})",
                              _show_legs(h, h))
    if pa_pullback(h, pa_unit(base)) != pa_unit(h.domain):
        return CaseResult(False, "pullback not unital", _show_legs(h, h))
    return CaseResult(True)


def suite_lk_hom(rng) -> CaseResult:
    h = randgen.random_crtbpog_hom(rng)
    cod = h.codomain
    gens = [monomial_element(cod, m) for m in generator_monomials(cod)]
    if not gens:
        return CaseResult(True)
    for _ in range(6):
        a = rng.choice(gens)
        b = rng.choice(gens)
        lhs = l_pullback(h, l_mul(a, b))
        rhs = l_mul(l_pullback(h, a), l_pullback(h, b))
        if lhs != rhs:
            return CaseResult(False, "Leavitt pullback not multiplicative",
                              _show_legs(h, h))
    if l_pullback(h, l_unit(cod)) != l_unit(h.domain):
        return CaseResult(False, "Leavitt pullback not unital", _show_legs(h, h))
    return CaseResult(True)


def suite_kerver(rng) -> CaseResult:
    h = randgen.random_crtbpog_hom(rng)
    cod = h.codomain
    kernel = ker_generators(h)
    for v in sorted(cod.vertices):
        elem = l_pullback(h, monomial_element(cod, vertex_monomial(v)))
        if elem.is_zero() != (v in kernel):
            return CaseResult(False, f"kernel biconditional fails at {v}",
                              _show_legs(h, h))
    return CaseResult(True)


def suite_breakarrow(rng) -> CaseResult:
    f, g = randgen.one_color_instance(rng, need_one_sided=True)
    ok, witnesses = breakarrow_identity(f, pushout_square(f, g))
    if ok:
        return CaseResult(True)
    return CaseResult(False, f"breaking-arrow sets differ at {witnesses}",
                      _show_legs(f, g))


SUITES = {
    "composition": suite_composition,
    "admissible-equiv": suite_admissible_equiv,
    "captocup": suite_captocup,
    "admpush": suite_admpush,
    "h-bijective": suite_h_bijective,
    "pa-hom": suite_pa_hom,
    "lk-hom": suite_lk_hom,
    "kerver": suite_kerver,
    "breakarrow": suite_breakarrow,
}


def run_suite(name: str, seed: int, cases: int):
    """Run the suite SUITES[name]; returns (pass_count, list of
    (case index, failing CaseResult)) in case order."""
    suite = SUITES[name]
    failures = []
    passes = 0
    for i in range(cases):
        result = suite(randgen.case_rng(seed, i))
        if result.ok:
            passes += 1
        else:
            failures.append((i, result))
    return passes, failures
