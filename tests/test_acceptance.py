"""Acceptance criteria, one test per criterion, full stated sample sizes.

Each test prints a single PASS/FAIL line (visible with pytest -s) including
the sample count and wall time; stated time budgets are asserted.
"""

import itertools
import time

from quivpush.fields import QQ
from quivpush.graph import Graph, paths_up_to, union_graph
from quivpush.morphism import (GraphHom, admissible_equiv_crtbpog, classify_hom,
                               compose, is_admissible, regular_vertices)
from quivpush.pushout import (check_theorem_preconditions, class_id,
                              path_pushout_compare, pushout_square, set_pushout)
from quivpush.path_algebra import (PAElement, pa_mul, pa_pullback, pa_unit,
                                   verify_path_pullback)
from quivpush.leavitt import (LElement, edge_monomial, ghost_monomial, l_mul,
                              l_pullback, monomial_element,
                              normal_monomials_window, verify_leavitt_pullback,
                              vertex_monomial)
from quivpush import randgen
from quivpush.proptest import run_suite
from test_graph import longest_by_order
from test_leavitt import (leavitt_dimension_enumerated, leavitt_dimension_oracle,
                          verify_descent)
from test_morphism import is_hereditary
from test_path_algebra import path_theorem_instance
from test_pushout import set_universal_map


def _report(number, name, ok, detail, limit=None, elapsed=None):
    stamp = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}{stamp}")
    assert ok, f"criterion {number} failed: {detail}"
    if limit is not None and elapsed is not None:
        assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.1f}s)"


def test_criterion_01_category_closure():
    start = time.time()
    good = 0
    for i in range(500):
        outer, inner = randgen.composable_tb_pair(randgen.case_rng(101, i))
        cls = classify_hom(compose(outer, inner))
        good += cls.target_bijective
    _report(1, "category-closure", good == 500, f"{good}/500",
            limit=10, elapsed=time.time() - start)


def test_criterion_02_admissible_equiv_crtbpog():
    start = time.time()
    good = 0
    for i in range(500):
        h = randgen.random_injective_hom(randgen.case_rng(102, i),
                                         tails=i % 3 == 0)
        good += admissible_equiv_crtbpog(h)
    _report(2, "admissible-equiv-crtbpog", good == 500, f"{good}/500",
            limit=10, elapsed=time.time() - start)


def test_criterion_03_hereditarity_from_a2():
    """The inclusion of an admissible subgraph satisfies (A2), and the
    vertices it misses form a hereditary set.  It misses some vertex in
    244 of the 500 seeded cases; at least 200 must, so that the check is
    not vacuous."""
    start = time.time()
    good = missed = 0
    for i in range(500):
        rng = randgen.case_rng(103, i)
        cod = randgen.random_graph(rng, max_v=6, max_e=8)
        sub, _ = randgen.admissible_subgraph(rng, cod)
        h = GraphHom.inclusion(sub, cod)
        complement = cod.vertices - h.vertex_image()
        good += ("A2_edge" not in is_admissible(h).witnesses
                 and bool(is_hereditary(cod, complement)))
        missed += bool(complement)
    _report(3, "hereditarity-from-A2", good == 500 and missed >= 200,
            f"{good}/500, {missed} miss a vertex", elapsed=time.time() - start)


def test_criterion_04_captocup_with_tails():
    start = time.time()
    good = 0
    tailed = 0
    for i in range(200):
        rng = randgen.case_rng(104, i)
        f_graph, g_graph = randgen.captocup_pair(rng, tails=True)
        tailed += f_graph.has_tails or g_graph.has_tails
        u = union_graph(f_graph, g_graph)
        good += (is_admissible(GraphHom.inclusion(f_graph, u)).strongly
                 and is_admissible(GraphHom.inclusion(g_graph, u)).strongly)
    _report(4, "captocup-with-tails", good == 200 and tailed >= 40,
            f"{good}/200 ({tailed} tailed)", elapsed=time.time() - start)


def test_criterion_05_h_bijectivity_both_directions():
    start = time.time()
    good = 0
    for i in range(200):
        f, g = randgen.one_color_instance(randgen.case_rng(105, i))
        good += path_pushout_compare(f, g, 4, pushout_square(f, g)).bijective
    broken = 0
    for i in range(50):
        f, g = randgen.one_color_violation(randgen.case_rng(1050, i))
        po = pushout_square(f, g)
        flags = check_theorem_preconditions(f, g, po)
        report = path_pushout_compare(f, g, 4, po)
        broken += (not flags.one_color) and (not report.bijective)
    _report(5, "h-bijectivity", good == 200 and broken == 50,
            f"hypotheses {good}/200, violations {broken}/50",
            elapsed=time.time() - start)


def _all_maps(domain, codomain):
    domain = sorted(domain)
    for values in itertools.product(codomain, repeat=len(domain)):
        yield dict(zip(domain, values))


def test_criterion_06_pushout_universal_property():
    start = time.time()
    good = 0
    for i in range(100):
        rng = randgen.case_rng(106, i)
        xs = {f"x{k}" for k in range(rng.randint(1, 3))}
        ys = {f"y{k}" for k in range(rng.randint(1, 3))}
        zs = {f"z{k}" for k in range(rng.randint(0, 3))}
        f = {z: rng.choice(sorted(xs)) for z in zs}
        g = {z: rng.choice(sorted(ys)) for z in zs}
        p = set_pushout(xs, ys, zs, f, g)
        q = list(range(rng.randint(1, 4)))
        reps = sorted(p.classes, key=class_id)
        matches = {}
        for h in _all_maps(reps, q):
            key = (tuple(h[p.inj_left[x]] for x in sorted(xs)),
                   tuple(h[p.inj_right[y]] for y in sorted(ys)))
            matches.setdefault(key, []).append(h)
        ok = True
        for jx in _all_maps(xs, q):
            for jy in _all_maps(ys, q):
                if any(jx[f[z]] != jy[g[z]] for z in zs):
                    continue
                h = set_universal_map(p, jx, jy)
                key = (tuple(jx[x] for x in sorted(xs)),
                       tuple(jy[y] for y in sorted(ys)))
                ok = ok and matches.get(key) == [h]
        good += ok
    _report(6, "pushout-universal-property", good == 100, f"{good}/100",
            limit=60, elapsed=time.time() - start)


def test_criterion_07_path_algebra_functor():
    start = time.time()
    probes = 0
    good = 0
    i = 0
    while probes < 500:
        rng = randgen.case_rng(107, i)
        i += 1
        cod = randgen.random_graph(rng, max_v=4, max_e=5)
        h = randgen.random_general_hom(rng, cod)
        paths = paths_up_to(cod, 4)
        inner = randgen.random_general_hom(rng, h.domain)
        comp = compose(h, inner)
        for _ in range(4):
            a = PAElement.basis(cod, rng.choice(paths))
            b = PAElement.basis(cod, rng.choice(paths))
            good += (pa_pullback(h, pa_mul(a, b))
                     == pa_mul(pa_pullback(h, a), pa_pullback(h, b)))
            probes += 1
        good += pa_pullback(h, pa_unit(cod)) == pa_unit(h.domain)
        probes += 1
        chi = PAElement.basis(cod, rng.choice(paths))
        good += (pa_pullback(comp, chi)
                 == pa_pullback(inner, pa_pullback(h, chi)))
        probes += 1
    _report(7, "path-algebra-functor", good == probes, f"{good}/{probes}",
            elapsed=time.time() - start)


def test_criterion_08_leavitt_arithmetic():
    start = time.time()
    ck_good = 0
    ck_total = 0
    for i in range(100):
        g = randgen.random_graph(randgen.case_rng(108, i), max_v=6, max_e=8)
        for e in sorted(g.edges):
            for f in sorted(g.edges):
                lhs = l_mul(monomial_element(g, ghost_monomial(g, e)),
                            monomial_element(g, edge_monomial(g, f)))
                rhs = (monomial_element(g, vertex_monomial(g.tgt[e]))
                       if e == f else LElement(g, QQ, {}))
                ck_good += lhs == rhs
                ck_total += 1
        for v in sorted(regular_vertices(g)):
            acc = LElement(g, QQ, {})
            for e in sorted(g.edges):
                if g.src[e] == v:
                    acc = acc + l_mul(monomial_element(g, edge_monomial(g, e)),
                                      monomial_element(g, ghost_monomial(g, e)))
            ck_good += acc == monomial_element(g, vertex_monomial(v))
            ck_total += 1
    assoc_good = 0
    triples = 0
    i = 0
    while triples < 500:
        rng = randgen.case_rng(1080, i)
        i += 1
        g = randgen.random_graph(rng, max_v=4, max_e=5)
        monos = normal_monomials_window(g, 2)
        if not monos:
            continue
        for _ in range(10):
            a = monomial_element(g, rng.choice(monos))
            b = monomial_element(g, rng.choice(monos))
            c = monomial_element(g, rng.choice(monos))
            assoc_good += l_mul(l_mul(a, b), c) == l_mul(a, l_mul(b, c))
            triples += 1
    ok = ck_good == ck_total and assoc_good == triples
    _report(8, "leavitt-arithmetic", ok,
            f"CK {ck_good}/{ck_total}, associativity {assoc_good}/{triples}",
            limit=60, elapsed=time.time() - start)


def test_criterion_09_leavitt_dimension_oracle():
    start = time.time()
    single = Graph.build(["v", "w"], [("e", "v", "w")])
    ok = (leavitt_dimension_enumerated(single) == 4
          and leavitt_dimension_oracle(single) == 4)
    matched = 0
    for i in range(20):
        g = randgen.random_graph(randgen.case_rng(109, i), max_v=6, max_e=8,
                                 acyclic=True)
        matched += leavitt_dimension_enumerated(g) == leavitt_dimension_oracle(g)
    _report(9, "leavitt-dimension-oracle", ok and matched == 20,
            f"single-edge dim 4, {matched}/20 acyclic matches",
            elapsed=time.time() - start)


def test_criterion_10_kerver_and_descent():
    start = time.time()
    good = 0
    for i in range(200):
        h = randgen.random_crtbpog_hom(randgen.case_rng(110, i))
        verify_descent(h)
        image = h.vertex_image()
        ok = True
        for v in sorted(h.codomain.vertices):
            elem = l_pullback(h, monomial_element(h.codomain, vertex_monomial(v)))
            ok = ok and (elem.is_zero() == (v not in image))
        good += ok
    _report(10, "kerver-and-descent", good == 200, f"{good}/200",
            elapsed=time.time() - start)


def test_criterion_11_leavitt_pullback_theorem():
    start = time.time()
    good = 0
    for i in range(50):
        rng = randgen.case_rng(111, i)
        if i % 10 < 7:
            f, g = randgen.leavitt_union_instance(rng)
        else:
            # genuine quotient pushouts: injective leg plus a fold
            f, g = randgen.admpush_instance(rng)
        report = verify_leavitt_pullback(f, g, 4)
        good += report.ok
    _report(11, "leavitt-pullback-theorem", good == 50, f"{good}/50",
            limit=300, elapsed=time.time() - start)


def test_criterion_12_path_pullback_exact_acyclic():
    start = time.time()
    good = 0
    for i in range(50):
        f, g = path_theorem_instance(randgen.case_rng(112, i))
        u = union_graph(f.codomain, g.codomain)
        bound = max(longest_by_order(u), 1)
        report = verify_path_pullback(f, g, bound)
        fiber = sum(d.dim_fiber for d in report.degrees)
        good += (report.ok and report.exact
                 and fiber == sum(d.dim_pushout for d in report.degrees))
    _report(12, "path-pullback-exact", good == 50, f"{good}/50",
            elapsed=time.time() - start)


def test_criterion_13_admpush_probe():
    """A conjecture probe: a finding is reported, never a failure, but every
    case must be counted and every finding must carry a minimized witness."""
    start = time.time()
    holds, findings = run_suite("admpush", 113, 500)
    for i, result in findings:
        print(f"ACCEPTANCE 13 finding: case {i}: {result.detail}; "
              f"minimized counterexample {result.minimized}")
    ok = holds + len(findings) == 500 and all(r.minimized for _, r in findings)
    _report(13, "admpush-probe", ok, f"{holds}/500 hold, {len(findings)} findings",
            elapsed=time.time() - start)
