"""Seeded random instances for property suites and acceptance runs.

Generators are constructive wherever practical: target-bijective maps come
from a fiber construction, regular ones from capped fiber sizes with
surjective source assignment, and admissible inclusions from hereditary
saturated complements.  Rejection sampling tops up the rest; everything is
deterministic in the passed Random instance.
"""

from __future__ import annotations

import random

from .graph import Graph, union_graph, intersection_graph
from .morphism import (GraphHom, breaking_vertices, classify_hom,
                       desaturating_vertices, is_admissible, regular_vertices)


def case_rng(seed: int, index: int) -> random.Random:
    return random.Random((seed * 1_000_003 + index) & 0x7FFFFFFF)


def random_graph(rng, max_v=6, max_e=8, acyclic=False, tails=False,
                 prefix="v") -> Graph:
    n_v = rng.randint(1, max_v)
    vertices = [f"{prefix}{i}" for i in range(n_v)]
    n_e = rng.randint(0, max_e)
    triples = []
    for i in range(n_e):
        if acyclic:
            a = rng.randrange(n_v)
            b = rng.randrange(n_v)
            if a == b:
                continue
            u, w = vertices[min(a, b)], vertices[max(a, b)]
        else:
            u = rng.choice(vertices)
            w = rng.choice(vertices)
        triples.append((f"{prefix}e{i}", u, w))
    tail_set = []
    if tails and rng.random() < 0.7:
        for _ in range(rng.randint(1, 2)):
            tail_set.append((rng.choice(vertices), rng.choice(vertices)))
    return Graph.build(vertices, triples, tail_set)


def restrict_graph(g: Graph, keep_v, keep_e=None) -> Graph:
    keep_v = set(keep_v)
    edges = {e for e in g.edges
             if g.src[e] in keep_v and g.tgt[e] in keep_v
             and (keep_e is None or e in keep_e)}
    tails = {(v, w) for v, w in g.omega_tails if v in keep_v and w in keep_v}
    return Graph(keep_v & g.vertices, edges,
                 {e: g.src[e] for e in edges}, {e: g.tgt[e] for e in edges}, tails)


def _fiber_sizes(rng, cod: Graph, regular=False) -> dict:
    sizes = {v: rng.randint(1, 3) for v in cod.vertices}
    if regular:
        out = cod.out_map
        reg = regular_vertices(cod)
        changed = True
        while changed:
            changed = False
            for v in reg:
                cap = sum(sizes[cod.tgt[x]] for x in out[v])
                if sizes[v] > cap:
                    sizes[v] = cap
                    changed = True
    return sizes


def random_tb_hom(rng, cod: Graph, prefix="u", regular=False) -> GraphHom:
    """A target-bijective homomorphism onto cod, built fiber by fiber.

    For every codomain edge x the domain gets exactly one lift per vertex in
    the fiber over t(x), so the target map on lifts is bijective by
    construction.  With regular=True, fiber sizes are capped and sources
    assigned surjectively, which forces the regularity condition as well.
    """
    sizes = _fiber_sizes(rng, cod, regular=regular)
    fiber = {}
    f0 = {}
    counter = 0
    for v in sorted(cod.vertices):
        fiber[v] = []
        for _ in range(sizes[v]):
            u = f"{prefix}{counter}"
            counter += 1
            fiber[v].append(u)
            f0[u] = v
    triples = []
    f1 = {}
    eidx = 0
    for v in sorted(cod.vertices):
        lifts = []
        for x in sorted(cod.edges):
            if cod.src[x] == v:
                for u_target in fiber[cod.tgt[x]]:
                    lifts.append((x, u_target))
        rng.shuffle(lifts)
        sources = list(fiber[v])
        rng.shuffle(sources)
        for i, (x, u_target) in enumerate(lifts):
            if regular and i < len(sources):
                src = sources[i]
            else:
                src = rng.choice(fiber[v])
            e = f"{prefix}e{eidx}"
            eidx += 1
            triples.append((e, src, u_target))
            f1[e] = x
    dom = Graph.build([u for v in sorted(fiber) for u in fiber[v]], triples)
    return GraphHom(dom, cod, f0, f1)


def random_general_hom(rng, cod: Graph) -> GraphHom:
    """An arbitrary homomorphism onto cod by free fiber lifting, from a
    domain with vertices u0, u1, ... and edges ue0, ue1, ...: one or two
    preimages per vertex and zero to two per edge."""
    fiber = {}
    f0 = {}
    counter = 0
    for v in sorted(cod.vertices):
        fiber[v] = []
        for _ in range(rng.randint(1, 2)):
            u = f"u{counter}"
            counter += 1
            fiber[v].append(u)
            f0[u] = v
    triples = []
    f1 = {}
    eidx = 0
    for x in sorted(cod.edges):
        for _ in range(rng.randint(0, 2)):
            e = f"ue{eidx}"
            eidx += 1
            triples.append((e, rng.choice(fiber[cod.src[x]]),
                            rng.choice(fiber[cod.tgt[x]])))
            f1[e] = x
    dom = Graph.build([u for v in sorted(fiber) for u in fiber[v]], triples)
    return GraphHom(dom, cod, f0, f1)


def random_injective_hom(rng, tails=False) -> GraphHom:
    """A random injective homomorphism: a renamed subgraph inclusion."""
    cod = random_graph(rng, tails=tails)
    keep_v = {v for v in cod.vertices if rng.random() < 0.7}
    sub = restrict_graph(cod, keep_v)
    keep_e = {e for e in sub.edges if rng.random() < 0.85}
    sub = restrict_graph(sub, keep_v, keep_e)
    if tails or rng.random() < 0.5:
        # keep an honest inclusion; tailed graphs admit nothing else
        sub = Graph(sub.vertices, sub.edges, sub.src, sub.tgt,
                    {t for t in sub.omega_tails if rng.random() < 0.8})
        return GraphHom(sub, cod,
                        {v: v for v in sub.vertices}, {e: e for e in sub.edges})
    rename_v = {v: f"a{i}" for i, v in enumerate(sorted(sub.vertices))}
    rename_e = {e: f"ae{i}" for i, e in enumerate(sorted(sub.edges))}
    dom = Graph.build(rename_v.values(),
                      [(rename_e[e], rename_v[sub.src[e]], rename_v[sub.tgt[e]])
                       for e in sub.edges])
    return GraphHom(dom, cod, {rename_v[v]: v for v in sub.vertices},
                    {rename_e[e]: e for e in sub.edges})


def hereditary_saturated_closure(g: Graph, seed_set) -> frozenset:
    """Close a vertex set under hereditarity and saturation jointly."""
    current = set(seed_set)
    changed = True
    while changed:
        changed = False
        for e in g.edges:
            if g.src[e] in current and g.tgt[e] not in current:
                current.add(g.tgt[e])
                changed = True
        for v, w in g.omega_tails:
            if v in current and w not in current:
                current.add(w)
                changed = True
        extra = desaturating_vertices(g, current)
        if extra:
            current |= extra
            changed = True
    return frozenset(current)


def admissible_complement(rng, g: Graph, strong=False):
    """A hereditary saturated (optionally unbroken) subset of the vertices,
    or the empty set after 8 draws that give none."""
    for _ in range(8):
        seed_set = {v for v in g.vertices if rng.random() < 0.4}
        h_set = hereditary_saturated_closure(g, seed_set)
        if h_set == g.vertices:
            continue
        if strong and breaking_vertices(g, h_set):
            continue
        return h_set
    return frozenset()


def admissible_subgraph(rng, g: Graph, strong=False):
    """(subgraph, complement) with the inclusion (strongly) admissible."""
    h_set = admissible_complement(rng, g, strong=strong)
    keep_v = g.vertices - h_set
    edges = {e for e in g.edges if g.tgt[e] not in h_set}
    sub = Graph(keep_v, edges, {e: g.src[e] for e in edges},
                {e: g.tgt[e] for e in edges},
                {(v, w) for v, w in g.omega_tails if w not in h_set})
    return sub, h_set


def captocup_pair(rng, tails=True, max_v=5, max_e=6, acyclic=False):
    """(F, G) sharing exactly their intersection D, with D strongly
    admissible in both; the raw material for union-pushout properties.

    Fresh vertices only ever receive new edges, so with an acyclic F the
    union stays acyclic.
    """
    f_graph = random_graph(rng, max_v, max_e, acyclic=acyclic,
                           tails=tails and rng.random() < 0.8, prefix="f")
    d_graph, _ = admissible_subgraph(rng, f_graph, strong=True)
    for _ in range(10):
        fresh_v = [f"w{i}" for i in range(rng.randint(0, 3))]
        vertices = sorted(d_graph.vertices) + fresh_v
        triples = []
        tail_set = set(d_graph.omega_tails)
        if fresh_v:
            for i in range(rng.randint(0, 4)):
                w = rng.choice(fresh_v)
                candidates = [u for u in vertices
                              if u in d_graph.vertices
                              or (u < w if acyclic else u <= w)]
                if not candidates:
                    continue
                triples.append((f"we{i}", rng.choice(candidates), w))
            if tails and rng.random() < 0.4:
                tail_set.add((rng.choice(vertices), rng.choice(fresh_v)))
        g_graph = Graph.build(vertices, [(e, u, w) for e, u, w in triples],
                              tail_set)
        g_graph = union_graph(d_graph, g_graph)
        report = is_admissible(GraphHom.inclusion(d_graph, g_graph))
        if report.strongly:
            return f_graph, g_graph
    extra = Graph([f"w{i}" for i in range(2)] + sorted(d_graph.vertices))
    return f_graph, union_graph(d_graph, extra)


def union_legs(f_graph: Graph, g_graph: Graph):
    """Inclusion legs of the union pushout, from the intersection."""
    d_graph = intersection_graph(f_graph, g_graph)
    return (GraphHom.inclusion(d_graph, f_graph),
            GraphHom.inclusion(d_graph, g_graph))


def leavitt_union_instance(rng):
    """Tail-free admissible union legs small enough for window checks: the
    union has at most 160 NORMAL monomials of total <= 4."""
    from .leavitt import _window_sizes
    for _ in range(40):
        f_graph, g_graph = captocup_pair(rng, tails=False, max_v=4, max_e=5,
                                         acyclic=rng.random() < 0.6)
        u = union_graph(f_graph, g_graph)
        if sum(_window_sizes(u, 4).values()) <= 160:
            f, g = union_legs(f_graph, g_graph)
            if (classify_hom(f).category == "CRTBPOG"
                    and classify_hom(g).category == "CRTBPOG"):
                return f, g
    # guaranteed fallback: whole-edge subgraph with isolated complements
    d_graph = Graph.build(["v", "w"], [("e", "v", "w")])
    f_graph = union_graph(d_graph, Graph(["v", "w", "x"]))
    g_graph = union_graph(d_graph, Graph(["v", "w", "y"]))
    return (GraphHom.inclusion(d_graph, f_graph),
            GraphHom.inclusion(d_graph, g_graph))


def composable_tb_pair(rng):
    """(outer, inner) target-bijective proper homs with matching middle."""
    base = random_graph(rng, max_v=3, max_e=4, prefix="h")
    outer = random_tb_hom(rng, base, prefix="m")
    inner = random_tb_hom(rng, outer.domain, prefix="d")
    return outer, inner


def random_crtbpog_hom(rng) -> GraphHom:
    """A morphism in the admissible category; folds and inclusions mixed."""
    style = rng.random()
    if style < 0.45:
        cod = random_graph(rng, max_v=4, max_e=5, prefix="c")
        return random_tb_hom(rng, cod, regular=True)
    cod = random_graph(rng, max_v=5, max_e=7, prefix="c")
    sub, _ = admissible_subgraph(rng, cod)
    return GraphHom.inclusion(sub, cod)


def fold_hom(k: int, base: Graph) -> GraphHom:
    """The k-fold cover folding onto base, copy i of an id x named ci_x;
    target bijective and regular."""
    f0, f1, triples, vertices = {}, {}, [], []
    for i in range(k):
        for v in sorted(base.vertices):
            vertices.append(f"c{i}_{v}")
            f0[f"c{i}_{v}"] = v
        for e in sorted(base.edges):
            name = f"c{i}_{e}"
            triples.append((name, f"c{i}_{base.src[e]}", f"c{i}_{base.tgt[e]}"))
            f1[name] = e
    return GraphHom(Graph.build(vertices, triples), base, f0, f1)


def admpush_instance(rng):
    """One-injective legs, both regular and target bijective, shared domain."""
    base = random_graph(rng, max_v=3, max_e=4, prefix="k")
    k = rng.choice([1, 2])
    g_leg = fold_hom(k, base)
    dom = g_leg.domain
    # injective leg: extend the domain without new edges into it and without
    # new edges out of its sinks
    fresh = [f"x{i}" for i in range(rng.randint(0, 3))]
    reg = sorted(regular_vertices(dom))
    triples = [(e, dom.src[e], dom.tgt[e]) for e in dom.edges]
    for i in range(rng.randint(0, 4)):
        if not fresh:
            break
        sources = fresh + reg
        triples.append((f"xe{i}", rng.choice(sources), rng.choice(fresh)))
    sup = Graph.build(sorted(dom.vertices) + fresh, triples)
    f_leg = GraphHom.inclusion(dom, sup)
    return f_leg, g_leg


def collapse_duplicate_edges(rng, legs):
    """Duplicate shared-domain edges and collapse them on both legs; the
    pushout and the one-color/vertex-injectivity flags are unchanged, but the
    legs stop being inclusions, exercising the generic quotient."""
    f, g = legs
    d_graph = f.domain
    d_edges = sorted(d_graph.edges)
    if not d_edges:
        return legs
    triples = [(e, d_graph.src[e], d_graph.tgt[e]) for e in d_edges]
    f1f, f1g = dict(f.f1), dict(g.f1)
    for i in range(rng.randint(1, 2)):
        e = rng.choice(d_edges)
        name = f"dup{i}"
        triples.append((name, d_graph.src[e], d_graph.tgt[e]))
        f1f[name] = f.f1[e]
        f1g[name] = g.f1[e]
    d2 = Graph.build(d_graph.vertices, triples, d_graph.omega_tails)
    return (GraphHom(d2, f.codomain, dict(f.f0), f1f),
            GraphHom(d2, g.codomain, dict(g.f0), f1g))


def one_color_instance(rng, need_one_sided=False):
    """Vertex-injective legs with a one-color pushout.  Admissible unions
    provide both properties; sometimes the legs additionally collapse
    duplicated edges, which keeps both flags but leaves the inclusion route."""
    f_graph, g_graph = captocup_pair(rng, tails=False, max_v=5, max_e=6)
    legs = union_legs(f_graph, g_graph)
    if not need_one_sided and rng.random() < 0.35:
        legs = collapse_duplicate_edges(rng, legs)
    return legs


def one_color_violation(rng):
    """Glued loops decorated with junk; the cross path in the pushout has no
    preimage, so path-level bijectivity fails by length 2."""
    extra_e = [(f"pe{i}", f"p{rng.randrange(3)}", f"p{rng.randrange(3)}")
               for i in range(rng.randint(0, 2))]
    e_graph = Graph.build(["uE"] + [f"p{i}" for i in range(3)],
                          [("loopE", "uE", "uE")] + extra_e)
    extra_f = [(f"qe{i}", f"q{rng.randrange(3)}", f"q{rng.randrange(3)}")
               for i in range(rng.randint(0, 2))]
    f_graph = Graph.build(["uF"] + [f"q{i}" for i in range(3)],
                          [("loopF", "uF", "uF")] + extra_f)
    g_graph = Graph(["z"])
    f = GraphHom(g_graph, e_graph, {"z": "uE"}, {})
    g = GraphHom(g_graph, f_graph, {"z": "uF"}, {})
    return f, g
