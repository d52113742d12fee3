"""Pushouts of sets and graphs, and the path-space square.

Set pushouts are computed by union-find on the tagged disjoint union, with
the minimal equivalence generated by f(z) ~ g(z).  Class members sort as
plain (side, id) tuples, "E" (left) before "F" (right), so class ids and
all serializations are deterministic.  graph_pushout builds every graph
pushout square, union squares included, and keeps of it only what defines
it: the graph P and the two injections.  A class of P is the fiber of the
injections over it.  The universal property is checked by the tests.
path_degrees gives the path-set square once per degree to the comparison
map, which is well defined by construction; verify --path counts the same
numbers on int path walks (path_algebra.verify_path_pullback), and the
tests check it against path_degrees.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import (Graph, GraphError, PreconditionError, path_counts, paths_up_to,
                    require_tail_free)
from .morphism import GraphHom, check_valid_hom, _injective, _path_image


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


_SIDES = ("E", "F")     # class sides: the left and the right codomain


class SetPushout(NamedTuple):
    """Quotient of E ⊔ F by the relation generated by f(z) ~ g(z).

    classes maps each canonical representative (side, element), side "E"
    or "F", to the sorted tuple of its members; inj_left / inj_right send
    elements to their class representative.
    """

    classes: dict
    inj_left: dict
    inj_right: dict


def set_pushout(left, right, apex, f: dict, g: dict) -> SetPushout:
    """Pushout of left <- apex -> right in sets; f lands in left, g in right."""
    lab_l, lab_r = _SIDES
    items = [(lab_l, x) for x in left] + [(lab_r, y) for y in right]
    uf = _UnionFind(items)
    for z in apex:
        if z not in f or z not in g:
            raise GraphError(f"apex element {z!r} has no image")
        uf.union((lab_l, f[z]), (lab_r, g[z]))
    groups = {}
    for item in items:
        groups.setdefault(uf.find(item), []).append(item)
    classes = {}
    for members in groups.values():
        members.sort()
        classes[members[0]] = tuple(members)
    inj_left, inj_right = {}, {}
    for rep, members in classes.items():
        for side, x in members:
            (inj_left if side == lab_l else inj_right)[x] = rep
    return SetPushout(classes, inj_left, inj_right)


class PushoutGraph(NamedTuple):
    graph: Graph
    iota_left: GraphHom
    iota_right: GraphHom


def class_id(rep) -> str:
    side, x = rep
    return f"{side}:{x}"


def graph_pushout(f: GraphHom, g: GraphHom) -> PushoutGraph:
    """The pushout P of E <-f- G -g-> F, the quotient of E ⊔ F by
    f(z) ~ g(z), with its two injections.  A class is named class_id(rep),
    or, when both legs are inclusions and E ∩ F = G on vertices and edges,
    by the one id all its members share: then P is union_graph(E, F), both
    injections are identity maps, and union certificates keep the ids.

    An edge class runs between the classes of its representative's ends.
    The other members agree: f1(z) ~ g1(z) joins edges whose sources
    f0(s z) ~ g0(s z) already share a class, and likewise their targets, so
    the injections are valid homs.  Refused: legs with different domains
    (shared-domain), graphs with omega tails (tail-free), invalid legs.
    """
    if f.domain != g.domain:
        raise PreconditionError("shared-domain", "pushout legs must share their domain")
    E, F, G = f.codomain, g.codomain, f.domain
    for what, graph in (("domain", G), ("left codomain", E), ("right codomain", F)):
        require_tail_free(graph, what)
    check_valid_hom(f)
    check_valid_hom(g)
    vp = set_pushout(E.vertices, F.vertices, G.vertices, f.f0, g.f0)
    ep = set_pushout(E.edges, F.edges, G.edges, f.f1, g.f1)
    union = (f.is_inclusion() and g.is_inclusion()
             and E.vertices & F.vertices == G.vertices
             and E.edges & F.edges == G.edges)
    name = (lambda rep: rep[1]) if union else class_id
    cod = {"E": E, "F": F}
    vclass = {"E": vp.inj_left, "F": vp.inj_right}
    src, tgt = {}, {}
    for side, e in ep.classes:
        eid = name((side, e))
        src[eid] = name(vclass[side][cod[side].src[e]])
        tgt[eid] = name(vclass[side][cod[side].tgt[e]])
    graph = Graph(map(name, vp.classes), src.keys(), src, tgt)
    iota_left = GraphHom(E, graph, {v: name(vp.inj_left[v]) for v in E.vertices},
                         {e: name(ep.inj_left[e]) for e in E.edges})
    iota_right = GraphHom(F, graph, {v: name(vp.inj_right[v]) for v in F.vertices},
                          {e: name(ep.inj_right[e]) for e in F.edges})
    return PushoutGraph(graph, iota_left, iota_right)


def pushout_square(f: GraphHom, g: GraphHom) -> PushoutGraph:
    """The pushout square of E <-f- G -g-> F, built once per verdict by
    graph_pushout and read by the flags, the breaking-arrow identity and the
    path comparison.  A function, not an alias, so that a wrapper put on
    pushout.graph_pushout sees every square."""
    return graph_pushout(f, g)


class TheoremFlags(NamedTuple):
    vertex_injectivity: bool
    one_color: bool
    one_sided_injectivity: bool
    p1: bool
    p2: bool

    def as_dict(self):
        return {"vertex_injectivity": self.vertex_injectivity,
                "one_color": self.one_color,
                "one_sided_injectivity": self.one_sided_injectivity,
                "P1": self.p1, "P2": self.p2}


def check_theorem_preconditions(f: GraphHom, g: GraphHom, po: PushoutGraph) -> TheoremFlags:
    """Hypothesis flags for the pushout-to-pullback theorems, read off the
    square po = pushout_square(f, g).

    P2 asks that g send the vertices of G whose f-image breaks in E (for
    the complement of f's image) injectively to vertices that break in F.
    It holds on every square: a breaking vertex emits infinitely many
    edges, graph_pushout refuses graphs with omega tails, and in a
    tail-free graph no vertex breaks."""
    vertex_injectivity = _injective(f.f0) and _injective(g.f0)

    p = po.graph
    img_e = set(po.iota_left.f1.values())
    img_f = set(po.iota_right.f1.values())
    # every composable pair xy of pushout edges lies in one leg's image
    one_color = all((x in img_e and y in img_e) or (x in img_f and y in img_f)
                    for x in p.edges for y in p.out_map[p.tgt[x]])
    one_sided = _injective(f.f1) or _injective(g.f1)
    p1 = _injective(f.f0) and _injective(f.f1)
    p2 = True
    return TheoremFlags(vertex_injectivity, one_color, one_sided, p1, p2)


def breakarrow_identity(f: GraphHom, po: PushoutGraph):
    """The breaking-arrow set identity, checked at every vertex of the left
    codomain that is the unique preimage of its class: edges from it into the
    complement of the shared image match, through the injection, the pushout
    edges from its class into the complement of the right-hand image.

    Returns (ok, witness list of offending vertices).  Only the breakarrow
    property suite checks it: both sides are edges from the vertex, and
    they can differ only at an edge whose target lies outside the shared
    image while its class is hit from the right, or inside it while its
    class is not hit.  The tests' postconditions of the square fail on
    either (tests/test_faults.py): the first puts a kernel vertex of E in a
    class that F reaches, and the second is a square that does not commute.
    On a square of graph_pushout neither happens (see
    leavitt.verify_leavitt_pullback).
    """
    E = f.codomain
    p_graph = po.graph
    img_g_in_e = f.vertex_image()
    img_f_in_p = frozenset(po.iota_right.f0.values())
    iota = po.iota_left
    witnesses = []
    for w in sorted(E.vertices):
        p = iota.f0[w]
        if iota.vertex_fibers[p] != (w,):
            continue
        lhs = {e for e in E.out_map[w] if E.tgt[e] not in img_g_in_e}
        rhs = {e for e in E.edges
               if p_graph.src[iota.f1[e]] == p
               and p_graph.tgt[iota.f1[e]] not in img_f_in_p}
        if lhs != rhs:
            witnesses.append(w)
    return not witnesses, witnesses


class PathDegree(NamedTuple):
    """Degree d of the path-set square E_d <- G_d -> F_d, mapped into P:
    (side, path) for E_d then F_d, each in Path.sort_key order; the image in
    P of each; one index pair per path q of G_d, joining f(q) to g(q); and
    the number of length-d paths of P."""

    paths: list
    images: list
    links: list
    count: int


def path_degrees(f: GraphHom, g: GraphHom, n: int, po: PushoutGraph) -> list:
    """The PathDegree of each d <= n in which P has a path (see
    graph.path_counts).  Homomorphisms preserve path length, so the
    truncated path-set pushout is the pushout of the truncations, and E, F
    and G have no path longer than P's.  E, F and G are listed once; P is
    only counted.  path_pushout_compare reads it; verify_path_pullback
    does not, and the tests take it as the oracle of that verdict."""
    counts = path_counts(po.graph, n)
    buckets = [[[] for _ in counts] for _ in range(3)]
    for by_length, graph in zip(buckets, (f.codomain, g.codomain, f.domain)):
        for p in paths_up_to(graph, n):
            by_length[len(p.edges)].append(p)
    left, right = po.iota_left, po.iota_right
    degrees = []
    for pe, pf, pg, count in zip(*buckets, counts):
        at_e = {p: i for i, p in enumerate(pe)}
        at_f = {p: i for i, p in enumerate(pf, len(pe))}
        images = ([_path_image(left, p) for p in pe]
                  + [_path_image(right, p) for p in pf])
        links = [(at_e[_path_image(f, q)], at_f[_path_image(g, q)]) for q in pg]
        degrees.append(PathDegree([("E", p) for p in pe] + [("F", p) for p in pf],
                                  images, links, sum(count)))
    return degrees


class PathCompareReport(NamedTuple):
    """The comparison map's failures: the paths of P it misses and the
    collisions of its classes; each flag is read from them."""

    missing: tuple
    collisions: tuple

    @property
    def injective(self):
        return not self.collisions

    @property
    def surjective(self):
        return not self.missing

    @property
    def bijective(self):
        return not (self.missing or self.collisions)


def path_pushout_compare(f: GraphHom, g: GraphHom, n: int,
                         po: PushoutGraph) -> PathCompareReport:
    """Compare the pushout of truncated path sets with the paths of the
    pushout graph through the natural map, reporting bijectivity up to n.

    In each degree the links join the paths into classes, each named by its
    first path, whose image is the class's: on po = graph_pushout(f, g)
    every path of a class has one image (see verify_path_pullback).  A
    class whose image an earlier class hit is a collision, reported in the
    (side, Path.sort_key) order of the later class.  P's paths are listed,
    to name the missing ones, only if some are missing.
    """
    seen = {}       # image path -> the path naming the first class to hit it
    collisions = {"E": [], "F": []}     # by the side of the later class
    total = 0
    for deg in path_degrees(f, g, n, po):
        paths, images = deg.paths, deg.images
        total += deg.count
        uf = _UnionFind(range(len(paths)))
        for i, j in deg.links:
            uf.union(i, j)
        first = {}      # class root -> the index of the path naming the class
        for i, (side, q) in enumerate(paths):
            if first.setdefault(uf.find(i), i) != i:
                continue
            image = images[i]
            if image in seen:
                collisions[side].append((str(seen[image]), str(q), str(image)))
            else:
                seen[image] = q
    missing = ()
    if len(seen) < total:
        missing = tuple(str(p) for p in paths_up_to(po.graph, n) if p not in seen)
    return PathCompareReport(missing, tuple(collisions["E"] + collisions["F"]))
