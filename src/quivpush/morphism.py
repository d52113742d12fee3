"""Graph homomorphisms and the predicate ladder OG > POG > TBPOG > CRTBPOG.

Also: desaturating and breaking vertices, and (strongly) admissible
inclusions.  The hereditary and saturated predicates on vertex sets are
test oracles.  Homomorphisms between tailed graphs are restricted to
inclusions; this keeps target bijectivity decidable while a tail bundle
still behaves like countably many parallel edges.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import NamedTuple

from .graph import (Graph, GraphError, Path, _immutable, check_path, derived,
                    is_subgraph, regular_vertices)

CATEGORY_POG = "POG"
CATEGORY_TBPOG = "TBPOG"
CATEGORY_CRTBPOG = "CRTBPOG"


class HomError(ValueError):
    pass


class DomainMismatch(HomError):
    pass


class GraphHom:
    """A pair of maps (vertices, edges) with commuting source/target squares.

    Frozen like Graph: f0 and f1 are read-only and attributes cannot be
    reassigned, so the derived graph tables below (validation problems,
    classification, vertex and edge fibers) are computed once per hom.
    """

    __setattr__ = __delattr__ = _immutable

    def __init__(self, domain: Graph, codomain: Graph, f0: dict, f1: dict):
        self.__dict__.update(domain=domain, codomain=codomain,
                             f0=MappingProxyType(dict(f0)),
                             f1=MappingProxyType(dict(f1)))

    @staticmethod
    def identity(g: Graph) -> "GraphHom":
        return GraphHom(g, g, {v: v for v in g.vertices}, {e: e for e in g.edges})

    @staticmethod
    def inclusion(sub: Graph, sup: Graph) -> "GraphHom":
        if not is_subgraph(sub, sup):
            raise HomError("inclusion requires an id-wise subgraph")
        return GraphHom(sub, sup, {v: v for v in sub.vertices},
                        {e: e for e in sub.edges})

    def vertex_image(self) -> frozenset:
        return frozenset(self.f0.values())

    def edge_image(self) -> frozenset:
        return frozenset(self.f1.values())

    def is_inclusion(self) -> bool:
        dom, f0, f1 = self.domain, self.f0, self.f1
        # equal sizes rule out keys that are not domain ids
        return (len(f0) == len(dom.vertices) and len(f1) == len(dom.edges)
                and all(f0.get(v) == v for v in dom.vertices)
                and all(f1.get(e) == e for e in dom.edges)
                and is_subgraph(dom, self.codomain))

    def __repr__(self):
        return f"GraphHom({len(self.domain.vertices)}v/{len(self.domain.edges)}e -> " \
               f"{len(self.codomain.vertices)}v/{len(self.codomain.edges)}e)"

    @derived
    def problems(self) -> tuple:
        """Totality, stray-key and commuting-square failures; empty when h is
        a valid homomorphism."""
        dom, cod, f0, f1 = self.domain, self.codomain, self.f0, self.f1
        problems = [f"f0 key {v}: not a domain vertex"
                    for v in sorted(f0.keys() - dom.vertices)]
        problems += [f"f1 key {e}: not a domain edge"
                     for e in sorted(f1.keys() - dom.edges)]
        for v in sorted(dom.vertices):
            if v not in f0:
                problems.append(f"vertex {v}: no image")
            elif f0[v] not in cod.vertices:
                problems.append(f"vertex {v}: image {f0[v]} not in codomain")
        for e in sorted(dom.edges):
            if e not in f1:
                problems.append(f"edge {e}: no image")
                continue
            x = f1[e]
            if x not in cod.edges:
                problems.append(f"edge {e}: image {x} not in codomain")
                continue
            if f0.get(dom.src[e]) != cod.src[x]:
                problems.append(f"edge {e}: source square fails")
            if f0.get(dom.tgt[e]) != cod.tgt[x]:
                problems.append(f"edge {e}: target square fails")
        if dom.has_tails or cod.has_tails:
            if not self.is_inclusion():
                problems.append("tailed graphs only admit inclusion homomorphisms")
        return tuple(problems)

    @derived
    def classification(self) -> "HomClassification":
        """See classify_hom."""
        check_valid_hom(self)
        injective = _injective(self.f0) and _injective(self.f1)
        surjective = (self.vertex_image() == self.codomain.vertices
                      and self.edge_image() == self.codomain.edges)
        tb = _target_bijective(self)
        reg_dom = regular_vertices(self.domain)
        reg_cod = regular_vertices(self.codomain)
        regular = all(self.f0[v] not in reg_cod
                      for v in self.domain.vertices if v not in reg_dom)
        category = (CATEGORY_CRTBPOG if tb and regular
                    else CATEGORY_TBPOG if tb else CATEGORY_POG)
        return HomClassification(injective, surjective, tb, regular, category)

    @derived
    def vertex_fibers(self):
        """Codomain vertex -> sorted tuple of its domain preimages (image only)."""
        return _fibers(self.f0, self.domain.vertices)

    @derived
    def edge_fibers(self):
        """Codomain edge -> sorted tuple of its domain preimages (image only)."""
        return _fibers(self.f1, self.domain.edges)


class HomClassification(NamedTuple):
    injective: bool
    surjective: bool
    target_bijective: bool
    regular: bool
    category: str


def check_valid_hom(h: GraphHom) -> GraphHom:
    if h.problems:
        raise HomError("; ".join(h.problems))
    return h


def _fibers(mapping, keys) -> MappingProxyType:
    fib = {}
    for k in sorted(keys):
        fib.setdefault(mapping[k], []).append(k)
    return MappingProxyType({x: tuple(ks) for x, ks in fib.items()})


def _injective(mapping) -> bool:
    vals = list(mapping.values())
    return len(set(vals)) == len(vals)


def _target_bijective(h: GraphHom) -> bool:
    dom, cod = h.domain, h.codomain
    vfib, efib = h.vertex_fibers, h.edge_fibers
    for x in cod.edges:
        pre_e = efib.get(x, ())
        pre_v = vfib.get(cod.tgt[x], ())
        targets = [dom.tgt[e] for e in pre_e]
        if len(set(targets)) != len(targets) or set(targets) != set(pre_v):
            return False
    # a codomain tail bundle ending in the image must be a domain bundle
    image = h.vertex_image()
    for (v, w) in cod.omega_tails:
        if w in image and (v, w) not in dom.omega_tails:
            return False
    return True


def classify_hom(h: GraphHom) -> HomClassification:
    """Exhaustively computed flags and the strongest category containing h,
    computed once per hom.

    Every hom between finite graphs is proper (finite-to-one), so there is
    no proper flag and the weakest category returned is POG, never OG.
    """
    return h.classification


def compose(g: GraphHom, f: GraphHom) -> GraphHom:
    """The composite g after f."""
    if f.codomain != g.domain:
        raise DomainMismatch("codomain of the first factor must equal domain of the second")
    return GraphHom(f.domain, g.codomain,
                    {v: g.f0[f.f0[v]] for v in f.domain.vertices},
                    {e: g.f1[f.f1[e]] for e in f.domain.edges})


def induced_path_map(h: GraphHom, p: Path) -> Path:
    """The length-preserving image of a path under the homomorphism; raises
    GraphError unless p is a path of the domain (graph.check_path)."""
    check_path(h.domain, p)
    return _path_image(h, p)


def _path_image(h: GraphHom, p: Path) -> Path:
    """induced_path_map without its checks, for a path known to lie in the
    domain, such as one that graph.paths_up_to enumerated."""
    return Path(h.f0[p.start], tuple(map(h.f1.__getitem__, p.edges)))


def desaturating_vertices(g: Graph, h_set) -> frozenset:
    """Regular vertices outside the set whose every emitted edge ends in it."""
    h_set = frozenset(h_set)
    reg = regular_vertices(g)
    out = g.out_map
    result = set()
    for v in g.vertices - h_set:
        if v in reg and out[v] and all(g.tgt[e] in h_set for e in out[v]):
            result.add(v)
    return frozenset(result)


def breaking_vertices(g: Graph, h_set) -> frozenset:
    """Vertices outside the set emitting infinitely many edges, only finitely
    many of which (but at least one) end outside the set.

    A tail into the complement counts as infinitely many such edges, so the
    finiteness clause forces every tail of a breaking vertex into the set.
    """
    h_set = frozenset(h_set)
    if not h_set <= g.vertices:
        raise GraphError("subset contains unknown vertices")
    result = set()
    tails_by_src = {}
    for v, w in g.omega_tails:
        tails_by_src.setdefault(v, []).append(w)
    out = g.out_map
    for v in g.vertices - h_set:
        tails = tails_by_src.get(v, [])
        if not tails:
            continue
        if any(w not in h_set for w in tails):
            continue
        named_out = sum(1 for e in out[v] if g.tgt[e] not in h_set)
        if named_out > 0:
            result.add(v)
    return frozenset(result)


class AdmissibilityReport(NamedTuple):
    admissible: bool
    strongly: bool
    witnesses: dict


def is_admissible(h: GraphHom) -> AdmissibilityReport:
    """Check (A1) complement-of-image saturated and (A2) edges into the image
    come from the image; strongly admissible adds an unbroken complement.

    For tailed graphs (inclusions only), (A2) also requires every codomain
    tail ending in the image to be a domain tail.
    """
    check_valid_hom(h)
    cls_inj = _injective(h.f0) and _injective(h.f1)
    if not cls_inj:
        raise HomError("admissibility is defined for injective homomorphisms")
    cod = h.codomain
    image_v = h.vertex_image()
    image_e = h.edge_image()
    complement = cod.vertices - image_v
    witnesses = {}

    desat = desaturating_vertices(cod, complement)
    a1 = not desat
    if desat:
        witnesses["A1_desaturating"] = sorted(desat)

    a2 = True
    for x in sorted(cod.edges):
        if cod.tgt[x] in image_v and x not in image_e:
            a2 = False
            witnesses["A2_edge"] = x
            break
    if a2:
        for (v, w) in sorted(cod.omega_tails):
            if w in image_v and (v, w) not in h.domain.omega_tails:
                a2 = False
                witnesses["A2_tail"] = [v, w]
                break

    admissible = a1 and a2
    broken = breaking_vertices(cod, complement)
    strongly = admissible and not broken
    if broken:
        witnesses["breaking"] = sorted(broken)
    return AdmissibilityReport(admissible, strongly, witnesses)


def admissible_equiv_crtbpog(h: GraphHom) -> bool:
    """Cross-check: admissibility coincides with membership in CRTBPOG."""
    report = is_admissible(h)
    cls = classify_hom(h)
    return report.admissible == (cls.category == CATEGORY_CRTBPOG)
