"""Path algebras over an exact field and their contravariant pullbacks.

LinearCombination is the one element type of both algebra modules: a finite
linear combination of basis terms over one graph and one field, with the
vector-space operations, equality and the printed form 'c*chi[term] + ...'
that the eval command reads back.  Its subclasses differ only in the
product.  A PAElement's terms are basis paths and its product is bilinear
concatenation.  The pullback along a homomorphism sends a basis path to the
sum over its path preimages, and the theorem verifier compares graded
components of the pushout algebra with the fiber product: the image by
the exact rank over Q of unit rows, one per path of E and F at the id of
its image in P, numbered on the int path walks of E and F as the Leavitt
window numbers its images (morphism.walk_images), and the pushout and the
fiber product by path counts.  No Path is built.  The square commutes by
construction of graph_pushout and is not checked.
"""

from __future__ import annotations

from operator import index
from typing import NamedTuple

from .fields import QQ
from .graph import (Graph, Path, PreconditionError, check_path, path_counts,
                    path_walk, require_tail_free)
from .linalg import rank
from .morphism import GraphHom, DomainMismatch, check_valid_hom, walk_images
from .pushout import check_theorem_preconditions, pushout_square


class LinearCombination:
    """A finite linear combination of basis terms over one graph and one
    field.  Terms are paths for the path algebra and normal monomials for
    the Leavitt path algebra; each subclass supplies the product.

    Coefficients are plain numbers: ints and Fractions over Q, and ints over
    Z/p.  The constructor drops zero coefficients and reduces each Z/p one
    into range(1, p), so callers add and multiply unreduced ints; a Fraction
    over Z/p raises TypeError."""

    __slots__ = ("graph", "field", "terms")

    def __init__(self, graph: Graph, field, terms: dict):
        self.graph = graph
        self.field = field
        p = field.characteristic
        self.terms = {t: y for t, c in terms.items() if (y := index(c) % p if p else c)}

    def is_zero(self):
        return not self.terms

    def _check_compatible(self, other):
        if (type(self) is not type(other) or self.graph != other.graph
                or self.field != other.field):
            raise DomainMismatch("elements live in different algebras, graphs or fields")

    def __add__(self, other):
        self._check_compatible(other)
        terms = dict(self.terms)
        for t, c in other.terms.items():
            terms[t] = terms.get(t, 0) + c
        return type(self)(self.graph, self.field, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(self.graph, self.field, {t: -c for t, c in self.terms.items()})

    def scale(self, scalar):
        return type(self)(self.graph, self.field,
                          {t: scalar * c for t, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, LinearCombination):
            return NotImplemented
        return (type(self) is type(other) and self.graph == other.graph
                and self.field == other.field and self.terms == other.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda tc: tc[0].sort_key())

    def __repr__(self):
        """The expression syntax eval reads, e.g. '3/2*chi[e1.e2] + 1*chi[v]'."""
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*chi[{t}]" for t, c in self.sorted_terms())


class PAElement(LinearCombination):
    """An element of the path algebra: a combination of paths of one graph."""

    __slots__ = ()

    @staticmethod
    def basis(graph, path: Path):
        """chi_path over Q; raises GraphError unless path is a path of
        graph (graph.check_path).  The constructor does not check its
        terms."""
        check_path(graph, path)
        return PAElement(graph, QQ, {path: 1})

    def __mul__(self, other):
        return pa_mul(self, other)


def concat_paths(g: Graph, p: Path, q: Path):
    """pq when t(p) = s(q), else None."""
    if p.target(g) != q.start:
        return None
    return p.join(q)


def pa_mul(a: PAElement, b: PAElement) -> PAElement:
    a._check_compatible(b)
    g = a.graph
    terms = {}
    for p, cp in a.terms.items():
        for q, cq in b.terms.items():
            pq = concat_paths(g, p, q)
            if pq is not None:
                terms[pq] = terms.get(pq, 0) + cp * cq
    return PAElement(g, a.field, terms)


def pa_unit(g: Graph, field=QQ) -> PAElement:
    """The sum of vertex idempotents; the identity when the graph is nonempty."""
    require_tail_free(g)
    return PAElement(g, field, {Path(v): 1 for v in g.vertices})


def path_preimages(h: GraphHom, p: Path) -> list:
    """All domain paths mapping onto p; finite since lengths are preserved.
    Ordered by their first edge's place in its h.edge_fibers fiber, then
    their second edge's, and so on.  Edge ids need only be hashable, so the
    (edge, is_ghost) letters of an extended graph still serve as edges: a
    path's start is read from the domain's src, which is keyed by them."""
    dom = h.domain
    if not p.edges:
        return [Path(v) for v in h.vertex_fibers.get(p.start, ())]
    fibers, src, tgt = h.edge_fibers, dom.src, dom.tgt
    walks = [(e,) for e in fibers.get(p.edges[0], ())]
    for x in p.edges[1:]:
        options = fibers.get(x, ())
        walks = [w + (e,) for w in walks for e in options if tgt[w[-1]] == src[e]]
    return [Path(src[w[0]], w) for w in walks]


def pa_pullback(h: GraphHom, a: PAElement) -> PAElement:
    """The algebra homomorphism sending chi_p to the sum over path preimages."""
    check_valid_hom(h)
    require_tail_free(h.domain, "domain")
    require_tail_free(h.codomain, "codomain")
    if a.graph != h.codomain:
        raise DomainMismatch("element must live over the codomain graph")
    terms = {}
    for p, c in a.terms.items():
        for q in path_preimages(h, p):
            terms[q] = terms.get(q, 0) + c
    return PAElement(h.domain, a.field, terms)


class DegreeCheck(NamedTuple):
    """One degree of a pullback verdict, path or Leavitt: the dimensions of
    P's piece, of its image in the product of E's and F's, and of the
    fiber product over G's; the theorem says all three are one number."""

    degree: int
    dim_pushout: int
    dim_image: int
    dim_fiber: int

    @property
    def ok(self):
        return self.dim_image == self.dim_pushout == self.dim_fiber


class PullbackReport(NamedTuple):
    """A pullback verdict: its DegreeChecks, and whether they cover the
    whole algebra (EXACT) or only the pieces up to the truncation."""

    exact: bool
    degrees: tuple

    @property
    def ok(self):
        return all(d.ok for d in self.degrees)


def verify_path_pullback(f: GraphHom, g: GraphHom, n: int = 4) -> PullbackReport:
    """Check degree by degree that the pushout path algebra is the fiber
    product: the pair of injection pullbacks is injective and hits exactly
    the fiber product.  It commutes over the base by construction of
    P = graph_pushout(f, g), the quotient of E + F by f(z) ~ g(z), so that
    is not checked here (the tests check it on every small square):
    iota_E f = iota_F g on vertices and edges, so on paths, as a path's
    image is its edges' images, and both ends of each link have one image.

    The fiber product in degree d is the kernel of [f* | -g*], with one row
    {f(q): 1, g(q): -1} per length-d path q of G.  vertex_injectivity and
    one_sided_injectivity make one leg injective on paths, so each row has a
    column of its own: the fiber has dimension |E_d| + |F_d| - |G_d|, read
    off graph.path_counts of G.  The image is ranked from one unit row per
    path of E and F, at the id that morphism.walk_images gives its image
    in P on their graph.path_walks, one images dict for both injections.
    P is only counted, once, to n + 1; E, F and G have no path longer
    than P's, as homomorphisms keep lengths.  The tests check these
    numbers against pushout.path_degrees, which lists every path.

    Each graded component of a finite graph's path algebra is finite
    dimensional, so the per-degree checks are exact.  There is one for each
    d <= n in which P has a path: in any other degree all four algebras
    are 0.  The report is EXACT when the pushout has no path of length
    n + 1 (so no cycle), else truncated.
    """
    po = pushout_square(f, g)
    flags = check_theorem_preconditions(f, g, po)
    if not flags.vertex_injectivity:
        raise PreconditionError("vertex_injectivity")
    if not flags.one_color:
        raise PreconditionError("one_color")
    if not flags.one_sided_injectivity:
        raise PreconditionError("one_sided_injectivity")
    counts = path_counts(po.graph, n + 1)
    # one unit row per path of E or F, at the id of its image in P
    rows, images = [[] for _ in counts[:n + 1]], {}
    for h in (po.iota_left, po.iota_right):
        walk = path_walk(h.domain, n)
        for length, i in zip(walk.length, walk_images(h, walk, images)):
            rows[length].append({i: 1})
    # one link per path of G; its counts stop at its longest path
    links = path_counts(f.domain, n)
    checks = [DegreeCheck(d, sum(count), rank(stacked, 0),
                          len(stacked) - (sum(links[d]) if d < len(links) else 0))
              for d, (stacked, count) in enumerate(zip(rows, counts))]
    return PullbackReport(len(counts) <= n + 1, tuple(checks))
