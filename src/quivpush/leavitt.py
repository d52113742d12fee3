"""Leavitt path algebras with exact normal-form arithmetic.

The algebra is generated by the vertices, the edges e and their ghosts e*,
which run from t(e) back to s(e), modulo the Cuntz-Krieger relations:
e*f = delta_{e,f} t(e) and, at every regular vertex v, v = sum of ee* over
edges emitted by v.

Normal form fixes, for each regular vertex, the lexicographically least
emitted edge as its special edge.  A monomial alpha beta* is NORMAL unless
both legs end with the same special edge; the offending pair gamma gamma*
is eliminated through v = sum ee*, i.e.

    alpha' gamma gamma* beta'*  ->  alpha' beta'*
                                    - sum over e != gamma of (alpha' e)(beta' e)*

which terminates because the first term is strictly shorter and the summands
end with non-special edges.  Each non-normal monomial has exactly one redex,
so the rewriting is deterministic and the resulting basis is canonical.

An LElement is path_algebra's LinearCombination over NORMAL monomials, with
the product l_mul; normal_form multiplies out a word of generators with it.
The truncated window pairs up the paths of graph.paths_up_to that share an
end vertex; the tests count dim L(g) of an acyclic graph on the full pair
set, built the same way, and check it against a rank oracle.  The pullback
along a CRTBPOG morphism pairs path preimages the same way: c alpha beta*
goes to the sum of c alpha' beta'* over preimages alpha' of alpha and beta'
of beta with a common end vertex, each rewritten to normal form over the
domain with its coefficient c.  That it respects the Cuntz-Krieger
relations, so that it is an algebra map, is the paper's descent lemma: the
tests check the descent identities, and no verdict re-proves them.

The pullback verifier decides on its refusals and its window cross-check,
which asks, as verify_path_pullback does, that P's piece, its image and
the fiber product have one dimension in each degree (path_algebra's
DegreeCheck); two lemmas in the docstrings prove it on every accepted
square.  The rest of the theorem's square holds by construction of the
pushout, as its docstring proves, and the tests check it on every small
square.

The window cross-check counts the dimension of the image of the pushout's
window under both injection pullbacks, and builds those pullbacks in the
other direction: one pass over the domain's pairs alpha' beta'* adds the
normal form of alpha' beta'* to the column of (h alpha')(h beta')*, unless
that is not normal.  The pass runs on ints: graph.path_walk numbers the
domain's paths, and one image table, shared by both injections, numbers
their images in P, so a row and a column key are each a pair of ids, and
the domain's Paths are built, once, only if CK2 rewrites some pair.  A
pair that CK2 does not rewrite adds 1 to a row of its own, so most
columns are counted as
keys in a set and never built: only the rows that a rewrite reaches, the
touched rows, go into columns, and only the columns with no row of their
own, the residue, are ranked.  No window is listed: only E and F are
walked, and the window sizes of the square's four graphs are counted in
closed form from graph.path_counts.  The fiber product needs no rank: its
dimension is a count (see _window_cross_check).

An LMonomial is a tuple of two Paths, so the dicts keyed by monomials hash
and compare in C; like a Path it is never sorted raw or written to JSON
(see the graph module).
"""

from __future__ import annotations

from collections import defaultdict
from itertools import compress
from operator import mul
from typing import NamedTuple

from .fields import QQ
from .graph import (Graph, Path, PathWalk, PreconditionError, check_word, path_counts,
                    path_walk, paths_up_to, require_tail_free)
from .linalg import rank
from .morphism import GraphHom, DomainMismatch, CATEGORY_CRTBPOG, walk_images
from .pushout import pushout_square
from .path_algebra import DegreeCheck, LinearCombination, PullbackReport, path_preimages


class LMonomial(NamedTuple):
    """The class of alpha beta* with t(alpha) = t(beta) in the base graph."""

    alpha: Path
    beta: Path

    @property
    def degree(self):
        return self.alpha.length - self.beta.length

    @property
    def total(self):
        return self.alpha.length + self.beta.length

    def sort_key(self):
        return (self.total, self.degree, self.alpha.sort_key(), self.beta.sort_key())

    def __str__(self):
        if not self.beta.edges:
            return str(self.alpha)
        ghosts = ".".join(e + "*" for e in reversed(self.beta.edges))
        if not self.alpha.edges:
            return ghosts
        return f"{self.alpha}.{ghosts}"


def vertex_monomial(v: str) -> LMonomial:
    return LMonomial(Path(v), Path(v))


def edge_monomial(g: Graph, e: str) -> LMonomial:
    return LMonomial(Path(g.src[e], (e,)), Path(g.tgt[e]))


def ghost_monomial(g: Graph, e: str) -> LMonomial:
    return LMonomial(Path(g.tgt[e]), Path(g.src[e], (e,)))


def is_normal(mono: LMonomial, designated: frozenset) -> bool:
    a, b = mono.alpha, mono.beta
    return not (a.edges and b.edges and a.edges[-1] == b.edges[-1]
                and a.edges[-1] in designated)


class LElement(LinearCombination):
    """An element of the Leavitt path algebra: a combination of NORMAL
    monomials of one graph."""

    __slots__ = ()

    def __mul__(self, other):
        return l_mul(self, other)


def _ck2_accumulate(g: Graph, mono: LMonomial, coeff, acc: dict):
    """Rewrite one monomial to normal form, accumulating into acc."""
    designated, out_map = g.designated, g.out_map
    stack = [(mono, coeff)]
    while stack:
        m, c = stack.pop()
        a, b = m.alpha, m.beta
        if a.edges and b.edges and a.edges[-1] == b.edges[-1] and a.edges[-1] in designated:
            gamma = a.edges[-1]
            v = g.src[gamma]
            a1, b1 = a.edges[:-1], b.edges[:-1]
            stack.append((LMonomial(Path(a.start, a1), Path(b.start, b1)), c))
            for e in out_map[v]:
                if e != gamma:
                    stack.append((LMonomial(Path(a.start, a1 + (e,)),
                                           Path(b.start, b1 + (e,))), -c))
        else:
            acc[m] = acc.get(m, 0) + c


def monomial_element(g: Graph, mono: LMonomial, field=QQ, coeff=None) -> LElement:
    """Normal form of a single (possibly non-normal) monomial."""
    acc = {}
    _ck2_accumulate(g, mono, 1 if coeff is None else coeff, acc)
    return LElement(g, field, acc)


def normal_form(g: Graph, letters, coeff=None, field=QQ) -> LElement:
    """Normal form of coeff times a word of generators.

    letters is a nonempty sequence of (edge, is_ghost) pairs that spells a
    path (see graph.check_word); the generators e and e* are multiplied
    left to right with l_mul.
    """
    require_tail_free(g)
    check_word(g, letters)
    product = None
    for e, ghost in letters:
        mono = ghost_monomial(g, e) if ghost else edge_monomial(g, e)
        factor = monomial_element(g, mono, field)
        product = factor if product is None else l_mul(product, factor)
    return product if coeff is None else product.scale(coeff)


def _prefix_remainder(g: Graph, p: Path, q: Path):
    """r with q = p.r, or None when p is not a prefix of q."""
    k = len(p.edges)
    if p.start != q.start or q.edges[:k] != p.edges:
        return None
    return Path(p.target(g), q.edges[k:])


def _mono_mul(g: Graph, m1: LMonomial, m2: LMonomial):
    """(alpha beta*)(gamma delta*) before normalization, or None for zero."""
    r = _prefix_remainder(g, m1.beta, m2.alpha)
    if r is not None:
        return LMonomial(m1.alpha.join(r), m2.beta)
    r = _prefix_remainder(g, m2.alpha, m1.beta)
    if r is not None:
        return LMonomial(m1.alpha, m2.beta.join(r))
    return None


def l_mul(a: LElement, b: LElement) -> LElement:
    a._check_compatible(b)
    g = a.graph
    acc = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            prod = _mono_mul(g, m1, m2)
            if prod is not None:
                _ck2_accumulate(g, prod, c1 * c2, acc)
    return LElement(g, a.field, acc)


def l_unit(g: Graph, field=QQ) -> LElement:
    """The sum of vertex idempotents; the identity when the graph is nonempty."""
    require_tail_free(g)
    return LElement(g, field, {vertex_monomial(v): 1 for v in g.vertices})


def _require_pullback(h: GraphHom, what: str = "morphism"):
    """Refuse h, named what, unless it induces a Leavitt pullback: a valid
    CRTBPOG morphism of tail-free graphs."""
    cls = h.classification
    require_tail_free(h.domain, "domain")
    require_tail_free(h.codomain, "codomain")
    if cls.category != CATEGORY_CRTBPOG:
        raise PreconditionError("CRTBPOG", f"{what} classifies as {cls.category}")


def _pull(h: GraphHom, terms: dict, field) -> LElement:
    """The sum, over the terms c alpha beta*, of c alpha' beta'* for every
    path preimage alpha' of alpha and beta' of beta that end at one vertex,
    in normal form over the domain."""
    E = h.domain
    acc = {}
    for mono, c in terms.items():
        betas = {}
        for beta in path_preimages(h, mono.beta):
            betas.setdefault(beta.target(E), []).append(beta)
        for alpha in path_preimages(h, mono.alpha):
            for beta in betas.get(alpha.target(E), ()):
                _ck2_accumulate(E, LMonomial(alpha, beta), c, acc)
    return LElement(E, field, acc)


def l_pullback(h: GraphHom, a: LElement) -> LElement:
    """The induced homomorphism on Leavitt path algebras: alpha beta* goes
    to the sum of alpha' beta'* over path preimages alpha' of alpha and
    beta' of beta that share their end vertex, renormalized over the domain.

    Requires a CRTBPOG morphism (see _require_pullback).
    """
    if a.graph != h.codomain:
        raise DomainMismatch("element must live over the codomain graph")
    _require_pullback(h)
    return _pull(h, a.terms, a.field)


def ker_generators(h: GraphHom) -> frozenset:
    """The vertices whose idempotents generate the kernel of the induced map
    on Leavitt path algebras.

    For h: G -> E in the admissible category the kernel of L(E) -> L(G) is the
    graded ideal generated by the vertex idempotents over the complement of
    the vertex image; on tail-free graphs there are no breaking vertices, so
    these generate it alone.  A vertex idempotent pulls back to the sum of
    its fiber, so it dies iff it lies outside the image.  The complement is
    hereditary because h is target bijective (an edge into the image has a
    preimage, so its source is in the image too) and saturated because h is
    regular (a regular vertex in the image has a regular preimage, whose
    edges reach the image); the tests check both on random CRTBPOG homs.
    """
    _require_pullback(h)
    return frozenset(h.codomain.vertices - h.vertex_image())


def _end_pairs(g: Graph, max_total: int):
    """Every alpha beta*, normal or not, with |alpha| + |beta| <= max_total."""
    ends = {}
    for p in paths_up_to(g, max_total):
        ends.setdefault(p.target(g), []).append(p)
    for into in ends.values():
        # paths_up_to lists paths by length, so each run of betas that fits
        # next to alpha is a prefix of into
        for alpha in into:
            room = max_total - alpha.length
            for beta in into:
                if beta.length > room:
                    break
                yield LMonomial(alpha, beta)


def normal_monomials_window(g: Graph, max_total: int) -> list:
    """All NORMAL monomials with |alpha| + |beta| <= max_total, sorted."""
    return sorted((m for m in _end_pairs(g, max_total)
                   if is_normal(m, g.designated)), key=LMonomial.sort_key)


def generator_monomials(g: Graph) -> list:
    """Vertices, then each edge followed by its ghost, in sorted id order."""
    gens = [vertex_monomial(v) for v in sorted(g.vertices)]
    for e in sorted(g.edges):
        gens.append(edge_monomial(g, e))
        gens.append(ghost_monomial(g, e))
    return gens


def verify_leavitt_pullback(f: GraphHom, g: GraphHom, n: int = 4,
                            field=QQ) -> PullbackReport:
    """Verify that the induced square of Leavitt path algebras is a pullback.

    Refused: legs that are not CRTBPOG (each through _require_pullback),
    and a left leg f that is not injective (P1).  The verdict is then the
    window cross-check alone: degree by degree on the span of NORMAL
    monomials with total degree <= n, P's window, the rank of its image in
    L(E) x L(F) and the dimension of the fiber product must be one number
    (see _window_cross_check).  The report is EXACT when P has no path of
    length n // 2 + 1: then no graph of the square has one, as a graph map
    keeps lengths, so every NORMAL monomial of P, E, F and G has total <= n
    and each window is the whole graded piece.

    The rest of the theorem's square holds by construction of P =
    graph_pushout(f, g), the quotient of E + F by f(z) ~ g(z), so it is
    not checked here; the tests check it on every small square.  Given P1
    and CRTBPOG legs on tail-free graphs:
      - every class of P has a member, so every vertex of P lifts to E or
        F (kernel intersection zero);
      - f is injective, so an element x of E is linked to at most one
        element of F, g(z) for the z with f(z) = x.  So a class is an
        element of E alone, or an element y of F with the f(z) for z in
        g^-1(y): iota_F is injective, and each generator of L(F) pulls
        back from its image (surjectivity);
      - a vertex of E outside f's image is linked to nothing, so it is a
        class of its own that F does not reach (kernel correspondence);
      - f(z) ~ g(z), so iota_E f = iota_F g: the square commutes;
      - both injections are CRTBPOG, so their pullbacks exist.  Target
        bijective: an edge of E alone in its class is outside f's image,
        so by f's target bijectivity its target is too, and that target is
        alone in its class; likewise an edge y of F outside g's image ends
        outside it.  Otherwise the E-edges in y's class are the f(z) for z
        in g^-1(y), and their targets f(t z) are, by g's target
        bijectivity and f's injectivity, the distinct E-vertices in the
        class of t(y).  Regular: a class is a sink when all its members
        are, a vertex that maps to a sink is a sink, and f and g send sinks
        to sinks, so the class of a sink of E or F is a sink.
    The last item holds with the legs swapped: graph_pushout(g, f) is this
    square with E and F trading places, its classes named from the other
    side, so its injections are CRTBPOG too when g is the injective leg.
    So a pushout of CRTBPOG legs, one of them injective, has CRTBPOG
    injections; this is the closure that the admpush property suite used
    to probe as a conjecture, and the tests check it on every small square
    and its mirror.
    The breaking-arrow identity (pushout.breakarrow_identity) holds
    wherever the kernel correspondence and commutativity do, so here too.

    Nor can the window cross-check fail on such a square, by two lemmas.
    Lemma A: dim_image = dim_window(P) in every degree.  Both injections
    are CRTBPOG, so by the descent lemma the pair of pullbacks L(P) ->
    L(E) x L(F) is an algebra map, a graded one, as a pullback keeps the
    degree |alpha| - |beta|.  Every class of P has a member, so the map
    sends each vertex of P to a nonzero idempotent, and by the Graded
    Uniqueness Theorem (Tomforde, "Uniqueness theorems and ideal structure
    for Leavitt path algebras", J. Algebra 318, 2007; Abrams, Ara and Siles
    Molina, Leavitt Path Algebras, LNM 2191, 2017, section 2.2) it is
    injective.  So the columns of distinct NORMAL monomials of P are
    independent.  And each NORMAL monomial of P's window has a column: its
    end vertex has a member x, and a target-bijective map lifts each path
    into iota(x) uniquely to a path into x, so the monomial is the image of
    a pair of the domain's window.  Lemma B (see _window_cross_check):
    dim_fiber = dim_window(P).  So the rule is an equality, and a square
    that breaks it is not graph_pushout's; the tests compare the counted
    image with an oracle rank, and the window sizes with Lemma B, on every
    small square.
    """
    po = pushout_square(f, g)
    for name, hom in (("f", f), ("g", g)):
        _require_pullback(hom, f"leg {name}")
    if not f.classification.injective:
        raise PreconditionError("P1", "the left leg must be injective")
    exact = len(path_counts(po.graph, n // 2 + 1)) <= n // 2 + 1
    return PullbackReport(exact, tuple(_window_cross_check(f, g, po, n, field)))


def _window_sizes(g: Graph, n: int) -> dict:
    """Degree -> the number of NORMAL monomials of g with total <= n.  With
    c_l(v) = graph.path_counts(g, n)[l][v], the pairs of lengths l1, l2
    ending at v number c_l1(v) c_l2(v), less c_(l1-1)(s gamma)
    c_(l2-1)(s gamma) that end with one special edge gamma; as this is
    symmetric in l1 and l2, degree -d has the size of degree d.  Past the
    last row of counts every c_l is 0, so the loops stop there."""
    counts = path_counts(g, n)
    # each regular vertex, and no other, is s gamma of one special edge gamma
    regular = list(map(g.vertex_classes.regular.__contains__, sorted(g.vertices)))
    at_specials = [list(compress(c, regular)) for c in counts]
    sizes = {}
    for l2 in range(min(n // 2 + 1, len(counts))):
        for l1 in range(l2, min(n + 1 - l2, len(counts))):
            k = sum(map(mul, counts[l1], counts[l2])) - (
                l2 and sum(map(mul, at_specials[l1 - 1], at_specials[l2 - 1])))
            if k:
                sizes[l1 - l2] = sizes.get(l1 - l2, 0) + k
    return {**sizes, **{-d: k for d, k in sizes.items() if d}}


def _window_columns(h: GraphHom, n: int, private: dict, columns: dict, images: dict,
                    offset: int = 0) -> PathWalk:
    """Add to private and columns, the window image, the pullback along h
    of each NORMAL codomain monomial alpha beta* with total <= n, and
    return the graph.path_walk of the N domain paths of length <= n: the
    i-th and j-th make the row offset + i N + j.  A column is keyed by
    (a, b), the ids of alpha and beta in images, which numbers every
    codomain path that a domain path maps to (morphism.walk_images);
    callers that share images share ids.

    Each domain pair adds its normal form to the column of its image if
    that is normal, so every term is a NORMAL domain monomial of the
    column's degree with total <= n.  A pair that is not normal itself, as
    both its legs end with one special edge whose image is not special, is
    rewritten first: its normal form goes into columns, a defaultdict(dict)
    of degree -> {key: {row: int}}, and each row it reaches is touched.
    Pairs enter with 1 and CK2 rewriting only negates, so columns hold
    ints.  Every other pair adds 1 to its own row, and to no other: into
    its column's dict if a rewrite touched that row, and else by putting
    its key into private, a defaultdict(set) of degree -> keys.  So each
    key in private has an entry 1 in a row that no other column touches.
    The caller has already refused any h with no pullback."""
    E, e_special, p_special = h.domain, h.domain.designated, h.codomain.designated
    walk = path_walk(E, n)
    size, image, f1 = len(walk.end), walk_images(h, walk, images), h.f1
    # by end vertex: id, length, image id, the image's special last edge or
    # None, and the special last edge that CK2 rewrites or None
    ends, redexes = {}, defaultdict(list)
    for i, (last, end, length) in enumerate(zip(walk.last, walk.end, walk.length)):
        hs = x if (x := f1.get(last)) in p_special else None
        s = last if hs is None and last in e_special else None
        ends.setdefault(end, []).append((i, length, image[i], hs, s))
        if s is not None:
            redexes[s].append((i, length))
    touched = set()
    if redexes:
        paths = walk.paths()
        index = {p: k for k, p in enumerate(paths)}
    for run in redexes.values():
        for i, la in run:
            for j, lb in run:
                if la + lb > n:
                    break
                acc = {}
                _ck2_accumulate(E, LMonomial(paths[i], paths[j]), 1, acc)
                col = columns[la - lb].setdefault((image[i], image[j]), {})
                for t, c in acc.items():
                    r = offset + index[t.alpha] * size + index[t.beta]
                    col[r] = col.get(r, 0) + c
                    touched.add(r)
    for run in ends.values():
        # run is in length order, so the betas that fit form a prefix
        for i, la, ha, hsa, sa in run:
            base = offset + i * size
            for j, lb, hb, hsb, sb in run:
                if la + lb > n:
                    break
                if hsa is not None and hsa == hsb or sa is not None and sa == sb:
                    continue
                if base + j in touched:
                    col = columns[la - lb].setdefault((ha, hb), {})
                    col[base + j] = col.get(base + j, 0) + 1
                else:
                    private[la - lb].add((ha, hb))
    return walk


def _window_cross_check(f, g, po, n, field):
    """Degree by degree, on the windows of NORMAL monomials with total <= n,
    a DegreeCheck: the size of P's window, the rank of its image in
    L(E) x L(F), and the dimension of the fiber of L(E) x L(F) -> L(G),
    |E_d| + |F_d| - |G_d|.  That count holds because [f* | -g*] has rank
    |G_d|: f is injective (P1), so by the descent lemma a normal
    alpha' beta'* of G's window pulls back from the normal form of
    (f alpha')(f beta')*, which is in E's window.  Only E and F are walked,
    for the injections' columns (see _window_columns); window sizes are
    counted in closed form (see _window_sizes).

    The image's dimension is a count plus the rank of a residue (rank is
    transpose-invariant, so the columns are ranked as rows).  Each domain
    pair's row belongs to one column, the key of its image.  Only the
    normal forms of the pairs that CK2 rewrites reach other rows, and
    _window_columns marks every row they reach as touched.  So each key in
    private has an entry 1 in a row that no other column touches.  In a
    vanishing combination of all columns, the entry in that row is the
    key's coefficient, so the coefficient is 0, over every field.  Hence
    every vanishing combination is one of the other columns, the residue:
    the built columns whose key is not in private.  The rank is
    len(private) plus rank(residue); this is the singleton step of
    structured Gaussian elimination (LaMacchia and Odlyzko, CRYPTO '90).
    The residue holds only columns that CK2 rewriting touches, and rank
    stays their exact path.

    Lemma B: on a square that verify_leavitt_pullback does not refuse,
    _window_sizes gives E_d + F_d - G_d = P_d in every degree d, so
    dim_fiber = dim_window(P).  _window_sizes sums over the vertices v of
    a graph a term that depends only on the path counts c_l(v) and on
    whether v is regular.  A target-bijective map keeps each c_l(v); a
    regular map keeps regularity, as it sends sinks to sinks and the edges
    out of v to edges out of the image of v.  So each member of a class of
    P, in E, F or G (through iota_E f), has the term of its class.  f is
    injective, so a class is one vertex of E alone, or one vertex y of F
    with the f(z) for the z in g^-1(y), as many as those z: either way its
    members in E and F, less those in G, number 1.  Summed over the
    classes, the terms give E_d + F_d - G_d = P_d.  With Lemma A (see
    verify_leavitt_pullback) the three numbers are equal on every accepted
    square.  The tests check Lemma B on every small square at each n from
    2 to 8, and small_scope_wide.py at n = 10."""
    # the image of both injections, F's rows after every pair of E's paths
    private, columns, images = defaultdict(set), defaultdict(dict), {}
    e_walk = _window_columns(po.iota_left, n, private, columns, images)
    _window_columns(po.iota_right, n, private, columns, images, len(e_walk.end) ** 2)
    # the window sizes of the four graphs of the square, named after them
    P, E, F, G = (_window_sizes(x, n) for x in (po.graph, f.codomain, g.codomain, f.domain))
    checks = []
    for d in sorted(P.keys() | E.keys() | F.keys() | G.keys()):
        # a window monomial hit by neither injection adds no column
        keys = private[d]
        residue = [col for key, col in columns[d].items() if key not in keys]
        dim_image = len(keys) + rank(residue, field.characteristic)
        dim_fiber = E.get(d, 0) + F.get(d, 0) - G.get(d, 0)
        checks.append(DegreeCheck(d, P.get(d, 0), dim_image, dim_fiber))
    return checks
