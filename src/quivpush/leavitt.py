"""Leavitt path algebras with exact normal-form arithmetic.

Elements live in the path algebra of the extended graph modulo the
Cuntz-Krieger relations: e*f = delta_{e,f} t(e) and, at every regular
vertex v, v = sum of ee* over edges emitted by v.

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
the product l_mul.  The monomial enumerations (the truncated window, the
full pair set of an acyclic graph) pair up the paths of graph.paths_up_to
that share an end vertex.  The pullback along a CRTBPOG morphism pairs
path preimages the same way: alpha beta* goes to the sum of alpha' beta'*
over preimages alpha' of alpha and beta' of beta with a common end vertex,
brought back to normal form over the domain.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import QQ
from .graph import (Graph, GraphError, Path, extended_graph, is_acyclic,
                    paths_up_to, require_tail_free)
from .linalg import rank
from .morphism import (GraphHom, DomainMismatch, HomError, check_valid_hom,
                       breaking_vertices, is_hereditary, is_saturated,
                       regular_vertices, CATEGORY_CRTBPOG)
from .pushout import (PreconditionError, PushoutGraph, breakarrow_identity,
                      check_theorem_preconditions, pushout_square)
from .path_algebra import LinearCombination, path_preimages


class DescentError(HomError):
    """A Cuntz-Krieger descent identity failed; names the violating generator."""


@dataclass(frozen=True)
class LMonomial:
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
        if self.beta.is_vertex:
            return str(self.alpha)
        ghosts = ".".join(e + "*" for e in reversed(self.beta.edges))
        if self.alpha.is_vertex and not self.alpha.edges:
            return ghosts
        return f"{self.alpha}.{ghosts}"


def vertex_monomial(v: str) -> LMonomial:
    return LMonomial(Path.at(v), Path.at(v))


def edge_monomial(g: Graph, e: str) -> LMonomial:
    return LMonomial(Path.of([e]), Path.at(g.tgt[e]))


def ghost_monomial(g: Graph, e: str) -> LMonomial:
    return LMonomial(Path.at(g.tgt[e]), Path.of([e]))


def make_monomial(g: Graph, alpha: Path, beta: Path) -> LMonomial:
    if alpha.target(g) != beta.target(g):
        raise GraphError("monomial legs must share their end vertex")
    return LMonomial(alpha, beta)


def is_normal(mono: LMonomial, designated: frozenset) -> bool:
    a, b = mono.alpha, mono.beta
    return not (a.edges and b.edges and a.edges[-1] == b.edges[-1]
                and a.edges[-1] in designated)


def _chop(g: Graph, p: Path) -> Path:
    if p.length == 1:
        return Path.at(g.src[p.edges[0]])
    return Path.of(p.edges[:-1])


class LElement(LinearCombination):
    """An element of the Leavitt path algebra: a combination of NORMAL
    monomials of one graph."""

    __slots__ = ()

    def __mul__(self, other):
        return l_mul(self, other)


def _ck2_accumulate(g: Graph, mono: LMonomial, coeff, acc: dict, zero):
    """Rewrite one monomial to normal form, accumulating into acc."""
    designated, out_map = g.designated, g.out_map
    stack = [(mono, coeff)]
    while stack:
        m, c = stack.pop()
        a, b = m.alpha, m.beta
        if a.edges and b.edges and a.edges[-1] == b.edges[-1] and a.edges[-1] in designated:
            gamma = a.edges[-1]
            v = g.src[gamma]
            a1, b1 = _chop(g, a), _chop(g, b)
            stack.append((LMonomial(a1, b1), c))
            for e in out_map[v]:
                if e != gamma:
                    stack.append((LMonomial(Path.of(a1.edges + (e,)),
                                           Path.of(b1.edges + (e,))), -c))
        else:
            acc[m] = acc.get(m, zero) + c


def monomial_element(g: Graph, mono: LMonomial, field=QQ, coeff=None) -> LElement:
    """Normal form of a single (possibly non-normal) monomial."""
    acc = {}
    _ck2_accumulate(g, mono, field.one if coeff is None else coeff, acc, field.zero)
    return LElement(g, field, acc)


def reduce_extended_word(eg, letters):
    """CK1 phase: cancel ghost-then-real pairs; returns an LMonomial or None.

    letters is a composable sequence of extended-graph edge ids.  Mismatched
    ghost/real adjacencies annihilate the word; full cancellation leaves the
    source vertex.
    """
    word = list(letters)
    if word:
        start = eg.src[word[0]]
    else:
        raise GraphError("empty word needs an explicit vertex")
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if eg.is_ghost(word[i]) and not eg.is_ghost(word[i + 1]):
                if eg.ghost_of[word[i]] == word[i + 1]:
                    del word[i:i + 2]
                    changed = True
                    break
                return None
    reals = [x for x in word if not eg.is_ghost(x)]
    ghosts = [x for x in word if eg.is_ghost(x)]
    base = eg.base
    if reals:
        alpha = Path.of(reals)
    elif ghosts:
        alpha = Path.at(eg.src[ghosts[0]])
    else:
        alpha = Path.at(start)
    if ghosts:
        beta = Path.of([eg.ghost_of[x] for x in reversed(ghosts)])
    else:
        beta = Path.at(alpha.target(base))
    return make_monomial(base, alpha, beta)


def normal_form(g: Graph, word, coeff=None, field=QQ) -> LElement:
    """Normal form of a scalar multiple of an extended-graph path.

    word is a Path of the extended graph, a list of extended edge ids, or a
    vertex id.
    """
    require_tail_free(g, "Leavitt path algebra")
    eg = extended_graph(g)
    coeff = field.one if coeff is None else coeff
    if isinstance(word, str):
        if word not in g.vertices:
            raise GraphError(f"{word!r} is not a vertex")
        return monomial_element(g, vertex_monomial(word), field, coeff)
    letters = list(word.edges) if isinstance(word, Path) else list(word)
    if isinstance(word, Path) and word.is_vertex:
        return monomial_element(g, vertex_monomial(word.vertex), field, coeff)
    for x, y in zip(letters, letters[1:]):
        if eg.tgt.get(x) != eg.src.get(y):
            raise GraphError("word is not a path of the extended graph")
    if any(x not in eg.edges for x in letters):
        raise GraphError("word uses unknown extended edges")
    mono = reduce_extended_word(eg, letters)
    if mono is None:
        return LElement.zero(g, field)
    return monomial_element(g, mono, field, coeff)


def _prefix_remainder(g: Graph, p: Path, q: Path):
    """r with q = p.r, or None when p is not a prefix of q."""
    if p.is_vertex:
        return q if q.source(g) == p.vertex else None
    if q.is_vertex:
        return None
    if len(q.edges) < len(p.edges) or q.edges[:len(p.edges)] != p.edges:
        return None
    rest = q.edges[len(p.edges):]
    return Path.of(rest) if rest else Path.at(p.target(g))


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
                _ck2_accumulate(g, prod, c1 * c2, acc, a.field.zero)
    return LElement(g, a.field, acc)


def l_unit(g: Graph, field=QQ) -> LElement:
    """The sum of vertex idempotents; the identity when the graph is nonempty."""
    require_tail_free(g, "Leavitt path algebra")
    return LElement(g, field, {vertex_monomial(v): field.one for v in g.vertices})


def _require_crtbpog(h: GraphHom):
    cls = h.classification
    if cls.category != CATEGORY_CRTBPOG:
        raise PreconditionError("CRTBPOG", f"morphism classifies as {cls.category}")


def _pull(h: GraphHom, terms: dict, field) -> LElement:
    """The sum, over the terms c alpha beta*, of c alpha' beta'* for every
    path preimage alpha' of alpha and beta' of beta that end at one vertex,
    in normal form over the domain."""
    E, zero = h.domain, field.zero
    acc = {}
    for mono, c in terms.items():
        betas = {}
        for beta in path_preimages(h, mono.beta):
            betas.setdefault(beta.target(E), []).append(beta)
        for alpha in path_preimages(h, mono.alpha):
            for beta in betas.get(alpha.target(E), ()):
                _ck2_accumulate(E, LMonomial(alpha, beta), c, acc, zero)
    return LElement(E, field, acc)


def verify_descent(h: GraphHom, field=QQ):
    """Check both Cuntz-Krieger descent identities on every generator.

    Failure indicates an implementation bug, never expected mathematics, and
    is reported with the violating codomain generator.
    """
    E, F = h.domain, h.codomain

    def pulled(mono):
        return _pull(h, {mono: field.one}, field)

    edge = {x: pulled(edge_monomial(F, x)) for x in F.edges}
    ghost = {x: pulled(ghost_monomial(F, x)) for x in F.edges}
    for x in sorted(F.edges):
        for y in sorted(F.edges):
            lhs = l_mul(ghost[x], edge[y])
            rhs = pulled(vertex_monomial(F.tgt[x])) if x == y else LElement.zero(E, field)
            if lhs != rhs:
                raise DescentError(f"CK1 descent fails on edge pair ({x}, {y})")
    for w in sorted(regular_vertices(F)):
        acc = LElement.zero(E, field)
        for x in F.out_map[w]:
            acc = acc + l_mul(edge[x], ghost[x])
        if acc != pulled(vertex_monomial(w)):
            raise DescentError(f"CK2 descent fails at regular vertex {w}")


def l_pullback(h: GraphHom, a: LElement) -> LElement:
    """The induced homomorphism on Leavitt path algebras: alpha beta* goes
    to the sum of alpha' beta'* over path preimages alpha' of alpha and
    beta' of beta that share their end vertex, renormalized over the domain.

    Requires a CRTBPOG morphism; the descent identities are verified once per
    morphism and field, which the morphism records in descent_fields.
    """
    check_valid_hom(h)
    require_tail_free(h.domain, "Leavitt path algebra")
    require_tail_free(h.codomain, "Leavitt path algebra")
    _require_crtbpog(h)
    if a.graph != h.codomain:
        raise DomainMismatch("element must live over the codomain graph")
    if a.field not in h.descent_fields:
        verify_descent(h, a.field)
        h.descent_fields.add(a.field)
    return _pull(h, a.terms, a.field)


@dataclass(frozen=True)
class KernelPresentation:
    """Generators of a graded two-sided ideal: vertex idempotents over a
    hereditary saturated set plus breaking-vertex generators."""

    vertex_gens: frozenset
    breaking_gens: tuple

    def is_empty(self):
        return not self.vertex_gens and not self.breaking_gens


def graded_ideal_generators(g: Graph, h_set) -> KernelPresentation:
    h_set = frozenset(h_set)
    if not is_hereditary(g, h_set):
        raise GraphError("generator set must be hereditary")
    if not is_saturated(g, h_set):
        raise GraphError("generator set must be saturated")
    breaking = []
    for w in sorted(breaking_vertices(g, h_set)):
        edges = tuple(e for e in g.out_map[w] if g.tgt[e] not in h_set)
        breaking.append((w, edges))
    return KernelPresentation(h_set, tuple(breaking))


def breaking_generator_element(g: Graph, w: str, edges, field=QQ) -> LElement:
    """[chi_w] minus the sum of ee* over the finitely many listed edges."""
    acc = monomial_element(g, vertex_monomial(w), field)
    for e in edges:
        acc = acc - monomial_element(g, LMonomial(Path.of([e]), Path.of([e])), field)
    return acc


def ker_generators(h: GraphHom, field=QQ) -> KernelPresentation:
    """Generators of the kernel of the induced map on Leavitt path algebras.

    For h: G -> E in the admissible category the kernel of L(E) -> L(G) is the
    graded ideal over the complement of the vertex image.  Executes the
    sanity check that every vertex idempotent dies iff it lies outside the
    image (both directions).
    """
    _require_crtbpog(h)
    require_tail_free(h.codomain, "Leavitt path algebra")
    E = h.codomain
    h_set = frozenset(E.vertices - h.vertex_image())
    if not is_hereditary(E, h_set) or not is_saturated(E, h_set):
        raise HomError("complement of the image is not hereditary saturated; "
                       "this contradicts the admissible classification")
    pres = graded_ideal_generators(E, h_set)
    for v in sorted(E.vertices):
        died = l_pullback(h, monomial_element(E, vertex_monomial(v), field)).is_zero()
        if died != (v in h_set):
            raise HomError(f"kernel membership of vertex {v} disagrees with the image complement")
    for w, edges in pres.breaking_gens:
        if not l_pullback(h, breaking_generator_element(E, w, edges, field)).is_zero():
            raise HomError(f"breaking generator at {w} does not die")
    return pres


def _paths_by_end(g: Graph, n: int) -> dict:
    """End vertex -> the paths of length <= n ending there."""
    ends = {v: [] for v in g.vertices}
    for p in paths_up_to(g, n):
        ends[p.target(g)].append(p)
    return ends


def normal_monomials_window(g: Graph, max_total: int) -> list:
    """All NORMAL monomials with |alpha| + |beta| <= max_total, sorted."""
    designated = g.designated
    result = []
    for into in _paths_by_end(g, max_total).values():
        for alpha in into:
            for beta in into:
                if alpha.length + beta.length <= max_total:
                    m = LMonomial(alpha, beta)
                    if is_normal(m, designated):
                        result.append(m)
    result.sort(key=LMonomial.sort_key)
    return result


def all_pair_monomials(g: Graph) -> list:
    """Every alpha beta* with a common end vertex; finite iff g is acyclic."""
    if not is_acyclic(g):
        raise GraphError("pair monomial enumeration needs an acyclic graph")
    result = [LMonomial(alpha, beta)
              for into in _paths_by_end(g, len(g.edges)).values()
              for alpha in into for beta in into]
    result.sort(key=LMonomial.sort_key)
    return result


def leavitt_dimension_enumerated(g: Graph) -> int:
    """dim L(g) for acyclic g, by counting the NORMAL basis."""
    return sum(1 for m in all_pair_monomials(g) if is_normal(m, g.designated))


def leavitt_dimension_oracle(g: Graph) -> int:
    """dim L(g) for acyclic g by exact rank of the CK2 insertion relations
    on the full alpha beta* spanning set; independent of the normal form."""
    monos = all_pair_monomials(g)
    index = {m: i for i, m in enumerate(monos)}
    reg = regular_vertices(g)
    out = g.out_map
    rows = []
    for m in monos:
        v = m.alpha.target(g)
        if v in reg:
            row = {index[m]: QQ.one}
            for e in out[v]:
                row[index[LMonomial(Path.of(m.alpha.edges + (e,)),
                                    Path.of(m.beta.edges + (e,)))]] = -QQ.one
            rows.append(row)
    return len(monos) - rank(rows, QQ)


@dataclass(frozen=True)
class WindowCheck:
    degree: int
    dim_window: int
    dim_image: int
    dim_fiber: int
    injective: bool

    @property
    def consistent(self):
        # the fiber may exceed the truncated image when preimages need
        # monomials beyond the window; never the other way around
        return self.injective and self.dim_image <= self.dim_fiber

    @property
    def leakage(self):
        return self.dim_fiber - self.dim_image


@dataclass(frozen=True)
class LeavittPullbackReport:
    ok: bool
    kerint_ok: bool
    surjectivity_ok: bool
    kernel_ok: bool
    breakarrow_ok: bool
    commutes_ok: bool
    window_checks: tuple
    failures: tuple

    def window_consistent(self):
        return all(w.consistent for w in self.window_checks)


def generator_monomials(g: Graph) -> list:
    """Vertices, then each edge followed by its ghost, in sorted id order."""
    gens = [vertex_monomial(v) for v in sorted(g.vertices)]
    for e in sorted(g.edges):
        gens.append(edge_monomial(g, e))
        gens.append(ghost_monomial(g, e))
    return gens


def _image_monomial(h: GraphHom, mono: LMonomial) -> LMonomial:
    cod = h.codomain
    if mono.total == 0:
        return vertex_monomial(h.f0[mono.alpha.vertex])
    if mono.beta.is_vertex:
        return edge_monomial(cod, h.f1[mono.alpha.edges[0]])
    return ghost_monomial(cod, h.f1[mono.beta.edges[0]])


def verify_leavitt_pullback(f: GraphHom, g: GraphHom, n: int = 4, field=QQ,
                            po: PushoutGraph | None = None) -> LeavittPullbackReport:
    """Verify that the induced square of Leavitt path algebras is a pullback.

    Symbolic obligations, for P the pushout of E <-f- G -g-> F:
      (1) every pushout vertex lifts to E or F (kernel intersection zero),
      (2) each generator of L(G) and L(F) has an explicit preimage under the
          pullback of f and of the right injection respectively,
      (3) every kernel generator of the pullback of f is hit from the kernel
          of the right injection's pullback, using the breaking-arrow set
          identity at each uniquely covered vertex.
    A truncated rank cross-check on the span of NORMAL monomials with total
    degree <= n runs alongside, stratified by the Z-grading.
    """
    for graph in (f.domain, f.codomain, g.codomain):
        require_tail_free(graph, "Leavitt pullback verification")
    failures = []
    for name, hom in (("f", f), ("g", g)):
        cls = hom.classification
        if cls.category != CATEGORY_CRTBPOG:
            raise PreconditionError("CRTBPOG", f"leg {name} classifies as {cls.category}")
    flags = check_theorem_preconditions(f, g, po)
    if not flags.p1:
        raise PreconditionError("P1", "the left leg must be injective")
    if not flags.p2:
        raise PreconditionError("P2")
    po = po or pushout_square(f, g)
    iota_e, iota_f = po.iota_left, po.iota_right
    for name, hom in (("iota_E", iota_e), ("iota_F", iota_f)):
        cls = hom.classification
        if cls.category != CATEGORY_CRTBPOG:
            raise PreconditionError("admissible-pushout",
                                    f"{name} classifies as {cls.category}")
    E, F, G = f.codomain, g.codomain, f.domain
    p_graph = po.graph

    # (1) kernel intersection: every pushout vertex is covered
    covered = set(iota_e.f0.values()) | set(iota_f.f0.values())
    kerint_ok = covered == p_graph.vertices
    if not kerint_ok:
        failures.append(("kerint", sorted(p_graph.vertices - covered)))

    # (2) surjectivity of f* and iota_F* on generators, via P1 injectivity
    surjectivity_ok = True
    for hom, side in ((f, "f"), (iota_f, "iota_F")):
        dom_alg = hom.domain
        for mono in generator_monomials(dom_alg):
            candidate = monomial_element(hom.codomain, _image_monomial(hom, mono), field)
            want = monomial_element(dom_alg, mono, field)
            if l_pullback(hom, candidate) != want:
                surjectivity_ok = False
                failures.append(("surjectivity", side, str(mono)))

    # (3) kernel generators of f* lift through ker iota_F*
    kernel_ok = True
    pres = ker_generators(f, field)
    for v in sorted(pres.vertex_gens):
        q = iota_e.f0[v]
        in_f_side = q in iota_f.vertex_fibers
        lifted = monomial_element(p_graph, vertex_monomial(q), field)
        if (in_f_side or iota_e.vertex_fibers[q] != (v,)
                or not l_pullback(iota_f, lifted).is_zero()
                or l_pullback(iota_e, lifted) != monomial_element(E, vertex_monomial(v), field)):
            kernel_ok = False
            failures.append(("kernel-vertex", v))
    f_image = iota_f.vertex_image()
    b_p = breaking_vertices(p_graph, p_graph.vertices - f_image)
    for w, edges in pres.breaking_gens:
        q = iota_e.f0[w]
        gen_e = breaking_generator_element(E, w, edges, field)
        p_edges = tuple(x for x in p_graph.out_map[q] if p_graph.tgt[x] not in f_image)
        gen_p = breaking_generator_element(p_graph, q, p_edges, field)
        if (q not in b_p or iota_e.vertex_fibers[q] != (w,)
                or not l_pullback(iota_f, gen_p).is_zero()
                or l_pullback(iota_e, gen_p) != gen_e):
            kernel_ok = False
            failures.append(("kernel-breaking", w))

    # breaking-arrow set identity at every uniquely covered vertex
    breakarrow_ok, ba_witnesses = breakarrow_identity(f, g, po)
    if not breakarrow_ok:
        failures.append(("breakarrow", tuple(ba_witnesses)))

    # commutativity of the square on every generator of L(P)
    commutes_ok = True
    for mono in generator_monomials(p_graph):
        x = monomial_element(p_graph, mono, field)
        left = l_pullback(f, l_pullback(iota_e, x))
        right = l_pullback(g, l_pullback(iota_f, x))
        if left != right:
            commutes_ok = False
            failures.append(("commutes", str(mono)))

    window_checks = _window_cross_check(f, g, po, n, field)
    for w in window_checks:
        if not w.consistent:
            failures.append(("window", w.degree, w.dim_image, w.dim_fiber))

    ok = (kerint_ok and surjectivity_ok and kernel_ok and breakarrow_ok
          and commutes_ok and all(w.consistent for w in window_checks))
    return LeavittPullbackReport(ok, kerint_ok, surjectivity_ok, kernel_ok,
                                 breakarrow_ok, commutes_ok, tuple(window_checks),
                                 tuple(failures))


def _window_cross_check(f, g, po, n, field):
    E, F, G = f.codomain, g.codomain, f.domain
    p_graph = po.graph
    bases = {"P": normal_monomials_window(p_graph, n),
             "E": normal_monomials_window(E, n),
             "F": normal_monomials_window(F, n),
             "G": normal_monomials_window(G, n)}
    degrees = sorted({m.degree for ms in bases.values() for m in ms})
    by_deg = {name: {d: [m for m in ms if m.degree == d] for d in degrees}
              for name, ms in bases.items()}
    checks = []
    for d in degrees:
        p_d = by_deg["P"][d]
        e_d = by_deg["E"][d]
        f_d = by_deg["F"][d]
        g_d = by_deg["G"][d]
        e_idx = {m: i for i, m in enumerate(e_d)}
        f_idx = {m: i for i, m in enumerate(f_d)}
        g_idx = {m: i for i, m in enumerate(g_d)}

        def column(hom, idx, mono, offset=0):
            """The pulled-back monomial as a sparse column.  Pullbacks keep
            lengths and CK2 rewriting never lengthens a monomial, so every
            term lies in the window of degree d."""
            elem = l_pullback(hom, monomial_element(hom.codomain, mono, field))
            try:
                return {offset + idx[m]: c for m, c in elem.terms.items()}
            except KeyError as exc:
                raise HomError(f"degree {d}: the pullback of {mono} has the term "
                               f"{exc.args[0]} outside the window") from None

        # matrices are handed to rank column by column (rank is
        # transpose-invariant); E and F coordinates stack at offset len(e_d)
        image_cols = [{**column(po.iota_left, e_idx, mono),
                       **column(po.iota_right, f_idx, mono, len(e_d))} for mono in p_d]
        dim_image = rank(image_cols, field)
        injective = dim_image == len(image_cols)

        # the fiber's constraint matrix is [f* | -g*]; negating the g*
        # columns leaves the rank unchanged
        constraint = ([column(f, g_idx, mono) for mono in e_d]
                      + [column(g, g_idx, mono) for mono in f_d])
        dim_fiber = len(e_d) + len(f_d) - rank(constraint, field)
        checks.append(WindowCheck(d, len(p_d), dim_image, dim_fiber, injective))
    return checks
