from collections import Counter, defaultdict
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from quivpush.fields import QQ, Field, field_from_name

from quivpush.graph import (Graph, GraphError, Path, PreconditionError, path_walk, paths_up_to,
                            union_graph)
from quivpush.linalg import rank
from quivpush.morphism import (DomainMismatch, GraphHom, HomError, classify_hom,
                               compose, regular_vertices)
from quivpush.path_algebra import PAElement, pa_mul, pa_pullback, path_preimages
from quivpush import leavitt
from quivpush.pushout import pushout_square
from quivpush.leavitt import (LElement, LMonomial, _end_pairs, edge_monomial,
                              ghost_monomial, is_normal, ker_generators,
                              l_mul, l_pullback, l_unit, monomial_element,
                              normal_form, normal_monomials_window,
                              verify_leavitt_pullback, vertex_monomial)
from quivpush.randgen import (admpush_instance, case_rng, fold_hom,
                              leavitt_union_instance, random_crtbpog_hom,
                              random_general_hom, random_graph)
from test_graph import topological_order
from test_morphism import is_hereditary, is_saturated

EDGE = Graph.build(["v", "w"], [("e", "v", "w")])
LOOP = Graph.build(["u"], [("l", "u", "u")])
E, E_GHOST = ("e", False), ("e", True)     # the letters e and e* of a word


def _mono(g, mono, field=QQ):
    return monomial_element(g, mono, field)


def test_ck1_same_edge():
    assert normal_form(EDGE, [E_GHOST, E]) == _mono(EDGE, vertex_monomial("w"))


def test_equality_compares_the_field():
    f7 = Field(7)
    assert LElement(EDGE, QQ, {}) != LElement(EDGE, f7, {})
    assert LElement(EDGE, f7, {}) == LElement(EDGE, Field(7), {})
    assert len({LElement(EDGE, f7, {}), LElement(EDGE, Field(7), {})}) == 1


def test_ck1_different_edges():
    g = Graph.build(["a", "b"], [("e", "a", "b"), ("f", "a", "b")])
    assert normal_form(g, [E_GHOST, ("f", False)]).is_zero()


def test_ck2_single_edge_collapses_to_vertex():
    assert normal_form(EDGE, [E, E_GHOST]) == _mono(EDGE, vertex_monomial("v"))


def test_normal_form_rejects_non_paths():
    for word in ([E, E], [E_GHOST, E_GHOST], [], [("x", False)]):
        with pytest.raises(GraphError):
            normal_form(EDGE, word)


def test_vertex_idempotent():
    chi_v = _mono(EDGE, vertex_monomial("v"))
    assert l_mul(chi_v, chi_v) == chi_v


def test_loop_corner_invertibility():
    chi_l = _mono(LOOP, edge_monomial(LOOP, "l"))
    chi_ls = _mono(LOOP, ghost_monomial(LOOP, "l"))
    chi_u = _mono(LOOP, vertex_monomial("u"))
    assert l_mul(chi_ls, chi_l) == chi_u
    assert l_mul(chi_l, chi_ls) == chi_u
    assert l_mul(l_mul(chi_l, chi_ls), chi_l) == chi_l


def all_pair_monomials(g: Graph) -> list:
    """Every alpha beta* with a common end vertex; finite iff g is acyclic."""
    if topological_order(g) is None:
        raise GraphError("pair monomial enumeration needs an acyclic graph")
    # no path of an acyclic graph is longer than its edge count
    return sorted(_end_pairs(g, 2 * len(g.edges)), key=LMonomial.sort_key)


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
            row = {index[m]: 1}
            for e in out[v]:
                row[index[LMonomial(Path(m.alpha.start, m.alpha.edges + (e,)),
                                    Path(m.beta.start, m.beta.edges + (e,)))]] = -1
            rows.append(row)
    return len(monos) - rank(rows, 0)


def test_single_edge_dimension_four():
    assert leavitt_dimension_enumerated(EDGE) == 4
    assert leavitt_dimension_oracle(EDGE) == 4
    window = normal_monomials_window(EDGE, 2)
    assert len(window) == 4
    assert LMonomial(Path("v", ("e",)), Path("v", ("e",))) not in window


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_dimension_oracle_matches_enumeration(seed):
    g = random_graph(case_rng(seed, 30), max_v=5, max_e=6, acyclic=True)
    assert leavitt_dimension_enumerated(g) == leavitt_dimension_oracle(g)


@st.composite
def small_graphs(draw, acyclic, max_e):
    """Up to four vertices and max_e edges, parallel edges allowed; loops and
    cycles only when acyclic is false."""
    n = draw(st.integers(1, 4))
    arcs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=max_e))
    if acyclic:
        arcs = [(min(a), max(a)) for a in arcs if a[0] != a[1]]
    return Graph.build([f"v{i}" for i in range(n)],
                       [(f"e{k}", f"v{i}", f"v{j}") for k, (i, j) in enumerate(arcs)])


@settings(max_examples=60, deadline=None)
@given(small_graphs(acyclic=True, max_e=6))
def test_dimension_enumeration_matches_oracle_on_drawn_graphs(g):
    assert leavitt_dimension_enumerated(g) == leavitt_dimension_oracle(g)


@settings(max_examples=60, deadline=None)
@given(small_graphs(acyclic=False, max_e=4), st.integers(0, 3))
def test_window_matches_brute_force_pairs(g, n):
    paths = paths_up_to(g, n)
    brute = [LMonomial(a, b) for a in paths for b in paths
             if a.target(g) == b.target(g) and a.length + b.length <= n]
    brute = sorted((m for m in brute if is_normal(m, g.designated)),
                   key=LMonomial.sort_key)
    assert normal_monomials_window(g, n) == brute


def test_enumerators_reject_tailed_graphs():
    g = Graph.build(["v", "w"], [("e", "v", "w")], omega_tails=[("v", "w")])
    for enumerate_ in (leavitt_dimension_enumerated, leavitt_dimension_oracle,
                       lambda g: normal_monomials_window(g, 2)):
        with pytest.raises(PreconditionError, match="tail-free"):
            enumerate_(g)


def test_path_and_leavitt_elements_share_text_but_never_mix():
    pa = PAElement.basis(EDGE, Path("v"))
    la = _mono(EDGE, vertex_monomial("v"))
    assert str(pa) == str(la) == "1*chi[v]"
    assert pa != la and PAElement(EDGE, QQ, {}) != LElement(EDGE, QQ, {})
    with pytest.raises(DomainMismatch):
        pa + la


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_ck_identities_in_normal_form(seed):
    g = random_graph(case_rng(seed, 31), max_v=4, max_e=5)
    for e in sorted(g.edges):
        for f in sorted(g.edges):
            lhs = l_mul(_mono(g, ghost_monomial(g, e)), _mono(g, edge_monomial(g, f)))
            rhs = _mono(g, vertex_monomial(g.tgt[e])) if e == f else LElement(g, QQ, {})
            assert lhs == rhs
    for v in sorted(regular_vertices(g)):
        acc = LElement(g, QQ, {})
        for e in sorted(g.edges):
            if g.src[e] == v:
                acc = acc + l_mul(_mono(g, edge_monomial(g, e)),
                                  _mono(g, ghost_monomial(g, e)))
        assert acc == _mono(g, vertex_monomial(v))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_l_mul_associative(seed):
    rng = case_rng(seed, 32)
    g = random_graph(rng, max_v=4, max_e=5)
    monos = normal_monomials_window(g, 2)
    if not monos:
        return
    for _ in range(8):
        a = _mono(g, rng.choice(monos))
        b = _mono(g, rng.choice(monos))
        c = _mono(g, rng.choice(monos))
        assert l_mul(l_mul(a, b), c) == l_mul(a, l_mul(b, c))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_grading(seed):
    rng = case_rng(seed, 33)
    g = random_graph(rng, max_v=4, max_e=5)
    monos = normal_monomials_window(g, 3)
    if not monos:
        return
    for _ in range(8):
        m1 = rng.choice(monos)
        m2 = rng.choice(monos)
        elem = l_mul(_mono(g, m1), _mono(g, m2))
        assert all(m.degree == m1.degree + m2.degree for m in elem.terms)


def test_normal_form_preserves_grading():
    g = Graph.build(["a", "b", "c"],
                    [("e1", "a", "b"), ("e2", "a", "c"), ("f", "b", "c")])
    non_normal = LMonomial(Path("a", ("e1",)), Path("a", ("e1",)))
    elem = monomial_element(g, non_normal)
    assert all(m.degree == 0 for m in elem.terms)


def _reduce_word(g, letters):
    """Reference for normal_form: cancel each e* followed by e (a ghost
    followed by a different real edge kills the word), so that the real
    letters alpha come before the ghosts beta*, then normalize alpha beta*."""
    e, ghost = letters[0]
    start = g.tgt[e] if ghost else g.src[e]
    word = []
    for e, ghost in letters:
        if word and word[-1][1] and not ghost:
            if word[-1][0] != e:
                return LElement(g, QQ, {})
            word.pop()
        else:
            word.append((e, ghost))
    reals = [e for e, ghost in word if not ghost]
    ghosts = [e for e, ghost in reversed(word) if ghost]
    alpha = Path(start, tuple(reals))
    beta = Path(g.src[ghosts[0]] if ghosts else alpha.target(g), tuple(ghosts))
    return _mono(g, LMonomial(alpha, beta))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_normal_form_matches_iterated_letter_product(seed):
    """Multiplying a word's letters one at a time agrees with cancelling
    ghost/real pairs first and normalizing the one monomial left over."""
    rng = case_rng(seed, 39)
    g = random_graph(rng, max_v=4, max_e=5)
    if not g.edges:
        return
    # the letters leaving each vertex: its out-edges and the ghosts of its in-edges
    out = {v: [] for v in g.vertices}
    for e in sorted(g.edges):
        out[g.src[e]].append((e, False))
        out[g.tgt[e]].append((e, True))
    for _ in range(5):
        here = rng.choice(sorted(g.vertices))
        letters = []
        for _ in range(rng.randint(1, 6)):
            if not out[here]:
                break
            e, ghost = rng.choice(out[here])
            letters.append((e, ghost))
            here = g.src[e] if ghost else g.tgt[e]
        if letters:
            assert normal_form(g, letters) == _reduce_word(g, letters)


def test_pullback_identity():
    h = GraphHom.identity(EDGE)
    chi = _mono(EDGE, edge_monomial(EDGE, "e"))
    assert l_pullback(h, chi) == chi


def test_pullback_admissible_inclusion_spec_example():
    sup = union_graph(EDGE, Graph(["v", "w", "u"]))
    h = GraphHom.inclusion(EDGE, sup)
    assert l_pullback(h, _mono(sup, vertex_monomial("u"))).is_zero()
    assert l_pullback(h, _mono(sup, vertex_monomial("v"))) == \
        _mono(EDGE, vertex_monomial("v"))


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10**6))
def test_pullback_contravariant_on_folds(seed):
    rng = case_rng(seed, 34)
    base = random_graph(rng, max_v=3, max_e=3, prefix="b")
    outer = fold_hom(2, base)
    inner = fold_hom(2, outer.domain)
    comp = compose(outer, inner)
    for v in sorted(base.vertices):
        chi = _mono(base, vertex_monomial(v))
        assert l_pullback(comp, chi) == l_pullback(inner, l_pullback(outer, chi))
    for e in sorted(base.edges):
        chi = _mono(base, edge_monomial(base, e))
        assert l_pullback(comp, chi) == l_pullback(inner, l_pullback(outer, chi))


def test_pullback_renormalizes_when_special_edges_differ():
    """A fiber can reorder edge names, so the lift of a NORMAL monomial may
    end in the domain's designated edge and needs a fresh CK2 pass."""
    cod = Graph.build(["w", "s1", "s2"],
                      [("a", "w", "s1"), ("b", "w", "s2")])
    dom = Graph.build(["w0", "s1_0", "s2_0"],
                      [("zz", "w0", "s1_0"), ("aa", "w0", "s2_0")])
    h = GraphHom(dom, cod, {"w0": "w", "s1_0": "s1", "s2_0": "s2"},
                 {"zz": "a", "aa": "b"})
    assert classify_hom(h).category == "CRTBPOG"
    bb_star = _mono(cod, LMonomial(Path("w", ("b",)), Path("w", ("b",))))
    assert len(bb_star.terms) == 1  # normal upstairs: b is not special at w
    pulled = l_pullback(h, bb_star)
    expect = (_mono(dom, vertex_monomial("w0"))
              - _mono(dom, LMonomial(Path("w0", ("zz",)), Path("w0", ("zz",)))))
    assert pulled == expect


def _extended(g):
    """The extended graph of g, with the letters (e, False) and (e, True)
    of normal_form as its edge ids: the ghost e* runs from t(e) to s(e)."""
    src, tgt = {}, {}
    for e in g.edges:
        src[e, False], tgt[e, False] = g.src[e], g.tgt[e]
        src[e, True], tgt[e, True] = g.tgt[e], g.src[e]
    return Graph(g.vertices, src, src, tgt)


def _pullback_through_extended_hom(h, a):
    """Reference for l_pullback: extend h to the extended graphs, ghosts to
    ghosts, write each monomial alpha beta* as the extended word alpha
    followed by beta's ghosts reversed, and take the normal form of every
    extended-path preimage of that word."""
    hbar = GraphHom(_extended(h.domain), _extended(h.codomain), h.f0,
                    {(e, ghost): (h.f1[e], ghost) for e in h.domain.edges
                     for ghost in (False, True)})
    total = LElement(h.domain, a.field, {})
    for mono, c in a.terms.items():
        word = Path(mono.alpha.start,
                    tuple([(e, False) for e in mono.alpha.edges]
                          + [(e, True) for e in reversed(mono.beta.edges)]))
        for q in path_preimages(hbar, word):
            if not q.edges:
                total = total + monomial_element(h.domain, vertex_monomial(q.start),
                                                 a.field, c)
            else:
                total = total + normal_form(h.domain, q.edges, c, a.field)
    return total


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["q", "fp:2", "fp:7"]), st.data())
def test_pullback_matches_extended_hom_oracle(seed, field_name, data):
    """l_pullback of single monomials and of a sum of drawn terms agrees
    with the oracle.  The coefficients are Fractions over Q and ints over
    Z/p, where Z/2 has -c = c, so each field sees the coefficient that CK2
    rewriting carries into every pulled-back pair."""
    field = field_from_name(field_name)
    h = random_crtbpog_hom(case_rng(seed, 40))
    cod = h.codomain
    window = normal_monomials_window(cod, 3)
    elements = [monomial_element(cod, mono, field) for mono in window]
    a = LElement(cod, field, {})
    if window:
        coeffs = (st.fractions(-3, 3, max_denominator=4) if field is QQ
                  else st.integers(-3, 3))
        picks = data.draw(st.lists(st.tuples(st.sampled_from(window), coeffs),
                                   max_size=6))
        for mono, c in picks:
            a = a + monomial_element(cod, mono, field, c)
    for x in elements + [a]:
        assert l_pullback(h, x) == _pullback_through_extended_hom(h, x)


def _assert_reduced(elem, p):
    assert all(type(c) is int and 0 < c < p for c in elem.terms.values()), elem.terms


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 7, 2**31 - 1]), st.data())
def test_prime_field_coefficients_are_reduced_ints(seed, p, data):
    """Over Z/p every coefficient that an operation leaves is an int in
    range(1, p): the constructor reduces the unreduced ints that the
    operations add and multiply, and drops the ones that vanish mod p."""
    field = Field(p)
    h = random_crtbpog_hom(case_rng(seed, 42))
    cod = h.codomain
    coeffs = st.integers(-3 * p, 3 * p) | st.sampled_from([p, -p, 2 * p + 1])
    paths = paths_up_to(cod, 2)
    window = normal_monomials_window(cod, 2)
    a, b = (PAElement(cod, field, data.draw(st.dictionaries(st.sampled_from(paths), coeffs,
                                                            max_size=5)))
            for _ in range(2))
    x, y = (LElement(cod, field, data.draw(st.dictionaries(st.sampled_from(window), coeffs,
                                                           max_size=5)))
            for _ in range(2))
    c = data.draw(coeffs)
    mono = data.draw(st.sampled_from(window))
    word = ([(e, False) for e in mono.alpha.edges]
            + [(e, True) for e in reversed(mono.beta.edges)])
    results = [a, b, x, y, a + b, a - b, -a, a.scale(c), pa_mul(a, b),
               pa_pullback(h, a), x + y, x - y, -x, x.scale(c), l_mul(x, y),
               l_pullback(h, x), monomial_element(cod, mono, field, c)]
    if word:
        results.append(normal_form(cod, word, c, field))
    for elem in results:
        _assert_reduced(elem, p)
    nonzero = next((e for e in (a, x) if not e.is_zero()), None)
    if nonzero is not None:
        with pytest.raises(TypeError):
            nonzero.scale(Fraction(1, 2))


def _image_paths(images):
    """Id -> codomain Path of an image table of leavitt._window_columns,
    whose keys are a vertex or the pair of a path's id and an edge."""
    paths = []
    for key, i in images.items():
        assert i == len(paths)
        if isinstance(key, str):
            paths.append(Path(key))
        else:
            prefix, edge = key
            paths.append(Path(paths[prefix].start, paths[prefix].edges + (edge,)))
    return paths


def _window_columns(h, n, columns, images, offset=0):
    """The oracle of the window image: every column built in full.  Add to
    columns, a defaultdict(dict) of degree -> {(a, b): {row: int}}, the
    pullback along h of each NORMAL codomain monomial alpha beta* with
    total <= n, and return the graph.path_walk of the N domain paths of
    length <= n.  Rows and column keys are numbered as in
    leavitt._window_columns, which counts the columns that have a row of
    their own and builds only the rest.  Each domain pair adds its normal
    form to the column of its image if that is normal."""
    E, e_special, p_special = h.domain, h.domain.designated, h.codomain.designated
    walk = path_walk(E, n)
    size, image, index = len(walk.end), [], None
    # by end vertex: id, length, image id, special last edge or None, and
    # the image's special last edge or None
    ends = {}
    for i, (parent, last, end, length) in enumerate(zip(*walk)):
        hlast = None if last is None else h.f1[last]
        key = h.f0[end] if last is None else (image[parent], hlast)
        image.append(images.setdefault(key, len(images)))
        ends.setdefault(end, []).append(
            (i, length, image[i], last if last in e_special else None,
             hlast if hlast in p_special else None))
    for run in ends.values():
        # run is in length order, so the betas that fit form a prefix
        for i, la, ha, sa, hsa in run:
            base = offset + i * size
            for j, lb, hb, sb, hsb in run:
                if la + lb > n:
                    break
                if hsa is not None and hsa == hsb:
                    continue
                col = columns[la - lb].setdefault((ha, hb), {})
                if sa is None or sa != sb:
                    col[base + j] = col.get(base + j, 0) + 1
                    continue
                if index is None:
                    paths = walk.paths()
                    index = {p: k for k, p in enumerate(paths)}
                acc = {}
                leavitt._ck2_accumulate(E, LMonomial(paths[i], paths[j]), 1, acc)
                for t, c in acc.items():
                    r = offset + index[t.alpha] * size + index[t.beta]
                    col[r] = col.get(r, 0) + c
    return walk


def _image_ranks(po, n, p):
    """Degree -> the rank in characteristic p of the image of the window
    cross-check: the oracle's columns of both injections, which share one
    image table, with F's rows after every pair of E's paths."""
    columns, images = defaultdict(dict), {}
    walk = _window_columns(po.iota_left, n, columns, images)
    _window_columns(po.iota_right, n, columns, images, len(walk.end) ** 2)
    return {d: rank(list(cols.values()), p) for d, cols in columns.items()}


def _columns_by_monomial(h, n, images=None):
    """The oracle's window columns of h, degree -> {codomain monomial:
    {domain monomial: int}}: column keys decode through the image table,
    images if given, and rows through the walk."""
    by_degree, images = defaultdict(dict), {} if images is None else images
    walk = _window_columns(h, n, by_degree, images)
    size, paths = len(walk.end), walk.paths()
    image = _image_paths(images)
    return {d: {LMonomial(image[a], image[b]): {LMonomial(paths[r // size], paths[r % size]): c
                                                for r, c in col.items()}
                for (a, b), col in cols.items()}
            for d, cols in by_degree.items()}


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 4))
def test_window_column_terms_lie_in_the_domain_window(seed, n):
    """Every column holds NORMAL domain monomials of the column's degree
    with total <= n, and sits under a NORMAL codomain monomial of that
    degree and total: the window cross-check needs no guard against a term
    outside its window."""
    h = random_crtbpog_hom(case_rng(seed, 43))
    dom, cod = h.domain, h.codomain
    for d, cols in _columns_by_monomial(h, n).items():
        for m, col in cols.items():
            assert is_normal(m, cod.designated)
            assert (m.degree, m.total <= n) == (d, True)
            for t in col:
                assert is_normal(t, dom.designated)
                assert (t.degree, t.total <= n) == (d, True)


def _assert_window_columns_match_oracle(h, n, field, images=None):
    """The window cross-check builds all columns of a window in one pass
    over the domain's pairs.  The slow reference pulls back each window
    monomial on its own; the two must agree term by term, so an empty
    column, or a term whose coefficients cancel, must be absent from both.
    The columns hold ints, compared in the field: a coefficient that
    vanishes mod p drops out."""
    oracle = {m: terms for m in normal_monomials_window(h.codomain, n)
              if (terms := l_pullback(h, monomial_element(h.codomain, m, field)).terms)}
    columns = {m: col for cols in _columns_by_monomial(h, n, images).values()
               for m, col in cols.items()}
    assert all(type(c) is int for col in columns.values() for c in col.values())
    p = field.characteristic
    in_field = {m: terms for m, col in columns.items()
                if (terms := {t: x for t, c in col.items() if (x := c % p if p else c)})}
    assert in_field == oracle


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["q", "fp:7", "fp:2"]), st.integers(0, 4))
def test_window_columns_match_per_monomial_pullbacks(seed, field_name, n):
    h = random_crtbpog_hom(case_rng(seed, 41))
    _assert_window_columns_match_oracle(h, n, field_from_name(field_name))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([leavitt_union_instance, admpush_instance]),
       st.sampled_from(["q", "fp:7", "fp:2"]), st.integers(0, 4))
def test_pushout_square_columns_match_per_monomial_pullbacks(seed, instance, field_name, n):
    """All four homs of a criterion-11 square: both legs and both injections.
    The injections share one image table, as in the window cross-check, and
    it gives each path of P that either one hits one id."""
    f, g = instance(case_rng(seed, 42))
    po = pushout_square(f, g)
    field = field_from_name(field_name)
    for h in (f, g):
        _assert_window_columns_match_oracle(h, n, field)
    images = {}
    for h in (po.iota_left, po.iota_right):
        _assert_window_columns_match_oracle(h, n, field, images)
    image = _image_paths(images)
    assert len(set(image)) == len(image)


def _fiber_rank_oracle(f, g, n, p):
    """Degree -> rank in characteristic p of the fiber's constraint matrix
    [f* | -g*]: the pullbacks of E's and F's window monomials along f and
    g, as columns over G's window of the same degree.  The verifier counts
    the fiber as |E_d| + |F_d| - |G_d| instead, which needs this rank to be
    |G_d|.  A window monomial that pulls back to 0 has no column, which
    leaves the rank as it is.  Rows are G's monomials, decoded from both
    legs' walks and numbered here."""
    legs = [_columns_by_monomial(h, n) for h in (f, g)]
    rows = {}
    degrees = set().union(*(_window_sizes(x, n) for x in (f.codomain, g.codomain, f.domain)))
    return {d: rank([{rows.setdefault(t, len(rows)): c for t, c in col.items()}
                     for cols in legs for col in cols.get(d, {}).values()], p)
            for d in degrees}


def _window_sizes(g, n):
    """Degree -> the number of NORMAL monomials of g with total <= n."""
    return Counter(m.degree for m in normal_monomials_window(g, n))


@settings(max_examples=150, deadline=None)
@given(st.tuples(small_graphs(acyclic=False, max_e=5) | st.just(Graph(())), st.integers(0, 5))
       | st.tuples(small_graphs(acyclic=True, max_e=5), st.integers(0, 12)))
def test_window_sizes_count_the_window(draw):
    """The closed-form window sizes against the enumerated window, on
    drawn graphs with loops, parallel edges and sinks, and the empty graph,
    and on acyclic ones at n up to 12, past their longest path, where the
    path counts stop before n."""
    g, n = draw
    assert leavitt._window_sizes(g, n) == _window_sizes(g, n)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([leavitt_union_instance, admpush_instance]),
       st.sampled_from(["q", "fp:2", "fp:7", "fp:2147483647"]), st.integers(0, 4))
def test_fiber_count_matches_the_rank_oracle(seed, instance, field_name, n):
    f, g = instance(case_rng(seed, 45))
    field = field_from_name(field_name)
    report = verify_leavitt_pullback(f, g, n, field)
    ranks = _fiber_rank_oracle(f, g, n, field.characteristic)
    sizes_e, sizes_f, sizes_g = (_window_sizes(x, n) for x in (f.codomain, g.codomain,
                                                              f.domain))
    assert [w.degree for w in report.degrees] == sorted(ranks)
    for w in report.degrees:
        d = w.degree
        assert ranks[d] == sizes_g[d]
        assert w.dim_fiber == sizes_e[d] + sizes_f[d] - ranks[d]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([leavitt_union_instance, admpush_instance]),
       st.sampled_from(["q", "fp:2", "fp:7"]), st.integers(0, 4))
@example(264, leavitt_union_instance, "q", 2)
@example(242, leavitt_union_instance, "fp:2", 2)
def test_counted_image_is_the_oracle_rank(seed, instance, field_name, n):
    """The window cross-check counts the columns that have a row of their
    own and ranks only the rest; on a criterion-11 square that is the rank
    of all the oracle's columns, degree by degree, over every field.  Few
    draws leave columns to rank; the two examples do, after CK2 rewriting."""
    f, g = instance(case_rng(seed, 46))
    field = field_from_name(field_name)
    ranks = _image_ranks(pushout_square(f, g), n, field.characteristic)
    for w in verify_leavitt_pullback(f, g, n, field).degrees:
        assert w.dim_image == ranks.get(w.degree, 0)


@pytest.mark.parametrize("case", range(20))
def test_fiber_count_needs_an_injective_left_leg(case):
    """With a 2-fold cover as both legs, f* and g* map into the diagonal
    of G's two copies, so [f* | -g*] falls short of |G_d| and the count
    would be wrong; the verifier refuses by P1.  An injective leg on either
    side is enough for the rank, so both legs fold here: an admpush square,
    whose right leg folds, shows no shortfall."""
    fold = fold_hom(2, random_graph(case_rng(9, case), max_v=3, max_e=4))
    ranks = _fiber_rank_oracle(fold, fold, 2, 0)
    sizes = _window_sizes(fold.domain, 2)
    assert any(ranks[d] < sizes[d] for d in ranks)
    with pytest.raises(PreconditionError) as err:
        verify_leavitt_pullback(fold, fold, 2)
    assert err.value.flag == "P1"


def test_word_reduction_mixed_letters():
    # e* e e*  ->  e*;  e e* e -> e
    assert normal_form(EDGE, [E_GHOST, E, E_GHOST]) == \
        _mono(EDGE, LMonomial(Path("w"), Path("v", ("e",))))
    assert normal_form(EDGE, [E, E_GHOST, E]) == \
        _mono(EDGE, LMonomial(Path("v", ("e",)), Path("w")))


def test_pullback_refuses_non_crtbpog():
    h = GraphHom.inclusion(Graph(["w"]), EDGE)
    with pytest.raises(PreconditionError) as err:
        l_pullback(h, _mono(EDGE, vertex_monomial("w")))
    assert err.value.flag == "CRTBPOG"


class DescentError(HomError):
    """A Cuntz-Krieger descent identity failed; names the violating generator."""


def verify_descent(h):
    """The descent oracle: check both Cuntz-Krieger identities on the
    pullbacks of the codomain's generators along h, and raise DescentError
    naming the first violating generator.  The library relies on the
    paper's descent lemma and never runs this; here it shows that the
    pullback of _pull is an algebra map.  A monomial pulls back to an int
    combination, so a check over Q serves every field."""
    E, F = h.domain, h.codomain

    def pulled(mono):
        return leavitt._pull(h, {mono: 1}, QQ)

    edge = {x: pulled(edge_monomial(F, x)) for x in F.edges}
    ghost = {x: pulled(ghost_monomial(F, x)) for x in F.edges}
    # e* f is zero for e != f, and the preimages of distinct edges are
    # disjoint, so CK1 can only fail on the diagonal x* x = t(x)
    for x in sorted(F.edges):
        if l_mul(ghost[x], edge[x]) != pulled(vertex_monomial(F.tgt[x])):
            raise DescentError(f"CK1 descent fails on edge {x}")
    for w in sorted(regular_vertices(F)):
        acc = LElement(E, QQ, {})
        for x in F.out_map[w]:
            acc = acc + l_mul(edge[x], ghost[x])
        if acc != pulled(vertex_monomial(w)):
            raise DescentError(f"CK2 descent fails at regular vertex {w}")


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_descent_identities_and_kerver(seed):
    h = random_crtbpog_hom(case_rng(seed, 35))
    verify_descent(h)
    image = h.vertex_image()
    for v in sorted(h.codomain.vertices):
        elem = l_pullback(h, _mono(h.codomain, vertex_monomial(v)))
        assert elem.is_zero() == (v not in image)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_ck1_square_vanishes_off_the_diagonal(seed):
    """verify_descent checks CK1 only on the diagonal x*x = t(x), which
    holds for admissible homs; over the whole square of codomain edges, x*y
    pulls back to zero for x != y on arbitrary homs as well."""
    rng = case_rng(seed, 41)
    crtbpog = random_crtbpog_hom(rng)
    general = random_general_hom(rng, random_graph(rng, max_v=3, max_e=5))
    for h in (crtbpog, general):
        F = h.codomain

        def pulled(mono):
            return leavitt._pull(h, {mono: 1}, QQ)

        edge = {x: pulled(edge_monomial(F, x)) for x in F.edges}
        ghost = {x: pulled(ghost_monomial(F, x)) for x in F.edges}
        for x in F.edges:
            for y in F.edges:
                product = l_mul(ghost[x], edge[y])
                if x != y:
                    assert product.is_zero()
                elif h is crtbpog:
                    assert product == pulled(vertex_monomial(F.tgt[x]))


@pytest.mark.parametrize("broken, message", [
    ("ghosts doubled", "CK1 descent fails on edge e"),
    ("source vertex dropped", "CK2 descent fails at regular vertex v"),
])
def test_descent_error_fires_on_a_broken_pullback(monkeypatch, broken, message):
    pull = leavitt._pull

    def bad_pull(h, terms, field):
        out = pull(h, terms, field)
        if broken == "ghosts doubled" and any(m.degree < 0 for m in terms):
            return out.scale(2)
        if broken == "source vertex dropped" and vertex_monomial("v") in terms:
            return LElement(h.domain, field, {})
        return out

    monkeypatch.setattr(leavitt, "_pull", bad_pull)
    with pytest.raises(DescentError, match=message):
        verify_descent(GraphHom.identity(EDGE))


def test_pullback_unital():
    h = fold_hom(2, EDGE)
    assert l_pullback(h, l_unit(EDGE)) == l_unit(h.domain)


def test_ker_generators_identity_and_inclusion():
    assert ker_generators(GraphHom.identity(EDGE)) == frozenset()
    sup = union_graph(EDGE, Graph(["u"]))
    assert ker_generators(GraphHom.inclusion(EDGE, sup)) == {"u"}
    fold = fold_hom(2, EDGE)
    assert ker_generators(fold) == frozenset()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_ker_generators_are_hereditary_and_saturated(seed):
    """The kernel vertices of a CRTBPOG hom, the complement of its vertex
    image, form a hereditary set (target bijectivity lifts an edge into the
    image, and its source with it) and a saturated one (regularity gives a
    regular image vertex an edge into the image); ker_generators relies on
    both without checking them."""
    h = random_crtbpog_hom(case_rng(seed, 44))
    kernel = ker_generators(h)
    assert kernel == h.codomain.vertices - h.vertex_image()
    assert is_hereditary(h.codomain, kernel)
    assert is_saturated(h.codomain, kernel)


def test_ker_generators_refuses_non_crtbpog():
    with pytest.raises(PreconditionError):
        ker_generators(GraphHom.inclusion(Graph(["w"]), EDGE))


def test_leavitt_pullback_identity_legs():
    ident = GraphHom.identity(EDGE)
    report = verify_leavitt_pullback(ident, ident, 3)
    assert report.ok


def test_leavitt_pullback_disjoint_union():
    empty = Graph(())
    f = GraphHom(empty, EDGE, {}, {})
    g = GraphHom(empty, LOOP, {}, {})
    report = verify_leavitt_pullback(f, g, 3)
    assert report.ok


def test_leavitt_pullback_three_vertex_instance():
    base = Graph.build(["v", "w"], [("e", "v", "w")])
    left = union_graph(base, Graph(["v", "w", "x"]))
    right = union_graph(base, Graph(["v", "w", "y"]))
    report = verify_leavitt_pullback(GraphHom.inclusion(base, left),
                                     GraphHom.inclusion(base, right), 4)
    assert report.ok


def test_leavitt_pullback_refuses_p1_violation():
    base = Graph(["z1", "z2"])
    cod = Graph(["c"])
    fold = GraphHom(base, cod, {"z1": "c", "z2": "c"}, {})
    ident = GraphHom.identity(base)
    with pytest.raises(PreconditionError) as err:
        verify_leavitt_pullback(fold, ident, 2)
    assert err.value.flag in ("P1", "CRTBPOG")


def test_leavitt_pullback_refuses_non_admissible_gluing():
    """Gluing a target to a source is not target bijective, so the verifier
    refuses; mixed-color monomials in that pushout would otherwise vanish
    under both injection pullbacks and break the kernel lemma."""
    e_graph = Graph.build(["v", "w"], [("e", "v", "w")])
    f_graph = Graph.build(["vp", "wp"], [("ep", "vp", "wp")])
    point = Graph(["z"])
    f = GraphHom(point, e_graph, {"z": "w"}, {})
    g = GraphHom(point, f_graph, {"z": "vp"}, {})
    with pytest.raises(PreconditionError) as err:
        verify_leavitt_pullback(f, g, 3)
    assert err.value.flag == "CRTBPOG"


def test_leavitt_pullback_over_prime_field():
    f, g = leavitt_union_instance(case_rng(2, 36))
    report = verify_leavitt_pullback(f, g, 3, field=Field(13))
    assert report.ok


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10**6))
def test_leavitt_pullback_random_unions(seed):
    f, g = leavitt_union_instance(case_rng(seed, 37))
    report = verify_leavitt_pullback(f, g, 3)
    assert report.ok, report.degrees


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 10**6))
def test_leavitt_pullback_quotient_instances(seed):
    f, g = admpush_instance(case_rng(seed, 38))
    report = verify_leavitt_pullback(f, g, 3)
    assert report.ok, report.degrees
