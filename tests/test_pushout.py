import itertools
import pathlib
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from quivpush import leavitt, path_algebra, pushout
from quivpush.cli import main
from quivpush.graph import Graph, paths_up_to, union_graph
from quivpush.jsonio import load_hom, pushout_to_obj
from quivpush.leavitt import verify_leavitt_pullback
from quivpush.morphism import (DomainMismatch, GraphHom, check_valid_hom, classify_hom,
                               induced_path_map)
from quivpush.path_algebra import verify_path_pullback
from quivpush.pushout import (PreconditionError, SetPushout, breakarrow_identity,
                              check_theorem_preconditions, class_id,
                              graph_pushout, path_pushout_compare,
                              pushout_square, set_pushout)
from quivpush.randgen import (admpush_instance, case_rng, collapse_duplicate_edges,
                              leavitt_union_instance, one_color_instance,
                              one_color_violation, random_general_hom, random_graph,
                              union_legs, captocup_pair)

EDGE = Graph.build(["v", "w"], [("e", "v", "w")])
EMPTY = Graph(())
DATA = pathlib.Path(__file__).parent / "data"


def set_universal_map(p: SetPushout, j_left: dict, j_right: dict) -> dict:
    """The unique map out of the pushout commuting with both injections.
    The classes are generated by f(z) ~ g(z), so a cone commutes iff it is
    constant on every class."""
    h = {}
    for rep, members in p.classes.items():
        values = {(j_left if side == "E" else j_right)[x] for side, x in members}
        if len(values) != 1:
            raise PreconditionError("compatible-cone", f"class of {rep} maps inconsistently")
        h[rep] = values.pop()
    return h


def _fiber_pushout(p, part):
    """The SetPushout of p's vertices (part "f0") or edges ("f1"): each
    class is an id of p.graph, and its members are its fibers under the
    two injections."""
    inj_left, inj_right = getattr(p.iota_left, part), getattr(p.iota_right, part)
    classes = {}
    for side, inj in (("E", inj_left), ("F", inj_right)):
        for x, c in inj.items():
            classes.setdefault(c, []).append((side, x))
    return SetPushout(classes, inj_left, inj_right)


def graph_universal_map(p, j_left: GraphHom, j_right: GraphHom) -> GraphHom:
    """Mediating homomorphism out of a pushout graph against a commuting cone."""
    if j_left.codomain != j_right.codomain:
        raise DomainMismatch("cone legs must share their codomain")
    h0 = set_universal_map(_fiber_pushout(p, "f0"), j_left.f0, j_right.f0)
    h1 = set_universal_map(_fiber_pushout(p, "f1"), j_left.f1, j_right.f1)
    return check_valid_hom(GraphHom(p.graph, j_left.codomain, h0, h1))


def test_set_pushout_empty_apex_is_disjoint_union():
    p = set_pushout({"a"}, {"a"}, set(), {}, {})
    assert len(p.classes) == 2
    assert p.inj_left["a"] != p.inj_right["a"]


def test_set_pushout_identity_gluing():
    xs = {"x", "y"}
    p = set_pushout(xs, xs, xs, {z: z for z in xs}, {z: z for z in xs})
    assert len(p.classes) == 2
    for z in xs:
        assert p.inj_left[z] == p.inj_right[z]


def test_set_pushout_chain_collapse():
    p = set_pushout({"a", "b"}, {"c"}, {"z1", "z2"},
                    {"z1": "a", "z2": "b"}, {"z1": "c", "z2": "c"})
    assert len(p.classes) == 1
    rep = next(iter(p.classes))
    assert rep == ("E", "a")
    assert set(p.classes[rep]) == {("E", "a"), ("E", "b"), ("F", "c")}


def test_graph_pushout_of_identities():
    ident = GraphHom.identity(EDGE)
    po = graph_pushout(ident, ident)
    assert len(po.graph.vertices) == 2 and len(po.graph.edges) == 1
    cls = classify_hom(po.iota_left)
    assert cls.injective and cls.surjective


def test_graph_pushout_empty_domain_is_disjoint_union():
    f = GraphHom(EMPTY, EDGE, {}, {})
    g = GraphHom(EMPTY, EDGE, {}, {})
    po = graph_pushout(f, g)
    assert len(po.graph.vertices) == 4 and len(po.graph.edges) == 2


def test_graph_pushout_glued_path():
    e_graph = EDGE
    f_graph = Graph.build(["vp", "wp"], [("ep", "vp", "wp")])
    point = Graph(["z"])
    f = GraphHom(point, e_graph, {"z": "w"}, {})
    g = GraphHom(point, f_graph, {"z": "vp"}, {})
    po = graph_pushout(f, g)
    assert len(po.graph.vertices) == 3
    assert len(po.graph.edges) == 2
    middle = po.iota_left.f0["w"]
    assert middle == po.iota_right.f0["vp"]
    assert po.graph.tgt[po.iota_left.f1["e"]] == middle
    assert po.graph.src[po.iota_right.f1["ep"]] == middle


def test_universal_map_identity_cone():
    ident = GraphHom.identity(EDGE)
    po = graph_pushout(ident, ident)
    h = graph_universal_map(po, po.iota_left, po.iota_right)
    assert h.f0 == {v: v for v in po.graph.vertices}
    assert h.f1 == {e: e for e in po.graph.edges}


def test_universal_map_constant_cone():
    p = set_pushout({"a"}, {"b"}, set(), {}, {})
    h = set_universal_map(p, {"a": 0}, {"b": 0})
    assert set(h.values()) == {0}


def test_universal_map_incompatible_cone_witness():
    xs = {"x"}
    p = set_pushout(xs, xs, xs, {"x": "x"}, {"x": "x"})
    with pytest.raises(PreconditionError) as err:
        set_universal_map(p, {"x": 0}, {"x": 1})
    assert "compatible-cone" == err.value.flag


def _all_maps(domain, codomain):
    domain = sorted(domain)
    for values in itertools.product(codomain, repeat=len(domain)):
        yield dict(zip(domain, values))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_universal_map_unique_against_brute_force(seed):
    rng = case_rng(seed, 7)
    xs = {f"x{i}" for i in range(rng.randint(1, 3))}
    ys = {f"y{i}" for i in range(rng.randint(1, 3))}
    zs = {f"z{i}" for i in range(rng.randint(0, 3))}
    f = {z: rng.choice(sorted(xs)) for z in zs}
    g = {z: rng.choice(sorted(ys)) for z in zs}
    p = set_pushout(xs, ys, zs, f, g)
    q = list(range(rng.randint(1, 3)))
    reps = sorted(p.classes, key=class_id)
    matches = {}
    for h in _all_maps(reps, q):
        key = (tuple(h[p.inj_left[x]] for x in sorted(xs)),
               tuple(h[p.inj_right[y]] for y in sorted(ys)))
        matches.setdefault(key, []).append(h)
    for jx in _all_maps(xs, q):
        for jy in _all_maps(ys, q):
            if any(jx[f[z]] != jy[g[z]] for z in zs):
                continue
            h = set_universal_map(p, jx, jy)
            key = (tuple(jx[x] for x in sorted(xs)),
                   tuple(jy[y] for y in sorted(ys)))
            assert matches.get(key) == [h]


def _all_graph_homs(dom, cod):
    """Every valid homomorphism dom -> cod, by brute force."""
    homs = []
    verts = sorted(dom.vertices)
    edges = sorted(dom.edges)
    for v_vals in itertools.product(sorted(cod.vertices), repeat=len(verts)):
        f0 = dict(zip(verts, v_vals))
        for e_vals in itertools.product(sorted(cod.edges) or [None], repeat=len(edges)):
            if edges and None in e_vals:
                continue
            f1 = dict(zip(edges, e_vals))
            h = GraphHom(dom, cod, f0, f1)
            if not h.problems:
                homs.append(h)
    return homs


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_graph_universal_map_against_enumerated_cones(seed):
    rng = case_rng(seed, 14)
    point = random_graph(rng, max_v=2, max_e=1, prefix="g")
    f = GraphHom.identity(point)
    g_cod = random_graph(rng, max_v=3, max_e=2, prefix="f")
    homs_to = _all_graph_homs(point, g_cod)
    if not homs_to:
        return
    g = rng.choice(homs_to)
    po = graph_pushout(f, g)
    target = random_graph(rng, max_v=3, max_e=2, prefix="q")
    candidates = _all_graph_homs(po.graph, target)
    cones_left = _all_graph_homs(point, target)
    cones_right = _all_graph_homs(g_cod, target)
    from quivpush.morphism import compose
    for j_left in cones_left:
        for j_right in cones_right:
            lf = compose(j_left, f)
            rg = compose(j_right, g)
            if lf.f0 != rg.f0 or lf.f1 != rg.f1:
                continue
            h = graph_universal_map(po, j_left, j_right)
            matching = [c for c in candidates
                        if compose(c, po.iota_left).f0 == j_left.f0
                        and compose(c, po.iota_left).f1 == j_left.f1
                        and compose(c, po.iota_right).f0 == j_right.f0
                        and compose(c, po.iota_right).f1 == j_right.f1]
            assert len(matching) == 1
            assert matching[0].f0 == h.f0 and matching[0].f1 == h.f1


def test_flags_empty_domain_all_true():
    f = GraphHom(EMPTY, EDGE, {}, {})
    flags = check_theorem_preconditions(f, f, pushout_square(f, f))
    assert all(flags.as_dict().values())


def test_flags_glued_loops_violate_one_color():
    loop_e = Graph.build(["u"], [("lE", "u", "u")])
    loop_f = Graph.build(["up"], [("lF", "up", "up")])
    point = Graph(["z"])
    f = GraphHom(point, loop_e, {"z": "u"}, {})
    g = GraphHom(point, loop_f, {"z": "up"}, {})
    flags = check_theorem_preconditions(f, g, pushout_square(f, g))
    assert flags.vertex_injectivity
    assert not flags.one_color
    assert flags.p2


def _one_color_by_all_pairs(po):
    """Slow reference oracle: every ordered pair x, y of pushout edges with
    t(x) = s(y) lies in the edge image of one injection."""
    p = po.graph
    img_e = set(po.iota_left.f1.values())
    img_f = set(po.iota_right.f1.values())
    return all((x in img_e and y in img_e) or (x in img_f and y in img_f)
               for x in p.edges for y in p.edges if p.tgt[x] == p.src[y])


def _glued_at_vertices(rng):
    """Two random graphs glued at a few vertices: one-color fails where an
    edge of one side enters a glued vertex that an edge of the other leaves."""
    E = random_graph(rng, max_v=4, max_e=5, prefix="a")
    F = random_graph(rng, max_v=4, max_e=5, prefix="b")
    k = rng.randint(0, min(len(E.vertices), len(F.vertices)))
    apex = [f"z{i}" for i in range(k)]
    G = Graph(apex)
    return (GraphHom(G, E, dict(zip(apex, rng.sample(sorted(E.vertices), k))), {}),
            GraphHom(G, F, dict(zip(apex, rng.sample(sorted(F.vertices), k))), {}))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([one_color_instance, one_color_violation, admpush_instance,
                        _glued_at_vertices]),
       st.integers(0, 10**6))
def test_one_color_flag_matches_the_all_pairs_definition(draw, seed):
    f, g = draw(case_rng(seed, 13))
    po = pushout_square(f, g)
    assert check_theorem_preconditions(f, g, po).one_color == _one_color_by_all_pairs(po)


def test_path_compare_identity_legs():
    ident = GraphHom.identity(EDGE)
    assert path_pushout_compare(ident, ident, 4, pushout_square(ident, ident)).bijective


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_path_compare_bijective_under_hypotheses(seed):
    f, g = one_color_instance(case_rng(seed, 8))
    assert path_pushout_compare(f, g, 4, pushout_square(f, g)).bijective


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_path_compare_fails_on_one_color_violation(seed):
    f, g = one_color_violation(case_rng(seed, 9))
    po = pushout_square(f, g)
    flags = check_theorem_preconditions(f, g, po)
    assert not flags.one_color
    report = path_pushout_compare(f, g, 2, po)
    assert not report.bijective and not report.surjective


def test_map_functor_turns_pushouts_into_pullbacks_exhaustively():
    """For |K| <= 3 and |X|,|Y|,|Z| <= 3 with injective f: restriction along
    the injections is a bijection onto the fiber product."""
    for kx in (1, 2, 3):
        k = list(range(kx))
        xs = ["x0", "x1"]
        ys = ["y0", "y1", "y2"]
        zs = ["z0", "z1"]
        f = {"z0": "x0", "z1": "x1"}          # injective
        g = {"z0": "y0", "z1": "y0"}
        p = set_pushout(xs, ys, zs, f, g)
        reps = sorted(p.classes, key=class_id)
        images = set()
        for h in _all_maps(reps, k):
            pair = (tuple(h[p.inj_left[x]] for x in xs),
                    tuple(h[p.inj_right[y]] for y in ys))
            assert pair not in images, "restriction map not injective"
            images.add(pair)
        fiber = set()
        for jx in _all_maps(xs, k):
            for jy in _all_maps(ys, k):
                if all(jx[f[z]] == jy[g[z]] for z in zs):
                    fiber.add((tuple(jx[x] for x in xs),
                               tuple(jy[y] for y in ys)))
        assert images == fiber


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_one_injective_pushout_keeps_injection_injective(seed):
    rng = case_rng(seed, 10)
    f, g = admpush_instance(rng)
    po = graph_pushout(f, g)
    cls_f = classify_hom(f)
    if cls_f.injective:
        cls = classify_hom(po.iota_right)
        assert cls.injective


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_admpush_probe(seed):
    f, g = admpush_instance(case_rng(seed, 11))
    po = graph_pushout(f, g)
    for iota in (po.iota_left, po.iota_right):
        cls = classify_hom(iota)
        assert cls.target_bijective and cls.regular


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_breakarrow_identity_on_admissible_pushouts(seed):
    f, g = one_color_instance(case_rng(seed, 12), need_one_sided=True)
    ok, witnesses = breakarrow_identity(f, pushout_square(f, g))
    assert ok, witnesses


def test_pushout_square_routes_unions_through_original_ids():
    """On union legs, whose domain is the full overlap of the codomains,
    every class holds one id and is named by it: P is the union graph and
    both injections are inclusions."""
    for case in range(100):
        f_graph, g_graph = captocup_pair(case_rng(4, case), tails=False)
        f, g = union_legs(f_graph, g_graph)
        po = pushout_square(f, g)
        assert po.graph == union_graph(f_graph, g_graph)
        assert po.iota_left.is_inclusion() and po.iota_right.is_inclusion()


def _certificate_names(f, g):
    """The class names of the certificate of the square of f and g, each
    checked to be the id of P that both injections send every member of the
    class to.  Each class's member list is checked to be, member for member
    and in order, the class that set_pushout builds on the legs."""
    po = pushout_square(f, g)
    obj = pushout_to_obj(po)
    names = []
    for key, ids, part, cells in (("vertex_classes", po.graph.vertices, "f0", "vertices"),
                                  ("edge_classes", po.graph.edges, "f1", "edges")):
        for c in obj[key]:
            assert c["class"] in ids
            for side, x in c["members"]:
                iota = po.iota_left if side == "E" else po.iota_right
                assert getattr(iota, part)[x] == c["class"]
        assert [c["class"] for c in obj[key]] == sorted(ids)
        sp = set_pushout(getattr(f.codomain, cells), getattr(g.codomain, cells),
                         getattr(f.domain, cells), getattr(f, part), getattr(g, part))
        iota = {"E": getattr(po.iota_left, part), "F": getattr(po.iota_right, part)}
        built = {iota[side][x]: [list(m) for m in members]
                 for (side, x), members in sp.classes.items()}
        assert {c["class"]: c["members"] for c in obj[key]} == built
        names.append([(c["class"], c["members"][0]) for c in obj[key]])
    return names


def test_certificate_names_classes_as_the_pushout_graph_does():
    """pushout_to_obj names a class by the injection of its representative:
    by its one id on union legs, and E:x or F:x after its representative,
    the first of its sorted members, on a quotient square.  On every square,
    collapsed and general legs too, a class lists the members set_pushout
    gives it."""
    for case in range(100):
        f_graph, g_graph = captocup_pair(case_rng(4, case), tails=False)
        for named in _certificate_names(*union_legs(f_graph, g_graph)):
            assert all(name == x for name, (_, x) in named)
    for case in range(30):
        for named in _certificate_names(*admpush_instance(case_rng(5, case))):
            assert all(name == class_id(rep) for name, rep in named)
        _certificate_names(*_collapsed_one_color_instance(case_rng(6, case)))
        _certificate_names(*_general_legs(case_rng(7, case)))


def _general_legs(rng):
    """A random_general_hom h and, out of its domain, the merge of two of
    its vertices (or h again when it has one vertex)."""
    h = random_general_hom(rng, random_graph(rng, max_v=3, max_e=3, prefix="b"))
    if len(h.domain.vertices) < 2:
        return h, h
    return _merge_two_vertices(rng, h.domain), h


def _collapsed_one_color_instance(rng):
    return collapse_duplicate_edges(rng, one_color_instance(rng, need_one_sided=True))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([admpush_instance, one_color_instance,
                        _collapsed_one_color_instance, _general_legs]),
       st.integers(0, 10**6))
def test_pushout_edge_classes_have_one_source_and_one_target(draw, seed):
    """The checks graph_pushout does not run, as an oracle: every member of
    an edge class has its source in one vertex class and its target in one,
    and both injections are valid homs."""
    f, g = draw(case_rng(seed, 15))
    po = graph_pushout(f, g)
    E, F, G = f.codomain, g.codomain, f.domain
    vp = set_pushout(E.vertices, F.vertices, G.vertices, f.f0, g.f0)
    ep = set_pushout(E.edges, F.edges, G.edges, f.f1, g.f1)
    cod = {"E": E, "F": F}
    vclass = {"E": vp.inj_left, "F": vp.inj_right}
    for members in ep.classes.values():
        assert len({vclass[side][cod[side].src[e]] for side, e in members}) == 1
        assert len({vclass[side][cod[side].tgt[e]] for side, e in members}) == 1
    check_valid_hom(po.iota_left)
    check_valid_hom(po.iota_right)


@pytest.mark.parametrize("legs", [("admpush_f.json", "admpush_g.json"),
                                  ("union_f.json", "union_g.json")],
                         ids=["quotient", "union"])
def test_leavitt_verify_builds_one_square(monkeypatch, capsys, legs):
    """The Leavitt verdict reads the one square that one graph_pushout call
    builds, on union legs as on any others."""
    calls = []
    original = pushout.graph_pushout

    def spy(f, g):
        calls.append((f, g))
        return original(f, g)

    monkeypatch.setattr(pushout, "graph_pushout", spy)
    monkeypatch.chdir(DATA)
    assert main(["verify", "--leavitt", *legs]) == 0
    assert len(calls) == 1


def test_verifiers_rank_only_the_image(monkeypatch):
    """Both verifiers count the fiber: per degree they rank the image once.
    Each walks the paths of E and F and of no other graph, and lists none.
    The Leavitt verifier builds the window columns of the two injections
    and of no other map; the window sizes it counts in closed form."""
    calls, walked = Counter(), []

    def count(module, name):
        original = getattr(module, name)

        def spy(*args):
            calls[module.__name__, name] += 1
            if name == "path_walk":
                walked.append(args[0])
            return original(*args)
        monkeypatch.setattr(module, name, spy)

    for module, name in ((leavitt, "rank"), (leavitt, "_window_columns"),
                         (leavitt, "path_walk"), (leavitt, "paths_up_to"),
                         (path_algebra, "rank"), (path_algebra, "path_walk")):
        count(module, name)
    for instance in (leavitt_union_instance, admpush_instance):
        for case in range(5):
            f, g = instance(case_rng(5, case))
            calls.clear()
            walked.clear()
            report = verify_leavitt_pullback(f, g, 3)
            assert calls == {("quivpush.leavitt", "rank"): len(report.degrees),
                             ("quivpush.leavitt", "_window_columns"): 2,
                             ("quivpush.leavitt", "path_walk"): 2}
            assert walked == [f.codomain, g.codomain]
    for case in range(5):
        f, g = one_color_instance(case_rng(112, case), need_one_sided=True)
        calls.clear()
        walked.clear()
        report = verify_path_pullback(f, g, 3)
        assert calls == {("quivpush.path_algebra", "rank"): len(report.degrees),
                         ("quivpush.path_algebra", "path_walk"): 2}
        assert walked == [f.codomain, g.codomain]


def _witness_leg():
    """A fold of u0, u1 onto b0 and of the edge u2 -> u3 onto the loop be0
    at b1; b0 carries the loop be1, which nothing hits (hcheck_leg.json)."""
    base = Graph.build(["b0", "b1"], [("be0", "b1", "b1"), ("be1", "b0", "b0")])
    dom = Graph.build(["u0", "u1", "u2", "u3"], [("ue0", "u2", "u3")])
    return GraphHom(dom, base, {"u0": "b0", "u1": "b0", "u2": "b1", "u3": "b1"},
                    {"ue0": "be0"})


def test_comparison_names_its_collisions_and_missing_paths():
    """Pushing the leg out along itself glues the two copies of be0 but not
    those of be1: E's and F's be0.be0 meet in one pushout path, and the
    paths of P that alternate the two copies of be1 have no preimage."""
    h = _witness_leg()
    stored = load_hom(DATA / "hcheck_leg.json")
    assert (stored.domain, stored.codomain, stored.f0, stored.f1) == (
        h.domain, h.codomain, h.f0, h.f1)
    report = path_pushout_compare(h, h, 2, pushout_square(h, h))
    assert report.collisions == (("be0.be0", "be0.be0", "E:be0.E:be0"),)
    assert report.missing == ("E:be1.F:be1", "F:be1.E:be1")
    assert (report.bijective, report.injective, report.surjective) == (False, False, False)


def _reference_compare(f, g, n, po):
    """The comparison map by its definition, for path_pushout_compare to
    agree with: the pushout of the truncated path sets by a union-find over
    (side, path) of its own, each class named by its least member in
    (side, Path.sort_key) order, and a collision wherever a class maps to a
    path of P that a class before it in that order hit.  Returns the
    missing paths of P and the collisions as (first, later, image) paths."""
    def key(item):
        return item[0], item[1].sort_key()

    items = ([("E", p) for p in paths_up_to(f.codomain, n)]
             + [("F", p) for p in paths_up_to(g.codomain, n)])
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for q in paths_up_to(f.domain, n):
        a, b = find(("E", induced_path_map(f, q))), find(("F", induced_path_map(g, q)))
        parent[a] = b
    classes = {}
    for x in items:
        classes.setdefault(find(x), []).append(x)
    iota = {"E": po.iota_left, "F": po.iota_right}
    h = {}
    for members in classes.values():
        images = {induced_path_map(iota[side], p) for side, p in members}
        assert len(images) == 1
        h[min(members, key=key)] = images.pop()
    seen, collisions = {}, []
    for rep in sorted(h, key=key):
        if h[rep] in seen:
            collisions.append((seen[h[rep]][1], rep[1], h[rep]))
        else:
            seen[h[rep]] = rep
    missing = [p for p in paths_up_to(po.graph, n) if p not in seen]
    return missing, collisions


def _merge_two_vertices(rng, d):
    """The quotient map of d that glues two of its vertices, drawn by rng."""
    keep, drop = rng.sample(sorted(d.vertices), 2)
    m = {v: keep if v == drop else v for v in d.vertices}
    q = Graph(set(m.values()), d.edges, {e: m[d.src[e]] for e in d.edges},
              {e: m[d.tgt[e]] for e in d.edges})
    return GraphHom(d, q, m, {e: e for e in d.edges})


def _compare_squares():
    """(f, g, n): 40 one-color instances and 40 one-color violations at
    n = 3, and 60 random legs h, each pushed out along itself at n = 2 and
    at n = 3 and, at n = 3, against a merge of two vertices of its domain,
    which gives collisions with later classes on both sides."""
    squares = [(*one_color_instance(case_rng(105, case)), 3) for case in range(40)]
    squares += [(*one_color_violation(case_rng(1050, case)), 3) for case in range(40)]
    for case in range(60):
        rng = case_rng(7, case)
        h = random_general_hom(rng, random_graph(rng, max_v=3, max_e=3, prefix="b"))
        squares += [(h, h, 2), (h, h, 3)]
        if len(h.domain.vertices) > 1:
            squares.append((_merge_two_vertices(rng, h.domain), h, 3))
    return squares


def test_comparison_agrees_with_the_reference_on_every_square():
    """path_pushout_compare names the same missing paths and collisions, in
    the same order, as the reference.  Some draw must have collisions in two
    degrees, whose global order the per-degree tables must keep, and some
    must list a collision of degree 3 before one of degree 2: its later
    classes lie on both sides, and side comes before degree."""
    kinds = Counter()
    for f, g, n in _compare_squares():
        po = pushout_square(f, g)
        report = path_pushout_compare(f, g, n, po)
        missing, collisions = _reference_compare(f, g, n, po)
        assert report.missing == tuple(map(str, missing))
        assert report.collisions == tuple(tuple(map(str, c)) for c in collisions)
        kinds["missing"] += bool(missing)
        kinds["collisions"] += bool(collisions)
        degrees = [c[2].length for c in collisions]
        kinds["two degrees"] += len(set(degrees)) > 1
        kinds["sides first"] += degrees != sorted(degrees)
    assert all(kinds[k] for k in ("missing", "collisions", "two degrees",
                                  "sides first")), kinds


def _graph_spy(monkeypatch, module, name):
    """Replace module.name by a wrapper; return the list of the graphs it is
    called on, in order."""
    graphs = []
    original = getattr(module, name)

    def spy(g, *args):
        graphs.append(g)
        return original(g, *args)
    monkeypatch.setattr(module, name, spy)
    return graphs


def test_verifiers_list_the_pushout_paths_only_to_name_missing_ones(monkeypatch):
    """verify_path_pullback lists no path: it walks the paths of E and F as
    int ids and only counts G's and P's.  path_pushout_compare reads
    pushout.path_degrees, which lists the paths of E, F and G once each
    and only counts P's, and lists P's paths only when some are missing."""
    listed = _graph_spy(monkeypatch, pushout, "paths_up_to")
    walked = _graph_spy(monkeypatch, path_algebra, "path_walk")
    for case in range(5):
        f, g = one_color_instance(case_rng(112, case), need_one_sided=True)
        listed.clear()
        walked.clear()
        verify_path_pullback(f, g, 3)
        assert listed == []
        assert walked == [f.codomain, g.codomain]
    squares = [(_witness_leg(),) * 2]
    for case in range(30):
        rng = case_rng(7, case)
        h = random_general_hom(rng, random_graph(rng, max_v=3, max_e=3, prefix="b"))
        squares.append((h, h))
    seen = set()
    for f, g in squares:
        po = pushout_square(f, g)
        listed.clear()
        report = path_pushout_compare(f, g, 2, po)
        named = [po.graph] if report.missing else []
        assert listed == [f.codomain, g.codomain, f.domain, *named]
        seen.add(bool(report.missing))
    assert seen == {True, False}


def test_graph_universal_map_on_a_union_square():
    f, g = load_hom(DATA / "union_f.json"), load_hom(DATA / "union_g.json")
    po = pushout_square(f, g)
    h = graph_universal_map(po, po.iota_left, po.iota_right)
    assert h.domain == h.codomain == po.graph
    assert h.f0 == {v: v for v in po.graph.vertices}
    assert h.f1 == {e: e for e in po.graph.edges}


def _mismatched_inclusions():
    """Inclusions of {a} into {a, x} and of {a, b} into {a, b, y}: legs whose
    domains differ, so they have no pushout square."""
    f = GraphHom.inclusion(Graph(["a"]), Graph(["a", "x"]))
    g = GraphHom.inclusion(Graph(["a", "b"]), Graph(["a", "b", "y"]))
    return f, g


@pytest.mark.parametrize("build", [graph_pushout, pushout_square, verify_path_pullback,
                                   verify_leavitt_pullback],
                         ids=lambda fn: fn.__name__)
def test_mismatched_domains_have_no_square(build):
    with pytest.raises(PreconditionError) as refusal:
        build(*_mismatched_inclusions())
    assert refusal.value.flag == "shared-domain"


def _tailed_inclusions(route):
    """Inclusion legs (the only homs tailed graphs admit) into a left
    codomain with the tail (v, h).  For "union" the domain is the full
    overlap of the codomains, so the classes would keep their ids; for
    "quotient" the codomains also share h."""
    left = Graph.build(["v", "h", "x"], [("e", "v", "h")], [("v", "h")])
    if route == "union":
        dom = Graph.build(["v", "h"], [("e", "v", "h")])
        right = Graph.build(["v", "h", "y"], [("e", "v", "h")])
    else:
        dom, right = Graph(["v"]), Graph(["v", "h"])
    return GraphHom.inclusion(dom, left), GraphHom.inclusion(dom, right)


@pytest.mark.parametrize("route", ["union", "quotient"])
@pytest.mark.parametrize("build", [graph_pushout, pushout_square, verify_path_pullback,
                                   verify_leavitt_pullback],
                         ids=lambda fn: fn.__name__)
def test_tailed_legs_are_refused_by_name(build, route):
    with pytest.raises(PreconditionError) as info:
        build(*_tailed_inclusions(route))
    assert info.value.flag == "tail-free"
