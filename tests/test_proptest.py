import pytest

from quivpush import leavitt, proptest
from quivpush.graph import Graph
from quivpush.morphism import GraphHom
from quivpush.proptest import SUITES, minimize_graph_pair, minimize_legs, run_suite
from quivpush.pushout import path_pushout_compare, pushout_square
from quivpush.randgen import case_rng, one_color_violation


def test_all_suites_pass_briefly():
    for name in SUITES:
        passes, failures = run_suite(name, 3, 8)
        assert passes == 8 and not failures, (name, failures)


def test_run_suite_unknown_name():
    with pytest.raises(KeyError):
        run_suite("nonsense", 0, 1)


def test_run_suite_zero_cases():
    assert run_suite("composition", 0, 0) == (0, [])


def test_minimizer_strips_decoration_from_violation():
    f, g = one_color_violation(case_rng(9, 40))

    def fails(ff, gg):
        if ff.problems or gg.problems:
            return False
        if not (ff.domain.vertices and ff.codomain.vertices
                and gg.codomain.vertices):
            return False
        return not path_pushout_compare(ff, gg, 2, pushout_square(ff, gg)).bijective

    assert fails(f, g)
    small_f, small_g = minimize_legs(fails, f, g)
    # the two glued loops are the irreducible core
    assert small_f.codomain.edges == {"loopE"}
    assert small_g.codomain.edges == {"loopF"}
    assert small_f.codomain.vertices == {"uE"}
    assert small_g.codomain.vertices == {"uF"}


def test_minimizer_keeps_valid_instance():
    point = Graph(["z"])
    loop = Graph.build(["u"], [("l", "u", "u")])
    f = GraphHom(point, loop, {"z": "u"}, {})
    small_f, small_g = minimize_legs(lambda a, b: True, f, f)
    assert small_f.problems == ()


def test_minimize_graph_pair_keeps_the_failing_core():
    f_graph = Graph.build(["a", "x", "b"],
                          [("e1", "a", "x"), ("e2", "x", "x"), ("e3", "b", "a")])
    g_graph = Graph.build(["y", "c"], [("e4", "y", "c")], omega_tails=[("c", "y")])
    tried = []

    def fails(fg, gg):
        tried.append((fg, gg))
        return "e2" in fg.edges and "y" in gg.vertices

    small_f, small_g = minimize_graph_pair(fails, f_graph, g_graph)
    assert small_f == Graph.build(["x"], [("e2", "x", "x")])
    assert small_g == Graph(["y"])
    # edges before vertices, the left graph before the right, restarting
    # after each accepted deletion
    assert tried[0] == (Graph.build(["a", "x", "b"], [("e2", "x", "x"), ("e3", "b", "a")]),
                        g_graph)
    assert len(tried) == 16


def test_captocup_exceptions_propagate(monkeypatch):
    """An exception on the drawn instance is an error, not a passing case."""
    def broken_union(*graphs):
        raise RuntimeError("union failed")

    monkeypatch.setattr(proptest, "union_graph", broken_union)
    for i in range(5):
        with pytest.raises(RuntimeError, match="union failed"):
            proptest.suite_captocup(case_rng(3, i))


def _cases_using(monkeypatch, suite, module, name, uses):
    """How many of cases 0-199 of suite at seed 1 make a call of
    module.name for which uses(args, result) holds."""
    called, hits = getattr(module, name), set()

    def spy(*args):
        result = called(*args)
        if uses(args, result):
            hits.add(case)
        return result
    monkeypatch.setattr(module, name, spy)
    for case in range(200):
        SUITES[suite](case_rng(1, case))
    return len(hits)


def _some_side_nonempty(args, result):
    """Whether breakarrow_identity(f, po) meets a vertex of E that alone
    covers its class and has an edge on either side of the identity."""
    f, po = args
    E, P, iota = f.codomain, po.graph, po.iota_left
    shared, right = f.vertex_image(), set(po.iota_right.f0.values())
    return any(iota.vertex_fibers[iota.f0[w]] == (w,)
               and (any(E.tgt[e] not in shared for e in E.out_map[w])
                    or any(P.src[iota.f1[e]] == iota.f0[w] and P.tgt[iota.f1[e]] not in right
                           for e in E.edges))
               for w in E.vertices)


def _ck2_rewrites(args, result):
    """Whether _ck2_accumulate(g, mono, ...) meets a monomial whose two legs
    end with one special edge, so that CK2 rewrites it."""
    g, mono = args[:2]
    a, b = mono.alpha.edges, mono.beta.edges
    return bool(a and b and a[-1] == b[-1] and a[-1] in g.designated)


@pytest.mark.parametrize("suite, module, name, uses, floor", [
    # measured under PYTHONHASHSEED=0; 57 of 200: a vertex outside the image
    ("kerver", proptest, "ker_generators", lambda args, result: bool(result), 40),
    # 75 of 200: an edge on either side at a uniquely covered vertex
    ("breakarrow", proptest, "breakarrow_identity", _some_side_nonempty, 50),
    # 35 of 200: a product or pullback that CK2 rewrites
    ("lk-hom", leavitt, "_ck2_accumulate", _ck2_rewrites, 20),
], ids=["kerver", "breakarrow", "lk-hom"])
def test_suites_use_their_hypothesis(monkeypatch, suite, module, name, uses, floor):
    """No suite passes vacuously: at seed 1, enough of cases 0-199 reach
    the case that the suite's conclusion is about, so a generator change
    that leaves it out fails here, not silently."""
    assert _cases_using(monkeypatch, suite, module, name, uses) >= floor
