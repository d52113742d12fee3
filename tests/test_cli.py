import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from quivpush.cli import main, parse_element, ExprError
from quivpush.fields import QQ
from quivpush.graph import Graph, PreconditionError, path_counts, paths_up_to
from quivpush.jsonio import (canonical_dumps, graph_from_obj, graph_to_obj,
                             hom_from_obj, hom_to_obj, FormatError)
from quivpush.morphism import GraphHom
from quivpush.leavitt import LElement, normal_monomials_window
from quivpush.path_algebra import PAElement, verify_path_pullback
from quivpush.proptest import SUITES, CaseResult
from quivpush.randgen import case_rng

LOOP = {"vertices": ["u"], "edges": [{"id": "l", "src": "u", "tgt": "u"}],
        "omega_tails": []}
EDGE = {"vertices": ["v", "w"], "edges": [{"id": "e", "src": "v", "tgt": "w"}],
        "omega_tails": []}
TAILED_EDGE = {**EDGE, "omega_tails": [["v", "w"]]}
ROOT = pathlib.Path(__file__).resolve().parents[1]


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj) if not isinstance(obj, str) else obj)
    return str(path)


def test_graph_roundtrip_canonical():
    g = graph_from_obj(EDGE)
    assert graph_to_obj(g) == EDGE
    assert canonical_dumps(graph_to_obj(g)) == canonical_dumps(graph_to_obj(graph_from_obj(graph_to_obj(g))))


def test_hom_roundtrip():
    g = graph_from_obj(EDGE)
    h = GraphHom.identity(g)
    again = hom_from_obj(hom_to_obj(h))
    assert again.f0 == h.f0 and again.f1 == h.f1
    assert again.domain == g and again.codomain == g


def test_hom_file_with_graph_refs(tmp_path, capsys):
    _write(tmp_path, "loop.json", LOOP)
    hom = {"domain": "loop.json", "codomain": "loop.json",
           "f0": {"u": "u"}, "f1": {"l": "l"}}
    path = _write(tmp_path, "ident.json", hom)
    assert main(["classify", path]) == 0
    cert = json.loads(capsys.readouterr().out)
    classification = next(c for c in cert["checks"] if c["name"] == "classification")
    assert classification["category"] == "CRTBPOG"


def test_certificate_pins_referenced_graphs(tmp_path, capsys):
    graph = _write(tmp_path, "loop.json", LOOP)
    hom = _write(tmp_path, "ident.json", {"domain": "loop.json", "codomain": "loop.json",
                                          "f0": {"u": "u"}, "f1": {"l": "l"}})
    certs = []
    for text in (json.dumps(LOOP), json.dumps(LOOP, indent=2)):
        pathlib.Path(graph).write_text(text)
        assert main(["classify", hom]) == 0
        certs.append(json.loads(capsys.readouterr().out))
    digest = hashlib.sha256(pathlib.Path(graph).read_bytes()).hexdigest()
    assert certs[1]["inputs"][1:] == [{"path": graph, "sha256": digest}] * 2
    assert certs[0]["inputs"][1:] != certs[1]["inputs"][1:]
    assert {**certs[0], "inputs": None} == {**certs[1], "inputs": None}


def test_non_utf8_input_is_parse_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"vertices": ["é"]}'.encode("latin-1"))
    assert main(["classify", str(path)]) == 2
    err = capsys.readouterr().err
    assert "not UTF-8" in err and "Traceback" not in err


def test_graph_parse_rejects_duplicates():
    with pytest.raises(FormatError):
        graph_from_obj({"vertices": ["a", "a"], "edges": []})


def test_parse_error_reports_position(tmp_path, capsys):
    path = _write(tmp_path, "broken.json", '{"vertices": [')
    assert main(["classify", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


@pytest.mark.parametrize("opener", ["[", '{"a": '])
def test_deeply_nested_json_is_parse_error(tmp_path, capsys, opener):
    """Nesting beyond the decoder's recursion limit is a named parse error
    in every command that reads the file, not a RecursionError."""
    path = _write(tmp_path, "deep.json", opener * 100_000)
    point = _write(tmp_path, "point.json", {"domain": {"vertices": ["a"]},
                                            "codomain": {"vertices": ["a"]},
                                            "f0": {"a": "a"}, "f1": {}})
    for argv in (["classify", path], ["eval", path, "1"],
                 ["verify", "--leavitt", path, point], ["verify", "--path", point, path]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert not out
        assert err == f"parse error: {path}: arrays or objects nested too deeply\n"


@pytest.mark.parametrize("hom, field", [
    ({"domain": {"vertices": ["v"], "edges": [{"id": ["x"], "src": "v", "tgt": "v"}]},
      "codomain": LOOP, "f0": {"v": "u"}, "f1": {}}, "edge 'id'"),
    ({"domain": {"vertices": ["v"], "omega_tails": [[["a"], "v"]]},
      "codomain": {"vertices": ["v"]}, "f0": {"v": "v"}, "f1": {}}, "omega tail endpoint"),
    ({"domain": {"vertices": ["v"]}, "codomain": {"vertices": ["v"]},
      "f0": {"v": ["v"]}, "f1": {}}, "'f0' value"),
])
def test_non_string_ids_are_parse_errors(tmp_path, capsys, hom, field):
    path = _write(tmp_path, "bad.json", hom)
    assert main(["classify", path]) == 2
    err = capsys.readouterr().err
    assert field in err and "must be a string" in err and "Traceback" not in err


@pytest.mark.parametrize("tails", [5, None])
def test_omega_tails_must_be_a_list(tmp_path, capsys, tails):
    graph = {"vertices": ["a"], "omega_tails": tails}
    with pytest.raises(FormatError, match="'omega_tails' must be a list"):
        graph_from_obj(graph)
    path = _write(tmp_path, "tails.json", graph)
    for argv in (["eval", path, "1"], ["union", path, path]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert not out
        assert err == f"parse error: {path}: 'omega_tails' must be a list\n"


MISSPELLED = {"vertices": ["u", "v"], "edge": [{"id": "e", "src": "u", "tgt": "v"}]}


@pytest.mark.parametrize("read, obj, message", [
    (graph_from_obj, MISSPELLED, "unknown graph key 'edge'"),
    (graph_from_obj, {**EDGE, "omega_tail": []}, "unknown graph key 'omega_tail'"),
    (graph_from_obj, {"vertices": ["v", "w"],
                      "edges": [{"id": "e", "src": "v", "tgt": "w", "weight": 2}]},
     "unknown edge key 'weight'"),
    (hom_from_obj, {"domain": LOOP, "codomain": LOOP, "f0": {"u": "u"},
                    "f1": {"l": "l"}, "f2": {}}, "unknown homomorphism key 'f2'"),
    (hom_from_obj, {"domain": MISSPELLED, "codomain": MISSPELLED,
                    "f0": {"u": "u", "v": "v"}, "f1": {}}, "unknown graph key 'edge'"),
])
def test_unknown_keys_are_parse_errors(read, obj, message):
    with pytest.raises(FormatError, match=message):
        read(obj)


def test_misspelled_graph_key_is_refused_by_the_cli(tmp_path, capsys):
    """A graph file whose 'edges' key is misspelled does not read as an
    edgeless graph: classify and eval name the key and exit 2."""
    graph = _write(tmp_path, "g.json", MISSPELLED)
    hom = _write(tmp_path, "ident.json", {"domain": "g.json", "codomain": "g.json",
                                          "f0": {"u": "u", "v": "v"}, "f1": {}})
    for argv in (["classify", hom], ["eval", graph, "chi[u]"]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert not out
        assert err == f"parse error: {graph}: unknown graph key 'edge'\n"


POINTS = '{"vertices": ["a", "b"]}'


@pytest.mark.parametrize("graph, hom, key", [
    # a second "edges" would empty the graph: chi[e] named an unknown edge
    ('{"vertices": ["v", "w"], "edges": [{"id": "e", "src": "v", "tgt": "w"}], '
     '"edges": []}', None, "edges"),
    # a second "src" would turn e into a loop at w
    ('{"vertices": ["v", "w"], "edges": [{"id": "e", "src": "v", "src": "w", '
     '"tgt": "w"}]}', None, "src"),
    # a second image of a would make f0 the fold a, b -> b
    (None, f'{{"domain": {POINTS}, "codomain": {POINTS}, '
           f'"f0": {{"a": "a", "a": "b", "b": "b"}}, "f1": {{}}}}', "a"),
], ids=["graph", "edge", "f0"])
def test_duplicate_json_keys_are_parse_errors(tmp_path, capsys, graph, hom, key):
    """An object that names a key twice is refused, naming the key, in every
    command that reads it, instead of reading as its last value."""
    if graph is not None:
        bad = _write(tmp_path, "g.json", graph)
        hom_path = _write(tmp_path, "ident.json",
                          {"domain": "g.json", "codomain": "g.json",
                           "f0": {"v": "v", "w": "w"}, "f1": {"e": "e"}})
        commands = [["eval", bad, "chi[e]"]]
    else:
        bad = hom_path = _write(tmp_path, "fold.json", hom)
        commands = []
    commands += [["classify", hom_path], ["verify", "--leavitt", hom_path, hom_path],
                 ["verify", "--path", hom_path, hom_path]]
    for argv in commands:
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert not out
        assert err == f"parse error: {bad}: duplicate key {key!r}\n"


def test_stray_hom_keys_make_the_hom_invalid(tmp_path, capsys):
    """f0 and f1 keys outside the domain are violations, not extra images
    that break injectivity."""
    point = {"vertices": ["a"]}
    ident = _write(tmp_path, "ident.json", {"domain": point, "codomain": point,
                                            "f0": {"a": "a"}, "f1": {}})
    assert main(["verify", "--path", ident, ident]) == 0
    capsys.readouterr()
    stray = _write(tmp_path, "stray.json", {"domain": point, "codomain": point,
                                            "f0": {"a": "a", "zz": "a"},
                                            "f1": {"x": "y"}})
    violations = ["f0 key zz: not a domain vertex", "f1 key x: not a domain edge"]
    assert main(["classify", stray]) == 1
    cert = json.loads(capsys.readouterr().out)
    assert cert["checks"] == [{"name": "valid_hom", "ok": False,
                               "violations": violations}]
    for mode in ("--path", "--leavitt"):
        assert main(["verify", mode, stray, stray]) == 1
        assert capsys.readouterr().err == f"error: {'; '.join(violations)}\n"


def test_classify_identity_is_crtbpog(tmp_path, capsys):
    hom = {"domain": LOOP, "codomain": LOOP, "f0": {"u": "u"}, "f1": {"l": "l"}}
    path = _write(tmp_path, "ident.json", hom)
    assert main(["classify", path]) == 0
    cert = json.loads(capsys.readouterr().out)
    classification = next(c for c in cert["checks"] if c["name"] == "classification")
    assert classification["category"] == "CRTBPOG"
    admissible = next(c for c in cert["checks"] if c["name"] == "admissible")
    assert admissible["admissible"] is True


def test_classify_vertex_to_loop(tmp_path, capsys):
    hom = {"domain": {"vertices": ["p"], "edges": [], "omega_tails": []},
           "codomain": LOOP, "f0": {"p": "u"}, "f1": {}}
    path = _write(tmp_path, "vl.json", hom)
    assert main(["classify", path]) == 0
    cert = json.loads(capsys.readouterr().out)
    classification = next(c for c in cert["checks"] if c["name"] == "classification")
    assert classification["target_bijective"] is False


def test_pushout_command_writes_file(tmp_path, capsys):
    point = {"vertices": ["z"], "edges": [], "omega_tails": []}
    f = {"domain": point, "codomain": EDGE, "f0": {"z": "v"}, "f1": {}}
    g = {"domain": point,
         "codomain": {"vertices": ["vp", "wp"],
                      "edges": [{"id": "ep", "src": "vp", "tgt": "wp"}],
                      "omega_tails": []},
         "f0": {"z": "vp"}, "f1": {}}
    fp = _write(tmp_path, "f.json", f)
    gp = _write(tmp_path, "g.json", g)
    out = str(tmp_path / "po.json")
    assert main(["pushout", fp, gp, "--check-h", "3", "-o", out]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert len(cert["pushout"]["graph"]["vertices"]) == 3
    written = json.loads((tmp_path / "po.json").read_text())
    assert written == cert["pushout"]
    hcheck = next(c for c in cert["checks"] if c["name"] == "h_bijective_up_to_N")
    assert hcheck["value"] is True


def test_pushout_requires_shared_domain(tmp_path, capsys):
    f = {"domain": EDGE, "codomain": EDGE,
         "f0": {"v": "v", "w": "w"}, "f1": {"e": "e"}}
    g = {"domain": LOOP, "codomain": LOOP, "f0": {"u": "u"}, "f1": {"l": "l"}}
    fp = _write(tmp_path, "f.json", f)
    gp = _write(tmp_path, "g.json", g)
    assert main(["pushout", fp, gp]) == 3


def test_union_command(tmp_path, capsys):
    left = _write(tmp_path, "l.json", EDGE)
    right = _write(tmp_path, "r.json",
                   {"vertices": ["v", "w", "x"], "edges": [], "omega_tails": []})
    assert main(["union", left, right]) in (0, 1)
    cert = json.loads(capsys.readouterr().out)
    assert cert["union"]["vertices"] == ["v", "w", "x"]


def test_union_command_with_tails(tmp_path, capsys):
    left = _write(tmp_path, "l.json",
                  {"vertices": ["v", "h"], "edges": [],
                   "omega_tails": [["v", "h"]]})
    right = _write(tmp_path, "r.json",
                   {"vertices": ["v", "h", "w"], "edges": [],
                    "omega_tails": [["v", "h"]]})
    assert main(["union", left, right]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["union"]["omega_tails"] == [["v", "h"]]


def test_union_command_incompatible_overlap(tmp_path, capsys):
    left = _write(tmp_path, "l.json", EDGE)
    flipped = {"vertices": ["v", "w"],
               "edges": [{"id": "e", "src": "w", "tgt": "v"}],
               "omega_tails": []}
    right = _write(tmp_path, "r.json", flipped)
    assert main(["union", left, right]) == 3


def test_verify_path_exact_instance(tmp_path, capsys):
    point = {"vertices": ["z"], "edges": [], "omega_tails": []}
    f = {"domain": point, "codomain": EDGE, "f0": {"z": "v"}, "f1": {}}
    g = {"domain": point,
         "codomain": {"vertices": ["vp", "wp"],
                      "edges": [{"id": "ep", "src": "vp", "tgt": "wp"}],
                      "omega_tails": []},
         "f0": {"z": "vp"}, "f1": {}}
    fp = _write(tmp_path, "f.json", f)
    gp = _write(tmp_path, "g.json", g)
    assert main(["verify", "--path", fp, gp]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["params"]["mode"] == "EXACT"
    assert cert["ok"] is True


def test_verify_path_refuses_a_leg_that_folds_vertices(tmp_path, capsys):
    """A leg that sends two vertices of G to one, on either side, is not
    injective on vertices: the path verifier refuses it by
    vertex_injectivity, and verify --path exits 3 with that flag."""
    pair = Graph(["z1", "z2"])
    fold = GraphHom(pair, Graph(["c"]), {"z1": "c", "z2": "c"}, {})
    ident = GraphHom.identity(pair)
    for legs in ((fold, ident), (ident, fold)):
        with pytest.raises(PreconditionError) as err:
            verify_path_pullback(*legs, 2)
        assert err.value.flag == "vertex_injectivity"
        paths = [_write(tmp_path, f"{side}.json", hom_to_obj(h)) for side, h in zip("fg", legs)]
        assert main(["verify", "--path", *paths]) == 3
        out, err_text = capsys.readouterr()
        assert (out, err_text) == ("", "refused: precondition vertex_injectivity failed\n")


def test_verify_refusal_exit_code(tmp_path, capsys):
    point = {"vertices": ["z"], "edges": [], "omega_tails": []}
    f = {"domain": point, "codomain": EDGE, "f0": {"z": "w"}, "f1": {}}
    g = {"domain": point,
         "codomain": {"vertices": ["vp", "wp"],
                      "edges": [{"id": "ep", "src": "vp", "tgt": "wp"}],
                      "omega_tails": []},
         "f0": {"z": "vp"}, "f1": {}}
    fp = _write(tmp_path, "f.json", f)
    gp = _write(tmp_path, "g.json", g)
    assert main(["verify", "--path", fp, gp]) == 3
    assert "one_color" in capsys.readouterr().err


def test_verify_leavitt_instance(tmp_path, capsys):
    base = {"vertices": ["v", "w"],
            "edges": [{"id": "e", "src": "v", "tgt": "w"}], "omega_tails": []}
    left = {"vertices": ["v", "w", "x"],
            "edges": [{"id": "e", "src": "v", "tgt": "w"}], "omega_tails": []}
    right = {"vertices": ["v", "w", "y"],
             "edges": [{"id": "e", "src": "v", "tgt": "w"}], "omega_tails": []}
    f = {"domain": base, "codomain": left,
         "f0": {"v": "v", "w": "w"}, "f1": {"e": "e"}}
    g = {"domain": base, "codomain": right,
         "f0": {"v": "v", "w": "w"}, "f1": {"e": "e"}}
    fp = _write(tmp_path, "f.json", f)
    gp = _write(tmp_path, "g.json", g)
    assert main(["verify", "--leavitt", fp, gp, "--field", "fp:7"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["ok"] is True
    # P = v -e-> w beside x and y has no path of length 3, so the windows
    # at n = 4 are all of L(P), of dimension 2^2 + 1 + 1 over its sinks
    assert cert["params"] == {"field": "fp:7", "max_degree": 4, "mode": "EXACT"}
    assert cert["checks"] == [
        {"name": f"degree_{d}", "ok": True, "dim_pushout": k, "dim_image": k, "dim_fiber": k}
        for d, k in ((-1, 1), (0, 4), (1, 1))]


def test_eval_leavitt_expression(tmp_path, capsys):
    path = _write(tmp_path, "loop.json", LOOP)
    assert main(["eval", path, "chi[l.l*] - 2*chi[u]"]) == 0
    cert = json.loads(capsys.readouterr().out)
    check = cert["checks"][0]
    assert check["result"] == "-1*chi[u]"
    assert cert["params"]["mode"] == "leavitt"


def test_eval_path_algebra_expression(tmp_path, capsys):
    path = _write(tmp_path, "edge.json", EDGE)
    assert main(["eval", path, "3/2*chi[e] + chi[v]"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["params"]["mode"] == "path-algebra"
    assert cert["checks"][0]["result"] == "1*chi[v] + 3/2*chi[e]"


@pytest.mark.parametrize("spec", ["fp:+7", "fp: 7", "fp:0_7", "fp:007", "fp:٧", "fp:7 "])
def test_field_has_one_spelling(tmp_path, capsys, spec):
    """Only fp:7 names Z/7; every other spelling that int() reads as 7 is a
    parse error, so one field cannot get two certificates."""
    path = _write(tmp_path, "loop.json", LOOP)
    assert main(["eval", path, "chi[l.l*] - 2*chi[u]", "--field", "fp:7"]) == 0
    assert json.loads(capsys.readouterr().out)["params"]["field"] == "fp:7"
    assert main(["eval", path, "chi[l.l*] - 2*chi[u]", "--field", spec]) == 2
    out, err = capsys.readouterr()
    assert not out and f"parse error: --field {spec}: bad field spec" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("mode", [[], ["--leavitt"]], ids=["path", "leavitt"])
@pytest.mark.parametrize("expression", ["chi[v]", "chi[e]", "2", "chi[e*]"])
def test_eval_rejects_tailed_graphs(tmp_path, capsys, mode, expression):
    path = _write(tmp_path, "tailed.json", TAILED_EDGE)
    assert main(["eval", *mode, path, expression]) == 3
    err = capsys.readouterr().err
    assert "refused: precondition tail-free" in err and "Traceback" not in err


@pytest.mark.parametrize("command", [["pushout"], ["verify", "--path"],
                                     ["verify", "--leavitt"]],
                         ids=["pushout", "verify-path", "verify-leavitt"])
def test_tailed_union_legs_are_refused(tmp_path, capsys, command):
    """Inclusion legs whose domain is the full overlap, so the pushout is
    their union, with a tail on the left codomain: refused before any check
    runs, by name."""
    base = {"vertices": ["v", "h"], "edges": [{"id": "e", "src": "v", "tgt": "h"}],
            "omega_tails": []}
    left = {**base, "vertices": ["v", "h", "x"], "omega_tails": [["v", "h"]]}
    right = {**base, "vertices": ["v", "h", "y"]}
    legs = [_write(tmp_path, name, {"domain": base, "codomain": cod,
                                    "f0": {"v": "v", "h": "h"}, "f1": {"e": "e"}})
            for name, cod in (("f.json", left), ("g.json", right))]
    assert main([*command, *legs]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "tail-free" in err and "Traceback" not in err


def test_repeated_main_calls_match_fresh_runs(monkeypatch, capsys):
    """main reuses one parser per process; each call, a usage error included,
    must print and return exactly what a new process does."""
    monkeypatch.chdir(ROOT / "tests" / "data")
    runs = [["classify", "admpush_g.json"],
            ["verify", "--path", "path_f.json", "path_g.json", "--max-degree", "3"],
            ["verify", "--leavitt", "union_f.json", "union_g.json", "--max-degree", "-1"],
            ["eval", "--leavitt", "graph.json", "chi[xe0.xe0*] + 2"],
            ["pushout", "onecolor_f.json", "onecolor_g.json", "--check-h", "2"],
            ["proptest", "--suite", "composition", "--cases", "3", "--seed", "5"],
            ["classify", "admpush_g.json"]]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    codes = []
    for argv in runs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "quivpush.cli", *argv],
                               capture_output=True, text=True, env=env)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.append(code)
    assert codes == [0, 0, 2, 0, 0, 0, 0]


def test_eval_bad_expression(tmp_path, capsys):
    path = _write(tmp_path, "edge.json", EDGE)
    assert main(["eval", path, "chi[nope]"]) == 2


@pytest.mark.parametrize("expression, field, message", [
    ("2*3", "q", "expected chi[...] after '2*'"),
    ("2 3", "q", "expected + or - before term 2"),
    ("chi[v] chi[w]", "q", "expected + or - before term 2"),
    ("chi[e.]", "q", "empty id inside chi[...]"),
    ("chi[..e]", "q", "empty id inside chi[...]"),
    ("1/0", "q", "bad rational literal '1/0'"),
    ("1/7", "fp:7", "literal '1/7' has denominator divisible by 7"),
    # a coefficient is written in ASCII digits, as an integer option is
    ("\u0663*chi[v]", "q", "bad token at column 1: '\u0663*chi[v]'"),
    ("\u0663/\u0664", "q", "bad token at column 1: '\u0663/\u0664'"),
    ("3/\u0664*chi[v]", "q", "bad token at column 2: '/\u0664*chi[v]'"),
    ("\uff13*chi[v]", "q", "bad token at column 1: '\uff13*chi[v]'"),
    # one unmarked id may name a vertex or an edge; a ghost or a word names edges
    ("chi[zz]", "q", "chi[zz]: unknown vertex or edge 'zz'"),
    ("chi[zz*]", "q", "chi[zz*]: unknown edge 'zz'"),
    ("chi[e.zz]", "q", "chi[e.zz]: unknown edge 'zz'"),
], ids=["2*3", "2 3", "chi[v] chi[w]", "chi[e.]", "chi[..e]", "1/0", "1/7 over fp:7",
        "arabic-indic digit", "arabic-indic fraction", "arabic-indic denominator",
        "fullwidth digit", "unknown id", "unknown ghost", "unknown edge in a word"])
def test_eval_refuses_malformed_expressions(tmp_path, capsys, expression, field, message):
    path = _write(tmp_path, "edge.json", EDGE)
    assert main(["eval", path, expression, "--field", field]) == 2
    out, err = capsys.readouterr()
    assert not out
    assert err == f"parse error: <expression>: {message}\n"


@pytest.mark.parametrize("mode", [[], ["--leavitt"]], ids=["path", "leavitt"])
def test_eval_refuses_a_word_that_is_not_a_path(monkeypatch, capsys, mode):
    monkeypatch.chdir(ROOT / "tests" / "data")
    assert main(["eval", *mode, "graph.json", "chi[xe2.xe0]"]) == 2
    out, err = capsys.readouterr()
    assert not out
    assert err == ("parse error: <expression>: chi[xe2.xe0]: word is not a path: "
                   "xe2 ends at x1, xe0 starts at c0_k0\n")


@pytest.mark.parametrize("mode", [[], ["--leavitt"]], ids=["path", "leavitt"])
@pytest.mark.parametrize("bad_id", ["a*", "a.b", "a]"])
def test_eval_refuses_ids_that_chi_cannot_name(tmp_path, capsys, mode, bad_id):
    graph = {"vertices": ["v", "w"], "omega_tails": [],
             "edges": [{"id": "a", "src": "v", "tgt": "w"},
                       {"id": bad_id, "src": "v", "tgt": "w"}]}
    path = _write(tmp_path, "starred.json", graph)
    assert main(["eval", *mode, path, "chi[a]"]) == 2
    out, err = capsys.readouterr()
    assert not out
    assert err.startswith("parse error: ") and f"ids ['{bad_id}'] contain" in err


def test_parse_element_refuses_ids_that_chi_cannot_name():
    g = Graph.build(["v"], [("a*b", "v", "v")])
    for leavitt in (False, True):
        with pytest.raises(ExprError, match=r"ids \['a\*b'\] contain"):
            parse_element("chi[a*b]", g, QQ, leavitt)
        with pytest.raises(ExprError, match="contain"):
            parse_element("1", g, QQ, leavitt)


GRAPH = graph_from_obj(json.loads((ROOT / "tests" / "data" / "graph.json").read_text()))
COEFFICIENTS = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.sampled_from(normal_monomials_window(GRAPH, 3)), COEFFICIENTS,
                       max_size=5),
       st.dictionaries(st.sampled_from(paths_up_to(GRAPH, 3)), COEFFICIENTS, max_size=5))
def test_printed_elements_parse_back(l_terms, p_terms):
    for elem, leavitt in ((LElement(GRAPH, QQ, l_terms), True),
                          (PAElement(GRAPH, QQ, p_terms), False)):
        if not elem.is_zero():
            assert parse_element(repr(elem), GRAPH, QQ, leavitt) == (elem, leavitt)


def test_parse_element_modes():
    g = Graph.build(["v", "w"], [("e", "v", "w")])
    elem, leavitt = parse_element("chi[e]", g)
    assert not leavitt
    elem, leavitt = parse_element("chi[e*]", g)
    assert leavitt
    with pytest.raises(ExprError):
        parse_element("", g)
    with pytest.raises(ExprError):
        parse_element("chi[v.e]", g)
    for text in ("chi[e.e]", "chi[e*.e*]"):
        with pytest.raises(ExprError, match="not a path"):
            parse_element(text, g)


def test_proptest_zero_cases_passes(capsys):
    assert main(["proptest", "--suite", "composition", "--cases", "0",
                 "--seed", "1"]) == 0


@pytest.mark.parametrize("argv", [
    ["verify", "--path", "f.json", "g.json", "--max-degree", "-1"],
    ["verify", "--leavitt", "f.json", "g.json", "--max-degree", "x"],
    ["pushout", "f.json", "g.json", "--check-h", "-1"],
    ["proptest", "--suite", "composition", "--cases", "-1"],
])
def test_bounds_must_be_non_negative_integers(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"parse error: {argv[-2]} {argv[-1]}: ")
    assert "expected an integer >= 0" in err


SPELLINGS = ["\u0663", "0_3", " 7", "7 ", "+3", "03", "00", "-0", "-03", "- 3", "\uff13"]


@pytest.mark.parametrize("text", SPELLINGS)
@pytest.mark.parametrize("argv", [
    ["verify", "--path", "f.json", "g.json", "--max-degree"],
    ["verify", "--leavitt", "f.json", "g.json", "--max-degree"],
    ["pushout", "f.json", "g.json", "--check-h"],
    ["proptest", "--suite", "composition", "--cases"],
], ids=["path-degree", "leavitt-degree", "check-h", "cases"])
def test_bounds_have_one_spelling(argv, text, capsys):
    """A bound is 0 or ASCII digits without a leading zero, as the prime of
    --field is: an Arabic-Indic or fullwidth digit, an underscore, a sign,
    a space or a leading zero, most of which int() reads, is a parse error,
    so that one bound cannot be echoed in two certificates."""
    assert main([*argv, text]) == 2
    err = capsys.readouterr().err
    assert err == f"parse error: {argv[-1]} {text}: expected an integer >= 0\n"


@pytest.mark.parametrize("text", SPELLINGS)
def test_seed_has_one_spelling(text, capsys):
    """A seed may be negative, but -0 and the spellings a bound refuses are
    parse errors."""
    assert main(["proptest", "--suite", "composition", "--cases", "1", "--seed", text]) == 2
    assert capsys.readouterr().err == f"parse error: --seed {text}: expected an integer\n"


def test_integer_options_read_their_one_spelling(monkeypatch, capsys):
    """0 and digits without a leading zero are read, and echoed as given."""
    monkeypatch.chdir(pathlib.Path(__file__).parent / "data")
    for text, value in (("0", 0), ("10", 10)):
        assert main(["verify", "--path", "path_f.json", "path_g.json",
                     "--max-degree", text]) == 0
        assert json.loads(capsys.readouterr().out)["params"]["max_degree"] == value
    assert main(["proptest", "--suite", "composition", "--cases", "1", "--seed", "-10"]) == 0
    assert capsys.readouterr().out.endswith("1/1 passed (seed -10)\n")


@pytest.mark.parametrize("argv, param, bound", [
    (["verify", "--path", "path_f.json", "path_g.json", "--max-degree"], "max_degree", "1"),
    (["verify", "--leavitt", "path_f.json", "path_g.json", "--max-degree"], "max_degree", "2"),
    (["pushout", "path_f.json", "path_g.json", "--check-h"], "check_h", "1"),
    (["pushout", "onecolor_f.json", "onecolor_g.json", "--check-h"], "check_h", "1"),
], ids=["path", "leavitt", "check-h", "check-h-onecolor"])
def test_a_bound_past_the_longest_path_changes_only_the_bound(monkeypatch, capsys,
                                                             argv, param, bound):
    """Both squares are acyclic, and their pushout graph's longest path has
    length 1: a bound of 10**6 checks what the least bound that reaches it
    checks (2 for the Leavitt windows, as a monomial alpha beta* has total
    length up to twice the longest path), so the two certificates differ
    only in the bound, as a param and in the echoed command.  Past the
    longest path nothing is built, so the large bound costs nothing."""
    monkeypatch.chdir(pathlib.Path(__file__).parent / "data")
    certs = []
    for text in (bound, "1000000"):
        assert main([*argv, text]) == 0
        cert = json.loads(capsys.readouterr().out)
        assert cert.pop("command") == [*argv, text]
        assert cert["params"].pop(param) == int(text)
        certs.append(cert)
    assert certs[0] == certs[1]
    assert certs[0]["ok"] and certs[0]["params"] in ({}, {"field": "q", "mode": "EXACT"})


def test_the_empty_square_has_no_degree(tmp_path, capsys):
    """The square of empty graphs has no path, so both verdicts are EXACT
    with no degree_<d> row: every degree of all four algebras is 0."""
    empty = {"vertices": []}
    hom = _write(tmp_path, "h.json", {"domain": empty, "codomain": empty, "f0": {}, "f1": {}})
    assert path_counts(Graph(()), 4) == []
    for mode in ("--path", "--leavitt"):
        assert main(["verify", mode, hom, hom]) == 0
        cert = json.loads(capsys.readouterr().out)
        assert (cert["ok"], cert["params"]["mode"], cert["checks"]) == (True, "EXACT", [])


@pytest.mark.parametrize("seed", ["x", "1.5", ""])
def test_proptest_seed_must_be_an_integer(seed, capsys):
    """A seed that is not an integer is a parse error that names the
    option, returned by main as a bad bound is."""
    assert main(["proptest", "--suite", "composition", "--cases", "1", "--seed", seed]) == 2
    assert capsys.readouterr().err == f"parse error: --seed {seed}: expected an integer\n"


def test_proptest_takes_a_negative_seed(capsys):
    """Any integer is a seed; case_rng masks a negative one."""
    assert main(["proptest", "--suite", "composition", "--cases", "2", "--seed", "-3"]) == 0
    assert capsys.readouterr().out.endswith("suite composition: 2/2 passed (seed -3)\n")


def test_proptest_unknown_suite(capsys):
    """An unknown suite is a parse error that names the option, as a bad
    --field is."""
    assert main(["proptest", "--suite", "nope", "--cases", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: --suite nope: unknown suite; choose from [")
    assert "'admissible-equiv'" in err


def test_admpush_is_an_unknown_suite(capsys):
    """Pushout closure of CRTBPOG legs is a theorem, checked in the tests,
    so admpush is no suite: naming it is a parse error listing the rest."""
    assert main(["proptest", "--suite", "admpush", "--cases", "1"]) == 2
    assert capsys.readouterr() == ("", "parse error: --suite admpush: unknown suite; choose from "
                                   "['admissible-equiv', 'breakarrow', 'captocup', 'composition', "
                                   "'h-bijective', 'kerver', 'lk-hom', 'pa-hom']\n")


def test_proptest_runs_cases(capsys):
    assert main(["proptest", "--suite", "admissible-equiv", "--seed", "7",
                 "--cases", "25"]) == 0
    out = capsys.readouterr().out
    assert "25/25 passed" in out


def test_cli_import_leaves_out_dataclasses_and_the_suites():
    """A fresh interpreter (python -S) that imports quivpush.cli loads
    neither dataclasses nor inspect, which cost every CLI start about
    10 ms, nor the property suites and their generators, which only the
    proptest command runs; that command still loads and runs them."""
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(ROOT / 'src')!r})",
        "import quivpush.cli",
        "print(sorted({'dataclasses', 'inspect', 'quivpush.proptest', 'quivpush.randgen'}"
        " & set(sys.modules)))",
        "sys.exit(quivpush.cli.main(['proptest', '--suite', 'kerver', '--cases', '3']))"])
    run = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == "[]\nsuite kerver: 3/3 passed (seed 0)\n"


def test_proptest_prints_each_failure_in_case_order(monkeypatch, capsys):
    """Each failing case prints one FAIL line, then its minimized instance
    when there is one, before the summary."""
    def flaky(rng):
        draw = rng.randrange(3)
        return CaseResult(draw == 0, f"drew {draw}", "small" if draw == 2 else "")

    monkeypatch.setitem(SUITES, "flaky", flaky)
    assert main(["proptest", "--suite", "flaky", "--seed", "5", "--cases", "6"]) == 1
    expected = []
    for i in range(6):
        draw = case_rng(5, i).randrange(3)
        if draw:
            expected.append(f"case {i:04d} FAIL flaky: drew {draw}")
        if draw == 2:
            expected.append("  minimized: small")
    passes = 6 - sum(line.startswith("case") for line in expected)
    expected.append(f"suite flaky: {passes}/6 passed (seed 5)")
    assert 0 < passes < 6 and "  minimized: small" in expected
    assert capsys.readouterr().out.splitlines() == expected


def test_certificates_deterministic(tmp_path, capsys):
    hom = {"domain": LOOP, "codomain": LOOP, "f0": {"u": "u"}, "f1": {"l": "l"}}
    path = _write(tmp_path, "ident.json", hom)
    main(["classify", path])
    first = capsys.readouterr().out
    main(["classify", path])
    second = capsys.readouterr().out
    assert first == second


DANGLING = {"vertices": ["v"], "edges": [{"id": "e", "src": "v", "tgt": "x"}]}
POINT_HOM = {"domain": {"vertices": ["v"]}, "codomain": {"vertices": ["v"]},
             "f0": {"v": "v"}, "f1": {}}
BOTH = {"vertices": ["a"], "edges": [{"id": "a", "src": "a", "tgt": "a"}]}


@pytest.mark.parametrize("command", ["pushout", "union"])
def test_unwritable_output_is_a_parse_error(tmp_path, capsys, command):
    """An -o path in a directory that does not exist is a named parse error,
    with nothing on stdout, not a traceback; the line names the path once."""
    path = _write(tmp_path, "in.json", POINT_HOM if command == "pushout" else EDGE)
    target = tmp_path / "absent" / "x.json"
    assert main([command, path, path, "-o", str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"parse error: {target}: No such file or directory\n"


def test_missing_input_names_its_path_once(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["classify", "absent.json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "parse error: absent.json: No such file or directory\n"


# (argv, files, exit code, stderr): argv names files by their keys, and
# "absent" a file that does not exist
MALFORMED = {
    "graph not an object": (["eval", "g", "1"], {"g": [1]}, 2,
                            "graph must be a JSON object"),
    "vertices not strings": (["eval", "g", "1"], {"g": {"vertices": [1]}}, 2,
                             "'vertices' must be a list of strings"),
    "edges not a list": (["eval", "g", "1"], {"g": {"vertices": ["v"], "edges": {}}}, 2,
                         "'edges' must be a list"),
    "edge without tgt": (["eval", "g", "1"],
                         {"g": {"vertices": ["v"], "edges": [{"id": "e", "src": "v"}]}}, 2,
                         "each edge needs 'id', 'src' and 'tgt'"),
    "duplicate vertex id": (["eval", "g", "1"], {"g": {"vertices": ["v", "w", "w", "v"]}}, 2,
                            "duplicate vertex id 'w'"),
    # 40,000 vertices whose only repeat is the last: found in one pass
    "late duplicate vertex id": (["eval", "g", "1"],
                                 {"g": {"vertices": [f"v{i}" for i in range(39999)] + ["v0"]}},
                                 2, "g.json: duplicate vertex id 'v0'"),
    "duplicate edge id": (["eval", "g", "1"],
                          {"g": {"vertices": ["v"],
                                 "edges": [{"id": "e", "src": "v", "tgt": "v"}] * 2}}, 2,
                          "duplicate edge id 'e'"),
    "tail not a pair": (["eval", "g", "1"], {"g": {"vertices": ["v"], "omega_tails": [["v"]]}},
                        2, "each omega tail must be a pair [v, w]"),
    "hom not an object": (["classify", "h"], {"h": []}, 2,
                          "homomorphism must be a JSON object"),
    "hom without f1": (["classify", "h"], {"h": {k: v for k, v in POINT_HOM.items()
                                                 if k != "f1"}}, 2, "missing 'f1'"),
    "f1 not an object": (["classify", "h"], {"h": {**POINT_HOM, "f1": []}}, 2,
                         "'f0' and 'f1' must be objects"),
    "unreadable file": (["classify", "absent"], {}, 2, "No such file or directory"),
    "dangling codomain": (["classify", "h"], {"h": {**POINT_HOM, "codomain": DANGLING}}, 2,
                          "codomain graph invalid: edge e: dangling target x"),
    "union of dangling": (["union", "g", "g"], {"g": DANGLING}, 2,
                          "edge e: dangling target x"),
    "different domains": (["verify", "--path", "h", "k"],
                          {"h": POINT_HOM, "k": {"domain": EDGE, "codomain": EDGE,
                                                 "f0": {"v": "v", "w": "w"},
                                                 "f1": {"e": "e"}}}, 3,
                          "refused: precondition shared-domain failed"),
    "bad token": (["eval", "g", "chi[v] $"], {"g": EDGE}, 2, "bad token at column 8"),
    "empty chi": (["eval", "g", "chi[]"], {"g": EDGE}, 2, "empty chi[...]"),
    "vertex and edge": (["eval", "g", "chi[a]"], {"g": BOTH}, 2,
                        "id 'a' is both a vertex and an edge"),
    "empty vertex id": (["eval", "g", "1"], {"g": {"vertices": [""]}}, 2,
                        "vertex id '' is not a nonempty string"),
    "dangling tail": (["eval", "g", "1"], {"g": {"vertices": ["v"], "omega_tails": [["v", "w"]]}},
                      2, "omega tail (v,w): dangling target w"),
    "duplicate tail": (["union", "g", "g"],
                       {"g": {"vertices": ["v", "w"], "omega_tails": [["v", "w"]] * 2}}, 2,
                       "duplicate omega tail (v,w)"),
    "dangling graph file": (["classify", "h"],
                            {"h": {**POINT_HOM, "codomain": "g.json"}, "g": DANGLING}, 2,
                            "g.json: edge e: dangling target x"),
    "blank expression": (["eval", "g", "   "], {"g": EDGE}, 2, "empty expression"),
    "bad eval field": (["eval", "g", "chi[e*]", "--field", "fp:4"], {"g": EDGE}, 2,
                       "parse error: --field fp:4: 4 is not prime"),
    "bad verify field": (["verify", "--leavitt", "h", "h", "--field", "fp:4"],
                         {"h": POINT_HOM}, 2, "parse error: --field fp:4: 4 is not prime"),
    # empty ids first, then each edge's ends by edge id, then each tail's
    "every graph problem": (["union", "g", "g"],
                            {"g": {"vertices": ["", "b", "a"],
                                   "edges": [{"id": "z", "src": "a", "tgt": "q"},
                                             {"id": "", "src": "p", "tgt": "b"},
                                             {"id": "m", "src": "r", "tgt": "s"}],
                                   "omega_tails": [["x", "a"], ["b", "y"]]}}, 2,
                            "vertex id '' is not a nonempty string; "
                            "edge id '' is not a nonempty string; edge : dangling source p; "
                            "edge m: dangling source r; edge m: dangling target s; "
                            "edge z: dangling target q; omega tail (b,y): dangling target y; "
                            "omega tail (x,a): dangling source x"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_inputs_exit_with_one_named_line(tmp_path, capsys, case):
    """Each malformed graph, hom, file, expression or option exits 2 (3 for
    legs with different domains) with one stderr line naming the problem
    and nothing on stdout."""
    argv, files, code, message = MALFORMED[case]
    paths = {"absent": str(tmp_path / "absent.json")}
    paths.update((name, _write(tmp_path, f"{name}.json", obj)) for name, obj in files.items())
    assert main([paths.get(arg, arg) for arg in argv]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err and err.count("\n") == 1 and "Traceback" not in err
