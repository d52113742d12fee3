"""Wrong pushout squares that the Leavitt pullback verifier must reject.

Each fault replaces leavitt.pushout_square with a square that is not the
pushout, so a verdict of ok would mean that the obligations named in the
expected failures cannot say no."""

import dataclasses
import json

import pytest

from quivpush import leavitt
from quivpush.cli import main
from quivpush.graph import Graph
from quivpush.jsonio import hom_to_obj, save_json
from quivpush.leavitt import verify_leavitt_pullback
from quivpush.morphism import GraphHom
from quivpush.pushout import pushout_square
from quivpush.randgen import case_rng, leavitt_union_instance

EXTRA = "extra"


def _with_isolated_vertex(f, g):
    """The true square with one isolated vertex added to P; both injections
    are the true ones, retargeted to the larger P.  Nothing maps onto the
    new vertex, so its idempotent pulls back to zero on both sides."""
    po = pushout_square(f, g)
    p = po.graph
    assert EXTRA not in p.vertices
    bigger = Graph(p.vertices | {EXTRA}, p.edges, p.src, p.tgt)
    return dataclasses.replace(
        po, graph=bigger,
        iota_left=GraphHom(po.iota_left.domain, bigger, po.iota_left.f0, po.iota_left.f1),
        iota_right=GraphHom(po.iota_right.domain, bigger, po.iota_right.f0,
                            po.iota_right.f1))


@pytest.mark.parametrize("case", range(10))
def test_extra_pushout_vertex_fails_kerint_and_window(monkeypatch, case):
    f, g = leavitt_union_instance(case_rng(5, case))
    assert verify_leavitt_pullback(f, g, 3).ok
    monkeypatch.setattr(leavitt, "pushout_square", _with_isolated_vertex)
    report = verify_leavitt_pullback(f, g, 3)
    assert not report.ok
    assert not report.kerint_ok and not report.window_consistent()
    assert ("kerint", [EXTRA]) in report.failures
    assert {item[0] for item in report.failures} == {"kerint", "window"}
    # the extra vertex idempotent is the one column of degree 0 the image loses
    zero = next(w for w in report.window_checks if w.degree == 0)
    assert not zero.injective and zero.dim_image == zero.dim_window - 1


def test_cli_exits_1_and_lists_failures_on_a_wrong_square(monkeypatch, tmp_path, capsys):
    f, g = leavitt_union_instance(case_rng(5, 0))
    fp, gp = str(tmp_path / "f.json"), str(tmp_path / "g.json")
    save_json(fp, hom_to_obj(f))
    save_json(gp, hom_to_obj(g))
    argv = ["verify", "--leavitt", fp, gp, "--max-degree", "3"]
    assert main(argv) == 0
    assert "failures" not in json.loads(capsys.readouterr().out)
    monkeypatch.setattr(leavitt, "pushout_square", _with_isolated_vertex)
    assert main(argv) == 1
    cert = json.loads(capsys.readouterr().out)
    assert cert["ok"] is False
    assert ["kerint", str([EXTRA])] in cert["failures"]
    assert {item[0] for item in cert["failures"]} == {"kerint", "window"}
    checks = {c["name"]: c["ok"] for c in cert["checks"]}
    assert not checks["kernel_intersection"] and not checks["window_cross_check"]
