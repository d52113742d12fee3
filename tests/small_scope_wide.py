"""The wide small scope: every square of test_small_scope.py's kind with G
of 1 to 3 vertices and at most 3 edges and E and F of at most 3 vertices
and 4 edges, 21,002 squares, checked at n = 4.  The squares of the empty G
are left out: their P is the disjoint union of E and F, and at this scope
they would add 31,684 squares on which CK2 rewriting never runs.  It
takes about a minute, so pytest does not collect it; run it from the
checkout root as

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/small_scope_wide.py

For each square (square_lines) it compares the image dimension that
verify --leavitt counts with the rank of the columns that the tests'
oracle builds in full, and reports every failed verdict.  It checks Lemma
B of leavitt._window_cross_check at n = 10: the window sizes satisfy
E_d + F_d - G_d = P_d in every degree.  Where verify --path does not
refuse the square, it also checks the verdict against each degree of
pushout.path_degrees: each link joins two paths with one image, the
verdict's dim_image is the number of distinct images, its dim_fiber the
paths less the links and its dim_pushout the count of P's paths.  On the
mirror of each square, graph_pushout(g, f), both injections must be
CRTBPOG.  It prints each disagreement, then the number of squares, how
many pairs CK2 rewriting ran on, how many columns the count left to rank,
with how many of them were dependent, and how many path verdicts it
checked.  It exits 1 if any square disagreed or failed.
test_small_scope.py runs square_lines on a few squares.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_leavitt import _image_ranks  # noqa: E402
from test_small_scope import _fiber_sizes, _residues, _squares, _window_vector  # noqa: E402

from quivpush import jsonio, leavitt  # noqa: E402
from quivpush.graph import PreconditionError  # noqa: E402
from quivpush.linalg import rank  # noqa: E402
from quivpush.morphism import CATEGORY_CRTBPOG  # noqa: E402
from quivpush.path_algebra import verify_path_pullback  # noqa: E402
from quivpush.pushout import graph_pushout, path_degrees  # noqa: E402

N = 4
# the window size at which Lemma B is checked
LEMMA_B_N = 10


def _name(f, g):
    """The legs of a square as JSON homs, one line."""
    return " ".join(json.dumps(jsonio.hom_to_obj(h), sort_keys=True) for h in (f, g))


def _path_disagreements(f, g, po, n):
    """What verify --path gets wrong on the square po of f and g at n, as
    lines to print; None when it refuses the square."""
    try:
        report = verify_path_pullback(f, g, n)
    except PreconditionError:
        return None
    degrees = path_degrees(f, g, n, po)
    lines = [] if len(degrees) == len(report.degrees) else [
        f"path degrees: {_name(f, g)}: {len(report.degrees)} checked, {len(degrees)} in P"]
    for check, deg in zip(report.degrees, degrees):
        images = deg.images
        lines += [f"two images: {_name(f, g)} degree {check.degree}: link {i} {j}"
                  for i, j in deg.links if images[i] != images[j]]
        if check.dim_image != len(set(images)):
            lines.append(f"path rank: {_name(f, g)} degree {check.degree}: ranked "
                         f"{check.dim_image}, {len(set(images))} distinct images")
        if check.dim_fiber != len(deg.paths) - len(deg.links):
            lines.append(f"path fiber: {_name(f, g)} degree {check.degree}: counted "
                         f"{check.dim_fiber}, {len(deg.paths)} paths, {len(deg.links)} links")
        if check.dim_pushout != deg.count:
            lines.append(f"path pushout: {_name(f, g)} degree {check.degree}: counted "
                         f"{check.dim_pushout}, {deg.count} paths of P")
    if not report.ok:
        lines.append(f"path failed: {_name(f, g)}: {report.degrees}")
    return lines


def square_lines(f, g, po, sizes, n=N, lemma_b_n=LEMMA_B_N):
    """What the verdicts get wrong on the square po of f and g, as lines to
    print, and whether verify --path gave a verdict: the Leavitt verdict
    and the oracle rank at n, Lemma B at lemma_b_n, with the window sizes
    kept in sizes (see test_small_scope._window_vector), and the path
    verdict at n, and the injections of the mirror square graph_pushout(g,
    f)."""
    report = leavitt.verify_leavitt_pullback(f, g, n)
    ranks = _image_ranks(po, n, 0)
    lines = [f"disagree: {_name(f, g)} degree {w.degree}: counted {w.dim_image}, "
             f"rank {ranks.get(w.degree, 0)}"
             for w in report.degrees if w.dim_image != ranks.get(w.degree, 0)]
    if not report.ok:
        lines.append(f"failed: {_name(f, g)}: {[w for w in report.degrees if not w.ok]}")
    fiber = _fiber_sizes(sizes, f, g, lemma_b_n)
    window = _window_vector(sizes, po.graph, lemma_b_n)
    if fiber != window:
        lines.append(f"lemma B: {_name(f, g)}: degrees -{lemma_b_n}..{lemma_b_n}: "
                     f"E + F - G {fiber}, P {window}")
    mirror = graph_pushout(g, f)
    lines += [f"mirror: {_name(f, g)}: {side} injection is {iota.classification.category}"
              for side, iota in (("left", mirror.iota_left), ("right", mirror.iota_right))
              if iota.classification.category != CATEGORY_CRTBPOG]
    path_lines = _path_disagreements(f, g, po, n)
    return lines + (path_lines or []), path_lines is not None


def main():
    squares = [(f, g) for f, g in _squares((3, 3), (3, 4)) if f.domain.vertices]
    ck2, rewrites = leavitt._ck2_accumulate, []

    def counted(*args):
        rewrites.append(None)
        return ck2(*args)

    residue = dependent = bad = path_verdicts = 0
    sizes = {}
    for f, g in squares:
        po = graph_pushout(f, g)
        lines, path_verdict = square_lines(f, g, po, sizes)
        bad += len(lines)
        path_verdicts += path_verdict
        for line in lines:
            print(line)
        leavitt._ck2_accumulate = counted
        try:
            residues = _residues(po, N)
        finally:
            leavitt._ck2_accumulate = ck2
        for cols in residues.values():
            residue += len(cols)
            dependent += len(cols) - rank(cols, 0)
    print(f"squares: {len(squares)}")
    print(f"CK2 rewrites: {len(rewrites)}")
    print(f"residue columns: {residue}, dependent: {dependent}")
    print(f"path verdicts: {path_verdicts}, refused: {len(squares) - path_verdicts}")
    print(f"disagreements and failures: {bad}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
