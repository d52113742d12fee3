"""The wide small scope: every square of test_small_scope.py's kind with G
of 1 to 3 vertices and at most 3 edges and E and F of at most 3 vertices
and 4 edges, 21,002 squares, checked at n = 4.  The squares of the empty G
are left out: their P is the disjoint union of E and F, and at this scope
they would add 31,684 squares on which CK2 rewriting never runs.  It
takes about a minute, so pytest does not collect it; run it from the
checkout root as

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/small_scope_wide.py

For each square it compares the image dimension that verify --leavitt
counts with the rank of the columns that the tests' oracle builds in full,
and prints every disagreement and every failed verdict.  Where verify
--path does not refuse the square, it also checks each degree of
pushout.path_degrees: each link joins two paths with one image, and the
verdict's dim_image is the number of distinct images.  Then it prints the
number of squares, how many pairs CK2 rewriting ran on, how many columns
the count left to rank, with how many of them were dependent, and how
many path verdicts it checked.  It exits 1 if any square disagreed or
failed.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_leavitt import _image_ranks  # noqa: E402
from test_small_scope import _residues, _squares  # noqa: E402

from quivpush import jsonio, leavitt  # noqa: E402
from quivpush.graph import PreconditionError  # noqa: E402
from quivpush.linalg import rank  # noqa: E402
from quivpush.path_algebra import verify_path_pullback  # noqa: E402
from quivpush.pushout import graph_pushout, path_degrees  # noqa: E402

N = 4


def _name(f, g):
    """The legs of a square as JSON homs, one line."""
    return " ".join(json.dumps(jsonio.hom_to_obj(h), sort_keys=True) for h in (f, g))


def _path_disagreements(f, g, po):
    """What verify --path gets wrong on the square po of f and g at N, as
    lines to print; None when it refuses the square."""
    try:
        report = verify_path_pullback(f, g, N)
    except PreconditionError:
        return None
    lines = []
    for check, deg in zip(report.degrees, path_degrees(f, g, N, po)):
        images = deg.images
        lines += [f"two images: {_name(f, g)} degree {check.degree}: link {i} {j}"
                  for i, j in deg.links if images[i] != images[j]]
        if check.dim_image != len(set(images)):
            lines.append(f"path rank: {_name(f, g)} degree {check.degree}: ranked "
                         f"{check.dim_image}, {len(set(images))} distinct images")
    return lines


def main():
    squares = [(f, g) for f, g in _squares((3, 3), (3, 4)) if f.domain.vertices]
    ck2, rewrites = leavitt._ck2_accumulate, []

    def counted(*args):
        rewrites.append(None)
        return ck2(*args)

    residue = dependent = bad = path_verdicts = 0
    for f, g in squares:
        po = graph_pushout(f, g)
        report = leavitt.verify_leavitt_pullback(f, g, N)
        ranks = _image_ranks(po, N, 0)
        for w in report.window_checks:
            if w.dim_image != ranks.get(w.degree, 0):
                bad += 1
                print(f"disagree: {_name(f, g)} degree {w.degree}: counted {w.dim_image}, "
                      f"rank {ranks.get(w.degree, 0)}")
        if report.failures:
            bad += 1
            print(f"failed: {_name(f, g)}: {report.failures}")
        path_lines = _path_disagreements(f, g, po)
        if path_lines is not None:
            path_verdicts += 1
            bad += len(path_lines)
            for line in path_lines:
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
