"""Seeded instance sets for the benchmark workloads.

A corpus is a list of items, each with the answer it is known to have: an
exit code for a CLI invocation, or "passes" for a property-suite case.  CLI
inputs are written as homomorphism files, because users hand the CLI files.

The Leavitt and path corpora, and the h-bijective property cases, are
stratified by a size measure computed from each instance before it runs.
Instances come from the library's generators in seed order and fill fixed
quotas per size class, so two seeds give different instances with the same
size profile.  Without the quotas the pass time depends mostly on how many
of the rare large instances a seed happens to draw (a factor of two between
seeds on 100 Leavitt instances).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from functools import partial

from quivpush import jsonio, randgen
from quivpush.graph import Graph, paths_up_to
from quivpush.leavitt import normal_monomials_window
from quivpush.morphism import GraphHom, classify_hom
from quivpush.proptest import SUITES
from quivpush.pushout import (check_theorem_preconditions, graph_pushout,
                             pushout_square)

EXIT_OK = 0
EXIT_REFUSED = 3

# Leavitt: an instance runs at the highest degree <= 4 whose pushout window
# holds at most this many normal monomials.
LEAVITT_WINDOW_CAP = 600
# Quotas per size class; class k holds instances whose window cross-check
# does 2**k to 2**(k+1) - 1 units of dense elimination work (leavitt_work).
# Class 8 is a block of 48 that holds the median item, with 36 items below
# it and 36 above; class 18 is a block of 6 that holds the tail percentile;
# the seven instances of classes 22-23 (about 3% of draws) are where rank
# dominates over q.  Class 4 is left out because the generators rarely
# reach it.
LEAVITT_QUOTAS = {2: 4, 3: 4, 5: 8, 6: 8, 7: 8, 8: 48, 9: 4,
                  10: 3, 11: 3, 12: 3, 13: 2, 14: 2, 15: 2, 16: 2, 17: 2,
                  18: 6, 22: 3, 23: 4}
LEAVITT_REFUSALS = 4
# Admissible unions small enough for leavitt_union_instance stay below this
# class, so once only larger classes are open their draws are skipped.
UNION_MAX_CLASS = 18

# Path: the pushout may have at most this many paths of length 5.
PATH_DEGREE = 5
PATH_MAX_TOP_PATHS = 250
# Quotas per size class; class k holds instances with 2**k to 2**(k+1) - 1
# units of dense work (path_work).  The 20 of class 20 are where matmul and
# rank dominate, and their verify items hold the tail percentile.
PATH_QUOTAS = {5: 3, 6: 3, 7: 3, 8: 4, 9: 4, 10: 3, 11: 3, 12: 3, 13: 2,
               14: 2, 15: 2, 16: 2, 17: 2, 18: 2, 20: 20}
PATH_REFUSALS = 4

PROPTEST_CASES = 200
# every suite but the admpush conjecture probe, whose answer is unknown
PROPTEST_SUITES = tuple(s for s in SUITES if s != "admpush")
# h-bijective is the only suite with a heavy tail: its cost grows with the
# paths of length <= 4 in the four graphs, up to 200 ms a case.  Its cases
# are chosen by that count (class k holds 2**k to 2**(k+1) - 1 paths) in
# about the generator's proportions; class 11 is a block of 12 that holds
# the tail percentile, below the 4 cases of class 12.
H_BIJECTIVE_QUOTAS = {2: 4, 3: 13, 4: 38, 5: 28, 6: 29, 7: 34, 8: 19, 9: 10,
                      10: 9, 11: 12, 12: 4}

MAX_DRAWS = 20000


@dataclass(frozen=True)
class Item:
    """One timed unit: a CLI argv, or one case of a property suite."""
    name: str
    expect: int
    argv: tuple = ()
    suite: str = ""
    case: int = -1


@dataclass
class Corpus:
    items: list
    files: dict          # relative path -> file text
    seed: int
    note: str

    def digest(self) -> str:
        h = hashlib.sha256()
        for item in self.items:
            h.update(json.dumps([item.name, item.expect, list(item.argv),
                                 item.suite, item.case]).encode())
        for path in sorted(self.files):
            h.update(path.encode() + b"\0" + self.files[path].encode())
        return h.hexdigest()

    def write(self):
        for path, text in self.files.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)


def _add_legs(files, workdir, name, f: GraphHom, g: GraphHom):
    paths = []
    for side, hom in (("f", f), ("g", g)):
        path = f"{workdir}/{name}_{side}.json"
        files[path] = jsonio.canonical_dumps(jsonio.hom_to_obj(hom))
        paths.append(path)
    return paths


def _size_class(work):
    """k such that 2**k <= work < 2**(k+1)."""
    return max(work, 1).bit_length() - 1


def _fill_quotas(quotas, draw):
    """Draw candidates 0, 1, 2, ... until every size class has its quota.
    draw(i, open_classes) returns (size class, payload), or None to skip."""
    left = dict(quotas)
    chosen = []
    for i in range(MAX_DRAWS):
        drawn = draw(i, {k for k, n in left.items() if n})
        if drawn and left.get(drawn[0], 0) > 0:
            left[drawn[0]] -= 1
            chosen.append(drawn[1])
            if not any(left.values()):
                return chosen
    raise RuntimeError(f"quotas not filled after {MAX_DRAWS} draws: {left}")


def _theorem_holds(f, g, po) -> bool:
    """The Leavitt theorem's hypotheses, so the known answer is exit 0."""
    for hom in (f, g, po.iota_left, po.iota_right):
        if classify_hom(hom).category != "CRTBPOG":
            return False
    flags = check_theorem_preconditions(f, g, po)
    return flags.p1 and flags.p2


def _degree_counts(monomials):
    counts = {}
    for m in monomials:
        counts[m.degree] = counts.get(m.degree, 0) + 1
    return counts


def leavitt_work(f, g, po, n) -> int:
    """Dense elimination work of the window cross-check at degree n: rows
    times columns times the rank bound of its two matrices, per Z-degree."""
    pw, ew, fw, gw = (_degree_counts(normal_monomials_window(x, n))
                      for x in (po.graph, f.codomain, g.codomain, f.domain))
    work = 0
    for d in set(pw) | set(ew) | set(fw) | set(gw):
        p, ef, gd = pw.get(d, 0), ew.get(d, 0) + fw.get(d, 0), gw.get(d, 0)
        work += ef * p * min(ef, p) + gd * ef * min(gd, ef)
    return work


def _leavitt_draw(seed, i, open_classes):
    # the criterion-11 mix: 7 admissible unions, then 3 fold covers with a
    # real quotient, in every block of ten
    rng = randgen.case_rng(seed, i)
    if i % 10 < 7:
        if min(open_classes) >= UNION_MAX_CLASS:
            return None
        f, g = randgen.leavitt_union_instance(rng)
    else:
        f, g = randgen.admpush_instance(rng)
    po = pushout_square(f, g)
    if not _theorem_holds(f, g, po):
        return None
    degree = next((n for n in (4, 3, 2, 1)
                   if len(normal_monomials_window(po.graph, n)) <= LEAVITT_WINDOW_CAP), 0)
    return _size_class(leavitt_work(f, g, po, degree)), (i, f, g, degree)


def _non_crtbpog_legs(rng):
    """Legs refused by the Leavitt verifier: the left codomain has an edge
    into the image that does not lift, so f is not target bijective."""
    base = randgen.random_graph(rng, max_v=3, max_e=3, prefix="k")
    hit = rng.choice(sorted(base.vertices))
    triples = [(e, base.src[e], base.tgt[e]) for e in sorted(base.edges)]
    sup = Graph.build(sorted(base.vertices) + ["x"], triples + [("xe", "x", hit)])
    return GraphHom.inclusion(base, sup), GraphHom.identity(base)


def leavitt_corpus(seed, workdir, field) -> Corpus:
    items, files = [], {}
    chosen = _fill_quotas(LEAVITT_QUOTAS, partial(_leavitt_draw, seed))
    for i, f, g, degree in sorted(chosen, key=lambda c: c[0]):
        name = f"c{i:05d}"
        fp, gp = _add_legs(files, workdir, name, f, g)
        items.append(Item(name, EXIT_OK, ("verify", "--leavitt", fp, gp,
                                          "--field", field,
                                          "--max-degree", str(degree))))
    for j in range(LEAVITT_REFUSALS):
        f, g = _non_crtbpog_legs(random.Random(f"refuse-{seed}-{j}"))
        name = f"r{j:02d}"
        fp, gp = _add_legs(files, workdir, name, f, g)
        items.append(Item(name, EXIT_REFUSED, ("verify", "--leavitt", fp, gp,
                                               "--field", field,
                                               "--max-degree", "4")))
    degrees = sorted({int(item.argv[-1]) for item in items})
    return Corpus(items, files, seed,
                  f"{len(chosen)} theorem instances (degrees {degrees}), "
                  f"{LEAVITT_REFUSALS} refusals")


def _paths_by_degree(graph, n):
    counts = [0] * (n + 1)
    for p in paths_up_to(graph, n):
        counts[p.length] += 1
    return counts


def path_work(f, g, po, n=PATH_DEGREE) -> int:
    """Dense work of the path verifier per degree: the multiply-adds of the
    two commutation products, and rows times columns times the rank bound
    of the stacked and the constraint matrix."""
    pe, pf, pg, pp = (_paths_by_degree(x, n)
                      for x in (f.codomain, g.codomain, f.domain, po.graph))
    work = 0
    for d in range(n + 1):
        ef = pe[d] + pf[d]
        work += (pg[d] * ef * pp[d] + ef * pp[d] * min(ef, pp[d])
                 + pg[d] * ef * min(pg[d], ef))
    return work


def _path_draw(seed, i, open_classes):
    f, g = randgen.one_color_instance(randgen.case_rng(seed, i),
                                      need_one_sided=True)
    po = pushout_square(f, g)
    if _paths_by_degree(po.graph, PATH_DEGREE)[PATH_DEGREE] > PATH_MAX_TOP_PATHS:
        return None
    return _size_class(path_work(f, g, po)), (i, f, g)


def path_corpus(seed, workdir) -> Corpus:
    items, files = [], {}
    chosen = _fill_quotas(PATH_QUOTAS, partial(_path_draw, seed))
    n = str(PATH_DEGREE)
    for i, f, g in sorted(chosen, key=lambda c: c[0]):
        name = f"c{i:05d}"
        fp, gp = _add_legs(files, workdir, name, f, g)
        items.append(Item(name + "-verify", EXIT_OK,
                          ("verify", "--path", fp, gp, "--max-degree", n)))
        items.append(Item(name + "-pushout", EXIT_OK,
                          ("pushout", fp, gp, "--check-h", n)))
        items.append(Item(name + "-classify-f", EXIT_OK, ("classify", fp)))
        items.append(Item(name + "-classify-g", EXIT_OK, ("classify", gp)))
    for j in range(PATH_REFUSALS):
        f, g = randgen.one_color_violation(random.Random(f"refuse-{seed}-{j}"))
        name = f"r{j:02d}"
        fp, gp = _add_legs(files, workdir, name, f, g)
        items.append(Item(name + "-verify", EXIT_REFUSED,
                          ("verify", "--path", fp, gp, "--max-degree", n)))
    return Corpus(items, files, seed,
                  f"{len(chosen)} instances x 4 commands, {PATH_REFUSALS} refusals")


def _h_bijective_draw(seed, i, open_classes):
    # the instance suite_h_bijective draws for case i
    f, g = randgen.one_color_instance(randgen.case_rng(seed, i))
    po = graph_pushout(f, g)
    paths = sum(len(paths_up_to(x, 4))
                for x in (f.codomain, g.codomain, f.domain, po.graph))
    return _size_class(paths), i


def proptest_corpus(seed, workdir=None) -> Corpus:
    items = []
    for suite in PROPTEST_SUITES:
        if suite == "h-bijective":
            cases = sorted(_fill_quotas(H_BIJECTIVE_QUOTAS,
                                        partial(_h_bijective_draw, seed)))
        else:
            cases = range(PROPTEST_CASES)
        items += [Item(f"{suite}-{case:04d}", EXIT_OK, suite=suite, case=case)
                  for case in cases]
    return Corpus(items, {}, seed,
                  f"{len(PROPTEST_SUITES)} suites x {PROPTEST_CASES} cases")
