"""Command-line surface: classify, pushout, union, verify, eval, proptest.

Every command prints a deterministic JSON certificate (command echo, input
digests, per-check verdicts with witnesses) so reruns on identical inputs
are byte identical.  Exit codes: 0 pass, 1 check failed, 2 parse error,
3 precondition refused.  main maps each error type to one exit code; the
commands pass errors on as raised, adding context only through _reading.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import re
import sys

from .fields import QQ, FieldError, field_from_name
from .graph import (Graph, GraphError, Path, PreconditionError, check_word,
                    intersection_graph, require_tail_free, union_graph)
from .morphism import GraphHom, HomError, classify_hom, is_admissible
from .pushout import check_theorem_preconditions, path_pushout_compare, pushout_square
from .path_algebra import PAElement, pa_unit, verify_path_pullback
from .leavitt import (l_unit, normal_form, verify_leavitt_pullback,
                      vertex_monomial, monomial_element)
from . import jsonio

VERSION = "quivpush 0.1.0"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_REFUSED = 3


class Certificate:
    def __init__(self, argv):
        self.obj = {"version": VERSION, "command": list(argv),
                    "inputs": [], "params": {}, "checks": []}

    def param(self, key, value):
        self.obj["params"][key] = value

    def check(self, name, ok, **extra):
        entry = {"name": name, "ok": bool(ok)}
        entry.update(extra)
        self.obj["checks"].append(entry)
        return ok

    def extra(self, key, value):
        self.obj[key] = value

    def finish(self):
        self.obj["ok"] = all(c["ok"] for c in self.obj["checks"])
        sys.stdout.write(jsonio.canonical_dumps(self.obj))
        return EXIT_OK if self.obj["ok"] else EXIT_CHECK_FAILED


# a coefficient: ASCII digits, as \d would also read other scripts' digits
_COEFFICIENT = r"[0-9]+(?:/[0-9]+)?"
_TOKEN = re.compile(rf"\s*(chi\[[^\]]*\]|{_COEFFICIENT}|[+\-*])\s*")
# characters that chi[...] reads as syntax, so an id holding one cannot be
# named there and its printed form does not read back
_UNNAMEABLE = re.compile(r"[.*\]]")


class ExprError(ValueError):
    pass


def _tokenize(text):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ExprError(f"bad token at column {pos + 1}: {text[pos:pos + 10]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def _parse_component(comp):
    ghost = comp.endswith("*")
    name = comp[:-1] if ghost else comp
    if not name:
        raise ExprError("empty id inside chi[...]")
    return name, ghost


def parse_element(text, g: Graph, field=QQ, leavitt=False):
    """Parse a linear combination like '3/2*chi[e1.e2] - chi[v]'.

    Ghost markers (chi[e*]) force Leavitt mode; bare coefficients multiply
    the unit.  Graphs with omega tails are refused in both modes by
    graph.require_tail_free, and graphs with an id that chi[...] cannot
    name with ExprError.
    """
    unnamed = sorted(x for x in g.vertices | g.edges if _UNNAMEABLE.search(x))
    if unnamed:
        raise ExprError(f"ids {unnamed} contain '.', '*' or ']', which chi[...] "
                        "reads as separators or ghost marks")
    if not text.strip():
        raise ExprError("empty expression")
    tokens = _tokenize(text)
    atoms = []   # (sign, coef-string or None, chi-literal or None)
    i = 0
    while i < len(tokens):
        sign = 1
        start = i
        while i < len(tokens) and tokens[i] in "+-":
            if tokens[i] == "-":
                sign = -sign
            i += 1
        if atoms and i == start:
            raise ExprError(f"expected + or - before term {len(atoms) + 1}")
        coef = None
        if i < len(tokens) and re.fullmatch(_COEFFICIENT, tokens[i]):
            coef = tokens[i]
            i += 1
            if i < len(tokens) and tokens[i] == "*":
                i += 1
                if i == len(tokens) or not tokens[i].startswith("chi["):
                    raise ExprError(f"expected chi[...] after '{coef}*'")
        chi = None
        if i < len(tokens) and tokens[i].startswith("chi["):
            chi = tokens[i][4:-1]
            i += 1
        if coef is None and chi is None:
            raise ExprError("expected a coefficient or chi[...] term")
        atoms.append((sign, coef, chi))
    if any(chi and "*" in chi for _, _, chi in atoms):
        leavitt = True
    require_tail_free(g)

    def term_element(sign, coef, chi):
        scalar = 1 if coef is None else field.parse(coef)
        if sign < 0:
            scalar = -scalar
        if chi is None:
            unit = l_unit(g, field) if leavitt else pa_unit(g, field)
            return unit.scale(scalar)
        if not chi:
            raise ExprError("empty chi[...]")
        parsed = [_parse_component(c) for c in chi.split(".")]
        if len(parsed) == 1 and not parsed[0][1]:
            name = parsed[0][0]
            if name in g.vertices and name in g.edges:
                raise ExprError(f"id {name!r} is both a vertex and an edge; "
                                "qualify it with an edge path")
            if name in g.vertices:
                if leavitt:
                    return monomial_element(g, vertex_monomial(name), field, scalar)
                return PAElement(g, field, {Path(name): scalar})
            if name not in g.edges:
                raise ExprError(f"chi[{chi}]: unknown vertex or edge {name!r}")
        try:
            check_word(g, parsed)
        except GraphError as exc:
            raise ExprError(f"chi[{chi}]: {exc}") from None
        if leavitt:
            return normal_form(g, parsed, scalar, field)
        edges = tuple(name for name, _ in parsed)
        return PAElement(g, field, {Path(g.src[edges[0]], edges): scalar})

    total = None
    for sign, coef, chi in atoms:
        elem = term_element(sign, coef, chi)
        total = elem if total is None else total + elem
    return total, leavitt


@contextlib.contextmanager
def _reading(what):
    """Report an error in the text of an expression or option, raised in
    the block, as a parse error of what."""
    try:
        yield
    except (ExprError, FieldError) as exc:
        raise jsonio.FormatError(str(exc), what) from None


def cmd_classify(args, argv):
    cert = Certificate(argv)
    h = jsonio.load_hom(args.hom, cert.obj["inputs"])
    cert.check("valid_hom", not h.problems, violations=list(h.problems))
    if h.problems:
        return cert.finish()
    cls = classify_hom(h)
    # every hom between finite graphs is proper (finite-to-one)
    cert.check("classification", True, injective=cls.injective,
               surjective=cls.surjective, proper=True,
               target_bijective=cls.target_bijective, regular=cls.regular,
               category=cls.category)
    if cls.injective:
        report = is_admissible(h)
        cert.check("admissible", True, admissible=report.admissible,
                   strongly=report.strongly, witnesses=report.witnesses)
    else:
        cert.check("admissible", True, admissible=False,
                   note="not injective; admissibility undefined")
    return cert.finish()


def cmd_pushout(args, argv):
    cert = Certificate(argv)
    f = jsonio.load_hom(args.left, cert.obj["inputs"])
    g = jsonio.load_hom(args.right, cert.obj["inputs"])
    po = pushout_square(f, g)
    flags = check_theorem_preconditions(f, g, po)
    cert.param("check_h", args.check_h)
    for name, value in flags.as_dict().items():
        cert.check(f"flag_{name}", True, value=value)
    report = path_pushout_compare(f, g, args.check_h, po)
    cert.check("h_bijective_up_to_N", True, value=report.bijective,
               injective=report.injective, surjective=report.surjective,
               missing=list(report.missing), collisions=list(report.collisions))
    obj = jsonio.pushout_to_obj(po)
    cert.extra("pushout", obj)
    if args.output:
        jsonio.save_json(args.output, obj)
        cert.param("output", args.output)
    return cert.finish()


def cmd_union(args, argv):
    cert = Certificate(argv)
    f_graph = jsonio.load_graph(args.left, cert.obj["inputs"])
    g_graph = jsonio.load_graph(args.right, cert.obj["inputs"])
    u = union_graph(f_graph, g_graph)
    inter = intersection_graph(f_graph, g_graph)
    cert.extra("union", jsonio.graph_to_obj(u))
    cert.extra("intersection", jsonio.graph_to_obj(inter))
    for name, sub, sup in (("inter_in_left", inter, f_graph),
                           ("inter_in_right", inter, g_graph),
                           ("left_in_union", f_graph, u),
                           ("right_in_union", g_graph, u)):
        report = is_admissible(GraphHom.inclusion(sub, sup))
        cert.check(f"admissible_{name}", True, admissible=report.admissible,
                   strongly=report.strongly)
    if args.output:
        jsonio.save_json(args.output, jsonio.graph_to_obj(u))
        cert.param("output", args.output)
    return cert.finish()


def cmd_verify(args, argv):
    cert = Certificate(argv)
    f = jsonio.load_hom(args.left, cert.obj["inputs"])
    g = jsonio.load_hom(args.right, cert.obj["inputs"])
    with _reading(f"--field {args.field}"):
        field = field_from_name(args.field)
    cert.param("field", args.field)
    cert.param("max_degree", args.max_degree)
    if args.leavitt:
        report = verify_leavitt_pullback(f, g, args.max_degree, field)
    else:
        report = verify_path_pullback(f, g, args.max_degree)
    cert.param("mode", "EXACT" if report.exact else f"TRUNCATED({args.max_degree})")
    for deg in report.degrees:
        cert.check(f"degree_{deg.degree}", deg.ok, dim_pushout=deg.dim_pushout,
                   dim_image=deg.dim_image, dim_fiber=deg.dim_fiber)
    return cert.finish()


def cmd_eval(args, argv):
    cert = Certificate(argv)
    g = jsonio.load_graph(args.graph, cert.obj["inputs"])
    with _reading(f"--field {args.field}"):
        field = field_from_name(args.field)
    cert.param("field", args.field)
    with _reading("<expression>"):
        elem, leavitt = parse_element(args.expression, g, field, args.leavitt)
    cert.param("mode", "leavitt" if leavitt else "path-algebra")
    cert.check("evaluated", True, result=repr(elem),
               terms=len(elem.terms))
    return cert.finish()


def cmd_proptest(args, argv):
    # the suites and their generators load only for the command that runs them
    from .proptest import SUITES, run_suite

    if args.suite not in SUITES:
        raise jsonio.FormatError(f"unknown suite; choose from {sorted(SUITES)}",
                                 f"--suite {args.suite}")
    passes, failures = run_suite(args.suite, args.seed, args.cases)
    for i, result in failures:
        print(f"case {i:04d} FAIL {args.suite}: {result.detail}")
        if result.minimized:
            print(f"  minimized: {result.minimized}")
    print(f"suite {args.suite}: {passes}/{args.cases} passed (seed {args.seed})")
    return EXIT_OK if not failures else EXIT_CHECK_FAILED


class _Integer(argparse.Action):
    """An integer option with one spelling, as --field has: 0, or ASCII
    digits with no leading zero, signed by '-' only where negatives are
    allowed.  Other text is a parse error naming the option, as for --field."""

    spelling = re.compile(r"0|-?[1-9][0-9]*")
    bound = ""

    def __call__(self, parser, namespace, text, option_string=None):
        try:
            value = int(self.spelling.fullmatch(text)[0])
        except (TypeError, ValueError):     # no match, or too many digits for int()
            raise jsonio.FormatError(f"expected an integer{self.bound}",
                                     f"{option_string} {text}") from None
        setattr(namespace, self.dest, value)


class _NonNegativeInt(_Integer):
    """A bound or count option: an integer >= 0."""

    spelling = re.compile(r"0|[1-9][0-9]*")
    bound = " >= 0"


@functools.cache
def build_parser():
    """The command-line parser, built once per process; parse_args leaves it
    unchanged, so every call of main shares it.  Callers must not modify it."""
    parser = argparse.ArgumentParser(prog="quivpush",
                                     description="Exact graph-algebra pushout/pullback toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a homomorphism file")
    p.add_argument("hom")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("pushout", help="pushout of two homs with a shared domain")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--check-h", action=_NonNegativeInt, default=4, dest="check_h",
                   help="truncation for the path comparison map")
    p.add_argument("-o", "--output", default=None, help="write the pushout graph JSON here")
    p.set_defaults(func=cmd_pushout)

    p = sub.add_parser("union", help="union/intersection of two graph files")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("-o", "--output", default=None, help="write the union graph JSON here")
    p.set_defaults(func=cmd_union)

    p = sub.add_parser("verify", help="verify a pushout-to-pullback theorem instance")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--path", action="store_true")
    mode.add_argument("--leavitt", action="store_true")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--max-degree", action=_NonNegativeInt, default=4, dest="max_degree")
    p.add_argument("--field", default="q", help="'q' or 'fp:<prime>'")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("eval", help="evaluate an algebra element over a graph file")
    p.add_argument("graph")
    p.add_argument("expression")
    p.add_argument("--leavitt", action="store_true")
    p.add_argument("--field", default="q")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("proptest", help="run a seeded randomized suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--seed", action=_Integer, default=0)
    p.add_argument("--cases", action=_NonNegativeInt, default=100)
    p.set_defaults(func=cmd_proptest)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
        return args.func(args, argv)
    except jsonio.FormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except (GraphError, HomError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
