"""A dead-code guard: every public module-level function and class of the
package, and every public method and property of its classes, is reached
from what a command, a property suite or the bench runs.  An oracle that
only the tests call lives in tests/, next to the test that uses it.

Reaching is by name: a walk starts at cli.main, at the module-level
statements of src/ and at every name a bench/ file reads, and each
definition it reaches adds the names and attributes its body reads; a
member is reached when the walk reads its name.  An import alone reads
nothing, so a re-export in __init__ does not keep a definition alive.
Every field of a record (a NamedTuple class) in src/ is read as an
attribute somewhere, not only set by its constructor.

Three drift guards ride along: the refusal flags that src/ raises are the
ones the README's exit-code paragraph lists, each of them is named by
some other test file, and field objects stay out
of linalg, whose matrices hold ints, and out of the scalars, which are
plain numbers.  A guard fails on a parameter that its function never
reads or whose default no caller in src/ or bench/ overrides, a layering guard on a module
that imports one above it or on path_algebra building its own path-set
square, a memo guard on a functools cache anywhere but on
cli.build_parser, and an import guard on a name that a module of src/ or
tests/ imports and never reads.
"""

import ast
import math
import pathlib
import re
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "quivpush"
# each module of the package imports only modules listed before it
LAYERS = ("fields", "linalg", "graph", "morphism", "pushout", "path_algebra",
          "leavitt", "randgen", "proptest", "jsonio", "cli")
# identifiers of the scalar classes and conversions that plain numbers replaced
RETIRED = frozenset({"from_int", "Fp", "PrimeField", "RationalField"})
# the functools memos; only cli.build_parser may wear one
MEMOS = frozenset({"cache", "lru_cache", "cached_property"})
# names that bench/tracer.py's FUNCTIONS traces, as strings only
TRACED = frozenset({"classify_vertices", "induced_path_map"})


def _trees(directory):
    for path in sorted(directory.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _names(node):
    """Every identifier that node reads, as a name or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_src_is_reachable():
    """Every public module-level function and class of src/ is reached
    from main, from the module-level statements of src/ (the SUITES table
    among them), from a name that a bench/ file reads or from TRACED.  A
    reached definition is walked whole, methods included, and a public
    method or property of a class in src/ must have its name read by the
    walk.  Names are matched across modules, so the walk may reach too
    much; a name read only as a string, such as a traced function's, must
    be in TRACED."""
    defs = defaultdict(list)
    roots = {"main", *TRACED}
    for path, tree in _trees(PACKAGE):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[node.name].append((path, node))
            else:
                roots |= _names(node)
    for _, tree in _trees(ROOT / "bench"):
        roots |= _names(tree)
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [n for _, node in defs.get(name, ()) for n in _names(node)]
    unreached = [f"{path.relative_to(ROOT)}:{node.lineno} {name}"
                 for name, nodes in sorted(defs.items())
                 if name not in reached and not name.startswith("_")
                 for path, node in nodes]
    unreached += [f"{path.relative_to(ROOT)}:{member.lineno} {name}.{member.name}"
                  for name, nodes in sorted(defs.items()) for path, node in nodes
                  if isinstance(node, ast.ClassDef) for member in node.body
                  if isinstance(member, ast.FunctionDef)
                  and member.name not in reached and not member.name.startswith("_")]
    assert not unreached, "reached by no command, suite or bench: " + ", ".join(unreached)


def _is_record(node):
    """Whether the class definition node subclasses NamedTuple."""
    return any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases)


def test_every_record_field_is_read():
    """Each annotated field of a record (a NamedTuple class) in src/ is read
    as an attribute (x.field) in src/, tests/ or bench/; a field that is
    only filled in by the constructor is dead weight in every instance."""
    read = set()
    for directory in ("src", "tests", "bench"):
        for _, tree in _trees(ROOT / directory):
            read |= {node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.relative_to(ROOT)}:{stmt.lineno} {node.name}.{stmt.target.id}"
              for path, tree in _trees(PACKAGE) for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) and _is_record(node)
              for stmt in node.body
              if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
              and stmt.target.id not in read]
    assert not unread, "record fields never read: " + ", ".join(unread)


def _refusal_flags():
    """Every string-literal flag that src/ raises PreconditionError with,
    and the places whose flag is not a literal."""
    flags, unread = set(), []
    for path, tree in _trees(PACKAGE):
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "PreconditionError"):
                if node.args and isinstance(node.args[0], ast.Constant):
                    flags.add(node.args[0].value)
                else:
                    unread.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return flags, unread


def test_readme_names_every_refusal_flag():
    """The flags that src/ raises PreconditionError with are exactly the
    backticked names of the README's list of flags, the part of the
    exit-code paragraph after 'The flags:' outside parentheses; and each
    flag of src/ is a string literal."""
    flags, unread = _refusal_flags()
    assert not unread, "PreconditionError flags that are not literals: " + ", ".join(unread)
    assert flags, "no PreconditionError flag found in src/"
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    paragraph = readme[readme.index("Exit codes:"):].split("\n\n", 1)[0]
    listed = re.sub(r"\([^()]*\)", "", paragraph.split("The flags:", 1)[1])
    documented = set(re.findall(r"`([^`]+)`", listed))
    assert not flags - documented, ("refusal flags missing from README: "
                                     + ", ".join(sorted(flags - documented)))
    assert not documented - flags, ("README flags that src/ never raises: "
                                    + ", ".join(sorted(documented - flags)))


def _test_strings():
    """The string constants of every test file but this one, docstrings
    left out."""
    strings = []
    for path, tree in _trees(ROOT / "tests"):
        if path.name == pathlib.Path(__file__).name:
            continue
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                      and node.body and isinstance(node.body[0], ast.Expr)
                      and isinstance(node.body[0].value, ast.Constant)}
        strings += [node.value for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in docstrings]
    return strings


def test_every_refusal_flag_is_reached_by_a_test():
    """Each flag that src/ raises PreconditionError with appears in a
    string of another test file, outside docstrings, as the flag a test
    compares, matches or finds in an error text; a refusal that no test
    names is one that no test shows can fire."""
    flags, _ = _refusal_flags()
    strings = _test_strings()
    unreached = sorted(flag for flag in flags if not any(flag in text for text in strings))
    assert not unreached, "refusal flags that no test names: " + ", ".join(unreached)


def _retired(node):
    """The RETIRED identifier that node names, or '.one' when it reads an
    attribute so named; None otherwise."""
    names = {getattr(node, key, None) for key in ("id", "attr", "name", "arg")} & RETIRED
    if names:
        return names.pop()
    if isinstance(node, ast.Attribute) and node.attr == "one" and isinstance(node.ctx, ast.Load):
        return ".one"
    return None


def test_linalg_knows_no_field_objects():
    """linalg imports no quivpush module; no identifier in src/ is named
    from_int, Fp, PrimeField or RationalField, and no attribute read is
    named one.  The matrices src/ ranks hold ints and only linalg says how
    their entries are reduced; a scalar is a plain number, which
    LinearCombination reduces, and 1 is a literal, not field.one."""
    tree = ast.parse((PACKAGE / "linalg.py").read_text(encoding="utf-8"))
    own = [ast.unparse(node) for node in ast.walk(tree)
           if isinstance(node, ast.ImportFrom)
           and (node.level or (node.module or "").split(".")[0] == "quivpush")
           or isinstance(node, ast.Import)
           and any(alias.name.split(".")[0] == "quivpush" for alias in node.names)]
    assert not own, "linalg imports from quivpush: " + "; ".join(own)
    retired = [f"{path.relative_to(ROOT)}:{node.lineno} {name}"
               for path, tree in _trees(PACKAGE) for node in ast.walk(tree)
               if (name := _retired(node))]
    assert not retired, "retired scalar names in src/: " + ", ".join(retired)


def test_every_parameter_is_read():
    """Every parameter of a function or lambda in src/ is read in its body.
    Exempt are dunder methods, whose signatures Python fixes, the cmd_*
    handlers, which argparse calls with one signature, _immutable, which
    stands in for __setattr__ and __delattr__, and the receiver self, which
    a method takes whether or not it reads it."""
    unread = []
    for path, tree in _trees(PACKAGE):
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                if (node.name.startswith("__") and node.name.endswith("__")
                        or node.name.startswith("cmd_") or node.name == "_immutable"):
                    continue
                name = node.name
            elif isinstance(node, ast.Lambda):
                name = "lambda"
            else:
                continue
            a = node.args
            params = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
            params += [x.arg for x in (a.vararg, a.kwarg) if x]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.relative_to(ROOT)}:{node.lineno} {name}({p})"
                       for p in params if p not in read and p != "self"]
    assert not unread, "parameters never read: " + ", ".join(unread)


def _calls():
    """Called name or attribute -> every call of it in src/ or bench/."""
    calls = defaultdict(list)
    for directory in ("src", "bench"):
        for _, tree in _trees(ROOT / directory):
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "id", None) or getattr(func, "attr", None)
                    calls[name].append(node)
    return calls


def _passed(call, index, name):
    """Whether call gives a value to the parameter named name, the one its
    index-th positional argument fills; a *args or **kwargs argument may
    give one to every parameter."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return len(call.args) > index or any(k.arg in (name, None) for k in call.keywords)


def test_every_default_is_overridden():
    """Every parameter with a default, of a function or method in src/
    other than a dunder, is given a value by some call, by position or by
    keyword, in src/ or bench/.  A default that no caller overrides is a
    constant dressed as an option, and a value that only a test sets
    selects a variant that no command runs: the test builds that variant
    itself.  Calls are matched by name, so a
    name shared by two functions counts the calls of both."""
    calls = _calls()
    never = []
    for path, tree in _trees(PACKAGE):
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body if isinstance(f, ast.FunctionDef)
                   and not any(getattr(d, "id", None) == "staticmethod"
                               for d in f.decorator_list)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef) or (
                    node.name.startswith("__") and node.name.endswith("__")):
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            # obj.method(x) passes x to the method's second parameter
            skip = 1 if id(node) in methods else 0
            defaulted = [(i - skip, x.arg) for i, x in enumerate(positional) if i >= first]
            # no positional argument fills a keyword-only parameter
            defaulted += [(math.inf, x.arg) for x, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
            never += [f"{path.relative_to(ROOT)}:{node.lineno} {node.name}({name})"
                      for index, name in defaulted
                      if not any(_passed(c, index, name)
                                 for c in calls[node.name])]
    assert not never, "defaults that no caller overrides: " + ", ".join(never)


def _package_imports(tree):
    """(line, module) for every package module that tree imports, at module
    level or inside a function."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "quivpush":
                continue
            inner = parts[1:] if node.level == 0 else parts
            if inner and inner[0]:
                yield node.lineno, inner[0]
            else:
                yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "quivpush" and len(parts) > 1:
                    yield node.lineno, parts[1]


def test_modules_import_only_lower_layers():
    """Every module but __init__ is in LAYERS and imports, also lazily
    inside a function, only modules that come before it there."""
    upward = []
    for path, tree in _trees(PACKAGE):
        if path.stem == "__init__":
            continue
        assert path.stem in LAYERS, f"{path.stem} is not in LAYERS"
        level = LAYERS.index(path.stem)
        upward += [f"{path.relative_to(ROOT)}:{line} imports {module}"
                   for line, module in _package_imports(tree)
                   if module not in LAYERS or LAYERS.index(module) >= level]
    assert not upward, "imports against the layer order: " + ", ".join(upward)


def test_path_algebra_reads_the_path_square_of_pushout():
    """pushout.path_degrees is the one place that lists the paths of E, F
    and G and maps them into P; path_algebra imports neither the path
    listing nor the path image to build a square of its own."""
    tree = ast.parse((PACKAGE / "path_algebra.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & {"paths_up_to", "_path_image"}, sorted(imported)


def _memos(tree):
    """(line, name) of every functools memo that tree imports or reads as
    functools.<name>."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            yield from ((node.lineno, a.name) for a in node.names if a.name in MEMOS)
        elif (isinstance(node, ast.Attribute) and node.attr in MEMOS
              and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            yield node.lineno, node.attr


def test_no_memo_but_the_parser():
    """No functools memo in src/ except the one decorating cli.build_parser,
    whose single value is the parser.  A memo keyed by graphs or homs keeps
    every instance a process has seen, and the bench runs all its items in
    one process, so its peak RSS would grow item by item."""
    cli = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    allowed = {("cli.py", d.lineno) for node in cli.body
               if isinstance(node, ast.FunctionDef) and node.name == "build_parser"
               for d in node.decorator_list}
    memos = [f"{path.relative_to(ROOT)}:{line} {name}"
             for path, tree in _trees(PACKAGE) for line, name in _memos(tree)
             if (path.name, line) not in allowed]
    assert not memos, "functools memos in src/: " + ", ".join(memos)


def test_every_import_is_used():
    """Each name that a module of the package (but __init__, which
    re-exports) or of tests/ imports is read in that module, as a name or
    as the root of an attribute; __future__ imports are exempt."""
    unread = []
    for path, tree in [*_trees(PACKAGE), *_trees(ROOT / "tests")]:
        if path.stem == "__init__":
            continue
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unread += [f"{path.relative_to(ROOT)}:{node.lineno} {bound}"
                           for alias in node.names
                           if (bound := alias.asname or alias.name.split(".")[0]) not in read]
    assert not unread, "imported but never read: " + ", ".join(unread)
