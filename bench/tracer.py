"""Span tracing around the public functions of each quivpush layer.

The tracer wraps every public module-level function of the layer modules
from outside the library.  Modules import functions from one another by
name (``rank`` is bound separately in ``leavitt`` and ``path_algebra``), so
installing rebinds every attribute of every ``quivpush`` module that holds
an original function, and then checks that none is left.  Functions held
in other containers, such as the property-suite table, are not rebound;
the benchmark opens those spans itself.

Each span records its name, start, end, parent span and item id.  Spans
are kept in flat arrays and aggregated when the pass ends.  A span's self
time is its duration minus the durations of its direct children, minus
what the tracer itself spent inside it: the measured per-call cost of each
child's wrapper, and the counters taken after each child returned.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

PACKAGE = "quivpush"
LAYERS = ("cli", "jsonio", "graph", "morphism", "pushout", "path_algebra",
          "leavitt", "linalg", "randgen", "proptest")

# Functions reported one by one: "s" reports inclusive time, "self_s" the
# time outside wrapped children, "" only the call count.
FUNCTIONS = (
    ("cli.main", "self_s"),
    ("jsonio.load_hom", "s"),
    ("jsonio.canonical_dumps", "s"),
    ("graph.extended_graph", "s"),
    ("graph.classify_vertices", "s"),
    ("graph.paths_up_to", "s"),
    ("morphism.classify_hom", "s"),
    ("morphism.induced_path_map", "s"),
    ("morphism.is_admissible", "s"),
    ("pushout.graph_pushout", "s"),
    ("pushout.check_theorem_preconditions", "s"),
    ("pushout.path_pushout_compare", "self_s"),
    ("path_algebra.verify_path_pullback", "self_s"),
    ("path_algebra.path_preimages", "s"),
    ("path_algebra.pa_pullback", "s"),
    ("path_algebra.pa_mul", "s"),
    ("leavitt.verify_leavitt_pullback", "self_s"),
    ("leavitt.l_pullback", "self_s"),
    ("leavitt.l_mul", "self_s"),
    ("leavitt.monomial_element", "s"),
    ("leavitt.normal_monomials_window", "s"),
    ("leavitt.verify_descent", "s"),
    ("linalg.rank", "s"),
    ("linalg.matmul", "s"),
    ("proptest.minimize_legs", ""),
)

GENERATION = -1     # item id of spans opened while the corpus is drawn


def _rank_counts(tracer, args, result):
    rows = args[0]
    cells = len(rows) * (len(rows[0]) if rows else 0)
    c = tracer.counts
    c["linalg.rank.cells"] += cells
    c["linalg.rank.nnz"] += sum(1 for row in rows for x in row if x)
    c["linalg.rank.max_cells"] = max(c["linalg.rank.max_cells"], cells)


def _matmul_counts(tracer, args, result):
    a, b = args[0], args[1]
    if a and b:
        tracer.counts["linalg.matmul.mult_adds"] += len(a) * len(b) * len(b[0])


def _distinct(name):
    def hook(tracer, args, result):
        tracer.seen[name].add(hash(args[0]))
    return hook


def _adder(name, measure):
    def hook(tracer, args, result):
        tracer.counts[name] += measure(result)
    return hook


HOOKS = {
    "jsonio.canonical_dumps": _adder("jsonio.canonical_dumps.bytes",
                                     lambda r: len(r.encode())),
    "graph.extended_graph": _distinct("graph.extended_graph"),
    "graph.classify_vertices": _distinct("graph.classify_vertices"),
    "graph.paths_up_to": _adder("graph.paths_up_to.paths", len),
    "leavitt.l_pullback": _adder("leavitt.l_pullback.terms_out",
                                 lambda r: len(r.terms)),
    "leavitt.normal_monomials_window": _adder(
        "leavitt.normal_monomials_window.monomials", len),
    "linalg.rank": _rank_counts,
    "linalg.matmul": _matmul_counts,
}


class Tracer:
    """Spans and counters of one traced run; see the module doc."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.name_of = array("l")
        self.parents = array("l")
        self.items = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.excluded = array("d")
        self.stack = []
        self.item = GENERATION
        self.counts = defaultdict(int)
        self.seen = defaultdict(set)
        self.wrappers = {}      # id(original) -> (original, wrapper)
        self.bindings = []      # (module, attribute, original)
        self.call_cost_s = self._calibrate()
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    self.wrappers[id(obj)] = (obj, self._wrap(name, obj, HOOKS.get(name)))

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _open(self, name_id):
        idx = len(self.starts)
        self.name_of.append(name_id)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.items.append(self.item)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.excluded.append(0.0)
        self.stack.append(idx)
        return idx

    def _calibrate(self, calls=20000, rounds=3):
        """Seconds a wrapped call adds to its caller outside its own span,
        beyond the cost of a plain call; the least of a few rounds."""
        def noop(a, b, c):
            return None
        wrapped = self._wrap("tracer.calibration", noop, None)
        costs = []
        for _ in range(rounds):
            start = time.perf_counter()
            for _ in range(calls):
                noop(1, 2, 3)
            direct = time.perf_counter() - start
            start = time.perf_counter()
            for _ in range(calls):
                wrapped(1, 2, 3)
            total = time.perf_counter() - start
            inside = sum(e - s for s, e in zip(self.starts, self.ends))
            for spans in (self.name_of, self.parents, self.items, self.starts,
                          self.ends, self.excluded):
                del spans[:]
            costs.append((total - inside - direct) / calls)
        return max(min(costs), 0.0)

    def _wrap(self, name, fn, hook):
        tracer = self
        name_id = self._name_id(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer.stack.pop()
                tracer.starts[idx] = start
                tracer.ends[idx] = end
            if hook is not None and tracer.item != GENERATION:
                hook(tracer, args, result)
                if tracer.stack:
                    tracer.excluded[tracer.stack[-1]] += clock() - end
            return result
        return wrapper

    def span(self, name, fn, *args):
        """Call fn(*args) inside a span opened by the benchmark itself."""
        return self._wrap(name, fn, None)(*args)

    def _modules(self):
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def install(self):
        for module in self._modules():
            for attr, obj in list(vars(module).items()):
                entry = self.wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    self.bindings.append((module, attr, obj))
        left = self.unwrapped()
        if left:
            raise RuntimeError(f"functions still bound unwrapped: {left}")

    def uninstall(self):
        for module, attr, obj in self.bindings:
            setattr(module, attr, obj)
        self.bindings = []

    def unwrapped(self):
        """Module attributes that still hold an original function."""
        return sorted(f"{module.__name__}.{attr}"
                      for module in self._modules()
                      for attr, obj in vars(module).items()
                      if id(obj) in self.wrappers and self.wrappers[id(obj)][0] is obj)

    def _child_seconds(self):
        """Per span: what its self time leaves out (see the module doc)."""
        child = list(self.excluded)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i] + self.call_cost_s
        return child

    def aggregate(self):
        """Per-name calls, inclusive and self seconds, per-layer self seconds
        and per-item self seconds by layer, over the spans of timed items."""
        child = self._child_seconds()
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        layer_self = defaultdict(float)
        draw_s = 0.0
        for i in range(len(self.starts)):
            name = self.names[self.name_of[i]]
            layer = name.split(".", 1)[0]
            dur = self.ends[i] - self.starts[i]
            p = self.parents[i]
            if layer == "randgen" and (p < 0 or not self.names[self.name_of[p]].startswith("randgen.")):
                draw_s += dur
            if self.items[i] == GENERATION:
                continue
            calls[name] += 1
            total[name] += dur
            self_s[name] += dur - child[i]
            layer_self[layer] += dur - child[i]
        return calls, total, self_s, layer_self, draw_s

    def metrics(self, suites):
        calls, total, self_s, layer_self, draw_s = self.aggregate()
        out = {}
        for name, kind in FUNCTIONS:
            out[f"{name}.calls"] = calls[name]
            if kind:
                out[f"{name}.{kind}"] = (self_s if kind == "self_s" else total)[name]
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = layer_self[layer]
        for name in ("graph.extended_graph", "graph.classify_vertices"):
            out[f"{name}.distinct_ratio"] = (len(self.seen[name]) / calls[name]
                                             if calls[name] else 0.0)
        for name in ("jsonio.canonical_dumps.bytes", "graph.paths_up_to.paths",
                     "leavitt.l_pullback.terms_out",
                     "leavitt.normal_monomials_window.monomials",
                     "linalg.rank.cells", "linalg.rank.nnz",
                     "linalg.rank.max_cells", "linalg.matmul.mult_adds"):
            out[name] = self.counts[name]
        cells = self.counts["linalg.rank.cells"]
        out["linalg.rank.density"] = self.counts["linalg.rank.nnz"] / cells if cells else 0.0
        out["randgen.draw.s"] = draw_s
        for suite in suites:
            out[f"proptest.suite.{suite}.s"] = total[f"proptest.suite.{suite}"]
        return out

    def item_layers(self):
        """Self seconds per item and layer, for the result record."""
        child = self._child_seconds()
        per_item = defaultdict(lambda: defaultdict(float))
        for i in range(len(self.starts)):
            if self.items[i] != GENERATION:
                layer = self.names[self.name_of[i]].split(".", 1)[0]
                per_item[self.items[i]][layer] += self.ends[i] - self.starts[i] - child[i]
        return per_item
