"""Finite directed graphs (quivers), paths, words, unions and intersections.

A graph is a quadruple of vertex set, edge set and source/target maps.
Infinite emitters are modelled combinatorially: an omega tail ``(v, w)``
stands for countably many anonymous parallel edges from v to w.  Tails
take part in single-graph predicates and in union/intersection only:
require_tail_free refuses them for path enumeration, graph pushouts and
both algebras.  A path or word not in a graph is a GraphError.

A word is a sequence of letters (e, is_ghost): the edge e runs from s(e) to
t(e) and its ghost e* from t(e) back to s(e).  Words that spell a path are
the monomials that the Leavitt normal form multiplies out.

path_counts gives c_l(v), the number of paths of length l ending at v, on
a tail-free graph.  The Leavitt window sizes and the pushout graph's paths
in each degree are read from it, not from a list of paths.  path_walk is
the one path enumerator: it lists the paths of length <= n as int ids, each
holding its parent (the path less its last edge), last edge, end vertex and
length, so the Leavitt window columns hash ints.  PathWalk.paths builds
the Path of every id from its parent's, and paths_up_to is that list.

A Path is its start vertex and its composable edges; the trivial path at
v is Path(v), with no edges.  A Path is a tuple (typing.NamedTuple), as
is the Leavitt monomial built from two of them, so that the dict lookups
keyed by them hash and compare in C.  Every other record of the library
(the vertex classes here, the reports, flags and squares of the other
modules) is a NamedTuple too: it needs no dataclasses import, and
defining one costs a fraction of a dataclass, so that a CLI start stays
short.  Being tuples, records compare equal to plain tuples, and to
records of another class, with the same fields, order as tuples and
encode to JSON as lists: nothing may sort raw records (order Paths by
Path.sort_key) or serialize one to JSON (write str(path), or the fields
by name), and a record is compared only with records of its own class.

Graphs are frozen values: vertex and edge sets are frozensets, the source
and target maps are read-only, and no attribute can be reassigned.  Derived
tables (the hash, out-adjacency, vertex classes and special edges) are
computed once per graph, on first use, and kept on the graph object.  All
operations here are pure.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import NamedTuple


class GraphError(ValueError):
    pass


class PreconditionError(Exception):
    """A hypothesis of the operation fails; .flag names it.  Each flag is
    raised by the one function that owns its rule."""

    def __init__(self, flag: str, detail: str = ""):
        self.flag = flag
        super().__init__(f"precondition {flag} failed" + (f": {detail}" if detail else ""))


class Path(NamedTuple):
    """A finite path: its start vertex and its composable edges, none for
    the trivial path at start."""

    start: str
    edges: tuple[str, ...] = ()

    @property
    def length(self) -> int:
        return len(self.edges)

    def target(self, g: "Graph") -> str:
        return g.tgt[self.edges[-1]] if self.edges else self.start

    def join(self, q: "Path") -> "Path":
        """This path followed by q; the caller guarantees t(self) = s(q)."""
        return Path(self.start, self.edges + q.edges)

    def sort_key(self):
        # equal nonempty edge tuples share one start
        return (len(self.edges), self.edges, self.start)

    def __str__(self):
        return ".".join(self.edges) or self.start


class derived:
    """A table derived from an immutable object: computed on first access
    and stored on that object, so later reads are plain attribute reads.

    functools.cached_property does the same under a lock that makes each
    first access about twice as slow, and most graphs and homs are read
    only a few times."""

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


def _immutable(self, *args):
    raise AttributeError(f"{type(self).__name__} is immutable")


class Graph:
    """A finite quiver with optional omega tails.

    Structure maps are read-only and attributes cannot be reassigned, so the
    derived tables below, each computed on first use, never go stale.  A
    Graph does not check its invariants; jsonio.graph_from_obj refuses
    input that breaks them.
    """

    __setattr__ = __delattr__ = _immutable

    def __init__(self, vertices, edges=(), src=None, tgt=None, omega_tails=()):
        self.__dict__.update(
            vertices=frozenset(vertices), edges=frozenset(edges),
            src=MappingProxyType(dict(src or {})),
            tgt=MappingProxyType(dict(tgt or {})),
            omega_tails=frozenset((v, w) for v, w in omega_tails))

    @staticmethod
    def build(vertices, edge_triples=(), omega_tails=()) -> "Graph":
        """Construct from (edge_id, source, target) triples."""
        src = {e: u for e, u, _ in edge_triples}
        tgt = {e: w for e, _, w in edge_triples}
        return Graph(vertices, src.keys(), src, tgt, omega_tails)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.vertices == other.vertices and self.edges == other.edges
                and self.src == other.src and self.tgt == other.tgt
                and self.omega_tails == other.omega_tails)

    def __hash__(self):
        return self._hash

    @derived
    def _hash(self):
        return hash((self.vertices, self.edges, frozenset(self.src.items()),
                     frozenset(self.tgt.items()), self.omega_tails))

    def __repr__(self):
        return (f"Graph({sorted(self.vertices)}, edges={sorted(self.edges)}, "
                f"tails={sorted(self.omega_tails)})")

    @property
    def has_tails(self) -> bool:
        return bool(self.omega_tails)

    @derived
    def out_map(self):
        """Vertex -> sorted tuple of outgoing edge ids."""
        table = {v: [] for v in self.vertices}
        for e in sorted(self.edges):
            v = self.src.get(e)
            if v in table:
                table[v].append(e)
        return MappingProxyType({v: tuple(es) for v, es in table.items()})

    @derived
    def vertex_classes(self) -> "VertexClasses":
        """See classify_vertices."""
        emits = set(self.src.values())
        receives = set(self.tgt.values())
        tail_src = {v for v, _ in self.omega_tails}
        tail_tgt = {w for _, w in self.omega_tails}
        sinks = frozenset(v for v in self.vertices
                          if v not in emits and v not in tail_src)
        sources = frozenset(v for v in self.vertices
                            if v not in receives and v not in tail_tgt)
        infinite = frozenset(v for v in self.vertices if v in tail_src)
        regular = frozenset(self.vertices - sinks - infinite)
        return VertexClasses(sinks, sources, regular, infinite)

    @derived
    def designated(self) -> frozenset:
        """The special edges: each regular vertex's least emitted edge id,
        which the Leavitt normal form eliminates."""
        out = self.out_map
        return frozenset(out[v][0] for v in self.vertex_classes.regular)


class VertexClasses(NamedTuple):
    sinks: frozenset
    sources: frozenset
    regular: frozenset
    infinite_emitters: frozenset


def require_tail_free(g: Graph, what: str = "graph"):
    """Refuse g, named what, if it has omega tails."""
    if g.has_tails:
        raise PreconditionError("tail-free", f"the {what} has omega tails")


def classify_vertices(g: Graph) -> VertexClasses:
    """Split vertices into sinks, sources, regular vertices and infinite emitters.

    A vertex is a sink iff it emits nothing (no edge and no tail), a source
    iff it receives nothing, an infinite emitter iff some tail starts at it,
    and regular iff it is neither a sink nor an infinite emitter.
    """
    return g.vertex_classes


def regular_vertices(g: Graph) -> frozenset:
    return g.vertex_classes.regular


def check_word(g: Graph, letters):
    """Raise GraphError unless the word of (edge, is_ghost) letters is
    nonempty and spells a path; see the module doc."""
    if not letters:
        raise GraphError("empty word needs an explicit vertex")
    ends = []
    for e, ghost in letters:
        if e not in g.edges:
            raise GraphError(f"unknown edge {e!r}")
        ends.append((g.tgt[e], g.src[e]) if ghost else (g.src[e], g.tgt[e]))
    for i in range(1, len(letters)):
        here, there = ends[i - 1][1], ends[i][0]
        if here != there:
            x, y = (e + "*" if ghost else e for e, ghost in letters[i - 1:i + 1])
            raise GraphError(f"word is not a path: {x} ends at {here}, "
                             f"{y} starts at {there}")


def check_path(g: Graph, p: Path):
    """Raise GraphError unless p is a path of g."""
    if p.start not in g.vertices:
        raise GraphError(f"unknown vertex {p.start!r}")
    if p.edges:
        check_word(g, [(e, False) for e in p.edges])
        if g.src[p.edges[0]] != p.start:
            raise GraphError(f"{p} starts at {g.src[p.edges[0]]}, not {p.start}")


class PathWalk(NamedTuple):
    """The paths of length <= n of a tail-free graph as ids 0, 1, ... in
    (length, edges) order: path i is path parent[i] followed by the edge
    last[i], ends at end[i] and has length length[i]; a trivial path has
    parent -1 and last None.  See path_walk."""

    parent: list
    last: list
    end: list
    length: list

    def paths(self) -> list:
        """Every path as a Path, in id order, each built from its parent."""
        paths = []
        for parent, last, end in zip(self.parent, self.last, self.end):
            if last is None:
                paths.append(Path(end))
            else:
                p = paths[parent]
                paths.append(Path(p.start, p.edges + (last,)))
        return paths


def paths_up_to(g: Graph, n: int) -> list:
    """All paths of length <= n, each once, vertices included, in (length, edges) order."""
    return path_walk(g, n).paths()


def path_walk(g: Graph, n: int) -> PathWalk:
    """The paths of g of length <= n as a PathWalk, one int id each, with
    no Path built; each length is extended only while a longer one is
    kept."""
    require_tail_free(g)
    if n < 0:
        raise GraphError("path length bound must be nonnegative")
    out, src, tgt = g.out_map, g.src, g.tgt
    end = sorted(g.vertices)
    at = {v: i for i, v in enumerate(end)}
    walk = PathWalk([-1] * len(end), [None] * len(end), end, [0] * len(end))
    # (parent id, last edge) of each path of the next length, in order
    level = [(at[src[e]], e) for e in sorted(g.edges)]
    for length in range(1, n + 1):
        if not level:
            break
        first = len(end)
        for i, e in level:
            walk.parent.append(i)
            walk.last.append(e)
            end.append(tgt[e])
        walk.length.extend([length] * len(level))
        if length < n:
            level = [(i, e) for i in range(first, len(end)) for e in out[end[i]]]
    return walk


def _check_overlap(f: Graph, g: Graph):
    bad = []
    for e in sorted(f.edges & g.edges):
        if f.src[e] != g.src[e]:
            bad.append(f"edge {e}: sources differ ({f.src[e]} vs {g.src[e]})")
        if f.tgt[e] != g.tgt[e]:
            bad.append(f"edge {e}: targets differ ({f.tgt[e]} vs {g.tgt[e]})")
    if bad:
        raise PreconditionError("compatible-overlap", "; ".join(bad))


def union_graph(f: Graph, g: Graph) -> Graph:
    """Componentwise union; shared ids are identified and must agree."""
    _check_overlap(f, g)
    src = dict(g.src)
    src.update(f.src)
    tgt = dict(g.tgt)
    tgt.update(f.tgt)
    return Graph(f.vertices | g.vertices, f.edges | g.edges, src, tgt,
                 f.omega_tails | g.omega_tails)


def intersection_graph(f: Graph, g: Graph) -> Graph:
    """Componentwise intersection; shared ids are identified and must agree."""
    _check_overlap(f, g)
    edges = f.edges & g.edges
    return Graph(f.vertices & g.vertices, edges,
                 {e: f.src[e] for e in edges}, {e: f.tgt[e] for e in edges},
                 f.omega_tails & g.omega_tails)


def is_subgraph(sub: Graph, sup: Graph) -> bool:
    """Id-wise containment with agreeing structure maps and tails."""
    if not (sub.vertices <= sup.vertices and sub.edges <= sup.edges
            and sub.omega_tails <= sup.omega_tails):
        return False
    return all(sub.src[e] == sup.src[e] and sub.tgt[e] == sup.tgt[e]
               for e in sub.edges)


def path_counts(g: Graph, n: int) -> list:
    """counts[l][i]: the paths of length l <= n ending at the i-th vertex of
    sorted(g.vertices), for a tail-free g: every caller's graph is one."""
    at = {v: i for i, v in enumerate(sorted(g.vertices))}
    arcs = [(at[g.src[e]], at[g.tgt[e]]) for e in g.edges]
    counts = [[1] * len(at)]
    for _ in range(n):
        prev, here = counts[-1], [0] * len(at)
        for s, t in arcs:
            here[t] += prev[s]
        counts.append(here)
    return counts
