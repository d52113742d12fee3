"""JSON interchange for graphs, homomorphisms and pushout results.

One format, canonical key order, arrays sorted by id, so serializing a
parsed file is idempotent and certificates diff cleanly.
"""

from __future__ import annotations

import hashlib
import json
import os

from .graph import Graph
from .morphism import GraphHom
from .pushout import PushoutGraph


class FormatError(ValueError):
    """A malformed input; the message names the file it is in, when known."""

    def __init__(self, message, path=None):
        super().__init__(f"{path}: {message}" if path else message)


def _not_a_string(what, value, path) -> FormatError:
    return FormatError(f"{what} must be a string, got {value!r}", path)


def graph_to_obj(g: Graph) -> dict:
    return {
        "vertices": sorted(g.vertices),
        "edges": [{"id": e, "src": g.src[e], "tgt": g.tgt[e]} for e in sorted(g.edges)],
        "omega_tails": [list(t) for t in sorted(g.omega_tails)],
    }


def graph_from_obj(obj, path=None) -> Graph:
    """The graph that obj describes.  A malformed object and a repeated
    vertex id, edge id or omega tail are refused at once; then every empty
    id and every edge or tail end that is not a vertex is listed in one
    error, so each Graph read from a file is valid."""
    if not isinstance(obj, dict):
        raise FormatError("graph must be a JSON object", path)
    if unknown := set(obj) - {"vertices", "edges", "omega_tails"}:
        raise FormatError(f"unknown graph key {min(unknown)!r}", path)
    vertices = obj.get("vertices", [])
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise FormatError("'vertices' must be a list of strings", path)
    known = set(vertices)
    if len(known) != len(vertices):
        seen = set()
        first = next(v for v in vertices if v in seen or seen.add(v))
        raise FormatError(f"duplicate vertex id {first!r}", path)
    src, tgt = {}, {}
    edges = obj.get("edges", [])
    if not isinstance(edges, list):
        raise FormatError("'edges' must be a list", path)
    for item in edges:
        if not isinstance(item, dict) or not {"id", "src", "tgt"} <= set(item):
            raise FormatError("each edge needs 'id', 'src' and 'tgt'", path)
        if unknown := set(item) - {"id", "src", "tgt"}:
            raise FormatError(f"unknown edge key {min(unknown)!r}", path)
        e, u, w = item["id"], item["src"], item["tgt"]
        for key, x in (("id", e), ("src", u), ("tgt", w)):
            if not isinstance(x, str):
                raise _not_a_string(f"edge {key!r}", x, path)
        if e in src:
            raise FormatError(f"duplicate edge id {e!r}", path)
        src[e] = u
        tgt[e] = w
    tails = set()
    omega_tails = obj.get("omega_tails", [])
    if not isinstance(omega_tails, list):
        raise FormatError("'omega_tails' must be a list", path)
    for t in omega_tails:
        if not (isinstance(t, list) and len(t) == 2):
            raise FormatError("each omega tail must be a pair [v, w]", path)
        for x in t:
            if not isinstance(x, str):
                raise _not_a_string("omega tail endpoint", x, path)
        v, w = t
        if (v, w) in tails:
            raise FormatError(f"duplicate omega tail ({v},{w})", path)
        tails.add((v, w))
    problems = [f"{kind} id '' is not a nonempty string"
                for kind, ids in (("vertex", known), ("edge", src)) if "" in ids]
    for e in sorted(src):
        problems += [f"edge {e}: dangling {end} {x}"
                     for end, x in (("source", src[e]), ("target", tgt[e])) if x not in known]
    for v, w in sorted(tails):
        problems += [f"omega tail ({v},{w}): dangling {end} {x}"
                     for end, x in (("source", v), ("target", w)) if x not in known]
    if problems:
        raise FormatError("; ".join(problems), path)
    return Graph(vertices, src.keys(), src, tgt, tails)


def hom_to_obj(h: GraphHom) -> dict:
    return {
        "domain": graph_to_obj(h.domain),
        "codomain": graph_to_obj(h.codomain),
        "f0": {v: h.f0[v] for v in sorted(h.f0)},
        "f1": {e: h.f1[e] for e in sorted(h.f1)},
    }


def hom_from_obj(obj, path=None, base_dir=None, inputs=None) -> GraphHom:
    """A hom whose domain and codomain are graph objects or paths to graph
    files, relative to base_dir; see load_json for inputs.  An error in a
    graph object names its side, and one in a graph file names that file."""
    if not isinstance(obj, dict):
        raise FormatError("homomorphism must be a JSON object", path)
    for key in ("domain", "codomain", "f0", "f1"):
        if key not in obj:
            raise FormatError(f"missing {key!r}", path)
    if unknown := set(obj) - {"domain", "codomain", "f0", "f1"}:
        raise FormatError(f"unknown homomorphism key {min(unknown)!r}", path)

    def resolve(side):
        value = obj[side]
        if isinstance(value, str):
            return load_graph(os.path.join(base_dir or "", value), inputs)
        try:
            return graph_from_obj(value)
        except FormatError as exc:
            raise FormatError(f"{side} graph invalid: {exc}", path) from None

    f0, f1 = obj["f0"], obj["f1"]
    if not isinstance(f0, dict) or not isinstance(f1, dict):
        raise FormatError("'f0' and 'f1' must be objects", path)
    for key, mapping in (("f0", f0), ("f1", f1)):
        for k, v in mapping.items():
            if not isinstance(k, str):
                raise _not_a_string(f"{key!r} key", k, path)
            if not isinstance(v, str):
                raise _not_a_string(f"{key!r} value for {k!r}", v, path)
    return GraphHom(resolve("domain"), resolve("codomain"), f0, f1)


def pushout_to_obj(po: PushoutGraph) -> dict:
    def classes_obj(ids, left, right):
        # a class is an id of po.graph; its members are its fibers under
        # the two injections, E's then F's, each in sorted-id order
        return [{"class": c, "members": [["E", x] for x in left.get(c, ())]
                 + [["F", y] for y in right.get(c, ())]} for c in sorted(ids)]
    return {
        "graph": graph_to_obj(po.graph),
        "vertex_classes": classes_obj(po.graph.vertices, po.iota_left.vertex_fibers,
                                      po.iota_right.vertex_fibers),
        "edge_classes": classes_obj(po.graph.edges, po.iota_left.edge_fibers,
                                    po.iota_right.edge_fibers),
        "iota_E": {"f0": dict(sorted(po.iota_left.f0.items())),
                   "f1": dict(sorted(po.iota_left.f1.items()))},
        "iota_F": {"f0": dict(sorted(po.iota_right.f0.items())),
                   "f1": dict(sorted(po.iota_right.f1.items()))},
    }


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _unique_keys(path):
    """An object_pairs_hook that refuses an object naming one key twice,
    which json.loads would otherwise collapse to the last value."""
    def hook(pairs):
        obj = dict(pairs)
        if len(obj) != len(pairs):
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    raise FormatError(f"duplicate key {key!r}", path)
                seen.add(key)
        return obj
    return hook


def load_json(path, inputs=None):
    """Parse a JSON file; an object that repeats a key is refused.  When
    inputs is a list, append the certificate record {"path", "sha256"} of
    the bytes that were parsed."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise FormatError(exc.strerror, path)
    if inputs is not None:
        inputs.append({"path": path, "sha256": hashlib.sha256(data).hexdigest()})
    try:
        return json.loads(data.decode("utf-8"), object_pairs_hook=_unique_keys(path))
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8: {exc.reason} at byte {exc.start}", path)
    except json.JSONDecodeError as exc:
        raise FormatError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}", path)
    except RecursionError:
        raise FormatError("arrays or objects nested too deeply", path) from None


def load_graph(path, inputs=None) -> Graph:
    return graph_from_obj(load_json(path, inputs), path)


def load_hom(path, inputs=None) -> GraphHom:
    """The hom in a file; inputs (see load_json) also receives a record for
    each graph file its domain or codomain references."""
    return hom_from_obj(load_json(path, inputs), path, os.path.dirname(path), inputs)


def save_json(path, obj):
    """Write obj canonically; a path that cannot be written is a FormatError."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(canonical_dumps(obj))
    except OSError as exc:
        raise FormatError(exc.strerror, path)
