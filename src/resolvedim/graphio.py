"""Graph file formats: whitespace edge lists and a small JSON shape.

Edge list: a header line "n m" followed by m lines "u v"; anything after
'#' on a line is a comment. JSON: {"n": int, "edges": [[u, v], ...]}.
The reader auto-detects the format from the first meaningful byte.
Both formats reject an order above MAX_ORDER.
"""

from __future__ import annotations

import json

from .graphs import Graph, build_graph

# The largest order a parsed graph may have. Every solve builds the n x n
# distance matrix, which holds 4M entries at this order.
MAX_ORDER = 2000


def parse_graph(text: str) -> Graph:
    """Parse either supported graph format, detected from the content."""
    stripped = _strip_comments(text)
    for ch in stripped:
        if ch.isspace():
            continue
        if ch == "{":
            return _parse_json(stripped)
        return _parse_edge_list(stripped)
    raise ValueError("empty graph input")


def _strip_comments(text: str) -> str:
    """Drop everything after '#' on each line, keeping one line per input
    line, so line numbers still count input lines."""
    return "\n".join(line.split("#", 1)[0] for line in text.splitlines())


def _parse_edge_list(text: str) -> Graph:
    """Parse an edge list whose comments `_strip_comments` removed."""
    header = None
    edges = []
    expected = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected two fields, got {len(fields)}")
        try:
            a, b = int(fields[0]), int(fields[1])
        except ValueError:
            raise ValueError(f"line {lineno}: not an integer pair: {line!r}") from None
        if header is None:
            header = (a, b)
            if a < 0 or b < 0:
                raise ValueError(f"line {lineno}: order and edge count must be nonnegative")
            check_order(a)
            expected = b
            continue
        edges.append((a, b))
    if header is None:
        raise ValueError("empty graph input")
    if len(edges) != expected:
        raise ValueError(f"header promised {expected} edges, found {len(edges)}")
    return build_graph(header[0], edges)


def _parse_json(text: str) -> Graph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON graph: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError("JSON graph must be an object")
    if "n" not in obj or "edges" not in obj:
        raise ValueError('JSON graph needs keys "n" and "edges"')
    n = obj["n"]
    edges = obj["edges"]
    if not _is_int(n):
        raise ValueError('"n" must be an integer')
    check_order(n)
    if not isinstance(edges, list):
        raise ValueError('"edges" must be a list of pairs')
    pairs = []
    for i, e in enumerate(edges):
        if not (isinstance(e, list) and len(e) == 2 and all(map(_is_int, e))):
            raise ValueError(f"edge {i} is not an integer pair")
        pairs.append((e[0], e[1]))
    return build_graph(n, pairs)


def check_order(n: int) -> None:
    """Raise ValueError for an order above MAX_ORDER."""
    if n > MAX_ORDER:
        raise ValueError(f"order {n} exceeds the limit of {MAX_ORDER} vertices")


def _is_int(x) -> bool:
    """True for a JSON integer; JSON true/false arrive as bool, an int
    subclass, and are rejected."""
    return isinstance(x, int) and not isinstance(x, bool)


def graph_to_edge_list(g: Graph) -> str:
    """Serialize to the edge-list format, edges sorted."""
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def graph_to_json(g: Graph) -> str:
    """Serialize to the JSON format with sorted keys."""
    return json.dumps(
        {"edges": [[u, v] for u, v in g.edges()], "n": g.n}, sort_keys=True
    )
