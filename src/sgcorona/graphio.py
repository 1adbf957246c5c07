"""Reading and writing the plain-text signed graph format.

A graph file is UTF-8 text.  The first significant line holds the node
count n; every following significant line is an edge "u v s" with
0-based endpoints and sign token s.  The node count and the endpoints
are ASCII decimal digits only (no sign, underscore or other digit
script), and the node count is at most core.MAX_NODES.  Sign tokens
are +, -, +1, -1 or 1; a two-token line "u v" means a positive edge.
Anything from '#' to the end of a line is a comment, blank lines are
skipped, and both LF and CRLF line endings are accepted.
"""

from __future__ import annotations

import re

from .core import MAX_NODES, SignedGraph, new_signed_graph

__all__ = ["GraphParseError", "parse_graph", "parse_graph_file",
           "render_graph"]

_SIGN_TOKENS = {"+": 1, "+1": 1, "1": 1, "-": -1, "-1": -1}
_DECIMAL = re.compile(r"[0-9]+")


class GraphParseError(ValueError):
    """Raised on malformed graph text; the message names the 1-based
    line where parsing failed."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message}, line {line}")
        self.line = line


def _significant_lines(text: str):
    for ln, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield ln, line


def _decimal(tok: str):
    """Value of an ASCII decimal token, or None.  Only the leading digits
    past any zeros are read, which still puts a longer token over
    MAX_NODES, so that no huge integer is converted."""
    if _DECIMAL.fullmatch(tok):
        return int(tok.lstrip("0")[:len(str(MAX_NODES)) + 1] or "0")
    return None


def parse_graph(text: str) -> SignedGraph:
    """Parse signed graph text into a SignedGraph."""
    lines = _significant_lines(text)
    try:
        ln, head = next(lines)
    except StopIteration:
        raise GraphParseError("missing node count", 1) from None
    if len(head.split()) != 1:
        raise GraphParseError("node count line must hold a single integer",
                              ln)
    n = _decimal(head)
    if n is None:
        raise GraphParseError(
            f"bad node count {head!r} (need a nonnegative decimal integer)",
            ln)
    if n > MAX_NODES:
        raise GraphParseError(
            f"node count {head} is over the limit of {MAX_NODES}", ln)

    edges = []
    seen = {}
    for ln, line in lines:
        toks = line.split()
        if len(toks) == 2:
            toks.append("+")
        if len(toks) != 3:
            raise GraphParseError(
                f"expected 'u v sign' but found {len(toks)} tokens", ln)
        u, v = _decimal(toks[0]), _decimal(toks[1])
        if u is None or v is None:
            raise GraphParseError(f"bad endpoint in {line!r}", ln)
        sign = _SIGN_TOKENS.get(toks[2])
        if sign is None:
            raise GraphParseError(
                f"bad sign token {toks[2]!r} (use + - +1 -1 1)", ln)
        if u >= n or v >= n:
            raise GraphParseError(
                f"edge index out of range: ({toks[0]}, {toks[1]})", ln)
        if u == v:
            raise GraphParseError(f"self-loop at node {u}", ln)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphParseError(f"duplicate edge ({u}, {v})", ln)
        seen[key] = sign
        edges.append((u, v, sign))
    return new_signed_graph(n, edges)


def parse_graph_file(path) -> SignedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def render_graph(g: SignedGraph) -> str:
    """Text form of a graph; parse_graph over the result round-trips."""
    out = [str(g.n)]
    for u, v, s in g.edges():
        out.append(f"{u} {v} {'+' if s > 0 else '-'}")
    return "\n".join(out) + "\n"
