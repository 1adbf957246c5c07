"""Reading and writing the plain-text signed graph format.

A graph file is UTF-8 text.  The first significant line holds the node
count n; every following significant line is an edge "u v s" with
0-based endpoints and sign token s.  The node count and the endpoints
are ASCII decimal digits only (no sign, underscore or other digit
script).  Sign tokens are +, -, +1, -1 or 1; a two-token line "u v"
means a positive edge.  Anything from '#' to the end of a line is a
comment, blank lines are skipped, and both LF and CRLF line endings
are accepted.
"""

from __future__ import annotations

import re

from .core import SignedGraph, new_signed_graph

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
    if not _DECIMAL.fullmatch(head):
        raise GraphParseError(
            f"bad node count {head!r} (need a nonnegative decimal integer)",
            ln)
    n = int(head)

    edges = []
    seen = {}
    for ln, line in lines:
        toks = line.split()
        if len(toks) == 2:
            toks.append("+")
        if len(toks) != 3:
            raise GraphParseError(
                f"expected 'u v sign' but found {len(toks)} tokens", ln)
        if not (_DECIMAL.fullmatch(toks[0]) and _DECIMAL.fullmatch(toks[1])):
            raise GraphParseError(f"bad endpoint in {line!r}", ln)
        u = int(toks[0])
        v = int(toks[1])
        sign = _SIGN_TOKENS.get(toks[2])
        if sign is None:
            raise GraphParseError(
                f"bad sign token {toks[2]!r} (use + - +1 -1 1)", ln)
        if u == v:
            raise GraphParseError(f"self-loop at node {u}", ln)
        if u >= n or v >= n:
            raise GraphParseError(f"edge index out of range: ({u}, {v})", ln)
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
