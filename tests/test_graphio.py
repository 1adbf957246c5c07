import random
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sgcorona.generate import random_signed_graph
from sgcorona.graphio import (GraphParseError, parse_graph, parse_graph_file,
                              render_graph)


def test_parse_basic():
    g = parse_graph("3\n0 1 +\n1 2 +\n0 2 +\n")
    assert g.n == 3
    assert g.edges() == [(0, 1, 1), (0, 2, 1), (1, 2, 1)]
    g = parse_graph("2\n0 1 -\n")
    assert g.edges() == [(0, 1, -1)]


def test_parse_sign_variants_and_default_positive():
    g = parse_graph("3\n0 1 +1\n1 2 -1\n")
    assert g.edges() == [(0, 1, 1), (1, 2, -1)]
    # two-token line means a positive edge
    g = parse_graph("2\n0 1\n")
    assert g.edges() == [(0, 1, 1)]


def test_parse_comments_blanks_crlf():
    text = "# a comment\r\n\r\n3  # inline\r\n0 1 + # note\r\n\n2 1 -\r\n"
    g = parse_graph(text)
    assert g.n == 3
    assert g.edges() == [(0, 1, 1), (1, 2, -1)]


def test_parse_empty_graph():
    assert parse_graph("4\n").n == 4
    assert parse_graph("0\n").n == 0


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphParseError, match="line 2") as err:
        parse_graph("2\n0 2 +\n")
    assert "out of range" in str(err.value)
    assert err.value.line == 2

    with pytest.raises(GraphParseError, match="line 1"):
        parse_graph("")
    with pytest.raises(GraphParseError, match="line 1"):
        parse_graph("abc\n")
    with pytest.raises(GraphParseError, match="line 3"):
        parse_graph("3\n0 1 +\n0 1 -\n")  # duplicate
    with pytest.raises(GraphParseError, match="line 2"):
        parse_graph("3\n1 1 +\n")  # self-loop
    with pytest.raises(GraphParseError, match="sign token"):
        parse_graph("3\n0 1 x\n")
    with pytest.raises(GraphParseError, match="tokens"):
        parse_graph("3\n0 1 + extra\n")
    with pytest.raises(GraphParseError, match="single integer"):
        parse_graph("3 4\n0 1 +\n")
    with pytest.raises(GraphParseError, match="nonnegative"):
        parse_graph("-2\n")
    # comment-only first lines shift reported numbers accordingly
    with pytest.raises(GraphParseError, match="line 4"):
        parse_graph("# head\n\n2\n0 5 +\n")


@pytest.mark.parametrize("text, line", [
    ("1_1\n", 1), ("+0\n", 1), ("\uff13\n", 1),
    ("3\n1_1 2 +\n", 2), ("3\n0 +1 -\n", 2), ("3\n0 1 +\n\uff12 1 +\n", 3)])
def test_parse_rejects_non_ascii_decimal_integers(text, line):
    # int() accepts each of these: an underscore, a leading sign, and
    # full-width digits
    with pytest.raises(GraphParseError, match=f"line {line}") as err:
        parse_graph(text)
    assert err.value.line == line


def _no_allocation(*args, **kwargs):
    raise AssertionError("allocated a matrix")


def test_parse_bounds_sizes_before_allocating(monkeypatch):
    monkeypatch.setattr(np, "zeros", _no_allocation)
    # 100000 nodes would need an 80 GB adjacency matrix; 5000 digits are
    # past int()'s default digit limit
    for text in ("100000\n", "9" * 5000 + "\n", "0004097\n"):
        with pytest.raises(GraphParseError, match="over the limit") as err:
            parse_graph(text)
        assert err.value.line == 1
    with pytest.raises(GraphParseError, match="out of range"):
        parse_graph("2\n0 " + "9" * 5000 + "\n")
    with pytest.raises(GraphParseError, match="out of range"):
        parse_graph("2\n5000 6000\n")  # not read as a self-loop


def test_parse_accepts_bare_one_as_sign():
    assert parse_graph("2\n0 1 1\n").edges() == [(0, 1, 1)]


# generated text keeps every run of ASCII digits (hence every node
# count) below 1000, so that no example allocates a large matrix
_FUZZ_CHARS = st.one_of(st.sampled_from("0123+-_ #\r\n\t1\uff13x"),
                        st.characters())


@settings(max_examples=200, deadline=None)
@given(st.text(_FUZZ_CHARS, max_size=40))
def test_parse_raises_only_graph_parse_error(text):
    assume(not re.search(r"[0-9]{4}", text))
    try:
        parse_graph(text)
    except GraphParseError:
        pass


def test_round_trip():
    rng = random.Random(41)
    for _ in range(60):
        g = random_signed_graph(rng, rng.randint(0, 7))
        h = parse_graph(render_graph(g))
        assert h.n == g.n and h.edges() == g.edges()


def test_parse_graph_file(tmp_path):
    path = tmp_path / "g.sg"
    path.write_text("2\n0 1 -\n", encoding="utf-8")
    assert parse_graph_file(path).edges() == [(0, 1, -1)]
