import contextlib
import io
import itertools
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sgcorona.cli import run
from sgcorona.generate import random_signed_graph
from sgcorona.graphio import render_graph

DATA = Path(__file__).resolve().parents[1] / "data"

C3 = "3\n0 1 +\n1 2 +\n0 2 +\n"
P2 = "2\n0 1 +\n"
P2NEG = "2\n0 1 -\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (("c3", C3), ("p2", P2), ("p2neg", P2NEG)):
        p = tmp_path / f"{name}.sg"
        p.write_text(text, encoding="utf-8")
        paths[name] = str(p)
    return paths


def _doc(capsys):
    return json.loads(capsys.readouterr().out)


def test_corona_command(files, capsys, tmp_path):
    out = tmp_path / "cor.sg"
    assert run(["corona", files["c3"], files["p2"], "-o", str(out)]) == 0
    doc = _doc(capsys)
    assert doc["nodes"] == 9
    assert doc["edges"] == {"total": 18, "positive": 18, "negative": 0}
    assert doc["layout"]["total"] == 9
    assert out.read_text().startswith("9\n")
    assert len(doc["inputs"]) == 2
    assert all(len(i["sha256"]) == 64 for i in doc["inputs"])


def test_spectrum_command_all_methods(files, capsys):
    s3, s33 = math.sqrt(3), math.sqrt(33)
    want = [(-s3, 2), ((3 - s33) / 2, 1), (-1.0, 3), (s3, 2),
            ((3 + s33) / 2, 1)]
    for method in ("numeric", "theorem", "proposition"):
        assert run(["spectrum", "--matrix", "a", "--method", method,
                    files["c3"], files["p2"]]) == 0
        doc = _doc(capsys)
        assert doc["order"] == 9
        assert doc["discrepancies"] == []
        assert doc["cross_check"]["ran"] is True
        got = [(row["value"], row["multiplicity"])
               for row in doc["spectrum"]]
        assert len(got) == len(want)
        for (gv, gm), (wv, wm) in zip(got, want):
            assert gm == wm and abs(gv - wv) < 1e-8


def test_spectrum_out_of_family_is_usage_error(files, capsys, tmp_path):
    # a 4-node path as copy factor is neither a star nor net-regular
    path = tmp_path / "path4.sg"
    path.write_text("4\n0 1 +\n1 2 +\n2 3 +\n", encoding="utf-8")
    code = run(["spectrum", "--matrix", "a", "--method", "proposition",
                files["p2"], str(path)])
    assert code == 2


def test_spectrum_skipped_cross_check(files, capsys, tmp_path):
    # Q on a non-regular base: numeric runs, the theorem cross-check
    # cannot, and the document says so instead of a traceback
    path = tmp_path / "path4.sg"
    path.write_text("4\n0 1 +\n1 2 +\n2 3 -\n", encoding="utf-8")
    assert run(["spectrum", "--matrix", "q", "--method", "numeric",
                str(path), files["p2"]]) == 0
    doc = _doc(capsys)
    assert doc["order"] == 12
    assert doc["discrepancies"] == []
    cross = doc["cross_check"]
    assert cross["method"] == "theorem" and cross["ran"] is False
    assert "regular" in cross["reason"]


@pytest.mark.parametrize("method", ["numeric", "theorem", "proposition"])
def test_spectrum_zero_node_factor(files, capsys, tmp_path, method):
    empty = tmp_path / "empty.sg"
    empty.write_text("0\n", encoding="utf-8")
    for pair in ((str(empty), files["p2"]), (files["p2"], str(empty))):
        assert run(["spectrum", "--matrix", "a", "--method", method,
                    *pair]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "at least one node" in captured.err


@pytest.mark.parametrize("argv", [["--max-n", "0"], ["--trials", "-1"],
                                  ["--trials", "0"], ["--max-n", "x"]])
def test_verify_rejects_bad_counts(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(["verify", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err


def test_balance_command(files, capsys):
    assert run(["balance", files["p2"], files["p2neg"]]) == 0
    doc = _doc(capsys)
    assert doc["corona"] == "unbalanced"
    assert doc["agree"] is True
    assert doc["factors"] == {"first": True, "second": True}


def test_stats_command(files, capsys):
    assert run(["stats", "--triads", files["c3"], files["p2"]]) == 0
    doc = _doc(capsys)
    assert doc["edge_census"]["agree"] is True
    assert doc["edge_census"]["formula"]["total"] == 18
    assert doc["triad_census"]["agree"] is True
    assert doc["triad_census"]["total_formula"] == 13


# pinned stats --triads output per factor pair (a data/ pair, or the
# seed of a random 12 x 12 pair): corona nodes, (positive, negative)
# edges, (t0, t1, t2, t3)
STATS_PINNED = {
    ("c3", "c3"): (12, (30, 0), (31, 0, 0, 0)),
    ("c3", "p2"): (9, (18, 0), (13, 0, 0, 0)),
    ("c3", "p2neg"): (9, (3, 15), (1, 0, 6, 6)),
    ("p2", "c3"): (8, (13, 0), (8, 0, 0, 0)),
    ("p2", "p2"): (6, (7, 0), (2, 0, 0, 0)),
    ("p2", "p2neg"): (6, (1, 6), (0, 0, 0, 2)),
    ("p2neg", "c3"): (8, (12, 1), (8, 0, 0, 0)),
    ("p2neg", "p2"): (6, (6, 1), (2, 0, 0, 0)),
    ("p2neg", "p2neg"): (6, (0, 7), (0, 0, 0, 2)),
    1: (156, (548, 532), (360, 1120, 1218, 326)),
    2: (156, (563, 457), (428, 1070, 791, 268)),
}


@pytest.mark.parametrize("case", list(STATS_PINNED), ids=str)
def test_stats_output_is_pinned(case, capsys, tmp_path):
    if isinstance(case, int):
        # a seeded pair of random 12-node factors
        rng = random.Random(case)
        paths = []
        for name in ("first", "second"):
            path = tmp_path / f"{name}.sg"
            path.write_text(render_graph(random_signed_graph(rng, 12)),
                            encoding="utf-8")
            paths.append(str(path))
    else:
        paths = [str(DATA / f"{name}.sg") for name in case]
    assert run(["stats", "--triads", *paths]) == 0
    doc = _doc(capsys)
    del doc["inputs"]
    nodes, (pos, neg), t = STATS_PINNED[case]
    edges = {"total": pos + neg, "positive": pos, "negative": neg}
    triads = dict(zip(("t0", "t1", "t2", "t3"), t), total=sum(t))
    assert doc == {
        "command": "stats",
        "corona_nodes": nodes,
        "edge_census": {"formula": edges, "direct": edges, "agree": True},
        "triad_census": {"formula": triads, "direct": triads,
                         "total_formula": sum(t), "agree": True},
    }


def test_coronal_command(files, capsys):
    assert run(["coronal", "--matrix", "a", files["c3"]]) == 0
    doc = _doc(capsys)
    assert doc["numerator"] == [3]
    assert doc["denominator"] == [-2, 1]
    assert doc["closed_form"] == "net_regular"
    assert doc["closed_form_agrees"] is True


def test_cospectral_command(files, capsys, tmp_path):
    # negating the single edge is a switching, so these agree
    assert run(["cospectral", "--matrix", "a",
                files["p2"], files["p2neg"]]) == 0
    assert _doc(capsys)["cospectral"] is True
    # one negative edge on a triangle is not switching-removable
    c3neg = tmp_path / "c3neg.sg"
    c3neg.write_text("3\n0 1 -\n1 2 +\n0 2 +\n", encoding="utf-8")
    assert run(["cospectral", "--matrix", "a",
                files["c3"], str(c3neg)]) == 0
    assert _doc(capsys)["cospectral"] is False


def test_cospectral_diagonalises_each_matrix_once(files, capsys,
                                                  monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    assert run(["cospectral", "--matrix", "a",
                files["c3"], files["c3"]]) == 0
    assert _doc(capsys)["cospectral"] is True
    assert len(calls) == 2


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "abc"])
def test_cospectral_rejects_unusable_tolerance(files, capsys, tol):
    with pytest.raises(SystemExit) as exc:
        run(["cospectral", "--matrix", "a", "--tol", tol,
             files["p2"], files["p2"]])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--tol" in captured.err


def test_size_bounds_are_usage_errors(files, capsys, tmp_path):
    # a 100000-node header fails on line 1, before any allocation
    huge = tmp_path / "huge.sg"
    huge.write_text("100000\n", encoding="utf-8")
    assert run(["stats", str(huge), files["p2"]]) == 2
    assert "line 1" in capsys.readouterr().err
    # two 100-node factors pass the parser but their corona has 10,100
    # nodes; the closed form never builds it, so only the numeric
    # cross-check is skipped
    edgeless = tmp_path / "edgeless.sg"
    edgeless.write_text("100\n", encoding="utf-8")
    assert run(["corona", str(edgeless), str(edgeless)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "10100 nodes" in captured.err
    assert run(["spectrum", "--matrix", "a", "--method", "proposition",
                str(edgeless), str(edgeless)]) == 0
    doc = _doc(capsys)
    assert doc["order"] == 10100
    assert doc["spectrum"] == [{"value": 0.0, "multiplicity": 10100}]
    assert doc["cross_check"]["ran"] is False
    assert "10100 nodes" in doc["cross_check"]["reason"]


def test_parse_error_exit_code(files, capsys, tmp_path):
    bad = tmp_path / "bad.sg"
    bad.write_text("2\n0 2 +\n", encoding="utf-8")
    assert run(["stats", str(bad), files["p2"]]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_missing_file_exit_code(files, capsys, tmp_path):
    assert run(["balance", str(tmp_path / "nope.sg"), files["p2"]]) == 2


@pytest.mark.parametrize("command, bad", [
    ("corona", "empty"), ("balance", "empty"), ("stats", "empty"),
    ("stats", "latin1"), ("balance", "directory")])
def test_unusable_factor_file_is_usage_error(files, capsys, tmp_path,
                                             command, bad):
    # a 0-node factor (no corona), text that is not UTF-8, a directory;
    # an unreadable file takes the same path but cannot be made so for
    # a root user
    empty = tmp_path / "empty.sg"
    empty.write_text("0\n", encoding="utf-8")
    latin1 = tmp_path / "latin1.sg"
    latin1.write_bytes("2\n0 1 + # caf\u00e9\n".encode("latin-1"))
    path = {"empty": empty, "latin1": latin1, "directory": tmp_path}[bad]
    assert run([command, str(path), files["p2"]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("sgcorona: ")
    assert "Traceback" not in captured.err


def test_verify_command_small(files, capsys):
    code = run(["verify", "--trials", "20", "--seed", "3", "--max-n", "4"])
    doc = _doc(capsys)
    assert code == 0
    assert doc["ok"] is True
    names = [c["name"] for c in doc["checks"]]
    assert "theorem_identities" in names and "eigensolver" in names


def test_verbose_tables_go_to_stderr(files, capsys):
    assert run(["--verbose", "spectrum", "--matrix", "q",
                files["c3"], files["p2"]]) == 0
    captured = capsys.readouterr()
    json.loads(captured.out)  # stdout stays pure JSON
    assert "Q-spectrum" in captured.err


@st.composite
def _graph_files(draw):
    """Bytes of a small graph file: mostly well formed with 1-4 nodes,
    otherwise with 0 nodes, a line that fails to parse, or not UTF-8."""
    flaw = draw(st.sampled_from([None] * 7 + ["empty", "line", "utf8"]))
    n = 0 if flaw == "empty" else draw(st.integers(1, 4))
    pairs = list(itertools.combinations(range(n), 2))
    lines = [str(n)]
    for u, v in draw(st.lists(st.sampled_from(pairs), unique=True)
                     if pairs else st.just([])):
        sign = draw(st.sampled_from(["+", "-", "+1", "-1", "1", ""]))
        lines.append(f"{u} {v} {sign}")
    if flaw == "line":
        lines.insert(draw(st.integers(1, len(lines))),
                     draw(st.sampled_from(["0 0 +", "9 1 -", "0 1 x",
                                           "1_1 0"])))
    data = ("\n".join(lines) + "\n").encode("utf-8")
    return data + b"\xff" if flaw == "utf8" else data


_FUZZ_COMMANDS = [["corona"], ["balance"], ["stats", "--triads"]] + [
    ["spectrum", "--matrix", m, "--method", method]
    for m in "aql" for method in ("numeric", "theorem", "proposition")] + [
    ["coronal", "--matrix", m] for m in "aql"] + [
    ["cospectral", "--matrix", m] for m in "aql"]

# cospectral --tol values: usable ones, and ones argparse must reject
_FUZZ_TOLS = ["1e-8", "0", "0.5", "1e300", "nan", "inf", "-inf", "-1e-9",
              "abc"]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=230, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(first=_graph_files(), second=_graph_files(),
       command=st.sampled_from(_FUZZ_COMMANDS),
       tol=st.sampled_from(_FUZZ_TOLS))
def test_commands_keep_the_exit_contract(tmp_path, first, second, command,
                                         tol):
    paths = []
    for name, data in (("first.sg", first), ("second.sg", second)):
        path = tmp_path / name
        path.write_bytes(data)
        paths.append(str(path))
    if command[0] == "cospectral":
        command = command + ["--tol", tol]
    argv = command + (paths[:1] if command[0] == "coronal" else paths)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, prefix = run(argv), "sgcorona"
        except SystemExit as exc:  # argparse rejected the --tol value
            assert command[0] == "cospectral"
            code, prefix = exc.code, "usage: sgcorona"
    assert code in (0, 2), (argv, err.getvalue())
    if code == 0:
        # exactly one strict JSON document: NaN and Infinity are not JSON
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        assert out.getvalue() == "" and err.getvalue().startswith(prefix)
