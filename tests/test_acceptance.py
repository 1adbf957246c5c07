"""Acceptance checks.

Ten self-standing criteria covering the worked example, the exact
polynomial assemblies, the block construction, censuses, balance,
closed-form resolvents, spectral invariance, and the eigensolver.
Each test prints one PASS/FAIL line on the real stdout so a plain
`pytest -v` run shows the verdicts inline.
"""

import random
import sys
import time

import numpy as np
import pytest

from sgcorona.core import matrix, new_signed_graph
from sgcorona.corona import corona_block_matrix, neighbourhood_corona
from sgcorona.coronal import char_poly
from sgcorona.generate import random_regular_circulant, random_signed_graph
from sgcorona.spectra import (charpoly_A_corona, charpoly_L_corona,
                              charpoly_Q_corona, corona_spectrum)
from sgcorona.verify import (EXAMPLE_ROUNDED, check_balance,
                             check_coronal_forms,
                             check_cospectral_invariance, check_edge_census,
                             check_eigensolver,
                             check_triad_census, expected_example_spectra)

SEED = 20260814


@pytest.fixture
def verdict(request):
    """Emit one PASS/FAIL line per criterion on pytest's live output."""
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def emit(num: int, ok: bool, detail: str):
        line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {detail}"
        if reporter is not None:
            reporter.ensure_newline()
            reporter.write_line(line)
        else:
            print(line, file=sys.stderr)
        assert ok, line

    return emit


def _example_pair():
    g1 = new_signed_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    g2 = new_signed_graph(2, [(0, 1, 1)])
    return g1, g2


def _run_example(emit, num: int, kind: str, label: str):
    g1, g2 = _example_pair()
    exact = expected_example_spectra()[kind]
    rounded = EXAMPLE_ROUNDED[kind]
    ok = True
    worst = 0.0
    for method in ("numeric", "theorem", "proposition"):
        t0 = time.perf_counter()
        got = corona_spectrum(g1, g2, kind, method)
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        if not got.isclose(exact, 1e-8):
            ok = False
        vals = got.values
        if len(vals) != len(rounded) or any(
                abs(a - b) > 5e-4 for a, b in zip(vals, rounded)):
            ok = False
        if dt >= 1.0:
            ok = False
    emit(num, ok,
         f"{label} spectrum of the example corona matches the "
         f"closed values by all three methods "
         f"(slowest {worst * 1000:.0f} ms)")


def test_criterion_01_example_adjacency_spectrum(verdict):
    _run_example(verdict, 1, "A", "adjacency")


def test_criterion_02_example_signless_laplacian_spectrum(verdict):
    _run_example(verdict, 2, "Q", "signless Laplacian")


def test_criterion_03_example_laplacian_spectrum(verdict):
    _run_example(verdict, 3, "L", "Laplacian")


# criteria 4 and 5 run over the same instance set
def _instances(trials=200, max_n=5):
    rng = random.Random(SEED)
    out = []
    for _ in range(trials):
        g1 = random_signed_graph(rng, rng.randint(1, max_n))
        g1r = random_regular_circulant(rng, rng.randint(1, max_n))
        g2 = random_signed_graph(rng, rng.randint(1, max_n))
        out.append((g1, g1r, g2))
    return out


_INSTANCES = _instances()


def test_criterion_04_exact_charpoly_assemblies(verdict):
    t0 = time.perf_counter()
    bad = 0
    for g1, g1r, g2 in _INSTANCES:
        cor, _ = neighbourhood_corona(g1, g2)
        if charpoly_A_corona(g1, g2) != char_poly(matrix(cor, "A")):
            bad += 1
        corr, _ = neighbourhood_corona(g1r, g2)
        if charpoly_Q_corona(g1r, g2) != char_poly(matrix(corr, "Q")):
            bad += 1
        if charpoly_L_corona(g1r, g2) != char_poly(matrix(corr, "L")):
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 60.0
    verdict(4, ok,
             f"A/Q/L characteristic polynomial assemblies exactly equal "
             f"the built corona on {len(_INSTANCES)} instances, "
             f"{bad} mismatches, {elapsed:.1f}s")


def test_criterion_05_block_matrix_identity(verdict):
    bad = 0
    for g1, g1r, g2 in _INSTANCES:
        for base in (g1, g1r):
            cor, _ = neighbourhood_corona(base, g2)
            for kind in ("A", "L", "Q"):
                if not np.array_equal(matrix(cor, kind),
                                      corona_block_matrix(base, g2, kind)):
                    bad += 1
    ok = bad == 0
    verdict(5, ok,
             f"block-matrix construction equals the built corona "
             f"entrywise for A, L, Q on {2 * len(_INSTANCES)} instances, "
             f"{bad} mismatches")


def test_criterion_06_census_formulas(verdict):
    rng = random.Random(SEED + 6)
    edges = check_edge_census(rng, trials=500, max_n=6)
    triads = check_triad_census(rng, trials=500, max_n=6)
    ok = edges.ok and triads.ok and edges.failures == 0
    verdict(6, ok,
             f"edge census exact on {edges.instances} instances; "
             f"triad census exact with {triads.failures} mismatches on "
             f"{triads.instances} instances")


def test_criterion_07_balance_criterion(verdict):
    rng = random.Random(SEED + 7)
    res = check_balance(rng, trials=500, max_n=5)
    verdict(7, res.ok,
             f"balance criterion matched the switching certificate on "
             f"{res.instances} instances, {res.failures} failures")


def test_criterion_08_coronal_closed_forms(verdict):
    rng = random.Random(SEED + 8)
    res = check_coronal_forms(rng, trials=50)
    verdict(8, res.ok,
             f"all six closed-form resolvent families equal the generic "
             f"computation exactly on {res.instances} instances "
             f"({res.failures} failures)")


def test_criterion_09_cospectral_invariance(verdict):
    rng = random.Random(SEED + 9)
    res = check_cospectral_invariance(rng, trials=50, max_n=4)
    verdict(9, res.ok,
             f"switching the base / permuting the copy factor left "
             f"corona spectra unchanged in {res.instances} comparisons "
             f"({res.failures} failures, tolerance 1e-8)")


def test_criterion_10_eigensolver_self_test(verdict):
    rng = random.Random(SEED + 10)
    res = check_eigensolver(rng, trials=100, max_n=30)
    verdict(10, res.ok,
             f"eigenvalue sums matched traces (1e-9) and squared sums "
             f"matched Frobenius norms (1e-8) on {res.instances} random "
             f"symmetric integer matrices up to order 30")
