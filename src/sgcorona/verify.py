"""Self-verification harness.

Every closed-form result in the package is checked here against an
independent route: formulas against enumeration, exact polynomial
assemblies against characteristic polynomials of explicitly built
matrices, closed-form spectra against root isolation, and the
eigensolver against trace invariants.  All randomness flows from one
seed so a failing run can be replayed.
"""

from __future__ import annotations

import dataclasses
import math
import random
import time
from dataclasses import dataclass, field

import numpy as np

from .census import (corona_balance_criterion, edge_census_direct,
                     edge_census_formula, total_triads_formula,
                     triad_census_direct, triad_census_formula)
from .core import (SignedGraph, canonical_marking, is_balanced, matrix,
                   new_signed_graph, relabel)
from .corona import corona_block_matrix, neighbourhood_corona
from .coronal import char_poly, closed_form_coronal, coronal_generic
from .generate import (random_balanced_graph, random_offset_circulant,
                       random_permutation, random_regular_circulant,
                       random_signed_graph, random_star, random_switching)
from .spectra import (Spectrum, charpoly_A_corona, charpoly_L_corona,
                      charpoly_Q_corona, check_cospectral, corona_spectrum)

__all__ = [
    "VerifyConfig",
    "CheckResult",
    "VerifyReport",
    "check_worked_example",
    "check_theorem_identities",
    "check_block_identity",
    "check_edge_census",
    "check_triad_census",
    "check_balance",
    "check_coronal_forms",
    "check_cospectral_invariance",
    "check_eigensolver",
    "run_all",
]


@dataclass(frozen=True)
class VerifyConfig:
    trials: int = 200
    seed: int = 20260814
    max_n: int = 5


@dataclass
class CheckResult:
    name: str
    instances: int = 0
    failures: int = 0
    elapsed: float = 0.0
    notes: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def fail(self, note: str):
        self.failures += 1
        if len(self.notes) < 20:
            self.notes.append(note)


@dataclass
class VerifyReport:
    config: VerifyConfig
    results: list

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def as_dict(self):
        return {
            "config": dataclasses.asdict(self.config),
            "ok": self.ok,
            "checks": [
                {
                    "name": r.name,
                    "ok": r.ok,
                    "instances": r.instances,
                    "failures": r.failures,
                    "elapsed_s": round(r.elapsed, 3),
                    "notes": list(r.notes),
                }
                for r in self.results
            ],
        }


def _describe(g: SignedGraph) -> str:
    return f"n={g.n} edges={list(g.edges())}"


def _pair(g1: SignedGraph, g2: SignedGraph) -> str:
    return f"g1[{_describe(g1)}] g2[{_describe(g2)}]"


# ---------------------------------------------------------------------------
# worked example

def _example_pair():
    c3 = new_signed_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    p2 = new_signed_graph(2, [(0, 1, 1)])
    return c3, p2


def expected_example_spectra():
    """Exact corona spectra for the all-positive triangle with a
    single positive edge attached: closed-form surds."""
    s3 = math.sqrt(3.0)
    s33 = math.sqrt(33.0)
    s48 = math.sqrt(48.0)
    return {
        "A": Spectrum([(-s3, 2), ((3 - s33) / 2, 1), (-1.0, 3),
                       (s3, 2), ((3 + s33) / 2, 1)]),
        "Q": Spectrum([(2.0, 3), ((12 - s48) / 2, 1), (3.0, 2),
                       (6.0, 2), ((12 + s48) / 2, 1)]),
        "L": Spectrum([(0.0, 1), ((9 - s33) / 2, 2), (4.0, 3),
                       (6.0, 1), ((9 + s33) / 2, 2)]),
    }


# four-decimal reference values for the same spectra
EXAMPLE_ROUNDED = {
    "A": (-1.7321, -1.7321, -1.3723, -1.0, -1.0, -1.0,
          1.7321, 1.7321, 4.3723),
    "Q": (2.0, 2.0, 2.0, 2.5359, 3.0, 3.0, 6.0, 6.0, 9.4641),
    "L": (0.0, 1.6277, 1.6277, 4.0, 4.0, 4.0, 6.0, 7.3723, 7.3723),
}


def check_worked_example(time_budget: float = 1.0) -> CheckResult:
    """All three spectra of the example corona, by all three methods,
    against the exact surd values (1e-8) and the rounded reference
    values (5e-4); each method call must stay inside the time budget."""
    res = CheckResult("worked_example")
    t_all = time.perf_counter()
    g1, g2 = _example_pair()
    exact = expected_example_spectra()
    for kind in ("A", "Q", "L"):
        for method in ("numeric", "theorem", "closed_form"):
            res.instances += 1
            t0 = time.perf_counter()
            got = corona_spectrum(g1, g2, kind, method)
            dt = time.perf_counter() - t0
            if not got.isclose(exact[kind], 1e-8):
                res.fail(f"{kind}/{method}: {got} != exact")
                continue
            vals = got.values
            ref = EXAMPLE_ROUNDED[kind]
            if len(vals) != len(ref) or any(
                    abs(a - b) > 5e-4 for a, b in zip(vals, ref)):
                res.fail(f"{kind}/{method}: {got} off the rounded values")
                continue
            if dt > time_budget:
                res.fail(f"{kind}/{method}: took {dt:.3f}s")
    res.elapsed = time.perf_counter() - t_all
    return res


# ---------------------------------------------------------------------------
# exact characteristic polynomial assemblies

def check_theorem_identities(rng: random.Random, trials: int = 200,
                             max_n: int = 5) -> CheckResult:
    """The three characteristic polynomial assemblies equal char_poly
    of the explicitly built corona matrix, coefficient by coefficient.
    The L and Q assemblies run on regular bases."""
    res = CheckResult("theorem_identities")
    t_all = time.perf_counter()
    for _ in range(trials):
        n1 = rng.randint(1, max_n)
        n2 = rng.randint(1, max_n)
        g2 = random_signed_graph(rng, n2)
        g1 = random_signed_graph(rng, n1)
        g1r = random_regular_circulant(rng, rng.randint(1, max_n))
        cor_a, _ = neighbourhood_corona(g1, g2)
        cor_r, _ = neighbourhood_corona(g1r, g2)
        res.instances += 1
        if charpoly_A_corona(g1, g2) != char_poly(matrix(cor_a, "A")):
            res.fail("A: " + _pair(g1, g2))
        for kind, fn in (("Q", charpoly_Q_corona), ("L", charpoly_L_corona)):
            res.instances += 1
            if fn(g1r, g2) != char_poly(matrix(cor_r, kind)):
                res.fail(f"{kind}: " + _pair(g1r, g2))
    res.elapsed = time.perf_counter() - t_all
    return res


def check_block_identity(rng: random.Random, trials: int = 200,
                         max_n: int = 5) -> CheckResult:
    """The block-matrix builder agrees entrywise with the matrix of the
    explicitly built corona, for A, D, L and Q."""
    res = CheckResult("block_identity")
    t_all = time.perf_counter()
    for _ in range(trials):
        g1 = random_signed_graph(rng, rng.randint(1, max_n))
        g2 = random_signed_graph(rng, rng.randint(1, max_n))
        cor, _ = neighbourhood_corona(g1, g2)
        for kind in ("A", "D", "L", "Q"):
            res.instances += 1
            built = matrix(cor, kind)
            block = corona_block_matrix(g1, g2, kind)
            if not np.array_equal(built, block):
                res.fail(f"{kind}: " + _pair(g1, g2))
    res.elapsed = time.perf_counter() - t_all
    return res


# ---------------------------------------------------------------------------
# censuses and balance

def check_edge_census(rng: random.Random, trials: int = 500,
                      max_n: int = 6) -> CheckResult:
    """Edge census formula vs direct enumeration on the built corona,
    exact."""
    res = CheckResult("edge_census")
    t_all = time.perf_counter()
    for _ in range(trials):
        g1 = random_signed_graph(rng, rng.randint(1, max_n))
        g2 = random_signed_graph(rng, rng.randint(1, max_n))
        cor, _ = neighbourhood_corona(g1, g2)
        direct = edge_census_direct(cor)
        res.instances += 1
        primary = edge_census_formula(g1, g2)
        if primary != direct:
            res.fail(_pair(g1, g2) + f" formula {primary} != {direct}")
    res.elapsed = time.perf_counter() - t_all
    return res


def check_triad_census(rng: random.Random, trials: int = 500,
                       max_n: int = 6) -> CheckResult:
    """Triad census formula and total-triad count vs enumeration on
    the built corona, exact."""
    res = CheckResult("triad_census")
    t_all = time.perf_counter()
    for _ in range(trials):
        g1 = random_signed_graph(rng, rng.randint(1, max_n))
        g2 = random_signed_graph(rng, rng.randint(1, max_n))
        cor, _ = neighbourhood_corona(g1, g2)
        direct = triad_census_direct(cor)
        res.instances += 1
        primary = triad_census_formula(g1, g2)
        if primary != direct:
            res.fail(_pair(g1, g2) + f" formula {primary} != {direct}")
            continue
        res.instances += 1
        if total_triads_formula(g1, g2) != direct.total:
            res.fail(_pair(g1, g2) + " total triads")
    res.elapsed = time.perf_counter() - t_all
    return res


def check_balance(rng: random.Random, trials: int = 500,
                  max_n: int = 5) -> CheckResult:
    """Balance criterion vs a switching certificate search on the built
    corona.  Runs on pairs of balanced factors (the informative case)
    plus unrestricted pairs."""
    res = CheckResult("balance_criterion")
    t_all = time.perf_counter()
    for i in range(trials + trials // 2):
        balanced_pair = i < trials
        if balanced_pair:
            g1 = random_balanced_graph(rng, rng.randint(1, max_n))
            g2 = random_balanced_graph(rng, rng.randint(1, max_n))
        else:
            g1 = random_signed_graph(rng, rng.randint(1, max_n))
            g2 = random_signed_graph(rng, rng.randint(1, max_n))
        cor, _ = neighbourhood_corona(g1, g2)
        truth = is_balanced(cor)
        res.instances += 1
        if corona_balance_criterion(g1, g2) != truth:
            res.fail(_pair(g1, g2) + f" criterion != {truth}")
    res.elapsed = time.perf_counter() - t_all
    return res


# ---------------------------------------------------------------------------
# coronal closed forms

def check_coronal_forms(rng: random.Random, trials: int = 50,
                        max_n: int = 8) -> CheckResult:
    """The closed form that closed_form_coronal picks equals the generic
    resolvent computation, as exact rational function equality, on at
    least `trials` valid instances per family and matrix kind (a 1-leg
    star is net-regular, so it takes that family's form)."""
    res = CheckResult("coronal_forms")
    t_all = time.perf_counter()

    def run_family(name, make, kind):
        good = 0
        guard = 0
        while good < trials:
            guard += 1
            if guard > 50 * trials:
                res.fail(f"{name}: generator starved")
                return
            g = make()
            got = closed_form_coronal(g, kind)
            if got is None:
                continue
            good += 1
            res.instances += 1
            want = coronal_generic(matrix(g, kind), canonical_marking(g))
            if got[1] != want:
                res.fail(f"{name}: {_describe(g)} {got[1]} != {want}")

    circ = lambda: random_offset_circulant(rng, rng.randint(1, max_n))
    star = lambda: random_star(rng, rng.randint(1, max_n))
    for kind, family in (("A", "net_regular"), ("Q", "coregular"),
                         ("L", "coregular")):
        run_family(f"{kind}_{family}", circ, kind)
        run_family(f"{kind}_star", star, kind)
    res.elapsed = time.perf_counter() - t_all
    return res


# ---------------------------------------------------------------------------
# cospectrality corollaries

def check_cospectral_invariance(rng: random.Random, trials: int = 50,
                                max_n: int = 4) -> CheckResult:
    """Switching the base factor, or permuting the copy factor,
    leaves the corona spectra unchanged: adjacency always, Laplacian
    and signless Laplacian over regular bases."""
    res = CheckResult("cospectral_invariance")
    t_all = time.perf_counter()
    for _ in range(trials):
        g2 = random_signed_graph(rng, rng.randint(1, max_n))
        g1 = random_signed_graph(rng, rng.randint(1, max_n))
        g1r = random_regular_circulant(rng, rng.randint(1, max_n))
        g1sw = random_switching(rng, g1)
        g1rsw = random_switching(rng, g1r)
        perm2 = random_permutation(rng, g2.n)
        g2p = relabel(g2, perm2)

        ca, _ = neighbourhood_corona(g1, g2)
        ca_sw, _ = neighbourhood_corona(g1sw, g2)
        ca_p, _ = neighbourhood_corona(g1, g2p)
        res.instances += 1
        if not check_cospectral(matrix(ca, "A"), matrix(ca_sw, "A")):
            res.fail("A switch base: " + _pair(g1, g2))
        res.instances += 1
        if not check_cospectral(matrix(ca, "A"), matrix(ca_p, "A")):
            res.fail("A permute copies: " + _pair(g1, g2))

        cr, _ = neighbourhood_corona(g1r, g2)
        cr_sw, _ = neighbourhood_corona(g1rsw, g2)
        cr_p, _ = neighbourhood_corona(g1r, g2p)
        for kind in ("Q", "L"):
            res.instances += 1
            if not check_cospectral(matrix(cr, kind), matrix(cr_sw, kind)):
                res.fail(f"{kind} switch base: " + _pair(g1r, g2))
            res.instances += 1
            if not check_cospectral(matrix(cr, kind), matrix(cr_p, kind)):
                res.fail(f"{kind} permute copies: " + _pair(g1r, g2))
    res.elapsed = time.perf_counter() - t_all
    return res


# ---------------------------------------------------------------------------
# eigensolver self-test

def check_eigensolver(rng: random.Random, trials: int = 100,
                      max_n: int = 30) -> CheckResult:
    """LAPACK eigenvalues of random symmetric integer matrices satisfy
    the trace identity to 1e-9 and the Frobenius identity to 1e-8."""
    res = CheckResult("eigensolver")
    t_all = time.perf_counter()
    for _ in range(trials):
        n = rng.randint(1, max_n)
        m = np.zeros((n, n))
        for i in range(n):
            for j in range(i, n):
                m[i, j] = m[j, i] = rng.randint(-5, 5)
        vals = np.linalg.eigvalsh(m)
        res.instances += 1
        if abs(vals.sum() - np.trace(m)) > 1e-9:
            res.fail(f"trace identity at n={n}")
            continue
        if abs((vals ** 2).sum() - (m * m).sum()) > 1e-8:
            res.fail(f"frobenius identity at n={n}")
    res.elapsed = time.perf_counter() - t_all
    return res


# ---------------------------------------------------------------------------

def run_all(config: VerifyConfig = VerifyConfig()) -> VerifyReport:
    rng = random.Random(config.seed)
    results = [
        check_worked_example(),
        check_theorem_identities(rng, config.trials, min(config.max_n, 5)),
        check_block_identity(rng, config.trials, config.max_n),
        check_edge_census(rng, max(config.trials, 500),
                          max(config.max_n, 6)),
        check_triad_census(rng, max(config.trials, 500),
                           max(config.max_n, 6)),
        check_balance(rng, max(config.trials, 500), config.max_n),
        check_coronal_forms(rng, max(50, config.trials // 4)),
        check_cospectral_invariance(rng, max(50, config.trials // 4),
                                    min(config.max_n, 4)),
        check_eigensolver(rng, max(config.trials // 2, 100)),
    ]
    return VerifyReport(config, results)
