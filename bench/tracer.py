"""Per-layer spans for the traced benchmark run, installed from outside
the program.

The package binds names with ``from .x import f``, so one function can
be reachable from several module namespaces.  ``Tracer.install`` wraps
each public function of every layer module (plus the few private ones
the per-layer metrics need) and rebinds the wrapper at every import
site it finds; ``uninstall`` puts the originals back.

Every wrapped call is a span.  A span's self time is its duration minus
the time of the spans it directly contains.  Inclusive time and call
counts are kept only for the outermost span of a key, so recursion and
nesting within one key are not counted twice.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("cli", "graphio", "core", "corona", "census", "coronal", "polys",
          "spectra", "verify")

# Span key per (layer, function).  Public functions not listed get
# "<layer>.other"; the private ones listed are the only private
# functions wrapped.
KEYS = {
    ("cli", "run"): "cli",
    ("graphio", "parse_graph"): "graphio.parse",
    ("graphio", "parse_graph_file"): "graphio.parse",
    ("graphio", "render_graph"): "graphio.render",
    ("core", "is_balanced"): "core.balance",
    ("core", "switching_certificate"): "core.balance",
    ("core", "matrix"): "core.matrix",
    ("corona", "neighbourhood_corona"): "corona.build",
    ("corona", "corona_block_matrix"): "corona.block",
    ("census", "edge_census_direct"): "census.direct",
    ("census", "triad_census_direct"): "census.direct",
    ("coronal", "_faddeev_leverrier"): "coronal.fl",
    ("polys", "poly_matrix_det"): "polys.det",
    ("polys", "squarefree_factors"): "polys.squarefree",
    ("polys", "real_root_pairs"): "polys.roots",
    ("polys", "real_roots"): "polys.roots",
    ("polys", "_roots_squarefree"): "polys.isolate",
    ("polys", "_roots_sturm"): "polys.sturm",
    ("spectra", "eig_symmetric"): "spectra.eig",
    ("spectra", "jacobi_eigenvalues"): "spectra.eig",
    ("spectra", "check_cospectral"): "spectra.cospectral",
    ("spectra", "charpoly_A_corona"): "spectra.assembly",
    ("spectra", "charpoly_Q_corona"): "spectra.assembly",
    ("spectra", "charpoly_L_corona"): "spectra.assembly",
    ("spectra", "_corona_char_poly"): "spectra.assembly",
    ("spectra", "_closed_form_spectrum"): "spectra.closed_form",
}


def _key(layer: str, name: str) -> str:
    if (layer, name) in KEYS:
        return KEYS[(layer, name)]
    if layer == "census":
        return "census.formula"
    if layer == "spectra" and name.startswith("spectrum_"):
        return "spectra.closed_form"
    return f"{layer}.other"


def _coeff_bits(poly) -> int:
    return max((abs(c).bit_length() for c in poly.coeffs), default=0)


class Tracer:
    def __init__(self):
        self.incl = defaultdict(float)   # outermost spans only
        self.self_time = defaultdict(float)
        self.calls = Counter()           # outermost spans only
        self.all_calls = Counter()
        self.peak = Counter()            # largest size seen per quantity
        self.factors = 0                 # squarefree factors isolated
        self.fast = 0                    # ... certified without Sturm
        self.missing = []                # listed names the program lacks
        self._stack = []
        self._open = Counter()
        self._patches = []

    # -- observations at span end -------------------------------------
    def _observe(self, key, args, result):
        if key == "corona.build":
            self._max("corona.max_nodes", result[0].n)
        elif key == "coronal.fl":
            self._max("coronal.fl_max_n", np.asarray(args[0]).shape[0])
        elif key == "spectra.eig":
            self._max("spectra.eig_max_n", np.asarray(args[0]).shape[0])
        elif key == "polys.roots":
            self._max("polys.max_degree", args[0].degree)
            self._max("polys.max_coeff_bits", _coeff_bits(args[0]))
        elif key == "polys.det":
            self._max("polys.max_degree", result.degree)
            self._max("polys.max_coeff_bits", _coeff_bits(result))

    def _max(self, name, value):
        self.peak[name] = max(self.peak[name], int(value))

    # -- spans ----------------------------------------------------------
    def _wrap(self, key, fn):
        stack, opened = self._stack, self._open

        @functools.wraps(fn)
        def span(*args, **kwargs):
            outer = opened[key] == 0
            sturm_before = self.all_calls["polys.sturm"]
            opened[key] += 1
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                opened[key] -= 1
                if stack:
                    stack[-1][0] += dt
                self.self_time[key] += dt - frame[0]
                self.all_calls[key] += 1
                if outer:
                    self.incl[key] += dt
                    self.calls[key] += 1
            if outer and key == "polys.isolate":
                self.factors += 1
                self.fast += self.all_calls["polys.sturm"] == sturm_before
            self._observe(key, args, result)
            return result

        return span

    def install(self):
        """Rebind the wrappers; the first call finds the import sites."""
        if not self._patches:
            self._find_sites()
        for site, attr, _, wrapper in self._patches:
            setattr(site, attr, wrapper)

    def uninstall(self):
        for site, attr, orig, _ in reversed(self._patches):
            setattr(site, attr, orig)

    def _find_sites(self):
        import sgcorona  # noqa: F401  (loads every layer module)
        mods = [m for name, m in list(sys.modules.items())
                if name == "sgcorona" or name.startswith("sgcorona.")]
        for layer in LAYERS:
            mod = sys.modules[f"sgcorona.{layer}"]
            names = [n for n in getattr(mod, "__all__", ())
                     if callable(getattr(mod, n, None))
                     and not isinstance(getattr(mod, n), type)]
            names += [n for lay, n in KEYS if lay == layer
                      and n.startswith("_") and hasattr(mod, n)]
            for name in names:
                orig = getattr(mod, name)
                if getattr(orig, "__module__", None) != mod.__name__:
                    continue      # a re-export; wrapped in its own module
                wrapper = self._wrap(_key(layer, name), orig)
                self._patches += [(site, attr, orig, wrapper)
                                  for site in mods
                                  for attr, val in vars(site).items()
                                  if val is orig]
        self.missing = [f"{layer}.{name}" for layer, name in KEYS
                        if not hasattr(sys.modules[f"sgcorona.{layer}"], name)]

    # -- results ----------------------------------------------------------
    def metrics(self) -> dict:
        inc, cnt, peak = self.incl, self.calls, self.peak
        s, c = "s", "count"
        return {
            "cli.self_s": (self.self_time["cli"], s),
            "graphio.parse_s": (inc["graphio.parse"], s),
            "graphio.render_s": (inc["graphio.render"], s),
            "core.balance_s": (inc["core.balance"], s),
            "core.matrix_s": (inc["core.matrix"], s),
            "corona.build_s": (inc["corona.build"], s),
            "corona.build_calls": (cnt["corona.build"], c),
            "corona.max_nodes": (peak["corona.max_nodes"], "nodes"),
            "corona.block_s": (inc["corona.block"], s),
            "census.direct_s": (inc["census.direct"], s),
            "census.formula_s": (inc["census.formula"], s),
            "coronal.fl_s": (inc["coronal.fl"], s),
            "coronal.fl_calls": (cnt["coronal.fl"], c),
            "coronal.fl_max_n": (peak["coronal.fl_max_n"], "n"),
            "polys.det_s": (inc["polys.det"], s),
            "polys.det_calls": (cnt["polys.det"], c),
            "polys.squarefree_s": (inc["polys.squarefree"], s),
            "polys.roots_s": (inc["polys.roots"], s),
            "polys.roots_calls": (cnt["polys.roots"], c),
            "polys.sturm_fallbacks": (self.all_calls["polys.sturm"], c),
            "polys.factors_isolated": (self.factors, c),
            "polys.fast_path_ratio": (
                self.fast / self.factors if self.factors else 0.0, "frac"),
            "polys.max_degree": (peak["polys.max_degree"], "degree"),
            "polys.max_coeff_bits": (peak["polys.max_coeff_bits"], "bits"),
            "spectra.eig_s": (inc["spectra.eig"], s),
            "spectra.eig_calls": (cnt["spectra.eig"], c),
            "spectra.eig_max_n": (peak["spectra.eig_max_n"], "n"),
            "spectra.assembly_self_s": (self.self_time["spectra.assembly"], s),
            "spectra.closed_form_self_s": (
                self.self_time["spectra.closed_form"], s),
            "spectra.cospectral_s": (inc["spectra.cospectral"], s),
        }
