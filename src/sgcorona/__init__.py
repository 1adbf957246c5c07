"""Neighbourhood corona products of signed graphs.

Construction of the product, edge and triad censuses, balance, marking
resolvents, and adjacency / Laplacian / signless-Laplacian spectra via
three mutually checking routes (numeric diagonalization, exact
characteristic polynomial assembly, per-base-eigenvalue closed forms).
"""

from types import ModuleType as _ModuleType

from .census import (EdgeCensus, PatternCounts, TriadCensus,
                     corona_balance_criterion, edge_census_direct,
                     edge_census_formula, edge_mark_breakdown,
                     inconsistent_edges, total_triads_formula,
                     triad_census_direct, triad_census_formula)
from .core import (CoRegularity, DegreeProfile, SignedGraph,
                   canonical_marking, co_regularity, connected_components,
                   degree_profile, is_balanced, is_connected, matrix,
                   negated, new_signed_graph, relabel, switch,
                   switching_certificate)
from .corona import (CoronaLayout, corona_block_matrix,
                     neighbourhood_corona)
from .coronal import (char_poly, closed_form_coronal, coronal_generic,
                      coronal_A_net_regular, coronal_A_star,
                      coronal_L_coregular, coronal_L_star,
                      coronal_Q_coregular, coronal_Q_star,
                      coronal_of_graph, coronal_with_char_poly,
                      has_eigenvector_marking, star_shape)
from .generate import (random_balanced_graph, random_offset_circulant,
                       random_permutation, random_regular_circulant,
                       random_signed_graph, random_star, random_switching)
from .graphio import (GraphParseError, parse_graph, parse_graph_file,
                      render_graph)
from .polys import (IntPolynomial, RationalFn, poly_divexact, poly_gcd,
                    real_root_pairs, squarefree_factors, taylor_shift)
from .spectra import (Spectrum, charpoly_A_corona, charpoly_L_corona,
                      charpoly_Q_corona, check_cospectral, corona_spectrum,
                      eig_symmetric, eigenvalues, real_roots)
from .verify import VerifyConfig, VerifyReport, run_all

__version__ = "0.1.0"

# the imports above are the public names; submodules bound as package
# attributes by those imports are not
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__all__.append("__version__")
