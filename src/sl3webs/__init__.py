"""Quantum sl(3) invariants of cubic bipartite planar graphs.

Exact skein-relation evaluation, connected-sum decomposition into primes,
enumeration of all primes up to a vertex budget, and symmetry congruence
tests in the quotient rings Z[q^(±1/2)]/(d, [3]^d - [3]).

The names in `__all__` are the library the README's Library section
lists; everything else is reached through them or the CLI.
"""

from .planarmap import (
    MapError,
    Web,
    canonical_form,
    canonical_key,
    connectivity,
    edge_3_coloring,
    isomorphic,
    mirror,
    parse_web,
    serialize_web,
)
from .enumerator import all_primes, build_catalog
from .primedec import Decomposition, connected_sum, decompose
from .qlaurent import HalfLaurent, IdealResidue, mod_reduce, parse_qexpr, qint
from .reducer import invariant
from .symmetry import RootSearchResult, dth_root_search, symmetry_report

__all__ = [
    "MapError", "Web", "canonical_form", "canonical_key", "connectivity",
    "edge_3_coloring", "isomorphic", "mirror", "parse_web", "serialize_web",
    "all_primes", "build_catalog",
    "Decomposition", "connected_sum", "decompose",
    "HalfLaurent", "IdealResidue", "mod_reduce", "parse_qexpr", "qint",
    "invariant",
    "RootSearchResult", "dth_root_search", "symmetry_report",
]
__version__ = "0.1.0"
