"""Quantum sl(3) invariants of cubic bipartite planar graphs.

Exact skein-relation evaluation, connected-sum decomposition into primes,
enumeration of all primes up to a vertex budget, and symmetry congruence
tests in the quotient rings Z[q^(±1/2)]/(d, [3]^d - [3]).
"""

from .planarmap import (
    CombMap,
    MapError,
    Web,
    automorphism_count,
    canonical_form,
    canonical_key,
    connectivity,
    disjoint_union,
    edge_3_coloring,
    from_rotations,
    isomorphic,
    mirror,
    parse_map,
    parse_web,
    serialize_map,
    serialize_web,
    validate,
)
from .enumerator import all_primes, build_catalog
from .primedec import Decomposition, connected_sum, decompose, simplify, split
from .qlaurent import (
    HalfLaurent,
    IdealResidue,
    congruent_mod,
    mod_reduce,
    parse_qexpr,
    qint,
)
from .reducer import invariant
from .symmetry import RootSearchResult, check_quotient, dth_root_search, symmetry_report

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
