"""Connected-sum decomposition into 3-connected primes.

A connected simple web is either 3-connected (prime) or has a 2-edge-cut.
Splitting at a cut gives two smaller webs, each closed up by one new edge
along the separating circle; multi-edges produced this way are removed by
the bigon relation, whose uses are counted in l.  The decomposition is
unique up to reflections and satisfies the exact identity

    [3]^(k-1) * P(G) = (-[2])^l * prod_i P(G_i).

A side that collapses to a circle is not a prime; its [3] cancels one
normalization factor.  `decompose` is its input checks plus the skein
engine's own loop, `reducer.factorize`, whose result without `rng` is
kept on the web's map.  So `identity_holds` compares the engine's
factorization with itself; the independent checks are
`reducer.invariant_random_order`, which never splits, and the pinned
prime products the tests and perfbench's `sums` check compare with.
"""

from __future__ import annotations

import math

from .planarmap import MapError, _bonds, _drop_and_rewire, disjoint_union, split
from .reducer import BIGON_FACTOR, CIRCLE_FACTOR, factorize, invariant, simplify


class Decomposition:
    """Prime factors of a connected web plus the relation-(2) use count."""

    __slots__ = ("primes", "l", "collapsed_circles")

    def __init__(self, primes, l, collapsed_circles=0):
        self.primes = list(primes)
        self.l = l
        self.collapsed_circles = collapsed_circles

    @property
    def k(self):
        return len(self.primes)

    def __repr__(self):
        return f"Decomposition(k={self.k}, l={self.l}, sizes={[w.n_vertices for w in self.primes]})"


def find_2_edge_cuts(web):
    """All unordered edge pairs whose removal disconnects the web.

    Edges are named by their smaller dart; empty iff the web is
    3-connected.  A web has no bridge, so these are its 2-bonds.
    """
    if len(web.map.components()) != 1:
        raise MapError("cut search needs a connected web")
    return _bonds(web.map)


def decompose(web, rng=None):
    """Full prime decomposition of a connected simple circle-free web.

    Cuts are chosen lexicographically least (or randomly when `rng` is
    given; the outcome is order-independent up to isomorphism).
    """
    if web.circles:
        raise MapError("decompose acts on webs without circles")
    if not web.is_simple():
        raise MapError("decompose needs a simple web")
    if len(web.map.components()) != 1:
        raise MapError("decompose needs a connected web")
    return Decomposition(*factorize(web, rng))


def product_identity_sides(web, dec):
    """Evaluate both sides of [3]^(k-1) P(G) = (-[2])^l prod P(G_i)."""
    return identity_sides(web, dec, [invariant(p) for p in dec.primes])


def identity_sides(web, dec, prime_values):
    """Both sides of the product identity, given P of each prime in order."""
    return CIRCLE_FACTOR ** (dec.k - 1) * invariant(web), math.prod(prime_values, start=BIGON_FACTOR**dec.l)


def connected_sum(a, ea, b, eb):
    """Join two webs by deleting an edge in each and cross-connecting.

    `ea`, `eb` are darts naming the edges.  The two new edges take the
    rotation slots of the deleted ones: ea joins eb and its partner eb's.
    The sum, `_drop_and_rewire` on the two side by side, is built
    unchecked: two arcs across the annulus between the deleted edges join
    their ends in the plane, and swapping B's colours keeps it bipartite.
    """
    if a.circles or b.circles:
        raise MapError("connected sum acts on webs without circles")
    na = a.map.n_darts
    p, q = ea, a.map.theta[ea]
    r, s = eb + na, b.map.theta[eb] + na
    return _drop_and_rewire(disjoint_union(a, b), (), ((p, r), (q, s)), 0)
