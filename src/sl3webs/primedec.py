"""Connected-sum decomposition into 3-connected primes.

A connected simple web is either 3-connected (prime) or has a 2-edge-cut.
Splitting at a cut gives two smaller webs, each closed up by one new edge
along the separating circle; multi-edges produced this way are removed by
the bigon relation, whose uses are counted in l.  No side collapses to a
circle (see `reducer`).  The decomposition is unique up to reflections
and satisfies the exact identity

    [3]^(k-1) * P(G) = (-[2])^l * prod_i P(G_i).

`decompose` is its input checks plus the skein engine's own loop,
`reducer.factorize`, whose result is kept on the web's map.
`identity_sides` takes P(G) from the primes' values, as the engine's
composite branch does (`reducer.sum_value`), so the sum itself is never
valued or memoized: `identity_holds` checks that [3]^(k-1) divides
(-[2])^l prod P(G_i) exactly, and a remainder raises ArithmeticError.
The independent checks are `invariant_random_order` in `tests/oracles.py`,
which never splits, and the pinned prime products the tests and
perfbench's `sums` check compare with.
"""

from __future__ import annotations

import math

# split and simplify are not called here: this module is where
# perfbench's tracer finds them
from .planarmap import MapError, _drop_and_rewire, _require_connected, disjoint_union, split
from .reducer import CIRCLE_FACTOR, _bigon_power, factorize, simplify, sum_value


class Decomposition:
    """Prime factors of a connected web plus the relation-(2) use count."""

    __slots__ = ("primes", "l")

    def __init__(self, primes, l):
        self.primes = list(primes)
        self.l = l

    @property
    def k(self):
        return len(self.primes)

    def __repr__(self):
        return f"Decomposition(k={self.k}, l={self.l}, sizes={[w.n_vertices for w in self.primes]})"


def decompose(web):
    """Full prime decomposition of a connected simple circle-free web.

    Each cut is the least 2-bond of the web or side at hand; the outcome
    does not depend on the dart labels, up to isomorphism of the primes.
    """
    if web.circles:
        raise MapError("decompose acts on webs without circles")
    if not web.is_simple():
        raise MapError("decompose needs a simple web")
    _require_connected(web, "decompose needs a connected web with vertices")
    return Decomposition(*factorize(web))


def identity_sides(dec, prime_values):
    """Both sides of the product identity, given P of each prime in order.

    P(G) is the right side divided by [3]^(k-1) (`reducer.sum_value`, as
    the engine values a composite), which raises ArithmeticError unless
    the division is exact.
    """
    rhs = math.prod(prime_values, start=_bigon_power(dec.l))
    return CIRCLE_FACTOR ** (dec.k - 1) * sum_value(rhs, dec.k), rhs


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
