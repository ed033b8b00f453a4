"""Connected-sum decomposition into 3-connected primes.

A connected simple web is either 3-connected (prime) or has a 2-edge-cut.
Splitting at a cut gives two smaller webs, each closed up by one new edge
along the separating circle; multi-edges produced this way are removed by
the bigon relation, whose uses are counted in l.  The decomposition is
unique up to reflections and satisfies the exact identity

    [3]^(k-1) * P(G) = (-[2])^l * prod_i P(G_i).

A split side is connected, and bigon contraction keeps it so unless it
is a theta, which becomes a single circle: only a side that collapses
has circles.  Its [3] cancels one normalization factor, so collapsed
parts are excluded from the primes (circles are not prime by convention).

`split`, the no-vertex case of `planarmap`'s rewiring kernel, is
re-exported here; the skein engine splits every composite web with it,
so `invariant` of a composite web is already a product of prime values
over [3]^(k-1).  The identity check therefore tests that the engine's
factoring agrees with the primes `decompose` finds; the check that
shares no code with it is the tests' random-order evaluation, which
never splits.
"""

from __future__ import annotations

from .planarmap import CombMap, MapError, _bonds, split, validate
from .qlaurent import qint
from .reducer import invariant, simplify


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
        sizes = [w.n_vertices for w in self.primes]
        return f"Decomposition(k={self.k}, l={self.l}, sizes={sizes})"


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
    primes = []
    total_l = 0
    collapsed = 0
    stack = [web]
    while stack:
        w = stack.pop()
        cuts = find_2_edge_cuts(w)
        if not cuts:
            primes.append(w)
            continue
        cut = cuts[rng.randrange(len(cuts))] if rng is not None else min(cuts)
        for side in split(w, cut):
            side, l = simplify(side)
            total_l += l
            # a side has circles only if it collapsed (see the module note)
            collapsed += side.circles
            if side.n_vertices:
                stack.append(side)
    return Decomposition(primes, total_l, collapsed)


def product_identity_sides(web, dec):
    """Evaluate both sides of [3]^(k-1) P(G) = (-[2])^l prod P(G_i)."""
    return identity_sides(web, dec, [invariant(p) for p in dec.primes])


def identity_sides(web, dec, prime_values):
    """Both sides of the product identity, given P of each prime in order."""
    lhs = qint(3) ** (dec.k - 1) * invariant(web)
    rhs = (-qint(2)) ** dec.l
    for value in prime_values:
        rhs = rhs * value
    return lhs, rhs


def connected_sum(a, ea, b, eb):
    """Join two webs by deleting an edge in each and cross-connecting.

    `ea`, `eb` are darts naming the edges.  The two new edges take the
    rotation slots of the deleted ones; of the two possible end matchings
    exactly one embeds on the sphere, and it is selected by validation.
    """
    if a.circles or b.circles:
        raise MapError("connected sum acts on webs without circles")
    na = a.map.n_darts
    sigma = list(a.map.sigma) + [d + na for d in b.map.sigma]
    base_theta = list(a.map.theta) + [d + na for d in b.map.theta]
    p, q = ea, a.map.theta[ea]
    r, s = eb + na, b.map.theta[eb] + na
    last_error = None
    for r1, s1 in ((r, s), (s, r)):
        theta = list(base_theta)
        theta[p], theta[r1] = r1, p
        theta[q], theta[s1] = s1, q
        try:
            return validate(CombMap(sigma, theta))
        except MapError as exc:
            last_error = exc
    raise MapError(
        "no planar bipartite matching of the cut ends; "
        f"orientation constraint violated ({last_error})"
    )
