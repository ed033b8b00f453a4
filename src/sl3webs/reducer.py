"""The skein-reduction engine.

Evaluates the quantum sl(3) invariant of a closed web by applying the three
local relations until nothing is left: a vertexless circle contributes [3],
a bigon face contracts with factor -[2], and a square face splits into its
two planar smoothings with unit coefficients.  Both face relations remove
the face's vertices and join its outside legs along arcs inside the face;
the bigon is the smoothing with one arc.  That surgery keeps a web
cubic, bipartite and plane, so children, split sides and components are
built unchecked, all in `planarmap` (`_drop_and_rewire`, `split`,
`Web.components`).  Every web is plane, so its component count follows
from Euler's formula, and components are listed only when there are
several.  Every nonempty web admits a move (all faces are even, so
Euler's formula forces a face of degree <= 4) and every move strictly
shrinks (vertices, circles), so reduction terminates.

`invariant` first contracts every bigon and multiplies by (-[2])^l once
for the l contractions; only then does it strip circles, split
components and probe the memo.  So the memo holds bigon-free webs only,
and a reduced web is split at a bond or smoothed at a square.  The
contractions run as one cascade (`_cascade`), which follows the bigons
each contraction closes and rewires the web once; `simplify` seeds it
with the web's own bigons, and `_reduce` with the two new edges of each
smoothing of its square, so a child reaches the memo already bigon-free
and is valued times (-[2])^u for its u contractions.  A
bigon has exactly one child, so memoizing it shares nothing.  Values
cannot change, since each contraction is the bigon relation itself.  No
hit is lost, since a web's bigon-free form is unique up to isomorphism:
two bigons of a web other than the theta share no vertex (a vertex on
two would carry a triple edge), so contracting one leaves the other a
bigon, and both orders give the same web.  Each contraction removes two
vertices, so every order ends in the same bigon-free form (Newman's
lemma), and isomorphic webs reach isomorphic forms.  Contraction is
local surgery on labelled darts, so every order reaches the same
labelled web: the cascade's result is byte for byte that of
`apply_bigon` at the least dart, applied until no bigon is left.

A web that misses the memo and has a 2-bond is valued from its primes:
P(A # B) = P(A) P(B) / [3], where A and B are the sides `planarmap.split`
closes up with one new edge each.  Cut at the bond, each side is a
tangle with two ends, an endomorphism of the defining representation V,
so a scalar times the identity strand by Schur's lemma (Kuperberg,
"Spiders for rank 2 Lie algebras", CMP 1996): closing side A alone
gives P(A) = a[3], and closing the two together gives ab[3].
`factorize` ends in k primes after l contractions, so P = (-[2])^l
prod P(prime) / [3]^(k-1) (`sum_value`, which `primedec.identity_sides`
shares), each division exact: long division raises on a remainder, and
every nonempty closed web's P is a multiple of [3] (every reduction
ends in a circle).  No side of a bigon-free web
collapses to a circle: a side holds one edge that is not the web's own,
and so does each contraction's result, so a theta side would join its
two vertices by two of the web's edges, a bigon.  So V = sum V(prime) +
2l.  Only a bond-free web is smoothed at a square.

Values are memoized up to isomorphism, mirror included (sound, as the
invariant is mirror-invariant), in a `planarmap` isomorphism store.  A
probe that misses stores an entry with no value before its web is
reduced: no child is isomorphic to its ancestor, having fewer darts (a
square's children lose four vertices, and a prime of a composite lacks
the other primes' darts), so no probe meets an unfinished entry, and if
a reduction raises, the next probe of that web reduces it again.  No
side of a composite miss is probed, only its primes.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .planarmap import MapError, _bonds, _drop_and_rewire, _IsoStore, split
from .qlaurent import HalfLaurent, qint

CIRCLE_FACTOR = qint(3)
BIGON_FACTOR = -qint(2)


class Reducible(NamedTuple):
    """A reduction site: a circle, or a dart on a bigon/square face."""

    kind: str
    site: int | None = None

    def __repr__(self):
        return f"Reducible({self.kind}, site={self.site})"


def find_reducible(web):
    """Highest-priority site: circle, else bigon, else square (least dart);
    None exactly when the web is empty."""
    if web.circles > 0:
        return Reducible("circle")
    for kind, size in (("bigon", 2), ("square", 4)):
        site = _least_dart_on(web.map, size)
        if site is not None:
            return Reducible(kind, site)
    if web.map.n_darts:
        raise MapError("no reducible face; input was not a valid closed web")
    return None


def _least_dart_on(cmap, size):
    """The least dart on a face of `size` darts, or None if there is none.
    Faces are listed by least dart, so the first face of a size holds it."""
    faces = cmap.faces()
    sizes = list(map(len, faces))
    return faces[sizes.index(size)][0] if size in sizes else None


def find_all_reducibles(web):
    """Every applicable site: the circle first, then faces by least dart."""
    out = []
    if web.circles > 0:
        out.append(Reducible("circle"))
    for face in web.map.faces():
        if len(face) == 2:
            out.append(Reducible("bigon", face[0]))
        elif len(face) == 4:
            out.append(Reducible("square", face[0]))
    return out


def apply_circle(web):
    """Remove one vertexless circle; factor [3]."""
    if web.circles < 1:
        raise MapError("no circle to remove")
    return web.with_circles(web.circles - 1), CIRCLE_FACTOR


def _disk(web, site, kind, size):
    """The darts of the face through `site` and its outside legs.

    Walking the face cycle d_0..d_(size-1), vertex k carries the leg
    sigma(d_k): its rotation runs theta(d_(k-1)) -> d_k -> sigma(d_k), and
    the first two lie on edges of the face.  The face's vertices are
    distinct: a web has no bridge, a bridgeless cubic graph is
    2-connected, and every face of a 2-connected plane graph is a cycle.
    """
    cmap = web.map
    face = cmap.faces()[cmap.face_of(site)]
    if len(face) != size:
        raise MapError(f"dart {site} does not lie on a {kind} face")
    return face, tuple(cmap.sigma[d] for d in face)


def _smooth(web, face, legs, arcs):
    """Remove a face's vertices, joining its legs along the given arcs.

    Strand chains alternate arc hops and edge hops through legs; chains
    with free ends become new edges, closed chains become circles.
    """
    theta = web.map.theta
    arc = {}
    for a, b in arcs:
        arc[a] = b
        arc[b] = a
    legset = set(legs)
    visited = set()
    new_pairs = []
    circles = 0
    for l in legs:
        t = theta[l]
        if t in legset or l in visited:
            continue
        end1 = t
        cur = l
        while True:
            visited.add(cur)
            cur2 = arc[cur]
            visited.add(cur2)
            nxt = theta[cur2]
            if nxt in legset:
                cur = nxt
            else:
                new_pairs.append((end1, nxt))
                break
    remaining = legset - visited
    while remaining:
        start = remaining.pop()
        circles += 1
        cur = start
        while True:
            cur2 = arc[cur]
            remaining.discard(cur2)
            nxt = theta[cur2]
            if nxt == start:
                break
            remaining.discard(nxt)
            cur = nxt
    return _drop_and_rewire(web, face, new_pairs, circles)


def apply_bigon(web, site):
    """Contract a degree-2 face; factor -[2].

    The one-arc smoothing: the two bigon vertices disappear and their legs
    join, so the outside edges splice into one, or close into a circle
    when they are one edge (theta graph).
    """
    face, (a, b) = _disk(web, site, "bigon", 2)
    return _smooth(web, face, (a, b), ((a, b),)), BIGON_FACTOR


def apply_square(web, site):
    """Split a degree-4 face into its two planar smoothings.

    One smoothing joins legs (0,1) and (2,3), the other (1,2) and (3,0).
    Both children lose exactly the four square vertices.
    """
    face, legs = _disk(web, site, "square", 4)
    child_a = _smooth(web, face, legs, ((legs[0], legs[1]), (legs[2], legs[3])))
    child_b = _smooth(web, face, legs, ((legs[1], legs[2]), (legs[3], legs[0])))
    return child_a, child_b


def reduce_at(web, red):
    """Apply the relation at one site: [(child, factor), ...], whose
    weighted sum of invariants is the invariant of `web`."""
    if red.kind == "circle":
        return [apply_circle(web)]
    if red.kind == "bigon":
        return [apply_bigon(web, red.site)]
    if red.kind == "square":
        one = HalfLaurent.one()
        return [(child, one) for child in apply_square(web, red.site)]
    raise ValueError(f"unknown relation kind {red.kind!r}")


_MEMO = _IsoStore()


def clear_memo():
    _MEMO.clear()


def simplify(web):
    """Contract bigon faces until none remain; returns (web, uses).

    The cascade `_cascade` seeded with the web's own bigons: the result is
    the one a loop of `apply_bigon` at the least dart reaches, byte for
    byte, built with one rewiring.  Every doubled edge of a cubic
    bipartite genus-0 web bounds a bigon face on one side, so the result
    is simple unless the web collapsed to circles (vertexless output).
    """
    seeds = [face[0] for face in web.map.faces() if len(face) == 2]
    return _cascade(web, (), (), seeds) if seeds else (web, 0)


def _cascade(web, face, pairs, seeds):
    """(child, uses): drop the vertices of `face`'s darts, re-pair the
    surviving darts of `pairs`, and contract every bigon that an edge of
    `seeds` (a list of darts, one per edge, consumed) bounds, `uses`
    contractions in all; one `_drop_and_rewire`.

    An edge x-y bounds a bigon iff theta(sigma y) = sigma^2 x (the face
    x, sigma y) or theta(sigma x) = sigma^2 y (the same with x and y
    swapped).  In the first case the bigon's legs are sigma x and
    sigma^2 y, and contracting it joins their partners, or closes them
    into a circle when the legs are one edge (a theta); the joined edge is
    checked in turn.  A face that a contraction changes runs through the
    joined edge, so a bigon the cascade creates is always found.  Two
    bigons of a web other than the theta share no vertex, so every order
    of contractions reaches the same labelled web (the `reducer`
    docstring): this one is `apply_bigon`'s, least dart first, byte for
    byte.
    """
    sigma = web.map.sigma
    theta = list(web.map.theta)
    moved = []
    for a, b in pairs:
        theta[a] = b
        theta[b] = a
        moved += (a, b)
    dropped = list(face)
    dead = {x for d in face for x in (d, sigma[d], sigma[sigma[d]])}
    uses = circles = 0
    while seeds:
        x = seeds.pop()
        if x in dead:
            continue
        y = theta[x]
        if theta[sigma[y]] != sigma[sigma[x]]:
            x, y = y, x
            if theta[sigma[y]] != sigma[sigma[x]]:
                continue
        sx, sy = sigma[x], sigma[y]
        s2y = sigma[sy]
        dead.update((x, sx, sigma[sx], y, sy, s2y))
        dropped += (x, y)
        uses += 1
        a, b = theta[sx], theta[s2y]
        if a == s2y:
            circles += 1
        else:
            theta[a] = b
            theta[b] = a
            moved += (a, b)
            seeds.append(a)
    new_pairs = {(a, theta[a]) for a in moved if a not in dead and a < theta[a]}
    return _drop_and_rewire(web, dropped, new_pairs, circles), uses


@functools.cache
def _bigon_power(uses):
    """(-[2])^uses, shared: a HalfLaurent is immutable."""
    return BIGON_FACTOR**uses


def factorize(web):
    """(primes, l) of a connected bigon-free web: it is split at its least
    2-bond, each side's bigons are contracted, l in all, and the last side
    kept is split in turn.  The result is kept on the map of the web and
    of each prime, a prime's as the marker (), which holds no web: each
    map is scanned for bonds once."""
    cmap = web.map
    if cmap._factors is None:
        primes, uses, stack = [], 0, [web]
        while stack:
            w = stack.pop()
            if bonds := _bonds(w.map):
                for side in split(w, bonds[0]):
                    side, l = simplify(side)
                    uses += l
                    stack.append(side)
            else:
                w.map._factors = ()
                primes.append(w)
        if cmap._factors is None:  # a composite; a prime was marked above
            cmap._factors = (tuple(primes), uses)
    return cmap._factors or ((web,), 0)


def _reduce(web):
    # a nonempty connected web without circles or bigons: valued from its
    # primes if it has a 2-bond, else (its only prime) smoothed at a square
    primes, uses = factorize(web)
    if primes != (web,):
        return sum_value(math.prod(map(invariant, primes), start=_bigon_power(uses)), len(primes))
    face, legs = _disk(web, find_reducible(web).site, "square", 4)
    # a leg's partner is off the square: a second edge between square
    # vertices would be a bigon, or join two vertices of one colour
    t0, t1, t2, t3 = map(web.map.theta.__getitem__, legs)
    smoothings = (((t0, t1), (t2, t3)), ((t1, t2), (t3, t0)))
    return sum(_scaled(*_cascade(web, face, pairs, [pairs[0][0], pairs[1][0]])) for pairs in smoothings)


def sum_value(product, k):
    """P of a connected sum of k primes from (-[2])^l prod P(prime), the
    product of its primes' values and of its l contractions' factors:
    the product / [3]^(k-1), each division exact (`_div3` raises on a
    remainder)."""
    for _ in range(k - 1):
        product = _div3(product)
    return product


def _scaled(child, uses):
    """(-[2])^uses P(child)."""
    value = invariant(child)
    return _bigon_power(uses) * value if uses else value


def _div3(value):
    """value / [3], by long division from the top term; raises
    ArithmeticError unless [3] divides value exactly.

    [3] = q + 1 + q^-1 is monic, so each step clears the top term with an
    integer quotient term.  Coefficients are listed by falling
    half-exponent; a quotient term at half-exponent k consumes those at
    k + 2, k and k - 2.
    """
    items = value.items()
    if not items:
        return value
    top, low = items[0][0], items[-1][0]
    coeffs = [0] * (top - low + 1)
    for k, c in items:
        coeffs[top - k] = c
    quotient = {}
    for i in range(len(coeffs) - 4):
        c = coeffs[i]
        if c:
            quotient[top - 2 - i] = c
            coeffs[i + 2] -= c
            coeffs[i + 4] -= c
    if any(coeffs[-4:]):
        raise ArithmeticError(f"{value.pretty()} is not a multiple of [3]")
    return HalfLaurent(quotient)


def invariant(web):
    """The quantum sl(3) invariant P of a closed web.

    Handles circles, multi-edges and disconnected webs; deterministic and
    memoized across calls.
    """
    web, uses = simplify(web)
    scaled = uses or web.circles
    result = _bigon_power(uses)
    if web.circles:
        result = result * CIRCLE_FACTOR**web.circles
        web = web.with_circles(0)
    cmap = web.map
    n_comps = _plane_components(cmap)
    if n_comps == 0:
        return result
    if n_comps > 1:
        return math.prod(map(invariant, web.components()), start=result)
    entry = _MEMO.entry(cmap)
    if entry.value is None:
        entry.value = _reduce(web)
    # a HalfLaurent is immutable, so an unscaled value is returned as stored
    return result * entry.value if scaled else entry.value


def _plane_components(cmap):
    """The number of components of a cubic map whose components are all
    plane, as every Web's are: each has V - E + F = 2, and n darts make
    V = n/3 and E = n/2, so there are (6F - n)/12."""
    return (6 * len(cmap.faces()) - cmap.n_darts) // 12


def invariant_random_order(web, rand):
    """Evaluate with uniformly random site choices; no memo, no component
    splitting.  An independent evaluation path for confluence checks."""
    sites = find_all_reducibles(web)
    if not sites:
        if not web.is_empty():
            raise MapError("stuck on a nonempty web")
        return HalfLaurent.one()
    red = sites[rand.randrange(len(sites))]
    return sum(factor * invariant_random_order(child, rand) for child, factor in reduce_at(web, red))


def invariant_trace(web):
    """Evaluate with the priority rule and return (value, reduction tree).

    The tree records each applied relation, its site, and its factor; no
    memoization, so use on desk-size webs only.
    """
    red = find_reducible(web)
    if red is None:
        return HalfLaurent.one(), {"relation": "empty", "value": "1"}
    total = HalfLaurent.zero()
    children = []
    pairs = reduce_at(web, red)
    for child, factor in pairs:
        val, sub = invariant_trace(child)
        total = total + factor * val
        children.append(sub)
    node = {
        "relation": red.kind,
        "site": red.site,
        "factor": pairs[0][1].to_json_obj(),  # both square children carry 1
        "children": children,
        "value": total.pretty(),
    }
    return total, node
