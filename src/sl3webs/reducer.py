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
labelled web: the cascade's result is byte for byte that of contracting
the bigon at the least dart until none is left, the loop the tests run
with `apply_bigon` from `tests/oracles.py`.

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
2l.  Only a bond-free web is smoothed at a square: its least-dart
square, which `_reduce` reads off the face list (faces are listed by
least dart).

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

from .planarmap import _bonds, _drop_and_rewire, _IsoStore, split
from .qlaurent import HalfLaurent, qint

CIRCLE_FACTOR = qint(3)
BIGON_FACTOR = -qint(2)


_MEMO = _IsoStore()


def clear_memo():
    _MEMO.clear()


def simplify(web):
    """Contract bigon faces until none remain; returns (web, uses).

    The cascade `_cascade` seeded with the web's own bigons: the result is
    the one a loop of `apply_bigon` (`tests/oracles.py`) at the least dart
    reaches, byte for byte, built with one rewiring.  Every doubled edge
    of a cubic bipartite genus-0 web bounds a bigon face on one side, so
    the result is simple unless the web collapsed to circles (vertexless
    output).
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
    docstring): this one is that of `apply_bigon` (`tests/oracles.py`),
    least dart first, byte for byte.
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
    map is scanned for bonds once.

    A square's smoothing of a prime is scanned only across its new faces
    (`planarmap._bonds` reads them off `_fresh`).  A bond is two edges
    between the same two faces.  A dart that the surgery did not re-pair
    keeps its partner, and every re-paired dart lies on a new face, so two
    faces that are not new and meet across two edges in the child already
    did so in the parent, which then had a bond.  So a new bond of the
    child runs through a new face."""
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
    cmap = web.map
    faces = cmap.faces()
    face = faces[list(map(len, faces)).index(4)]  # the least-dart square
    # its vertices are distinct (a web has no bridge, so its faces are
    # cycles); vertex k carries the leg sigma(d_k), whose partner is off
    # the square: a second edge between square vertices would be a bigon,
    # or join two vertices of one colour
    t0, t1, t2, t3 = (cmap.theta[cmap.sigma[d]] for d in face)
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
