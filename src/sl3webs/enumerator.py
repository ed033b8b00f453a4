"""Generation of all prime webs up to a vertex budget.

The paper builds the circular primes from plates and reaches the others
by pushing moves, which drop the vertex count by two.  Here the layers
are built upward from the cube instead: layer m holds the (m/2)-gonal
prism when 4 divides m (the cube at 8), then the 3-connected converse
pushes, across a face, of layer m - 2.  No web above m is built.  Each
layer is deduplicated through a `planarmap` isomorphism store, and only
the layer printed is keyed; `--count` keys none: the canonical key
orders the primes and names them in the catalog.

The plates are a test oracle, which checks the census instead of
feeding it.  Cut open along the exterior edges of its polygons, a
circular web flattens to a plate, a marked polygon whose chords are the
third-colour edges; `circular_primes` in `tests/oracles.py` re-glues
every normal chord diagram of every plate, and the tests assert that at
every size up to 30 its 3-connected webs are exactly the census primes
that `planarmap._circular_witness` calls circular.

That the prisms are the only primes no converse push of the layer
below reaches is not proved.  It is measured through 32 vertices, and
the tests check it through 18 against an edge-insertion generator that
builds every 3-connected cubic plane graph from K4 and shares no theory
with pushes.  Holton, Manvel and McKay (JCTB 38, 1985) generate the
3-connected cubic bipartite plane graphs upward from the cube by a small
set of expansions, the route to a proof for every size.
"""

from __future__ import annotations

from itertools import chain

from .planarmap import (
    CombMap,
    _bonds,
    _circular_witness,
    _drop_and_rewire,
    _IsoStore,
    _polygonal_decompositions,
    _root_search,
    canonical_key,
    disjoint_union,
    from_rotations,
    validate,
)
from .reducer import invariant


def _check_size(name, value):
    """Vertex counts are even and non-negative."""
    if value < 0 or value % 2:
        raise ValueError(f"{name} must be even and non-negative, got {value}")


def _prism(k):
    """The k-gonal prism: outer vertex i rotates (i+1, k+i, i-1) and
    inner vertex k+i rotates (k+i-1, i, k+i+1), indices mod k."""
    outer = [((i + 1) % k, k + i, (i - 1) % k) for i in range(k)]
    inner = [(k + (i - 1) % k, i, k + (i + 1) % k) for i in range(k)]
    return validate(from_rotations(outer + inner))


# a converse push's new vertices U = (0, 1, 2), V = (3, 4, 5): edges 0-3, 1-5, 2-4
_THETA = validate(CombMap((1, 2, 0, 4, 5, 3), (3, 5, 4, 0, 2, 1)))


def _push_sites(cmap):
    """The sites (x, q) of a map's converse pushes, face by face: x and q
    lie on one face, q after x in the face's tuple, at an odd distance of
    at least 3 both ways round.  Each unordered pair comes once."""
    for face in cmap.faces():
        for i, x in enumerate(face):
            for q in face[i + 3 : i + len(face) - 2 : 2]:
                yield x, q


def _converse_push(both, x, q):
    """The converse pushing move (+2 vertices) at the site (x, q) of a
    parent, given the parent beside `_THETA` as `both`.

    The edges x-y and p-q (y = theta x, p = theta q) give way to new
    vertices U, joined to the ends of x and p, and V, joined to the ends
    of y and q, and to the edge U-V across the face.  Pushing U-V gives
    the parent back.  The site (q, x) gives the same child with U and V
    swapped, so each pair is taken once.

    The face splits into two faces of those distances plus one, so the
    child is bipartite.  It is simple if the face visits no vertex twice,
    as in every 3-connected web; at distance 1, U or V would be joined
    twice to one vertex.  Two edges can only be joined in the plane
    across a face they share, and of the four ways to attach U and V only
    this one embeds, so these are all the converse pushes.  Each is
    `_THETA` beside the parent with four edges re-paired, so
    `_drop_and_rewire`'s no-vertex case builds it, unchecked.
    """
    n = both.map.n_darts - 6
    _, s1, s2, _, t1, t2 = range(n, n + 6)
    y, p = both.map.theta[x], both.map.theta[q]
    return _drop_and_rewire(both, (), ((x, s1), (y, t2), (p, s2), (q, t1)), 0)


def _orbit_pushes(web):
    """The first converse push of each orbit of the web's automorphisms
    on its push sites, in `_push_sites` order.

    A rotation phi keeps every face and the order of its darts, so it
    carries the site (x, q) to the site {phi x, phi q} on the image face.
    A reflection psi carries sigma to sigma^-1 and commutes with theta,
    so it conjugates the face permutation sigma theta into
    sigma^-1 theta = theta (sigma theta)^-1 theta: psi x lies on a face
    of sigma^-1 theta, theta psi x on a face of sigma theta walked
    backwards.  So x and q, on one face at odd distances k and len - k,
    go to theta psi x and theta psi q, on one face at distances len - k
    and k, and the edges x-theta x and q-theta q go to the edges of those
    darts: the site {x, q} goes to {theta psi x, theta psi q}.  Either
    way the push at the image is isomorphic to the push at the site,
    mirror included.

    Before a site's push is built, its orbit is marked by a search over
    the generators of the automorphism group (`planarmap._root_search`,
    read off the map if the web was keyed with reflections),
    each site as (a, b) and (b, a): a face tuple starts at its least
    dart, so an image may be listed either way round.  A marked site's
    push is isomorphic to the push of an earlier site, so it is skipped
    unbuilt.
    """
    cmap = web.map
    theta = cmap.theta
    both = disjoint_union(web, _THETA)
    gens = _root_search(cmap, True)[1] if cmap._gens is None else cmap._gens
    marked = set()
    for site in _push_sites(cmap):
        if site in marked:
            continue
        marked.update((site, site[::-1]))
        todo = [site]
        for x, q in todo:
            for perm, mirror in gens:
                a, b = perm[x], perm[q]
                if mirror:
                    a, b = theta[a], theta[b]
                if (a, b) not in marked:
                    marked.update(((a, b), (b, a)))
                    todo.append((a, b))
        yield _converse_push(both, *site)


def _prime_layers(n):
    """Yield (m, primes of m vertices) for m = 8, 10, ..., n, each layer a
    list in discovery order.

    Layer m holds the (m/2)-gonal prism when 4 divides m, then the first
    3-connected converse push of each class new to it among the pushes of
    layer m - 2.  No prime is keyed here: only the layer printed is keyed;
    `--count` keys none.  The converse pushes of primes are connected and
    simple, so a bond scan decides.  That the prisms are the only primes
    no such push reaches is not proved: it is measured through 32
    vertices and checked by the tests' edge-insertion census through 18.
    The plates are a test oracle (`tests/oracles.py`): the tests check the
    layers against the plates' circular primes through 30 vertices, and
    against their downward closure under pushing moves.

    Each parent contributes one push per orbit of its automorphisms
    (`_orbit_pushes`).  A push left out is isomorphic, mirror included, to
    a push of the same parent built before it, so it has the same bond
    scan and the same class, and it was never the first of its class:
    the layers keep the same representatives in the same order as when
    every push is built.
    """
    below = []
    for m in range(8, n + 1, 2):
        prism = [_prism(m // 2)] if m % 4 == 0 else []
        pushes = (c for w in below for c in _orbit_pushes(w) if not _bonds(c.map))
        store = _IsoStore()
        found = []
        for w in chain(prism, pushes):
            entry = store.entry(w.map)
            if entry.value is None:
                entry.value = w
                found.append(w)
        yield m, found
        below = found


def _last_layer(n):
    """The primes with n vertices, unkeyed, in discovery order."""
    _check_size("the vertex count", n)
    final = []
    for _, final in _prime_layers(n):
        pass
    return final


def all_primes(n):
    """All prime webs with n vertices, sorted by canonical key."""
    return sorted(_last_layer(n), key=canonical_key)


class CatalogEntry:
    """One prime web with its invariant, descriptions and circularness."""

    __slots__ = ("name", "web", "vertex_count", "invariant", "descriptions", "circular")

    def __init__(self, name, web, inv, descriptions, circular):
        self.name = name
        self.web = web
        self.vertex_count = web.n_vertices
        self.invariant = inv
        self.descriptions = descriptions
        self.circular = circular

    def __repr__(self):
        return f"CatalogEntry({self.name}, V={self.vertex_count}, circular={self.circular})"


def build_catalog(n_max):
    """Catalog of all primes with 8..n_max vertices, from one upward pass.

    Names are <n/2>_<i> with i ordered by canonical key.
    """
    _check_size("the maximum vertex count", n_max)
    entries = []
    for m, found in _prime_layers(n_max):
        for i, w in enumerate(sorted(found, key=canonical_key), 1):
            inv = invariant(w)
            # the layers keep 3-connected webs only: no second bond scan
            decs = _polygonal_decompositions(w)
            descs = tuple(sorted(dec.sizes() for dec in decs))
            circular = _circular_witness(w.map, decs) is not None
            entries.append(CatalogEntry(f"{m // 2}_{i}", w, inv, descs, circular))
    return entries
