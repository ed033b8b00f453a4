"""Generation of all prime webs up to a vertex budget.

Circular primes come from plates: cut every polygon of a circular
decomposition open along its unique edge on the exterior face and the web
flattens to a marked polygon (the plate) whose chords are the third-color
edges.  Enumerating plates (cyclic even partitions, parts >= 4) and their
normal chord diagrams (non-crossing, no same-side chord) and re-gluing
yields every circular prime of a given size.

The paper reaches the non-circular primes from larger circular ones by
pushing moves, which drop the vertex count by two.  Here the layers are
built upward from the cube instead: layer n holds the circular primes of
size n and the 3-connected converse pushes, across a face, of layer
n - 2.  No web above n is assembled, and no seed budget above n is
guessed.  Each layer is deduplicated through a `planarmap` isomorphism
store, circular primes first, and only the primes kept are keyed: the
canonical key orders them and names them in the catalog.  That every
prime is reached this way is not proved.  The evidence is that both
paths agree: the tests close the circular layers from 30 vertices
downward under pushing moves and get the same primes at every size up
to 26, and they pin the upward counts through 30.  Holton,
Manvel and McKay (JCTB 38, 1985) generate the 3-connected cubic bipartite
plane graphs upward from the cube by a small set of expansions; the
converse pushing move has not been checked against their operations.

The Clebsch-Gordan recursion for dim Inv(V_a1 x ... x V_aN) counts normal
chord diagrams independently and cross-checks the enumeration.
"""

from __future__ import annotations

from .planarmap import (
    CombMap,
    MapError,
    _bonds,
    _circular_witness,
    _drop_and_rewire,
    _IsoStore,
    canonical_key,
    connectivity,
    disjoint_union,
    edge_3_coloring,
    from_rotations,
    validate,
)
from .reducer import invariant


def _check_size(name, value):
    """Vertex counts are even and non-negative."""
    if value < 0 or value % 2:
        raise ValueError(f"{name} must be even and non-negative, got {value}")


def even_partitions(n):
    """Plates of total size n: cyclic tuples of even parts >= 4, up to
    rotation and reflection.  Two-sided plates only exist with equal sides
    (no normal diagram otherwise), one-sided plates not at all.
    """
    if n < 0 or n % 2:
        raise ValueError("plate sizes are even and non-negative")
    plates = set()

    def canon(seq):
        best = None
        for s in (seq, tuple(reversed(seq))):
            for i in range(len(s)):
                rot = s[i:] + s[:i]
                if best is None or rot < best:
                    best = rot
        return best

    def extend(prefix, remaining):
        if remaining == 0:
            if len(prefix) >= 3:
                plates.add(canon(tuple(prefix)))
            return
        for part in range(4, remaining + 1, 2):
            if remaining - part != 0 and remaining - part < 4:
                continue
            prefix.append(part)
            extend(prefix, remaining - part)
            prefix.pop()

    extend([], n)
    if n >= 8 and (n // 2) % 2 == 0:
        plates.add((n // 2, n // 2))
    return sorted(plates)


def is_admissible(a, b, c):
    """Triangle condition |a-b| <= c <= a+b for even weights."""
    for w in (a, b, c):
        if w < 0 or w % 2:
            raise ValueError("weights must be even and non-negative")
    return abs(a - b) <= c <= a + b


def dim_inv(weights):
    """dim Inv(V_w1 x ... x V_wN) by the Clebsch-Gordan recursion.

    Fuses factors left to right; the intermediate weight w contributes
    whenever (prev, next, w) is admissible, and only finitely many w occur.
    """
    weights = list(weights)
    for w in weights:
        if w < 0 or w % 2:
            raise ValueError("weights must be even and non-negative")
    if not weights:
        return 1
    if len(weights) == 1:
        return 1 if weights[0] == 0 else 0
    if len(weights) == 2:
        return 1 if weights[0] == weights[1] else 0
    state = {weights[0]: 1}
    for a in weights[1:-1]:
        nxt = {}
        for w, count in state.items():
            for w2 in range(abs(w - a), w + a + 1, 2):
                nxt[w2] = nxt.get(w2, 0) + count
        state = nxt
    return state.get(weights[-1], 0)


def _side_index(plate):
    sides = []
    for i, a in enumerate(plate):
        sides.extend([i] * a)
    return sides


def normal_chord_diagrams(plate):
    """All non-crossing perfect matchings of the plate boundary with no
    chord inside one side; the count equals dim_inv(plate).

    The matchings of each interval [lo, hi) are memoized per plate, so an
    interval that admits none is ruled out once.  A matching of [lo, hi)
    is the chord (lo, q), then a matching of (lo, q), then one of
    (q, hi): every diagram comes out as a sorted chord tuple, ordered by
    q, then by the inner matching, then by the outer one.
    """
    side = _side_index(plate)
    return list(_matchings(side, 0, len(side), {}))


def _matchings(side, lo, hi, memo):
    if lo == hi:
        return ((),)
    found = memo.get((lo, hi))
    if found is None:
        found = memo[lo, hi] = tuple(
            ((lo, q),) + inner + outer
            for q in range(lo + 1, hi, 2)
            if side[q] != side[lo]
            for inner in _matchings(side, lo + 1, q, memo)
            for outer in _matchings(side, q + 1, hi, memo)
        )
    return found


def assemble_web(plate, diagram):
    """Re-glue a plate and a normal chord diagram into a web.

    Each side's points close back into a polygon (the cut edge restored);
    chords become the connector edges.  At boundary point p the ccw
    rotation is (next point of its polygon, chord partner, previous
    point), which reproduces the disk drawing: chords inside, cut edges
    through the exterior face.
    """
    total = sum(plate)
    partner = {}
    for p, q in diagram:
        partner[p] = q
        partner[q] = p
    if sorted(partner) != list(range(total)):
        raise MapError("diagram is not a perfect matching of the plate")
    rotations = []
    start = 0
    for a in plate:
        for j in range(a):
            p = start + j
            nxt = start + (j + 1) % a
            prv = start + (j - 1) % a
            rotations.append([nxt, partner[p], prv])
        start += a
    return validate(from_rotations(rotations))


def _first_of_each_class(webs, seen=()):
    """The first web of each isomorphism class among `webs`, in order,
    skipping the classes of the webs in `seen`."""
    store = _IsoStore()
    for w in seen:
        store.entry(w.map).value = w
    for w in webs:
        entry = store.entry(w.map)
        if entry.value is None:
            entry.value = w
            yield w


# n -> {canonical key: circular prime of n vertices}, in key order
_CIRCULAR_CACHE = {}
# a converse push's new vertices U = (0, 1, 2), V = (3, 4, 5): edges 0-3, 1-5, 2-4
_THETA = validate(CombMap((1, 2, 0, 4, 5, 3), (3, 5, 4, 0, 2, 1)))


def circular_primes(n):
    """All circular prime webs with n vertices, one per isomorphism class,
    sorted by canonical key."""
    _check_size("the vertex count", n)
    if n not in _CIRCULAR_CACHE:
        # simple by construction: from_rotations rejects repeated neighbours
        webs = (assemble_web(p, d) for p in even_partitions(n) for d in normal_chord_diagrams(p))
        primes = (w for w in webs if len(w.map.components()) == 1 and connectivity(w) == 3)
        keyed = {canonical_key(w): w for w in _first_of_each_class(primes)}
        _CIRCULAR_CACHE[n] = {k: keyed[k] for k in sorted(keyed)}
    return list(_CIRCULAR_CACHE[n].values())


def pushing_moves(web):
    """Apply the pushing move at every edge; -2 vertices per result.

    At an edge u-v the two endpoints vanish, their remaining same-side
    strands fuse pairwise (the planar, color-respecting reconnection),
    leaving two fresh edges A-B and C-D.  Returns the child of every site
    whose child is a simple web; sites with parallel edges at u or v are
    discarded.  The fused strands run inside the disk of the edge and
    each joins a neighbour of u to one of v, so the child is cubic,
    bipartite and plane by construction and is built unchecked.

    Simplicity is decided from the parent's adjacency before any surgery.
    The child keeps the parent's edges away from u and v and gains A-B
    and C-D, so it is simple iff every parallel pair of the parent
    touches u or v, and neither new edge parallels a parent edge
    (which survives, as A, B, C, D are not u or v) or the other new edge.
    A and C neighbour u, B and D neighbour v, so in a bipartite web no
    edge is a loop and A-B can only repeat C-D as (A, B) = (C, D).
    """
    cmap = web.map
    sigma, theta = cmap.sigma, cmap.theta
    vof = cmap.vertex_table()
    adjacent = set()
    parallel = set()  # ordered vertex pairs joined by two or more edges
    for d, t in enumerate(theta):
        pair = (vof[d], vof[t])
        if pair in adjacent:
            parallel.add(pair)
        adjacent.add(pair)
    out = []
    for d, t in cmap.edges():
        u, v = vof[d], vof[t]
        if any(u not in p and v not in p for p in parallel):
            continue
        s1, s2 = sigma[d], sigma[sigma[d]]
        t1, t2 = sigma[t], sigma[sigma[t]]
        ends = (theta[s1], theta[t2], theta[s2], theta[t1])
        va, vb, vc, vd = (vof[x] for x in ends)
        if {va, vb, vc, vd} & {u, v}:
            continue  # parallel edges at the site
        if (va, vb) in adjacent or (vc, vd) in adjacent or (va, vb) == (vc, vd):
            continue
        out.append(_drop_and_rewire(web, (d, t), ((ends[0], ends[1]), (ends[2], ends[3])), 0))
    return out


def converse_pushing_moves(web):
    """Every converse pushing move of a web (+2 vertices per result).

    Take darts x and q of one face whose distance along it is odd and at
    least 3 both ways round.  The edges x-y and p-q (y = theta x,
    p = theta q) give way to new vertices U, joined to the ends of x and
    p, and V, joined to the ends of y and q, and to the edge U-V across
    the face.  Pushing U-V gives the parent back.

    The face splits into two faces of those distances plus one, so the
    child is bipartite.  It is simple if the face visits no vertex twice,
    as in every 3-connected web; at distance 1, U or V would be joined
    twice to one vertex.  Two edges can only be joined in the plane
    across a face they share, and of the four ways to attach U and V only
    this one embeds, so these are all the converse pushes.  Each is the
    theta web `_THETA` beside the parent with four edges re-paired, so
    `_drop_and_rewire`'s no-vertex case builds it, unchecked.
    """
    cmap = web.map
    both = disjoint_union(web, _THETA)
    _, s1, s2, _, t1, t2 = range(cmap.n_darts, cmap.n_darts + 6)
    results = []
    for face in cmap.faces():
        for i, x in enumerate(face):
            for q in face[i + 3 : i + len(face) - 2 : 2]:
                y, p = cmap.theta[x], cmap.theta[q]
                results.append(_drop_and_rewire(both, (), ((x, s1), (y, t2), (p, s2), (q, t1)), 0))
    return results


def _prime_layers(n):
    """Yield (m, {canonical key: web}) for m = 8, 10, ..., n.

    Layer m holds the circular primes of size m, then the first
    3-connected converse push of each class new to it among the pushes of
    layer m - 2, so circular primes keep the representatives plate
    assembly gives them, and only the pushes kept are keyed.  The converse
    pushes of primes are connected and simple, so a bond scan decides.  That
    this reaches every prime is not proved: it agrees with the downward
    closure of the circular layers under pushing moves in the tests.
    """
    below = {}
    for m in range(8, n + 1, 2):
        circular_primes(m)  # fills the cache with the layer's keys
        circular = _CIRCULAR_CACHE[m]
        pushes = (c for w in below.values() for c in converse_pushing_moves(w) if not _bonds(c.map))
        found = dict(circular)
        found.update((canonical_key(c), c) for c in _first_of_each_class(pushes, circular.values()))
        yield m, found
        below = found


def all_primes(n):
    """All prime webs with n vertices, sorted by canonical key."""
    _check_size("the vertex count", n)
    final = {}
    for _, final in _prime_layers(n):
        pass
    return [final[k] for k in sorted(final)]


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
        for i, key in enumerate(sorted(found), 1):
            w = found[key]
            inv = invariant(w)
            decs = edge_3_coloring(w)
            descs = tuple(sorted(dec.sizes() for dec in decs))
            circular = _circular_witness(w.map, decs) is not None
            entries.append(CatalogEntry(f"{m // 2}_{i}", w, inv, descs, circular))
    return entries
