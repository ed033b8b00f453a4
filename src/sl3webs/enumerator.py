"""Generation of all prime webs up to a vertex budget.

Circular primes come from plates: cut every polygon of a circular
decomposition open along its unique edge on the exterior face and the web
flattens to a marked polygon (the plate) whose chords are the third-color
edges.  Enumerating plates (cyclic even partitions, parts >= 4) and their
normal chord diagrams (non-crossing, no same-side chord) and re-gluing
yields every circular prime of a given size.  Non-circular primes are
reached from larger circular ones by pushing moves, which drop the vertex
count by two; closing the union of circular layers under pushing and
filtering yields all primes.

The Clebsch-Gordan recursion for dim Inv(V_a1 x ... x V_aN) counts normal
chord diagrams independently and cross-checks the enumeration.
"""

from __future__ import annotations

import bisect

from .planarmap import (
    CombMap,
    MapError,
    canonical_key,
    connectivity,
    edge_3_coloring,
    from_rotations,
    is_circular,
    validate,
)
from .reducer import _drop_and_rewire, invariant


def _check_size(name, value):
    """Vertex counts and slacks are even and non-negative."""
    if value < 0 or value % 2:
        raise ValueError(f"{name} must be even and non-negative, got {value}")


def default_slack(n):
    """Smallest even integer >= n/8 (each level needs two more polygons)."""
    s = -(-n // 8)
    return s + (s % 2)


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


_CIRCULAR_CACHE = {}


def circular_primes(n):
    """All circular prime webs with n vertices, canonically deduplicated."""
    _check_size("the vertex count", n)
    if n in _CIRCULAR_CACHE:
        return list(_CIRCULAR_CACHE[n])
    found = {}
    for plate in even_partitions(n):
        for diagram in normal_chord_diagrams(plate):
            # simple by construction: from_rotations rejects repeated neighbours
            web = assemble_web(plate, diagram)
            if len(web.map.components()) != 1:
                continue
            if connectivity(web) != 3:
                continue
            found.setdefault(canonical_key(web), web)
    webs = [found[k] for k in sorted(found)]
    _CIRCULAR_CACHE[n] = webs
    return list(webs)


def pushing_moves_with_sites(web):
    """Apply the pushing move at every edge; -2 vertices per result.

    At an edge u-v the two endpoints vanish, their remaining same-side
    strands fuse pairwise (the planar, color-respecting reconnection),
    leaving two fresh edges A-B and C-D.  Returns (child, (dart of fused
    edge 1, dart of fused edge 2)) per site whose child is a simple web;
    sites with parallel edges at u or v and invalid embeddings are
    discarded.

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
        pairs = ((ends[0], ends[1]), (ends[2], ends[3]))
        try:
            child = _drop_and_rewire(web, (u, v), pairs, 0)
        except MapError:
            continue
        # locate the fused edges after compaction
        dropped = sorted(cmap.vertices()[u] + cmap.vertices()[v])
        sites = tuple(x - bisect.bisect_left(dropped, x) for x in (ends[0], ends[2]))
        out.append((child, sites))
    return out


def pushing_moves(web):
    return [child for child, _ in pushing_moves_with_sites(web)]


def converse_pushing_moves(web, e_fused_a, e_fused_b):
    """All valid inverse pushing moves at a pair of edges (+2 vertices).

    Splits both edges, joins the new vertices, and keeps every end
    orientation that embeds; used to check the two moves are converse.
    """
    cmap = web.map
    n = cmap.n_darts
    results = []
    x0, y0 = e_fused_a, cmap.theta[e_fused_a]
    p0, q0 = e_fused_b, cmap.theta[e_fused_b]
    for x, y in ((x0, y0), (y0, x0)):
        for p, q in ((p0, q0), (q0, p0)):
            duv, s1, s2, dvu, t1, t2 = range(n, n + 6)
            sigma = list(cmap.sigma) + [s1, s2, duv, t1, t2, dvu]
            theta = list(cmap.theta) + [dvu, x, p, duv, q, y]
            theta[x] = s1
            theta[y] = t2
            theta[p] = s2
            theta[q] = t1
            try:
                results.append(validate(CombMap(sigma, theta)))
            except MapError:
                continue
    return results


def _prime_layers(top, bottom):
    """Yield (m, {canonical key: web}) for m = top, top-2, ..., bottom.

    Layer m holds the circular primes of size m plus the 3-connected
    pushes of every web in layer m + 2 (pushes are simple already).
    """
    above = {}
    for m in range(top, bottom - 2, -2):
        found = {canonical_key(w): w for w in circular_primes(m)}
        for w in above.values():
            for child in pushing_moves(w):
                if connectivity(child) == 3:
                    found.setdefault(canonical_key(child), child)
        yield m, found
        above = found


def all_primes(n, slack=None):
    """All prime webs with n vertices: circular layers n..n+slack closed
    downward under pushing moves, keeping prime intermediates."""
    _check_size("the vertex count", n)
    if slack is None:
        slack = default_slack(n)
    _check_size("the slack", slack)
    final = dict(_prime_layers(n + slack, n))[n]
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


def build_catalog(n_max, slack=2):
    """Catalog of all primes with 8..n_max vertices.

    One downward closure from n_max + slack covers every size: pushes of
    every kept prime (circular or not) land two vertices lower, so
    non-circular primes below the top are reached through prime chains.
    The default top slack of 2 is the known bound f(20) = 22 for the
    reference range.  Names are <n/2>_<i> with i ordered by canonical key.
    """
    _check_size("the maximum vertex count", n_max)
    _check_size("the slack", slack)
    per_size = {
        m: [found[k] for k in sorted(found)]
        for m, found in _prime_layers(n_max + slack, 8)
        if m <= n_max
    }
    entries = []
    for m in sorted(per_size):
        for i, w in enumerate(per_size[m], 1):
            inv = invariant(w)
            descs = tuple(sorted(dec.sizes() for dec in edge_3_coloring(w)))
            entries.append(CatalogEntry(f"{m // 2}_{i}", w, inv, descs, is_circular(w)))
    return entries
