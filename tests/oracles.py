"""Reference paths that the tests compare the package against.

No CLI command and no engine path runs these.  They build every web
through the checked constructors (`CombMap`, then `validate`), each
child by the one plain surgery helper `rebuild`, so they share no
construction code with the engine's rewiring kernel; a test scans this
file's imports and calls for that.

- the skein relations site by site (`find_all_reducibles`, `reduce_at`,
  `apply_bigon`, `apply_square`) and `invariant_random_order`, which
  reduces at a uniformly random site with no memo, no component
  splitting and no connected-sum factoring;
- the paper's plates: `even_partitions`, `normal_chord_diagrams`,
  `assemble_web` and `circular_primes`, which the census's circular
  primes are tested against;
- `pushing_moves`, the paper's move, by which the tests close the
  circular layers downward;
- `dim_inv` and `is_admissible`, the Clebsch-Gordan dimension recursion
  that the chord-diagram count is tested against;
- `polygon_levels`, the dual-graph BFS that defines circularity;
- `isomorphisms`, every isomorphism between two webs (automorphisms
  included) by extending each image of dart 0, with no rooting and no
  BFS word;
- `relabel`, a map with its darts renamed, built checked;
- `parse_qpoly`, the inverse of `HalfLaurent.pretty`, and
  `is_palindromic`, the symmetry q -> q^(-1) of a polynomial.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from sl3webs.planarmap import CombMap, MapError, validate
from sl3webs.qlaurent import HalfLaurent, qint


def rebuild(web, darts, pairs, circles):
    """`web` without the vertices of `darts`, with each pair of surviving
    darts in `pairs` joined by an edge and `circles` circles added.  The
    surviving darts keep their order, relabelled 0, 1, ...; the result
    is validated."""
    sigma, theta = web.map.sigma, list(web.map.theta)
    for a, b in pairs:
        theta[a], theta[b] = b, a
    gone = {x for d in darts for x in (d, sigma[d], sigma[sigma[d]])}
    kept = [d for d in range(len(sigma)) if d not in gone]
    label = {d: i for i, d in enumerate(kept)}
    # a survivor whose partner was dropped gets -1, which CombMap rejects
    cmap = CombMap([label[sigma[d]] for d in kept], [label.get(theta[d], -1) for d in kept])
    return validate(cmap, web.circles + circles)


def relabel(cmap, newlab):
    """The map with each dart d renamed newlab[d]."""
    n = cmap.n_darts
    sigma = [0] * n
    theta = [0] * n
    for d in range(n):
        sigma[newlab[d]] = newlab[cmap.sigma[d]]
        theta[newlab[d]] = newlab[cmap.theta[d]]
    return CombMap(sigma, theta)


# -- the skein relations -------------------------------------------------------


class Site(NamedTuple):
    """A reduction site: a circle, or a dart on a bigon or square face."""

    kind: str
    site: int | None = None


def find_all_reducibles(web):
    """Every applicable site: the circle first, then faces by least dart."""
    out = [Site("circle")] if web.circles else []
    for face in web.map.faces():
        if len(face) in (2, 4):
            out.append(Site("bigon" if len(face) == 2 else "square", face[0]))
    return out


def _face_and_legs(web, site, kind, size):
    """The darts of the face through `site` and the leg sigma(d) that
    leaves the face at each of its vertices."""
    cmap = web.map
    face = cmap.faces()[cmap.face_table()[site]]
    if len(face) != size:
        raise MapError(f"dart {site} does not lie on a {kind} face")
    return face, tuple(cmap.sigma[d] for d in face)


def _smooth(web, face, legs, arcs):
    """Remove a face's vertices, joining its legs along the given arcs.

    A strand runs from leg to leg, alternately along an arc and along an
    edge between two legs; a strand with free ends becomes a new edge, a
    closed one a circle.
    """
    theta = web.map.theta
    arc = dict(arcs) | {b: a for a, b in arcs}
    left = set(legs)
    pairs = []
    for l in legs:
        if l in left and theta[l] not in arc:
            d = l
            while True:
                left -= {d, arc[d]}
                if theta[arc[d]] not in arc:
                    break
                d = theta[arc[d]]
            pairs.append((theta[l], theta[arc[d]]))
    circles = 0
    while left:
        circles += 1
        d = left.pop()
        while arc[d] in left:
            left.discard(arc[d])
            d = theta[arc[d]]
            left.discard(d)
    return rebuild(web, face, pairs, circles)


def apply_bigon(web, site):
    """Contract a degree-2 face; factor -[2].  Its two legs join, or close
    into a circle when they are one edge (the theta web)."""
    face, (a, b) = _face_and_legs(web, site, "bigon", 2)
    return _smooth(web, face, (a, b), ((a, b),)), -qint(2)


def apply_square(web, site):
    """The two planar smoothings of a degree-4 face: one joins legs (0, 1)
    and (2, 3), the other (1, 2) and (3, 0)."""
    face, legs = _face_and_legs(web, site, "square", 4)
    child_a = _smooth(web, face, legs, ((legs[0], legs[1]), (legs[2], legs[3])))
    child_b = _smooth(web, face, legs, ((legs[1], legs[2]), (legs[3], legs[0])))
    return child_a, child_b


def reduce_at(web, red):
    """Apply the relation at one site: [(child, factor), ...], whose
    weighted sum of invariants is the invariant of `web`."""
    if red.kind == "circle":
        return [(validate(web.map, web.circles - 1), qint(3))]
    if red.kind == "bigon":
        return [apply_bigon(web, red.site)]
    if red.kind == "square":
        one = HalfLaurent.one()
        return [(child, one) for child in apply_square(web, red.site)]
    raise ValueError(f"unknown relation kind {red.kind!r}")


def invariant_random_order(web, rand):
    """Evaluate with uniformly random site choices; no memo, no component
    splitting."""
    sites = find_all_reducibles(web)
    if not sites:
        if web.map.n_darts or web.circles:
            raise MapError("stuck on a nonempty web")
        return HalfLaurent.one()
    red = sites[rand.randrange(len(sites))]
    return sum(factor * invariant_random_order(child, rand) for child, factor in reduce_at(web, red))


# -- the census ----------------------------------------------------------------


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


def normal_chord_diagrams(plate):
    """All non-crossing perfect matchings of the plate boundary with no
    chord inside one side; the count is dim Inv(V_a1 x ... x V_aN) for the
    plate's sides a1, ..., aN (`dim_inv`).

    The matchings of each interval [lo, hi) are memoized per plate, so an
    interval that admits none is ruled out once.  A matching of [lo, hi)
    is the chord (lo, q), then a matching of (lo, q), then one of
    (q, hi): every diagram comes out as a sorted chord tuple, ordered by
    q, then by the inner matching, then by the outer one.
    """
    side = [i for i, a in enumerate(plate) for _ in range(a)]
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
    chords become the connector edges.  Boundary point p is a vertex with
    darts 3p, 3p + 1 and 3p + 2, rotating ccw to the next point of its
    polygon, the chord partner and the previous point, which reproduces
    the disk drawing: chords inside, cut edges through the exterior face.
    """
    total = sum(plate)
    partner = {}
    for p, q in diagram:
        partner[p] = q
        partner[q] = p
    if sorted(partner) != list(range(total)):
        raise MapError("diagram is not a perfect matching of the plate")
    sigma, theta = [], []
    start = 0
    for a in plate:
        for j in range(a):
            p = 3 * (start + j)
            sigma += [p + 1, p + 2, p]
            # p is the previous point of its next point, and so on
            theta += [3 * (start + (j + 1) % a) + 2, 3 * partner[start + j] + 1, 3 * (start + (j - 1) % a)]
        start += a
    return validate(CombMap(sigma, theta))


def _three_connected(cmap):
    """Whether a connected cubic plane map is 3-edge-connected, which for
    a cubic graph is 3-connected: an edge set is a minimal cut iff its
    dual edges form a cycle, so a bridge has one face on both sides and
    the two edges of a 2-edge cut separate the same two faces."""
    fof = cmap.face_table()
    sides = [frozenset((fof[d], fof[t])) for d, t in cmap.edges()]
    return min(map(len, sides), default=2) == 2 and len(set(sides)) == len(sides)


def _shape(cmap):
    """An isomorphism invariant that buckets webs: each vertex's sorted
    face lengths, sorted."""
    flen = cmap.face_lengths()
    return tuple(sorted(tuple(sorted(flen[d] for d in v)) for v in cmap.vertices()))


# n -> the circular primes of n vertices, in plate order
_CIRCULAR_CACHE = {}


def circular_primes(n):
    """The circular primes of n vertices: the connected 3-connected plate
    webs, one per isomorphism class (mirror included, told apart by
    `isomorphisms`), the first of each in the order of the plates and
    their diagrams."""
    if n not in _CIRCULAR_CACHE:
        classes = {}
        found = []
        for plate in even_partitions(n):
            for diagram in normal_chord_diagrams(plate):
                w = assemble_web(plate, diagram)
                if len(w.map.components()) != 1 or not _three_connected(w.map):
                    continue
                bucket = classes.setdefault(_shape(w.map), [])
                if not any(next(_isomorphisms(w, b), None) for b in bucket):
                    bucket.append(w)
                    found.append(w)
        _CIRCULAR_CACHE[n] = found
    return list(_CIRCULAR_CACHE[n])


def pushing_moves(web):
    """Apply the pushing move at every edge; -2 vertices per result.

    At an edge u-v the two endpoints vanish, their remaining same-side
    strands fuse pairwise (the planar, color-respecting reconnection),
    leaving two fresh edges A-B and C-D.  Returns the child of every site
    whose child is a simple web; sites with parallel edges at u or v are
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
        out.append(rebuild(web, (d, t), ((ends[0], ends[1]), (ends[2], ends[3])), 0))
    return out


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


def polygon_levels(web, dec, exterior_face):
    """Dual-graph distance from each polygon of `dec` to the exterior face."""
    if exterior_face in dec.polygon_faces:
        raise MapError("exterior face must not be a polygon of the decomposition")
    cmap = web.map
    adj = [set() for _ in cmap.faces()]
    fof = cmap.face_table()
    for d, t in cmap.edges():
        f, g = fof[d], fof[t]
        adj[f].add(g)
        adj[g].add(f)
    dist = {exterior_face: 0}
    queue = [exterior_face]  # grows while it is read
    for f in queue:
        for g in adj[f]:
            if g not in dist:
                dist[g] = dist[f] + 1
                queue.append(g)
    return {p: dist[p] for p in dec.polygon_faces}


def isomorphisms(w1, w2, include_reflections=True):
    """Every isomorphism of a connected web onto another as (perm, mirror)
    pairs, by brute force: dart 0 goes to each dart of w2 in turn, and the
    map is extended along sigma and theta, or along sigma^-1 and theta for
    a mirror map.  An extension that contradicts itself or is no
    bijection is dropped.  isomorphisms(w, w) are w's automorphisms."""
    return list(_isomorphisms(w1, w2, include_reflections))


def _isomorphisms(w1, w2, include_reflections=True):
    m1, m2 = w1.map, w2.map
    if w1.circles != w2.circles or m1.n_darts != m2.n_darts:
        return
    n = m1.n_darts
    if n == 0:
        yield (), False
        return
    inverse = [0] * n
    for d, s in enumerate(m2.sigma):
        inverse[s] = d
    rotations = ((False, m2.sigma), (True, inverse)) if include_reflections else ((False, m2.sigma),)
    for mirror, rot in rotations:
        for image in range(n):
            perm = {0: image}
            stack = [0]
            ok = True
            while stack and ok:
                d = stack.pop()
                for a, b in ((m1.sigma[d], rot[perm[d]]), (m1.theta[d], m2.theta[perm[d]])):
                    if a not in perm:
                        perm[a] = b
                        stack.append(a)
                    elif perm[a] != b:
                        ok = False
                        break
            if ok and len(perm) == n and len(set(perm.values())) == n:
                yield tuple(perm[d] for d in range(n)), mirror


# -- polynomials ---------------------------------------------------------------

_QPOLY_TERM = re.compile(
    r"\s*(?P<sign>[+-]?)\s*(?P<coeff>\d+)?"
    r"(?:(?P<q>q)(?:\^(?:(?P<int>-?\d+)|\((?P<num>-?\d+)/2\)))?)?"
)


def parse_qpoly(text):
    """Parse the raw monomial form produced by HalfLaurent.pretty()."""
    pos = 0
    total = HalfLaurent.zero()
    if text.strip() == "0":
        return total
    first = True
    while text[pos:].strip():
        m = _QPOLY_TERM.match(text, pos)
        if m.end() == pos or (m.group("coeff") is None and m.group("q") is None):
            raise ValueError(f"expected a monomial at position {pos}")
        if not first and not m.group("sign"):
            raise ValueError(f"missing '+' or '-' between terms at position {pos}")
        sign = -1 if m.group("sign") == "-" else 1
        coeff = int(m.group("coeff")) if m.group("coeff") else 1
        if m.group("int") is not None:
            k = 2 * int(m.group("int"))
        elif m.group("num") is not None:
            k = int(m.group("num"))
        else:
            k = 2 if m.group("q") else 0
        total = total + HalfLaurent({k: sign * coeff})
        pos = m.end()
        first = False
    if first:
        raise ValueError("empty expression")
    return total


def is_palindromic(p):
    """True when p is invariant under q -> q^(-1)."""
    terms = dict(p.items())
    return all(terms.get(-k) == c for k, c in terms.items())
