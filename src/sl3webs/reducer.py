"""The skein-reduction engine.

Evaluates the quantum sl(3) invariant of a closed web by applying the three
local relations until nothing is left: a vertexless circle contributes [3],
a bigon face contracts with factor -[2], and a square face splits into its
two planar smoothings with unit coefficients.  Every nonempty web admits a
move (all faces are even, so Euler's formula forces a face of degree <= 4)
and every move strictly shrinks (vertices, circles), so reduction
terminates.  Values are memoized on reflection-inclusive canonical keys,
which is sound because the invariant is mirror-invariant.  The memo is
bucketed by a cheap shape of the map (its faces, each by the lengths of
its neighbouring faces), itself invariant under relabelling and mirroring:
a web whose shape bucket is empty is a certain miss and is stored unkeyed,
and canonical keys are computed only when a probe shares a bucket.
"""

from __future__ import annotations

import array
from typing import NamedTuple

from .planarmap import CombMap, MapError, Web, canonical_key, face_lengths, validate
from .qlaurent import HalfLaurent, qint

CIRCLE_FACTOR = qint(3)
BIGON_FACTOR = -qint(2)


class Reducible(NamedTuple):
    """A reduction site: a circle, or a dart on a bigon/square face."""

    kind: str
    site: int | None = None

    def __repr__(self):
        return f"Reducible({self.kind}, site={self.site})"


_PRIORITY = ("circle", "bigon", "square")


def find_reducible(web):
    """Highest-priority site: circle, else bigon, else square (least dart).

    Returns None exactly when the web is empty.
    """
    sites = find_all_reducibles(web)
    if sites:
        return min(sites, key=lambda red: _PRIORITY.index(red.kind))
    if web.map.n_darts:
        raise MapError("no reducible face; input was not a valid closed web")
    return None


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


def _drop_and_rewire(web, drop_vertices, new_pairs, extra_circles):
    """Remove whole vertex orbits, re-pair the named surviving darts.

    `new_pairs` lists (d, d') theta pairs for surviving darts whose former
    partners are dropped.  Dart labels are compacted preserving order: the
    survivors are the runs between the sorted dropped darts, and a dropped
    dart maps to -1.
    """
    cmap = web.map
    verts = cmap.vertices()
    dropped = sorted({d for v in drop_vertices for d in verts[v]})
    old2new = []
    sigma = []
    theta = []
    start = 0
    # the sentinel n_darts closes the last run; its -1 in old2new is never read
    for k, d in enumerate(dropped + [cmap.n_darts]):
        old2new.extend(range(start - k, d - k))
        old2new.append(-1)
        sigma += cmap.sigma[start:d]
        theta += cmap.theta[start:d]
        start = d + 1
    for a, b in new_pairs:
        theta[old2new[a]] = b
        theta[old2new[b]] = a
    sigma = list(map(old2new.__getitem__, sigma))
    theta = list(map(old2new.__getitem__, theta))
    if -1 in theta:
        raise MapError(f"dart {old2new.index(theta.index(-1))} left dangling by surgery")
    return validate(CombMap(sigma, theta), web.circles + extra_circles)


def apply_circle(web, site=None):
    """Remove one vertexless circle; factor [3]."""
    if web.circles < 1:
        raise MapError("no circle to remove")
    return web.with_circles(web.circles - 1), CIRCLE_FACTOR


def _face_from(web, site):
    faces = web.map.faces()
    return faces[web.map.face_of(site)]


def apply_bigon(web, site):
    """Contract a degree-2 face; factor -[2].

    The two bigon vertices disappear and their outside edges splice into
    one; if those outside edges coincide (theta graph), a circle appears.
    """
    face = _face_from(web, site)
    if len(face) != 2:
        raise MapError(f"dart {site} does not lie on a bigon face")
    cmap = web.map
    d1, d2 = face
    u = cmap.vertex_of(d1)
    v = cmap.vertex_of(d2)
    if u == v:
        raise MapError("bigon face with a single vertex; not a valid web")
    u_darts = set(cmap.vertices()[u])
    v_darts = set(cmap.vertices()[v])
    x = (u_darts - {d1, cmap.theta[d2]}).pop()
    y = (v_darts - {d2, cmap.theta[d1]}).pop()
    if cmap.theta[x] == y:
        # third parallel edge: the whole component closes into a circle
        new = _drop_and_rewire(web, (u, v), (), 1)
    else:
        new = _drop_and_rewire(web, (u, v), ((cmap.theta[x], cmap.theta[y]),), 0)
    return new, BIGON_FACTOR


def _smooth(web, verts, legs, arcs):
    """Remove the square vertices, joining legs along the given arcs.

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
    return _drop_and_rewire(web, verts, new_pairs, circles)


def apply_square(web, site):
    """Split a degree-4 face into its two planar smoothings.

    Walking the face cycle d0..d3, vertex k carries the outside leg
    sigma(d_k); one smoothing joins legs (0,1) and (2,3), the other (1,2)
    and (3,0).  Both children lose exactly the four square vertices.
    """
    face = _face_from(web, site)
    if len(face) != 4:
        raise MapError(f"dart {site} does not lie on a square face")
    cmap = web.map
    verts = tuple(cmap.vertex_of(d) for d in face)
    if len(set(verts)) != 4:
        raise MapError("square face with repeated vertices; not a cubic web")
    legs = tuple(cmap.sigma[d] for d in face)
    child_a = _smooth(web, verts, legs, ((legs[0], legs[1]), (legs[2], legs[3])))
    child_b = _smooth(web, verts, legs, ((legs[1], legs[2]), (legs[3], legs[0])))
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


class LinearCombination:
    """The engine's working state: weighted webs plus a scalar accumulator.

    Represents sum(coeff * P(web)) + accumulator; every step rewrites one
    term by a relation and preserves the represented element, so reducing
    to an empty term list leaves P of the starting web in the accumulator.
    """

    __slots__ = ("terms", "accumulator")

    def __init__(self, terms=(), accumulator=None):
        self.terms = list(terms)
        self.accumulator = HalfLaurent.zero() if accumulator is None else accumulator

    @classmethod
    def start(cls, web):
        return cls([(web, HalfLaurent.one())])

    def is_done(self):
        return not self.terms

    def value(self):
        if self.terms:
            raise MapError("reduction is not finished")
        return self.accumulator

    def step(self, index=0, site=None):
        """Rewrite one term (default: the first, at its priority site)."""
        web, coeff = self.terms.pop(index)
        red = find_reducible(web) if site is None else site
        if red is None:
            self.accumulator = self.accumulator + coeff
            return
        self.terms.extend((child, coeff * factor) for child, factor in reduce_at(web, red))

    def reduce_fully(self):
        while self.terms:
            self.step()
        return self.accumulator

    def represented_value(self):
        """Evaluate the current state with the memoized engine (testing
        hook for the conservation invariant)."""
        total = self.accumulator
        for web, coeff in self.terms:
            total = total + coeff * invariant(web)
        return total


# shape -> entries of that shape, in insertion order
_MEMO = {}


class _Entry:
    """A memoized value with the canonical key of its web, or, until a
    probe of the same shape needs that key, the web's map as `_pack`ed
    bytes."""

    __slots__ = ("key", "blob", "value")

    def __init__(self, key, blob, value):
        self.key = key
        self.blob = blob
        self.value = value


def clear_memo():
    _MEMO.clear()


def _shape(cmap):
    """Hash of the sorted faces, each given by the sorted lengths of the
    faces across its edges.

    Equal for isomorphic maps, mirror images included; it hashes ints and
    tuples only, so it does not depend on PYTHONHASHSEED.  A collision only
    costs canonical keys, never a wrong value.
    """
    flen = face_lengths(cmap)
    theta = cmap.theta
    return hash(tuple(sorted(tuple(sorted([flen[theta[d]] for d in face])) for face in cmap.faces())))


def _pack(cmap):
    return array.array("i", cmap.sigma + cmap.theta).tobytes()


def _unpack(blob):
    """The web `_pack` stored; its map was validated when first built."""
    darts = array.array("i")
    darts.frombytes(blob)
    n = len(darts) // 2
    return Web(CombMap(darts[:n], darts[n:]), 0, _checked=True)


def _reduce(web):
    red = find_reducible(web)
    if red is None:
        return HalfLaurent.one()
    return sum(factor * invariant(child) for child, factor in reduce_at(web, red))


def invariant(web):
    """The quantum sl(3) invariant P of a closed web.

    Handles circles, multi-edges and disconnected webs; deterministic and
    memoized across calls.
    """
    result = HalfLaurent.one()
    if web.circles:
        result = CIRCLE_FACTOR**web.circles
        web = web.with_circles(0)
    comps = web.map.components()
    if len(comps) == 0:
        return result
    if len(comps) > 1:
        for comp in comps:
            result = result * invariant(validate(web.map.restrict(comp)))
        return result
    shape = _shape(web.map)
    bucket = _MEMO.get(shape)
    if bucket is None:
        # no stored web has this shape, so none is isomorphic: skip the key
        value = _reduce(web)
        _MEMO.setdefault(shape, []).append(_Entry(None, _pack(web.map), value))
        return result * value
    key = canonical_key(web, include_reflections=True)
    for entry in bucket:
        if entry.key is None:
            entry.key = canonical_key(_unpack(entry.blob), include_reflections=True)
            entry.blob = None
        if entry.key == key:
            return result * entry.value
    value = _reduce(web)
    bucket.append(_Entry(key, None, value))
    return result * value


def invariant_random_order(web, rng):
    """Evaluate with uniformly random site choices; no memo, no component
    splitting.  An independent evaluation path for confluence checks."""
    sites = find_all_reducibles(web)
    if not sites:
        if not web.is_empty():
            raise MapError("stuck on a nonempty web")
        return HalfLaurent.one()
    red = sites[rng.randrange(len(sites))]
    return sum(factor * invariant_random_order(child, rng) for child, factor in reduce_at(web, red))


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
