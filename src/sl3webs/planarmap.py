"""Combinatorial maps (rotation systems) on the sphere.

A map is a pair of permutations on darts 0..2E-1: an edge involution
pairing each dart with its opposite, and the counterclockwise successor
around each vertex.  Faces are the orbits of dart -> sigma[theta[dart]];
this convention is fixed globally (both conventions work, mixing them does
not).  Embeddings are input, never computed: genus 0 is checked through
Euler's formula per component.

A Web is a cubic bipartite genus-0 map plus a count of vertexless
circles, validated on input, or derived unchecked from webs by moves
that keep those properties.  Multi-edges are allowed (they arise
mid-reduction); loops never pass validation since they are odd cycles.
"""

from __future__ import annotations

import array
import bisect
import itertools
import struct
from collections import Counter
from operator import itemgetter, mul


class MapError(ValueError):
    pass


class FormatError(MapError):
    """Malformed SIMPLE/DART text; carries the 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NotCubic(MapError):
    def __init__(self, dart, degree):
        super().__init__(f"vertex of dart {dart} has degree {degree}, expected 3")
        self.dart = dart


class NotBipartite(MapError):
    def __init__(self, face):
        super().__init__(f"odd face through vertices {list(face)}")
        self.face = tuple(face)


class NonPlanarEmbedding(MapError):
    def __init__(self, genus, dart):
        super().__init__(f"component of dart {dart} has genus {genus}")
        self.genus = genus
        self.dart = dart


def _orbits(perm):
    """Cycles of a permutation, each started at its least element."""
    n = len(perm)
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        cyc = []
        d = start
        while not seen[d]:
            seen[d] = True
            cyc.append(d)
            d = perm[d]
        out.append(tuple(cyc))
    return tuple(out)


class CombMap:
    """A dart-based rotation system; immutable after construction."""

    __slots__ = (
        "sigma", "theta", "_vertices", "_vertex_of", "_faces", "_face_of", "_face_len",
        "_components", "_factors", "_shape", "_face_sums", "_fresh", "_gens",
    )

    def __init__(self, sigma, theta):
        sigma = tuple(sigma)
        theta = tuple(theta)
        n = len(sigma)
        if len(theta) != n:
            raise MapError("sigma and theta must act on the same darts")
        if n % 2:
            raise MapError("odd number of darts")
        if sorted(sigma) != list(range(n)):
            raise MapError("sigma is not a permutation of the darts")
        for d in range(n):
            t = theta[d]
            if not 0 <= t < n or t == d or theta[t] != d:
                raise MapError(f"theta is not a fixed-point-free involution at dart {d}")
        self._fill(sigma, theta, None)

    @classmethod
    def _trusted(cls, sigma, theta, faces):
        """A map from tuples the caller guarantees to be a permutation and a
        fixed-point-free involution, with its face orbits as `faces()` would
        return them; nothing is checked."""
        cmap = cls.__new__(cls)
        cmap._fill(sigma, theta, faces)
        return cmap

    def _fill(self, sigma, theta, faces):
        self.sigma = sigma
        self.theta = theta
        self._vertices = None
        self._vertex_of = None
        self._faces = faces
        self._face_of = None
        self._face_len = None
        self._components = None
        self._factors = None  # reducer.factorize's result, kept by it
        self._shape = self._face_sums = None  # `_shape`'s hash and per-face sums
        self._fresh = None  # a skein child's new faces, for `_bonds`
        self._gens = None  # automorphism generators, kept by `canonical_key`

    @property
    def n_darts(self):
        return len(self.sigma)

    @property
    def n_edges(self):
        return len(self.sigma) // 2

    def vertices(self):
        if self._vertices is None:
            self._vertices = _orbits(self.sigma)
        return self._vertices

    @property
    def n_vertices(self):
        return len(self.vertices())

    def vertex_table(self):
        """The list dart -> index of its vertex orbit (cached)."""
        if self._vertex_of is None:
            vof = [0] * self.n_darts
            for i, orbit in enumerate(self.vertices()):
                for d in orbit:
                    vof[d] = i
            self._vertex_of = vof
        return self._vertex_of

    def vertex_of(self, dart):
        return self.vertex_table()[dart]

    def faces(self):
        """Face cycles: orbits of dart -> sigma[theta[dart]]."""
        if self._faces is None:
            sigma, theta = self.sigma, self.theta
            phi = [sigma[theta[d]] for d in range(self.n_darts)]
            self._faces = _orbits(phi)
        return self._faces

    def face_table(self):
        """The list dart -> index of its face orbit (cached)."""
        if self._face_of is None:
            fof = [0] * self.n_darts
            for i, orbit in enumerate(self.faces()):
                for d in orbit:
                    fof[d] = i
            self._face_of = fof
        return self._face_of

    def face_lengths(self):
        """The list dart -> length of its face (cached)."""
        if self._face_len is None:
            flen = [0] * self.n_darts
            for face in self.faces():
                k = len(face)
                for d in face:
                    flen[d] = k
            self._face_len = flen
        return self._face_len

    def edges(self):
        """Edges as (d, theta[d]) with d < theta[d], sorted."""
        return [(d, self.theta[d]) for d in range(self.n_darts) if d < self.theta[d]]

    def components(self):
        """Connected components as sorted dart tuples."""
        if self._components is None:
            sigma, theta = self.sigma, self.theta
            seen = [False] * len(sigma)
            comps = []
            for start in range(len(sigma)):
                if seen[start]:
                    continue
                seen[start] = True
                comp = [start]
                # the list grows while it is iterated, so it is its own queue
                for d in comp:
                    x = sigma[d]
                    if not seen[x]:
                        seen[x] = True
                        comp.append(x)
                    x = theta[d]
                    if not seen[x]:
                        seen[x] = True
                        comp.append(x)
                comp.sort()
                comps.append(tuple(comp))
            self._components = tuple(comps)
        return self._components

    def genus_by_component(self):
        """(genus, witness dart) per component via V - E + F = 2 - 2g.

        Vertex and face orbits are counted per component, each by the
        component of its first dart; a connected map needs no count.
        """
        comps = self.components()
        if len(comps) == 1:
            vcount = [len(self.vertices())]
            fcount = [len(self.faces())]
        else:
            comp_of = [0] * self.n_darts
            for i, comp in enumerate(comps):
                for d in comp:
                    comp_of[d] = i
            vcount = [0] * len(comps)
            fcount = [0] * len(comps)
            for orbit in self.vertices():
                vcount[comp_of[orbit[0]]] += 1
            for orbit in self.faces():
                fcount[comp_of[orbit[0]]] += 1
        out = []
        for comp, v, f in zip(comps, vcount, fcount):
            euler = v - len(comp) // 2 + f
            if euler % 2:
                raise MapError("non-integral genus; corrupt map")
            out.append(((2 - euler) // 2, comp[0]))
        return out

    def restrict(self, darts):
        """Submap on a dart subset closed under sigma and theta.

        Built unchecked, keeping the map's faces relabelled: a closed
        subset restricts sigma and theta to a permutation and an involution
        of it and holds each face wholly or not at all, and relabelling
        preserves dart order, so each face still starts at its least dart.
        A dart whose image leaves the subset raises MapError.
        """
        darts = sorted(set(darts))
        lab = {d: i for i, d in enumerate(darts)}
        try:
            sigma = tuple([lab[self.sigma[d]] for d in darts])
            theta = tuple([lab[self.theta[d]] for d in darts])
        except KeyError:
            d = next(d for d in darts if {self.sigma[d], self.theta[d]} - lab.keys())
            raise MapError(f"dart {d} has an image outside the dart subset") from None
        faces = tuple(tuple([lab[d] for d in face]) for face in self.faces() if face[0] in lab)
        return CombMap._trusted(sigma, theta, faces)

    def __eq__(self, other):
        return (
            isinstance(other, CombMap)
            and self.sigma == other.sigma
            and self.theta == other.theta
        )

    def __hash__(self):
        return hash((self.sigma, self.theta))

    def __repr__(self):
        return f"CombMap(V={self.n_vertices}, E={self.n_edges})"


def from_rotations(neighbors):
    """Build a CombMap of a simple graph from 0-based ccw neighbor lists."""
    slot = {}
    dart = 0
    for v, nbs in enumerate(neighbors):
        if len(set(nbs)) != len(nbs):
            raise MapError(f"vertex {v}: duplicate neighbor (multi-edges need DART form)")
        for u in nbs:
            if u == v:
                raise MapError(f"vertex {v}: loop")
            slot[(v, u)] = dart
            dart += 1
    sigma = [0] * dart
    theta = [0] * dart
    d = 0
    for v, nbs in enumerate(neighbors):
        base = d
        for j, u in enumerate(nbs):
            sigma[base + j] = base + (j + 1) % len(nbs)
            partner = slot.get((u, v))
            if partner is None:
                raise MapError(f"edge {v}-{u} has no reciprocal entry at vertex {u}")
            theta[base + j] = partner
        d += len(nbs)
    return CombMap(sigma, theta)


class Web:
    """A cubic bipartite genus-0 map with a circle counter.

    Construct through :func:`validate`, or from webs, unchecked, in this
    module: by the rewiring kernel `_drop_and_rewire`, which keeps a web
    cubic, bipartite and plane, `components`, `disjoint_union`, `mirror`
    and `canonical_form`.  Either way every component of a Web is plane.
    """

    __slots__ = ("map", "circles")

    def __init__(self, cmap, circles, _checked=False):
        if not _checked:
            raise MapError("Webs must be built by validate() or by trusted skein surgery")
        self.map = cmap
        self.circles = circles

    @property
    def n_vertices(self):
        return self.map.n_vertices

    @property
    def n_edges(self):
        return self.map.n_edges

    def is_simple(self):
        """No two edges join the same pair of vertices.

        A web is bipartite, so it has no loop, and cubic, so the darts d,
        sigma d, sigma^2 d of a vertex lead to three distinct vertices iff
        every dart's far end differs from its sigma-successor's.
        """
        cmap = self.map
        vof = cmap.vertex_table()
        far = [vof[t] for t in cmap.theta]
        return all(far[d] != far[s] for d, s in enumerate(cmap.sigma))

    def components(self):
        """The map's components as circle-free webs, unchecked, each known connected."""
        parts = tuple(Web(self.map.restrict(c), 0, _checked=True) for c in self.map.components())
        for part in parts:
            part.map._components = (tuple(range(part.map.n_darts)),)
        return parts

    def with_circles(self, circles):
        if circles < 0:
            raise MapError("negative circle count")
        return Web(self.map, circles, _checked=True)

    def __repr__(self):
        return f"Web(V={self.n_vertices}, E={self.n_edges}, circles={self.circles})"


def validate(cmap, circles=0):
    """Check cubic, genus 0 per component, bipartite; return the Web."""
    if circles < 0:
        raise MapError("negative circle count")
    for orbit in cmap.vertices():
        if len(orbit) != 3:
            raise NotCubic(orbit[0], len(orbit))
    for genus, dart in cmap.genus_by_component():
        if genus != 0:
            raise NonPlanarEmbedding(genus, dart)
    # a plane map is bipartite iff every face is even: the face boundaries
    # span the cycle space, so an odd cycle forces an odd face
    for face in cmap.faces():
        if len(face) % 2:
            raise NotBipartite([cmap.vertex_of(d) for d in face])
    return Web(cmap, circles, _checked=True)


def mirror(web):
    """Reverse every vertex rotation, unchecked; an involution up to isomorphism."""
    sigma = web.map.sigma  # a web is cubic, so sigma o sigma inverts sigma
    return Web(CombMap._trusted(tuple([sigma[s] for s in sigma]), web.map.theta, None), web.circles, _checked=True)


# -- canonical form ----------------------------------------------------------


def _rotations(cmap, include_reflections):
    """The (rot, flen, ftheta) triples the canonical BFS runs on.

    rot is sigma, and also its inverse when reflections are included;
    flen is the length of the rot-face at each dart, faces being the
    orbits of rot o theta, and ftheta that length at theta of each dart.
    """
    sigma = cmap.sigma
    flen = cmap.face_lengths()
    ftheta = [flen[t] for t in cmap.theta]
    rotations = [(sigma, flen, ftheta)]
    if include_reflections:
        # webs are cubic, so sigma^-1 = sigma o sigma; the sigma^-1 face of
        # d is theta of the sigma face of theta d, since
        # (sigma^-1 theta)^-1 = theta (sigma theta) theta, so its face
        # lengths at d and at theta d are ftheta[d] and flen[d]
        rotations.append(([sigma[s] for s in sigma], ftheta, flen))
    return rotations


def _least_roots(rotations):
    """The least local class of a connected map and its (rotation, root)
    pairs, given the map's `_rotations`.

    The class of a pair is the face lengths at (d, theta d, rot d,
    theta rot d).  An isomorphism, mirror or not, carries faces to faces
    of the matching rotation, so it preserves the class: the least class
    is an invariant of the map, and an isomorphism carries the pairs of
    one map's least class onto the other's.  Pairs are listed by
    rotation, then by dart.

    rot d = (rot o theta)(theta d) lies on the face of theta d, so the
    second and third lengths are equal, and the class is packed into one
    int as the digits flen[d], ftheta[d], ftheta[rot d] in base n + 1 (a
    face has at most n darts), which orders like the 4-tuples among maps
    of n darts.  The least class starts with the least face length, so
    only the darts on faces of that length are classed.
    """
    base = len(rotations[0][0]) + 1
    least = base**3  # above every class
    roots = []
    for rot, flen, ftheta in rotations:
        m = min(flen)
        darts = [d for d, f in enumerate(flen) if f == m]
        top = m * base**2
        classes = [top + ftheta[d] * base + ftheta[rot[d]] for d in darts]
        low = min(classes)
        if low < least:
            least, roots = low, []
        if low == least:
            roots += [(rot, d) for d, cls in zip(darts, classes) if cls == low]
    return least, roots


def _rooted_word(theta, rot, root, lab, ref=None, descend=True):
    """BFS-label the component of `root` and emit its word: (order, word).

    Darts are labeled in discovery order from the root, following rot,
    then theta; the word is (label[rot[d]], label[theta[d]]) for darts in
    label order, a complete isomorphism invariant of the rooted
    component.  `lab` must be -1 on the component; the labeled darts are
    returned as `order`, for the caller to reset.

    Without `ref` every label is emitted.  With it, the labels are
    compared with ref's while they tie, and a tie over all of ref returns
    ref itself.  At the first differing pair the root is abandoned (word
    None), unless the pair is smaller and `descend` is set: then the word
    is ref's prefix and that pair, and the rest is labeled with no
    comparisons.
    """
    lab[root] = 0
    order = [root]
    push = order.append
    nxt = 1
    darts = iter(order)  # the BFS queue: order grows while it is read
    if ref is None:
        word = []
    else:
        pairs = iter(ref)
        for d, b, c in zip(darts, pairs, pairs):
            x = rot[d]
            l = lab[x]
            if l < 0:
                l = lab[x] = nxt
                nxt += 1
                push(x)
            x = theta[d]
            m = lab[x]
            if m < 0:
                m = lab[x] = nxt
                nxt += 1
                push(x)
            if l == b and m == c:
                continue
            if not descend or l > b or (l == b and m > c):
                return order, None
            # strictly below from here on; lab[d] is d's position
            word = ref[: 2 * lab[d]]
            word.append(l)
            word.append(m)
            break
        else:
            return order, ref
    emit = word.append
    for d in darts:
        x = rot[d]
        l = lab[x]
        if l < 0:
            l = lab[x] = nxt
            nxt += 1
            push(x)
        x = theta[d]
        m = lab[x]
        if m < 0:
            m = lab[x] = nxt
            nxt += 1
            push(x)
        emit(l)
        emit(m)
    return order, word


def _root_search(cmap, include_reflections):
    """Least BFS word of a connected map over the roots of its least local
    class, generators of its automorphism group and the group's order:
    (word, generators, order).

    The least class is an invariant, so the least word over its pairs is
    still a complete one.  Each root compares with the best word while it
    ties with its prefix and is abandoned at the first larger label; once
    it falls strictly below (and for the first root) it labels the rest
    with no comparisons and becomes the best.  Between roots only the
    darts the previous root labeled are reset.

    The search is pruned by the automorphisms it finds (B. D. McKay,
    "Practical graph isomorphism", 1981).
    Equal words mean an automorphism: the map from the best root's BFS
    order onto a tying root's, label by label, commutes with theta and
    carries the best root's rotation to the tying root's, so it is an
    automorphism, mirror iff the two rotations differ.  It is kept as a
    (perm, mirror) generator, and every root is united with its image in
    a union-find over the roots, each class under its least root.  A
    root's word is the word of its whole orbit, since an automorphism
    carries the BFS of a root onto the BFS of its image; so a root whose
    class holds an earlier root, one tried or in a class with one tried,
    would repeat a tried word and is skipped.

    The generators generate the whole group.  An automorphism carries the
    best root to a root with the best word, which was tried and tied, or
    skipped for a class holding a root of that word; either way it joined
    the best root's class.  Only the identity fixes a root, as an
    automorphism is fixed by the image of one dart and the rotation it
    goes to, so the best root's class has the group's order.
    """
    theta = cmap.theta
    n = len(theta)
    _, roots = _least_roots(_rotations(cmap, include_reflections))
    mirrored = [rot is not cmap.sigma for rot, _ in roots]
    up = list(range(len(roots)))

    def find(i):
        while up[i] != i:
            up[i] = i = up[up[i]]
        return i

    best = index = None
    gens = []
    lab = [-1] * n
    order = ()
    for i, (rot, root) in enumerate(roots):
        if up[i] != i:  # an earlier root shares i's class
            continue
        for d in order:
            lab[d] = -1
        order, word = _rooted_word(theta, rot, root, lab, best)
        if word is None:
            continue
        if word is not best:
            best, first, place = word, i, lab[:]
            continue
        perm = tuple(map(order.__getitem__, place))
        flip = mirrored[i] != mirrored[first]
        gens.append((perm, flip))
        if index is None:
            index = {(m, d): j for j, (m, (_, d)) in enumerate(zip(mirrored, roots))}
        for j, (_, d) in enumerate(roots):
            a, b = find(j), find(index[mirrored[j] != flip, perm[d]])
            if a != b:
                up[max(a, b)] = min(a, b)
    top = find(first)
    return best, gens, sum(1 for j in range(len(roots)) if find(j) == top)


def _canonical_data(web, include_reflections):
    """(key bytes, word) per component.  A component of several is read
    from its restriction, which keeps the dart order, so its roots and
    words are those it has inside the whole map.

    The automorphism generators that the search with reflections finds on
    a connected web are kept on its map (`_gens`), where the census reads
    them: the catalog keys a layer before it pushes from it, so each prime
    is searched once.
    """
    cmap = web.map
    comps = cmap.components()
    parts = [cmap] if len(comps) == 1 else [cmap.restrict(comp) for comp in comps]
    out = []
    for part in parts:
        word, gens, _ = _root_search(part, include_reflections)
        if include_reflections:
            part._gens = gens
        out.append((array.array("i", word).tobytes(), word))
    return out


def canonical_key(web, include_reflections=True):
    """Byte key equal for two webs iff they are isomorphic maps on the
    sphere (up to reflection when include_reflections is set), with equal
    circle counts."""
    parts = sorted(k for k, _ in _canonical_data(web, include_reflections))
    blob = b"".join(len(p).to_bytes(4, "big") + p for p in parts)
    return web.circles.to_bytes(4, "big") + len(parts).to_bytes(4, "big") + blob


def isomorphic(w1, w2, include_reflections=True):
    return canonical_key(w1, include_reflections) == canonical_key(w2, include_reflections)


def _require_connected(web, need):
    """Raise MapError(need) naming the web's vertex and component counts
    unless it is one component, which has vertices."""
    n_comps = len(web.map.components())
    if n_comps != 1:
        raise MapError(f"{need}, got {web.n_vertices} vertices in {n_comps} components")


def automorphism_count(web, include_reflections=True):
    """Order of the dart-automorphism group of a connected web, or of its
    subgroup that keeps the rotation: the size of the least root's class
    in `_root_search`."""
    _require_connected(web, "automorphism_count needs a connected web with vertices")
    return _root_search(web.map, include_reflections)[2]


def canonical_form(web, include_reflections=True):
    """Relabel to the canonical representative (components key-sorted).

    A component's canonical word lists (label[rot[d]], label[theta[d]]) in
    label order, so it is the relabeled component's sigma and theta
    interleaved, and the relabelled web is built unchecked.
    """
    sigma_out = []
    theta_out = []
    for _, word in sorted(_canonical_data(web, include_reflections), key=lambda t: t[0]):
        off = len(sigma_out)
        sigma_out.extend(l + off for l in word[0::2])
        theta_out.extend(l + off for l in word[1::2])
    return Web(CombMap._trusted(tuple(sigma_out), tuple(theta_out), None), web.circles, _checked=True)


def disjoint_union(w1, w2):
    """Place two webs side by side, unchecked; the second's darts and faces are offset."""
    off = w1.map.n_darts
    sigma = w1.map.sigma + tuple([d + off for d in w2.map.sigma])
    theta = w1.map.theta + tuple([d + off for d in w2.map.theta])
    faces = w1.map.faces() + tuple(tuple([d + off for d in face]) for face in w2.map.faces())
    return Web(CombMap._trusted(sigma, theta, faces), w1.circles + w2.circles, _checked=True)


# -- isomorphism store -------------------------------------------------------


class _Entry:
    """A stored map's value and its packed labels, sigma then theta, with
    its packed face lengths until a probe of the same shape roots the
    entry: then the map's least root class and the BFS word of its first
    root of that class, packed as the labels are."""

    __slots__ = ("labels", "flen", "least", "word", "value")

    def __init__(self, cmap):
        n = cmap.n_darts
        self.labels = _pack(n, cmap.sigma + cmap.theta)
        self.flen = _pack(n, cmap.face_lengths())
        self.least = self.word = self.value = None

    def root(self):
        """Root the entry, dropping its face lengths."""
        cmap = _unpack(self)
        n = cmap.n_darts
        self.least, roots = _rooting(cmap)
        rot, root = roots[0]
        self.word = array.array(_code(n), _pack(n, _rooted_word(cmap.theta, rot, root, [-1] * n)[1]))
        self.flen = None


def _code(n):
    """The struct code of the narrowest int that holds the labels and face
    lengths of a map of n darts, all at most n: int16 below 2^15 darts."""
    return "h" if n < 1 << 15 else "i"


def _pack(n, values):
    """Ints of a map of n darts, at most n each, packed by `_code(n)`."""
    return struct.pack(f"{len(values)}{_code(n)}", *values)


_SHAPE_MOD = (1 << 61) - 1
_WEIGHTS = []  # _WEIGHTS[k] == _weight(k), as far as a map has needed


def _weight(k):
    """The weight of a face of length k: the top 30 bits of splitmix64(k),
    a fixed mix, short enough that sums of weights stay small ints."""
    mask = (1 << 64) - 1
    z = (k + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return (z ^ (z >> 31)) >> 34


def _weights(n):
    """The weights of the face lengths up to n at least (a map of n darts
    has no longer face).  The table grows by one assignment of a whole
    recomputed, doubled table, so each index always holds its own weight,
    whoever else reads or grows it."""
    if len(_WEIGHTS) <= n:
        _WEIGHTS[:] = map(_weight, range(2 * n + 2))
    return _WEIGHTS


def _shape(cmap):
    """The map's shape: the sum mod 2^61 - 1 of hash((k, s, s * s)) over
    its faces, k the face's length and s its neighbour sum, the sum of the
    weights (`_weights`) of the lengths of the faces across its edges.

    The faces, each with the multiset of its neighbours' lengths, are
    invariant under relabelling and mirroring, and so is the shape.  A
    tuple of ints hashes without PYTHONHASHSEED, by CPython's fixed tuple
    hash.  Its rounds (multiply, rotate) are nearly additive in each item,
    so a sum of hash((k, s)) lets two faces trade neighbours unnoticed;
    the item s * s makes each term nonlinear in s.  Equal shapes of
    different face multisets are then chance collisions, which cost only
    rooted matches, never a wrong answer.

    Being a sum of per-face terms, the shape can be updated: a skein child
    of a known prime (`_child_faces`) carries the neighbour sums
    (`_face_sums`) and its shape, changed only at the faces its surgery
    made and their neighbours.  Any other map computes both here, once.
    """
    if cmap._shape is None:
        flen = cmap.face_lengths()
        across = itemgetter(*itemgetter(*cmap.theta)(flen))(_weights(len(flen)))
        faces = cmap.faces()
        # a face has two darts or more, so itemgetter returns a tuple
        cmap._face_sums = sums = [sum(itemgetter(*face)(across)) for face in faces]
        cmap._shape = _sum_shape(faces, sums)
    return cmap._shape


def _sum_shape(faces, sums):
    """The shape from the faces and their neighbour sums.  Summed in C,
    the terms of a few dozen faces cost less than subtracting and adding
    the changed ones."""
    return sum(map(hash, zip(map(len, faces), sums, map(mul, sums, sums)))) % _SHAPE_MOD


def _unpack(entry):
    """The map an unrooted `_Entry` packed, unchecked: it was a web's map.
    Its face lengths come with it, so rooting it walks no face."""
    # the 2n labels take 4n bytes at int16; int32 is used from 2^15 darts,
    # where a quarter of their 8n bytes is past 2^15 too
    code = _code(len(entry.labels) // 4)
    labels = memoryview(entry.labels).cast(code).tolist()
    n = len(labels) // 2
    cmap = CombMap._trusted(tuple(labels[:n]), tuple(labels[n:]), None)
    cmap._face_len = memoryview(entry.flen).cast(code).tolist()
    return cmap


def _rooting(cmap):
    """The least local class of a connected map and its (rotation, root)
    pairs, mirror rotations included."""
    return _least_roots(_rotations(cmap, True))


def _rooted_match(cmap, least, word):
    """Whether `word` is the BFS word of one of a connected map's roots.

    `least` and `word` are a rooted entry's least class and the word of
    its first root of that class.  This holds iff the two maps are
    isomorphic, mirror included: an isomorphism carries the entry's root
    to a root of the same class, and equal words relabel one map into the
    other.  So only the roots of that class are tried, sigma's first and
    then the mirror rotation's, built only if those fail; each root is
    abandoned at its first label that differs.  The class digits are read
    as `_least_roots` packs them.
    """
    theta = cmap.theta
    n = len(theta)
    if len(word) != 2 * n:
        return False
    base = n + 1
    top, mid, low = least // base**2, least // base % base, least % base
    flen = cmap.face_lengths()
    sigma = cmap.sigma
    # the darts on faces of length top; their theta images lie on mirror
    # faces of that length
    ends = [d for face in cmap.faces() if len(face) == top for d in face]

    def mirror_roots():
        rot = [sigma[s] for s in sigma]
        for d in map(theta.__getitem__, ends):
            if flen[d] == mid and flen[rot[d]] == low:
                yield rot, d

    roots = itertools.chain(
        ((sigma, d) for d in ends if flen[theta[d]] == mid and flen[theta[sigma[d]]] == low), mirror_roots()
    )
    lab = [-1] * n
    order = ()
    for rot, root in roots:
        for d in order:
            lab[d] = -1
        order, got = _rooted_word(theta, rot, root, lab, word, descend=False)
        if got is word:
            return True
    return False


class _IsoStore(dict):
    """Connected maps up to isomorphism, mirror included, each with a
    value: shape -> entries of that shape, in insertion order.

    A probe first looks up the hash of its labels (sigma, theta) in
    `by_labels`, which maps the labels' hash of each entry to the entry; it
    is a hit iff the entry's packed labels equal the probe's byte for byte,
    so a hash collision only costs the shape path.  A tuple of ints hashes
    without PYTHONHASHSEED.

    Otherwise the shape decides: the shape (`_shape`, a sum over the faces
    of a hash of each face's length and its neighbours' lengths) is
    invariant under relabelling and mirroring, so a map whose bucket is
    empty is a certain miss.  Being a sum of per-face terms, it is carried
    by a skein child from its parent, updated where the surgery changed
    faces, so a probe of such a child costs no scan of the web.  A miss is
    stored as its packed labels and face lengths, which is all that
    rooting it later reads.  An entry a probe meets in a shared bucket is
    rooted once: it keeps its least root class and the BFS word of its
    first root of that class, and a probe is a hit iff the BFS from one of
    its own roots of that class, either rotation, reproduces the word.
    The probe itself is never classed: only its darts of the entry's class
    are read.  No canonical form is computed: each root is abandoned at
    its first differing label.
    """

    def __init__(self):
        super().__init__()
        self.by_labels = {}

    def entry(self, cmap):
        """The entry of the stored map isomorphic to a connected map, or
        else a new stored entry for it with value None."""
        key = hash((cmap.sigma, cmap.theta))
        found = self.by_labels.get(key)
        if found is not None and found.labels == _pack(cmap.n_darts, cmap.sigma + cmap.theta):
            return found
        bucket = self.setdefault(_shape(cmap), [])
        for entry in bucket:
            if entry.word is None:
                entry.root()
            if _rooted_match(cmap, entry.least, entry.word):
                return entry
        entry = _Entry(cmap)
        bucket.append(entry)
        self.by_labels[key] = entry
        return entry


# -- connectivity ------------------------------------------------------------


def _bonds(cmap):
    """The 2-bonds of a connected web, sorted, edges named by least dart.

    A web has no bridge.  Every edge joins the two colour classes, so
    were an edge a bridge, the side X holding its end of class a would
    have 3|X_a| - 1 edge ends in X_a and 3|X_b| in X_b; both count the
    edges inside X, yet they differ mod 3.  By planar duality an
    edge set is a minimal cut iff its dual edges form a cycle, so a
    2-bond is a pair of edges separating the same two faces.

    So the scan pairs each dart's face with the face across its edge, as
    read off the cached face table.  When all pairs are distinct, every
    face meets each neighbour across one edge and there is no bond: one
    set build, and no face is walked.  Otherwise each face f that meets
    a face g across several edges groups those edges, read from the
    lesser face of the two (no face meets itself across an edge, which
    would be a bridge).

    A skein child of a known prime (`_child_faces`) lists its new faces,
    and a bond of it runs through one (see `reducer.factorize`).  So when
    each new face meets every neighbour across one edge, there is no bond
    and only the new faces' darts are read.
    """
    fof = cmap.face_table()
    theta = cmap.theta
    if cmap._fresh is not None:
        faces = cmap.faces()
        for i in cmap._fresh:
            across = itemgetter(*itemgetter(*faces[i])(theta))(fof)
            if len(set(across)) < len(across):
                break
        else:
            return []
    sides = list(zip(fof, map(fof.__getitem__, theta)))
    if len(set(sides)) == len(sides):
        return []
    faces = cmap.faces()
    out = []
    for (f, g), count in Counter(sides).items():
        if count > 1 and f < g:
            group = sorted(min(d, theta[d]) for d in faces[f] if fof[theta[d]] == g)
            out += itertools.combinations(group, 2)
    out.sort()
    return out


def _drop_and_rewire(web, darts, new_pairs, extra_circles):
    """Remove the vertices of the given darts, re-pair the named survivors.

    `new_pairs` lists (d, d') theta pairs of surviving darts, whose former
    partners are dropped (a smoothing or a push) or re-paired (a split, a
    connected sum or a converse push, which drop nothing).  A vertex is the
    sigma-orbit d, sigma d, sigma^2 d of each given dart.  Dart labels are
    compacted preserving order: the survivors are the runs between the
    sorted dropped darts, and a dropped dart maps to -1.  With nothing
    dropped every label is kept, so sigma is the parent's.

    Callers join the outside legs of a face (or of an edge) inside its
    disk, or re-pair edges of one web or of a disjoint union in their
    rotation slots, so the child is cubic, bipartite and plane by
    construction and is built unchecked.  Its faces are inherited from the
    parent's, and a child of a known prime, which in the engine is a
    square's smoothing, inherits its face lengths and memo shape too
    (`_child_faces`).
    """
    cmap = web.map
    sigma0 = cmap.sigma
    dropped = sorted([x for d in darts for x in (d, sigma0[d], sigma0[sigma0[d]])])
    if dropped:
        old2new, sigma, theta, start = [], [], [], 0
        # the sentinel n_darts closes the last run; its -1 in old2new is never read
        for k, d in enumerate(dropped + [cmap.n_darts]):
            if start < d:  # a vertex's darts may be adjacent labels
                old2new += range(start - k, d - k)
                sigma += sigma0[start:d]
                theta += cmap.theta[start:d]
            old2new.append(-1)
            start = d + 1
    else:
        old2new, sigma, theta = range(cmap.n_darts), sigma0, list(cmap.theta)
    for a, b in new_pairs:
        theta[old2new[a]] = b
        theta[old2new[b]] = a
    if dropped:
        # a child has no darts or six at least, and itemgetter of two or
        # more builds the tuple at its final size, in C
        sigma, theta = (itemgetter(*sigma)(old2new), itemgetter(*theta)(old2new)) if sigma else ((), ())
        if -1 in theta:
            raise MapError(f"dart {old2new.index(theta.index(-1))} left dangling by surgery")
    child = CombMap._trusted(sigma, tuple(theta), None)
    _child_faces(cmap, child, dropped, old2new, new_pairs)
    return Web(child, web.circles + extra_circles, _checked=True)


def _child_faces(cmap, child, dropped, old2new, new_pairs):
    """Give the child its face orbits, equal to a fresh `faces()`.  A child
    of a known prime (its `_factors` is ()) with a shape, which in the
    engine is a square's smoothing, also gets its face lengths, its
    neighbour sums and shape (`_shape`) and the numbers of its new faces
    (`_fresh`, which `_bonds` reads), each equal to a fresh computation.

    A surviving dart that is not re-paired keeps its face successor
    sigma(theta(d)), so a parent face through no dropped or re-paired dart
    survives, and relabelled in order it still starts at its least dart.
    Every other child face passes through a re-paired dart and is walked
    afresh.  With nothing dropped every label is kept.

    So the parent's faces split into the touched ones, which the surgery
    removes, and the kept ones; a surviving dart of a touched face lies on
    a new face.  The face lengths are the parent's, sliced along the
    survivor runs as sigma is, with the new faces' darts overwritten.  A
    kept face's neighbour sum changes only at its edges to a new face, by
    the weight of the new length minus that of the old, and a new face's
    sum is read off its own edges.  So the work is the new faces' darts,
    not the web; the shape is then summed from the faces' terms in C.  The
    face table is not carried: renumbering the parent's costs as much as
    building it, which only a child the memo misses does.
    """
    sigma, theta = child.sigma, child.theta
    fof = cmap.face_table()
    # the touched faces' numbers, highest first, so deleting them in turn
    # leaves the lower ones in place
    gone = sorted({fof[d] for d in itertools.chain(dropped, *new_pairs)}, reverse=True)
    faces = list(cmap.faces())
    for i in gone:
        del faces[i]
    if dropped:
        # a face has two or more darts, so itemgetter builds a tuple at its final
        # size; tuple(map(...)) over-allocates, leaving free lists nothing drains
        faces = [itemgetter(*face)(old2new) for face in faces]
    seen = set()
    new = []
    for pair in new_pairs:
        for d in pair:
            d = old2new[d]
            if d in seen:
                continue
            cycle = []
            while d not in seen:
                seen.add(d)
                cycle.append(d)
                d = sigma[theta[d]]
            k = cycle.index(min(cycle))
            new.append(tuple(cycle[k:] + cycle[:k]))
    sums0 = cmap._face_sums
    if cmap._factors != () or sums0 is None:
        faces += new
        faces.sort()
        child._faces = tuple(faces)
        return
    flen0 = cmap.face_lengths()
    flen, was, start = [], [], 0  # the parent's face lengths and numbers
    for d in dropped + [cmap.n_darts]:
        if start < d:
            flen += flen0[start:d]
            was += fof[start:d]
        start = d + 1
    weight = _weights(len(sigma))
    sums = list(sums0)
    for face in new:
        size = len(face)
        for d in face:
            if flen[d] != size:
                if theta[d] not in seen:
                    # the kept face across the edge now sees size, not flen[d]
                    sums[was[theta[d]]] += weight[size] - weight[flen[d]]
                flen[d] = size
    for i in gone:
        del sums[i]
    child._fresh = fresh = []
    for face in sorted(new):
        # faces, sums and fresh stay in order, the earlier new faces in place
        k = bisect.bisect(faces, face[0], key=itemgetter(0))
        faces.insert(k, face)
        across = itemgetter(*itemgetter(*face)(theta))(flen)
        sums.insert(k, sum(itemgetter(*across)(weight)))
        fresh.append(k)
    child._faces = tuple(faces)
    child._face_len = flen
    child._face_sums = sums
    child._shape = _sum_shape(faces, sums)


def split(web, cut):
    """Cut at a disconnecting edge pair; each side is closed by a new edge.

    The no-vertex case of `_drop_and_rewire`: re-pairing the cut darts in
    their rotation slots keeps genus 0, and a side holds one cut end of
    each colour (3|X_a| - k_a = 3|X_b| - k_b, k_a + k_b = 2).  A face
    crosses a 2-bond once each way, so a1's partner is the dart of e2 off
    a1's face.  Any other pair leaves a1 and b1 joined, or three
    components, and is rejected.  Returns the side containing a1 first.
    """
    if web.circles:
        raise MapError("split acts on webs without circles")
    cmap = web.map
    a1, a2 = cut
    b1, b2 = cmap.theta[a1], cmap.theta[a2]
    fof = cmap.face_table()
    if fof[a2] == fof[a1]:
        a2, b2 = b2, a2
    rewired = _drop_and_rewire(web, (), ((a1, a2), (b1, b2)), 0)
    comps = rewired.map.components()
    if len(comps) != 2 or (a1 in comps[0]) == (b1 in comps[0]):
        raise MapError("cut does not split the web into two sides")
    sides = rewired.components()
    return sides if a1 in comps[0] else sides[::-1]


def connectivity(web):
    """min(3, vertex connectivity) of a connected simple web.

    Edge and vertex connectivity agree for simple cubic graphs, and a web
    has no bridge, so this is 2 with a 2-bond and 3 otherwise.
    """
    _require_connected(web, "connectivity needs a connected web with vertices")
    if not web.is_simple():
        raise MapError("connectivity is defined on simple webs only")
    return 2 if _bonds(web.map) else 3


# -- polygonal decompositions ------------------------------------------------


class PolygonalDecomposition:
    """One of the three two-color polygon systems of a 3-edge-coloring.

    `coloring` maps edge id (least dart) -> color 0/1/2; the polygons are
    the faces whose boundary uses the two colors in `pair`, and
    `connector_color` is the remaining color.
    """

    __slots__ = ("pair", "connector_color", "coloring", "polygon_faces", "polygons")

    def __init__(self, pair, connector_color, coloring, polygon_faces, polygons):
        self.pair = pair
        self.connector_color = connector_color
        self.coloring = coloring
        self.polygon_faces = polygon_faces
        self.polygons = polygons

    def sizes(self):
        """Polygon size multiset, ascending."""
        return tuple(sorted(len(p) for p in self.polygons))

    def __repr__(self):
        return f"PolygonalDecomposition(pair={self.pair}, sizes={self.sizes()})"


def _face_coloring(web):
    """3-colour the faces of a connected web, distinct around each vertex.

    Let e(d) be +1 on the darts of the colour class of dart 0's vertex and
    -1 on the other class, so e(sigma d) = e(d) and e(theta d) = -e(d).
    Label the darts by c(sigma d) = c(theta d) = c(d) + e(d) mod 3.  Then
    c(sigma theta d) = c(d) + e(d) - e(d) = c(d), so c is constant on each
    face, and the darts d, sigma d, sigma^2 d of a vertex take c(d),
    c(d) + e, c(d) + 2e: three different colours.  The labelling closes
    around every vertex (3e = 0), edge (e(d) + e(theta d) = 0) and face,
    and on the sphere those cycles generate every closed walk, so one
    traversal from dart 0 labels every dart without conflict.  With
    c(0) = 0 and e(0) = +1 the faces at dart 0's vertex get 0, 1, 2 in
    rotation order, which fixes the colouring: it is unique once one
    vertex is coloured.  The sign is kept as 1 or 2 = -1 mod 3.
    """
    cmap = web.map
    sigma, theta = cmap.sigma, cmap.theta
    col = [-1] * cmap.n_darts
    sign = [0] * cmap.n_darts
    col[0], sign[0] = 0, 1
    darts = [0]  # the traversal queue: it grows while it is read
    for d in darts:
        c = (col[d] + sign[d]) % 3
        for x, s in ((sigma[d], sign[d]), (theta[d], 3 - sign[d])):
            if col[x] < 0:
                col[x], sign[x] = c, s
                darts.append(x)
    return [col[face[0]] for face in cmap.faces()]


def edge_3_coloring(web):
    """The three polygonal decompositions of a simple 3-connected web.

    Each edge takes the color missing from its two incident faces; for each
    color pair the polygons are exactly the faces of the third color.  The
    three decompositions share one `coloring` dict.
    """
    if connectivity(web) != 3:
        raise MapError("polygonal decompositions need a 3-connected web")
    return _polygonal_decompositions(web)


def _polygonal_decompositions(web):
    """`edge_3_coloring` of a web its caller knows to be simple and
    3-connected; nothing is checked."""
    cmap = web.map
    face_color = _face_coloring(web)
    fof = cmap.face_table()
    coloring = {d: 3 - face_color[fof[d]] - face_color[fof[t]] for d, t in cmap.edges()}
    faces = cmap.faces()
    out = []
    for connector in (2, 1, 0):
        pair = tuple(sorted({0, 1, 2} - {connector}))
        polygon_faces = tuple(
            i for i, f in enumerate(faces) if face_color[i] == connector
        )
        polygons = tuple(
            tuple(cmap.vertex_of(d) for d in faces[i]) for i in polygon_faces
        )
        out.append(PolygonalDecomposition(pair, connector, coloring, polygon_faces, polygons))
    return out


def _circular_witness(cmap, decs):
    """(decomposition, exterior face) among `decs` that puts every polygon
    at level 1, or None when the web is not circular.

    A polygon's level is its dual-graph distance from the exterior face
    (`polygon_levels` in `tests/oracles.py`), so it is 1 iff the two share
    an edge: the witness is the first non-polygon face, decomposition by
    decomposition, whose neighbours include every polygon.
    """
    fof = cmap.face_table()
    near = [set() for _ in cmap.faces()]
    for d, t in cmap.edges():
        near[fof[d]].add(fof[t])
        near[fof[t]].add(fof[d])
    for dec in decs:
        polyset = set(dec.polygon_faces)
        for f, adj in enumerate(near):
            if f not in polyset and polyset <= adj:
                return dec, f
    return None


# -- file formats ------------------------------------------------------------


def parse_map(text):
    """Parse SIMPLE or DART format; returns (CombMap, circles)."""
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(text.splitlines())]
    lines = [(no, ln) for no, ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise FormatError("empty map file")
    if lines[0][1].startswith("darts:"):
        return _parse_dart(lines)
    return _parse_simple(lines)


# each circle multiplies the value by [3]: on a 2-vCPU Xeon VM `invariant`
# takes 0.6 s at 256 circles and 33 s at 2000
MAX_CIRCLES = 256


def _parse_header(ln, lineno):
    """The count on a 'darts: N' or 'circles: N' line."""
    name, body = ln.split(":", 1)
    try:
        value = int(body)
    except ValueError:
        raise FormatError(f"'{name}:' expects an integer, got {body.strip()!r}", lineno) from None
    if name == "circles" and not 0 <= value <= MAX_CIRCLES:
        raise FormatError(f"circle count must be 0..{MAX_CIRCLES}, got {value}", lineno)
    return value


def _parse_int_list(body, lineno):
    try:
        return [int(tok) for tok in body.split()]
    except ValueError:
        raise FormatError("expected integers", lineno) from None


def _parse_simple(lines):
    rot = {}
    circles = 0
    for no, ln in lines:
        if ln.startswith("circles:"):
            circles = _parse_header(ln, no)
            continue
        if ":" not in ln:
            raise FormatError("expected 'vertex: neighbors'", no)
        head, body = ln.split(":", 1)
        try:
            v = int(head)
        except ValueError:
            raise FormatError(f"bad vertex id {head!r}", no) from None
        if v in rot:
            raise FormatError(f"vertex {v} listed twice", no)
        rot[v] = (_parse_int_list(body, no), no)
    ids = sorted(rot)
    if ids != list(range(1, len(ids) + 1)):
        raise FormatError(f"vertex ids must be 1..{len(ids)}, got {ids}")
    neighbors = []
    for v in ids:
        nbs, no = rot[v]
        for u in nbs:
            if u not in rot:
                raise FormatError(f"vertex {v} names unknown neighbor {u}", no)
        neighbors.append([u - 1 for u in nbs])
    try:
        cmap = from_rotations(neighbors)
    except MapError as exc:
        raise FormatError(str(exc)) from None
    return cmap, circles


def _parse_dart(lines):
    n_darts = None
    rotations = []
    pairs = []
    circles = 0
    for no, ln in lines:
        if ln.startswith("darts:"):
            n_darts, header_no = _parse_header(ln, no), no
            continue
        if ln.startswith("circles:"):
            circles = _parse_header(ln, no)
            continue
        if ln.startswith("v"):
            if ":" not in ln:
                raise FormatError("expected 'v N: darts'", no)
            body = ln.split(":", 1)[1]
            rotations.append((_parse_int_list(body, no), no))
            continue
        if ln.startswith("e:"):
            ds = _parse_int_list(ln.split(":", 1)[1], no)
            if len(ds) != 2:
                raise FormatError("edge line needs exactly two darts", no)
            if ds[0] == ds[1]:
                raise FormatError(f"edge line pairs dart {ds[0]} with itself", no)
            pairs.append((ds, no))
            continue
        raise FormatError(f"unrecognized line {ln!r}", no)
    # parse_map sends only text whose first line is the header
    listed = sum(len(ds) for ds, _ in rotations)
    if n_darts != listed:
        raise FormatError(f"'darts: {n_darts}' but the rotation lines list {listed} darts", header_no)
    sigma = [None] * n_darts
    theta = [None] * n_darts
    for ds, no in rotations:
        for j, d in enumerate(ds):
            if not 0 <= d < n_darts:
                raise FormatError(f"dart {d} out of range", no)
            if sigma[d] is not None:
                raise FormatError(f"dart {d} appears in two rotations", no)
            sigma[d] = ds[(j + 1) % len(ds)]
    for (d1, d2), no in pairs:
        for d in (d1, d2):
            if not 0 <= d < n_darts:
                raise FormatError(f"dart {d} out of range", no)
            if theta[d] is not None:
                raise FormatError(f"dart {d} appears in two edges", no)
        theta[d1] = d2
        theta[d2] = d1
    # n_darts distinct darts below n_darts were listed, so each has a rotation
    for d in range(n_darts):
        if theta[d] is None:
            raise FormatError(f"dart {d} missing from all edges")
    # so sigma is a permutation and theta a fixed-point-free involution
    return CombMap(sigma, theta), circles


def serialize_map(cmap, circles=0, fmt="dart"):
    """Canonical text form; vertex order and rotation phases normalized."""
    verts = cmap.vertices()
    if fmt == "simple":
        vof = {d: i for i, orbit in enumerate(verts) for d in orbit}
        lines = []
        for i, orbit in enumerate(verts):
            nbs = {d: vof[cmap.theta[d]] + 1 for d in orbit}
            if len(set(nbs.values())) != len(orbit) or any(
                v == i + 1 for v in nbs.values()
            ):
                raise MapError("SIMPLE format cannot express multigraphs or loops")
            # a vertex orbit is its rotation, started at its least dart
            k = orbit.index(min(orbit, key=nbs.__getitem__))
            lines.append(f"{i + 1}: {' '.join(str(nbs[d]) for d in orbit[k:] + orbit[:k])}")
        if circles:
            lines.append(f"circles: {circles}")
        return "\n".join(lines) + "\n"
    if fmt == "dart":
        lines = [f"darts: {cmap.n_darts}"]
        for i, orbit in enumerate(verts):
            lines.append(f"v {i + 1}: {' '.join(map(str, orbit))}")
        for d, t in cmap.edges():
            lines.append(f"e: {d} {t}")
        if circles:
            lines.append(f"circles: {circles}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def parse_web(text):
    cmap, circles = parse_map(text)
    return validate(cmap, circles)


def serialize_web(web, fmt="dart"):
    return serialize_map(web.map, web.circles, fmt)
