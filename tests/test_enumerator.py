import hashlib
import itertools
import random
from collections import Counter

import pytest

from sl3webs import cli, enumerator, planarmap
from sl3webs.enumerator import _prime_layers, all_primes, build_catalog
from sl3webs.planarmap import (
    CombMap,
    MapError,
    _bonds,
    _circular_witness,
    _drop_and_rewire,
    _IsoStore,
    _polygonal_decompositions,
    automorphism_count,
    canonical_key,
    connectivity,
    disjoint_union,
    edge_3_coloring,
    from_rotations,
    isomorphic,
    serialize_web,
    validate,
)
from sl3webs.qlaurent import parse_qexpr
from sl3webs.reducer import invariant
from oracles import (
    assemble_web,
    circular_primes,
    dim_inv,
    even_partitions,
    find_all_reducibles,
    is_admissible,
    isomorphisms,
    normal_chord_diagrams,
    polygon_levels,
    pushing_moves,
    reduce_at,
    relabel,
)
from test_planarmap import random_relabel
from webfixtures import (
    cube_web,
    digon_expand,
    digon_prism_web,
    hex_prism_web,
    simple_by_vertex_pairs,
)


class TestEvenPartitions:
    def test_eighteen(self):
        assert even_partitions(18) == [(4, 4, 4, 6), (4, 4, 10), (4, 6, 8), (6, 6, 6)]

    def test_eight(self):
        assert even_partitions(8) == [(4, 4)]

    def test_six_empty(self):
        assert even_partitions(6) == []

    def test_ten_empty(self):
        # (4, 6) has no normal diagram (unequal two-sided plate), 5 is odd
        assert even_partitions(10) == []

    def test_two_sided_plates_equal(self):
        assert (8, 8) in even_partitions(16)
        assert all(len(p) != 2 or p[0] == p[1] for n in range(8, 28, 2) for p in even_partitions(n))

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            even_partitions(9)

    def test_dihedral_dedup(self):
        plates = even_partitions(22)
        assert (4, 4, 6, 8) in plates and (4, 6, 4, 8) in plates
        assert (4, 4, 8, 6) not in plates  # reflection of (4,4,6,8)


class TestAdmissible:
    def test_examples(self):
        assert not is_admissible(4, 4, 10)
        assert is_admissible(4, 6, 8)
        assert is_admissible(4, 4, 0)

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            is_admissible(3, 4, 5)


class TestDimInv:
    def test_examples(self):
        assert dim_inv((4, 4, 10)) == 0
        assert dim_inv((4, 4, 4, 6)) == 4
        assert dim_inv((8, 8)) == 1
        assert dim_inv((6, 6)) == 1
        assert dim_inv((4, 6)) == 0

    def test_triples_match_admissibility(self):
        for a in range(0, 12, 2):
            for b in range(0, 12, 2):
                for c in range(0, 12, 2):
                    assert dim_inv((a, b, c)) == (1 if is_admissible(a, b, c) else 0)


class TestNormalChordDiagrams:
    def test_unique_for_admissible_triples(self):
        assert len(normal_chord_diagrams((6, 6, 6))) == 1
        assert len(normal_chord_diagrams((4, 6, 8))) == 1

    def test_none_for_inadmissible(self):
        assert normal_chord_diagrams((4, 4, 10)) == []

    def test_two_sided_parallel(self):
        diags = normal_chord_diagrams((8, 8))
        assert len(diags) == 1
        assert diags[0] == tuple((i, 15 - i) for i in range(8))

    def test_pinned_content_and_order_up_to_28_points(self):
        # the order decides which representative `enumerate` prints
        digest = hashlib.sha256()
        for n in range(8, 30, 2):
            for plate in even_partitions(n):
                digest.update(repr(normal_chord_diagrams(plate)).encode())
        assert digest.hexdigest() == "95714f51a44a2cc594c34104990c658f6e5fa8e8f1832bddf737e2f326b63f4d"

    def test_brute_force_up_to_16_points(self):
        # every non-crossing perfect matching is a balanced bracket word:
        # pick the opening positions, pair each closer with the last open
        checked = 0
        for n in range(8, 18, 2):
            for plate in even_partitions(n):
                side = [i for i, a in enumerate(plate) for _ in range(a)]
                expected = set()
                for opens in itertools.combinations(range(n), n // 2):
                    stack, chords = [], []
                    for p in range(n):
                        if p in opens:
                            stack.append(p)
                        elif stack:
                            chords.append((stack.pop(), p))
                        else:
                            break
                    if len(chords) == n // 2 and all(side[p] != side[q] for p, q in chords):
                        expected.add(tuple(sorted(chords)))
                diagrams = normal_chord_diagrams(plate)
                assert len(set(diagrams)) == len(diagrams)
                assert set(diagrams) == expected, plate
                checked += len(expected)
        assert checked >= 10

    def test_count_equals_dimension_up_to_24_points(self):
        # independent counting oracle: recursion vs exhaustive enumeration
        for n in range(8, 26, 2):
            for plate in even_partitions(n):
                if sum(plate) > 24:
                    continue
                assert len(normal_chord_diagrams(plate)) == dim_inv(plate), plate


class TestAssembly:
    def test_four_four_is_cube(self):
        (diagram,) = normal_chord_diagrams((4, 4))
        web = assemble_web((4, 4), diagram)
        assert isomorphic(web, cube_web())

    def test_six_six_six_is_prime_18(self):
        (diagram,) = normal_chord_diagrams((6, 6, 6))
        web = assemble_web((6, 6, 6), diagram)
        assert web.n_vertices == 18
        assert connectivity(web) == 3
        assert invariant(web) == parse_qexpr("-[2]^5[3]-6[2]^3[3]")

    def test_four_six_eight_is_other_prime_18(self):
        (diagram,) = normal_chord_diagrams((4, 6, 8))
        web = assemble_web((4, 6, 8), diagram)
        assert invariant(web) == parse_qexpr("-2[2]^5[3]-4[2]^3[3]")

    def test_descriptions_contain_plate(self):
        (diagram,) = normal_chord_diagrams((6, 6, 6))
        web = assemble_web((6, 6, 6), diagram)
        descs = [dec.sizes() for dec in edge_3_coloring(web)]
        assert (6, 6, 6) in descs
        assert _circular_witness(web.map, edge_3_coloring(web)) is not None


def cut_open(web, dec, exterior):
    """Inverse of assembly: flatten a circular decomposition back into a
    plate and chord diagram (used as an independent round-trip oracle)."""
    cmap = web.map
    faces = cmap.faces()
    connector = dec.connector_color

    def edge_color(d):
        return dec.coloring[min(d, cmap.theta[d])]

    sides = []
    points = []
    for d in faces[exterior]:
        if edge_color(d) == connector:
            continue
        pf = cmap.face_table()[cmap.theta[d]]
        assert pf in dec.polygon_faces
        cyc = faces[pf]
        i = cyc.index(cmap.theta[d])
        ordered = cyc[i + 1 :] + cyc[: i + 1]
        side_pts = [cmap.vertex_of(x) for x in ordered]
        sides.append(len(side_pts))
        points.extend(side_pts)
    pos = {v: i for i, v in enumerate(points)}
    pairs = set()
    for dd, tt in cmap.edges():
        if edge_color(dd) == connector:
            a, b = pos[cmap.vertex_of(dd)], pos[cmap.vertex_of(tt)]
            pairs.add((min(a, b), max(a, b)))
    return tuple(sides), tuple(sorted(pairs))


class TestCutOpenRoundTrip:
    def test_circular_primes_reassemble(self):
        for n in (8, 12, 14, 16, 18):
            for web in circular_primes(n):
                dec, exterior = _circular_witness(web.map, edge_3_coloring(web))
                plate, diagram = cut_open(web, dec, exterior)
                assert sum(plate) == web.n_vertices
                rebuilt = None
                try:
                    rebuilt = assemble_web(plate, diagram)
                except Exception:
                    # orientation flip: reverse the point order
                    total = sum(plate)
                    rev = tuple(
                        tuple(sorted((total - 1 - a, total - 1 - b)))
                        for a, b in diagram
                    )
                    rebuilt = assemble_web(tuple(reversed(plate)), tuple(sorted(rev)))
                assert isomorphic(rebuilt, web)


class TestCircularPrimes:
    def test_counts_through_twenty(self):
        expected = {8: 1, 10: 0, 12: 1, 14: 1, 16: 2, 18: 2, 20: 5}
        for n, count in expected.items():
            assert len(circular_primes(n)) == count, n

    def test_twenty_two_computed_census(self):
        # the published census says 8; exhaustive assembly plus an
        # all-colorings circularity check give 7 circular of the 8 primes
        # (see the acceptance suite, which carries the published assertion)
        assert len(circular_primes(22)) == 7

    def test_plates_are_the_census_circular_primes_to_30(self):
        # the plates' 3-connected webs, deduplicated by brute-force
        # isomorphism, against the census primes the witness calls circular
        counts = {}
        for m, found in _prime_layers(30):
            census = {canonical_key(w) for w in found if _circular_witness(w.map, _polygonal_decompositions(w)) is not None}
            plates = [canonical_key(w) for w in circular_primes(m)]
            assert set(plates) == census, m
            assert len(set(plates)) == len(plates), m
            counts[m] = len(plates)
        assert counts == {
            8: 1, 10: 0, 12: 1, 14: 1, 16: 2, 18: 2, 20: 5, 22: 7, 24: 19, 26: 28, 28: 75, 30: 136,
        }

    def test_eighteen_has_distinct_keys_and_invariants(self):
        webs = circular_primes(18)
        assert canonical_key(webs[0]) != canonical_key(webs[1])
        invs = {invariant(w).pretty() for w in webs}
        assert invs == {
            parse_qexpr("-[2]^5[3]-6[2]^3[3]").pretty(),
            parse_qexpr("-2[2]^5[3]-4[2]^3[3]").pretty(),
        }

    def test_all_emitted_are_prime(self):
        for n in (8, 12, 14, 16, 18):
            for w in circular_primes(n):
                assert w.n_vertices % 2 == 0
                assert w.is_simple()
                assert connectivity(w) == 3
                assert _circular_witness(w.map, edge_3_coloring(w)) is not None

    def test_generated_webs_euler_and_even_faces(self):
        for n in (12, 16, 18, 20):
            for w in all_primes(n):
                faces = w.map.faces()
                assert sum(len(f) for f in faces) == 2 * w.n_edges
                assert all(len(f) % 2 == 0 for f in faces)
                assert w.n_vertices - w.n_edges + len(faces) == 2

    def test_automorphism_count_divides_orbit_bound(self):
        for n in (12, 16, 18, 20):
            for w in all_primes(n):
                assert (4 * w.n_edges) % automorphism_count(w, True) == 0

    def test_noncircular_prime_has_level_two_polygon(self):
        for w in all_primes(20):
            if _circular_witness(w.map, edge_3_coloring(w)) is not None:
                continue
            n_faces = len(w.map.faces())
            best = None
            for dec in edge_3_coloring(w):
                for f in range(n_faces):
                    if f in dec.polygon_faces:
                        continue
                    prof = sorted(polygon_levels(w, dec, f).values())
                    if best is None or prof < best:
                        best = prof
            assert best is not None and best[-1] >= 2

    def test_circular_witness_is_first_level_one_pair(self):
        # the oracle is the definition: the first (decomposition, face)
        # pair, in order, at which a dual-graph BFS puts every polygon at
        # level 1
        rng = random.Random(15)
        noncircular = Counter()
        for n in range(8, 24, 2):
            for p in all_primes(n):
                for w in (p, random_relabel(p, rng)):
                    n_faces = len(w.map.faces())
                    expect = next(
                        (
                            (dec.pair, f)
                            for dec in edge_3_coloring(w)
                            for f in range(n_faces)
                            if f not in dec.polygon_faces
                            and set(polygon_levels(w, dec, f).values()) == {1}
                        ),
                        None,
                    )
                    got = _circular_witness(w.map, edge_3_coloring(w))
                    assert (None if got is None else (got[0].pair, got[1])) == expect
                noncircular[n] += expect is None
        assert +noncircular == {20: 3, 22: 1}

    def test_serialization_roundtrip_all_primes(self):
        from sl3webs.planarmap import parse_web, serialize_web

        for n in (8, 12, 14, 16, 18, 20):
            for w in all_primes(n):
                assert isomorphic(parse_web(serialize_web(w, "dart")), w)
                assert isomorphic(parse_web(serialize_web(w, "simple")), w)

    def test_canonical_key_vs_brute_force_catalog(self):
        import random

        from sl3webs.planarmap import mirror

        rng = random.Random(1812)
        webs = [w for n in (8, 12, 14, 16) for w in all_primes(n)]
        variants = []
        for w in webs:
            perm = list(range(w.map.n_darts))
            rng.shuffle(perm)
            variants.append(validate(relabel(w.map, perm), w.circles))
            variants.append(mirror(w))
        pool = webs + variants
        keys = [canonical_key(w) for w in pool]
        for i, a in enumerate(pool):
            for j in range(i, len(pool)):
                brute = bool(isomorphisms(a, pool[j], True))
                assert (keys[i] == keys[j]) == brute


class TestPushingMoves:
    def test_empty_web_no_sites(self):
        assert pushing_moves(validate(CombMap((), ()))) == []

    def test_drop_two_vertices(self):
        # every edge of the hexagonal prism lies on a square face, so each
        # push joins two vertices that are already adjacent
        assert pushing_moves(hex_prism_web()) == []
        checked = 0
        for w in circular_primes(16) + circular_primes(18):
            for child in pushing_moves(w):
                assert child.n_vertices == w.n_vertices - 2
                assert child.map.n_darts == w.map.n_darts - 6
                checked += 1
        assert checked == 15

    def test_nontrivial_from_22(self):
        noncirc = [
            w
            for w in all_primes(20)
            if _circular_witness(w.map, edge_3_coloring(w)) is None
        ]
        assert len(noncirc) == 3
        for w in noncirc:
            descs = sorted(dec.sizes() for dec in edge_3_coloring(w))
            assert descs == [(4, 4, 6, 6)] * 3

    def test_converse_roundtrip(self):
        checked = 0
        for w in circular_primes(16) + circular_primes(18):
            key = canonical_key(w)
            for child in pushing_moves(w):
                assert any(canonical_key(b) == key for b in every_push(child))
                checked += 1
        assert checked == 15


def pushes_built_then_filtered(web):
    """Oracle for pushing_moves: build the child at every site that has
    no parallel edge at u or v, and keep the simple ones."""
    cmap = web.map
    sigma, theta = cmap.sigma, cmap.theta
    out = []
    for d, t in cmap.edges():
        u, v = cmap.vertex_of(d), cmap.vertex_of(t)
        if u == v:
            continue
        s1, s2 = sigma[d], sigma[sigma[d]]
        t1, t2 = sigma[t], sigma[sigma[t]]
        ends = (theta[s1], theta[t2], theta[s2], theta[t1])
        if {cmap.vertex_of(e) for e in ends} & {u, v}:
            continue
        child = _drop_and_rewire(web, (d, t), ((ends[0], ends[1]), (ends[2], ends[3])), 0)
        try:
            # the surgery builds its child unchecked; the oracle checks it
            child = validate(CombMap(child.map.sigma, child.map.theta))
        except MapError:
            continue
        if simple_by_vertex_pairs(child):
            out.append(child.map)
    return out


def downward_layers(top, bottom):
    """Yield (m, {canonical key: web}) for m = top, top - 2, ..., bottom:
    the paper's path, an oracle for the upward layers.

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


class TestPushSimplicity:
    """pushing_moves keeps exactly the sites whose child, built and then
    checked, is simple."""

    @staticmethod
    def assert_exact(webs):
        kept = 0
        for w in webs:
            got = [child.map for child in pushing_moves(w)]
            assert got == pushes_built_then_filtered(w)
            kept += len(got)
        return kept

    def test_prime_layers(self):
        webs = [w for _, found in downward_layers(26, 8) for w in found.values()]
        assert len(webs) == 82
        # a prime has no parallel pair: only the new-edge rules decide here
        assert self.assert_exact(webs) == 660

    def test_non_simple_parents(self):
        parents = [digon_prism_web()]
        for w in [cube_web(), hex_prism_web(), digon_prism_web()] + all_primes(20):
            for red in find_all_reducibles(w):
                parents += [c for c, _ in reduce_at(w, red) if not c.is_simple()]
        # x - u1 = u2 - w1 = w2 - y: the push at u2 - w1 joins u1 and w2 twice
        for w in (cube_web(), hex_prism_web()):
            parents.append(digon_expand(digon_expand(w, 0), w.map.n_darts + 3))
        assert len(parents) == 97
        # a parallel pair away from the site survives into the child;
        # one at u or v is dropped with them, leaving simple children
        assert self.assert_exact(parents) == 88


def every_push(web):
    """Every converse push of a web, one per site of
    `enumerator._push_sites`, in its order, with the multiplicity that
    `enumerator._orbit_pushes` leaves out."""
    both = disjoint_union(web, enumerator._THETA)
    return [enumerator._converse_push(both, x, q) for x, q in enumerator._push_sites(web.map)]


def converse_pushes_all_orientations(web):
    """Oracle for every_push: Counter of the canonical keys of
    the simple children, built at every pair of edges in all four ways to
    attach the new vertices, whether or not the edges share a face."""
    cmap = web.map
    n = cmap.n_darts
    duv, s1, s2, dvu, t1, t2 = range(n, n + 6)
    keys = Counter()
    for (a, b), (c, d) in itertools.combinations(cmap.edges(), 2):
        embedded = 0
        for x, y in ((a, b), (b, a)):
            for p, q in ((c, d), (d, c)):
                theta = list(cmap.theta) + [dvu, x, p, duv, q, y]
                theta[x], theta[y], theta[p], theta[q] = s1, t2, s2, t1
                sigma = list(cmap.sigma) + [s1, s2, duv, t1, t2, dvu]
                try:
                    child = validate(CombMap(sigma, theta))
                except MapError:
                    continue
                embedded += 1
                if simple_by_vertex_pairs(child):
                    keys[canonical_key(child)] += 1
        assert embedded <= 1
    return keys


class TestConversePushingMoves:
    def test_face_rule_matches_all_orientations(self):
        webs = [w for _, found in _prime_layers(22) for w in found]
        assert len(webs) == 23
        for w in webs:
            children = every_push(w)
            assert all(simple_by_vertex_pairs(c) for c in children)
            got = Counter(canonical_key(c) for c in children)
            assert got == converse_pushes_all_orientations(w)


def layers_and_pushes(n):
    """The layers of `_prime_layers(n)` and the number of converse pushes
    built for each."""
    built = []
    push = enumerator._converse_push

    def spy(*args):
        built.append(None)
        return push(*args)

    layers, counts = {}, {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumerator, "_converse_push", spy)
        for m, found in _prime_layers(n):
            layers[m] = found
            counts[m] = len(built) - sum(counts.values())
    return layers, counts


class TestOrbitPushes:
    def test_same_layers_as_every_push(self, monkeypatch):
        layers, counts = layers_and_pushes(26)
        assert counts == {8: 0, 10: 0, 12: 0, 14: 1, 16: 2, 18: 3, 20: 13, 22: 35, 24: 118, 26: 404}
        # no generators: every site is its own orbit
        monkeypatch.setattr(enumerator, "_root_search", lambda cmap, refl: (None, [], 1))
        every, counts = layers_and_pushes(26)
        assert counts == {8: 0, 10: 0, 12: 0, 14: 6, 16: 9, 18: 28, 20: 32, 22: 168, 24: 198, 26: 936}
        # the same keys and the same representatives, in the same order
        assert list(layers) == list(every)
        for m, found in every.items():
            assert [(canonical_key(w), serialize_web(w)) for w in layers[m]] == [
                (canonical_key(w), serialize_web(w)) for w in found
            ]

    def test_one_push_per_orbit_covers_every_class(self):
        # the pushes for the layers through 22 vertices, counted per parent
        counts = Counter()
        for _, found in _prime_layers(20):
            for w in found:
                pushes = list(enumerator._orbit_pushes(w))
                keys = [canonical_key(c) for c in pushes]
                assert set(keys) == {canonical_key(c) for c in every_push(w)}
                prime = [k for c, k in zip(pushes, keys) if not _bonds(c.map)]
                counts.update(orbits=len(keys), classes=len(set(keys)))
                counts.update(prime_orbits=len(prime), prime_classes=len(set(prime)))
        assert counts == {"orbits": 54, "classes": 51, "prime_orbits": 46, "prime_classes": 43}


K4_ROTATIONS = [[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]]


def edge_insertions(cmap):
    """Every edge insertion into a 3-connected cubic plane map (+2
    vertices), one per pair of distinct edges of one face, face by face.

    Edge x-y (y = theta x) becomes x-U-y and edge q-p (p = theta q)
    becomes q-V-p, with U-V drawn across the face.  U and V rotate the
    same way, so one of the two senses is plane: the child is built
    through `CombMap` in one sense, and in the other when its genus is
    not 0, so that no convention of face orientation is assumed.  A
    3-connected map has no bridge, so no face holds both darts of an
    edge."""
    sigma, theta = cmap.sigma, cmap.theta
    n = cmap.n_darts
    u = (n, n + 1, n + 2)  # joined to x, to y, to V
    v = (n + 3, n + 4, n + 5)  # joined to q, to p, to U
    for face in cmap.faces():
        for i, x in enumerate(face):
            for q in face[i + 1 :]:
                y, p = theta[x], theta[q]
                new_theta = list(theta) + [x, y, v[2], q, p, u[2]]
                new_theta[x], new_theta[y], new_theta[q], new_theta[p] = u[0], u[1], v[0], v[1]
                for turn in ((1, 2, 0), (2, 0, 1)):
                    new_sigma = list(sigma) + [u[t] for t in turn] + [v[t] for t in turn]
                    child = CombMap(new_sigma, new_theta)
                    if child.genus_by_component() == [(0, 0)]:
                        yield child
                        break
                else:
                    raise AssertionError("neither sense of the insertion is plane")


@pytest.fixture(scope="module")
def insertion_census():
    """{m: one map per isomorphism class, mirror included, of the
    3-connected cubic plane graphs of m vertices} for m = 4, 6, ..., 18.

    A census with no theory in common with pushes: the layers grow from
    K4 by edge insertions, each deduplicated through its own `_IsoStore`.
    An insertion into a 3-connected cubic graph is 3-connected, and every
    such plane graph but K4 is an insertion into a smaller one: dually,
    every triangulation but K4 has an edge whose contraction leaves a
    triangulation.
    """
    layers = {4: [from_rotations(K4_ROTATIONS)]}
    for m in range(6, 20, 2):
        store = _IsoStore()
        layers[m] = []
        for w in layers[m - 2]:
            for child in edge_insertions(w):
                entry = store.entry(child)
                if entry.value is None:
                    entry.value = child
                    layers[m].append(child)
    return layers


def insertion_primes(maps):
    """{canonical key: web} of the maps with every face even: the
    bipartite ones, which are webs."""
    webs = [validate(c) for c in maps if all(len(f) % 2 == 0 for f in c.faces())]
    return {canonical_key(w): w for w in webs}


class TestEdgeInsertionCensus:
    def test_class_counts(self, insertion_census):
        counts = {m: len(maps) for m, maps in insertion_census.items()}
        assert counts == {4: 1, 6: 1, 8: 2, 10: 5, 12: 14, 14: 50, 16: 233, 18: 1249}

    def test_even_faced_classes_are_the_primes(self, insertion_census):
        for m in range(8, 20, 2):
            assert set(insertion_primes(insertion_census[m])) == {canonical_key(w) for w in all_primes(m)}, m

    def test_unreached_primes_are_the_prisms(self, insertion_census):
        # the primes of m vertices that no bond-free converse push of the
        # primes of m - 2 vertices reaches, both from the insertion census
        below = []
        for m in range(8, 20, 2):
            primes = insertion_primes(insertion_census[m])
            reached = {canonical_key(c) for w in below for c in every_push(w) if not _bonds(c.map)}
            unreached = [w for key, w in primes.items() if key not in reached]
            k = m // 2
            if m % 4:
                assert unreached == [], m
            else:
                (prism,) = unreached
                assert canonical_key(prism) == canonical_key(enumerator._prism(k))
                # k squares and two k-gons: six squares at 8, the cube
                assert Counter(len(f) for f in prism.map.faces()) == Counter({4: k}) + Counter({k: 2})
            below = list(primes.values())


class TestAllPrimes:
    def test_eight_vertices(self):
        webs = all_primes(8)
        assert len(webs) == 1
        assert isomorphic(webs[0], cube_web())

    def test_sixteen(self):
        assert len(all_primes(16)) == 2

    def test_twenty(self):
        webs = all_primes(20)
        assert len(webs) == 8
        assert sum(1 for w in webs if _circular_witness(w.map, edge_3_coloring(w)) is not None) == 5

    def test_upward_matches_downward_closure_from_30(self):
        down = {m: set(found) for m, found in downward_layers(30, 8)}
        for n in range(8, 28, 2):
            assert {canonical_key(w) for w in all_primes(n)} == down[n], n

    def test_counts_24_to_30(self):
        layers, built = layers_and_pushes(30)
        assert {m: len(layers[m]) for m in range(24, 32, 2)} == {24: 32, 26: 57, 28: 185, 30: 466}
        # one push per orbit: 4794 of the 6974 pushes of layer 28
        assert built[30] == 4794
        keys = [canonical_key(w) for w in layers[30]]
        digest = hashlib.sha256(b"".join(sorted(keys)))
        assert digest.hexdigest() == "8ce2e53038a5a56ce84eb9ea751f941009df3705ba1b77e9c41388085112739d"
        # the prime a downward closure from 34 vertices missed
        (missed,) = [
            key
            for key, w in zip(keys, layers[30])
            if Counter(len(f) for f in w.map.faces()) == {4: 6, 6: 11}
            and automorphism_count(w) == 12
        ]
        assert hashlib.sha256(missed).hexdigest() == "cad9af238d1b348ef2eb54a29f109666f7ae6f9ae5b798ee25eab65b02cc9a3f"

    def test_dedup_sound_brute_force(self):
        for n in (16, 18):
            webs = all_primes(n)
            for i, a in enumerate(webs):
                for b in webs[i + 1 :]:
                    assert not isomorphisms(a, b)


class TestCatalog:
    def test_catalog_to_fourteen(self):
        entries = build_catalog(14)
        assert [e.name for e in entries] == ["4_1", "6_1", "7_1"]
        by_name = {e.name: e for e in entries}
        assert by_name["4_1"].invariant == parse_qexpr("2[2]^2[3]")
        assert by_name["6_1"].invariant == parse_qexpr("[2]^4[3]+2[2]^2[3]")
        assert by_name["7_1"].invariant == parse_qexpr("-4[2]^3[3]")
        assert by_name["6_1"].descriptions == ((4, 4, 4), (4, 4, 4), (6, 6))
        assert all(e.circular for e in entries)

    def test_names_deterministic(self):
        a = build_catalog(12)
        b = build_catalog(12)
        assert [e.name for e in a] == [e.name for e in b]
        assert [canonical_key(e.web) for e in a] == [canonical_key(e.web) for e in b]

    def test_shared_invariant_family_at_twenty(self):
        # distinct 20-vertex primes share the invariant 8[2]^4[3], in both
        # circularness classes (the invariant alone cannot tell primes apart)
        entries = [e for e in build_catalog(20) if e.vertex_count == 20]
        family = [e for e in entries if e.invariant == parse_qexpr("8[2]^4[3]")]
        assert len(family) >= 2
        assert {e.circular for e in family} == {True, False}
        keys = {canonical_key(e.web) for e in family}
        assert len(keys) == len(family)

    def test_keys_only_the_primes_kept(self, monkeypatch, capsys):
        # the layers deduplicate through isomorphism stores and key
        # nothing: all_primes keys the layer it returns, each prime once,
        # the catalog every layer, and a count none
        keyed = []
        key = enumerator.canonical_key

        def spy(web, include_reflections=True):
            keyed.append(web)
            return key(web, include_reflections)

        monkeypatch.setattr(enumerator, "canonical_key", spy)
        monkeypatch.setattr(cli, "canonical_key", spy)
        at_24 = all_primes(24)
        assert len(keyed) == 32
        assert Counter(w.n_vertices for w in keyed) == {24: 32}
        assert len({key(w) for w in keyed}) == 32
        assert {id(w) for w in at_24} == {id(w) for w in keyed}
        for argv, count in ((["--count"], 8), (["--count", "--circular-only"], 7)):
            del keyed[:]
            assert cli.main(["enumerate", "--vertices", "22", *argv]) == 0
            assert capsys.readouterr().out == f"{count}\n"
            assert keyed == []
        del keyed[:]
        assert len(all_primes(22)) == len(keyed) == 8
        del keyed[:]
        assert len(build_catalog(24)) == len(keyed) == 55
        assert Counter(w.n_vertices for w in keyed) == {8: 1, 12: 1, 14: 1, 16: 2, 18: 2, 20: 8, 22: 8, 24: 32}
        assert len({key(w) for w in keyed}) == 55

    def test_one_canonical_search_per_prime(self, monkeypatch, capsys):
        # verify-paper's catalog keys each layer before pushing from it,
        # and the pushes read the automorphisms off the keyed map: one
        # search for each of the 15 primes of 8-20 vertices, not one for
        # its name and one for its pushes
        searched = []
        search = planarmap._root_search

        def spy(cmap, include_reflections):
            searched.append(cmap.n_darts // 3)
            return search(cmap, include_reflections)

        monkeypatch.setattr(planarmap, "_root_search", spy)
        monkeypatch.setattr(enumerator, "_root_search", spy)
        assert cli.main(["verify-paper", "--max-vertices", "20"]) == 0
        capsys.readouterr()
        assert Counter(searched) == {8: 1, 12: 1, 14: 1, 16: 2, 18: 2, 20: 8}

    def test_no_prime_scanned_for_bonds_again(self, monkeypatch):
        # the layers keep 3-connected webs only, so the catalog reads its
        # primes' decompositions without a connectivity check
        def connectivity(web):
            raise AssertionError("a prime was scanned for bonds again")

        monkeypatch.setattr(planarmap, "connectivity", connectivity)
        assert len(build_catalog(22)) == 23

    def test_catalog_agrees_with_all_primes_at_24(self):
        at_24 = [e for e in build_catalog(24) if e.vertex_count == 24]
        assert len(at_24) == len(all_primes(24))


class TestNonIsomorphicSumsShareInvariant:
    def test_sums_of_16_vertex_prime(self):
        from sl3webs.primedec import connected_sum
        from sl3webs.qlaurent import parse_qexpr as q

        (a,) = [w for w in circular_primes(16) if invariant(w) == q("3[2]^4[3]+2[2]^2[3]")]
        seen = {}
        for ea in range(0, a.map.n_darts, 6):
            for eb in range(0, a.map.n_darts, 6):
                s = connected_sum(a, ea, a, eb)
                seen.setdefault(canonical_key(s), invariant(s))
        assert len(seen) >= 2
        assert len({v.pretty() for v in seen.values()}) == 1
