import ast
import hashlib
import random
from pathlib import Path

import pytest

from sl3webs import planarmap
from sl3webs.enumerator import all_primes
from sl3webs.planarmap import (
    CombMap,
    MAX_CIRCLES,
    FormatError,
    MapError,
    NonPlanarEmbedding,
    NotBipartite,
    NotCubic,
    Web,
    automorphism_count,
    canonical_form,
    canonical_key,
    connectivity,
    disjoint_union,
    edge_3_coloring,
    from_rotations,
    isomorphic,
    mirror,
    parse_map,
    parse_web,
    serialize_map,
    serialize_web,
    validate,
)
from sl3webs.primedec import connected_sum
from oracles import find_all_reducibles, isomorphisms, polygon_levels, reduce_at, relabel
from webfixtures import (
    FIXTURES,
    cube_web,
    digon_prism_web,
    doubled_cycle_map,
    fixture_web,
    hex_prism_web,
    k4_planar_map,
    k4_twisted_map,
    simple_by_vertex_pairs,
    theta_map,
    theta_web,
    triangle_prism_web_map,
)


def random_relabel(web, rng):
    n = web.map.n_darts
    perm = list(range(n))
    rng.shuffle(perm)
    return validate(relabel(web.map, perm), web.circles)


class TestValidate:
    def test_cube(self):
        w = cube_web()
        assert w.n_vertices == 8
        assert w.n_edges == 12
        assert w.is_simple()

    def test_triangle_prism_not_bipartite(self):
        with pytest.raises(NotBipartite):
            validate(triangle_prism_web_map())

    def test_twisted_k4_nonplanar(self):
        with pytest.raises(NonPlanarEmbedding) as exc:
            validate(k4_twisted_map())
        assert exc.value.genus == 1

    def test_planar_k4_fails_bipartite_not_genus(self):
        with pytest.raises(NotBipartite):
            validate(k4_planar_map())

    def test_degree_two_not_cubic(self):
        with pytest.raises(NotCubic):
            validate(doubled_cycle_map())

    def test_theta_is_valid(self):
        w = theta_web()
        assert w.n_vertices == 2
        assert not w.is_simple()

    def test_genus_per_component_of_disjoint_union(self):
        # a planar cube beside the genus-1 K4: each component keeps its
        # own genus and witness, and validate names a dart of the K4
        cube, k4 = cube_web().map, k4_twisted_map()
        off = cube.n_darts
        m = CombMap(
            list(cube.sigma) + [d + off for d in k4.sigma],
            list(cube.theta) + [d + off for d in k4.theta],
        )
        genera = m.genus_by_component()
        assert [g for g, _ in genera] == [0, 1]
        assert [dart in comp for (_, dart), comp in zip(genera, m.components())] == [True, True]
        with pytest.raises(NonPlanarEmbedding) as exc:
            validate(m)
        assert exc.value.genus == 1
        assert exc.value.dart in m.components()[1]


class TestConstructorChecks:
    @pytest.mark.parametrize(
        "sigma, theta, message",
        [
            ((1, 0), (1,), "sigma and theta must act on the same darts"),
            ((0,), (0,), "odd number of darts"),
            ((0, 0), (1, 0), "sigma is not a permutation of the darts"),
            ((1, 0), (0, 1), "theta is not a fixed-point-free involution at dart 0"),
        ],
    )
    def test_comb_map(self, sigma, theta, message):
        with pytest.raises(MapError) as exc:
            CombMap(sigma, theta)
        assert str(exc.value) == message

    def test_web_needs_a_checked_map(self):
        with pytest.raises(MapError, match=r"^Webs must be built by validate\(\) or by trusted skein surgery$"):
            Web(cube_web().map, 0)

    def test_negative_circle_count(self):
        with pytest.raises(MapError, match=r"^negative circle count$"):
            cube_web().with_circles(-1)


class TestIsSimple:
    def test_matches_vertex_pair_oracle(self):
        webs = [fixture_web(path.stem) for path in sorted(FIXTURES.glob("*.dart"))]
        assert len(webs) == 22
        for w in (cube_web(), hex_prism_web(), digon_prism_web()):
            webs += [child for red in find_all_reducibles(w) for child, _ in reduce_at(w, red)]
        webs += [validate(CombMap((), ())), theta_web()]
        verdicts = [w.is_simple() for w in webs]
        assert verdicts == [simple_by_vertex_pairs(w) for w in webs]
        # both verdicts occur, multi-edge children among the non-simple ones
        assert verdicts.count(False) >= 20 and verdicts.count(True) >= 22


class TestFaces:
    def test_cube_faces(self):
        faces = cube_web().map.faces()
        assert len(faces) == 6
        assert all(len(f) == 4 for f in faces)

    def test_theta_faces(self):
        faces = theta_map().faces()
        assert len(faces) == 3
        assert all(len(f) == 2 for f in faces)

    def test_doubled_cycle_faces(self):
        assert len(doubled_cycle_map().faces()) == 2

    def test_face_degree_sum(self):
        for w in (cube_web(), theta_web(), hex_prism_web(), digon_prism_web()):
            faces = w.map.faces()
            assert sum(len(f) for f in faces) == 2 * w.n_edges
            assert all(len(f) % 2 == 0 for f in faces)


class TestRestrict:
    def test_open_dart_set_named(self):
        # darts 0, 1, 2 are the cube's first vertex, and theta leads out
        m = cube_web().map
        leaving = min(d for d in (0, 1, 2) if m.theta[d] not in (0, 1, 2))
        with pytest.raises(MapError, match=f"^dart {leaving} has an image outside"):
            m.restrict([0, 1, 2])

    def test_components_as_checked(self):
        m = disjoint_union(disjoint_union(cube_web(), theta_web()), hex_prism_web()).map
        for comp in m.components():
            sub = m.restrict(comp)
            assert sub.faces() == CombMap(sub.sigma, sub.theta).faces()
            assert m.restrict(list(comp) + list(comp)) == sub


class TestDropAndRewire:
    def test_dangling_dart_named(self):
        # drop the vertex of dart 0 and re-pair nothing: the least surviving
        # dart whose partner was dropped is left dangling
        w = cube_web()
        sigma = w.map.sigma
        gone = {0, sigma[0], sigma[sigma[0]]}
        dangling = min(d for d in range(w.map.n_darts) if d not in gone and w.map.theta[d] in gone)
        with pytest.raises(MapError, match=f"^dart {dangling} left dangling"):
            planarmap._drop_and_rewire(w, (0,), (), 0)


def unchecked_builds(path):
    """Lines of a source file that build a map or a web unchecked: calls of
    `_trusted`, of `Web` or with a `_checked` keyword."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in ("_trusted", "Web") or any(k.arg == "_checked" for k in node.keywords):
                lines.append(node.lineno)
    return lines


class TestUncheckedBuilds:
    def test_only_planarmap_builds_unchecked(self):
        sources = sorted(Path(planarmap.__file__).parent.glob("*.py"))
        builds = {path.name: unchecked_builds(path) for path in sources}
        assert builds.pop("planarmap.py")
        assert builds == {path.name: [] for path in sources if path.name != "planarmap.py"}


# what the test oracles may take from the package: checked constructors,
# parsers and readers, none of which shares the engine's surgery
ORACLE_IMPORTS = {
    "CombMap", "validate", "MapError", "parse_map", "parse_web", "parse_qexpr",
    "HalfLaurent", "qint", "edge_3_coloring",
}


def package_imports(path):
    """The names a source file imports from `sl3webs`; a module imported
    whole is named by its dotted path."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "sl3webs":
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names if alias.name.split(".")[0] == "sl3webs"]
    return names


class TestOracleImports:
    def test_oracles_build_checked_only(self):
        path = Path(__file__).parent / "oracles.py"
        names = package_imports(path)
        assert names and set(names) <= ORACLE_IMPORTS, sorted(set(names) - ORACLE_IMPORTS)
        assert unchecked_builds(path) == []


class TestCanonicalKey:
    def test_relabel_invariance(self):
        rng = random.Random(11)
        for w in (cube_web(), theta_web(), hex_prism_web(), digon_prism_web()):
            k = canonical_key(w)
            for _ in range(5):
                assert canonical_key(random_relabel(w, rng)) == k

    @pytest.mark.parametrize(
        "name",
        ["omni_tetrahedron", "omni_cube", "omni_dodecahedron", "omni_prism5", "omni_antiprism4"],
    )
    def test_fixture_relabel_and_mirror_invariance(self, name):
        w = fixture_web(name)
        keys = {refl: canonical_key(w, refl) for refl in (True, False)}
        assert canonical_key(mirror(w), True) == keys[True]
        rng = random.Random(29)
        for _ in range(5):
            relabeled = random_relabel(w, rng)
            for refl in (True, False):
                assert canonical_key(relabeled, refl) == keys[refl]

    def test_mirror_invariance_with_reflections(self):
        for w in (cube_web(), theta_web(), hex_prism_web()):
            assert canonical_key(mirror(w), True) == canonical_key(w, True)

    def test_distinct_webs_distinct_keys(self):
        keys = {canonical_key(w) for w in (cube_web(), theta_web(), hex_prism_web(), digon_prism_web())}
        assert len(keys) == 4

    def test_matches_brute_force_iso(self):
        rng = random.Random(3)
        webs = [cube_web(), theta_web(), hex_prism_web(), digon_prism_web()]
        webs += [random_relabel(w, rng) for w in webs]
        keys = {refl: [canonical_key(w, refl) for w in webs] for refl in (True, False)}
        for i, a in enumerate(webs):
            for j in range(i, len(webs)):
                for refl in (True, False):
                    brute = bool(isomorphisms(a, webs[j], refl))
                    assert (keys[refl][i] == keys[refl][j]) == brute

    def test_matches_brute_force_iso_mid_reduction(self):
        # connected children of every reduction site: multi-edges and
        # uneven face lengths, so the least local class is a strict subset
        # of the darts and differs between the two rotations
        webs = [cube_web(), hex_prism_web(), digon_prism_web()]
        names = ["prime_8_1", "prime_8_2"] + [f"prime_10_{i}" for i in range(1, 9)]
        webs += [fixture_web(name) for name in names]
        children = [
            child
            for w in webs
            for red in find_all_reducibles(w)
            for child, _ in reduce_at(w, red)
            if len(child.map.components()) == 1
        ]
        assert len(children) > 150
        # face lengths are an isomorphism invariant (mirror included), so
        # webs with different ones need no brute-force search
        faces = [sorted(len(f) for f in c.map.faces()) for c in children]
        keys = {refl: [canonical_key(c, refl) for c in children] for refl in (True, False)}
        for i, a in enumerate(children):
            for j in range(i, len(children)):
                b = children[j]
                for refl in (True, False):
                    brute = faces[i] == faces[j] and bool(isomorphisms(a, b, refl))
                    assert (keys[refl][i] == keys[refl][j]) == brute
        rng = random.Random(17)
        for i, c in enumerate(children):
            assert canonical_key(mirror(c), True) == keys[True][i]
            relabeled = random_relabel(c, rng)
            for refl in (True, False):
                assert canonical_key(relabeled, refl) == keys[refl][i]

    def test_circle_count_in_key(self):
        w = cube_web()
        assert canonical_key(w) != canonical_key(w.with_circles(1))

    def test_canonical_form_representative(self):
        rng = random.Random(5)
        for w in (cube_web(), hex_prism_web()):
            c1 = canonical_form(w)
            c2 = canonical_form(random_relabel(w, rng))
            assert c1.map.sigma == c2.map.sigma
            assert c1.map.theta == c2.map.theta

    def test_disjoint_union_key_order_independent(self):
        a, b = cube_web(), hex_prism_web()
        assert canonical_key(disjoint_union(a, b)) == canonical_key(disjoint_union(b, a))


class TestShape:
    def test_pinned(self):
        # the suite runs under two string hash seeds: a shape that hashed
        # a str would differ between them
        assert planarmap._shape(fixture_web("omni_cube").map) == 653669989604012126

    @pytest.mark.parametrize("name", ["omni_cube", "omni_antiprism5", "prime_10_8", "prime_9_2"])
    def test_relabel_and_mirror_invariance(self, name):
        w = fixture_web(name)
        shape = planarmap._shape(w.map)
        rng = random.Random(41)
        for copy in (random_relabel(w, rng), random_relabel(w, rng), mirror(w), mirror(random_relabel(w, rng))):
            assert planarmap._shape(copy.map) == shape

    def test_kept_on_the_map(self):
        # computed once, with the neighbour sums a child carries forward
        m = fixture_web("omni_tetrahedron").map
        shape = planarmap._shape(m)
        assert m._shape == shape and len(m._face_sums) == len(m.faces())
        m._shape = 7
        assert planarmap._shape(m) == 7


# sha256 of the keys and of the canonical forms below; a change to the
# canonical labeling that moves any byte must update these on purpose
KEY_DIGEST = "900ace15877e817fc247157a20e370e5888f4cbff86f74ddb56a2240e6cfd273"
FORM_DIGEST = "493554726fb48e14d6182c30383ba2b9cd3200f6e531314f3f189e670df77a5f"
PINNED_OMNI = ("omni_tetrahedron", "omni_cube", "omni_dodecahedron", "omni_prism5", "omni_antiprism4")


class TestPinnedCanonicalBytes:
    def test_key_bytes(self):
        # every fixture and every child of every reduction site, under
        # both reflection settings
        h = hashlib.sha256()
        count = 0
        for path in sorted(FIXTURES.glob("*.dart")):
            for refl in (True, False):
                w = parse_web(path.read_text())
                h.update(canonical_key(w, refl))
                count += 1
                for red in find_all_reducibles(w):
                    for child, _ in reduce_at(w, red):
                        h.update(canonical_key(child, refl))
                        count += 1
        assert count == 924
        assert h.hexdigest() == KEY_DIGEST

    def test_packed_root_classes_order_like_tuples(self):
        # the least packed class and its roots against the 4-tuples of face
        # lengths at (d, theta d, rot d, theta rot d) over every dart of
        # both rotations, on every fixture and every component of every
        # reduction child
        maps = []
        for path in sorted(FIXTURES.glob("*.dart")):
            w = parse_web(path.read_text())
            maps.append(w.map)
            for red in find_all_reducibles(w):
                for child, _ in reduce_at(w, red):
                    maps += [child.map.restrict(comp) for comp in child.map.components()]
        assert len(maps) > 400
        for cmap in maps:
            rotations = planarmap._rotations(cmap, True)
            classes = [
                ((flen[d], ftheta[d], flen[rot[d]], ftheta[rot[d]]), i, d)
                for i, (rot, flen, ftheta) in enumerate(rotations)
                for d in range(cmap.n_darts)
            ]
            # rot d lies on the face of theta d
            assert all(cls[1] == cls[2] for cls, _, _ in classes)
            least = min(cls for cls, _, _ in classes)
            index = {id(rot): i for i, (rot, _, _) in enumerate(rotations)}
            got_least, got = planarmap._least_roots(rotations)
            assert [(index[id(rot)], d) for rot, d in got] == [(i, d) for cls, i, d in classes if cls == least]
            base = cmap.n_darts + 1
            assert got_least == (least[0] * base + least[1]) * base + least[3]

    def test_canonical_form_and_automorphisms(self):
        h = hashlib.sha256()
        for name in PINNED_OMNI:
            w = fixture_web(name)
            for refl in (True, False):
                c = canonical_form(w, refl)
                h.update(repr((c.map.sigma, c.map.theta, automorphism_count(w, refl))).encode())
        assert h.hexdigest() == FORM_DIGEST


class TestAutomorphisms:
    def test_cube_with_reflections(self):
        assert automorphism_count(cube_web(), True) == 48

    def test_cube_orientation_preserving(self):
        assert automorphism_count(cube_web(), False) == 24

    def test_theta_matches_brute_force(self):
        w = theta_web()
        assert automorphism_count(w, False) == len(isomorphisms(w, w, False)) == 6
        assert automorphism_count(w, True) == len(isomorphisms(w, w, True)) == 12

    def test_hex_prism(self):
        w = hex_prism_web()
        assert automorphism_count(w, False) == len(isomorphisms(w, w, False)) == 12
        assert automorphism_count(w, True) == 24

    @pytest.mark.parametrize(
        "name, plain, refl",
        [
            ("omni_tetrahedron", 24, 48),
            ("omni_cube", 24, 48),
            ("omni_dodecahedron", 60, 120),
            ("omni_prism5", 10, 20),
            ("omni_antiprism4", 8, 16),
        ],
    )
    def test_omnitruncated_fixtures(self, name, plain, refl):
        w = fixture_web(name)
        assert automorphism_count(w, False) == plain
        assert automorphism_count(w, True) == refl

    def test_divides_four_e(self):
        for w in (cube_web(), theta_web(), hex_prism_web(), digon_prism_web()):
            n = automorphism_count(w, True)
            assert (4 * w.n_edges) % n == 0

    def test_listed_maps_match_brute_force_on_primes(self):
        # every prime of 8-24 vertices and a seeded relabelling of each:
        # the generators the canonical search keeps close to the group
        rng = random.Random(32)
        primes = [w for n in range(8, 26, 2) for w in all_primes(n)]
        webs = primes + [random_relabel(w, rng) for w in primes]
        assert len(webs) == 110
        for w in webs:
            sigma, theta = w.map.sigma, w.map.theta
            brute = isomorphisms(w, w)
            for refl in (True, False):
                _, gens, order = planarmap._root_search(w.map, refl)
                for perm, mirrored in gens:
                    assert mirrored <= refl
                    rot = [sigma[s] for s in sigma] if mirrored else sigma
                    assert all(perm[theta[d]] == theta[perm[d]] for d in range(len(perm)))
                    assert all(perm[sigma[d]] == rot[perm[d]] for d in range(len(perm)))
                group = closure(gens, w.map.n_darts)
                assert group == {g for g in brute if refl or not g[1]}
                assert automorphism_count(w, refl) == order == len(group)

    def test_listed_maps_on_multigraphs(self):
        for w in (theta_web(), digon_prism_web(), hex_prism_web(), cube_web()):
            for refl in (True, False):
                group = closure(planarmap._root_search(w.map, refl)[1], w.map.n_darts)
                assert group == set(isomorphisms(w, w, refl))


def closure(gens, n):
    """The group the (perm, mirror) generators generate, as a set of
    (perm, mirror) pairs, by a search from the identity."""
    group = {(tuple(range(n)), False)}
    todo = list(group)
    for perm, mirrored in todo:
        for g, m in gens:
            image = (tuple(map(g.__getitem__, perm)), mirrored != m)
            if image not in group:
                group.add(image)
                todo.append(image)
    return group


class TestMirror:
    def test_cube_amphichiral(self):
        assert isomorphic(mirror(cube_web()), cube_web(), include_reflections=False)

    def test_involution(self):
        for w in (cube_web(), theta_web(), hex_prism_web(), digon_prism_web()):
            assert isomorphic(mirror(mirror(w)), w, include_reflections=False)


class TestConnectivity:
    def test_cube_three_connected(self):
        assert connectivity(cube_web()) == 3

    def test_hex_prism_three_connected(self):
        assert connectivity(hex_prism_web()) == 3

    def test_non_simple_rejected(self):
        with pytest.raises(MapError):
            connectivity(theta_web())
        with pytest.raises(MapError):
            connectivity(digon_prism_web())


class TestPolygonalDecompositions:
    def test_cube_sizes(self):
        decs = edge_3_coloring(cube_web())
        assert sorted(d.sizes() for d in decs) == [(4, 4), (4, 4), (4, 4)]

    def test_hex_prism_sizes(self):
        decs = edge_3_coloring(hex_prism_web())
        assert sorted(d.sizes() for d in decs) == [(4, 4, 4), (4, 4, 4), (6, 6)]

    def test_proper_coloring(self):
        rng = random.Random(15)
        webs = [cube_web(), hex_prism_web()]
        for n in range(8, 22, 2):
            for p in all_primes(n):
                webs += [p, random_relabel(p, rng)]
        assert len(webs) == 2 + 2 * 15
        for w in webs:
            decs = edge_3_coloring(w)
            for dec in decs:
                for orbit in w.map.vertices():
                    cols = sorted(dec.coloring[min(d, w.map.theta[d])] for d in orbit)
                    assert cols == [0, 1, 2]

    def test_sizes_sum_to_vertex_count(self):
        for w in (cube_web(), hex_prism_web()):
            for dec in edge_3_coloring(w):
                assert sum(dec.sizes()) == w.n_vertices

    def test_relabel_invariance(self):
        rng = random.Random(23)
        for w in (cube_web(), hex_prism_web()):
            expect = sorted(d.sizes() for d in edge_3_coloring(w))
            for _ in range(10):
                got = sorted(d.sizes() for d in edge_3_coloring(random_relabel(w, rng)))
                assert got == expect

    def test_requires_three_connected(self):
        with pytest.raises(MapError):
            edge_3_coloring(theta_web())
        # a connected sum is simple and only 2-connected
        w = connected_sum(cube_web(), 0, cube_web(), 0)
        assert w.is_simple() and connectivity(w) == 2
        with pytest.raises(MapError, match=r"^polygonal decompositions need a 3-connected web$"):
            edge_3_coloring(w)

    def test_pinned_colorings_to_22(self):
        # which face gets which colour, and so which edge gets which, is
        # fixed by dart 0's vertex; any change to that shows here
        digest = hashlib.sha256()
        for n in range(8, 24, 2):
            for w in all_primes(n):
                for dec in edge_3_coloring(w):
                    digest.update(repr((dec.pair, dec.connector_color, sorted(dec.coloring.items()))).encode())
                    digest.update(repr((dec.polygon_faces, dec.polygons)).encode())
        assert digest.hexdigest() == "1883b1618bb4ad63c714949ecd49ddcf73af7f86364f213339258cc04d7c638b"


class TestLevelsAndCircularity:
    def test_cube_levels_all_one(self):
        w = cube_web()
        decs = edge_3_coloring(w)
        dec = decs[0]
        exterior = next(
            f for f in range(len(w.map.faces())) if f not in dec.polygon_faces
        )
        levels = polygon_levels(w, dec, exterior)
        assert set(levels.values()) == {1}

    def test_exterior_must_not_be_polygon(self):
        w = cube_web()
        dec = edge_3_coloring(w)[0]
        with pytest.raises(MapError):
            polygon_levels(w, dec, dec.polygon_faces[0])

    def test_cube_circular(self):
        w = cube_web()
        assert planarmap._circular_witness(w.map, edge_3_coloring(w)) is not None
        dec, ext = planarmap._circular_witness(w.map, edge_3_coloring(w))
        assert ext not in dec.polygon_faces

    def test_hex_prism_circular(self):
        w = hex_prism_web()
        assert planarmap._circular_witness(w.map, edge_3_coloring(w)) is not None


CUBE_SIMPLE = """\
1: 2 8 4
2: 1 3 7
3: 2 4 6
4: 1 5 3
5: 4 8 6
6: 3 5 7
7: 2 6 8
8: 1 7 5
"""

THETA_DART = """\
darts: 6
v 1: 0 2 4
v 2: 1 5 3
e: 0 1
e: 2 3
e: 4 5
"""


class TestFormats:
    def test_cube_simple_roundtrip(self):
        cmap, circles = parse_map(CUBE_SIMPLE)
        assert circles == 0
        w = validate(cmap)
        assert isomorphic(w, cube_web())
        assert serialize_map(cmap, 0, "simple") == CUBE_SIMPLE

    def test_theta_dart_roundtrip(self):
        cmap, circles = parse_map(THETA_DART)
        w = validate(cmap, circles)
        assert isomorphic(w, theta_web())
        assert serialize_map(cmap, 0, "dart") == THETA_DART

    def test_serialize_parse_web(self):
        for w in (cube_web(), theta_web(), hex_prism_web(), digon_prism_web()):
            for fmt in ("dart",):
                assert isomorphic(parse_web(serialize_web(w, fmt)), w)
        assert isomorphic(parse_web(serialize_web(cube_web(), "simple")), cube_web())

    def test_circles_trailer(self):
        text = serialize_web(theta_web().with_circles(2))
        w = parse_web(text)
        assert w.circles == 2
        text = serialize_web(cube_web().with_circles(3), "simple")
        assert text.endswith("\n8: 1 7 5\ncircles: 3\n")
        w = parse_web(text)
        assert isomorphic(w, cube_web().with_circles(3))

    def test_unknown_format(self):
        with pytest.raises(ValueError, match=r"^unknown format 'svg'$"):
            serialize_map(cube_web().map, 0, "svg")

    def test_dangling_dart_named(self):
        bad = "darts: 6\nv 1: 0 2 4\nv 2: 1 5 3\ne: 0 1\ne: 2 3\ne: 4 7\n"
        with pytest.raises(FormatError) as exc:
            parse_map(bad)
        assert "7" in str(exc.value)

    def test_inconsistent_involution(self):
        bad = "darts: 4\nv 1: 0 1\nv 2: 2 3\ne: 0 1\ne: 1 2\n"
        with pytest.raises(FormatError):
            parse_map(bad)

    def test_edge_pairing_a_dart_with_itself(self):
        # the line is blamed, not a dart it leaves unpaired (dart 3) or
        # the involution check, which names no line
        for edges, line, dart in (("e: 0 1\ne: 2 2\ne: 4 5\n", 5, 2), ("e: 0 0\ne: 1 1\ne: 2 3\ne: 4 5\n", 4, 0)):
            with pytest.raises(FormatError) as exc:
                parse_map("darts: 6\nv 1: 0 2 4\nv 2: 1 3 5\n" + edges)
            assert exc.value.line == line
            assert str(exc.value) == f"line {line}: edge line pairs dart {dart} with itself"

    def test_degree_flagged_at_validate_not_parse(self):
        cmap, _ = parse_map("darts: 4\nv 1: 0 2\nv 2: 1 3\ne: 0 1\ne: 2 3\n")
        with pytest.raises(NotCubic):
            validate(cmap)

    def test_simple_format_rejects_multigraph(self):
        with pytest.raises(MapError):
            serialize_web(theta_web(), "simple")

    def test_syntax_error_line_number(self):
        with pytest.raises(FormatError) as exc:
            parse_map("1: 2 3 4\nnot a line\n")
        assert exc.value.line == 2

    def test_rotation_line_without_colon(self):
        with pytest.raises(FormatError) as exc:
            parse_map(THETA_DART.replace("v 1: 0 2 4", "v 1 0 2 4"))
        assert exc.value.line == 2 and "expected 'v N: darts'" in str(exc.value)

    def test_darts_header_must_match_rotations(self):
        # a huge header is refused before anything of its size is allocated
        for header in ("1000000000000", "8", "-6"):
            with pytest.raises(FormatError) as exc:
                parse_map(THETA_DART.replace("darts: 6", f"darts: {header}"))
            assert exc.value.line == 1 and header in str(exc.value)

    def test_non_integer_header_line_number(self):
        for text in (THETA_DART + "circles: abc\n", "darts: x\n", "1: 2\n2: 1\ncircles: abc\n"):
            with pytest.raises(FormatError) as exc:
                parse_map(text)
            assert exc.value.line == text.count("\n")

    def test_circle_count_limit(self):
        for prefix in ("darts: 0\n", ""):
            _, circles = parse_map(f"{prefix}circles: {MAX_CIRCLES}\n")
            assert circles == MAX_CIRCLES
            for bad in (MAX_CIRCLES + 1, 8000, -1):
                with pytest.raises(FormatError) as exc:
                    parse_map(f"{prefix}circles: {bad}\n")
                assert str(bad) in str(exc.value)


# the two rotations of a theta web's DART text, and its three edges
THETA_ROTATIONS = "darts: 6\nv 1: 0 2 4\nv 2: 1 3 5\n"
THETA_EDGES = "e: 0 1\ne: 2 3\ne: 4 5\n"


class TestParserErrors:
    """Each parser error by its exact message and line (None where the
    error names no line)."""

    @pytest.mark.parametrize(
        "text, message, line",
        [
            ("\n# only a comment\n", "empty map file", None),
            # without its header, DART text is read as SIMPLE
            ("v 1: 0 2 4\nv 2: 1 3 5\n" + THETA_EDGES, "line 1: bad vertex id 'v 1'", 1),
            ("darts: 6\nv 1: 0 2 x\nv 2: 1 3 5\n", "line 2: expected integers", 2),
            ("darts: 6\nv 1: 0 2 4\nv 2: 1 3 6\n" + THETA_EDGES, "line 3: dart 6 out of range", 3),
            (THETA_ROTATIONS + "e: 0 1\ne: 2 3\ne: 4 6\n", "line 6: dart 6 out of range", 6),
            ("darts: 6\nv 1: 0 2 4\nv 2: 1 3 4\n" + THETA_EDGES, "line 3: dart 4 appears in two rotations", 3),
            (THETA_ROTATIONS + "e: 0 1\ne: 2 3\ne: 4 1\n", "line 6: dart 1 appears in two edges", 6),
            # a dart left out of every rotation is caught by the count
            (
                "darts: 6\nv 1: 0 2 4\nv 2: 1 3\n" + THETA_EDGES,
                "line 1: 'darts: 6' but the rotation lines list 5 darts",
                1,
            ),
            (THETA_ROTATIONS + "e: 0 1\ne: 2 3\n", "dart 4 missing from all edges", None),
            (THETA_ROTATIONS + "e: 0 1\ne: 2 3 4\n", "line 5: edge line needs exactly two darts", 5),
            (THETA_ROTATIONS + "e: 0 1\nf: 2 3\n", "line 5: unrecognized line 'f: 2 3'", 5),
        ],
    )
    def test_dart(self, text, message, line):
        with pytest.raises(FormatError) as exc:
            parse_map(text)
        assert str(exc.value) == message
        assert exc.value.line == line

    @pytest.mark.parametrize(
        "text, message, line",
        [
            ("1: 2 3 4\n2: 1\n1: 2\n", "line 3: vertex 1 listed twice", 3),
            ("1: 2\nv2: 1\n", "line 2: bad vertex id 'v2'", 2),
            ("1: 3\n3: 1\n", "vertex ids must be 1..2, got [1, 3]", None),
            ("1: 2\n2: 3\n", "line 2: vertex 2 names unknown neighbor 3", 2),
            # from_rotations' errors pass through, naming no line
            ("1: 2 2\n2: 1 1\n", "vertex 0: duplicate neighbor (multi-edges need DART form)", None),
        ],
    )
    def test_simple(self, text, message, line):
        with pytest.raises(FormatError) as exc:
            parse_map(text)
        assert str(exc.value) == message
        assert exc.value.line == line

    @pytest.mark.parametrize(
        "neighbors, message",
        [
            ([[1, 1], [0, 0]], "vertex 0: duplicate neighbor (multi-edges need DART form)"),
            ([[0, 1], [0]], "vertex 0: loop"),
            ([[1], []], "edge 0-1 has no reciprocal entry at vertex 1"),
        ],
    )
    def test_from_rotations(self, neighbors, message):
        with pytest.raises(MapError) as exc:
            from_rotations(neighbors)
        assert str(exc.value) == message


class TestEuler:
    def test_euler_per_component(self):
        for w in (cube_web(), theta_web(), hex_prism_web()):
            m = w.map
            comps = m.components()
            v = m.n_vertices
            e = m.n_edges
            f = len(m.faces())
            assert v - e + f == 2 * len(comps)

    def test_disjoint_union_euler(self):
        w = disjoint_union(cube_web(), theta_web())
        m = w.map
        assert m.n_vertices - m.n_edges + len(m.faces()) == 4
