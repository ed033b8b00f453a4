import hashlib
import json
import random
import zlib

import pytest

from sl3webs import enumerator, planarmap, reducer
from sl3webs.enumerator import _prime_layers, all_primes
from sl3webs.planarmap import (
    CombMap,
    MapError,
    canonical_form,
    canonical_key,
    connectivity,
    disjoint_union,
    mirror,
    parse_web,
    serialize_web,
    validate,
)
from sl3webs.primedec import connected_sum, split
from sl3webs.qlaurent import HalfLaurent, parse_qexpr, qint
from sl3webs.reducer import clear_memo, invariant
from oracles import (
    Site,
    apply_bigon,
    apply_square,
    circular_primes,
    find_all_reducibles,
    invariant_random_order,
    pushing_moves,
    reduce_at,
)
from test_enumerator import every_push
from test_primedec import random_sums
from webfixtures import FIXTURES, cube_web, digon_expand, digon_prism_web, fixture_web, hex_prism_web, theta_web


def empty_web(circles=0):
    return validate(CombMap((), ()), circles)


def first_site(web, kind):
    """The least dart on a face of `kind` ("bigon" or "square")."""
    return next(red.site for red in find_all_reducibles(web) if red.kind == kind)


def pinned_solid(name):
    pinned = json.loads((FIXTURES / "pinned.json").read_text())["solids"][name]["invariant"]
    return HalfLaurent({int(e): int(c) for e, c in pinned.items()})


class TestApplyCircle:
    def test_single(self):
        ((w, factor),) = reduce_at(empty_web(1), Site("circle"))
        assert w.is_empty()
        assert factor == qint(3)

    def test_two_circles_multiplicative(self):
        assert invariant(empty_web(2)) == qint(3) ** 2

    def test_beside_cube(self):
        ((w, factor),) = reduce_at(cube_web().with_circles(1), Site("circle"))
        assert w.circles == 0 and w.n_vertices == 8
        assert factor == qint(3)

    def test_no_circle_raises(self):
        with pytest.raises(MapError):
            reduce_at(cube_web(), Site("circle"))


class TestApplyBigon:
    def test_theta_collapses_to_circle(self):
        w = theta_web()
        child, factor = apply_bigon(w, first_site(w, "bigon"))
        assert factor == -qint(2)
        assert child.n_vertices == 0 and child.circles == 1

    def test_digon_prism_becomes_theta(self):
        w = digon_prism_web()
        child, factor = apply_bigon(w, first_site(w, "bigon"))
        assert child.n_vertices == w.n_vertices - 2
        assert factor == -qint(2)
        from sl3webs.planarmap import isomorphic

        assert isomorphic(child, theta_web())

    def test_not_a_bigon(self):
        w = cube_web()
        with pytest.raises(MapError):
            apply_bigon(w, 0)


def fixture_webs():
    """The builder webs and every committed fixture."""
    webs = [cube_web(), theta_web(), digon_prism_web(), hex_prism_web()]
    return webs + [parse_web(path.read_text()) for path in sorted(FIXTURES.glob("*.dart"))]


def split_sums():
    """Connected sums of two digon prisms: the join makes a square whose
    opposite edges are the 2-edge cut, and one of its smoothings
    disconnects."""
    d = digon_prism_web()
    return [connected_sum(d, ea, d, eb) for ea, eb in ((0, 2), (2, 0), (5, 8), (9, 11))]


def children_of(webs):
    """Every reduce_at child of every site of the webs."""
    return [child for w in webs for red in find_all_reducibles(w) for child, _ in reduce_at(w, red)]


def assert_as_validated(child):
    """A child built by trusted surgery is what validation would build."""
    m = child.map
    fresh = validate(CombMap(m.sigma, m.theta), child.circles)
    assert m.faces() == fresh.map.faces()
    assert m.components() == CombMap(m.sigma, m.theta).components()
    assert reducer._plane_components(m) == len(fresh.map.components())


class TestTrustedChildren:
    def test_reduction_children_pass_validation(self):
        webs = [cube_web(), theta_web(), digon_prism_web(), hex_prism_web()]
        webs += [fixture_web("omni_tetrahedron"), fixture_web("omni_cube")] + split_sums()
        children = children_of(webs)
        for child in children:
            assert_as_validated(child)
        assert len(children) == 101
        # the Euler count is exercised above one and at zero (a theta
        # graph's bigon leaves only a circle)
        assert any(reducer._plane_components(c.map) > 1 for c in children)
        assert any(c.map.n_darts == 0 for c in children)

    def test_engine_children_pass_validation(self, empty_memo, monkeypatch):
        # the oracles build their children checked; the engine's own, every
        # web its cascade returns while these webs are valued, are unchecked
        children = []
        cascade = reducer._cascade

        def spy(*args):
            result = cascade(*args)
            children.append(result[0])
            return result

        monkeypatch.setattr(reducer, "_cascade", spy)
        webs = [cube_web(), theta_web(), digon_prism_web(), hex_prism_web()]
        webs += [fixture_web("omni_tetrahedron"), fixture_web("omni_cube")] + split_sums()
        for w in webs:
            invariant(w)
        for child in children:
            assert_as_validated(child)
        # the theta's bigons contract to a circle alone
        assert len(children) == 54 and any(c.map.n_darts == 0 for c in children)

    def test_sides_and_components_pass_validation(self):
        # splitting and restricting build unchecked too: every side of
        # every cut of seeded sums, each also dart-shuffled, and every
        # component of the reduction children that have several
        rng = random.Random(7)
        sums = []
        for w in random_sums(20261019, 12):
            sums += [w, shuffled(w, rng)]
        sides = [side for w in sums for cut in planarmap._bonds(w.map) for side in split(w, cut)]
        webs = [cube_web(), theta_web(), digon_prism_web(), hex_prism_web()]
        webs += [fixture_web("omni_tetrahedron"), fixture_web("omni_cube")] + split_sums()
        parts = [part for c in children_of(webs) if reducer._plane_components(c.map) > 1 for part in c.components()]
        for web in sides + parts:
            assert_as_validated(web)
        assert len(sides) == 112 and len(parts) == 8

    def test_pushing_children_pass_validation(self):
        children = [c for w in circular_primes(16) + circular_primes(18) for c in pushing_moves(w)]
        for child in children:
            assert_as_validated(child)
        assert len(children) == 15

    def test_unpacked_children_as_stored(self):
        # the isomorphism store rebuilds a stored map unchecked; it must be
        # the map packed, with the faces a checked construction derives
        fixtures = [parse_web(path.read_text()) for path in sorted(FIXTURES.glob("*.dart"))]
        assert len(fixtures) == 22
        for child in children_of(fixtures):
            m = child.map
            got = planarmap._unpack(planarmap._Entry(m))
            assert got == m
            assert got.face_lengths() == CombMap(m.sigma, m.theta).face_lengths()
            assert got.faces() == CombMap(m.sigma, m.theta).faces()

    def test_entries_pack_at_int32_from_two_to_the_fifteen_darts(self):
        # below 2^15 darts the labels and face lengths fit int16
        for n in (2**15 - 2, 2**15, 2**15 + 2):
            m = CombMap(list(range(n)), [d ^ 1 for d in range(n)])
            entry = planarmap._Entry(m)
            assert len(entry.labels) == 2 * len(entry.flen) == 2 * n * (2 if n < 2**15 else 4)
            got = planarmap._unpack(entry)
            assert got == m and got.face_lengths() == m.face_lengths()

    def test_rooting_an_entry_walks_no_face(self, monkeypatch):
        # the packed entry carries its face lengths, which is all that
        # rooting reads of the faces; rooting drops them and keeps the
        # labels
        entries = []
        for name in ("prime_9_1", "omni_tetrahedron"):
            w = fixture_web(name)
            entries.append((planarmap._Entry(w.map), planarmap._rooting(w.map)))

        def no_walk(perm):
            raise AssertionError("face orbits walked")

        monkeypatch.setattr(planarmap, "_orbits", no_walk)
        for entry, (least, roots) in entries:
            labels = entry.labels
            entry.root()
            assert entry.flen is None and entry.labels is labels and entry.least == least

    def test_faces_have_distinct_vertices(self):
        # a web has no bridge, so each component is a 2-connected cubic
        # plane graph and every face boundary is a cycle; the surgery in
        # reducer._reduce relies on this
        webs = fixture_webs() + split_sums()
        webs += children_of(webs)
        for w in webs:
            vof = w.map.vertex_table()
            for face in w.map.faces():
                assert len({vof[d] for d in face}) == len(face)

    def test_converse_pushes_pass_validation(self):
        # every converse push of every prime of 8-22 vertices is built
        # unchecked, and the census keeps a push on its bond scan alone, so
        # each must also be connected and simple
        pushes = [c for _, found in _prime_layers(22) for w in found for c in every_push(w)]
        for child in pushes:
            assert_as_validated(child)
            assert len(child.map.components()) == 1 and child.is_simple()
        assert len(pushes) == 441

    def test_connected_sums_pass_validation(self):
        # seeded sums of the prime fixtures, a third of them summed onto
        # the previous sum, so sums of sums are built too
        primes = [parse_web(path.read_text()) for path in sorted(FIXTURES.glob("prime_*.dart"))]
        assert len(primes) == 15
        rng = random.Random(2022)
        web = primes[0]
        for i in range(300):
            a = web if i % 3 else rng.choice(primes)
            b = rng.choice(primes)
            web = connected_sum(a, rng.randrange(a.map.n_darts), b, rng.randrange(b.map.n_darts))
            assert_as_validated(web)
            assert web.n_vertices == a.n_vertices + b.n_vertices

    def test_unions_and_relabellings_pass_validation(self):
        webs = fixture_webs()
        for i, w in enumerate(webs):
            other = webs[(i + 1) % len(webs)].with_circles(i % 3)
            union = disjoint_union(w, other)
            assert_as_validated(union)
            assert union.circles == other.circles
            assert_as_validated(disjoint_union(union, w))
            assert_as_validated(mirror(other))
            assert mirror(mirror(w)).map == w.map
            for refl in (True, False):
                form = canonical_form(other, refl)
                assert_as_validated(form)
                assert form.circles == other.circles and canonical_key(form, refl) == canonical_key(other, refl)

    def test_builders_construct_no_checked_map(self, monkeypatch):
        # the builders derive webs from webs, so none constructs a checked
        # CombMap (which every validate call is handed)
        primes = [parse_web(path.read_text()) for path in sorted(FIXTURES.glob("prime_*.dart"))]
        webs = fixture_webs()
        checked = []
        init = CombMap.__init__

        def counted_init(self, sigma, theta):
            checked.append(len(sigma))
            init(self, sigma, theta)

        monkeypatch.setattr(CombMap, "__init__", counted_init)
        pushes = [c for w in primes for c in every_push(w)]
        sums = [connected_sum(a, 0, b, 1) for a, b in zip(primes, primes[1:])]
        unions = [disjoint_union(a, b) for a, b in zip(webs, webs[1:])]
        relabelled = [f(w) for w in webs for f in (mirror, canonical_form)]
        assert pushes and sums and unions and relabelled
        assert checked == []


class TestApplySquare:
    def test_cube_children(self):
        w = cube_web()
        a, b = apply_square(w, first_site(w, "square"))
        assert a.n_vertices == 4 and b.n_vertices == 4
        assert invariant(a) + invariant(b) == parse_qexpr("2[2]^2[3]")

    def test_vertex_count_drops_by_four(self):
        for w in (cube_web(), hex_prism_web()):
            for red in find_all_reducibles(w):
                if red.kind != "square":
                    continue
                a, b = apply_square(w, red.site)
                assert a.n_vertices == w.n_vertices - 4
                assert b.n_vertices == w.n_vertices - 4

    def test_not_a_square(self):
        w = hex_prism_web()
        hexagon = next(face for face in w.map.faces() if len(face) == 6)
        with pytest.raises(MapError, match=f"^dart {hexagon[0]} does not lie on a square face"):
            apply_square(w, hexagon[0])

    def test_standalone_square_closure_circles(self):
        # digon prism = square closed by two arcs; smoothing along the arcs
        # must produce circles
        w = digon_prism_web()
        square_sites = [r for r in find_all_reducibles(w) if r.kind == "square"]
        assert square_sites
        a, b = apply_square(w, square_sites[0].site)
        assert a.circles + b.circles >= 1
        assert invariant(a) + invariant(b) == invariant(w)


def bigon_loop(web):
    """The reference for `simplify`: apply_bigon at the least dart of a
    2-face until none is left; (web, uses)."""
    uses = 0
    while bigons := [face[0] for face in web.map.faces() if len(face) == 2]:
        web, _ = apply_bigon(web, bigons[0])
        uses += 1
    return web, uses


def assert_same_result(got, want):
    """Equal (web, uses) pairs, the webs byte for byte: darts, faces and
    circles."""
    (a, ua), (b, ub) = got, want
    assert ua == ub and a.circles == b.circles
    assert (a.map.sigma, a.map.theta, a.map.faces()) == (b.map.sigma, b.map.theta, b.map.faces())


def multi_edge_webs():
    """Webs with doubled edges: thetas, digon prisms and expansions, bigon
    chains, sums joined at doubled edges and sums of digon prisms, with
    their mirror images and the reduce_at children of each."""
    dcube, dhex = digon_expand(cube_web(), 0), digon_expand(hex_prism_web(), 0)
    webs = [theta_web(), digon_prism_web(), dcube, dhex, digon_expand(dcube, dcube.map.n_darts - 5)]
    webs += [connected_sum(dcube, dcube.map.n_darts - 5, cube_web(), 0),
             connected_sum(dcube, dcube.map.n_darts - 5, dcube, dcube.map.n_darts - 5),
             connected_sum(dhex, dhex.map.n_darts - 5, dcube, dcube.map.n_darts - 5)]
    for name, seed in (("prime_4_1", 5), ("prime_9_1", 6), ("omni_tetrahedron", 7)):
        web = fixture_web(name)
        rng = random.Random(seed)
        for dart in rng.sample(range(web.map.n_darts), 4):
            web = with_bigon(web, dart)
        for _ in range(2):
            web = with_bigon(web, web.map.n_darts - 3)
        webs.append(web)
    webs += split_sums()
    webs += [mirror(w) for w in webs]
    return webs + children_of(webs)


class TestCascade:
    def test_simplify_is_the_bigon_loop(self):
        webs = fixture_webs() + multi_edge_webs()
        assert sum(bigon_loop(w)[1] > 0 for w in webs) > 100
        for w in webs:
            assert_same_result(reducer.simplify(w), bigon_loop(w))

    def test_square_children_are_the_loop(self, empty_memo, monkeypatch):
        # every square the engine smooths on the solids: its two cascades,
        # in order, are apply_square's children after the bigon loop
        smoothed = {}
        cascade = reducer._cascade

        def spy(web, face, pairs, seeds):
            result = cascade(web, face, pairs, seeds)
            if face:
                smoothed.setdefault(id(web), (web, face[0], []))[2].append(result)
            return result

        monkeypatch.setattr(reducer, "_cascade", spy)
        for path in sorted(FIXTURES.glob("omni_*.dart")):
            assert invariant(parse_web(path.read_text())) == pinned_solid(path.stem)
        assert len(smoothed) == 660
        contracted = 0
        for web, site, results in smoothed.values():
            wants = list(map(bigon_loop, apply_square(web, site)))
            assert len(results) == 2
            for got, want in zip(results, wants):
                assert_same_result(got, want)
                contracted += got[1]
        assert contracted > 0


class TestInvariant:
    def test_circle(self):
        assert invariant(empty_web(1)) == HalfLaurent({2: 1, 0: 1, -2: 1})

    def test_theta(self):
        assert invariant(theta_web()) == -qint(2) * qint(3)

    def test_cube_table_row(self):
        assert invariant(cube_web()) == parse_qexpr("2[2]^2[3]")

    def test_hex_prism_table_row(self):
        assert invariant(hex_prism_web()) == parse_qexpr("[2]^4[3]+2[2]^2[3]")

    def test_digon_prism(self):
        assert invariant(digon_prism_web()) == parse_qexpr("[3][2]^2")

    def test_empty(self):
        assert invariant(empty_web()) == HalfLaurent.one()

    def test_multiplicativity(self):
        webs = [cube_web(), theta_web(), hex_prism_web(), digon_prism_web()]
        for a in webs:
            for b in webs:
                assert invariant(disjoint_union(a, b)) == invariant(a) * invariant(b)

    def test_mirror_invariance(self):
        for w in (cube_web(), theta_web(), hex_prism_web(), digon_prism_web()):
            assert invariant(mirror(w)) == invariant(w)

    def test_palindromic_values(self):
        for w in (cube_web(), theta_web(), hex_prism_web()):
            assert invariant(w).is_palindromic()


@pytest.fixture
def empty_memo():
    clear_memo()
    yield
    clear_memo()


def relabelled_mirror(web, seed):
    perm = list(range(web.map.n_darts))
    random.Random(seed).shuffle(perm)
    return validate(mirror(web).map.relabel(perm), web.circles)


def with_bigon(web, dart):
    """Undo a bigon contraction: the edge of `dart` becomes a path through
    two new vertices joined by a doubled edge.  Of the two ways to pair the
    doubled edge's ends, validation keeps the one that stays plane."""
    n = web.map.n_darts
    sigma = list(web.map.sigma) + [n + 1, n + 2, n, n + 4, n + 5, n + 3]
    theta = list(web.map.theta) + [0] * 6
    a, b = dart, web.map.theta[dart]
    for pairs in (((n + 1, n + 4), (n + 2, n + 5)), ((n + 1, n + 5), (n + 2, n + 4))):
        for x, y in pairs + ((a, n), (b, n + 3)):
            theta[x], theta[y] = y, x
        try:
            return validate(CombMap(sigma, theta), web.circles)
        except MapError:
            continue
    raise AssertionError("no plane bigon insertion")


class TestMemo:
    def test_relabelled_mirror_is_a_hit(self, empty_memo, monkeypatch):
        for name in ("prime_9_1", "prime_10_4", "omni_tetrahedron"):
            w = fixture_web(name)
            value = invariant(w)
            calls = []
            monkeypatch.setattr(reducer, "_reduce", lambda web: calls.append(web))
            assert invariant(relabelled_mirror(w, zlib.crc32(name.encode()))) == value
            assert calls == []
            monkeypatch.undo()

    def test_every_fixture_hits_mirrored_and_relabelled(self):
        # a probe is never classed: its roots of the stored entry's class,
        # in either rotation, find the entry of any relabelled or mirrored copy
        for k, w in enumerate(fixture_webs()):
            if len(w.map.components()) != 1:
                continue
            store = planarmap._IsoStore()
            entry = store.entry(w.map)
            for copy in (mirror(w), shuffled(w, random.Random(k)), relabelled_mirror(w, k)):
                assert store.entry(copy.map) is entry
            assert entry.word is not None and sum(map(len, store.values())) == 1

    def test_one_shape_bucket(self, empty_memo, monkeypatch):
        # every web shares one bucket: entries are keyed lazily and scanned
        monkeypatch.setattr(planarmap, "_shape", lambda cmap: 0)
        assert invariant(cube_web()) == parse_qexpr("2[2]^2[3]")
        assert invariant(hex_prism_web()) == parse_qexpr("[2]^4[3]+2[2]^2[3]")
        for name in ("omni_tetrahedron", "omni_cube", "omni_dodecahedron", "omni_prism5", "omni_antiprism4"):
            assert invariant(fixture_web(name)) == pinned_solid(name)

    def test_keys_only_on_shared_buckets(self, empty_memo, monkeypatch):
        # only probes into a shared bucket match; words are stored for
        # fewer webs than are probed
        probes = []
        shared = set()
        words = []
        matched = []
        engine = reducer.invariant
        shape = planarmap._shape
        unpack = planarmap._unpack
        match = planarmap._rooted_match

        def counted_invariant(web):
            if len(web.map.components()) == 1:
                probes.append(web)
            return engine(web)

        def counted_shape(cmap):
            value = shape(cmap)
            if value in reducer._MEMO:
                shared.add(id(cmap))
            return value

        def counted_unpack(entry):
            words.append(entry)
            return unpack(entry)

        def counted_match(cmap, roots, stored):
            matched.append(cmap)
            return match(cmap, roots, stored)

        monkeypatch.setattr(reducer, "invariant", counted_invariant)
        monkeypatch.setattr(planarmap, "_shape", counted_shape)
        monkeypatch.setattr(planarmap, "_unpack", counted_unpack)
        monkeypatch.setattr(planarmap, "_rooted_match", counted_match)
        assert reducer.invariant(fixture_web("omni_tetrahedron")) == pinned_solid("omni_tetrahedron")
        assert 0 < len(words) < len(probes)
        assert matched and all(id(cmap) in shared for cmap in matched)

    def test_unscaled_hit_multiplies_nothing(self, empty_memo, monkeypatch):
        # a memo hit on a web with no bigon and no circle returns the stored
        # value itself: a HalfLaurent is immutable, so nothing is multiplied
        muls = []
        mul = HalfLaurent.__mul__
        for w in (cube_web(), hex_prism_web(), fixture_web("prime_9_1"), fixture_web("omni_tetrahedron")):
            value = invariant(w)
            copy = relabelled_mirror(w, w.map.n_darts)
            monkeypatch.setattr(HalfLaurent, "__mul__", lambda a, b: muls.append(b) or mul(a, b))
            assert invariant(copy) is value
            monkeypatch.undo()
        assert muls == []

    def test_identical_labels_hit_without_a_shape(self, monkeypatch):
        # a fresh map with a stored web's labels is answered by the label
        # lookup: no shape, no rooted match
        store = planarmap._IsoStore()
        w = fixture_web("omni_tetrahedron")
        entry = store.entry(w.map)
        calls = []
        for name in ("_shape", "_rooted_match"):
            fn = getattr(planarmap, name)
            monkeypatch.setattr(planarmap, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
        assert store.entry(CombMap(list(w.map.sigma), list(w.map.theta))) is entry
        assert calls == []
        # a relabelled copy still hits through the shape path
        assert store.entry(shuffled(w, random.Random(5)).map) is entry
        assert calls == ["_shape", "_rooted_match"]

    def test_label_hash_alone_is_no_hit(self, monkeypatch):
        # the label dict sends the probe's hash to another entry: that
        # entry's labels differ, so the shape path decides
        store = planarmap._IsoStore()
        cube, prism = cube_web().map, hex_prism_web().map
        other = store.entry(prism)
        probe = shuffled(cube_web(), random.Random(2)).map
        monkeypatch.setitem(store.by_labels, hash((probe.sigma, probe.theta)), other)
        entry = store.entry(probe)
        assert entry is not other and entry.labels == planarmap._pack(probe.n_darts, probe.sigma + probe.theta)
        assert store.entry(cube) is entry

    def test_failed_reduction_is_retried(self, empty_memo, monkeypatch):
        # the entry is stored before the web is reduced; a reduction that
        # raises leaves it without a value, and the next probe reduces
        w = fixture_web("omni_tetrahedron")
        reduce = reducer._reduce
        monkeypatch.setattr(reducer, "_reduce", lambda web: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            invariant(w)
        ((entry,),) = reducer._MEMO.values()
        assert entry.value is None
        monkeypatch.setattr(reducer, "_reduce", reduce)
        assert invariant(relabelled_mirror(w, 3)) == pinned_solid("omni_tetrahedron")
        assert entry.value == pinned_solid("omni_tetrahedron")

    def test_match_is_as_strong_as_the_key(self, monkeypatch):
        # the store's match, class check included, against canonical keys:
        # with one shape for every map, each probe meets the stored web
        monkeypatch.setattr(planarmap, "_shape", lambda cmap: 0)
        webs = []
        for k, path in enumerate(sorted(FIXTURES.glob("*.dart"))):
            w = parse_web(path.read_text())
            perm = list(range(w.map.n_darts))
            random.Random(k).shuffle(perm)
            webs += [w, mirror(w), validate(w.map.relabel(perm)), relabelled_mirror(w, k)]
        for w in (cube_web(), hex_prism_web(), fixture_web("omni_tetrahedron"), fixture_web("omni_cube")):
            for red in find_all_reducibles(w):
                for child, _ in reduce_at(w, red):
                    webs += [validate(child.map.restrict(comp)) for comp in child.map.components()]
        webs += all_primes(24)
        assert len(webs) > 150
        stores = [planarmap._IsoStore() for _ in webs]
        entries = [store.entry(w.map) for store, w in zip(stores, webs)]
        keys = [canonical_key(w, True) for w in webs]
        close = 0
        for a, key in zip(webs, keys):
            least = planarmap._rooting(a.map)[0]
            for store, entry, other, other_key in zip(stores, entries, webs, keys):
                assert (store.entry(a.map) is entry) == (key == other_key)
                del store[0][1:]  # drop the miss's new entry
                if key != other_key and entry.least == least:
                    close += a.map.n_darts == other.map.n_darts
        # non-isomorphic pairs that only the word can tell apart
        assert close > 0

    def test_census_store_hits_are_key_hits(self):
        # each layer's store, seeded with its prism when 4 divides m,
        # against a set of keys: every 3-connected converse push that
        # _prime_layers meets is a hit exactly when its key was seen
        below = []
        hits = 0
        for m, found in _prime_layers(24):
            store = planarmap._IsoStore()
            keys = set()
            if m % 4 == 0:
                prism = enumerator._prism(m // 2)
                store.entry(prism.map).value = prism
                keys.add(canonical_key(prism, True))
            for w in below:
                for child in every_push(w):
                    if connectivity(child) != 3:
                        continue
                    entry = store.entry(child.map)
                    key = canonical_key(child, True)
                    assert (entry.value is not None) == (key in keys)
                    if entry.value is None:
                        entry.value = child
                    else:
                        hits += 1
                    keys.add(key)
            assert keys == {canonical_key(w, True) for w in found}
            below = found
        # only the prisms seed the stores: each of the 33 circular primes of
        # 14-24 vertices that is no prism is first met as a push, a miss
        assert hits == 352

    def test_reduce_calls_on_solids(self, empty_memo, monkeypatch):
        # a hit happens iff the webs are isomorphic, so the number of webs
        # reduced is fixed by the inputs and their order
        calls = []
        reduce = reducer._reduce

        def counted_reduce(web):
            calls.append(web.n_vertices)
            return reduce(web)

        monkeypatch.setattr(reducer, "_reduce", counted_reduce)
        for path in sorted(FIXTURES.glob("omni_*.dart")):
            assert invariant(parse_web(path.read_text())) == pinned_solid(path.stem)
        assert len(calls) == 663

    def test_reduced_webs_are_bigon_free(self, empty_memo, monkeypatch):
        # bigon chains are contracted before the probe, so the memo and
        # the square splitting only ever see webs without 2-faces or circles
        seen = []
        reduce = reducer._reduce

        def counted_reduce(web):
            seen.append((web.circles, min(len(face) for face in web.map.faces())))
            return reduce(web)

        monkeypatch.setattr(reducer, "_reduce", counted_reduce)
        for path in sorted(FIXTURES.glob("omni_*.dart")):
            assert invariant(parse_web(path.read_text())) == pinned_solid(path.stem)
        assert seen and all(circles == 0 and least == 4 for circles, least in seen)

    def test_bigon_chain_hits_its_contraction(self, empty_memo, monkeypatch):
        # inverse bigon contractions, some stacked on one edge, then a
        # relabelling: the plain web's entry serves the bigon web
        for name, seed in (("prime_4_1", 5), ("prime_9_1", 6), ("prime_10_4", 7)):
            plain = fixture_web(name)
            web = plain
            rng = random.Random(seed)
            # an original dart never lies on a doubled edge
            for dart in rng.sample(range(plain.map.n_darts), 4):
                web = with_bigon(web, dart)
            # a chain: the last bigon's outgoing edge gets two more in a row
            for _ in range(2):
                web = with_bigon(web, web.map.n_darts - 3)
            perm = list(range(web.map.n_darts))
            rng.shuffle(perm)
            web = validate(web.map.relabel(perm))
            assert sum(len(face) == 2 for face in web.map.faces()) == 6
            value = invariant(plain)
            calls = []
            reduce = reducer._reduce
            monkeypatch.setattr(reducer, "_reduce", lambda web: calls.append(web) or reduce(web))
            assert invariant(web) == reducer.BIGON_FACTOR**6 * value
            assert calls == []
            monkeypatch.undo()
            assert invariant_random_order(web, rng) == invariant(web)


def prime_sum(names, rng):
    """A connected sum of fixture primes at seeded edges."""
    web = fixture_web(f"prime_{names[0]}")
    for name in names[1:]:
        other = fixture_web(f"prime_{name}")
        web = connected_sum(web, rng.randrange(web.map.n_darts), other, rng.randrange(other.map.n_darts))
    return web


def shuffled(web, rng):
    perm = list(range(web.map.n_darts))
    rng.shuffle(perm)
    return validate(web.map.relabel(perm))


def pinned_prime(name):
    pinned = json.loads((FIXTURES / "pinned.json").read_text())["primes"][name]["invariant"]
    return HalfLaurent({int(e): int(c) for e, c in pinned.items()})


def stored_map(entry):
    """The map an isomorphism-store entry holds, up to mirroring: its packed
    labels and face lengths, or once rooted, its BFS word, which
    interleaves the relabelled rotation (sigma or its inverse) and theta."""
    if entry.word is None:
        return planarmap._unpack(entry)
    return CombMap(entry.word[0::2], entry.word[1::2])


class TestFactoring:
    def test_one_split(self):
        import sl3webs
        from sl3webs import primedec

        assert reducer.split is planarmap.split
        assert primedec.split is planarmap.split
        assert sl3webs.split is planarmap.split

    def test_random_order_agrees_on_sums(self, empty_memo):
        # the random-order path never splits or memoizes; sums of the
        # primes of at most 14 vertices, two and three summands, each at
        # seeded edges and once more with its darts shuffled
        small = ["4_1", "6_1", "7_1"]
        rng = random.Random(20261019)
        webs = []
        for k in (2, 3):
            for _ in range(4):
                web = prime_sum([rng.choice(small) for _ in range(k)], rng)
                webs += [web, shuffled(web, rng)]
        for w in webs:
            assert planarmap._bonds(w.map)
        # sums joined at a doubled edge, whose sides close up with a bigon,
        # so the engine's factor (-[2])^l is used; and the digon-prism sums,
        # which collapse to a circle before the memo.  No side of a
        # bigon-free web collapses, so every prime has vertices
        dcube, dhex = digon_expand(cube_web(), 0), digon_expand(hex_prism_web(), 0)
        # dart n - 5 of digon_expand's output lies on its fresh doubled edge
        bookkept = [connected_sum(dcube, dcube.map.n_darts - 5, cube_web(), 0),
                    connected_sum(dcube, dcube.map.n_darts - 5, dcube, dcube.map.n_darts - 5),
                    connected_sum(dhex, dhex.map.n_darts - 5, dcube, dcube.map.n_darts - 5)]
        assert [reducer.factorize(w)[1] for w in bookkept] == [1, 2, 2]
        for w in bookkept:
            for prime in reducer.factorize(w)[0]:
                assert prime.n_vertices and not planarmap._bonds(prime.map)
        for w in webs + bookkept + split_sums():
            assert invariant(w) == invariant_random_order(w, rng)

    def test_pinned_prime_products(self, empty_memo):
        # [3]^(k-1) P(G) = P(G_1) ... P(G_k) for sums of the fixture
        # primes (no bigon is left at a junction of two primes), against
        # the pinned prime invariants
        names = sorted(json.loads((FIXTURES / "pinned.json").read_text())["primes"])
        rng = random.Random(19)
        for k in (2, 2, 3, 3, 4, 4):
            parts = rng.sample(names, k)
            expected = HalfLaurent.one()
            for name in parts:
                expected = expected * pinned_prime(name)
            assert qint(3) ** (k - 1) * invariant(shuffled(prime_sum(parts, rng), rng)) == expected

    def test_split_count_and_bond_free_squares(self, empty_memo, monkeypatch):
        # with the primes' values memoized, a sum of k primes is split
        # exactly k - 1 times, once at each junction, and each side is a
        # memo hit; and no square is ever smoothed on a web with a bond
        splits = []
        squares = []
        split = reducer.split
        cascade = reducer._cascade

        def counted_split(web, cut):
            splits.append(web.n_vertices)
            return split(web, cut)

        def checked_square(web, face, pairs, seeds):
            if face:  # a square's smoothing, not a bigon cascade
                squares.append(bool(planarmap._bonds(web.map)))
            return cascade(web, face, pairs, seeds)

        monkeypatch.setattr(reducer, "split", counted_split)
        monkeypatch.setattr(reducer, "_cascade", checked_square)
        parts = ["10_3", "8_1", "9_2", "10_7"]
        for name in parts:
            invariant(fixture_web(f"prime_{name}"))
        assert squares and not any(squares)
        rng = random.Random(4)
        for k in (2, 3, 4):
            splits.clear()
            squares.clear()
            invariant(shuffled(prime_sum(parts[:k], rng), rng))
            assert len(splits) == k - 1
            assert squares == []
        # cold, the junctions are split too, and so are any bonds the
        # primes' own reductions meet
        splits.clear()
        clear_memo()
        invariant(prime_sum(parts, rng))
        assert len(splits) >= 3 and squares and not any(squares)

    def test_bond_scans_on_a_cold_sum(self, empty_memo, monkeypatch):
        # every map is scanned for bonds once: the sum by factorize, not
        # once more to learn that it has one; its six sides, four of them
        # primes, whose own _reduce reads the marker factorize left; and
        # four webs the primes' reductions meet
        scans = []
        bonds = reducer._bonds
        monkeypatch.setattr(reducer, "_bonds", lambda cmap: scans.append(cmap) or bonds(cmap))
        web = prime_sum(["10_3", "8_1", "9_2", "10_7"], random.Random(4))
        invariant(web)
        assert len(scans) == 11 and len(set(map(id, scans))) == 11 and scans[0] is web.map

    def test_only_the_sum_is_stored(self, empty_memo):
        # a cold sum of four primes is valued from its primes: of the webs
        # the memo stores, only the sum itself has a bond
        web = prime_sum(["10_3", "8_1", "9_2", "10_7"], random.Random(4))
        invariant(web)
        stored = [stored_map(entry) for bucket in reducer._MEMO.values() for entry in bucket]
        composites = [m for m in stored if planarmap._bonds(m)]
        assert len(stored) > 4 and len(composites) == 1
        assert canonical_key(validate(composites[0])) == canonical_key(web)

    def test_exact_division_by_three(self):
        values = [qint(n) * qint(m) for n in range(6) for m in range(6)]
        values += [pinned_solid("omni_cube"), pinned_prime("10_1"), -qint(2) ** 3 * qint(3)]
        for value in values:
            assert reducer._div3(value * qint(3)) == value
        for bad in (qint(2), qint(1), qint(3) + 1, qint(4), qint(3) * qint(2) + qint(5), pinned_prime("10_1") + 1):
            with pytest.raises(ArithmeticError):
                reducer._div3(bad)


def engine_children(monkeypatch, webs):
    """Every web the engine's cascade builds while the webs are valued:
    (child, whether its parent was a known prime, whether it came with a
    shape)."""
    children = []
    cascade = reducer._cascade

    def spy(web, *args):
        child, uses = cascade(web, *args)
        children.append((child, web.map._factors == (), child.map._shape is not None))
        return child, uses

    monkeypatch.setattr(reducer, "_cascade", spy)
    for w in webs:
        invariant(w)
    monkeypatch.undo()
    return children


def assert_carried_as_fresh(children):
    """A smoothing of a known prime, and only such a web, comes with its
    face lengths, neighbour sums, shape and new faces; each of these, and
    the faces, face table and bonds, equals a fresh computation.  Returns
    how many children carried."""
    carried = 0
    for child, of_prime, with_shape in children:
        assert with_shape == of_prime
        if not of_prime:
            continue
        carried += 1
        m = child.map
        if not m.n_darts:  # collapsed to circles: no face to compare
            assert m.faces() == () and m._shape == 0
            continue
        fresh = CombMap(m.sigma, m.theta)
        assert m.faces() == fresh.faces()
        assert m.face_lengths() == fresh.face_lengths()
        assert m.face_table() == fresh.face_table()
        assert planarmap._shape(m) == planarmap._shape(fresh)
        assert m._face_sums == fresh._face_sums
        assert len(set(m._fresh)) == len(m._fresh) and planarmap._bonds(m) == planarmap._bonds(fresh)
    return carried


def random_prime(n, seed):
    """A seeded random 3-connected prime of n vertices: from the 14-vertex
    prime, one seeded choice among the 3-connected converse pushes at
    every site, until n vertices."""
    rng = random.Random(seed)
    web = all_primes(14)[0]
    while web.n_vertices < n:
        both = disjoint_union(web, enumerator._THETA)
        pushes = [enumerator._converse_push(both, x, q) for x, q in enumerator._push_sites(web.map)]
        web = rng.choice([c for c in pushes if connectivity(c) == 3])
    return web


class TestCarriedFaceData:
    def test_solids_children(self, empty_memo, monkeypatch):
        webs = [parse_web(path.read_text()) for path in sorted(FIXTURES.glob("omni_*.dart"))]
        children = engine_children(monkeypatch, webs)
        # five smoothings collapse to a circle; two webs are contractions
        # of a split side, whose parent is no prime
        assert len(children) == 1322 and assert_carried_as_fresh(children) == 1320
        assert sum(not c.map.n_darts for c, _, _ in children) == 5
        # a few smoothings have a bond, which the scan across their new
        # faces must find as the full scan does
        assert sum(bool(c.map.n_darts and planarmap._bonds(c.map)) for c, of_prime, _ in children if of_prime) == 3

    def test_random_prime_children(self, empty_memo, monkeypatch):
        web = random_prime(100, 2)
        assert web.n_vertices == 100
        children = engine_children(monkeypatch, [web])
        # the other six contract the bigons of split sides
        assert len(children) == 414 and assert_carried_as_fresh(children) == 408

    def test_census_and_sums_carry_nothing(self):
        # a converse push, a connected sum and a split side are built from
        # no known prime: they pay for no carried face data
        w = all_primes(14)[0]
        both = disjoint_union(w, enumerator._THETA)
        built = [enumerator._converse_push(both, x, q) for x, q in enumerator._push_sites(w.map)]
        total = connected_sum(w, 0, fixture_web("prime_8_1"), 3)
        built += [total, *split(total, min(planarmap._bonds(total.map)))]
        for c in built:
            m = c.map
            assert m._shape is None and m._face_len is None and m._fresh is None

    def test_solid_classes_sharing_a_shape(self, empty_memo):
        # the memo's buckets after the seven solids: two pairs of classes
        # share a shape, and each pair has equal faces, each with equal
        # neighbour lengths, which is all a shape reads
        for path in sorted(FIXTURES.glob("omni_*.dart")):
            invariant(parse_web(path.read_text()))
        buckets = list(reducer._MEMO.values())
        assert sum(map(len, buckets)) == 663
        assert sorted(len(b) for b in buckets if len(b) > 1) == [2, 2]


class TestConfluence:
    def test_randomized_orders_agree(self):
        webs = {
            "cube": cube_web(),
            "theta": theta_web(),
            "hexprism": hex_prism_web(),
            "digon": digon_prism_web(),
        }
        for name, w in webs.items():
            expect = invariant(w)
            for run in range(30):
                rng = random.Random(zlib.crc32(f"{name}:{run}".encode()))
                assert invariant_random_order(w, rng) == expect

    def test_disjoint_union_random_order(self):
        w = disjoint_union(theta_web(), cube_web())
        expect = invariant(theta_web()) * invariant(cube_web())
        for run in range(10):
            rng = random.Random(run)
            assert invariant_random_order(w, rng) == expect


class TestReduceAt:
    def test_weighted_children_sum_to_parent(self):
        # at every site, not just the priority one
        webs = (cube_web(), theta_web(), hex_prism_web(), digon_prism_web())
        for w in webs + (cube_web().with_circles(1),):
            sites = find_all_reducibles(w)
            assert sites
            for red in sites:
                total = sum(f * invariant(c) for c, f in reduce_at(w, red))
                assert total == invariant(w)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            reduce_at(cube_web(), Site("hexagon", 0))

    def test_children_pinned(self):
        # the exact dart labels of every child, not only its isomorphism
        # class: a change of dart order shows here and nowhere else
        digest = hashlib.sha256()

        def record(child):
            digest.update(f"{serialize_web(child)}circles {child.circles}\n".encode())

        webs = (cube_web(), theta_web(), hex_prism_web(), digon_prism_web())
        for w in webs + (cube_web().with_circles(1),):
            for red in find_all_reducibles(w):
                for child, _ in reduce_at(w, red):
                    record(child)
        for path in sorted(FIXTURES.glob("prime_*.dart")):
            w = parse_web(path.read_text())
            for red in find_all_reducibles(w):
                if red.kind != "square":
                    continue
                for child in apply_square(w, red.site):
                    for sub in find_all_reducibles(child):
                        if sub.kind == "bigon":
                            record(apply_bigon(child, sub.site)[0])
        assert digest.hexdigest() == "513859338bc0bc421c21bef97d366058af4692f2ad8113be02143e04b310b7e2"


class TestProgress:
    def test_strict_decrease(self):
        # every application strictly decreases (vertices, circles) lexicographically
        stack = [hex_prism_web()]
        steps = 0
        while stack:
            w = stack.pop()
            sites = find_all_reducibles(w)
            if not sites:
                continue
            steps += 1
            assert steps < 10000
            before = (w.n_vertices, w.circles)
            for c, _ in reduce_at(w, sites[0]):
                assert (c.n_vertices, c.circles) < before
                stack.append(c)


def count_edge_colorings(web):
    """Proper 3-edge-colorings by plain backtracking (independent oracle)."""
    cmap = web.map
    edges = cmap.edges()
    eidx = {d: i for i, (d, _) in enumerate(edges)}

    def eid(d):
        return eidx[min(d, cmap.theta[d])]

    incident = [[] for _ in range(len(edges))]
    for orbit in cmap.vertices():
        ids = [eid(d) for d in orbit]
        for a in ids:
            for b in ids:
                if a != b:
                    incident[a].append(b)
    col = [-1] * len(edges)
    count = 0

    def bt(i):
        nonlocal count
        if i == len(edges):
            count += 1
            return
        used = {col[j] for j in incident[i] if col[j] >= 0}
        for c in range(3):
            if c not in used:
                col[i] = c
                bt(i + 1)
                col[i] = -1

    bt(0)
    return count


class TestColoringCountSpecialization:
    def test_value_at_one_counts_colorings(self):
        # q = 1 turns the relations into a signed count of proper
        # 3-edge-colorings: P(1) = (-1)^(V/2) * #colorings; the counting
        # oracle shares no code with the engine
        from sl3webs.enumerator import build_catalog

        webs = [theta_web(), cube_web(), hex_prism_web()]
        webs += [e.web for e in build_catalog(18)]
        for w in webs:
            sign = (-1) ** (w.n_vertices // 2)
            assert invariant(w).eval_at_one() == sign * count_edge_colorings(w)


class TestConservation:
    def test_every_step_preserves_the_element(self):
        # the work list plus the accumulator represent
        # sum(coeff * P(web)) + accumulator, which every rewrite of one
        # term by its children keeps equal to P of the starting web
        rng = random.Random(33)
        for w in (cube_web(), theta_web(), hex_prism_web(), digon_prism_web()):
            expect = invariant(w)
            terms = [(w, HalfLaurent.one())]
            accumulator = HalfLaurent.zero()
            while terms:
                web, coeff = terms.pop(rng.randrange(len(terms)))
                sites = find_all_reducibles(web)
                if not sites:
                    accumulator = accumulator + coeff
                else:
                    terms += [(child, coeff * factor) for child, factor in reduce_at(web, sites[0])]
                total = sum((coeff * invariant(web) for web, coeff in terms), accumulator)
                assert total == expect
            assert accumulator == expect

