import hashlib
import itertools
import random

import pytest

from sl3webs.planarmap import (
    CombMap,
    _bonds,
    MapError,
    canonical_key,
    connectivity,
    disjoint_union,
    isomorphic,
    serialize_web,
    validate,
)
from sl3webs.primedec import (
    connected_sum,
    decompose,
    identity_sides,
    simplify,
    split,
)
from sl3webs.qlaurent import parse_qexpr, qint
from sl3webs.reducer import invariant
from webfixtures import FIXTURES, cube_web, digon_prism_web, fixture_web, hex_prism_web, theta_web


def cube_sum_cube(ea=0, eb=0):
    return connected_sum(cube_web(), ea, cube_web(), eb)


def catalog_primes():
    """The 15 primes of up to 20 vertices, read from their fixture files in
    catalog-name order, so the pinned splits do not depend on which
    representative the enumerator picks."""
    paths = sorted(
        FIXTURES.glob("prime_*.dart"),
        key=lambda path: tuple(map(int, path.stem.split("_")[1:])),
    )
    return [fixture_web(path.stem) for path in paths]


def random_sums(seed, count):
    """Connected sums of 2-4 catalog primes at random darts."""
    primes = catalog_primes()
    rng = random.Random(seed)
    sums = []
    for _ in range(count):
        w = rng.choice(primes)
        for _ in range(rng.randrange(1, 4)):
            other = rng.choice(primes)
            w = connected_sum(w, rng.randrange(w.map.n_darts),
                              other, rng.randrange(other.map.n_darts))
        sums.append(w)
    return sums


def assert_identity(w, dec):
    """[3]^(k-1) P(G) = (-[2])^l prod P(G_i), both sides from
    identity_sides and P(G) once more from the engine."""
    lhs, rhs = identity_sides(dec, [invariant(p) for p in dec.primes])
    assert lhs == rhs == qint(3) ** (dec.k - 1) * invariant(w)


SIDES_SHA256 = "80d281306364b1b37b9e5347e0e130b66ca05d294c5dc925186280a044182f55"


class TestConnectedSum:
    def test_cube_cube_shape(self):
        w = cube_sum_cube()
        assert w.n_vertices == 16
        assert w.is_simple()
        assert connectivity(w) == 2

    def test_sum_invariant_identity(self):
        w = cube_sum_cube()
        # [3] * P = P(cube)^2, so P = 4[2]^4[3] after exact division
        assert qint(3) * invariant(w) == invariant(cube_web()) ** 2
        assert invariant(w) == parse_qexpr("4[2]^4[3]")

    def test_different_edges_same_invariant(self):
        values = {invariant(connected_sum(hex_prism_web(), ea, hex_prism_web(), eb))
                  for ea in (0, 6) for eb in (0, 6)}
        assert len(values) == 1

    def test_circles_rejected(self):
        with pytest.raises(MapError):
            connected_sum(cube_web().with_circles(1), 0, cube_web(), 0)

    def test_both_matchings_are_webs(self):
        # either pairing of the cut ends is plane (two arcs across the
        # annulus between the deleted edges) and bipartite (B's colours
        # can be swapped); connected_sum takes the first
        primes = catalog_primes()
        assert len(primes) == 15
        rng = random.Random(20261020)
        for _ in range(300):
            a, b = rng.choice(primes), rng.choice(primes)
            ea, eb = rng.randrange(a.map.n_darts), rng.randrange(b.map.n_darts)
            na = a.map.n_darts
            sigma = list(a.map.sigma) + [d + na for d in b.map.sigma]
            p, q = ea, a.map.theta[ea]
            r, s = eb + na, b.map.theta[eb] + na
            maps = []
            for r1, s1 in ((r, s), (s, r)):
                theta = list(a.map.theta) + [d + na for d in b.map.theta]
                theta[p], theta[r1], theta[q], theta[s1] = r1, p, s1, q
                maps.append(validate(CombMap(sigma, theta)).map)
            assert connected_sum(a, ea, b, eb).map == maps[0]


class TestFindCuts:
    def test_cube_has_none(self):
        assert _bonds(cube_web().map) == []

    def test_hex_prism_has_none(self):
        assert _bonds(hex_prism_web().map) == []

    def test_sum_has_constructed_cut(self):
        w = cube_sum_cube()
        cuts = _bonds(w.map)
        assert cuts
        for cut in cuts:
            a, b = split(w, cut)
            assert a.n_vertices + b.n_vertices == w.n_vertices

    def test_chain_of_three(self):
        w = connected_sum(cube_sum_cube(), 0, cube_web(), 0)
        assert len(_bonds(w.map)) >= 2

    def test_needs_connected_web_with_vertices(self):
        # the bond scan reads one component; its callers check for that
        for web, described in ((validate(CombMap([], [])), "got 0 vertices in 0 components"),
                               (disjoint_union(cube_web(), cube_web()), "got 16 vertices in 2 components")):
            for caller in (connectivity, decompose):
                need = f"{caller.__name__} needs a connected web with vertices, {described}"
                with pytest.raises(MapError, match=need):
                    caller(web)

    def test_matches_naive_pair_scan(self):
        def disconnects(w, edges):
            # plain vertex BFS that never crosses a banned edge
            sigma, theta = w.map.sigma, w.map.theta
            banned = set(edges) | {theta[e] for e in edges}
            vertex = {}
            for d in range(len(sigma)):
                x = d
                while x not in vertex:
                    vertex[x] = d
                    x = sigma[x]
            adj = {v: [] for v in vertex.values()}
            for d in range(len(sigma)):
                if d not in banned:
                    adj[vertex[d]].append(vertex[theta[d]])
            seen = {vertex[0]}
            queue = [vertex[0]]
            for v in queue:
                for u in adj[v]:
                    if u not in seen:
                        seen.add(u)
                        queue.append(u)
            return len(seen) < len(adj)

        webs = [
            theta_web(),
            digon_prism_web(),
            cube_web(),
            cube_sum_cube(),
            connected_sum(cube_sum_cube(), 5, hex_prism_web(), 3),
            # a cube summed at the fresh edge of cube # cube leaves three
            # edges between the same two faces, whose pairs do not come
            # out of the face-pair scan in sorted order
            connected_sum(connected_sum(cube_sum_cube(), 0, cube_web(), 0), 1, cube_web(), 0),
        ] + random_sums(20261018, 30)
        assert len(webs) == 36
        for w in webs:
            edge_ids = [d for d, _ in w.map.edges()]
            # a web has no bridge
            assert not any(disconnects(w, (e,)) for e in edge_ids)
            pairs = list(itertools.combinations(edge_ids, 2))
            naive = sorted(p for p in pairs if disconnects(w, p))
            assert _bonds(w.map) == naive
            if w.is_simple():
                assert connectivity(w) == (2 if naive else 3)


class TestSplit:
    def test_cube_sum_splits_to_cubes(self):
        w = cube_sum_cube()
        cut = min(_bonds(w.map))
        a, b = split(w, cut)
        a, la = simplify(a)
        b, lb = simplify(b)
        assert la == lb == 0
        assert isomorphic(a, cube_web())
        assert isomorphic(b, cube_web())

    def test_split_then_sum_roundtrip(self):
        w = cube_sum_cube()
        cut = min(_bonds(w.map))
        a, b = split(w, cut)
        # rejoin at the fresh edges (the cut darts themselves)
        rejoined_values = set()
        for ea in range(a.map.n_darts):
            for eb in range(b.map.n_darts):
                if isomorphic(connected_sum(a, ea, b, eb), w):
                    rejoined_values.add((ea, eb))
                    break
            if rejoined_values:
                break
        assert rejoined_values

    def test_non_cut_rejected(self):
        with pytest.raises(MapError):
            split(cube_web(), (0, 2))

    def test_circles_rejected(self):
        w = cube_sum_cube()
        with pytest.raises(MapError, match=r"^split acts on webs without circles$"):
            split(w.with_circles(1), min(_bonds(w.map)))

    def test_non_bond_pairs_of_a_sum_rejected(self):
        w = connected_sum(cube_sum_cube(), 5, hex_prism_web(), 3)
        bonds = set(_bonds(w.map))
        edge_ids = [d for d, _ in w.map.edges()]
        pairs = [p for p in itertools.combinations(edge_ids, 2) if p not in bonds]
        assert pairs and bonds
        for cut in pairs:
            with pytest.raises(MapError):
                split(w, cut)

    def test_disjoint_union_rejected(self):
        w = disjoint_union(cube_web(), cube_web())
        first, second = w.map.components()
        edge_ids = [d for d, _ in w.map.edges()]
        same = [(e1, e2) for e1, e2 in itertools.combinations(edge_ids, 2)
                if (e1 in first) == (e2 in first)]
        across = [(e1, e2) for e1 in edge_ids if e1 in first
                  for e2 in edge_ids if e2 in second]
        assert len(same) == 2 * 66 and len(across) == 12 * 12
        for cut in same + across:
            with pytest.raises(MapError):
                split(w, cut)

    def test_sides_and_decompositions_pinned(self):
        # sha256 over the serialized sides of every cut of seeded sums of
        # catalog primes, then over their decompositions; each sum comes
        # again with its darts shuffled, so that dart 0 is not always on
        # the side of the cut's first edge
        rng = random.Random(7)
        webs = []
        for w in random_sums(20261019, 12):
            perm = list(range(w.map.n_darts))
            rng.shuffle(perm)
            webs += [w, validate(w.map.relabel(perm))]
        h = hashlib.sha256()
        for w in webs:
            for cut in _bonds(w.map):
                for side in split(w, cut):
                    h.update(serialize_web(side).encode())
            dec = decompose(w)
            h.update(f"l={dec.l}\n".encode())
            for p in dec.primes:
                h.update(serialize_web(p).encode())
        assert h.hexdigest() == SIDES_SHA256


class TestSimplify:
    def test_theta_collapses(self):
        w, l = simplify(theta_web())
        assert l == 1
        assert w.n_vertices == 0 and w.circles == 1

    def test_already_simple(self):
        w, l = simplify(cube_web())
        assert l == 0 and w is not None
        assert isomorphic(w, cube_web())

    def test_digon_prism(self):
        w, l = simplify(digon_prism_web())
        # two doubled edges: contract one bigon -> theta -> collapses
        assert w.n_vertices == 0 and w.circles == 1
        assert l == 2

    def test_doubled_edge_inside_prism(self):
        from webfixtures import digon_expand

        expanded = digon_expand(hex_prism_web(), 0)
        assert not expanded.is_simple()
        w, l = simplify(expanded)
        assert l == 1
        assert w.n_vertices == expanded.n_vertices - 2
        assert isomorphic(w, hex_prism_web())


class TestRelationTwoBookkeeping:
    def test_sum_through_doubled_edges_counts_l(self):
        from webfixtures import digon_expand

        # expand an edge of each cube into a digon, then join the parts by
        # deleting one copy of each double edge; the result is simple and
        # decomposes back into two cubes using the bigon relation twice
        a = digon_expand(cube_web(), 0)
        b = digon_expand(cube_web(), 0)
        double_a = a.map.n_darts - 5  # dart p1 of the fresh double edge
        double_b = b.map.n_darts - 5
        g = connected_sum(a, double_a, b, double_b)
        assert g.is_simple()
        assert g.n_vertices == 20
        dec = decompose(g)
        assert dec.k == 2 and dec.l == 2
        assert all(isomorphic(p, cube_web()) for p in dec.primes)
        assert_identity(g, dec)


    def test_no_side_collapses(self):
        # a side of a bigon-free web holds one edge that is not the web's
        # own, and so does each contraction's result, so no side contracts
        # to a circle: every prime has vertices, and the primes lack two
        # vertices of the web per contraction.  Seeded sums of catalog
        # primes, and sums joined at digon_expand's doubled edges
        from webfixtures import digon_expand

        primes = catalog_primes()
        rng = random.Random(20261021)

        def doubled():
            # a prime with a doubled edge, and a dart on one of its copies
            p = rng.choice(primes)
            w = digon_expand(p, rng.randrange(p.map.n_darts))
            return w, w.map.n_darts - 5

        sums = random_sums(20261021, 20)
        joined = []
        for _ in range(20):
            w, e = doubled()
            for _ in range(rng.randrange(1, 4)):
                other, f = doubled()
                w = connected_sum(w, e, other, f)
                e = rng.randrange(w.map.n_darts)
            joined.append(w)
        for w in sums + joined:
            dec = decompose(w)
            assert all(p.n_vertices for p in dec.primes)
            assert w.n_vertices == sum(p.n_vertices for p in dec.primes) + 2 * dec.l
            # each summand joined at a doubled edge keeps one bigon
            assert dec.l == (dec.k if w in joined else 0)


class TestDecompose:
    def test_cube_is_prime(self):
        dec = decompose(cube_web())
        assert dec.k == 1 and dec.l == 0
        assert isomorphic(dec.primes[0], cube_web())

    def test_cube_sum_cube(self):
        dec = decompose(cube_sum_cube())
        assert dec.k == 2 and dec.l == 0
        assert all(isomorphic(p, cube_web()) for p in dec.primes)

    def test_every_prime_is_three_connected(self):
        dec = decompose(connected_sum(cube_sum_cube(), 3, hex_prism_web(), 5))
        assert dec.k == 3
        for p in dec.primes:
            assert connectivity(p) == 3
            assert _bonds(p.map) == []

    def test_product_identity_simple_cases(self):
        for w in (cube_web(), cube_sum_cube(), connected_sum(cube_web(), 2, hex_prism_web(), 7)):
            dec = decompose(w)
            assert_identity(w, dec)

    def test_identity_sides_raise_on_a_remainder(self):
        # P of the sum is divided exactly by [3]^(k-1).  Every prime's P is
        # a multiple of [3], so one value off by one still divides: the
        # other k - 1 supply [3]^(k-1).  Two values off by one leave a
        # remainder
        w = connected_sum(cube_sum_cube(), 3, hex_prism_web(), 5)
        dec = decompose(w)
        assert dec.k == 3
        values = [invariant(p) for p in dec.primes]
        for i in range(dec.k):
            off = values[:i] + [values[i] + 1] + values[i + 1 :]
            lhs, rhs = identity_sides(dec, off)
            assert lhs == rhs != qint(3) ** 2 * invariant(w)
            off[i - 1] = off[i - 1] + 1
            with pytest.raises(ArithmeticError):
                identity_sides(dec, off)

    def test_order_independence(self):
        w = connected_sum(cube_sum_cube(), 1, hex_prism_web(), 4)
        base = decompose(w)
        base_keys = sorted(canonical_key(p) for p in base.primes)
        for seed in range(6):
            perm = list(range(w.map.n_darts))
            random.Random(seed).shuffle(perm)
            dec = decompose(validate(w.map.relabel(perm)))
            assert (dec.k, dec.l) == (base.k, base.l)
            assert sorted(canonical_key(p) for p in dec.primes) == base_keys

    def test_random_sums_identity(self):
        rng = random.Random(20240817)
        parts = [cube_web(), hex_prism_web()]
        for _ in range(25):
            w = parts[rng.randrange(2)]
            for _ in range(rng.randrange(1, 3)):
                other = parts[rng.randrange(2)]
                ea = rng.randrange(w.map.n_darts)
                eb = rng.randrange(other.map.n_darts)
                w = connected_sum(w, ea, other, eb)
            dec = decompose(w)
            assert_identity(w, dec)
            for p in dec.primes:
                assert p.is_simple()
                assert _bonds(p.map) == []

    def test_non_simple_rejected(self):
        with pytest.raises(MapError):
            decompose(theta_web())

    def test_circles_rejected(self):
        with pytest.raises(MapError, match=r"^decompose acts on webs without circles$"):
            decompose(cube_sum_cube().with_circles(1))
