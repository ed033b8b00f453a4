import itertools
import random

import numpy as np
import pytest

from sl3webs.qlaurent import (
    HalfLaurent,
    IdealResidue,
    mod_reduce,
    parse_qexpr,
    qint,
)
from sl3webs import symmetry
from sl3webs.reducer import invariant
from sl3webs.symmetry import (
    DEFAULT_BUDGET,
    _ComponentRing,
    _chunk_size,
    _factor,
    _has_root,
    _ids_to_digits,
    _local_pieces,
    _mod2_powers,
    _prime_power_factors,
    _search_component,
    _search_component_generic,
    _search_component_mod2,
    _solve_component,
    dth_root_search,
    symmetry_report,
    verify_witness,
)
from webfixtures import FIXTURES, cube_web, digon_prism_web, fixture_web, hex_prism_web, theta_web

P61 = parse_qexpr("[2]^4[3]+2[2]^2[3]")


def random_poly(rng, max_terms=5, max_halfexp=6, max_coeff=6):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        terms[rng.randrange(-max_halfexp, max_halfexp + 1)] = rng.randrange(
            -max_coeff, max_coeff + 1
        )
    return HalfLaurent(terms)


class TestCheckQuotient:
    """The quotient congruence P(G) = P(quotient)^d mod (d, [3]^d - [3]),
    the d-th power taken in the residue ring."""

    def test_six_one_mod2(self):
        assert mod_reduce(parse_qexpr("[2]^2[3]"), 2) ** 2 == mod_reduce(P61, 2)

    def test_six_one_mod3(self):
        assert mod_reduce(parse_qexpr("[3][2]^2"), 3) ** 3 == mod_reduce(P61, 3)

    def test_six_one_quotient_fails_mod6(self):
        assert mod_reduce(-parse_qexpr("[2][3]"), 6) ** 6 != mod_reduce(P61, 6)

    def test_small_d_rejected(self):
        with pytest.raises(ValueError):
            mod_reduce(qint(2), 1)


class TestRootSearch:
    def test_square_root_of_six_one(self):
        res = dth_root_search(P61, 2)
        assert res.outcome == "found"
        assert verify_witness(P61, 2, res.witness)
        assert mod_reduce(res.witness.to_poly() ** 2, 2) == mod_reduce(P61, 2)

    def test_cube_root_of_six_one(self):
        res = dth_root_search(P61, 3)
        assert res.outcome == "found"
        assert verify_witness(P61, 3, res.witness)

    def test_corrupted_witness_rejected(self):
        res = dth_root_search(P61, 2)
        coeffs = list(res.witness.coeffs)
        coeffs[0] = (coeffs[0] + 1) % 2
        assert not verify_witness(P61, 2, IdealResidue(2, coeffs))

    def test_witness_of_another_ring_rejected(self):
        w = dth_root_search(P61, 2).witness
        assert verify_witness(P61, 2, w)
        assert not verify_witness(P61, 3, w)
        assert not verify_witness(P61, 2, w.to_poly())

    def test_residue_power_agrees_with_the_unreduced_power(self):
        # verify_witness powers in the residue ring; reducing only after
        # the full power over Z must give the same verdict
        rng = random.Random(97)
        outcomes = []
        for d in range(2, 12):
            generator = qint(3) ** d - qint(3)
            for _ in range(4):
                coeffs = [0] * (4 * d)
                for _ in range(rng.randrange(1, 6)):
                    coeffs[rng.randrange(4 * d)] = rng.randrange(d)
                w = IdealResidue(d, coeffs)
                p = random_poly(rng)
                if rng.randrange(2):
                    p = w.to_poly() ** d + d * p + generator * random_poly(rng)
                got = verify_witness(p, d, w)
                assert got == (mod_reduce(w.to_poly() ** d, d) == mod_reduce(p, d)), (d, coeffs)
                outcomes.append(got)
        assert outcomes.count(True) >= 10 and outcomes.count(False) >= 10

    def test_prime_web_at_order_97(self):
        # the solve over F_97 takes 0.1 s; the witness's check took about
        # a minute when it raised the polynomial to the 97th power over Z
        target = invariant(fixture_web("prime_7_1"))
        res = dth_root_search(target, 97, budget=10**1000)
        assert res.outcome == "found" and res.detail == "verified witness"
        assert res.witness.d == 97

    def test_not_found_verified_independently(self):
        # scan for a target with no square root mod (2, [3]^2-[3]) and
        # confirm the verdict by direct enumeration of all 256 residues
        target = None
        for k in range(-4, 4):
            p = HalfLaurent({k: 1}) + qint(2)
            if dth_root_search(p, 2).outcome == "not_found":
                target = p
                break
        assert target is not None
        t = mod_reduce(target, 2)
        for i in range(256):
            coeffs = [(i >> j) & 1 for j in range(8)]
            assert IdealResidue(2, coeffs) ** 2 != t

    def test_budget_exhausted_not_misreported(self):
        res = dth_root_search(qint(2), 5, budget=1000)
        assert res.outcome == "budget_exhausted"
        assert res.searched <= 1000
        # the detail names the component space and the budget left for it
        assert "5^20" in res.detail and "1000" in res.detail
        assert "raise --budget" not in res.detail

    def test_budget_exhausted_beyond_float_range(self):
        # 47^188 exceeds the float range; the detail takes its size from the integer
        res = dth_root_search(qint(2), 47, budget=10)
        assert res.outcome == "budget_exhausted"
        assert res.searched == 10
        assert "47^188" in res.detail and "10" in res.detail
        assert "2.3e+314" in res.detail

    def test_searched_counts(self):
        res = dth_root_search(P61, 2)
        assert 1 <= res.searched <= 256

    def test_chunk_keeps_product_buffer_within_32_mib(self):
        for d in range(2, 33):
            assert _chunk_size(4 * d) == 1 << 14
        for d in (33, 47, 200, 500, 5000):
            W = 4 * d
            chunk = _chunk_size(W)
            assert 1 <= chunk < 1 << 14
            assert (2 * W - 1) * chunk * 8 <= 32 << 20

    def test_generic_scan_uses_the_chunk_rule(self, monkeypatch):
        # powers are stubbed to zero, and the target is nonzero mod 2, so
        # nothing hits: only the chunking is exercised.  A prime d is
        # solved, not scanned; d = 34 is composite, its mod-2 component is
        # scanned first, and its window (W = 136) shrinks the chunk below
        # 2^14.
        sizes = []

        def no_power(self, A, e):
            sizes.append(A.shape[0])
            return np.zeros_like(A)

        monkeypatch.setattr(_ComponentRing, "pow", no_power)
        res = dth_root_search(qint(1), 34, budget=20000)
        assert res.outcome == "budget_exhausted" and res.searched == 20000
        assert _chunk_size(136) < 1 << 14
        assert sizes == [_chunk_size(136), 20000 - _chunk_size(136)]

    @pytest.mark.parametrize("d", [5, 47])
    def test_tiny_budget_builds_no_frobenius_matrix(self, monkeypatch, d):
        # a budget below W scans by square-and-multiply and builds no
        # matrix, W or more solves with it: the build (about W^2 p) and
        # the row reduction (up to W^3) outgrow a handful of candidates at
        # a large d (0.8 s against 0.2 s for one candidate at d = 347)
        builds = []
        build = _ComponentRing._frobenius_matrix

        def counted(self):
            builds.append(self.m)
            return build(self)

        monkeypatch.setattr(_ComponentRing, "_frobenius_matrix", counted)
        res = dth_root_search(qint(2), d, budget=4 * d - 1)
        assert res.outcome == "budget_exhausted" and res.searched == 4 * d - 1
        assert builds == []
        res = dth_root_search(qint(2), d, budget=4 * d)
        assert res.searched == 4 * d
        assert builds == [d]


class TestCrtConsistency:
    def _direct_full_ring(self, p, d, support):
        # independent oracle: scan the full composite ring directly
        target = tuple(mod_reduce(p, d).coeffs)
        witness, tested, exhausted = _search_component_generic(d, d, target, 10**7, support)
        assert exhausted
        return witness

    def test_composite_agrees_with_direct_scan(self):
        rng = random.Random(612)
        support = 3  # 6^3 = 216 direct candidates; components 2^3 and 3^3
        solvable = unsolvable = 0
        for trial in range(12):
            p = random_poly(rng)
            direct = self._direct_full_ring(p, 6, support)
            via_crt = dth_root_search(p, 6, support_limit=support)
            if direct is None:
                assert via_crt.outcome == "not_found"
                unsolvable += 1
            else:
                assert via_crt.outcome == "found"
                assert verify_witness(p, 6, via_crt.witness)
                solvable += 1
        assert unsolvable > 0

    def test_constructed_roots_found(self):
        # alpha supported on the low window positions, target = alpha^6
        support = 3
        for bits in (1, 7, 11, 35):
            coeffs = [0] * 24
            for j in range(support):
                coeffs[j] = (bits >> (2 * j)) & 3
            alpha = IdealResidue(6, coeffs)
            target = alpha.to_poly() ** 6
            res = dth_root_search(target, 6, support_limit=support)
            assert res.outcome == "found"
            assert verify_witness(target, 6, res.witness)


class TestPrimeSolve:
    """A prime d's linear solve against the scans it replaces, called
    directly: the witness, the tested count and the exhausted flag must be
    identical, at budgets on both sides of the least witness id, of one
    chunk and of the whole space."""

    EXPRS = ("[2]^4[3]+2[2]^2[3]", "[3]", "[2]^2[3]")

    @staticmethod
    def _targets(d):
        paths = sorted(FIXTURES.glob("prime_*.dart"))
        polys = [invariant(fixture_web(path.stem)) for path in paths]
        polys += [parse_qexpr(e) for e in TestPrimeSolve.EXPRS]
        # no square root mod (2, [3]^2 - [3]), and no cube root mod 3
        polys.append(HalfLaurent({-4: 1}) + qint(2))
        return [tuple(c % d for c in mod_reduce(p, d).coeffs) for p in polys]

    def _agree(self, d, target, support):
        W = 4 * d
        space = d**support
        ring = _ComponentRing(d, d)
        least = _solve_component(ring, target, space, support)[0]
        budgets = {W - 1, W, _chunk_size(W), space, DEFAULT_BUDGET}
        if least is not None:
            i = sum(c * d**pos for pos, c in enumerate(least))
            budgets |= {i, i + 1}
        for budget in sorted(budgets):
            solved = _solve_component(ring, target, budget, support)
            assert _search_component(d, d, target, budget, support) == solved
            scans = [_search_component_generic(d, d, target, budget, support)]
            if d == 2:
                scans.append(_search_component_mod2(d, target, budget, support))
            for scanned in scans:
                assert scanned == solved, (d, target, support, budget)
        return least is not None

    @pytest.mark.parametrize("d", [2, 3])
    def test_full_window(self, d):
        found = [self._agree(d, t, 4 * d) for t in self._targets(d)]
        assert all(found[:-1]) and not found[-1]

    def test_witness_beyond_a_scans_reach(self):
        # the least 5th root has id 12471516876: a scan would power about
        # 1.2e10 candidates first, the solve reports the end of its chunk
        res = dth_root_search(P61, 5, budget=5**20)
        assert res.outcome == "found" and res.searched == 761201 * (1 << 14)
        coeffs = res.witness.coeffs
        assert sum(c * 5**pos for pos, c in enumerate(coeffs)) == 12471516876

    def test_solve_beyond_the_chunk_rule(self, monkeypatch):
        # at d = 367 a chunk holds fewer than W = 1468 candidates, so the
        # scan builds no Frobenius matrix; the solve has its own rule (the
        # W x W matrix within 32 MiB) and reports the scan's outcome and
        # count, two chunks of 1429
        solves = []
        solve = symmetry._solve_component

        def spied(ring, target, budget, support):
            solves.append((ring.d, budget))
            return solve(ring, target, budget, support)

        monkeypatch.setattr(symmetry, "_solve_component", spied)
        assert _chunk_size(4 * 367) == 1429
        res = dth_root_search(qint(2), 367, budget=2 * 1429)
        assert solves == [(367, 2858)]
        assert res.outcome == "budget_exhausted" and res.searched == 2858
        assert res.detail == (
            "mod-367 component space 367^1468 (about 8.5e+3764 candidates) "
            "exceeds the remaining budget of 2858 candidates"
        )

    def test_no_solve_beyond_32_mib(self, monkeypatch):
        # 521 is the least prime whose float64 W x W matrix exceeds 32 MiB
        # (d <= 512 fits): it is scanned (stubbed here), never solved
        calls = []
        monkeypatch.setattr(symmetry, "_solve_component", lambda *args: calls.append("solve"))
        monkeypatch.setattr(
            symmetry, "_search_component_generic", lambda *args: calls.append("scan")
        )
        assert 8 * (4 * 521) ** 2 > 32 << 20 >= 8 * (4 * 512) ** 2
        for d in (509, 521):
            _search_component(d, d, (0,) * (4 * d), 4 * d, 4 * d)
        assert calls == ["solve", "scan"]

    @pytest.mark.parametrize("d, support", [(5, 5), (7, 4)])
    def test_low_support(self, d, support):
        # the low `support` positions hold few candidates; alpha^d with
        # alpha among them gives targets that are found
        rng = random.Random(d)
        targets = self._targets(d)
        for _ in range(4):
            alpha = [rng.randrange(d) for _ in range(support)] + [0] * (4 * d - support)
            targets.append(tuple(c % d for c in (IdealResidue(d, alpha) ** d).coeffs))
        found = sum(self._agree(d, t, support) for t in targets)
        assert found >= 4


def _mulmod(a, b, G, p):
    """a b mod the monic G over F_p, on coefficient tuples of length deg G."""
    n = len(G) - 1
    out = [0] * (2 * n)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    for i in range(2 * n - 1, n - 1, -1):
        c = out[i] % p
        for j in range(n + 1):
            out[i - n + j] -= c * G[j]
    return tuple(x % p for x in out[:n])


def _polmul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


class TestLocalPieces:
    """The d-th power criterion of a composite d's prime components: the
    factorization into local pieces, `_has_root` against every d-th power
    of small rings, the 2^24 ring of d = 6 mod 2, and the searches it
    decides against the scans it replaces."""

    @staticmethod
    def _random_modulus(rng, p, max_degree):
        # a product of random monic factors, each taken once or more
        G = [1]
        while len(G) < 3:
            for _ in range(rng.randrange(1, 4)):
                h = [rng.randrange(p) for _ in range(rng.randrange(1, 4))] + [1]
                for _ in range(rng.randrange(1, 4)):
                    if len(G) + len(h) - 2 <= max_degree:
                        G = _polmul(G, h, p)
        return G

    def test_has_root_against_every_dth_power(self):
        rng = random.Random(27)
        rings = []
        for p, max_degree, orders in ((2, 8, (4, 6, 8, 12)), (3, 5, (6, 9, 12)), (5, 4, (10, 25))):
            for _ in range(10):
                rings.append((p, self._random_modulus(rng, p, max_degree), rng.choice(orders)))
        # pieces g^e with e > d, where a valuation v = d > 0 is reachable:
        # y^5 (y^2 + y + 1) at d = 4 over F_2, (y + 1)^7 at d = 6 over F_3
        seventh = [1]
        for _ in range(7):
            seventh = _polmul(seventh, [1, 1], 3)
        rings += [(2, _polmul([0] * 5 + [1], [1, 1, 1], 2), 4), (3, seventh, 6)]
        rootless = 0
        for p, G, d in rings:
            pieces = _factor(G, p)
            product = [1]
            for g, e in pieces:
                for _ in range(e):
                    product = _polmul(product, g, p)
            assert product == G, (p, G, pieces)
            elements = list(itertools.product(range(p), repeat=len(G) - 1))
            one = (1,) + (0,) * (len(G) - 2)
            powers = set()
            for x in elements:
                power, base, e = one, x, d
                while e:
                    if e & 1:
                        power = _mulmod(power, base, G, p)
                    base, e = _mulmod(base, base, G, p), e >> 1
                powers.add(power)
            rootless += len(elements) - len(powers)
            for t in elements:
                assert _has_root(t, d, p, pieces) == (t in powers), (p, G, d, t)
        assert rootless > 0

    def test_sixth_powers_of_the_mod2_ring(self):
        # the pieces the criterion reads at d = 6 mod 2, of dimensions 4, 8,
        # 8 and 4
        pieces = _local_pieces(6, 2)
        assert sorted((len(g) - 1, e) for g, e in pieces) == [(1, 4), (2, 2), (4, 2), (4, 2)]
        seen = np.zeros(1 << 24, dtype=bool)
        for _, powers in _mod2_powers(6, 24, 1 << 24):
            seen[powers] = True
        sixth = np.flatnonzero(seen)
        assert sixth.size == 216
        others = np.random.default_rng(6).choice(np.flatnonzero(~seen), size=2000, replace=False)
        for ids, verdict in ((sixth, True), (others, False)):
            for i in ids.tolist():
                assert _has_root([(i >> j) & 1 for j in range(24)], 6, 2, pieces) is verdict, i

    EXPRS = ("[2]^4[3]+2[2]^2[3]", "[3]", "[2]^2[3]", "2", "[2]")
    CASES = [("prime_*", 6, 1100000)] + [(e, d, 50000) for e in EXPRS for d in (6, 10, 14, 15)]

    @pytest.mark.parametrize("source, d, budget", CASES)
    def test_decided_searches_equal_the_scans(self, monkeypatch, source, d, budget):
        # a search in which `_has_root` never says no scans exactly as with
        # it stubbed to yes, so only the others are run again
        if source == "prime_*":
            paths = sorted(FIXTURES.glob(source + ".dart"))
            polys = [invariant(fixture_web(path.stem)) for path in paths]
        else:
            polys = [parse_qexpr(source)]
        decide = symmetry._has_root
        verdicts = []

        def recorded(*args):
            verdicts.append(decide(*args))
            return verdicts[-1]

        for poly in polys:
            verdicts.clear()
            monkeypatch.setattr(symmetry, "_has_root", recorded)
            decided = dth_root_search(poly, d, budget=budget).to_json_obj()
            if all(verdicts):
                continue
            monkeypatch.setattr(symmetry, "_has_root", lambda *args: True)
            assert dth_root_search(poly, d, budget=budget).to_json_obj() == decided, (source, d)

    def test_a_rootless_mod3_component_is_not_scanned(self, monkeypatch):
        # prime_7_1 at d = 6: its mod-2 component has a root, its mod-3
        # component none; the 32505856 candidates left for it are counted,
        # not scanned
        scanned = []
        scan = symmetry._search_component_generic

        def recorded(d, m, *args):
            scanned.append(m)
            return scan(d, m, *args)

        monkeypatch.setattr(symmetry, "_search_component_generic", recorded)
        res = dth_root_search(invariant(fixture_web("prime_7_1")), 6)
        assert res.outcome == "budget_exhausted" and res.searched == DEFAULT_BUDGET
        assert "mod-3" in res.detail and "32505856" in res.detail
        assert 3 not in scanned


class TestMod2Kernel:
    """The table-driven mod-2 scan against the coefficient-vector ring code."""

    BUDGETS = (10**7, 1000, 4097)  # the last two end inside a block

    def _agree(self, d, target, support):
        for budget in self.BUDGETS:
            kernel = _search_component_mod2(d, target, budget, support)
            generic = _search_component_generic(d, 2, target, budget, support)
            assert kernel == generic, (d, target, support, budget)
        return kernel[0] is not None

    def test_square_roots_all_targets(self):
        found = sum(
            self._agree(2, tuple((t >> i) & 1 for i in range(8)), 8) for t in range(256)
        )
        assert 0 < found < 256

    @pytest.mark.parametrize("support", [3, 10, 14])
    def test_sixth_roots(self, support):
        rng = random.Random(1000 + support)
        targets = [tuple(rng.randrange(2) for _ in range(24)) for _ in range(4)]
        for _ in range(4):
            # alpha^6 with alpha inside the support, computed in IdealResidue
            alpha = [rng.randrange(2) for _ in range(support)] + [0] * (24 - support)
            targets.append(tuple(c % 2 for c in (IdealResidue(6, alpha) ** 6).coeffs))
        found = sum(self._agree(6, t, support) for t in targets)
        assert found >= 4

    def test_sixth_powers_sampled_over_full_space(self):
        # 2^16 seeded ids of the 2^24 space, against the generic ring's pow
        ids = np.sort(np.random.default_rng(24).choice(1 << 24, size=1 << 16, replace=False))
        kernel = np.empty(ids.size, dtype=np.uint64)
        for start, powers in _mod2_powers(6, 24, 1 << 24):
            inside = (ids >= start) & (ids < start + powers.size)
            kernel[inside] = powers[ids[inside] - start]
        ring = _ComponentRing(6, 2)
        weights = np.uint64(1) << np.arange(24, dtype=np.uint64)
        for lo in range(0, ids.size, 1 << 13):
            chunk = ids[lo : lo + (1 << 13)]
            powered = ring.pow(_ids_to_digits(chunk, 2, 24, 24), 6).astype(np.uint64)
            assert np.array_equal((powered * weights).sum(axis=1), kernel[lo : lo + chunk.size])


class TestComponentRingOracle:
    """The component ring against IdealResidue products reduced mod m: the
    dict-based polynomial code shares nothing with the ring's arrays.  A
    prime m powers through the Frobenius matrix, m = 4, 8 and 9 by
    square-and-multiply; the exponents give both paths multi-digit base-m
    exponents."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 8, 9, 10, 12, 47])
    def test_products_and_powers(self, d):
        rng = random.Random(600 + d)
        for m in _prime_power_factors(d):
            ring = _ComponentRing(d, m)
            # W candidates, so that a prime m builds the Frobenius matrix on
            # the first pow; the oracle checks the first six
            A, B = (
                np.array(
                    [[rng.randrange(m) for _ in range(4 * d)] for _ in range(4 * d)],
                    dtype=np.int64,
                )
                for _ in range(2)
            )

            def expect(x):
                return [c % m for c in x.coeffs]

            for a, b, ab in zip(A[:6], B[:6], ring.mul(A[:6].T, B[:6].T).T):
                assert expect(IdealResidue(d, a) * IdealResidue(d, b)) == ab.tolist(), (d, m)
            for e in (0, 1, 2, 3, d, d + 1, 2 * d + 5, m * m, m * m + 1):
                for a, ae in zip(A[:6], ring.pow(A, e)):
                    assert expect(IdealResidue(d, a) ** e) == ae.tolist(), (d, m, e)
            assert (ring.frobenius is None) == (m in (4, 8, 9)), (d, m)

    @pytest.mark.parametrize("d", range(2, 61))
    def test_frobenius_columns_are_reduced_monomials(self, d):
        # column j is y^(p (j - 2d)), y = q^(1/2), reduced by the dict-based
        # mod_reduce; reducing mod d and then mod p is reducing mod p, as
        # p divides d and the elimination is linear
        for m in _prime_power_factors(d):
            p = next(q for q in range(2, m + 1) if m % q == 0)
            F = _ComponentRing(d, p)._frobenius_matrix()
            for j in range(4 * d):
                monomial = HalfLaurent({p * (j - 2 * d): 1})
                want = [c % p for c in mod_reduce(monomial, d).coeffs]
                assert F[:, j].tolist() == want, (d, p, j)

    @pytest.mark.parametrize("d", [5, 47])
    def test_frobenius_matrix_waits_for_w_candidates(self, d):
        # the build (about W^2 p) is at most a quarter of one product of W
        # candidates with the matrix (W^3), so the first pow of W builds
        # it; fewer are powered by square-and-multiply, as at a tiny
        # budget; both agree
        rng = np.random.default_rng(d)
        W = 4 * d
        A = rng.integers(0, d, size=(W, W), dtype=np.int64)
        ring = _ComponentRing(d, d)
        exponents = (d, d + 1, 2 * d + 5, d * d + 1)
        few = [ring.pow(A[: W - 1], e) for e in exponents]
        assert ring.frobenius is None
        for e, powers in zip(exponents, few):
            assert np.array_equal(ring.pow(A, e)[: W - 1], powers), e
        assert ring.frobenius is not None


class TestSymmetryReport:
    def test_six_one_candidates(self):
        report = symmetry_report(
            hex_prism_web(),
            [(digon_prism_web(), 2), (digon_prism_web(), 3), (theta_web(), 6), (cube_web(), 1)],
        )
        entries = report["candidates"]
        assert entries[0]["congruent"] is True
        assert entries[1]["congruent"] is True
        assert entries[2]["congruent"] is False
        assert "skipped" in entries[3]
        assert report["automorphism_count"] == 12
        assert invariant(theta_web()).to_json_obj() == entries[2]["quotient_invariant"]

    def test_caveat_present(self):
        report = symmetry_report(cube_web(), [])
        assert "not a proof" in report["caveat"]
