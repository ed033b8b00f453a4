"""Symmetry criterion via congruences in Z[q^(±1/2)]/(d, [3]^d - [3]).

A degree-d symmetry candidate is tested through the congruence
P(G) = P(G/Gamma_d)^d modulo the ideal (d, [3]^d - [3]); independently,
the d-th power residue search decides whether ANY alpha^d hits P(G) in the
finite quotient ring.  For prime d the whole ring (d^(4d) elements) is
scanned; composite d splits by CRT into prime-power component rings which
are scanned smallest first, so an obstruction in a small component settles
the question without touching the big one.  Every witness is re-verified
exactly before being reported, and running out of budget is reported as
such, never as non-existence.

The mod-2 components of d = 2 and d = 6 (the 2^24-element ring of the
order-6 question) are scanned bit-packed and table-driven: squaring is
additive in characteristic 2, so with d = 2^a + 2^b and a candidate split
into high and low bits h + l, x^d = h^d + l^d + C_h(l) with C_h linear in
l.  Each candidate's power is then a few XORs of table entries, and every
candidate is still tested, in increasing order.
"""

from __future__ import annotations

from .planarmap import _require_connected, automorphism_count
from .qlaurent import IdealResidue, ideal_generator, mod_reduce, congruent_mod
from .reducer import invariant

DEFAULT_BUDGET = 1 << 25


class _Numpy:
    """Stands in for numpy until its first use, then imports it and takes
    its place, so that importing the package or the CLI loads no numpy."""

    def __getattr__(self, name):
        global np
        import numpy

        np = numpy
        return getattr(numpy, name)


np = _Numpy()


def check_quotient(p_g, p_quotient, d):
    """P(G) = P(quotient)^d mod (d, [3]^d - [3])?"""
    if d < 2:
        raise ValueError("modulus must be at least 2")
    return congruent_mod(p_g, p_quotient**d, d)


def verify_witness(p, d, witness):
    """Exact check that witness^d matches p in the quotient ring."""
    if not isinstance(witness, IdealResidue) or witness.d != d:
        return False
    return congruent_mod(witness.to_poly() ** d, p, d)


class RootSearchResult:
    """Outcome of a d-th root search: found / not_found / budget_exhausted."""

    __slots__ = ("outcome", "witness", "searched", "detail")

    def __init__(self, outcome, witness, searched, detail):
        self.outcome = outcome
        self.witness = witness
        self.searched = searched
        self.detail = detail

    def __repr__(self):
        return f"RootSearchResult({self.outcome}, searched={self.searched})"

    def to_json_obj(self):
        obj = {"outcome": self.outcome, "searched": self.searched, "detail": self.detail}
        if self.witness is not None:
            obj["witness"] = self.witness.to_poly().to_json_obj()
        return obj


def _prime_power_factors(d):
    factors = []
    rest = d
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            q = 1
            while rest % p == 0:
                rest //= p
                q *= p
            factors.append(q)
        p += 1
    if rest > 1:
        factors.append(rest)
    return sorted(factors)


def _crt_pair(a1, m1, a2, m2):
    # moduli coprime; standard reconstruction
    inv = pow(m1, -1, m2)
    return (a1 + (a2 - a1) * inv % m2 * m1) % (m1 * m2)


class _ComponentRing:
    """Z_m[x^(±1)]/([3]^d - [3]) with the 4d-coefficient window.

    Inside the ring, arrays are column-major: row i of a (W, n) array holds
    window position i (half-exponent i - 2d) of all n candidates, so every
    step is one numpy operation on whole rows.  A product accumulates the
    W shifted row products in a (2W - 1)-row buffer and reduces mod m once
    (int64 holds W m^2).  The generator's extreme coefficients are 1, so
    each overflow row, taken from the outside in, is folded into the rows
    of the other generator terms with one operation against arrays of
    their offsets and coefficients.  The window is returned as a fresh
    array by the final reduction, not as a view, which would keep the
    whole (2W - 1)-row buffer alive for as long as the product is held.
    """

    def __init__(self, d, m):
        self.d = d
        self.m = m
        self.W = 4 * d
        gen = ideal_generator(d)
        terms = sorted((k, c % m) for k, c in gen.items() if c % m)
        keys = np.array([k for k, _ in terms], dtype=np.int64)
        coeffs = np.array([c for _, c in terms], dtype=np.int64)[:, None]
        # a row above the window folds into the rows of every term but the
        # top one, a row below it into those of every term but the bottom one
        self.down, self.down_coeffs = keys[:-1] - 2 * d, coeffs[:-1]
        self.up, self.up_coeffs = keys[1:] + 2 * d, coeffs[1:]

    def mul(self, A, B):
        """Product of (W, n) arrays with entries in [0, m)."""
        d, m, W = self.d, self.m, self.W
        P = np.zeros((2 * W - 1, A.shape[1]), dtype=np.int64)
        for i in range(W):
            row = A[i]
            if row.any():
                P[i : i + W] += row * B
        P %= m
        for r in range(2 * W - 2, 6 * d - 1, -1):
            P[r + self.down] -= self.down_coeffs * (P[r] % m)
        for r in range(2 * d):
            P[r + self.up] -= self.up_coeffs * (P[r] % m)
        return P[2 * d : 6 * d] % m

    def pow(self, A, e):
        """A^e for every row of the (candidates, W) array A, as (candidates, W).

        Square-and-multiply from the lowest set bit of e, with no final
        squaring: x^3 costs two products.
        """
        base = np.remainder(A.T, self.m, order="C")
        result = None
        while e:
            if e & 1:
                result = base if result is None else self.mul(result, base)
            e >>= 1
            if e:
                base = self.mul(base, base)
        if result is None:
            result = np.zeros_like(base)
            result[2 * self.d] = 1  # the constant monomial q^0
        return result.T


def _ids_to_digits(ids, m, W, support):
    n = ids.shape[0]
    digits = np.zeros((n, W), dtype=np.int64)
    rest = ids.copy()
    for pos in range(support):
        digits[:, pos] = rest % m
        rest //= m
    return digits


def _chunk_size(W):
    """Candidates per chunk of the generic scan: 2^14, fewer for wide windows.

    A product's (2W - 1)-row int64 buffer spans the whole chunk, so the
    chunk shrinks with W to keep it within 32 MiB; every d <= 32 keeps
    2^14 candidates.
    """
    return min(1 << 14, (32 << 20) // (8 * (2 * W - 1)))


def _search_component_generic(d, m, target, exponent, budget, support):
    """Scan candidates with coefficients on the low `support` positions.

    Returns (witness coeff tuple or None, tested, exhausted_space).
    Candidate i has coefficient (i // m^pos) % m at window position pos,
    and candidates are scanned in increasing i, so a hit is minimal in
    that encoding.
    """
    ring = _ComponentRing(d, m)
    space = m**support
    target_arr = np.array(target, dtype=np.int64) % m
    tested = 0
    chunk = _chunk_size(ring.W)
    start = 0
    while start < space:
        if tested >= budget:
            return None, tested, False
        stop = min(space, start + chunk, start + (budget - tested))
        ids = np.arange(start, stop, dtype=np.int64)
        digits = _ids_to_digits(ids, m, ring.W, support)
        powered = ring.pow(digits, exponent)
        hits = np.nonzero((powered == target_arr).all(axis=1))[0]
        tested += stop - start
        if hits.size:
            i = int(ids[hits[0]])
            digits1 = _ids_to_digits(np.array([i], dtype=np.int64), m, ring.W, support)
            return tuple(int(x) for x in digits1[0]), tested, True
        start = stop
    return None, tested, True


def _mod2_product(d):
    """The product of the bit-packed mod-2 component ring, on uint64 arrays.

    Bit i holds the coefficient at window position i (half-exponent
    i - 2d); products convolve to bits 0..8d-2 and fold back into the
    window bits 2d..6d-1 exactly as the generic path does.  Operands
    broadcast against each other.
    """
    W = 4 * d
    gen = ideal_generator(d)
    H = 0  # generator bits anchored at its bottom term
    for k, c in gen.items():
        if c % 2:
            H |= 1 << (k + 2 * d)

    def redmul(a, b):
        z = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.uint64)
        for i in range(W):
            mask = (a >> np.uint64(i)) & np.uint64(1)
            z ^= (b << np.uint64(i)) * mask
        for j in range(2 * W - 2, W + 2 * d - 1, -1):
            mask = (z >> np.uint64(j)) & np.uint64(1)
            z ^= np.uint64(H << (j - W)) * mask
        for j in range(0, 2 * d):
            mask = (z >> np.uint64(j)) & np.uint64(1)
            z ^= np.uint64(H << j) * mask
        return (z >> np.uint64(2 * d)) & np.uint64((1 << W) - 1)

    return redmul


def _mod2_powers(d, exponent, support, count):
    """Yield (start, x^e for ids start, start+1, ...) over ids [0, count).

    Id x is the element with bit i at window position i, supported on the
    low `support` bits; e is `exponent`, which must be 2^a + 2^b with
    a >= b.  Blocks start at multiples of 2^20 and hold at most 2^20 ids,
    as rows h (the bits above the lowest min(12, support)) by columns l
    (the lowest bits): x^e = h^e + l^e + C_h(l), where doubling the
    images of C_h on the basis bits of l gives C_h(l) for every l as
    XORs (see `_search_component_mod2`).  The ring product runs on the
    tables (2^12 low powers, the block's rows and their basis images),
    never on single candidates.
    """
    a = (exponent - 1).bit_length() - 1
    rest = exponent - (1 << a)
    assert rest & (rest - 1) == 0, "exponent must have at most two bits set"
    b = rest.bit_length() - 1
    redmul = _mod2_product(d)

    def frobenius(x, k):
        for _ in range(k):
            x = redmul(x, x)
        return x

    lo = min(12, support)
    L = 1 << lo
    low = np.arange(L, dtype=np.uint64)
    low_powers = redmul(frobenius(low, a), frobenius(low, b))
    basis = np.uint64(1) << np.arange(lo, dtype=np.uint64)
    basis_a, basis_b = frobenius(basis, a), frobenius(basis, b)
    block = 1 << 20
    for start in range(0, count, block):
        stop = min(count, start + block)
        rows = -(-(stop - start) // L)
        high = np.arange(start >> lo, (start >> lo) + rows, dtype=np.uint64) << np.uint64(lo)
        high_a, high_b = frobenius(high, a), frobenius(high, b)
        cross = redmul(high_a[:, None], basis_b[None, :]) ^ redmul(
            high_b[:, None], basis_a[None, :]
        )
        table = np.empty((rows, L), dtype=np.uint64)
        table[:, 0] = 0
        for j in range(lo):
            table[:, 1 << j : 2 << j] = table[:, : 1 << j] ^ cross[:, j : j + 1]
        table ^= low_powers[None, :]
        table ^= redmul(high_a, high_b)[:, None]
        yield start, table.ravel()[: stop - start]


def _search_component_mod2(d, target, exponent, budget, support):
    """Bit-packed scan of a mod-2 component (d = 2, and the 2^24 space of d = 6).

    Every candidate id in [0, min(2^support, budget)) is tested, in
    increasing order, so a hit is the least witness in that encoding; a
    hit reports the end of its 2^20-id block, or of the budget if that
    comes first, as the tested count.

    The powers are exact.  The component ring is commutative of
    characteristic 2, so the Frobenius map F(x) = x^2 is additive and F^a,
    F^b are GF(2)-linear.  With e = 2^a + 2^b (d = 2 is 1 + 1, d = 6 is
    4 + 2) and x = h + l,

        x^e = F^a(h + l) F^b(h + l) = h^e + l^e + C_h(l),
        C_h(l) = F^a(h) F^b(l) + F^b(h) F^a(l),

    and C_h is GF(2)-linear in l, so its values on the basis bits of l
    determine it on their whole span.  (For a = b the two cross terms
    cancel, as they should: squaring is additive.)  `_mod2_powers` builds
    the powers from these identities with the ring product `_mod2_product`.
    """
    W = 4 * d
    tgt = np.uint64(sum((c % 2) << i for i, c in enumerate(target)))
    space = 1 << support
    count = min(space, max(budget, 0))
    for start, powers in _mod2_powers(d, exponent, support, count):
        hits = np.flatnonzero(powers == tgt)
        if hits.size:
            w = start + int(hits[0])
            return tuple((w >> i) & 1 for i in range(W)), start + powers.size, True
    return None, count, count == space


def _search_component(d, m, target, exponent, budget, support):
    if m == 2 and 8 * d - 2 <= 63:
        return _search_component_mod2(d, target, exponent, budget, support)
    return _search_component_generic(d, m, target, exponent, budget, support)


def _approx(n):
    """`n` as "%.1e" would print float(n), also beyond the float range."""
    # imported here: every CLI start imports this module, and only a
    # budget_exhausted detail needs it
    from decimal import Decimal

    mantissa, exp = f"{Decimal(n):.1e}".split("e")
    return f"{mantissa}e{int(exp):+03d}"


def dth_root_search(p, d, budget=DEFAULT_BUDGET, support_limit=None):
    """Decide whether some alpha has alpha^d = p in Z[q^(±1/2)]/(d, [3]^d-[3]).

    Exhaustive over the d^(4d)-element ring for prime d; composite d splits
    by CRT into prime-power component rings, scanned smallest first (a root
    exists iff one exists in every component).  `budget` caps the total
    number of candidates tested; exceeding it yields budget_exhausted,
    never a false not_found.  `support_limit` restricts candidates to the
    low window positions (testing hook for small composite cases).
    """
    if d < 2:
        raise ValueError(f"the order d must be at least 2, got {d}")
    W = 4 * d
    support = W if support_limit is None else min(support_limit, W)
    target_full = mod_reduce(p, d)
    factors = _prime_power_factors(d)
    factors.sort(key=lambda m: m**support)
    witnesses = []
    tested_total = 0
    for m in factors:
        target_m = tuple(c % m for c in target_full.coeffs)
        remaining = budget - tested_total
        witness, tested, exhausted = _search_component(
            d, m, target_m, d, remaining, support
        )
        tested_total += tested
        if witness is not None:
            witnesses.append((m, witness))
            continue
        if exhausted:
            return RootSearchResult(
                "not_found",
                None,
                tested_total,
                f"mod-{m} component admits no {d}-th root "
                f"({m}^{support} candidates scanned)",
            )
        return RootSearchResult(
            "budget_exhausted",
            None,
            tested_total,
            f"mod-{m} component space {m}^{support} (about {_approx(m**support)} "
            f"candidates) exceeds the remaining budget of {remaining} "
            f"candidates",
        )
    coeffs = []
    for pos in range(W):
        x, mod = 0, 1
        for m, witness in witnesses:
            x = _crt_pair(x, mod, witness[pos], m)
            mod *= m
        coeffs.append(x % d)
    candidate = IdealResidue(d, coeffs)
    if not verify_witness(p, d, candidate):
        raise AssertionError("recombined witness failed exact verification")
    return RootSearchResult("found", candidate, tested_total, "verified witness")


def symmetry_report(web, candidates):
    """Congruence evidence for symmetry candidates (quotient web, order d).

    For each candidate the quotient invariant is computed by the engine
    and tested against P(web) mod (d, [3]^d - [3]).  A passing congruence
    is necessary-style evidence only, never a proof of symmetry (the
    criterion's fundamental-domain hypothesis is not machine-checked).
    """
    _require_connected(web, "the web must be connected and have vertices")
    p_g = invariant(web)
    report = {
        "invariant": p_g.to_json_obj(),
        "vertices": web.n_vertices,
        "automorphism_count": automorphism_count(web, include_reflections=False),
        "caveat": (
            "congruences are necessary-style evidence for a symmetry of the "
            "given order, not a proof"
        ),
        "candidates": [],
    }
    for quotient, d in candidates:
        entry = {"d": d}
        if d < 2:
            entry["skipped"] = "orders below 2 carry no information"
            report["candidates"].append(entry)
            continue
        p_q = invariant(quotient)
        entry["quotient_invariant"] = p_q.to_json_obj()
        power_residue = mod_reduce(p_q**d, d)
        entry["power_residue"] = power_residue.to_poly().to_json_obj()
        entry["congruent"] = power_residue == mod_reduce(p_g, d)
        report["candidates"].append(entry)
    return report
