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
"""

from __future__ import annotations

import numpy as np

from .planarmap import automorphism_count
from .qlaurent import IdealResidue, ideal_generator, mod_reduce, congruent_mod
from .reducer import invariant

DEFAULT_BUDGET = 1 << 25


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
    """Z_m[x^(±1)]/([3]^d - [3]) with the 4d-coefficient window, as flat
    vectors; multiplication convolves then folds both window overflows
    against the generator (extreme coefficients 1)."""

    def __init__(self, d, m):
        self.d = d
        self.m = m
        self.W = 4 * d
        gen = ideal_generator(d)
        self.gitems = [(k, c % m) for k, c in gen.items() if c % m]

    def mul(self, A, B):
        d, m, W = self.d, self.m, self.W
        n = A.shape[0]
        P = np.zeros((n, 2 * W - 1), dtype=np.int64)
        for i in range(W):
            col = A[:, i]
            if not col.any():
                continue
            P[:, i : i + W] = (P[:, i : i + W] + col[:, None] * B) % m
        for h in range(4 * d - 2, 2 * d - 1, -1):
            c = P[:, h + 4 * d].copy()
            if not c.any():
                continue
            for gk, gc in self.gitems:
                jj = gk + h + 2 * d
                P[:, jj] = (P[:, jj] - c * gc) % m
        for h in range(-4 * d, -2 * d):
            c = P[:, h + 4 * d].copy()
            if not c.any():
                continue
            for gk, gc in self.gitems:
                jj = gk + h + 6 * d
                P[:, jj] = (P[:, jj] - c * gc) % m
        return P[:, 2 * d : 6 * d]

    def pow(self, A, e):
        n = A.shape[0]
        result = np.zeros((n, self.W), dtype=np.int64)
        result[:, 2 * self.d] = 1  # the constant monomial q^0
        base = A
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result


def _ids_to_digits(ids, m, W, support):
    n = ids.shape[0]
    digits = np.zeros((n, W), dtype=np.int64)
    rest = ids.copy()
    for pos in range(support):
        digits[:, pos] = rest % m
        rest //= m
    return digits


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
    chunk = 1 << 14
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


def _search_component_mod2(d, target, exponent, budget, support):
    """Bit-packed scan of a mod-2 component (fast path for 2^24 spaces).

    Bit i holds the coefficient at window position i (half-exponent
    i - 2d); products convolve to bits 0..8d-2 and fold back into the
    window bits 2d..6d-1 exactly as the generic path does.
    """
    W = 4 * d
    gen = ideal_generator(d)
    H = 0  # generator bits anchored at its bottom term
    for k, c in gen.items():
        if c % 2:
            H |= 1 << (k + 2 * d)
    tgt = np.uint64(sum((c % 2) << i for i, c in enumerate(target)))

    def redmul(a, b):
        z = np.zeros_like(a)
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

    def powvec(b, e):
        result = np.full_like(b, np.uint64(1 << (2 * d)))
        base = b
        while e:
            if e & 1:
                result = redmul(result, base)
            base = redmul(base, base)
            e >>= 1
        return result

    space = 1 << support
    tested = 0
    chunk = 1 << 20
    start = 0
    while start < space:
        if tested >= budget:
            return None, tested, False
        stop = min(space, start + chunk, start + (budget - tested))
        b = np.arange(start, stop, dtype=np.uint64)
        hits = np.nonzero(powvec(b, exponent) == tgt)[0]
        tested += stop - start
        if hits.size:
            w = int(b[hits[0]])
            return tuple((w >> i) & 1 for i in range(W)), tested, True
        start = stop
    return None, tested, True


def _search_component(d, m, target, exponent, budget, support):
    if m == 2 and 8 * d - 2 <= 63:
        return _search_component_mod2(d, target, exponent, budget, support)
    return _search_component_generic(d, m, target, exponent, budget, support)


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
        raise ValueError("modulus must be at least 2")
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
            f"mod-{m} component space {m}^{support} (about {float(m**support):.1e} "
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


def symmetry_report(web, candidates, budget=DEFAULT_BUDGET):
    """Congruence evidence for symmetry candidates (quotient web, order d).

    For each candidate the quotient invariant is computed by the engine
    and tested against P(web) mod (d, [3]^d - [3]).  A passing congruence
    is necessary-style evidence only, never a proof of symmetry (the
    criterion's fundamental-domain hypothesis is not machine-checked).
    """
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
        entry["power_residue"] = mod_reduce(p_q**d, d).to_poly().to_json_obj()
        entry["congruent"] = check_quotient(p_g, p_q, d)
        report["candidates"].append(entry)
    return report
