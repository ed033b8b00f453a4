"""Symmetry criterion via congruences in Z[q^(±1/2)]/(d, [3]^d - [3]).

A degree-d symmetry candidate is tested through the congruence
P(G) = P(G/Gamma_d)^d modulo the ideal (d, [3]^d - [3]); independently,
the d-th power residue search decides whether ANY alpha^d hits P(G) in
the finite quotient ring.  Congruences and witnesses are checked by powering
in the residue ring: reduction mod the ideal is a ring homomorphism, so
reducing after every product gives the residue of the full power.
Composite d splits by CRT into prime-power component rings which are
searched smallest first, so an obstruction in a small component settles
the question without touching the big one.  Every witness is re-verified
exactly before being reported, and running out of budget is reported as
such, never as non-existence.

A component ring with prime modulus p has characteristic p, so the
Frobenius F(x) = x^p is F_p-linear.  For prime d the one component is
Z/d and x^d = F(x), so a d-th root of t is a solution of the linear
system F x = t over F_d: one row reduction decides it, and the solution
with every free variable 0 is the least root in the scan's order, which
`_solve_component` reports with the outcome and count the scan would
have.  A composite d's prime component (p exactly dividing d) is
F_p[y]/(G), G = y^(2d) ([3]^d - [3]), y = q^(1/2); factored over F_p,
G splits the ring into local pieces F_p[y]/(g^e) (`_local_pieces`), in
which a d-th power is told from a valuation, one power in the residue
field and one F_p-linear membership test (`_has_root`).  A component
with no root is so decided, with the count its scan would report;
composite d is otherwise scanned, and the scan stays the one finder of
witnesses.  The generic scan writes d in base p and applies each F^k(x)
as one product with F's matrix, so a candidate's p-th power costs one
matrix product, not log2(p) ring products.  F's matrix is built from
monomial images, with no ring product: the image of y^(j+1) is that of
y^j times y^p, its entries shifted by p positions and the p that leave
the window folded back through the generator.  The mod-2 component of
d = 6 (the 2^24-element ring of the order-6 question) is its bit-packed
case: with d = 2^a + 2^b and a candidate split into high and low bits
h + l, x^d = h^d + l^d + C_h(l), where F^a, F^b and C_h are GF(2)-linear,
so every image is an XOR of basis images and each candidate's power a
few XORs of table entries.  Every scan tests every candidate, in
increasing order.
"""

from __future__ import annotations

from itertools import zip_longest
from math import gcd, isqrt
from random import Random

from .planarmap import _require_connected, automorphism_count
from .qlaurent import IdealResidue, ideal_generator, mod_reduce
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


def verify_witness(p, d, witness):
    """Exact check that witness^d matches p, powered in the residue ring:
    each `IdealResidue` product multiplies `HalfLaurent`s and reduces with
    `mod_reduce`, sharing no code with the numpy ring or the solve."""
    if not isinstance(witness, IdealResidue) or witness.d != d:
        return False
    return witness**d == mod_reduce(p, d)


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


def _is_prime(m):
    return m > 1 and all(m % p for p in range(2, isqrt(m) + 1))


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

    For a prime modulus p the ring has characteristic p, so the Frobenius
    F(x) = x^p is F_p-linear; `frobenius` holds its W x W matrix (column j
    the image of window position j, as float64: every entry of a product
    with it is an integer sum below W p^2 < 2^53, so exact).  Its columns
    are the monomials y^(p (j - 2d)), each its neighbour shifted by p
    positions with the p leaving entries folded back, so the build costs
    W products of a W x p fold matrix with a vector, about W^2 p
    multiply-adds and no ring product: at most a quarter of one product
    of W candidates with the matrix (W^3).  So the scan builds it on the
    first `pow` of at least W candidates, and only where a chunk holds W
    candidates under `_chunk_size`'s 32 MiB rule (d <= 362); until then,
    and for prime-power moduli, it is None.  `_search_component` solves for a
    prime d's roots with the same matrix under its own rule: at least W
    candidates to test, and the matrix within 32 MiB (d <= 512).
    """

    def __init__(self, d, m):
        self.d = d
        self.m = m
        self.W = W = 4 * d
        terms = sorted(ideal_generator(d, m).items())
        keys = np.array([k for k, _ in terms], dtype=np.int64)
        coeffs = np.array([c for _, c in terms], dtype=np.int64)[:, None]
        # a row above the window folds into the rows of every term but the
        # top one, a row below it into those of every term but the bottom one
        self.down, self.down_coeffs = keys[:-1] - 2 * d, coeffs[:-1]
        self.up, self.up_coeffs = keys[1:] + 2 * d, coeffs[1:]
        self.frobenius = None
        self._frobenius_fits = _is_prime(m) and _chunk_size(W) >= W

    def _frobenius_matrix(self):
        """Column j is F(y^(j - 2d)) = y^(p (j - 2d)), y = q^(1/2), reduced
        into the window.  Column 2d is the constant monomial; column j + 1
        is column j times y^p: its top p entries leave the window, to the
        rows `outside` in folding order, and the rest move up by p.  Below
        2d, column j - 1 is column j times y^(-p), the bottom p leaving.
        The leaving entries are folded back through the generator, as `mul`
        folds a product's overflow rows; the fold is linear, so it is taken
        once on the p unit rows, and each column costs one product of its
        leaving entries with their images (exact: p terms below p^2)."""
        d, W, p = self.d, self.W, self.m
        images = np.zeros((W, W), dtype=np.float64)
        images[2 * d, 2 * d] = 1
        for columns, outside, offsets, coeffs, leave, stay, land in (
            (range(2 * d + 1, W), range(W + 2 * p - 1, W + p - 1, -1), self.down, self.down_coeffs,
             slice(W - p, W), slice(W - p), slice(p, W)),
            (range(2 * d - 1, -1, -1), range(p), self.up, self.up_coeffs,
             slice(p), slice(p, W), slice(W - p)),
        ):
            P = np.zeros((W + 2 * p, p), dtype=np.int64)  # the window: rows p..W+p-1
            P[sorted(outside), np.arange(p)] = 1
            self._fold(P, outside, offsets, coeffs)
            fold = (P[p : W + p] % p).astype(np.float64)
            for j in columns:
                column = images[:, j - columns.step]
                images[:, j] = fold @ column[leave]
                images[land, j] += column[stay]
                images[:, j] %= p
        return images

    def _fold(self, P, rows, offsets, coeffs):
        """Fold each of `rows` of P, in order, into the rows at `offsets`
        from it: subtract P[r] mod m times the generator anchored at r."""
        for r in rows:
            P[r + offsets] -= coeffs * (P[r] % self.m)

    def mul(self, A, B):
        """Product of (W, n) arrays with entries in [0, m)."""
        d, m, W = self.d, self.m, self.W
        P = np.zeros((2 * W - 1, A.shape[1]), dtype=np.int64)
        for i in range(W):
            row = A[i]
            if row.any():
                P[i : i + W] += row * B
        P %= m
        self._fold(P, range(2 * W - 2, 6 * d - 1, -1), self.down, self.down_coeffs)
        self._fold(P, range(2 * d), self.up, self.up_coeffs)
        return P[2 * d : 6 * d] % m

    def _power(self, x, e):
        """x^e for the (W, n) array x (None for e = 0), by square-and-
        multiply from the lowest set bit of e, with no final squaring."""
        result = None
        while e:
            if e & 1:
                result = x if result is None else self.mul(result, x)
            e >>= 1
            if e:
                x = self.mul(x, x)
        return result

    def pow(self, A, e):
        """A^e for every row of the (candidates, W) array A, as (candidates, W).

        e is written in base b and x^e = prod_k (x^(b^k))^(e_k), where
        x -> x^b is one product with the Frobenius matrix (b = p) or, with
        no matrix (prime-power moduli, windows too wide for it, fewer than
        W candidates before it is built), a squaring (b = 2, which is
        square-and-multiply: x^3 costs two products).  With the matrix x^p
        costs one matrix product, and only the digits e_k < p are powered
        by square-and-multiply.
        """
        x = np.remainder(A.T, self.m, order="C")
        if self.frobenius is None and self._frobenius_fits and x.shape[1] >= self.W:
            self.frobenius = self._frobenius_matrix()
        b = 2 if self.frobenius is None else self.m
        result = None
        while e:
            e, digit = divmod(e, b)
            if digit:
                power = self._power(x, digit)
                result = power if result is None else self.mul(result, power)
            if e and self.frobenius is None:
                x = self.mul(x, x)
            elif e:
                x = (self.frobenius @ x.astype(np.float64)).astype(np.int64) % self.m
        if result is None:
            result = np.zeros_like(x)
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


def _search_component_generic(d, m, target, budget, support):
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
        powered = ring.pow(digits, d)
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
    H = 0  # generator bits anchored at its bottom term
    for k, _ in ideal_generator(d, 2).items():
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


def _mod2_powers(d, support, count):
    """Yield (start, x^e for ids start, start+1, ...) over ids [0, count),
    where e = d must be 2^a + 2^b with a >= b.

    Id x is the element with bit i at window position i, supported on the
    low `support` bits.  Blocks start at multiples of 2^20 and hold at
    most 2^20 ids, as rows h (the bits above the lowest min(12, support))
    by columns l (the lowest bits): x^e = h^e + l^e + C_h(l), where
    doubling the images of C_h on the basis bits of l gives C_h(l) for
    every l as XORs (see `_search_component_mod2`).

    F^a, F^b and h -> C_h are GF(2)-linear too, so they are taken on the
    basis bits once and spread over their XOR spans: the low bits' span
    gives F^a(l), F^b(l) for all 2^12 columns, and the span of the high
    bits that vary inside one block (its 256 rows at most) gives F^a(h),
    F^b(h) and C_h(e_j), to which each block XORs the images of its fixed
    higher bits.  The ring product `_mod2_product` runs only on basis
    images, on the 2^12 low powers, and once per block for h^e.
    """
    a = (d - 1).bit_length() - 1
    rest = d - (1 << a)
    assert rest & (rest - 1) == 0, "d must have at most two bits set"
    b = rest.bit_length() - 1
    redmul = _mod2_product(d)

    def frobenius(x, k):
        for _ in range(k):
            x = redmul(x, x)
        return x

    def span(images, bits):
        """XOR of images[j] over the set bits j of each index below 2^bits."""
        out = np.zeros((1 << bits,) + images.shape[1:], dtype=np.uint64)
        for j in range(bits):
            out[1 << j : 2 << j] = out[: 1 << j] ^ images[j]
        return out

    lo = min(12, support)
    L = 1 << lo
    basis = np.uint64(1) << np.arange(support, dtype=np.uint64)
    basis_a, basis_b = frobenius(basis, a), frobenius(basis, b)
    low_powers = redmul(span(basis_a, lo), span(basis_b, lo))
    # row j: C_h(e_i) for h the j-th high basis bit and every low bit i
    high_a, high_b = basis_a[lo:], basis_b[lo:]
    cross = redmul(high_a[:, None], basis_b[None, :lo]) ^ redmul(
        high_b[:, None], basis_a[None, :lo]
    )
    inner = min(support, 20) - lo  # high bits that vary inside a block
    span_a, span_b, span_cross = span(high_a, inner), span(high_b, inner), span(cross, inner)
    block = 1 << 20
    for start in range(0, count, block):
        stop = min(count, start + block)
        rows = -(-(stop - start) // L)
        fixed = [j for j in range(inner, support - lo) if start >> (lo + j) & 1]
        h_a = span_a[:rows] ^ np.bitwise_xor.reduce(high_a[fixed])
        h_b = span_b[:rows] ^ np.bitwise_xor.reduce(high_b[fixed])
        rows_cross = span_cross[:rows] ^ np.bitwise_xor.reduce(cross[fixed], axis=0)
        # column 0 holds h^e, and doubling carries it into every column
        table = np.empty((rows, L), dtype=np.uint64)
        table[:, 0] = redmul(h_a, h_b)
        for j in range(lo):
            np.bitwise_xor(
                table[:, : 1 << j], rows_cross[:, j : j + 1], out=table[:, 1 << j : 2 << j]
            )
        table ^= low_powers[None, :]
        yield start, table.ravel()[: stop - start]


def _search_component_mod2(d, target, budget, support):
    """Bit-packed scan of a mod-2 component: the 2^24 space of d = 6 where
    it has a root (one with none is decided, see `_has_root`) or only low
    positions are searched, and d = 2 on a budget below W = 8 (from W on,
    d = 2 is solved).

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
    for start, powers in _mod2_powers(d, support, count):
        hits = np.flatnonzero(powers == tgt)
        if hits.size:
            w = start + int(hits[0])
            return tuple((w >> i) & 1 for i in range(W)), start + powers.size, True
    return None, count, count == space


def _echelon(A, p, columns):
    """Row-reduce the int64 array A over F_p in place, pivoting on its
    first `columns` columns in increasing order; returns the pivot columns,
    pivot r in row r."""
    rank, pivots = 0, []
    for j in range(columns):
        nonzero = np.flatnonzero(A[rank:, j])
        if not nonzero.size:
            continue
        i = rank + int(nonzero[0])
        if i != rank:
            A[[rank, i]] = A[[i, rank]]
        pivot = int(A[rank, j])
        if pivot != 1:
            A[rank, j:] = A[rank, j:] * pow(pivot, -1, p) % p
        factors = A[:, j].copy()
        factors[rank] = 0
        rows = np.flatnonzero(factors)
        if rows.size:
            A[rows, j:] = (A[rows, j:] - factors[rows, None] * A[rank, j:]) % p
        pivots.append(j)
        rank += 1
    return pivots


def _solve_component(ring, target, budget, support):
    """The least d-th root of `target` in the ring of a prime d = p, by one
    linear solve, returned as `_search_component_generic` returns it.

    x^p is the Frobenius, so the roots on the low `support` positions are
    the solutions of F x = target over F_p, F restricted to those columns.
    Row-reducing [F | target] with the columns pivoted in increasing
    window position leaves each pivot a function of the free variables of
    higher position only.  Candidate i has digit (i // p^pos) % p at
    position pos, so of two candidates the one smaller at the highest
    differing position comes first, and the solution with every free
    variable 0 is the least: any other agrees with it above its highest
    nonzero free variable and is larger there.  With cap =
    min(p^support, budget), a root below cap counts as tested to the end
    of its chunk (at most cap); otherwise cap counts as tested, and the
    component is exhausted iff cap is the whole space.  (At d = 2 the
    whole space, 2^8, lies inside one chunk of either the generic or the
    mod-2 scan.)
    """
    p, W = ring.m, ring.W
    space = p**support
    cap = min(space, budget)
    A = np.empty((W, support + 1), dtype=np.int64)
    A[:, :support] = ring._frobenius_matrix()[:, :support]
    A[:, support] = target
    A %= p
    pivots = _echelon(A, p, support)
    if not A[len(pivots) :, support].any():
        witness = [0] * W
        for r, j in enumerate(pivots):
            witness[j] = int(A[r, support])
        least = sum(c * p**pos for pos, c in enumerate(witness))
        if least < cap:
            chunk = _chunk_size(W)
            return tuple(witness), min(cap, (least // chunk + 1) * chunk), True
    return None, cap, cap == space


# Polynomials over F_p: lists of coefficients in [0, p), lowest degree
# first, with no trailing zeros ([] is 0).


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _psub(a, b, p):
    return _trim([(x - y) % p for x, y in zip_longest(a, b, fillvalue=0)])


def _pmul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, c in enumerate(a):
        if c:
            out[i : i + len(b)] = [x + c * y for x, y in zip(out[i : i + len(b)], b)]
    return _trim([x % p for x in out])


def _pdivmod(a, b, p):
    a, n, inv = list(a), len(b) - 1, pow(b[-1], -1, p)
    q = [0] * max(len(a) - n, 0)
    for i in range(len(a) - 1, n - 1, -1):
        c = q[i - n] = a[i] * inv % p
        if c:
            a[i - n : i + 1] = [(x - c * y) % p for x, y in zip(a[i - n : i + 1], b)]
    return _trim(q), _trim(a[:n])


def _pgcd(a, b, p):
    """The monic gcd of a and b, not both 0."""
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    return _pmul(a, [pow(a[-1], -1, p)], p)


def _ppowmod(a, e, f, p):
    """a^e mod f, deg f >= 1."""
    result, a = [1], _pdivmod(a, f, p)[1]
    while e:
        if e & 1:
            result = _pdivmod(_pmul(result, a, p), f, p)[1]
        e >>= 1
        if e:
            a = _pdivmod(_pmul(a, a, p), f, p)[1]
    return result


def _factor(f, p):
    """[(g, e)]: the monic irreducible g with g^e exactly dividing the
    monic f over F_p.  A squarefree split (where c' = 0, c(y) = r(y^p) =
    r(y)^p), a distinct-degree split (gcd(f, y^(p^i) - y) collects the
    factors of degree i), then Cantor and Zassenhaus's equal-degree split:
    a splits where its trace a + a^2 + ... + a^(2^(i-1)) (p = 2), or
    a^((p^i-1)/2) - 1, is 0 mod some factors only, as for half of all a,
    drawn from a fixed seed so the factors come in one order every run."""

    def squarefree(f):
        df = _trim([i * c % p for i, c in enumerate(f)][1:])
        c = _pgcd(f, df, p) if df else f
        w, e, out = _pdivmod(f, c, p)[0], 1, []
        while len(w) > 1:  # w: the factors of multiplicity e or more
            y = _pgcd(w, c, p)
            if len(w) > len(y):
                out.append((_pdivmod(w, y, p)[0], e))
            w, c, e = y, _pdivmod(c, y, p)[0], e + 1
        return out + [(h, e * p) for h, e in squarefree(c[::p])] if len(c) > 1 else out

    rng = Random(0)

    def equal_degree(f, i):
        while len(f) - 1 > i:
            a = _trim([rng.randrange(p) for _ in range(len(f) - 1)])
            if p == 2:
                t = b = a
                for _ in range(i - 1):
                    b = _ppowmod(b, 2, f, 2)
                    t = _psub(t, b, 2)
            else:
                t = _psub(_ppowmod(a, (p**i - 1) // 2, f, p), [1], p)
            g = _pgcd(f, t, p)
            if 1 < len(g) < len(f):
                return equal_degree(g, i) + equal_degree(_pdivmod(f, g, p)[0], i)
        return [f]

    out = []
    for f, e in squarefree(f):
        i, h = 1, [0, 1]
        while 2 * i < len(f):
            h = _ppowmod(h, p, f, p)  # y^(p^i) mod f
            g = _pgcd(f, _psub(h, [0, 1], p), p)
            if len(g) > 1:
                out += [(g, e) for g in equal_degree(g, i)]
                f = _pdivmod(f, g, p)[0]
                h = _pdivmod(h, f, p)[1]
            i += 1
        if len(f) > 1:
            out.append((f, e))
    return out


def _local_pieces(d, p):
    """The factors g^e of G = y^(2d) ([3]^d - [3]) over F_p, y = q^(1/2):
    the mod-p component ring is F_p[y]/(G) = prod F_p[y]/(g^e) by CRT."""
    G = [0] * (4 * d + 1)
    for k, c in ideal_generator(d, p).items():
        G[k + 2 * d] = c
    return _factor(G, p)


def _has_root(target, d, p, pieces=None):
    """Whether the window `target` of the mod-p component ring is a d-th
    power, decided in the local pieces L = F_p[y]/(g^e) (`pieces`, by
    default `_local_pieces(d, p)`) without powering any element.

    The window holds T = y^(2d) t, and y^(2d) = (y^2)^d with y a unit, so
    T is a d-th power iff t is, and iff it is one in every piece.  In L,
    T = 0 is 0^d; otherwise T = g^v u, u a unit mod g^k, k = e - v, and
    T = (g^w s)^d iff v = dw and u = s^d mod g^k.  With q = p^(deg g) and
    d = p^a d', p not dividing d', a unit u of L_k = F_p[y]/(g^k) is a
    d-th power iff (i) u^((q-1)/gcd(d, q-1)) = 1 mod g, a d-th power in
    the field F_q, and (ii) u lies in R = F^a(L_k), the F_p-span of the
    y^(j p^a) mod g^k (F the Frobenius, F_p-linear).  For the d-th powers
    of L_k are the d'-th powers of the subring R, local with residue field
    F^a(F_q) = F_q; its units are the Teichmueller lifts of F_q^* times
    its 1-units, a p-group on which x -> x^d' is a bijection (Hensel), and
    on F_q^* the d'-th and d-th powers agree.
    """
    T, pa = _trim([c % p for c in target]), gcd(d, p ** d.bit_length())  # p^a
    for g, e in _local_pieces(d, p) if pieces is None else pieces:
        powers = [[1]]  # g^0, ..., g^e
        for _ in range(e):
            powers.append(_pmul(powers[-1], g, p))
        u, v = _pdivmod(T, powers[e], p)[1], 0
        if not u:
            continue
        while not _pdivmod(u, g, p)[1]:
            u, v = _pdivmod(u, g, p)[0], v + 1
        q = p ** (len(g) - 1)
        if v % d or _ppowmod(u, (q - 1) // gcd(d, q - 1), g, p) != [1]:
            return False
        gk = powers[e - v]
        n = len(gk) - 1  # deg u < n
        z, column = _ppowmod([0, 1], pa, gk, p), [1]
        A = np.zeros((n, n + 1), dtype=np.int64)
        for j in range(n):
            A[: len(column), j] = column
            column = _pdivmod(_pmul(column, z, p), gk, p)[1]
        A[: len(u), n] = u
        if A[len(_echelon(A, p, n)) :, n].any():
            return False
    return True


def _search_component(d, m, target, budget, support):
    space = m**support
    cap = min(space, budget)
    # a prime d solves once it has W candidates to test (fewer are scanned
    # by square-and-multiply, with no W x W build) and while the float64
    # W x W Frobenius matrix fits in 32 MiB (d <= 512)
    if d == m and _is_prime(m) and cap >= 4 * d and 8 * (4 * d) ** 2 <= 32 << 20:
        return _solve_component(_ComponentRing(d, m), target, budget, support)
    # a composite d's prime component with no root is decided from its
    # local pieces, with the count the scan would report (cap, exhausted
    # iff cap is the whole space); a root's witness is scanned for
    if d != m and _is_prime(m) and support == 4 * d and cap >= 4 * d:
        if not _has_root(target, d, m):
            return None, cap, cap == space
    if m == 2 and 8 * d - 2 <= 63:
        return _search_component_mod2(d, target, budget, support)
    return _search_component_generic(d, m, target, budget, support)


def _approx(n):
    """`n` as "%.1e" would print float(n), also beyond the float range."""
    # imported here: every CLI start imports this module, and only a
    # budget_exhausted detail needs it
    from decimal import Decimal

    mantissa, exp = f"{Decimal(n):.1e}".split("e")
    return f"{mantissa}e{int(exp):+03d}"


def dth_root_search(p, d, budget=DEFAULT_BUDGET, support_limit=None):
    """Decide whether some alpha has alpha^d = p in Z[q^(±1/2)]/(d, [3]^d-[3]).

    For prime d, x^d is the Frobenius and one linear solve over F_d
    decides the d^(4d)-element ring (`_solve_component`) once the budget
    covers W candidates, for d <= 512; its result, `searched` included,
    is the one the scan in increasing order would give.  Composite d
    splits by CRT into prime-power component rings, searched smallest
    first (a root exists iff one exists in every component); a prime
    component with no root is decided from its local pieces
    (`_has_root`), every other one scanned.  `budget` caps the
    total number of candidates tested; exceeding it yields
    budget_exhausted, never a false not_found.
    `support_limit` restricts candidates to the low window positions
    (testing hook for small cases).
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
        witness, tested, exhausted = _search_component(d, m, target_m, remaining, support)
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
        power_residue = mod_reduce(p_q, d) ** d
        entry["power_residue"] = power_residue.to_poly().to_json_obj()
        entry["congruent"] = power_residue == mod_reduce(p_g, d)
        report["candidates"].append(entry)
    return report
