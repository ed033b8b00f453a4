"""Exact Laurent-polynomial arithmetic in the half-integer powers of q.

Everything downstream (graph invariants, congruence tests) takes values in
Z[q^(1/2), q^(-1/2)].  A polynomial is stored sparsely as a mapping from the
half-exponent index k (meaning q^(k/2)) to an exact integer coefficient, so
no rational exponents ever appear.  The module also provides the quantum
integers [n], a parser for bracket expressions such as "2[2]^2[3]", and the
finite quotient rings Z[q^(±1/2)]/(d, [3]^d - [3]) used by the symmetry
criterion.
"""

from __future__ import annotations

import functools
import re


class HalfLaurent:
    """An exact Laurent polynomial in x = q^(1/2) with integer coefficients.

    Immutable; zero coefficients are never stored, so the zero polynomial is
    the one with an empty term mapping.  Supports +, -, *, ** and mixes with
    plain ints.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for k, c in dict(terms).items():
                if not isinstance(k, int) or not isinstance(c, int):
                    raise TypeError("half-exponents and coefficients must be int")
                if c != 0:
                    clean[k] = c
        self._terms = clean
        self._hash = None

    @classmethod
    def _of(cls, terms):
        """A polynomial on a dict of int keys and nonzero int values, kept
        as it is: the arithmetic's own results, which need no check."""
        p = cls.__new__(cls)
        p._terms = terms
        p._hash = None
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "HalfLaurent":
        return cls()

    @classmethod
    def one(cls) -> "HalfLaurent":
        return cls({0: 1})

    @classmethod
    def monomial(cls, k: int, coeff: int = 1) -> "HalfLaurent":
        """coeff * q^(k/2)."""
        return cls({k: coeff})

    # -- inspection --------------------------------------------------------

    def items(self):
        """Term items sorted by descending half-exponent."""
        return sorted(self._terms.items(), key=lambda kv: -kv[0])

    def is_zero(self) -> bool:
        return not self._terms

    def is_palindromic(self) -> bool:
        """True when invariant under q -> q^(-1)."""
        return all(self._terms.get(-k) == c for k, c in self._terms.items())

    def eval_at_one(self) -> int:
        """Specialize q = 1, i.e. the sum of all coefficients."""
        return sum(self._terms.values())

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = HalfLaurent({0: other})
        if not isinstance(other, HalfLaurent):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, int):
            return HalfLaurent({0: other})
        if isinstance(other, HalfLaurent):
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self._terms)
        for k, c in o._terms.items():
            out[k] = out.get(k, 0) + c
        # a fresh dict is sized to its terms: a memo keeps its sums
        return HalfLaurent._of({k: c for k, c in out.items() if c})

    __radd__ = __add__

    def __neg__(self):
        return HalfLaurent._of({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in o._terms.items():
                k = k1 + k2
                out[k] = out.get(k, 0) + c1 * c2
        return HalfLaurent._of({k: c for k, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = HalfLaurent.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- rendering ---------------------------------------------------------

    @staticmethod
    def _power_str(k: int) -> str:
        if k % 2 == 0:
            e = k // 2
            return "q" if e == 1 else f"q^{e}"
        return f"q^({k}/2)"

    def pretty(self) -> str:
        """Render with descending exponents, e.g. '2q^2+6q+8+6q^-1+2q^-2'."""
        if not self._terms:
            return "0"
        parts = []
        for k, c in self.items():
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                body = ("" if mag == 1 else str(mag)) + self._power_str(k)
            parts.append(sign + body)
        return "".join(parts)

    def __repr__(self):
        return f"HalfLaurent({self.pretty()!r})"

    def to_json_obj(self) -> dict:
        """JSON form: half-exponent (as string) -> coefficient (as string)."""
        return {str(k): str(c) for k, c in self.items()}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "HalfLaurent":
        return cls({int(k): int(c) for k, c in obj.items()})


def qint(n: int) -> HalfLaurent:
    """The quantum integer [n] = (q^(n/2) - q^(-n/2)) / (q^(1/2) - q^(-1/2)).

    Expanded form: sum of q^((n-1-2j)/2) for j = 0..n-1.  [0] = 0.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("quantum integer index must be a non-negative integer")
    return HalfLaurent({n - 1 - 2 * j: 1 for j in range(n)})


class QExprError(ValueError):
    """Malformed bracket expression; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} at position {pos}")
        self.pos = pos


_INT_RE = re.compile(r"\d+")
_BRACKET_RE = re.compile(r"\[(\d+)\]")


def _tokenize_qexpr(text: str):
    """Yield (kind, value, position) tokens: sign, '^', int, or bracket."""
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
        elif ch in "+-^":
            tokens.append((ch, ch, pos))
            pos += 1
        elif ch.isdigit():
            m = _INT_RE.match(text, pos)
            tokens.append(("int", int(m.group()), pos))
            pos = m.end()
        elif ch == "[":
            m = _BRACKET_RE.match(text, pos)
            if m is None:
                raise QExprError("malformed '[n]' factor", pos)
            tokens.append(("qint", int(m.group(1)), pos))
            pos = m.end()
        else:
            raise QExprError(f"unexpected character {ch!r}", pos)
    return tokens


def parse_qexpr(text: str) -> HalfLaurent:
    """Parse a signed sum of bracket terms, e.g. "[2]^4[3]+2[2]^2[3]".

    Each term is an optional integer coefficient followed by factors "[n]"
    with optional "^e" exponents; this is exactly the shape of the invariant
    entries in the reference fixture tables.
    """
    tokens = _tokenize_qexpr(text)
    if not tokens:
        raise QExprError("empty expression", 0)
    total = HalfLaurent.zero()
    i = 0
    first = True
    while i < len(tokens):
        sign = 1
        if first:
            if tokens[i][0] == "-":
                sign = -1
                i += 1
        else:
            kind = tokens[i][0]
            if kind not in "+-":
                raise QExprError("expected '+' or '-' between terms", tokens[i][2])
            sign = -1 if kind == "-" else 1
            i += 1
        coeff = None
        acc = HalfLaurent.one()
        have_factor = False
        if i < len(tokens) and tokens[i][0] == "int":
            coeff = tokens[i][1]
            i += 1
        while i < len(tokens) and tokens[i][0] == "qint":
            base = qint(tokens[i][1])
            i += 1
            exp = 1
            if i < len(tokens) and tokens[i][0] == "^":
                caret_pos = tokens[i][2]
                i += 1
                if i >= len(tokens) or tokens[i][0] != "int":
                    raise QExprError("expected integer exponent after '^'", caret_pos)
                exp = tokens[i][1]
                i += 1
            acc = acc * base**exp
            have_factor = True
        if coeff is None and not have_factor:
            pos = tokens[i][2] if i < len(tokens) else len(text)
            raise QExprError("expected a term", pos)
        total = total + sign * (coeff if coeff is not None else 1) * acc
        first = False
    return total


# -- quotient rings Z[q^(±1/2)] / (d, [3]^d - [3]) --------------------------


@functools.cache
def ideal_generator(d: int, modulus: int) -> HalfLaurent:
    """The polynomial generator [3]^d - [3] of the congruence ideal, with
    its coefficients reduced into [0, modulus).  Kept per (d, modulus): a
    HalfLaurent is immutable.

    The coefficients are reduced at every step of the power, so a large d
    never expands [3]^d over Z (whose coefficients have about d/2 digits).
    [3]^d = q^(-d) (1 + q + q^2)^d, and the trinomial power is taken by
    square-and-multiply on coefficient lists packed into one int each, one
    slot per coefficient, so every product runs in C.
    """
    if d < 2:
        raise ValueError(f"the order d must be at least 2, got {d}")
    if modulus < 2:
        raise ValueError(f"the modulus must be at least 2, got {modulus}")
    m = modulus
    width = ((2 * d + 1) * (m - 1) ** 2).bit_length() // 8 + 1  # bytes a slot holds

    def pack(coeffs):
        return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in coeffs), "little")

    def product(a, b):
        raw = (pack(a) * pack(b)).to_bytes((len(a) + len(b) - 1) * width, "little")
        return [int.from_bytes(raw[i : i + width], "little") % m for i in range(0, len(raw), width)]

    power, base, e = [1], [1, 1, 1], d
    while e:
        if e & 1:
            power = product(power, base)
        e >>= 1
        if e:
            base = product(base, base)
    terms = {2 * i - 2 * d: c for i, c in enumerate(power)}
    for k in (-2, 0, 2):
        terms[k] = (terms[k] - 1) % m
    return HalfLaurent(terms)


class IdealResidue:
    """Canonical representative of a class in Z[q^(±1/2)]/(d, [3]^d - [3]).

    Coefficients live in [0, d) on the half-exponent window [-2d, 2d-1]; the
    quotient is a free Z/d-module on those 4d monomials, so representatives
    are unique.  Stored as ``coeffs[i]`` = coefficient of q^((i-2d)/2).
    """

    __slots__ = ("d", "coeffs")

    def __init__(self, d: int, coeffs):
        if d < 2:
            raise ValueError("modulus must be at least 2")
        coeffs = tuple([c % d for c in map(int, coeffs)])
        if len(coeffs) != 4 * d:
            raise ValueError(f"residue needs exactly {4 * d} coefficients")
        self.d = d
        self.coeffs = coeffs

    @classmethod
    def one(cls, d: int) -> "IdealResidue":
        c = [0] * (4 * d)
        c[2 * d] = 1
        return cls(d, c)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, IdealResidue)
            and self.d == other.d
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.d, self.coeffs))

    def __repr__(self):
        return f"IdealResidue(d={self.d}, {self.to_poly().pretty()!r})"

    def to_poly(self) -> HalfLaurent:
        return HalfLaurent._of({i - 2 * self.d: c for i, c in enumerate(self.coeffs) if c})

    def _check_same_ring(self, other):
        if not isinstance(other, IdealResidue) or other.d != self.d:
            raise ValueError("residues from different rings")

    def __add__(self, other):
        self._check_same_ring(other)
        d = self.d
        return IdealResidue(d, [(a + b) % d for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        self._check_same_ring(other)
        return mod_reduce(self.to_poly() * other.to_poly(), self.d)

    def __pow__(self, n):
        """self^n, square-and-multiply from the lowest set bit of n."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return IdealResidue.one(self.d) if result is None else result


def mod_reduce(p: HalfLaurent, d: int) -> IdealResidue:
    """Reduce a polynomial to its canonical residue mod (d, [3]^d - [3]).

    Coefficients are taken mod d; exponents outside [-2d, 2d-1] are folded in
    by eliminating against the generator, whose extreme terms q^(±d) both
    have coefficient 1.  Eliminations from the top only insert exponents
    >= -2d and ones from the bottom only insert exponents <= 2d-1, so the
    procedure terminates with a unique representative.  So the top terms
    are eliminated in one falling sweep and then the bottom terms in one
    rising sweep, over a dense list of the coefficients.
    """
    if d < 2:
        raise ValueError("modulus must be at least 2")
    g = ideal_generator(d, d)._terms.items()
    hi, lo = 2 * d, -2 * d
    terms = p._terms
    low = min([lo, *terms])
    work = [0] * (max([hi, *terms]) + 1 - low)
    for k, c in terms.items():
        work[k - low] = c % d
    # eliminating at k subtracts c g, shifted to put its end term (1) at k,
    # which is not read again; a coefficient is reduced mod d when it is read
    for k in [*range(len(work) - 1, hi - low - 1, -1), *range(lo - low)]:
        c = work[k] % d
        if c:
            shift = k - hi if k >= hi - low else k - lo
            for j, gc in g:
                work[shift + j] -= c * gc
    r = IdealResidue.__new__(IdealResidue)  # its window is reduced here
    r.d, r.coeffs = d, tuple([c % d for c in work[lo - low : hi - low]])
    return r


def congruent_mod(p: HalfLaurent, r: HalfLaurent, d: int) -> bool:
    """True iff p and r fall in the same class mod (d, [3]^d - [3])."""
    return mod_reduce(p, d) == mod_reduce(r, d)
