import random

import pytest

from sl3webs.qlaurent import (
    HalfLaurent,
    IdealResidue,
    QExprError,
    congruent_mod,
    ideal_generator,
    mod_reduce,
    parse_qexpr,
    qint,
)
from oracles import parse_qpoly


def is_prime_power(m):
    p = next(p for p in range(2, m + 1) if m % p == 0)  # least prime factor
    while m % p == 0:
        m //= p
    return m == 1


def random_poly(rng, max_terms=6, max_halfexp=8, max_coeff=9):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        k = rng.randrange(-max_halfexp, max_halfexp + 1)
        c = rng.randrange(-max_coeff, max_coeff + 1)
        terms[k] = terms.get(k, 0) + c
    return HalfLaurent(terms)


class TestQInt:
    def test_zero(self):
        assert qint(0) == HalfLaurent.zero()
        assert qint(0).is_zero()

    def test_two(self):
        assert qint(2) == HalfLaurent({1: 1, -1: 1})

    def test_three(self):
        # expand (q^(3/2) - q^(-3/2)) / (q^(1/2) - q^(-1/2)) by hand
        assert qint(3) == HalfLaurent({2: 1, 0: 1, -2: 1})

    def test_one_is_one(self):
        assert qint(1) == HalfLaurent.one()

    def test_palindromic(self):
        for n in range(12):
            assert qint(n).is_palindromic()

    def test_defining_fraction(self):
        # [n] * (q^(1/2) - q^(-1/2)) == q^(n/2) - q^(-n/2)
        denom = HalfLaurent({1: 1, -1: -1})
        for n in range(12):
            expect = HalfLaurent.monomial(n) - HalfLaurent.monomial(-n)
            assert qint(n) * denom == expect

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            qint(-1)


class TestArithmetic:
    def test_mul_qint2_squared(self):
        assert qint(2) * qint(2) == HalfLaurent({2: 1, 0: 2, -2: 1})

    def test_additive_inverse(self):
        rng = random.Random(7)
        for _ in range(50):
            p = random_poly(rng)
            assert (p + (-p)).is_zero()

    def test_pow_identity(self):
        assert qint(3) ** 1 == qint(3)
        assert qint(3) ** 0 == HalfLaurent.one()

    def test_int_coercion(self):
        p = qint(2)
        assert 2 * p == p + p
        assert p - 1 == HalfLaurent({1: 1, -1: 1, 0: -1})

    def test_ring_axioms_random(self):
        rng = random.Random(2024)
        for _ in range(200):
            a, b, c = (random_poly(rng) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_qint_product_oracle(self):
        # independent oracle: [m][n] = sum_{j=0}^{min(m,n)-1} [m+n-1-2j]
        for m in range(13):
            for n in range(13):
                expect = HalfLaurent.zero()
                for j in range(min(m, n)):
                    expect = expect + qint(m + n - 1 - 2 * j)
                assert qint(m) * qint(n) == expect

    def test_eval_at_one(self):
        assert qint(3).eval_at_one() == 3
        assert (2 * qint(2) ** 2 * qint(3)).eval_at_one() == 24
        assert HalfLaurent.zero().eval_at_one() == 0

    def test_checks_by_message(self):
        with pytest.raises(TypeError, match=r"^half-exponents and coefficients must be int$"):
            HalfLaurent({0: 1.5})
        with pytest.raises(ValueError, match=r"^exponent must be a non-negative integer$"):
            qint(2) ** -1
        with pytest.raises(TypeError, match=r"^unsupported operand type\(s\) for \+: 'HalfLaurent' and 'str'$"):
            qint(2) + "x"

    def test_mixed_comparisons(self):
        assert 1 - qint(2) == HalfLaurent({1: -1, 0: 1, -1: -1})
        assert HalfLaurent.one() == 1 and qint(2) != 2
        assert qint(2) != "[2]"

    def test_hash_consistency(self):
        rng = random.Random(5)
        for _ in range(30):
            p = random_poly(rng)
            q = HalfLaurent(dict(p.items()))
            assert p == q and hash(p) == hash(q)


class TestParseQExpr:
    def test_table_cube_entry(self):
        # 2[2]^2[3], expanded by hand
        expect = HalfLaurent({4: 2, 2: 6, 0: 8, -2: 6, -4: 2})
        assert parse_qexpr("2[2]^2[3]") == expect

    def test_negative_entry(self):
        p = parse_qexpr("-4[2]^3[3]")
        assert p == -4 * qint(2) ** 3 * qint(3)
        assert p.eval_at_one() == -96

    def test_bracket_one(self):
        assert parse_qexpr("[1]") == HalfLaurent.one()

    def test_sum_with_spaces(self):
        p = parse_qexpr("[2]^4[3] + 2[2]^2[3]")
        assert p == qint(2) ** 4 * qint(3) + 2 * qint(2) ** 2 * qint(3)

    def test_repeated_factor(self):
        assert parse_qexpr("8[2]^4[3][3]") == 8 * qint(2) ** 4 * qint(3) ** 2

    def test_error_position(self):
        with pytest.raises(QExprError) as exc:
            parse_qexpr("2[2]^")
        assert exc.value.pos == 4
        with pytest.raises(QExprError):
            parse_qexpr("")
        with pytest.raises(QExprError):
            parse_qexpr("2[2")
        with pytest.raises(QExprError):
            parse_qexpr("[2] [3] x")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2 3", "expected '+' or '-' between terms at position 2"),
            ("[2]+-[3]", "expected a term at position 4"),
            ("[2]+", "expected a term at position 4"),
        ],
    )
    def test_error_messages(self, text, message):
        with pytest.raises(QExprError) as exc:
            parse_qexpr(text)
        assert str(exc.value) == message


class TestPretty:
    def test_cube_invariant_format(self):
        p = parse_qexpr("2[2]^2[3]")
        assert p.pretty() == "2q^2+6q+8+6q^-1+2q^-2"

    def test_half_exponents(self):
        p = HalfLaurent({1: 1, -3: -2})
        assert p.pretty() == "q^(1/2)-2q^(-3/2)"

    def test_zero(self):
        assert HalfLaurent.zero().pretty() == "0"
        assert parse_qpoly("0").is_zero()

    def test_roundtrip_random(self):
        rng = random.Random(99)
        for _ in range(200):
            p = random_poly(rng)
            assert parse_qpoly(p.pretty()) == p

    def test_json_roundtrip(self):
        rng = random.Random(17)
        for _ in range(50):
            p = random_poly(rng)
            assert HalfLaurent.from_json_obj(p.to_json_obj()) == p


class TestIdealResidue:
    def test_generator_reduces_to_zero(self):
        for d in (2, 3, 5, 6):
            assert mod_reduce(qint(3) ** d - qint(3), d).is_zero()

    def test_generator_reduced_at_every_step(self):
        # against [3]^d - [3] expanded over Z and reduced afterwards, for
        # every prime power m dividing d and for d itself (mod_reduce's)
        for d in range(2, 61):
            exact = qint(3) ** d - qint(3)
            prime_powers = [m for m in range(2, d + 1) if d % m == 0 and is_prime_power(m)]
            for m in prime_powers + [d]:
                reduced = HalfLaurent({k: c % m for k, c in exact.items()})
                assert ideal_generator(d, m) == reduced, (d, m)

    def test_generator_names_a_too_small_order(self):
        with pytest.raises(ValueError, match="the order d must be at least 2, got 1"):
            ideal_generator(1, 2)

    @pytest.mark.parametrize("modulus", [1, 0])
    def test_generator_names_a_too_small_modulus(self, modulus):
        # modulus 1 used to give the zero polynomial, 0 a ZeroDivisionError
        with pytest.raises(ValueError, match=f"the modulus must be at least 2, got {modulus}"):
            ideal_generator(6, modulus)

    def test_coefficient_ideal(self):
        for d in (2, 3, 4):
            assert mod_reduce(d * qint(2), d).is_zero()

    def test_window_size(self):
        r = mod_reduce(qint(2), 3)
        assert len(r.coeffs) == 12
        assert r.to_poly() == qint(2)

    def test_example_six_one_mod3(self):
        p_61 = parse_qexpr("[2]^4[3]+2[2]^2[3]")
        cube_root = parse_qexpr("[3][2]^2")
        assert mod_reduce(p_61, 3) == mod_reduce(cube_root**3, 3)

    def test_example_six_one_mod2(self):
        p_61 = parse_qexpr("[2]^4[3]+2[2]^2[3]")
        sq_root = parse_qexpr("[2]^2[3]")
        assert congruent_mod(p_61, sq_root**2, 2)

    def test_reflexive(self):
        rng = random.Random(31)
        for _ in range(20):
            p = random_poly(rng)
            assert congruent_mod(p, p, 3)

    def test_generator_relation(self):
        for d in (2, 3, 5):
            assert congruent_mod(qint(3), qint(3) ** d, d)

    def test_idempotent(self):
        rng = random.Random(13)
        for _ in range(40):
            p = random_poly(rng, max_halfexp=20, max_coeff=50)
            for d in (2, 3, 5):
                r = mod_reduce(p, d)
                assert mod_reduce(r.to_poly(), d) == r

    def test_ring_homomorphism(self):
        rng = random.Random(41)
        for _ in range(40):
            p = random_poly(rng, max_halfexp=15)
            r = random_poly(rng, max_halfexp=15)
            for d in (2, 3, 5):
                assert mod_reduce(p * r, d) == mod_reduce(p, d) * mod_reduce(r, d)
                assert mod_reduce(p + r, d) == mod_reduce(p, d) + mod_reduce(r, d)

    def test_residue_pow_matches_poly_pow(self):
        p = parse_qexpr("[2][3]")
        for d in (2, 3, 5):
            x = mod_reduce(p, d)
            assert x**0 == IdealResidue.one(d) and x**1 is x
            for n in range(2, 9):
                assert x**n == mod_reduce(p**n, d), (d, n)

    def test_residue_checks_by_message(self):
        with pytest.raises(ValueError, match=r"^modulus must be at least 2$"):
            IdealResidue(1, [0] * 4)
        with pytest.raises(ValueError, match=r"^residue needs exactly 8 coefficients$"):
            IdealResidue(2, [0] * 7)
        for other in (IdealResidue.one(3), qint(2)):
            with pytest.raises(ValueError, match=r"^residues from different rings$"):
                IdealResidue.one(2) + other
            with pytest.raises(ValueError, match=r"^residues from different rings$"):
                IdealResidue.one(2) * other
        with pytest.raises(ValueError, match=r"^exponent must be a non-negative integer$"):
            IdealResidue.one(2) ** -1

    def test_small_modulus_rejected(self):
        with pytest.raises(ValueError):
            mod_reduce(qint(2), 1)
        with pytest.raises(ValueError):
            congruent_mod(qint(2), qint(2), 0)
