import time
from fractions import Fraction

import pytest

from harmonica.errors import DepthExceeded, ExponentTooLarge, ParseError, UndeclaredConjugate
from harmonica.forms import parse_form
from harmonica.scalars import (
    MAX_EXPONENT,
    Coefficient,
    DerivationTable,
    Direction,
    GaussianRational,
    format_rational,
    parse_rational,
)

from conftest import rand_gauss


def G(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def C(re, im=0):
    return Coefficient({(): G(re, im)})


@pytest.fixture
def table():
    t = DerivationTable()
    t.declare_symbol("g3", "g3c")
    for a in (1, 2):
        for bar in (False, True):
            t.declare_derivative("g3", Direction(a, bar), Coefficient.zero())
            t.declare_derivative("g3c", Direction(a, bar), Coefficient.zero())
    return t


class TestGaussianRational:
    def test_one_plus_i_times_one_minus_i(self):
        assert G(1, 1) * G(1, -1) == G(2)

    def test_i_squared(self):
        assert G(0, 1) * G(0, 1) == G(-1)

    def test_division_exact(self):
        a = G(Fraction(3, 2), Fraction(-1, 3))
        b = G(Fraction(2, 7), Fraction(5, 4))
        assert (a / b) * b == a

    def test_conjugate_involution(self):
        a = G(Fraction(5, 3), Fraction(-7, 2))
        assert a.conjugate().conjugate() == a
        assert G(0, 1).conjugate() == G(0, -1)

    def test_rational_literals(self):
        assert parse_rational("3/2") == Fraction(3, 2)
        assert parse_rational("-7") == Fraction(-7)
        assert format_rational(Fraction(-3, 4)) == "-3/4"
        assert format_rational(Fraction(5)) == "5"
        with pytest.raises(ParseError):
            parse_rational("1/0")
        with pytest.raises(ParseError):
            parse_rational("x")


class TestCoefficient:
    def test_product_of_conjugate_symbols(self, table):
        g3 = Coefficient.symbol("g3")
        prod = g3 * g3.conjugate(table)
        assert prod == Coefficient({(("g3", 1), ("g3c", 1)): G(1)})

    def test_multiply_commutative_associative(self, rng):
        for _ in range(50):
            a = Coefficient({(): rand_gauss(rng), (("s", 1),): rand_gauss(rng)})
            b = Coefficient({(): rand_gauss(rng), (("t", 2),): rand_gauss(rng)})
            c = Coefficient({(("s", 1), ("t", 1)): rand_gauss(rng)})
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)

    def test_conjugate_fixes_rationals(self, table):
        assert C(Fraction(3, 2)).conjugate(table) == C(Fraction(3, 2))
        assert C(0, 1).conjugate(table) == C(0, -1)

    def test_conjugate_undeclared(self):
        t = DerivationTable()
        with pytest.raises(UndeclaredConjugate):
            Coefficient.symbol("mystery").conjugate(t)

    def test_conjugate_multiplicative(self, table, rng):
        g3 = Coefficient.symbol("g3")
        for _ in range(30):
            a = C(0, 1) * g3 + Coefficient({(): rand_gauss(rng)})
            b = g3 * g3 + Coefficient({(): rand_gauss(rng)})
            assert (a * b).conjugate(table) == a.conjugate(table) * b.conjugate(table)
            assert a.conjugate(table).conjugate(table) == a

    def test_is_zero_canonical(self):
        a = C(1) - C(1)
        assert a.is_zero()
        assert a == Coefficient.zero()
        assert not (C(1) + Coefficient.symbol("s")).is_zero()


class TestDerivationTable:
    def test_declared_zero_directions(self, table):
        g3 = Coefficient.symbol("g3")
        assert g3.derive(Direction(1, False), table).is_zero()
        assert g3.derive(Direction(2, True), table).is_zero()

    def test_constant_derivative_is_zero(self, table):
        assert C(7).derive(Direction(3, False), table).is_zero()

    def test_auto_fresh_symbol(self, table):
        g3 = Coefficient.symbol("g3")
        d = g3.derive(Direction(3, False), table)
        assert d == Coefficient.symbol("V3[g3]")

    def test_fresh_conjugation_pairs(self, table):
        fresh = Coefficient.symbol("g3").derive(Direction(3, False), table)
        conj = fresh.conjugate(table)
        assert conj == Coefficient.symbol("Vb3[g3c]")
        assert conj.conjugate(table) == fresh

    def test_depth_limit(self, table):
        c = Coefficient.symbol("g3")
        for _ in range(table.depth_limit):
            c = c.derive(Direction(3, False), table)
        with pytest.raises(DepthExceeded):
            c.derive(Direction(3, False), table)

    def test_no_auto_fresh(self):
        t = DerivationTable(auto_fresh=False)
        t.declare_symbol("s")
        with pytest.raises(DepthExceeded):
            Coefficient.symbol("s").derive(Direction(1, False), t)

    def test_leibniz_product_rule(self, table, rng):
        g3 = Coefficient.symbol("g3")
        g3c = Coefficient.symbol("g3c")
        pool = [g3, g3c, g3 * g3c, g3 + C(0, 1) * g3c, C(2) * g3 * g3]
        for _ in range(60):
            a = pool[rng.randrange(len(pool))] + Coefficient({(): rand_gauss(rng)})
            b = pool[rng.randrange(len(pool))] + Coefficient({(): rand_gauss(rng)})
            direction = Direction(rng.randint(1, 3), rng.random() < 0.5)
            lhs = (a * b).derive(direction, table)
            rhs = a.derive(direction, table) * b + a * b.derive(direction, table)
            assert lhs == rhs

    def test_derive_linear(self, table):
        g3 = Coefficient.symbol("g3")
        g3c = Coefficient.symbol("g3c")
        d = Direction(3, True)
        lhs = (g3 + C(0, 2) * g3c).derive(d, table)
        rhs = g3.derive(d, table) + C(0, 2) * g3c.derive(d, table)
        assert lhs == rhs


class TestExponentLimit:
    def test_power_above_limit_is_refused_fast(self):
        x = Coefficient.symbol("x")
        start = time.perf_counter()
        with pytest.raises(ExponentTooLarge):
            x ** 100_000_000
        with pytest.raises(ExponentTooLarge):
            parse_form("x^100000000*phi[1;]", 3)
        assert time.perf_counter() - start < 0.5

    def test_power_at_limit(self):
        assert MAX_EXPONENT == 64
        x = Coefficient.symbol("x")
        assert x ** MAX_EXPONENT == x ** 32 * x ** 32
        assert parse_form("x^64*phi[1;]", 3) == parse_form("x^32*x^32*phi[1;]", 3)
        with pytest.raises(ExponentTooLarge):
            x ** (MAX_EXPONENT + 1)
