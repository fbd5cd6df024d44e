import fractions
import random
import time
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonica.errors import DepthExceeded, ExponentTooLarge, ParseError, UndeclaredConjugate
from harmonica.forms import basis_multiindices, parse_form
from harmonica.harmonic import CONDITION_WORDS, LAPLACIAN_WORDS, HarmonicKind, is_harmonic
from harmonica.hermitian import is_primitive, operator_columns, primitive_decompose
from harmonica.library import catalog_document, load_spec
from harmonica.scalars import (
    MAX_EXPONENT,
    Coefficient,
    DerivationTable,
    Direction,
    GaussianRational,
    format_rational,
    parse_rational,
)
from harmonica.structure import OperatorKind, differential_component

from conftest import rand_gauss
from test_harmonic import CONJUGATED_WORDS


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

    def test_refused_operations(self):
        g3 = Coefficient.symbol("g3")
        with pytest.raises(ZeroDivisionError) as refused:
            C(1) / g3
        assert str(refused.value) == "cannot divide by a symbolic coefficient"
        assert g3 / C(2) == g3 * G(Fraction(1, 2))
        with pytest.raises(ValueError) as refused:
            g3 ** -1
        assert str(refused.value) == "negative powers are not defined for Coefficient"

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([1], "coefficient document must be an object: [1]"),
            ({"im": "1"}, "coefficient document needs 're'/'im' or 'terms'"),
        ],
    )
    def test_malformed_json_is_refused(self, doc, message):
        with pytest.raises(ParseError) as refused:
            Coefficient.from_json(doc)
        assert str(refused.value) == message

    def test_is_zero_canonical(self):
        a = C(1) - C(1)
        assert a.is_zero()
        assert a == Coefficient.zero()
        assert not (C(1) + Coefficient.symbol("s")).is_zero()


small_gauss = st.builds(
    lambda a, b, c, d: GaussianRational(Fraction(a, b), Fraction(c, d)),
    st.integers(-4, 4),
    st.integers(1, 3),
    st.integers(-4, 4),
    st.integers(1, 3),
)
coefficients = st.dictionaries(
    st.sampled_from([(), (("s", 1),), (("s", 2), ("t", 1)), (("t", 3),)]), small_gauss, max_size=4
).map(Coefficient)
constants = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)),
    small_gauss,
    small_gauss.map(lambda x: Coefficient({(): x})),
)


class TestConstantProducts:
    """A Coefficient times a Q(i) constant scales its term map."""

    @settings(max_examples=80, deadline=None)
    @given(a=coefficients, x=constants)
    def test_equals_the_general_product(self, a, x):
        # a * (x + u) and a * u with a symbol u are general polynomial products
        u = Coefficient.symbol("u")
        general = a * (u + x) - a * u
        assert a * x == general
        assert Coefficient.coerce(x) * a == general
        assert (a * x).is_zero() == (a.is_zero() or Coefficient.coerce(x).is_zero())

    def test_no_monomial_products(self, monkeypatch):
        from harmonica import scalars

        calls = []
        original = scalars._mono_mul
        monkeypatch.setattr(
            scalars, "_mono_mul", lambda a, b: calls.append((a, b)) or original(a, b)
        )
        a = Coefficient({(): G(1, 2), (("s", 1),): G(-3), (("s", 1), ("t", 2)): G(0, 1)})
        for x in (1, -1, 0, 7, Fraction(2, 3), G(0, 1), C(5, -2), Coefficient.one()):
            a * x
            Coefficient.coerce(x) * a
        monkeypatch.undo()
        assert calls == []
        assert a * G(0) == Coefficient.zero()


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


@pytest.mark.parametrize("name", ["x y", "phi", "3g", "", "V3[g3]", "g3]"])
def test_declared_names_are_identifiers_other_than_phi(name):
    """A declared symbol prints as text that parses back to it."""
    with pytest.raises(ValueError, match="symbol name"):
        DerivationTable().declare_symbol(name)
    with pytest.raises(ValueError, match="symbol name"):
        DerivationTable().declare_symbol("g", name)
    table = DerivationTable()
    table.declare_symbol("_g3", "g3c")
    assert table.conjugates == {"_g3": "g3c", "g3c": "_g3"}


class TestDirection:
    def test_value_semantics(self):
        d = Direction(3, True)
        assert d == Direction(3, True) != Direction(3) and d != (3, True)
        assert hash(d) == hash((3, True)) and repr(d) == "Direction(Vb3)"
        assert d.conjugate() == Direction(3) and Direction.from_label("Vb3") == d

    def test_frozen(self):
        d = Direction(3, True)
        with pytest.raises(AttributeError):
            d.index = 1
        assert d == Direction(3, True)

    def test_an_undeclared_attribute_is_refused(self):
        import dataclasses

        d = Direction(3, True)
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.extra = 1
        assert not hasattr(d, "extra") and d == Direction(3, True)

    @pytest.mark.parametrize("label", ["W1", "V0", "Vb", "v1"])
    def test_malformed_label_is_refused(self, label):
        with pytest.raises(ParseError) as refused:
            Direction.from_label(label)
        assert str(refused.value) == f"not a direction label: {label!r}"


class TestDerivativeMemo:
    """A table keeps no memo: each derivative reads the declarations and
    settings as they are.  A spec computes the derivative of each unit symbol
    monomial once per direction, through ManifoldSpec.cached."""

    def test_declared_derivative_replaces_the_remembered_one(self, table):
        g3, direction = Coefficient.symbol("g3"), Direction(1, False)
        assert g3.derive(direction, table).is_zero()
        table.declare_derivative("g3", direction, C(2, 1))
        assert g3.derive(direction, table) == C(2, 1)
        table.declare_symbol("h")
        assert (g3 * g3).derive(direction, table) == C(4, 2) * g3

    def test_a_later_setting_or_entry_is_read(self):
        """A derivative computed once does not outlive a change of the table."""
        g, direction = (("g", 1),), Direction(1)

        def derived_once():
            t = DerivationTable()
            t.declare_symbol("g")
            assert t.derive_monomial(g, direction) == Coefficient.symbol("V1[g]")
            return t

        t = derived_once()
        t.depth_limit = 0
        with pytest.raises(DepthExceeded):
            t.derive_monomial(g, direction)
        with pytest.raises(DepthExceeded):
            Coefficient.symbol("g").derive(direction, t)
        t = derived_once()
        t.entries[("g", direction)] = C(2)
        assert t.derive_monomial(g, direction) == C(2)
        assert Coefficient.symbol("g").derive(direction, t) == C(2)

    def test_repeated_derive_asks_the_table_nothing(self, monkeypatch):
        spec = load_spec(catalog_document("torus6"))
        form = parse_form("(1,2)*g3^2*g3c*phi[1;] + 3*phi[2;] + g3c*phi[1,3;2]", 3)
        asked = []
        original = DerivationTable.derive_symbol

        def counting(self, symbol, d):
            asked.append(symbol)
            return original(self, symbol, d)

        monkeypatch.setattr(DerivationTable, "derive_symbol", counting)
        first = differential_component(form, OperatorKind.D, spec)
        assert asked
        asked.clear()
        assert differential_component(form, OperatorKind.D, spec) == first
        assert asked == []

    def test_depth_exceeded_on_every_repeat(self, table):
        c = Coefficient.symbol("g3")
        for _ in range(table.depth_limit):
            c = c.derive(Direction(3, False), table)
        for _ in range(3):
            with pytest.raises(DepthExceeded):
                c.derive(Direction(3, False), table)


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


# A test-local reference for Q(i): (re, im) pairs of Fractions.
rationals = st.one_of(
    st.integers(-10**6, 10**6),
    st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**6)),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 30)),
)
pairs = st.tuples(rationals, rationals).map(lambda p: (Fraction(p[0]), Fraction(p[1])))


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_div(x, y):
    norm = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / norm, (x[1] * y[0] - x[0] * y[1]) / norm)


def assert_is(value, ref):
    """`value` is the reference pair, in the normal form: den > 0, content
    1, and the fields are the ones the reference determines."""
    assert (value.re, value.im) == ref
    den = lcm(ref[0].denominator, ref[1].denominator)
    assert (value.re_num, value.im_num, value.den) == (ref[0] * den, ref[1] * den, den)
    assert value.den > 0 and gcd(value.re_num, value.im_num, value.den) == 1


class TestAgainstFractionPairs:
    @settings(max_examples=300, deadline=None)
    @given(pairs, pairs)
    def test_arithmetic(self, x, y):
        a, b = GaussianRational(*x), GaussianRational(*y)
        assert_is(a, x)
        assert_is(a + b, (x[0] + y[0], x[1] + y[1]))
        assert_is(a - b, (x[0] - y[0], x[1] - y[1]))
        assert_is(a * b, ref_mul(x, y))
        assert_is(-a, (-x[0], -x[1]))
        assert_is(a.conjugate(), (x[0], -x[1]))
        assert a.is_zero() == (x == (0, 0)) == (not a)
        if y == (0, 0):
            with pytest.raises(ZeroDivisionError):
                a / b
        else:
            assert_is(a / b, ref_div(x, y))

    @settings(max_examples=200, deadline=None)
    @given(pairs, rationals)
    def test_mixed_with_rationals(self, x, r):
        a, r = GaussianRational(*x), Fraction(r)
        plain = r if r.denominator > 1 else r.numerator
        assert_is(a + plain, (x[0] + r, x[1]))
        assert_is(plain + a, (x[0] + r, x[1]))
        assert_is(a - plain, (x[0] - r, x[1]))
        assert_is(plain - a, (r - x[0], -x[1]))
        assert_is(plain * a, (x[0] * r, x[1] * r))
        if r:
            assert_is(a / plain, (x[0] / r, x[1] / r))
        if x != (0, 0):
            assert_is(plain / a, ref_div((r, Fraction(0)), x))

    @settings(max_examples=200, deadline=None)
    @given(pairs, pairs)
    def test_equality_hash_and_text(self, x, y):
        a, b = GaussianRational(*x), GaussianRational(*y)
        assert (a == b) == (x == y)
        assert hash(a) == (hash(x[0]) if x[1] == 0 else hash((a.re_num, a.im_num, a.den)))
        assert (a == x[0]) == (x[1] == 0)
        if x[0].denominator == 1:
            assert (a == x[0].numerator) == (x[1] == 0)
        assert str(a) == f"({x[0]},{x[1]})"
        assert repr(a) == f"GaussianRational({x[0]}, {x[1]})"
        doc = a.to_json()
        assert doc == {"re": str(x[0]), "im": str(x[1])}
        assert_is(GaussianRational.from_json(doc), x)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9), st.integers(1, 10**9))
    def test_from_ints(self, re, im, den):
        assert_is(GaussianRational.from_ints(re, im, den), (Fraction(re, den), Fraction(im, den)))

    @pytest.mark.parametrize(
        "value", [0, 1, -3, Fraction(1, 2), Fraction(-7, 3), (Fraction(1, 2), 1), (0, -1)]
    )
    def test_equal_values_hash_equal(self, value):
        """An int, a Fraction, a GaussianRational and a constant Coefficient
        that are == hash equal, so sets and dict keys treat them as one."""
        re, im = value if isinstance(value, tuple) else (value, 0)
        values = [GaussianRational(re, im), Coefficient.gauss(re, im)]
        if not im:
            values += [Fraction(re)] + ([re] if isinstance(re, int) else [])
        for a in values:
            for b in values:
                assert a == b and hash(a) == hash(b)
        assert len(set(values)) == 1
        assert {values[-1]: "x"}.get(GaussianRational(re, im)) == "x"

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            G(1, 1) / 0
        with pytest.raises(ZeroDivisionError):
            1 / G(0)

    @pytest.mark.parametrize("bad", [0.1, "1/3", 1j, None, 1.0])
    def test_constructor_refuses_floats_and_text(self, bad):
        with pytest.raises(TypeError):
            GaussianRational(bad)
        with pytest.raises(TypeError):
            GaussianRational(1, bad)
        with pytest.raises(TypeError):
            G(1) + bad


def _symbolic_forms(count):
    """Homogeneous torus6 forms of degree 1..3 with constant and symbolic
    Gaussian-rational coefficients."""
    rng = random.Random(20261018)
    symbols = (None, "g3", "g3c", "g33")
    forms = []
    for k in range(count):
        p = rng.randint(0, 2)
        q = rng.randint(max(0, 1 - p), 3 - p)
        terms = []
        monomials = basis_multiindices(3, p, q)
        for idx in rng.sample(monomials, min(2, len(monomials))):
            c = f"({rng.randint(-5, 5)}/{rng.randint(1, 4)},{rng.randint(-5, 5)}/{rng.randint(1, 4)})"
            sym = symbols[rng.randrange(len(symbols))]
            factors = [c] if sym is None else [c, sym]
            hol = ",".join(map(str, idx.hol))
            anti = ",".join(map(str, idx.anti))
            terms.append("*".join(factors + [f"phi[{hol};{anti}]"]))
        forms.append(parse_form(" + ".join(terms), 3))
    return forms


def test_no_fraction_on_the_arithmetic_path(monkeypatch):
    """Operator matrices on iwasawa_ak and symbolic certificates on torus6,
    from freshly loaded specs with cold caches, construct no Fraction."""
    iwasawa = load_spec(catalog_document("iwasawa_ak"))
    torus = load_spec(catalog_document("torus6"))
    forms = _symbolic_forms(10)
    words = list(LAPLACIAN_WORDS.values())
    systems = [*CONDITION_WORDS.values(), *CONJUGATED_WORDS.values()]
    words += [(word,) for system in systems for word in system]
    made = []
    original = fractions.Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", counting)
    for p in range(4):
        for q in range(4):
            for word_sum in words:
                operator_columns(word_sum, p, q, iwasawa)
    for form in forms:
        for kind in HarmonicKind:
            is_harmonic(kind, form, torus)
        is_primitive(form, torus)
        primitive_decompose(form, torus).reassemble(torus)
    monkeypatch.undo()
    assert made == []
