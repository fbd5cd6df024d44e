import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonica.errors import NotHomogeneous, ParseError
from harmonica.forms import Form, MultiIndex, basis_multiindices, format_form, parse_form
from harmonica.hermitian import fundamental_form
from harmonica.scalars import (
    SYMBOL_NAME,
    Coefficient,
    GaussianRational,
    parse_int,
    parse_rational,
)

from conftest import homogeneous_parts, rand_form_any, rand_form_pq, rand_gauss


def G(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def mono(n, hol=(), anti=(), c=1):
    return Form.monomial(n, hol, anti, c)


# --- independent sign oracle: flatten to one letter sequence, bubble sort ---

def oracle_wedge_monomials(n, idx1, idx2):
    """(sign, canonical MultiIndex) by sorting the full factor sequence."""
    letters = (
        [a for a in idx1.hol]
        + [n + a for a in idx1.anti]
        + [a for a in idx2.hol]
        + [n + a for a in idx2.anti]
    )
    seq = list(letters)
    sign = 1
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            sign = -sign
            j -= 1
    if any(a == b for a, b in zip(seq, seq[1:])):
        return 0, None
    hol = tuple(a for a in seq if a <= n)
    anti = tuple(a - n for a in seq if a > n)
    return sign, MultiIndex(hol, anti)


class TestWedge:
    def test_single_transposition(self):
        assert mono(3, (2,)).wedge(mono(3, (1,))) == mono(3, (1, 2), c=-1)

    def test_repeated_index_vanishes(self):
        a = mono(3, (1,), (2,))
        b = mono(3, (1,), (3,))
        assert a.wedge(b).is_zero()

    def test_omega_wedge_phi3_iwasawa(self, iwasawa):
        omega = fundamental_form(iwasawa)
        got = omega.wedge(mono(3, (3,)))
        want = mono(3, (1, 3), (1,), G(0, -1)) + mono(3, (2, 3), (2,), G(0, -1))
        assert got == want

    def test_against_permutation_oracle(self, rng):
        from harmonica.structure import all_basis_monomials

        monomials = all_basis_monomials(3)
        for _ in range(400):
            i1 = monomials[rng.randrange(len(monomials))]
            i2 = monomials[rng.randrange(len(monomials))]
            got = mono(3, i1.hol, i1.anti).wedge(mono(3, i2.hol, i2.anti))
            sign, idx = oracle_wedge_monomials(3, i1, i2)
            if sign == 0:
                assert got.is_zero()
            else:
                assert got == Form(3, {idx: Coefficient.coerce(sign)})

    def test_graded_commutativity(self, rng):
        for _ in range(120):
            p1, q1 = rng.randint(0, 2), rng.randint(0, 2)
            p2, q2 = rng.randint(0, 2), rng.randint(0, 2)
            a = rand_form_pq(3, p1, q1, rng)
            b = rand_form_pq(3, p2, q2, rng)
            sign = (-1) ** ((p1 + q1) * (p2 + q2))
            assert a.wedge(b) == b.wedge(a) * sign

    def test_associativity_bilinearity(self, rng):
        for _ in range(120):
            a = rand_form_any(3, rng, density=0.2)
            b = rand_form_any(3, rng, density=0.2)
            c = rand_form_any(3, rng, density=0.2)
            assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))
            assert (a + b).wedge(c) == a.wedge(c) + b.wedge(c)


class TestConjugate:
    def test_conj_swaps_and_signs(self):
        assert mono(3, (2,), (1,)).conjugate() == mono(3, (1,), (2,), -1)

    def test_conj_omega_real(self, iwasawa, torus):
        for spec in (iwasawa, torus):
            omega = fundamental_form(spec)
            assert omega.conjugate(spec.table) == omega

    def test_conj_symbolic(self, torus):
        f = mono(3, (3,), (1, 2), Coefficient.symbol("g3"))
        got = f.conjugate(torus.table)
        want = mono(3, (1, 2), (3,), Coefficient.symbol("g3c") * ((-1) ** (1 * 2)))
        assert got == want

    def test_involution_on_random_forms(self, rng):
        for _ in range(1000):
            f = rand_form_any(3, rng, density=0.15)
            assert f.conjugate().conjugate() == f

    def test_conj_multiplicative(self, rng):
        for _ in range(150):
            a = rand_form_any(3, rng, density=0.2)
            b = rand_form_any(3, rng, density=0.2)
            assert a.wedge(b).conjugate() == a.conjugate().wedge(b.conjugate())


class TestBidegree:
    def test_project_iwasawa_dphi1_02(self, iwasawa):
        from harmonica.structure import exterior_d

        d1 = exterior_d(mono(3, (1,)), iwasawa)
        got = d1.bidegree_project(0, 2)
        want = mono(3, (), (1, 3), G(Fraction(1, 4))) + mono(3, (), (2, 3), G(0, Fraction(-1, 4)))
        assert got == want

    def test_project_identity_and_zero(self, iwasawa):
        omega = fundamental_form(iwasawa)
        assert omega.bidegree_project(1, 1) == omega
        assert mono(3, (1, 2)).bidegree_project(0, 2).is_zero()

    def test_parts_reassemble(self, rng):
        for _ in range(200):
            f = rand_form_any(3, rng)
            total = Form.zero(3)
            for part in homogeneous_parts(f).values():
                total = total + part
            assert total == f

    def test_mixed_degrees_are_refused(self):
        mixed = mono(3, (1,)) + mono(3, (1, 2))
        with pytest.raises(NotHomogeneous) as refused:
            mixed.require_homogeneous_degree()
        assert str(refused.value) == "form mixes total degrees"
        with pytest.raises(NotHomogeneous) as refused:
            (mono(3, (1,)) + mono(3, (), (1,))).require_bidegree()
        assert str(refused.value) == "form mixes bidegrees"

    def test_basis_count(self):
        import math

        for n in range(1, 5):
            for p in range(n + 1):
                for q in range(n + 1):
                    assert len(basis_multiindices(n, p, q)) == math.comb(n, p) * math.comb(n, q)

    def test_basis_is_a_new_list_each_time(self):
        """Each call returns a new list equal to the itertools enumeration,
        so a caller that changes it changes no later call."""
        for n in range(1, 5):
            for p in range(n + 1):
                for q in range(n + 1):
                    expected = [
                        MultiIndex(hol, anti)
                        for hol in itertools.combinations(range(1, n + 1), p)
                        for anti in itertools.combinations(range(1, n + 1), q)
                    ]
                    basis = basis_multiindices(n, p, q)
                    assert type(basis) is list and basis == expected
                    assert basis_multiindices(n, p, q) is not basis
                    basis.reverse()
                    basis.append(MultiIndex((1,), ()))
                    basis.pop(0)
                    assert basis_multiindices(n, p, q) == expected


class TestSyntax:
    def test_examples(self):
        f = parse_form("phi[1,3;2]", 3)
        assert f == mono(3, (1, 3), (2,))
        f = parse_form("(1/4,0)*phi[;1,3] + (0,-1/4)*phi[;2,3]", 3)
        assert f == mono(3, (), (1, 3), G(Fraction(1, 4))) + mono(3, (), (2, 3), G(0, Fraction(-1, 4)))
        f = parse_form("g3*phi[3;1] - g3c*phi[;1,3]", 3)
        assert f == mono(3, (3,), (1,), Coefficient.symbol("g3")) + mono(
            3, (), (1, 3), -Coefficient.symbol("g3c")
        )
        assert parse_form("0", 3).is_zero()
        assert parse_form("2", 3) == Form.scalar(3, 2)
        assert parse_form("phi[;]", 3) == Form.scalar(3, 1)

    def test_sign_normalization_on_input(self):
        assert parse_form("phi[3,1;]", 3) == mono(3, (1, 3), c=-1)
        assert parse_form("phi[1,1;]", 3).is_zero()

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_form("phi[1;2", 3)
        with pytest.raises(ParseError):
            parse_form("phi[1;]*phi[2;]", 3)
        with pytest.raises(ParseError):
            parse_form("@", 3)
        with pytest.raises(ParseError):
            parse_form("phi[4;]", 3)

    def test_round_trip_random(self, rng):
        for _ in range(1000):
            f = rand_form_any(3, rng, density=0.2)
            assert parse_form(format_form(f), 3) == f

    def test_round_trip_symbolic(self, torus, rng):
        g3 = Coefficient.symbol("g3")
        g3c = Coefficient.symbol("g3c")
        for _ in range(100):
            f = rand_form_any(3, rng, density=0.1) + mono(
                3, (3,), (1,), g3 * g3c * rand_gauss(rng)
            )
            assert parse_form(format_form(f), 3) == f


# --- the reference: the term-at-a-time parser that parse_form replaced -------

_REFERENCE_TOKEN_RE = re.compile(
    r"\s*(?:(?P<sign>[+-])"
    r"|(?P<gauss>\(\s*[+-]?\d+(?:/\d+)?\s*,\s*[+-]?\d+(?:/\d+)?\s*\))"
    r"|(?P<phi>phi\[[0-9,\s]*;[0-9,\s]*\])"
    r"|(?P<rat>\d+(?:/\d+)?)"
    rf"|(?P<sym>{SYMBOL_NAME}(?:\[[A-Za-z0-9_\[\]]*\])?)(?:\^(?P<pow>\d+))?"
    r"|(?P<star>\*))"
)


def _reference_parse_int_list(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    return tuple(parse_int(x) for x in text.split(","))


def reference_parse_form(text: str, n: int) -> Form:
    """Parse the CLI form syntax into a Form over the 2n-dimensional coframe."""
    pos = 0
    total = Form.zero(n)
    sign = 1
    coeff = None
    phi_idx = None
    seen_factor = False

    def flush():
        nonlocal total, sign, coeff, phi_idx, seen_factor
        if not seen_factor:
            return
        c = coeff if coeff is not None else Coefficient.one()
        hol, anti = phi_idx if phi_idx is not None else ((), ())
        try:
            total = total + Form.monomial(n, hol, anti, c * sign)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
        sign, coeff, phi_idx, seen_factor = 1, None, None, False

    text_stripped = text.strip()
    if not text_stripped or text_stripped == "0":
        return total
    while pos < len(text):
        if text[pos:].strip() == "":
            break
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"bad form syntax at position {pos}: {text[pos:pos+20]!r}")
        pos = m.end()
        if m.group("sign"):
            if seen_factor:
                flush()
            if m.group("sign") == "-":
                sign = -sign
            continue
        if m.group("star"):
            if not seen_factor:
                raise ParseError("misplaced '*'")
            continue
        seen_factor = True
        if m.group("gauss"):
            inner = m.group("gauss")[1:-1]
            re_txt, im_txt = inner.split(",")
            g = GaussianRational(parse_rational(re_txt), parse_rational(im_txt))
            factor = Coefficient({(): g})
        elif m.group("rat"):
            factor = Coefficient.coerce(parse_rational(m.group("rat")))
        elif m.group("phi"):
            if phi_idx is not None:
                raise ParseError("at most one phi[...] factor per term")
            body = m.group("phi")[4:-1]
            hol_txt, anti_txt = body.split(";")
            phi_idx = (_reference_parse_int_list(hol_txt), _reference_parse_int_list(anti_txt))
            continue
        else:
            name = m.group("sym")
            if name == "phi":
                raise ParseError("phi must be followed by [hol;anti]")
            factor = Coefficient.symbol(name) ** parse_int(m.group("pow") or "1")
        coeff = factor if coeff is None else coeff * factor
    flush()
    return total


def _outcome(parse, text, n):
    """The formatted Form, or the type and message of the exception."""
    try:
        return "ok", format_form(parse(text, n))
    except Exception as exc:
        return type(exc).__name__, str(exc)


_INDEX_LISTS = st.lists(st.sampled_from("0123457"), max_size=3).map(",".join)
_PHI = st.builds(
    "phi[{}{};{}{}]".format,
    _INDEX_LISTS,
    st.sampled_from(["", " ", ",", ",,"]),
    _INDEX_LISTS,
    st.sampled_from(["", " "]),
)
_RATIONAL = st.sampled_from(
    ["0", "1", "3", "2/3", "-1/2", "0/5", "1/0", "007", "2/4", "-6/8", "+3", "-0"]
)
_GAUSS = st.builds("({},{})".format, _RATIONAL, _RATIONAL)
_SPACE = st.sampled_from(["", " ", "  ", "\t"])
_GAUSS_SPACED = st.builds(
    "({}{}{}{},{}{}{}{})".format,
    _SPACE, st.sampled_from(["", "+"]), _RATIONAL, _SPACE,
    _SPACE, st.sampled_from(["", "+"]), _RATIONAL, _SPACE,
)
_SYMBOL = st.builds(
    "{}{}".format,
    st.sampled_from(["g3", "g3c", "x", "_y1", "V1[g3]", "phi", "phi[x]"]),
    st.sampled_from(["", "^0", "^1", "^3", "^65", "^"]),
)
_TERM = st.builds(
    "{}{}*{}".format, st.sampled_from([" + ", " - ", "+", ""]), st.one_of(_RATIONAL, _GAUSS, _SYMBOL), _PHI
)
# a term, then the same term again with the sign turned: once by a minus,
# once by an odd reordering of two phi indices
_CANCELLING = st.one_of(
    st.builds("{0}*{1} - {0}*{1}".format, st.one_of(_RATIONAL, _GAUSS, _SYMBOL), _PHI),
    st.builds(
        "{0}*phi[{1},{2};{3}] + {0}*phi[{2},{1};{3}]".format,
        st.one_of(_RATIONAL, _GAUSS_SPACED, _SYMBOL),
        st.sampled_from("1234"),
        st.sampled_from("1234"),
        _INDEX_LISTS,
    ),
)
_TOKENS = st.one_of(
    _TERM,
    _CANCELLING,
    _GAUSS_SPACED,
    st.sampled_from(["+", "-", "*", " ", "  ", "\t", "\n"]),
    _PHI,
    _RATIONAL,
    _GAUSS,
    _SYMBOL,
    st.sampled_from(["@", "#", "(", ")", ",", ";", "[", "]", "^", "/", "é", "\u00a0"]),
)


class TestParseInOnePass:
    """parse_form reads the tokens in one pass into one term map; it equals
    the term-at-a-time reference on every text, result or error."""

    @settings(max_examples=1500, deadline=None)
    @given(st.lists(_TOKENS, max_size=14).map("".join), st.integers(1, 4))
    def test_token_soups(self, text, n):
        assert _outcome(parse_form, text, n) == _outcome(reference_parse_form, text, n)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "  ",
            "0",
            " 0 ",
            "phi[4;] * @",
            "phi[4;] + @",
            "phi[1;]*phi[2;]",
            "- - phi[1;2] -(1,0)*phi[1;2]",
            "phi[1;2] - phi[1;2] + 2*phi[1;2]",
            "phi[2,1;1,1] + phi[0;]",
            "x^65",
            "  phi[1;2] @  ",
        ],
    )
    def test_edge_texts(self, text):
        assert _outcome(parse_form, text, 3) == _outcome(reference_parse_form, text, 3)

    def test_no_form_is_added_to_a_form(self, monkeypatch):
        from harmonica.structure import all_basis_monomials

        monomials = all_basis_monomials(6)
        text = " + ".join(
            f"phi[{','.join(map(str, idx.hol))};{','.join(map(str, idx.anti))}]"
            for idx in monomials
        )
        calls = []
        add = Form.__add__

        def counting_add(self, other):
            calls.append("add")
            return add(self, other)

        monkeypatch.setattr(Form, "__add__", counting_add)
        form = parse_form(text, 6)
        monkeypatch.undo()
        assert calls == []
        assert len(monomials) == 4096
        assert form == Form(6, {idx: Coefficient.one() for idx in monomials})

    def test_no_scalar_or_form_arithmetic_per_token(self, monkeypatch, rng):
        """A torus6-shaped stream (Q(i) literals, symbol powers, unsorted phi
        indices, both signs) parses with no Coefficient product, no
        Form.monomial, no _combine and no Fraction: each term stays plain
        data until the one term map at the end becomes a Form."""
        from harmonica import forms

        def term():
            hol = rng.sample(range(1, 4), rng.randint(0, 3))
            anti = rng.sample(range(1, 4), rng.randint(0, 3))
            real, imag = (f"{rng.randint(-4, 4)}/{rng.randint(1, 4)}" for _ in "ri")
            powers = "".join(
                f"*{s}^{rng.randint(1, 3)}" for s in rng.sample(["g3", "g3c"], rng.randint(0, 2))
            )
            return f"({real},{imag}){powers}*phi[{','.join(map(str, hol))};{','.join(map(str, anti))}]"

        texts = [
            "".join(f" {rng.choice('+-')} {term()}" for _ in range(rng.randint(1, 5)))
            for _ in range(200)
        ]
        expected = [reference_parse_form(text, 3) for text in texts]
        calls = []

        def spy(name, original):
            return lambda *args, **kwargs: calls.append(name) or original(*args, **kwargs)

        monomial, new = Form.monomial, Fraction.__new__
        monkeypatch.setattr(Coefficient, "__mul__", spy("Coefficient.__mul__", Coefficient.__mul__))
        monkeypatch.setattr(Form, "monomial", staticmethod(spy("Form.monomial", monomial)))
        monkeypatch.setattr(forms, "_combine", spy("_combine", forms._combine))
        monkeypatch.setattr(Fraction, "__new__", spy("Fraction.__new__", new))
        got = [parse_form(text, 3) for text in texts]
        monkeypatch.undo()
        assert calls == []
        assert got == expected
        assert sum(not form.is_constant_coefficients() for form in got) > 100
