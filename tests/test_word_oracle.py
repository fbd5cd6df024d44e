"""apply_word against a Form-level reference of every operator.

The reference applies one operator at a time and builds a Form after each,
with forms._combine of Coefficient products: star, L and Lambda sum c times
the cached image of each unit monomial; d and its parts sum c times the
kind's parts of the split of d of each monomial, plus the derivative of c
along each frame direction of the kind times phi^a or phi^abar wedge the
monomial; an adjoint is -* k' *.  apply_word must give the same Form, or
raise DepthExceeded too, for every single operator and for every word of
the condition systems and the Laplacians.

Which underivable term the error names depends on the order in which terms
are met.  Up to the first differential operator both paths meet them in the
Form's order, so there the message must be the same too.  After one, the
reference's order comes from its Coefficient arithmetic, and apply_word's
from its term map, so for a word with two differential operators only the
error class is compared.
"""

import dataclasses
import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from harmonica.errors import DepthExceeded
from harmonica.forms import Form, MultiIndex, _combine, _wedge_monomials, basis_multiindices, parse_form
from harmonica.harmonic import CONDITION_WORDS, LAPLACIAN_WORDS
from harmonica.hermitian import (
    _word_image, apply_word, form_subspace, operator_columns, subspace_forms, word_kernel
)
from harmonica.library import catalog_document, load_spec
from harmonica.scalars import Coefficient, DerivationTable, Direction, GaussianRational
from harmonica.structure import OperatorKind, _unit_term_images, all_basis_monomials, d_by_shift

from test_structure import TORUS_SYMBOLS, gauss, random_specs

SINGLE = [("*",), ("L",), ("Lambda",)]
SINGLE += [(kind.value,) for kind in OperatorKind] + [(kind.value + "*",) for kind in OperatorKind]
WORDS = [(), *SINGLE]
for words in itertools.chain(CONDITION_WORDS.values(), LAPLACIAN_WORDS.values()):
    WORDS += [word for word in words if word not in WORDS]


def reference_metric(op, form, spec):
    return Form(spec.n, _combine((c, _word_image((op,), m, spec)) for m, c in form.terms.items()))


def reference_component(form, kind, spec):
    shift = kind.shift
    bars = {None: (False, True), (1, 0): (False,), (0, 1): (True,)}.get(shift, ())

    def columns():
        for idx, coeff in form.terms.items():
            for b, part in d_by_shift(idx, spec).items():
                if shift is None or b == shift:
                    yield coeff, part.terms
            if coeff.is_constant():
                continue
            for a in range(1, spec.n + 1):
                for bar in (False, True):
                    factor = MultiIndex((), (a,)) if bar else MultiIndex((a,), ())
                    image, sign = _wedge_monomials(factor, idx)
                    if sign and bar in bars:
                        yield coeff.derive(Direction(a, bar), spec.table), {image: sign}

    return Form(spec.n, _combine(columns()))


def reference_word(word, form, spec):
    for op in reversed(word):
        if op in ("*", "L", "Lambda"):
            form = reference_metric(op, form, spec)
        elif op.endswith("*"):
            paired = OperatorKind(op[:-1]).conjugate
            starred = reference_component(reference_metric("*", form, spec), paired, spec)
            form = -reference_metric("*", starred, spec)
        else:
            form = reference_component(form, OperatorKind(op), spec)
    return form


def outcome(apply, word, form, spec):
    try:
        return apply(word, form, spec)
    except DepthExceeded as exc:
        differentials = [op for op in word if op not in ("*", "L", "Lambda")]
        return str(exc) if len(differentials) < 2 else DepthExceeded


def assert_words_match(form, spec):
    for word in WORDS:
        want = outcome(reference_word, word, form, spec)
        assert outcome(apply_word, word, form, spec) == want, word


def with_depth(table, depth):
    """A copy of the table with another depth limit: at 0 and 1, the
    derivatives of the torus6 symbols run out along some directions."""
    return DerivationTable(
        set(table.symbols), dict(table.conjugates), dict(table.entries), depth_limit=depth
    )


@st.composite
def word_forms(draw, n):
    """Up to five terms of any bidegree; each coefficient a nonzero Q(i)
    constant times up to two torus6 symbols, some of them derived ones."""
    symbols = st.sampled_from([*TORUS_SYMBOLS, "V1[g3]", "Vb3[g33]"])
    form = Form.zero(n)
    for _ in range(draw(st.integers(1, 5))):
        idx = draw(st.sampled_from(all_basis_monomials(n)))
        c = Coefficient.coerce(draw(gauss))
        for name in draw(st.lists(symbols, max_size=2)):
            c = c * Coefficient.symbol(name)
        form = form + Form.monomial(n, idx.hol, idx.anti, c)
    return form


ORACLE = settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestWordsMatchTheFormPath:
    @ORACLE
    @given(data=st.data())
    def test_torus6(self, torus, data):
        depth = data.draw(st.sampled_from([3, 1, 0]))
        spec = torus if depth == 3 else dataclasses.replace(torus, table=with_depth(torus.table, depth))
        assert_words_match(data.draw(word_forms(3)), spec)

    @ORACLE
    @given(data=st.data())
    def test_random_specs(self, torus, data):
        depth = data.draw(st.sampled_from([3, 1]))
        spec = data.draw(random_specs(with_depth(torus.table, depth)))
        assert_words_match(data.draw(word_forms(spec.n)), spec)


class TestWordArguments:
    FORM = "(1,2)*g33*phi[1,3;2] + g3c*phi[2,3;1] - 3*phi[1;1] + g3*phi[2;]"

    @pytest.mark.parametrize(
        "word", [("foo",), ("d", "foo"), ("foo", "d"), ("foo*",), ("Lambda*",), ("foo", "L"), ("L*",)]
    )
    def test_an_unknown_operator_is_refused_on_every_form(self, torus, word):
        """apply_word, operator_columns and word_kernel refuse the word before
        any work: a block whose images would all be 0, as at (3,3), or whose
        other word is valid, is refused too, and no image is cached."""
        for form in (Form.zero(3), parse_form(self.FORM, 3)):
            with pytest.raises(ValueError, match="unknown operator"):
                apply_word(word, form, torus)
        spec = load_spec(catalog_document("iwasawa_ak"))
        for p, q in ((0, 0), (1, 1), (3, 3)):
            for words in ([word], [("L",), word]):
                for entry in (operator_columns, word_kernel):
                    with pytest.raises(ValueError, match="unknown operator"):
                        entry(words, p, q, spec)
        assert spec._cache == {}

    def test_a_list_word_is_its_tuple(self, torus):
        form = parse_form(self.FORM, 3)
        for word in WORDS:
            want = outcome(apply_word, word, form, torus)
            assert outcome(apply_word, list(word), form, torus) == want, word

    def test_list_words_serve_the_blocks_as_apply_word_does(self):
        """operator_columns and word_kernel take a list word as its tuple: each
        column is apply_word's image of its unit monomial, and the kernel
        is the tuple word's, and apply_word sends each of its forms to 0."""
        spec = load_spec(catalog_document("iwasawa_ak"))
        for p, q in ((1, 0), (1, 1)):
            monomials = basis_multiindices(3, p, q)
            units = [Form.monomial(3, m.hol, m.anti) for m in monomials]
            for word in WORDS:
                columns = operator_columns([list(word)], p, q, spec)
                images = [apply_word(word, unit, spec).terms for unit in units]
                assert columns == [{m: c.constant_value() for m, c in image.items()} for image in images]
                kernel = word_kernel([list(word)], p, q, spec)
                assert kernel == word_kernel([word], p, q, spec) and kernel.ncols == len(monomials)
                assert all(not apply_word(word, f, spec) for f in subspace_forms(kernel, p, q, spec))

    def test_no_word_leaves_the_whole_space(self):
        """The kernel of an empty stack of words is the whole (p,q) space,
        with one column per (p,q) monomial."""
        spec = load_spec(catalog_document("iwasawa_ak"))
        for p, q in ((0, 0), (1, 1), (2, 1), (3, 3)):
            monomials = basis_multiindices(3, p, q)
            whole = word_kernel([], p, q, spec)
            units = [Form.monomial(3, m.hol, m.anti) for m in monomials]
            assert whole.ncols == len(monomials) and whole.dim == len(monomials)
            assert whole == form_subspace(units, p, q, spec)


# The cached images of the symbolic unit terms s phi^idx under d and its
# parts, against their construction from Coefficients: s times each of the
# kind's parts of d(phi^idx), plus the derivative of s along each frame
# direction of the kind, a = 1..n and unbarred before barred, times phi^a or
# phi^abar wedge phi^idx, summed with forms._combine.  Both take the
# directions in that order, so a DepthExceeded comes from the same first
# derivative, with the same message.


def combined_unit_term_images(kind, idx, coeff, spec):
    shift = kind.shift
    bars = {None: (False, True), (1, 0): (False,), (0, 1): (True,)}.get(shift, ())
    parts = [part.terms for b, part in d_by_shift(idx, spec).items() if shift is None or b == shift]
    units = {s: Coefficient({s: GaussianRational(1)}) for s in coeff if s}
    columns = {s: [(unit, part) for part in parts] for s, unit in units.items()}
    for a in range(1, spec.n + 1):
        for bar in (False, True):
            factor = MultiIndex((), (a,)) if bar else MultiIndex((a,), ())
            image, sign = _wedge_monomials(factor, idx)
            if sign and bar in bars:
                for s, unit in units.items():
                    columns[s].append((unit.derive(Direction(a, bar), spec.table), {image: sign}))
    return {s: _combine(column) for s, column in columns.items()}


def cached_unit_term_images(kind, idx, coeff, spec):
    shift = kind.shift
    parts = [part.terms for b, part in d_by_shift(idx, spec).items() if shift is None or b == shift]
    images = _unit_term_images(kind, idx, coeff, parts, spec)
    return {s: {m: Coefficient(c) for m, c in images[s].items()} for s in coeff if s}


def images_outcome(build, kind, idx, coeff, spec):
    try:
        return build(kind, idx, coeff, spec)
    except DepthExceeded as exc:
        return str(exc)


def assert_unit_term_images_match(coeff, spec):
    for idx in all_basis_monomials(spec.n):
        for kind in OperatorKind:
            want = images_outcome(combined_unit_term_images, kind, idx, coeff, spec)
            assert images_outcome(cached_unit_term_images, kind, idx, coeff, spec) == want, (kind, idx)


@st.composite
def symbol_coefficients(draw):
    """{symbol monomial: nonzero Q(i)} with one to three symbol monomials of
    one or two torus6 symbols, some of them derived ones, and maybe a
    constant term."""
    symbols = st.sampled_from([*TORUS_SYMBOLS, "V1[g3]", "Vb3[g33]"])
    c = Coefficient.coerce(draw(gauss)) if draw(st.booleans()) else Coefficient()
    for _ in range(draw(st.integers(1, 3))):
        term = Coefficient.coerce(draw(gauss))
        for name in draw(st.lists(symbols, min_size=1, max_size=2)):
            term = term * Coefficient.symbol(name)
        c = c + term
    return dict(c.items())


class TestUnitTermImages:
    @ORACLE
    @given(data=st.data())
    def test_torus6(self, torus, data):
        depth = data.draw(st.sampled_from([3, 1, 0]))
        spec = dataclasses.replace(torus, table=with_depth(torus.table, depth))
        assert_unit_term_images_match(data.draw(symbol_coefficients()), spec)

    @ORACLE
    @given(data=st.data())
    def test_random_specs(self, torus, data):
        """Symbolic structure coefficients: the parts' symbol monomials are
        multiplied into each image."""
        spec = data.draw(random_specs(with_depth(torus.table, data.draw(st.sampled_from([3, 1])))))
        assert_unit_term_images_match(data.draw(symbol_coefficients()), spec)

    def test_a_shallow_depth_limit_fails_at_the_same_first_direction(self, torus):
        """At depth 0, g33 has no derivative along V3, and the derived symbol
        V1[g3] none at all.  On phi^{2,3bar} the directions are V1, Vb1, Vb2
        and V3, so d fails first on V1[g3] along V1 (taking g33 first would
        fail along V3), del likewise, and delbar on V1[g3] along Vb1."""
        spec = dataclasses.replace(torus, table=with_depth(torus.table, 0))
        coeff = dict((Coefficient.symbol("g33") + Coefficient.symbol("V1[g3]")).items())
        idx = MultiIndex((2,), (3,))
        for kind in OperatorKind:
            want = images_outcome(combined_unit_term_images, kind, idx, coeff, spec)
            assert images_outcome(cached_unit_term_images, kind, idx, coeff, spec) == want, kind
        for kind, label in ((OperatorKind.D, "V1"), (OperatorKind.DEL, "V1"), (OperatorKind.DELBAR, "Vb1")):
            error = images_outcome(cached_unit_term_images, kind, idx, coeff, spec)
            assert error.startswith(f"derivative of 'V1[g3]' along {label} "), kind
