import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonica import catalog
from harmonica.cli import main
from harmonica.errors import SymbolicCoefficients
from harmonica.forms import Form, basis_multiindices, parse_form
from harmonica.harmonic import (
    CONDITION_WORDS,
    LAPLACIAN_WORDS,
    HarmonicKind,
    adjoint,
    harmonic_space,
    harmonic_subspace,
    is_harmonic,
    laplacian_apply,
)
from harmonica.hermitian import (
    form_subspace,
    fundamental_form,
    hodge_star,
    lefschetz_lambda,
    operator_columns,
    primitive_basis,
    volume_form,
    word_kernel,
)
from harmonica.library import catalog_document, load_spec
from harmonica.linalg import sparse_kernel, sparse_rows
from harmonica.scalars import Coefficient, GaussianRational
from harmonica.structure import (
    ManifoldSpec,
    OperatorKind,
    all_basis_monomials,
    check_integrability_relations,
    differential_component,
)
from harmonica.theorems import all_statements

from conftest import fail_on_swell, inner_square, rand_form_pq


def G(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


# The conjugated condition systems, from the other order of del and delbar:
# the conjugates of the Bott-Chern and Aeppli spaces at (p,q) are their
# kernels at (q,p).
CONJUGATED_WORDS = {
    "bc2": (("del",), ("delbar",), ("delbar", "del", "*")),
    "a2": (("del", "*"), ("delbar", "*"), ("delbar", "del")),
}


def mono(n, hol=(), anti=(), c=1):
    return Form.monomial(n, hol, anti, c)


def hermitian_inner(a, b, spec):
    total = GaussianRational(0)
    for idx, ca in a.terms.items():
        cb = b.coefficient(idx).constant_value()
        if cb is not None and not cb.is_zero():
            total = total + ca.constant_value() * cb.conjugate() * inner_square(idx, spec)
    return total


class TestAdjoint:
    def test_delbar_adjoint_kills_omega(self, iwasawa):
        assert adjoint(OperatorKind.DELBAR, fundamental_form(iwasawa), iwasawa).is_zero()

    def test_d_adjoint_kills_volume(self, iwasawa):
        assert adjoint(OperatorKind.D, volume_form(iwasawa), iwasawa).is_zero()

    def test_del_adjoint_on_torus_monomial(self, torus):
        assert adjoint(OperatorKind.DEL, mono(3, (2,), (1,)), torus).is_zero()

    def test_bidegree_shifts(self, iwasawa):
        f = mono(3, (1, 2), (1,))
        table = {
            OperatorKind.DEL: (1, 1),
            OperatorKind.DELBAR: (2, 0),
            OperatorKind.MU: (0, 2),
            OperatorKind.MUBAR: (3, -1),
        }
        for kind, (p, q) in table.items():
            image = adjoint(kind, f, iwasawa)
            if not image.is_zero():
                assert image.bidegree() == (p, q)

    def test_adjointness_against_inner_product(self, iwasawa, rng):
        # <k a, b> = <a, k* b> for the Hermitian inner product
        pairs = [
            (OperatorKind.D, None),
            (OperatorKind.DEL, (1, 0)),
            (OperatorKind.DELBAR, (0, 1)),
            (OperatorKind.MU, (2, -1)),
            (OperatorKind.MUBAR, (-1, 2)),
        ]
        for _ in range(25):
            p, q = rng.randint(0, 2), rng.randint(0, 2)
            a = rand_form_pq(3, p, q, rng)
            for kind, shift in pairs:
                if shift is None:
                    bs = [
                        rand_form_pq(3, p + 1, q, rng),
                        rand_form_pq(3, p, q + 1, rng),
                    ]
                else:
                    dp, dq = shift
                    if not (0 <= p + dp <= 3 and 0 <= q + dq <= 3):
                        continue
                    bs = [rand_form_pq(3, p + dp, q + dq, rng)]
                for b in bs:
                    lhs = hermitian_inner(
                        differential_component(a, kind, iwasawa), b, iwasawa
                    )
                    rhs = hermitian_inner(a, adjoint(kind, b, iwasawa), iwasawa)
                    assert lhs == rhs


class TestLaplacians:
    def test_bc_kills_omega(self, iwasawa):
        assert laplacian_apply(HarmonicKind.BC, fundamental_form(iwasawa), iwasawa).is_zero()

    def test_delbar_kills_phi3(self, iwasawa):
        assert laplacian_apply(HarmonicKind.DELBAR, mono(3, (3,)), iwasawa).is_zero()

    def test_d_kills_constants(self, iwasawa):
        assert laplacian_apply(HarmonicKind.D, Form.scalar(3, 5), iwasawa).is_zero()

    def test_bidegree_preserved(self, iwasawa, rng):
        for kind in (HarmonicKind.DEL, HarmonicKind.DELBAR, HarmonicKind.BC, HarmonicKind.A):
            for _ in range(6):
                p, q = rng.randint(0, 3), rng.randint(0, 3)
                f = rand_form_pq(3, p, q, rng)
                image = laplacian_apply(kind, f, iwasawa)
                if not image.is_zero():
                    assert image.bidegree() == (p, q)

    def test_d_preserves_total_degree(self, iwasawa, rng):
        for _ in range(10):
            p, q = rng.randint(0, 3), rng.randint(0, 3)
            f = rand_form_pq(3, p, q, rng)
            image = laplacian_apply(HarmonicKind.D, f, iwasawa)
            if not image.is_zero():
                assert image.degree() == p + q

    def test_star_intertwines_bc_and_a(self, iwasawa):
        for idx in all_basis_monomials(3):
            m = mono(3, idx.hol, idx.anti)
            lhs = hodge_star(laplacian_apply(HarmonicKind.BC, m, iwasawa), iwasawa)
            rhs = laplacian_apply(HarmonicKind.A, hodge_star(m, iwasawa), iwasawa)
            assert lhs == rhs


class TestHarmonicSpace:
    def test_iwasawa_bc_21_known_basis(self, iwasawa):
        space = harmonic_space(HarmonicKind.BC, 2, 1, iwasawa)
        assert space.dim == 2
        want = [
            parse_form("phi[1,3;1] + phi[2,3;2]", 3),
            parse_form("phi[1,3;2] + phi[2,3;1] + (0,-2)*phi[2,3;2]", 3),
        ]
        assert space.basis == want

    def test_iwasawa_bc_10_and_L_image(self, iwasawa):
        space = harmonic_space(HarmonicKind.BC, 1, 0, iwasawa)
        assert space.basis == [mono(3, (3,))]
        lifted = fundamental_form(iwasawa).wedge(space.basis[0])
        want = parse_form("phi[1,3;1] + phi[2,3;2]", 3)
        assert form_subspace([lifted], 2, 1, iwasawa) == form_subspace([want], 2, 1, iwasawa)

    def test_flat_every_space_full(self, flat):
        for kind in HarmonicKind:
            for p in range(4):
                for q in range(4):
                    space = harmonic_space(kind, p, q, flat)
                    assert space.dim == math.comb(3, p) * math.comb(3, q)

    def test_symbolic_spec_rejected(self, torus):
        with pytest.raises(SymbolicCoefficients):
            harmonic_space(HarmonicKind.BC, 1, 1, torus)

    def test_all_cells_cross_checked(self, iwasawa, flat):
        # harmonic_space asserts condition-kernel == Laplacian-nullspace inside
        for spec in (iwasawa, flat):
            for kind in HarmonicKind:
                for p in range(4):
                    for q in range(4):
                        harmonic_space(kind, p, q, spec)

    def test_flat_kahler_all_kinds_agree(self, flat):
        for p in range(4):
            for q in range(4):
                spaces = [
                    form_subspace(harmonic_space(kind, p, q, flat).basis, p, q, flat)
                    for kind in HarmonicKind
                ]
                for space in spaces[1:]:
                    assert spaces[0] == space

    def test_star_duality_bc_a(self, iwasawa, flat):
        for spec in (iwasawa, flat):
            for p in range(4):
                for q in range(4):
                    bc = harmonic_space(HarmonicKind.BC, p, q, spec)
                    a = harmonic_space(HarmonicKind.A, 3 - q, 3 - p, spec)
                    starred = [hodge_star(f, spec) for f in bc.basis]
                    assert form_subspace(starred, 3 - q, 3 - p, spec) == form_subspace(
                        a.basis, 3 - q, 3 - p, spec
                    )

    def test_conjugation_symmetry_bc_bc2(self, iwasawa):
        # conj maps ker Delta_BC onto the kernel of the conjugated system
        for p in range(4):
            for q in range(4):
                bc = harmonic_space(HarmonicKind.BC, p, q, iwasawa)
                conjugated = [f.conjugate(iwasawa.table) for f in bc.basis]
                assert form_subspace(conjugated, q, p, iwasawa) == word_kernel(
                    CONJUGATED_WORDS["bc2"], q, p, iwasawa
                )
                a = harmonic_space(HarmonicKind.A, p, q, iwasawa)
                conjugated = [f.conjugate(iwasawa.table) for f in a.basis]
                assert form_subspace(conjugated, q, p, iwasawa) == word_kernel(
                    CONJUGATED_WORDS["a2"], q, p, iwasawa
                )

    @pytest.mark.parametrize("name", ["iwasawa_ak", "flat_kahler6", "iwasawa_cplx"])
    def test_conjugation_property(self, name):
        # conj H^{p,q}_del = H^{q,p}_delbar and conj H^{p,q}_d = H^{q,p}_d;
        # BC and A are not conjugation-symmetric when mu != 0, so their
        # conjugates are the conjugated systems bc2 and a2 at (q,p)
        spec = catalog(name)

        def conjugated(kind, p, q):
            basis = [f.conjugate(spec.table) for f in harmonic_space(kind, p, q, spec).basis]
            return form_subspace(basis, q, p, spec)

        def space(kind, p, q):
            return form_subspace(harmonic_space(kind, p, q, spec).basis, p, q, spec)

        for p in range(4):
            for q in range(4):
                k = HarmonicKind
                assert conjugated(k.DEL, p, q) == space(k.DELBAR, q, p), (p, q)
                assert conjugated(k.D, p, q) == space(k.D, q, p), (p, q)
                for kind, key in ((k.BC, "bc2"), (k.A, "a2")):
                    words = CONJUGATED_WORDS[key]
                    assert conjugated(kind, p, q) == word_kernel(words, q, p, spec), (p, q)

BLOCK_SPECS = ("iwasawa_ak", "flat_kahler6", "iwasawa_cplx")
_ZERO = GaussianRational(0)


def assert_block_matches_forms(columns, images):
    """The sparse block columns are exactly the coordinates of the Form images."""
    assert len(columns) == len(images)
    assert columns == [coordinates(f) for f in images]
    assert all(not x.is_zero() for c in columns for x in c.values())


def coordinates(form):
    """{monomial: Q(i) value} of a Form's terms, None for a symbolic one."""
    return {m: c.constant_value() for m, c in form.terms.items()}


def units(p, q):
    return [mono(3, m.hol, m.anti) for m in basis_multiindices(3, p, q)]


class TestOperatorBlocks:
    """The block-matrix path against the Form-level reference operators."""

    @pytest.mark.parametrize("name", BLOCK_SPECS)
    def test_laplacian_blocks_match_form_laplacian(self, name):
        spec = catalog(name)
        for kind in HarmonicKind:
            for p in range(4):
                for q in range(4):
                    columns = operator_columns(LAPLACIAN_WORDS[kind.value], p, q, spec)
                    images = [laplacian_apply(kind, u, spec) for u in units(p, q)]
                    assert_block_matches_forms(columns, images)

    @pytest.mark.parametrize("name", BLOCK_SPECS)
    def test_condition_blocks_match_is_harmonic_residuals(self, name):
        spec = catalog(name)
        for kind in HarmonicKind:
            words = CONDITION_WORDS[kind.value]
            for p in range(4):
                for q in range(4):
                    certs = [is_harmonic(kind, u, spec) for u in units(p, q)]
                    for i, word in enumerate(words):
                        assert certs[0].conditions[i].label == " ".join(word) + " a"
                        columns = operator_columns([word], p, q, spec)
                        assert_block_matches_forms(
                            columns, [c.conditions[i].residual for c in certs]
                        )

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(BLOCK_SPECS),
        kind=st.sampled_from(list(HarmonicKind)),
        p=st.integers(0, 3),
        q=st.integers(0, 3),
        data=st.data(),
    )
    def test_blocks_are_linear(self, name, kind, p, q, data):
        # the Form-level Laplacian of a constant-coefficient (p,q)-form is
        # the combination of the block columns with the form's coordinates
        spec = catalog(name)
        monomials = basis_multiindices(3, p, q)
        small = st.integers(-3, 3)
        coeffs = data.draw(
            st.lists(
                st.builds(G, small, small),
                min_size=len(monomials),
                max_size=len(monomials),
            )
        )
        form = Form.zero(3)
        for m, c in zip(monomials, coeffs):
            form = form + mono(3, m.hol, m.anti, c)
        combined = {}
        columns = operator_columns(LAPLACIAN_WORDS[kind.value], p, q, spec)
        for c, column in zip(coeffs, columns):
            for m, x in column.items():
                combined[m] = combined.get(m, _ZERO) + c * x
        image = laplacian_apply(kind, form, spec)
        assert coordinates(image) == {m: x for m, x in combined.items() if not x.is_zero()}


class TestCachedResults:
    def test_callers_cannot_corrupt_cached_bases(self, iwasawa):
        space = harmonic_space(HarmonicKind.BC, 2, 1, iwasawa)
        want = [dict(f.terms) for f in space.basis]
        space.basis[0].terms.clear()
        space.basis.clear()
        again = harmonic_space(HarmonicKind.BC, 2, 1, iwasawa)
        assert again.dim == 2
        assert [f.terms for f in again.basis] == want

        basis = primitive_basis(iwasawa, 1, 1)
        want = [dict(f.terms) for f in basis]
        basis[0].terms[next(iter(basis[0].terms))] = Coefficient.gauss(7)
        basis.clear()
        again = primitive_basis(iwasawa, 1, 1)
        assert len(again) == 8
        assert [f.terms for f in again] == want


class TestMembership:
    def test_every_word_names_a_known_operator(self):
        """is_harmonic and laplacian_apply apply these words with no check
        of their names per call, so the check is made here once."""
        from harmonica.hermitian import _OPERATORS

        for table in (CONDITION_WORDS, LAPLACIAN_WORDS):
            assert set(table) == {kind.value for kind in HarmonicKind}
            for words in table.values():
                assert words and all(type(word) is tuple and word for word in words)
                assert {op for word in words for op in word} <= _OPERATORS

    def test_torus_phi21_delbar_member(self, torus):
        cert = is_harmonic(HarmonicKind.DELBAR, mono(3, (2,), (1,)), torus)
        assert cert.verdict
        assert all(c.residual.is_zero() for c in cert.conditions)

    def test_torus_phi21_del_nonmember_residual(self, torus):
        cert = is_harmonic(HarmonicKind.DEL, mono(3, (2,), (1,)), torus)
        assert not cert.verdict
        failing = cert.first_failing()
        assert failing.label == "del a"
        assert failing.residual == mono(3, (1, 2), (3,), -Coefficient.symbol("g3c"))

    def test_torus_phi12_aeppli_nonmember_residual(self, torus):
        cert = is_harmonic(HarmonicKind.A, mono(3, (1,), (2,)), torus)
        assert not cert.verdict
        failing = cert.first_failing()
        assert failing.label == "del delbar a"
        g3g3c = Coefficient.symbol("g3") * Coefficient.symbol("g3c")
        # canonical reordering of -g3*g3c * phi^{3,3bar} wedge phi^{1,2bar}
        want = mono(3, (3,), (3,), -g3g3c).wedge(mono(3, (1,), (2,)))
        assert failing.residual == want
        assert want == mono(3, (1, 3), (2, 3), g3g3c)

    def test_membership_agrees_with_kernel(self, iwasawa, rng):
        for kind in HarmonicKind:
            space = harmonic_space(kind, 1, 1, iwasawa)
            for f in space.basis:
                assert is_harmonic(kind, f, iwasawa).verdict
            combo = Form.zero(3)
            for f in space.basis:
                combo = combo + f * G(rng.randint(1, 5), rng.randint(-3, 3))
            if not combo.is_zero():
                assert is_harmonic(kind, combo, iwasawa).verdict


class TestSymbolicLaplacians:
    def test_delbar_laplacian_vanishes_symbolically(self, torus):
        # delbar(a) = 0 and del(*a) = 0 make both Laplacian terms vanish
        # exactly, fresh derivative symbols and all
        f = mono(3, (2,), (1,))
        assert laplacian_apply(HarmonicKind.DELBAR, f, torus).is_zero()

    def test_bc_laplacian_nonzero_on_del_nonclosed(self, torus):
        f = mono(3, (2,), (1,))
        image = laplacian_apply(HarmonicKind.BC, f, torus)
        assert not image.is_zero()
        assert image.bidegree() == (1, 1)

    def test_depth_limit_surfaces(self, torus):
        import dataclasses

        from harmonica.errors import DepthExceeded
        from harmonica.scalars import DerivationTable

        shallow = dataclasses.replace(
            torus,
            table=DerivationTable(
                symbols=set(torus.table.symbols),
                conjugates=dict(torus.table.conjugates),
                entries=dict(torus.table.entries),
                depth_limit=1,
                auto_fresh=True,
            ),
        )
        f = mono(3, (2,), (1,), Coefficient.symbol("g3"))
        with pytest.raises(DepthExceeded):
            laplacian_apply(HarmonicKind.BC, f, shallow)


def _times_torus2(name):
    """The catalog spec times a flat 2-torus: one more generator with d = 0
    and omega coefficient 1."""
    doc = json.loads(catalog_document(name))
    n = doc["n"] + 1
    doc["generators"].append(f"phi{n}")
    doc["d"][f"phi{n}"] = []
    doc["omega"].append("1")
    doc["n"] = n
    doc["name"] = f"{name}_x_T2"
    return load_spec(doc)


class TestKunneth:
    """An independent check above n = 3: the invariant complex of X x T^2 is
    the tensor product of those of X and of T^2, whose (a,b) parts are one
    dimensional for a, b in {0, 1}, so every harmonic table of the product is
    h^{p,q}(X x T^2) = sum over a, b in {0, 1} of h^{p-a,q-b}(X)."""

    @pytest.mark.parametrize("name", ["iwasawa_ak", "iwasawa_cplx", "flat_kahler6"])
    def test_tables_of_a_product_with_a_torus(self, name):
        base = load_spec(catalog_document(name))
        product = _times_torus2(name)
        n = base.n

        def h(kind, p, q):
            if 0 <= p <= n and 0 <= q <= n:
                return harmonic_subspace(kind, p, q, base).dim
            return 0

        for kind in HarmonicKind:
            for p in range(n + 2):
                for q in range(n + 2):
                    expected = sum(h(kind, p - a, q - b) for a in (0, 1) for b in (0, 1))
                    assert harmonic_subspace(kind, p, q, product).dim == expected, (kind, p, q)


def _times_torus(name, k):
    """The catalog spec times a flat 2k-torus: k more generators, each with
    d = 0 and omega coefficient 1."""
    doc = json.loads(catalog_document(name))
    for a in range(doc["n"] + 1, doc["n"] + k + 1):
        doc["generators"].append(f"phi{a}")
        doc["d"][f"phi{a}"] = []
        doc["omega"].append("1")
    doc["n"] += k
    doc["name"] = f"{name}_x_T{2 * k}"
    return load_spec(doc)


@pytest.mark.parametrize(
    "name, k",
    [pytest.param(name, 2, id=name) for name in ("iwasawa_ak", "iwasawa_cplx", "flat_kahler6")]
    + [pytest.param(name, 3, id=f"{name}-k3") for name in ("iwasawa_cplx", "flat_kahler6")],
)
def test_tables_of_a_product_with_a_4_torus(name, k):
    """Kunneth at k = 2, and at k = 3 (n = 6) on iwasawa_cplx and
    flat_kahler6, the n = 6 products with the cheapest reports: the (a,b)
    parts of the invariant complex of T^2k have dimension C(k,a) C(k,b), so
    every harmonic table of X x T^2k is h^{p,q}(X x T^2k) = sum over a, b in
    {0, ..., k} of C(k,a) C(k,b) h^{p-a,q-b}(X)."""
    base = load_spec(catalog_document(name))
    product = _times_torus(name, k)
    n = base.n

    def h(kind, p, q):
        if 0 <= p <= n and 0 <= q <= n:
            return harmonic_subspace(kind, p, q, base).dim
        return 0

    for kind in HarmonicKind:
        for p in range(n + k + 1):
            for q in range(n + k + 1):
                expected = sum(
                    math.comb(k, a) * math.comb(k, b) * h(kind, p - a, q - b)
                    for a in range(k + 1)
                    for b in range(k + 1)
                )
                assert harmonic_subspace(kind, p, q, product).dim == expected, (kind, p, q)


def test_primitive_dimensions_at_n6():
    """Lambda maps the (p,q)-forms onto the (p-1,q-1)-forms when p + q <= n,
    for any Hermitian metric (the Lefschetz decomposition at a point), so
    the primitive (p,q)-forms have dimension C(n,p) C(n,q) - C(n,p-1)
    C(n,q-1), and Lambda annihilates each basis form.  At n = 6, with
    unequal metric weights, that checks kernels of blocks up to 400
    columns wide."""
    spec = _times_torus("flat_kahler6", 3).with_omega(("1", "2", "1/3", "5", "3/7", "1"))
    n = spec.n
    for p in range(n + 1):
        for q in range(n + 1 - p):
            image = math.comb(n, p - 1) * math.comb(n, q - 1) if p and q else 0
            basis = primitive_basis(spec, p, q)
            assert len(basis) == math.comb(n, p) * math.comb(n, q) - image, (p, q)
            assert all(lefschetz_lambda(form, spec).is_zero() for form in basis), (p, q)


def _relabelled_terms(terms, relabel):
    """d terms with every index a replaced by relabel(a)."""
    return [
        dict(t, hol=[relabel(i) for i in t["hol"]], anti=[relabel(i) for i in t["anti"]])
        for t in terms
    ]


def _product(x, y):
    """X x Y for two catalog specs: Y's generators follow X's, its indices
    shifted by X's n, and omega is the concatenation."""
    dx, dy = json.loads(catalog_document(x)), json.loads(catalog_document(y))
    n = dx["n"] + dy["n"]
    gens = [f"phi{a}" for a in range(1, n + 1)]
    d = {}
    for shift, doc in ((0, dx), (dx["n"], dy)):
        for a, g in enumerate(doc["generators"], start=1):
            d[gens[shift + a - 1]] = _relabelled_terms(doc["d"].get(g, []), lambda i: i + shift)
    return load_spec(
        {"name": f"{x}_x_{y}", "n": n, "generators": gens, "d": d,
         "omega": dx["omega"] + dy["omega"], "symbols": [], "conjugates": {}, "derivations": {}}
    )


def test_tables_of_a_product_of_two_non_flat_factors():
    """On X x Y with a product metric, d, del and delbar are sums of the
    factors' operators, so h^{p,q}(X x Y) = sum of h^{a,b}(X) h^{p-a,q-b}(Y)
    for their Laplacians.  The Bott-Chern Laplacian is not such a sum, and on
    iwasawa_cplx x iwasawa_ak the rule fails for it at some bidegree, so the
    comparison can tell a table from its prediction."""
    x, y = load_spec(catalog_document("iwasawa_cplx")), load_spec(catalog_document("iwasawa_ak"))
    product = _product("iwasawa_cplx", "iwasawa_ak")
    assert product.n == 6

    def predicted(kind, p, q):
        return sum(
            harmonic_subspace(kind, a, b, x).dim * harmonic_subspace(kind, p - a, q - b, y).dim
            for a in range(max(0, p - 3), min(p, 3) + 1)
            for b in range(max(0, q - 3), min(q, 3) + 1)
        )

    cells = [(p, q) for p in range(7) for q in range(7)]
    for kind in (HarmonicKind.D, HarmonicKind.DEL, HarmonicKind.DELBAR):
        for p, q in cells:
            assert harmonic_subspace(kind, p, q, product).dim == predicted(kind, p, q), (kind, p, q)
    assert any(
        harmonic_subspace(HarmonicKind.BC, p, q, product).dim != predicted(HarmonicKind.BC, p, q)
        for p, q in cells
    )


def _permuted(name, sigma):
    """The catalog spec with generator a relabelled sigma[a - 1]: each d
    entry and omega coefficient moves with its generator, and every index
    in the structure constants is relabelled to match."""
    doc = json.loads(catalog_document(name))
    gens, omega = doc["generators"], list(doc["omega"])
    d = {}
    for a, g in enumerate(gens, start=1):
        b = sigma[a - 1]
        d[gens[b - 1]] = _relabelled_terms(doc["d"].get(g, []), lambda i: sigma[i - 1])
        omega[b - 1] = doc["omega"][a - 1]
    return load_spec(dict(doc, d=d, omega=omega, name=f"{name}_permuted"))


@pytest.mark.parametrize("name", ["iwasawa_ak", "iwasawa_cplx", "flat_kahler6"])
def test_tables_do_not_depend_on_the_order_of_the_coframe(name):
    """Relabelling the generators gives an isomorphic almost Hermitian
    structure, so every harmonic table is unchanged; the relabelled
    operator matrices reach the elimination with their columns, and so
    their rows and pivots, in another order."""
    base = load_spec(catalog_document(name))
    seeded = random.Random(0).sample(range(1, 4), 3)
    assert seeded not in ([1, 2, 3], [3, 2, 1])
    for sigma in ([3, 2, 1], seeded):
        spec = _permuted(name, sigma)
        assert (dict(spec.d_gen) != dict(base.d_gen)) == (name != "flat_kahler6")
        for kind in HarmonicKind:
            for p in range(4):
                for q in range(4):
                    expected = harmonic_subspace(kind, p, q, base).dim
                    assert harmonic_subspace(kind, p, q, spec).dim == expected, (sigma, kind, p, q)


def _rescaled(name, lambdas):
    """The catalog spec in the coframe phi'^a = lambda_a phi^a, for nonzero
    Gaussian integers lambda_a.  The constant c of phi^{I,Jbar} in
    d(phi^a) becomes c lambda_a / (prod_{i in I} lambda_i prod_{j in J}
    conj(lambda_j)), and omega_a becomes omega_a / |lambda_a|^2, so J and
    omega, and with them the metric, are unchanged."""
    doc = json.loads(catalog_document(name))
    for a, g in enumerate(doc["generators"], start=1):
        for term in doc["d"][g]:
            c = G(term["coeff"]["re"], term["coeff"]["im"]) * lambdas[a - 1]
            for i in term["hol"]:
                c = c / lambdas[i - 1]
            for j in term["anti"]:
                c = c / lambdas[j - 1].conjugate()
            term["coeff"] = {"re": str(c.re), "im": str(c.im)}
    doc["omega"] = [
        str(Fraction(w) / (lam * lam.conjugate()).re) for w, lam in zip(doc["omega"], lambdas)
    ]
    return load_spec(dict(doc, name=f"{name}_rescaled"))


@pytest.mark.parametrize("name", ["iwasawa_ak", "iwasawa_cplx"])
def test_an_isometric_rescaling_of_the_coframe_changes_no_result(name):
    """Rescaling the coframe by Gaussian integers rewrites the structure
    constants and omega, but not the almost Hermitian structure: every
    harmonic table and every statement status stays the same."""
    base = load_spec(catalog_document(name))
    spec = _rescaled(name, [G(1, 1), G(2, -1), G(0, 3)])
    assert dict(spec.d_gen) != dict(base.d_gen) and spec.omega_coeffs != base.omega_coeffs
    for kind in HarmonicKind:
        for p in range(4):
            for q in range(4):
                expected = harmonic_subspace(kind, p, q, base).dim
                assert harmonic_subspace(kind, p, q, spec).dim == expected, (kind, p, q)
    statuses = [(r.statement, r.status) for r in all_statements(base)]
    assert [(r.statement, r.status) for r in all_statements(spec)] == statuses


# An integer unimodular change of coframe psi = A phi, and A^-1.
_A = ((0, 0, 0, 0, 1), (-1, 1, 1, 1, 2), (0, 0, 1, 0, 0), (1, -1, 0, 0, 0), (0, -1, -1, -1, -3))
_A_INV = ((-1, -1, 0, 0, -1), (-1, -1, 0, -1, -1), (0, 0, 1, 0, 0), (-2, 1, -1, 1, 0), (1, 0, 0, 0, 0))


def _in_coframe(spec, a, a_inv):
    """The spec's structure equations in the coframe psi = A phi, for a real
    integer unimodular A: d(psi^i) = sum_b A[i][b] d(phi^b), with each
    phi^b = sum_c A^-1[b][c] psi^c and phibar^b = sum_c A^-1[b][c] psibar^c
    wedged into d(phi^b)'s monomials.  omega is 1 on every psi^a."""
    n = spec.n
    hol = [sum((mono(n, (c,), (), x) for c, x in enumerate(row, 1) if x), Form.zero(n)) for row in a_inv]
    anti = [sum((mono(n, (), (c,), x) for c, x in enumerate(row, 1) if x), Form.zero(n)) for row in a_inv]
    d_phi = []
    for b in range(1, n + 1):
        out = Form.zero(n)
        for idx, c in spec.d_gen[b].terms.items():
            f = Form.scalar(n, c)
            for i in idx.hol:
                f = f.wedge(hol[i - 1])
            for j in idx.anti:
                f = f.wedge(anti[j - 1])
            out = out + f
        d_phi.append(out)
    d_psi = {}
    for i, row in enumerate(a, 1):
        d = sum((d_phi[b] * x for b, x in enumerate(row) if x), Form.zero(n))
        d_psi[i] = Form(n, {m: c for m, c in d.terms.items() if not c.is_zero()})
    return ManifoldSpec(
        name=f"{spec.name}_psi",
        n=n,
        generators=[f"psi{i}" for i in range(1, n + 1)],
        d_gen=d_psi,
        omega_coeffs=(1,) * n,
    )


def test_a_coframe_change_reduces_with_small_integers(monkeypatch):
    """iwasawa_ak x T^4 in the coframe psi = A phi has 48 terms of d, with
    complex structure constants whose Laplacian blocks built up common
    Gaussian-integer factors in the pivot rows when only the integer
    content was divided out: (1,1) blocks reached thousands of bits, and
    `report` did not finish.  Here del and bc at (1,1) are cross-checked
    with no reduction past 512 bits."""
    assert [[sum(x * y for x, y in zip(row, col)) for col in zip(*_A_INV)] for row in _A] == [
        [int(i == j) for j in range(5)] for i in range(5)
    ]
    spec = _in_coframe(_times_torus("iwasawa_ak", 2), _A, _A_INV)
    assert sum(len(form.terms) for form in spec.d_gen.values()) == 48
    assert check_integrability_relations(spec).ok
    fail_on_swell(monkeypatch, 512)
    assert harmonic_subspace(HarmonicKind.DEL, 1, 1, spec).dim == 12
    assert harmonic_subspace(HarmonicKind.BC, 1, 1, spec).dim == 12


# aff(1), the Lie algebra of the affine group of the line, with
# d phi^1 = phi^{1,1bar}.  It is not unimodular, so -*d* is not the adjoint
# of d on invariant forms: the assembled Laplacians vanish on every block,
# while d phi^1 != 0 keeps phi^1 and phi^1bar out of every condition kernel.
AFF1 = {
    "name": "aff1",
    "n": 1,
    "generators": ["phi1"],
    "d": {"phi1": [{"coeff": {"re": "1", "im": "0"}, "hol": [1], "anti": [1]}]},
    "omega": ["1"],
    "symbols": [],
    "conjugates": {},
    "derivations": {},
}


class TestCrossCheckDecision:
    """The condition kernel K equals ker Delta exactly when rref(Delta)
    annihilates K and dim K = m - rank Delta; on aff(1) the two truly
    differ in degree 1."""

    @pytest.mark.parametrize("kind", [k.value for k in HarmonicKind])
    def test_aff1_disagrees_in_degree_one(self, capsys, tmp_path, kind):
        path = tmp_path / "aff1.json"
        path.write_text(json.dumps(AFF1), encoding="utf-8")
        for p, q in ((0, 0), (1, 0), (0, 1), (1, 1)):
            code = main(["harmonics", str(path), "--laplacian", kind, "--bidegree", f"{p},{q}"])
            err = capsys.readouterr().err
            if p + q == 1:
                assert code == 1
                assert err == (
                    "cross-check failed: condition kernel and Laplacian nullspace "
                    f"disagree for {kind} at ({p},{q}) on 'aff1'\n"
                )
            else:
                assert (code, err) == (0, "")

    def test_aff1_condition_kernel_is_zero_where_laplacian_vanishes(self):
        spec = load_spec(AFF1)
        for kind in HarmonicKind:
            for p, q in ((1, 0), (0, 1)):
                columns = operator_columns(LAPLACIAN_WORDS[kind.value], p, q, spec)
                condition = word_kernel(CONDITION_WORDS[kind.value], p, q, spec)
                assert (condition.dim, sparse_kernel(sparse_rows(columns), 1).dim) == (0, 1)


class TestSymbolicDImages:
    """A block of d or one of its parts reads the cached split of d; on a
    symbolic spec it is refused where the kind's part has a symbol."""

    @pytest.mark.parametrize("words", [[("d",)], [("delbar",)]])
    def test_symbolic_d_images_are_refused(self, torus, words):
        with pytest.raises(SymbolicCoefficients, match="expected constant coefficients"):
            operator_columns(words, 1, 0, torus)

    @pytest.mark.parametrize("words", [[("del",)], [("mu",)], [("d", "*")]])
    def test_constant_parts_of_symbolic_d_are_read(self, torus, words):
        assert len(operator_columns(words, 1, 0, torus)) == 3
