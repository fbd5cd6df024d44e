import math
import random
from fractions import Fraction

import pytest

from harmonica import catalog, hermitian
from harmonica.errors import (
    DegreeTooHigh, HarmonicaError, NotHomogeneous, NotPrimitive, SymbolicCoefficients,
)
from harmonica.forms import Form, MultiIndex, basis_multiindices, parse_form
from harmonica.harmonic import HarmonicKind, harmonic_subspace
from harmonica.hermitian import (
    apply_word,
    form_subspace,
    fundamental_form,
    hodge_star,
    is_primitive,
    j_on_forms,
    lefschetz_image,
    lefschetz_L,
    lefschetz_lambda,
    monomial_inner_square,
    primitive_basis,
    primitive_decompose,
    primitive_subspace,
    subspace_forms,
    volume_form,
    weil_star_primitive,
)
from harmonica.linalg import rref
from harmonica.scalars import Coefficient, GaussianRational
from harmonica.structure import ManifoldSpec, all_basis_monomials

from conftest import rand_form_degree, rand_form_pq, rand_gauss


def G(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def mono(n, hol=(), anti=(), c=1):
    return Form.monomial(n, hol, anti, c)


def top_coefficient(form):
    n = form.n
    idx = MultiIndex(tuple(range(1, n + 1)), tuple(range(1, n + 1)))
    return form.coefficient(idx).constant_value()


class TestFundamentalForm:
    def test_iwasawa(self, iwasawa):
        want = sum(
            (mono(3, (a,), (a,), G(0, 1)) for a in (1, 2, 3)), Form.zero(3)
        )
        assert fundamental_form(iwasawa) == want

    def test_torus(self, torus):
        want = sum(
            (mono(3, (a,), (a,), G(0, Fraction(1, 2))) for a in (1, 2, 3)),
            Form.zero(3),
        )
        assert fundamental_form(torus) == want

    def test_real(self, iwasawa, torus):
        for spec in (iwasawa, torus):
            omega = fundamental_form(spec)
            assert omega.conjugate(spec.table) == omega


class TestHodgeStar:
    def test_star_one_is_volume(self, iwasawa):
        omega = fundamental_form(iwasawa)
        vol = omega.wedge(omega).wedge(omega) / Fraction(6)
        assert hodge_star(Form.scalar(3, 1), iwasawa) == vol
        assert volume_form(iwasawa) == vol

    def test_star_primitive_11_monomial(self, iwasawa):
        f = mono(3, (1,), (2,))
        assert hodge_star(f, iwasawa) == -fundamental_form(iwasawa).wedge(f)

    def test_star_omega(self, iwasawa):
        omega = fundamental_form(iwasawa)
        assert hodge_star(omega, iwasawa) == omega.wedge(omega) / Fraction(2)

    def test_defining_relation_all_pairs(self, iwasawa, torus):
        # alpha wedge *(conj beta) = <alpha, beta> vol on every monomial pair
        for spec in (iwasawa, torus):
            vol = volume_form(spec)
            for p in range(4):
                for q in range(4):
                    monomials = basis_multiindices(3, p, q)
                    for a in monomials:
                        fa = mono(3, a.hol, a.anti)
                        for b in monomials:
                            fb = mono(3, b.hol, b.anti)
                            lhs = fa.wedge(hodge_star(fb.conjugate(spec.table), spec))
                            if a == b:
                                assert lhs == vol * Fraction(monomial_inner_square(a, spec))
                            else:
                                assert lhs.is_zero()

    def test_double_star_all_monomials_and_random_metrics(self, iwasawa, rng):
        specs = [iwasawa]
        for _ in range(20):
            coeffs = tuple(
                Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3)
            )
            specs.append(iwasawa.with_omega(coeffs))
        for spec in specs:
            for idx in all_basis_monomials(3):
                m = mono(3, idx.hol, idx.anti)
                assert hodge_star(hodge_star(m, spec), spec) == m * ((-1) ** idx.degree)

    def test_norm_positivity(self, iwasawa, rng):
        vol_top = top_coefficient(volume_form(iwasawa))
        found = 0
        while found < 60:
            k = rng.randint(0, 6)
            a = rand_form_degree(3, k, rng, density=0.5)
            if a.is_zero():
                continue
            found += 1
            pairing = a.wedge(hodge_star(a.conjugate(), iwasawa))
            ratio = top_coefficient(pairing) / vol_top
            assert ratio.im == 0 and ratio.re > 0

    def test_bidegree_mapping(self, iwasawa):
        for p in range(4):
            for q in range(4):
                for idx in basis_multiindices(3, p, q):
                    got = hodge_star(mono(3, idx.hol, idx.anti), iwasawa)
                    assert got.bidegree() == (3 - q, 3 - p)


class TestJOperator:
    def test_identity_on_11(self, rng):
        f = rand_form_pq(3, 1, 1, rng)
        assert j_on_forms(f) == f

    def test_on_20(self):
        assert j_on_forms(mono(3, (1, 2))) == mono(3, (1, 2), c=-1)

    def test_star_on_middle_primitive(self, iwasawa):
        # for primitive alpha with p+q = n: *alpha = (-1)^(n(n+1)/2) i^(p-q) alpha
        n = 3
        for p in range(n + 1):
            q = n - p
            c = GaussianRational((-1) ** (n * (n + 1) // 2)) * GaussianRational.i_power(p - q)
            for beta in primitive_basis(iwasawa, p, q):
                assert hodge_star(beta, iwasawa) == beta * c


class TestLefschetz:
    def test_lambda_omega_is_n(self, iwasawa):
        omega = fundamental_form(iwasawa)
        assert lefschetz_lambda(omega, iwasawa) == Form.scalar(3, 3)

    def test_lambda_off_diagonal_zero(self, iwasawa):
        assert lefschetz_lambda(mono(3, (2,), (1,)), iwasawa).is_zero()

    def test_p0_forms_primitive(self, iwasawa):
        for p in range(4):
            for idx in basis_multiindices(3, p, 0):
                assert is_primitive(mono(3, idx.hol, idx.anti), iwasawa)

    def test_L_kill_exponent_on_primitive(self, iwasawa):
        for p in range(4):
            for q in range(4 - p):
                k = p + q
                for beta in primitive_basis(iwasawa, p, q):
                    f = beta
                    for _ in range(3 - k + 1):
                        f = lefschetz_L(f, iwasawa)
                    assert f.is_zero()

    def test_degree_too_high(self, iwasawa):
        with pytest.raises(DegreeTooHigh):
            is_primitive(mono(3, (1, 2), (1, 2)), iwasawa)

    def test_primitive_subspace_degree_too_high(self, iwasawa):
        with pytest.raises(DegreeTooHigh) as refused:
            primitive_subspace(iwasawa, 2, 2)
        assert str(refused.value) == "primitive forms need p+q <= n = 3"

    def test_L_rank_profile(self, iwasawa):
        # L^h injective for h+k <= n, surjective for h+k >= n
        n = 3
        for k in range(0, 2 * n + 1):
            source = [
                idx
                for kk in [k]
                for p in range(max(0, kk - n), min(kk, n) + 1)
                for idx in basis_multiindices(n, p, kk - p)
            ]
            for h in range(0, n + 2):
                if k + 2 * h > 2 * n:
                    continue
                target = [
                    idx
                    for p in range(max(0, k + 2 * h - n), min(k + 2 * h, n) + 1)
                    for idx in basis_multiindices(n, p, k + 2 * h - p)
                ]
                rows = []
                for idx in source:
                    f = mono(n, idx.hol, idx.anti)
                    for _ in range(h):
                        f = lefschetz_L(f, iwasawa)
                    rows.append({j: f.coefficient(t).constant_value() for j, t in enumerate(target)})
                r = rref(rows, len(target)).dim
                if h + k <= n:
                    assert r == len(source), (k, h)
                if h + k >= n:
                    assert r == len(target), (k, h)


class TestWeilFormula:
    def test_constant(self, iwasawa):
        assert weil_star_primitive(Form.scalar(3, 1), 0, iwasawa) == volume_form(iwasawa)

    def test_primitive_11(self, iwasawa):
        beta = mono(3, (1,), (2,))
        got = weil_star_primitive(beta, 0, iwasawa)
        assert got == -fundamental_form(iwasawa).wedge(beta)
        assert got == hodge_star(beta, iwasawa)

    def test_agrees_with_star_on_bases(self, iwasawa, torus):
        for spec in (iwasawa, torus):
            for p in range(4):
                for q in range(4 - p):
                    for beta in primitive_basis(spec, p, q):
                        for r in range(0, 3 - (p + q) + 1):
                            f = beta
                            for _ in range(r):
                                f = lefschetz_L(f, spec)
                            assert weil_star_primitive(beta, r, spec) == hodge_star(f, spec)

    def test_agrees_on_random_primitive_forms(self, iwasawa, rng):
        # random Q(i) combinations of the primitive bases
        count = 0
        while count < 120:
            p = rng.randint(0, 3)
            q = rng.randint(0, 3 - p)
            basis = primitive_basis(iwasawa, p, q)
            if not basis:
                continue
            beta = Form.zero(3)
            for b in basis:
                if rng.random() < 0.7:
                    beta = beta + b * rand_gauss(rng)
            if beta.is_zero():
                continue
            count += 1
            r = rng.randint(0, 3 - (p + q))
            f = beta
            for _ in range(r):
                f = lefschetz_L(f, iwasawa)
            assert weil_star_primitive(beta, r, iwasawa) == hodge_star(f, iwasawa)

    def test_rejects_non_primitive(self, iwasawa):
        with pytest.raises(NotPrimitive):
            weil_star_primitive(fundamental_form(iwasawa), 0, iwasawa)

    def test_rejects_degree_above_n(self, iwasawa):
        with pytest.raises(DegreeTooHigh) as refused:
            weil_star_primitive(mono(3, (1, 2), (1, 2)), 0, iwasawa)
        assert str(refused.value) == "primitive forms have degree <= n = 3"

    @pytest.mark.parametrize("r", [-1, 3])
    def test_rejects_power_out_of_range(self, iwasawa, r):
        with pytest.raises(ValueError) as refused:
            weil_star_primitive(mono(3, (1,), ()), r, iwasawa)
        assert str(refused.value) == f"need 0 <= r <= n-k, got r={r}, k=1, n=3"


class TestPrimitiveDecomposition:
    def test_spec_example_11(self, iwasawa):
        f = mono(3, (1,), (1,), G(0, 1))
        decomp = primitive_decompose(f, iwasawa)
        parts = dict(decomp.parts)
        assert set(parts) == {0, 1}
        assert parts[1] == Form.scalar(3, Fraction(1, 3))
        gamma = f - fundamental_form(iwasawa) * Fraction(1, 3)
        assert parts[0] == gamma
        assert lefschetz_lambda(gamma, iwasawa).is_zero()

    def test_primitive_input_passthrough(self, iwasawa, rng):
        basis = primitive_basis(iwasawa, 2, 1)
        beta = basis[0] + basis[-1] * G(0, 2)
        decomp = primitive_decompose(beta, iwasawa)
        assert decomp.parts == [(0, beta)]

    def test_omega_squared(self, iwasawa):
        omega = fundamental_form(iwasawa)
        decomp = primitive_decompose(omega.wedge(omega), iwasawa)
        assert decomp.parts == [(2, Form.scalar(3, 2))]

    def test_round_trip_500_random(self, iwasawa, rng):
        for trial in range(500):
            k = trial % 7
            f = rand_form_degree(3, k, rng, density=0.4)
            decomp = primitive_decompose(f, iwasawa)
            assert decomp.reassemble(iwasawa) == f
            for r, beta in decomp.parts:
                assert r >= max(k - 3, 0)
                assert not beta.is_zero()
                assert is_primitive(beta, iwasawa)

    def test_decompose_of_reassembled_components(self, iwasawa, rng):
        # build explicit primitive components, reassemble, decompose: identity
        from harmonica.hermitian import PrimitiveComponents

        for _ in range(30):
            k = rng.randint(0, 6)
            parts = []
            for r in range(max(k - 3, 0), k // 2 + 1):
                beta = Form.zero(3)
                for p in range(max(0, k - 2 * r - 3), min(k - 2 * r, 3) + 1):
                    for b in primitive_basis(iwasawa, p, k - 2 * r - p):
                        if rng.random() < 0.4:
                            beta = beta + b * rand_gauss(rng)
                if not beta.is_zero():
                    parts.append((r, beta))
            if not parts:
                continue
            built = PrimitiveComponents(k, parts)
            back = primitive_decompose(built.reassemble(iwasawa), iwasawa)
            assert back.parts == parts

    def test_unique_against_independent_solve(self, iwasawa, rng):
        # decomposition components are linear in the input: check additivity
        for _ in range(40):
            k = rng.randint(0, 6)
            a = rand_form_degree(3, k, rng, density=0.4)
            b = rand_form_degree(3, k, rng, density=0.4)
            da = dict(primitive_decompose(a, iwasawa).parts)
            db = dict(primitive_decompose(b, iwasawa).parts)
            dab = dict(primitive_decompose(a + b, iwasawa).parts)
            for r in set(da) | set(db) | set(dab):
                za = da.get(r, Form.zero(3))
                zb = db.get(r, Form.zero(3))
                assert dab.get(r, Form.zero(3)) == za + zb


class TestSymbolicMetricLayer:
    def test_star_is_coefficient_linear(self, torus):
        from harmonica.scalars import Coefficient

        g3 = Coefficient.symbol("g3")
        f = mono(3, (1,), (2,))
        assert hodge_star(f * g3, torus) == hodge_star(f, torus) * g3

    def test_rows_need_constant_coefficients(self, torus):
        form = Form.monomial(3, (1,), (), Coefficient.symbol("g3"))
        with pytest.raises(SymbolicCoefficients) as refused:
            form_subspace([form], 1, 0, torus)
        assert str(refused.value) == "expected constant coefficients"

    def test_primitive_decompose_symbolic(self, torus):
        from harmonica.scalars import Coefficient

        g3 = Coefficient.symbol("g3")
        f = mono(3, (1,), (1,), G(0, 1))
        plain = primitive_decompose(f, torus)
        scaled = primitive_decompose(f * g3, torus)
        assert [(r, beta * g3) for r, beta in plain.parts] == scaled.parts
        assert scaled.reassemble(torus) == f * g3


def hermitian_inner(a, b, spec):
    """<a, b> for constant forms: distinct monomials are orthogonal."""
    total = GaussianRational(0)
    for idx, ca in a.terms.items():
        cb = b.coefficient(idx).constant_value()
        total = total + ca.constant_value() * cb.conjugate() * monomial_inner_square(idx, spec)
    return total


class TestLambdaIsTheAdjointOfL:
    @pytest.mark.parametrize("omega", [None, (2, 3, 5)], ids=["iwasawa_ak", "omega-2-3-5"])
    def test_adjoint_on_every_degree(self, iwasawa, rng, omega):
        spec = iwasawa if omega is None else iwasawa.with_omega(omega)
        for k in range(0, 5):
            for _ in range(6):
                a = rand_form_degree(3, k, rng)
                b = rand_form_degree(3, k + 2, rng)
                assert hermitian_inner(lefschetz_L(a, spec), b, spec) == hermitian_inner(
                    a, lefschetz_lambda(b, spec), spec
                )

    @pytest.mark.parametrize("omega", [None, (2, 3, 5)], ids=["iwasawa_ak", "omega-2-3-5"])
    def test_commutator(self, iwasawa, rng, omega):
        spec = iwasawa if omega is None else iwasawa.with_omega(omega)
        for k in range(0, 7):
            for _ in range(4):
                a = rand_form_degree(3, k, rng)
                la = lefschetz_L(lefschetz_lambda(a, spec), spec)
                al = lefschetz_lambda(lefschetz_L(a, spec), spec)
                assert la - al == a * (k - 3)

    def test_other_ambient_is_refused(self, iwasawa):
        form = mono(2, (1,), (2,))
        for op in (hodge_star, lefschetz_L, lefschetz_lambda):
            with pytest.raises(ValueError, match="ambient mismatch"):
                op(form, iwasawa)


def reference_volume(spec):
    """omega^n / n! by Form wedges."""
    out = Form.scalar(spec.n, 1)
    for _ in range(spec.n):
        out = out.wedge(fundamental_form(spec))
    return out / math.factorial(spec.n)


def reference_star_table(spec):
    """The star of every unit monomial from the defining relation, with Forms:
    for m = phi^{I,Jbar} the only monomial pairing nontrivially against *m is
    phi^{J,Ibar}, so *m = t * phi^{Jc,Icbar} with t fixed by
    phi^{J,Ibar} wedge *m = <phi^{J,Ibar}, conj m> vol."""
    n = spec.n
    vol_coeff = top_coefficient(reference_volume(spec))
    full = tuple(range(1, n + 1))
    table = {}
    for idx in all_basis_monomials(n):
        hol_c = tuple(a for a in full if a not in idx.anti)
        anti_c = tuple(a for a in full if a not in idx.hol)
        pairing = mono(n, idx.anti, idx.hol).wedge(mono(n, hol_c, anti_c))
        weight = G(monomial_inner_square(idx, spec))
        t = weight * (-1) ** (idx.p * idx.q) * vol_coeff / top_coefficient(pairing)
        table[idx] = {MultiIndex(hol_c, anti_c): t}
    return table


def closed_form_specs():
    """Flat specs for n = 1..4 (star and L do not see d), each with omega = 1
    and three seeded non-unit omegas."""
    rng = random.Random(5150)
    for n in (1, 2, 3, 4):
        base = ManifoldSpec(
            name=f"flat{2 * n}", n=n, generators=[f"phi{a}" for a in range(1, n + 1)],
            d_gen={}, omega_coeffs=(1,) * n,
        )
        yield base
        for _ in range(3):
            yield base.with_omega(
                [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
            )


class TestClosedFormImages:
    """The star and L images of each unit monomial, built by sign arithmetic
    on the index tuples, against Form wedges.  Even n is where i^n and
    (-1)^(n(n-1)/2) differ in sign from n = 3."""

    @pytest.mark.parametrize("spec", list(closed_form_specs()), ids=lambda s: s.name)
    def test_star_and_L_of_every_monomial(self, spec):
        assert volume_form(spec) == reference_volume(spec)
        table = reference_star_table(spec)
        omega = fundamental_form(spec)
        for idx in all_basis_monomials(spec.n):
            assert hermitian._image("*", idx, spec) == table[idx]
            wedge = omega.wedge(mono(spec.n, idx.hol, idx.anti))
            want = {m: c.constant_value() for m, c in wedge.terms.items()}
            assert hermitian._image("L", idx, spec) == want



class TestFormSubspace:
    """form_subspace spans constant-coefficient (p,q)-forms of the spec's own
    algebra and refuses anything else instead of dropping it."""

    def test_term_outside_the_bidegree_is_refused(self, iwasawa):
        with pytest.raises(NotHomogeneous) as refused:
            form_subspace([parse_form("phi[1;] + phi[;1]", 3)], 1, 0, iwasawa)
        assert str(refused.value) == "phi[;1] is not a (1,0) monomial"

    def test_form_of_another_bidegree_is_refused(self, iwasawa):
        with pytest.raises(NotHomogeneous) as refused:
            form_subspace([parse_form("phi[;1]", 3)], 1, 0, iwasawa)
        assert str(refused.value) == "phi[;1] is not a (1,0) monomial"

    def test_foreign_ambient_algebra_is_refused(self, iwasawa):
        with pytest.raises(ValueError) as refused:
            form_subspace([parse_form("phi[1;]", 4)], 1, 0, iwasawa)
        assert str(refused.value) == "ambient mismatch: n=3 vs n=4"

    def test_symbolic_term_outside_the_basis_is_refused(self, iwasawa):
        with pytest.raises(HarmonicaError):
            form_subspace([parse_form("g*phi[;2]", 3)], 1, 0, iwasawa)


@pytest.mark.parametrize("name", ["iwasawa_ak", "flat_kahler6", "iwasawa_cplx"])
def test_lefschetz_image_matches_the_form_route(name):
    """L^r of every primitive space and of the BC and A harmonic spaces,
    from the operator columns, equals the span of L^r applied to each basis
    Form by apply_word, for every r with p+r, q+r <= n."""
    spec = catalog(name)
    n = spec.n
    spaces = [
        (space, p, q)
        for p in range(n + 1)
        for q in range(n + 1)
        for space in (
            *([primitive_subspace(spec, p, q)] if p + q <= n else []),
            harmonic_subspace(HarmonicKind.BC, p, q, spec),
            harmonic_subspace(HarmonicKind.A, p, q, spec),
        )
    ]
    checked = 0
    for space, p, q in spaces:
        for r in range(n - max(p, q) + 1):
            image = lefschetz_image(space, p, q, r, spec)
            forms = [apply_word(("L",) * r, f, spec) for f in subspace_forms(space, p, q, spec)]
            assert image == form_subspace(forms, p + r, q + r, spec), (p, q, r)
            assert image.ncols == len(basis_multiindices(n, p + r, q + r))
            checked += 1
    assert checked == 83
