import dataclasses
import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from harmonica.errors import HarmonicaError, ValidationError
from harmonica.forms import Form, MultiIndex, _combine, _wedge_monomials
from harmonica import structure, theorems
from harmonica.hermitian import fundamental_form
from harmonica.library import CATALOG_NAMES, _golden_text, catalog, load_spec
from harmonica.report import REFUTED, VERIFIED, CheckItem, VerificationReport
from harmonica.scalars import Coefficient, DerivationTable, Direction, GaussianRational
from harmonica.structure import (
    ManifoldSpec,
    _d_squared_parts,
    OperatorKind,
    all_basis_monomials,
    check_almost_kahler,
    check_integrability_relations,
    d_by_shift,
    differential_component,
    exterior_d,
    is_integrable,
)

from conftest import homogeneous_parts, rand_form_any


def G(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def mono(n, hol=(), anti=(), c=1):
    return Form.monomial(n, hol, anti, c)


def broken_n1_spec():
    """d phi^1 = phi^1bar forces d^2 phi^1 = phi^1 != 0."""
    return ManifoldSpec(
        name="broken",
        n=1,
        generators=["phi1"],
        d_gen={1: Form.monomial(1, (), (1,))},
        omega_coeffs=(1,),
    )


class TestExteriorD:
    def test_dphi3_zero_iwasawa(self, iwasawa):
        assert exterior_d(mono(3, (3,)), iwasawa).is_zero()

    def test_torus_dphi1(self, torus):
        got = exterior_d(mono(3, (1,)), torus)
        want = mono(3, (3,), (1,), Coefficient.symbol("g3")) + mono(
            3, (), (1, 3), -Coefficient.symbol("g3c")
        )
        assert got == want

    def test_leibniz_on_phi13(self, iwasawa):
        # d phi^3 = 0, so d(phi^{13}) = d(phi^1) wedge phi^3
        got = exterior_d(mono(3, (1, 3)), iwasawa)
        want = exterior_d(mono(3, (1,)), iwasawa).wedge(mono(3, (3,)))
        assert got == want

    def test_leibniz_random(self, iwasawa, rng):
        for _ in range(60):
            a = rand_form_any(3, rng, density=0.2)
            b = rand_form_any(3, rng, density=0.2)
            ah = homogeneous_parts(a)
            lhs = exterior_d(a.wedge(b), iwasawa)
            rhs = exterior_d(a, iwasawa).wedge(b)
            for (p, q), part in ah.items():
                rhs = rhs + part.wedge(exterior_d(b, iwasawa)) * ((-1) ** (p + q))
            assert lhs == rhs

    def test_d_squared_all_monomials(self, iwasawa, torus):
        for spec in (iwasawa, torus):
            monomials = all_basis_monomials(3)
            assert len(monomials) == 64
            for idx in monomials:
                m = mono(3, idx.hol, idx.anti)
                assert exterior_d(exterior_d(m, spec), spec).is_zero()


class TestComponents:
    def test_torus_del_phi_2_1bar(self, torus):
        f = mono(3, (2,), (1,))
        got = differential_component(f, OperatorKind.DEL, torus)
        want = mono(3, (1, 2), (3,), -Coefficient.symbol("g3c"))
        assert got == want

    def test_torus_delbar_phi_2_1bar(self, torus):
        f = mono(3, (2,), (1,))
        assert differential_component(f, OperatorKind.DELBAR, torus).is_zero()

    def test_iwasawa_mubar_phi1(self, iwasawa):
        got = differential_component(mono(3, (1,)), OperatorKind.MUBAR, iwasawa)
        want = mono(3, (), (1, 3), G(Fraction(1, 4))) + mono(
            3, (), (2, 3), G(0, Fraction(-1, 4))
        )
        assert got == want

    def test_component_sum_is_d(self, iwasawa, torus, rng):
        kinds = (OperatorKind.MU, OperatorKind.DEL, OperatorKind.DELBAR, OperatorKind.MUBAR)
        for spec in (iwasawa, torus):
            for _ in range(250):
                f = rand_form_any(3, rng, density=0.25)
                total = Form.zero(3)
                for kind in kinds:
                    total = total + differential_component(f, kind, spec)
                assert total == exterior_d(f, spec)

    def test_other_ambient_is_refused(self, iwasawa):
        smaller = mono(2, (1,))
        with pytest.raises(ValueError, match="ambient mismatch"):
            exterior_d(smaller, iwasawa)
        for kind in OperatorKind:
            with pytest.raises(ValueError, match="ambient mismatch"):
                differential_component(smaller, kind, iwasawa)

    def test_conjugation_intertwines_components(self, iwasawa, torus):
        pairs = [
            (OperatorKind.D, OperatorKind.D),
            (OperatorKind.DEL, OperatorKind.DELBAR),
            (OperatorKind.MU, OperatorKind.MUBAR),
        ]
        for spec in (iwasawa, torus):
            for idx in all_basis_monomials(3):
                m = mono(3, idx.hol, idx.anti)
                mc = m.conjugate(spec.table)
                for k1, k2 in pairs:
                    lhs = differential_component(m, k1, spec).conjugate(spec.table)
                    rhs = differential_component(mc, k2, spec)
                    assert lhs == rhs


class TestChecks:
    def test_integrability_golden(self, iwasawa, torus, flat, cplx):
        for spec in (iwasawa, torus, flat, cplx):
            assert check_integrability_relations(spec).status == VERIFIED

    def test_integrability_failure_witness(self):
        report = check_integrability_relations(broken_n1_spec())
        assert report.status == REFUTED
        d2 = next(item for item in report.items if item.name == "d^2")
        assert not d2.ok
        assert d2.witness == Form.monomial(1, (1,))
        assert d2.residual == Form.monomial(1, (1,))

    def test_almost_kahler_flags(self, iwasawa, torus, flat, cplx):
        rep = check_almost_kahler(iwasawa)
        assert rep.status == VERIFIED and not rep.data["integrable"]
        rep = check_almost_kahler(torus)
        assert rep.status == VERIFIED and not rep.data["integrable"]
        rep = check_almost_kahler(flat)
        assert rep.status == VERIFIED and rep.data["integrable"]
        # the integrable Iwasawa coframe is a complex structure, but the
        # diagonal omega is not closed there
        rep = check_almost_kahler(cplx)
        assert rep.data["integrable"]
        assert rep.status == REFUTED and not rep.data["almost_kahler"]

    def test_d_omega_is_built_once_per_spec(self, monkeypatch):
        """check_almost_kahler and the statements read one cached d omega,
        which is also the residual of a failing item."""
        assert theorems.is_almost_kahler is structure.is_almost_kahler
        calls = []
        d = structure.exterior_d
        monkeypatch.setattr(structure, "exterior_d", lambda f, spec: calls.append(f) or d(f, spec))
        for name, closed in (("iwasawa_ak", True), ("iwasawa_cplx", False)):
            spec = load_spec(_golden_text(name))
            omega = fundamental_form(spec)
            calls.clear()
            reports = [check_almost_kahler(spec) for _ in range(2)]
            assert structure.is_almost_kahler(spec) is closed
            assert calls == [omega]
            for rep in reports:
                (item,) = rep.items
                assert item.ok is closed and rep.data["almost_kahler"] is closed
                assert item.witness == (None if closed else omega)
                assert item.residual == (None if closed else d(omega, spec))
                assert closed or not item.residual.is_zero()

    def test_d_omega_of_a_spec_that_is_not_almost_kahler_is_built_once(self, monkeypatch):
        spec = catalog("iwasawa_ak").with_omega([1, 2, 3])
        calls = []
        d = structure.exterior_d
        monkeypatch.setattr(structure, "exterior_d", lambda f, spec: calls.append(f) or d(f, spec))
        report = check_almost_kahler(spec)
        assert report.status == REFUTED and not structure.is_almost_kahler(spec)
        assert calls == [fundamental_form(spec)]

    def test_d_omega_of_a_spec_with_d_zero_runs_no_pass(self, monkeypatch):
        """Where every d(phi^a) vanishes, d omega = 0 with no d pass, and
        the zero is read-only like any shared d omega."""
        flat8 = ManifoldSpec(
            name="flat8", n=4, generators=["a", "b", "c", "e"], d_gen={}, omega_coeffs=(1,) * 4
        )
        calls = []
        d = structure.exterior_d
        monkeypatch.setattr(structure, "exterior_d", lambda f, spec: calls.append(f) or d(f, spec))
        for spec in (flat8, load_spec(_golden_text("flat_kahler6"))):
            assert structure.is_almost_kahler(spec)
            rep = check_almost_kahler(spec)
            assert rep.status == VERIFIED and rep.data["almost_kahler"]
            zero = structure._d_omega(spec)
            assert zero == Form.zero(spec.n)
            with pytest.raises(AttributeError):
                zero.terms = {}
        assert calls == []

    def test_the_residual_refuses_writes(self):
        """The residual is the spec's cached d omega, so it is read-only."""
        spec = catalog("iwasawa_ak").with_omega([1, 2, 3])
        (item,) = check_almost_kahler(spec).items
        residual = item.residual
        expected = exterior_d(fundamental_form(spec), spec)
        assert residual == expected and not residual.is_zero()
        idx, c = next(iter(residual.terms.items()))
        with pytest.raises(TypeError):
            residual.terms[idx] = c + c
        with pytest.raises(AttributeError):
            residual.terms = {}
        (again,) = check_almost_kahler(spec).items
        assert again.residual == residual == expected

    def test_mutated_constant_fails(self, iwasawa):
        mutated = {a: f for a, f in iwasawa.d_gen.items()}
        mutated[1] = mutated[1] + Form.monomial(3, (1, 3), (), G(Fraction(1, 4)))
        spec = ManifoldSpec(
            name="mutated",
            n=3,
            generators=list(iwasawa.generators),
            d_gen=mutated,
            omega_coeffs=iwasawa.omega_coeffs,
            table=iwasawa.table,
        )
        assert check_integrability_relations(spec).status == REFUTED

    def test_positive_coefficients_required(self):
        with pytest.raises(ValidationError):
            ManifoldSpec(
                name="bad",
                n=1,
                generators=["phi1"],
                d_gen={},
                omega_coeffs=(0,),
            )

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(n=0, generators=[], omega_coeffs=()), "n must be >= 1"),
            (dict(n=2, generators=["phi1"], omega_coeffs=(1, 1)), "need exactly 2 generator names"),
            (dict(n=2, generators=["phi1", "phi2"], omega_coeffs=(1,)), "need exactly 2 omega coefficients"),
            (
                dict(n=1, generators=["phi1"], omega_coeffs=(1,), d_gen={1: Form.zero(2)}),
                "d(gen 1) lives in the wrong ambient algebra",
            ),
        ],
    )
    def test_spec_fields_are_checked(self, fields, message):
        with pytest.raises(ValidationError) as refused:
            ManifoldSpec(**{"name": "bad", "d_gen": {}, **fields})
        assert str(refused.value) == message

    def test_d_omega_zero_on_ak_specs(self, iwasawa, torus, flat):
        for spec in (iwasawa, torus, flat):
            assert exterior_d(fundamental_form(spec), spec).is_zero()


# The d^2 = 0 relations written out as compositions of the Form-level
# components: the definition that check_integrability_relations (which reads
# them as the bidegree parts of one d^2 per monomial) and is_integrable must
# reproduce exactly, witness and residual included.


def reference_identities(spec):
    mu = lambda f: differential_component(f, OperatorKind.MU, spec)
    de = lambda f: differential_component(f, OperatorKind.DEL, spec)
    db = lambda f: differential_component(f, OperatorKind.DELBAR, spec)
    mb = lambda f: differential_component(f, OperatorKind.MUBAR, spec)
    return [
        ("d^2", lambda f: exterior_d(exterior_d(f, spec), spec)),
        ("mu^2", lambda f: mu(mu(f))),
        ("mu del + del mu", lambda f: mu(de(f)) + de(mu(f))),
        ("del^2 + mu delbar + delbar mu", lambda f: de(de(f)) + mu(db(f)) + db(mu(f))),
        (
            "del delbar + delbar del + mu mubar + mubar mu",
            lambda f: de(db(f)) + db(de(f)) + mu(mb(f)) + mb(mu(f)),
        ),
        ("delbar^2 + mubar del + del mubar", lambda f: db(db(f)) + mb(de(f)) + de(mb(f))),
        ("mubar delbar + delbar mubar", lambda f: mb(db(f)) + db(mb(f))),
        ("mubar^2", lambda f: mb(mb(f))),
    ]


def reference_report(spec):
    bad = [
        a for a in range(1, spec.n + 1) if not spec.d_gen[a].is_zero() and spec.d_gen[a].degree() != 2
    ]
    items = [
        CheckItem("d(generators) are 2-forms", not bad, witness=spec.d_gen[bad[0]] if bad else None)
    ]
    for name, op in reference_identities(spec):
        ok, witness, residual = True, None, None
        for idx in all_basis_monomials(spec.n):
            m = mono(spec.n, idx.hol, idx.anti)
            value = op(m)
            if not value.is_zero():
                ok, witness, residual = False, m, value
                break
        items.append(CheckItem(name, ok, witness=witness, residual=residual))
    status = VERIFIED if all(i.ok for i in items) else REFUTED
    return VerificationReport(f"integrability:{spec.name}", status, items=items)


def reference_is_integrable(spec):
    return all(
        differential_component(mono(spec.n, idx.hol, idx.anti), kind, spec).is_zero()
        for idx in all_basis_monomials(spec.n)
        for kind in (OperatorKind.MU, OperatorKind.MUBAR)
    )


def assert_matches_reference(spec):
    assert check_integrability_relations(spec).to_dict() == reference_report(spec).to_dict()
    assert is_integrable(spec) == reference_is_integrable(spec)


TORUS_SYMBOLS = ("g3", "g3c", "g33", "g33c", "g3b3")
small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
gauss = st.builds(G, small, small).filter(lambda g: not g.is_zero())


@st.composite
def coefficients(draw):
    """A nonzero Q(i) constant, or one times a torus6 symbol."""
    c = Coefficient.coerce(draw(gauss))
    symbol = draw(st.one_of(st.none(), st.sampled_from(TORUS_SYMBOLS)))
    return c if symbol is None else c * Coefficient.symbol(symbol)


@st.composite
def random_specs(draw, table):
    """n <= 3, mostly 3; each d(generator) has up to four terms of degree 1
    to 3."""
    n = draw(st.sampled_from([3, 3, 2, 1]))
    d_gen = {}
    for a in range(1, n + 1):
        form = Form.zero(n)
        for _ in range(draw(st.integers(0, 4))):
            degree = draw(st.integers(1, min(3, 2 * n)))
            p = draw(st.integers(max(0, degree - n), min(degree, n)))
            hol = draw(st.sampled_from(list(itertools.combinations(range(1, n + 1), p))))
            anti = draw(
                st.sampled_from(list(itertools.combinations(range(1, n + 1), degree - p)))
            )
            form = form + mono(n, hol, anti, draw(coefficients()))
        d_gen[a] = form
    return ManifoldSpec(
        name="random",
        n=n,
        generators=[f"phi{a}" for a in range(1, n + 1)],
        d_gen=d_gen,
        omega_coeffs=(1,) * n,
        table=table,
    )


class TestIntegrabilityOracle:
    def test_named_specs(self, iwasawa, torus, flat, cplx):
        mutated = dict(iwasawa.d_gen)
        mutated[1] = mutated[1] + mono(3, (1, 3), (), G(Fraction(1, 4)))
        mutated_spec = dataclasses.replace(iwasawa, name="mutated", d_gen=mutated)
        for spec in (iwasawa, torus, flat, cplx, broken_n1_spec(), mutated_spec):
            assert_matches_reference(spec)
        assert check_integrability_relations(mutated_spec).status == REFUTED

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_random_specs(self, torus, data):
        assert_matches_reference(data.draw(random_specs(torus.table)))


# An independent d: the Leibniz rule written out from the structure equations
# alone (spec.d_gen, conjugation, Coefficient.derive and wedge), with none of
# the engine's caches or splits.  The components are its bidegree
# projections, term by term.


def leibniz_d(form, spec):
    n = spec.n
    out = Form.zero(n)
    for idx, coeff in form.terms.items():
        factors = [(a, False) for a in idx.hol] + [(a, True) for a in idx.anti]
        coframe = [mono(n, () if bar else (a,), (a,) if bar else ()) for a, bar in factors]
        dc = Form.zero(n)
        for a in range(1, n + 1):
            for bar in (False, True):
                derivative = coeff.derive(Direction(a, bar), spec.table)
                dc = dc + mono(n, () if bar else (a,), (a,) if bar else (), derivative)
        unit = Form.scalar(n, 1)
        for factor in coframe:
            unit = unit.wedge(factor)
        out = out + dc.wedge(unit)
        for j, (a, bar) in enumerate(factors):
            d_factor = spec.d_gen[a].conjugate(spec.table) if bar else spec.d_gen[a]
            piece = Form.scalar(n, coeff)
            for k, factor in enumerate(coframe):
                piece = piece.wedge(d_factor if k == j else factor)
            out = out + piece * (-1) ** j
    return out


def leibniz_component(form, kind, spec):
    out = Form.zero(spec.n)
    for idx, coeff in form.terms.items():
        value = leibniz_d(Form(spec.n, {idx: coeff}), spec)
        if kind.shift is not None:
            dp, dq = kind.shift
            value = value.bidegree_project(idx.p + dp, idx.q + dq)
        out = out + value
    return out


def assert_matches_leibniz(form, spec):
    assert exterior_d(form, spec) == leibniz_d(form, spec)
    for kind in OperatorKind:
        assert differential_component(form, kind, spec) == leibniz_component(form, kind, spec)


@st.composite
def symbolic_forms(draw, n):
    """Up to five terms of any bidegree, with Q(i) or Q(i)·torus6-symbol
    coefficients."""
    form = Form.zero(n)
    for _ in range(draw(st.integers(1, 5))):
        idx = draw(st.sampled_from(all_basis_monomials(n)))
        form = form + mono(n, idx.hol, idx.anti, draw(coefficients()))
    return form


class TestLeibnizOracle:
    def test_iwasawa_constant_forms(self, iwasawa, rng):
        for idx in all_basis_monomials(3):
            assert_matches_leibniz(mono(3, idx.hol, idx.anti), iwasawa)
        for _ in range(40):
            assert_matches_leibniz(rand_form_any(3, rng, density=0.25), iwasawa)

    def test_torus6_symbolic_forms(self, torus):
        g3, g33c = Coefficient.symbol("g3"), Coefficient.symbol("g33c")
        for idx in all_basis_monomials(3):
            assert_matches_leibniz(mono(3, idx.hol, idx.anti, g3 * g33c + G(1, 2)), torus)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_torus6_random_forms(self, torus, data):
        assert_matches_leibniz(data.draw(symbolic_forms(3)), torus)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_random_specs(self, torus, data):
        spec = data.draw(random_specs(torus.table))
        assert_matches_leibniz(data.draw(symbolic_forms(spec.n)), spec)

    def test_components_derive_only_along_their_directions(self, monkeypatch):
        """del differentiates coefficients along V_1..V_n only, delbar along
        their conjugates, mu and mubar along none.  The derivatives are
        cached on the spec and shared by the kinds, so each kind gets a
        fresh spec, and a second pass derives nothing."""
        seen = []
        derive = DerivationTable.derive_monomial

        def recording(self, m, direction):
            seen.append(direction)
            return derive(self, m, direction)

        monkeypatch.setattr(DerivationTable, "derive_monomial", recording)
        g3, g33 = Coefficient.symbol("g3"), Coefficient.symbol("g33")
        form = mono(3, (2,), (1,), g3) + mono(3, (1, 3), (), g33)
        hol = {Direction(a, False) for a in (1, 2, 3)}
        anti = {Direction(a, True) for a in (1, 2, 3)}
        expected = {
            OperatorKind.D: hol | anti,
            OperatorKind.MU: set(),
            OperatorKind.DEL: hol,
            OperatorKind.DELBAR: anti,
            OperatorKind.MUBAR: set(),
        }
        for kind, directions in expected.items():
            torus = load_spec(_golden_text("torus6"))
            seen.clear()
            differential_component(form, kind, torus)
            assert set(seen) == directions, kind
            seen.clear()
            differential_component(form, kind, torus)
            assert seen == [], kind


# The integrability gate evaluates only 1 and the phi^a, phi^abar when every
# d(generator) is a 2-form.  It must report what evaluating every basis
# monomial through the same d^2 split reports, first witness and residual
# included.


def every_monomial_failures(spec):
    """name -> (first failing unit monomial, its residual), over all 4^n."""
    failures = {}
    for idx in all_basis_monomials(spec.n):
        for name, value in _d_squared_parts(idx, spec):
            if name not in failures and not value.is_zero():
                failures[name] = (mono(spec.n, idx.hol, idx.anti), value)
    return failures


def seeded_spec(rng, table):
    """n = 2 or 3; each d(generator) has up to four terms, each a 2-form
    but for one spec in five, with Q(i) or torus6-symbol coefficients."""
    n = rng.choice([2, 3, 3])
    other_degrees = rng.random() < 0.2
    d_gen = {}
    for a in range(1, n + 1):
        form = Form.zero(n)
        for _ in range(rng.randint(0, 4)):
            degree = rng.choice([1, 2, 3]) if other_degrees else 2
            p = rng.randint(max(0, degree - n), min(degree, n))
            hol = tuple(sorted(rng.sample(range(1, n + 1), p)))
            anti = tuple(sorted(rng.sample(range(1, n + 1), degree - p)))
            c = Coefficient.coerce(G(Fraction(rng.randint(1, 3)), rng.randint(-2, 2)))
            if rng.random() < 0.3:
                c = c * Coefficient.symbol(rng.choice(TORUS_SYMBOLS))
            form = form + mono(n, hol, anti, c)
        d_gen[a] = form
    return ManifoldSpec(
        name="seeded",
        n=n,
        generators=[f"phi{a}" for a in range(1, n + 1)],
        d_gen=d_gen,
        omega_coeffs=(1,) * n,
        table=table,
    )


class TestIntegrabilityGate:
    def test_generators_decide_as_every_monomial_does(self, torus):
        seen = set()
        for seed in range(80):
            spec = seeded_spec(random.Random(seed), torus.table)
            report = check_integrability_relations(spec)
            failures = every_monomial_failures(spec)
            two_forms = report.items[0].ok
            for item in report.items[1:]:
                witness, residual = failures.get(item.name, (None, None))
                assert item.ok == (item.name not in failures), (seed, item.name)
                assert (item.witness, item.residual) == (witness, residual), (seed, item.name)
                seen.add((two_forms, item.ok))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    def test_only_the_generators_are_evaluated(self, monkeypatch):
        spec = load_spec(_golden_text("iwasawa_ak"))
        calls = []

        def counted(idx, spec):
            calls.append(idx)
            return _d_squared_parts(idx, spec)

        monkeypatch.setattr(structure, "_d_squared_parts", counted)
        assert check_integrability_relations(spec).status == VERIFIED
        assert 0 < len(calls) <= 2 * spec.n + 1


def _walk_document(n, terms, syms=0):
    """A flat spec whose d(phi1) holds the first `terms` monomials of
    all_basis_monomials(n), 1 first, so it is not a 2-form; with syms > 0
    each coefficient is a sum of `syms` distinct monomials x^i xc^j."""
    gens = [f"phi{a}" for a in range(1, n + 1)]
    coeff = {"re": "1", "im": "-1"}
    if syms:
        powers = [(i, j) for i in range(65) for j in range(65)][1 : syms + 1]
        coeff = {"terms": [
            {"c": coeff, "syms": [[x, e] for x, e in (("x", i), ("xc", j)) if e]} for i, j in powers
        ]}
    entries = [
        {"coeff": coeff, "hol": list(idx.hol), "anti": list(idx.anti)}
        for idx in all_basis_monomials(n)[:terms]
    ]
    d = {g: entries if g == "phi1" else [] for g in gens}
    zero = {"re": "0", "im": "0"}
    directions = [f"V{a}" for a in range(1, n + 1)] + [f"Vb{a}" for a in range(1, n + 1)]
    return {
        "name": f"walk{n}_{terms}", "n": n, "generators": gens, "d": d, "omega": ["1"] * n,
        "symbols": ["x", "xc"] if syms else [], "conjugates": {"x": "xc", "xc": "x"} if syms else {},
        "derivations": {x: dict.fromkeys(directions, zero) for x in ("x", "xc")} if syms else {},
    }


class TestWalkBound:
    """A spec whose d(generators) are not all 2-forms is checked on all 4^n
    monomials; one whose walk takes more than MAX_WALK coefficient-term
    products is refused as soon as the count passes it."""

    @pytest.mark.parametrize("syms", [0, 3])
    def test_the_count_is_the_one_stated(self, monkeypatch, syms):
        # d(phi1) = c, a 0-form with k coefficient terms: the first d's count
        # 4^1 * k; d(phi1) = c and d(phi1bar) = cbar count k * (2 + 0) each;
        # d(phi1 phi1bar) = c phi1bar - cbar phi1 counts 2 * k * (2 + k).
        k = max(syms, 1)
        count = 4 * k + 2 * (2 * k) + 2 * k * (2 + k)
        assert count == (14 if syms == 0 else 54)
        monomials = all_basis_monomials(1)
        walked = []
        monkeypatch.setattr(structure, "_d_squared_parts", lambda idx, spec: walked.append(idx) or iter(()))
        monkeypatch.setattr(structure, "MAX_WALK", count)
        assert not check_integrability_relations(load_spec(_walk_document(1, 1, syms))).items[0].ok
        assert walked == monomials
        walked.clear()
        monkeypatch.setattr(structure, "MAX_WALK", count - 1)
        with pytest.raises(HarmonicaError, match=f"more than MAX_WALK = {count - 1} coefficient-term"):
            check_integrability_relations(load_spec(_walk_document(1, 1, syms)))
        assert walked == monomials[:3]

    @pytest.mark.parametrize("terms, syms", [(4096, 0), (4, 1024)], ids=["terms", "coefficient"])
    def test_refusal_comes_before_any_d(self, monkeypatch, terms, syms):
        spec = load_spec(_walk_document(6, terms, syms))
        calls = []
        monkeypatch.setattr(structure, "d_by_shift", lambda *args: calls.append(args))
        with pytest.raises(HarmonicaError, match="must be checked on all 4\\^6 monomials"):
            check_integrability_relations(spec)
        assert calls == []

    def test_validate_exits_3_at_once(self, tmp_path):
        path = tmp_path / "walk.json"
        path.write_text(json.dumps(_walk_document(6, 4096)), encoding="utf-8")
        assert path.stat().st_size > 290_000
        proc = subprocess.run(
            [sys.executable, "-m", "harmonica.cli", "validate", str(path)],
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr.startswith("unsupported: spec 'walk6_4096': ")
        assert proc.stderr.count("\n") == 1


# The split of d against the factor-by-factor Leibniz walk it replaced: d of
# phi^idx is the sum over its factors f_k, hol then anti, of (-1)^k
# f_1..f_(k-1) wedge d(f_k) wedge f_(k+1).., each wedge term put in the part
# of its bidegree shift and each part summed once with forms._combine.


def factor_walk_split(idx, spec):
    columns = {}
    for k in range(idx.degree):
        if k < idx.p:
            d_fac = spec.d_gen[idx.hol[k]]
        else:
            d_fac = spec.d_gen[idx.anti[k - idx.p]].conjugate(spec.table)
        before = MultiIndex(idx.hol[:k], idx.anti[: max(k - idx.p, 0)])
        after = MultiIndex(idx.hol[k + 1 :], idx.anti[max(k + 1 - idx.p, 0) :])
        for middle, c in d_fac.terms.items():
            image, s1 = _wedge_monomials(before, middle)
            if s1:
                image, s2 = _wedge_monomials(image, after)
                if s2:
                    shift = (image.p - idx.p, image.q - idx.q)
                    columns.setdefault(shift, []).append((c, {image: (-1) ** k * s1 * s2}))
    parts = ((b, _combine(column)) for b, column in columns.items())
    return {b: Form(spec.n, terms) for b, terms in parts if terms}


def assert_splits_match(spec):
    for idx in all_basis_monomials(spec.n):
        assert dict(d_by_shift(idx, spec)) == factor_walk_split(idx, spec), idx


class TestSplitOracle:
    """d_by_shift, one Leibniz step over the cached split of the monomial
    without its first factor, gives the factor-by-factor walk's parts on
    every monomial."""

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_catalog_specs(self, name):
        assert_splits_match(load_spec(_golden_text(name)))

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_random_specs(self, torus, data):
        """Structure coefficients with torus6 symbols, d terms of degree 1 to 3."""
        assert_splits_match(data.draw(random_specs(torus.table)))

    @pytest.mark.parametrize("n, terms, syms", [(2, 13, 0), (2, 13, 3), (3, 42, 2)])
    def test_a_d_that_is_not_a_2_form(self, n, terms, syms):
        """d(phi1) holds a 0-form and 1-, 2- and 3-forms, so d(phi1 ...) has
        parts at shifts a 2-form d never gives."""
        spec = load_spec(_walk_document(n, terms, syms))
        assert {idx.degree for idx in spec.d_gen[1].terms} == {0, 1, 2, 3}
        assert_splits_match(spec)
