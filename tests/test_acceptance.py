"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; everything asserted here is exact (zero tolerance).
"""

import math
import random
from fractions import Fraction

from harmonica.cli import main
from harmonica.forms import Form, basis_multiindices, parse_form
from harmonica.harmonic import HarmonicKind, harmonic_space, is_harmonic
from harmonica.hermitian import (
    form_subspace,
    hodge_star,
    is_primitive,
    lefschetz_L,
    primitive_basis,
    primitive_decompose,
    subspace_forms,
    weil_star_primitive,
)
from harmonica.library import catalog
from harmonica.linalg import rref
from harmonica.report import VERIFIED
from harmonica.scalars import Coefficient, GaussianRational
from harmonica.structure import (
    ManifoldSpec,
    all_basis_monomials,
    check_integrability_relations,
)
from harmonica.theorems import (
    all_statements,
    verify_bc21_gap,
    verify_decomp_11,
    verify_decomp_n1n1,
    verify_lefschetz_d,
    verify_relations,
)

from conftest import rand_form_degree, rand_gauss


def G(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def mono(n, hol=(), anti=(), c=1):
    return Form.monomial(n, hol, anti, c)


def note(number, ok, message):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {message}")


V1 = "phi[1,3;1] + phi[2,3;2]"
V2 = "phi[1,3;2] + phi[2,3;1] + (0,-2)*phi[2,3;2]"


def test_criterion_01_iwasawa_bc_21_basis(capsys):
    code = main(["harmonics", "iwasawa_ak", "--laplacian", "bc", "--bidegree", "2,1"])
    out = capsys.readouterr().out
    ok = code == 0 and "dimension 2" in out
    basis = [parse_form(l.strip(), 3) for l in out.splitlines() if l.startswith("  ")]
    want = [parse_form(V1, 3), parse_form(V2, 3)]
    iw = catalog("iwasawa_ak")
    ok = ok and len(basis) == 2
    ok = ok and form_subspace(basis, 2, 1, iw) == form_subspace(want, 2, 1, iw)
    ok = ok and subspace_forms(form_subspace(basis, 2, 1, iw), 2, 1, iw) == want
    with capsys.disabled():
        note(1, ok, "invariant Bott-Chern (2,1) space on iwasawa_ak is the expected 2-dim span, exactly")
    assert ok


def test_criterion_02_iwasawa_bc21_gap(capsys):
    """The Bott-Chern primitive split at n = 3 on iwasawa_ak.

    H^{p,q}_BC >= (H^{p,q}_BC cap P^{p,q}) (+) L(H^{p-1,q-1}_BC) closes with
    equality at (2,1) and is strict at the conjugate bidegree (1,2): with
    mu != 0, del delbar != -delbar del and the Bott-Chern spaces are not
    conjugation-symmetric.  tests/test_bc_oracle.py recomputes both splits
    independently.
    """
    iw = catalog("iwasawa_ak")
    bc = HarmonicKind.BC
    v1, v2 = parse_form(V1, 3), parse_form(V2, 3)
    # invariant part of L(H^{1,0}_BC) is exactly the expected span
    phi3_space = harmonic_space(bc, 1, 0, iw)
    lifted = [lefschetz_L(f, iw) for f in phi3_space.basis]
    ok = form_subspace(lifted, 2, 1, iw) == form_subspace([v1], 2, 1, iw)
    # the second generator is not primitive: L(v2) = -2i L(phi[2,3;2]) != 0
    lv2 = lefschetz_L(v2, iw)
    ok = ok and lv2 == lefschetz_L(mono(3, (2, 3), (2,)), iw) * G(0, -2)
    ok = ok and not lv2.is_zero() and not is_primitive(v2, iw)
    # (2,1): equality, 2 = 1 + 1, since the L-images are parallel and make
    # v2 + i v1 primitive
    top = mono(3, (1, 2, 3), (1, 2))
    ok = ok and lefschetz_L(v1, iw) == top * G(0, 2) and lv2 == top * G(2)
    gap = verify_bc21_gap(iw)
    ok = ok and gap.status == VERIFIED and gap.data["equality"] is True
    dims = tuple(gap.data[k] for k in ("dim_harmonic", "dim_primitive_part", "dim_L_part"))
    ok = ok and dims == (2, 1, 1)
    ok = ok and gap.witnesses == []
    # v2 = (v2 + i v1) + L(phi[3;]), both parts Bott-Chern harmonic
    parts = primitive_decompose(v2, iw).parts
    ok = ok and parts == [(0, v2 + v1 * G(0, 1)), (1, mono(3, (3,)))]
    ok = ok and all(is_harmonic(bc, beta, iw).verdict for _, beta in parts)
    # (1,2): strict, 3 > 1 + 1, with a non-primitive harmonic witness
    basis = harmonic_space(bc, 1, 2, iw).basis
    harmonic = form_subspace(basis, 1, 2, iw)
    primitive = form_subspace(primitive_basis(iw, 1, 2), 1, 2, iw)
    prim_part = harmonic & primitive
    lifted = [lefschetz_L(f, iw) for f in harmonic_space(bc, 0, 1, iw).basis]
    L_part = form_subspace(lifted, 1, 2, iw)
    total = prim_part + L_part
    ok = ok and (len(basis), prim_part.dim, L_part.dim, total.dim) == (3, 1, 1, 2)
    ok = ok and subspace_forms(harmonic + total, 1, 2, iw) == basis
    outside = [f for f in basis if not form_subspace([f], 1, 2, iw) <= total]
    witness = outside[:1]
    ok = ok and witness == [parse_form("phi[3;1,3] + (0,-1)*phi[3;2,3]", 3)]
    ok = ok and is_harmonic(bc, witness[0], iw).verdict
    ok = ok and not lefschetz_L(witness[0], iw).is_zero()
    with capsys.disabled():
        note(
            2,
            ok,
            "the Bott-Chern primitive split on iwasawa_ak is an equality at (2,1) "
            "(2 = 1 + 1, v2 = (v2 + i*v1) + L(phi[3;])) and strict at (1,2) "
            "(3 > 1 + 1, non-primitive witness phi[3;1,3] - i*phi[3;2,3])",
        )
    assert ok


def test_criterion_03_torus_memberships(capsys):
    torus = catalog("torus6")
    w21 = mono(3, (2,), (1,))
    w12 = mono(3, (1,), (2,))
    expected = {
        (w21, HarmonicKind.D): False,
        (w21, HarmonicKind.DEL): False,
        (w21, HarmonicKind.DELBAR): True,
        (w21, HarmonicKind.BC): False,
        (w21, HarmonicKind.A): True,
        (w12, HarmonicKind.D): False,
        (w12, HarmonicKind.DEL): True,
        (w12, HarmonicKind.DELBAR): False,
        (w12, HarmonicKind.BC): False,
        (w12, HarmonicKind.A): False,
    }
    ok = True
    for (form, kind), want in expected.items():
        ok = ok and is_harmonic(kind, form, torus).verdict == want
    g3 = Coefficient.symbol("g3")
    g3c = Coefficient.symbol("g3c")
    res_del = is_harmonic(HarmonicKind.DEL, w21, torus).first_failing().residual
    ok = ok and res_del == mono(3, (1, 2), (3,), -g3c)
    res_a = is_harmonic(HarmonicKind.A, w12, torus).first_failing().residual
    ok = ok and res_a == mono(3, (3,), (3,), -(g3 * g3c)).wedge(mono(3, (1,), (2,)))
    ok = ok and is_primitive(w21, torus) and is_primitive(w12, torus)
    with capsys.disabled():
        note(3, ok, "all ten torus membership verdicts and both symbolic residuals are exact")
    assert ok


def test_criterion_04_decompositions_11_and_n1n1(capsys):
    ok = True
    for name in ("iwasawa_ak", "flat_kahler6"):
        spec = catalog(name)
        for kind in (HarmonicKind.BC, HarmonicKind.A):
            ok = ok and verify_decomp_11(spec, kind).status == VERIFIED
            ok = ok and verify_decomp_n1n1(spec, kind).status == VERIFIED
    with capsys.disabled():
        note(4, ok, "the (1,1) and crossed (2,2) decompositions hold as exact subspace equalities")
    assert ok


def test_criterion_05_primitive_relations(capsys):
    iw = catalog("iwasawa_ak")
    ok = True
    for p in range(4):
        for q in range(4 - p):
            ok = ok and verify_relations(iw, p, q).status == VERIFIED
    # at p+q = 3 the four primitive spaces are literally equal echelon bases
    prim_monoms = {}
    for p in range(4):
        q = 3 - p
        prim = form_subspace(primitive_basis(iw, p, q), p, q, iw)
        spaces = [
            form_subspace(harmonic_space(kind, p, q, iw).basis, p, q, iw) & prim
            for kind in (HarmonicKind.BC, HarmonicKind.DEL, HarmonicKind.DELBAR, HarmonicKind.A)
        ]
        for other in spaces[1:]:
            ok = ok and spaces[0] == other
    with capsys.disabled():
        note(5, ok, "primitive harmonic relations hold for p+q <= 3; at p+q = 3 all four bases are identical")
    assert ok


def test_criterion_06_operator_identities_and_mutation(capsys):
    ok = True
    for name in ("iwasawa_ak", "torus6"):
        spec = catalog(name)
        report = check_integrability_relations(spec)
        ok = ok and report.status == VERIFIED
    assert len(all_basis_monomials(3)) == 64
    iw = catalog("iwasawa_ak")
    mutated_d = dict(iw.d_gen)
    mutated_d[1] = mutated_d[1] + mono(3, (1, 3), (), G(Fraction(1, 4)))
    mutated = ManifoldSpec(
        name="mutated",
        n=3,
        generators=list(iw.generators),
        d_gen=mutated_d,
        omega_coeffs=iw.omega_coeffs,
        table=iw.table,
    )
    ok = ok and check_integrability_relations(mutated).status != VERIFIED
    with capsys.disabled():
        note(6, ok, "d^2 = 0 and the seven component identities pass on all 64 monomials; a perturbed constant fails")
    assert ok


def test_criterion_07_star_properties(capsys):
    iw = catalog("iwasawa_ak")
    rng = random.Random(7)
    specs = [iw] + [
        iw.with_omega(
            tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3))
        )
        for _ in range(20)
    ]
    ok = True
    for spec in specs:
        for idx in all_basis_monomials(3):
            m = mono(3, idx.hol, idx.anti)
            ok = ok and hodge_star(hodge_star(m, spec), spec) == m * ((-1) ** idx.degree)
    for p in range(4):
        for q in range(4 - p):
            for beta in primitive_basis(iw, p, q):
                for r in range(0, 3 - (p + q) + 1):
                    f = beta
                    for _ in range(r):
                        f = lefschetz_L(f, iw)
                    ok = ok and weil_star_primitive(beta, r, iw) == hodge_star(f, iw)
    count = 0
    while count < 100:
        p = rng.randint(0, 3)
        q = rng.randint(0, 3 - p)
        beta = Form.zero(3)
        for b in primitive_basis(iw, p, q):
            if rng.random() < 0.7:
                beta = beta + b * rand_gauss(rng)
        if beta.is_zero():
            continue
        count += 1
        r = rng.randint(0, 3 - (p + q))
        f = beta
        for _ in range(r):
            f = lefschetz_L(f, iw)
        ok = ok and weil_star_primitive(beta, r, iw) == hodge_star(f, iw)
    with capsys.disabled():
        note(7, ok, "star^2 = (-1)^k on 21 metrics; the primitive star formula matches the defining star everywhere tested")
    assert ok


def test_criterion_08_primitive_round_trip_and_ranks(capsys):
    iw = catalog("iwasawa_ak")
    rng = random.Random(8)
    ok = True
    for trial in range(500):
        k = trial % 7
        f = rand_form_degree(3, k, rng, density=0.4)
        decomp = primitive_decompose(f, iw)
        ok = ok and decomp.reassemble(iw) == f
        for r, beta in decomp.parts:
            ok = ok and is_primitive(beta, iw)
    n = 3
    for k in range(0, 2 * n + 1):
        source = [
            idx
            for p in range(max(0, k - n), min(k, n) + 1)
            for idx in basis_multiindices(n, p, k - p)
        ]
        for h in range(0, n + 1):
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
                    f = lefschetz_L(f, iw)
                rows.append({j: f.coefficient(t).constant_value() for j, t in enumerate(target)})
            r = rref(rows, len(target)).dim
            if h + k <= n:
                ok = ok and r == len(source)
            if h + k >= n:
                ok = ok and r == len(target)
    with capsys.disabled():
        note(8, ok, "500 exact primitive round trips with primitive components; L^h rank profile as required")
    assert ok


def test_criterion_09_star_duality_of_harmonic_spaces(capsys):
    iw = catalog("iwasawa_ak")
    ok = True
    for p in range(4):
        for q in range(4):
            bc = harmonic_space(HarmonicKind.BC, p, q, iw)
            target = harmonic_space(HarmonicKind.A, 3 - q, 3 - p, iw)
            starred = [hodge_star(f, iw) for f in bc.basis]
            ok = ok and form_subspace(starred, 3 - q, 3 - p, iw) == form_subspace(
                target.basis, 3 - q, 3 - p, iw
            )
    with capsys.disabled():
        note(9, ok, "star maps each invariant Bott-Chern space onto the dual Aeppli space, all 16 bidegrees")
    assert ok


def test_criterion_10_flat_oracle(capsys):
    flat = catalog("flat_kahler6")
    ok = True
    for kind in HarmonicKind:
        for p in range(4):
            for q in range(4):
                dim = harmonic_space(kind, p, q, flat).dim
                ok = ok and dim == math.comb(3, p) * math.comb(3, q)
    reports = all_statements(flat)
    ok = ok and bool(reports) and all(r.status == VERIFIED for r in reports)
    with capsys.disabled():
        note(10, ok, "flat spec: every harmonic space is the full C(3,p)C(3,q) space and every statement verifies")
    assert ok


def test_criterion_11_d_harmonic_lefschetz(capsys):
    iw = catalog("iwasawa_ak")
    ok = (
        verify_lefschetz_d(iw, 1, 1).status == VERIFIED
        and verify_lefschetz_d(iw, 2, 2).status == VERIFIED
    )
    with capsys.disabled():
        note(11, ok, "d-harmonic primitive decomposition verified at (1,1) and (2,2) on iwasawa_ak")
    assert ok
