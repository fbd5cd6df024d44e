import math

import pytest

from harmonica import harmonic, hermitian, linalg, theorems
from harmonica.errors import BidegreeOutOfRange, DimensionMismatch, NotAlmostKahler
from harmonica.forms import Form, format_form, parse_form
from harmonica.harmonic import HarmonicKind, harmonic_space, harmonic_subspace, is_harmonic
from harmonica.hermitian import (
    form_subspace,
    fundamental_form,
    is_primitive,
    lefschetz_L,
    subspace_forms,
)
from harmonica.library import catalog_document, load_spec
from harmonica.linalg import Subspace
from harmonica.report import NOT_APPLICABLE, REFUTED, VERIFIED
from harmonica.structure import ManifoldSpec
from harmonica.theorems import (
    _basis_strings,
    _harmonic_primitive,
    all_statements,
    check_aeppli_L_noninclusion,
    check_counterexamples_torus,
    verify_bc21_gap,
    verify_decomp_11,
    verify_decomp_n1n1,
    verify_edge_decomps,
    verify_lefschetz_d,
    verify_relations,
)


def flat_n2():
    return ManifoldSpec(
        name="flat4", n=2, generators=["phi1", "phi2"], d_gen={}, omega_coeffs=(1, 1)
    )


class TestDecompositions:
    def test_decomp_11_iwasawa(self, iwasawa):
        for kind in (HarmonicKind.BC, HarmonicKind.A):
            report = verify_decomp_11(iwasawa, kind)
            assert report.status == VERIFIED
            assert report.data["dim_harmonic"] == 4
            assert report.data["dim_primitive_part"] == 3

    def test_decomp_11_flat(self, flat):
        for kind in (HarmonicKind.BC, HarmonicKind.A):
            report = verify_decomp_11(flat, kind)
            assert report.status == VERIFIED
            assert report.data["dim_harmonic"] == 9
            assert report.data["dim_primitive_part"] == math.comb(3, 1) ** 2 - 1

    def test_decomp_n1n1(self, iwasawa, flat):
        for spec in (iwasawa, flat):
            for kind in (HarmonicKind.BC, HarmonicKind.A):
                assert verify_decomp_n1n1(spec, kind).status == VERIFIED

    def test_requires_almost_kahler(self, cplx):
        with pytest.raises(NotAlmostKahler):
            verify_decomp_11(cplx, HarmonicKind.BC)

    @pytest.mark.parametrize("verify", [verify_decomp_11, verify_decomp_n1n1])
    def test_stated_for_bc_and_a_only(self, flat, verify):
        with pytest.raises(ValueError) as refused:
            verify(flat, HarmonicKind.D)
        assert str(refused.value) == "decomposition stated for BC and A only"

    def test_n1n1_needs_n_at_least_2(self):
        flat2 = ManifoldSpec(name="flat2", n=1, generators=["phi1"], d_gen={}, omega_coeffs=(1,))
        with pytest.raises(DimensionMismatch) as refused:
            verify_decomp_n1n1(flat2, HarmonicKind.BC)
        assert str(refused.value) == "needs n >= 2"

    def test_edge_decomps(self, iwasawa, flat):
        for spec in (iwasawa, flat):
            assert verify_edge_decomps(spec).status == VERIFIED

    def test_edge_instance_L2_H10bc_is_H32a(self, iwasawa):
        bc = harmonic_space(HarmonicKind.BC, 1, 0, iwasawa)
        lifted = []
        omega = fundamental_form(iwasawa)
        for f in bc.basis:
            lifted.append(omega.wedge(omega.wedge(f)))
        target = harmonic_space(HarmonicKind.A, 3, 2, iwasawa)
        assert form_subspace(lifted, 3, 2, iwasawa) == form_subspace(target.basis, 3, 2, iwasawa)


class TestRelations:
    def test_iwasawa_middle_degree_all_equal(self, iwasawa):
        report = verify_relations(iwasawa, 2, 1)
        assert report.status == VERIFIED
        names = [i.name for i in report.items]
        assert "all four primitive spaces equal (p+q = n)" in names

    def test_iwasawa_11(self, iwasawa):
        assert verify_relations(iwasawa, 1, 1).status == VERIFIED

    def test_flat_all_spaces_equal(self, flat):
        for p, q in ((1, 1), (2, 1), (1, 0), (0, 2)):
            report = verify_relations(flat, p, q)
            assert report.status == VERIFIED
            dims = set(report.data["dims"].values())
            assert len(dims) == 1

    def test_out_of_range(self, iwasawa):
        with pytest.raises(BidegreeOutOfRange):
            verify_relations(iwasawa, 2, 2)

    def test_requires_almost_kahler(self, cplx):
        """The relations assume d omega = 0: on iwasawa_cplx every bidegree
        in range is refused, where (0,2) used to read refuted and (1,1)
        verified, and the bidegree is checked first."""
        for p, q in ((0, 2), (1, 1), (0, 0), (2, 1)):
            with pytest.raises(NotAlmostKahler) as refused:
                verify_relations(cplx, p, q)
            assert str(refused.value) == "spec 'iwasawa_cplx' is not almost Kahler (d omega != 0)"
        with pytest.raises(BidegreeOutOfRange):
            verify_relations(cplx, 3, 3)

    def test_corollary_11_inclusions(self, iwasawa, flat):
        for spec in (iwasawa, flat):
            bc = harmonic_space(HarmonicKind.BC, 1, 1, spec)
            ae = harmonic_space(HarmonicKind.A, 1, 1, spec)
            ae_span = form_subspace(ae.basis, 1, 1, spec)
            for f in bc.basis:
                assert form_subspace([f], 1, 1, spec) <= ae_span
            bc22 = harmonic_space(HarmonicKind.BC, 2, 2, spec)
            ae22 = harmonic_space(HarmonicKind.A, 2, 2, spec)
            bc_span = form_subspace(bc22.basis, 2, 2, spec)
            for f in ae22.basis:
                assert form_subspace([f], 2, 2, spec) <= bc_span


class TestTorusCounterexamples:
    def test_report_verified_with_witnesses(self, torus):
        report = check_counterexamples_torus(torus)
        assert report.status == VERIFIED
        assert report.witnesses == [
            Form.monomial(3, (2,), (1,)),
            Form.monomial(3, (1,), (2,)),
        ]

    def test_witnesses_recheck(self, torus):
        w21 = Form.monomial(3, (2,), (1,))
        w12 = Form.monomial(3, (1,), (2,))
        assert is_primitive(w21, torus) and is_primitive(w12, torus)
        assert is_harmonic(HarmonicKind.DELBAR, w21, torus).verdict
        assert is_harmonic(HarmonicKind.A, w21, torus).verdict
        assert not is_harmonic(HarmonicKind.DEL, w21, torus).verdict
        assert is_harmonic(HarmonicKind.DEL, w12, torus).verdict
        assert not is_harmonic(HarmonicKind.A, w12, torus).verdict

    def test_wrong_dimension(self):
        with pytest.raises(DimensionMismatch):
            check_counterexamples_torus(flat_n2())


class TestBc21Gap:
    def test_iwasawa_report_internally_consistent(self, iwasawa):
        report = verify_bc21_gap(iwasawa)
        assert report.status == VERIFIED
        assert report.data["dim_harmonic"] == 2
        assert report.data["dim_L_part"] == 1
        assert report.data["dim_primitive_part"] == 1
        # the direct sum closes: primitive part + L part span the space,
        # so the inclusion is an equality on this invariant complex
        assert report.data["equality"] is True
        assert report.witnesses == []

    def test_L_part_is_known_span(self, iwasawa):
        lifted = lefschetz_L(harmonic_space(HarmonicKind.BC, 1, 0, iwasawa).basis[0], iwasawa)
        want = parse_form("phi[1,3;1] + phi[2,3;2]", 3)
        assert form_subspace([lifted], 2, 1, iwasawa) == form_subspace([want], 2, 1, iwasawa)

    def test_witness_recheck_runs(self, monkeypatch):
        """With the primitive part forced to 0 the sum is strict, and the
        witness re-check holds: the witness is harmonic, outside the sum, and
        L(w) is its residual."""
        spec = load_spec(catalog_document("iwasawa_ak"))
        monkeypatch.setattr(theorems, "_harmonic_primitive", lambda *args: Subspace())
        report = verify_bc21_gap(spec)
        assert report.data["equality"] is False and report.data["dim_primitive_part"] == 0
        (w,) = report.witnesses
        recheck = report.items[-1]
        assert recheck.name == "witness is harmonic but outside the direct sum"
        assert recheck.ok and recheck.witness == w
        assert recheck.residual == lefschetz_L(w, spec) and not recheck.residual.is_zero()
        assert is_harmonic(HarmonicKind.BC, w, spec).verdict
        assert report.status == VERIFIED

    def test_flat_equality(self, flat):
        report = verify_bc21_gap(flat)
        assert report.status == VERIFIED
        assert report.data["equality"] is True

    def test_wrong_dimension(self):
        with pytest.raises(DimensionMismatch):
            verify_bc21_gap(flat_n2())


class TestLefschetzD:
    def test_iwasawa(self, iwasawa):
        assert verify_lefschetz_d(iwasawa, 1, 1).status == VERIFIED
        assert verify_lefschetz_d(iwasawa, 2, 2).status == VERIFIED

    def test_flat(self, flat):
        assert verify_lefschetz_d(flat, 2, 1).status == VERIFIED

    def test_requires_almost_kahler(self, cplx):
        with pytest.raises(NotAlmostKahler):
            verify_lefschetz_d(cplx, 1, 1)


class TestAeppliNonInclusion:
    def test_flat_inclusion_holds(self, flat):
        report = check_aeppli_L_noninclusion(flat)
        assert report.status == VERIFIED
        assert report.data["inclusion_holds"] is True

    def test_iwasawa_consistent(self, iwasawa):
        report = check_aeppli_L_noninclusion(iwasawa)
        assert report.status in (VERIFIED, REFUTED)
        if report.status == REFUTED:
            assert report.witnesses
            w = report.witnesses[0]
            assert not is_harmonic(HarmonicKind.A, w, iwasawa).verdict

    def test_witness_recheck_catches_a_false_witness(self, monkeypatch):
        """With H^{2,1}_a forced to 0 the first L-image becomes a witness,
        but it is Aeppli harmonic on the flat spec, so the re-check fails."""
        spec = load_spec(catalog_document("flat_kahler6"))
        space = theorems.harmonic_subspace

        def zero_a21(kind, p, q, spec):
            if (kind, p, q) == (HarmonicKind.A, 2, 1):
                return Subspace()
            return space(kind, p, q, spec)

        monkeypatch.setattr(theorems, "harmonic_subspace", zero_a21)
        report = check_aeppli_L_noninclusion(spec)
        (w,) = report.witnesses
        assert is_harmonic(HarmonicKind.A, w, spec).verdict
        recheck = report.items[-1]
        assert recheck.name == "witness re-check: not Aeppli harmonic"
        assert not recheck.ok and recheck.witness == w and recheck.residual is None
        assert report.status == REFUTED and report.data["inclusion_holds"] is False

    def test_not_applicable_without_dw0(self, cplx):
        assert check_aeppli_L_noninclusion(cplx).status == NOT_APPLICABLE


class TestAllStatements:
    def test_flat_all_verified(self, flat):
        reports = all_statements(flat)
        assert reports
        assert all(r.status == VERIFIED for r in reports)

    def test_iwasawa_none_refuted(self, iwasawa):
        reports = all_statements(iwasawa)
        assert reports
        assert all(r.status in (VERIFIED, NOT_APPLICABLE) for r in reports)
        ids = {r.statement for r in reports}
        assert {"decomp-bc-11", "decomp-a-11", "bc21-gap", "edge-decomps"} <= ids


class TestSparseStatements:
    """The statements read the sparse rows of their subspace values: a
    Subspace has no dense view, and every row that reaches `rref`, the one
    elimination entry, is a sparse dict."""

    def test_statements_never_read_the_dense_view(self, monkeypatch):
        assert not hasattr(Subspace, "vectors")
        rows = []
        reduce = linalg.rref

        def recording(matrix, ncols):
            rows.extend(matrix)
            return reduce(matrix, ncols)

        for module in (linalg, hermitian, harmonic):
            monkeypatch.setattr(module, "rref", recording)
        flat8 = ManifoldSpec(
            name="flat8",
            n=4,
            generators=[f"phi{a}" for a in range(1, 5)],
            d_gen={},
            omega_coeffs=(1,) * 4,
        )
        assert verify_relations(flat8, 1, 1).status == VERIFIED
        reports = all_statements(load_spec(catalog_document("iwasawa_ak")))
        assert any(r.witnesses for r in reports)
        assert rows and all(isinstance(row, dict) for row in rows)


class TestReuseByValue:
    """The statements compute each derived space and text once per distinct
    subspace value, on the spec's cache."""

    def test_equal_harmonic_spaces_share_one_intersection(self):
        spec = load_spec(catalog_document("flat_kahler6"))
        for p in range(spec.n + 1):
            for q in range(spec.n + 1 - p):
                first = _harmonic_primitive(spec, HarmonicKind.D, p, q)
                for kind in HarmonicKind:
                    assert _harmonic_primitive(spec, kind, p, q) is first, (kind, p, q)

    @pytest.mark.parametrize("name", ["flat_kahler6", "iwasawa_ak"])
    def test_no_pair_of_values_is_intersected_twice(self, monkeypatch, name):
        """Unequal operands meet once per report; equal operands meet in
        themselves, with no elimination."""
        spec = load_spec(catalog_document(name))
        meets = []
        eliminations = []
        meet, of = Subspace.__and__, Subspace._of.__func__

        def counting_of(cls, rows, ncols):
            eliminations.append(ncols)
            return of(cls, rows, ncols)

        def counting_meet(a, b):
            before = len(eliminations)
            out = meet(a, b)
            meets.append((a, b, len(eliminations) > before))
            return out

        monkeypatch.setattr(Subspace, "_of", classmethod(counting_of))
        monkeypatch.setattr(Subspace, "__and__", counting_meet)
        all_statements(spec)
        monkeypatch.undo()
        unequal = [(a, b) for a, b, _ in meets if a != b]
        assert unequal and len(unequal) == len(set(unequal))
        assert [a for a, b, eliminated in meets if a == b and eliminated] == []

    def test_cleared_basis_text_leaves_the_next_call_unchanged(self):
        spec = load_spec(catalog_document("iwasawa_ak"))
        space = harmonic_subspace(HarmonicKind.BC, 2, 1, spec)
        expected = [format_form(f) for f in subspace_forms(space, 2, 1, spec)]
        first = _basis_strings(space, spec, 2, 1)
        assert first == expected
        first.clear()
        assert _basis_strings(space, spec, 2, 1) == expected

    def test_cleared_report_bases_leave_the_next_report_unchanged(self):
        """On a flat spec all five kinds print one shared value, and each
        entry is still a list of its own."""
        spec = load_spec(catalog_document("flat_kahler6"))
        bases = verify_relations(spec, 1, 1).data["bases"]
        expected = {kind: list(strings) for kind, strings in bases.items()}
        assert len({tuple(strings) for strings in expected.values()}) == 1
        bases[HarmonicKind.BC.value].clear()
        assert bases[HarmonicKind.A.value] == expected[HarmonicKind.A.value]
        assert verify_relations(spec, 1, 1).data["bases"] == expected
