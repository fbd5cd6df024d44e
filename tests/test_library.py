import json
from fractions import Fraction
from importlib import resources

import pytest

from harmonica.errors import (
    DimensionMismatch,
    ParseError,
    SchemaError,
    UnknownSpec,
    ValidationError,
)
from harmonica.forms import Form, parse_form
from harmonica.cli import main
from harmonica.library import (
    CATALOG_NAMES,
    MAX_N,
    _golden_text,
    catalog,
    catalog_document,
    load_spec,
    serialize_spec,
)
from harmonica.report import VERIFIED
from harmonica.scalars import SYMBOL_NAME, Coefficient
from harmonica.structure import check_almost_kahler, check_integrability_relations


def minimal_doc(**overrides):
    doc = {
        "name": "tiny",
        "n": 1,
        "generators": ["phi1"],
        "d": {"phi1": []},
        "omega": ["1"],
        "symbols": [],
        "conjugates": {},
        "derivations": {},
    }
    doc.update(overrides)
    return doc


class TestGoldenSpecs:
    def test_catalog_names(self):
        assert set(CATALOG_NAMES) == {"torus6", "iwasawa_ak", "iwasawa_cplx", "flat_kahler6"}
        with pytest.raises(UnknownSpec):
            catalog("nosuch")

    def test_round_trip_bytes(self):
        for name in CATALOG_NAMES:
            spec = load_spec(catalog_document(name))
            assert serialize_spec(spec) == catalog_document(name)

    def test_iwasawa_structure_equation(self):
        spec = catalog("iwasawa_ak")
        want = parse_form(
            "(-1/4,0)*phi[1,3;] + (0,-1/4)*phi[2,3;] + (1/4,0)*phi[1;3]"
            " + (1/4,0)*phi[3;1] + (0,-1/4)*phi[2;3] + (0,1/4)*phi[3;2]"
            " + (1/4,0)*phi[;1,3] + (0,-1/4)*phi[;2,3]",
            3,
        )
        assert spec.d_gen[1] == want
        assert spec.d_gen[3].is_zero()
        assert spec.omega_coeffs == (1, 1, 1)

    def test_torus_structure_equation(self):
        spec = catalog("torus6")
        want = Form.monomial(3, (3,), (1,), Coefficient.symbol("g3")) + Form.monomial(
            3, (), (1, 3), -Coefficient.symbol("g3c")
        )
        assert spec.d_gen[1] == want
        assert spec.d_gen[2].is_zero() and spec.d_gen[3].is_zero()
        assert spec.omega_coeffs == (Fraction(1, 2),) * 3

    def test_iwasawa_cplx_structure_equation(self):
        spec = catalog("iwasawa_cplx")
        assert spec.d_gen[3] == Form.monomial(3, (1, 2), (), -1)
        assert spec.d_gen[1].is_zero() and spec.d_gen[2].is_zero()

    def test_catalog_invariants(self):
        for name in CATALOG_NAMES:
            assert check_integrability_relations(catalog(name)).status == VERIFIED
        for name in ("torus6", "iwasawa_ak", "flat_kahler6"):
            assert check_almost_kahler(catalog(name)).status == VERIFIED


class TestLoader:
    def test_accepts_text_and_dict(self):
        doc = minimal_doc()
        a = load_spec(doc)
        b = load_spec(json.dumps(doc))
        assert a.n == b.n == 1

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            load_spec("{not json")

    def test_missing_field(self):
        doc = minimal_doc()
        del doc["omega"]
        with pytest.raises(SchemaError):
            load_spec(doc)

    def test_extra_field(self):
        with pytest.raises(SchemaError):
            load_spec(minimal_doc(workers=4))

    def test_zero_omega_coefficient(self):
        with pytest.raises(ValidationError):
            load_spec(minimal_doc(omega=["0/1"]))

    def test_bad_index(self):
        doc = minimal_doc(
            d={"phi1": [{"coeff": {"re": "1", "im": "0"}, "hol": [2], "anti": []}]}
        )
        with pytest.raises(ValidationError):
            load_spec(doc)

    def test_undeclared_symbol_in_d(self):
        doc = minimal_doc(
            d={
                "phi1": [
                    {
                        "coeff": {
                            "terms": [{"c": {"re": "1", "im": "0"}, "syms": [["f", 1]]}]
                        },
                        "hol": [1],
                        "anti": [1],
                    }
                ]
            }
        )
        with pytest.raises(ValidationError):
            load_spec(doc)

    def test_conjugation_must_be_involution(self):
        doc = minimal_doc(symbols=["a", "b", "c"], conjugates={"a": "b", "b": "c", "c": "a"})
        with pytest.raises(ValidationError):
            load_spec(doc)

    @pytest.mark.parametrize("partner", [["g3c"], {"x": 1}, 1], ids=["list", "object", "number"])
    def test_conjugate_must_be_a_name(self, partner):
        doc = minimal_doc(symbols=["g3", "g3c"], conjugates={"g3": partner, "g3c": "g3"})
        with pytest.raises(SchemaError) as refused:
            load_spec(doc)
        assert str(refused.value) == "the conjugate of 'g3' must be a symbol name"

    def test_wrong_generator_count(self):
        with pytest.raises(ValidationError):
            load_spec(minimal_doc(generators=["phi1", "phi2"]))

    def test_reserialize_custom_spec(self):
        doc = minimal_doc()
        text = serialize_spec(load_spec(doc))
        assert serialize_spec(load_spec(text)) == text

    @pytest.mark.parametrize("depth_limit, auto_fresh", [(1, False), (7, True)])
    def test_derivation_settings_load_and_round_trip(self, depth_limit, auto_fresh):
        doc = minimal_doc(depth_limit=depth_limit, auto_fresh=auto_fresh)
        spec = load_spec(doc)
        assert (spec.table.depth_limit, spec.table.auto_fresh) == (depth_limit, auto_fresh)
        assert json.loads(serialize_spec(spec)) == doc

    @pytest.mark.parametrize(
        "field, value",
        [("depth_limit", "x"), ("depth_limit", 0), ("depth_limit", False), ("auto_fresh", "no")],
    )
    def test_malformed_derivation_settings(self, field, value):
        with pytest.raises(SchemaError, match=field):
            load_spec(minimal_doc(**{field: value}))


ONE = {"re": "1", "im": "0"}
# (document overrides, refusal message) of spec documents that are well-formed
# JSON objects of the right shape but semantically invalid.
REFUSALS = {
    "duplicate-generators": (
        dict(n=2, generators=["phi1", "phi1"], d={}, omega=["1", "1"]),
        "generator names must be distinct",
    ),
    "conjugate-undeclared": (
        dict(symbols=["a"], conjugates={"a": "b"}),
        "conjugate pair ('a','b') uses undeclared symbols",
    ),
    "derivation-of-undeclared": (
        dict(derivations={"a": {}}),
        "derivation entry for undeclared symbol 'a'",
    ),
    "direction-out-of-range": (
        dict(symbols=["a"], derivations={"a": {"V2": ONE}}),
        "direction 'V2' out of range for n=1",
    ),
    "derivation-uses-undeclared": (
        dict(symbols=["a"], derivations={"a": {"V1": {"terms": [{"c": ONE, "syms": [["b", 1]]}]}}}),
        "derivation of 'a' uses undeclared symbol 'b'",
    ),
    "d-of-unknown-generator": (
        dict(d={"phi1": [], "phi2": []}),
        "'d' names unknown generators: ['phi2']",
    ),
    "omega-count": (dict(omega=["1", "1"]), "expected 1 omega coefficients"),
}


class TestRefusals:
    @pytest.mark.parametrize("case", REFUSALS)
    def test_load_spec_refuses(self, case):
        overrides, message = REFUSALS[case]
        with pytest.raises(ValidationError) as refused:
            load_spec(minimal_doc(**overrides))
        assert str(refused.value) == message

    @pytest.mark.parametrize("case", REFUSALS)
    def test_validate_exits_2_with_one_error_line(self, case, tmp_path, capsys):
        overrides, message = REFUSALS[case]
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(minimal_doc(**overrides)), encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_unknown_catalog_document(self):
        with pytest.raises(UnknownSpec) as refused:
            catalog_document("nosuch")
        assert str(refused.value) == "no catalog spec named 'nosuch'"
        with pytest.raises(UnknownSpec) as refused:
            _golden_text("nosuch")
        assert str(refused.value) == "no catalog spec named 'nosuch'"


def test_schema_symbol_pattern_is_the_form_grammar():
    """The schema's symbol names are the names form text parses."""
    schema = json.loads(
        resources.files("harmonica.data").joinpath("spec.schema.json").read_text("utf-8")
    )
    symbol = schema["$defs"]["symbol"]
    assert symbol["pattern"] == f"^{SYMBOL_NAME}$" and symbol["not"] == {"const": "phi"}
    assert schema["properties"]["symbols"]["items"] == {"$ref": "#/$defs/symbol"}


class TestDimensionLimit:
    @staticmethod
    def flat(n):
        gens = [f"phi{a}" for a in range(1, n + 1)]
        return minimal_doc(n=n, generators=gens, d={g: [] for g in gens}, omega=["1"] * n)

    def test_largest_n_loads(self):
        assert MAX_N == 6
        assert load_spec(self.flat(MAX_N)).n == MAX_N

    def test_larger_n_is_refused(self):
        with pytest.raises(DimensionMismatch, match="n = 7 exceeds the supported maximum n = 6"):
            load_spec(self.flat(MAX_N + 1))


def test_load_spec_adds_no_form_to_a_form(monkeypatch):
    """Each d entry is one term map: a document with all 4,096 n = 6
    monomials in one d entry loads without a Form + Form."""
    from harmonica.structure import all_basis_monomials

    monomials = all_basis_monomials(6)
    gens = [f"phi{a}" for a in range(1, 7)]
    terms = [
        {"coeff": {"re": "1", "im": "-1"}, "hol": list(idx.hol), "anti": list(idx.anti)}
        for idx in monomials
    ]
    doc = minimal_doc(n=6, generators=gens, d={"phi1": terms}, omega=["1"] * 6)
    calls = []
    add = Form.__add__

    def counting_add(self, other):
        calls.append("add")
        return add(self, other)

    monkeypatch.setattr(Form, "__add__", counting_add)
    spec = load_spec(doc)
    monkeypatch.undo()
    assert calls == []
    assert len(monomials) == 4096
    assert spec.d_gen[1] == Form(6, {idx: Coefficient.gauss(1, -1) for idx in monomials})
