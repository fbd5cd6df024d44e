"""A ManifoldSpec is immutable and owns every cache derived from it."""

import ast
import copy
import copyreg
import dataclasses
import gc
import weakref
from pathlib import Path
from types import MappingProxyType

import pytest

import harmonica
from harmonica import harmonic, hermitian, linalg, structure
from harmonica.forms import Form, ReadOnlyForm, format_form, parse_form
from harmonica.cli import _dimension_tables
from harmonica.errors import DepthExceeded
from harmonica.harmonic import (
    CONDITION_WORDS,
    LAPLACIAN_WORDS,
    HarmonicKind,
    harmonic_space,
    harmonic_subspace,
    is_harmonic,
    laplacian_apply,
)
from harmonica.hermitian import (
    adjoint,
    apply_word,
    hodge_star,
    is_primitive,
    lefschetz_L,
    lefschetz_lambda,
    operator_columns,
    primitive_basis,
    primitive_decompose,
    primitive_subspace,
)
from harmonica.library import catalog_document, load_spec
from harmonica.scalars import Coefficient, DerivationTable, Direction, GaussianRational
from harmonica.structure import (
    ManifoldSpec,
    OperatorKind,
    check_integrability_relations,
    differential_component,
    exterior_d,
)


class TestImmutableSpec:
    def test_fields_cannot_be_assigned(self):
        # a private copy of the catalog spec, so a failure here cannot
        # corrupt the spec other tests share
        spec = load_spec(catalog_document("iwasawa_ak"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.n = 4
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.omega_coeffs = (1, 1, 2)
        with pytest.raises(TypeError):
            spec.d_gen[1] = Form.zero(3)
        assert spec.n == 3 and spec.omega_coeffs == (1, 1, 1)
        assert not spec.d_gen[1].is_zero()

    def test_constructor_copies_its_inputs(self):
        d_gen = {}
        generators = ["a", "b"]
        spec = ManifoldSpec(
            name="flat4", n=2, generators=generators, d_gen=d_gen, omega_coeffs=(1, 1)
        )
        assert d_gen == {}
        assert spec.generators == ("a", "b")
        assert spec.d_gen[1].is_zero() and spec.d_gen[2].is_zero()
        generators.append("c")
        assert spec.generators == ("a", "b")


class TestReadOnlyTable:
    """A spec keeps a read-only copy of its DerivationTable, so no caller can
    change what its d computes."""

    def test_writes_through_the_table_are_refused(self):
        spec = load_spec(catalog_document("torus6"))
        form = parse_form("g3*phi[1;2]", 3)
        before = exterior_d(form, spec)
        table = spec.table
        with pytest.raises(TypeError):
            table.declare_derivative("g3", Direction(3), Coefficient.gauss(7))
        with pytest.raises(TypeError):
            table.declare_symbol("h")
        with pytest.raises(AttributeError):
            table.symbols.add("h")
        with pytest.raises(TypeError):
            table.conjugates["g3"] = "g3"
        with pytest.raises(TypeError):
            table.entries[("g3", Direction(3))] = Coefficient.gauss(7)
        for name, value in (("depth_limit", 1), ("auto_fresh", False), ("entries", {})):
            with pytest.raises(AttributeError):
                setattr(table, name, value)
        assert exterior_d(form, spec) == before
        assert "(-1,0)*g33*phi[1,3;2]" in format_form(before)
        assert spec.with_omega((1, 1, 2)).table.entries == table.entries

    def test_the_spec_copies_the_table_it_is_given(self):
        table = DerivationTable()
        table.declare_symbol("g", "gc")
        d_gen = {1: Form.monomial(1, (1,), (1,), Coefficient.symbol("g"))}
        spec = ManifoldSpec(name="s", n=1, generators=["a"], d_gen=d_gen, omega_coeffs=(1,), table=table)
        form = Form.monomial(1, (), (), Coefficient.symbol("g"))
        before = exterior_d(form, spec)
        table.declare_derivative("g", Direction(1, True), Coefficient.gauss(5))
        table.declare_symbol("h")
        table.depth_limit = 1
        assert exterior_d(form, spec) == before
        assert spec.table.symbols == {"g", "gc"} and not spec.table.entries
        assert spec.table.depth_limit == 3


class TestReadOnlyStructureEquations:
    """The Forms in d_gen are the spec's own read-only copies, so its cached
    results cannot go stale behind it."""

    def test_terms_cannot_be_changed(self):
        spec = load_spec(catalog_document("iwasawa_ak"))
        for a in (1, 2, 3):
            form = spec.d_gen[a]
            with pytest.raises(AttributeError):
                form.terms.clear()
            with pytest.raises(TypeError):
                form.terms[next(iter(form.terms), None)] = None
            with pytest.raises(AttributeError):
                form.terms = {}
            with pytest.raises(AttributeError):
                form.n = 4
        conjugate = structure._d_bar(1, spec)  # the conjugate d(phi^1bar) every monomial reads
        with pytest.raises(AttributeError):
            conjugate.terms.clear()
        assert structure._d_bar(1, spec) == spec.d_gen[1].conjugate(spec.table) == conjugate

    def test_constructor_copies_the_forms(self):
        value = Form.monomial(1, (), (1,))
        spec = ManifoldSpec(name="s", n=1, generators=["a"], d_gen={1: value}, omega_coeffs=(1,))
        value.terms.clear()
        assert spec.d_gen[1] == Form.monomial(1, (), (1,))

    def test_no_stale_dimension(self):
        spec = load_spec(catalog_document("iwasawa_ak"))
        assert harmonic_space(HarmonicKind.DELBAR, 1, 0, spec).dim == 1
        for a in (1, 2):
            with pytest.raises(AttributeError):
                spec.d_gen[a].terms.clear()
        assert harmonic_space(HarmonicKind.DELBAR, 1, 0, spec).dim == 1
        # the structure those clears would have asked for has another answer
        cleared = dataclasses.replace(
            spec, d_gen={**spec.d_gen, 1: Form.zero(3), 2: Form.zero(3)}
        )
        assert harmonic_space(HarmonicKind.DELBAR, 1, 0, cleared).dim == 3


class TestSpecOwnsCaches:
    def test_derived_spec_is_freed(self, iwasawa):
        spec = iwasawa.with_omega((2, 1, 1))
        harmonic_space(HarmonicKind.BC, 1, 1, spec)
        primitive_basis(spec, 1, 1)
        ref = weakref.ref(spec)
        del spec
        gc.collect()
        assert ref() is None

    def test_derived_specs_start_with_an_empty_cache(self, iwasawa):
        before = primitive_basis(iwasawa, 1, 1)
        assert iwasawa._cache
        renamed = dataclasses.replace(iwasawa, name="renamed")
        rescaled = iwasawa.with_omega((1, 1, 2))
        for derived in (renamed, rescaled):
            assert derived._cache == {}
        assert primitive_basis(renamed, 1, 1) == before
        assert primitive_basis(rescaled, 1, 1) != before

    def test_derived_specs_read_their_own_d_for_symbols(self, iwasawa, torus):
        """Whether d has symbolic coefficients is read once per spec, from
        that spec's d: a spec from dataclasses.replace reads it again."""
        assert torus.has_symbolic_structure() and not iwasawa.has_symbolic_structure()
        constant = dataclasses.replace(torus, d_gen={})
        symbolic = dataclasses.replace(iwasawa, d_gen=torus.d_gen, table=torus.table)
        assert not constant.has_symbolic_structure()
        assert symbolic.has_symbolic_structure()
        assert not dataclasses.replace(iwasawa, name="renamed").has_symbolic_structure()
        assert torus.has_symbolic_structure() and not iwasawa.has_symbolic_structure()


class TestImagesOnDemand:
    """Star and L images of a unit monomial are closed forms, built when a
    column first asks for them."""

    def test_star_and_L_columns_build_no_form(self, monkeypatch):
        specs = [load_spec(catalog_document(name)) for name in ("iwasawa_ak", "torus6")]
        specs.append(specs[0].with_omega((2, 3, 5)))
        wedges = []
        original = Form.wedge

        def counting(self, other):
            wedges.append(other)
            return original(self, other)

        monkeypatch.setattr(Form, "wedge", counting)
        for spec in specs:
            for p in range(spec.n + 1):
                for q in range(spec.n + 1):
                    operator_columns([("*",), ("L",)], p, q, spec)
        monkeypatch.undo()
        assert wedges == []

    def test_one_slice_builds_few_star_images(self, monkeypatch):
        """Each star image takes the weight <m, m> of its monomial once."""
        spec = ManifoldSpec(
            name="flat8", n=4, generators=["a", "b", "c", "e"], d_gen={}, omega_coeffs=(1,) * 4
        )
        built = []
        original = hermitian._inner_square

        def counting(idx, spec):
            built.append(idx)
            return original(idx, spec)

        monkeypatch.setattr(hermitian, "_inner_square", counting)
        harmonic_subspace(HarmonicKind.D, 2, 2, spec)
        monkeypatch.undo()
        assert 0 < len(built) < 4**spec.n

    def test_barred_structure_equations_are_conjugated_once(self, monkeypatch):
        spec = load_spec(catalog_document("iwasawa_ak"))
        conjugated = []
        original = Form.conjugate

        def counting(self, table=None):
            conjugated.append(self)
            return original(self, table)

        monkeypatch.setattr(Form, "conjugate", counting)
        check_integrability_relations(spec)
        monkeypatch.undo()
        assert len(conjugated) <= spec.n


class TestSparseKernels:
    """Condition and primitive kernels are eliminated from sparse rows, and
    operator blocks are sums of memoised word images."""

    def test_condition_and_primitive_kernels_build_no_dense_row(self, monkeypatch):
        """No dense-row helper is left, and every row that the condition and
        primitive kernels reduce reaches `linalg.rref`, the one elimination
        entry, as a sparse dict of nonzero values inside its columns."""
        dense = ((hermitian, "block_rows"), (harmonic, "block_rows"), (linalg, "_to_int"),
                 (linalg, "span"), (linalg.Subspace, "vectors"))
        assert [name for owner, name in dense if hasattr(owner, name)] == []
        spec = load_spec(catalog_document("iwasawa_ak"))
        rows = []
        reduce = linalg.rref

        def recording(matrix, ncols):
            rows.extend((row, ncols) for row in matrix)
            return reduce(matrix, ncols)

        monkeypatch.setattr(linalg, "rref", recording)
        for p in range(spec.n + 1):
            for q in range(spec.n + 1):
                for key in harmonic.CONDITION_WORDS:
                    harmonic._condition_subspace(key, p, q, spec)
                if p + q <= spec.n:
                    primitive_subspace(spec, p, q)
        monkeypatch.undo()
        assert rows
        for row, ncols in rows:
            assert isinstance(row, dict) and row
            assert all(0 <= j < ncols and not x.is_zero() for j, x in row.items())

    def test_laplacian_block_multiplies_nothing_by_one(self, monkeypatch):
        """Once the images of the words' parts are built, composing the
        Laplacian blocks multiplies no Q(i) value by 1: a first operator's
        image is used as it is and the words are added without scaling."""
        spec = load_spec(catalog_document("iwasawa_ak"))
        bidegrees = [(p, q) for p in range(4) for q in range(4)]
        blocks = [(words, p, q) for words in LAPLACIAN_WORDS.values() for p, q in bidegrees]
        for block in blocks:
            operator_columns(*block, spec)
        one = GaussianRational(1)
        products = []
        original = GaussianRational.__mul__

        def counting(self, other):
            products.append((self, other))
            return original(self, other)

        monkeypatch.setattr(GaussianRational, "__mul__", counting)
        monkeypatch.setattr(GaussianRational, "__rmul__", counting)
        for block in blocks:
            operator_columns(*block, spec)
        monkeypatch.undo()
        assert products
        assert [pair for pair in products if one in pair] == []

    @pytest.mark.parametrize("words", [[("*",)], [("del", "delbar", "*")], LAPLACIAN_WORDS["bc"]])
    def test_returned_columns_do_not_alias_the_cache(self, words):
        spec = load_spec(catalog_document("iwasawa_ak"))
        bidegrees = [(p, q) for p in range(4) for q in range(4)]
        before = [operator_columns(words, p, q, spec) for p, q in bidegrees]
        assert any(any(block) for block in before)
        for p, q in bidegrees:
            for column in operator_columns(words, p, q, spec):
                column.clear()
        assert [operator_columns(words, p, q, spec) for p, q in bidegrees] == before


class TestOneSplitOfD:
    """d of a Form is one term map over the cached split of d of each unit
    monomial; the split is the one cache of d per monomial."""

    def test_components_build_no_intermediate_form(self, monkeypatch):
        spec = load_spec(catalog_document("torus6"))
        form = parse_form("(1,2)*g33*phi[1,3;2] + g3c*phi[2,3;1] + g3*g3c*phi[1;1]", 3)
        calls = []
        wedge, add = Form.wedge, Form.__add__

        def counting_wedge(self, other):
            calls.append("wedge")
            return wedge(self, other)

        def counting_add(self, other):
            calls.append("add")
            return add(self, other)

        monkeypatch.setattr(Form, "wedge", counting_wedge)
        monkeypatch.setattr(Form, "__add__", counting_add)
        images = {kind: differential_component(form, kind, spec) for kind in OperatorKind}
        monkeypatch.undo()
        assert calls == []
        assert images[OperatorKind.DEL] and images[OperatorKind.DELBAR]

    def test_the_split_is_the_one_cache_of_d(self):
        """Constant terms read the split; only a term with a symbol monomial
        adds cached entries of its own: the frame derivatives of that
        monomial."""
        spec = load_spec(catalog_document("iwasawa_ak"))
        check_integrability_relations(spec)
        assert any(key[0] == "d_parts" for key in spec._cache)
        assert not [key for key in spec._cache if key[0] == "d"]
        _dimension_tables(spec)
        form = parse_form("(1,2)*phi[1;2] + phi[1,3;2] - 3*phi[2;] + phi[;3]", 3)
        for kind in HarmonicKind:
            is_harmonic(kind, form, spec)
        assert not [key for key in spec._cache if key[0] in ("d", "derivative")]
        torus = load_spec(catalog_document("torus6"))
        form = parse_form("(1,2)*g33*phi[1,3;2] + g3c*phi[2,3;1] + g3*g3c*phi[1;1] + phi[2;]", 3)
        for kind in HarmonicKind:
            is_harmonic(kind, form, torus)
        entries = [key[1:] for key in torus._cache if key[0] == "derivative"]
        assert entries and all(s and isinstance(direction, Direction) for s, direction in entries)


class TestReturnedFormsAreNew:
    """apply_word builds every Form it returns, so a caller may change one
    without changing a cache, an input or a later result."""

    WORDS = [(), ("*",), ("L",), ("Lambda",), ("d",), ("mu",), ("del*",), ("d", "*")]
    WORDS += [*CONDITION_WORDS["bc"], *LAPLACIAN_WORDS["del"]]

    @pytest.mark.parametrize(
        "name, text",
        [
            ("torus6", "(1,2)*g33*phi[1,3;2] + g3c*phi[2,3;1] + g3*g3c*phi[1;1] + phi[2;]"),
            ("iwasawa_ak", "(1,2)*phi[1;2] + phi[1,3;2] - 3*phi[2;] + phi[;3]"),
        ],
    )
    def test_clearing_every_returned_form_changes_no_later_result(self, name, text):
        spec = load_spec(catalog_document(name))
        form = parse_form(text, 3)
        calls = [lambda f, w=word: apply_word(w, f, spec) for word in self.WORDS]
        calls += [lambda f, k=kind: differential_component(f, k, spec) for kind in OperatorKind]
        calls += [
            lambda f: exterior_d(f, spec),
            lambda f: hodge_star(f, spec),
            lambda f: lefschetz_L(f, spec),
            lambda f: lefschetz_lambda(f, spec),
            lambda f: adjoint(OperatorKind.DEL, f, spec),
            lambda f: laplacian_apply(HarmonicKind.D, f, spec),
        ]
        first = [call(form) for call in calls]
        texts = [format_form(f) for f in first]
        assert any(f.terms for f in first)
        for f in first:
            f.terms.clear()
        assert [format_form(call(form)) for call in calls] == texts
        assert format_form(form) == format_form(parse_form(text, 3))

    @pytest.mark.parametrize(
        "name, text",
        [
            ("torus6", "(1,2)*g33*phi[1;] + g3c*phi[;2]"),
            ("torus6", "(1,2)*g33*phi[1;2] + g3c*phi[2;1] - 3*phi[3;3] + g3*phi[1;1]"),
            ("torus6", "g3*phi[1,2;3] + (0,1)*phi[1;1,2] + 2*phi[2;2,3]"),
            ("iwasawa_ak", "(1,2)*phi[1;2] + phi[1;1] - 3*phi[2;2]"),
        ],
    )
    def test_clearing_the_ladder_parts_changes_no_later_result(self, name, text):
        """The parts of primitive_decompose and the Form of reassemble are new,
        the degree 0 part of a 1-form too."""
        spec = load_spec(catalog_document(name))
        form = parse_form(text, 3)

        def ladder():
            decomposition = primitive_decompose(form, spec)
            return [beta for _, beta in decomposition.parts] + [decomposition.reassemble(spec)]

        first = ladder()
        texts = [format_form(f) for f in first]
        assert all(f.terms for f in first)
        for f in first:
            f.terms.clear()
        assert [format_form(f) for f in ladder()] == texts
        assert format_form(form) == format_form(parse_form(text, 3))


class TestSharedTermImages:
    """apply_word sums cached images of unit terms, one per (word, monomial,
    symbol monomial) and spec: the words of several kinds, equal Forms and
    the Lambda ladder share them."""

    def test_each_image_is_built_once(self, monkeypatch):
        spec = load_spec(catalog_document("torus6"))
        text = "(1,2)*g33*phi[1;2] + g3c*phi[1;2] - 3*phi[2;1] + (0,1)*g3*phi[3;3] + phi[1;1]"
        built = []
        build = hermitian._build_term_image

        def spying(word, idx, s, spec):
            built.append((word, idx, s))
            return build(word, idx, s, spec)

        monkeypatch.setattr(hermitian, "_build_term_image", spying)
        for kind in HarmonicKind:
            is_harmonic(kind, parse_form(text, 3), spec)
        certified = len(built)
        # 12 condition words, 8 of them distinct, on 5 unit terms
        words = {word for kind in HarmonicKind for word in CONDITION_WORDS[kind.value]}
        assert len(words) == 8
        assert len(set(built)) == certified == 8 * 5
        for kind in HarmonicKind:
            is_harmonic(kind, parse_form(text, 3), spec)
        assert len(built) == certified
        assert is_primitive(parse_form(text, 3), spec) is False
        lambdas = len(built)
        assert lambdas > certified
        decomposition = primitive_decompose(parse_form(text, 3), spec)
        assert decomposition.reassemble(spec) == parse_form(text, 3)
        monkeypatch.undo()
        assert len(built) > lambdas
        assert len(set(built)) == len(built)


class TestUnderivableTerms:
    """A term that cannot be differentiated raises DepthExceeded, and the
    first one met is the first a direction-by-direction derivative of each
    coefficient meets: frame directions in turn, the coefficient's terms
    within each.  The expected texts are what the Form-level d raised."""

    def test_the_first_underivable_term_names_the_error(self):
        spec = load_spec(catalog_document("torus6"))
        shallow_table = DerivationTable(
            set(spec.table.symbols), dict(spec.table.conjugates), dict(spec.table.entries),
            depth_limit=0,
        )
        shallow = dataclasses.replace(spec, table=shallow_table)
        cases = [
            (
                spec,
                "V1[V1[V1[g3]]]*phi[1;2] + V2[V2[V2[g3c]]]*phi[1;2]",
                "derivative of 'V1[V1[V1[g3]]]' along Vb1 exceeds depth limit 3",
            ),
            # g33 is declared along V1 but not V3; V1[g3] along nothing
            (shallow, "g33*phi[2;] + V1[g3]*phi[2;]", "derivative of 'V1[g3]' along V1 exceeds depth limit 0"),
        ]
        for spec, text, message in cases:
            form = parse_form(text, 3)
            for _ in range(2):
                with pytest.raises(DepthExceeded) as caught:
                    exterior_d(form, spec)
                assert str(caught.value) == message

    def test_a_term_image_that_fails_falls_back_to_the_whole_form(self, monkeypatch):
        """The d Lambda image of each unit term of this form fails at depth
        limit 0, but the Lambda images of the two terms cancel at phi[2;], so
        d Lambda of the whole form is 0, as the operator-by-operator pass over
        the whole form gives; d of the form raises for its first underivable
        term.  No failed build leaves an image in the spec cache."""
        spec = load_spec(catalog_document("torus6"))
        shallow_table = DerivationTable(
            set(spec.table.symbols), dict(spec.table.conjugates), dict(spec.table.entries),
            depth_limit=0,
        )
        shallow = dataclasses.replace(spec, table=shallow_table)
        form = parse_form("V1[g3]*phi[1,2;1] + V1[g3]*phi[2,3;3]", 3)
        failed = []
        build = hermitian._build_term_image

        def spying(word, idx, s, spec):
            try:
                return build(word, idx, s, spec)
            except DepthExceeded:
                failed.append((word, idx, s))
                raise

        monkeypatch.setattr(hermitian, "_build_term_image", spying)
        assert apply_word(("d", "Lambda"), form, shallow).is_zero()
        assert [word for word, _, _ in failed] == [("d", "Lambda")]
        for _ in range(2):
            with pytest.raises(DepthExceeded) as caught:
                apply_word(("d",), form, shallow)
            assert str(caught.value) == "derivative of 'V1[g3]' along Vb2 exceeds depth limit 0"
        monkeypatch.undo()
        assert [word for word, _, _ in failed] == [("d", "Lambda"), ("d",), ("d",)]
        for idx, coeff in form.terms.items():
            for s, _ in coeff.items():
                with pytest.raises(DepthExceeded):
                    hermitian._term_image(("d", "Lambda"), idx, s, shallow)
        assert not [key for key in shallow._cache if key[0] == "term-image"]
        assert not [key for key in shallow._cache if key[0] == "derivative"]


class TestEntriesAreFixed:
    """ManifoldSpec.cached is the one memo of a spec, and an entry is never
    changed once built: later work on the same phi-monomials, with new
    symbol monomials on torus6 and new values on iwasawa_ak, adds keys and
    leaves every earlier value as it was."""

    CASES = {
        "torus6": (
            "g3*phi[1,3;2] + g3c*phi[2,3;1]",
            ["g33*phi[1,3;2] + g3b3*phi[2,3;1]", "g3*g3c*phi[1,3;2] + g33c*phi[1,2;3]"],
        ),
        "iwasawa_ak": (
            "(1,2)*phi[1,3;2] + phi[2,3;1]",
            ["3*phi[1,3;2] - phi[1,2;3]", "phi[1,2;1] + (0,1)*phi[2,3;2]"],
        ),
    }

    @staticmethod
    def certify(text, spec):
        form = parse_form(text, spec.n)
        for kind in HarmonicKind:
            is_harmonic(kind, form, spec)
        primitive_decompose(form, spec)

    @pytest.mark.parametrize("name", CASES)
    def test_later_work_changes_no_earlier_entry(self, name, monkeypatch):
        # the read-only views a cache holds, deep-copied through a plain dict and Form
        monkeypatch.setitem(
            copyreg.dispatch_table, MappingProxyType, lambda m: (MappingProxyType, (dict(m),))
        )
        monkeypatch.setitem(
            copyreg.dispatch_table, ReadOnlyForm, lambda f: (ReadOnlyForm, (Form(f.n, dict(f.terms)),))
        )
        first, later = self.CASES[name]
        spec = load_spec(catalog_document(name))
        self.certify(first, spec)
        before = dict(spec._cache)
        snapshot = copy.deepcopy(before)
        for text in later:
            self.certify(text, spec)
        assert len(spec._cache) > len(before)
        changed = [key for key, value in before.items() if spec._cache[key] is not value]
        changed += [key for key, value in snapshot.items() if spec._cache[key] != value]
        assert changed == []


def test_no_cache_entry_is_filled_or_cleared_in_place():
    """No `.cached(...)` builds an empty container to fill later (its build
    argument is never dict, list, set or defaultdict), and no module calls
    `.clear()`: a memo outside ManifoldSpec.cached would be both."""
    containers = {"dict", "list", "set", "defaultdict"}
    offenders = []
    for path in sorted(Path(harmonica.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr == "clear":
                offenders.append(f"{path.name}:{node.lineno}: .clear()")
            elif node.func.attr == "cached" and len(node.args) > 1:
                build = node.args[1]
                name = build.id if isinstance(build, ast.Name) else getattr(build, "attr", None)
                if name in containers:
                    offenders.append(f"{path.name}:{node.lineno}: .cached(..., {name})")
    assert offenders == []


def test_no_function_caches_in_the_package():
    """Per-spec state lives on the spec: no module may memoize with
    functools.lru_cache or functools.cache."""
    banned = {"lru_cache", "cache"}
    offenders = []
    for path in sorted(Path(harmonica.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = {alias.name for alias in node.names}
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "functools"
            ):
                names = {node.attr}
            else:
                continue
            offenders += [f"{path.name}:{node.lineno}: {name}" for name in names & banned]
    assert offenders == []


def test_one_wedge_sign_rule():
    """forms.py alone knows the monomial wedge rule and the sparse column
    accumulator: no other module references _sort_with_sign or defines
    _wedge_monomials or _combine."""
    offenders = []
    for path in sorted(Path(harmonica.__file__).parent.rglob("*.py")):
        if path.name == "forms.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names} & {"_sort_with_sign"}
            elif isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                names = {name} & {"_sort_with_sign"}
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = {node.name} & {"_wedge_monomials", "_combine"}
            else:
                continue
            offenders += [f"{path.name}:{node.lineno}: {name}" for name in names]
    assert offenders == []


def test_d_has_one_owner():
    """structure.py owns d: it imports nothing from hermitian, at the top of
    the file or inside a function, and it alone defines the split of d and
    the d pass over a term map."""
    owned = {"_split_d", "_d_terms", "_unit_term_images", "_frame"}
    defined, offenders = set(), []
    for path in sorted(Path(harmonica.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in owned:
                if path.name == "structure.py":
                    defined.add(node.name)
                else:
                    offenders.append(f"{path.name}:{node.lineno}: defines {node.name}")
            elif path.name == "structure.py" and isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
                if any(name.rsplit(".", 1)[-1] == "hermitian" for name in names):
                    offenders.append(f"structure.py:{node.lineno}: imports hermitian")
    assert offenders == []
    assert defined == owned


def test_theorems_works_on_subspace_values():
    """The statements compare canonical Subspace values: theorems.py imports
    (or reaches through a module) no list-level linalg function and no
    rows <-> Forms conversion; Subspace methods are what it uses."""
    banned = {
        "rref",
        "rank",
        "right_kernel",
        "first_outside",
        "is_subspace",
        "in_span",
        "subspace_equal",
        "subspace_sum",
        "subspace_intersection",
        "is_direct_sum",
        "rows_to_forms",
        "forms_to_rows",
    }
    path = Path(harmonica.__file__).parent / "theorems.py"
    offenders = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            names = {alias.name.rsplit(".", 1)[-1] for alias in node.names}
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("linalg", "harmonic", "hermitian")
        ):
            names = {node.attr}
        else:
            continue
        offenders += [f"theorems.py:{node.lineno}: {name}" for name in names & banned]
    assert offenders == []



def test_dense_rows_serve_only_the_laplacian_cross_check():
    """No dense-list code is left in src/harmonica: the Laplacian cross-check
    reduces sparse rows like every other caller, so no definition, name,
    import or attribute of `span`, `sparse_span`, `block_rows` or `_to_int`
    appears in any module, nor a definition or attribute `vectors` (the
    dense view of a Subspace), and the cross-check's reduction is a
    Subspace value that `is_kernel` reads."""
    functions = {"span", "sparse_span", "block_rows", "_to_int"}
    offenders = []
    for path in sorted(Path(harmonica.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names = {node.id} & functions
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {alias.name.rsplit(".", 1)[-1] for alias in node.names} & functions
            elif isinstance(node, ast.Attribute):
                names = {node.attr} & (functions | {"vectors"})
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = {node.name} & (functions | {"vectors"})
            else:
                continue
            offenders += [f"{path.name}:{node.lineno}: {name}" for name in sorted(names)]
    assert offenders == []
    spec = load_spec(catalog_document("iwasawa_ak"))
    reduced = harmonic._laplacian_nullspace(harmonic.HarmonicKind.BC, 1, 1, spec)
    assert isinstance(reduced, linalg.Subspace) and reduced.ncols == 9
    assert linalg.is_kernel(harmonic._condition_subspace("bc", 1, 1, spec), reduced)
