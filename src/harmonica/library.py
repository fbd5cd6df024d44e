"""Golden manifold specs and the spec-file loader.

A spec document is a single UTF-8 JSON object; the schema ships with the
package (data/spec.schema.json).  Serialization is canonical — loading a
golden file and re-serializing it reproduces the bytes exactly.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from .errors import DimensionMismatch, ParseError, SchemaError, UnknownSpec, ValidationError
from .forms import _add_monomial, _form
from .scalars import (
    Coefficient,
    DerivationTable,
    Direction,
    format_rational,
    parse_rational,
)
from .structure import ManifoldSpec

__all__ = ["load_spec", "load_spec_path", "serialize_spec", "catalog", "CATALOG_NAMES"]

CATALOG_NAMES = ("torus6", "iwasawa_ak", "iwasawa_cplx", "flat_kahler6")

_REQUIRED_FIELDS = {"name", "n", "generators", "d", "omega", "symbols", "conjugates", "derivations"}
_OPTIONAL_FIELDS = {"depth_limit", "auto_fresh"}
# The largest n a spec may have; the engine walks all 4^n basis monomials.
MAX_N = 6


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise SchemaError(message)


def load_spec(document) -> ManifoldSpec:
    """Build a validated ManifoldSpec from a JSON text or parsed object."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed JSON: {exc}") from None
    _expect(isinstance(document, dict), "spec document must be a JSON object")
    fields = set(document)
    missing = _REQUIRED_FIELDS - fields
    extra = fields - _REQUIRED_FIELDS - _OPTIONAL_FIELDS
    _expect(not missing, f"missing fields: {sorted(missing)}")
    _expect(not extra, f"unknown fields: {sorted(extra)}")
    _expect(isinstance(document["name"], str), "'name' must be a string")
    n = document["n"]
    _expect(isinstance(n, int) and not isinstance(n, bool), "'n' must be an integer")
    if n > MAX_N:
        raise DimensionMismatch(f"n = {n} exceeds the supported maximum n = {MAX_N}")
    generators = document["generators"]
    _expect(
        isinstance(generators, list) and all(isinstance(g, str) for g in generators),
        "'generators' must be a list of names",
    )
    if len(generators) != n:
        raise ValidationError(f"expected {n} generators, got {len(generators)}")
    if len(set(generators)) != n:
        raise ValidationError("generator names must be distinct")

    _expect(isinstance(document["symbols"], list), "'symbols' must be a list")
    _expect(isinstance(document["conjugates"], dict), "'conjugates' must be an object")
    _expect(isinstance(document["derivations"], dict), "'derivations' must be an object")
    depth_limit = document.get("depth_limit", 3)
    auto_fresh = document.get("auto_fresh", True)
    _expect(
        isinstance(depth_limit, int) and not isinstance(depth_limit, bool) and depth_limit >= 1,
        "'depth_limit' must be an integer >= 1",
    )
    _expect(isinstance(auto_fresh, bool), "'auto_fresh' must be true or false")
    table = DerivationTable(depth_limit=depth_limit, auto_fresh=auto_fresh)
    for s in document["symbols"]:
        _expect(isinstance(s, str), "symbol names must be strings")
        try:
            table.declare_symbol(s)
        except ValueError as exc:
            raise ValidationError(str(exc)) from None
    for a, b in document["conjugates"].items():
        _expect(isinstance(b, str), f"the conjugate of {a!r} must be a symbol name")
        if a not in table.symbols or b not in table.symbols:
            raise ValidationError(f"conjugate pair ({a!r},{b!r}) uses undeclared symbols")
        table.conjugates[a] = b
    for a, b in list(table.conjugates.items()):
        if table.conjugates.get(b) != a:
            raise ValidationError(f"conjugation is not an involution at {a!r}")
    for sym, entries in document["derivations"].items():
        if sym not in table.symbols:
            raise ValidationError(f"derivation entry for undeclared symbol {sym!r}")
        _expect(isinstance(entries, dict), f"derivations[{sym!r}] must be an object")
        for label, coeff_doc in entries.items():
            direction = Direction.from_label(label)
            if not 1 <= direction.index <= n:
                raise ValidationError(f"direction {label!r} out of range for n={n}")
            value = Coefficient.from_json(coeff_doc)
            for used in value.symbols():
                if used not in table.symbols:
                    raise ValidationError(
                        f"derivation of {sym!r} uses undeclared symbol {used!r}"
                    )
            table.declare_derivative(sym, direction, value)

    _expect(isinstance(document["d"], dict), "'d' must be an object")
    unknown = set(document["d"]) - set(generators)
    if unknown:
        raise ValidationError(f"'d' names unknown generators: {sorted(unknown)}")
    d_gen = {}
    for a, gen in enumerate(generators, start=1):
        term_docs = document["d"].get(gen, [])
        _expect(isinstance(term_docs, list), f"d[{gen!r}] must be a list of terms")
        terms: dict = {}
        for term in term_docs:
            _expect(
                isinstance(term, dict) and {"coeff", "hol", "anti"} <= set(term),
                f"each d[{gen!r}] term needs coeff/hol/anti",
            )
            hol, anti = term["hol"], term["anti"]
            _expect(
                isinstance(hol, list)
                and isinstance(anti, list)
                and all(type(i) is int for i in hol + anti),
                f"hol and anti of each d[{gen!r}] term must be lists of integers",
            )
            for i in hol + anti:
                if not 1 <= i <= n:
                    raise ValidationError(f"index {i!r} out of range in d[{gen!r}]")
            coeff = Coefficient.from_json(term["coeff"])
            for used in coeff.symbols():
                if used not in table.symbols:
                    raise ValidationError(
                        f"d[{gen!r}] uses undeclared symbol {used!r}"
                    )
            _add_monomial(terms, n, hol, anti, coeff)
        d_gen[a] = _form(n, terms)

    omega = document["omega"]
    _expect(isinstance(omega, list), "'omega' must be a list of rationals")
    if len(omega) != n:
        raise ValidationError(f"expected {n} omega coefficients")
    coeffs = []
    for c in omega:
        value = parse_rational(c)
        if value <= 0:
            raise ValidationError(f"omega coefficient {c!r} must be positive")
        coeffs.append(value)

    return ManifoldSpec(
        name=document["name"],
        n=n,
        generators=list(generators),
        d_gen=d_gen,
        omega_coeffs=tuple(coeffs),
        table=table,
    )


def load_spec_path(path) -> ManifoldSpec:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return load_spec(text)


def serialize_spec(spec: ManifoldSpec) -> str:
    """Canonical document text; inverse of load_spec on golden files."""
    d_doc = {}
    for a, gen in enumerate(spec.generators, start=1):
        terms = []
        for idx, coeff in sorted(
            spec.d_gen[a].terms.items(), key=lambda kv: (kv[0].hol, kv[0].anti)
        ):
            terms.append(
                {"coeff": coeff.to_json(), "hol": list(idx.hol), "anti": list(idx.anti)}
            )
        d_doc[gen] = terms
    table = spec.table
    derivations = {}
    for sym in sorted({s for s, _ in table.entries}):
        derivations[sym] = {
            direction.label: table.entries[(s, direction)].to_json()
            for s, direction in sorted(
                (key for key in table.entries if key[0] == sym),
                key=lambda key: key[1].label,
            )
        }
    document = {
        "name": spec.name,
        "n": spec.n,
        "generators": list(spec.generators),
        "d": d_doc,
        "omega": [format_rational(c) for c in spec.omega_coeffs],
        "symbols": sorted(table.symbols),
        "conjugates": {a: table.conjugates[a] for a in sorted(table.conjugates)},
        "derivations": derivations,
        "depth_limit": table.depth_limit,
        "auto_fresh": table.auto_fresh,
    }
    return json.dumps(document, indent=2) + "\n"


def _golden_text(name: str) -> str:
    try:
        return (
            resources.files("harmonica.data").joinpath(f"{name}.json").read_text("utf-8")
        )
    except FileNotFoundError:
        raise UnknownSpec(f"no catalog spec named {name!r}") from None


_catalog_cache: dict = {}


def catalog(name: str) -> ManifoldSpec:
    """One of the built-in golden specs, loaded from the shipped document."""
    if name not in CATALOG_NAMES:
        raise UnknownSpec(
            f"no catalog spec named {name!r}; available: {', '.join(CATALOG_NAMES)}"
        )
    if name not in _catalog_cache:
        _catalog_cache[name] = load_spec(_golden_text(name))
    return _catalog_cache[name]


def catalog_document(name: str) -> str:
    """The golden document bytes for a catalog spec (for round-trip checks)."""
    if name not in CATALOG_NAMES:
        raise UnknownSpec(f"no catalog spec named {name!r}")
    return _golden_text(name)
