"""Exact scalars: Gaussian rationals and polynomials in formal function symbols.

Every quantity in the engine is either an element of Q(i) or a polynomial in
declared function symbols with Q(i) coefficients.  Symbols carry a conjugation
pairing and a derivation table mapping (symbol, frame direction) to another
coefficient, so that the exterior differential can act on non-constant
structure equations without ever leaving exact arithmetic.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping

from .errors import DepthExceeded, ExponentTooLarge, ParseError, UndeclaredConjugate

__all__ = [
    "Fraction",
    "parse_int",
    "parse_rational",
    "format_rational",
    "GaussianRational",
    "Direction",
    "DerivationTable",
    "Coefficient",
    "MAX_EXPONENT",
]

# The largest power Coefficient.__pow__ (and so a `sym^k` factor in form
# text) computes; shipped specs and inputs use 3 at most.
MAX_EXPONENT = 64

_RATIONAL_RE = _re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


def parse_int(text) -> int:
    """int(text), with a ParseError where int() refuses it (as for 5000 digits)."""
    try:
        return int(text)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational literal of the form "p" or "p/q"."""
    m = _RATIONAL_RE.match(text.strip())
    if not m:
        raise ParseError(f"not a rational literal: {text!r}")
    num = parse_int(m.group(1))
    den = parse_int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ParseError(f"zero denominator in {text!r}")
    return Fraction(num, den)


def format_rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class GaussianRational:
    """An element of Q(i), kept in reduced form by ``fractions.Fraction``."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def i(cls) -> "GaussianRational":
        return cls(0, 1)

    @classmethod
    def i_power(cls, k: int) -> "GaussianRational":
        return (cls(1), cls(0, 1), cls(-1), cls(0, -1))[k % 4]

    @classmethod
    def coerce(cls, value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        raise TypeError(f"cannot coerce {value!r} to GaussianRational")

    def __add__(self, other):
        other = self.coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self.coerce(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return self.coerce(other) - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = self.coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self.coerce(other)
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        return self.coerce(other) / self

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"GaussianRational({self.re!s}, {self.im!s})"

    def __str__(self):
        return f"({format_rational(self.re)},{format_rational(self.im)})"

    def to_json(self) -> dict:
        return {"re": format_rational(self.re), "im": format_rational(self.im)}

    @classmethod
    def from_json(cls, doc: Mapping) -> "GaussianRational":
        return cls(parse_rational(doc["re"]), parse_rational(doc["im"]))


class Direction:
    """A frame direction V_a (bar=False) or Vbar_a (bar=True), 1-based."""

    __slots__ = ("index", "bar")

    def __init__(self, index: int, bar: bool = False):
        self.index = index
        self.bar = bar

    @property
    def label(self) -> str:
        return f"Vb{self.index}" if self.bar else f"V{self.index}"

    def conjugate(self) -> "Direction":
        return Direction(self.index, not self.bar)

    @classmethod
    def from_label(cls, label: str) -> "Direction":
        m = _re.match(r"^V(b?)([1-9]\d*)$", label)
        if not m:
            raise ParseError(f"not a direction label: {label!r}")
        return cls(parse_int(m.group(2)), m.group(1) == "b")

    def __eq__(self, other):
        return (
            isinstance(other, Direction)
            and self.index == other.index
            and self.bar == other.bar
        )

    def __hash__(self):
        return hash((self.index, self.bar))

    def __repr__(self):
        return f"Direction({self.label})"


# A fresh symbol created by differentiating `s` along direction `d` is named
# "<d.label>[<s>]", e.g. Vb3[g3].  Base symbol names must not contain brackets
# so the structure stays parseable.
_FRESH_RE = _re.compile(r"^(Vb?[1-9]\d*)\[(.*)\]$")


def fresh_symbol_name(symbol: str, direction: Direction) -> str:
    return f"{direction.label}[{symbol}]"


def split_fresh(symbol: str):
    """Return (direction, inner) for an auto-generated name, else None."""
    m = _FRESH_RE.match(symbol)
    if not m:
        return None
    return Direction.from_label(m.group(1)), m.group(2)


@dataclass
class DerivationTable:
    """Declared symbols, conjugation pairing, and frame derivatives.

    ``entries`` maps (symbol, direction) to the declared derivative.  A
    missing entry for a symbol within ``depth_limit`` derivations of a
    declared one is fabricated as a fresh symbol when ``auto_fresh`` is on;
    derivations past the limit raise DepthExceeded.  Iterated derivatives are
    independent symbols: no commutation relations are imposed beyond what the
    table declares explicitly.
    """

    symbols: set = field(default_factory=set)
    conjugates: dict = field(default_factory=dict)
    entries: dict = field(default_factory=dict)
    depth_limit: int = 3
    auto_fresh: bool = True

    def declare_symbol(self, name: str, conjugate: str | None = None) -> None:
        if "[" in name or "]" in name:
            raise ValueError(f"brackets are reserved for derived symbols: {name!r}")
        self.symbols.add(name)
        if conjugate is not None:
            if "[" in conjugate or "]" in conjugate:
                raise ValueError(f"brackets are reserved: {conjugate!r}")
            self.symbols.add(conjugate)
            self.conjugates[name] = conjugate
            self.conjugates[conjugate] = name

    def declare_derivative(self, name: str, direction: Direction, value) -> None:
        self.entries[(name, direction)] = Coefficient.coerce(value)

    def depth(self, symbol: str) -> int:
        d = 0
        while True:
            parts = split_fresh(symbol)
            if parts is None or symbol in self.symbols:
                return d
            d += 1
            symbol = parts[1]

    def conjugate_symbol(self, symbol: str) -> str:
        if symbol in self.conjugates:
            return self.conjugates[symbol]
        parts = split_fresh(symbol)
        if parts is not None:
            direction, inner = parts
            return fresh_symbol_name(self.conjugate_symbol(inner), direction.conjugate())
        raise UndeclaredConjugate(f"symbol {symbol!r} has no conjugate partner")

    def derive_symbol(self, symbol: str, direction: Direction) -> "Coefficient":
        key = (symbol, direction)
        if key in self.entries:
            return self.entries[key]
        if self.depth(symbol) + 1 > self.depth_limit:
            raise DepthExceeded(
                f"derivative of {symbol!r} along {direction.label} exceeds depth "
                f"limit {self.depth_limit}"
            )
        if not self.auto_fresh:
            raise DepthExceeded(
                f"no derivation entry for ({symbol!r}, {direction.label}) and "
                "auto_fresh is off"
            )
        return Coefficient.symbol(fresh_symbol_name(symbol, direction))


# A monomial is a sorted tuple of (symbol, exponent) pairs; () is the constant.
Monomial = tuple


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    exps: dict = {}
    for s, e in a:
        exps[s] = exps.get(s, 0) + e
    for s, e in b:
        exps[s] = exps.get(s, 0) + e
    return tuple(sorted(exps.items()))


class Coefficient:
    """A polynomial in function symbols over Q(i), in canonical form.

    Canonical form stores no zero monomial coefficients, so a Coefficient is
    zero iff its term map is empty; two coefficients are equal iff their term
    maps are equal.  Symbols are generically nonzero: any nonzero polynomial
    counts as a nonvanishing function.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, GaussianRational] | None = None):
        self._terms = {m: c for m, c in (terms or {}).items() if not c.is_zero()}

    @classmethod
    def zero(cls) -> "Coefficient":
        return cls()

    @classmethod
    def one(cls) -> "Coefficient":
        return cls({(): GaussianRational(1)})

    @classmethod
    def gauss(cls, re=0, im=0) -> "Coefficient":
        return cls({(): GaussianRational(re, im)})

    @classmethod
    def symbol(cls, name: str) -> "Coefficient":
        return cls({((name, 1),): GaussianRational(1)})

    @classmethod
    def coerce(cls, value) -> "Coefficient":
        if isinstance(value, Coefficient):
            return value
        if isinstance(value, (int, Fraction, GaussianRational)):
            return cls({(): GaussianRational.coerce(value)})
        if isinstance(value, str):
            return cls.symbol(value)
        raise TypeError(f"cannot coerce {value!r} to Coefficient")

    def terms(self) -> Iterator[tuple[Monomial, GaussianRational]]:
        return iter(sorted(self._terms.items()))

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and () in self._terms)

    def constant_value(self) -> GaussianRational | None:
        """The Q(i) value if constant, else None."""
        if not self._terms:
            return GaussianRational(0)
        if len(self._terms) == 1 and () in self._terms:
            return self._terms[()]
        return None

    def symbols(self) -> set:
        out = set()
        for m in self._terms:
            out.update(s for s, _ in m)
        return out

    def __add__(self, other):
        other = self.coerce(other)
        terms = dict(self._terms)
        for m, c in other._terms.items():
            terms[m] = terms.get(m, GaussianRational(0)) + c
        return Coefficient(terms)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self.coerce(other))

    def __rsub__(self, other):
        return self.coerce(other) - self

    def __neg__(self):
        return Coefficient({m: -c for m, c in self._terms.items()})

    def __mul__(self, other):
        other = self.coerce(other)
        terms: dict = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = _mono_mul(m1, m2)
                terms[m] = terms.get(m, GaussianRational(0)) + c1 * c2
        return Coefficient(terms)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a nonzero Q(i) scalar only; symbols are not inverted."""
        if isinstance(other, Coefficient):
            value = other.constant_value()
            if value is None:
                raise ZeroDivisionError("cannot divide by a symbolic coefficient")
            other = value
        other = GaussianRational.coerce(other)
        return Coefficient({m: c / other for m, c in self._terms.items()})

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not defined for Coefficient")
        if k > MAX_EXPONENT:
            raise ExponentTooLarge(f"exponent {k} exceeds the limit {MAX_EXPONENT}")
        out = Coefficient.one()
        for _ in range(k):
            out = out * self
        return out

    def conjugate(self, table: DerivationTable) -> "Coefficient":
        terms: dict = {}
        for m, c in self._terms.items():
            mc = tuple(sorted((table.conjugate_symbol(s), e) for s, e in m))
            terms[mc] = terms.get(mc, GaussianRational(0)) + c.conjugate()
        return Coefficient(terms)

    def derive(self, direction: Direction, table: DerivationTable) -> "Coefficient":
        """Frame derivative, extended to products by the Leibniz rule."""
        out = Coefficient.zero()
        for m, c in self._terms.items():
            for k, (s, e) in enumerate(m):
                rest = list(m)
                if e == 1:
                    del rest[k]
                else:
                    rest[k] = (s, e - 1)
                factor = Coefficient({tuple(rest): c * e})
                out = out + factor * table.derive_symbol(s, direction)
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Coefficient.coerce(other)
        if not isinstance(other, Coefficient):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"Coefficient({self!s})"

    def __str__(self):
        if self.is_zero():
            return "(0,0)"
        pieces = []
        for m, c in self.terms():
            factors = [str(c)]
            for s, e in m:
                factors.append(s if e == 1 else f"{s}^{e}")
            pieces.append("*".join(factors))
        return " + ".join(pieces)

    def to_json(self):
        value = self.constant_value()
        if value is not None:
            return value.to_json()
        return {
            "terms": [
                {"c": c.to_json(), "syms": [[s, e] for s, e in m]}
                for m, c in self.terms()
            ]
        }

    @classmethod
    def from_json(cls, doc) -> "Coefficient":
        if not isinstance(doc, Mapping):
            raise ParseError(f"coefficient document must be an object: {doc!r}")
        if "re" in doc:
            return cls({(): GaussianRational.from_json(doc)})
        if "terms" not in doc:
            raise ParseError("coefficient document needs 're'/'im' or 'terms'")
        terms: dict = {}
        for t in doc["terms"]:
            mono = tuple(sorted((str(s), parse_int(e)) for s, e in t["syms"]))
            c = GaussianRational.from_json(t["c"])
            terms[mono] = terms.get(mono, GaussianRational(0)) + c
        return cls(terms)
