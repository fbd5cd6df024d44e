"""Exact scalars: Gaussian rationals and polynomials in formal function symbols.

Every quantity in the engine is either an element of Q(i) or a polynomial in
declared function symbols with Q(i) coefficients.  An element of Q(i) is a
`GaussianRational`: three ints (re + im*i)/den in a unique reduced form, so
arithmetic is integer operations and one gcd per result; `Fraction` is only
the exchange type where a rational is read or written as such (form text
goes straight to ints through parse_rational_ints).  Symbols carry a
conjugation pairing and a derivation table mapping (symbol, frame direction)
to another coefficient, so that the exterior differential can act on
non-constant structure equations without ever leaving exact arithmetic.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterator, Mapping

from .errors import DepthExceeded, ExponentTooLarge, ParseError, UndeclaredConjugate

__all__ = [
    "Fraction",
    "parse_int",
    "parse_rational_ints",
    "parse_rational",
    "format_rational",
    "GaussianRational",
    "Direction",
    "DerivationTable",
    "ReadOnlyTable",
    "Coefficient",
    "MAX_EXPONENT",
]

# The largest power Coefficient.__pow__ (and so a `sym^k` factor in form
# text) computes and a spec document's symbol power may have; shipped specs
# and inputs use 3 at most.
MAX_EXPONENT = 64


def _checked_exponent(k: int) -> int:
    """k, or ExponentTooLarge when it is above MAX_EXPONENT."""
    if k > MAX_EXPONENT:
        raise ExponentTooLarge(f"exponent {k} exceeds the limit {MAX_EXPONENT}")
    return k


# A declarable symbol name, as form text parses it.
SYMBOL_NAME = r"[A-Za-z_][A-Za-z0-9_]*"

_RATIONAL_RE = _re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


def parse_int(text) -> int:
    """int(text), with a ParseError where int() refuses it (as for 5000 digits)."""
    try:
        return int(text)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_rational_ints(text: str) -> tuple[int, int]:
    """The ints (p, q) of an exact rational literal "p" or "p/q", with q > 0
    and the fraction not reduced; anything but a string (such as a JSON
    number) is refused."""
    if not isinstance(text, str):
        raise ParseError(f"expected a rational literal in a string, got {text!r}")
    m = _RATIONAL_RE.match(text.strip())
    if not m:
        raise ParseError(f"not a rational literal: {text!r}")
    num = parse_int(m.group(1))
    den = parse_int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ParseError(f"zero denominator in {text!r}")
    return num, den


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational literal as parse_rational_ints, into a Fraction."""
    return Fraction(*parse_rational_ints(text))


def format_rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


_new = object.__new__


def _from_ints(re_num: int, im_num: int, den: int = 1) -> "GaussianRational":
    """The normal form of (re_num + im_num*i) / den for ints with den > 0;
    the reduced constructor of every arithmetic result (no `__init__`)."""
    if den != 1:
        g = gcd(re_num, im_num, den)
        if g != 1:
            re_num //= g
            im_num //= g
            den //= g
    x = _new(GaussianRational)
    x.re_num = re_num
    x.im_num = im_num
    x.den = den
    return x


class GaussianRational:
    """An element of Q(i) as three ints: (re_num + im_num*i) / den.

    The form is normal: den > 0 and gcd(re_num, im_num, den) == 1, so equal
    values have equal fields and `==` compares them literally.  Arithmetic
    works on the ints alone, with one gcd per result; `Fraction` appears only
    at the boundary (the constructor's arguments, `.re`/`.im`, text, and the
    hash of a real value, that of its Fraction).  Values are shared by caches,
    so the fields are read-only by convention.
    """

    __slots__ = ("re_num", "im_num", "den")

    def __init__(self, re=0, im=0):
        if not isinstance(re, (int, Fraction)) or not isinstance(im, (int, Fraction)):
            raise TypeError(f"GaussianRational takes ints and Fractions, not {re!r}, {im!r}")
        # two fractions in lowest terms over the lcm of their denominators are
        # in normal form: a prime of den divides at most one scaled numerator
        den = lcm(re.denominator, im.denominator)
        self.re_num = re.numerator * (den // re.denominator)
        self.im_num = im.numerator * (den // im.denominator)
        self.den = den

    from_ints = staticmethod(_from_ints)

    @property
    def re(self) -> Fraction:
        return Fraction(self.re_num, self.den)

    @property
    def im(self) -> Fraction:
        return Fraction(self.im_num, self.den)

    @classmethod
    def i_power(cls, k: int) -> "GaussianRational":
        return (cls(1), cls(0, 1), cls(-1), cls(0, -1))[k % 4]

    @classmethod
    def coerce(cls, value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if type(value) is int:
            return _from_ints(value, 0, 1)
        if isinstance(value, (int, Fraction)):
            return cls(value)
        raise TypeError(f"cannot coerce {value!r} to GaussianRational")

    def __add__(self, other):
        if not isinstance(other, GaussianRational):
            other = self.coerce(other)
        d, f = self.den, other.den
        if d == f:
            return _from_ints(self.re_num + other.re_num, self.im_num + other.im_num, d)
        return _from_ints(
            self.re_num * f + other.re_num * d, self.im_num * f + other.im_num * d, d * f
        )

    __radd__ = __add__

    def __sub__(self, other):
        return self + -self.coerce(other)

    def __rsub__(self, other):
        return self.coerce(other) - self

    def __neg__(self):
        return _from_ints(-self.re_num, -self.im_num, self.den)

    def __mul__(self, other):
        if not isinstance(other, GaussianRational):
            other = self.coerce(other)
        a, b, c, e = self.re_num, self.im_num, other.re_num, other.im_num
        return _from_ints(a * c - b * e, a * e + b * c, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """(a + bi)/d divided by (c + ei)/f is f(a + bi)(c - ei) / (d(c^2 + e^2))."""
        if not isinstance(other, GaussianRational):
            other = self.coerce(other)
        a, b, c, e, f = self.re_num, self.im_num, other.re_num, other.im_num, other.den
        norm = c * c + e * e
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return _from_ints((a * c + b * e) * f, (b * c - a * e) * f, self.den * norm)

    def __rtruediv__(self, other):
        return self.coerce(other) / self

    def conjugate(self) -> "GaussianRational":
        return _from_ints(self.re_num, -self.im_num, self.den)

    def is_zero(self) -> bool:
        return not self.re_num and not self.im_num

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return (
                self.re_num == other.re_num
                and self.im_num == other.im_num
                and self.den == other.den
            )
        if isinstance(other, (int, Fraction)):
            return (
                not self.im_num
                and self.re_num == other.numerator
                and self.den == other.denominator
            )
        return NotImplemented

    def __hash__(self):
        if self.im_num:
            return hash((self.re_num, self.im_num, self.den))
        return hash(Fraction(self.re_num, self.den))

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
        if not isinstance(doc, Mapping) or not {"re", "im"} <= set(doc):
            raise ParseError(f"a Gaussian rational needs 're' and 'im': {doc!r}")
        return cls(parse_rational(doc["re"]), parse_rational(doc["im"]))


_ZERO = GaussianRational(0)


@dataclass(frozen=True)
class Direction:
    """A frame direction V_a (bar=False) or Vbar_a (bar=True), 1-based."""

    index: int
    bar: bool = False

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
    table declares explicitly; the table memoizes no derivative.
    """

    symbols: set = field(default_factory=set)
    conjugates: dict = field(default_factory=dict)
    entries: dict = field(default_factory=dict)
    depth_limit: int = 3
    auto_fresh: bool = True

    def declare_symbol(self, name: str, conjugate: str | None = None) -> None:
        """Declare a symbol, and its conjugate partner if given.  A declared
        name is an identifier of form text other than phi: brackets are
        reserved for derived symbols."""
        for s in (name,) if conjugate is None else (name, conjugate):
            if not _re.fullmatch(SYMBOL_NAME, s) or s == "phi":
                raise ValueError(f"symbol name {s!r} is not an identifier other than 'phi'")
        self.symbols.add(name)
        if conjugate is not None:
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

    def derive_monomial(self, m: "Monomial", direction: Direction) -> "Coefficient":
        """The frame derivative of the unit monomial m, by the Leibniz rule,
        as a new Coefficient read from the table as it is now; a spec
        memoizes it per (m, direction) through ManifoldSpec.cached."""
        derived = Coefficient.zero()
        for k, (s, e) in enumerate(m):  # m with one factor s taken out
            rest = m[:k] + (((s, e - 1),) if e > 1 else ()) + m[k + 1 :]
            derived += Coefficient({rest: GaussianRational(e)}) * self.derive_symbol(s, direction)
        return derived


class ReadOnlyTable(DerivationTable):
    """A copy of a DerivationTable whose declarations, settings and symbol,
    conjugate and entry collections refuse writes, for the table a spec
    shares with its callers; it holds no state that fills later."""

    def __init__(self, table: DerivationTable):
        self.__dict__.update(
            symbols=frozenset(table.symbols),
            conjugates=MappingProxyType(dict(table.conjugates)),
            entries=MappingProxyType(dict(table.entries)),
            depth_limit=table.depth_limit,
            auto_fresh=table.auto_fresh,
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: this table is read-only")

    def declare_symbol(self, *args):
        raise TypeError("cannot declare: this table is read-only")

    declare_derivative = declare_symbol


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

    @staticmethod
    def from_terms(terms: dict) -> "Coefficient":
        """The Coefficient that takes over `terms`, a dict with no zero value
        that the caller does not change afterwards: the trusted constructor,
        with no copy and no check."""
        out = _new(Coefficient)
        out._terms = terms
        return out

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

    def items(self):
        """The (monomial, value) pairs in storage order, as a read-only view:
        a Coefficient reads like its term dict."""
        return self._terms.items()

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
            terms[m] = terms.get(m, _ZERO) + c
        return Coefficient(terms)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self.coerce(other))

    def __rsub__(self, other):
        return self.coerce(other) - self

    def __neg__(self):
        return Coefficient({m: -c for m, c in self._terms.items()})

    def __mul__(self, other):
        """A product by a Q(i) constant (a number or a constant Coefficient)
        scales the term map; any other runs the polynomial product."""
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self._scaled(GaussianRational.coerce(other))
        other = self.coerce(other)
        if len(other._terms) == 1 and () in other._terms:
            return self._scaled(other._terms[()])
        if len(self._terms) == 1 and () in self._terms:
            return other._scaled(self._terms[()])
        terms: dict = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = _mono_mul(m1, m2)
                terms[m] = terms.get(m, _ZERO) + c1 * c2
        return Coefficient(terms)

    __rmul__ = __mul__

    def _scaled(self, x: GaussianRational) -> "Coefficient":
        """x times self; a product of nonzero Q(i) values is nonzero, so only
        x = 0 can drop terms, and x = 1 or -1 needs no product."""
        if x.is_zero():
            return Coefficient()
        if x.den == 1 and not x.im_num and x.re_num == 1:
            return Coefficient.from_terms(dict(self._terms))
        if x.den == 1 and not x.im_num and x.re_num == -1:
            return Coefficient.from_terms({m: -c for m, c in self._terms.items()})
        return Coefficient.from_terms({m: c * x for m, c in self._terms.items()})

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
        out = Coefficient.one()
        for _ in range(_checked_exponent(k)):
            out = out * self
        return out

    def conjugate(self, table: DerivationTable) -> "Coefficient":
        terms: dict = {}
        for m, c in self._terms.items():
            mc = tuple(sorted((table.conjugate_symbol(s), e) for s, e in m))
            terms[mc] = terms.get(mc, _ZERO) + c.conjugate()
        return Coefficient(terms)

    def derive(self, direction: Direction, table: DerivationTable) -> "Coefficient":
        """Frame derivative: the sum of c times the table's derivative of the
        unit monomial m over the terms c m."""
        terms: dict = {}
        for m, c in self._terms.items():
            for m2, x in table.derive_monomial(m, direction)._terms.items():
                terms[m2] = terms[m2] + c * x if m2 in terms else c * x
        return Coefficient(terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Coefficient.coerce(other)
        if not isinstance(other, Coefficient):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        value = self.constant_value()  # a constant hashes as the Q(i) value it equals
        return hash(frozenset(self._terms.items()) if value is None else value)

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"Coefficient({self!s})"

    def __str__(self):
        if self.is_zero():
            return "(0,0)"
        return " + ".join(self.term_text(c, m) for m, c in self.terms())

    @staticmethod
    def term_text(c: GaussianRational, m: Monomial) -> str:
        """The term c m as text: the scalar, then each symbol power, `*`-joined."""
        return "*".join([str(c), *(s if e == 1 else f"{s}^{e}" for s, e in m)])

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
        if not isinstance(doc["terms"], list):
            raise ParseError(f"'terms' must be a list: {doc['terms']!r}")
        terms: dict = {}
        for t in doc["terms"]:
            if not isinstance(t, Mapping) or not {"c", "syms"} <= set(t):
                raise ParseError(f"a coefficient term needs 'c' and 'syms': {t!r}")
            pairs = t["syms"]
            if not isinstance(pairs, list) or not all(
                isinstance(pair, list) and len(pair) == 2 for pair in pairs
            ):
                raise ParseError(f"'syms' must be a list of [symbol, power] pairs: {pairs!r}")
            powers: dict = {}
            for s, e in pairs:
                if not isinstance(s, str) or type(e) is not int or e < 1 or s in powers:
                    raise ParseError(
                        f"'syms' needs distinct symbols, each with an integer power >= 1: {pairs!r}"
                    )
                powers[s] = _checked_exponent(e)
            mono = tuple(sorted(powers.items()))
            c = GaussianRational.from_json(t["c"])
            terms[mono] = terms.get(mono, _ZERO) + c
        return cls(terms)
