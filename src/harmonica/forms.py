"""Canonical bigraded exterior algebra over the coframe {phi^1..phi^n, phi^1bar..phi^nbar}.

A monomial phi^{I,Jbar} keeps all holomorphic factors (strictly increasing)
before all antiholomorphic ones (strictly increasing); inserting factors in
any other order normalizes to this form with the correct permutation sign.
The unique representation makes zero tests and row reduction trivial.
"""

from __future__ import annotations

import itertools
import re as _re
from types import MappingProxyType
from typing import Iterable, NamedTuple

from .errors import NotHomogeneous, ParseError
from .scalars import (
    SYMBOL_NAME,
    Coefficient,
    DerivationTable,
    GaussianRational,
    _checked_exponent,
    parse_int,
    parse_rational_ints,
)

__all__ = ["MultiIndex", "Form", "ReadOnlyForm", "basis_multiindices", "parse_form", "format_form"]


class MultiIndex(NamedTuple):
    hol: tuple
    anti: tuple

    @property
    def p(self) -> int:
        return len(self.hol)

    @property
    def q(self) -> int:
        return len(self.anti)

    @property
    def degree(self) -> int:
        return len(self.hol) + len(self.anti)


def _sort_with_sign(indices: Iterable[int]):
    """Sort by insertion, counting transpositions; None sign on duplicates."""
    seq = list(indices)
    sign = 1
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(seq, seq[1:]):
        if a == b:
            return None, 0
    return tuple(seq), sign


def _wedge_monomials(first: MultiIndex, second: MultiIndex) -> tuple:
    """phi^first wedge phi^second as (monomial, sign), or (None, 0) when the
    two share an index: the sorting signs of the merged hol and anti indices,
    and (-1)^(len(a1) * len(h2)) for moving the second factor's hol block past
    the first factor's anti block.  The one wedge-sign rule of the package."""
    hol, s1 = _sort_with_sign(first.hol + second.hol)
    if hol is None:
        return None, 0
    anti, s2 = _sort_with_sign(first.anti + second.anti)
    if anti is None:
        return None, 0
    return MultiIndex(hol, anti), s1 * s2 * (-1) ** (len(first.anti) * len(second.hol))


def _combine(terms) -> dict:
    """The sum of c * column over the (c, column) terms, with zeros dropped;
    a column maps monomials to scalars (GaussianRational or Coefficient)."""
    out: dict = {}
    for c, column in terms:
        for m, x in column.items():
            out[m] = out[m] + c * x if m in out else c * x
    return {m: x for m, x in out.items() if not x.is_zero()}


def _nonzero(terms) -> dict:
    """A new term map {monomial: {symbol monomial: value}} with the nonzero
    values of `terms`, and no monomial whose values all vanish."""
    out = {}
    for m, c in terms.items():
        c = {s: x for s, x in c.items() if x.re_num or x.im_num}
        if c:
            out[m] = c
    return out


def _add_term(out: dict, m: MultiIndex, c, x) -> None:
    """Add x c phi^m into the term map out: c maps symbol monomials to Q(i)
    values (a Coefficient serves as it is), and x is a Q(i) scale or the
    int 1 or -1, which adds each value as it is or its negation."""
    target = out.get(m)
    if target is None:
        target = out[m] = {}
    sign = x if type(x) is int else 0
    for s, y in c.items():
        v = y if sign == 1 else -y if sign else x * y
        target[s] = target[s] + v if s in target else v


def _add_monomial(out: dict, n: int, hol, anti, c, x=1) -> None:
    """Add x c phi^{hol, anti-bar} into the term map out as _add_term does,
    with hol and anti in any order: sorted, with the sign of the sort.  A
    repeated index adds nothing, before any range check; an index outside
    1..n is a ValueError.  The one rule from a term to its monomial."""
    hol, s1 = _sort_with_sign(hol)
    anti, s2 = _sort_with_sign(anti)
    if hol is None or anti is None:
        return
    if hol and hol[-1] > n or anti and anti[-1] > n:
        raise ValueError(f"index out of range for n={n}")
    if (hol and hol[0] < 1) or (anti and anti[0] < 1):
        raise ValueError("indices are 1-based")
    _add_term(out, MultiIndex(hol, anti), c, x if s1 == s2 else -x)


def _form(n: int, terms) -> "Form":
    """The Form of a term map, its Coefficients and itself built once."""
    return Form.from_terms(n, {m: Coefficient.from_terms(c) for m, c in _nonzero(terms).items()})


def _check_ambient(n: int, other: int) -> None:
    """Refuse a form over 2*other generators where 2*n are expected."""
    if n != other:
        raise ValueError(f"ambient mismatch: n={n} vs n={other}")


_BASES: dict = {}  # (n, p, q) -> the (p,q) monomials as a tuple, built once per process


def basis_multiindices(n: int, p: int, q: int) -> list[MultiIndex]:
    """All (p,q) monomials in canonical order (lexicographic hol, then anti),
    as a new list of the basis built once per (n, p, q)."""
    basis = _BASES.get((n, p, q))
    if basis is None:
        basis = _BASES[n, p, q] = tuple(
            MultiIndex(hol, anti)
            for hol in itertools.combinations(range(1, n + 1), p)
            for anti in itertools.combinations(range(1, n + 1), q)
        )
    return list(basis)


class Form:
    """A finite Coefficient-linear combination of coframe monomials."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for idx, c in terms.items():
                c = Coefficient.coerce(c)
                if not c.is_zero():
                    self.terms[idx] = c

    @staticmethod
    def from_terms(n: int, terms: dict) -> "Form":
        """The Form that takes over `terms`, a dict {MultiIndex: nonzero
        Coefficient} that the caller does not change afterwards: the trusted
        constructor, with no copy and no check."""
        out = object.__new__(Form)
        out.n = n
        out.terms = terms
        return out

    @classmethod
    def zero(cls, n: int) -> "Form":
        return cls(n)

    @classmethod
    def scalar(cls, n: int, value) -> "Form":
        return cls(n, {MultiIndex((), ()): Coefficient.coerce(value)})

    @classmethod
    def monomial(cls, n: int, hol=(), anti=(), coeff=1) -> "Form":
        """Build coeff * phi^{hol, anti-bar}, normalizing order and sign."""
        terms: dict = {}
        _add_monomial(terms, n, hol, anti, Coefficient.coerce(coeff))
        return _form(n, terms)

    def coefficient(self, idx: MultiIndex) -> Coefficient:
        return self.terms.get(idx, Coefficient.zero())

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __add__(self, other: "Form") -> "Form":
        _check_ambient(self.n, other.n)
        terms = dict(self.terms)
        for idx, c in other.terms.items():
            terms[idx] = terms.get(idx, Coefficient.zero()) + c
        return Form(self.n, terms)

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def __neg__(self) -> "Form":
        return Form(self.n, {idx: -c for idx, c in self.terms.items()})

    def __mul__(self, scalar) -> "Form":
        c = Coefficient.coerce(scalar)
        return Form(self.n, {idx: v * c for idx, v in self.terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Form":
        return Form(self.n, {idx: v / scalar for idx, v in self.terms.items()})

    def wedge(self, other: "Form") -> "Form":
        _check_ambient(self.n, other.n)
        terms: dict = {}
        for idx1, c1 in self.terms.items():
            for idx2, c2 in other.terms.items():
                idx, sign = _wedge_monomials(idx1, idx2)
                if sign:
                    c = c1 * c2 * sign
                    acc = terms.get(idx)
                    terms[idx] = c if acc is None else acc + c
        return Form(self.n, terms)

    def conjugate(self, table: DerivationTable | None = None) -> "Form":
        """Complex conjugation, one term to one; swaps bidegrees (p,q) <-> (q,p)."""
        table = table or DerivationTable()
        terms: dict = {}
        for (hol, anti), c in self.terms.items():
            c = c.conjugate(table)
            terms[MultiIndex(anti, hol)] = -c if len(hol) * len(anti) % 2 else c
        return Form.from_terms(self.n, terms)

    def bidegree_project(self, p: int, q: int) -> "Form":
        return Form(
            self.n,
            {idx: c for idx, c in self.terms.items() if (idx.p, idx.q) == (p, q)},
        )

    def bidegrees(self) -> set:
        return {(idx.p, idx.q) for idx in self.terms}

    def degree(self) -> int | None:
        """Total degree if homogeneous (zero form counts as any; returns None)."""
        degrees = {idx.degree for idx in self.terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def bidegree(self) -> tuple | None:
        bids = self.bidegrees()
        if len(bids) == 1:
            return bids.pop()
        return None

    def require_homogeneous_degree(self) -> int:
        if self.is_zero():
            return 0
        k = self.degree()
        if k is None:
            raise NotHomogeneous("form mixes total degrees")
        return k

    def require_bidegree(self) -> tuple:
        if self.is_zero():
            return (0, 0)
        b = self.bidegree()
        if b is None:
            raise NotHomogeneous("form mixes bidegrees")
        return b

    def is_constant_coefficients(self) -> bool:
        return all(c.is_constant() for c in self.terms.values())

    def sorted_terms(self) -> list:
        return sorted(
            self.terms.items(),
            key=lambda kv: (kv[0].degree, kv[0].p, kv[0].hol, kv[0].anti),
        )

    def __repr__(self):
        return f"Form(n={self.n}, {format_form(self)!r})"

    def __str__(self):
        return format_form(self)


class ReadOnlyForm(Form):
    """A copy of a Form whose terms can be neither changed nor reassigned,
    for a Form that a spec or a cache shares with its callers."""

    __slots__ = ()

    def __init__(self, form: Form):
        object.__setattr__(self, "n", form.n)
        object.__setattr__(self, "terms", MappingProxyType(dict(form.terms)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: this Form is read-only")


# ---------------------------------------------------------------------------
# text syntax: `phi[1,3;2]` is phi^{13,2bar}; coefficients `(re,im)`, rational
# literals, or symbol factors with optional ^power, joined by `*`; terms are
# separated by + and -.  parse(format(f)) == f bit-exactly.  parse_form reads
# the tokens in one pass, each term as plain data: a sign int, a Q(i) value
# made from the literals' ints, symbol powers and the phi index lists.  A
# sign after a term, or the end of the text, adds the term into one term map
# through _add_monomial, and the Form is built from that map once, at the end.
# ---------------------------------------------------------------------------

_TOKEN_RE = _re.compile(
    r"\s*(?:(?P<sign>[+-])"
    r"|(?P<gauss>\(\s*[+-]?\d+(?:/\d+)?\s*,\s*[+-]?\d+(?:/\d+)?\s*\))"
    r"|(?P<phi>phi\[[0-9,\s]*;[0-9,\s]*\])"
    r"|(?P<rat>\d+(?:/\d+)?)"
    rf"|(?P<sym>{SYMBOL_NAME}(?:\[[A-Za-z0-9_\[\]]*\])?(?:\^\d+)?)"
    r"|(?P<star>\*)"
    r"|(?P<end>\Z))"
)

_ONE = GaussianRational.from_ints(1, 0)


def parse_form(text: str, n: int) -> Form:
    """Parse the CLI form syntax into a Form over the 2n-dimensional coframe.
    No Coefficient or Form arithmetic runs per token: a term's value is a
    product of GaussianRationals made from ints, its symbol monomial a dict of
    checked powers, and only the final term map becomes Coefficients and a
    Form."""
    pos, terms = 0, {}
    sign, value, powers, phi_idx = 1, None, {}, None
    while True:
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"bad form syntax at position {pos}: {text[pos:pos+20]!r}")
        pos, kind = m.end(), m.lastgroup
        if kind in ("sign", "end"):
            if value is not None or phi_idx is not None:
                hol, anti = phi_idx or ((), ())
                term = {tuple(sorted(powers.items())): _ONE if value is None else value}
                try:
                    _add_monomial(terms, n, hol, anti, term, sign)
                except ValueError as exc:
                    raise ParseError(str(exc)) from None
                sign, value, powers, phi_idx = 1, None, {}, None
            if kind == "end":
                return _form(n, terms)
            if m.group("sign") == "-":
                sign = -sign
        elif kind == "star":
            if value is None and phi_idx is None:
                raise ParseError("misplaced '*'")
        elif kind == "phi":
            if phi_idx is not None:
                raise ParseError("at most one phi[...] factor per term")
            phi_idx = tuple(
                tuple(map(parse_int, part.strip().split(","))) if part.strip() else ()
                for part in m.group("phi")[4:-1].split(";")
            )
        elif kind == "sym":
            name, _, power = m.group("sym").partition("^")
            if name == "phi":
                raise ParseError("phi must be followed by [hol;anti]")
            k = _checked_exponent(parse_int(power or "1"))
            if k:
                powers[name] = powers.get(name, 0) + k
            if value is None:
                value = _ONE
        else:
            if kind == "gauss":
                re_txt, im_txt = m.group("gauss")[1:-1].split(",")
                a, b = parse_rational_ints(re_txt)
                c, d = parse_rational_ints(im_txt)
            else:
                (a, b), c, d = parse_rational_ints(m.group("rat")), 0, 1
            factor = GaussianRational.from_ints(a * d, c * b, b * d)
            value = factor if value is None else value * factor


def _format_multiindex(idx: MultiIndex) -> str:
    hol = ",".join(str(i) for i in idx.hol)
    anti = ",".join(str(i) for i in idx.anti)
    return f"phi[{hol};{anti}]"


def format_form(form: Form) -> str:
    """Print in the parseable phi[...] syntax, canonically ordered."""
    if form.is_zero():
        return "0"
    pieces = []
    for idx, coeff in form.sorted_terms():
        for mono, g in coeff.terms():
            piece = Coefficient.term_text(g, mono)
            pieces.append(f"{piece}*{_format_multiindex(idx)}" if idx.degree else piece)
    return " + ".join(pieces)
