"""Manifold specs, the exterior differential, and its bidegree components.

A spec fixes invariant structure equations d(phi^a) for a left-invariant
coframe on a 2n-dimensional Lie group quotient, diagonal fundamental-form
coefficients, and the symbol tables.  d on barred generators is forced to be
the conjugate of d on the unbarred ones.  d of each unit monomial f phi^J, f
its first factor, is one Leibniz step over the cached d(phi^J), split by
bidegree shift into mu, del, delbar and mubar parts, cached on the spec
(d_by_shift).  _d_terms maps a term map through d or a part in one pass:
every term reads that split, and symbolic terms add the frame derivatives
of their symbol monomials, cached per direction; differential_component
(exterior_d is its d) and words run it.  ManifoldSpec.cached is a spec's
one memo.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Mapping

from .errors import HarmonicaError, ValidationError
from .forms import (
    Form, MultiIndex, ReadOnlyForm, _add_term, _check_ambient, _form, _wedge_monomials,
    basis_multiindices,
)
from .report import CheckItem, VerificationReport
from .scalars import DerivationTable, Direction, Fraction, GaussianRational, ReadOnlyTable, _mono_mul

__all__ = [
    "OperatorKind",
    "ManifoldSpec",
    "exterior_d",
    "differential_component",
    "d_by_shift",
    "check_integrability_relations",
    "check_almost_kahler",
    "all_basis_monomials",
]


class OperatorKind(enum.Enum):
    """The four bidegree components of d, plus d itself.  A member's shift
    (None for d), conjugate kind and bars, the Direction.bar values of the
    frame directions along which it differentiates a coefficient (V_a for
    del, Vbar_a for delbar, all 2n for d, none for mu and mubar), are plain
    attributes, set once below."""

    D = "d"
    MU = "mu"
    DEL = "del"
    DELBAR = "delbar"
    MUBAR = "mubar"


for _kind, _shift, _conjugate, _bars in (
    ("d", None, "d", (False, True)),
    ("mu", (2, -1), "mubar", ()),
    ("del", (1, 0), "delbar", (False,)),
    ("delbar", (0, 1), "del", (True,)),
    ("mubar", (-1, 2), "mu", ()),
):
    OperatorKind(_kind).shift = _shift
    OperatorKind(_kind).conjugate = OperatorKind(_conjugate)
    OperatorKind(_kind).bars = _bars
del _kind, _shift, _conjugate, _bars

_MISSING = object()
_NO_PARTS = MappingProxyType({})


@dataclass(eq=False, frozen=True)
class ManifoldSpec:
    """Structure equations and metric data; immutable after construction,
    with a read-only copy of the symbol table passed in.

    Identity-hashable.  Each spec owns the cache of everything derived from
    it (operator images, kernels, the split of d, derivatives of symbols),
    so a derived spec from `dataclasses.replace` or `with_omega` starts
    empty and a spec's cache is freed with it.
    """

    name: str
    n: int
    generators: tuple
    d_gen: Mapping  # generator index (1-based) -> 2-form value of d; read-only
    omega_coeffs: tuple
    table: DerivationTable = field(default_factory=DerivationTable)
    _cache: dict = field(init=False, repr=False, compare=False)
    _d_active: frozenset = field(init=False, repr=False, compare=False)  # the a with d(phi^a) != 0
    _symbolic: bool = field(init=False, repr=False, compare=False)  # some d(phi^a) has a symbol

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("n must be >= 1")
        if len(self.generators) != self.n:
            raise ValidationError(f"need exactly {self.n} generator names")
        if len(self.omega_coeffs) != self.n:
            raise ValidationError(f"need exactly {self.n} omega coefficients")
        omega_coeffs = tuple(Fraction(c) for c in self.omega_coeffs)
        for c in omega_coeffs:
            if c <= 0:
                raise ValidationError(f"omega coefficients must be positive, got {c}")
        d_gen = dict(self.d_gen)
        for a in range(1, self.n + 1):
            form = d_gen.setdefault(a, Form.zero(self.n))
            if form.n != self.n:
                raise ValidationError(f"d(gen {a}) lives in the wrong ambient algebra")
            # degree of d_gen values is checked by check_integrability_relations,
            # so broken inputs stay loadable and explorable
        d_gen = {a: ReadOnlyForm(form) for a, form in d_gen.items()}
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "d_gen", MappingProxyType(d_gen))
        object.__setattr__(self, "omega_coeffs", omega_coeffs)
        object.__setattr__(self, "table", ReadOnlyTable(self.table))
        object.__setattr__(self, "_cache", {})
        object.__setattr__(self, "_d_active", frozenset(a for a, form in d_gen.items() if form))
        object.__setattr__(
            self, "_symbolic", any(not f.is_constant_coefficients() for f in d_gen.values())
        )

    def cached(self, key: tuple, build, *args):
        """build(*args), computed once per key for the life of this spec."""
        value = self._cache.get(key, _MISSING)
        if value is _MISSING:
            value = self._cache[key] = build(*args)
        return value

    def has_symbolic_structure(self) -> bool:
        return self._symbolic

    def with_omega(self, coeffs) -> "ManifoldSpec":
        return replace(self, omega_coeffs=tuple(Fraction(c) for c in coeffs))


def _d_bar(a: int, spec: ManifoldSpec) -> Form:
    """d of the barred generator a, the conjugate of d(phi^a); read-only, as
    it is shared by every monomial of the spec."""
    return ReadOnlyForm(spec.d_gen[a].conjugate(spec.table))


def exterior_d(form: Form, spec: ManifoldSpec) -> Form:
    """Exterior differential via the Leibniz rule on each monomial term."""
    return differential_component(form, OperatorKind.D, spec)


def differential_component(form: Form, kind: OperatorKind, spec: ManifoldSpec) -> Form:
    """d, or its mu, del, delbar or mubar part, of a Form: one _d_terms pass
    over its term map."""
    _check_ambient(spec.n, form.n)
    return _form(form.n, _d_terms(kind, form.terms, spec))


def all_basis_monomials(n: int) -> list[MultiIndex]:
    """Every coframe monomial, all 2^(2n) of them, by degree then descending p."""
    out = []
    for k in range(0, 2 * n + 1):
        for p in range(min(k, n), max(0, k - n) - 1, -1):
            out.extend(basis_multiindices(n, p, k - p))
    return out


def d_by_shift(idx: MultiIndex, spec: ManifoldSpec) -> Mapping:
    """d of the unit monomial idx as its nonzero homogeneous parts, keyed by
    bidegree shift; the one split of d by bidegree, cached on the spec."""
    return spec.cached(("d_parts", idx), _split_d, idx, spec)


def _split_d(idx: MultiIndex, spec: ManifoldSpec) -> Mapping:
    """d of the unit monomial phi^idx as its read-only homogeneous parts, by
    one Leibniz step: phi^idx = f wedge phi^rest, f its first factor (hol
    before anti), so d(phi^idx) = d(f) wedge phi^rest - f wedge d(phi^rest),
    with d(phi^rest) read from the cached split of rest.  Each wedge term
    that is not 0 is added into the term map of its bidegree shift, and each
    term map becomes one part; d(phi^idx) is not kept whole anywhere.  A
    monomial with no factor of nonzero d (every one, when d = 0) has none."""
    if spec._d_active.isdisjoint(idx.hol) and spec._d_active.isdisjoint(idx.anti):
        return _NO_PARTS
    a, bar = (idx.anti[0], True) if not idx.hol else (idx.hol[0], False)
    f = MultiIndex((), (a,)) if bar else MultiIndex((a,), ())
    rest = MultiIndex((), idx.anti[1:]) if bar else MultiIndex(idx.hol[1:], idx.anti)
    d_f = spec.cached(("d_bar", a), _d_bar, a, spec) if bar else spec.d_gen[a]
    d_rest = d_by_shift(rest, spec)
    parts: dict = {}  # shift -> {monomial: {symbol monomial: Q(i)}}
    for middle, c in d_f.terms.items():
        image, sign = _wedge_monomials(middle, rest)
        if sign:
            _add_term(parts.setdefault((image.p - idx.p, image.q - idx.q), {}), image, c, sign)
    for b, part in d_rest.items():
        target = parts.setdefault(b, {})
        for m, c in part.terms.items():
            image, sign = _wedge_monomials(f, m)
            if sign:
                _add_term(target, image, c, -sign)
    forms = ((b, _form(spec.n, terms)) for b, terms in parts.items())
    return MappingProxyType({b: ReadOnlyForm(form) for b, form in forms if form})


def _d_terms(kind: OperatorKind, terms, spec: ManifoldSpec) -> dict:
    """A term map through d or one of its parts, monomial by monomial.  Each
    term x s m (s a symbol monomial, () for a constant) adds x s times the
    kind's parts of d(m), read from the cached split d_by_shift.  If some s
    is not (), each frame direction of the kind (kind.bars) then adds, for
    those terms in coefficient order, x times the derivative of s along it,
    cached per (s, direction), times phi^a or phi^abar wedge phi^m; so the
    first derivative that fails is the one a derivative of the coefficient
    meets.  A value that cancelled to 0 is skipped, as a Form holds none."""
    shift, bars = kind.shift, kind.bars
    out: dict = {}
    for idx, coeff in terms.items():
        split = None
        symbolic = False
        for s, x in coeff.items():
            if not (x.re_num or x.im_num):
                continue
            if split is None:
                split = d_by_shift(idx, spec)
            for b, part in split.items():
                if shift is None or b == shift:
                    for m, c in part.terms.items():
                        if not s:
                            _add_term(out, m, c, x)
                            continue
                        target = out.get(m)
                        if target is None:
                            target = out[m] = {}
                        for s1, y in c.items():  # x s y s1 is x y (s s1)
                            key = _mono_mul(s, s1) if s1 else s
                            v = x * y
                            target[key] = target[key] + v if key in target else v
            if s:
                symbolic = True
        if symbolic and bars:
            derive = spec.table.derive_monomial
            for direction, image, sign in spec.cached(("frame", idx), _frame, idx, spec):
                if direction.bar in bars:
                    for s, x in coeff.items():
                        if s and (x.re_num or x.im_num):
                            derived = spec.cached(("derivative", s, direction), derive, s, direction)
                            if not derived.is_zero():  # no empty monomial in a cached image
                                _add_term(out, image, derived, x if sign > 0 else -x)
    return out


def _frame(idx: MultiIndex, spec: ManifoldSpec) -> tuple:
    """(direction V_a or Vbar_a, monomial, sign) with phi^a or phi^abar
    wedge phi^idx = sign * phi^monomial, for every frame direction where
    that wedge is not 0; cached on the spec per monomial."""
    out = []
    for a in range(1, spec.n + 1):
        for bar in (False, True):
            factor = MultiIndex((), (a,)) if bar else MultiIndex((a,), ())
            image, sign = _wedge_monomials(factor, idx)
            if sign:
                out.append((Direction(a, bar), image, sign))
    return tuple(out)


_COMPONENT_SHIFTS = {kind.shift for kind in OperatorKind if kind.shift}
# The component identities are the bidegree parts of d^2 = 0, by total shift.
_IDENTITIES = (
    ("mu^2", (4, -2)),
    ("mu del + del mu", (3, -1)),
    ("del^2 + mu delbar + delbar mu", (2, 0)),
    ("del delbar + delbar del + mu mubar + mubar mu", (1, 1)),
    ("delbar^2 + mubar del + del mubar", (0, 2)),
    ("mubar delbar + delbar mubar", (-1, 3)),
    ("mubar^2", (-2, 4)),
)
# The most work the walk over all 4^n monomials may take, in coefficient-term
# products as _walk counts them (a conservative model): validate ran at 180,000
# to 550,000 of them a second on a 2-core Xeon with Python 3.11 (n = 3 to 6, d
# terms of degree 0 to 12, 1- to 1,024-term coefficients), 4 to 12 s there.
MAX_WALK = 2**21


def _d_squared_parts(idx: MultiIndex, spec: ManifoldSpec):
    """(name, value on the unit monomial idx) for d^2 and each identity.
    d of each part of d(idx) is computed once; d^2 is their sum, and the
    identity at total shift S sums the (p,q) + S parts of d(part) over the
    parts at a component shift b (what lands there came through a second
    component shift S - b, as every term of d moves p and q by -1 at least).
    Nothing is yielded when d(idx) = 0: d^2 and every identity are then 0."""
    split = d_by_shift(idx, spec)
    if not split:
        return
    seconds = [(b, exterior_d(part, spec)) for b, part in split.items()]
    yield "d^2", sum((second for _, second in seconds), Form.zero(spec.n))
    components = [second for b, second in seconds if b in _COMPONENT_SHIFTS]
    for name, (sp, sq) in _IDENTITIES:
        pieces = (second.bidegree_project(idx.p + sp, idx.q + sq) for second in components)
        yield name, sum(pieces, Form.zero(spec.n))


def _unit_and_generators(n: int) -> list[MultiIndex]:
    """1, every phi^a, every phi^abar: all_basis_monomials' first 2n + 1."""
    return basis_multiindices(n, 0, 0) + basis_multiindices(n, 1, 0) + basis_multiindices(n, 0, 1)


def _walk(spec: ManifoldSpec):
    """all_basis_monomials(n) for the integrability check, counting its work
    in coefficient-term products, a conservative model of it: the first d of
    every monomial counts each term of d(phi^a) and d(phi^abar) once per
    monomial holding that factor, 4^n times the coefficient terms of d in
    all (the split reads d of the first factor only), and d of a term
    c phi^m of d(idx) counts each term of c times each coefficient term of
    d(phi^m) and of its 2n frame derivatives.  A HarmonicaError refuses the
    spec once the count passes MAX_WALK: before any d when the first d's
    alone pass it, else before the d of d(idx) that would."""
    work = 4**spec.n * sum(len(c.items()) for form in spec.d_gen.values() for c in form.terms.values())
    sizes: dict = {}  # m -> the count of one term of c: 2n + coefficient terms of d(phi^m)
    for idx in all_basis_monomials(spec.n) if work <= MAX_WALK else ():
        for part in d_by_shift(idx, spec).values():
            for m, c in part.terms.items():
                if m not in sizes:
                    split = d_by_shift(m, spec).values()
                    sizes[m] = 2 * spec.n + sum(len(x.items()) for f in split for x in f.terms.values())
                work += len(c.items()) * sizes[m]
        if work > MAX_WALK:
            break
        yield idx
    if work > MAX_WALK:
        raise HarmonicaError(
            f"spec {spec.name!r}: a d(generator) is not a 2-form, so d^2 = 0 must be "
            f"checked on all 4^{spec.n} monomials, and that takes more than "
            f"MAX_WALK = {MAX_WALK} coefficient-term products"
        )


def check_integrability_relations(spec: ManifoldSpec) -> VerificationReport:
    """Evaluate d^2 and the seven component identities on the basis
    monomials; a failing item names the first monomial it fails on.

    When every d(phi^a) is a 2-form, d is an antiderivation of degree 1, so
    d^2 is a derivation, and so is each of its bidegree parts, which are the
    identities.  Each then vanishes on every monomial exactly when it
    vanishes on the phi^a and phi^abar, which `all_basis_monomials` lists
    first (after 1), so only those 2n + 1 are evaluated and the first
    failing monomial is the same.  Otherwise all 4^n are, through _walk,
    which refuses a spec whose walk takes more than MAX_WALK."""
    bad = [a for a in range(1, spec.n + 1) if spec.d_gen[a] and spec.d_gen[a].degree() != 2]
    witness = spec.d_gen[bad[0]] if bad else None
    items = [CheckItem("d(generators) are 2-forms", not bad, witness=witness)]
    failures: dict = {}  # name -> (witness, residual)
    for idx in _walk(spec) if bad else _unit_and_generators(spec.n):
        for name, value in _d_squared_parts(idx, spec):
            if name not in failures and not value.is_zero():
                failures[name] = (Form.monomial(spec.n, idx.hol, idx.anti), value)
    for name in ("d^2", *(name for name, _ in _IDENTITIES)):
        witness, residual = failures.get(name, (None, None))
        items.append(CheckItem(name, name not in failures, witness=witness, residual=residual))
    return VerificationReport.from_items(f"integrability:{spec.name}", items)


def fundamental_form(spec: ManifoldSpec) -> Form:
    """omega = i * sum_a c_a phi^{a,abar}."""
    out = Form.zero(spec.n)
    for a in range(1, spec.n + 1):
        out = out + Form.monomial(
            spec.n, (a,), (a,), GaussianRational(0, spec.omega_coeffs[a - 1])
        )
    return out


def is_integrable(spec: ManifoldSpec) -> bool:
    """True when mu and mubar vanish on every basis monomial: no split of d
    has a part at their shifts.  By the Leibniz rule, their part of d of a
    monomial sums their parts of d of its factors, so 1, the phi^a and the
    phi^abar suffice, whatever the degrees of the d(phi^a)."""
    shifts = (OperatorKind.MU.shift, OperatorKind.MUBAR.shift)
    splits = (d_by_shift(idx, spec) for idx in _unit_and_generators(spec.n))
    return not any(b in shifts for split in splits for b in split)


def is_almost_kahler(spec: ManifoldSpec) -> bool:
    """d omega = 0."""
    return _d_omega(spec).is_zero()


def _d_omega(spec: ManifoldSpec) -> Form:
    """d omega, computed once per spec; read-only, as it is shared.  omega has
    constant coefficients, so where every d(phi^a) vanishes so does d omega,
    with no pass."""
    if not spec._d_active:
        return ReadOnlyForm(Form.zero(spec.n))
    return spec.cached(("d-omega",), lambda: ReadOnlyForm(exterior_d(fundamental_form(spec), spec)))


def check_almost_kahler(spec: ManifoldSpec) -> VerificationReport:
    """d omega = 0; integrability is reported as a flag, not a requirement.
    The metric coefficients need no item: ManifoldSpec refuses any c <= 0.
    A failing item's residual is the spec's read-only d omega."""
    residual = _d_omega(spec)
    closed = residual.is_zero()
    omega = None if closed else fundamental_form(spec)
    item = CheckItem("d omega = 0", closed, omega, None if closed else residual)
    data = {"integrable": is_integrable(spec), "almost_kahler": closed}
    return VerificationReport.from_items(f"almost-kahler:{spec.name}", [item], data=data)
