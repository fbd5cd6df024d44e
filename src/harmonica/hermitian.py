"""Metric layer: Hodge star, J on forms, Lefschetz operators, primitivity.

The metric is diagonal in the coframe: omega = i sum_a c_a phi^{a,abar} with
<phi^a, phi^a> = 1/c_a, vol = omega^n / n!.  The star operator is the
C-linear extension of the real Hodge star, characterized by
alpha wedge *(conj beta) = <alpha, beta> vol; on a diagonal metric it maps
monomials to complementary monomials, so it is computed exactly, term by
term, from that defining relation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DegreeTooHigh, NotPrimitive
from .forms import Form, MultiIndex, basis_multiindices
from .linalg import right_kernel
from .scalars import Coefficient, Fraction, GaussianRational
from .structure import ManifoldSpec, fundamental_form

__all__ = [
    "fundamental_form",
    "volume_form",
    "monomial_inner_square",
    "hodge_star",
    "j_on_forms",
    "lefschetz_L",
    "lefschetz_lambda",
    "is_primitive",
    "weil_star_primitive",
    "PrimitiveComponents",
    "primitive_decompose",
    "primitive_basis",
]


def volume_form(spec: ManifoldSpec) -> Form:
    """vol = omega^n / n!."""
    omega = fundamental_form(spec)
    out = Form.scalar(spec.n, 1)
    for _ in range(spec.n):
        out = out.wedge(omega)
    return out / Fraction(math.factorial(spec.n))


def monomial_inner_square(idx: MultiIndex, spec: ManifoldSpec) -> Fraction:
    """<phi^{I,J}, phi^{I,J}>; distinct monomials are orthogonal."""
    w = Fraction(1)
    for i in idx.hol:
        w /= spec.omega_coeffs[i - 1]
    for j in idx.anti:
        w /= spec.omega_coeffs[j - 1]
    return w


@lru_cache(maxsize=None)
def _star_table(n: int, omega_coeffs: tuple) -> dict:
    """Star of every basis monomial, derived from the defining relation.

    For m = phi^{I,Jbar}, the only monomial pairing nontrivially against *m
    is phi^{J,Ibar}, so *m = t * phi^{Jc,Icbar} with t fixed by
    phi^{J,Ibar} wedge *m = <phi^{J,Ibar}, conj m> vol.
    """
    spec = ManifoldSpec(
        name="_metric",
        n=n,
        generators=[f"phi{a}" for a in range(1, n + 1)],
        d_gen={},
        omega_coeffs=omega_coeffs,
    )
    vol = volume_form(spec)
    top = MultiIndex(tuple(range(1, n + 1)), tuple(range(1, n + 1)))
    vol_coeff = vol.coefficient(top).constant_value()
    table = {}
    full = tuple(range(1, n + 1))
    for p in range(n + 1):
        for q in range(n + 1):
            for idx in basis_multiindices(n, p, q):
                conj_sign = (-1) ** (p * q)
                weight = monomial_inner_square(idx, spec)
                hol_c = tuple(a for a in full if a not in idx.anti)
                anti_c = tuple(a for a in full if a not in idx.hol)
                pairing = Form.monomial(n, idx.anti, idx.hol).wedge(
                    Form.monomial(n, hol_c, anti_c)
                )
                wedge_sign = pairing.coefficient(top).constant_value()
                t = GaussianRational(conj_sign * weight) * vol_coeff / wedge_sign
                table[idx] = (MultiIndex(hol_c, anti_c), t)
    return table


def hodge_star(form: Form, spec: ManifoldSpec) -> Form:
    """C-linear Hodge star; maps (p,q) to (n-q,n-p)."""
    table = _star_table(spec.n, spec.omega_coeffs)
    out = Form.zero(spec.n)
    for idx, coeff in form.terms.items():
        target, t = table[idx]
        out = out + Form(spec.n, {target: coeff * t})
    return out


def j_on_forms(form: Form) -> Form:
    """The almost complex structure on forms: i^(p-q) on the (p,q) part."""
    out = Form.zero(form.n)
    for (p, q), part in form.homogeneous_parts().items():
        out = out + part * GaussianRational.i_power(p - q)
    return out


def lefschetz_L(form: Form, spec: ManifoldSpec) -> Form:
    return fundamental_form(spec).wedge(form)


def lefschetz_lambda(form: Form, spec: ManifoldSpec) -> Form:
    """The dual Lefschetz operator, the formal adjoint of L.

    Computed as star^(-1) L star = (-1)^k * L * on degree-k forms; the
    literal -*L* only matches on odd degrees, and the adjoint normalization
    is the one with Lambda omega = n and the usual sl(2) commutators.
    """
    out = Form.zero(form.n)
    parts: dict = {}
    for idx, c in form.terms.items():
        parts.setdefault(idx.degree, {})[idx] = c
    for k, terms in parts.items():
        piece = hodge_star(
            lefschetz_L(hodge_star(Form(form.n, terms), spec), spec), spec
        )
        out = out + piece * ((-1) ** k)
    return out


def is_primitive(form: Form, spec: ManifoldSpec) -> bool:
    """Primitive means Lambda a = 0; only defined for degree <= n."""
    k = form.require_homogeneous_degree()
    if k > spec.n:
        raise DegreeTooHigh(f"primitivity needs degree {k} <= n = {spec.n}")
    return lefschetz_lambda(form, spec).is_zero()


def weil_star_primitive(beta: Form, r: int, spec: ManifoldSpec) -> Form:
    """Star of L^r beta for primitive beta, via the closed formula
    *L^r beta = (-1)^(k(k+1)/2) * r!/(n-k-r)! * L^(n-k-r) J beta."""
    k = beta.require_homogeneous_degree()
    if k > spec.n:
        raise DegreeTooHigh(f"primitive forms have degree <= n = {spec.n}")
    if not beta.is_zero() and not lefschetz_lambda(beta, spec).is_zero():
        raise NotPrimitive("weil_star_primitive needs Lambda beta = 0")
    if r < 0 or r + k > spec.n:
        raise ValueError(f"need 0 <= r <= n-k, got r={r}, k={k}, n={spec.n}")
    sign = (-1) ** (k * (k + 1) // 2)
    factor = Fraction(math.factorial(r), math.factorial(spec.n - k - r))
    out = j_on_forms(beta)
    for _ in range(spec.n - k - r):
        out = lefschetz_L(out, spec)
    return out * (Fraction(sign) * factor)


@dataclass
class PrimitiveComponents:
    """The expansion a = sum_r (1/r!) L^r beta_{k-2r} with each beta primitive."""

    k: int
    parts: list  # (r, beta) with beta primitive of degree k - 2r

    def reassemble(self, spec: ManifoldSpec) -> Form:
        out = Form.zero(spec.n)
        for r, beta in self.parts:
            piece = beta
            for _ in range(r):
                piece = lefschetz_L(piece, spec)
            out = out + piece / Fraction(math.factorial(r))
        return out


def primitive_decompose(form: Form, spec: ManifoldSpec) -> PrimitiveComponents:
    """Unique primitive decomposition of a homogeneous form, by the
    Lambda ladder: the deepest component is solved from Lambda^r, subtracted,
    and the process repeats with decreasing r.

    Uses Lambda L^j = L^j Lambda + j(n - s - j + 1) L^(j-1) on degree-s forms,
    whose scalar factors never vanish in the relevant range.
    """
    n = spec.n
    k = form.require_homogeneous_degree()
    if form.is_zero():
        return PrimitiveComponents(k, [])
    r_min = max(k - n, 0)
    r_max = k // 2
    remaining = form
    parts = []
    for r in range(r_max, r_min - 1, -1):
        s = k - 2 * r
        if r == 0:
            beta = remaining
        else:
            lam_r = remaining
            for _ in range(r):
                lam_r = lefschetz_lambda(lam_r, spec)
            denom = Fraction(1)
            for j in range(1, r + 1):
                denom *= n - s - j + 1
            beta = lam_r / denom
        if not beta.is_zero():
            parts.append((r, beta))
            piece = beta
            for _ in range(r):
                piece = lefschetz_L(piece, spec)
            remaining = remaining - piece / Fraction(math.factorial(r))
    if not remaining.is_zero():
        raise AssertionError("primitive decomposition did not close")
    parts.sort(key=lambda rb: rb[0])
    return PrimitiveComponents(k, parts)


def primitive_basis(spec: ManifoldSpec, p: int, q: int) -> list[Form]:
    """Echelon basis of the primitive (p,q) monomial combinations P^{p,q}.
    Each call returns new Form objects, so a caller may change them without
    affecting later calls."""
    kernel = _primitive_kernel(spec, p, q)
    monomials = basis_multiindices(spec.n, p, q)
    return [
        Form(
            spec.n,
            {m: Coefficient({(): x}) for m, x in zip(monomials, vec) if not x.is_zero()},
        )
        for vec in kernel
    ]


@lru_cache(maxsize=None)
def _primitive_kernel(spec: ManifoldSpec, p: int, q: int) -> tuple:
    """The echelon rows of P^{p,q} over the (p,q) monomials, as tuples."""
    if p + q > spec.n:
        raise DegreeTooHigh(f"primitive forms need p+q <= n = {spec.n}")
    monomials = basis_multiindices(spec.n, p, q)
    images = [
        lefschetz_lambda(Form.monomial(spec.n, m.hol, m.anti), spec) for m in monomials
    ]
    out_idx = sorted(
        {idx for img in images for idx in img.terms},
        key=lambda i: (i.p, i.hol, i.anti),
    )
    rows = []
    for oi in out_idx:
        rows.append([img.coefficient(oi).constant_value() for img in images])
    return tuple(tuple(row) for row in right_kernel(rows, len(monomials)))
