"""Invariant harmonic spaces: adjoints, Laplacians, kernels, certificates.

On a compact manifold the Laplacian kernels are cut out by first-order
condition systems (e.g. Delta_BC a = 0 iff del a = 0, delbar a = 0,
del delbar * a = 0).  The engine computes kernels from those systems on the
invariant complex — where the compactness argument still applies, since all
operators preserve invariance — and cross-checks every constant-coefficient
kernel against the nullspace of the assembled Laplacian matrix.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from .errors import BidegreeOutOfRange, SymbolicCoefficients
from .forms import Form, basis_multiindices
from .linalg import right_kernel, rref, subspace_intersection
from .hermitian import hodge_star
from .scalars import Coefficient, GaussianRational
from .structure import ManifoldSpec, OperatorKind, differential_component, exterior_d

__all__ = [
    "HarmonicKind",
    "adjoint",
    "laplacian_apply",
    "harmonic_space",
    "is_harmonic",
    "SubspaceBasis",
    "MembershipCertificate",
    "ConditionResult",
    "forms_to_rows",
    "rows_to_forms",
]


class HarmonicKind(enum.Enum):
    D = "d"
    DEL = "del"
    DELBAR = "delbar"
    BC = "bc"
    A = "a"

    @classmethod
    def from_str(cls, text: str) -> "HarmonicKind":
        try:
            return cls(text.lower())
        except ValueError:
            raise ValueError(
                f"unknown laplacian kind {text!r}; expected one of "
                + ", ".join(k.value for k in cls)
            ) from None


def adjoint(kind: OperatorKind, form: Form, spec: ManifoldSpec) -> Form:
    """Formal adjoint: -* k' *, where k' is the conjugate-paired operator
    (d* = -*d*, del* = -*delbar*, mu* = -*mubar*, and symmetrically)."""
    paired = kind.conjugate
    return -hodge_star(
        differential_component(hodge_star(form, spec), paired, spec), spec
    )


def _ops(spec: ManifoldSpec):
    d = lambda f: exterior_d(f, spec)
    de = lambda f: differential_component(f, OperatorKind.DEL, spec)
    db = lambda f: differential_component(f, OperatorKind.DELBAR, spec)
    ds = lambda f: adjoint(OperatorKind.D, f, spec)
    des = lambda f: adjoint(OperatorKind.DEL, f, spec)
    dbs = lambda f: adjoint(OperatorKind.DELBAR, f, spec)
    return d, de, db, ds, des, dbs


def laplacian_apply(kind: HarmonicKind, form: Form, spec: ManifoldSpec) -> Form:
    """Exact evaluation of the requested Laplacian."""
    d, de, db, ds, des, dbs = _ops(spec)
    if kind is HarmonicKind.D:
        return d(ds(form)) + ds(d(form))
    form.require_bidegree()
    if kind is HarmonicKind.DEL:
        return de(des(form)) + des(de(form))
    if kind is HarmonicKind.DELBAR:
        return db(dbs(form)) + dbs(db(form))
    if kind is HarmonicKind.BC:
        return (
            de(db(dbs(des(form))))
            + dbs(des(de(db(form))))
            + des(db(dbs(de(form))))
            + dbs(de(des(db(form))))
            + des(de(form))
            + dbs(db(form))
        )
    if kind is HarmonicKind.A:
        return (
            de(db(dbs(des(form))))
            + dbs(des(de(db(form))))
            + de(dbs(db(des(form))))
            + db(des(de(dbs(form))))
            + de(des(form))
            + db(dbs(form))
        )
    raise ValueError(f"unknown kind {kind!r}")


def _conditions(kind, spec: ManifoldSpec):
    """Operator conditions characterizing ker Delta_kind on compact manifolds.

    Keys 'bc2'/'a2' are the conjugated variants from the alternative ordering
    of del and delbar; they are only exposed for symmetry checks.
    """
    key = kind.value if isinstance(kind, HarmonicKind) else str(kind)
    de = lambda f: differential_component(f, OperatorKind.DEL, spec)
    db = lambda f: differential_component(f, OperatorKind.DELBAR, spec)
    d = lambda f: exterior_d(f, spec)
    star = lambda f: hodge_star(f, spec)
    systems = {
        "d": [("d a", d), ("d * a", lambda f: d(star(f)))],
        "del": [("del a", de), ("delbar * a", lambda f: db(star(f)))],
        "delbar": [("delbar a", db), ("del * a", lambda f: de(star(f)))],
        "bc": [
            ("del a", de),
            ("delbar a", db),
            ("del delbar * a", lambda f: de(db(star(f)))),
        ],
        "a": [
            ("del * a", lambda f: de(star(f))),
            ("delbar * a", lambda f: db(star(f))),
            ("del delbar a", lambda f: de(db(f))),
        ],
        "bc2": [
            ("del a", de),
            ("delbar a", db),
            ("delbar del * a", lambda f: db(de(star(f)))),
        ],
        "a2": [
            ("del * a", lambda f: de(star(f))),
            ("delbar * a", lambda f: db(star(f))),
            ("delbar del a", lambda f: db(de(f))),
        ],
    }
    return systems[key]


@dataclass
class SubspaceBasis:
    """A reduced-echelon basis of a space of invariant (p,q)-forms."""

    p: int
    q: int
    kind: str
    basis: list

    @property
    def dim(self) -> int:
        return len(self.basis)


@dataclass
class ConditionResult:
    label: str
    residual: Form
    ok: bool


@dataclass
class MembershipCertificate:
    form: Form
    kind: str
    conditions: list

    @property
    def verdict(self) -> bool:
        return all(c.ok for c in self.conditions)

    def first_failing(self) -> ConditionResult | None:
        for c in self.conditions:
            if not c.ok:
                return c
        return None


def forms_to_rows(forms, monomials):
    """Coordinate rows of constant-coefficient forms over a monomial basis."""
    rows = []
    for f in forms:
        row = []
        for m in monomials:
            value = f.coefficient(m).constant_value()
            if value is None:
                raise SymbolicCoefficients("expected constant coefficients")
            row.append(value)
        rows.append(row)
    return rows


def rows_to_forms(rows, monomials, n: int):
    return [
        Form(n, {m: Coefficient({(): x}) for m, x in zip(monomials, row) if not x.is_zero()})
        for row in rows
    ]


def _condition_kernel(kind, p: int, q: int, spec: ManifoldSpec):
    monomials = basis_multiindices(spec.n, p, q)
    units = [Form.monomial(spec.n, m.hol, m.anti) for m in monomials]
    rows = []
    for _, op in _conditions(kind, spec):
        images = [op(u) for u in units]
        out_idx = sorted(
            {idx for img in images for idx in img.terms},
            key=lambda i: (i.p, i.hol, i.anti),
        )
        for oi in out_idx:
            row = []
            for img in images:
                value = img.coefficient(oi).constant_value()
                if value is None:
                    raise SymbolicCoefficients(
                        "kernel computation requires constant structure "
                        "coefficients; use is_harmonic for symbolic specs"
                    )
                row.append(value)
            rows.append(row)
    return right_kernel(rows, len(monomials)), monomials


def _laplacian_nullspace(kind: HarmonicKind, p: int, q: int, spec: ManifoldSpec):
    """Nullspace of the assembled Laplacian matrix, as (p,q)-coordinate rows."""
    n = spec.n
    pq_monomials = basis_multiindices(n, p, q)
    if kind is HarmonicKind.D:
        k = p + q
        monomials = [
            m
            for pp in range(k + 1)
            if pp <= n and (k - pp) <= n
            for m in basis_multiindices(n, pp, k - pp)
        ]
    else:
        monomials = pq_monomials
    units = [Form.monomial(n, m.hol, m.anti) for m in monomials]
    images = [laplacian_apply(kind, u, spec) for u in units]
    index_of = {m: i for i, m in enumerate(monomials)}
    rows = []
    for m in monomials:
        row = []
        for img in images:
            value = img.coefficient(m).constant_value()
            if value is None:
                raise SymbolicCoefficients("expected constant coefficients")
            row.append(value)
        rows.append(row)
    for img in images:
        stray = [idx for idx in img.terms if idx not in index_of]
        if stray:
            raise AssertionError(f"Laplacian image leaves the expected space: {stray}")
    kernel = right_kernel(rows, len(monomials))
    if kind is not HarmonicKind.D:
        return kernel
    # restrict ker Delta_d to vectors supported on the (p,q) block
    zero = GaussianRational(0)
    one = GaussianRational(1)
    block = []
    for m in pq_monomials:
        v = [zero] * len(monomials)
        v[index_of[m]] = one
        block.append(v)
    restricted = subspace_intersection(kernel, block)
    cols = [index_of[m] for m in pq_monomials]
    return rref([[v[c] for c in cols] for v in restricted])


def harmonic_space(kind: HarmonicKind, p: int, q: int, spec: ManifoldSpec) -> SubspaceBasis:
    """Echelon basis of the invariant harmonic space for the given Laplacian,
    computed from the condition system and cross-checked against the
    Laplacian-matrix nullspace.  Each call returns new Form objects, so a
    caller may change them without affecting later calls."""
    kernel = _harmonic_kernel(kind, p, q, spec)
    monomials = basis_multiindices(spec.n, p, q)
    return SubspaceBasis(p, q, kind.value, rows_to_forms(kernel, monomials, spec.n))


@lru_cache(maxsize=None)
def _harmonic_kernel(kind, p, q, spec) -> tuple:
    """The cross-checked echelon rows of the harmonic space, as tuples."""
    if spec.has_symbolic_structure():
        raise SymbolicCoefficients(
            f"spec {spec.name!r} has symbolic structure coefficients; "
            "harmonic_space needs Q(i) constants (use is_harmonic instead)"
        )
    if not (0 <= p <= spec.n and 0 <= q <= spec.n):
        raise BidegreeOutOfRange(f"bidegree ({p},{q}) out of range for n={spec.n}")
    kernel, monomials = _condition_kernel(kind, p, q, spec)
    cross = _laplacian_nullspace(kind, p, q, spec)
    if kernel != cross:
        raise AssertionError(
            f"condition kernel and Laplacian nullspace disagree for "
            f"{kind.value} at ({p},{q}) on {spec.name!r}"
        )
    return tuple(tuple(row) for row in kernel)


def is_harmonic(kind: HarmonicKind, form: Form, spec: ManifoldSpec) -> MembershipCertificate:
    """Exact membership certificate; works for symbolic coefficients too."""
    conditions = []
    for label, op in _conditions(kind, spec):
        residual = op(form)
        conditions.append(ConditionResult(label, residual, residual.is_zero()))
    return MembershipCertificate(form, kind.value, conditions)
