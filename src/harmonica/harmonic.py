"""Invariant harmonic spaces: Laplacians, kernels, certificates.

On a compact manifold the Laplacian kernels are cut out by first-order
condition systems (e.g. Delta_BC a = 0 iff del a = 0, delbar a = 0,
del delbar * a = 0).  The engine computes kernels from those systems on the
invariant complex — where the compactness argument still applies, since all
operators preserve invariance — and cross-checks every constant-coefficient
kernel K against the nullspace of the assembled Laplacian matrix.  That
nullspace is not read as a kernel: linalg.rref reduces the Laplacian's
sparse rows to a value whose dim is rank Delta, and K = ker Delta exactly
when its canonical rows annihilate K and dim K = m - rank Delta over the m
monomials of the block (linalg.is_kernel).

Spaces are Subspace values in (p,q) coordinates, built from sparse rows;
hermitian.subspace_forms gives their Forms.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import BidegreeOutOfRange, CrossCheckFailed, ParseError, SymbolicCoefficients
from .forms import Form
from .hermitian import (
    _apply_words, adjoint, apply_word, operator_columns, subspace_forms, word_kernel,
)
from .linalg import Subspace, is_kernel, rref, sparse_rows
from .structure import ManifoldSpec

__all__ = [
    "HarmonicKind",
    "adjoint",
    "laplacian_apply",
    "harmonic_space",
    "harmonic_subspace",
    "is_harmonic",
    "SubspaceBasis",
    "MembershipCertificate",
    "ConditionResult",
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
            raise ParseError(
                f"unknown laplacian kind {text!r}; expected one of "
                + ", ".join(k.value for k in cls)
            ) from None


# Each Laplacian is the sum of its words, each condition system the list of
# its words (as in apply_word); both the block-matrix path and the Form path
# read these tables.
LAPLACIAN_WORDS = {
    "d": (("d", "d*"), ("d*", "d")),
    "del": (("del", "del*"), ("del*", "del")),
    "delbar": (("delbar", "delbar*"), ("delbar*", "delbar")),
    "bc": (
        ("del", "delbar", "delbar*", "del*"),
        ("delbar*", "del*", "del", "delbar"),
        ("del*", "delbar", "delbar*", "del"),
        ("delbar*", "del", "del*", "delbar"),
        ("del*", "del"),
        ("delbar*", "delbar"),
    ),
    "a": (
        ("del", "delbar", "delbar*", "del*"),
        ("delbar*", "del*", "del", "delbar"),
        ("del", "delbar*", "delbar", "del*"),
        ("delbar", "del*", "del", "delbar*"),
        ("del", "del*"),
        ("delbar", "delbar*"),
    ),
}

CONDITION_WORDS = {
    "d": (("d",), ("d", "*")),
    "del": (("del",), ("delbar", "*")),
    "delbar": (("delbar",), ("del", "*")),
    "bc": (("del",), ("delbar",), ("del", "delbar", "*")),
    "a": (("del", "*"), ("delbar", "*"), ("del", "delbar")),
}


def laplacian_apply(kind: HarmonicKind, form: Form, spec: ManifoldSpec) -> Form:
    """Exact evaluation of the requested Laplacian: the sum of its words,
    as one term map over the cached term images of apply_word."""
    if kind is not HarmonicKind.D:
        form.require_bidegree()
    return _apply_words(LAPLACIAN_WORDS[kind.value], form, spec)


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


def _laplacian_nullspace(kind: HarmonicKind, p: int, q: int, spec: ManifoldSpec) -> Subspace:
    """The nullspace of the assembled Laplacian on the (p,q) monomials, given
    by the reduced echelon rows of its matrix: the rref of its sparse rows,
    one column per monomial.  For the d-Laplacian, which mixes the
    bidegrees of one total degree, this is ker Delta_d restricted to forms
    supported on the (p,q) block."""
    columns = operator_columns(LAPLACIAN_WORDS[kind.value], p, q, spec)
    mixed = kind is HarmonicKind.D
    stray = [m for c in columns for m in c if m.degree != p + q or (m.p != p and not mixed)]
    if stray:
        raise CrossCheckFailed(
            f"Laplacian image leaves the expected space for {kind.value} "
            f"at ({p},{q}) on {spec.name!r}: {stray}"
        )
    return rref(sparse_rows(columns), len(columns))


def harmonic_space(kind: HarmonicKind, p: int, q: int, spec: ManifoldSpec) -> SubspaceBasis:
    """Echelon basis of the invariant harmonic space for the given Laplacian,
    computed from the condition system and cross-checked against the
    Laplacian-matrix nullspace.  Each call returns new Form objects, so a
    caller may change them without affecting later calls."""
    space = harmonic_subspace(kind, p, q, spec)
    return SubspaceBasis(p, q, kind.value, subspace_forms(space, p, q, spec))


def harmonic_subspace(kind: HarmonicKind, p: int, q: int, spec: ManifoldSpec) -> Subspace:
    """The cross-checked invariant harmonic space, computed once per spec."""
    return spec.cached(("harmonic", kind, p, q), _harmonic_kernel, kind, p, q, spec)


def _harmonic_kernel(kind, p, q, spec) -> Subspace:
    if spec.has_symbolic_structure():
        raise SymbolicCoefficients(
            f"spec {spec.name!r} has symbolic structure coefficients; "
            "harmonic_space needs Q(i) constants (use is_harmonic instead)"
        )
    if not (0 <= p <= spec.n and 0 <= q <= spec.n):
        raise BidegreeOutOfRange(f"bidegree ({p},{q}) out of range for n={spec.n}")
    space = word_kernel(CONDITION_WORDS[kind.value], p, q, spec)
    if not is_kernel(space, _laplacian_nullspace(kind, p, q, spec)):
        raise CrossCheckFailed(
            f"condition kernel and Laplacian nullspace disagree for "
            f"{kind.value} at ({p},{q}) on {spec.name!r}"
        )
    return space


def is_harmonic(kind: HarmonicKind, form: Form, spec: ManifoldSpec) -> MembershipCertificate:
    """Exact membership certificate; works for symbolic coefficients too."""
    label, conditions = kind.value, []
    for word in CONDITION_WORDS[label]:
        residual = apply_word(word, form, spec)
        conditions.append(ConditionResult(" ".join(word) + " a", residual, residual.is_zero()))
    return MembershipCertificate(form, label, conditions)
