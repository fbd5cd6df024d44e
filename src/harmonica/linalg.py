"""Exact linear algebra over Q(i): one canonical subspace value, and list functions over it.

A `Subspace` holds the reduced row echelon basis of a subspace over the
Gaussian integers, each row scaled so that its pivot entry is a positive
integer and the gcd of all its integer parts is 1.  That form is unique, so
`==` is literal comparison; rows are tuples, so a cached value cannot be
changed.  Containment, sum, intersection and the direct-sum test read the
integer rows; `vectors()` gives the Q(i) rows with pivots 1, for output.  The
list functions (`rref`, `right_kernel`, `subspace_intersection`, ...) take and
return lists of GaussianRational and convert at that boundary.

Elimination is fraction-free: a row r with entry f in the pivot column of a
pivot row with pivot entry p becomes p*r - f*pivot, and is then divided by
the gcd of all its integer parts, so no rational number is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .scalars import GaussianRational

Vector = list

_ZERO = GaussianRational(0)
_ONE = GaussianRational(1)


def _to_int(row: Vector) -> tuple:
    """A Q(i) row as (re, im) Gaussian-integer parts over its common denominator."""
    den = lcm(*(x.den for x in row))
    re = [x.re_num * (den // x.den) for x in row]
    im = [x.im_num * (den // x.den) for x in row]
    return _divide_content(re, im)


def _divide_content(re: list, im: list) -> tuple:
    """The row divided by the gcd of all its integer parts."""
    g = gcd(*re, *im)
    if g > 1:
        re = [x // g for x in re]
        im = [x // g for x in im]
    return re, im


def _is_zero(row: tuple) -> bool:
    return not any(row[0]) and not any(row[1])


def _eliminate(row: tuple, pivot: tuple, col: int) -> tuple:
    """p*row - f*pivot, zero in column `col`, with its integer content divided
    out; p is the pivot's entry in `col` and f the row's, both first divided
    by their common integer factor."""
    a, b = row
    c, d = pivot
    pr, pi, fr, fi = c[col], d[col], a[col], b[col]
    g = gcd(pr, pi, fr, fi)
    pr, pi, fr, fi = pr // g, pi // g, fr // g, fi // g
    re = [pr * x - pi * y - fr * u + fi * v for x, y, u, v in zip(a, b, c, d)]
    im = [pr * y + pi * x - fr * v - fi * u for x, y, u, v in zip(a, b, c, d)]
    return _divide_content(re, im)


def _echelon(rows: list, reduced: bool = False) -> list:
    """Row echelon form of Gaussian-integer rows, as (pivot column, row)
    pairs in increasing pivot order; zero rows are dropped.  With `reduced`,
    every pivot column is zero outside its pivot row."""
    rows = [r for r in rows if not _is_zero(r)]
    out: list = []
    if not rows:
        return out
    for col in range(len(rows[0][0])):
        pivot = None
        for k, (re, im) in enumerate(rows):
            if re[col] or im[col]:
                pivot = rows.pop(k)
                break
        if pivot is None:
            continue
        rest = []
        for r in rows:
            if r[0][col] or r[1][col]:
                r = _eliminate(r, pivot, col)
                if _is_zero(r):
                    continue
            rest.append(r)
        rows = rest
        if reduced:
            out = [
                (c, _eliminate(r, pivot, col) if r[0][col] or r[1][col] else r)
                for c, r in out
            ]
        out.append((col, pivot))
        if not rows:
            break
    return out


def _reduces_to_zero(row: tuple, echelon) -> bool:
    """Whether the row lies in the span of the echelon rows."""
    for col, pivot in echelon:
        if row[0][col] or row[1][col]:
            row = _eliminate(row, pivot, col)
    return _is_zero(row)


def _first_outside(rows, echelon) -> int | None:
    """Index of the first Gaussian-integer row not in the span of the echelon rows."""
    return next((i for i, row in enumerate(rows) if not _reduces_to_zero(row, echelon)), None)


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q(i)^m in its canonical form: (pivot column, (re, im))
    rows of the reduced echelon basis over Z[i], each with a positive integer
    pivot entry and integer content 1.  Build it with `span` or `kernel`."""

    rows: tuple = ()

    @classmethod
    def _of(cls, rows) -> "Subspace":
        """The value spanned by Gaussian-integer rows."""
        out = []
        for col, (re, im) in _echelon(rows, reduced=True):
            pr, pi = re[col], im[col]  # times the conjugate of the pivot, then content 1
            re, im = _divide_content(
                [x * pr + y * pi for x, y in zip(re, im)],
                [y * pr - x * pi for x, y in zip(re, im)],
            )
            out.append((col, (tuple(re), tuple(im))))
        return cls(tuple(out))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def vectors(self) -> list[Vector]:
        """The basis as Q(i) rows with pivot entries 1, zero entries shared."""
        out = []
        for col, (re, im) in self.rows:
            den = re[col]
            out.append([
                GaussianRational.from_ints(x, y, den) if x or y else _ZERO
                for x, y in zip(re, im)
            ])
        return out

    def first_outside(self, other: "Subspace") -> int | None:
        """Index of the first basis row not in `other`, or None if all are."""
        return _first_outside([row for _, row in self.rows], other.rows)

    def __le__(self, other: "Subspace") -> bool:
        return self.first_outside(other) is None

    def __add__(self, other: "Subspace") -> "Subspace":
        return Subspace._of([row for _, row in self.rows + other.rows])

    def __and__(self, other: "Subspace") -> "Subspace":
        """The intersection, by the Zassenhaus algorithm: in an echelon form
        of the rows (a_i | a_i) and (b_j | 0), the rows whose left half is zero
        have right halves spanning the intersection."""
        if not self.rows or not other.rows:
            return Subspace()
        ncols = len(self.rows[0][1][0])
        zeros = (0,) * ncols
        stacked = [(re + re, im + im) for _, (re, im) in self.rows]
        stacked += [(re + zeros, im + zeros) for _, (re, im) in other.rows]
        return Subspace._of(
            [(re[ncols:], im[ncols:]) for col, (re, im) in _echelon(stacked) if col >= ncols]
        )

    @staticmethod
    def is_direct_sum(parts) -> bool:
        """Whether the sum of the spaces is direct: their dimensions add up."""
        return sum(parts, Subspace()).dim == sum(p.dim for p in parts)


def span(rows: list[Vector]) -> Subspace:
    """The span of Q(i) rows."""
    return Subspace._of([_to_int(r) for r in rows])


def kernel(rows: list[Vector], ncols: int) -> Subspace:
    """{x : A x = 0} for the matrix with the given rows: each free column f
    of rref(A) gives the vector e_f minus the pivot rows' entries in column f."""
    reduced = rref(rows)
    pivots = [next(j for j, x in enumerate(r) if not x.is_zero()) for r in reduced]
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        v = [_ZERO] * ncols
        v[fc] = _ONE
        for r, pc in zip(reduced, pivots):
            v[pc] = -r[fc]
        basis.append(v)
    return span(basis)


def rref(rows: list[Vector]) -> list[Vector]:
    """Reduced row echelon form; returns the nonzero rows, pivots normalized to 1."""
    return span(rows).vectors()


def rank(rows: list[Vector]) -> int:
    return span(rows).dim


def right_kernel(rows: list[Vector], ncols: int) -> list[Vector]:
    """Echelon basis of {x : A x = 0} for the matrix with the given rows."""
    return kernel(rows, ncols).vectors()


def first_outside(rows: list[Vector], basis: list[Vector]) -> int | None:
    """Index of the first row not in span(basis), or None if all of them are."""
    return _first_outside(map(_to_int, rows), span(basis).rows)


def is_subspace(rows: list[Vector], basis: list[Vector]) -> bool:
    """Whether span(rows) is contained in span(basis)."""
    return first_outside(rows, basis) is None


def in_span(vector: Vector, basis: list[Vector]) -> bool:
    return is_subspace([vector], basis)


def subspace_equal(a: list[Vector], b: list[Vector]) -> bool:
    return span(a) == span(b)


def subspace_sum(a: list[Vector], b: list[Vector]) -> list[Vector]:
    return (span(a) + span(b)).vectors()


def subspace_intersection(a: list[Vector], b: list[Vector]) -> list[Vector]:
    """Echelon basis of span(a) ∩ span(b)."""
    return (span(a) & span(b)).vectors()


def is_direct_sum(parts: list[list[Vector]]) -> bool:
    """True when the spans meet pairwise in 0 and ranks add up."""
    return Subspace.is_direct_sum([span(p) for p in parts])
