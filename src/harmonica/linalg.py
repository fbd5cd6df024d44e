"""Exact linear algebra over Q(i): reduced row echelon form, kernels, subspaces.

Vectors at the public boundary are plain lists of GaussianRational.  Reduced
echelon form with leading coefficient 1 is a unique normal form, so subspace
equality is literal comparison of echelon bases.

Inside, each row is converted once to Gaussian integers over the common
denominator of its entries, kept as a pair of int lists (real parts,
imaginary parts).  Elimination is fraction-free: a row r with entry f in the
pivot column of a pivot row with pivot entry p becomes p*r - f*pivot, and is
then divided by the gcd of all its integer parts, so no rational number is
formed while eliminating.  Rows are scaled to pivot 1 and turned back into
GaussianRational only when a result leaves this module.  Scaling a row does
not change its span, and the reduced echelon form is unique, so the rows
returned are exactly those a rational elimination gives.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalars import GaussianRational

Vector = list

_ZERO = GaussianRational(0)
_ONE = GaussianRational(1)


def _to_int(row: Vector) -> tuple:
    """A Q(i) row as (re, im) Gaussian-integer parts over its common denominator."""
    den = lcm(*(d for x in row for d in (x.re.denominator, x.im.denominator)))
    re = [x.re.numerator * (den // x.re.denominator) for x in row]
    im = [x.im.numerator * (den // x.im.denominator) for x in row]
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


def _combine(row: tuple, pivot: tuple, col: int) -> tuple:
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
                r = _combine(r, pivot, col)
                if _is_zero(r):
                    continue
            rest.append(r)
        rows = rest
        if reduced:
            out = [
                (c, _combine(r, pivot, col) if r[0][col] or r[1][col] else r)
                for c, r in out
            ]
        out.append((col, pivot))
        if not rows:
            break
    return out


def _to_rationals(echelon: list) -> list[Vector]:
    """Echelon rows over Z[i] as Q(i) rows with pivot entries 1."""
    out = []
    for col, (re, im) in echelon:
        pr, pi = re[col], im[col]
        norm = pr * pr + pi * pi
        out.append([
            GaussianRational(Fraction(x * pr + y * pi, norm), Fraction(y * pr - x * pi, norm))
            if x or y else _ZERO
            for x, y in zip(re, im)
        ])
    return out


def _reduces_to_zero(row: tuple, echelon: list) -> bool:
    """Whether the row lies in the span of the echelon rows."""
    for col, pivot in echelon:
        if row[0][col] or row[1][col]:
            row = _combine(row, pivot, col)
    return _is_zero(row)


def rref(rows: list[Vector]) -> list[Vector]:
    """Reduced row echelon form; returns the nonzero rows, pivots normalized to 1."""
    return _to_rationals(_echelon([_to_int(r) for r in rows], reduced=True))


def rank(rows: list[Vector]) -> int:
    return len(_echelon([_to_int(r) for r in rows]))


def right_kernel(rows: list[Vector], ncols: int) -> list[Vector]:
    """Echelon basis of {x : A x = 0} for the matrix with the given rows."""
    reduced = rref(rows)
    pivots = []
    for r in reduced:
        for j, x in enumerate(r):
            if not x.is_zero():
                pivots.append(j)
                break
    pivot_set = set(pivots)
    free_cols = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for fc in free_cols:
        v = [_ZERO] * ncols
        v[fc] = _ONE
        for r, pc in zip(reduced, pivots):
            v[pc] = -r[fc]
        basis.append(v)
    return rref(basis)


def first_outside(rows: list[Vector], basis: list[Vector]) -> int | None:
    """Index of the first row not in span(basis), or None if all of them are.

    The basis is echelonized once and each row is reduced against it."""
    echelon = _echelon([_to_int(r) for r in basis])
    for i, row in enumerate(rows):
        if not _reduces_to_zero(_to_int(row), echelon):
            return i
    return None


def is_subspace(rows: list[Vector], basis: list[Vector]) -> bool:
    """Whether span(rows) is contained in span(basis)."""
    return first_outside(rows, basis) is None


def in_span(vector: Vector, basis: list[Vector]) -> bool:
    return is_subspace([vector], basis)


def subspace_equal(a: list[Vector], b: list[Vector]) -> bool:
    return rref(a) == rref(b)


def subspace_sum(a: list[Vector], b: list[Vector]) -> list[Vector]:
    return rref(list(a) + list(b))


def subspace_intersection(a: list[Vector], b: list[Vector]) -> list[Vector]:
    """Echelon basis of span(a) ∩ span(b), by the Zassenhaus algorithm.

    In an echelon form of the rows (a_i | a_i) and (b_j | 0), the rows whose
    left half is zero have right halves spanning the intersection."""
    if not a or not b:
        return []
    ncols = len(a[0])
    zeros = [0] * ncols
    stacked = [(re + re, im + im) for re, im in map(_to_int, a)]
    stacked += [(re + zeros, im + zeros) for re, im in map(_to_int, b)]
    meet = [(re[ncols:], im[ncols:]) for col, (re, im) in _echelon(stacked) if col >= ncols]
    return _to_rationals(_echelon(meet, reduced=True))


def is_direct_sum(parts: list[list[Vector]]) -> bool:
    """True when the spans meet pairwise in 0 and ranks add up."""
    total = []
    dim_sum = 0
    for p in parts:
        dim_sum += rank(p)
        total.extend(p)
    return rank(total) == dim_sum
