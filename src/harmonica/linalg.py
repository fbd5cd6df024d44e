"""Exact linear algebra over Q(i): one sparse canonical subspace value.

A `Subspace` of Q(i)^m holds the reduced row echelon basis over the Gaussian
integers as sparse rows (pivot column, ((column, re, im), ...)), the nonzero
entries in column order, each row scaled so that its pivot entry is a
positive integer and the gcd of all its integer parts is 1, with the column
count m beside them.  That form is unique, so `==` is literal comparison of
the rows (m is not compared: `span([])` cannot know it); rows are tuples, so
a cached value cannot be changed.  Sums, intersections, inclusions and
equalities of spaces are `+`, `&`, `<=` and `==` on the value.  Values are
built from sparse rows {column: Q(i) value} (`sparse_span`, `sparse_kernel`,
with `sparse_rows` to turn sparse columns into rows).  The only dense-list
code is the boundary of the Laplacian cross-check: `span` and `rref` take
lists of GaussianRational, `is_kernel` reads reduced dense rows, `_to_int`
converts such a row, and `vectors()` gives the dense Q(i) rows with pivots 1.

Every value is built by one constructor, `Subspace._of`, from sparse
Gaussian-integer rows, or read off its result: `span`, `+` and `&` go
through it, and `sparse_kernel` reads the kernel off one `_of` of the
matrix's rows.  `_of` reduces the rows as they are, sparse, with no dense
copy: it keeps pivot rows that are zero at every other pivot column,
reduces each incoming row at the pivot columns it touches, makes what is
left a pivot row at its smallest column and reduces the older pivot rows
that hold that column.  A reduction combines two rows only where they
share a column, so operator matrices, which fall apart into small blocks,
are reduced block by block without being split.  Membership needs no elimination: v lies in the
space exactly when v = sum_c (v[c]/p_c) row_c over the pivot columns c that
v touches, p_c the pivot entries.  Two identities of canonical values need
no row work at all: a value lies in any value equal to it (`first_outside`
returns None), and a value meets an equal value in itself (`a & a` is a).

Elimination is fraction-free: a row r with entry f in the pivot column of a
pivot row with pivot entry p becomes p*r - f*pivot, and is then divided by
the gcd of all its integer parts, so no rational number is formed.

`sparse_kernel` reduces a sparse matrix's rows once with each pivot at its
row's largest column (the columns mirrored for `_of`); each free column
then gives one kernel vector that is already a canonical row, so there is
no second elimination.  The Laplacian cross-check reads no second kernel:
`is_kernel` decides whether a space is the kernel of a matrix from the
matrix's reduced rows, by rank and annihilation, so the condition kernel
and the Laplacian are compared on different matrices by different routes;
the reduction they share is checked against sympy in the tests.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, lcm

from .scalars import GaussianRational

_ZERO = GaussianRational(0)


def _to_int(row: list) -> list:
    """A dense Q(i) row as sparse (column, re, im) Gaussian-integer entries
    over its common denominator."""
    return _sparse_to_int([(j, x) for j, x in enumerate(row) if x.re_num or x.im_num])


def _sparse_to_int(entries: list) -> list:
    """(column, re, im) Gaussian-integer parts of nonzero (column, Q(i) value)
    entries over their common denominator."""
    den = lcm(*(x.den for _, x in entries))
    return [(j, x.re_num * (den // x.den), x.im_num * (den // x.den)) for j, x in entries]


def _reduce(row: dict, pivot: dict, col: int) -> dict:
    """p*row - f*pivot, zero in column `col`, with its integer content divided
    out; p is the pivot's entry in `col` and f the row's, both first divided
    by their common integer factor.  Rows are {column: (re, im)} of nonzero
    Gaussian-integer entries."""
    pr, pi = pivot[col]
    fr, fi = row[col]
    g = gcd(pr, pi, fr, fi)
    pr, pi, fr, fi = pr // g, pi // g, fr // g, fi // g
    out = {j: (pr * a - pi * b, pr * b + pi * a) for j, (a, b) in row.items()}
    for j, (c, d) in pivot.items():
        a, b = out.get(j, (0, 0))
        a, b = a - fr * c + fi * d, b - fr * d - fi * c
        if a or b:
            out[j] = (a, b)
        else:
            del out[j]
    g = gcd(*(x for entry in out.values() for x in entry))
    if g > 1:
        out = {j: (a // g, b // g) for j, (a, b) in out.items()}
    return out


def _normalized(row: dict) -> tuple:
    """(pivot column, entries) of a nonzero sparse row {column: (re, im)}:
    its entries in column order, times the conjugate of the first and
    divided by their integer content."""
    entries = sorted(row.items())
    col, (pr, pi) = entries[0]
    out = [(j, a * pr + b * pi, b * pr - a * pi) for j, (a, b) in entries]
    g = gcd(*(x for _, a, b in out for x in (a, b)))
    if g > 1:
        out = [(j, a // g, b // g) for j, a, b in out]
    return col, tuple(out)


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q(i)^ncols in its canonical form: sparse (pivot column,
    ((column, re, im), ...)) rows of the reduced echelon basis over Z[i],
    each with a positive integer pivot entry and integer content 1.  Build
    it with `sparse_span` or `sparse_kernel` (`span` for the dense rows of
    the Laplacian cross-check)."""

    sparse: tuple = ()
    ncols: int = field(default=0, compare=False)

    @classmethod
    def _of(cls, rows, ncols: int) -> "Subspace":
        """The value spanned by sparse Gaussian-integer rows [(column, re,
        im), ...] of nonzero entries, by one fraction-free reduction of the
        rows themselves.  The pivot rows {column: (re, im)}, keyed by pivot
        column, are zero at every other pivot column, so an incoming row is
        reduced once at each pivot column it touches.  What is left, if
        anything, becomes a pivot row at its smallest column, and the older
        pivot rows that hold that column are reduced at it; `holders` maps
        each non-pivot column to the pivot columns of the rows holding it."""
        pivots: dict = {}
        holders = defaultdict(set)
        for entries in rows:
            row = {j: (a, b) for j, a, b in entries}
            for col in [j for j in row if j in pivots]:
                row = _reduce(row, pivots[col], col)
            if not row:
                continue
            col = min(row)
            for other in holders.pop(col, ()):
                old = pivots[other]
                new = pivots[other] = _reduce(old, row, col)
                for j in old.keys() - new.keys() - {col}:
                    holders[j].discard(other)
                for j in new.keys() - old.keys():
                    holders[j].add(other)
            pivots[col] = row
            for j in row:
                if j != col:
                    holders[j].add(col)
        return cls(tuple(sorted(map(_normalized, pivots.values()))), ncols)

    @property
    def dim(self) -> int:
        return len(self.sparse)

    def sparse_vectors(self) -> list[list]:
        """The basis as sparse Q(i) rows [(column, value), ...], pivot entries 1."""
        return [
            [(j, GaussianRational.from_ints(a, b, entries[0][1])) for j, a, b in entries]
            for _, entries in self.sparse
        ]

    def vectors(self) -> list[list]:
        """The basis as dense Q(i) rows with pivot entries 1, zero entries shared."""
        out = []
        for row in self.sparse_vectors():
            v = [_ZERO] * self.ncols
            for j, x in row:
                v[j] = x
            out.append(v)
        return out

    @cached_property
    def _by_pivot(self) -> dict:
        return dict(self.sparse)

    def _contains(self, entries) -> bool:
        """Whether a sparse Gaussian-integer row v, in column order, lies in
        the space: exactly when v = sum_c (v[c]/p_c) row_c over the pivot
        columns c it touches, checked here times L, the lcm of their pivot
        entries p_c.  A row whose first column is no pivot is outside."""
        if not entries:
            return True
        by_pivot = self._by_pivot
        if entries[0][0] not in by_pivot:
            return False
        touched = [(a, b, by_pivot[j]) for j, a, b in entries if j in by_pivot]
        scale = lcm(*(row[0][1] for _, _, row in touched))
        residual = {j: (scale * a, scale * b) for j, a, b in entries}
        for a, b, row in touched:
            s = scale // row[0][1]
            fa, fb = s * a, s * b
            for j, x, y in row:
                ra, rb = residual.get(j, (0, 0))
                residual[j] = (ra - fa * x + fb * y, rb - fa * y - fb * x)
        return not any(a or b for a, b in residual.values())

    def first_outside(self, other: "Subspace") -> int | None:
        """Index of the first basis row not in `other`, or None if all are."""
        if other == self:
            return None
        return next(
            (i for i, (_, entries) in enumerate(self.sparse) if not other._contains(entries)),
            None,
        )

    def __le__(self, other: "Subspace") -> bool:
        return self.first_outside(other) is None

    def __add__(self, other: "Subspace") -> "Subspace":
        rows = [entries for _, entries in self.sparse + other.sparse]
        return Subspace._of(rows, max(self.ncols, other.ncols))

    def __and__(self, other: "Subspace") -> "Subspace":
        """The intersection, by the Zassenhaus algorithm: the rows (a_i | a_i)
        and (b_j | 0) span a space whose canonical rows with pivot in the
        right half are zero on the left, and their right halves are the
        canonical rows of the intersection.  Equal values meet in themselves."""
        if other == self:
            return other if other.ncols > self.ncols else self
        m = max(self.ncols, other.ncols)
        if not self.sparse or not other.sparse:
            return Subspace((), m)
        stacked = [e + tuple((j + m, a, b) for j, a, b in e) for _, e in self.sparse]
        stacked += [e for _, e in other.sparse]
        meet = Subspace._of(stacked, 2 * m).sparse
        return Subspace(
            tuple((col - m, tuple((j - m, a, b) for j, a, b in e)) for col, e in meet if col >= m),
            m,
        )

    @staticmethod
    def is_direct_sum(parts) -> bool:
        """Whether the sum of the spaces is direct: their dimensions add up."""
        return sum(parts, Subspace()).dim == sum(p.dim for p in parts)


def span(rows: list[list]) -> Subspace:
    """The span of dense Q(i) rows."""
    return Subspace._of([_to_int(r) for r in rows], len(rows[0]) if rows else 0)


def sparse_span(rows, ncols: int) -> Subspace:
    """The span of sparse Q(i) rows {column index: value} over ncols columns."""
    return Subspace._of(
        [_sparse_to_int([(j, x) for j, x in row.items() if x.re_num or x.im_num]) for row in rows],
        ncols,
    )


def is_kernel(space: Subspace, reduced: list[list], ncols: int) -> bool:
    """Whether space = {x : A x = 0} for the matrix A with these reduced
    echelon rows (as from `rref`), decided without the kernel of A: exactly
    when every row of A annihilates every basis vector of the space (so the
    space lies in ker A) and dim space = ncols - rank A, rank A being the
    number of reduced rows."""
    if space.dim != ncols - len(reduced):
        return False
    rows = [{j: (a, b) for j, a, b in _to_int(r)} for r in reduced]
    for _, entries in space.sparse:
        for row in rows:
            re = im = 0
            for j, a, b in entries:
                if j in row:
                    x, y = row[j]
                    re += x * a - y * b
                    im += x * b + y * a
            if re or im:
                return False
    return True


def sparse_rows(columns: list[dict]) -> list[dict]:
    """The rows {column index: value} of the matrix with these sparse columns
    {row key: value}, one row per key hit."""
    rows: dict = {}
    for j, column in enumerate(columns):
        for key, x in column.items():
            rows.setdefault(key, {})[j] = x
    return list(rows.values())


def sparse_kernel(rows, ncols: int) -> Subspace:
    """{x : A x = 0} for the matrix with these sparse Q(i) rows {column
    index: value}, by one reduction with each pivot at its row's largest
    column (the span of the mirrored columns).  Each free column f gives
    L e_f - sum_r (L / p_r) row_r[f] e_{pc_r} over the rows r with
    row_r[f] != 0, with pivot column pc_r and pivot entry p_r, L the lcm of
    those p_r.  Every such pc_r is larger than f, so f is the vector's
    smallest column and no other free column is in it: normalized, the
    vectors in order of f are the canonical rows of the kernel.  A column
    that no row touches gives e_f."""
    last = ncols - 1
    mirrored = sparse_span([{last - j: x for j, x in row.items()} for row in rows], ncols)
    hits: dict = {}
    pivots = set()
    for col, entries in mirrored.sparse:
        p = entries[0][1]
        pivots.add(last - col)
        for j, a, b in entries[1:]:
            hits.setdefault(last - j, []).append((last - col, p, a, b))
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        terms = hits.get(f, ())
        scale = lcm(*(p for _, p, _, _ in terms))
        vector = {f: (scale, 0)}
        for col, p, a, b in terms:
            vector[col] = (-(scale // p) * a, -(scale // p) * b)
        basis.append(_normalized(vector))
    return Subspace(tuple(basis), ncols)


def rref(rows: list[list]) -> list[list]:
    """Reduced row echelon form; returns the nonzero rows, pivots normalized to 1."""
    return span(rows).vectors()
