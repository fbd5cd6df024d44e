"""Exact linear algebra over Q(i): one sparse canonical subspace value.

A `Subspace` of Q(i)^m holds the reduced row echelon basis over the Gaussian
integers as sparse rows (pivot column, ((column, re, im), ...)), the nonzero
entries in column order, each row scaled so that its pivot entry is a
positive integer and the gcd of all its integer parts is 1, with the column
count m beside them.  That form is unique, so `==` is literal comparison of
the rows (m is not compared, so the empty `Subspace()` equals every zero
space); rows are tuples, so a cached value cannot be changed.  Sums,
intersections, inclusions and equalities of spaces are `+`, `&`, `<=` and
`==` on the value.  Values are built from sparse rows {column: Q(i) value}:
`rref` is the one entry that reduces them, and `sparse_kernel` reads a
kernel off it (`sparse_rows` turns sparse columns into rows).

Every value is built by one constructor, `Subspace._of`, from sparse
Gaussian-integer rows, or read off its result: `rref`, `+` and `&` go
through it.  `_of` reduces the rows as they are, sparse, with no dense
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
the gcd of all its integer parts, so no rational number is formed.  A row
is made real and positive at its pivot when it becomes a pivot row (times
the conjugate of its pivot entry, then divided by its integer content), so
every p is a positive integer and no Gaussian-integer factor builds up in
the rows (cf. Bareiss, Math. Comp. 22, 1968).

`sparse_kernel` reduces a sparse matrix's rows once with each pivot at its
row's largest column (the columns mirrored for `rref`); each free column
then gives one kernel vector that is already a canonical row, so there is
no second elimination.  The Laplacian cross-check reads no second kernel:
`is_kernel` decides whether a space is the kernel of a matrix from the
matrix's reduction, by rank and annihilation, so the condition kernel
and the Laplacian are compared on different matrices by different routes;
the reduction they share is checked against sympy in the tests.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, lcm

from .scalars import GaussianRational


def _sparse_to_int(entries: list) -> list:
    """(column, re, im) Gaussian-integer parts of nonzero (column, Q(i) value)
    entries over their common denominator."""
    den = lcm(*(x.den for _, x in entries))
    return [(j, x.re_num * (den // x.den), x.im_num * (den // x.den)) for j, x in entries]


def _content_free(row: dict) -> dict:
    """A sparse row {column: (re, im)} divided by the gcd of its integer parts."""
    g = gcd(*(x for entry in row.values() for x in entry))
    return {j: (a // g, b // g) for j, (a, b) in row.items()} if g > 1 else row


def _real_at(row: dict, col: int) -> dict:
    """The row times the conjugate of its entry in `col`, divided by its
    integer content: real and positive in `col`."""
    pr, pi = row[col]
    return _content_free({j: (a * pr + b * pi, b * pr - a * pi) for j, (a, b) in row.items()})


def _reduce(row: dict, pivot: dict, col: int) -> dict:
    """p*row - f*pivot, zero in column `col`, with its integer content divided
    out; p is the pivot's entry in `col`, a positive integer, and f the
    row's, both first divided by their common integer factor.  Rows are
    {column: (re, im)} of nonzero Gaussian-integer entries."""
    p = pivot[col][0]
    fr, fi = row[col]
    g = gcd(p, fr, fi)
    p, fr, fi = p // g, fr // g, fi // g
    out = {j: (p * a, p * b) for j, (a, b) in row.items()}
    for j, (c, d) in pivot.items():
        a, b = out.get(j, (0, 0))
        a, b = a - fr * c + fi * d, b - fr * d - fi * c
        if a or b:
            out[j] = (a, b)
        else:
            del out[j]
    return _content_free(out)


def _normalized(row: dict) -> tuple:
    """(pivot column, entries) of a nonzero sparse row {column: (re, im)}
    with integer content 1, real and positive at its smallest column: its
    entries in column order."""
    entries = sorted(row.items())
    return entries[0][0], tuple((j, a, b) for j, (a, b) in entries)


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q(i)^ncols in its canonical form: sparse (pivot column,
    ((column, re, im), ...)) rows of the reduced echelon basis over Z[i],
    each with a positive integer pivot entry and integer content 1.  Build
    it with `rref` or `sparse_kernel`."""

    sparse: tuple = ()
    ncols: int = field(default=0, compare=False)

    @classmethod
    def _of(cls, rows, ncols: int) -> "Subspace":
        """The value spanned by sparse Gaussian-integer rows [(column, re,
        im), ...] of nonzero entries, by one fraction-free reduction of the
        rows themselves.  The pivot rows {column: (re, im)}, keyed by pivot
        column, are zero at every other pivot column, so an incoming row is
        reduced once at each pivot column it touches.  What is left, if
        anything, becomes a pivot row at its smallest column, real and
        positive there, and the older pivot rows that hold that column are
        reduced at it, which keeps their own pivot entries positive
        integers; `holders` maps each non-pivot column to the pivot columns
        of the rows holding it."""
        pivots: dict = {}
        holders = defaultdict(set)
        for entries in rows:
            row = {j: (a, b) for j, a, b in entries}
            for col in [j for j in row if j in pivots]:
                row = _reduce(row, pivots[col], col)
            if not row:
                continue
            col = min(row)
            row = _real_at(row, col)
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


def rref(rows: list, ncols: int) -> Subspace:
    """The span of sparse Q(i) rows {column index: value} over ncols columns,
    by one reduction: the reduced echelon rows in canonical form."""
    return Subspace._of(
        [_sparse_to_int([(j, x) for j, x in row.items() if x.re_num or x.im_num]) for row in rows],
        ncols,
    )


def is_kernel(space: Subspace, reduced: Subspace) -> bool:
    """Whether space = {x : A x = 0} for the matrix A whose reduction (from
    `rref`) is given, decided without the kernel of A: exactly when every
    canonical row of A's reduction annihilates every basis vector of the
    space (so the space lies in ker A) and dim space = m - rank A, over the
    m = reduced.ncols columns of A, rank A being reduced.dim."""
    if space.dim != reduced.ncols - reduced.dim:
        return False
    rows = [{j: (a, b) for j, a, b in entries} for _, entries in reduced.sparse]
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
    mirrored = rref([{last - j: x for j, x in row.items()} for row in rows], ncols)
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
        basis.append(_normalized(_content_free(vector)))
    return Subspace(tuple(basis), ncols)
