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

Operator matrices are sparse and fall apart into small blocks.
`sparse_kernel` takes sparse rows, splits the columns into the connected
components of the row-column incidence graph, and eliminates each component
alone on its own columns; the canonical form is unique, so the embedded
pieces are the same value the dense route gives.  The harmonic condition
kernels and the primitive kernels take this route.  `kernel` stays dense,
through `rref` over the whole matrix: the Laplacian cross-check uses it, so
a fault in the component split shows as a disagreement between two
independent eliminations instead of agreeing with itself.
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
    index: value}, one connected component of columns at a time.

    Each row is scaled to Gaussian integers, which keeps the kernel.  A
    component's rows are brought to canonical reduced form, with positive
    integer pivots p_r; each of its free columns f gives the kernel vector
    L e_f - sum_r (L / p_r) row_r[f] e_{pc_r}, L the lcm of the pivots, and
    those vectors are brought to canonical form on the component's columns.
    A column that no row touches is a component of its own and gives e_j.
    Components have disjoint columns, so the embedded rows together are the
    canonical kernel."""
    parent = list(range(ncols))

    def find(j):
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        return j

    int_rows = []
    for row in rows:
        entries = [(j, x) for j, x in row.items() if x.re_num or x.im_num]
        if not entries:
            continue
        int_rows.append(_sparse_to_int(entries))
        root = find(entries[0][0])
        for j, _ in entries[1:]:
            other = find(j)
            if other != root:
                parent[other] = root
    components: dict = {}
    for row in int_rows:
        components.setdefault(find(row[0][0]), []).append(row)
    columns: dict = {}
    for j in range(ncols):
        columns.setdefault(find(j), []).append(j)
    out = []
    for root, cols in columns.items():
        local = {j: k for k, j in enumerate(cols)}
        zeros = [0] * len(cols)
        dense = []
        for row in components.get(root, ()):
            re, im = zeros[:], zeros[:]
            for j, a, b in row:
                re[local[j]] = a
                im[local[j]] = b
            dense.append(_divide_content(re, im))
        for col, (re, im) in _local_kernel(Subspace._of(dense).rows, len(cols)).rows:
            gre, gim = [0] * ncols, [0] * ncols
            for k, j in enumerate(cols):
                gre[j], gim[j] = re[k], im[k]
            out.append((cols[col], (tuple(gre), tuple(gim))))
    out.sort(key=lambda r: r[0])
    return Subspace(tuple(out))


def _sparse_to_int(entries: list) -> list:
    """(column, re, im) Gaussian-integer parts of nonzero (column, Q(i) value)
    entries over their common denominator."""
    den = lcm(*(x.den for _, x in entries))
    return [(j, x.re_num * (den // x.den), x.im_num * (den // x.den)) for j, x in entries]


def _local_kernel(echelon: tuple, size: int) -> Subspace:
    """The kernel of canonical rows over `size` columns, from their free columns."""
    pivots = {col for col, _ in echelon}
    scale = lcm(*(re[col] for col, (re, _) in echelon))
    basis = []
    for f in range(size):
        if f in pivots:
            continue
        re, im = [0] * size, [0] * size
        re[f] = scale
        for col, (pre, pim) in echelon:
            if pre[f] or pim[f]:
                s = scale // pre[col]
                re[col], im[col] = -s * pre[f], -s * pim[f]
        basis.append((re, im))
    return Subspace._of(basis)


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
