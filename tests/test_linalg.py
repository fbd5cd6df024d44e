"""Property tests of the exact linear-algebra core against sympy as an oracle:
the canonical Subspace value, its constructors (`span`, `sparse_span`,
`sparse_kernel`) and operations (`+`, `&`, `<=`, `==`), and the
dense boundary of the Laplacian cross-check (`rref`, `is_kernel`).

Matrices are small Q(i) matrices with zero rows, repeated rows, rows that are
combinations of earlier rows, and entries with large denominators.
"""

import dataclasses
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from harmonica import linalg
from harmonica.linalg import (
    Subspace,
    is_kernel,
    rref,
    sparse_kernel,
    sparse_rows,
    sparse_span,
    span,
)
from harmonica.scalars import GaussianRational

sp = pytest.importorskip("sympy")

PROPERTY = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

_ZERO = GaussianRational(0)

small = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
large = st.builds(
    Fraction,
    st.integers(-(10**18), 10**18),
    st.sampled_from([1, 7, 10**12 + 39, 2**61 - 1, 3**40]),
)
entries = st.one_of(
    st.just(_ZERO),
    st.just(_ZERO),
    st.builds(GaussianRational, small, small),
    st.builds(GaussianRational, small),
    st.builds(GaussianRational, large, large),
)


def _rows(ncols):
    return st.lists(entries, min_size=ncols, max_size=ncols)


@st.composite
def matrices(draw, ncols):
    """Up to six rows: fresh, zero, repeated, or a combination of two earlier rows."""
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kinds = ["fresh", "fresh", "zero", "repeat", "combine"] if rows else ["fresh", "zero"]
        how = draw(st.sampled_from(kinds))
        if how == "zero":
            rows.append([_ZERO] * ncols)
        elif how == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        elif how == "combine":
            r1, r2 = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c1, c2 = draw(entries), draw(entries)
            rows.append([c1 * x + c2 * y for x, y in zip(r1, r2)])
        else:
            rows.append(draw(_rows(ncols)))
    return rows


widths = st.integers(1, 5)


@st.composite
def one_matrix(draw):
    n = draw(widths)
    return n, draw(matrices(n))


@st.composite
def two_matrices(draw):
    n = draw(widths)
    return n, draw(matrices(n)), draw(matrices(n))


def _to_sympy(x):
    return sp.Rational(x.re.numerator, x.re.denominator) + sp.I * sp.Rational(
        x.im.numerator, x.im.denominator
    )


def _from_sympy(e):
    re, im = sp.expand(e).as_real_imag()
    return GaussianRational(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))


def _matrix(rows, n):
    return sp.Matrix(len(rows), n, [_to_sympy(x) for r in rows for x in r])


def _oracle_rref(rows, n):
    if not rows:
        return []
    reduced, pivots = _matrix(rows, n).rref(simplify=True)
    return [[_from_sympy(reduced[i, j]) for j in range(n)] for i in range(len(pivots))]


def _oracle_rank(rows, n):
    return len(_oracle_rref(rows, n))


def _oracle_kernel(rows, n):
    """RREF basis of {x : A x = 0}, from sympy's nullspace."""
    null = _matrix(rows, n).nullspace(simplify=True)
    return _oracle_rref([[_from_sympy(e) for e in v] for v in null], n)


def _oracle_intersection(a, b, n):
    """RREF of span(a) ∩ span(b) from the kernel of the matrix [a^T | -b^T]."""
    if not a or not b:
        return []
    system = _matrix(a, n).T.row_join(-_matrix(b, n).T)
    vectors = [
        [sum((_to_sympy(x) * k[i] for i, x in enumerate(col)), sp.Integer(0))
         for col in zip(*a)]
        for k in system.nullspace(simplify=True)
    ]
    if not vectors:
        return []
    rows = [[_from_sympy(e) for e in v] for v in vectors]
    return _oracle_rref(rows, n)


@PROPERTY
@given(one_matrix())
def test_rref_matches_sympy(case):
    n, rows = case
    reduced = rref(rows)
    assert reduced == _oracle_rref(rows, n)
    assert span(rows).dim == len(reduced)


@PROPERTY
@given(one_matrix())
def test_right_kernel_annihilates_rows(case):
    n, rows = case
    null = sparse_kernel(_sparse(rows), n).vectors()
    assert len(null) == n - _oracle_rank(rows, n)
    assert rref(null) == null
    for x in null:
        for r in rows:
            assert sum((a * b for a, b in zip(r, x)), _ZERO).is_zero()


@PROPERTY
@given(two_matrices())
def test_sum_and_intersection_match_sympy(case):
    n, a, b = case
    ra, rb, rs = _oracle_rank(a, n), _oracle_rank(b, n), _oracle_rank(a + b, n)
    total = (span(a) + span(b)).vectors()
    meet = (span(a) & span(b)).vectors()
    assert len(total) == rs
    assert len(meet) == ra + rb - rs
    assert total == _oracle_rref(a + b, n)
    assert meet == _oracle_intersection(a, b, n)
    assert span(meet) <= span(a) and span(meet) <= span(b)
    assert Subspace.is_direct_sum([span(a), span(b)]) == (ra + rb == rs)
    assert span(b) + span(a) == span(a + b)


@PROPERTY
@given(two_matrices())
def test_containment_matches_rank_criterion(case):
    n, rows, basis = case
    base_rank = _oracle_rank(basis, n)
    inside = [_oracle_rank(basis + [r], n) == base_rank for r in rows]
    assert [span([r]) <= span(basis) for r in rows] == inside
    assert (span(rows) <= span(basis)) == all(inside)
    assert (span(rows) <= span(basis)) == (_oracle_rank(basis + rows, n) == base_rank)


nonzero = entries.filter(lambda x: not x.is_zero())


@st.composite
def respanned(draw):
    """A matrix and another spanning set of its row space: its rows shuffled,
    each scaled by a nonzero Gaussian rational, with combinations and zero rows
    added."""
    n, rows = draw(one_matrix())
    scales = draw(st.lists(nonzero, min_size=len(rows), max_size=len(rows)))
    other = [[c * x for x in r] for r, c in zip(rows, scales)]
    for _ in range(draw(st.integers(0, 3))):
        if rows and draw(st.booleans()):
            r1, r2 = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c1, c2 = draw(entries), draw(entries)
            other.append([c1 * x + c2 * y for x, y in zip(r1, r2)])
        else:
            other.append([_ZERO] * n)
    return n, rows, draw(st.permutations(other))


def _assert_canonical(space):
    """Reduced echelon over Z[i], read on the sparse rows: nonzero entries in
    column order, a positive integer pivot entry first, each pivot column
    zero outside its row, and integer content 1 in every row."""
    assert isinstance(space.sparse, tuple)
    pivots = [col for col, _ in space.sparse]
    assert pivots == sorted(set(pivots))
    for col, entries in space.sparse:
        assert isinstance(entries, tuple)
        columns = [j for j, _, _ in entries]
        assert columns == sorted(set(columns)) and columns[0] == col
        assert all(a or b for _, a, b in entries)
        assert entries[0][1] > 0 and entries[0][2] == 0
        assert math.gcd(*(x for _, a, b in entries for x in (a, b))) == 1
        assert not any(j in pivots and j != col for j in columns)


@PROPERTY
@given(respanned())
def test_any_spanning_set_gives_an_equal_value(case):
    n, rows, other = case
    space = span(rows)
    _assert_canonical(space)
    assert span(other) == space
    assert span(other).sparse == space.sparse and hash(span(other)) == hash(space)
    assert space.vectors() == _oracle_rref(rows, n)
    assert space.dim == _oracle_rank(rows, n)


@PROPERTY
@given(two_matrices())
def test_subspace_operations_match_sympy(case):
    n, a, b = case
    sa, sb = span(a), span(b)
    for value in (sa + sb, sa & sb):
        _assert_canonical(value)
    assert (sa + sb).vectors() == _oracle_rref(a + b, n)
    assert (sa & sb).vectors() == _oracle_intersection(a, b, n)
    base_rank = _oracle_rank(b, n)
    inside = [_oracle_rank(b + [r], n) == base_rank for r in _oracle_rref(a, n)]
    assert (sa <= sb) == all(inside)
    assert sa.first_outside(sb) == next((i for i, ok in enumerate(inside) if not ok), None)
    ra, rs = _oracle_rank(a, n), _oracle_rank(a + b, n)
    assert Subspace.is_direct_sum([sa, sb]) == (ra + base_rank == rs)
    assert sum([sa, sb], Subspace()) == sa + sb == sb + sa


@PROPERTY
@given(respanned())
def test_equal_values_need_no_row_work(case):
    """For b == a built apart, a <= b, b <= a and a & b make no membership
    test and no elimination, and a & b == a."""
    n, rows, other = case
    a, b = span(rows), span(other)
    assert b == a and b is not a
    calls = []
    contains, of = Subspace.__dict__["_contains"], Subspace.__dict__["_of"]

    def counting_contains(self, entries):
        calls.append("_contains")
        return contains(self, entries)

    def counting_of(cls, rows, ncols):
        calls.append("_of")
        return of.__func__(cls, rows, ncols)

    Subspace._contains, Subspace._of = counting_contains, classmethod(counting_of)
    try:
        assert a <= b and b <= a
        meet = a & b
    finally:
        Subspace._contains, Subspace._of = contains, of
    assert calls == []
    assert meet == a and meet.ncols == max(a.ncols, b.ncols)


def test_value_is_immutable():
    space = span([[GaussianRational(1), GaussianRational(0, 2)]])
    with pytest.raises(dataclasses.FrozenInstanceError):
        space.sparse = ()
    with pytest.raises(TypeError):
        space.sparse[0][1][0] = (0, 5, 0)
    vectors = space.vectors()
    vectors[0][0] = _ZERO
    assert space.vectors()[0][0] == GaussianRational(1)


@st.composite
def sparse_matrices(draw):
    """Up to 12 columns, split at random into blocks under a random
    permutation; each block gets its own sparse rows (some zero, some
    repeated), some blocks get none, so their columns stay untouched."""
    n = draw(st.integers(0, 12))
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=4)))
    blocks = [order[a:b] for a, b in zip([0, *cuts], [*cuts, n]) if a < b]
    rows = []
    for block in blocks:
        for _ in range(draw(st.integers(0, 4))):
            how = draw(st.sampled_from(["fresh", "fresh", "zero", "repeat"]))
            if how == "repeat" and rows:
                rows.append(dict(draw(st.sampled_from(rows))))
            elif how == "zero":
                rows.append({j: _ZERO for j in draw(st.lists(st.sampled_from(block)))})
            else:
                cols = draw(st.lists(st.sampled_from(block), min_size=1, unique=True))
                rows.append({j: draw(entries) for j in cols})
    return n, draw(st.permutations(rows))


@PROPERTY
@given(sparse_matrices())
def test_sparse_kernel_equals_dense_kernel(case):
    n, rows = case
    dense = [[row.get(j, _ZERO) for j in range(n)] for row in rows]
    oracle = _oracle_kernel(dense, n)
    for space in (sparse_kernel(rows, n), sparse_kernel(_sparse(dense), n)):
        _assert_view(space, n)
        assert space.vectors() == oracle


def test_sparse_kernel_of_no_rows_is_everything():
    identity = [[GaussianRational(int(i == j)) for j in range(3)] for i in range(3)]
    assert sparse_kernel([], 3) == span(identity)
    assert sparse_kernel([], 0) == Subspace()


@PROPERTY
@given(sparse_matrices())
def test_sparse_rows_transpose_columns(case):
    n, rows = case
    columns = [{i: row[j] for i, row in enumerate(rows) if j in row} for j in range(n)]
    as_sets = lambda rows: Counter(frozenset(r.items()) for r in rows)
    assert as_sets(sparse_rows(columns)) == as_sets(r for r in rows if r)


# The one sparse reduction is shared by every constructor, so the sparse
# values are checked against sympy directly: block-structured sparse
# matrices, and pairs of them on the same column blocks.


def _dense(rows, n):
    return [[row.get(j, _ZERO) for j in range(n)] for row in rows]


def _sparse(rows):
    """Dense rows as sparse rows {column: value}, their zero entries kept."""
    return [dict(enumerate(row)) for row in rows]


small_nonzero = st.builds(GaussianRational, small.filter(bool), small)


@st.composite
def bridged_sparse_matrices(draw):
    """A `sparse_matrices` draw with one to three bridge rows added when it
    has three columns or more: each has nonzero entries in three or four
    columns, so it joins the blocks of those columns, and one or two of
    those columns get a one-entry row too, a block of one column whose pivot
    the bridge must be reduced at."""
    n, rows = draw(sparse_matrices())
    for _ in range(draw(st.integers(1, 3)) if n >= 3 else 0):
        cols = sorted(draw(st.permutations(range(n)))[: draw(st.integers(3, 4))])
        rows.append({j: draw(small_nonzero) for j in cols})
        for j in draw(st.lists(st.sampled_from(cols), min_size=1, max_size=2, unique=True)):
            rows.append({j: draw(small_nonzero)})
    return n, draw(st.permutations(rows))


@st.composite
def sparse_pairs(draw):
    """Two sparse matrices under one column permutation: the rows of one
    `bridged_sparse_matrices` draw dealt into two, and sums of two rows of
    the first added to the second, so that the two spaces meet."""
    n, rows = draw(bridged_sparse_matrices())
    sides = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    a = [row for row, left in zip(rows, sides) if left]
    b = [row for row, left in zip(rows, sides) if not left]
    for _ in range(draw(st.integers(0, 2)) if a else 0):
        r1, r2 = draw(st.sampled_from(a)), draw(st.sampled_from(a))
        b.append({j: r1.get(j, _ZERO) + r2.get(j, _ZERO) for j in sorted({*r1, *r2})})
    return n, a, draw(st.permutations(b))


def _assert_view(space, n):
    """Canonical, with every row n columns wide."""
    _assert_canonical(space)
    assert space.ncols == n or not space.sparse
    assert all(j < n for _, entries in space.sparse for j, _, _ in entries)


@PROPERTY
@given(bridged_sparse_matrices())
def test_sparse_span_and_kernel_match_sympy(case):
    n, rows = case
    dense = _dense(rows, n)
    for space in (span(dense), sparse_span(rows, n)):
        _assert_view(space, n)
        assert space.vectors() == _oracle_rref(dense, n)
    null = sparse_kernel(rows, n)
    _assert_view(null, n)
    assert null.vectors() == _oracle_kernel(dense, n)
    assert null.dim == n - _oracle_rank(dense, n)
    for x in null.vectors():
        for r in dense:
            assert sum((a * b for a, b in zip(r, x)), _ZERO).is_zero()


@PROPERTY
@given(bridged_sparse_matrices())
def test_sparse_kernel_is_one_reduction(case):
    """sparse_kernel reduces the rows once, by one `Subspace._of`, whether
    they are sparse or hold explicit zeros, and reads the kernel's canonical
    rows off that reduction (checked against sympy above)."""
    n, rows = case
    calls = []
    of = Subspace.__dict__["_of"]

    def counting_of(cls, rows, ncols):
        calls.append(ncols)
        return of.__func__(cls, rows, ncols)

    Subspace._of = classmethod(counting_of)
    try:
        sparse_kernel(rows, n)
        sparse_kernel(_sparse(_dense(rows, n)), n)
    finally:
        Subspace._of = of
    assert calls == [n, n]


@PROPERTY
@given(sparse_pairs())
def test_sparse_subspace_operations_match_sympy(case):
    n, a, b = case
    da, db = _dense(a, n), _dense(b, n)
    sa, sb = sparse_span(a, n), sparse_span(b, n)
    for value in (sa + sb, sa & sb, sb & sa):
        _assert_view(value, n)
    assert (sa + sb).vectors() == _oracle_rref(da + db, n)
    assert (sa & sb).vectors() == (sb & sa).vectors() == _oracle_intersection(da, db, n)
    for x, y, dx, dy in ((sa, sb, da, db), (sb, sa, db, da)):
        base_rank = _oracle_rank(dy, n)
        inside = [_oracle_rank(dy + [r], n) == base_rank for r in _oracle_rref(dx, n)]
        assert (x <= y) == all(inside)
        assert x.first_outside(y) == next((i for i, ok in enumerate(inside) if not ok), None)
    empty = Subspace()
    assert sa + empty == empty + sa == sa
    assert (sa & empty).dim == (empty & sa).dim == 0
    assert empty <= sa and (sa <= empty) == (sa.dim == 0)
    assert sum([sa, sb], empty) == sa + sb


def test_empty_spaces_are_neutral():
    rows = [{0: GaussianRational(1), 2: GaussianRational(0, 3)}]
    space = sparse_span(rows, 4)
    for empty in (Subspace(), span([]), sparse_span([], 4), sparse_kernel([], 0)):
        assert empty == Subspace() and hash(empty) == hash(Subspace())
        assert empty.sparse == () and empty.vectors() == []
        assert space + empty == empty + space == space
        assert empty.first_outside(space) is None
    assert sparse_span([{1: _ZERO}], 4) == Subspace()


@PROPERTY
@given(bridged_sparse_matrices(), st.data())
def test_rank_and_annihilation_decide_the_kernel(case, data):
    """is_kernel(K, rref(A), m) holds exactly when K is ker A, for K the
    kernel itself and for candidates next to it: the kernel with one basis
    row dropped, with one entry of a basis row changed, and with one more
    vector.  rref(A) and ker A both come from sympy."""
    n, rows = case
    dense = _dense(rows, n)
    null = _oracle_kernel(dense, n)
    basis = [{j: x for j, x in enumerate(v) if x} for v in null]
    candidates = [basis]
    if basis:
        k = data.draw(st.integers(0, len(basis) - 1))
        changed = dict(basis[k])
        changed[data.draw(st.integers(0, n - 1))] = data.draw(small_nonzero)
        candidates += [basis[:k] + basis[k + 1 :], basis[:k] + [changed] + basis[k + 1 :]]
    if n:
        cols = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
        candidates.append(basis + [{j: data.draw(small_nonzero) for j in cols}])
    reduced = _oracle_rref(dense, n)
    for candidate in candidates:
        space = sparse_span(candidate, n)
        assert is_kernel(space, reduced, n) == (space.vectors() == null)


@pytest.mark.parametrize("blocks", [1, 3, 8])
def test_reduction_combines_rows_of_one_block_only(monkeypatch, blocks):
    """b disjoint 2x2 blocks of generic Gaussian-integer rows, rows and
    columns shuffled: no reduction combines rows of two blocks, there are at
    most 2b reductions, and the value is sympy's RREF.  The reduction keeps
    to the blocks without splitting the columns into components first."""
    rng = random.Random(blocks)
    n = 2 * blocks
    order = rng.sample(range(n), n)
    block_of = {j: order.index(j) // 2 for j in range(n)}
    rows = []
    for k in range(blocks):
        cols = order[2 * k : 2 * k + 2]
        for _ in range(2):
            rows.append({j: GaussianRational(rng.randint(1, 9), rng.randint(-9, 9)) for j in cols})
    rng.shuffle(rows)
    reductions = []
    reduce = linalg._reduce

    def spy(row, pivot, col):
        reductions.append({block_of[j] for j in (*row, *pivot)})
        return reduce(row, pivot, col)

    monkeypatch.setattr(linalg, "_reduce", spy)
    space = sparse_span(rows, n)
    assert all(len(touched) == 1 for touched in reductions)
    assert 0 < len(reductions) <= 2 * blocks
    assert space.dim == n
    assert space.vectors() == _oracle_rref(_dense(rows, n), n)
