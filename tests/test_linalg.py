"""Property tests of the exact linear-algebra core against sympy as an oracle:
the canonical Subspace value, its constructors (`rref`, the one entry that
reduces sparse rows, and `sparse_kernel`), its operations (`+`, `&`, `<=`,
`==`), and the kernel decision of the Laplacian cross-check (`is_kernel`).
Values are compared with sympy's dense reduced rows through `_vectors`, a
dense view built here.

Matrices are small Q(i) matrices with zero rows, repeated rows, rows that are
combinations of earlier rows, and entries with large denominators.
"""

import ast
import dataclasses
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import harmonica
from harmonica import linalg
from harmonica.linalg import (
    Subspace,
    is_kernel,
    rref,
    sparse_kernel,
    sparse_rows,
)
from harmonica.scalars import GaussianRational

from conftest import fail_on_swell

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


def _sparse(rows):
    """Dense rows as sparse rows {column: value}, their zero entries kept."""
    return [dict(enumerate(row)) for row in rows]


def _span(rows, n):
    """The value of dense rows over n columns, through the one sparse entry."""
    return rref(_sparse(rows), n)


def _vectors(space):
    """The basis as dense Q(i) rows with pivot entries 1."""
    out = []
    for row in space.sparse_vectors():
        v = [_ZERO] * space.ncols
        for j, x in row:
            v[j] = x
        out.append(v)
    return out


def _canonical(reduced, n):
    """The Subspace of dense reduced echelon rows with pivot entries 1 (as
    sympy gives them), each scaled here to the canonical Z[i] form: times the
    lcm of its denominators, then divided by the gcd of its integer parts."""
    rows = []
    for row in reduced:
        entries = [(j, x) for j, x in enumerate(row) if not x.is_zero()]
        den = math.lcm(*(x.den for _, x in entries))
        ints = [(j, x.re_num * (den // x.den), x.im_num * (den // x.den)) for j, x in entries]
        g = math.gcd(*(v for _, a, b in ints for v in (a, b)))
        rows.append((ints[0][0], tuple((j, a // g, b // g) for j, a, b in ints)))
    return Subspace(tuple(rows), n)


@PROPERTY
@given(one_matrix())
def test_rref_matches_sympy(case):
    n, rows = case
    reduced = _span(rows, n)
    oracle = _oracle_rref(rows, n)
    assert _vectors(reduced) == oracle
    assert reduced == _canonical(oracle, n) and reduced.ncols == n


@PROPERTY
@given(one_matrix())
def test_right_kernel_annihilates_rows(case):
    n, rows = case
    null = _vectors(sparse_kernel(_sparse(rows), n))
    assert len(null) == n - _oracle_rank(rows, n)
    assert _vectors(_span(null, n)) == null
    for x in null:
        for r in rows:
            assert sum((a * b for a, b in zip(r, x)), _ZERO).is_zero()


@PROPERTY
@given(two_matrices())
def test_sum_and_intersection_match_sympy(case):
    n, a, b = case
    ra, rb, rs = _oracle_rank(a, n), _oracle_rank(b, n), _oracle_rank(a + b, n)
    sa, sb = _span(a, n), _span(b, n)
    total = _vectors(sa + sb)
    meet = _vectors(sa & sb)
    assert len(total) == rs
    assert len(meet) == ra + rb - rs
    assert total == _oracle_rref(a + b, n)
    assert meet == _oracle_intersection(a, b, n)
    assert _span(meet, n) <= sa and _span(meet, n) <= sb
    assert Subspace.is_direct_sum([sa, sb]) == (ra + rb == rs)
    assert sb + sa == _span(a + b, n)


@PROPERTY
@given(two_matrices())
def test_containment_matches_rank_criterion(case):
    n, rows, basis = case
    base_rank = _oracle_rank(basis, n)
    inside = [_oracle_rank(basis + [r], n) == base_rank for r in rows]
    assert [_span([r], n) <= _span(basis, n) for r in rows] == inside
    assert (_span(rows, n) <= _span(basis, n)) == all(inside)
    assert (_span(rows, n) <= _span(basis, n)) == (_oracle_rank(basis + rows, n) == base_rank)


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
    space = _span(rows, n)
    _assert_canonical(space)
    assert _span(other, n) == space
    assert _span(other, n).sparse == space.sparse and hash(_span(other, n)) == hash(space)
    assert _vectors(space) == _oracle_rref(rows, n)
    assert space.dim == _oracle_rank(rows, n)


@PROPERTY
@given(two_matrices())
def test_subspace_operations_match_sympy(case):
    n, a, b = case
    sa, sb = _span(a, n), _span(b, n)
    for value in (sa + sb, sa & sb):
        _assert_canonical(value)
    assert _vectors(sa + sb) == _oracle_rref(a + b, n)
    assert _vectors(sa & sb) == _oracle_intersection(a, b, n)
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
    a, b = _span(rows, n), _span(other, n)
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
    space = rref([{0: GaussianRational(1), 1: GaussianRational(0, 2)}], 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        space.sparse = ()
    with pytest.raises(TypeError):
        space.sparse[0][1][0] = (0, 5, 0)
    vectors = space.sparse_vectors()
    vectors[0][0] = (0, _ZERO)
    assert space.sparse_vectors()[0][0] == (0, GaussianRational(1))


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
        assert _vectors(space) == oracle


def test_sparse_kernel_of_no_rows_is_everything():
    identity = [[GaussianRational(int(i == j)) for j in range(3)] for i in range(3)]
    assert sparse_kernel([], 3) == _span(identity, 3)
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
    for space in (_span(dense, n), rref(rows, n)):
        _assert_view(space, n)
        assert _vectors(space) == _oracle_rref(dense, n)
    null = sparse_kernel(rows, n)
    _assert_view(null, n)
    assert _vectors(null) == _oracle_kernel(dense, n)
    assert null.dim == n - _oracle_rank(dense, n)
    for x in _vectors(null):
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
    sa, sb = rref(a, n), rref(b, n)
    for value in (sa + sb, sa & sb, sb & sa):
        _assert_view(value, n)
    assert _vectors(sa + sb) == _oracle_rref(da + db, n)
    assert _vectors(sa & sb) == _vectors(sb & sa) == _oracle_intersection(da, db, n)
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
    space = rref(rows, 4)
    for empty in (Subspace(), rref([], 0), rref([], 4), sparse_kernel([], 0)):
        assert empty == Subspace() and hash(empty) == hash(Subspace())
        assert empty.sparse == () and empty.sparse_vectors() == []
        assert space + empty == empty + space == space
        assert empty.first_outside(space) is None
    assert rref([{1: _ZERO}], 4) == Subspace()


@PROPERTY
@given(bridged_sparse_matrices(), st.data())
def test_rank_and_annihilation_decide_the_kernel(case, data):
    """is_kernel(K, R) holds exactly when K is ker A, for R the reduction of
    A and K the kernel itself or candidates next to it: the kernel with one
    basis row dropped, with one entry of a basis row changed, and with one
    more vector.  R and ker A both come from sympy: R is sympy's RREF of A
    scaled to the canonical form here, not built by `rref`."""
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
    reduced = _canonical(_oracle_rref(dense, n), n)
    for candidate in candidates:
        space = rref(candidate, n)
        assert is_kernel(space, reduced) == (_vectors(space) == null)


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
    space = rref(rows, n)
    assert all(len(touched) == 1 for touched in reductions)
    assert 0 < len(reductions) <= 2 * blocks
    assert space.dim == n
    assert _vectors(space) == _oracle_rref(_dense(rows, n), n)



@pytest.mark.parametrize("seed", range(3))
def test_pivot_rows_build_up_no_gaussian_factor(monkeypatch, seed):
    """Seeded random 8x10 Gaussian-integer rows, re, im in [-9, 9]: each
    pivot row is made real at its pivot, so no common Gaussian-integer
    factor (a power of 2 + i, say) builds up in the rows.  Dividing out only
    the integer content lets such a matrix reach integers of about 10^5
    bits; here no reduction passes 256, and the value is sympy's RREF."""
    rng = random.Random(seed)
    rows = [
        {j: GaussianRational(rng.randint(-9, 9), rng.randint(-9, 9)) for j in range(10)}
        for _ in range(8)
    ]
    fail_on_swell(monkeypatch, 256)
    space = rref(rows, 10)
    _assert_view(space, 10)
    assert _vectors(space) == _oracle_rref(_dense(rows, 10), 10)


def test_a_common_gaussian_factor_leaves_the_value_alone(monkeypatch):
    """16x18 random rows, with and without the factor (2 + i)^10 on every
    row: no reduction passes 256 bits, and the two values are equal."""
    rng = random.Random(16)
    rows = [
        {j: GaussianRational(rng.randint(-9, 9), rng.randint(-9, 9)) for j in range(18)}
        for _ in range(16)
    ]
    factor = math.prod([GaussianRational(2, 1)] * 10, start=GaussianRational(1))
    fail_on_swell(monkeypatch, 256)
    plain = rref(rows, 18)
    scaled = rref([{j: factor * x for j, x in row.items()} for row in rows], 18)
    assert scaled == plain and scaled.dim == 16


def test_one_elimination_entry():
    """`rref` is the one entry that reduces rows: over src/harmonica, no
    `span`, `sparse_span`, `block_rows`, `_to_int` or `vectors` is defined
    (by def or class, or by an assignment in a module or class body, so no
    alias either), `Subspace._of` is called only from
    `rref`, `Subspace.__add__` and `Subspace.__and__`, and `_sparse_to_int`
    only from `rref`."""
    gone = {"span", "sparse_span", "block_rows", "_to_int", "vectors"}
    allowed = {
        "_of": {"linalg.rref", "linalg.Subspace.__add__", "linalg.Subspace.__and__"},
        "_sparse_to_int": {"linalg.rref"},
    }
    defined, callers = [], {name: set() for name in allowed}

    def scan(node, where, local):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if child.name in gone:
                    defined.append(f"{where}.{child.name}")
                scan(child, f"{where}.{child.name}", not isinstance(child, ast.ClassDef))
                continue
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store) and not local:
                if child.id in gone:
                    defined.append(f"{where}: {child.id} =")
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in callers:
                    callers[name].add(where)
            scan(child, where, local)

    for path in sorted(Path(harmonica.__file__).parent.rglob("*.py")):
        scan(ast.parse(path.read_text(encoding="utf-8")), path.stem, False)
    assert defined == []
    assert callers == allowed
