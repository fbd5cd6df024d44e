"""An independent oracle for the invariant Bott-Chern spaces of iwasawa_ak.

Everything below is rebuilt from the shipped ``iwasawa_ak.json`` text with
sympy alone: its own wedge product on the 2n coframe generators, d extended
to barred generators by conjugation and to monomials by the Leibniz rule,
del and delbar as the (p+1,q) and (p,q+1) parts of d, and the Bott-Chern
harmonic space in its orthogonality form

    H^{p,q}_BC = ker del  ∩  ker delbar  ∩  (del delbar Λ^{p-1,q-1})^⊥,

with no Hodge star and no ``harmonica.linalg``.  Primitivity in degree
k <= n is ker L^{n-k+1}.  Only the comparisons read the engine.

The oracle settles the (2,1) Bott-Chern split on this structure: it is an
equality at (2,1) (dims 2 = 1 + 1) and strict at the conjugate bidegree
(1,2) (dims 3 > 1 + 1).  Off the integrable case del delbar != -delbar del,
so the Bott-Chern spaces are not conjugation-symmetric.
"""

import itertools
import json
from importlib import resources

import pytest

sp = pytest.importorskip("sympy")

from harmonica.forms import MultiIndex
from harmonica.harmonic import LAPLACIAN_WORDS, HarmonicKind, harmonic_space
from harmonica.hermitian import operator_columns
from harmonica.library import catalog

# ---------------------------------------------------------------- the algebra
# Generator a in 1..n is phi^a and n + a is phi^abar.  A monomial is a sorted
# tuple of generators, so holomorphic factors come first and each block is
# increasing: the same normal form as the engine's phi[I;J].  A form is a dict
# monomial -> sympy number with no zero values.


def _clean(terms):
    out = {}
    for mono, c in terms.items():
        c = sp.expand(c)
        if c != 0:
            out[mono] = c
    return out


def _add(*forms):
    out = {}
    for f in forms:
        for mono, c in f.items():
            out[mono] = out.get(mono, 0) + c
    return _clean(out)


def _scale(form, c):
    return _clean({mono: c * v for mono, v in form.items()})


def _sort_sign(seq):
    """The sorted tuple and the sign of the sorting permutation, or None."""
    if len(set(seq)) < len(seq):
        return None, 0
    pairs = itertools.combinations(range(len(seq)), 2)
    inversions = sum(1 for i, j in pairs if seq[i] > seq[j])
    return tuple(sorted(seq)), (-1) ** inversions


def wedge(f, g):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            mono, sign = _sort_sign(m1 + m2)
            if mono is not None:
                out[mono] = out.get(mono, 0) + sign * c1 * c2
    return _clean(out)


def _product(generators):
    out = {(): sp.Integer(1)}
    for a in generators:
        out = wedge(out, {(a,): sp.Integer(1)})
    return out


class Oracle:
    """The invariant complex of one spec document, in sympy."""

    def __init__(self, text):
        doc = json.loads(text)
        n = self.n = doc["n"]
        self.c = [sp.Rational(x) for x in doc["omega"]]
        d_gen = {}
        for a, name in enumerate(doc["generators"], start=1):
            terms = [
                _scale(
                    _product(list(t["hol"]) + [n + b for b in t["anti"]]),
                    sp.Rational(t["coeff"]["re"]) + sp.I * sp.Rational(t["coeff"]["im"]),
                )
                for t in doc["d"][name]
            ]
            d_gen[a] = _add(*terms)
            d_gen[n + a] = self.conjugate(d_gen[a])
        self.d_gen = d_gen

    def bar(self, a):
        return a + self.n if a <= self.n else a - self.n

    def conjugate(self, form):
        return _add(
            *(
                _scale(_product([self.bar(a) for a in mono]), sp.conjugate(c))
                for mono, c in form.items()
            )
        )

    def bidegree(self, mono):
        p = sum(1 for a in mono if a <= self.n)
        return p, len(mono) - p

    def multi_index(self, mono):
        """The engine's name for a monomial, phi[I;J] as MultiIndex(I, J)."""
        n = self.n
        return MultiIndex(tuple(a for a in mono if a <= n), tuple(a - n for a in mono if a > n))

    def monomials(self, p, q):
        """(p,q) monomials, lexicographic in hol then anti, like the engine."""
        n = self.n
        return [
            hol + tuple(n + b for b in anti)
            for hol in itertools.combinations(range(1, n + 1), p)
            for anti in itertools.combinations(range(1, n + 1), q)
        ]

    def degree(self, k):
        n = self.n
        return [m for p in range(k + 1) if p <= n and k - p <= n for m in self.monomials(p, k - p)]

    def d(self, form):
        """Leibniz rule: d(e1 ^ ... ^ ek) = sum_j (-1)^j e1..d(ej)..ek."""
        pieces = []
        for mono, c in form.items():
            for j, a in enumerate(mono):
                piece = wedge(wedge(_product(mono[:j]), self.d_gen[a]), _product(mono[j + 1 :]))
                pieces.append(_scale(piece, (-1) ** j * c))
        return _add(*pieces)

    def part(self, form, p, q):
        return {m: c for m, c in form.items() if self.bidegree(m) == (p, q)}

    def del_(self, form, p, q):
        return self.part(self.d(form), p + 1, q)

    def delbar(self, form, p, q):
        return self.part(self.d(form), p, q + 1)

    def omega(self):
        n = self.n
        return _add(*({(a, n + a): sp.I * self.c[a - 1]} for a in range(1, n + 1)))

    def L(self, form):
        return wedge(self.omega(), form)

    def weight(self, mono):
        """|phi^{I,J}|^2 = prod 1/c_a over I and J; distinct monomials are orthogonal."""
        w = sp.Integer(1)
        for a in mono:
            w /= self.c[(a - 1) % self.n]
        return w

    # ------------------------------------------------------------ linear maps
    def matrix(self, op, source, target):
        """Matrix of op on the source monomials; columns are images."""
        images = [op({m: sp.Integer(1)}) for m in source]
        assert all(set(img) <= set(target) for img in images)
        return sp.Matrix(len(target), len(source), lambda i, j: images[j].get(target[i], 0))

    def bc_space(self, p, q):
        """Echelon basis (rows over monomials(p, q)) of H^{p,q}_BC."""
        n = self.n
        source = self.monomials(p, q)
        blocks = []
        if p < n:
            de = lambda f: self.del_(f, p, q)
            blocks.append(self.matrix(de, source, self.monomials(p + 1, q)))
        if q < n:
            db = lambda f: self.delbar(f, p, q)
            blocks.append(self.matrix(db, source, self.monomials(p, q + 1)))
        if p > 0 and q > 0:
            image = self.matrix(
                lambda f: self.del_(self.delbar(f, p - 1, q - 1), p - 1, q),
                self.monomials(p - 1, q - 1),
                source,
            )
            # <x, s> = sum_m w_m x_m conj(s_m) = 0 for every column s of image
            weights = sp.diag(*[self.weight(m) for m in source])
            blocks.append(image.H * weights)
        return _echelon(sp.Matrix.vstack(*blocks).nullspace(), len(source))


def _echelon(vectors, ncols):
    if not vectors:
        return sp.zeros(0, ncols)
    reduced, pivots = sp.Matrix.hstack(*vectors).T.rref()
    return reduced[: len(pivots), :]


def _rank(rows):
    return rows.rank() if rows.rows else 0


@pytest.fixture(scope="module")
def oracle():
    text = resources.files("harmonica.data").joinpath("iwasawa_ak.json").read_text("utf-8")
    return Oracle(text)


def _split(oracle, p, q):
    """Dims of H^{p,q}_BC, its primitive part, L(H^{p-1,q-1}_BC) and their sum."""
    source = oracle.monomials(p, q)
    harmonic = oracle.bc_space(p, q)
    power = oracle.n - (p + q) + 1

    def L_power(f):
        for _ in range(power):
            f = oracle.L(f)
        return f

    L_matrix = oracle.matrix(L_power, source, oracle.monomials(p + power, q + power))
    primitive = _echelon(
        [harmonic.T * v for v in (L_matrix * harmonic.T).nullspace()], len(source)
    )
    lower = oracle.bc_space(p - 1, q - 1)
    lifted = (oracle.matrix(oracle.L, oracle.monomials(p - 1, q - 1), source) * lower.T).T
    # L(H^{p-1,q-1}_BC) lies inside H^{p,q}_BC
    assert _rank(sp.Matrix.vstack(harmonic, lifted)) == _rank(harmonic)
    total = _rank(sp.Matrix.vstack(primitive, lifted))
    return _rank(harmonic), _rank(primitive), _rank(lifted), total


# ---------------------------------------------------------------------- tests


def test_structure_is_a_closed_almost_kahler_complex(oracle):
    for k in range(2 * oracle.n + 1):
        for m in oracle.degree(k):
            assert oracle.d(oracle.d({m: sp.Integer(1)})) == {}
    assert oracle.d(oracle.omega()) == {}


def test_betti_numbers_are_the_iwasawa_ones(oracle):
    n = oracle.n
    ranks = [
        _rank(oracle.matrix(oracle.d, oracle.degree(k), oracle.degree(k + 1)))
        for k in range(2 * n)
    ] + [0]
    betti = [
        len(oracle.degree(k)) - ranks[k] - (ranks[k - 1] if k else 0)
        for k in range(2 * n + 1)
    ]
    assert betti == [1, 4, 8, 10, 8, 4, 1]


def test_every_bott_chern_space_matches_the_engine(oracle):
    iw = catalog("iwasawa_ak")
    for p in range(oracle.n + 1):
        for q in range(oracle.n + 1):
            monomials = oracle.monomials(p, q)
            engine = harmonic_space(HarmonicKind.BC, p, q, iw).basis
            values = [
                [f.coefficient(oracle.multi_index(m)).constant_value() for m in monomials]
                for f in engine
            ]
            rows = sp.Matrix(
                len(engine),
                len(monomials),
                lambda i, j: sp.Rational(values[i][j].re) + sp.I * sp.Rational(values[i][j].im),
            )
            mine = oracle.bc_space(p, q)
            assert mine.shape == rows.shape, (p, q)
            assert (mine - rows).is_zero_matrix, (p, q)


def test_split_is_equal_at_21_and_strict_at_12(oracle):
    # (dim H, dim primitive part, dim L-part, dim of their sum)
    assert _split(oracle, 2, 1) == (2, 1, 1, 2)
    assert _split(oracle, 1, 2) == (3, 1, 1, 2)


# ------------------------------------------- Laplacians, Aeppli and Dolbeault
# The same oracle, from del and delbar matrices alone.  iwasawa_ak is
# nilpotent, hence unimodular, so on invariant forms the formal adjoint of an
# operator M from the (s) to the (t) monomials is its adjoint for the
# pointwise inner product, W_s^-1 M^H W_t with the diagonal weights W.


def _block(oracle, p, q):
    """The (p,q) monomials, none outside 0 <= p, q <= n."""
    return oracle.monomials(p, q) if 0 <= p <= oracle.n and 0 <= q <= oracle.n else []


def _weights(oracle, p, q):
    return sp.diag(*[oracle.weight(m) for m in _block(oracle, p, q)])


def _component(oracle, name, p, q):
    """The matrix of del or delbar on the (p,q) monomials, and its target bidegree."""
    dp, dq = (1, 0) if name == "del" else (0, 1)
    op = oracle.del_ if name == "del" else oracle.delbar
    source, target = _block(oracle, p, q), _block(oracle, p + dp, q + dq)
    return oracle.matrix(lambda f: op(f, p, q), source, target), (p + dp, q + dq)


def _operator(oracle, name, p, q):
    """The matrix of del, delbar or an adjoint on the (p,q) monomials, and its target."""
    if not name.endswith("*"):
        return _component(oracle, name, p, q)
    dp, dq = (1, 0) if name == "del*" else (0, 1)
    forward, _ = _component(oracle, name[:-1], p - dp, q - dq)
    adjoint = _weights(oracle, p - dp, q - dq).inv() * forward.H * _weights(oracle, p, q)
    return adjoint, (p - dp, q - dq)


def _laplacian(oracle, kind, p, q):
    """The sum over the Laplacian's words of the products of their matrices."""
    total = sp.zeros(len(_block(oracle, p, q)))
    for word in LAPLACIAN_WORDS[kind]:
        product, at = sp.eye(len(_block(oracle, p, q))), (p, q)
        for name in reversed(word):
            matrix, at = _operator(oracle, name, *at)
            product = matrix * product
        assert at == (p, q)
        total += product
    return total


def _orthogonal_complement_rows(oracle, image, p, q):
    """Rows cutting out the (p,q)-forms orthogonal to the columns of image."""
    return image.H * _weights(oracle, p, q)


def _sympy_value(x):
    """A Q(i) value of the engine, or None for 0, as a sympy number."""
    return 0 if x is None else sp.Rational(x.re) + sp.I * sp.Rational(x.im)


def _engine_rows(oracle, kind, p, q):
    """The engine's echelon basis of a harmonic space, as sympy rows."""
    monomials = [oracle.multi_index(m) for m in oracle.monomials(p, q)]
    basis = harmonic_space(kind, p, q, catalog("iwasawa_ak")).basis
    return sp.Matrix(
        len(basis),
        len(monomials),
        lambda i, j: _sympy_value(basis[i].coefficient(monomials[j]).constant_value()),
    )


@pytest.mark.parametrize("kind", ["a", "bc", "del", "delbar"])
def test_laplacian_blocks_match_the_oracle(oracle, kind):
    iw = catalog("iwasawa_ak")
    for p in range(oracle.n + 1):
        for q in range(oracle.n + 1):
            monomials = oracle.monomials(p, q)
            columns = operator_columns(LAPLACIAN_WORDS[kind], p, q, iw)
            engine = sp.Matrix(
                len(monomials),
                len(monomials),
                lambda i, j: _sympy_value(columns[j].get(oracle.multi_index(monomials[i]))),
            )
            assert (_laplacian(oracle, kind, p, q) - engine).is_zero_matrix, (kind, p, q)


def test_aeppli_and_dolbeault_spaces_match_the_oracle(oracle):
    """H_A = ker del delbar ∩ (im del)^⊥ ∩ (im delbar)^⊥ and
    H_delbar = ker delbar ∩ (im delbar)^⊥, as spaces."""
    for p in range(oracle.n + 1):
        for q in range(oracle.n + 1):
            delbar, _ = _component(oracle, "delbar", p, q)
            del_delbar = _component(oracle, "del", p, q + 1)[0] * delbar
            im_del = _component(oracle, "del", p - 1, q)[0]
            im_delbar = _component(oracle, "delbar", p, q - 1)[0]
            aeppli = [
                del_delbar,
                _orthogonal_complement_rows(oracle, im_del, p, q),
                _orthogonal_complement_rows(oracle, im_delbar, p, q),
            ]
            dolbeault = [delbar, _orthogonal_complement_rows(oracle, im_delbar, p, q)]
            for kind, blocks in ((HarmonicKind.A, aeppli), (HarmonicKind.DELBAR, dolbeault)):
                mine = _echelon(sp.Matrix.vstack(*blocks).nullspace(), len(oracle.monomials(p, q)))
                engine = _engine_rows(oracle, kind, p, q)
                assert mine.shape == engine.shape, (kind, p, q)
                assert (mine - engine).is_zero_matrix, (kind, p, q)
