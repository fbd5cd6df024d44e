"""Metric layer: star, J, Lefschetz operators, primitivity, adjoints, operator blocks.

The metric is diagonal in the coframe: omega = i sum_a c_a phi^{a,abar} with
<phi^a, phi^a> = 1/c_a, vol = omega^n / n!.  The star operator is the
C-linear extension of the real Hodge star, characterized by
alpha wedge *(conj beta) = <alpha, beta> vol; on a diagonal metric it maps
monomials to complementary monomials.  The star and L images of a unit
monomial are closed forms of that relation and of omega wedge, computed by
sign arithmetic on the index tuples when an operator column or a Form first
asks for them, and cached on the spec.  Words compose them with d and its
parts, which structure owns (d_by_shift and the term-map pass _d_terms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    DegreeTooHigh, DepthExceeded, NotHomogeneous, NotPrimitive, SymbolicCoefficients,
)
from .forms import (
    Form, MultiIndex, _add_term, _check_ambient, _combine, _form, _format_multiindex, _nonzero,
    _wedge_monomials, basis_multiindices,
)
from .linalg import Subspace, rref, sparse_kernel, sparse_rows
from .scalars import Coefficient, GaussianRational
from .structure import ManifoldSpec, OperatorKind, _d_terms, d_by_shift, fundamental_form

__all__ = [
    "fundamental_form",
    "volume_form",
    "hodge_star",
    "adjoint",
    "apply_word",
    "j_on_forms",
    "lefschetz_L",
    "lefschetz_lambda",
    "is_primitive",
    "weil_star_primitive",
    "PrimitiveComponents",
    "primitive_decompose",
    "primitive_basis",
    "primitive_subspace",
    "lefschetz_image",
    "subspace_forms",
    "form_subspace",
    "operator_columns",
    "word_kernel",
]

_ONE = GaussianRational(1)
# The operator names of a word (see apply_word) other than "*", "L" and
# "Lambda": each part of d maps to (its kind, False), and each adjoint
# -* k' * to (k', True), with k' the conjugate-paired kind.
_D_OPERATORS = {kind.value: (kind, False) for kind in OperatorKind}
_D_OPERATORS.update((kind.value + "*", (kind.conjugate, True)) for kind in OperatorKind)
_OPERATORS = frozenset(["*", "L", "Lambda", *_D_OPERATORS])


def volume_form(spec: ManifoldSpec) -> Form:
    """vol = omega^n / n!, a multiple of the top monomial."""
    full = tuple(range(1, spec.n + 1))
    return Form.monomial(spec.n, full, full, _volume_top(spec))


def _inner_square(idx: MultiIndex, spec: ManifoldSpec) -> GaussianRational:
    """The product of 1/c_a over the indices of the monomial, from its first
    factor on."""
    inverse, _ = _metric_weights(spec)
    indices = idx.hol + idx.anti
    if not indices:
        return _ONE
    w = inverse[indices[0] - 1]
    for a in indices[1:]:
        w = w * inverse[a - 1]
    return w


def _metric_weights(spec: ManifoldSpec) -> tuple:
    """The Q(i) weights (1/c_a, ...) and (i c_a, ...) of the metric, per
    generator a, built once per spec."""
    return spec.cached(
        ("metric-weights",),
        lambda: (
            tuple(_ONE / GaussianRational(c) for c in spec.omega_coeffs),
            tuple(GaussianRational(0, c) for c in spec.omega_coeffs),
        ),
    )


def hodge_star(form: Form, spec: ManifoldSpec) -> Form:
    """C-linear Hodge star; maps (p,q) to (n-q,n-p)."""
    return apply_word(("*",), form, spec)


def j_on_forms(form: Form) -> Form:
    """The almost complex structure on forms: i^(p-q) on the (p,q) part."""
    out = Form.zero(form.n)
    for (p, q), part in form.homogeneous_parts().items():
        out = out + part * GaussianRational.i_power(p - q)
    return out


def lefschetz_L(form: Form, spec: ManifoldSpec) -> Form:
    return apply_word(("L",), form, spec)


def lefschetz_lambda(form: Form, spec: ManifoldSpec) -> Form:
    """The dual Lefschetz operator, the formal adjoint of L, normalized so
    that Lambda omega = n with the usual sl(2) commutators."""
    return apply_word(("Lambda",), form, spec)


def adjoint(kind: OperatorKind, form: Form, spec: ManifoldSpec) -> Form:
    """Formal adjoint: -* k' *, where k' is the conjugate-paired operator
    (d* = -*d*, del* = -*delbar*, mu* = -*mubar*, and symmetrically)."""
    return apply_word((kind.value + "*",), form, spec)


def apply_word(word, form: Form, spec: ManifoldSpec) -> Form:
    """An operator word applied to a Form, rightmost operator first.

    The names are "d", "mu", "del", "delbar", "mubar", each with an adjoint
    named by a trailing "*" (as in "del*"), the star "*", "L" and "Lambda",
    so ("del", "delbar", "*") is del delbar *; a list serves as its tuple.
    Exact for symbolic coefficients: the result is the sum, over the unit
    terms x s phi^m of the Form (x in Q(i), s a symbol monomial), of x times
    the word's image of s phi^m, cached on the spec per (word, m, s), so
    words and Forms that share a unit term share its image.  When an image
    cannot be built (DepthExceeded), the word maps the Form's whole term map
    operator by operator instead, which raises the error for the first
    underivable term met, or gives the result when such terms cancel before
    their derivative is taken.  The Coefficients and the Form of the result
    are built once, at the end."""
    return _apply_words(_check_words((word,)), form, spec)


def _apply_words(words, form: Form, spec: ManifoldSpec) -> Form:
    """The sum of the words (checked tuples) applied to a Form, as in
    apply_word; the fallback maps the Form through each word in turn, so the
    first word that fails names the error."""
    if any(words):
        _check_ambient(spec.n, form.n)
    terms: dict = {}
    try:
        for word in words:
            _image_sum(word, form.terms, spec, terms)
    except DepthExceeded:
        terms = {}
        for word in words:  # the empty word adds a term map as it is
            _image_sum((), _word_pass(word, form.terms, spec), spec, terms)
    return _form(form.n, terms)


def _check_words(words) -> tuple:
    """The words as tuples, once none names an operator apply_word lacks."""
    checked = ()
    for word in words:
        word = tuple(word)
        for op in word:
            if op not in _OPERATORS:
                raise ValueError(f"unknown operator {op!r} in word {word!r}")
        checked += (word,)
    return checked


def is_primitive(form: Form, spec: ManifoldSpec) -> bool:
    """Primitive means Lambda a = 0; only defined for degree <= n."""
    k = form.require_homogeneous_degree()
    if k > spec.n:
        raise DegreeTooHigh(f"primitivity needs degree {k} <= n = {spec.n}")
    return lefschetz_lambda(form, spec).is_zero()


def weil_star_primitive(beta: Form, r: int, spec: ManifoldSpec) -> Form:
    """Star of L^r beta for primitive beta, via the closed formula
    *L^r beta = (-1)^(k(k+1)/2) * r!/(n-k-r)! * L^(n-k-r) J beta."""
    k = beta.require_homogeneous_degree()
    if k > spec.n:
        raise DegreeTooHigh(f"primitive forms have degree <= n = {spec.n}")
    if not beta.is_zero() and not lefschetz_lambda(beta, spec).is_zero():
        raise NotPrimitive("weil_star_primitive needs Lambda beta = 0")
    if r < 0 or r + k > spec.n:
        raise ValueError(f"need 0 <= r <= n-k, got r={r}, k={k}, n={spec.n}")
    sign = (-1) ** (k * (k + 1) // 2)
    out = apply_word(("L",) * (spec.n - k - r), j_on_forms(beta), spec)
    return out * (GaussianRational(sign * math.factorial(r)) / math.factorial(spec.n - k - r))


@dataclass
class PrimitiveComponents:
    """The expansion a = sum_r (1/r!) L^r beta_{k-2r} with each beta primitive."""

    k: int
    parts: list  # (r, beta) with beta primitive of degree k - 2r

    def reassemble(self, spec: ManifoldSpec) -> Form:
        """sum_r (1/r!) L^r beta, as one term map over the cached L^r images."""
        out: dict = {}
        for r, beta in self.parts:
            _check_ambient(spec.n, beta.n)
            _image_sum(("L",) * r, beta.terms, spec, out, _inverse(math.factorial(r)))
        return _form(spec.n, out)


def primitive_decompose(form: Form, spec: ManifoldSpec) -> PrimitiveComponents:
    """Unique primitive decomposition of a homogeneous form, by the
    Lambda ladder: the deepest component is solved from Lambda^r, subtracted,
    and the process repeats with decreasing r.  The ladder runs on term
    maps, over the cached term images (_term_image) of Lambda^r and L^r that
    apply_word and is_primitive read too; each part's Form is built once.

    Uses Lambda L^j = L^j Lambda + j(n - s - j + 1) L^(j-1) on degree-s forms,
    whose scalar factors never vanish in the relevant range.
    """
    n = spec.n
    k = form.require_homogeneous_degree()
    if form.is_zero():
        return PrimitiveComponents(k, [])
    _check_ambient(spec.n, form.n)
    remaining = form.terms
    parts = []
    for r in range(k // 2, max(k - n, 0) - 1, -1):
        if r == 0:
            beta, remaining = remaining, {}
        else:
            denom = math.prod(n - (k - 2 * r) - j + 1 for j in range(1, r + 1))
            beta = _nonzero(_image_sum(("Lambda",) * r, remaining, spec, {}, _inverse(denom)))
            if beta:  # remaining - L^r beta / r!, into a copy of remaining
                minus = _inverse(-math.factorial(r))
                remaining = _nonzero(_image_sum(("L",) * r, beta, spec, _nonzero(remaining), minus))
        if beta:
            parts.append((r, _form(form.n, beta)))
    if remaining:
        raise AssertionError("primitive decomposition did not close")
    return PrimitiveComponents(k, parts[::-1])


def primitive_basis(spec: ManifoldSpec, p: int, q: int) -> list[Form]:
    """Echelon basis of the primitive (p,q) monomial combinations P^{p,q}.
    Each call returns new Form objects, so a caller may change them without
    affecting later calls."""
    return subspace_forms(primitive_subspace(spec, p, q), p, q, spec)


def primitive_subspace(spec: ManifoldSpec, p: int, q: int) -> Subspace:
    """P^{p,q} = ker Lambda over the (p,q) monomials, computed once per spec."""
    return spec.cached(("primitive", p, q), _primitive_kernel, spec, p, q)


def _primitive_kernel(spec: ManifoldSpec, p: int, q: int) -> Subspace:
    if p + q > spec.n:
        raise DegreeTooHigh(f"primitive forms need p+q <= n = {spec.n}")
    return word_kernel([("Lambda",)], p, q, spec)


def lefschetz_image(space: Subspace, p: int, q: int, r: int, spec: ManifoldSpec) -> Subspace:
    """L^r of a space of (p,q)-forms, as a space of (p+r,q+r)-forms."""
    columns = operator_columns([("L",) * r], p, q, spec)
    images = [_combine((x, columns[j]) for j, x in row) for row in space.sparse_vectors()]
    return _coordinate_span(images, p + r, q + r, spec)


# Operator matrices and coordinates.  _word_image is the one memoised image
# of a unit monomial under an operator word, cached on the spec per (word,
# monomial).  A single operator's image comes from _image: star and L in
# closed form from the metric weights built once per spec, Lambda and the
# adjoints term by term off the L or paired-d image of the star image, d
# and its parts read from the cached split d_by_shift.  _column is the one
# accumulator of word images: it adds, over the terms c m' of a word's
# rightmost operator's image, c times the image of word[:-1] at m', so words
# that share a prefix share its images.  A longer word's image is _column of
# that word alone, and operator_columns builds each column of a sum of words
# with it.  word_kernel is the one kernel of a stack of word blocks, for the
# condition systems and for Lambda.  _term_image is the symbolic
# counterpart of _word_image: the image of a unit term s phi^m under a word,
# cached on the spec per (word, m, s).  _word_pass builds it from the
# one-term map {m: {s: 1}} operator by operator with the same single-operator
# images: _metric_terms for star, L and Lambda, and structure's d pass
# _d_terms for d and its parts.  _image_sum adds x times those images over
# the unit terms x s phi^m of a term map; apply_word, laplacian_apply and the
# Lefschetz ladder are sums of it, and only a DepthExceeded sends apply_word
# to _word_pass over the whole Form.  Each entry point that takes words checks
# their names first (_check_words).  subspace_forms and form_subspace are the
# one Subspace <-> Form pair; form_subspace and lefschetz_image reach (p,q)
# coordinates through _coordinate_span.  Every matrix is sparse rows, and
# linalg.rref is its one reduction: _coordinate_span and word_kernel (through
# sparse_kernel) here, and the Laplacian cross-check in harmonic.


def subspace_forms(space: Subspace, p: int, q: int, spec: ManifoldSpec) -> list[Form]:
    """New Forms for the basis of a space of (p,q)-forms, from its sparse rows."""
    monomials = basis_multiindices(spec.n, p, q)
    return [
        Form(spec.n, {monomials[j]: Coefficient({(): x}) for j, x in row})
        for row in space.sparse_vectors()
    ]


def form_subspace(forms, p: int, q: int, spec: ManifoldSpec) -> Subspace:
    """The span of constant-coefficient (p,q)-forms over the spec's algebra."""
    vectors = []
    for form in forms:
        _check_ambient(spec.n, form.n)
        vector = {m: c.constant_value() for m, c in form.terms.items()}
        if any(x is None for x in vector.values()):
            raise SymbolicCoefficients("expected constant coefficients")
        vectors.append(vector)
    return _coordinate_span(vectors, p, q, spec)


def _coordinate_span(vectors, p: int, q: int, spec: ManifoldSpec) -> Subspace:
    """The span of {monomial: Q(i) value} vectors in (p,q) coordinates,
    refusing a monomial outside the (p,q) basis."""
    monomials = basis_multiindices(spec.n, p, q)
    index = {m: k for k, m in enumerate(monomials)}
    rows = []
    for vector in vectors:
        row = {}
        for m, x in vector.items():
            if m not in index:
                raise NotHomogeneous(f"{_format_multiindex(m)} is not a ({p},{q}) monomial")
            row[index[m]] = x
        rows.append(row)
    return rref(rows, len(monomials))


def operator_columns(words, p: int, q: int, spec: ManifoldSpec) -> list[dict]:
    """Images of the unit (p,q) monomials, in basis order, under the sum of
    the operator words (as in apply_word), as sparse columns {output
    monomial: nonzero Q(i) value}.  Each column is a new dict built from the
    cached image of its monomial under each word, so a caller may change it."""
    words = _check_words(words)
    return [_column(words, m, spec) for m in basis_multiindices(spec.n, p, q)]


def _column(words, idx: MultiIndex, spec: ManifoldSpec) -> dict:
    """The image of one unit monomial under the sum of the words, accumulated
    in one new dict: a single operator's cached image is added as it is, and
    a longer word adds c times the cached image of word[:-1] over the terms
    c m' of its rightmost operator's image.  A block's whole words are not
    cached: the kernels built from a block are cached, so their images would
    be kept for nothing but memory; only _compose caches, for a prefix."""
    out: dict = {}
    for word in words:
        first = _word_image(word[-1:], idx, spec)
        if len(word) < 2:
            for m, x in first.items():
                out[m] = out[m] + x if m in out else x
            continue
        head = word[:-1]
        for m1, c in first.items():
            for m, x in _word_image(head, m1, spec).items():
                out[m] = out[m] + c * x if m in out else c * x
    return {m: x for m, x in out.items() if not x.is_zero()}


def word_kernel(words, p: int, q: int, spec: ManifoldSpec) -> Subspace:
    """The (p,q)-forms every word annihilates: the kernel of the stacked
    blocks of the words, eliminated from their sparse rows; with no word,
    the whole (p,q) space."""
    words, monomials = _check_words(words), basis_multiindices(spec.n, p, q)
    blocks = ([_column((word,), m, spec) for m in monomials] for word in words)
    rows = [row for columns in blocks for row in sparse_rows(columns)]
    return sparse_kernel(rows, len(monomials))


def _word_image(word: tuple, idx: MultiIndex, spec: ManifoldSpec) -> dict:
    """The image of one unit monomial under an operator word, rightmost
    operator first, as a sparse column; cached on the spec and shared, so
    read-only."""
    return spec.cached(("image", word, idx), _compose, word, idx, spec)


def _compose(word: tuple, idx: MultiIndex, spec: ManifoldSpec) -> dict:
    """The image of one unit monomial under the word: the empty word's, one
    operator's from _image, and a longer word's as the column of that word."""
    if not word:
        return {idx: _ONE}
    if len(word) == 1:
        return _image(word[0], idx, spec)
    return _column((word,), idx, spec)


def _image_sum(word: tuple, terms, spec: ManifoldSpec, out: dict, scale=None) -> dict:
    """Add to the term map `out`, and return it, scale (1 when None) times
    the word's image of a term map {monomial: {symbol monomial: Q(i)}}: over
    its unit terms x s m, x times the image of s m from _term_image.  The
    values of `terms` are read through .items(), so a Form's Coefficients
    serve as they are."""
    for idx, coeff in terms.items():
        for s, x in coeff.items():
            if scale is not None:
                x = x * scale
            for m, c in _term_image(word, idx, s, spec).items():
                target = out.get(m)
                if target is None:
                    out[m] = {s2: x * y for s2, y in c.items()}
                    continue
                for s2, y in c.items():
                    v = x * y
                    target[s2] = target[s2] + v if s2 in target else v
    return out


def _term_image(word: tuple, idx: MultiIndex, s, spec: ManifoldSpec) -> dict:
    """The word's image of the unit term s phi^idx as a term map, cached on
    the spec per (word, idx, s) and shared, so read-only; a value that
    cancelled to 0 may stay in it, and a build that raises caches nothing.
    The empty word's is built afresh."""
    if not word:
        return {idx: {s: _ONE}}
    return spec.cached(("term-image", word, idx, s), _build_term_image, word, idx, s, spec)


def _build_term_image(word: tuple, idx: MultiIndex, s, spec: ManifoldSpec) -> dict:
    """The word's image of s phi^idx, by the operator-by-operator pass."""
    return _word_pass(word, {idx: {s: _ONE}}, spec)


def _word_pass(word: tuple, terms, spec: ManifoldSpec) -> dict:
    """A term map through the word, operator by operator, rightmost first:
    _metric_terms for star, L and Lambda, _d_terms for d and its parts, and
    an adjoint as -* k' *.  The result may hold values that cancelled to 0."""
    for op in reversed(word):
        if op in ("*", "L", "Lambda"):
            terms = _metric_terms(op, terms, spec)
            continue
        kind, starred_kind = _D_OPERATORS[op]
        if starred_kind:
            starred = _d_terms(kind, _metric_terms("*", terms, spec), spec)
            terms = _metric_terms("*", starred, spec, negate=True)
        else:
            terms = _d_terms(kind, terms, spec)
    return terms


def _inverse(k: int):
    """1/k as a scale of _image_sum, or None for k = 1."""
    return None if k == 1 else _ONE / k


def _metric_terms(op: str, terms, spec: ManifoldSpec, negate: bool = False) -> dict:
    """A term map {monomial: {symbol monomial: Q(i)}} through star, L or
    Lambda, negated when asked: each term x s m adds g x s m' over the cached
    image g m' of the unit monomial m; the three are linear over functions.
    The values of `terms` are read through .items(), so a Form's
    Coefficients serve as they are."""
    out: dict = {}
    for idx, coeff in terms.items():
        for m, g in _word_image((op,), idx, spec).items():
            _add_term(out, m, coeff, -g if negate else g)
    return out


def _image(op: str, idx: MultiIndex, spec: ManifoldSpec) -> dict:
    """The image of one unit monomial under one operator, as a sparse column."""
    if op == "*":
        return _star_image(idx, spec)
    if op == "L":
        return _lefschetz_image(idx, spec)
    if op == "Lambda":  # star^(-1) L star = (-1)^k * L * on degree k; -*L* only for odd k
        return _starred("L", idx, spec, negate=idx.degree % 2 == 1)
    kind, starred = _D_OPERATORS[op]
    if starred:  # the adjoint -* k' *, k' the conjugate-paired operator
        return _starred(kind.value, idx, spec, negate=True)
    shift = kind.shift
    out = {}
    for b, part in d_by_shift(idx, spec).items():
        if shift is None or b == shift:
            for m, c in part.terms.items():
                value = c.constant_value()
                if value is None:
                    raise SymbolicCoefficients("expected constant coefficients")
                out[m] = value
    return out


def _starred(op: str, idx: MultiIndex, spec: ManifoldSpec, negate: bool) -> dict:
    """* op * of one unit monomial m, negated when asked, read straight off
    op(*m): *m = t m1 is one monomial, and star sends each term c m2 of
    op(m1) to one term c s m3, distinct monomials to distinct ones, so each
    term of op(*m) gives one term t c s m3 of the image, with no sum."""
    ((image, t),) = _word_image(("*",), idx, spec).items()
    if negate:
        t = -t
    out = {}
    for m, c in _word_image((op,), image, spec).items():
        ((target, s),) = _word_image(("*",), m, spec).items()
        out[target] = t * c * s
    return out


def _star_image(idx: MultiIndex, spec: ManifoldSpec) -> dict:
    """*m = t * phi^{Jc,Icbar} for m = phi^{I,Jbar}: the only monomial pairing
    nontrivially against *m is phi^{J,Ibar}, so t is fixed by the defining
    relation phi^{J,Ibar} wedge *m = <phi^{J,Ibar}, conj m> vol, where
    conj m = (-1)^(pq) phi^{J,Ibar} and <phi^{J,Ibar}, phi^{J,Ibar}> = <m, m>."""
    full = range(1, spec.n + 1)
    image = MultiIndex(
        tuple(a for a in full if a not in idx.anti), tuple(a for a in full if a not in idx.hol)
    )
    _, wedge_sign = _wedge_monomials(MultiIndex(idx.anti, idx.hol), image)
    sign = (-1) ** (idx.p * idx.q) * wedge_sign
    vol_top = spec.cached(("vol_top",), _volume_top, spec)
    return {image: _inner_square(idx, spec) * vol_top * sign}


def _volume_top(spec: ManifoldSpec) -> GaussianRational:
    """The coefficient of phi^{1..n,1..nbar} in vol = omega^n / n!: the n!
    orderings of the commuting phi^{a,abar} each give prod_a i c_a, and
    phi^{11bar} wedge ... wedge phi^{nnbar} = (-1)^(n(n-1)/2) phi^{1..n,1..nbar}."""
    out = GaussianRational.i_power(spec.n) * (-1) ** (spec.n * (spec.n - 1) // 2)
    for c in spec.omega_coeffs:
        out = out * GaussianRational(c)
    return out


def _lefschetz_image(idx: MultiIndex, spec: ManifoldSpec) -> dict:
    """L m = omega wedge m = sum over a in neither I nor J of
    i c_a phi^{a,abar} wedge phi^{I,Jbar}."""
    _, weights = _metric_weights(spec)
    out = {}
    for a in range(1, spec.n + 1):
        if a not in idx.hol and a not in idx.anti:
            image, sign = _wedge_monomials(MultiIndex((a,), (a,)), idx)
            out[image] = weights[a - 1] if sign > 0 else -weights[a - 1]
    return out
