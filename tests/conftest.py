import math
import random
from fractions import Fraction

import pytest

from harmonica import catalog, linalg
from harmonica.forms import Form, basis_multiindices
from harmonica.scalars import GaussianRational
from harmonica.structure import all_basis_monomials


@pytest.fixture(scope="session")
def iwasawa():
    return catalog("iwasawa_ak")


@pytest.fixture(scope="session")
def torus():
    return catalog("torus6")


@pytest.fixture(scope="session")
def flat():
    return catalog("flat_kahler6")


@pytest.fixture(scope="session")
def cplx():
    return catalog("iwasawa_cplx")


@pytest.fixture
def rng():
    return random.Random(20240814)


def rand_gauss(rng, span=4):
    return GaussianRational(
        Fraction(rng.randint(-span, span), rng.randint(1, 3)),
        Fraction(rng.randint(-span, span), rng.randint(1, 3)),
    )


def inner_square(idx, spec):
    """|phi^{I,J}|^2, the product of 1/c_a over I and over J, from the spec's
    omega coefficients c_a; distinct monomials are orthogonal."""
    return math.prod(Fraction(1) / spec.omega_coeffs[a - 1] for a in idx.hol + idx.anti)


def rand_form_pq(n, p, q, rng, density=0.6):
    """Random (p,q)-form with small Q(i) coefficients."""
    out = Form.zero(n)
    for idx in basis_multiindices(n, p, q):
        if rng.random() < density:
            out = out + Form.monomial(n, idx.hol, idx.anti, rand_gauss(rng))
    return out


def rand_form_degree(n, k, rng, density=0.5):
    """Random degree-k form mixing bidegrees."""
    out = Form.zero(n)
    for p in range(max(0, k - n), min(k, n) + 1):
        q = k - p
        out = out + rand_form_pq(n, p, q, rng, density)
    return out


def rand_form_any(n, rng, density=0.3):
    out = Form.zero(n)
    for idx in all_basis_monomials(n):
        if rng.random() < density:
            out = out + Form.monomial(n, idx.hol, idx.anti, rand_gauss(rng))
    return out


def homogeneous_parts(form):
    """The form split into {(p,q): its homogeneous (p,q) part}; the parts
    sum back to the form."""
    parts: dict = {}
    for idx, c in form.terms.items():
        parts.setdefault((idx.p, idx.q), {})[idx] = c
    return {key: Form(form.n, terms) for key, terms in parts.items()}


def fail_on_swell(monkeypatch, bits):
    """Spy on `linalg._reduce` that fails as soon as a reduced row holds an
    integer part of more than `bits` bits, so that coefficient swell in an
    elimination fails fast instead of running on."""
    reduce = linalg._reduce

    def spy(row, pivot, col):
        out = reduce(row, pivot, col)
        largest = max((max(abs(a), abs(b)).bit_length() for a, b in out.values()), default=0)
        assert largest <= bits, f"a reduced row holds a {largest}-bit integer"
        return out

    monkeypatch.setattr(linalg, "_reduce", spy)
