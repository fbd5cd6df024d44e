"""Seeded benchmark inputs: isometric spec variants and a symbolic form stream.

A variant rescales the coframe, phi^a -> lambda_a phi^a with a Gaussian
integer lambda_a, and rewrites the structure constants and omega to match:

    c'^a_{I,J} = c^a_{I,J} * lambda_a / (prod_{i in I} lambda_i * prod_{j in J} conj(lambda_j))
    omega'_a   = omega_a / |lambda_a|^2

J and the 2-form omega are unchanged, so the metric is unchanged.  Invariant
harmonic dimensions depend on the metric, so only such isometric changes keep
every dimension table and statement status comparable with the reference.

Every lambda_a is a fixed Gaussian integer times a seeded power of i.  A
power of i only swaps and negates the real and imaginary parts of the
rewritten constants, so every seed produces rationals of the same size:
seeds change the inputs, not their cost.  Drawing the norms |lambda_a|^2
or a conjugation per seed as well made one seed's iwasawa_ak report take
35 % longer than another's.  A flat spec (d = 0) gets one common norm: with
d = 0 only omega'_a = omega_a / |lambda_a|^2 reaches the document, so a flat
spec's variant is the same for every seed, and unequal norms only enlarge
omega's rationals (on the flat n = 4 spec that made one report take 76 s
instead of 50 s).

Everything here is pure stdlib except `self_check`, which runs the engine's
loader, serializer and integrability check on the generated documents.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_SPECS = Path(__file__).resolve().parent / "specs"

# The fixed part of lambda_a for generator a, and of every lambda_a of a flat spec.
_LAMBDA_BASES = ((1, 1), (2, 1), (3, 2), (3, 1))
_FLAT_LAMBDA_BASE = (2, 1)

TORUS_N = 3
TORUS_SYMBOLS = ("g3", "g3c", "g33", "g33c", "g3b3")

WORKLOADS = {
    # workload -> (base specs it reports on, base specs in tiny mode)
    "report-n3": (("iwasawa_ak", "flat_kahler6", "iwasawa_cplx"), ("iwasawa_cplx",)),
    "slices-flat8": (("flat8",), ("flat_kahler6",)),
    "certify-torus6": (("torus6",), ("torus6",)),
}

# The CLI calls of slices-flat8 on its one spec.  A whole flat n = 4 report
# takes 55 s at nominal speed and up to 110 s on a slow shared host, too long
# for the runs a benchmark set makes.  These three calls take about 9 s and
# keep its two costs: d-kind tables (subspace_intersection) and primitive
# relations (verify_relations: in_span -> rref).
FLAT8_SLICES = (
    ("harmonics", "--laplacian", "d", "--bidegree", "2,2"),
    ("harmonics", "--laplacian", "d", "--bidegree", "2,1"),
    ("relations", "--bidegree", "1,1"),
)

# (degree, monomials) of successive forms in the torus6 stream.
_FORM_SHAPES = tuple((k, size) for k in (1, 2, 2, 3, 3, 3) for size in (1, 2, 3, 4))
# Certificates per repetition of certify-torus6: whole cycles of _FORM_SHAPES.
CERT_BATCH = 12 * len(_FORM_SHAPES)
CERT_BATCH_TINY = len(_FORM_SHAPES)


def base_text(name: str) -> str:
    """The shipped document of a catalog spec, or a bench-local spec."""
    local = BENCH_SPECS / f"{name}.json"
    if local.exists():
        return local.read_text(encoding="utf-8")
    return (ROOT / "src" / "harmonica" / "data" / f"{name}.json").read_text(encoding="utf-8")


def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gdiv(a, b):
    norm = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / norm, (a[1] * b[0] - a[0] * b[1]) / norm)


def _conj(a):
    return (a[0], -a[1])


def _fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _scale_coeff(doc: dict, factor) -> dict:
    if "re" in doc:
        value = _gmul((Fraction(doc["re"]), Fraction(doc["im"])), factor)
        return {"re": _fmt(value[0]), "im": _fmt(value[1])}
    if factor != (1, 0):
        raise ValueError("symbolic coefficients can only be scaled by 1")
    return doc


def draw_lambdas(rng: random.Random, n: int, flat: bool) -> list:
    """n Gaussian integers: _LAMBDA_BASES[:n], or n copies of
    _FLAT_LAMBDA_BASE when the spec is flat, each times a seeded power of i."""
    bases = [_FLAT_LAMBDA_BASE] * n if flat else _LAMBDA_BASES[:n]
    out = []
    for x, y in bases:
        g = (Fraction(x), Fraction(y))
        for _ in range(rng.randrange(4)):
            g = _gmul(g, (Fraction(0), Fraction(1)))
        out.append(g)
    return out


def rescale_document(text: str, lambdas: list) -> str:
    """The spec document in the rescaled coframe phi'^a = lambda_a phi^a."""
    doc = json.loads(text)
    if len(lambdas) != doc["n"]:
        raise ValueError("need one lambda per generator")
    lam = {a: lambdas[a - 1] for a in range(1, doc["n"] + 1)}
    if doc["symbols"] and any(g != (1, 0) for g in lambdas):
        raise ValueError("frame derivatives of symbols do not follow a rescaling")
    for a, gen in enumerate(doc["generators"], start=1):
        for term in doc["d"][gen]:
            denom = (Fraction(1), Fraction(0))
            for i in term["hol"]:
                denom = _gmul(denom, lam[i])
            for j in term["anti"]:
                denom = _gmul(denom, _conj(lam[j]))
            term["coeff"] = _scale_coeff(term["coeff"], _gdiv(lam[a], denom))
    doc["omega"] = [
        _fmt(Fraction(c) / (lam[a][0] ** 2 + lam[a][1] ** 2))
        for a, c in enumerate(doc["omega"], start=1)
    ]
    return json.dumps(doc, indent=2) + "\n"


def unit_lambdas(n: int) -> list:
    return [(Fraction(1), Fraction(0))] * n


def variant_text(name: str, seed: int) -> str:
    """Seeded isometric variant of a base spec; symbolic specs stay as shipped."""
    text = base_text(name)
    doc = json.loads(text)
    if doc["symbols"]:
        return rescale_document(text, unit_lambdas(doc["n"]))
    rng = random.Random(f"variant:{name}:{seed}")
    flat = not any(doc["d"].values())
    return rescale_document(text, draw_lambdas(rng, doc["n"], flat))


def _gauss_text(rng: random.Random) -> str:
    while True:
        re = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        im = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if re or im:
            return f"({_fmt(re)},{_fmt(im)})"


def _form_templates(count: int) -> list:
    """The monomials of the first `count` forms of the torus6 stream, each
    as a list of (phi text, symbol or None) terms.

    The shape of the i-th form (degree and number of monomials) cycles
    through _FORM_SHAPES, and two of every five monomials also get a
    declared symbol.  The bidegree split, the monomials and the symbols are
    drawn once, from a fixed seed: a symbol makes a certificate several
    times dearer, and so do some monomials, so drawing them per workload
    seed gave one seed's 96-certificate stream 17 % more Python calls than
    another's.  Degree <= n keeps is_primitive defined.
    """
    rng = random.Random("torus6-form-templates")
    out = []
    term_index = 0
    for i in range(count):
        k, size = _FORM_SHAPES[i % len(_FORM_SHAPES)]
        p = rng.randint(max(0, k - TORUS_N), min(k, TORUS_N))
        monomials = [
            (hol, anti)
            for hol in itertools.combinations(range(1, TORUS_N + 1), p)
            for anti in itertools.combinations(range(1, TORUS_N + 1), k - p)
        ]
        terms = []
        for hol, anti in sorted(rng.sample(monomials, min(len(monomials), size))):
            phi = f"phi[{','.join(map(str, hol))};{','.join(map(str, anti))}]"
            terms.append((phi, None))
            if term_index % 5 < 2:
                terms.append((phi, rng.choice(TORUS_SYMBOLS)))
            term_index += 1
        out.append(terms)
    return out


def form_stream(seed: int, count: int) -> list:
    """Bidegree-homogeneous forms on torus6 of degree 1..3, as form text.

    The monomials and symbols come from _form_templates; the seed draws
    every Q(i) constant, so seeds change the forms, not their cost.
    """
    rng = random.Random(f"torus6-forms:{seed}")
    return [
        " + ".join(
            f"{_gauss_text(rng)}*{phi}" if sym is None else f"{_gauss_text(rng)}*{sym}*{phi}"
            for phi, sym in terms
        )
        for terms in _form_templates(count)
    ]


def self_check(texts: dict) -> list:
    """Problems with generated spec documents, as strings; empty when sound.

    `texts` maps base name -> generated document text.  Checks that unit
    scaling reproduces each shipped document byte for byte through
    serialize_spec, that each variant round-trips through the loader and
    passes check_integrability_relations, and that omega stays positive
    rational.
    """
    from harmonica.library import load_spec, serialize_spec
    from harmonica.structure import check_integrability_relations

    problems = []
    for name, text in texts.items():
        shipped = base_text(name)
        unit = rescale_document(shipped, unit_lambdas(json.loads(shipped)["n"]))
        if serialize_spec(load_spec(unit)) != shipped:
            problems.append(f"{name}: unit scaling does not reproduce the shipped document")
        spec = load_spec(text)
        if serialize_spec(spec) != text:
            problems.append(f"{name}: variant does not round-trip through serialize_spec")
        report = check_integrability_relations(spec)
        if report.status != "verified":
            problems.append(f"{name}: variant fails {report.first_failure().name}")
        if not all(isinstance(c, Fraction) and c > 0 for c in spec.omega_coeffs):
            problems.append(f"{name}: variant omega is not positive rational")
    return problems
