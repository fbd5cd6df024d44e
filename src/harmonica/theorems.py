"""Executable subspace identities: decomposition and inclusion statements.

Each verifier computes exact echelon bases on the invariant complex and
reports verified / refuted / not-applicable with witness forms wherever an
inclusion is strict or a claim fails.  Statement ids are stable.
"""

from __future__ import annotations

from .errors import (
    BidegreeOutOfRange,
    DimensionMismatch,
    NotAlmostKahler,
)
from .forms import Form, basis_multiindices
from .harmonic import (
    HarmonicKind,
    forms_to_rows,
    harmonic_space,
    is_harmonic,
    rows_to_forms,
)
from .hermitian import (
    fundamental_form,
    is_primitive,
    lefschetz_L,
    primitive_basis,
)
from .linalg import (
    first_outside,
    in_span,
    is_direct_sum,
    is_subspace,
    rref,
    subspace_equal,
    subspace_intersection,
    subspace_sum,
)
from .report import NOT_APPLICABLE, REFUTED, VERIFIED, CheckItem, VerificationReport
from .structure import ManifoldSpec, exterior_d

__all__ = [
    "verify_decomp_11",
    "verify_decomp_n1n1",
    "verify_edge_decomps",
    "verify_relations",
    "check_counterexamples_torus",
    "verify_bc21_gap",
    "verify_lefschetz_d",
    "check_aeppli_L_noninclusion",
    "all_statements",
]


def _require_almost_kahler(spec: ManifoldSpec) -> None:
    if not exterior_d(fundamental_form(spec), spec).is_zero():
        raise NotAlmostKahler(f"spec {spec.name!r} is not almost Kahler (d omega != 0)")


def _rows(forms, spec, p, q):
    return forms_to_rows(forms, basis_multiindices(spec.n, p, q))


def _forms(rows, spec, p, q):
    return rows_to_forms(rows, basis_multiindices(spec.n, p, q), spec.n)


def _harmonic_rows(spec, kind, p, q):
    return _rows(harmonic_space(kind, p, q, spec).basis, spec, p, q)


def _primitive_rows(spec, p, q):
    return _rows(primitive_basis(spec, p, q), spec, p, q)


def _harmonic_primitive_rows(spec, kind, p, q):
    return subspace_intersection(
        _harmonic_rows(spec, kind, p, q), _primitive_rows(spec, p, q)
    )


def _L_image_rows(rows, spec, p, q, power=1):
    forms = _forms(rows, spec, p, q)
    out = []
    for f in forms:
        for _ in range(power):
            f = lefschetz_L(f, spec)
        out.append(f)
    return rref(_rows(out, spec, p + power, q + power))


def _omega_power_rows(spec, power):
    f = Form.scalar(spec.n, 1)
    for _ in range(power):
        f = lefschetz_L(f, spec)
    return rref(_rows([f], spec, power, power))


def _first_outside(big_rows, small_rows, spec, p, q):
    """First echelon generator of span(big) not lying in span(small), or None."""
    i = first_outside(big_rows, small_rows)
    return None if i is None else _forms([big_rows[i]], spec, p, q)[0]


def _basis_strings(rows, spec, p, q):
    from .forms import format_form

    return [format_form(f) for f in _forms(rows, spec, p, q)]


def verify_decomp_11(spec: ManifoldSpec, kind: HarmonicKind) -> VerificationReport:
    """H^{1,1}_kind = C omega  (+)  (H^{1,1}_kind cap P^{1,1}), kind BC or A."""
    if kind not in (HarmonicKind.BC, HarmonicKind.A):
        raise ValueError("decomposition stated for BC and A only")
    _require_almost_kahler(spec)
    harmonic = _harmonic_rows(spec, kind, 1, 1)
    omega_rows = _omega_power_rows(spec, 1)
    prim_part = _harmonic_primitive_rows(spec, kind, 1, 1)
    direct = is_direct_sum([omega_rows, prim_part])
    equal = subspace_equal(subspace_sum(omega_rows, prim_part), harmonic)
    items = [
        CheckItem("omega is harmonic", in_span(omega_rows[0], harmonic)),
        CheckItem("sum is direct", direct),
        CheckItem("sum equals the harmonic space", equal),
    ]
    witnesses = []
    if not equal:
        w = _first_outside(harmonic, subspace_sum(omega_rows, prim_part), spec, 1, 1)
        if w is not None:
            witnesses.append(w)
    return VerificationReport(
        f"decomp-{kind.value}-11",
        VERIFIED if all(i.ok for i in items) else REFUTED,
        items=items,
        data={
            "dim_harmonic": len(harmonic),
            "dim_primitive_part": len(prim_part),
        },
        witnesses=witnesses,
    )


def verify_decomp_n1n1(spec: ManifoldSpec, kind: HarmonicKind) -> VerificationReport:
    """H^{n-1,n-1}_kind = C omega^{n-1} (+) L^{n-2}(H^{1,1}_other cap P^{1,1}),
    with the crossed pairing BC <-> A."""
    if kind not in (HarmonicKind.BC, HarmonicKind.A):
        raise ValueError("decomposition stated for BC and A only")
    _require_almost_kahler(spec)
    n = spec.n
    if n < 2:
        raise DimensionMismatch("needs n >= 2")
    other = HarmonicKind.A if kind is HarmonicKind.BC else HarmonicKind.BC
    harmonic = _harmonic_rows(spec, kind, n - 1, n - 1)
    omega_rows = _omega_power_rows(spec, n - 1)
    lifted = _L_image_rows(_harmonic_primitive_rows(spec, other, 1, 1), spec, 1, 1, n - 2)
    direct = is_direct_sum([omega_rows, lifted])
    equal = subspace_equal(subspace_sum(omega_rows, lifted), harmonic)
    items = [
        CheckItem("omega^(n-1) is harmonic", in_span(omega_rows[0], harmonic)),
        CheckItem("sum is direct", direct),
        CheckItem("sum equals the harmonic space", equal),
    ]
    witnesses = []
    if not equal:
        w = _first_outside(
            harmonic, subspace_sum(omega_rows, lifted), spec, n - 1, n - 1
        )
        if w is not None:
            witnesses.append(w)
    return VerificationReport(
        f"decomp-{kind.value}-n1n1",
        VERIFIED if all(i.ok for i in items) else REFUTED,
        items=items,
        data={
            "dim_harmonic": len(harmonic),
            "dim_lifted_part": len(lifted),
            "lhs_basis": _basis_strings(harmonic, spec, n - 1, n - 1),
            "rhs_basis": _basis_strings(subspace_sum(omega_rows, lifted), spec, n - 1, n - 1),
        },
        witnesses=witnesses,
    )


def verify_edge_decomps(spec: ManifoldSpec) -> VerificationReport:
    """Edge bidegrees: (p,0)/(0,q) harmonic forms are primitive, their star
    images fill the (n,n-p)/(n-q,n) spaces of the dual Laplacian, and the
    (n,0)/(0,n) Bott-Chern and Aeppli spaces agree."""
    n = spec.n
    items = []
    spaces = {}
    for kind in (HarmonicKind.BC, HarmonicKind.A):
        for p in range(n + 1):
            spaces[(kind, p, 0)] = _harmonic_rows(spec, kind, p, 0)
            spaces[(kind, 0, p)] = _harmonic_rows(spec, kind, 0, p)
    for kind in (HarmonicKind.BC, HarmonicKind.A):
        for p in range(n + 1):
            prim = _primitive_rows(spec, p, 0)
            ok = is_subspace(spaces[(kind, p, 0)], prim)
            items.append(CheckItem(f"H^({p},0)_{kind.value} is primitive", ok))
            prim = _primitive_rows(spec, 0, p)
            ok = is_subspace(spaces[(kind, 0, p)], prim)
            items.append(CheckItem(f"H^(0,{p})_{kind.value} is primitive", ok))
    pairs = [(HarmonicKind.BC, HarmonicKind.A), (HarmonicKind.A, HarmonicKind.BC)]
    for src, dst in pairs:
        for p in range(n + 1):
            lifted = _L_image_rows(spaces[(src, p, 0)], spec, p, 0, n - p)
            target = _harmonic_rows(spec, dst, n, n - p)
            items.append(
                CheckItem(
                    f"L^({n - p})(H^({p},0)_{src.value}) = H^({n},{n - p})_{dst.value}",
                    subspace_equal(lifted, target),
                )
            )
            lifted = _L_image_rows(spaces[(src, 0, p)], spec, 0, p, n - p)
            target = _harmonic_rows(spec, dst, n - p, n)
            items.append(
                CheckItem(
                    f"L^({n - p})(H^(0,{p})_{src.value}) = H^({n - p},{n})_{dst.value}",
                    subspace_equal(lifted, target),
                )
            )
    items.append(
        CheckItem(
            f"H^({n},0)_bc = H^({n},0)_a",
            subspace_equal(spaces[(HarmonicKind.BC, n, 0)], spaces[(HarmonicKind.A, n, 0)]),
        )
    )
    items.append(
        CheckItem(
            f"H^(0,{n})_bc = H^(0,{n})_a",
            subspace_equal(spaces[(HarmonicKind.BC, 0, n)], spaces[(HarmonicKind.A, 0, n)]),
        )
    )
    return VerificationReport(
        "edge-decomps",
        VERIFIED if all(i.ok for i in items) else REFUTED,
        items=items,
    )


_FIVE_KINDS = (
    HarmonicKind.D,
    HarmonicKind.DEL,
    HarmonicKind.DELBAR,
    HarmonicKind.BC,
    HarmonicKind.A,
)


def verify_relations(spec: ManifoldSpec, p: int, q: int) -> VerificationReport:
    """The primitive-harmonic relations at (p,q), p+q <= n: the Bott-Chern
    space is the del/delbar intersection, delbar sits inside Aeppli, and at
    p+q = n all four coincide.  Also reports the observed inclusion lattice."""
    if p + q > spec.n:
        raise BidegreeOutOfRange(f"need p+q <= n = {spec.n}, got ({p},{q})")
    prim = {k: _harmonic_primitive_rows(spec, k, p, q) for k in _FIVE_KINDS}
    bc = prim[HarmonicKind.BC]
    de = prim[HarmonicKind.DEL]
    db = prim[HarmonicKind.DELBAR]
    ae = prim[HarmonicKind.A]
    items = [
        CheckItem(
            "BC cap P = (delbar cap P) cap (del cap P)",
            subspace_equal(bc, subspace_intersection(de, db)),
        ),
        CheckItem("delbar cap P <= A cap P", is_subspace(db, ae)),
        CheckItem("BC cap P <= delbar cap P", is_subspace(bc, db)),
        CheckItem("BC cap P <= del cap P", is_subspace(bc, de)),
        CheckItem("BC cap P <= A cap P", is_subspace(bc, ae)),
    ]
    if p + q == spec.n:
        items.append(
            CheckItem(
                "all four primitive spaces equal (p+q = n)",
                subspace_equal(bc, de)
                and subspace_equal(bc, db)
                and subspace_equal(bc, ae),
            )
        )
    lattice = {}
    witnesses = []
    for a in _FIVE_KINDS:
        for b in _FIVE_KINDS:
            if a is b:
                continue
            w = _first_outside(prim[a], prim[b], spec, p, q)
            lattice[f"{a.value} <= {b.value}"] = w is None
            if w is not None and len(witnesses) < 4 and w not in witnesses:
                witnesses.append(w)
    return VerificationReport(
        f"relations-{p}-{q}",
        VERIFIED if all(i.ok for i in items) else REFUTED,
        items=items,
        data={
            "dims": {k.value: len(prim[k]) for k in _FIVE_KINDS},
            "bases": {k.value: _basis_strings(prim[k], spec, p, q) for k in _FIVE_KINDS},
            "inclusions": lattice,
        },
        witnesses=witnesses,
        notes="whether A cap P <= delbar cap P holds in general is open; "
        "the lattice above records this spec's answer without asserting it",
    )


def check_counterexamples_torus(spec: ManifoldSpec) -> VerificationReport:
    """The two witness forms phi^{2,1bar} and phi^{1,2bar} on the symbolic
    torus: membership verdicts for the five Laplacians and the seven
    resulting non-inclusions between primitive harmonic spaces."""
    if spec.n != 3:
        raise DimensionMismatch("the torus counterexample lives at n = 3")
    w21 = Form.monomial(spec.n, (2,), (1,))
    w12 = Form.monomial(spec.n, (1,), (2,))
    certs = {
        (name, kind): is_harmonic(kind, form, spec)
        for name, form in (("phi[2;1]", w21), ("phi[1;2]", w12))
        for kind in _FIVE_KINDS
    }
    expected = {
        ("phi[2;1]", HarmonicKind.D): False,
        ("phi[2;1]", HarmonicKind.DEL): False,
        ("phi[2;1]", HarmonicKind.DELBAR): True,
        ("phi[2;1]", HarmonicKind.BC): False,
        ("phi[2;1]", HarmonicKind.A): True,
        ("phi[1;2]", HarmonicKind.D): False,
        ("phi[1;2]", HarmonicKind.DEL): True,
        ("phi[1;2]", HarmonicKind.DELBAR): False,
        ("phi[1;2]", HarmonicKind.BC): False,
        ("phi[1;2]", HarmonicKind.A): False,
    }
    items = []
    for (name, kind), want in expected.items():
        cert = certs[(name, kind)]
        failing = cert.first_failing()
        items.append(
            CheckItem(
                f"{name} {'in' if want else 'not in'} H_{kind.value}",
                cert.verdict == want,
                residual=None if failing is None else failing.residual,
            )
        )
    items.append(CheckItem("phi[2;1] is primitive", is_primitive(w21, spec)))
    items.append(CheckItem("phi[1;2] is primitive", is_primitive(w12, spec)))
    non_inclusions = [
        ("delbar not<= bc", "phi[2;1]", HarmonicKind.DELBAR, HarmonicKind.BC),
        ("delbar not<= del", "phi[2;1]", HarmonicKind.DELBAR, HarmonicKind.DEL),
        ("a not<= bc", "phi[2;1]", HarmonicKind.A, HarmonicKind.BC),
        ("a not<= del", "phi[2;1]", HarmonicKind.A, HarmonicKind.DEL),
        ("del not<= delbar", "phi[1;2]", HarmonicKind.DEL, HarmonicKind.DELBAR),
        ("del not<= bc", "phi[1;2]", HarmonicKind.DEL, HarmonicKind.BC),
        ("del not<= a", "phi[1;2]", HarmonicKind.DEL, HarmonicKind.A),
    ]
    for label, name, inside, outside in non_inclusions:
        ok = certs[(name, inside)].verdict and not certs[(name, outside)].verdict
        items.append(CheckItem(f"{label} (witness {name})", ok))
    return VerificationReport(
        "torus-counterexamples",
        VERIFIED if all(i.ok for i in items) else REFUTED,
        items=items,
        witnesses=[w21, w12],
    )


def verify_bc21_gap(spec: ManifoldSpec) -> VerificationReport:
    """H^{2,1}_BC >= (H^{2,1}_BC cap P^{2,1}) (+) L(H^{1,0}_BC) at n = 3,
    with the equality status and, when strict, a witness outside the sum."""
    if spec.n != 3:
        raise DimensionMismatch("the (2,1) gap statement lives at n = 3")
    _require_almost_kahler(spec)
    harmonic = _harmonic_rows(spec, HarmonicKind.BC, 2, 1)
    prim_part = _harmonic_primitive_rows(spec, HarmonicKind.BC, 2, 1)
    lifted = _L_image_rows(_harmonic_rows(spec, HarmonicKind.BC, 1, 0), spec, 1, 0, 1)
    rhs = subspace_sum(prim_part, lifted)
    included = is_subspace(rhs, harmonic)
    direct = is_direct_sum([prim_part, lifted])
    equal = included and len(rhs) == len(harmonic)
    items = [
        CheckItem("primitive part (+) L(H^{1,0}_bc) is direct", direct),
        CheckItem("right-hand side included in H^{2,1}_bc", included),
    ]
    witnesses = []
    if not equal:
        w = _first_outside(harmonic, rhs, spec, 2, 1)
        if w is not None:
            witnesses.append(w)
            items.append(
                CheckItem(
                    "witness is harmonic but outside the direct sum",
                    in_span(_rows([w], spec, 2, 1)[0], harmonic)
                    and not in_span(_rows([w], spec, 2, 1)[0], rhs),
                    witness=w,
                    residual=lefschetz_L(w, spec),
                    note="nonzero L-image shows the witness is not primitive",
                )
            )
    return VerificationReport(
        "bc21-gap",
        VERIFIED if all(i.ok for i in items) else REFUTED,
        items=items,
        data={
            "equality": equal,
            "dim_harmonic": len(harmonic),
            "dim_primitive_part": len(prim_part),
            "dim_L_part": len(lifted),
            "lhs_basis": _basis_strings(harmonic, spec, 2, 1),
            "rhs_basis": _basis_strings(rhs, spec, 2, 1),
        },
        witnesses=witnesses,
    )


def verify_lefschetz_d(spec: ManifoldSpec, p: int, q: int) -> VerificationReport:
    """The d-harmonic primitive decomposition
    H^{p,q}_d = (+)_r L^r (H^{p-r,q-r}_d cap P^{p-r,q-r})."""
    _require_almost_kahler(spec)
    n = spec.n
    harmonic = _harmonic_rows(spec, HarmonicKind.D, p, q)
    r_min = max(p + q - n, 0)
    summands = []
    dims = {}
    for r in range(r_min, min(p, q) + 1):
        part = _harmonic_primitive_rows(spec, HarmonicKind.D, p - r, q - r)
        lifted = _L_image_rows(part, spec, p - r, q - r, r) if r else part
        summands.append(lifted)
        dims[f"r={r}"] = len(lifted)
    total = []
    for s in summands:
        total = subspace_sum(total, s)
    items = [
        CheckItem("sum is direct", is_direct_sum(summands)),
        CheckItem("sum equals H^{p,q}_d", subspace_equal(total, harmonic)),
    ]
    return VerificationReport(
        f"lefschetz-d-{p}-{q}",
        VERIFIED if all(i.ok for i in items) else REFUTED,
        items=items,
        data={
            "dim_harmonic": len(harmonic),
            "summands": dims,
            "lhs_basis": _basis_strings(harmonic, spec, p, q),
            "rhs_basis": _basis_strings(total, spec, p, q),
        },
    )


def check_aeppli_L_noninclusion(spec: ManifoldSpec) -> VerificationReport:
    """Whether L(H^{1,0}_A) <= H^{2,1}_A on this spec.  Unlike the
    Bott-Chern analogue this inclusion has no general proof, so a failure is
    a reported status, not an error."""
    if spec.n != 3:
        raise DimensionMismatch("stated at n = 3")
    if not exterior_d(fundamental_form(spec), spec).is_zero():
        return VerificationReport(
            "aeppli-L-inclusion", NOT_APPLICABLE, notes="spec is not almost Kahler"
        )
    lifted = _L_image_rows(_harmonic_rows(spec, HarmonicKind.A, 1, 0), spec, 1, 0, 1)
    target = _harmonic_rows(spec, HarmonicKind.A, 2, 1)
    w = _first_outside(lifted, target, spec, 2, 1)
    holds = w is None
    witnesses = []
    items = [CheckItem("L(H^{1,0}_a) <= H^{2,1}_a", holds)]
    if not holds:
        cert = is_harmonic(HarmonicKind.A, w, spec)
        witnesses.append(w)
        items.append(
            CheckItem(
                "witness re-check: not Aeppli harmonic",
                not cert.verdict,
                witness=w,
                residual=None
                if cert.first_failing() is None
                else cert.first_failing().residual,
            )
        )
    return VerificationReport(
        "aeppli-L-inclusion",
        VERIFIED if holds else REFUTED,
        items=items,
        data={"inclusion_holds": holds},
        witnesses=witnesses,
    )


def all_statements(spec: ManifoldSpec) -> list:
    """Every applicable verification statement for a constant-coefficient spec."""
    reports = []

    def attempt(stmt_id, fn, *args):
        try:
            reports.append(fn(spec, *args))
        except (NotAlmostKahler, DimensionMismatch, BidegreeOutOfRange) as exc:
            reports.append(VerificationReport(stmt_id, NOT_APPLICABLE, notes=str(exc)))

    attempt("decomp-bc-11", verify_decomp_11, HarmonicKind.BC)
    attempt("decomp-a-11", verify_decomp_11, HarmonicKind.A)
    attempt("decomp-bc-n1n1", verify_decomp_n1n1, HarmonicKind.BC)
    attempt("decomp-a-n1n1", verify_decomp_n1n1, HarmonicKind.A)
    attempt("edge-decomps", verify_edge_decomps)
    almost_kahler = exterior_d(fundamental_form(spec), spec).is_zero()
    for p in range(spec.n + 1):
        for q in range(spec.n + 1 - p):
            if almost_kahler:
                attempt(f"relations-{p}-{q}", verify_relations, p, q)
            else:
                # the primitive-space relations assume d omega = 0
                reports.append(
                    VerificationReport(
                        f"relations-{p}-{q}",
                        NOT_APPLICABLE,
                        notes="spec is not almost Kahler",
                    )
                )
    attempt("bc21-gap", verify_bc21_gap)
    attempt("aeppli-L-inclusion", check_aeppli_L_noninclusion)
    for p, q in ((1, 1), (2, 2)):
        if p <= spec.n and q <= spec.n:
            attempt(f"lefschetz-d-{p}-{q}", verify_lefschetz_d, p, q)
    return reports
