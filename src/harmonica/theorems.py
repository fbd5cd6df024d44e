"""Executable subspace identities: decomposition and inclusion statements.

Each verifier compares canonical subspace values (`linalg.Subspace`) of the
invariant complex and reports verified / refuted / not-applicable with
witness forms wherever an inclusion is strict or a claim fails.  Statement
ids are stable.

Subspace values are canonical and immutable, so the derived spaces and texts
of the statements are computed once per distinct value, on the spec's cache:
H cap P is keyed by its two operand values, an L^r image by the value it
lifts and a basis text by the value it prints.  Equal values of different
widths compare equal, so each key also fixes the column count: H cap P by
the width, the others by the bidegree (and r).  Kinds whose harmonic spaces
are equal thus share one intersection, one image and one text.  Witness
Forms are built afresh on every call.
"""

from __future__ import annotations

from .errors import (
    BidegreeOutOfRange,
    DimensionMismatch,
    NotAlmostKahler,
)
from .forms import Form, format_form
from .harmonic import HarmonicKind, harmonic_subspace, is_harmonic
from .hermitian import (
    form_subspace,
    is_primitive,
    lefschetz_image,
    lefschetz_L,
    primitive_subspace,
    subspace_forms,
)
from .linalg import Subspace
from .report import NOT_APPLICABLE, CheckItem, VerificationReport
from .structure import ManifoldSpec, is_almost_kahler

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
    if not is_almost_kahler(spec):
        raise NotAlmostKahler(f"spec {spec.name!r} is not almost Kahler (d omega != 0)")


def _harmonic_primitive(spec, kind, p, q) -> Subspace:
    """H^{p,q}_kind cap P^{p,q}, computed once per spec, pair of values and
    width: kinds with equal harmonic spaces share one object, and so do
    bidegrees whose two spaces have equal coordinates."""
    harmonic = harmonic_subspace(kind, p, q, spec)
    primitive = primitive_subspace(spec, p, q)
    return spec.cached(
        ("harmonic-primitive", harmonic, primitive, harmonic.ncols),
        lambda: harmonic & primitive,
    )


def _lifted(spec, space, p, q, r) -> Subspace:
    """L^r of a space of (p,q)-forms, computed once per spec and value."""
    return spec.cached(("lifted", space, p, q, r), lefschetz_image, space, p, q, r, spec)


def _omega_power(spec, r) -> Subspace:
    """C omega^r, the L^r-image of the constants."""
    return _lifted(spec, form_subspace([Form.scalar(spec.n, 1)], 0, 0, spec), 0, 0, r)


def _outside(big, small, spec, p, q) -> list:
    """The first echelon generator of big not lying in small, as a one-Form
    list, or [] when big <= small."""
    i = big.first_outside(small)
    if i is None:
        return []
    return subspace_forms(Subspace(big.sparse[i : i + 1], big.ncols), p, q, spec)


def _basis_strings(space, spec, p, q) -> list:
    """The printed basis Forms of a space of (p,q)-forms, formatted once per
    spec and value and kept as a tuple; each call returns a new list."""
    strings = spec.cached(
        ("basis-strings", space, p, q),
        lambda: tuple(format_form(f) for f in subspace_forms(space, p, q, spec)),
    )
    return list(strings)


def _omega_split(statement, spec, kind, r, power, part, part_key, bases=False):
    """H^{r,r}_kind = C omega^r (+) part, omega^r printed as power: omega^r
    harmonic, the sum direct and equal to the harmonic space, with a harmonic
    witness outside the sum when it is not; the basis texts of both sides
    when asked."""
    harmonic = harmonic_subspace(kind, r, r, spec)
    omega = _omega_power(spec, r)
    total = omega + part
    equal = total == harmonic
    items = [
        CheckItem(f"{power} is harmonic", omega <= harmonic),
        CheckItem("sum is direct", Subspace.is_direct_sum([omega, part])),
        CheckItem("sum equals the harmonic space", equal),
    ]
    data = {"dim_harmonic": harmonic.dim, part_key: part.dim}
    if bases:
        data["lhs_basis"] = _basis_strings(harmonic, spec, r, r)
        data["rhs_basis"] = _basis_strings(total, spec, r, r)
    witnesses = [] if equal else _outside(harmonic, total, spec, r, r)
    return VerificationReport.from_items(statement, items, data=data, witnesses=witnesses)


def verify_decomp_11(spec: ManifoldSpec, kind: HarmonicKind) -> VerificationReport:
    """H^{1,1}_kind = C omega  (+)  (H^{1,1}_kind cap P^{1,1}), kind BC or A."""
    if kind not in (HarmonicKind.BC, HarmonicKind.A):
        raise ValueError("decomposition stated for BC and A only")
    _require_almost_kahler(spec)
    part = _harmonic_primitive(spec, kind, 1, 1)
    statement = f"decomp-{kind.value}-11"
    return _omega_split(statement, spec, kind, 1, "omega", part, "dim_primitive_part")


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
    lifted = _lifted(spec, _harmonic_primitive(spec, other, 1, 1), 1, 1, n - 2)
    statement = f"decomp-{kind.value}-n1n1"
    power = "omega^(n-1)"
    return _omega_split(statement, spec, kind, n - 1, power, lifted, "dim_lifted_part", bases=True)


def verify_edge_decomps(spec: ManifoldSpec) -> VerificationReport:
    """Edge bidegrees: (p,0)/(0,q) harmonic forms are primitive, their star
    images fill the (n,n-p)/(n-q,n) spaces of the dual Laplacian, and the
    (n,0)/(0,n) Bott-Chern and Aeppli spaces agree."""
    n = spec.n
    bc, a = HarmonicKind.BC, HarmonicKind.A
    items = []
    for kind in (bc, a):
        for p in range(n + 1):
            for s, t in ((p, 0), (0, p)):
                ok = harmonic_subspace(kind, s, t, spec) <= primitive_subspace(spec, s, t)
                items.append(CheckItem(f"H^({s},{t})_{kind.value} is primitive", ok))
    for src, dst in ((bc, a), (a, bc)):
        for p in range(n + 1):
            for (s, t), (u, v) in (((p, 0), (n, n - p)), ((0, p), (n - p, n))):
                lifted = _lifted(spec, harmonic_subspace(src, s, t, spec), s, t, n - p)
                items.append(
                    CheckItem(
                        f"L^({n - p})(H^({s},{t})_{src.value}) = H^({u},{v})_{dst.value}",
                        lifted == harmonic_subspace(dst, u, v, spec),
                    )
                )
    for s, t in ((n, 0), (0, n)):
        equal = harmonic_subspace(bc, s, t, spec) == harmonic_subspace(a, s, t, spec)
        items.append(CheckItem(f"H^({s},{t})_bc = H^({s},{t})_a", equal))
    return VerificationReport.from_items("edge-decomps", items)


_FIVE_KINDS = tuple(HarmonicKind)


def verify_relations(spec: ManifoldSpec, p: int, q: int) -> VerificationReport:
    """The primitive-harmonic relations at (p,q), p+q <= n: the Bott-Chern
    space is the del/delbar intersection, delbar sits inside Aeppli, and at
    p+q = n all four coincide.  Also reports the observed inclusion lattice.
    The relations assume d omega = 0, so any other spec is refused."""
    if p + q > spec.n:
        raise BidegreeOutOfRange(f"need p+q <= n = {spec.n}, got ({p},{q})")
    _require_almost_kahler(spec)
    prim = {k: _harmonic_primitive(spec, k, p, q) for k in _FIVE_KINDS}
    bc = prim[HarmonicKind.BC]
    de = prim[HarmonicKind.DEL]
    db = prim[HarmonicKind.DELBAR]
    ae = prim[HarmonicKind.A]
    items = [
        CheckItem(
            "BC cap P = (delbar cap P) cap (del cap P)",
            bc == de & db,
        ),
        CheckItem("delbar cap P <= A cap P", db <= ae),
        CheckItem("BC cap P <= delbar cap P", bc <= db),
        CheckItem("BC cap P <= del cap P", bc <= de),
        CheckItem("BC cap P <= A cap P", bc <= ae),
    ]
    if p + q == spec.n:
        items.append(
            CheckItem(
                "all four primitive spaces equal (p+q = n)",
                bc == de == db == ae,
            )
        )
    lattice = {}
    witnesses = []
    for a in _FIVE_KINDS:
        for b in _FIVE_KINDS:
            if a is b:
                continue
            outside = _outside(prim[a], prim[b], spec, p, q)
            lattice[f"{a.value} <= {b.value}"] = not outside
            if outside and len(witnesses) < 4 and outside[0] not in witnesses:
                witnesses += outside
    return VerificationReport.from_items(
        f"relations-{p}-{q}",
        items,
        data={
            "dims": {k.value: prim[k].dim for k in _FIVE_KINDS},
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
    return VerificationReport.from_items("torus-counterexamples", items, witnesses=[w21, w12])


def verify_bc21_gap(spec: ManifoldSpec) -> VerificationReport:
    """H^{2,1}_BC >= (H^{2,1}_BC cap P^{2,1}) (+) L(H^{1,0}_BC) at n = 3,
    with the equality status and, when strict, a witness outside the sum."""
    if spec.n != 3:
        raise DimensionMismatch("the (2,1) gap statement lives at n = 3")
    _require_almost_kahler(spec)
    harmonic = harmonic_subspace(HarmonicKind.BC, 2, 1, spec)
    prim_part = _harmonic_primitive(spec, HarmonicKind.BC, 2, 1)
    lifted = _lifted(spec, harmonic_subspace(HarmonicKind.BC, 1, 0, spec), 1, 0, 1)
    rhs = prim_part + lifted
    included = rhs <= harmonic
    equal = included and rhs.dim == harmonic.dim
    items = [
        CheckItem(
            "primitive part (+) L(H^{1,0}_bc) is direct",
            Subspace.is_direct_sum([prim_part, lifted]),
        ),
        CheckItem("right-hand side included in H^{2,1}_bc", included),
    ]
    witnesses = [] if equal else _outside(harmonic, rhs, spec, 2, 1)
    for w in witnesses:
        recheck = form_subspace([w], 2, 1, spec)
        items.append(
            CheckItem(
                "witness is harmonic but outside the direct sum",
                recheck <= harmonic and not recheck <= rhs,
                witness=w,
                residual=lefschetz_L(w, spec),
                note="nonzero L-image shows the witness is not primitive",
            )
        )
    return VerificationReport.from_items(
        "bc21-gap",
        items,
        data={
            "equality": equal,
            "dim_harmonic": harmonic.dim,
            "dim_primitive_part": prim_part.dim,
            "dim_L_part": lifted.dim,
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
    harmonic = harmonic_subspace(HarmonicKind.D, p, q, spec)
    r_min = max(p + q - n, 0)
    summands = []
    dims = {}
    for r in range(r_min, min(p, q) + 1):
        part = _harmonic_primitive(spec, HarmonicKind.D, p - r, q - r)
        lifted = _lifted(spec, part, p - r, q - r, r)
        summands.append(lifted)
        dims[f"r={r}"] = lifted.dim
    total = sum(summands, Subspace())
    items = [
        CheckItem("sum is direct", Subspace.is_direct_sum(summands)),
        CheckItem("sum equals H^{p,q}_d", total == harmonic),
    ]
    return VerificationReport.from_items(
        f"lefschetz-d-{p}-{q}",
        items,
        data={
            "dim_harmonic": harmonic.dim,
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
    if not is_almost_kahler(spec):
        return VerificationReport(
            "aeppli-L-inclusion", NOT_APPLICABLE, notes="spec is not almost Kahler"
        )
    lifted = _lifted(spec, harmonic_subspace(HarmonicKind.A, 1, 0, spec), 1, 0, 1)
    witnesses = _outside(lifted, harmonic_subspace(HarmonicKind.A, 2, 1, spec), spec, 2, 1)
    holds = not witnesses
    items = [CheckItem("L(H^{1,0}_a) <= H^{2,1}_a", holds)]
    for w in witnesses:
        cert = is_harmonic(HarmonicKind.A, w, spec)
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
    return VerificationReport.from_items(
        "aeppli-L-inclusion",
        items,
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
    almost_kahler = is_almost_kahler(spec)
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
