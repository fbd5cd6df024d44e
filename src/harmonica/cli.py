"""Command-line front end.

Exit codes: 0 ok/verified/member, 1 refuted/failed/non-member.  A command
that raises a HarmonicaError exits with that error's code and prints one
stderr line with its label; errors.py sets both, per error class: 1 for a
failed internal cross-check, 2 for malformed input (spec, form text or
option value) and 3 for an unsupported request (symbolic coefficients, wrong
dimension, n above library.MAX_N, an exponent above scalars.MAX_EXPONENT,
an integrability walk above structure.MAX_WALK, bidegree out of range, and
similar).
Output is deterministic given the spec bytes and the command line; printed
forms always use the `phi[...]` syntax and re-parse bit-exactly.  The
argument parser is built by the first `main` call of a process, not at
import, and reused by later calls.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from pathlib import Path

from .errors import HarmonicaError, InputError, ParseError, SymbolicCoefficients, UnknownSpec
from .forms import format_form, parse_form
from .harmonic import HarmonicKind, harmonic_space, harmonic_subspace, is_harmonic
from .hermitian import is_primitive, primitive_decompose
from .library import CATALOG_NAMES, catalog, load_spec_path
from .report import REFUTED
from .scalars import parse_int
from .structure import check_almost_kahler, check_integrability_relations
from .theorems import all_statements, verify_relations

EXIT_OK = 0
EXIT_REFUTED = 1

# One pass over the text, longer alternatives first.  It equals ten passes,
# one per token in table order: no replacement emits ASCII that another
# token matches, and a word token's neighbours are non-word characters both
# before and after its replacement.
_PRETTY = {
    "delbar": "∂̄",
    "del": "∂",
    "mubar": "μ̄",
    "mu": "μ",
    "omega": "ω",
    "cap": "∩",
    "H^": "ℋ^",
    "not<=": "⊄",
    "<=": "⊆",
    "(+)": "⊕",
}
_PRETTY_PATTERN = re.compile(r"\b(?:delbar|del|mubar|mu|omega|cap)\b|\bH\^|not<=|<=|\(\+\)")


def _pretty(text: str, ascii_mode: bool) -> str:
    if ascii_mode:
        return text
    return _PRETTY_PATTERN.sub(lambda m: _PRETTY[m.group()], text)


def _resolve_spec(ref: str):
    if ref in CATALOG_NAMES:
        return catalog(ref)
    path = Path(ref)
    if path.exists():
        return load_spec_path(path)
    raise UnknownSpec(
        f"{ref!r} is neither a catalog name ({', '.join(CATALOG_NAMES)}) nor a file"
    )


def _parse_bidegree(text: str) -> tuple:
    m = re.match(r"^\s*(\d+)\s*,\s*(\d+)\s*$", text)
    if not m:
        raise ParseError(f"--bidegree expects 'p,q', got {text!r}")
    return parse_int(m.group(1)), parse_int(m.group(2))


def _gate_validation(spec, args, out) -> bool:
    """True if the spec may be computed on: it validates, or --force is given.
    Otherwise prints the first failure."""
    report = check_integrability_relations(spec)
    if report.ok or args.force:
        return True
    failure = report.first_failure()
    out(f"spec {spec.name!r} fails validation: {failure.name}")
    if failure.witness is not None:
        out(f"  witness: {format_form(failure.witness)}")
    if failure.residual is not None:
        out(f"  residual: {format_form(failure.residual)}")
    out("use --force to compute on an invalid spec")
    return False


def _render_report(report, ascii_mode, out) -> None:
    out(_pretty(f"[{report.statement}] {report.status}", ascii_mode))
    for item in report.items:
        mark = "ok" if item.ok else "FAIL"
        out(_pretty(f"  {mark:4s} {item.name}", ascii_mode))
        if item.witness is not None:
            out(f"       witness:  {format_form(item.witness)}")
        if item.residual is not None and not item.ok:
            out(f"       residual: {format_form(item.residual)}")
        if item.note:
            out(_pretty(f"       note: {item.note}", ascii_mode))
    for key, value in sorted(report.data.items()):
        out(_pretty(f"  {key}: {value}", ascii_mode))
    for w in report.witnesses:
        out(f"  witness: {format_form(w)}")
    if report.notes:
        out(_pretty(f"  note: {report.notes}", ascii_mode))


def cmd_validate(args, spec, out) -> int:
    integ = check_integrability_relations(spec)
    ak = check_almost_kahler(spec)
    out(f"spec: {spec.name}  (n = {spec.n})")
    _render_report(integ, args.ascii, out)
    out(_pretty(f"almost Kahler: {'yes' if ak.data['almost_kahler'] else 'no'}", args.ascii))
    out(_pretty(f"integrable: {'yes' if ak.data['integrable'] else 'no'}", args.ascii))
    return EXIT_OK if integ.ok else EXIT_REFUTED


def cmd_harmonics(args, spec, out) -> int:
    kind = HarmonicKind.from_str(args.laplacian)
    p, q = _parse_bidegree(args.bidegree)
    space = harmonic_space(kind, p, q, spec)
    out(_pretty(f"H^({p},{q})_{kind.value} on {spec.name}: dimension {space.dim}", args.ascii))
    for f in space.basis:
        out(f"  {format_form(f)}")
    return EXIT_OK


def cmd_primitive(args, spec, out) -> int:
    form = parse_form(args.form, spec.n)
    decomp = primitive_decompose(form, spec)
    out(_pretty(f"primitive decomposition of a degree-{decomp.k} form:", args.ascii))
    if not decomp.parts:
        out("  0")
    for r, beta in decomp.parts:
        prim = "yes" if is_primitive(beta, spec) else "NO"
        line = f"  r={r}: (1/{math.factorial(r)}) L^{r} beta, beta primitive: {prim}"
        out(_pretty(line, args.ascii))
        out(f"       beta = {format_form(beta)}")
    ok = decomp.reassemble(spec) == form
    out(f"reassembly identity: {'ok' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_REFUTED


def cmd_relations(args, spec, out) -> int:
    p, q = _parse_bidegree(args.bidegree)
    report = verify_relations(spec, p, q)
    _render_report(report, args.ascii, out)
    return EXIT_OK if report.ok else EXIT_REFUTED


def cmd_check_form(args, spec, out) -> int:
    kind = HarmonicKind.from_str(args.laplacian)
    form = parse_form(args.form, spec.n)
    cert = is_harmonic(kind, form, spec)
    for cond in cert.conditions:
        status = "= 0" if cond.ok else "!= 0"
        out(_pretty(f"  {cond.label} {status}", args.ascii))
        if not cond.ok:
            out(f"    residual: {format_form(cond.residual)}")
    out("member" if cert.verdict else "non-member")
    return EXIT_OK if cert.verdict else EXIT_REFUTED


def _dimension_tables(spec):
    tables = {}
    for kind in HarmonicKind:
        table = {}
        for p in range(spec.n + 1):
            for q in range(spec.n + 1):
                table[f"{p},{q}"] = harmonic_subspace(kind, p, q, spec).dim
        tables[kind.value] = table
    return tables


def _write_text(path: str, text: str, mode: str) -> None:
    try:
        with open(path, mode, encoding="utf-8") as f:
            f.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def cmd_report(args, spec, out) -> int:
    if spec.has_symbolic_structure():
        raise SymbolicCoefficients(
            f"spec {spec.name!r} has symbolic structure coefficients; "
            "the full report needs Q(i) constants (try check-form)"
        )
    if args.json:
        # refuse an unwritable path before any work; appending nothing leaves
        # a file as it was, and one that did not exist is removed again
        existed = os.path.exists(args.json)
        _write_text(args.json, "", "a")
        if not existed:
            os.remove(args.json)
    tables = _dimension_tables(spec)
    out(f"harmonic dimension tables for {spec.name} (n = {spec.n})")
    header = "      " + "".join(f"q={q:<5d}" for q in range(spec.n + 1))
    for kind in HarmonicKind:
        out(_pretty(f"h^(p,q)_{kind.value}:", args.ascii))
        out(header)
        for p in range(spec.n + 1):
            row = "".join(f"{tables[kind.value][f'{p},{q}']:<6d}" for q in range(spec.n + 1))
            out(f"  p={p} {row}")
    reports = all_statements(spec)
    for report in reports:
        _render_report(report, args.ascii, out)
    document = {
        "schema_version": 1,
        "spec": spec.name,
        "n": spec.n,
        "tables": tables,
        "statements": [r.to_dict() for r in reports],
    }
    text = json.dumps(document, indent=2, sort_keys=True)
    if args.json:
        _write_text(args.json, text + "\n", "w")
        out(f"machine-readable report written to {args.json}")
    else:
        out("--- machine-readable report ---")
        out(text)
    refuted = any(r.status == REFUTED for r in reports)
    return EXIT_REFUTED if refuted else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmonica",
        description="Exact invariant harmonic-form computations on almost "
        "Hermitian Lie group specs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("spec", help="catalog name or path to a spec JSON file")
        p.add_argument("--ascii", action="store_true", help="ASCII-only output")
        p.add_argument(
            "--force", action="store_true", help="compute even if validation fails"
        )

    p = sub.add_parser("validate", help="check d^2 identities and the metric")
    common(p)

    p = sub.add_parser("harmonics", help="echelon basis of a harmonic space")
    common(p)
    p.add_argument("--laplacian", required=True, help="one of d, del, delbar, bc, a")
    p.add_argument("--bidegree", required=True, help="p,q")

    p = sub.add_parser("primitive", help="primitive (Lefschetz) decomposition of a form")
    common(p)
    p.add_argument("--form", required=True, help="form expression, e.g. 'phi[1,3;2]'")

    p = sub.add_parser("relations", help="primitive harmonic-space relations at p,q")
    common(p)
    p.add_argument("--bidegree", required=True, help="p,q")

    p = sub.add_parser("check-form", help="harmonicity certificate for one form")
    common(p)
    p.add_argument("--form", required=True)
    p.add_argument("--laplacian", required=True)

    p = sub.add_parser("report", help="all dimension tables and statements")
    common(p)
    p.add_argument("--json", help="also write the machine-readable report here")

    return parser


_COMMANDS = {
    "validate": cmd_validate,
    "harmonics": cmd_harmonics,
    "primitive": cmd_primitive,
    "relations": cmd_relations,
    "check-form": cmd_check_form,
    "report": cmd_report,
}


_parser = None  # built by the first main call, then reused


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    args.ascii = args.ascii or os.environ.get("HARMONICA_ASCII") == "1"
    out = print
    try:
        spec = _resolve_spec(args.spec)
        if args.command != "validate" and not _gate_validation(spec, args, out):
            return EXIT_REFUTED
        return _COMMANDS[args.command](args, spec, out)
    except HarmonicaError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
