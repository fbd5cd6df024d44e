"""One benchmark repetition, run in a fresh interpreter by run.py.

    python3 perfbench/worker.py JOB.json

The job names the checkout root, the mode ("setup", "cli" or "certify"),
the generated spec files and form file, the CLI calls to time, and whether
to trace.
Set-up is the interpreter start, the harmonica import and loading the inputs
through the engine (`load_spec_path`, `parse_form`).  The worker prints one
JSON line: the monotonic time at which set-up ended, per-operation timings
with their host-speed probe times (probe.py; none in a traced run), the
outputs run.py checks, and its peak RSS.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from probe import Clock, SpeedProbe  # perfbench/ is sys.path[0] for this script


def _import_engine(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import harmonica

    if Path(harmonica.__file__).resolve().parent.parent != src:
        raise SystemExit(f"harmonica imported from {harmonica.__file__}, not from {src}")
    from harmonica import cli  # noqa: F401  (imports every engine module)

    return harmonica


def _json_path(argv: list):
    return Path(argv[argv.index("--json") + 1]) if "--json" in argv else None


def _run_calls(harmonica, job, tracer, probe):
    """Time each CLI call of the job; returns the ops, read back afterwards."""
    out = []
    for i, argv in enumerate(job["calls"]):
        out_json = _json_path(argv)
        if out_json is not None:
            out_json.unlink(missing_ok=True)
        if tracer is not None:
            tracer.request = i
        error = None
        stdout = io.StringIO()
        with Clock(probe) as clock:
            try:
                with contextlib.redirect_stdout(stdout):
                    code = harmonica.cli.main(argv)
            except (Exception, SystemExit) as exc:
                code, error = None, repr(exc)
        out.append({"exit_code": code, "error": error, "stdout": stdout.getvalue(), "argv": argv, "clock": clock})
    return out


def _check_calls(timed):
    """Digest each call's standard output and read back its --json report;
    runs untimed."""
    ops = []
    for op in timed:
        out_json = _json_path(op.pop("argv"))
        op.update(op.pop("clock").record())
        op["stdout_sha256"] = hashlib.sha256(op.pop("stdout").encode("utf-8")).hexdigest()
        if op["error"] is None and out_json is not None and out_json.exists():
            text = out_json.read_text(encoding="utf-8")
            doc = json.loads(text)
            op["json_sha256"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
            op["tables"] = doc["tables"]
            op["statuses"] = [[s["statement"], s["status"]] for s in doc["statements"]]
        ops.append(op)
    return ops


def certificate_lines(harmonica, form, certs, primitive, parts, reassembled, parts_primitive):
    """The text a certificate digest is taken over."""
    fmt = harmonica.format_form
    lines = [fmt(form)]
    for cert in certs:
        lines.append(
            f"{cert.kind} {'member' if cert.verdict else 'non-member'}: "
            + "; ".join(f"{c.label} -> {fmt(c.residual)}" for c in cert.conditions)
        )
    lines.append(f"primitive: {primitive}")
    lines.extend(f"r={r}: {fmt(beta)}" for r, beta in parts)
    lines.append(f"reassembly: {reassembled}; parts primitive: {parts_primitive}")
    return lines


def _run_certificates(harmonica, spec, forms, tracer, probe):
    """Time each certificate; returns (op, outputs) pairs checked afterwards."""
    kinds = list(harmonica.HarmonicKind)
    is_harmonic, is_primitive = harmonica.is_harmonic, harmonica.is_primitive
    primitive_decompose = harmonica.primitive_decompose
    out = []
    for i, form in enumerate(forms):
        if tracer is not None:
            tracer.request = i
        error = outputs = None
        with Clock(probe) as clock:
            try:
                certs = [is_harmonic(kind, form, spec) for kind in kinds]
                primitive = is_primitive(form, spec)
                decomposition = primitive_decompose(form, spec)
                reassembled = decomposition.reassemble(spec) == form
                outputs = (form, certs, primitive, decomposition.parts, reassembled)
            except Exception as exc:
                error = repr(exc)
        out.append(({"error": error, "clock": clock}, outputs))
    return out


def _check_certificates(harmonica, spec, timed):
    """Digest each certificate and check the reassembly and primitivity
    identities; runs untraced and untimed."""
    ops = []
    for op, outputs in timed:
        op.update(op.pop("clock").record())
        if outputs is not None:
            form, certs, primitive, parts, reassembled = outputs
            parts_primitive = all(harmonica.is_primitive(beta, spec) for _, beta in parts)
            lines = certificate_lines(
                harmonica, form, certs, primitive, parts, reassembled, parts_primitive
            )
            op["digest"] = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]
            op["identities_ok"] = reassembled and parts_primitive
        ops.append(op)
    return ops


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    harmonica = _import_engine(Path(job["root"]))
    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    specs = [harmonica.load_spec_path(p) for p in job["specs"]]
    forms = []
    if job.get("forms"):
        texts = json.loads(Path(job["forms"]).read_text(encoding="utf-8"))
        forms = [harmonica.parse_form(t, specs[0].n) for t in texts]
    ready_at = time.monotonic()
    result = {"ready_at": ready_at}
    probe = None if tracer is not None else SpeedProbe()
    if probe is not None:
        probe.start()
    if job["mode"] == "cli":
        timed = _run_calls(harmonica, job, tracer, probe)
    elif job["mode"] == "certify":
        timed = _run_certificates(harmonica, specs[0], forms, tracer, probe)
    if probe is not None:
        probe.stop()
        result["setup_probe_s"] = probe.samples[0][1]
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        tracer.write(Path(job["spans_out"]))
    if job["mode"] == "cli":
        result["ops"] = _check_calls(timed)
    elif job["mode"] == "certify":
        result["ops"] = _check_certificates(harmonica, specs[0], timed)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
