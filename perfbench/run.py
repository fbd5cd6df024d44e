#!/usr/bin/env python3
"""Benchmark for harmonica: seeded workloads, fresh-interpreter repetitions,
exact output checks, and a traced run for per-layer numbers.

    python3 perfbench/run.py --workload report-n3 --seed 1 --seconds 20 --trace 0

Workloads (BENCHMARK.json gives the reason for each):
  report-n3       `report` on seeded isometric variants of iwasawa_ak,
                  flat_kahler6 and iwasawa_cplx
  slices-flat8    three CLI calls (d-kind harmonic spaces at (2,2) and
                  (2,1), primitive relations at (1,1)) on the flat n = 4
                  spec in perfbench/specs
  certify-torus6  symbolic certificates for a seeded stream of forms on torus6

Every repetition runs in a fresh interpreter (worker.py), one at a time, so
each pays what a CLI user pays: the import, the spec load and cold caches.
A run first draws its inputs from --seed and self-checks them, then measures
set-up alone a few times, then repeats the workload until --seconds have
passed (always at least one repetition).

Every time is reported at nominal host speed: probe.py times a fixed stdlib
workload around each operation, and the operation's time is scaled by the
probe's nominal time over its measured time.  Records keep the raw times.

--trace 0 reports the end-to-end metrics.  --trace 1 instead runs one traced
repetition and reports the per-layer metrics, plus the tracer's overhead
measured on the workload's tiny inputs; the spans go to .perfbench/results/.
A trace run of report-n3 or certify-torus6 also runs one repetition on
reference inputs whose outputs are known exactly: the unscaled specs, whose
--json text must not change by a byte, or a reference seed's certificates.
Timed runs leave that repetition out to keep within the time a full set of
runs may take.

Other modes:
  --tiny            small inputs, for the smoke test (test_smoke.py)
  --check           generator self-check on several seeds, and every unscaled
                    output compared with reference.json
  --make-reference  recompute reference.json; only at a commit whose outputs
                    are trusted

The last line of standard output is the JSON result; the lines before it are
a readable summary.  The full record of a run (provenance, samples, quartiles)
is written to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import probe
import reference
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
RUN_LIMIT_S = 165.0  # a run must end within 180 s
LONG_LIMIT_S = 900.0  # --check and --make-reference
SETUP_PROBES = 5
CERT_REFERENCE_SEED = 0
# Workload-specific names of the generic end-to-end metrics, for the summary.
WORKLOAD_NAMES = {
    "report-n3": {"rep_s": "report_s"},
    "certify-torus6": {"ops_per_s": "certs_per_s", "op_p50_ms": "cert_p50_ms", "op_p99_ms": "cert_p99_ms"},
}


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def quartiles(values: list):
    if len(values) < 2:
        return None
    return statistics.quantiles(values, n=4)


class Harness:
    """Spawns workers for one run and keeps its failure accounting."""

    def __init__(self, label: str, limit_s: float):
        self.work = OUT / "work" / f"{label}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.limit_s = limit_s
        self.t0 = time.monotonic()
        self.jobs = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env.pop("HARMONICA_ASCII", None)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def write(self, name: str, text: str) -> Path:
        path = self.work / name
        path.write_text(text, encoding="utf-8")
        return path

    def elapsed(self) -> float:
        return time.monotonic() - self.t0

    def spawn(
        self, mode: str, specs: list, forms: Path | None = None, spans_out: Path | None = None, calls=()
    ) -> dict:
        """Run one worker to completion; its result, or {"error": ...}."""
        self.jobs += 1
        job = {
            "root": str(ROOT),
            "mode": mode,
            "specs": [str(p) for p in specs],
            "forms": str(forms) if forms else None,
            "calls": list(calls),
            "out_dir": str(self.work),
            "trace": spans_out is not None,
            "spans_out": str(spans_out) if spans_out else None,
        }
        job_path = self.write(f"job-{self.jobs}.json", json.dumps(job))
        probe_before = probe.probe_s()
        spawned_at = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(job_path)],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=max(1.0, self.limit_s - self.elapsed()),
            )
        except subprocess.TimeoutExpired:
            return {"error": f"{mode} worker stopped at the {self.limit_s:.0f} s run limit"}
        try:
            if proc.returncode != 0:
                raise ValueError
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            tail = proc.stderr.strip().splitlines()[-1:] or ["no result line"]
            return {"error": f"{mode} worker exited {proc.returncode}: {tail[0]}"}
        result["setup_s"] = result["ready_at"] - spawned_at
        if "setup_probe_s" in result:
            result["setup_probe_s"] = (probe_before + result["setup_probe_s"]) / 2
        return result

    def account(self, label: str, result: dict, expected_ops: int, check) -> bool:
        """Count one repetition's operations; `check(i, op)` lists problems."""
        if "error" in result:
            self.attempted += expected_ops
            self.failed += expected_ops
            self.problems.append(f"{label}: {result['error']}")
            return False
        for i, op in enumerate(result["ops"]):
            self.attempted += 1
            problems = check(i, op)
            if problems:
                self.failed += 1
                self.problems.append(f"{label} op {i}: {'; '.join(problems)}")
        return len(result["ops"]) == expected_ops


def cli_calls(workload: str, specs: list, out_dir: Path) -> list:
    """The CLI calls one repetition of a report or slices workload times."""
    if workload == "slices-flat8":
        return [[cmd, str(specs[0]), *rest] for cmd, *rest in inputs.FLAT8_SLICES]
    return [["report", str(p), "--json", str(out_dir / f"report-{i}.json")] for i, p in enumerate(specs)]


class Run:
    """One benchmark run of a workload."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool, tiny: bool):
        self.workload, self.seed, self.seconds, self.trace, self.tiny = workload, seed, seconds, trace, tiny
        self.h = Harness(f"{workload}-seed{seed}-trace{int(trace)}", RUN_LIMIT_S)
        self.ref = reference.load()
        self.bases = inputs.WORKLOADS[workload][1 if tiny else 0]
        self.certify = workload == "certify-torus6"
        self.batch = inputs.CERT_BATCH_TINY if tiny else inputs.CERT_BATCH
        self.input_sha: dict = {}
        self.first_outputs: list = []

    # -- inputs ----------------------------------------------------------------

    def _input(self, name: str, text: str) -> Path:
        self.input_sha[name] = sha256_text(text)
        return self.h.write(name, text)

    def make_inputs(self) -> None:
        texts = {name: inputs.variant_text(name, self.seed) for name in self.bases}
        self.specs = [self._input(f"{name}.json", text) for name, text in texts.items()]
        self.forms = None
        if self.certify:
            stream = inputs.form_stream(self.seed, self.batch)
            self.forms = self._input("forms.json", json.dumps(stream, indent=0))
        problems = inputs.self_check(texts)
        bad = {p.split(":")[0] for p in problems}
        self.h.attempted += len(texts)
        self.h.failed += len(bad)
        self.h.problems.extend(f"input self-check: {p}" for p in problems)

    # -- checks ------------------------------------------------------------------

    def _expected_digests(self, seed: int):
        digests = self.ref["certify"].get(str(seed))
        return digests[: self.batch] if digests else None

    def check_variant(self, i: int, op: dict) -> list:
        """Check one timed operation, and that every repetition agrees with the first."""
        if self.certify:
            digests = self._expected_digests(self.seed)
            problems = reference.certificate_problems(op, digests[i] if digests else None)
            output = op.get("digest")
        elif self.workload == "slices-flat8":
            problems = reference.slice_problems(op, self.ref["slices"][self.bases[0]][i])
            output = op.get("stdout_sha256")
        else:
            problems = reference.report_problems(op, self.ref["reports"][self.bases[i]], unscaled=False)
            output = op.get("json_sha256")
        if len(self.first_outputs) <= i:
            self.first_outputs.append(output)
        elif output != self.first_outputs[i]:
            problems.append("output differs from the run's first repetition")
        return problems

    def reference_repetition(self) -> None:
        """Untimed repetition on inputs whose outputs reference.json knows exactly."""
        if self.certify:
            stream = inputs.form_stream(CERT_REFERENCE_SEED, self.batch)
            forms = self.h.write("forms-reference.json", json.dumps(stream, indent=0))
            digests = self._expected_digests(CERT_REFERENCE_SEED)
            result = self.h.spawn("certify", self.specs, forms)
            self.h.account(
                "reference", result, len(stream), lambda i, op: reference.certificate_problems(op, digests[i])
            )
        elif self.workload == "report-n3":
            result = _unscaled_reports(self.h, self.bases)
            self.h.account(
                "reference",
                result,
                len(self.bases),
                lambda i, op: reference.report_problems(op, self.ref["reports"][self.bases[i]], unscaled=True),
            )
        # slices-flat8: a flat variant is the same for every seed, so reference.json
        # already knows every timed call's output exactly.

    # -- repetitions ---------------------------------------------------------------

    def repetition(self, spans_out: Path | None = None):
        if self.certify:
            result = self.h.spawn("certify", self.specs, self.forms, spans_out)
            expected = self.batch
        else:
            calls = cli_calls(self.workload, self.specs, self.h.work)
            result = self.h.spawn("cli", self.specs, spans_out=spans_out, calls=calls)
            expected = len(calls)
        ok = self.h.account("repetition", result, expected, self.check_variant)
        return result if ok else None

    def run(self) -> dict:
        try:
            self.make_inputs()
            if self.trace:
                return self._traced()
            return self._timed()
        finally:
            self.h.close()

    def _timed(self) -> dict:
        probes = []
        for i in range(1 + (1 if self.tiny else SETUP_PROBES)):
            result = self.h.spawn("setup", self.specs, self.forms)
            if "error" in result:
                self.h.problems.append(f"set-up probe: {result['error']}")
            elif i > 0:  # the first probe warms the file cache and bytecode
                probes.append(result)
        reps = []
        started = time.monotonic()
        while True:
            rep_started = time.monotonic()
            result = self.repetition()
            if result is not None:
                reps.append(result)
            rep_s = time.monotonic() - rep_started
            if time.monotonic() - started >= self.seconds:
                break
            if self.h.elapsed() + 1.5 * rep_s > RUN_LIMIT_S:
                break
        return self._end_to_end(probes, reps)

    def _end_to_end(self, probes: list, reps: list) -> dict:
        """Metrics at nominal host speed, from per-operation medians over
        the run's repetitions.

        Each time is scaled by NOMINAL_PROBE_S / the probe time that goes
        with it (probe.py), which takes out the host's changes of speed.
        Set-up is scaled by the probe taken just before the spawn and the
        one the worker takes first.
        """
        def nominal(seconds: float, probe_s: float) -> float:
            return seconds * probe.NOMINAL_PROBE_S / probe_s

        setup_raw = [r["setup_s"] for r in probes + reps]
        setup = [nominal(r["setup_s"], r["setup_probe_s"]) for r in probes + reps]
        n_ops = len(reps[0]["ops"]) if reps else 0
        per_op = [
            statistics.median(nominal(r["ops"][i]["seconds"], r["ops"][i]["probe_s"]) for r in reps)
            for i in range(n_ops)
        ]
        latencies = sorted(per_op)
        rss = [r["peak_rss_kb"] / 1024 for r in reps]
        samples = {
            "setup_s": setup,
            "setup_raw_s": setup_raw,
            "rep_s": [sum(nominal(op["seconds"], op["probe_s"]) for op in r["ops"]) for r in reps],
            "rep_raw_s": [sum(op["seconds"] for op in r["ops"]) for r in reps],
            "probe_ms": [op["probe_s"] * 1000 for r in reps for op in r["ops"]],
            "op_median_ms": [x * 1000 for x in per_op],
            "peak_rss_mb": rss,
        }
        metrics = {}
        if reps:
            metrics = {
                "setup_s": statistics.median(setup),
                "rep_s": sum(per_op),
                "ops_per_s": len(per_op) / sum(per_op),
                "op_p50_ms": percentile(latencies, 0.50) * 1000,
                "op_p99_ms": percentile(latencies, 0.99) * 1000,
                "peak_rss_mb": max(rss),
            }
        counts = {"repetitions": len(reps), "operations": len(per_op), "set_ups": len(setup)}
        return {"metrics": metrics, "samples": samples, "counts": counts}

    def _traced(self) -> dict:
        """Per-layer metrics from one traced repetition of the workload.

        The tracer's overhead is measured on the workload's tiny inputs, one
        untraced and one traced repetition, which keeps a trace run short.
        """
        self.h.spawn("setup", self.specs, self.forms)  # warms the file cache and bytecode
        self.reference_repetition()
        spans = OUT / "results" / f"spans-{self.workload}-seed{self.seed}"
        spans.parent.mkdir(parents=True, exist_ok=True)
        traced = self.repetition(spans_out=spans)
        overhead = self._overhead_ratio()
        metrics = {}
        if traced is not None and overhead is not None:
            metrics = dict(traced["layers"])
            metrics["trace.overhead_ratio"] = overhead
        counts = {"repetitions": 1, "spans_file": str(spans.relative_to(ROOT)) + ".spans"}
        return {"metrics": metrics, "samples": {}, "counts": counts}

    def _overhead_ratio(self):
        bases = inputs.WORKLOADS[self.workload][1]
        specs = [self.h.write(f"tiny-{name}.json", inputs.variant_text(name, self.seed)) for name in bases]
        forms = None
        if self.certify:
            stream = inputs.form_stream(self.seed, inputs.CERT_BATCH_TINY)
            forms = self.h.write("tiny-forms.json", json.dumps(stream))
        mode = "certify" if self.certify else "cli"
        calls = () if self.certify else cli_calls(self.workload, specs, self.h.work)
        pair = [self.h.spawn(mode, specs, forms, spans, calls) for spans in (None, self.h.work / "tiny-spans")]
        if any("error" in r or any(op.get("error") for op in r["ops"]) for r in pair):
            self.h.problems.append(f"overhead pair failed: {pair}")
            return None
        untraced, traced = (sum(op["seconds"] for op in r["ops"]) for r in pair)
        return traced / untraced


# -- provenance and output ---------------------------------------------------------


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    src = ROOT / "src" / "harmonica"
    for path in sorted(p for p in src.rglob("*") if p.suffix in (".py", ".json")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(args, input_sha: dict) -> dict:
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "inputs_sha256": input_sha,
    }


def load_benchmark() -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layer_names = [m["name"] for m in bench["per_layer"]]
    if layer_names != [*tracer.LAYER_METRICS, "trace.overhead_ratio"]:
        raise SystemExit("BENCHMARK.json per_layer does not match tracer.LAYER_METRICS")
    return bench


def run_workload(args) -> int:
    bench = load_benchmark()
    units = {m["name"]: m["unit"] for m in bench["end_to_end" if args.trace == 0 else "per_layer"]}
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    outcome = run.run()
    h = run.h
    metrics = outcome["metrics"]
    missing = [name for name in units if name not in metrics]
    if missing:
        h.problems.append(f"no value for {', '.join(missing)}")
    record = {
        "provenance": provenance(args, run.input_sha),
        "attempted": h.attempted,
        "failed": h.failed,
        "error_rate": h.failed / h.attempted if h.attempted else 1.0,
        "problems": h.problems,
        "metrics": metrics,
        "quartiles": {k: quartiles(v) for k, v in outcome["samples"].items()},
        "samples": outcome["samples"],
        "counts": outcome["counts"],
        "run_s": h.elapsed(),
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    aliases = WORKLOAD_NAMES.get(args.workload, {}) if args.trace == 0 else {}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  {outcome['counts']}")
    for name, unit in units.items():
        alias = f" ({aliases[name]})" if name in aliases else ""
        print(f"  {name}{alias} = {metrics.get(name)} {unit}")
    print(f"  error_rate = {record['error_rate']} ({h.failed} failed / {h.attempted} attempted)")
    for problem in h.problems[:20]:
        print(f"  problem: {problem}")
    print(f"record: {record_path.relative_to(ROOT)}")
    result = {
        "correct": h.failed == 0 and not h.problems,
        "attempted": h.attempted,
        "failed": h.failed,
        "metrics": {name: {"value": metrics.get(name), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def _unscaled_reports(h: Harness, names) -> dict:
    paths = [h.write(f"unscaled-{name}.json", inputs.base_text(name)) for name in names]
    return h.spawn("cli", paths, calls=cli_calls("report-n3", paths, h.work))


def _slices(h: Harness, name: str) -> dict:
    """The slices-flat8 calls on the variant of a flat spec, which is the
    same for every seed."""
    path = h.write(f"slices-{name}.json", inputs.variant_text(name, 0))
    return h.spawn("cli", [path], calls=cli_calls("slices-flat8", [path], h.work))


def check_all() -> int:
    """Generator self-check on several seeds, and every unscaled output
    against reference.json."""
    ref = reference.load()
    names = [name for bases, _ in inputs.WORKLOADS.values() for name in bases]
    h = Harness("check", LONG_LIMIT_S)
    try:
        for seed in range(3):
            problems = inputs.self_check({name: inputs.variant_text(name, seed) for name in names})
            h.problems.extend(f"seed {seed}: {p}" for p in problems)
        reportable = list(ref["reports"])
        result = _unscaled_reports(h, reportable)
        h.account(
            "unscaled",
            result,
            len(reportable),
            lambda i, op: reference.report_problems(op, ref["reports"][reportable[i]], unscaled=True),
        )
        for name, entries in ref["slices"].items():
            h.account(
                f"slices {name}",
                _slices(h, name),
                len(entries),
                lambda i, op: reference.slice_problems(op, entries[i]),
            )
        torus = h.write("torus6.json", inputs.base_text("torus6"))
        for seed in reference.REFERENCE_SEEDS:
            stream = inputs.form_stream(seed, inputs.CERT_BATCH)
            forms = h.write(f"forms-{seed}.json", json.dumps(stream))
            digests = ref["certify"][str(seed)]
            h.account(
                f"certify seed {seed}",
                h.spawn("certify", [torus], forms),
                len(stream),
                lambda i, op: reference.certificate_problems(op, digests[i]),
            )
    finally:
        h.close()
    for problem in h.problems:
        print(f"problem: {problem}")
    print(f"check: {h.attempted - h.failed}/{h.attempted} operations match reference.json; "
          f"{len(h.problems)} problems")
    return 0 if not h.problems else 1


def make_reference() -> int:
    names = sorted({name for bases in inputs.WORKLOADS["report-n3"] for name in bases})
    flat = sorted({name for bases in inputs.WORKLOADS["slices-flat8"] for name in bases})
    h = Harness("make-reference", LONG_LIMIT_S)
    try:
        result = _unscaled_reports(h, names)
        if "error" in result or any(op.get("error") for op in result["ops"]):
            raise SystemExit(f"reference reports failed: {result}")
        document = {
            "git_sha": _git_sha(),
            "src_sha256": _src_sha256(),
            "reports": {name: reference.report_entry(op) for name, op in zip(names, result["ops"])},
            "slices": {},
            "certify": {"batch": inputs.CERT_BATCH},
        }
        for name in flat:
            result = _slices(h, name)
            if "error" in result or any(op.get("error") for op in result["ops"]):
                raise SystemExit(f"reference slices failed for {name}: {result}")
            document["slices"][name] = [reference.slice_entry(op) for op in result["ops"]]
        torus = h.write("torus6.json", inputs.base_text("torus6"))
        for seed in reference.REFERENCE_SEEDS:
            forms = h.write(f"forms-{seed}.json", json.dumps(inputs.form_stream(seed, inputs.CERT_BATCH)))
            result = h.spawn("certify", [torus], forms)
            if "error" in result or any(op.get("error") or not op["identities_ok"] for op in result["ops"]):
                raise SystemExit(f"reference certificates failed for seed {seed}")
            document["certify"][str(seed)] = [op["digest"] for op in result["ops"]]
    finally:
        h.close()
    reference.write(document)
    print(f"wrote {reference.PATH.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    parser.add_argument("--check", action="store_true", help="self-check against reference.json")
    parser.add_argument("--make-reference", action="store_true", help="recompute reference.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "harmonica" / "__init__.py").is_file():
        print(f"error: no harmonica sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.make_reference:
        return make_reference()
    if args.check:
        return check_all()
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
