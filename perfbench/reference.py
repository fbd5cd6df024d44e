"""The correctness reference and the checks against it.

reference.json is computed once, from the shipped specs, by
`python3 perfbench/run.py --make-reference`.  It holds:

- per base spec of report-n3: the report's exit code, every dimension table and every
  statement status (an isometric variant must reproduce all three), and the
  sha256 of the unscaled spec's `--json` report text, which the ROADMAP
  requires to stay byte-identical;
- per flat spec that slices-flat8 runs on: the exit code and the sha256 of
  the standard output of each of its CLI calls, on the spec's variant, which
  is the same for every seed;
- per reference seed of the torus6 form stream: one digest per certificate,
  taken over the verdicts, the formatted residuals, the primitivity verdict
  and the primitive parts (worker.certificate_lines).

Known defects stay in the reference as computed; nothing is filtered out.
"""

from __future__ import annotations

import json
from pathlib import Path

PATH = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEEDS = tuple(range(5))


def load() -> dict:
    return json.loads(PATH.read_text(encoding="utf-8"))


def report_entry(op: dict) -> dict:
    """What the reference keeps of one report operation."""
    return {
        "exit_code": op["exit_code"],
        "tables": op["tables"],
        "statuses": op["statuses"],
        "json_sha256": op["json_sha256"],
    }


def report_problems(op: dict, expected: dict, unscaled: bool) -> list:
    """Mismatches of one report operation against its base spec's entry."""
    if op.get("error") is not None:
        return [f"raised {op['error']}"]
    problems = []
    if op["exit_code"] != expected["exit_code"]:
        problems.append(f"exit code {op['exit_code']} != {expected['exit_code']}")
    if "tables" not in op:
        return problems + ["no --json report written"]
    if op["tables"] != expected["tables"]:
        problems.append("dimension tables differ")
    if op["statuses"] != expected["statuses"]:
        problems.append("statement statuses differ")
    if unscaled and op["json_sha256"] != expected["json_sha256"]:
        problems.append("--json report text differs")
    return problems


def slice_entry(op: dict) -> dict:
    """What the reference keeps of one slices-flat8 call."""
    return {"exit_code": op["exit_code"], "stdout_sha256": op["stdout_sha256"]}


def slice_problems(op: dict, expected: dict) -> list:
    """Mismatches of one slices-flat8 call against its entry."""
    if op.get("error") is not None:
        return [f"raised {op['error']}"]
    problems = []
    if op["exit_code"] != expected["exit_code"]:
        problems.append(f"exit code {op['exit_code']} != {expected['exit_code']}")
    if op["stdout_sha256"] != expected["stdout_sha256"]:
        problems.append("standard output differs")
    return problems


def certificate_problems(op: dict, expected_digest: str | None) -> list:
    """Mismatches of one certificate; expected_digest is None off the reference seeds."""
    if op.get("error") is not None:
        return [f"raised {op['error']}"]
    problems = []
    if not op["identities_ok"]:
        problems.append("reassembly or primitivity identity fails")
    if expected_digest is not None and op["digest"] != expected_digest:
        problems.append("certificate digest differs")
    return problems


def write(document: dict) -> None:
    PATH.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
