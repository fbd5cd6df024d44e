import ast
import builtins
import functools
import hashlib
import itertools
import json
import subprocess
import sys
import time

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonica import errors, harmonic
from harmonica.cli import _pretty, _read_argv, build_parser, main
from harmonica.forms import basis_multiindices, format_form, parse_form
from harmonica.library import _golden_text
from harmonica.linalg import Subspace
from harmonica.structure import check_integrability_relations


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BROKEN_DOC = """{
  "name": "broken", "n": 1, "generators": ["phi1"],
  "d": {"phi1": [{"coeff": {"re": "1", "im": "0"}, "hol": [], "anti": [1]}]},
  "omega": ["1"], "symbols": [], "conjugates": {}, "derivations": {}
}"""


class TestValidate:
    def test_iwasawa_ak(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "iwasawa_ak")
        assert code == 0
        assert "almost Kahler: yes" in out
        assert "integrable: no" in out

    def test_iwasawa_cplx(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "iwasawa_cplx")
        assert code == 0
        assert "integrable: yes" in out

    @pytest.mark.parametrize("name", ["torus6", "iwasawa_ak", "iwasawa_cplx", "flat_kahler6"])
    def test_catalog_specs_are_unimodular(self, capsys, name):
        code, out, _ = run_cli(capsys, "validate", name)
        assert code == 0
        assert out.splitlines()[-2].startswith("integrable: ")
        assert out.splitlines()[-1] == "unimodular: yes"

    def test_broken_spec(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(BROKEN_DOC)
        code, out, _ = run_cli(capsys, "validate", str(path))
        assert code == 1
        assert "FAIL" in out
        assert "witness" in out

    def test_unknown_spec(self, capsys):
        code, _, err = run_cli(capsys, "validate", "nosuch")
        assert code == 2
        assert "nosuch" in err


class TestHarmonics:
    def test_iwasawa_bc_21(self, capsys):
        code, out, _ = run_cli(
            capsys, "harmonics", "iwasawa_ak", "--laplacian", "bc", "--bidegree", "2,1"
        )
        assert code == 0
        assert "dimension 2" in out
        basis_lines = [l.strip() for l in out.splitlines() if l.startswith("  ")]
        assert basis_lines == [
            "(1,0)*phi[1,3;1] + (1,0)*phi[2,3;2]",
            "(1,0)*phi[1,3;2] + (1,0)*phi[2,3;1] + (0,-2)*phi[2,3;2]",
        ]

    def test_flat_a_11(self, capsys):
        code, out, _ = run_cli(
            capsys, "harmonics", "flat_kahler6", "--laplacian", "a", "--bidegree", "1,1"
        )
        assert code == 0
        assert "dimension 9" in out

    def test_symbolic_unsupported(self, capsys):
        code, _, err = run_cli(
            capsys, "harmonics", "torus6", "--laplacian", "bc", "--bidegree", "1,1"
        )
        assert code == 3
        assert "symbolic" in err

    def test_printed_basis_reparses(self, capsys):
        for kind in ("d", "del", "delbar", "bc", "a"):
            code, out, _ = run_cli(
                capsys, "harmonics", "iwasawa_ak", "--laplacian", kind, "--bidegree", "1,1"
            )
            assert code == 0
            for line in out.splitlines():
                if line.startswith("  "):
                    parse_form(line.strip(), 3)

    def test_bad_bidegree(self, capsys):
        code, _, err = run_cli(
            capsys, "harmonics", "iwasawa_ak", "--laplacian", "bc", "--bidegree", "x"
        )
        assert code == 2

    def test_bidegree_out_of_range(self, capsys):
        code, _, err = run_cli(
            capsys, "harmonics", "iwasawa_ak", "--laplacian", "bc", "--bidegree", "9,9"
        )
        assert code == 3
        assert "out of range" in err


class TestCrossCheckFailure:
    """A disagreement inside the harmonic-space cross-check is exit 1 with
    one stderr line, not a traceback."""

    def _run(self, capsys, tmp_path):
        # a spec file, so the computation starts from an empty cache
        path = tmp_path / "iwasawa_ak.json"
        path.write_text(_golden_text("iwasawa_ak"), encoding="utf-8")
        return run_cli(capsys, "harmonics", str(path), "--laplacian", "bc", "--bidegree", "2,1")

    def test_wrong_laplacian_kernel(self, capsys, tmp_path, monkeypatch):
        m = len(basis_multiindices(3, 2, 1))
        zero = lambda kind, p, q, spec: Subspace((), m)  # the reduction of the zero matrix
        monkeypatch.setattr(harmonic, "_laplacian_nullspace", zero)
        code, out, err = self._run(capsys, tmp_path)
        assert code == 1
        assert out == ""
        assert err == (
            "cross-check failed: condition kernel and Laplacian nullspace disagree "
            "for bc at (2,1) on 'iwasawa_ak'\n"
        )

    # del leaves the degree; mu del* keeps the degree but moves (2,1) to (3,0)
    @pytest.mark.parametrize("word", [("del",), ("mu", "del*")])
    def test_laplacian_image_leaves_block(self, capsys, tmp_path, monkeypatch, word):
        monkeypatch.setitem(harmonic.LAPLACIAN_WORDS, "bc", (word,))
        code, _, err = self._run(capsys, tmp_path)
        assert code == 1
        assert err.startswith(
            "cross-check failed: Laplacian image leaves the expected space "
            "for bc at (2,1) on 'iwasawa_ak': "
        )
        assert err.count("\n") == 1 and "Traceback" not in err


class TestCheckForm:
    def test_member(self, capsys):
        code, out, _ = run_cli(
            capsys, "check-form", "torus6", "--form", "phi[2;1]", "--laplacian", "delbar"
        )
        assert code == 0
        assert out.strip().endswith("member")

    def test_non_member_with_residual(self, capsys):
        code, out, _ = run_cli(
            capsys, "check-form", "torus6", "--form", "phi[1;2]", "--laplacian", "a"
        )
        assert code == 1
        assert "non-member" in out
        assert "residual" in out
        assert "g3*g3c" in out


class TestRelations:
    def test_iwasawa_21(self, capsys):
        code, out, _ = run_cli(
            capsys, "relations", "iwasawa_ak", "--bidegree", "2,1"
        )
        assert code == 0
        assert "all four primitive spaces equal" in out

    def test_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "relations", "iwasawa_ak", "--bidegree", "3,3")
        assert code == 3

    @pytest.mark.parametrize("bidegree", ["0,2", "1,1"])
    def test_not_almost_kahler(self, capsys, bidegree):
        """A spec with d omega != 0 is unsupported: exit 3, no stdout, and
        one stderr line, at a bidegree that read refuted and one that read
        verified."""
        code, out, err = run_cli(capsys, "relations", "iwasawa_cplx", "--bidegree", bidegree)
        assert (code, out) == (3, "")
        assert err == "unsupported: spec 'iwasawa_cplx' is not almost Kahler (d omega != 0)\n"


class TestPrimitive:
    def test_decomposition_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "primitive", "iwasawa_ak", "--form", "(0,1)*phi[1;1]"
        )
        assert code == 0
        assert "r=0" in out and "r=1" in out
        assert "reassembly identity: ok" in out

    @pytest.mark.parametrize("form", ["0", "phi[1;1] - phi[1;1]"])
    def test_zero_form_has_no_parts(self, capsys, form):
        code, out, err = run_cli(capsys, "primitive", "iwasawa_ak", "--form", form)
        assert (code, err) == (0, "")
        assert out == "primitive decomposition of a degree-0 form:\n  0\nreassembly identity: ok\n"


class TestReport:
    def test_flat_report_json(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "report", "flat_kahler6", "--json", str(target))
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["schema_version"] == 1
        assert doc["spec"] == "flat_kahler6"
        assert doc["tables"]["bc"]["1,1"] == 9
        assert all(s["status"] == "verified" for s in doc["statements"])

    def test_inline_json(self, capsys):
        code, out, _ = run_cli(capsys, "report", "iwasawa_ak")
        assert code == 0
        marker = "--- machine-readable report ---"
        assert marker in out
        doc = json.loads(out.split(marker, 1)[1])
        assert doc["tables"]["bc"]["2,1"] == 2

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "report", "iwasawa_ak")
        _, out2, _ = run_cli(capsys, "report", "iwasawa_ak")
        assert out1 == out2

    def test_symbolic_unsupported(self, capsys):
        code, _, err = run_cli(capsys, "report", "torus6")
        assert code == 3

    # sha256 of the full default (non-ASCII) stdout of `harmonica report <name>`:
    # the CLI text and the inline JSON report must stay byte-identical.
    @pytest.mark.parametrize(
        "name, digest",
        [
            ("iwasawa_ak", "983d81586508a90100fef979a3fa17151fcefe3958c9267bbf946529f57dc788"),
            ("flat_kahler6", "3d79dbe8f09eb2f10105be7761a7ad519dae1917730ed597105a587200684bc3"),
            ("iwasawa_cplx", "34776ce209b77a5657dc6bd4946d78cef9a65dc2bed0ccde84b0b183726a99b3"),
        ],
    )
    def test_golden_bytes(self, capsys, monkeypatch, name, digest):
        monkeypatch.delenv("HARMONICA_ASCII", raising=False)
        code, out, _ = run_cli(capsys, "report", name)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def _flat_document(n):
    generators = [f"phi{a}" for a in range(1, n + 1)]
    return {
        "name": f"flat{2 * n}",
        "n": n,
        "generators": generators,
        "d": {g: [] for g in generators},
        "omega": ["1"] * n,
        "symbols": [],
        "conjugates": {},
        "derivations": {},
        "depth_limit": 3,
        "auto_fresh": True,
    }


def _times_torus_document(name, k):
    """The catalog spec times a flat 2k-torus: k more generators with d = 0
    and omega coefficient 1."""
    doc = json.loads(_golden_text(name))
    for a in range(doc["n"] + 1, doc["n"] + k + 1):
        doc["generators"].append(f"phi{a}")
        doc["d"][f"phi{a}"] = []
        doc["omega"].append("1")
    doc["n"] += k
    doc["name"] = f"{name}_x_T{2 * k}"
    return doc


class TestGoldenAboveN3:
    """sha256 of the full default stdout of `harmonica report` on two n = 5
    specs and two n = 6 specs (flat, and `iwasawa_ak` times T^6), each
    written to a file first, so the report starts cold."""

    @pytest.mark.parametrize(
        "document, size, digest",
        [
            (
                _flat_document(5),
                277482,
                "6b20c7fda21e03e27889fa1f4823308f32770f07c744a51c2640107fda61a9fe",
            ),
            (
                _times_torus_document("iwasawa_ak", 2),
                195926,
                "57e51005c1584ff5d85548fec03e53738ef7f0b4289c4f86697aa8d4ccbb9c10",
            ),
            (
                _flat_document(6),
                974133,
                "f32155aa133d7fef13c5a718ca8684ecbbd21ccff1536c12c0b19fcac359b0be",
            ),
            (
                _times_torus_document("iwasawa_ak", 3),
                628940,
                "119327e0186aaa6f7d0ff84c46f7e3c76db3033934d4c14f1cede46dd5bf130e",
            ),
        ],
        ids=["flat10", "iwasawa_ak_x_T4", "flat12", "iwasawa_ak_x_T6"],
    )
    def test_report_bytes(self, capsys, monkeypatch, tmp_path, document, size, digest):
        monkeypatch.delenv("HARMONICA_ASCII", raising=False)
        path = tmp_path / f"{document['name']}.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        code, out, _ = run_cli(capsys, "report", str(path))
        assert code == 0
        data = out.encode("utf-8")
        assert len(data) == size
        assert hashlib.sha256(data).hexdigest() == digest


class TestSymbolicGolden:
    """sha256 of the full default stdout of `check-form` and `primitive` on
    symbolic torus6 forms: the symbolic d, star and Lefschetz path of a Form
    must stay byte-identical.  Every check-form here is a non-member (exit 1)."""

    FORMS = (
        "g3*phi[2;1] + phi[1;3]",
        "(1,2)*g33*phi[1,3;2] + g3c*phi[2,3;1]",
        "g3*g3c*phi[1;1] + (0,1)*g33*phi[2;3] - phi[3;2]",
    )
    CHECK_FORM = {
        (0, "d"): "060cbea98a9f47329f4ef285c4131015b4e8ac26d93fbcc287c866d9f8bcad5f",
        (0, "del"): "b7b5b8357f65adc7f25e9840b263104b38d29053b2fb327983622b268d5d150c",
        (0, "delbar"): "c9f33419c9b9827502175f2a0733d1e25b727d6bac3213edd57a86acba3aefcf",
        (0, "bc"): "0cefd770b4c097629e235b9feed56ff31405bc54573d26fbe7e0e06d23792760",
        (0, "a"): "50626cf0c1c023d887f4d2b02ed3a3c8a76773aae3dba73000a4ba53f89b7ab5",
        (1, "d"): "fa9917775a66c581e78c94608e1acf616b77e906b5301563a3f6a97506e81b5d",
        (1, "del"): "e9aee099f002ecf02ea24692549fef542adaeb085ef9b5711c3265898b71454d",
        (1, "delbar"): "1f0b5db3b700c9b7de8374405e58814687fcf27616db8f85d2b38ca7886f362a",
        (1, "bc"): "582e53f238b271d3f598a67577f90f1e92fabc56a11b2a1d120777f85a736ed5",
        (1, "a"): "9c2ee1b7b941f819a783df52092ec493c0be7fe2f8b7311bac7189d8a42bd80e",
        (2, "d"): "3232b57c8729921e227e0fef772e26f3689733b5c0ea8b7553941438c9a874af",
        (2, "del"): "09e2dab9586bc1f728541d9249ca731ee1788540c16348e698a13006670d9499",
        (2, "delbar"): "d935445154fe4eb11e8d4bca9bc405125a055666c454e30589b9a5f13d97ec80",
        (2, "bc"): "645ef61b9a750eb8b017893f2cda5c406de3a96ac4cace68726c00add9b4c762",
        (2, "a"): "22dd98bc55f723f55bc518cd3b7c7d4325b66fbf1d3604176123dae97ac15092",
    }
    PRIMITIVE = {
        "g3*phi[1;1] + (0,1)*g33*phi[2;2] + phi[1;2]":
            "99852f0bb470d0ea98782f15d42b9782daa6fbf4a27306f8d4936993b3724e2d",
        "g3c*phi[1,2;1,2] + g3*phi[1,3;2,3] - (2,0)*phi[2,3;2,3]":
            "4844ef2a46e7a039df3e18d5cd43fe2e06ea0da1fb6e3c30e8fb3f6e47c35229",
    }

    @pytest.mark.parametrize("case", sorted(CHECK_FORM), ids=str)
    def test_check_form(self, capsys, monkeypatch, case):
        monkeypatch.delenv("HARMONICA_ASCII", raising=False)
        form, kind = self.FORMS[case[0]], case[1]
        code, out, _ = run_cli(capsys, "check-form", "torus6", "--form", form, "--laplacian", kind)
        assert code == 1
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == self.CHECK_FORM[case]

    @pytest.mark.parametrize("form", sorted(PRIMITIVE))
    def test_primitive(self, capsys, monkeypatch, form):
        monkeypatch.delenv("HARMONICA_ASCII", raising=False)
        code, out, _ = run_cli(capsys, "primitive", "torus6", "--form", form)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == self.PRIMITIVE[form]


class TestAsciiMode:
    def test_flag_and_env_agree(self, capsys, monkeypatch):
        _, flagged, _ = run_cli(capsys, "validate", "iwasawa_ak", "--ascii")
        assert "∂" not in flagged
        monkeypatch.setenv("HARMONICA_ASCII", "1")
        _, enved, _ = run_cli(capsys, "validate", "iwasawa_ak")
        assert flagged == enved

    def test_default_uses_unicode(self, capsys):
        _, out, _ = run_cli(capsys, "validate", "iwasawa_ak")
        assert "∂" in out


class TestEntryPoint:
    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "harmonica.cli", "validate", "flat_kahler6"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "almost Kahler: yes" in proc.stdout


class TestOneParserPerProcess:
    """Consecutive main calls share one parser and answer as fresh
    processes do: same stdout, stderr and exit code, an argparse usage
    error and --help included."""

    def test_consecutive_calls_match_fresh_processes(self, capsys, monkeypatch, tmp_path):
        from harmonica import cli

        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
        built = []
        build = cli.build_parser

        def counting_build():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counting_build)
        calls = [
            ["harmonics", "iwasawa_ak", "--laplacian", "bc", "--bidegree", "2,1"],
            ["report", "iwasawa_cplx", "--json", str(tmp_path / "report.json")],
            ["harmonics", "iwasawa_ak", "--laplacian", "bc"],
            ["--help"],
            ["harmonics", "iwasawa_ak", "--laplacian", "bc", "--bidegree", "2,1"],
        ]
        in_process = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
        assert built == [1]
        assert [code for code, _, _ in in_process] == [0, 0, 2, 0, 0]
        for argv, result in zip(calls, in_process):
            proc = subprocess.run(
                [sys.executable, "-m", "harmonica.cli", *argv], capture_output=True, text=True
            )
            assert (proc.returncode, proc.stdout, proc.stderr) == result, argv

    def test_import_builds_no_parser(self):
        proc = subprocess.run(
            [sys.executable, "-c", "from harmonica import cli; print(cli._parser)"],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stdout) == (0, "None\n")


# Help and usage errors as argparse printed them before the option table
# existed, with COLUMNS=80 (argparse wraps to the terminal width).  "--a" on
# harmonics abbreviates --ascii; "--f" on check-form is ambiguous.
USAGE_GOLDENS = {
    ("--help",): (
        0,
        (
            "usage: harmonica [-h]\n"
            "                 {validate,harmonics,primitive,relations,check-form,report}\n"
            "                 ...\n"
            "\n"
            "Exact invariant harmonic-form computations on almost Hermitian Lie group\n"
            "specs.\n"
            "\n"
            "positional arguments:\n"
            "  {validate,harmonics,primitive,relations,check-form,report}\n"
            "    validate            check d^2 identities and the metric\n"
            "    harmonics           echelon basis of a harmonic space\n"
            "    primitive           primitive (Lefschetz) decomposition of a form\n"
            "    relations           primitive harmonic-space relations at p,q\n"
            "    check-form          harmonicity certificate for one form\n"
            "    report              all dimension tables and statements\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
        ),
        "",
    ),
    ("validate", "--help"): (
        0,
        (
            "usage: harmonica validate [-h] [--ascii] [--force] spec\n"
            "\n"
            "positional arguments:\n"
            "  spec        catalog name or path to a spec JSON file\n"
            "\n"
            "options:\n"
            "  -h, --help  show this help message and exit\n"
            "  --ascii     ASCII-only output\n"
            "  --force     compute even if validation fails\n"
        ),
        "",
    ),
    ("harmonics", "--help"): (
        0,
        (
            "usage: harmonica harmonics [-h] [--ascii] [--force] --laplacian LAPLACIAN\n"
            "                           --bidegree BIDEGREE\n"
            "                           spec\n"
            "\n"
            "positional arguments:\n"
            "  spec                  catalog name or path to a spec JSON file\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --ascii               ASCII-only output\n"
            "  --force               compute even if validation fails\n"
            "  --laplacian LAPLACIAN\n"
            "                        one of d, del, delbar, bc, a\n"
            "  --bidegree BIDEGREE   p,q\n"
        ),
        "",
    ),
    ("primitive", "--help"): (
        0,
        (
            "usage: harmonica primitive [-h] [--ascii] [--force] --form FORM spec\n"
            "\n"
            "positional arguments:\n"
            "  spec         catalog name or path to a spec JSON file\n"
            "\n"
            "options:\n"
            "  -h, --help   show this help message and exit\n"
            "  --ascii      ASCII-only output\n"
            "  --force      compute even if validation fails\n"
            "  --form FORM  form expression, e.g. 'phi[1,3;2]'\n"
        ),
        "",
    ),
    ("relations", "--help"): (
        0,
        (
            "usage: harmonica relations [-h] [--ascii] [--force] --bidegree BIDEGREE spec\n"
            "\n"
            "positional arguments:\n"
            "  spec                 catalog name or path to a spec JSON file\n"
            "\n"
            "options:\n"
            "  -h, --help           show this help message and exit\n"
            "  --ascii              ASCII-only output\n"
            "  --force              compute even if validation fails\n"
            "  --bidegree BIDEGREE  p,q\n"
        ),
        "",
    ),
    ("check-form", "--help"): (
        0,
        (
            "usage: harmonica check-form [-h] [--ascii] [--force] --form FORM --laplacian\n"
            "                            LAPLACIAN\n"
            "                            spec\n"
            "\n"
            "positional arguments:\n"
            "  spec                  catalog name or path to a spec JSON file\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --ascii               ASCII-only output\n"
            "  --force               compute even if validation fails\n"
            "  --form FORM\n"
            "  --laplacian LAPLACIAN\n"
        ),
        "",
    ),
    ("report", "--help"): (
        0,
        (
            "usage: harmonica report [-h] [--ascii] [--force] [--json JSON] spec\n"
            "\n"
            "positional arguments:\n"
            "  spec         catalog name or path to a spec JSON file\n"
            "\n"
            "options:\n"
            "  -h, --help   show this help message and exit\n"
            "  --ascii      ASCII-only output\n"
            "  --force      compute even if validation fails\n"
            "  --json JSON  also write the machine-readable report here\n"
        ),
        "",
    ),
    (): (
        2,
        "",
        (
            "usage: harmonica [-h]\n"
            "                 {validate,harmonics,primitive,relations,check-form,report}\n"
            "                 ...\n"
            "harmonica: error: the following arguments are required: command\n"
        ),
    ),
    ("frobnicate", "iwasawa_ak"): (
        2,
        "",
        (
            "usage: harmonica [-h]\n"
            "                 {validate,harmonics,primitive,relations,check-form,report}\n"
            "                 ...\n"
            "harmonica: error: argument command: invalid choice: 'frobnicate' (choose from 'validate', 'harmonics', 'primitive', 'relations', 'check-form', 'report')\n"
        ),
    ),
    ("harmonics", "iwasawa_ak", "--laplacian", "bc"): (
        2,
        "",
        (
            "usage: harmonica harmonics [-h] [--ascii] [--force] --laplacian LAPLACIAN\n"
            "                           --bidegree BIDEGREE\n"
            "                           spec\n"
            "harmonica harmonics: error: the following arguments are required: --bidegree\n"
        ),
    ),
    ("validate", "iwasawa_ak", "--bogus"): (
        2,
        "",
        (
            "usage: harmonica [-h]\n"
            "                 {validate,harmonics,primitive,relations,check-form,report}\n"
            "                 ...\n"
            "harmonica: error: unrecognized arguments: --bogus\n"
        ),
    ),
    ("harmonics", "iwasawa_ak", "--laplacian"): (
        2,
        "",
        (
            "usage: harmonica harmonics [-h] [--ascii] [--force] --laplacian LAPLACIAN\n"
            "                           --bidegree BIDEGREE\n"
            "                           spec\n"
            "harmonica harmonics: error: argument --laplacian: expected one argument\n"
        ),
    ),
    ("harmonics", "iwasawa_ak", "--a"): (
        2,
        "",
        (
            "usage: harmonica harmonics [-h] [--ascii] [--force] --laplacian LAPLACIAN\n"
            "                           --bidegree BIDEGREE\n"
            "                           spec\n"
            "harmonica harmonics: error: the following arguments are required: --laplacian, --bidegree\n"
        ),
    ),
    ("check-form", "iwasawa_ak", "--f", "x"): (
        2,
        "",
        (
            "usage: harmonica check-form [-h] [--ascii] [--force] --form FORM --laplacian\n"
            "                            LAPLACIAN\n"
            "                            spec\n"
            "harmonica check-form: error: ambiguous option: --f could match --force, --form\n"
        ),
    ),
}

class TestUsageGoldens:
    """Help text and usage errors stay byte for byte what argparse printed,
    with their exit codes."""

    @pytest.mark.parametrize("argv", list(USAGE_GOLDENS), ids=lambda argv: " ".join(argv) or "no-argv")
    def test_stdout_stderr_and_exit_code(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out, captured.err) == USAGE_GOLDENS[argv]


# Well-formed argvs per command: its required value options, then the
# optional ones; every command also takes the flags --ascii and --force.
COMMAND_OPTIONS = {
    "validate": ([], []),
    "harmonics": ([["--laplacian", "bc"], ["--bidegree", "2,1"]], []),
    "primitive": ([["--form", "phi[1;2]"]], []),
    "relations": ([["--bidegree", "1,1"]], []),
    "check-form": ([["--form", "phi[1;2]"], ["--laplacian", "d"]], []),
    "report": ([], [["--json", "out.json"]]),
}
FLAGS = [["--ascii"], ["--force"]]
ARGV_VALUES = ["phi[1;2]", "", "-1", "--ascii", "x y", "report", "2,1"]
ARGV_TOKENS = [
    *COMMAND_OPTIONS, "frobnicate", "iwasawa_ak", "phi[1;2]", "", "-1", "-", "x y",
    "--ascii", "--force", "--laplacian", "--bidegree", "--form", "--json",
    "--a", "--lap", "--bi", "--f", "--fo", "--j",
    "--ascii=1", "--force=", "--laplacian=bc", "--json=out.json", "--form=phi[1;2]",
    "-h", "--help", "--",
]


def _every_option_order():
    """Each command with the spec, its required options and each subset of
    its optional ones, in every order."""
    for command, (required, optional) in COMMAND_OPTIONS.items():
        optional = FLAGS + optional
        for k in range(len(optional) + 1):
            for chosen in itertools.combinations(optional, k):
                for order in itertools.permutations([["iwasawa_ak"], *required, *chosen]):
                    yield [command, *itertools.chain.from_iterable(order)]


@st.composite
def _near_well_formed_argvs(draw):
    """A well-formed argv with drawn values, then up to three tokens
    inserted or replaced."""
    command = draw(st.sampled_from(list(COMMAND_OPTIONS)))
    required, optional = COMMAND_OPTIONS[command]
    items = required + draw(st.lists(st.sampled_from(FLAGS + optional), unique_by=lambda item: item[0]))
    items = [[item[0], draw(st.sampled_from(ARGV_VALUES))] if len(item) == 2 else item for item in items]
    order = draw(st.permutations([["iwasawa_ak"], *items]))
    argv = [command, *itertools.chain.from_iterable(order)]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(argv) - 1))
        token = draw(st.sampled_from(ARGV_TOKENS))
        if draw(st.booleans()):
            argv.insert(i, token)
        else:
            argv[i] = token
    return argv


_argparse_parser = functools.cache(build_parser)


def _argparse_fields(argv):
    try:
        return vars(_argparse_parser().parse_args(argv))
    except SystemExit as exc:
        raise AssertionError(f"argparse refuses {argv}") from exc


class TestArgvReader:
    """main reads a well-formed argv without argparse.  Whenever that reader
    returns a namespace, argparse accepts the argv with the same fields."""

    def test_every_option_order_is_read_as_argparse_reads_it(self):
        argvs = list(_every_option_order())
        assert len(argvs) == 484
        for argv in argvs:
            args = _read_argv(argv)
            assert args is not None, argv
            assert vars(args) == _argparse_fields(argv), argv

    def test_one_token_more_or_changed_is_refused_or_read_as_argparse_reads_it(self):
        for command, (required, _) in COMMAND_OPTIONS.items():
            argv = [command, "iwasawa_ak", *itertools.chain.from_iterable(required)]
            for i in range(len(argv) + 1):
                for token in ARGV_TOKENS:
                    for edited in ([*argv[:i], token, *argv[i:]], [*argv[:i], token, *argv[i + 1 :]]):
                        args = _read_argv(edited)
                        if args is not None:
                            assert vars(args) == _argparse_fields(edited), edited

    @settings(max_examples=400, deadline=None)
    @given(_near_well_formed_argvs())
    def test_a_namespace_is_what_argparse_gives(self, argv):
        args = _read_argv(argv)
        if args is not None:
            assert vars(args) == _argparse_fields(argv)

    def test_a_well_formed_call_loads_no_argparse(self):
        code = (
            "import sys; from harmonica import cli; code = cli.main(['validate', 'iwasawa_ak']); "
            "print(code, 'argparse' in sys.modules, 'gettext' in sys.modules, cli._parser)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1] == "0 False False None"


class TestValidationGate:
    def test_computing_on_broken_spec_refused(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(BROKEN_DOC)
        code, out, _ = run_cli(
            capsys, "harmonics", str(path), "--laplacian", "d", "--bidegree", "0,1"
        )
        assert code == 1
        assert "--force" in out

    def test_force_overrides(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(BROKEN_DOC)
        code, out, _ = run_cli(
            capsys,
            "harmonics", str(path), "--laplacian", "d", "--bidegree", "0,1", "--force",
        )
        assert code == 0


class TestOneGate:
    COMMANDS = [
        ("harmonics", "--laplacian", "d", "--bidegree", "0,1"),
        ("primitive", "--form", "phi[1;]"),
        ("relations", "--bidegree", "0,0"),
        ("check-form", "--form", "phi[1;]", "--laplacian", "d"),
        ("report",),
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_refusal_is_the_same_for_every_command(self, capsys, tmp_path, argv):
        path = tmp_path / "broken.json"
        path.write_text(BROKEN_DOC)
        code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert code == 1 and err == ""
        assert out == (
            "spec 'broken' fails validation: d(generators) are 2-forms\n"
            "  witness: (1,0)*phi[;1]\n"
            "use --force to compute on an invalid spec\n"
        )

    @pytest.mark.parametrize(
        "argv", [("validate",), *COMMANDS], ids=lambda argv: argv[0]
    )
    def test_validation_runs_once(self, capsys, monkeypatch, argv):
        from harmonica import cli

        calls = []

        def counted(spec):
            calls.append(spec.name)
            return check_integrability_relations(spec)

        monkeypatch.setattr(cli, "check_integrability_relations", counted)
        run_cli(capsys, argv[0], "iwasawa_cplx", *argv[1:])
        assert calls == ["iwasawa_cplx"]


class TestUserInputErrors:
    def test_unknown_laplacian_is_a_parse_error(self, capsys):
        code, out, err = run_cli(
            capsys, "harmonics", "iwasawa_ak", "--laplacian", "zz", "--bidegree", "1,1"
        )
        assert code == 2 and out == ""
        assert err == "error: unknown laplacian kind 'zz'; expected one of d, del, delbar, bc, a\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("check-form", "iwasawa_ak", "--form", "phi[1 2;]", "--laplacian", "d"),
            ("check-form", "iwasawa_ak", "--form", "phi[1;]*x^" + "1" * 5000, "--laplacian", "d"),
            ("primitive", "iwasawa_ak", "--form", "(" + "1" * 5000 + ",0)*phi[1;]"),
            ("harmonics", "iwasawa_ak", "--laplacian", "bc", "--bidegree", "1" * 5000 + ",1"),
        ],
        ids=["index-list", "long-power", "long-literal", "long-bidegree"],
    )
    def test_text_int_refuses_is_a_parse_error(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_spec_file_errors_are_parse_errors(self, capsys, tmp_path):
        bad_bytes = tmp_path / "bad_bytes.json"
        bad_bytes.write_bytes(b'{"name": "\xff"}')
        doc = json.loads(_golden_text("torus6"))
        doc["d"]["phi1"][0]["coeff"]["terms"][0]["syms"][0][1] = "x"
        bad_power = tmp_path / "bad_power.json"
        bad_power.write_text(json.dumps(doc))
        for path in (bad_bytes, bad_power):
            code, _, err = run_cli(capsys, "validate", str(path))
            assert code == 2 and err.startswith("error: ")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("depth_limit", "x"),
            ("depth_limit", 0),
            ("depth_limit", True),
            ("depth_limit", 2.0),
            ("auto_fresh", "no"),
            ("auto_fresh", 0),
        ],
    )
    def test_malformed_derivation_settings_exit_2(self, capsys, tmp_path, field, value):
        doc = json.loads(_golden_text("torus6"))
        doc[field] = value
        path = tmp_path / "bad_setting.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys, "check-form", str(path), "--form", "q*phi[2;1]", "--laplacian", "bc"
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and field in err

    @pytest.mark.parametrize(
        "field, value",
        [("omega", [1]), ("d", {"phi1": [{"coeff": {"re": 1, "im": "0"}, "hol": [], "anti": [1]}]})],
        ids=["omega-number", "coeff-number"],
    )
    def test_json_number_for_a_rational_exits_2(self, capsys, tmp_path, field, value):
        doc = {
            "name": "line", "n": 1, "generators": ["phi1"], "d": {}, "omega": ["1"],
            "symbols": [], "conjugates": {}, "derivations": {},
        }
        doc[field] = value
        path = tmp_path / "number.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("partner", [["gc"], {"x": 1}], ids=["list", "object"])
    def test_conjugate_that_is_not_a_name_exits_2(self, capsys, tmp_path, partner):
        doc = {
            "name": "line", "n": 1, "generators": ["phi1"], "d": {}, "omega": ["1"],
            "symbols": ["g", "gc"], "conjugates": {"g": partner, "gc": "g"}, "derivations": {},
        }
        path = tmp_path / "conjugate.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 2 and out == ""
        assert err == "error: the conjugate of 'g' must be a symbol name\n"

    def test_boolean_n_exits_2(self, capsys, tmp_path):
        doc = {
            "name": "line", "n": True, "generators": ["phi1"], "d": {}, "omega": ["1"],
            "symbols": [], "conjugates": {}, "derivations": {},
        }
        path = tmp_path / "bool_n.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 2 and out == ""
        assert err == "error: 'n' must be an integer\n"

    @pytest.mark.parametrize(
        "coeff, derivation",
        [
            ({"re": "1"}, None),
            (None, {"re": "1"}),
            ({"terms": [{"c": {"re": "1", "im": "0"}}]}, None),
            ({"terms": [{"syms": [["g", 1]]}]}, None),
            ({"terms": 5}, None),
            ({"terms": [{"c": {"re": "1", "im": "0"}, "syms": [["g"]]}]}, None),
            (None, {"terms": [{"c": "1", "syms": []}]}),
        ],
        ids=["re-only", "derivation-re-only", "no-syms", "no-c", "terms-number",
             "short-pair", "c-string"],
    )
    def test_malformed_coefficient_exits_2(self, capsys, tmp_path, coeff, derivation):
        doc = {
            "name": "line", "n": 1, "generators": ["phi1"], "d": {}, "omega": ["1"],
            "symbols": ["g", "gc"], "conjugates": {"g": "gc", "gc": "g"}, "derivations": {},
        }
        if coeff is not None:
            doc["d"] = {"phi1": [{"coeff": coeff, "hol": [1], "anti": [1]}]}
        if derivation is not None:
            doc["derivations"] = {"g": {"V1": derivation}}
        path = tmp_path / "coeff.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("hol", [1, [True], [1.0]], ids=["number", "boolean", "float"])
    def test_malformed_term_index_exits_2(self, capsys, tmp_path, hol):
        """An index must be a JSON integer: true would load as 1 and print as
        phi[True;1], which does not re-parse."""
        doc = {
            "name": "line", "n": 1, "generators": ["phi1"], "omega": ["1"],
            "d": {"phi1": [{"coeff": {"re": "1", "im": "0"}, "hol": hol, "anti": [1]}]},
            "symbols": [], "conjugates": {}, "derivations": {},
        }
        path = tmp_path / "index.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 2 and out == ""
        assert err == "error: hol and anti of each d['phi1'] term must be lists of integers\n"

    def test_internal_value_error_is_not_a_user_error(self, capsys, monkeypatch):
        from harmonica import cli

        def broken(*args):
            raise ValueError("internal inconsistency")

        monkeypatch.setattr(cli, "harmonic_space", broken)
        with pytest.raises(ValueError, match="internal inconsistency"):
            main(["harmonics", "iwasawa_ak", "--laplacian", "bc", "--bidegree", "1,1"])


class TestResourceLimits:
    """Oversized input is refused with exit 3 before any work is done."""

    def test_large_exponent_is_refused_fast(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "check-form", "iwasawa_ak", "--form", "x^100000000*phi[1;]", "--laplacian", "d"
        )
        assert time.perf_counter() - start < 2
        assert code == 3 and out == ""
        assert err == "unsupported: exponent 100000000 exceeds the limit 64\n"

    def test_largest_exponent_is_accepted(self, capsys):
        code, out, err = run_cli(
            capsys, "check-form", "iwasawa_ak", "--form", "x^64*phi[1;]", "--laplacian", "d"
        )
        assert code in (0, 1) and err == ""
        assert out.endswith("member\n")

    def test_n_above_limit_is_refused_at_load(self, capsys, tmp_path, monkeypatch):
        from harmonica import library

        n = 10
        doc = {
            "name": "flat20",
            "n": n,
            "generators": [f"phi{a}" for a in range(1, n + 1)],
            "d": {f"phi{a}": [] for a in range(1, n + 1)},
            "omega": ["1"] * n,
            "symbols": [],
            "conjugates": {},
            "derivations": {},
        }
        path = tmp_path / "flat20.json"
        path.write_text(json.dumps(doc), encoding="utf-8")

        def refuse(*args, **kwargs):
            raise AssertionError("a spec was built past the dimension limit")

        monkeypatch.setattr(library, "ManifoldSpec", refuse)
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "harmonics", str(path), "--laplacian", "d", "--bidegree", "1,0"
        )
        assert time.perf_counter() - start < 2
        assert code == 3 and out == ""
        assert err == "unsupported: n = 10 exceeds the supported maximum n = 6\n"


_TEN_PASSES = [
    (re.compile(r"\bdelbar\b"), "∂̄"),
    (re.compile(r"\bdel\b"), "∂"),
    (re.compile(r"\bmubar\b"), "μ̄"),
    (re.compile(r"\bmu\b"), "μ"),
    (re.compile(r"\bomega\b"), "ω"),
    (re.compile(r"\bH\^"), "ℋ^"),
    (re.compile(r"\bcap\b"), "∩"),
    (re.compile(r"not<="), "⊄"),
    (re.compile(r"<="), "⊆"),
    (re.compile(r"\(\+\)"), "⊕"),
]


def _pretty_in_ten_passes(text):
    """The reference: one re.sub pass per token, in this order."""
    for pattern, repl in _TEN_PASSES:
        text = pattern.sub(repl, text)
    return text


class TestPrettyInOnePass:
    """The one-pass pretty printer equals ten passes, one per token."""

    @pytest.mark.parametrize("name", ["torus6", "iwasawa_ak", "iwasawa_cplx", "flat_kahler6"])
    def test_every_printed_line(self, capsys, name):
        n = json.loads(_golden_text(name))["n"]
        commands = [["report"], ["validate"]]
        commands += [
            ["relations", "--bidegree", f"{p},{q}"] for p in range(n + 1) for q in range(n + 1 - p)
        ]
        lines = []
        for command in commands:
            _, out, _ = run_cli(capsys, command[0], name, "--ascii", *command[1:])
            lines += out.splitlines()
        assert lines
        for line in lines:
            assert _pretty(line, False) == _pretty_in_ten_passes(line)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.sampled_from(
                ["delbar", "del", "mubar", "mu", "omega", "cap", "H^", "not<=", "<=", "(+)"]
                + ["H", "^", "not", "<", "=", "(", "+", ")", "a", "Z", "0", "_", "μ", "ω"]
                + [" ", ",", ".", "-", "*", "[", "]", ";", ":", "'", "∂"]
            ),
            max_size=30,
        ).map("".join)
    )
    def test_token_soups(self, text):
        assert _pretty(text, False) == _pretty_in_ten_passes(text)
        assert _pretty(text, True) == text


def _error_classes(cls=errors.HarmonicaError):
    """The package's error classes, walked recursively from HarmonicaError."""
    yield cls
    for sub in cls.__subclasses__():
        if sub.__module__ == errors.__name__:
            yield from _error_classes(sub)


# The README's exit-code paragraph: malformed input exits 2 with an `error:`
# line, a failed cross-check 1, every other package error 3 (`unsupported:`).
_INPUT_ERRORS = {
    "InputError", "ParseError", "SchemaError", "ValidationError", "UnknownSpec",
    "UndeclaredConjugate",
}


class TestExitPolicy:
    """Each package error leaves cli.main with its README exit code and one
    stderr line carrying its label."""

    @pytest.mark.parametrize(
        "error", sorted(set(_error_classes()), key=lambda c: c.__name__), ids=lambda c: c.__name__
    )
    def test_every_error_exits_with_its_readme_code(self, capsys, monkeypatch, error):
        from harmonica import cli

        def broken(*args):
            raise error("boom")

        monkeypatch.setattr(cli, "harmonic_space", broken)
        code, out, err = run_cli(
            capsys, "harmonics", "iwasawa_ak", "--laplacian", "bc", "--bidegree", "1,1"
        )
        if error.__name__ in _INPUT_ERRORS:
            expected = (2, "error: boom\n")
        elif error.__name__ == "CrossCheckFailed":
            expected = (1, "cross-check failed: boom\n")
        else:
            expected = (3, "unsupported: boom\n")
        assert (code, out, err) == (expected[0], "", expected[1])

    def test_cli_names_no_single_error_class(self):
        """cli.py catches package errors only as HarmonicaError: each except
        clause names HarmonicaError or a built-in exception."""
        from harmonica import cli

        offenders = []
        for node in ast.walk(ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ExceptHandler) or node.type is None:
                continue
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            for t in types:
                name = t.id if isinstance(t, ast.Name) else ast.unparse(t)
                builtin = getattr(builtins, name, None)
                if name != "HarmonicaError" and not (
                    isinstance(builtin, type) and issubclass(builtin, BaseException)
                ):
                    offenders.append(f"cli.py:{node.lineno}: {name}")
        assert offenders == []


def _torus6_with(tmp_path, replace=None, syms=None):
    """torus6 with the symbol g3 renamed, or with the first symbol list of
    d(phi1) replaced, written to a file."""
    text = _golden_text("torus6")
    if replace is not None:
        text = text.replace('"g3"', json.dumps(replace))
    doc = json.loads(text)
    if syms is not None:
        doc["d"]["phi1"][0]["coeff"]["terms"][0]["syms"] = syms
    path = tmp_path / "torus6_variant.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestSpecSymbols:
    """Declared symbol names and symbol powers in a spec document are what
    printed forms can re-parse, or the spec is refused at load."""

    @pytest.mark.parametrize("name", ["x y", "phi", "3g", "g-3", ""])
    def test_a_name_that_does_not_parse_is_refused(self, capsys, tmp_path, name):
        path = _torus6_with(tmp_path, replace=name)
        code, out, err = run_cli(
            capsys, "check-form", path, "--form", "phi[2;1]", "--laplacian", "delbar"
        )
        assert code == 2 and out == ""
        assert err.startswith("error: symbol name ") and err.count("\n") == 1

    def test_an_identifier_loads_and_prints_text_that_parses(self, capsys, tmp_path):
        path = _torus6_with(tmp_path, replace="_x1")
        code, out, _ = run_cli(
            capsys, "check-form", path, "--form", "phi[2;1]", "--laplacian", "d"
        )
        assert code == 1 and "_x1" in out
        residual = out.split("residual: ")[1].splitlines()[0]
        assert format_form(parse_form(residual, 3)) == residual

    @pytest.mark.parametrize(
        "syms",
        [
            [["g3c", 0]],
            [["g3c", -1]],
            [["g3c", True]],
            [["g3c", "3"]],
            [["g3c", 1.0]],
            [["g3c", 1], ["g3c", 1]],
            [[3, 1]],
        ],
        ids=["zero", "negative", "boolean", "string", "float", "repeated", "number-name"],
    )
    def test_a_power_outside_the_schema_exits_2(self, capsys, tmp_path, syms):
        path = _torus6_with(tmp_path, syms=syms)
        code, out, err = run_cli(capsys, "validate", path)
        assert code == 2 and out == ""
        assert err.startswith("error: 'syms' ") and err.count("\n") == 1

    def test_a_power_above_the_limit_exits_3(self, capsys, tmp_path):
        path = _torus6_with(tmp_path, syms=[["g3c", 100000]])
        code, out, err = run_cli(capsys, "validate", path)
        assert (code, out) == (3, "")
        assert err == "unsupported: exponent 100000 exceeds the limit 64\n"

    def test_the_largest_power_loads(self, capsys, tmp_path):
        path = _torus6_with(tmp_path, syms=[["g3c", 64]])
        code, out, err = run_cli(
            capsys, "check-form", path, "--form", "phi[1;]", "--laplacian", "d"
        )
        assert code == 1 and err == ""
        residual = out.split("residual: ")[1].splitlines()[0]
        assert "g3c^64" in residual and format_form(parse_form(residual, 3)) == residual


class TestReportJsonPath:
    @pytest.mark.parametrize("where", ["directory", "missing-parent"])
    def test_an_unwritable_path_exits_2(self, capsys, tmp_path, where):
        target = tmp_path if where == "directory" else tmp_path / "missing" / "report.json"
        code, _, err = run_cli(capsys, "report", "flat_kahler6", "--json", str(target))
        assert code == 2
        assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1


class TestReportJsonPathFirst:
    """report tries its --json path before any table or statement is
    computed, and leaves no file behind at a new path if a later stage fails."""

    @pytest.mark.parametrize("where", ["directory", "missing-parent"])
    def test_an_unwritable_path_is_refused_before_any_work(self, capsys, monkeypatch, tmp_path, where):
        from harmonica import cli

        def reached(*args, **kwargs):
            raise AssertionError("the report was computed before its --json path was tried")

        monkeypatch.setattr(cli, "harmonic_subspace", reached)
        monkeypatch.setattr(cli, "all_statements", reached)
        target = tmp_path if where == "directory" else tmp_path / "missing" / "report.json"
        code, out, err = run_cli(capsys, "report", "flat_kahler6", "--json", str(target))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("existed", [False, True])
    def test_a_later_failure_leaves_the_path_as_it_was(self, capsys, monkeypatch, tmp_path, existed):
        from harmonica import cli

        def broken(*args):
            raise errors.CrossCheckFailed("boom")

        monkeypatch.setattr(cli, "all_statements", broken)
        target = tmp_path / "report.json"
        if existed:
            target.write_text("old report\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "report", "flat_kahler6", "--json", str(target))
        assert (code, err) == (1, "cross-check failed: boom\n")
        if existed:
            assert target.read_text(encoding="utf-8") == "old report\n"
        else:
            assert not target.exists()
