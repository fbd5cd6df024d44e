"""Exactness guard: no float may decide a kernel, a rank or a verdict.

An AST scan of every module of `src/harmonica` refuses float literals, calls
of `float`, and any name of `math` but the integer ones.  True division `/`
is allowed only in the functions listed in DIVIDING, each of which divides
exact values (Q(i) scalars, or integers into a GaussianRational); the scan
finds exactly those, so a new `/` or a removed one shows here.
"""

import ast
from pathlib import Path

import harmonica

SRC = Path(harmonica.__file__).parent

INTEGER_MATH = {"gcd", "lcm", "factorial", "prod", "comb", "isqrt"}

# Functions that may use `/`, by module and qualified name, with what they divide.
DIVIDING = {
    "forms.Form.__truediv__": "each coefficient by a Q(i) scalar",
    "hermitian._metric_weights": "1 by an omega coefficient, a GaussianRational",
    "hermitian.weil_star_primitive": "a GaussianRational r! by the integer (n-k-r)!",
    "hermitian._inverse": "1 by the integer k, a GaussianRational",
    "scalars.GaussianRational.__rtruediv__": "a coerced Q(i) value by self",
    "scalars.Coefficient.__truediv__": "each Q(i) coefficient by a Q(i) scalar",
}


def _scan(source: str, module: str):
    """(offences, qualified names of the functions that use `/`) of one module."""
    offences, dividing = [], set()
    math_names = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + [child.name]
            where = f"{module}.py:{getattr(child, 'lineno', '?')}"
            if isinstance(child, ast.Constant) and isinstance(child.value, (float, complex)):
                offences.append(f"{where}: float literal {child.value!r}")
            elif isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == "float":
                offences.append(f"{where}: float() call")
            elif isinstance(child, ast.Import):
                for alias in child.names:
                    if alias.name == "math":
                        math_names.add(alias.asname or "math")
                    elif alias.name.startswith("math."):
                        offences.append(f"{where}: imports {alias.name}")
            elif isinstance(child, ast.ImportFrom) and child.module == "math":
                for alias in child.names:
                    if alias.name not in INTEGER_MATH:
                        offences.append(f"{where}: imports math.{alias.name}")
            elif (
                isinstance(child, ast.Attribute)
                and isinstance(child.value, ast.Name)
                and child.value.id in math_names
                and child.attr not in INTEGER_MATH
            ):
                offences.append(f"{where}: uses math.{child.attr}")
            elif isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.Div):
                name = ".".join([module, *scope])
                dividing.add(name)
                if name not in DIVIDING:
                    offences.append(f"{where}: '/' in {name}")
            visit(child, inner)

    visit(ast.parse(source), [])
    return offences, dividing


def test_src_has_no_float_and_divides_only_where_listed():
    offences, dividing = [], set()
    for path in sorted(SRC.glob("*.py")):
        found, divides = _scan(path.read_text(encoding="utf-8"), path.stem)
        offences += found
        dividing |= divides
    assert offences == []
    assert dividing == set(DIVIDING)


def test_the_scan_refuses_each_kind_of_offence():
    """The scan itself: each kind of offence in a small module is reported."""
    source = (
        "import math\n"
        "import math as m\n"
        "from math import gcd, sqrt\n"
        "x = 0.5\n"
        "y = float(3)\n"
        "z = math.gcd(4, 6) + m.floor(2) + math.log(2)\n"
        "def halve(a):\n"
        "    a /= 2\n"
        "    return a / 2\n"
    )
    offences, dividing = _scan(source, "demo")
    assert offences == [
        "demo.py:3: imports math.sqrt",
        "demo.py:4: float literal 0.5",
        "demo.py:5: float() call",
        "demo.py:6: uses math.floor",
        "demo.py:6: uses math.log",
        "demo.py:8: '/' in demo.halve",
        "demo.py:9: '/' in demo.halve",
    ]
    assert dividing == {"demo.halve"}
