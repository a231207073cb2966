"""The library factors matrices itself: numpy.linalg is a test oracle only.

Every module under ``src/orthokit`` is parsed, and any use of a
``numpy.linalg`` factorization or solver fails the test.  ``norm`` is the
one ``numpy.linalg`` function the library may call.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "orthokit"
FORBIDDEN = {"svd", "qr", "cholesky", "lstsq", "solve", "inv", "pinv", "det", "matrix_rank"}


def _forbidden(name: str) -> bool:
    return name in FORBIDDEN or name.startswith("eig")


def linalg_violations(source: str) -> list[str]:
    """``numpy.linalg`` factorizations and solvers that ``source`` imports or
    calls, as ``"line: name"``."""
    tree = ast.parse(source)
    numpy_names, linalg_names = set(), set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    numpy_names.add(alias.asname or "numpy")
                elif alias.name == "numpy.linalg":
                    if alias.asname:
                        linalg_names.add(alias.asname)
                    else:
                        numpy_names.add("numpy")
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if node.module == "numpy" and alias.name == "linalg":
                    linalg_names.add(alias.asname or "linalg")
                elif node.module == "numpy.linalg" and _forbidden(alias.name):
                    found.append(f"{node.lineno}: {alias.name}")
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or not _forbidden(node.attr):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id in linalg_names:
            found.append(f"{node.lineno}: {node.attr}")
        elif (
            isinstance(owner, ast.Attribute)
            and owner.attr == "linalg"
            and isinstance(owner.value, ast.Name)
            and owner.value.id in numpy_names
        ):
            found.append(f"{node.lineno}: {node.attr}")
    return found


@pytest.mark.parametrize(
    "source",
    [
        "import numpy as np\nnp.linalg.svd(a)",
        "import numpy\nu = numpy.linalg.qr",
        "import numpy.linalg as la\nla.eigh(s)",
        "import numpy.linalg\nnumpy.linalg.solve(a, b)",
        "from numpy import linalg\nlinalg.lstsq(a, b)",
        "from numpy.linalg import cholesky",
        "import numpy as np\nnp.linalg.matrix_rank(a)",
    ],
)
def test_detector_flags_factorizations(source):
    assert linalg_violations(source)


def test_detector_allows_norm_and_own_names():
    assert not linalg_violations("import numpy as np\nnp.linalg.norm(x)\nfrom .svd import svd\nsvd(a)")


def test_library_uses_no_numpy_linalg_factorization():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    found = {
        str(path.relative_to(PACKAGE)): hits
        for path in modules
        if (hits := linalg_violations(path.read_text(encoding="utf-8")))
    }
    assert found == {}
