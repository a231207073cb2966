"""The library factors matrices itself: numpy.linalg is a test oracle only.

Every module under ``src/orthokit`` is parsed, and any use of a
``numpy.linalg`` factorization or solver fails the test.  ``norm`` is the
one ``numpy.linalg`` function the library may call.

Rank-1 updates have one home: ``outer`` products appear only in
``reflectors.py``, the one reflector kernel.  Its rank-1 ``reflect`` is
called from nowhere else: the other modules reach reflectors through
``annihilate`` and the blocked ``reflect_all``.  Nor does any other module
build a reflector itself from the private ``_reflector`` or
``_sign_nonneg``: every sweep eliminates through ``annihilate``.

The SVD back-transforms its singular vectors by applying the stored
reflectors to them, so ``svd.py`` imports nothing from ``orthokit.qr``.
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


def outer_uses(source: str) -> list[int]:
    """Lines of ``source`` that use an ``outer`` attribute (``np.outer``,
    ``np.multiply.outer``) or import ``outer`` from numpy."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "outer":
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found.extend(node.lineno for alias in node.names if alias.name == "outer")
    return found


@pytest.mark.parametrize(
    "source",
    ["import numpy as np\nnp.outer(u, w)", "import numpy\nnumpy.multiply.outer(u, w)", "from numpy import outer"],
)
def test_outer_detector_flags_outer_products(source):
    assert outer_uses(source)


def test_outer_products_only_in_reflector_kernel():
    found = {
        str(path.relative_to(PACKAGE))
        for path in sorted(PACKAGE.rglob("*.py"))
        if outer_uses(path.read_text(encoding="utf-8"))
    }
    assert found == {"reflectors.py"}


def reflect_uses(source: str) -> list[int]:
    """Lines of ``source`` that import ``reflect`` or use a ``reflect``
    attribute (``reflectors.reflect``)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "reflect":
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            found.extend(node.lineno for alias in node.names if alias.name == "reflect")
    return found


@pytest.mark.parametrize(
    "source",
    [
        "from .reflectors import annihilate, reflect\nreflect(h, a)",
        "from orthokit.reflectors import reflect as apply",
        "from . import reflectors\nreflectors.reflect(h, a)",
    ],
)
def test_reflect_detector_flags_rank1_applies(source):
    assert reflect_uses(source)


def test_reflect_detector_allows_blocked_path():
    assert not reflect_uses("from .reflectors import annihilate, reflect_all\nreflect_all(hs, a, transpose=True)")


def test_rank1_reflect_only_in_reflector_kernel():
    found = {
        str(path.relative_to(PACKAGE))
        for path in sorted(PACKAGE.rglob("*.py"))
        if reflect_uses(path.read_text(encoding="utf-8"))
    }
    assert found == set()


PRIVATE_KERNELS = {"_reflector", "_sign_nonneg"}


def private_kernel_uses(source: str) -> list[int]:
    """Lines of ``source`` that import, reference or call ``_reflector`` or
    ``_sign_nonneg`` (by name or as an attribute)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found.extend(node.lineno for alias in node.names if alias.name in PRIVATE_KERNELS)
        elif isinstance(node, ast.Attribute) and node.attr in PRIVATE_KERNELS:
            found.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id in PRIVATE_KERNELS:
            found.append(node.lineno)
    return found


@pytest.mark.parametrize(
    "source",
    [
        "from .reflectors import _reflector\nh, nrm = _reflector(x)",
        "from . import reflectors\nsign = reflectors._sign_nonneg(x[0])",
    ],
)
def test_private_kernel_detector_flags_uses(source):
    assert private_kernel_uses(source)


def test_private_kernel_detector_allows_annihilate():
    assert not private_kernel_uses("from .reflectors import annihilate\nh = annihilate(r[k:, k:], k)")


def test_reflectors_built_only_in_reflector_kernel():
    found = {
        str(path.relative_to(PACKAGE))
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "reflectors.py" and private_kernel_uses(path.read_text(encoding="utf-8"))
    }
    assert found == set()


def qr_imports(source: str) -> list[int]:
    """Lines of ``source`` that import ``orthokit.qr`` or a name from it,
    by relative or absolute path."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = ("." * node.level) + (node.module or "")
            if module in (".qr", "orthokit.qr") or (
                module in (".", "orthokit") and any(alias.name == "qr" for alias in node.names)
            ):
                found.append(node.lineno)
        elif isinstance(node, ast.Import):
            found.extend(node.lineno for alias in node.names if alias.name == "orthokit.qr")
    return found


@pytest.mark.parametrize(
    "source",
    [
        "from .qr import form_q\nq = form_q(left, m)",
        "from orthokit.qr import form_q as build",
        "from . import qr\nqr.form_q(left, m)",
        "import orthokit.qr",
    ],
)
def test_qr_import_detector_flags_imports(source):
    assert qr_imports(source)


def test_qr_import_detector_allows_reflectors():
    assert not qr_imports("from .reflectors import reflect_all\nfrom .matrix import as_matrix\nqr = 1")


def test_svd_does_not_import_qr():
    assert qr_imports((PACKAGE / "svd.py").read_text(encoding="utf-8")) == []
