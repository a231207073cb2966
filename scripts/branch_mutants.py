"""Find the branches that tier-1 cannot see.

    python3 scripts/branch_mutants.py

Run from the repository root.  Every ``if`` statement in ``src/orthokit``
that has no ``else`` and whose body does not start with ``raise`` (an
``elif`` is such an ``if`` of its own), and every conditional expression
``x if test else y``, makes two mutants: its test replaced by ``True``, and
by ``False``.  Each mutant is written into a copy of
``src``, ``tests`` and ``pyproject.toml``, and tier-1 runs on that copy
(``pytest -x -q tests``), ``WORKERS`` copies at a time, one BLAS thread
each.  A mutant survives when the suite still passes; a run that fails,
errs or outlasts ``TIMEOUT`` kills it.  The unmutated copy runs first and
must pass.

The script prints every survivor, and exits 1 when one is missing from
``KEPT``: that branch either changes no result, so it can go, or changes
one that no test checks, so it needs a test.  ``KEPT`` holds the branches
that stay, keyed by file, the stripped text of the line where the ``if``
or the expression starts and the forced value, each with the reason it
stays: a speed branch only saves work, and a safety branch guards a case
tier-1 does not reach.  A ``KEPT`` entry that no survivor matches is
printed as stale.  The 220 mutants take about 25 minutes on a 2-core host.
"""

from __future__ import annotations

import ast
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src", "orthokit")
WORKERS = 2
TIMEOUT = 600  # seconds per tier-1 run; tier-1 itself takes about 25 s
MEMORY = 3 << 30  # address-space limit of each run, in bytes

SPEED = "speed: the same results, more work"
KEPT = {
    ("reflectors.py", "if len(hs) < CROSSOVER or a.shape[1] == 1:", True):
        "speed: the rank-1 loop for every operand; compact WY groups are faster on wide ones "
        "(the bits differ there, within every test's bound)",
    ("reflectors.py", "if block.shape[1] > 1:  # the first column is overwritten just below", True):
        SPEED + ": reflecting a one-column block whose column is overwritten just below",
    ("qr.py", "if j != k:", True): SPEED + ": swapping a column with itself",
    ("qr.py", "if stale.any():", True): SPEED + ": recomputing no norm after the panel",
    ("qr.py", "if j1 < n:", True): SPEED + ": applying the panel to no trailing column",
    ("matrix.py", "if j + 1 < n:", True):
        SPEED + ": cholesky's empty last column; without the test it ran 1.07x at n = 6, 1.03x at n = 16",
    ("svd.py", "if u.shape[1] > k:", True): SPEED + ": fixing the signs of no extra column",
    ("bidiagonal.py", "u, v = np.eye(m) if want_u else None, np.eye(m + sqre)", True):
        SPEED + ": values-only leaves build and rotate a U that no caller reads",
    ("bidiagonal.py", "up, vp = (np.eye(m), np.eye(m)) if want_uv else (None, None)", True):
        SPEED + ": values-only pieces of at most LEAF rows build and rotate a U and V that no caller reads",
    ("bidiagonal.py", 'ub = None if u1 is None else np.zeros((m, m), order="F")', False):
        SPEED + ": values-only merges build a U basis, of NaN, that no caller reads",
    ("bidiagonal.py", "if d.shape[0] > 1:  # one row broadcasts; several are taken root by root", True):
        SPEED + ": each root gathers a copy of the one problem's row of poles",
    ("bidiagonal.py", "if r == 0.0:", False):
        "safety: ends the zero-d chase at an exact zero, where c = d / r would be 0 / 0",
    ("bidiagonal.py", "if n == 1:", False):
        "bits: a one-pole arrow keeps u = 1 and v = sign(z); the general Loewner path gives -1 and -sign(z), "
        "the same product",
    ("cli.py", 'if __name__ == "__main__":', False): "safety: the entry point; tier-1 calls cli.run, not the module",
}


def branches(root: Path):
    """(file, source bytes, node) for every surveyed ``if`` statement or
    expression, in file and line order."""
    for path in sorted((root / PACKAGE).rglob("*.py")):
        source = path.read_bytes()
        nodes = [n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.IfExp) or isinstance(n, ast.If)
                 and not n.orelse and not isinstance(n.body[0], ast.Raise)]
        for node in sorted(nodes, key=lambda n: n.lineno):
            yield path.relative_to(root / PACKAGE).as_posix(), source, node


def mutate(source: bytes, test: ast.expr, value: bool) -> bytes:
    """``source`` with the expression ``test`` replaced by ``value``; the
    AST's column offsets count UTF-8 bytes."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    a = starts[test.lineno - 1] + test.col_offset
    b = starts[test.end_lineno - 1] + test.end_col_offset
    return source[:a] + str(value).encode() + source[b:]


def tier1(copy: Path) -> tuple[bool, str]:
    """Run tier-1 on ``copy``: (passed, pytest's last line or "timeout")."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    code = ("import resource, sys, pytest; resource.setrlimit(resource.RLIMIT_AS, (%d, %d)); "
            "sys.exit(pytest.main(['-x', '-q', '-p', 'no:cacheprovider', 'tests']))" % (MEMORY, MEMORY))
    try:
        p = subprocess.run([sys.executable, "-c", code], cwd=copy, env=env, capture_output=True, text=True,
                           timeout=TIMEOUT, check=False)
    except subprocess.TimeoutExpired:
        return False, "timeout"
    return p.returncode == 0, (p.stdout.strip().splitlines() or [p.stderr.strip()])[-1]


def main() -> int:
    if len(sys.argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    start = time.monotonic()
    mutants = [(f, source, node, value) for f, source, node in branches(ROOT) for value in (True, False)]
    with tempfile.TemporaryDirectory() as tmp:
        copies = queue.Queue()
        for i in range(WORKERS):
            copy = Path(tmp, str(i))
            for part in ("src", "tests"):
                shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "pyproject.toml", copy)
            copies.put(copy)
        ok, summary = tier1(copy)
        if not ok:
            print(f"the unmutated suite fails: {summary}", file=sys.stderr)
            return 2
        print(f"unmutated: {summary}; {len(mutants)} mutants of {len(mutants) // 2} branches")

        def survives(mutant) -> bool:
            f, source, node, value = mutant
            copy = copies.get()
            target = copy / PACKAGE / f
            try:
                target.write_bytes(mutate(source, node.test, value))
                return tier1(copy)[0]
            finally:
                target.write_bytes(source)
                copies.put(copy)

        with ThreadPoolExecutor(WORKERS) as pool:
            alive = [m for m, s in zip(mutants, pool.map(survives, mutants)) if s]
    found, missing = set(), 0
    print(f"{len(alive)} of {len(mutants)} mutants survive ({time.monotonic() - start:.0f} s):")
    for f, source, node, value in alive:
        text = source.splitlines()[node.lineno - 1].decode().strip()
        key = (f, text, value)
        found.add(key)
        reason = KEPT.get(key)
        missing += reason is None
        print(f"  {f}:{node.lineno} {text} -> {value}: " + (reason or "NOT KEPT: delete it or test it"))
    for f, text, value in sorted(KEPT.keys() - found):
        print(f"  stale KEPT entry: {f} {text} -> {value}")
    return 1 if missing else 0


if __name__ == "__main__":
    raise SystemExit(main())
