"""Compare the CLI's bytes between the working tree and a git revision.

    python3 scripts/cli_bytes.py REV

Run from the repository root.  The script runs the working tree's CLI tests
(``tests/test_cli.py``, ``tests/test_cli_fuzz.py`` and
``tests/test_acceptance.py``) twice under pytest: once on the working
tree's ``src``, and once on ``src/orthokit`` at REV, extracted with ``git
archive`` into a temporary directory.  Every ``orthokit.cli.run`` call is
recorded: its argv, exit code (or the exception it raised), stdout and
stderr, keyed by test id and call order, with pytest's temporary directory
written as ``<tmp>``.  It prints how many calls matched, then each call that
differs or that only one side made, and exits 1 if there is any: a differing
argv or exit code whole, a differing stdout or stderr as the unified diff of
its lines from REV to the working tree, without context lines.  Whether the
tests pass does not matter here; their summary lines are printed too.

This file is also the pytest plugin that records the calls: ``-p
cli_bytes`` with ``scripts`` on the path, writing one JSON line per call to
the file named by the environment variable ``CLI_BYTES_OUT``.
"""

from __future__ import annotations

import difflib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ["tests/test_cli.py", "tests/test_cli_fuzz.py", "tests/test_acceptance.py"]
TMP = "<tmp>"


def pytest_configure(config):
    """Wrap ``orthokit.cli.run`` before the test modules import it."""
    out = os.environ.get("CLI_BYTES_OUT")
    if not out:
        return
    import orthokit.cli

    run = orthokit.cli.run
    basetemp = str(config.option.basetemp)
    calls = Counter()

    def recorded(argv):
        test = os.environ.get("PYTEST_CURRENT_TEST", "")
        calls[test] += 1
        stdout, stderr = io.StringIO(), io.StringIO()
        code = None
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = run(argv)
        except BaseException as exc:
            code = f"raised {type(exc).__name__}: {exc}"
            raise
        finally:
            sys.stdout.write(stdout.getvalue())
            sys.stderr.write(stderr.getvalue())
            entry = {"test": test, "call": calls[test], "argv": [str(a) for a in argv], "code": code,
                     "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
            with open(out, "a", encoding="utf-8") as f:
                f.write(json.dumps(entry).replace(basetemp, TMP) + "\n")
        return code

    orthokit.cli.run = recorded


def package_source_at(rev: str, into: Path) -> Path:
    """``src/orthokit`` at git revision ``rev``, extracted under ``into``: the directory holding it."""
    git = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src/orthokit"], check=True, capture_output=True)
    with tarfile.open(fileobj=io.BytesIO(git.stdout)) as t:
        t.extractall(into, filter="data")
    return Path(into, "src")


def record(src: Path, work: Path, name: str) -> dict:
    """Run the CLI tests on the package under ``src``; their calls by key."""
    out = work / f"{name}.jsonl"
    env = dict(os.environ, CLI_BYTES_OUT=str(out),
               PYTHONPATH=os.pathsep.join([str(src), str(ROOT / "scripts")]))
    p = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "cli_bytes", "-p", "no:cacheprovider",
                        f"--basetemp={work / 'basetemp'}", *TESTS],
                       cwd=ROOT, env=env, capture_output=True, text=True, check=False)
    summary = p.stdout.strip().splitlines()[-1:] or [p.stderr.strip()]
    print(f"{name}: {summary[0]}")
    if not out.exists():
        return {}
    with open(out, encoding="utf-8") as f:
        return {(r["test"], r["call"]): r for r in map(json.loads, f)}


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    rev = sys.argv[1]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        src = package_source_at(rev, work / "rev")
        tree = record(ROOT / "src", work, "working tree")
        ref = record(src, work, rev)
    same = sum(1 for k in tree if tree[k] == ref.get(k))
    print(f"{same} of {len(tree.keys() | ref.keys())} cli.run calls byte-identical")
    bad = 0
    for key in sorted(tree.keys() | ref.keys()):
        a, b = tree.get(key), ref.get(key)
        if a == b:
            continue
        bad += 1
        test, n = key
        print(f"\n{test} call {n}: argv {(a or b)['argv']}")
        if a is None or b is None:
            print(f"  only in {'the working tree' if b is None else rev}")
            continue
        for field in ("argv", "code"):
            if a[field] != b[field]:
                print(f"  {field}:\n    tree: {a[field]!r}\n    {rev}: {b[field]!r}")
        for field in ("stdout", "stderr"):
            if a[field] != b[field]:
                print(f"  {field}:")
                old, new = b[field].splitlines(keepends=True), a[field].splitlines(keepends=True)
                for line in difflib.unified_diff(old, new, rev, "tree", n=0, lineterm=""):
                    print("    " + line.removesuffix("\n"))
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
