"""Bounded fuzz of every CLI file reader, in process through ``cli.run``.

Each command gets arbitrary bytes, optionally behind a prefix that gets the
reader past its first check (a PGM magic number, the model magic, a CSV
row).  Whatever the bytes, the exit code is 0, 1 or 2; a non-zero exit
writes exactly one stderr line and no traceback, and an input error names
the file.  The profile is derandomized, with tens of examples and no example
database, so tier-1 stays deterministic.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthokit.apps import DigitModel, save_digit_model
from orthokit.cli import run

FUZZ = settings(
    derandomize=True,
    max_examples=25,
    deadline=None,
    database=None,
)

CSV_ROW = b"1," + b",".join([b"0"] * 784) + b"\n"

# command, the argv slot the fuzzed file goes in, and prefixes for its bytes
READERS = {
    "matrix-csv": (["svd", "--values-only", "{f}"], [b"", b"1,2\n3,4\n", b"1e308,"]),
    "digits-train": (["digits", "train", "{f}", "--k", "1", "--model", "{tmp}/m.okdm"], [b"", CSV_ROW]),
    "digits-classify": (["digits", "classify", "{f}", "--model", "{tmp}/good.okdm"], [b"", CSV_ROW[2:]]),
    "pgm": (["compress", "{f}", "{tmp}/out.pgm", "--k", "1"],
            [b"", b"P5\n2 2\n255\n", b"P2 3 1 255 ", b"P5 -1 2 255\n", b"P2 0 "]),
    "model": (["digits", "classify", "{tmp}/test.csv", "--model", "{f}"],
              [b"", b"OKDM", b"OKDM\x01\x00\x00\x00\x01\x00\x00\x00"]),
    "text": (["summarize", "{f}"], [b"", b"Orthogonal factors.\n"]),
    "stopwords": (["summarize", "{tmp}/text.txt", "--stopwords", "{f}"], [b""]),
}


@pytest.fixture(scope="module")
def fixed_files(tmp_path_factory):
    """The files each command needs besides the fuzzed one."""
    tmp = tmp_path_factory.mktemp("fixed")
    save_digit_model(DigitModel(bases=[np.eye(784)[:, :1]] * 10, k=1), tmp / "good.okdm")
    (tmp / "test.csv").write_bytes(CSV_ROW)
    (tmp / "text.txt").write_text("Orthogonal factors are stable.\nThey are.\n")
    return tmp


@pytest.mark.parametrize("reader", sorted(READERS))
def test_arbitrary_bytes_exit_with_one_line(reader, fixed_files, tmp_path, capsys):
    argv, prefixes = READERS[reader]

    @FUZZ
    @given(st.sampled_from(prefixes), st.binary(max_size=64))
    def check(prefix, data):
        f = tmp_path / "fuzzed"
        f.write_bytes(prefix + data)
        code = run([a.format(f=f, tmp=fixed_files) for a in argv])
        out, err = capsys.readouterr()
        assert code in (0, 1, 2)
        if code:
            assert err.count("\n") == 1 and "Traceback" not in err, err
            if err.startswith("input error: "):
                assert str(f) in err, err

    check()
