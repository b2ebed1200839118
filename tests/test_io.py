import csv
import io
import os
import stat
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import rklda
from helpers import traced_peak
from rklda.errors import InvalidData
from rklda.io import (
    _read_rkm1,
    encode_csv,
    load_matrix,
    read_csv_matrix,
    read_labels_file,
    read_matrix_market,
    read_rkm1,
    write_files,
    write_rkm1,
)


def test_rkm1_roundtrip(tmp_path):
    path = tmp_path / "m.rkm1"
    X = np.array([[1.5, -2.0, 3.25], [0.0, 1e-300, 7.0]])
    write_rkm1(path, X)
    raw = path.read_bytes()
    assert raw[:4] == b"RKM1"
    assert struct.unpack("<QQ", raw[4:20]) == (2, 3)
    back = read_rkm1(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, X)


def test_rkm1_bit_exact_bytes(tmp_path):
    path = tmp_path / "v.rkm1"
    write_rkm1(path, np.array([[np.pi]]))
    payload = path.read_bytes()[20:]
    assert payload == struct.pack("<d", np.pi)


def test_rkm1_bad_magic(tmp_path):
    path = tmp_path / "bad.rkm1"
    path.write_bytes(b"NOPE" + b"\0" * 16)
    with pytest.raises(InvalidData):
        read_rkm1(path)


def test_rkm1_truncated(tmp_path):
    path = tmp_path / "short.rkm1"
    path.write_bytes(b"RKM1" + struct.pack("<QQ", 2, 2) + b"\0" * 8)
    with pytest.raises(InvalidData):
        read_rkm1(path)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (1, 1)])
def test_rkm1_roundtrip_of_degenerate_shapes(tmp_path, shape):
    path = tmp_path / "m.rkm1"
    write_rkm1(path, np.full(shape, 2.5))
    assert np.array_equal(read_rkm1(path), np.full(shape, 2.5))


def test_rkm1_header_past_the_file_size_allocates_nothing(tmp_path):
    path = tmp_path / "huge.rkm1"
    path.write_bytes(b"RKM1" + struct.pack("<QQ", 1 << 40, 1 << 20) + b"\0" * 64)

    def load():
        with pytest.raises(InvalidData, match="expected"):
            load_matrix(path)

    assert traced_peak(load) < 1 << 20


class _ShortReads(io.FileIO):
    """A file whose reads return at most 1000 bytes, as reads past about
    2 GiB return less than asked."""

    def readinto(self, buf):
        return super().readinto(memoryview(buf)[:1000])


def test_rkm1_read_fills_the_array_across_short_reads(tmp_path):
    path = tmp_path / "m.rkm1"
    X = np.random.default_rng(2).standard_normal((50, 7))
    write_rkm1(path, X)
    with _ShortReads(path, "rb") as fh:
        assert np.array_equal(_read_rkm1(fh, path), X)


def test_rkm1_load_holds_one_copy(tmp_path):
    # reading the whole file as bytes and then copying them would hold two
    path = tmp_path / "m.rkm1"
    X = np.random.default_rng(3).standard_normal((8000, 200))
    write_rkm1(path, X)
    assert np.array_equal(load_matrix(path)[0], X)
    assert traced_peak(lambda: load_matrix(path)) < 1.1 * X.nbytes


def test_csv_plain(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,4\n")
    X, labels = read_csv_matrix(path)
    assert labels is None
    assert np.array_equal(X, [[1.0, 2.0], [3.0, 4.0]])


def test_csv_header_and_label_column(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,b,cls\n1,2,x\n3,4,y\n")
    X, labels = read_csv_matrix(path, header=True, label_column="cls")
    assert labels == ["x", "y"]
    assert np.array_equal(X, [[1.0, 2.0], [3.0, 4.0]])
    X2, labels2 = read_csv_matrix(path, header=True, label_column=2)
    assert labels2 == ["x", "y"]
    assert np.array_equal(X2, X)


def test_csv_row_short_of_the_label_column(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2,a\n3,4\n5,6,b\n")
    with pytest.raises(InvalidData, match=r"m\.csv:2: no label column 2"):
        read_csv_matrix(path, label_column=2)


def test_csv_non_numeric(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,oops\n")
    with pytest.raises(InvalidData):
        read_csv_matrix(path)


def test_csv_field_past_the_size_limit(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1," + "2" * (csv.field_size_limit() + 1) + "\n")
    with pytest.raises(InvalidData, match="unreadable CSV"):
        read_csv_matrix(path)


def test_matrix_market(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n3 4 2\n1 1 2.5\n3 4 -1.0\n"
    )
    M = read_matrix_market(path)
    assert sp.issparse(M)
    dense = M.toarray()
    assert dense[0, 0] == 2.5 and dense[2, 3] == -1.0
    assert dense.sum() == pytest.approx(1.5)


MM_COORDINATE = b"%%MatrixMarket matrix coordinate real general\n4 3 2\n"


@pytest.mark.parametrize("body, want", [
    (b"%%MatrixMarket matrix coordinate pattern general\n4 3 2\n1 3\n2 2 ",
     [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
    (MM_COORDINATE + b"1 3 1.5\n2 2 2.5x",
     [[0.0, 0.0, 1.5], [0.0, 2.5, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
    (b"%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4 ", [[1.0, 3.0], [2.0, 4.0]]),
    (MM_COORDINATE + b"1 3 1.5\x00\n2 2 2.5\n", "InvalidData"),
], ids=["pattern-trailing-space", "real-trailing-x", "array-trailing-space", "nul-byte"])
def test_matrix_market_shapes_that_crashed_scipys_reader(tmp_path, body, want):
    # read as they are, these end SciPy's mmread with a segfault: the last
    # line has trailing characters and no final newline, or a line holds a
    # NUL byte; a child process reads them, so that a crash fails this test
    path = tmp_path / "m.mtx"
    path.write_bytes(body)
    script = ("import sys\n"
              "from rklda.errors import InvalidData\n"
              "from rklda.io import load_matrix\n"
              "try:\n"
              "    print(load_matrix(sys.argv[1])[0].toarray().tolist())\n"
              "except InvalidData as exc:\n"
              "    print('InvalidData', exc)\n")
    src = str(Path(rklda.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", script, str(path)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, (proc.returncode, proc.stderr)
    if want == "InvalidData":
        assert proc.stdout.startswith("InvalidData") and "NUL byte" in proc.stdout
    else:
        assert proc.stdout.strip() == str(want)


def test_labels_file(tmp_path):
    path = tmp_path / "y.txt"
    path.write_text("a\nb\na\n")
    assert read_labels_file(path) == ["a", "b", "a"]
    blank = tmp_path / "blank.txt"
    blank.write_text("a\n\nb\n")
    with pytest.raises(InvalidData):
        read_labels_file(blank)


MM_TEXT = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 1.0\n"


@pytest.mark.parametrize("name, write", [
    ("x.csv", lambda path: write_rkm1(path, np.eye(2))),
    ("x.dat", lambda path: path.write_text(MM_TEXT)),
    ("x.rkm1", lambda path: path.write_text("1,0\n0,1\n")),
    ("x.mtx", lambda path: path.write_text("1,0\n0,1\n")),
], ids=["rkm1-named-csv", "mtx-named-dat", "csv-named-rkm1", "csv-named-mtx"])
def test_load_matrix_autodetect(tmp_path, name, write):
    # the first bytes name the format; the file name plays no part
    path = tmp_path / name
    write(path)
    X, labels = load_matrix(path)
    assert labels is None
    assert sp.issparse(X) == (name == "x.dat")
    assert np.array_equal(X.toarray() if sp.issparse(X) else X, np.eye(2))


def test_encode_csv_deterministic():
    rows = [("m", 0, 1, 0.1 + 0.2, np.float64(0.0))]
    a = encode_csv(["method", "rep", "k", "acc", "sec"], rows)
    assert a == encode_csv(["method", "rep", "k", "acc", "sec"], rows)
    assert a == b"method,rep,k,acc,sec\nm,0,1,0.30000000000000004,0.0\n"


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_write_files_mode_follows_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        write_files({tmp_path / "a.bin": b"a", tmp_path / "b.bin": b"b"})
    finally:
        os.umask(old)
    for name in ("a.bin", "b.bin"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode


def test_write_files_all_or_none(tmp_path):
    (tmp_path / "a.bin").write_bytes(b"old")
    missing = tmp_path / "missing" / "c.bin"
    with pytest.raises(FileNotFoundError) as err:
        write_files({tmp_path / "a.bin": b"new", tmp_path / "b.bin": b"b", missing: b"c"})
    assert err.value.filename == str(missing)  # the output, not its temp file
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bin"]
    assert (tmp_path / "a.bin").read_bytes() == b"old"
    write_files({tmp_path / "a.bin": b"new", tmp_path / "b.bin": b"b"})
    assert [(tmp_path / n).read_bytes() for n in ("a.bin", "b.bin")] == [b"new", b"b"]
