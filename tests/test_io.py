import os
import stat
import struct

import numpy as np
import pytest
import scipy.sparse as sp

from rklda.errors import InvalidData
from rklda.io import (
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


def test_labels_file(tmp_path):
    path = tmp_path / "y.txt"
    path.write_text("a\nb\na\n")
    assert read_labels_file(path) == ["a", "b", "a"]
    blank = tmp_path / "blank.txt"
    blank.write_text("a\n\nb\n")
    with pytest.raises(InvalidData):
        read_labels_file(blank)


def test_load_matrix_autodetect(tmp_path):
    rk = tmp_path / "x.rkm1"
    write_rkm1(rk, np.eye(2))
    X, _ = load_matrix(rk)
    assert np.array_equal(X, np.eye(2))
    # detection by content when the extension is unhelpful
    anon = tmp_path / "data.bin"
    anon.write_bytes(rk.read_bytes())
    X2, _ = load_matrix(anon)
    assert np.array_equal(X2, np.eye(2))


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
