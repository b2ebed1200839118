import struct

import numpy as np
import pytest
import scipy.sparse as sp

from rklda.errors import InvalidData
from rklda.io import (
    load_matrix,
    read_csv_matrix,
    read_labels_file,
    read_matrix_market,
    read_rkm1,
    write_csv_rows,
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


def test_write_csv_rows_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    rows = [("m", 0, 1, 0.1 + 0.2, 0.0)]
    write_csv_rows(p1, ["method", "rep", "k", "acc", "sec"], rows)
    write_csv_rows(p2, ["method", "rep", "k", "acc", "sec"], rows)
    assert p1.read_bytes() == p2.read_bytes()
    assert "0.30000000000000004" in p1.read_text()
