"""File formats: RKM1 binary matrices, CSV, Matrix Market, label files.

RKM1 layout (dense, bit-exact interchange format):

    bytes 0..3    magic b"RKM1"
    bytes 4..11   row count, unsigned 64-bit little-endian
    bytes 12..19  column count, unsigned 64-bit little-endian
    bytes 20..    row-major IEEE-754 binary64 little-endian values
"""

import csv
import errno
import io as _io
import os
import struct
import tempfile
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse as sp

from .errors import InvalidData

RKM1_MAGIC = b"RKM1"
FORMAT_VERSION = "RKM1"


def encode_rkm1(matrix: np.ndarray) -> bytes:
    """The RKM1 bytes of a 2-d matrix (a 1-d array is stored as one row)."""
    arr = np.ascontiguousarray(np.asarray(matrix, dtype=np.float64))
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise InvalidData(f"RKM1 stores 2-d matrices, got ndim={arr.ndim}")
    return (
        RKM1_MAGIC
        + struct.pack("<QQ", arr.shape[0], arr.shape[1])
        + arr.astype("<f8").tobytes(order="C")
    )


def write_rkm1(path, matrix: np.ndarray) -> None:
    write_files({path: encode_rkm1(matrix)})


def read_rkm1(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < 20 or raw[:4] != RKM1_MAGIC:
        raise InvalidData(f"{path}: not an RKM1 file")
    n, d = struct.unpack("<QQ", raw[4:20])
    expected = 20 + 8 * n * d
    if len(raw) != expected:
        raise InvalidData(f"{path}: expected {expected} bytes for {n}x{d}, got {len(raw)}")
    data = np.frombuffer(raw, dtype="<f8", offset=20)
    return data.reshape(n, d).astype(np.float64, copy=True)


def read_csv_matrix(path, header: bool = False, label_column=None):
    """Numeric CSV -> (matrix, labels or None).

    ``label_column`` may be a 0-based column index or, when ``header`` is
    set, a column name; that column is returned as label tokens and
    excluded from the numeric matrix.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise InvalidData(f"{path}: empty CSV")
    names = None
    if header:
        names = [c.strip() for c in rows[0]]
        rows = rows[1:]
        if not rows:
            raise InvalidData(f"{path}: CSV has a header but no data rows")

    label_idx = None
    if label_column is not None:
        if isinstance(label_column, str) and not label_column.lstrip("-").isdigit():
            if names is None or label_column not in names:
                raise InvalidData(f"{path}: no column named {label_column!r}")
            label_idx = names.index(label_column)
        else:
            label_idx = int(label_column)
            width = len(rows[0])
            if not 0 <= label_idx < width:
                raise InvalidData(f"{path}: label column {label_idx} out of range")

    labels = [] if label_idx is not None else None
    numeric = []
    for lineno, row in enumerate(rows, start=2 if header else 1):
        cells = [c.strip() for c in row]
        if labels is not None:
            if label_idx >= len(cells):
                raise InvalidData(f"{path}:{lineno}: no label column {label_idx} in this row")
            labels.append(cells[label_idx])
            cells = cells[:label_idx] + cells[label_idx + 1 :]
        try:
            numeric.append([float(c) for c in cells])
        except ValueError as exc:
            raise InvalidData(f"{path}:{lineno}: non-numeric cell ({exc})") from exc
    widths = {len(r) for r in numeric}
    if len(widths) != 1:
        raise InvalidData(f"{path}: ragged rows, widths {sorted(widths)}")
    return np.asarray(numeric, dtype=np.float64), labels


def read_matrix_market(path) -> sp.csr_array:
    try:
        mat = scipy.io.mmread(path)
    except Exception as exc:
        raise InvalidData(f"{path}: failed to parse Matrix Market file ({exc})") from exc
    return sp.csr_array(mat)


def read_labels_file(path) -> list[str]:
    """One label token per line, UTF-8; blank lines rejected."""
    tokens = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            tok = line.strip()
            if not tok:
                raise InvalidData(f"{path}:{lineno}: blank label line")
            tokens.append(tok)
    if not tokens:
        raise InvalidData(f"{path}: empty label file")
    return tokens


def load_matrix(path, fmt: str = "auto", csv_header: bool = False, label_column=None):
    """Dispatch on format: returns (RawMatrix, labels or None)."""
    path = Path(path)
    if fmt == "auto":
        suffix = path.suffix.lower()
        if suffix == ".rkm1":
            fmt = "rkm1"
        elif suffix in (".mtx", ".mm"):
            fmt = "mtx"
        elif suffix == ".csv":
            fmt = "csv"
        else:
            with open(path, "rb") as fh:
                head = fh.read(14)
            if head[:4] == RKM1_MAGIC:
                fmt = "rkm1"
            elif head.startswith(b"%%MatrixMarket"):
                fmt = "mtx"
            else:
                fmt = "csv"
    if fmt == "rkm1":
        return read_rkm1(path), None
    if fmt == "mtx":
        return read_matrix_market(path), None
    if fmt == "csv":
        return read_csv_matrix(path, header=csv_header, label_column=label_column)
    raise InvalidData(f"unknown matrix format {fmt!r}")


def write_files(payloads) -> None:
    """Write each ``{path: bytes}`` payload through a temp file beside it, with
    the mode ``open(path, "wb")`` gives under the umask.  The temp files are
    renamed into place back to back once all are written, and removed on any
    failure; an OSError while staging them names the destination path."""
    umask = os.umask(0o077)
    os.umask(umask)
    staged = []
    try:
        for path, payload in payloads.items():
            path = Path(path)
            try:
                if path.is_dir():  # which os.replace would refuse only mid-way
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
                fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
                staged.append((tmp, path))
                with os.fdopen(fd, "wb") as fh:
                    fh.write(payload)
                os.chmod(tmp, 0o666 & ~umask)
            except OSError as exc:
                raise type(exc)(exc.errno, exc.strerror, str(path)) from exc
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def format_float(x: float) -> str:
    """Shortest round-trip decimal form; deterministic across runs."""
    return repr(float(x))


def encode_csv(header: list[str], rows) -> bytes:
    """CSV bytes of a header and rows, floats in ``format_float`` form."""
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_float(c) if isinstance(c, float) else c for c in row])
    return buf.getvalue().encode("utf-8")
