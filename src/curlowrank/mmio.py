"""Matrix Market I/O for dense real matrices ("array real general" flavor).

File layout::

    %%MatrixMarket matrix array real general
    % optional comment lines
    m n
    <m*n entries, one per line, in column-major order>

Blank lines and ``%`` comments, whole-line or after an entry, are skipped.
Values are written with 17 significant digits, which round-trips float64.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import MatrixInputError
from .linalg import as_matrix

_HEADER = "%%MatrixMarket matrix array real general"


def write_matrix(a, path) -> None:
    """Write ``a`` to ``path`` in Matrix Market array format."""
    a = as_matrix(a)
    m, n = a.shape
    with open(path, "w", newline="") as fh:
        fh.write(_HEADER + "\n")
        fh.write(f"{m} {n}\n")
        for x in a.flatten(order="F"):
            fh.write(format(float(x), ".17g") + "\n")


def read_matrix(path) -> np.ndarray:
    """Read a Matrix Market "array real general" file written by :func:`write_matrix`; a file
    that is malformed or not UTF-8 text is a MatrixInputError."""
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header.lower().split() != _HEADER.lower().split():
                raise MatrixInputError(f"unsupported MatrixMarket header: {header!r}")
            line = fh.readline()
            while line and line.lstrip().startswith("%"):
                line = fh.readline()
            try:
                m, n = (int(tok) for tok in line.split())
            except ValueError as exc:
                raise MatrixInputError(f"bad dimensions line: {line!r}") from exc
            if m < 1 or n < 1:
                raise MatrixInputError(f"bad dimensions line: {line!r} (each size must be >= 1)")
            with warnings.catch_warnings():  # an empty body is a count error, not a warning
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                try:  # a byte that is not UTF-8 in the body fails here too
                    values = np.loadtxt(fh, dtype=np.float64, comments="%", ndmin=2)
                except ValueError as exc:
                    raise MatrixInputError(f"bad entry: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MatrixInputError(f"not a UTF-8 text file: {exc}") from exc
    if values.shape[1] != 1:
        raise MatrixInputError(f"expected one entry per line, found {values.shape[1]}")
    if len(values) != m * n:
        raise MatrixInputError(f"expected {m * n} entries, found {len(values)}")
    return values.reshape((m, n), order="F").copy(order="C")
