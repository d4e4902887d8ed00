"""Plain-text serialization: density matrices, generator dumps, scan tables.

Density matrix format (``dm v1``)::

    dm v1
    dims M N
    <M*N rows, each with M*N whitespace-separated entries "re,im">

Entries are written with Python's round-trip float repr, so a rewrite of a
parsed file that entcert wrote, or of any exactly Hermitian one, is
byte-identical. Row/column order is the A-major product basis of
:class:`~entcert.linalg.BipartiteShape`. Parsed matrices go through full
density-matrix validation, which keeps the Hermitian part (m + m^dag)/2:
a file Hermitian only to within 1e-10 is rewritten as that part. Syntax
errors carry 1-based line and column.

Generator dumps reuse the matrix row syntax under a ``ggm v1`` header, one
labeled block per generator. Scan tables are CSV with header ``param,p,f``
and ``%.16e`` values (17 significant digits, exact to re-parse).
"""

from __future__ import annotations

import re

import numpy as np

from .ggm import GellMannBasis
from .linalg import BipartiteShape
from .states import DensityMatrix

DM_MAGIC = "dm v1"
GGM_MAGIC = "ggm v1"

_TOKEN = re.compile(r"\S+")
_PAIR = re.compile(r"^([^,]+),([^,]+)$")


class DmParseError(ValueError):
    """Syntax error in a dm/ggm file, with 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, column {col}: {message}")


def format_complex(z: complex) -> str:
    return f"{float(z.real)!r},{float(z.imag)!r}"


def _format_rows(mat: np.ndarray) -> list[str]:
    return [" ".join(format_complex(z) for z in row) for row in mat]


def format_density(dm: DensityMatrix) -> str:
    lines = [DM_MAGIC, f"dims {dm.shape.dim_a} {dm.shape.dim_b}"]
    lines += _format_rows(dm.mat)
    return "\n".join(lines) + "\n"


def _write_text(text: str, path) -> None:
    """Write finished text to path. Every writer formats first and opens
    (and so truncates) the file only then, so a formatting failure leaves
    an existing file as it was."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def write_density(dm: DensityMatrix, path) -> None:
    _write_text(format_density(dm), path)


def _parse_complex_token(tok: str, line_no: int, col: int) -> complex:
    m = _PAIR.match(tok)
    if m is None:
        raise DmParseError(f"expected 're,im' pair, got {tok!r}", line_no, col)
    try:
        return complex(float(m.group(1)), float(m.group(2)))
    except ValueError:
        raise DmParseError(f"bad float in {tok!r}", line_no, col) from None


def parse_density(text: str) -> DensityMatrix:
    """Parse and validate a ``dm v1`` file."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != DM_MAGIC:
        raise DmParseError(f"expected header {DM_MAGIC!r}", 1, 1)
    if len(lines) < 2:
        raise DmParseError("missing 'dims M N' line", 2, 1)
    dims_tokens = list(_TOKEN.finditer(lines[1]))
    if len(dims_tokens) != 3 or dims_tokens[0].group() != "dims":
        raise DmParseError("expected 'dims M N'", 2, 1)
    try:
        m_dim = int(dims_tokens[1].group())
        n_dim = int(dims_tokens[2].group())
    except ValueError:
        raise DmParseError("dimensions must be integers", 2, dims_tokens[1].start() + 1) from None
    if m_dim < 2 or n_dim < 2:
        raise DmParseError(f"dimensions must be >= 2, got {m_dim} {n_dim}", 2, dims_tokens[1].start() + 1)
    order = m_dim * n_dim
    rows = [(line_no, line) for line_no, line in enumerate(lines[2:], start=3) if line.strip()]
    # Count rows before allocating: a header can ask for far more memory
    # than a short file could ever fill.
    if len(rows) < order:
        raise DmParseError(f"expected {order} matrix rows, got {len(rows)}", len(lines) + 1, 1)
    mat = np.zeros((order, order), dtype=complex)
    for row, (line_no, line) in enumerate(rows[:order]):
        tokens = list(_TOKEN.finditer(line))
        if len(tokens) != order:
            col = tokens[order].start() + 1 if len(tokens) > order else len(line) + 1
            raise DmParseError(
                f"expected {order} entries in row {row + 1}, got {len(tokens)}",
                line_no,
                col,
            )
        for col_idx, tok in enumerate(tokens):
            mat[row, col_idx] = _parse_complex_token(tok.group(), line_no, tok.start() + 1)
    if len(rows) > order:
        raise DmParseError(f"expected {order} matrix rows, found more", rows[order][0], 1)
    return DensityMatrix(BipartiteShape(m_dim, n_dim), mat)


def read_density(path) -> DensityMatrix:
    """Read, parse and validate a ``dm v1`` file; a byte that is not ASCII
    is a :class:`DmParseError` at its line and column."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        # The whole file is decoded at once, so exc.start is the bad byte's
        # offset in the file. A stand-in for it ends the last line;
        # splitlines breaks lines as parse_density does.
        lines = (data[: exc.start] + b"?").decode("ascii").splitlines()
        raise DmParseError(f"non-ASCII byte 0x{data[exc.start]:02x}", len(lines), len(lines[-1])) from None
    return parse_density(text)


def format_basis(basis: GellMannBasis) -> str:
    lines = [GGM_MAGIC, f"dim {basis.dim}"]
    for label, mat in basis.labeled():
        lines.append(label)
        lines += _format_rows(mat)
    return "\n".join(lines) + "\n"


def write_basis(basis: GellMannBasis, path) -> None:
    _write_text(format_basis(basis), path)


class _CoordText(dict):
    """``%.16e`` text of grid coordinates, formatted once per distinct value.

    Zeros are never stored: 0.0 == -0.0 but they print differently. A NaN
    equals nothing, so only the same NaN object finds its entry. Keys are
    compared by value, which is sound because equal real numbers (Python
    or numpy floats and ints) print alike.
    """

    def __missing__(self, x) -> str:
        text = f"{x:.16e}"
        if x != 0:
            self[x] = text
        return text


def format_scan_csv(rows) -> str:
    """CSV text of (param, p, f) rows, every value as ``%.16e``.

    A grid repeats each param and p value many times, so those two columns
    are formatted once per distinct value, and the whole table then goes
    through one ``%`` call; the text is the same as formatting every entry
    row by row.
    """
    columns = tuple(zip(*rows, strict=True))  # rows of unequal length raise
    if not columns:
        return "param,p,f\n"
    a_col, p_col, f_col = columns
    coord = _CoordText()
    cells = [None] * (3 * len(f_col))
    cells[0::3] = map(coord.__getitem__, a_col)
    cells[1::3] = map(coord.__getitem__, p_col)
    cells[2::3] = f_col
    return "param,p,f\n" + ("%s,%s,%.16e\n" * len(f_col)) % tuple(cells)


def write_scan_csv(rows, path) -> None:
    _write_text(format_scan_csv(rows), path)
