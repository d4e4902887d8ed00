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
and ``%.16e`` values (17 significant digits, exact to re-parse), byte for
byte what ``'%.16e' % x`` gives for each cell. A numpy kernel writes them:
for 1e-29 <= |x| < 1e16 it multiplies |x| by an exact double-double 10**s
(Dekker's two-product, so the product is exact) and rounds that to the 17
digits, as ``%`` does. A cell it cannot prove, because it is 0, not finite,
out of that range, within 1e-9 of a rounding tie, or next to a power of ten
where the exponent estimate is off by one, is formatted by ``%`` itself. So
the text equals ``%``'s by construction, not only on tested inputs.
"""

from __future__ import annotations

import re
from array import array
from functools import cache

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


_CELL = 24  # the longest '%.16e' text: '-1.7976931348623157e+308'
_BLOCK = 4096


def _product_error(a, b, p):
    """Dekker's two-product without FMA: a*b - p exactly, for p = fl(a*b).
    Veltkamp's split (by 2**27 + 1) cuts a and b into 26-bit halves."""
    ta, tb = a * 134217729.0, b * 134217729.0
    a_h, b_h = ta - (ta - a), tb - (tb - b)
    a_l, b_l = a - a_h, b - b_h
    return ((a_h * b_h - p) + a_h * b_l + a_l * b_h) + a_l * b_l


@cache
def _e16_tables():
    """10**s as hi + lo for s in 0..45, exact because 10**s = 2**s * 5**s
    and 5**45 < 2**106; then the 4-byte words a cell is made of: "0000" to
    "9999", NUL + (NUL or "-") + leading digit + ".", and "e-29" to "e+15"."""
    hi = [float(10**s) for s in range(46)]
    pow10 = np.array([hi, [float(10**s - int(h)) for s, h in enumerate(hi)]])
    pow10.setflags(write=False)
    d = np.frombuffer(b"0123456789", np.uint8)
    digits = np.stack(np.meshgrid(d, d, d, d, indexing="ij"), -1).tobytes()
    lead = b"".join(b"\0%c%d." % (sign, k) for sign in b"\0-" for k in range(10))
    exponent = b"".join(b"e%+03d" % e for e in range(-29, 16))
    return pow10, *(np.frombuffer(words, "V4") for words in (digits, lead, exponent))


def _format_e16(values: np.ndarray, out: np.ndarray) -> None:
    """Write ``'%.16e' % v`` for each v of the float64 array values into the
    rows of the (len(values), 24) uint8 array out, right-aligned after NUL
    bytes.

    Exact by construction. For finite 1e-29 <= |v| < 1e16, E estimates
    floor(log10|v|) and s = 16 - E (kept in 1..45). Dekker's two-product of
    |v| with the exact pair 10**s = hi + lo gives p1 + e1 + p2 + e2 ==
    |v| * 10**s exactly; p1 >= 2**53 is then an integer, and the other three
    terms, a few units, are summed with an error below 1e-14. Rounding to
    the nearest integer gives the 17 significant digits D that ``%`` gives,
    as it rounds exactly. A cell falls back to ``%``, one at a time, when v
    is 0, -0.0, not finite or outside that range; when the fraction lies
    within 1e-9 of 1/2 (a tie, or too close to call); or when
    floor(|v| * 10**s) < 10**16 or D >= 10**17, which is E off by one next
    to a power of ten. (Where that floor, computed from the rounded sum,
    reads 10**16 for a product just below it, the product is within 1e-14
    of 10**16, and ``%`` carries to the same text.) Values go through in
    blocks, so that the temporaries stay small whatever the length.
    """
    pow10, digits, lead, exponent = _e16_tables()
    for start in range(0, len(values), _BLOCK):
        x, cells = values[start : start + _BLOCK], out[start : start + _BLOCK]
        a = np.abs(x)
        fallback = ~((a >= 1e-29) & (a < 1e16))  # True for NaN, with no warning
        a[fallback] = 1.0
        e = np.clip(np.floor(np.log10(a)), -29, 15).astype(np.int64)
        hi, lo = pow10[:, 16 - e]
        p1, p2 = a * hi, a * lo
        rest = (_product_error(a, hi, p1) + p2) + _product_error(a, lo, p2)
        whole = np.floor(rest)
        frac = rest - whole
        floor = p1.astype(np.int64) + whole.astype(np.int64)
        d = floor + (frac > 0.5)
        fallback |= (abs(frac - 0.5) <= 1e-9) | (floor < 10**16) | (d >= 10**17)
        d[fallback] = 10**16  # in range for the lookups below, overwritten after
        # d // 10**k for k = 16, 12, 8, 4, 0 (numpy's // by a constant is much
        # faster than its %), cut into 4-digit chunks
        shifted = [d // 10**k for k in (16, 12, 8, 4)] + [d]
        words = cells.view("V4")
        words[:, 0] = lead[shifted[0] + 10 * (x < 0)]
        for w in range(1, 5):
            words[:, w] = digits[shifted[w] - shifted[w - 1] * 10**4]
        words[:, 5] = exponent[e + 29]
        for i in np.flatnonzero(fallback).tolist():
            cells[i] = np.frombuffer(("%.16e" % x[i]).rjust(_CELL, "\0").encode("ascii"), np.uint8)


def format_scan_csv(rows) -> str:
    """CSV text of (param, p, f) rows, every value as ``%.16e``.

    The text is byte for byte ``"%.16e,%.16e,%.16e\\n" % row`` per row. Each
    cell is converted to a double as ``%`` converts it (a str, bytes, None
    or complex cell is a TypeError), then formatted by :func:`_format_e16`,
    whose text is ``%``'s by construction: the cells it cannot prove go to
    ``%`` one at a time. A grid repeats each param and p value, so those two
    columns are formatted once per distinct bit pattern, which keeps 0.0 and
    -0.0 apart. Every cell is written right-aligned into a 24-byte slot of
    one table, and the NUL bytes before it are deleted at the end.
    """
    columns = tuple(zip(*rows, strict=True))  # rows of unequal length raise
    if not columns:
        return "param,p,f\n"
    a_col, p_col, f_col = [np.frombuffer(array("d", col)) for col in columns]
    del columns
    buf = bytearray(10 + len(f_col) * 3 * (_CELL + 1))
    buf[:10] = b"param,p,f\n"
    table = np.frombuffer(buf, np.uint8, offset=10).reshape(-1, 3, _CELL + 1)
    table[:, :, _CELL] = np.frombuffer(b",,\n", np.uint8)
    for j, col in enumerate((a_col, p_col)):
        bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
        cells = np.empty((len(bits), _CELL), np.uint8)
        _format_e16(bits.view(np.float64), cells)
        table[:, j, :_CELL].view("V24")[:, 0] = cells.view("V24")[inverse, 0]
    _format_e16(f_col, table[:, 2, :_CELL])
    del table  # the view pins buf
    text = buf.translate(None, b"\0")
    del buf
    return text.decode("ascii")


def write_scan_csv(rows, path) -> None:
    _write_text(format_scan_csv(rows), path)
