"""Sparse binary matrix interchange in the plain-text alist format.

Layout (indices are 1-based):

    line 1: <cols> <rows>
    line 2: <max column weight> <max row weight>
    line 3: per-column weights
    line 4: per-row weights
    next <cols> lines: row indices of the ones in each column
    next <rows> lines: column indices of the ones in each row

Some writers pad short adjacency lines with zeros; padding is accepted on
read and never emitted on write.

The reader keeps both adjacency sections, after cross-checking them, as
the matrix's row and column supports, whose entries share one int object
per index, and builds no row words: those are built on the first use of
``BinMatrix.bits``, and a matrix that is only written, transposed,
weighed or checked for orthogonality never keeps them.  Text in the form
the writer writes is taken a section at a time: the column section is
mapped through one table of index names and transposed, and the rest is
checked in bulk, the row section as text.  Any other text goes to the
line-by-line parser, which is the one place that names errors.  The
writer reads the same two supports; a matrix that holds no column
supports derives them once from its row supports, and one built from
row words derives both.  A file is decoded as ASCII, and a byte that is
not ASCII is a ``ParseError`` at its line.
"""

from __future__ import annotations

import contextlib
import os

from .gf2 import BinMatrix, _transpose_supports


class ParseError(ValueError):
    """Malformed alist text; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class InconsistentWeights(ParseError):
    """Weight declarations and adjacency lists disagree."""


def dumps_alist(m: BinMatrix) -> str:
    """The alist text of ``m``, written from its column and row supports.

    The column supports are the held ones, derived once from the row
    supports where none are held.  Indices are formatted through one table
    of 1-based index strings.
    """
    supports = m.supports
    columns = m._columns(supports)
    name = [str(k) for k in range(1, max(m.rows, m.cols) + 1)].__getitem__
    col_w = list(map(len, columns))
    row_w = list(map(len, supports))
    lines = [
        f"{m.cols} {m.rows}",
        f"{max(col_w, default=0)} {max(row_w, default=0)}",
        " ".join(map(str, col_w)),
        " ".join(map(str, row_w)),
    ]
    # Column adjacency lists, then row lists.
    lines += [" ".join(map(name, c)) for c in columns]
    lines += [" ".join(map(name, s)) for s in supports]
    return "\n".join(lines) + "\n"


def _ints(lines: list[str], lineno: int) -> list[int]:
    if lineno - 1 >= len(lines):
        raise ParseError(lineno, "unexpected end of file")
    try:
        return [*map(int, lines[lineno - 1].split())]
    except ValueError:
        raise ParseError(lineno, f"non-integer token in {lines[lineno - 1]!r}") from None


# Every token is ASCII digits, but ``int`` also takes a sign, an underscore
# or a non-ASCII digit, and ``str.splitlines`` also breaks at form feed,
# vertical tab and \x1c-\x1e: whole-text scans refuse those.
_REFUSED = "+-_\f\v\x1c\x1d\x1e"


def loads_alist(text: str) -> BinMatrix:
    """The matrix of an alist text: taken a section at a time when the text
    is written as ``dumps_alist`` writes it, else line by line."""
    m = _loads_canonical(text)
    return _loads_lines(text) if m is None else m


def _loads_canonical(text: str) -> BinMatrix | None:
    """The matrix of ``text`` if it is the writer's canonical text, up to
    unsorted column lines and trailing blank lines; None for any other text.

    Each column line is mapped through one ``name -> index`` dict for
    1..rows, so a zero, a leading zero or an index out of range misses it,
    and sorted; the columns are transposed into rows.  Weights, maxima and
    duplicates are then checked in bulk, and the row section is compared,
    as text, with what the writer writes for those rows.  The lines of a
    text with a carriage return are not split here as ``str.splitlines``
    splits them, so such a text is not taken.
    """
    if not text.isascii() or any(c in text for c in _REFUSED + "\r"):
        return None
    lines = text.split("\n")
    try:
        cols, rows = map(int, lines[0].split())
        maxes = [*map(int, lines[1].split())]
        col_w = [*map(int, lines[2].split())]
        row_w = [*map(int, lines[3].split())]
    except (ValueError, IndexError):
        return None
    if (len(col_w) != cols or len(row_w) != rows
            or maxes != [max(col_w, default=0), max(row_w, default=0)]):
        return None
    names = [str(k) for k in range(1, max(rows, cols) + 1)]
    index = dict(zip(names, range(rows))).__getitem__
    try:
        columns = [tuple(sorted(map(index, line.split()))) for line in lines[4:4 + cols]]
    except KeyError:
        return None
    if (list(map(len, columns)) != col_w
            or sum(map(len, map(set, columns))) != sum(col_w)):
        return None
    supports = _transpose_supports(columns, rows)
    end = 4 + cols + rows
    name = names.__getitem__
    if (list(map(len, supports)) != row_w
            or lines[4 + cols:end] != [" ".join(map(name, s)) for s in supports]
            or any(map(str.strip, lines[end:]))):
        return None
    return BinMatrix._from_supports(rows, cols, supports, tuple(columns))


def _loads_lines(text: str) -> BinMatrix:
    """The matrix of any alist text the format allows, read line by line;
    each malformed text raises ``ParseError`` at its first bad line.  Only
    a refusal by the whole-text scans looks for the line."""
    if not text.isascii() or any(c in text for c in _REFUSED):
        i = next(i for i, c in enumerate(text) if c in _REFUSED or not c.isascii())
        raise ParseError(len((text[:i] + "|").splitlines()), f"{text[i]!r} is not an ASCII digit")
    lines = text.splitlines()
    header = _ints(lines, 1)
    if len(header) != 2:
        raise ParseError(1, "expected '<cols> <rows>'")
    cols, rows = header
    maxes = _ints(lines, 2)
    if len(maxes) != 2:
        raise ParseError(2, "expected '<max col weight> <max row weight>'")
    col_w = _ints(lines, 3)
    if len(col_w) != cols:
        raise InconsistentWeights(3, f"expected {cols} column weights, got {len(col_w)}")
    row_w = _ints(lines, 4)
    if len(row_w) != rows:
        raise InconsistentWeights(4, f"expected {rows} row weights, got {len(row_w)}")
    if maxes != [max(col_w, default=0), max(row_w, default=0)]:
        raise InconsistentWeights(2, "declared maxima do not match the weight lists")

    # Column lists are read into per-row index lists (increasing column
    # order, one append per entry) and kept, sorted, as the column
    # supports.  Each row line is then checked against its list: first as
    # text, which is how the writer writes it, and failing that as read,
    # and sorted only when that fails.  The lists become the row supports.
    # Both supports share their index objects: a row support holds the one
    # int of each column, and a column support takes the 0-based index of
    # each 1-based entry e from one table, ``row_index[e]``.
    row_cols: list[list[int]] = [[] for _ in range(rows)]
    col_rows = []
    row_index = list(range(-1, rows)).__getitem__
    for j in range(cols):
        lineno = 5 + j
        entries = _ints(lines, lineno)
        if 0 in entries:
            entries = [e for e in entries if e != 0]
        if len(entries) != col_w[j]:
            raise InconsistentWeights(
                lineno, f"column {j} lists {len(entries)} entries, weight says {col_w[j]}")
        for e in entries:
            if e > rows:
                raise ParseError(lineno, f"row index {e} outside 1..{rows}")
            listed = row_cols[e - 1]
            if listed and listed[-1] == j:
                raise InconsistentWeights(lineno, f"duplicate entry {e} in column {j}")
            listed.append(j)
        col_rows.append(tuple(sorted(map(row_index, entries))))
    name = [str(k) for k in range(1, cols + 1)].__getitem__
    for i in range(rows):
        lineno = 5 + cols + i
        expected = row_cols[i]
        if (lineno <= len(lines) and len(expected) == row_w[i]
                and lines[lineno - 1] == " ".join(map(name, expected))):
            continue
        entries = _ints(lines, lineno)
        if 0 in entries:
            entries = [e for e in entries if e != 0]
        if len(entries) != row_w[i]:
            raise InconsistentWeights(
                lineno, f"row {i} lists {len(entries)} entries, weight says {row_w[i]}")
        listed = [e - 1 for e in entries]
        if listed == expected:
            continue
        for e in entries:
            if e > cols:
                raise ParseError(lineno, f"column index {e} outside 1..{cols}")
        listed.sort()
        if listed != expected:
            if sorted(set(listed)) == expected:
                e = next(e for e, f in zip(listed, listed[1:]) if e == f)
                raise InconsistentWeights(lineno, f"duplicate entry {e + 1} in row {i}")
            raise InconsistentWeights(lineno, f"row {i} adjacency disagrees with columns")
    for extra in range(4 + cols + rows, len(lines)):
        if lines[extra].strip():
            raise ParseError(extra + 1, "trailing non-blank line")
    return BinMatrix._from_supports(rows, cols, tuple(map(tuple, row_cols)), tuple(col_rows))


def _decode(data: bytes, encoding: str) -> str:
    """``data`` as text; a byte that does not decode is a ``ParseError`` at its
    1-based line, counted as ``str.splitlines`` counts the lines of a parse."""
    try:
        return data.decode(encoding)
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start].decode(encoding) + "|").splitlines())
        raise ParseError(line, f"byte {data[exc.start]:#04x} is not {encoding}") from None


def _write_text_atomic(path, text: str, encoding: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then rename it onto ``path``.

    An interrupted write leaves ``path`` as it was, and the temporary file
    is removed.
    """
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding=encoding) as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_alist(m: BinMatrix, path) -> None:
    _write_text_atomic(path, dumps_alist(m), "ascii")


def read_alist(path) -> BinMatrix:
    with open(os.fspath(path), "rb") as fh:
        return loads_alist(_decode(fh.read(), "ascii"))
