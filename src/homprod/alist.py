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
weighed or checked for orthogonality never keeps them.  The writer reads the
same supports; a matrix built from row words derives them once.  A file
is decoded as ASCII, and a byte that is not ASCII is a ``ParseError`` at
its line.
"""

from __future__ import annotations

import contextlib
import os

from .gf2 import BinMatrix


class ParseError(ValueError):
    """Malformed alist text; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class InconsistentWeights(ParseError):
    """Weight declarations and adjacency lists disagree."""


def dumps_alist(m: BinMatrix) -> str:
    """The alist text of ``m``, written in a single pass over its row supports.

    Each row's index names are appended to its columns' lists as the row
    is written, so the column section needs no transpose.  Indices are
    formatted through one table of 1-based index strings.
    """
    names = [str(k) for k in range(1, max(m.rows, m.cols) + 1)]
    name = names.__getitem__
    col_lists: list[list[str]] = [[] for _ in range(m.cols)]
    row_lines = []
    for row_name, s in zip(names, m.supports):
        for j in s:
            col_lists[j].append(row_name)
        row_lines.append(" ".join(map(name, s)))
    col_w = list(map(len, col_lists))
    row_w = m.row_weights()
    lines = [
        f"{m.cols} {m.rows}",
        f"{max(col_w, default=0)} {max(row_w, default=0)}",
        " ".join(map(str, col_w)),
        " ".join(map(str, row_w)),
    ]
    # Column adjacency lists, then row lists.
    lines += [" ".join(c) for c in col_lists]
    lines += row_lines
    return "\n".join(lines) + "\n"


def _ints(lines: list[str], lineno: int) -> list[int]:
    if lineno - 1 >= len(lines):
        raise ParseError(lineno, "unexpected end of file")
    try:
        return [*map(int, lines[lineno - 1].split())]
    except ValueError:
        raise ParseError(lineno, f"non-integer token in {lines[lineno - 1]!r}") from None


def loads_alist(text: str) -> BinMatrix:
    # Every token is ASCII digits, but ``int`` also takes a sign, an
    # underscore or a non-ASCII digit, and ``str.splitlines`` also breaks at
    # form feed, vertical tab and \x1c-\x1e: whole-text scans refuse those,
    # and only a refusal looks for the line.
    refused = "+-_\f\v\x1c\x1d\x1e"
    if not text.isascii() or any(c in text for c in refused):
        i = next(i for i, c in enumerate(text) if c in refused or not c.isascii())
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
