"""alist reader/writer round-trips and error reporting."""

from __future__ import annotations

import os
import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from homprod import alist, bundle
from homprod.bundle import load_bundle, save_bundle
from homprod.cli import main as cli_main
from homprod import (
    BinMatrix,
    InconsistentWeights,
    ParseError,
    dumps_alist,
    loads_alist,
    one_complex,
    power_complex,
    read_alist,
    repetition_circulant,
    write_alist,
)
from helpers import from_string, mat_columns, random_matrix, random_sparse, ref_matmul


def test_smallest_case_layout():
    assert dumps_alist(from_string("11")) == \
        "2 1\n1 2\n1 1\n2\n1\n1\n1 2\n"


def test_empty_matrix_layout():
    text = dumps_alist(BinMatrix.zeros(0, 0))
    assert text == "0 0\n0 0\n\n\n"
    assert loads_alist(text) == BinMatrix.zeros(0, 0)


def test_zero_rows_round_trip():
    m = BinMatrix.zeros(0, 3)
    assert loads_alist(dumps_alist(m)) == m
    m = BinMatrix.zeros(2, 0)
    assert loads_alist(dumps_alist(m)) == m


def test_round_trip_random_sparse():
    rng = random.Random(600)
    for _ in range(40):
        m = random_sparse(rng, 20, 30, rng.randint(0, 4), rng.randint(1, 6))
        assert loads_alist(dumps_alist(m)) == m


def test_zero_padding_accepted_never_emitted():
    padded = "2 2\n2 2\n1 2\n2 1\n1 0\n1 2\n1 2\n2 0\n"
    m = loads_alist(padded)
    assert m == from_string("11 01")
    assert "0" not in dumps_alist(m).splitlines()[4]


def test_file_round_trip(tmp_path):
    m = random_sparse(random.Random(601), 6, 9)
    path = tmp_path / "m.alist"
    write_alist(m, path)
    assert read_alist(path) == m


def test_parse_error_reports_line():
    with pytest.raises(ParseError) as err:
        loads_alist("2 x\n")
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        loads_alist("2 1\n1 2\n1 1\n2\n")
    assert err.value.line == 5


def test_inconsistent_weights():
    # Column 0 lists one entry but declares weight 2.
    bad = "2 1\n2 2\n2 1\n2\n1\n1\n1 2\n"
    with pytest.raises(InconsistentWeights):
        loads_alist(bad)
    # Row adjacency disagrees with the columns.
    bad = "2 1\n1 2\n1 1\n2\n1\n1\n1 1\n"
    with pytest.raises(InconsistentWeights):
        loads_alist(bad)
    # Declared maxima off.
    bad = "2 1\n9 2\n1 1\n2\n1\n1\n1 2\n"
    with pytest.raises(InconsistentWeights):
        loads_alist(bad)


def test_duplicate_row_entry():
    # Row 0 lists column 1 twice: its declared weight 2 matches the list
    # length but not the one entry the columns give it.
    with pytest.raises(InconsistentWeights) as err:
        loads_alist("2 1\n1 2\n1 0\n2\n1\n\n1 1\n")
    assert err.value.line == 7
    assert "duplicate entry 1 in row 0" in str(err.value)
    # A row that lists its columns out of order is fine.
    assert loads_alist("2 1\n1 2\n1 1\n2\n1\n1\n2 1\n") == from_string("11")
    # A duplicate in a column is reported at the column's line.
    with pytest.raises(InconsistentWeights) as err:
        loads_alist("1 2\n2 1\n2\n1 1\n1 1\n1\n1\n")
    assert err.value.line == 5
    assert "duplicate entry 1 in column 0" in str(err.value)


def test_out_of_range_index():
    bad = "2 1\n1 2\n1 1\n2\n1\n5\n1 2\n"
    with pytest.raises(ParseError):
        loads_alist(bad)


def test_trailing_blank_lines_tolerated():
    text = dumps_alist(from_string("11")) + "\n\n"
    assert loads_alist(text) == from_string("11")
    with pytest.raises(ParseError):
        loads_alist(dumps_alist(from_string("11")) + "junk\n")


# A 2x3 matrix, rows {0, 1} and {1, 2}, as the writer writes it; each
# malformed text below replaces some of its lines (1-based).
GOOD_LINES = ["3 2", "2 2", "1 2 1", "2 2", "1", "1 2", "2", "1 2", "2 3"]


def _with(**lines) -> str:
    """GOOD_LINES with line ``n`` replaced by the value of ``l<n>``."""
    out = list(GOOD_LINES)
    for key, value in lines.items():
        out[int(key[1:]) - 1] = value
    return "\n".join(out) + "\n"


# (name, text, exception class, line); each class and line is the one the
# reader raised before it kept supports.
MALFORMED = [
    ("empty file", "", ParseError, 1),
    ("header token", _with(l1="3 x"), ParseError, 1),
    ("header arity", _with(l1="3"), ParseError, 1),
    ("negative header", _with(l1="-3 2"), ParseError, 1),
    ("maxima arity", _with(l2="2 2 2"), ParseError, 2),
    ("wrong maxima", _with(l2="2 3"), InconsistentWeights, 2),
    ("weight count before maxima", _with(l2="9 9", l3="1 2"), InconsistentWeights, 3),
    ("column weight count", _with(l3="1 2"), InconsistentWeights, 3),
    ("row weight count", _with(l4="2 2 2"), InconsistentWeights, 4),
    ("column line token", _with(l6="1 y"), ParseError, 6),
    ("column line weight", _with(l5="1 2"), InconsistentWeights, 5),
    ("column index out of range", _with(l6="1 3"), ParseError, 6),
    ("negative column index", _with(l7="-1"), ParseError, 7),
    ("column duplicate", _with(l6="1 1"), InconsistentWeights, 6),
    ("row line weight", _with(l8="1"), InconsistentWeights, 8),
    ("row index out of range", _with(l8="1 4"), ParseError, 8),
    ("row line token", _with(l9="2 z"), ParseError, 9),
    ("row duplicate", "2 1\n1 2\n1 0\n2\n1\n\n1 1\n", InconsistentWeights, 7),
    ("row duplicate that disagrees", _with(l9="2 2"), InconsistentWeights, 9),
    ("sections disagree", _with(l9="1 3"), InconsistentWeights, 9),
    ("short column section", "\n".join(GOOD_LINES[:6]) + "\n", ParseError, 7),
    ("short file", "\n".join(GOOD_LINES[:7]) + "\n", ParseError, 8),
    ("short row section", "\n".join(GOOD_LINES[:8]) + "\n", ParseError, 9),
    ("trailing line", _with() + "junk\n", ParseError, 10),
    ("trailing line after blanks", _with() + "\n\njunk\n", ParseError, 12),
    # Tokens that ``int`` takes but the writer never emits.
    ("signed header", _with(l1="+3 2"), ParseError, 1),
    ("signed column index", _with(l6="1 +2"), ParseError, 6),
    ("underscored row index", _with(l9="2 0_3"), ParseError, 9),
    ("full-width digit", _with(l7="\uff12"), ParseError, 7),
    ("non-ASCII space", _with(l8="1\u00a02"), ParseError, 8),
    ("sign after CRLF lines", _with(l5="-1").replace("\n", "\r\n"), ParseError, 5),
    # Line breaks that ``str.splitlines`` takes but the writer never emits.
    ("form feed line breaks", _with().replace("\n", "\f"), ParseError, 1),
    ("vertical tab in a column line", _with(l6="1\v2"), ParseError, 6),
    ("file separator line breaks", _with().replace("\n", "\x1c", 3), ParseError, 1),
    ("group separator in a row line", _with(l9="2\x1d3"), ParseError, 9),
    ("record separator after CRLF lines", _with(l7="2\x1e").replace("\n", "\r\n"), ParseError, 7),
]


@pytest.mark.parametrize("text, cls, line", [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_alist_error_class_and_line(text, cls, line):
    with pytest.raises(ParseError) as err:
        loads_alist(text)
    assert (type(err.value), err.value.line) == (cls, line)
    assert str(err.value).startswith(f"line {line}: ")


ACCEPTED = [
    ("zero padding", _with(l5="1 0", l7="2 0")),
    ("unsorted row lines", _with(l8="2 1", l9="3 2")),
    ("unsorted column line", _with(l6="2 1")),
    ("padded and unsorted row line", _with(l9="0 3 2")),
    ("trailing blank lines", _with() + "\n  \n\n"),
    ("CRLF line ends and extra spaces", _with(l6=" 1   2 ").replace("\n", "\r\n")),
]


@pytest.mark.parametrize("text", [case[1] for case in ACCEPTED],
                         ids=[case[0] for case in ACCEPTED])
def test_accepted_alist_variants(text):
    m = loads_alist(text)
    assert m == from_string("110 011")
    assert m.supports == ((0, 1), (1, 2))
    assert m.transpose().supports == ((0,), (0, 1), (1,))
    assert dumps_alist(m) == _with()


def test_non_ascii_byte_is_a_parse_error_at_its_line(tmp_path):
    path = tmp_path / "m.alist"
    path.write_bytes(_with(l7="2 \u00e9").encode("utf-8"))
    with pytest.raises(ParseError) as err:
        read_alist(path)
    assert err.value.line == 7
    path.write_bytes(b"\xff\xfe 3\n")
    with pytest.raises(ParseError) as err:
        read_alist(path)
    assert err.value.line == 1


def test_read_write_transpose_and_weights_build_no_row_words():
    source = random_sparse(random.Random(603), 30, 50)
    m = loads_alist(dumps_alist(source))
    t = m.transpose()
    assert dumps_alist(loads_alist(dumps_alist(t))) == dumps_alist(t)
    assert (m.row_weights(), m.col_weights(), t.row_weights(), m.is_zero()) == \
        (source.row_weights(), source.col_weights(), source.col_weights(), False)
    assert [m[i, 7] for i in range(30)] == [(w >> 7) & 1 for w in source.bits]
    assert m._bits is None and t._bits is None
    # The left operand of a product reads its supports; the right one builds
    # its words for that product and keeps none.
    assert list((m @ t).bits) == ref_matmul(source, source.transpose())
    assert m._bits is None and t._bits is None
    assert m.bits == source.bits and list(t.bits) == mat_columns(source)


def _naive_alist(rows: list[list[int]], ncols: int) -> str:
    """The alist text of a 0/1 row list, built entry by entry."""
    cols = [[i + 1 for i, row in enumerate(rows) if row[j]] for j in range(ncols)]
    adj_rows = [[j + 1 for j in range(ncols) if row[j]] for row in rows]
    col_w = [len(c) for c in cols]
    row_w = [len(r) for r in adj_rows]
    lines = [f"{ncols} {len(rows)}",
             f"{max(col_w, default=0)} {max(row_w, default=0)}",
             " ".join(map(str, col_w)), " ".join(map(str, row_w))]
    lines += [" ".join(map(str, entries)) for entries in cols + adj_rows]
    return "\n".join(lines) + "\n"


def test_dumps_matches_naive_writer():
    rng = random.Random(602)
    shapes = [(0, 0), (0, 4), (3, 0), (1, 1)] + \
        [(rng.randint(0, 12), rng.randint(0, 20)) for _ in range(40)] + \
        [(9, 3000), (300, 1000)]  # wide sparse: at most 12 ones a row
    for r, c in shapes:
        density = rng.random()
        if c >= 1000:
            ones = [set(rng.sample(range(c), rng.randint(0, 12))) for _ in range(r)]
            rows = [[int(j in row) for j in range(c)] for row in ones]
        else:
            rows = [[int(rng.random() < density) for _ in range(c)] for _ in range(r)]
        m = BinMatrix(r, c, [sum(bit << j for j, bit in enumerate(row)) for row in rows])
        assert dumps_alist(m) == _naive_alist(rows, c)


class _HalfWrite:
    """A text file that writes half of its first chunk, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()
        return False

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        self.fh.flush()
        raise OSError("no space left on device")


def _fail_writes_to(monkeypatch, name):
    """Make every write to a file whose path contains ``name`` stop midway."""
    def opener(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        return _HalfWrite(fh) if name in os.fspath(path) else fh
    monkeypatch.setattr(alist, "open", opener, raising=False)


def test_interrupted_write_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "m.alist"
    old = from_string("110 011")
    write_alist(old, path)
    _fail_writes_to(monkeypatch, "m.alist")
    with pytest.raises(OSError):
        write_alist(BinMatrix.identity(5), path)
    assert os.listdir(tmp_path) == ["m.alist"]
    assert path.read_text() == dumps_alist(old)


def test_interrupted_manifest_write_keeps_the_old_manifest(tmp_path, monkeypatch):
    cx = one_complex(from_string("110 011"))
    save_bundle(cx, tmp_path, {"run": 1})
    before = sorted(os.listdir(tmp_path))
    manifest = (tmp_path / "manifest.json").read_text()
    _fail_writes_to(monkeypatch, "manifest.json")
    with pytest.raises(OSError):
        save_bundle(cx, tmp_path, {"run": 2})
    assert sorted(os.listdir(tmp_path)) == before
    assert (tmp_path / "manifest.json").read_text() == manifest
    assert load_bundle(tmp_path).provenance == {"run": 1}


def test_interrupted_bundle_save_keeps_the_old_bundle(tmp_path, monkeypatch):
    # A one-space bundle overwritten by toric L=3, which has one more
    # boundary and other dims; the manifest, written last, fails.
    old = one_complex(from_string("110 011"))
    save_bundle(old, tmp_path, {"run": 1})
    before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    new = power_complex(repetition_circulant(3), 1, 1)

    def assert_old_bundle_kept():
        # Every file was still under its temporary name, so nothing was
        # renamed into place, and every temporary file is gone.
        assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before
        loaded = load_bundle(tmp_path)
        assert loaded.complex.boundaries == old.boundaries
        assert loaded.provenance == {"run": 1}

    _fail_writes_to(monkeypatch, "manifest.json")
    with pytest.raises(OSError):
        save_bundle(new, tmp_path, {"run": 2})
    assert_old_bundle_kept()
    monkeypatch.undo()

    # A streamed save cut off at boundary 2, first by its iterator, then by
    # the write of that boundary.
    def cut_off():
        yield new.boundaries[0]
        raise RuntimeError("boundary 2 is not there")

    with pytest.raises(RuntimeError):
        bundle._save_boundaries(tmp_path, new.dims, cut_off(), {"run": 3})
    assert_old_bundle_kept()
    _fail_writes_to(monkeypatch, "A2.alist")
    with pytest.raises(OSError):
        bundle._save_boundaries(tmp_path, new.dims, iter(new.boundaries), {"run": 4})
    assert_old_bundle_kept()


def test_streamed_save_lets_each_boundary_go_before_the_next(tmp_path):
    cx = power_complex(from_string("1100 0110 0011"), 2, 1)
    refs = []

    def fresh_boundaries():
        for b in cx.boundaries:
            fresh = BinMatrix(b.rows, b.cols, b.bits)
            yield fresh
            # Back here only when the writer asks for the next boundary:
            # this frame and getrefcount's argument are the only references.
            refs.append(sys.getrefcount(fresh))
            del fresh

    bundle._save_boundaries(tmp_path, cx.dims, fresh_boundaries(), {"run": 1})
    assert refs == [2] * (cx.m - 1)
    assert load_bundle(tmp_path).complex == cx


def test_loaded_bundle_keeps_no_row_words(tmp_path):
    # A 3 x 4 seed gives a 4D power whose three pairs are checked in both
    # orientations; no check leaves words on a boundary.
    cx = power_complex(from_string("1100 0110 0011"), 2, 2)
    pairs = list(zip(cx.boundaries, cx.boundaries[1:]))
    assert {left.rows < right.cols for left, right in pairs} == {True, False}
    save_bundle(cx, tmp_path)
    loaded = load_bundle(tmp_path).complex
    assert all(b._bits is None for b in loaded.boundaries)
    assert loaded == cx


def test_read_supports_share_one_int_per_index():
    # 300 x 300, so most indices are past the interpreter's small-int cache.
    source = random_matrix(random.Random(605), 300, 300, density=0.02)
    m = loads_alist(dumps_alist(source))
    for supports in (m.supports, m.transpose().supports):
        seen = {}
        for support in supports:
            for index in support:
                assert seen.setdefault(index, index) is index
        assert len(seen) > 256


def test_interrupted_css_export_keeps_the_old_metadata(tmp_path, monkeypatch, capsys):
    bundle = tmp_path / "bundle"
    css = tmp_path / "css"
    assert cli_main(["power", "--ensemble", "rep:3", "--a", "1", "--b", "1",
                     "--out", str(bundle)]) == 0
    assert cli_main(["export-css", str(bundle), "--level", "1", "--out", str(css)]) == 0
    meta = (css / "css.json").read_text()
    _fail_writes_to(monkeypatch, "css.json")
    assert cli_main(["export-css", str(bundle), "--level", "0", "--out", str(css)]) == 4
    assert "no space left on device" in capsys.readouterr().err
    assert sorted(os.listdir(css)) == ["css.json", "gx.alist", "gz.alist"]
    assert (css / "css.json").read_text() == meta


# --- a matrix read from an alist against the same matrix built from words ----

@st.composite
def word_matrices(draw, rows=None, cols=None):
    """Any shape up to 12 x 24, zero rows or columns included; each row is
    empty, all ones or random."""
    rows = draw(st.integers(0, 12)) if rows is None else rows
    cols = draw(st.integers(0, 24)) if cols is None else cols
    full = (1 << cols) - 1
    words = [draw(st.sampled_from([0, full]) | st.integers(0, full)) for _ in range(rows)]
    return BinMatrix(rows, cols, words)


@settings(max_examples=80, deadline=None)
@given(st.data())
@example(None)
def test_property_read_matrix_agrees_with_word_matrix(data):
    if data is None:  # explicit example: the empty shapes
        shapes = [BinMatrix(0, 0), BinMatrix(0, 3), BinMatrix(4, 0)]
        cases = [(m, BinMatrix(m.cols, 2), BinMatrix(1, m.rows), 0) for m in shapes]
    else:
        m = data.draw(word_matrices())
        right = data.draw(word_matrices(rows=m.cols))
        left = data.draw(word_matrices(cols=m.rows))
        cases = [(m, right, left, data.draw(st.integers(0, (1 << m.cols) - 1)))]
    for m, right, left, x in cases:
        text = dumps_alist(m)
        words = list(m.bits)
        ones = [[j for j in range(m.cols) if (w >> j) & 1] for w in words]
        cols = mat_columns(m)
        assert text == _naive_alist([[int(j in row) for j in range(m.cols)] for row in ones],
                                    m.cols)
        # A fresh read for each check, so every check runs before any other
        # could build the read matrix's row words.
        def read():
            return loads_alist(text)
        assert read().supports == m.supports == tuple(map(tuple, ones))
        assert read().row_weights() == m.row_weights() == list(map(len, ones))
        assert read().col_weights() == m.col_weights() == [c.bit_count() for c in cols]
        assert read().is_zero() == m.is_zero() == (not any(words))
        r = read()
        assert all(r[i, j] == m[i, j] == ((w >> j) & 1)
                   for i, w in enumerate(words) for j in range(m.cols))
        assert dumps_alist(read()) == text
        assert dumps_alist(read().transpose()) == dumps_alist(m.transpose())
        assert list(read().transpose().bits) == list(m.transpose().bits) == cols
        assert read().transpose().transpose() == m == read()
        assert list(read().transpose().transpose().bits) == words
        assert list(read().bits) == words
        assert hash(read()) == hash(m)
        assert repr(read()) == repr(m)
        assert read().mul_vec(x) == m.mul_vec(x) == sum(
            ((w & x).bit_count() & 1) << i for i, w in enumerate(words))
        # Either form on the left of a product and on the right.
        read_right = loads_alist(dumps_alist(right))
        read_left = loads_alist(dumps_alist(left))
        product = ref_matmul(m, right)
        assert list((read() @ right).bits) == list((m @ read_right).bits) == product
        assert list((read() @ read_right).bits) == list((m @ right).bits) == product
        product = ref_matmul(left, m)
        assert list((read_left @ read()).bits) == list((left @ m).bits) == product
        assert list((left @ read()).bits) == list((read_left @ m).bits) == product


# --- the section-at-a-time reader against the line-by-line parser -----------

def _mutate(draw, text: str, mutation: str) -> str:
    """``text`` with one change of the kind ``mutation`` names, at a drawn place."""
    if mutation == "CRLF":
        return text.replace("\n", "\r\n")
    if mutation == "trailing blanks":
        return text + draw(st.sampled_from(["\n", " \n\n", "\t\n \n"]))
    if mutation == "truncation":
        return text[:draw(st.integers(0, len(text)))]
    lines = text.splitlines()
    cols, rows = map(int, lines[0].split())
    # (index of the weight line, indices of the adjacency lines) per section.
    columns, row_lines = (2, range(4, 4 + cols)), (3, range(4 + cols, 4 + cols + rows))
    if mutation == "duplicate in both sections":
        ones = [(i, int(t) - 1) for i, k in enumerate(row_lines[1]) for t in lines[k].split()]
        if ones:
            i, j = draw(st.sampled_from(ones))
            lines[4 + j] += f" {i + 1}"
            lines[4 + cols + i] += f" {j + 1}"
            col_w, row_w = ([int(w) for w in lines[n].split()] for n in (2, 3))
            col_w[j] += 1
            row_w[i] += 1
            lines[1] = f"{max(col_w)} {max(row_w)}"
            lines[2], lines[3] = " ".join(map(str, col_w)), " ".join(map(str, row_w))
    elif mutation in ("swapped row lines", "swapped weights"):
        n, at = row_lines if mutation == "swapped row lines" else draw(
            st.sampled_from([columns, row_lines]))
        if len(at) >= 2:
            i, j = draw(st.lists(st.integers(0, len(at) - 1), min_size=2, max_size=2,
                                 unique=True))
            if mutation == "swapped row lines":
                lines[at[i]], lines[at[j]] = lines[at[j]], lines[at[i]]
            else:
                w = lines[n].split()
                w[i], w[j] = w[j], w[i]
                lines[n] = " ".join(w)
    elif cols + rows:
        k = draw(st.integers(4, 3 + cols + rows))
        tokens = lines[k].split()
        if mutation == "zero padding":
            tokens += ["0"] * draw(st.integers(1, 2))
        elif mutation == "leading zeros" and tokens:
            t = draw(st.integers(0, len(tokens) - 1))
            tokens[t] = "0" + tokens[t]
        elif mutation == "unsorted line":
            tokens.reverse()
        sep = draw(st.sampled_from(["  ", "\t", " \t"])) \
            if mutation == "doubled spaces or tabs" else " "
        lines[k] = draw(st.sampled_from(["", sep])) + sep.join(tokens)
    return "\n".join(lines) + "\n"


MUTATIONS = ["none", "zero padding", "leading zeros", "doubled spaces or tabs",
             "unsorted line", "CRLF", "trailing blanks", "duplicate in both sections",
             "swapped row lines", "swapped weights", "truncation"]


def _outcome(parse, text):
    """(matrix shape, row supports, column supports), or (error class, line, message)."""
    try:
        m = parse(text)
    except ParseError as exc:
        return type(exc), exc.line, str(exc)
    return m.shape, m.supports, m.transpose().supports


@settings(max_examples=300, deadline=None)
@given(st.data())
@example(None)
def test_property_reader_agrees_with_the_line_parser(data):
    # The reader takes canonical text a section at a time and hands any other
    # text to the line-by-line parser: it gives that parser's matrix, or its
    # error class, line and message, for every text.
    if data is None:  # explicit examples: the accepted variants, the malformed texts
        texts = [case[1] for case in ACCEPTED + MALFORMED] + [  # and texts off by a section
            _with(l3="2 1 1"),  # swapped column weights
            "3 2\n1 2\n1 1 1\n2 1\n1\n2\n2\n1\n2 3\n",  # swapped row weights
            "1 1\n2 2\n2\n2\n1 1\n1 1\n",  # one duplicate written into both sections
            "\n".join(GOOD_LINES[:4] + GOOD_LINES[5:6] + GOOD_LINES[4:5] + GOOD_LINES[6:]) + "\n",
        ]
    else:
        m = data.draw(word_matrices())
        texts = [_mutate(data.draw, dumps_alist(m), data.draw(st.sampled_from(MUTATIONS)))]
    for text in texts:
        assert _outcome(loads_alist, text) == _outcome(alist._loads_lines, text)


@settings(max_examples=60, deadline=None)
@given(word_matrices())
def test_canonical_text_is_read_a_section_at_a_time(m):
    text = dumps_alist(m)
    # A matrix built from row words keeps no supports that a write derived.
    assert m._supports is None and m._col_supports is None
    read = alist._loads_canonical(text)
    assert read is not None and read._bits is None
    assert (read.shape, read.supports, read.transpose().supports) == \
        (m.shape, m.supports, m.transpose().supports)
    # Trailing blank lines and unsorted column lines are still taken; a
    # zero, a carriage return or a wrong row line is not.
    lines = text.splitlines()
    assert alist._loads_canonical(text + "\n \n") is not None
    cols = m.cols
    for k in range(4, 4 + cols):
        lines[k] = " ".join(reversed(lines[k].split()))
    assert alist._loads_canonical("\n".join(lines) + "\n") is not None
    assert alist._loads_canonical(text.replace("\n", "\r\n")) is None
    if m.rows:
        assert alist._loads_canonical(text + "0\n") is None
