"""alist reader/writer round-trips and error reporting."""

from __future__ import annotations

import os
import random

import pytest

from homprod import alist
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
from helpers import random_sparse


def test_smallest_case_layout():
    assert dumps_alist(BinMatrix.from_string("11")) == \
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
    assert m == BinMatrix.from_string("11 01")
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
    assert loads_alist("2 1\n1 2\n1 1\n2\n1\n1\n2 1\n") == BinMatrix.from_string("11")
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
    text = dumps_alist(BinMatrix.from_string("11")) + "\n\n"
    assert loads_alist(text) == BinMatrix.from_string("11")
    with pytest.raises(ParseError):
        loads_alist(dumps_alist(BinMatrix.from_string("11")) + "junk\n")


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
    old = BinMatrix.from_string("110 011")
    write_alist(old, path)
    _fail_writes_to(monkeypatch, "m.alist")
    with pytest.raises(OSError):
        write_alist(BinMatrix.identity(5), path)
    assert os.listdir(tmp_path) == ["m.alist"]
    assert path.read_text() == dumps_alist(old)


def test_interrupted_manifest_write_keeps_the_old_manifest(tmp_path, monkeypatch):
    cx = one_complex(BinMatrix.from_string("110 011"))
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
    old = one_complex(BinMatrix.from_string("110 011"))
    save_bundle(old, tmp_path, {"run": 1})
    before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    _fail_writes_to(monkeypatch, "manifest.json")
    with pytest.raises(OSError):
        save_bundle(power_complex(repetition_circulant(3), 1, 1), tmp_path, {"run": 2})
    # Every file was still under its temporary name, so nothing was renamed
    # into place, and every temporary file is gone.
    assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before
    loaded = load_bundle(tmp_path)
    assert loaded.complex.boundaries == old.boundaries
    assert loaded.provenance == {"run": 1}


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
