"""End-to-end CLI flows through main()."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest.mock import Mock

import pytest
from hypothesis import example, given, settings, strategies as st

import homprod
from homprod import (
    BinMatrix,
    CssCode,
    InvalidSpec,
    complexes,
    css_parameters,
    distance,
    gf2,
    power_complex,
    read_alist,
    write_alist,
)
from homprod import bundle, cli
from homprod.bundle import load_bundle, save_bundle
from homprod.cli import main
from helpers import from_rows, from_string


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(out: str) -> dict:
    return json.loads(out)


@pytest.fixture()
def toric_bundle(tmp_path, capsys):
    out = tmp_path / "toric"
    code, _, _ = run(capsys, "power", "--ensemble", "rep:3",
                     "--a", "1", "--b", "1", "--out", str(out))
    assert code == 0
    return out


def test_power_then_distance(toric_bundle, capsys):
    code, out, _ = run(capsys, "distance", str(toric_bundle), "--level", "1")
    assert code == 0
    report = parse_report(out)
    entry = report["levels"][0]
    assert entry["n"] == 18
    assert entry["k"] == 2
    assert entry["homology"]["d"] == 3
    assert entry["cohomology"]["d"] == 3
    assert entry["homology"]["exact"] is True
    witness = entry["homology"]["witness"]
    assert witness.count("1") == 3 and len(witness) == 18


def test_analyze_report(toric_bundle, capsys):
    code, out, _ = run(capsys, "analyze", str(toric_bundle))
    assert code == 0
    report = parse_report(out)
    assert report["dims"] == [9, 18, 9]
    assert [e["k"] for e in report["levels"]] == [1, 2, 1]
    # A_1 columns touch one seed block (weight 2); rows touch both (2 + 2).
    assert report["levels"][1]["sparsity"] == [2, 4]


def test_json_lines_format(toric_bundle, capsys):
    code, out, _ = run(capsys, "analyze", str(toric_bundle), "--format", "json-lines")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert any(rec["record"] == "provenance" for rec in lines)
    assert sum(rec["record"] == "level" for rec in lines) == 3


def test_infinite_distance_serializes_as_inf(tmp_path, capsys):
    out = tmp_path / "idbundle"
    code, _, _ = run(capsys, "build", "--ensemble", "id:3", "--out", str(out))
    assert code == 0
    code, text, _ = run(capsys, "distance", str(out), "--level", "1")
    assert code == 0
    entry = parse_report(text)["levels"][0]
    assert entry["homology"]["d"] == "inf"


def test_verify_product_bundle(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    prod = tmp_path / "prod"
    assert run(capsys, "build", "--ensemble", "rep:3", "--out", str(a))[0] == 0
    assert run(capsys, "build", "--ensemble", "rep:2", "--out", str(b))[0] == 0
    code, out, _ = run(capsys, "product", str(a), str(b), "--out", str(prod))
    assert code == 0
    code, out, _ = run(capsys, "verify", str(prod))
    assert code == 0
    assert "violations=0" in out
    assert "no product provenance" not in out


def test_verify_power_bundle(toric_bundle, capsys):
    code, out, _ = run(capsys, "verify", str(toric_bundle))
    assert code == 0
    assert "violations=0" in out
    # The power provenance must drive the full product checks, which for
    # this bundle include the per-level prediction equalities.
    assert "no product provenance" not in out
    checks = int(out.rsplit("checks=", 1)[1].split()[0])
    assert checks > 10


def test_corrupted_bundle_fails_validation(toric_bundle, capsys):
    # Swap A_2 for a same-shape matrix, one bit flipped, that breaks A_1 @ A_2 = 0.
    a2 = read_alist(toric_bundle / "A2.alist")
    bits = list(a2.bits)
    bits[0] ^= 1
    write_alist(BinMatrix(a2.rows, a2.cols, bits), toric_bundle / "A2.alist")
    for command in ("analyze", "verify"):
        code, out, err = run(capsys, command, str(toric_bundle))
        assert code == 2
        assert out == ""
        assert err == "error: boundary product A_1 @ A_2 is nonzero\n"


def test_manifest_dims_mismatch(toric_bundle, capsys):
    manifest = json.loads((toric_bundle / "manifest.json").read_text())
    manifest["dims"][0] = 99
    (toric_bundle / "manifest.json").write_text(json.dumps(manifest))
    code, _, err = run(capsys, "analyze", str(toric_bundle))
    assert code == 2


def _set_manifest(bundle, key, value):
    """Rewrite one top-level manifest field of a bundle."""
    path = bundle / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest[key] = value
    path.write_text(json.dumps(manifest))


@pytest.mark.parametrize("boundaries", ["A1.alist", ["A1.alist"], ["A1.alist", 2],
                                        {"A1.alist": "A2.alist"}, None])
def test_manifest_boundaries_must_list_m_file_names(toric_bundle, capsys, boundaries):
    _set_manifest(toric_bundle, "boundaries", boundaries)
    code, out, err = run(capsys, "analyze", str(toric_bundle))
    assert code == 4
    assert out == ""
    assert err.startswith("error: ") and "manifest key 'boundaries'" in err


@pytest.mark.parametrize("m", [0, -1, True, 2.0, "2", None, [2]])
def test_manifest_m_must_be_a_positive_int(toric_bundle, capsys, m):
    _set_manifest(toric_bundle, "m", m)
    code, out, err = run(capsys, "analyze", str(toric_bundle))
    assert code == 4
    assert out == ""
    assert err.startswith("error: ") and "manifest key 'm'" in err


@pytest.mark.parametrize("dims", [5, "18", None, {"0": 9}, [9, 18], [9, 18, 9, 0],
                                  [9, -18, 9], [9, 18.0, 9], [9, True, 9]])
def test_manifest_dims_must_list_m_plus_1_counts(toric_bundle, capsys, dims):
    _set_manifest(toric_bundle, "dims", dims)
    code, out, err = run(capsys, "analyze", str(toric_bundle))
    assert code == 4
    assert out == ""
    assert err.startswith("error: ") and "manifest key 'dims'" in err


@pytest.mark.parametrize("tag", ["not-a-bundle/9", "complex-bundle/2", None, 1,
                                 ["complex-bundle/1"]])
def test_manifest_format_must_be_the_bundle_tag(toric_bundle, capsys, tag):
    _set_manifest(toric_bundle, "format", tag)
    code, out, err = run(capsys, "analyze", str(toric_bundle))
    assert code == 4
    assert out == ""
    assert err.startswith("error: ") and "manifest key 'format'" in err


@pytest.mark.parametrize("key", ["format", "m", "dims", "boundaries"])
def test_manifest_missing_key_is_rejected(toric_bundle, capsys, key):
    path = toric_bundle / "manifest.json"
    manifest = json.loads(path.read_text())
    del manifest[key]
    path.write_text(json.dumps(manifest))
    code, out, err = run(capsys, "analyze", str(toric_bundle))
    assert code == 4
    assert out == ""
    assert err.startswith("error: ") and f"manifest missing key {key!r}" in err


def test_manifest_must_be_an_object(toric_bundle, capsys):
    (toric_bundle / "manifest.json").write_text(json.dumps(["m", "dims", "boundaries"]))
    code, out, err = run(capsys, "analyze", str(toric_bundle))
    assert code == 4
    assert out == ""
    assert err.startswith("error: ") and "manifest must be a JSON object" in err


@pytest.mark.parametrize("provenance, key", [(["x"], "provenance"), ("x", "provenance"),
                                             ({"source": ["x"]}, "source"),
                                             ({"source": None}, "source")])
def test_manifest_provenance_and_source_must_be_objects(toric_bundle, capsys, provenance, key):
    _set_manifest(toric_bundle, "provenance", provenance)
    for command in ("verify", "analyze"):
        code, out, err = run(capsys, command, str(toric_bundle))
        assert code == 4
        assert out == ""
        assert err.startswith("error: ") and f"manifest key {key!r}" in err


def test_garbage_alist_gives_io_exit(tmp_path, capsys):
    bad = tmp_path / "bad.alist"
    bad.write_text("not an alist\n")
    out = tmp_path / "bundle"
    code, _, err = run(capsys, "build", "--matrix", str(bad), "--out", str(out))
    assert code == 4


def test_non_ascii_alist_gives_io_exit(tmp_path, capsys):
    bad = tmp_path / "bad.alist"
    bad.write_bytes(b"\xff\xfe 3\n")
    out = tmp_path / "bundle"
    code, text, err = run(capsys, "build", "--matrix", str(bad), "--out", str(out))
    assert (code, text) == (4, "")
    assert err == "error: line 1: byte 0xff is not ascii\n"
    assert not out.exists()


def test_non_ascii_boundary_file_gives_io_exit(toric_bundle, capsys):
    # A byte past ASCII on line 6 of A1.alist: the load stops at it.
    path = toric_bundle / "A1.alist"
    lines = path.read_bytes().split(b"\n")
    lines[5] += b" \xc3\xa9"
    path.write_bytes(b"\n".join(lines))
    code, text, err = run(capsys, "analyze", str(toric_bundle))
    assert (code, text) == (4, "")
    assert err == "error: line 6: byte 0xc3 is not ascii\n"


def test_manifest_that_is_not_utf8_gives_io_exit(toric_bundle, capsys):
    path = toric_bundle / "manifest.json"
    text = path.read_bytes()
    # A Latin-1 byte inside a string on the manifest's third line.
    assert text.count(b"\n", 0, text.index(b'"A1.alist"')) == 2
    path.write_bytes(text.replace(b'"A1.alist"', b'"A1.al\xefst"'))
    code, out, err = run(capsys, "analyze", str(toric_bundle))
    assert (code, out) == (4, "")
    assert err == "error: line 3: byte 0xef is not utf-8\n"


def test_missing_bundle_gives_io_exit(tmp_path, capsys):
    code, _, _ = run(capsys, "analyze", str(tmp_path / "nope"))
    assert code == 4


def test_cap_exceeded_exit(tmp_path, capsys):
    out = tmp_path / "wide"
    seed = tmp_path / "seed.alist"
    write_alist(from_string("11111111"), seed)
    assert run(capsys, "build", "--matrix", str(seed), "--out", str(out))[0] == 0
    code, text, _ = run(capsys, "distance", str(out), "--level", "1", "--cap", "3")
    assert code == 3
    entry = parse_report(text)["levels"][0]
    assert entry["homology"]["exact"] is False
    assert entry["homology"]["lower"] == 1
    assert entry["homology"]["upper"] == 2


def test_build_from_matrix_files(tmp_path, capsys):
    a1 = tmp_path / "a1.alist"
    a2 = tmp_path / "a2.alist"
    write_alist(from_string("11"), a1)
    write_alist(from_rows([[1], [1]]), a2)
    out = tmp_path / "bundle"
    code, _, _ = run(capsys, "build", "--matrix", str(a1), "--matrix", str(a2),
                     "--out", str(out))
    assert code == 0
    code, text, _ = run(capsys, "analyze", str(out))
    assert code == 0
    assert parse_report(text)["dims"] == [1, 2, 1]


def test_build_rejects_matrices_that_do_not_compose_to_zero(tmp_path, capsys):
    a1 = tmp_path / "a1.alist"
    a2 = tmp_path / "a2.alist"
    write_alist(from_string("11"), a1)
    write_alist(from_rows([[1], [0]]), a2)
    out = tmp_path / "bundle"
    code, text, err = run(capsys, "build", "--matrix", str(a1), "--matrix", str(a2),
                          "--out", str(out))
    assert code == 2
    assert text == ""
    assert err == "error: boundary product A_1 @ A_2 is nonzero\n"
    assert not out.exists()


def test_export_css_reload_reproduces_parameters(toric_bundle, tmp_path, capsys):
    css_dir = tmp_path / "css"
    code, _, _ = run(capsys, "export-css", str(toric_bundle),
                     "--level", "1", "--out", str(css_dir))
    assert code == 0
    g_x = read_alist(css_dir / "gx.alist")
    g_z = read_alist(css_dir / "gz.alist")
    reloaded = css_parameters(CssCode(g_x=g_x, g_z=g_z))
    assert (reloaded.n, reloaded.k) == (18, 2)
    assert reloaded.d == 3


def test_export_css_trusts_the_loaded_complex(tmp_path, capsys, monkeypatch):
    # The load checks the 4D complex's 3 consecutive pairs, each by XORing
    # product rows with no product matrix; the code cut from it is
    # orthogonal by construction, so outside those checks only g_z's one
    # transpose is left, and no product is multiplied out.
    out = tmp_path / "t4"
    assert run(capsys, "power", "--ensemble", "rep:3", "--a", "2", "--b", "2",
               "--out", str(out))[0] == 0
    matmuls = Mock(wraps=BinMatrix.__matmul__)
    transposes = Mock(wraps=BinMatrix.transpose)
    monkeypatch.setattr(BinMatrix, "__matmul__", lambda x, y: matmuls(x, y))
    monkeypatch.setattr(BinMatrix, "transpose", lambda x: transposes(x))
    check = complexes._composes_to_zero
    checked = []

    def counted_check(left, right):
        before = transposes.call_count
        result = check(left, right)
        checked.append(transposes.call_count - before)
        return result

    monkeypatch.setattr(complexes, "_composes_to_zero", counted_check)
    code, _, _ = run(capsys, "export-css", str(out), "--level", "2",
                     "--out", str(tmp_path / "css"))
    assert code == 0
    assert (len(checked), matmuls.call_count, transposes.call_count - sum(checked)) == (3, 0, 1)
    # A pair given from outside keeps the full check.
    g_x = read_alist(tmp_path / "css" / "gx.alist")
    with pytest.raises(InvalidSpec):
        CssCode(g_x=g_x, g_z=BinMatrix.identity(g_x.cols))


def test_deterministic_output(toric_bundle, capsys):
    _, first, _ = run(capsys, "analyze", str(toric_bundle))
    _, second, _ = run(capsys, "analyze", str(toric_bundle))
    assert first == second


@pytest.mark.parametrize("command", ["distance", "verify"])
def test_threads_flag_is_ignored(toric_bundle, capsys, command):
    # The walk runs in one process: the flag still parses, and changes nothing.
    outputs = [run(capsys, command, str(toric_bundle), *flag)
               for flag in ([], ["--threads", "1"], ["--threads", "2"])]
    assert outputs[0][0] == 0
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    if command == "distance":
        assert "threads" not in parse_report(outputs[0][1])["provenance"]


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_rejected(toric_bundle, capsys, threads):
    with pytest.raises(SystemExit) as exc:
        main(["distance", str(toric_bundle), "--threads", threads])
    assert exc.value.code == 2
    assert "--threads: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["distance", "verify"])
@pytest.mark.parametrize("cap", ["-1", "-5"])
def test_negative_cap_rejected(toric_bundle, capsys, command, cap):
    # A negative cap would skip every walk and report intervals, or no
    # distance check at all, with a clean exit.
    with pytest.raises(SystemExit) as exc:
        main([command, str(toric_bundle), "--cap", cap])
    assert exc.value.code == 2
    assert "--cap: must be at least 0" in capsys.readouterr().err


def test_repeated_level_walked_once(toric_bundle, capsys, monkeypatch):
    counted = Mock(wraps=distance._min_nontrivial)
    monkeypatch.setattr(distance, "_min_nontrivial", counted)
    code, out, _ = run(capsys, "distance", str(toric_bundle),
                       "--level", "2", "--level", "1", "--level", "2")
    assert code == 0
    report = parse_report(out)
    assert [e["j"] for e in report["levels"]] == [2, 1]
    assert report["provenance"]["levels"] == [2, 1]
    # Two sides per level.
    assert counted.call_count == 4


def test_gallager_build_reproducible(tmp_path, capsys):
    out1 = tmp_path / "g1"
    out2 = tmp_path / "g2"
    for out in (out1, out2):
        code, _, _ = run(capsys, "build", "--ensemble", "gallager:2,4,8",
                         "--seed", "42", "--out", str(out))
        assert code == 0
    assert (out1 / "A1.alist").read_text() == (out2 / "A1.alist").read_text()


def test_seed_source_is_recorded(tmp_path, capsys):
    def source(out):
        return json.loads((out / "manifest.json").read_text())["provenance"]["source"]

    assert run(capsys, "build", "--ensemble", "gallager:2,4,8", "--seed", "42",
               "--out", str(tmp_path / "b"))[0] == 0
    assert source(tmp_path / "b") == {"kind": "ensemble", "spec": "gallager:2,4,8", "seed": 42}
    assert run(capsys, "power", "--ensemble", "rep:3", "--seed", "7", "--a", "1", "--b", "0",
               "--out", str(tmp_path / "p"))[0] == 0
    assert source(tmp_path / "p") == {"kind": "power", "a": 1, "b": 0, "matrix": "seed.alist",
                                      "ensemble": "rep:3", "seed": 7}
    seed = tmp_path / "b" / "A1.alist"
    assert run(capsys, "power", "--matrix", str(seed), "--a", "1", "--b", "0",
               "--out", str(tmp_path / "q"))[0] == 0
    assert source(tmp_path / "q") == {"kind": "power", "a": 1, "b": 0, "matrix": "seed.alist",
                                      "seed_file": str(seed)}


def test_verify_nested_product(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    ab = tmp_path / "ab"
    abb = tmp_path / "abb"
    assert run(capsys, "build", "--ensemble", "rep:2", "--out", str(a))[0] == 0
    assert run(capsys, "build", "--ensemble", "rep:2", "--out", str(b))[0] == 0
    assert run(capsys, "product", str(a), str(b), "--out", str(ab))[0] == 0
    assert run(capsys, "product", str(ab), str(b), "--out", str(abb))[0] == 0
    code, out, _ = run(capsys, "verify", str(abb))
    assert code == 0
    assert "violations=0" in out


def test_power_and_product_write_boundaries_held_by_supports(tmp_path, capsys, monkeypatch):
    # Each product boundary is written from row supports built out of the
    # factors' supports, so no written boundary holds row words; each bundle
    # equals the one save_bundle writes for the whole word-built product.
    written = []
    write = bundle.write_alist

    def recording_write(m, path):
        written.append((Path(path).name.split(".")[1], m._bits is None))
        write(m, path)

    p = from_string("1100 0110 0011")
    assert run(capsys, "power", "--ensemble", "rep:3", "--a", "2", "--b", "1",
               "--out", str(tmp_path / "t3"))[0] == 0
    assert run(capsys, "power", "--ensemble", "rep:2", "--a", "0", "--b", "2",
               "--out", str(tmp_path / "t2"))[0] == 0
    factors = [load_bundle(tmp_path / name).complex for name in ("t3", "t2")]
    monkeypatch.setattr(bundle, "write_alist", recording_write)
    write_alist(p, tmp_path / "p.alist")
    assert run(capsys, "power", "--matrix", str(tmp_path / "p.alist"), "--a", "2", "--b", "2",
               "--out", str(tmp_path / "p4"))[0] == 0
    assert run(capsys, "product", str(tmp_path / "t3"), str(tmp_path / "t2"),
               "--out", str(tmp_path / "t5"))[0] == 0
    assert written == [(f"A{j}", True) for j in range(1, 5)] + \
        [(f"A{j}", True) for j in range(1, 6)]
    monkeypatch.setattr(bundle, "write_alist", write)
    for name, cx in (("p4", power_complex(p, 2, 2)),
                     ("t5", homprod.tensor_product(*factors))):
        save_bundle(cx, tmp_path / "saved", load_bundle(tmp_path / name).provenance)
        for j in range(1, cx.m + 1):
            assert (tmp_path / name / f"A{j}.alist").read_bytes() == \
                (tmp_path / "saved" / f"A{j}.alist").read_bytes()


def test_product_rerun_replaces_factor_copies(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    ab = tmp_path / "ab"
    prod = tmp_path / "prod"
    assert run(capsys, "build", "--ensemble", "rep:2", "--out", str(a))[0] == 0
    assert run(capsys, "build", "--ensemble", "rep:3", "--out", str(b))[0] == 0
    assert run(capsys, "product", str(a), str(b), "--out", str(ab))[0] == 0
    # The first run copies a product bundle, with its own factors/, as factor 0.
    assert run(capsys, "product", str(ab), str(a), "--out", str(prod))[0] == 0
    assert run(capsys, "product", str(b), str(a), "--out", str(prod))[0] == 0

    def files(root):
        return {p.relative_to(root): p.read_bytes()
                for p in root.rglob("*") if p.is_file()}

    assert files(prod / "factors" / "0") == files(b)
    assert files(prod / "factors" / "1") == files(a)


def test_distance_defaults_to_all_levels(toric_bundle, capsys):
    code, out, _ = run(capsys, "distance", str(toric_bundle))
    assert code == 0
    report = parse_report(out)
    assert [e["j"] for e in report["levels"]] == [0, 1, 2]
    assert report["levels"][0]["homology"]["d"] == 1


def test_verify_flags_swapped_matrices(toric_bundle, capsys):
    # Keep the power provenance but swap in a different valid complex of
    # the same shape; the rebuild comparison must flag it.
    from homprod import power_complex, repetition_circulant, write_alist

    alt = power_complex(repetition_circulant(3).transpose(), 1, 1)
    for j, boundary in enumerate(alt.boundaries, start=1):
        write_alist(boundary, toric_bundle / f"A{j}.alist")
    manifest = json.loads((toric_bundle / "manifest.json").read_text())
    manifest["dims"] = list(alt.dims)
    (toric_bundle / "manifest.json").write_text(json.dumps(manifest))
    code, out, _ = run(capsys, "verify", str(toric_bundle))
    assert code == 2
    assert "differ from the rebuilt product" in out


def test_power_from_matrix_file(tmp_path, capsys):
    seed = tmp_path / "seed.alist"
    write_alist(from_string("11"), seed)
    out = tmp_path / "qhp"
    code, _, _ = run(capsys, "power", "--matrix", str(seed),
                     "--a", "1", "--b", "1", "--out", str(out))
    assert code == 0
    code, text, _ = run(capsys, "distance", str(out), "--level", "1")
    assert code == 0
    entry = parse_report(text)["levels"][0]
    assert (entry["n"], entry["k"], entry["homology"]["d"]) == (5, 1, 2)
    code, text, _ = run(capsys, "verify", str(out))
    assert code == 0
    assert "violations=0" in text


def test_weight_one_distance_is_exact_past_the_cap(tmp_path, capsys):
    # Column 3 of p is zero, so e_3 is a nontrivial cycle: d = 1 exactly,
    # although the kernel (dimension 2) is above the cap.
    rows = [[1, 1, 0, 0], [0, 1, 1, 0]]
    seed = tmp_path / "p.alist"
    write_alist(from_rows(rows), seed)
    out = tmp_path / "p"
    assert run(capsys, "build", "--matrix", str(seed), "--out", str(out))[0] == 0
    code, text, _ = run(capsys, "distance", str(out), "--level", "1", "--cap", "1")
    assert code == 0
    hom = parse_report(text)["levels"][0]["homology"]
    assert {k: hom[k] for k in ("lower", "upper", "exact", "d", "enumerated")} == \
        {"lower": 1, "upper": 1, "exact": True, "d": 1, "enumerated": 0}
    witness = [int(c) for c in hom["witness"]]
    assert sum(witness) == 1
    assert all(sum(r * w for r, w in zip(row, witness)) % 2 == 0 for row in rows)


def test_ensemble_file_kind_is_refused(toric_bundle, tmp_path, capsys):
    code, _, err = run(capsys, "power", "--ensemble", f"file:{toric_bundle / 'seed.alist'}",
                       "--a", "1", "--b", "1", "--out", str(tmp_path / "f"))
    assert code == 2
    assert "unknown ensemble kind 'file'" in err


def test_power_from_the_seed_file_matches_the_ensemble(toric_bundle, tmp_path, capsys):
    out = tmp_path / "toric-m"
    assert run(capsys, "power", "--matrix", str(toric_bundle / "seed.alist"),
               "--a", "1", "--b", "1", "--out", str(out))[0] == 0
    for name in ("A1.alist", "A2.alist"):
        assert (out / name).read_bytes() == (toric_bundle / name).read_bytes()


@settings(max_examples=40, deadline=None)
@given(words=st.lists(st.integers(0, 15), min_size=0, max_size=3),
       exponents=st.sampled_from([(1, 0), (0, 1), (0, 2), (2, 2), (2, 0), (1, 1), (1, 2)]))
@example(words=[0b0011, 0b0110, 0b1100], exponents=(1, 0))
@example(words=[0b0011, 0b0110, 0b1100], exponents=(0, 1))
@example(words=[0b0011, 0b0110, 0b1100], exponents=(0, 2))
@example(words=[0b0011, 0b0110, 0b1100], exponents=(2, 2))
@example(words=[], exponents=(2, 2))
def test_streamed_power_writes_the_saved_power(tmp_path_factory, words, exponents):
    # power writes each product boundary as it builds it; every file is the
    # one save_bundle writes for the whole complex.
    tmp = tmp_path_factory.mktemp("power")
    p = BinMatrix(len(words), 4, words)
    write_alist(p, tmp / "p.alist")
    a, b = exponents
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        assert main(["power", "--matrix", str(tmp / "p.alist"), "--a", str(a), "--b", str(b),
                     "--out", str(tmp / "streamed")]) == 0
    cx = power_complex(p, a, b)
    assert stdout.getvalue() == f"wrote bundle {tmp / 'streamed'} (m={cx.m}, dims={list(cx.dims)})\n"
    prov = load_bundle(tmp / "streamed").provenance
    save_bundle(cx, tmp / "saved", prov)
    streamed = sorted(os.listdir(tmp / "streamed"))
    assert streamed == sorted(os.listdir(tmp / "saved") + ["seed.alist"])
    for name in streamed:
        if name != "seed.alist":
            assert (tmp / "streamed" / name).read_bytes() == (tmp / "saved" / name).read_bytes()


def test_cached_parser_answers_as_a_fresh_one(tmp_path, capsys):
    # The parser is built once per process; a sequence of calls, a usage
    # error among them, answers as if each call built its own.
    write_alist(from_string("110 011"), tmp_path / "p.alist")
    write_alist(from_string("1100 0110 0011"), tmp_path / "q.alist")
    calls = [
        ["build", "--matrix", str(tmp_path / "p.alist"), "--out", str(tmp_path / "p")],
        ["distance", str(tmp_path / "p"), "--level", "1"],
        ["distance", str(tmp_path / "p"), "--level", "0", "--level", "x"],
        ["build", "--matrix", str(tmp_path / "q.alist"), "--out", str(tmp_path / "q")],
        ["distance", str(tmp_path / "q")],
        ["distance", str(tmp_path / "p")],
    ]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    cached = [outcome(argv) for argv in calls]
    assert cli._build_parser() is cli._build_parser()
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert cached == fresh
    assert [code for code, _, _ in cached] == [0, 0, 2, 0, 0, 0]
    assert "invalid int value: 'x'" in cached[2][2]


@pytest.mark.parametrize("a, b, checks", [("1", "1", 11), ("2", "2", 13)])
def test_verify_reads_k_off_the_level_kernels(tmp_path, capsys, monkeypatch, a, b, checks):
    out = tmp_path / "toric"
    assert run(capsys, "power", "--ensemble", "rep:3", "--a", a, "--b", b,
               "--out", str(out))[0] == 0
    own = load_bundle(out).complex.boundaries
    ranked = []
    rank = complexes.rank

    def record(m):
        ranked.append(m)
        return rank(m)

    monkeypatch.setattr(complexes, "rank", record)
    code, text, _ = run(capsys, "verify", str(out))
    assert code == 0
    assert text.endswith(f"checks={checks} violations=0\n")
    assert [m.shape for m in ranked if m in own] == []


def test_distance_takes_k_from_the_engine_kernels(toric_bundle, capsys, monkeypatch):
    counted = Mock(wraps=complexes.rank)
    monkeypatch.setattr(complexes, "rank", counted)
    code, out, _ = run(capsys, "distance", str(toric_bundle))
    assert code == 0
    assert [e["k"] for e in parse_report(out)["levels"]] == [1, 2, 1]
    assert counted.call_count == 0


def test_power_makes_no_rank_calls(tmp_path, capsys, monkeypatch):
    counted = Mock(wraps=gf2.rank)
    monkeypatch.setattr(gf2, "rank", counted)
    monkeypatch.setattr(complexes, "rank", counted)
    code, _, _ = run(capsys, "power", "--ensemble", "gallager:3,6,12", "--seed", "1",
                     "--a", "1", "--b", "1", "--out", str(tmp_path / "qhp"))
    assert code == 0
    assert counted.call_count == 0


def test_module_entry_point(tmp_path):
    # ``python -m homprod`` runs the same commands as ``main``.
    env = dict(os.environ)
    src = str(Path(homprod.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    commands = [
        ["power", "--ensemble", "rep:3", "--a", "1", "--b", "1", "--out", "toric"],
        ["analyze", "toric"],
        ["distance", "toric"],
        ["verify", "toric"],
        ["export-css", "toric", "--level", "1", "--out", "css"],
        ["power", "--ensemble", "rep:5", "--a", "1", "--b", "1", "--out", "toric5"],
        ["distance", "toric5", "--level", "1"],
    ]
    outputs = {}
    for args in commands:
        done = subprocess.run([sys.executable, "-m", "homprod", *args], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, (args, done.stderr)
        outputs[args[0], args[1]] = done.stdout
    assert parse_report(outputs["analyze", "toric"])["dims"] == [9, 18, 9]
    assert "violations=0" in outputs["verify", "toric"]
    assert sorted(os.listdir(tmp_path / "css")) == ["css.json", "gx.alist", "gz.alist"]
    (toric5,) = parse_report(outputs["distance", "toric5"])["levels"]
    assert toric5["homology"]["d"] == toric5["cohomology"]["d"] == 5


def test_verify_one_complex_factor_calls_engine_once_per_level(tmp_path, capsys, monkeypatch):
    out = tmp_path / "rep4"
    assert run(capsys, "power", "--ensemble", "rep:4", "--a", "2", "--b", "0",
               "--out", str(out))[0] == 0
    counted = Mock(wraps=distance._min_nontrivial)
    monkeypatch.setattr(distance, "_min_nontrivial", counted)
    code, text, _ = run(capsys, "verify", str(out))
    assert code == 0
    assert "violations=0" in text
    # Three levels of the product and two of K(p), walked once for both
    # (equal) factors; the formula needs no walk of the seed of its own.
    assert counted.call_count == 5


@pytest.mark.parametrize("spec, a, b, calls", [
    # Product levels 0..2, then K(p) and K(p^T) at level 0 only: levels 1
    # and 2 are above the cap, so no check reads a factor level above 0.
    ("gallager:3,6,36", "1", "1", 5),
    # The same, with one level-0 walk shared by the two equal K(p) factors.
    ("gallager:3,6,24", "2", "0", 4),
])
def test_verify_walks_only_the_factor_levels_it_checks(tmp_path, capsys, monkeypatch,
                                                       spec, a, b, calls):
    out = tmp_path / "bundle"
    assert run(capsys, "power", "--ensemble", spec, "--a", a, "--b", b, "--seed", "1",
               "--out", str(out))[0] == 0
    results = []

    def record(*args, **kwargs):
        results.append(engine(*args, **kwargs))
        return results[-1]

    engine = distance._min_nontrivial
    monkeypatch.setattr(distance, "_min_nontrivial", record)
    code, text, _ = run(capsys, "verify", str(out))
    assert code == 0
    assert text == ("note: level 1: kernel above cap, distance checks skipped\n"
                    "note: level 2: kernel above cap, distance checks skipped\n"
                    "checks=9 violations=0\n")
    assert len(results) == calls
    # The seed's kernel (2^20 and 2^14 vectors) is never walked.
    assert sum(r.enumerated for r in results) == 0


def test_verify_checks_level_zero_past_the_cap(toric_bundle, capsys):
    code, out, _ = run(capsys, "verify", str(toric_bundle), "--cap", "0")
    assert code == 0
    assert "violations=0" in out
    assert "seed kernel above cap" not in out
    # Level 1 walks nothing at cap 0, so its checks are skipped with a note.
    assert "note: level 1: kernel above cap, distance checks skipped" in out


def _set_source(bundle, key, value):
    """Rewrite one provenance source field of a bundle; None removes it."""
    path = bundle / "manifest.json"
    manifest = json.loads(path.read_text())
    source = manifest["provenance"]["source"]
    if value is None:
        del source[key]
    else:
        source[key] = value
    path.write_text(json.dumps(manifest))


@pytest.mark.parametrize("key, value", [("a", None), ("b", "1"), ("a", -1), ("matrix", 3)])
def test_verify_rejects_malformed_power_provenance(toric_bundle, capsys, key, value):
    _set_source(toric_bundle, key, value)
    code, out, err = run(capsys, "verify", str(toric_bundle))
    assert code == 4
    assert out == ""
    assert err.startswith("error: ") and f"provenance {key!r}" in err


@pytest.mark.parametrize("factors", [None, ["factors/0"], ["factors/0", 1]])
def test_verify_rejects_malformed_product_provenance(tmp_path, capsys, factors):
    a = tmp_path / "a"
    ab = tmp_path / "ab"
    assert run(capsys, "build", "--ensemble", "rep:2", "--out", str(a))[0] == 0
    assert run(capsys, "product", str(a), str(a), "--out", str(ab))[0] == 0
    _set_source(ab, "factors", factors)
    code, out, err = run(capsys, "verify", str(ab))
    assert code == 4
    assert out == ""
    assert err.startswith("error: ") and "provenance 'factors'" in err
