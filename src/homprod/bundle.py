"""On-disk complex bundles: a manifest plus one alist file per boundary.

A save writes every file to a temporary name before it renames any of them
into place, so a failed write leaves the old bundle as it was and no
temporary file behind.  The renames are one per file: a save cut off among
them can still leave a mix of old and new files.  The boundaries are
written in level order and each is let go before the next is asked for,
so a save fed by a generator (``power`` writes each product boundary as it
builds it) holds one boundary at a time.
"""

from __future__ import annotations

import contextlib
import json
import os
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

from .alist import ParseError, _decode, _write_text_atomic, read_alist, write_alist
from .complexes import ChainComplex
from .gf2 import BinMatrix, DimensionMismatch

MANIFEST_NAME = "manifest.json"
FORMAT_TAG = "complex-bundle/1"


@dataclass
class Bundle:
    path: Path
    complex: ChainComplex
    manifest: dict

    @property
    def provenance(self) -> dict:
        return self.manifest.get("provenance", {})

    @property
    def source(self) -> dict:
        return self.provenance.get("source", {})


def save_bundle(cx: ChainComplex, directory, provenance: dict | None = None) -> Path:
    """Write the boundaries and a manifest; returns the bundle directory."""
    return _save_boundaries(directory, cx.dims, iter(cx.boundaries), provenance)


def _save_boundaries(directory, dims: Sequence[int], boundaries: Iterator[BinMatrix],
                     provenance: dict | None) -> Path:
    """``save_bundle`` of the complex with these dims whose boundaries
    ``A_1, ..., A_m`` the iterator yields in order; each boundary is
    written, and dropped, before the next is asked for."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    m = len(dims) - 1
    names = [f"A{j}.alist" for j in range(1, m + 1)]
    manifest = {
        "format": FORMAT_TAG,
        "m": m,
        "dims": list(dims),
        "boundaries": names,
        "provenance": provenance or {},
    }
    # Every file goes to a temporary name first; the manifest is renamed last.
    staged = {name: directory / f".{name}.{os.getpid()}.save" for name in [*names, MANIFEST_NAME]}
    try:
        for name in names:
            write_alist(next(boundaries), staged[name])
        _write_text_atomic(staged[MANIFEST_NAME],
                           json.dumps(manifest, indent=2, sort_keys=True) + "\n", "utf-8")
        for name, tmp in staged.items():
            os.replace(tmp, directory / name)
    except BaseException:
        for tmp in staged.values():
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        raise
    return directory


def load_bundle(directory) -> Bundle:
    """Read a bundle; the complex is checked on construction and against its manifest.

    A manifest whose keys have the wrong type or value (``format`` not
    ``complex-bundle/1``, ``m`` not an int of at least 1, ``dims`` not a
    list of m + 1 nonnegative ints, ``boundaries`` not a list of ``m`` file
    names, ``provenance`` or its ``source`` not an object) raises
    ``ParseError`` before any file is read, and so does a manifest that is
    not valid UTF-8 or not JSON.
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    with open(manifest_path, "rb") as fh:
        text = _decode(fh.read(), "utf-8")
    try:
        manifest = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, f"malformed manifest: {exc.msg}") from exc
    if not isinstance(manifest, dict):
        raise ParseError(1, "manifest must be a JSON object")
    for key in ("format", "m", "dims", "boundaries"):
        if key not in manifest:
            raise ParseError(1, f"manifest missing key {key!r}")
    if manifest["format"] != FORMAT_TAG:
        raise ParseError(1, f"manifest key 'format' must be {FORMAT_TAG!r}, "
                            f"got {manifest['format']!r}")
    m, dims, names = manifest["m"], manifest["dims"], manifest["boundaries"]
    if type(m) is not int or m < 1:
        raise ParseError(1, f"manifest key 'm' must be an int of at least 1, got {m!r}")
    if not (type(dims) is list and len(dims) == m + 1
            and all(type(n) is int and n >= 0 for n in dims)):
        raise ParseError(1, f"manifest key 'dims' must be a list of m+1={m + 1} "
                            f"nonnegative ints, got {dims!r}")
    if not (isinstance(names, list) and len(names) == m
            and all(isinstance(name, str) for name in names)):
        raise ParseError(1, f"manifest key 'boundaries' must be a list of "
                            f"m={m} file names, got {names!r}")
    provenance = manifest.get("provenance", {})
    if not isinstance(provenance, dict):
        raise ParseError(1, f"manifest key 'provenance' must be an object, got {provenance!r}")
    if not isinstance(provenance.get("source", {}), dict):
        raise ParseError(1, "manifest key 'source' of 'provenance' must be an object, "
                            f"got {provenance['source']!r}")
    matrices = [read_alist(directory / name) for name in names]
    cx = ChainComplex(matrices)
    if cx.m != m or list(cx.dims) != dims:
        raise DimensionMismatch(
            f"manifest declares m={m} dims={dims}, "
            f"files give m={cx.m} dims={list(cx.dims)}")
    return Bundle(path=directory, complex=cx, manifest=manifest)
