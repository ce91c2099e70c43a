"""Machine-readable reports for the CLI.

Reports are dicts serialized with sorted keys so diffs stay stable;
infinite distances serialize as the literal string "inf".
"""

from __future__ import annotations

import json

from . import __version__
from .codes import css_parameters, extract_css, sparsity
from .complexes import ChainComplex
from .distance import DistanceResult
from .extnat import ExtNat

FORMATS = ("report", "json-lines")


def _json_default(obj):
    if isinstance(obj, ExtNat):
        return obj.finite_value if obj.is_finite else "inf"
    raise TypeError(f"not JSON serializable: {obj!r}")


def provenance(command: str, **fields) -> dict:
    prov = {"command": command, "version": __version__}
    prov.update(fields)
    return prov


def _witness_string(witness: int | None, length: int) -> str | None:
    if witness is None:
        return None
    return "".join(str((witness >> i) & 1) for i in range(length))


def analysis_levels(cx: ChainComplex) -> list[dict]:
    """Per-level dimension, homology rank, and boundary sparsity."""
    levels = []
    for j in range(cx.m + 1):
        entry = {
            "j": j,
            "n": cx.dim(j),
            "k": cx.homology_rank(j),
            "sparsity": list(sparsity(cx.boundary(j))) if j >= 1 else None,
        }
        levels.append(entry)
    return levels


def _side_entry(result: DistanceResult, length: int) -> dict:
    entry = {"lower": result.value, "upper": result.upper, "exact": result.exact}
    if result.exact:
        entry.update(d=result.value, enumerated=result.enumerated,
                     witness=_witness_string(result.witness, length))
    else:
        entry.update(d=None, witness=None, kernel_dim=result.kernel_dim)
    return entry


def distance_levels(cx: ChainComplex, levels, cap: int) -> tuple[list[dict], bool]:
    """Distance entries per requested level; flags whether any side hit the cap.

    Level j's sides and ``k`` are those of its CSS code (A_j, A_{j+1}^T).
    """
    entries = []
    cap_hit = False
    for j in levels:
        params = css_parameters(extract_css(cx, j), cap=cap)
        cap_hit = cap_hit or not params.z.exact or not params.x.exact
        n = params.n
        entries.append({
            "j": j,
            "n": n,
            "k": params.k,
            "homology": _side_entry(params.z, n),
            "cohomology": _side_entry(params.x, n),
            "sparsity": list(sparsity(cx.boundary(j))) if j >= 1 else None,
        })
    return entries, cap_hit


def render(report: dict, fmt: str = "report") -> str:
    if fmt == "report":
        return json.dumps(report, indent=2, sort_keys=True, default=_json_default) + "\n"
    if fmt == "json-lines":
        lines = []
        for key, value in sorted(report.items()):
            if key == "levels":
                continue
            lines.append(json.dumps({"record": key, key: value},
                                    sort_keys=True, default=_json_default))
        for entry in report.get("levels", []):
            lines.append(json.dumps({"record": "level", **entry},
                                    sort_keys=True, default=_json_default))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
