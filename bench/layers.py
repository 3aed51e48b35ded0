"""Reduce the span files of one traced pass to the per-layer metrics.

A module's self time is the sum over its spans of the span's duration minus
the durations of its direct child spans.  Counts come from the recorders'
call counters and result hooks.  No layer has a queue or worker pool, so no
wait-time metric exists.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from trace_boot import INCLUSIVE

MODULES = ("cli", "checks", "characters", "lfunctions", "rtf_constants", "empirical",
           "measures", "quadrature", "local_factors", "special", "fields")
ERROR_TYPES = ("DomainError", "PoleError", "RamifiedOverlapError", "CapExceededError",
               "StencilDisagreementError", "QuadratureError")

CALL_COUNTS = {
    "characters.phase_calls": ("characters.DirichletCharacter.phase",),
    "characters.chars_built": ("characters.DirichletCharacter.__init__",),
    "lfunctions.laurent_calls": ("lfunctions.laurent_at_1",),
    "lfunctions.edge_calls": ("lfunctions.edge_coefficients",),
    "lfunctions.extract_series_calls": ("lfunctions.extract_series",),
    "rtf_constants.taylor_calls": ("rtf_constants.edge_product_taylor",),
    "empirical.cdf_tables": ("empirical.CdfInterpolator.__init__",),
    # plancherel_density evaluates sato_tate_density once per point.
    "measures.density_evals": ("measures.sato_tate_density", "measures.local_spectral_density"),
    "quadrature.integrate_calls": ("quadrature.integrate",),
}
HOOK_COUNTS = ("characters.bruteforce_tables", "rtf_constants.assignments", "quadrature.panels",
               "empirical.rows_ingested", "empirical.rows_rejected", "checks.results",
               "checks.failed")
DISTINCT_RATIOS = {
    "lfunctions.laurent_distinct_ratio": "lfunctions.laurent_at_1",
    "rtf_constants.taylor_distinct_ratio": "rtf_constants.edge_product_taylor",
    "empirical.cdf_distinct_ratio": "empirical.CdfInterpolator.__init__",
}

# Every per-layer metric with its unit, in report order.
PER_LAYER = {
    "cli.import_s": "s", "cli.self_s": "s", "cli.output_bytes": "bytes",
    **{f"{m}.self_s": "s" for m in MODULES if m != "cli"},
    **{k: "s" for k in INCLUSIVE},
    **{k: "count" for k in CALL_COUNTS},
    **{k: "count" for k in HOOK_COUNTS},
    **{k: "ratio" for k in DISTINCT_RATIOS},
    "characters.unit_group_hit_ratio": "ratio",
    "quadrature.failed": "count",
    "errors.raised": "count",
    **{f"errors.raised.{e}": "count" for e in ERROR_TYPES},
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
}
COUNT_METRICS = tuple(k for k, u in PER_LAYER.items() if u in ("count", "bytes"))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def reduce_invocation(path: Path) -> dict:
    """Self times, inclusive times, counts and root-span time of one span file."""
    with np.load(path) as data:
        name, parent = data["name"], data["parent"]
        dur = data["end"] - data["start"]
        meta = json.loads(str(data["meta"]))
    names, modules = meta["names"], meta["modules"]
    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_t = dur - child
    out: dict = {f"{m}.self_s": 0.0 for m in MODULES}
    for nid, total in enumerate(np.bincount(name, weights=self_t, minlength=len(names))):
        if names[nid] == "cli.import":
            out["cli.import_s"] = float(total)
        elif modules[nid] in MODULES:
            out[f"{modules[nid]}.self_s"] += float(total)
    # Inclusive time of a name set: spans of the set with no ancestor in the set.
    for metric, members in INCLUSIVE.items():
        ids = {i for i, n in enumerate(names) if n in members}
        total = 0.0
        for s in np.flatnonzero(np.isin(name, list(ids))):
            p = parent[s]
            while p >= 0 and name[p] not in ids:
                p = parent[p]
            if p < 0:
                total += float(dur[s])
        out[metric] = total
    calls = dict(zip(names, meta["calls"]))
    for metric, members in CALL_COUNTS.items():
        out[metric] = sum(calls.get(n, 0) for n in members)
    for metric in HOOK_COUNTS:
        out[metric] = meta["counters"].get(metric, 0)
    out["distinct"] = {m: (meta["distinct"].get(n, 0), calls.get(n, 0))
                       for m, n in DISTINCT_RATIOS.items()}
    out["unit_group"] = meta["caches"].get("characters.unit_group", [0, 0])
    out["errors"] = meta["errors"]
    out["root_s"] = float(dur[parent < 0].sum())
    return out


def reduce_pass(invocations: list[tuple[Path, float, int]]) -> dict:
    """Per-layer metrics of one traced pass: (span file, child wall, stdout bytes) each."""
    parts = [reduce_invocation(path) for path, _, _ in invocations]
    out = {k: 0.0 for k, u in PER_LAYER.items() if u == "s"}
    out.update({k: 0 for k in COUNT_METRICS})
    for part in parts:
        for key in out:
            if key in part:
                out[key] += part[key]
    out["cli.output_bytes"] = sum(size for _, _, size in invocations)
    for metric in DISTINCT_RATIOS:
        distinct = sum(p["distinct"][metric][0] for p in parts)
        out[metric] = _ratio(distinct, sum(p["distinct"][metric][1] for p in parts))
    hits = sum(p["unit_group"][0] for p in parts)
    out["characters.unit_group_hit_ratio"] = _ratio(hits, hits + sum(p["unit_group"][1] for p in parts))
    errors: dict[str, int] = {}
    for p in parts:
        for k, v in p["errors"].items():
            errors[k] = errors.get(k, 0) + v
    out["errors.raised"] = sum(errors.values())
    for e in ERROR_TYPES:
        out[f"errors.raised.{e}"] = errors.get(e, 0)
    out["quadrature.failed"] = errors.get("QuadratureError", 0)
    wall = sum(w for _, w, _ in invocations)
    out["trace.coverage"] = _ratio(sum(p["root_s"] for p in parts), wall)
    return out
