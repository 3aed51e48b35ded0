"""Correctness gate: one checker per CLI subcommand the workloads run.

Wherever a second route exists the checker recomputes the value by it
(``check``'s pass flags from observed/tolerance, ``C_level`` by
inclusion-exclusion, ``norm`` exactly, ``compare``'s row counts, weights,
masses and KS distance from the generated sample with numpy).  Everything
else is compared with ``reference.json``: CSV outputs and integers exactly,
floats to the tolerance the library states for that quantity.  Each
checker returns ``None`` when the output is right, else the reason.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from itertools import combinations

import numpy as np

# Laurent and edge data are accepted when two stencil widths agree to 1e-7
# (README, "Numerical conventions"); every constant built from them inherits it.
LAURENT_RTOL = 1e-7
# Gamma/digamma based orbit factors carry the library's default 1e-10.
GAMMA_RTOL = 1e-10
# rtflab tabulates the compare CDF on 2048 cells and interpolates linearly,
# an error of order h^2 max|f'| / 8 ~ 1e-6; the fine Simpson route below is
# accurate to ~1e-9, so KS distances agree to well within 1e-5.
KS_ATOL = 1e-5
# Quadrature-backed masses (adaptive tol 1e-10 in rtflab, Simpson on 2^14
# panels here).
MASS_ATOL = 1e-8


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


def level_constant_by_inclusion_exclusion(exponents: dict[int, int]) -> Fraction:
    """Sum over subsets S of the places with exponent >= 2 of (-1)^|S| prod a_v."""
    a = {p: Fraction(1, p * p - p) if e == 2 else Fraction(1, p * p)
         for p, e in exponents.items() if e >= 2}
    total = Fraction(0)
    for k in range(len(a) + 1):
        for subset in combinations(a, k):
            term = Fraction((-1) ** k)
            for p in subset:
                term *= a[p]
            total += term
    return total


def check_check(out: bytes, expect: dict, ref: dict) -> str | None:
    doc = json.loads(out)
    names = [c["name"] for c in doc["checks"]]
    if names != ref["check"]["names"]:
        return "check names differ from the reference list"
    for c in doc["checks"]:
        if c["passed"] != (c["observed"] <= c["tolerance"]):
            return f"{c['name']}: passed flag disagrees with observed <= tolerance"
        if not c["passed"]:
            return f"{c['name']} failed"
    if doc["passed"] is not True or doc["failures"]:
        return "suite did not pass"
    return None


def check_constants(out: bytes, expect: dict, ref: dict) -> str | None:
    doc = json.loads(out)
    exponents = expect["exponents"]
    want = ref["constants"][expect["ref"]]
    if doc["norm"] != math.prod(p**e for p, e in exponents.items()):
        return f"norm {doc['norm']} is wrong"
    c_level = level_constant_by_inclusion_exclusion(exponents)
    if not _close(doc["C_level"], float(c_level), 1e-12):
        return f"C_level {doc['C_level']} != {float(c_level)}"
    if doc["n"] != want["n"] or doc["eta"] != expect["eta"] or doc["s_values"] != [1.0, 2.0]:
        return "n, eta or s_values differ from the reference"
    if set(doc["Y"]) != set(want["Y"]):
        return "Y orders differ"
    for j, y in want["Y"].items():
        if not _close(doc["Y"][j], y, LAURENT_RTOL):
            return f"Y[{j}] = {doc['Y'][j]} vs reference {y}"
    if not _close(doc["C_eta_big"], want["C_eta_big"], LAURENT_RTOL):
        return "C_eta_big differs from the reference"
    for key, rtol in (("C_term_samples", LAURENT_RTOL), ("upsilon_samples", GAMMA_RTOL)):
        got = np.asarray(doc[key], dtype=float)
        exp = np.asarray(want[key], dtype=float)
        if got.shape != exp.shape or np.any(np.abs(got - exp) > rtol * np.maximum(1.0, np.abs(exp))):
            return f"{key} differ from the reference"
    return None


def check_characters(out: bytes, expect: dict, ref: dict) -> str | None:
    want = ref["characters"][expect["ref"]]
    lines = out.decode().splitlines()
    if lines[0] != "modulus,conductor,parity,order":
        return "bad header"
    reach = expect["reach"]
    for line in lines[1:]:
        modulus, conductor, parity, order = line.split(",")
        m = int(modulus)
        # Listed characters are primitive, even, and their modulus squared divides n.
        if int(conductor) != m or reach % m or parity != "even" or int(order) < 1:
            return f"row {line!r} violates the census definition"
    if len(lines) - 1 != want["rows"] or digest(out) != want["sha256"]:
        return "census CSV differs from the reference"
    return None


def check_measure(out: bytes, expect: dict, ref: dict) -> str | None:
    want = ref["measure"][expect["ref"]]
    if digest(out) != want["sha256"]:
        return "grid CSV differs from the reference"
    return None


def independent_cdf(density) -> tuple[np.ndarray, np.ndarray]:
    """(x, unnormalized CDF) by composite Simpson on 2^14 panels.

    Semicircle-type densities are integrated in theta (x = 2 cos theta) like
    rtflab does, but on a far finer grid and with a different rule.
    """
    k = 1 << 14
    if density.cos_substitution:
        theta = np.linspace(math.pi, 0.0, k + 1)
        nodes = 2.0 * np.cos(theta)
        g = np.array([density.fn(min(max(x, -2.0), 2.0)) for x in nodes]) * 2.0 * np.sin(theta)
        step = -(theta[1] - theta[0])
    else:
        nodes = np.linspace(density.lo, density.hi, k + 1)
        g = np.array([density.fn(x) for x in nodes])
        step = nodes[1] - nodes[0]
    pairs = step / 3.0 * (g[0:-1:2] + 4.0 * g[1::2] + g[2::2])
    return nodes[::2], np.concatenate([[0.0], np.cumsum(pairs)])


def check_compare(out: bytes, expect: dict, sample: dict) -> str | None:
    doc = json.loads(out)
    if doc["measure"] != expect["tag"]:
        return f"measure tag {doc['measure']!r}"
    if doc["rows"] != expect["rows"] or doc["rejected_rows"] != expect["rejected"]:
        return f"rows {doc['rows']} / rejected {doc['rejected_rows']} miscounted"
    x, w = sample["x"], sample["weight"]
    total = float(np.sum(w))
    if not _close(doc["total_weight"], total, 1e-12):
        return "total_weight differs from the sample"
    xs, cdf = sample["cdf"]
    if abs(doc["theoretical_mass"] - cdf[-1]) > MASS_ATOL:
        return f"theoretical_mass {doc['theoretical_mass']} vs {cdf[-1]}"
    order = np.argsort(x, kind="stable")
    cum = np.cumsum(w[order]) / total
    theo = np.interp(x[order], xs, cdf / cdf[-1])
    below = np.concatenate([[0.0], cum[:-1]])
    ks = float(np.max(np.maximum(np.abs(cum - theo), np.abs(below - theo))))
    if abs(doc["ks_distance"] - ks) > KS_ATOL:
        return f"ks_distance {doc['ks_distance']} vs recomputed {ks}"
    if len(doc["intervals"]) != len(expect["intervals"]):
        return "interval count"
    for got, (a, b) in zip(doc["intervals"], expect["intervals"]):
        emp = float(np.sum(w[(x >= a) & (x <= b)])) / total
        theo_ab = float(np.interp(b, xs, cdf) - np.interp(a, xs, cdf))
        if got["interval"] != [a, b] or not _close(got["empirical_mass"], emp, 1e-12):
            return f"interval {a}:{b} empirical mass"
        if abs(got["theoretical_mass"] - theo_ab) > MASS_ATOL:
            return f"interval {a}:{b} theoretical mass {got['theoretical_mass']} vs {theo_ab}"
        if not _close(got["discrepancy"], got["empirical_mass"] - got["theoretical_mass"], 1e-12):
            return f"interval {a}:{b} discrepancy"
    return None


def check_version(out: bytes) -> str | None:
    text = out.decode()
    if not (text.startswith("rtflab ") and text.endswith("\n") and len(text.split()) == 2):
        return f"unexpected --version output {text!r}"
    return None


class Verifier:
    """Checks each invocation's output once, then requires the same bytes on repeats."""

    def __init__(self, reference: dict, samples: dict):
        self.reference = reference
        self.samples = samples
        self.seen: dict[str, str] = {}

    def __call__(self, inv, out: bytes) -> str | None:
        key = digest(out)
        if inv.label in self.seen:
            return None if self.seen[inv.label] == key else "output changed between passes"
        if inv.kind == "compare":
            sample = self.samples[inv.expect["measure"]]
            if "cdf" not in sample:
                sample["cdf"] = independent_cdf(sample["density"])
            reason = check_compare(out, inv.expect, sample)
        else:
            checker = {"check": check_check, "constants": check_constants,
                       "characters": check_characters, "measure": check_measure}[inv.kind]
            reason = checker(out, inv.expect, self.reference)
        if reason is None:
            self.seen[inv.label] = key
        return reason
