"""Ingestion of external eigenvalue data and distribution comparison.

Samples arrive as CSV rows (level_norm, place_q, x, weight), parsed into
typed columns in one pass; rows violating the domain bounds are rejected by
one vectorized mask and counted.  The comparison machinery builds the
theoretical CDF of a chosen density on a fixed fine grid (Kronrod panels, no
adaptivity, hence byte-stable) and reports the weighted Kolmogorov-Smirnov
distance plus per-interval discrepancies.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from typing import Iterable, Sequence, TextIO

import numpy as np

from ._record import record
from .measures import Density, integrate_density, theta_integrand
from .quadrature import kronrod_cells

CSV_COLUMNS = ("level_norm", "place_q", "x", "weight")
# Rows formatted per block by write_sample_csv.
_WRITE_BLOCK = 8192


@record
class EmpiricalSample:
    """Weighted eigenvalue observations, all inside [-2, 2]."""

    level_norm: np.ndarray
    place_q: np.ndarray
    x: np.ndarray
    weight: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.x)
        if not (len(self.level_norm) == len(self.place_q) == len(self.weight) == n):
            raise ValueError("column lengths disagree")

    def __len__(self) -> int:
        return len(self.x)

    def total_weight(self) -> float:
        return float(np.sum(self.weight))


# One row of a sample; read_sample_csv parses straight into it.
_ROW_DTYPE = np.dtype(
    [("level_norm", np.int64), ("place_q", np.int64), ("x", np.float64), ("weight", np.float64)]
)


def _keep_valid(table: np.ndarray, lo: float, hi: float) -> tuple[EmpiricalSample, int]:
    """Drop the rows that violate the domain bounds; returns (sample, rejected count).

    A row is kept when level_norm >= 1, place_q >= 2, lo <= x <= hi and the
    weight is finite and nonnegative (NaN fails every comparison).
    """
    x, weight = table["x"], table["weight"]
    keep = (
        (table["level_norm"] >= 1)
        & (table["place_q"] >= 2)
        & (lo <= x)
        & (x <= hi)
        & np.isfinite(weight)
        & (weight >= 0.0)
    )
    # Each column is gathered straight from its field view: one copy per column.
    sample = EmpiricalSample(**{name: table[name][keep] for name in CSV_COLUMNS})
    return sample, len(table) - len(sample)


def sample_from_rows(
    rows: Iterable[tuple[int, int, float, float]],
    lo: float = -2.0,
    hi: float = 2.0,
) -> tuple[EmpiricalSample, int]:
    """Build a sample, rejecting invalid rows; returns (sample, rejected count).

    The default domain bounds are the normalized-eigenvalue interval [-2, 2];
    pass the spectral window instead when the observations are per-place
    spectral parameters.  A row that does not convert to
    (int, int, float, float) raises ValueError or OverflowError.
    """
    return _keep_valid(np.fromiter(map(tuple, rows), dtype=_ROW_DTYPE), lo, hi)


def read_sample_csv(
    text: str | TextIO, lo: float = -2.0, hi: float = 2.0
) -> tuple[EmpiricalSample, int]:
    """Parse CSV with the mandatory header (level_norm, place_q, x, weight).

    ``text`` is the whole CSV as a string, or a text stream positioned at its
    header.  A stream is parsed line by line as it is read, so the text is
    never held whole; open a file with ``newline=None`` (the default) so its
    CR and CRLF line endings read as LF, as they do in a string.

    Fields may be quoted and padded with spaces; blank lines are skipped.  A
    row without exactly four fields, or a field that does not parse (an int
    column must hold a plain integer within int64), raises ValueError.  Rows
    that parse but violate the domain bounds are rejected and counted.
    """
    # A string gets universal newlines, as csv reads them.
    stream = io.StringIO(text, newline=None) if isinstance(text, str) else text
    first = stream.readline()
    if not first:
        raise ValueError("empty CSV: the header row is mandatory")
    header = next(csv.reader([first]), [])
    if tuple(h.strip() for h in header) != CSV_COLUMNS:
        raise ValueError(f"CSV header must be exactly {','.join(CSV_COLUMNS)}")
    with warnings.catch_warnings():
        # A header-only file is an empty sample, not a warning.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        table = np.loadtxt(
            stream,
            dtype=_ROW_DTYPE,
            delimiter=",",
            quotechar='"',
            comments=None,
            ndmin=1,
        )
    return _keep_valid(table, lo, hi)


def write_sample_csv(sample: EmpiricalSample) -> str:
    """Serialize with repr-exact floats so reading back is lossless.

    No field ever needs CSV quoting (ints and float reprs such as ``nan`` or
    ``-inf``), so each row is formatted directly.  Rows are formatted a block
    at a time, so the Python objects of only one block are alive at once and
    the peak memory stays near twice the size of the text.
    """
    columns = [
        np.asarray(sample.level_norm, dtype=np.int64),
        np.asarray(sample.place_q, dtype=np.int64),
        np.asarray(sample.x, dtype=np.float64),
        np.asarray(sample.weight, dtype=np.float64),
    ]
    parts = [",".join(CSV_COLUMNS) + "\n"]
    for start in range(0, len(columns[0]), _WRITE_BLOCK):
        block = zip(*(col[start:start + _WRITE_BLOCK].tolist() for col in columns))
        parts.append("".join([f"{ln},{pq},{x!r},{w!r}\n" for ln, pq, x, w in block]))
    return "".join(parts)


# ---------------------------------------------------------------------------
# theoretical CDF on a fixed grid

class CdfInterpolator:
    """CDF of a density on a finite interval, tabulated on a fixed grid.

    Semicircle-type densities on [-2, 2] get a theta-uniform grid through
    x = 2 cos(theta), which concentrates nodes at the square-root endpoints,
    and each cell integrates `measures.theta_integrand`; other densities
    (e.g. the finite-place spectral windows) use a uniform grid.  Fixed
    Kronrod panels per cell keep the table byte-stable.
    """

    def __init__(self, density: Density, grid: int = 2048):
        if not math.isfinite(density.hi - density.lo):
            raise ValueError("CDF tabulation needs a finite domain")
        if density.cos_substitution:
            thetas = np.linspace(math.pi, 0.0, grid + 1)  # x ascending from -2 to 2
            xs = 2.0 * np.cos(thetas)
            # theta decreases across each cell, so the signed cell integrals flip
            increments = -np.array(kronrod_cells(theta_integrand(density), thetas.tolist()))
        else:
            xs = np.linspace(density.lo, density.hi, grid + 1)
            increments = np.array(kronrod_cells(density.kernel, xs.tolist()))
        cdf = np.concatenate([[0.0], np.cumsum(increments)])
        self.total = float(cdf[-1])
        self.xs = xs
        self.cdf = cdf / self.total

    def __call__(self, x: np.ndarray | float) -> np.ndarray | float:
        return np.interp(x, self.xs, self.cdf)

    def inverse(self, u: np.ndarray) -> np.ndarray:
        return np.interp(u, self.cdf, self.xs)


def inverse_cdf_sample(density: Density, size: int, seed: int = 0) -> np.ndarray:
    """Draw iid points from a finite-domain density through its CDF tabulated
    on 4096 cells."""
    interp = CdfInterpolator(density, 4096)
    rng = np.random.default_rng(seed)
    return interp.inverse(rng.random(size))


def _ks_distance(sample: EmpiricalSample, interp: CdfInterpolator) -> float:
    """Weighted Kolmogorov-Smirnov distance of a non-empty sample: the largest
    gap between the theoretical CDF at each sorted point and the empirical CDF
    just after it (cum[i]) or just before it (cum[i - 1], 0 at the first
    point).  The gaps are formed in place: besides the sample, at most four
    sample-length arrays (order, sorted x, cum, theo) are alive."""
    order = np.argsort(sample.x, kind="stable")
    cum = sample.weight[order]
    total = float(np.sum(cum))
    if total <= 0.0:
        raise ValueError("total sample weight must be positive")
    np.cumsum(cum, out=cum)
    cum /= total
    theo = np.asarray(interp(sample.x[order]))
    del order
    before = cum[:-1] - theo[1:]
    np.abs(before, out=before)
    np.subtract(cum, theo, out=cum)
    np.abs(cum, out=cum)
    return float(np.max([np.max(cum), np.max(before, initial=abs(theo[0]))]))


def interval_report(
    sample: EmpiricalSample,
    density: Density,
    intervals: Sequence[tuple[float, float]],
) -> list[dict]:
    """Per-interval empirical mass vs theoretical mass."""
    total = sample.total_weight()
    out = []
    for a, b in intervals:
        if a > b:
            a, b = b, a
        theo = integrate_density(density, a, b).value if a < b else 0.0
        if len(sample) and total > 0.0:
            mask = (sample.x >= a) & (sample.x <= b)
            emp = float(np.sum(sample.weight[mask])) / total
        else:
            emp = 0.0
        out.append(
            {
                "interval": [a, b],
                "empirical_mass": emp,
                "theoretical_mass": theo,
                "discrepancy": emp - theo,
            }
        )
    return out


def compare_report(
    sample: EmpiricalSample,
    density: Density,
    rejected: int = 0,
    intervals: Sequence[tuple[float, float]] = (),
) -> dict:
    interp = CdfInterpolator(density)
    report = {
        "measure": density.tag,
        "rows": int(len(sample)),
        "rejected_rows": int(rejected),
        "total_weight": sample.total_weight() if len(sample) else 0.0,
        "theoretical_mass": interp.total,
        "ks_distance": _ks_distance(sample, interp) if len(sample) else None,
        "intervals": interval_report(sample, density, intervals) if intervals else [],
    }
    return report
