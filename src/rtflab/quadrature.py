"""Adaptive Gauss-Kronrod quadrature and fixed Kronrod cells.

The panel rule is the embedded (G7, K15) pair; panels are split greedily on
the largest error estimate with a deterministic tie-break, so results are
bit-stable across runs.  The rules know nothing of densities: the change of
variables that smooths square-root endpoints is in :mod:`rtflab.measures`.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from ._record import record
from .errors import QuadratureError

# 15-point Kronrod nodes on [-1, 1] with Gauss-7 and Kronrod-15 weights.
_NODES = (
    (0.000000000000000000000000000000000, 0.417959183673469387755102040816327, 0.209482141084727828012999174891714),
    (0.405845151377397166906606412076961, 0.381830050505118944950369775488975, 0.190350578064785409913256402421014),
    (-0.405845151377397166906606412076961, 0.381830050505118944950369775488975, 0.190350578064785409913256402421014),
    (0.741531185599394439863864773280788, 0.279705391489276667901467771423780, 0.140653259715525918745189590510238),
    (-0.741531185599394439863864773280788, 0.279705391489276667901467771423780, 0.140653259715525918745189590510238),
    (0.949107912342758524526189684047851, 0.129484966168869693270611432679082, 0.063092092629978553290700663189204),
    (-0.949107912342758524526189684047851, 0.129484966168869693270611432679082, 0.063092092629978553290700663189204),
    (0.207784955007898467600689403773245, 0.0, 0.204432940075298892414161999234649),
    (-0.207784955007898467600689403773245, 0.0, 0.204432940075298892414161999234649),
    (0.586087235467691130294144838258730, 0.0, 0.169004726639267902826583426598550),
    (-0.586087235467691130294144838258730, 0.0, 0.169004726639267902826583426598550),
    (0.864864423359769072789712788640926, 0.0, 0.104790010322250183839876322541518),
    (-0.864864423359769072789712788640926, 0.0, 0.104790010322250183839876322541518),
    (0.991455371120812639206854697526329, 0.0, 0.022935322010529224963732008058970),
    (-0.991455371120812639206854697526329, 0.0, 0.022935322010529224963732008058970),
)


@record
class QuadratureResult:
    value: float
    error_estimate: float
    subdivisions: int


_EPS_FLOOR = 50.0 * 2.220446049250313e-16
_MAX_SUBDIVISIONS = 4096  # the panel budget of `integrate`


def _panel(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    values = []
    gauss = 0.0
    kronrod = 0.0
    resabs = 0.0
    for xi, wg, wk in _NODES:
        fx = f(mid + half * xi)
        values.append((fx, wk))
        gauss += wg * fx
        kronrod += wk * fx
        resabs += wk * abs(fx)
    mean = 0.5 * kronrod
    resasc = sum(wk * abs(fx - mean) for fx, wk in values)
    err = abs(kronrod - gauss) * half
    scale = resasc * half
    # QUADPACK error model: sharpen the embedded-rule difference against the
    # oscillation scale, never below the rounding floor of the panel.
    if scale != 0.0 and err != 0.0:
        err = scale * min(1.0, (200.0 * err / scale) ** 1.5)
    err = max(err, _EPS_FLOOR * resabs * half)
    return kronrod * half, err


def kronrod_cells(f: Callable[[float], float], edges: Sequence[float]) -> list[float]:
    """Kronrod-15 integral of ``f`` over each cell [edges[i], edges[i + 1]].

    Fixed panels, no error estimate and no subdivision, so the work and the
    result are the same on every run.
    """
    out = []
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        acc = 0.0
        for xi, _, wk in _NODES:
            acc += wk * f(mid + half * xi)
        out.append(acc * half)
    return out


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
) -> QuadratureResult:
    """Integrate ``f`` on [a, b] to absolute tolerance ``tol``.

    Raises QuadratureError (with the achieved estimate attached) when the
    panel budget, `_MAX_SUBDIVISIONS` panels, is exhausted before the tolerance is met.
    """
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration endpoints must be finite")
    if a == b:
        return QuadratureResult(0.0, 0.0, 0)
    sign = 1.0
    if a > b:
        a, b, sign = b, a, -1.0
    value0, err0 = _panel(f, a, b)
    panels = [(a, b, value0, err0)]
    splits = 0
    while True:
        total = math.fsum(p[2] for p in panels)
        err = math.fsum(p[3] for p in panels)
        if err <= tol:
            return QuadratureResult(sign * total, err, splits)
        if len(panels) >= _MAX_SUBDIVISIONS:
            raise QuadratureError(
                f"quadrature did not reach tol={tol:g}; achieved {err:g} "
                f"after {splits} subdivisions",
                QuadratureResult(sign * total, err, splits),
            )
        # Split the panel with the largest error; ties break on the left edge.
        worst = max(range(len(panels)), key=lambda i: (panels[i][3], -panels[i][0]))
        pa, pb, _, _ = panels[worst]
        mid = 0.5 * (pa + pb)
        left = (pa, mid, *_panel(f, pa, mid))
        right = (mid, pb, *_panel(f, mid, pb))
        panels[worst] = left
        panels.append(right)
        splits += 1

