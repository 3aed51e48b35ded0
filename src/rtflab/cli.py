"""Command-line front end.

Subcommands: measure, mass, weights, constants, characters, check, compare.
Every subcommand takes --out PATH; --tol FLOAT is read by mass and check,
--format {csv,json} by weights, and --profile PATH by constants and
characters.  No subcommand accepts a flag it does not read.
Exit codes: 0 success, 1 check failure, 2 usage or parse error, 3 numerical
failure (diagnostic JSON on stderr).  Output is deterministic: fixed
iteration orders, repr-exact floats, no clocks.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .errors import RtflabError
from .fields import FieldProfile, RATIONALS, parse_factored_level

if TYPE_CHECKING:
    from .characters import DirichletCharacter
    from .measures import Density

# Each subcommand imports the modules it runs, so that `constants`, `measure`
# or `--version` never load numpy, `checks` or `empirical`.

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


class _CliError(Exception):
    """Usage-level error: bad argument combination or unparsable input."""


def _write_output(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _load_profile(path: str | None) -> FieldProfile:
    if path is None:
        return RATIONALS
    return FieldProfile.from_json(Path(path).read_text(encoding="utf-8"))


def _parse_eta(spec: str | None) -> DirichletCharacter | None:
    """Character spec: 'trivial' or 'quad:m' for the primitive even quadratic mod m."""
    from .characters import DirichletCharacter

    if spec is None or spec == "trivial":
        return None
    if spec.startswith("quad:"):
        m = int(spec.split(":", 1)[1])
        chi = DirichletCharacter.quadratic(m)
        if not chi.is_even():
            raise _CliError(f"the quadratic character mod {m} is odd; an even one is required")
        return chi
    raise _CliError(f"cannot parse character spec {spec!r} (use 'trivial' or 'quad:m')")


def _density_from_args(args) -> Density:
    from .measures import local_spectral, plancherel, sato_tate

    if args.measure == "mu_ST":
        return sato_tate()
    if args.measure == "mu_p":
        if args.p is None:
            raise _CliError("--p is required for mu_p")
        return plancherel(args.p, args.sign)
    if args.measure == "lambda":
        if args.p is None:
            raise _CliError("--p is required for lambda")
        return local_spectral(RATIONALS.place_for_prime(args.p), args.sign)
    raise _CliError(f"unknown measure {args.measure!r}")


# ---------------------------------------------------------------------------
# subcommands


# At least this many rows per `measure` chunk, so the default grid (201 rows)
# never forks.
GRID_ROWS_PER_CHUNK = 4096


def _cmd_measure(args) -> int:
    from .chunked import map_chunked

    density = _density_from_args(args)
    hi = density.hi if math.isfinite(density.hi) else args.ymax
    n = args.grid
    if n < 1:
        raise _CliError("--grid must be at least 1")
    # Python floats throughout: the density's pow differs from numpy's.  Each
    # abscissa takes the IEEE steps of the array form lo + span * arange / n,
    # which stays inside the domain, so each point is only clamped onto it
    # (lo + span * n / n may round past hi) before the unchecked kernel.
    lo, span = density.lo, hi - density.lo
    top, kernel = density.hi, density.kernel
    tail = f",{density.tag},{args.p or 0},{args.sign:+d}\n"

    def rows(start: int, stop: int) -> str:
        xs = [lo + span * i / n for i in range(start, stop)]
        return "".join([f"{x!r},{kernel(min(max(x, lo), top))!r}{tail}" for x in xs])

    body = "".join(map_chunked(rows, n + 1, GRID_ROWS_PER_CHUNK))
    _write_output("x_or_y,density,measure_tag,place_q,sign\n" + body, args.out)
    return EXIT_OK


def _cmd_mass(args) -> int:
    from .measures import lambda_mass

    density = _density_from_args(args)
    if args.measure == "lambda":
        res = lambda_mass(
            RATIONALS.place_for_prime(args.p), args.sign, args.tol, args.window
        )
    else:
        res = density.mass(args.tol)
    _write_output(
        _json_dumps(
            {
                "measure": density.tag,
                "value": res.value,
                "error": res.error_estimate,
                "subdivisions": res.subdivisions,
            }
        ),
        args.out,
    )
    return EXIT_OK


def _cmd_weights(args) -> int:
    from .local_factors import HigherConductor, LocalRepresentation, Special, Spherical, r_weight

    place = RATIONALS.place_for_prime(args.q)
    if args.rep == "spherical":
        satake = cmath.exp(1j * args.theta) if args.satake is None else complex(args.satake)
        data = Spherical(satake)
    elif args.rep == "special":
        data = Special(args.chi_sign)
    elif args.rep == "c2":
        data = HigherConductor(max(2, args.c))
    else:
        raise _CliError(f"unknown representation variant {args.rep!r}")
    rep = LocalRepresentation(place, data)
    value = r_weight(rep, args.sign, args.k)
    doc = {
        "variant": args.rep,
        "q": args.q,
        "sign": args.sign,
        "k": args.k,
        "weight": value,
    }
    if args.format == "csv":
        _write_output(
            "variant,q,sign,k,weight\n"
            f"{args.rep},{args.q},{args.sign:+d},{args.k},{value!r}\n",
            args.out,
        )
    else:
        _write_output(_json_dumps(doc), args.out)
    return EXIT_OK


def _cmd_constants(args) -> int:
    from .rtf_constants import (
        eta_context,
        level_constant,
        mean_square_constant,
        spectral_edge_constant,
        unipotent_orbit_constant,
        unipotent_orbit_factor,
    )

    profile = _load_profile(args.profile)
    n = parse_factored_level(args.n, profile)
    chi = _parse_eta(args.eta)
    ctx = eta_context(chi, profile)
    laurent = ctx.laurent_eta
    s_values = [float(s) for s in args.s_values.split(",")] if args.s_values else [1.0, 2.0]
    arch = profile.archimedean_places[0]
    s_primes = [int(p) for p in args.s_primes.split(",")] if args.s_primes else []
    places = [arch] + [profile.place_for_prime(p) for p in s_primes]
    upsilon_samples = []
    c_term_samples = []
    for s in s_values:
        s_map = {pl: complex(s) for pl in places}
        upsilon_samples.append(
            _complex_pair(unipotent_orbit_factor(s_map, ctx.eta.sign_at))
        )
        c_term_samples.append(
            _complex_pair(unipotent_orbit_constant(s_map, n, laurent, profile))
        )
    doc = {
        "n": str(n),
        "norm": n.norm(),
        "eta": args.eta or "trivial",
        "C_level": level_constant(n),
        "C_eta_big": mean_square_constant(n, laurent, profile),
        "Y": {
            str(j): spectral_edge_constant(n, ctx, j)
            for j in (2, 1, 0, -1)
        },
        "s_values": s_values,
        "upsilon_samples": upsilon_samples,
        "C_term_samples": c_term_samples,
    }
    _write_output(_json_dumps(doc), args.out)
    return EXIT_OK


def _complex_pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _cmd_characters(args) -> int:
    from .characters import enumerate_xi

    profile = _load_profile(args.profile)
    n = parse_factored_level(args.n, profile)
    lines = ["modulus,conductor,parity,order"]
    for chi in enumerate_xi(n, profile):
        parity = "even" if chi.is_even() else "odd"
        lines.append(f"{chi.modulus},{chi.conductor()},{parity},{chi.order()}")
    _write_output("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_check(args) -> int:
    from .checks import run_all_checks

    results = run_all_checks(args.tol)
    doc = {
        "version": __version__,
        "tolerance_override": args.tol,
        "checks": [r.as_dict() for r in results],
        "passed": all(r.passed for r in results),
        "failures": [r.name for r in results if not r.passed],
    }
    _write_output(_json_dumps(doc), args.out)
    return EXIT_OK if doc["passed"] else EXIT_CHECK_FAILED


def _cmd_compare(args) -> int:
    import numpy as np

    from .empirical import compare_report, read_sample_csv

    density = _density_from_args(args)
    text = Path(args.sample).read_text(encoding="utf-8")
    # Observations against the per-place spectral density live in its window,
    # not in the eigenvalue interval.
    sample, rejected = read_sample_csv(text, density.lo, density.hi)
    if len(sample) == 0:
        raise _CliError("the sample is empty after ingest validation")
    qs = np.unique(sample.place_q).tolist()
    if len(qs) > 1:
        raise _CliError(
            f"sample mixes place_q values {qs}; compare one group at a time"
        )
    if args.measure in ("mu_p", "lambda") and qs[0] != args.p:
        raise _CliError(
            f"sample is grouped at place_q={qs[0]} but --p {args.p} was requested"
        )
    intervals = []
    if args.intervals:
        for part in args.intervals.split(","):
            a, b = part.split(":")
            intervals.append((float(a), float(b)))
    report = compare_report(sample, density, rejected, intervals)
    _write_output(_json_dumps(report), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtflab",
        description="Tabulate and verify the explicit constants and spectral "
        "measures of GL(2) central L-value averages.",
    )
    parser.add_argument("--version", action="version", version=f"rtflab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    def add_profile(p):
        p.add_argument("--profile", default=None, help="field profile JSON path (default: Q)")

    def add_measure_args(p):
        p.add_argument("--measure", choices=("mu_ST", "mu_p", "lambda"), default="mu_ST")
        p.add_argument("--p", type=int, default=None, help="prime for mu_p / lambda")
        p.add_argument("--sign", type=int, choices=(1, -1), default=1)

    p = sub.add_parser("measure", help="tabulate a density on a grid (CSV)")
    add_out(p)
    add_measure_args(p)
    p.add_argument("--grid", type=int, default=200)
    p.add_argument("--ymax", type=float, default=10.0, help="cut-off for unbounded domains")
    p.set_defaults(fn=_cmd_measure)

    p = sub.add_parser("mass", help="total mass of a density (JSON)")
    add_out(p)
    p.add_argument("--tol", type=float, default=1e-10)
    add_measure_args(p)
    p.add_argument("--window", choices=("half", "full"), default="full")
    p.set_defaults(fn=_cmd_mass)

    p = sub.add_parser("weights", help="spectral weight r(rep, sign, k)")
    add_out(p)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--rep", choices=("spherical", "special", "c2"), required=True)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--sign", type=int, choices=(1, -1), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--theta", type=float, default=0.0, help="Satake angle for spherical")
    p.add_argument("--satake", default=None, help="explicit Satake parameter (complex)")
    p.add_argument("--chi-sign", type=int, choices=(1, -1), default=1)
    p.add_argument("--c", type=int, default=2)
    p.set_defaults(fn=_cmd_weights)

    p = sub.add_parser("constants", help="level constants and edge constants (JSON)")
    add_out(p)
    add_profile(p)
    p.add_argument("--n", required=True, help="factored level, e.g. 2^3*5 or 1")
    p.add_argument("--eta", default="trivial", help="'trivial' or 'quad:m'")
    p.add_argument("--s-values", default=None, help="comma list of s samples")
    p.add_argument("--s-primes", default=None, help="comma list of finite S primes")
    p.set_defaults(fn=_cmd_constants)

    p = sub.add_parser("characters", help="census of even square-conductor characters (CSV)")
    add_out(p)
    add_profile(p)
    p.add_argument("--n", required=True, help="factored level")
    p.set_defaults(fn=_cmd_characters)

    p = sub.add_parser("check", help="run the full invariant suite (JSON report)")
    add_out(p)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("compare", help="empirical sample vs theoretical distribution")
    add_out(p)
    add_measure_args(p)
    p.add_argument("--sample", required=True, help="CSV path (level_norm,place_q,x,weight)")
    p.add_argument(
        "--intervals",
        default=None,
        help="comma list a:b (write --intervals=-1:0,... when an endpoint is negative)",
    )
    p.set_defaults(fn=_cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help / --version
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except RtflabError as exc:
        sys.stderr.write(
            _json_dumps({"error": "numerical", "type": type(exc).__name__, "message": str(exc)})
        )
        return EXIT_NUMERICAL
    except (_CliError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(_json_dumps({"error": "usage", "message": str(exc)}))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
