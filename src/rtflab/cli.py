"""Command-line front end.

Subcommands: measure, mass, weights, constants, characters, check, compare.
Every subcommand takes --out PATH; --tol FLOAT is read by mass and check,
--format {csv,json} by weights, and --profile PATH by constants and
characters.  No subcommand, and no `weights --rep`, accepts a flag it does
not read, and no float flag accepts nan or an infinity.
Exit codes: 0 success, 1 check failure, 2 usage or parse error, 3 numerical
failure (diagnostic JSON on stderr).  Output is deterministic: fixed
iteration orders, repr-exact floats, no clocks.
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from . import __version__
from .errors import RamifiedOverlapError, RtflabError
from .fields import FieldProfile, RATIONALS, parse_factored_level

if TYPE_CHECKING:
    from .characters import DirichletCharacter
    from .measures import Density

# Each subcommand imports the modules it runs, so that `constants`, `measure`
# or `--version` never load numpy, `checks` or `empirical`; `json` is imported
# where JSON is written or read, so `--version`, `measure` and `characters`
# never load it.

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


class _CliError(Exception):
    """Usage-level error: bad argument combination or unparsable input."""


def _finite(kind: type) -> Callable[[str], float | complex]:
    """argparse type of a float or complex flag: nan and infinities are usage errors."""

    def parse(text: str) -> float | complex:
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not cmath.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, not {text!r}")
        return value

    return parse


def _write_output(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _json_dumps(obj) -> str:
    import json

    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _load_profile(path: str | None) -> FieldProfile:
    if path is None:
        return RATIONALS
    return FieldProfile.from_json(Path(path).read_text(encoding="utf-8"))


def _parse_eta(spec: str | None) -> DirichletCharacter:
    """Character spec: 'trivial' (the default) for the character mod 1, or
    'quad:m' for the primitive even quadratic mod m."""
    from .characters import DirichletCharacter

    if spec is None or spec == "trivial":
        return DirichletCharacter.trivial()
    if spec.startswith("quad:"):
        try:
            m = int(spec.split(":", 1)[1])
        except ValueError:
            raise _CliError(f"cannot parse character spec {spec!r} (use 'trivial' or 'quad:m')") from None
        chi = DirichletCharacter.quadratic(m)
        if not chi.is_even():
            raise _CliError(f"the quadratic character mod {m} is odd; an even one is required")
        return chi
    raise _CliError(f"cannot parse character spec {spec!r} (use 'trivial' or 'quad:m')")


def _density_from_args(args) -> Density:
    """The density named by --measure, --p and --sign, which `measure`, `mass`
    and `compare` share; `mass` also passes --window here.

    A flag the measure does not read is a usage error: mu_ST takes neither
    --p nor --sign, and only lambda has a half window.  --sign and --window
    default to None, read as +1 and the full window.
    """
    from .measures import local_spectral, plancherel, sato_tate

    if getattr(args, "window", None) is not None and args.measure != "lambda":
        raise _CliError("--window is read by --measure lambda only")
    if args.measure == "mu_ST":
        if args.p is not None or args.sign is not None:
            raise _CliError("mu_ST reads neither --p nor --sign")
        return sato_tate()
    if args.p is None:
        raise _CliError(f"--p is required for {args.measure}")
    place = RATIONALS.place_for_prime(args.p)
    if args.measure == "mu_p":
        return plancherel(place.q, args.sign or 1)
    return local_spectral(place, args.sign or 1)


# ---------------------------------------------------------------------------
# subcommands


# At least this many rows per `measure` chunk, so the default grid (201 rows)
# never forks.
GRID_ROWS_PER_CHUNK = 4096


def _cmd_measure(args) -> int:
    from .chunked import map_chunked

    density = _density_from_args(args)
    n = args.grid
    if n < 1:
        raise _CliError("--grid must be at least 1")
    # Python floats throughout: the density's pow differs from numpy's.  Each
    # abscissa takes the IEEE steps of the array form lo + span * arange / n,
    # which stays inside the domain, so each point is only clamped onto it
    # (lo + span * n / n may round past hi) before the unchecked kernel.
    # Every density the CLI builds has a finite domain.
    lo, hi, kernel = density.lo, density.hi, density.kernel
    span = hi - lo
    tail = f",{density.tag},{args.p or 0},{args.sign or 1:+d}\n"

    def rows(start: int, stop: int) -> str:
        xs = [lo + span * i / n for i in range(start, stop)]
        return "".join([f"{x!r},{kernel(min(max(x, lo), hi))!r}{tail}" for x in xs])

    body = "".join(map_chunked(rows, n + 1, GRID_ROWS_PER_CHUNK))
    _write_output("x_or_y,density,measure_tag,place_q,sign\n" + body, args.out)
    return EXIT_OK


def _cmd_mass(args) -> int:
    from .measures import integrate_density

    density = _density_from_args(args)
    # Halving is exact, so the half window ends at pi / log q to the bit.
    hi = density.hi / 2 if args.window == "half" else density.hi
    res = integrate_density(density, density.lo, hi, args.tol)
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


# The rep flags of `weights` each rep reads; they default to None, read as
# --theta 0.0, --chi-sign 1 and --c 2.
_WEIGHTS_REP_FLAGS = {"spherical": ("theta", "satake"), "special": ("chi_sign",), "c2": ("c",)}


def _cmd_weights(args) -> int:
    from .local_factors import HigherConductor, Special, Spherical, r_weight, spherical_in_open_set

    for flag in ("theta", "satake", "chi_sign", "c"):
        if getattr(args, flag) is not None and flag not in _WEIGHTS_REP_FLAGS[args.rep]:
            raise _CliError(f"--rep {args.rep} does not read --{flag.replace('_', '-')}")
    place = RATIONALS.place_for_prime(args.q)
    if args.rep == "spherical":
        if args.theta is not None and args.satake is not None:
            raise _CliError("give the Satake parameter by --theta or by --satake, not both")
        if args.satake is None:
            data = Spherical(cmath.exp(1j * (0.0 if args.theta is None else args.theta)))
        else:
            data = Spherical(args.satake)
        # r_weight reads the parameter only at k >= 1; every k gets the same rule.
        if not spherical_in_open_set(data, place.q):
            raise _CliError(f"Satake parameter {data.satake} is not in the admissible set at q = {place.q}")
    elif args.rep == "special":
        data = Special(args.chi_sign or 1)
    else:
        data = HigherConductor(2 if args.c is None else args.c)
    value = r_weight(place, data, args.sign, args.k)
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
        level_constant,
        spectral_edge_constant,
        unipotent_orbit_constant,
        unipotent_orbit_factor,
    )

    s_values = _parse_s_values(args.s_values)
    s_primes = _parse_s_primes(args.s_primes)
    profile = _load_profile(args.profile)
    n = parse_factored_level(args.n, profile)
    eta = _parse_eta(args.eta)
    if not profile.is_rationals:
        raise ValueError("the analytic context is implemented over Q only")
    arch = profile.archimedean_places[0]
    places = [arch] + [profile.place_for_prime(p) for p in s_primes]
    for place in places[1:]:
        if n.ord_at(place) > 0:
            raise RamifiedOverlapError(f"S place {place.label} meets the support of the level {n}")
    upsilon_samples = []
    c_term_samples = []
    for s in s_values:
        s_map = {pl: complex(s) for pl in places}
        upsilon_samples.append(_complex_pair(unipotent_orbit_factor(s_map, eta)))
        c_term_samples.append(_complex_pair(unipotent_orbit_constant(s_map, n, eta, profile)))
    doc = {
        "n": str(n),
        "norm": n.norm(),
        "eta": args.eta or "trivial",
        "C_level": level_constant(n),
        # C_eta is the orbit constant with no place in S
        "C_eta_big": unipotent_orbit_constant({}, n, eta, profile).real,
        "Y": {str(j): spectral_edge_constant(n, eta, j) for j in (2, 1, 0, -1)},
        "s_values": s_values,
        "upsilon_samples": upsilon_samples,
        "C_term_samples": c_term_samples,
    }
    _write_output(_json_dumps(doc), args.out)
    return EXIT_OK


def _parse_s_values(spec: str | None) -> list[float]:
    """'a,b,...' as finite floats (default 1, 2); the error names the first bad token."""
    if not spec:
        return [1.0, 2.0]
    values = []
    for part in spec.split(","):
        try:
            value = float(part)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise _CliError(f"--s-values takes finite numbers, not {part!r}")
        values.append(value)
    return values


def _parse_s_primes(spec: str | None) -> list[int]:
    """'p,q,...' as distinct integers (default none); the error names the first bad token."""
    primes: list[int] = []
    for part in spec.split(",") if spec else ():
        try:
            p = int(part)
        except ValueError:
            raise _CliError(f"--s-primes takes integers, not {part!r}") from None
        if p in primes:
            raise _CliError(f"--s-primes lists {p} twice")
        primes.append(p)
    return primes


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


def _parse_intervals(spec: str | None) -> list[tuple[float, float]]:
    """'a:b,c:d' as float pairs; the error names the first malformed token."""
    intervals = []
    for part in spec.split(",") if spec else ():
        try:
            a, b = part.split(":")
            intervals.append((float(a), float(b)))
        except ValueError:
            raise _CliError(f"cannot parse --intervals token {part!r} (use a:b)") from None
    return intervals


def _cmd_compare(args) -> int:
    import numpy as np

    from .empirical import compare_report, read_sample_csv

    intervals = _parse_intervals(args.intervals)
    density = _density_from_args(args)
    # The parser reads the file line by line, so its text is never held whole.
    with open(args.sample, encoding="utf-8", newline=None) as stream:
        # Observations against the per-place spectral density live in its
        # window, not in the eigenvalue interval.
        sample, rejected = read_sample_csv(stream, density.lo, density.hi)
    if len(sample) == 0:
        raise _CliError("the sample is empty after ingest validation")
    q = int(sample.place_q.min())
    if q != sample.place_q.max():
        raise _CliError(
            f"sample mixes place_q values {np.unique(sample.place_q).tolist()}; "
            "compare one group at a time"
        )
    if args.measure in ("mu_p", "lambda") and q != args.p:
        raise _CliError(
            f"sample is grouped at place_q={q} but --p {args.p} was requested"
        )
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
        p.add_argument("--sign", type=int, choices=(1, -1), default=None)

    p = sub.add_parser("measure", help="tabulate a density on a grid (CSV)")
    add_out(p)
    add_measure_args(p)
    p.add_argument("--grid", type=int, default=200)
    p.set_defaults(fn=_cmd_measure)

    p = sub.add_parser("mass", help="total mass of a density (JSON)")
    add_out(p)
    p.add_argument("--tol", type=_finite(float), default=1e-10)
    add_measure_args(p)
    p.add_argument("--window", choices=("half", "full"), default=None)
    p.set_defaults(fn=_cmd_mass)

    p = sub.add_parser("weights", help="spectral weight r(rep, sign, k)")
    add_out(p)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--rep", choices=("spherical", "special", "c2"), required=True)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--sign", type=int, choices=(1, -1), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--theta", type=_finite(float), default=None,
                   help="Satake angle for spherical (default 0)")
    p.add_argument("--satake", type=_finite(complex), default=None,
                   help="explicit Satake parameter (complex) for spherical")
    p.add_argument("--chi-sign", type=int, choices=(1, -1), default=None,
                   help="twisting sign for special (default +1)")
    p.add_argument("--c", type=int, default=None, help="conductor exponent for c2 (default 2)")
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
    p.add_argument("--tol", type=_finite(float), default=None)
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
    except (_CliError, ValueError, KeyError, OSError) as exc:
        sys.stderr.write(_json_dumps({"error": "usage", "message": str(exc)}))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
