"""Seeded input generators for the benchmark workloads.

Every workload is a fixed list of ``rtflab`` invocations (one *pass*).  The
seed picks the concrete inputs of each slot from a cost-matched family, so
passes built from different seeds do the same amount of work; the families
are listed in full by :func:`pool` so that ``record.py`` can store a
reference output for every input a seed can produce.  Why each workload
exists and which layer it loads is written down in ``README.md``.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("check_suite", "level_scan", "census_scan", "spectral_io")

# level_scan ---------------------------------------------------------------
LEVEL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)
# Even primitive quadratic conductors grouped by the cost of their Laurent
# extraction at level 1 (about 0.5 s and 1.0 s on a 2-core Xeon).  quad:24
# fits neither group (about 30% cheaper than the others in QUAD_DEAR), so it
# is left out: a slot whose cost depends on the draw spreads cmd_p50_s by seed.
QUAD_CHEAP = (5, 8, 12)
QUAD_DEAR = (13, 21, 28)
QUAD_LEVEL_PRIMES = (2, 3, 5, 7, 11)

# census_scan --------------------------------------------------------------
# Square-divisor reach D (the largest d with d^2 | n) sets the size of the
# enumeration; each slot draws from levels whose census took the same time
# within noise and lists about as many characters.  Levels are written as
# {prime: exponent of d}.
CENSUS_BIG = {2: 6, 3: 5, 11: 1}  # D = 171072, 25 920 characters
CENSUS_MEDIUM = (
    {2: 6, 3: 3, 5: 2},
    {2: 1, 3: 2, 7: 4},
    {2: 2, 3: 7, 5: 1},
    {2: 1, 3: 5, 7: 1, 13: 1},
    {2: 1, 3: 3, 5: 1, 13: 2},
    {2: 1, 3: 3, 7: 1, 11: 2},
)  # D between 43 218 and 45 738; 5 616 to 6 174 characters
CENSUS_SMALL = (
    {2: 4, 5: 1, 11: 2},
    {2: 7, 7: 1, 11: 1},
    {2: 8, 3: 1, 13: 1},
    {2: 4, 5: 4},
    {2: 1, 5: 1, 7: 1, 11: 1, 13: 1},
    {2: 4, 7: 2, 13: 1},
    {2: 5, 5: 2, 13: 1},
)  # D between 9 680 and 10 400; 1 440 to 2 016 characters

# spectral_io --------------------------------------------------------------
SPECTRAL_PRIMES = (2, 3, 5, 7)
SAMPLE_ROWS = 200_000
BAD_ROWS = 400  # rows the ingest must reject: half off-domain x, half negative weight
GRID = 150_000


@dataclass
class Invocation:
    """One ``rtflab`` run: its argv, its work units and what the checker needs."""

    argv: list[str]
    kind: str
    work: int
    expect: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass
class Workload:
    work_unit: str
    invocations: list[Invocation]
    # Data generated before timing (sample arrays) that the checker re-uses.
    samples: dict = field(default_factory=dict)


def _rng(name: str, seed: int) -> random.Random:
    # A string seed goes through SHA-512, so it is stable across processes.
    return random.Random(f"{name}:{seed}")


def level_text(exponents: dict[int, int]) -> str:
    if not exponents:
        return "1"
    return "*".join(f"{p}^{e}" if e > 1 else str(p) for p, e in sorted(exponents.items()))


def eta_conductor_primes(eta: str) -> set[int]:
    if eta == "trivial":
        return set()
    m = int(eta.split(":")[1])
    return {p for p in range(2, m + 1) if m % p == 0 and all(p % d for d in range(2, p))}


def ramified(exponents: dict[int, int], eta: str) -> bool:
    """True when the level support meets the conductor of eta (rtflab exits 3)."""
    return bool(set(exponents) & eta_conductor_primes(eta))


def constants_invocation(exponents: dict[int, int], eta: str) -> Invocation:
    if ramified(exponents, eta):
        raise ValueError(f"level {level_text(exponents)} is ramified for {eta}")
    assignments = math.prod(e + 1 for e in exponents.values())
    text = level_text(exponents)
    return Invocation(
        ["constants", "--n", text, "--eta", eta],
        "constants",
        4 * assignments,  # orders 2, 1, 0 and -1 each sum over every assignment
        {"exponents": exponents, "eta": eta, "ref": f"{text}|{eta}"},
    )


def _level_scan_families() -> dict[str, list[tuple[dict[int, int], str]]]:
    big = [({p: 2 for p in ps}, "trivial") for ps in itertools.combinations(LEVEL_PRIMES, 8)]
    mid = [({p: 3 for p in ps}, "trivial") for ps in itertools.combinations(LEVEL_PRIMES[:8], 6)]

    def quad(ms):
        return [
            ({p: e}, f"quad:{m}")
            for m in ms
            for p in QUAD_LEVEL_PRIMES
            for e in (1, 2)
            if not ramified({p: e}, f"quad:{m}")
        ]

    return {"big": big, "mid": mid, "quad_cheap": quad(QUAD_CHEAP), "quad_dear": quad(QUAD_DEAR)}


# Slots of one level_scan pass: family name and how many draws.
LEVEL_SCAN_SLOTS = (("big", 1), ("mid", 1), ("quad_cheap", 1), ("quad_dear", 1))


def _level_scan(seed: int) -> list[Invocation]:
    rng = _rng("level_scan", seed)
    families = _level_scan_families()
    out = []
    for family, count in LEVEL_SCAN_SLOTS:
        for exponents, eta in rng.sample(families[family], count):
            out.append(constants_invocation(exponents, eta))
    rng.shuffle(out)
    return out


def reach(d_exponents: dict[int, int]) -> int:
    return math.prod(p**f for p, f in d_exponents.items())


def characters_invocation(d_exponents: dict[int, int], rng: random.Random | None) -> Invocation:
    # The level is D^2 times an optional extra factor p at each prime of D;
    # the extra factor leaves the census (characters with m^2 | n) unchanged.
    exponents = {p: 2 * f + (rng.randint(0, 1) if rng else 0) for p, f in d_exponents.items()}
    d = reach(d_exponents)
    return Invocation(
        ["characters", "--n", level_text(exponents)], "characters", 0, {"reach": d, "ref": str(d)}
    )


def _census_scan(seed: int) -> list[Invocation]:
    rng = _rng("census_scan", seed)
    chosen = [CENSUS_BIG, *rng.sample(CENSUS_MEDIUM, 2), rng.choice(CENSUS_SMALL)]
    out = [characters_invocation(d, rng) for d in chosen]
    rng.shuffle(out)
    return out


def window(p: int) -> float:
    # Same expression as rtflab.measures.local_spectral, so the floats agree.
    return 2.0 * math.pi / math.log(p)


def measure_tag(measure: str, p: int, sign: int) -> str:
    return f"{'mu' if measure == 'mu_p' else 'lambda'}_{p}^{'+' if sign == 1 else '-'}"


def measure_invocation(measure: str, p: int, sign: int) -> Invocation:
    return Invocation(
        ["measure", "--measure", measure, "--p", str(p), "--sign", str(sign), "--grid", str(GRID)],
        "measure",
        GRID + 1,
        {"ref": f"{measure}|{p}|{sign}|{GRID}"},
    )


def _spectral_io(seed: int, tmpdir: Path) -> Workload:
    from rtflab import RATIONALS, EmpiricalSample, inverse_cdf_sample, write_sample_csv
    from rtflab.measures import local_spectral, plancherel
    import numpy as np

    rng = _rng("spectral_io", seed)
    invocations = []
    samples = {}
    for measure in ("mu_p", "lambda"):
        p = rng.choice(SPECTRAL_PRIMES)
        sign = rng.choice((1, -1))
        if measure == "mu_p":
            density = plancherel(p, sign)
        else:
            density = local_spectral(RATIONALS.place_for_prime(p), sign)
        np_rng = np.random.default_rng(rng.getrandbits(32))
        x = inverse_cdf_sample(density, SAMPLE_ROWS, seed=rng.getrandbits(32))
        weight = np_rng.uniform(0.5, 1.5, SAMPLE_ROWS)
        level_norm = np_rng.integers(1, 10_000, SAMPLE_ROWS)
        bad = np_rng.choice(SAMPLE_ROWS, BAD_ROWS, replace=False)
        x[bad[: BAD_ROWS // 2]] = density.hi + 1.0
        weight[bad[BAD_ROWS // 2:]] = -1.0
        sample = EmpiricalSample(level_norm, np.full(SAMPLE_ROWS, p), x, weight)
        path = tmpdir / f"sample_{measure}.csv"
        path.write_text(write_sample_csv(sample), encoding="utf-8")
        argv = ["compare", "--measure", measure, "--p", str(p), "--sign", str(sign),
                "--sample", str(path)]
        intervals = []
        if measure == "lambda":
            w = window(p)
            intervals = [(0.0, w / 4), (w / 4, w / 2), (w / 2, w)]
            argv.append("--intervals=" + ",".join(f"{a!r}:{b!r}" for a, b in intervals))
        keep = np.ones(SAMPLE_ROWS, dtype=bool)
        keep[bad] = False
        samples[measure] = {"density": density, "x": x[keep], "weight": weight[keep]}
        invocations.append(Invocation(
            argv, "compare", SAMPLE_ROWS,
            {"measure": measure, "tag": measure_tag(measure, p, sign), "rows": SAMPLE_ROWS - BAD_ROWS,
             "rejected": BAD_ROWS, "intervals": intervals},
        ))
        invocations.append(measure_invocation(measure, p, sign))
    return Workload("sample rows ingested plus grid rows written", invocations, samples)


def build(name: str, seed: int, tmpdir: Path, reference: dict) -> Workload:
    """The pass of workload ``name`` for ``seed``; sample files go into ``tmpdir``."""
    if name == "check_suite":
        return Workload("checks passed",
                        [Invocation(["check"], "check", len(reference["check"]["names"]))])
    if name == "level_scan":
        return Workload("choice assignments summed (4 orders each)", _level_scan(seed))
    if name == "census_scan":
        invocations = _census_scan(seed)
        for inv in invocations:
            inv.work = reference["characters"][inv.expect["ref"]]["rows"]
        return Workload("characters listed", invocations)
    if name == "spectral_io":
        return _spectral_io(seed, tmpdir)
    raise ValueError(f"unknown workload {name!r}")


def pool() -> list[Invocation]:
    """Every invocation whose output ``reference.json`` must hold."""
    out = [inv for family in _level_scan_families().values()
           for inv in (constants_invocation(e, eta) for e, eta in family)]
    out += [characters_invocation(d, None) for d in (CENSUS_BIG, *CENSUS_MEDIUM, *CENSUS_SMALL)]
    out += [measure_invocation(m, p, s) for m in ("mu_p", "lambda")
            for p in SPECTRAL_PRIMES for s in (1, -1)]
    return out
