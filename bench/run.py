"""rtflab benchmark: run a workload's CLI invocations and report its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  NAME is one of check_suite, level_scan,
census_scan, spectral_io, or ``all`` (every workload in turn).  One client
drives the CLI in a closed loop: each ``python3 -m rtflab.cli`` child starts
only after the previous one exited.  The run repeats the workload's pass
while at least half of another pass fits in S seconds (always at least one).
It times ``rtflab --version`` (CLI cold start) SETUP_PER_ROUND times before
the first pass and again after every pass, so the cold-start samples span
the whole run.  With ``--trace 1`` each untraced pass is followed by the
same pass run through ``trace_boot.py``, and the per-layer metrics replace
the end-to-end ones.

stdout: one line per metric, one ``{"record": ...}`` line with provenance and
every pass (with load average and hypervisor steal time), and last the result object ``{"correct", "attempted", "failed",
"metrics"}``.  Exit code 0 when every output was right, 1 when one was wrong,
2 when the directory holds no rtflab sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from child import BLAS_THREAD_VARS, child_env, rtflab_args, run_child
from workloads import WORKLOADS, build

HERE = Path(__file__).resolve().parent
SETUP_PER_ROUND = 4

END_TO_END = {"setup_s": "s", "wall_s": "s", "cmd_p50_s": "s", "work_per_s": "1/s",
              "peak_rss_mb": "MB"}


def provenance(root: Path, env: dict) -> dict:
    import mpmath
    import numpy

    sha = "unknown (not a git checkout)"
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, check=False)
        sha = done.stdout.strip() or sha
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "blas_threads": {k: env.get(k) for k in BLAS_THREAD_VARS},
    }


def cpu_steal_s() -> float | None:
    """Seconds of CPU the hypervisor has taken from this machine since boot."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    except OSError:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else None


class Runner:
    """Runs passes of one workload, checking every output and keeping every timing."""

    def __init__(self, workload, verifier, env: dict, workdir: Path):
        self.workload = workload
        self.verifier = verifier
        self.env = env
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[str] = []

    def _judge(self, label: str, result, check) -> None:
        self.attempted += 1
        reason = f"exit code {result.exit_code}: {result.stderr.decode()[-300:]}" \
            if result.exit_code != 0 else None
        if reason is None:
            try:
                reason = check(result.stdout)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                reason = f"unparsable output ({exc!r})"
        if reason is not None:
            self.failures.append(f"{label}: {reason}")

    def setup(self) -> list[float]:
        from verify import check_version

        walls = []
        for _ in range(SETUP_PER_ROUND):
            res = run_child(rtflab_args(["--version"]), self.env, self.workdir)
            self._judge("--version", res, check_version)
            walls.append(res.wall_s)
        return walls

    def run_pass(self, traced: bool) -> dict:
        load_before, steal_before = os.getloadavg(), cpu_steal_s()
        rows, spans = [], []
        for i, inv in enumerate(self.workload.invocations):
            if traced:
                path = self.workdir / f"spans_{i}.npz"
                args = [str(HERE / "trace_boot.py"), str(path), str(i), "--", *inv.argv]
            else:
                args = rtflab_args(inv.argv)
            res = run_child(args, self.env, self.workdir)
            self._judge(inv.label, res, lambda out, inv=inv: self.verifier(inv, out))
            rows.append({"argv": inv.argv, "wall_s": res.wall_s, "maxrss_mb": res.maxrss_mb,
                         "exit_code": res.exit_code})
            if traced:
                spans.append((path, res.wall_s, len(res.stdout)))
        steal_after = cpu_steal_s()
        record = {"traced": traced, "wall_s": sum(r["wall_s"] for r in rows),
                  "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
                  "cpu_steal_s": None if steal_before is None or steal_after is None
                  else steal_after - steal_before,
                  "invocations": rows}
        if traced:
            from layers import reduce_pass

            record["layers"] = reduce_pass(spans) if all(p.exists() for p, _, _ in spans) else None
            for path, _, _ in spans:
                path.unlink(missing_ok=True)
        return record


def end_to_end(workload, setup: list[float], passes: list[dict]) -> dict:
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cmd_p50_s": statistics.median(
            statistics.median(r["wall_s"] for r in p["invocations"]) for p in passes),
        "work_per_s": sum(i.work for i in workload.invocations) * len(passes)
        / sum(p["wall_s"] for p in passes),
        "peak_rss_mb": max(r["maxrss_mb"] for p in passes for r in p["invocations"]),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    from layers import COUNT_METRICS, PER_LAYER

    layers = [p["layers"] for p in traced]
    first, defects = dict(layers[0]), []
    for key, unit in PER_LAYER.items():
        if unit == "s" or key == "trace.coverage":
            first[key] = statistics.median(layer[key] for layer in layers)
        elif key in COUNT_METRICS and len({layer[key] for layer in layers}) > 1:
            defects.append(f"{key} differs between traced passes: {[l[key] for l in layers]}")
    first["trace.overhead_ratio"] = (statistics.median(p["wall_s"] for p in traced)
                                     / statistics.median(p["wall_s"] for p in untraced) - 1.0)
    return first, defects


def run_workload(name: str, seed: int, seconds: int, trace: bool, root: Path,
                 workdir: Path, reference: dict) -> dict:
    from verify import Verifier

    env = child_env(root)
    workload = build(name, seed, workdir, reference)
    runner = Runner(workload, Verifier(reference, workload.samples), env, workdir)
    untraced, traced = [], []
    start = time.perf_counter()
    setup = runner.setup()
    while True:
        untraced.append(runner.run_pass(traced=False))
        if trace:
            traced.append(runner.run_pass(traced=True))
        setup += runner.setup()
        elapsed = time.perf_counter() - start
        # Start another round while at most half of it would run past the budget.
        if elapsed + 0.5 * elapsed / len(untraced) > seconds:
            break
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "work_unit": workload.work_unit, "provenance": provenance(root, env),
              "setup_s": setup, "passes": untraced + traced}
    e2e = end_to_end(workload, setup, untraced)
    failed_ratio = len(runner.failures) / runner.attempted
    record.update(end_to_end=e2e, failed_ratio=failed_ratio, failures=runner.failures)
    if trace:
        if any(p["layers"] is None for p in traced):
            runner.failures.append("a traced child wrote no span file")
            metrics = {}
        else:
            metrics, defects = per_layer(untraced, traced)
            record["count_defects"] = defects
            from layers import PER_LAYER

            metrics = {k: (metrics[k], u) for k, u in PER_LAYER.items()}
    else:
        metrics = {k: (v, END_TO_END[k]) for k, v in e2e.items()}
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    return {"record": record, "metrics": metrics, "attempted": runner.attempted,
            "failed": len(runner.failures), "failed_ratio": failed_ratio}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C: the running child is killed and reaped, and
    # the temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "rtflab" / "cli.py").is_file():
        print(f"no rtflab sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    with tempfile.TemporaryDirectory(dir=root, prefix=".bench_tmp_") as tmp:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         root, Path(tmp), reference)

    metrics = {}
    for name, res in results.items():
        prefix = "" if len(results) == 1 else f"{name}."
        for key, (value, unit) in res["metrics"].items():
            metrics[prefix + key] = {"value": value, "unit": unit}
            print(f"{name:12s} {key:36s} {value:14.6g} {unit}")
        print(f"{name:12s} {'failed_ratio':36s} {res['failed_ratio']:14.6g} ratio")
        for failure in res["record"]["failures"]:
            print(f"{name:12s} FAILED {failure}")
        for defect in res["record"].get("count_defects", []):
            print(f"{name:12s} COUNT DEFECT {defect}")
        print(json.dumps({"record": res["record"]}))
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
