"""Record reference.json: the output of every invocation a seed can produce.

Run from the repository root at a commit whose outputs are trusted:

    python3 bench/record.py

It runs ``rtflab check`` once and every invocation in ``workloads.pool()``
(a few minutes on two cores) and rewrites ``bench/reference.json``.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from child import child_env, rtflab_args, run_child
from verify import digest
from workloads import pool

HERE = Path(__file__).resolve().parent


def main() -> int:
    root = Path.cwd()
    env = child_env(root)
    ref: dict = {"check": {}, "constants": {}, "characters": {}, "measure": {}}
    with tempfile.TemporaryDirectory(dir=root, prefix=".bench_tmp_") as tmp:
        workdir = Path(tmp)

        def run(argv):
            res = run_child(rtflab_args(argv), env, workdir)
            if res.exit_code != 0:
                raise SystemExit(f"{' '.join(argv)} exited {res.exit_code}: {res.stderr.decode()}")
            return res.stdout

        doc = json.loads(run(["check"]))
        if not doc["passed"]:
            raise SystemExit("check does not pass; refusing to record")
        ref["check"]["names"] = [c["name"] for c in doc["checks"]]
        invocations = pool()
        for i, inv in enumerate(invocations, 1):
            print(f"[{i}/{len(invocations)}] {inv.label}", file=sys.stderr, flush=True)
            out = run(inv.argv)
            key = inv.expect["ref"]
            if inv.kind == "constants":
                doc = json.loads(out)
                ref["constants"][key] = {k: doc[k] for k in
                                         ("n", "Y", "C_eta_big", "C_term_samples", "upsilon_samples")}
            else:
                ref[inv.kind][key] = {"rows": out.count(b"\n") - 1, "sha256": digest(out)}
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
