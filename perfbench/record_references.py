"""Record the output digests that the benchmark's correctness gate compares with.

    python3 perfbench/record_references.py

Run this only on a commit whose outputs are known to be right (the file in
the repository was recorded on 15c0863, the commit the benchmark was built
on); recording on a changed program would make its changes pass the gate.
Writes perfbench/references.json.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from run import HERE, ROOT, git_sha
import worker as worker_mod
import workloads


def main() -> int:
    worker_mod._import_program(ROOT)
    refs = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        w = worker_mod.Worker(tmp)
        for size in workloads.SIZES:
            for name in ("scan-odd", "mersenne"):
                for op in workloads.fixed_ops(name, size):
                    reply = w.run_op(op)
                    if reply.get("rc", 0) != 0:
                        raise SystemExit(f"{op} exited with {reply['rc']}")
                    with open(reply["out"], encoding="utf-8") as fh:
                        refs[workloads.op_key(op)] = workloads.digest(op, fh.read())
                    print(workloads.op_key(op), file=sys.stderr)
    path = os.path.join(HERE, "references.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"recorded_on": git_sha(), "python": sys.version.split()[0], "ops": refs}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
