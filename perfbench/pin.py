#!/usr/bin/env python3
"""Write pins.json: the sha256 of every op's stdout at the default seed.

    python3 perfbench/pin.py

Run it on the unmodified program.  It runs one pass of every section at
both sizes, "full" and "probe", and records each op's output digest;
run.py then requires those digests at the default seed.
"""

import json
import shutil

import run


def main():
    hd = run.setup()
    pins = {}
    for workload, home in run.WORKLOADS.items():
        workdir = run.ROOT / ".perfbench" / f"pin-{workload}"
        shutil.rmtree(workdir, ignore_errors=True)
        runner = run.Runner(hd, workdir, run.DEFAULT_SEED, home)
        for sec in runner.sizes:
            runner.one_pass(sec)
        failed = [op for op in runner.ops if op.error is not None]
        if failed:
            raise SystemExit(f"cannot pin a failing op: {failed[0].name}: {failed[0].error}")
        pins.update((op.name, op.sha) for op in runner.ops)
    out = {"seed": run.DEFAULT_SEED, "ops": dict(sorted(pins.items()))}
    (run.BENCH / "pins.json").write_text(json.dumps(out, indent=0) + "\n", encoding="utf-8")
    print(f"pinned {len(pins)} ops")


if __name__ == "__main__":
    main()
