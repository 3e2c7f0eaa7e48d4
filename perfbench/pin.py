"""Regenerate ``pins.json``: run one unit of every input variant of each
workload and record its output digests.

    python3 perfbench/pin.py [workload ...]

Only run this on a commit whose outputs are known good; the benchmark
then fails any later commit whose outputs differ.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent


def main(argv=None) -> int:
    sys.path.insert(0, str(CHECKOUT / "src"))
    from workloads import VARIANTS, WORKLOADS, Context

    names = (argv if argv is not None else sys.argv[1:]) or list(WORKLOADS)
    path = HERE / "pins.json"
    pins = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    out_dir = CHECKOUT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    for name in names:
        tmp = Path(tempfile.mkdtemp(prefix=f"pin-{name}-", dir=out_dir))
        try:
            # seed 0: unit i runs variant i
            ctx = Context(CHECKOUT, tmp, seed=0, seconds=0, trace=False, pins=None)
            workload = WORKLOADS[name](ctx)
            workload.setup()
            for index in range(VARIANTS):
                workload.unit(index)
                print(f"{name} variant {index}: {ctx.observed[str(index)]}", flush=True)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        pins[name] = ctx.observed
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
