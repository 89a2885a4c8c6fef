"""Write the reference outputs that `run.py` checks every run against.

    python3 perfbench/make_refs.py

Run from the root of a checkout whose outputs are known to be right.  Each
study workload is run once (its output does not depend on the seed); the
verify workload once per seed 0..VERIFY_SEEDS-1.  Other seeds are compared
with seed 0 in the cells that do not depend on the seed.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import WORKLOADS, child_env

VERIFY_SEEDS = 16


def main() -> int:
    for name, wl in WORKLOADS.items():
        for seed in range(VERIFY_SEEDS if wl.seeded else 1):
            with tempfile.TemporaryDirectory(dir=".") as tmp:
                subprocess.run(
                    [sys.executable, "-m", "sthdg.cli"] + wl.argv(seed, Path(tmp)),
                    env=child_env(), check=True, stdout=subprocess.DEVNULL)
                ref = wl.ref_path(name, seed)
                ref.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(Path(tmp) / wl.output, ref)
            print(f"wrote {ref}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
