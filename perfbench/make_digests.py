"""Record the stdout digest of every fixed-argv op at the current checkout.

    python3 perfbench/make_digests.py

Run from the root of the checkout whose outputs are the reference; writes
``perfbench/digests.json``.  The table is regenerated only when the
reference outputs change on purpose.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import digest_key, stdout_digest  # noqa: E402
from workloads import fixed_argvs  # noqa: E402


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"))
    table = {}
    for argv in fixed_argvs():
        proc = subprocess.run([sys.executable, "-m", "plattice.cli"] + argv, env=env,
                              capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            print("error: %s exited %d: %s" % (argv, proc.returncode, proc.stderr.strip()),
                  file=sys.stderr)
            return 1
        table[digest_key(argv)] = stdout_digest(proc.stdout)
    with open(os.path.join(HERE, "digests.json"), "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("%d digests written" % len(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
