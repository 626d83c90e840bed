"""Every fixed benchmark argv, run in-process, prints the stdout whose
SHA-256 the benchmark recorded in ``perfbench/digests.json``.

The argvs and their digest keys are read from ``perfbench/workloads.py``
through ``runpy``, so the benchmark's files are only read.
"""

import hashlib
import io
import json
import runpy
from contextlib import redirect_stdout
from pathlib import Path

from plattice import cli

BENCHMARK = Path(__file__).resolve().parent.parent / "perfbench"


def test_fixed_argvs_print_the_recorded_digests():
    workloads = runpy.run_path(str(BENCHMARK / "workloads.py"))
    digests = json.loads((BENCHMARK / "digests.json").read_text())
    argvs = workloads["fixed_argvs"]()
    seen = {}
    for argv in argvs:
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(argv)
        assert code == 0, argv
        key = " ".join(workloads["canonical_fixed"](argv))
        seen[key] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert seen == digests
