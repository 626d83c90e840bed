"""Cold-process benchmark of the plattice command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each op is one cold
``python -m plattice.cli ...`` process of the checkout's ``src`` (the
package is not installed), driven as a closed loop with one client: the
next op starts when the previous one has ended and its output has been
checked.  An op fails on a nonzero exit, a timeout or a wrong output.

With ``--trace 0`` the run prints the end-to-end metrics.  With
``--trace 1`` every op runs twice, plainly and under ``launcher.py``, which
times the calls into each layer; the run prints the per-layer metrics and
the tracing overhead.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import Oracles  # noqa: E402
from workloads import WORKLOADS, Op, blocks_per_run, ops_for  # noqa: E402

SETUP_ARGV = ["index", "1"]
# set-up samples: a few before the loop, then one every SETUP_EVERY_S of the
# run, so that the median covers the whole run and not one moment of it
SETUP_FIRST = 3
SETUP_EVERY_S = 2.5
FLOOR_REPEATS = 5
OP_TIMEOUT_S = 150.0
# A plain run stops at a block boundary after this many times --seconds, or
# at RUN_LIMIT_S, even if it has not measured all its blocks.
SAFETY_FACTOR = 3
RUN_LIMIT_S = 120.0
TAIL_BEYOND = 10
LAYERS = ("exact", "lattice", "tree", "groupsys", "cusps", "classify", "diagram", "frames", "cli")
TRACE_ADDS_UP_S = 1e-6
# per-layer figure -> (wrapped callable, field of its aggregated spans)
NAMED_CALLABLES = {
    "exact.mul_calls": ("exact.ProjectiveMatrix.__mul__", "calls"),
    "exact.construct_calls": ("exact.ProjectiveMatrix.__init__", "calls"),
    "lattice.reduce_calls": ("lattice.reduce_matrix", "calls"),
    "lattice.act_calls": ("lattice.act", "calls"),
    "lattice.name_constructions": ("lattice.LatticeName.__init__", "calls"),
    "groupsys.member_calls": ("groupsys.member", "calls"),
    "groupsys.quotient_s": ("groupsys.finite_quotient", "inclusive_s"),
    "classify.subgroups_screened": ("classify.check_conditions", "calls"),
    "classify.named": ("classify.name_subgroup", "calls"),
    "classify.naming_s": ("classify.name_subgroup", "inclusive_s"),
    "diagram.vertex_s": ("diagram.vertex_data", "inclusive_s"),
    "frames.series_s": ("frames.eta_quotient_series", "inclusive_s"),
    "frames.invariance_s": ("frames.numeric_invariance_check", "inclusive_s"),
}


class SetupError(RuntimeError):
    """The trivial set-up op did not run; nothing can be measured."""


# measuring one process -----------------------------------------------------------


class Outcome:
    __slots__ = ("wall_s", "exit_code", "maxrss_kb", "stdout", "stderr", "killed")

    def __init__(self, wall_s, exit_code, maxrss_kb, stdout, stderr, killed):
        self.wall_s = wall_s
        self.exit_code = exit_code
        self.maxrss_kb = maxrss_kb
        self.stdout = stdout
        self.stderr = stderr
        self.killed = killed  # None, "timeout" or "deadline"


class Spawner:
    """Client of ``spawner.py``, which starts and reaps every op."""

    def __init__(self, env: dict, scratch: str):
        self.scratch = scratch
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "spawner.py"), scratch],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)

    def run(self, argv, timeout_s: float, deadline: float | None = None) -> Outcome:
        """Run one op to its end; kill it at ``timeout_s`` or at ``deadline``."""
        limit, reason = timeout_s, "timeout"
        if deadline is not None and deadline - time.perf_counter() < timeout_s:
            limit, reason = max(deadline - time.perf_counter(), 0.0), "deadline"
        self.proc.stdin.write(json.dumps({"argv": list(argv), "limit": limit}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process ended early")
        reply = json.loads(line)
        with open(os.path.join(self.scratch, "stdout"), "rb") as fh:
            stdout = fh.read().decode("utf-8", "replace")
        with open(os.path.join(self.scratch, "stderr"), "rb") as fh:
            stderr = fh.read().decode("utf-8", "replace")
        return Outcome(reply["wall_s"], reply["exit_code"], reply["maxrss_kb"], stdout, stderr,
                       reason if reply["killed"] else None)

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=OP_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# statistics ----------------------------------------------------------------------


def tail_rank(n: int, beyond: int = TAIL_BEYOND) -> int | None:
    """Index, in ascending order, of the highest sample with ``beyond`` above it."""
    return n - beyond - 1 if n > beyond else None


def tail_latency(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, and its label.

    With ten samples or fewer no percentile qualifies; the maximum is
    reported instead and the label says so.
    """
    ordered = sorted(values)
    k = tail_rank(len(ordered))
    if k is None:
        return ordered[-1], "max of %d ops (too few for a tail)" % len(ordered)
    return ordered[k], "p%.1f of %d ops" % (100.0 * (k + 1) / len(ordered), len(ordered))


# environment ---------------------------------------------------------------------


def environment(root: str, spawner: Spawner) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    floor = [spawner.run([sys.executable, "-c", "pass"], 30).wall_s for _ in range(FLOOR_REPEATS)]
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "interpreter_floor_s": statistics.median(floor),
    }


# the run -------------------------------------------------------------------------


class Run:
    def __init__(self, root: str, workload: str, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scratch = os.path.join(root, ".perfbench_tmp", str(os.getpid()))
        os.makedirs(self.scratch, exist_ok=True)
        src = os.path.join(root, "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        with open(os.path.join(HERE, "digests.json")) as fh:
            self.oracles = Oracles(json.load(fh))
        self.completed: list[tuple[Op, Outcome]] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.busy_s = 0.0
        self.peak_rss_kb = 0
        self.traces: list[tuple[Outcome, Outcome, dict]] = []
        self.spawner = Spawner(self.env, self.scratch)
        self.setup_samples: list[float] = []
        self.last_setup = 0.0
        self.dropped = 0
        self.blocks = None

    def cli_argv(self, op_argv):
        return [sys.executable, "-m", "plattice.cli"] + list(op_argv)

    def launcher_argv(self, op_argv):
        out = os.path.join(self.scratch, "trace.json")
        return [sys.executable, os.path.join(HERE, "launcher.py"), out] + list(op_argv), out

    def setup(self):
        # the first cold op writes the bytecode caches; it is not timed
        self.spawner.run(self.cli_argv(SETUP_ARGV), OP_TIMEOUT_S)
        for _ in range(SETUP_FIRST):
            self.sample_setup()

    def sample_setup(self):
        res = self.spawner.run(self.cli_argv(SETUP_ARGV), OP_TIMEOUT_S)
        if res.exit_code != 0 or res.stdout != "1\n":
            raise SetupError("set-up op `index 1` failed: %s" % res.stderr.strip()[-200:])
        self.setup_samples.append(res.wall_s)
        self.last_setup = time.perf_counter()

    def judge(self, op: Op, res: Outcome) -> str | None:
        if res.killed == "timeout":
            return "timeout after %.0f s" % res.wall_s
        if res.exit_code != 0:
            return "exit %d: %s" % (res.exit_code, res.stderr.strip()[-160:])
        return self.oracles.check(op, res.stdout)

    def record(self, op: Op, res: Outcome, reason: str | None):
        self.attempted += 1
        self.busy_s += res.wall_s
        self.peak_rss_kb = max(self.peak_rss_kb, res.maxrss_kb)
        if reason is None:
            self.completed.append((op, res))
        else:
            self.failures.append("%s: %s" % (" ".join(op.argv), reason))

    def loop(self):
        """Run the ops and count whole units only.

        A plain run measures a fixed number of whole blocks, sized from
        --seconds, so that every run counts the same mix of cheap and costly
        ops; a traced run counts single ops until --seconds have passed.
        The unit in progress at the deadline is stopped and dropped; the
        first unit always runs to its end, so every run counts one.
        """
        if self.trace:
            deadline, blocks = time.perf_counter() + self.seconds, None
        else:
            limit_s = min(SAFETY_FACTOR * self.seconds, RUN_LIMIT_S)
            deadline = time.perf_counter() + limit_s
            blocks = blocks_per_run(self.workload, self.seconds)
        pending: list[tuple] = []
        for index, op in enumerate(ops_for(self.workload, self.seed)):
            unit = index if self.trace else op.block
            if pending and pending[-1][0] != unit:
                self.commit(pending)
                pending = []
            if blocks is not None and op.block >= blocks:
                break
            now = time.perf_counter()
            if now >= deadline and self.attempted:
                break
            if not self.trace and now - self.last_setup >= SETUP_EVERY_S:
                self.sample_setup()
            limit = deadline if self.attempted else None
            plain = self.spawner.run(self.cli_argv(op.argv), OP_TIMEOUT_S, limit)
            if plain.killed == "deadline":
                break
            if not self.trace:
                pending.append((unit, op, plain, self.judge(op, plain), None))
                continue
            argv, trace_path = self.launcher_argv(op.argv)
            if os.path.exists(trace_path):
                os.remove(trace_path)
            traced = self.spawner.run(argv, OP_TIMEOUT_S, limit)
            if traced.killed == "deadline":
                break
            reason = self.judge(op, plain)
            if reason is None and traced.stdout != plain.stdout:
                reason = "stdout differs under the tracer"
            spans = None
            if reason is None:
                try:
                    with open(trace_path) as fh:
                        spans = json.load(fh)
                except (OSError, ValueError) as exc:
                    reason = "no trace written (%s)" % exc
            if spans is not None:
                total = sum(layer["self_s"] for layer in spans["layers"].values())
                if abs(total + spans["launcher_s"] - spans["wall_s"]) > TRACE_ADDS_UP_S:
                    reason = "layer self times do not add up to the traced wall time"
            pending.append((unit, op, plain, reason, (plain, traced, spans) if reason is None else None))
        self.dropped = len(pending) if time.perf_counter() >= deadline else 0
        if not self.dropped:
            self.commit(pending)
        self.blocks = blocks

    def commit(self, pending):
        for _, op, res, reason, trace in pending:
            self.record(op, res, reason)
            if trace is not None:
                self.traces.append(trace)

    def close(self):
        self.spawner.close()
        shutil.rmtree(self.scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.scratch))
        except OSError:
            pass


def end_to_end(run: Run) -> tuple[dict, list[str]]:
    lat = [res.wall_s for _, res in run.completed]
    setup = run.setup_samples
    metrics = {"setup_s": (statistics.median(setup), "s")}
    notes = ["setup_s: median of %d cold `plattice index 1` spread over the run" % len(setup)]
    metrics["ops_per_s"] = (len(lat) / run.busy_s, "1/s")
    notes.append("ops_per_s: %d correct ops in %.3f s of op wall time" % (len(lat), run.busy_s))
    if lat:
        metrics["latency_p50_s"] = (statistics.median(lat), "s")
        tail, label = tail_latency(lat)
        metrics["latency_tail_s"] = (tail, "s")
        notes.append("latency_tail_s: %s" % label)
    metrics["peak_rss_mb"] = (run.peak_rss_kb / 1024.0, "MB")
    metrics["failed_ratio"] = (len(run.failures) / run.attempted, "ratio")
    notes.append("failed_ratio: %d of %d attempted" % (len(run.failures), run.attempted))
    notes.append("%s blocks measured; %d ops of a block cut by the safety limit not counted"
                 % (run.blocks, run.dropped))
    regimes: dict[str, list[float]] = {}
    for op, res in run.completed:
        if "regime" in op.params:
            regimes.setdefault(op.params["regime"], []).append(res.wall_s)
    for name, values in sorted(regimes.items()):
        notes.append("%s regime: median %.3f s over %d ops" % (name, statistics.median(values), len(values)))
    return metrics, notes


def per_layer(run: Run) -> tuple[dict, list[str]]:
    n = len(run.traces)
    metrics: dict[str, tuple[float, str]] = {}
    if not n:
        return metrics, ["no traced op completed"]
    sums: dict[str, float] = {}

    def add(key, value):
        sums[key] = sums.get(key, 0.0) + value

    quotients = []
    absent: set[str] = set()
    hits = misses = 0
    for plain, traced, spans in run.traces:
        for layer in LAYERS:
            data = spans["layers"].get(layer, {"self_s": 0.0, "calls": 0})
            add(layer + ".self_s", data["self_s"])
            add(layer + ".calls", data["calls"])
        for key, (qual, field) in NAMED_CALLABLES.items():
            entry = spans["callables"].get(qual)
            if entry is None:
                absent.add(qual)
            add(key, entry[field] if entry else 0)
        add("tree.hypercircle_members", spans["hypercircle_members"])
        add("groupsys.quotient_builds", len(spans["quotients"]))
        add("groupsys.quotient_elements", sum(order or 0 for _, order in spans["quotients"]))
        add("frames.series_terms", spans["series_terms"])
        add("cli.import_s", spans["import_s"])
        add("cli.stdout_bytes", len(plain.stdout.encode()))
        add("trace.launcher_s", spans["launcher_s"])
        add("plain_wall_s", plain.wall_s)
        add("traced_wall_s", traced.wall_s)
        quotients.extend(spans["quotients"])
        absent.update(spans["absent"])
        hits += spans["groupsys_cache"]["hits"]
        misses += spans["groupsys_cache"]["misses"]
    for layer in LAYERS:
        metrics[layer + ".self_s"] = (sums[layer + ".self_s"] / n, "s/op")
        metrics[layer + ".calls"] = (sums[layer + ".calls"] / n, "count/op")
    for key in ("exact.mul_calls", "exact.construct_calls", "lattice.reduce_calls",
                "lattice.act_calls", "lattice.name_constructions", "tree.hypercircle_members",
                "groupsys.member_calls", "groupsys.quotient_builds",
                "groupsys.quotient_elements", "classify.subgroups_screened",
                "frames.series_terms"):
        metrics[key] = (sums[key] / n, "count/op")
    for key in ("groupsys.quotient_s", "classify.naming_s", "diagram.vertex_s",
                "frames.series_s", "frames.invariance_s", "cli.import_s"):
        metrics[key] = (sums[key] / n, "s/op")
    metrics["cli.stdout_bytes"] = (sums["cli.stdout_bytes"] / n, "B/op")
    metrics["groupsys.cache_hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    screened = sums["classify.subgroups_screened"]
    metrics["classify.hit_ratio"] = (sums["classify.named"] / screened if screened else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (sums["traced_wall_s"] / sums["plain_wall_s"], "ratio")
    seen = sorted({(level, order or 0) for level, order in quotients if level is not None})
    notes = [
        "per-layer figures are means over %d traced ops" % n,
        "launcher's own time: %.4f s/op" % (sums["trace.launcher_s"] / n),
        "finite_quotient (level:order): %s" % (", ".join("%s:%s" % q for q in seen) or "none"),
        "absent from the program: %s" % (", ".join(sorted(absent)) or "nothing"),
    ]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "plattice", "cli.py")):
        print("error: run from a plattice checkout (no src/plattice/cli.py in %s)" % root,
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    run = Run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        env = environment(root, run.spawner)
        env.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
        run.setup()
        run.loop()
    except SetupError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        run.close()
    metrics, notes = per_layer(run) if args.trace else end_to_end(run)

    print("env: %s" % json.dumps(env, sort_keys=True))
    for line in notes:
        print("note: " + line)
    for reason in run.failures[:10]:
        print("failed: " + reason)
    for name, (value, unit) in metrics.items():
        print("%-32s %14.6f %s" % (name, value, unit))
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print("error: no value for %s" % ", ".join(missing), file=sys.stderr)
        return 1
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
