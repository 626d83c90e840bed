"""Traced child process: times calls into each plattice layer from outside.

    python launcher.py OUT.json CLI-ARG...

Imports ``plattice.cli`` (the import is timed as ``cli.import``), wraps
the public callables of every layer module, rebinds the ``from .x import
f`` aliases other plattice modules hold, runs ``plattice.cli.main`` on the
arguments and writes the aggregated spans to OUT.json.

Wrapped callables are module functions, ``lru_cache`` wrappers, and the
public methods of the module's classes plus ``__init__``, ``__mul__`` and
``__str__``.  Each call is a span; a span's self time is its duration minus
the time its child spans cover.  Spans are aggregated in memory per
callable and written once, at exit.  A module or callable that does not
exist is reported as absent and never breaks the run.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import functools  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

LAYERS = ("exact", "lattice", "tree", "groupsys", "cusps", "classify", "diagram", "frames", "cli")
WRAPPED_DUNDERS = ("__init__", "__mul__", "__str__")


def _attr(obj, *names):
    for name in names:
        obj = getattr(obj, name, None)
    return obj


class Tracer:
    def __init__(self):
        self.stack: list[list[float]] = []
        # qualified name -> [calls, self seconds, outermost inclusive seconds, depth]
        self.records: dict[str, list] = {}
        self.root_s = 0.0
        self.quotients: list[tuple] = []
        self.hypercircle_members = 0
        self.series_terms = 0
        self.absent: list[str] = []
        self._wrapped: dict[int, tuple] = {}

    def _post_hooks(self):
        def quotient(args, kwargs, result):
            small = args[1] if len(args) > 1 else kwargs.get("small")
            self.quotients.append((_attr(small, "n"), _attr(result, "order")))

        def circle(args, kwargs, result):
            members = _attr(result, "members")
            self.hypercircle_members += len(members) if members is not None else 0

        def series(args, kwargs, result):
            coeffs = _attr(result, "coeffs")
            self.series_terms += len(coeffs) if coeffs is not None else 0

        return {
            "groupsys.finite_quotient": quotient,
            "tree.hypercircle": circle,
            "frames.eta_quotient_series": series,
        }

    def wrap(self, qualname: str, fn, post=None):
        rec = self.records.setdefault(qualname, [0, 0.0, 0.0, 0])
        stack = self.stack
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            rec[3] += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - start
                stack.pop()
                rec[3] -= 1
                rec[0] += 1
                rec[1] += dur - frame[0]
                if rec[3] == 0:
                    rec[2] += dur
                if stack:
                    stack[-1][0] += dur
                else:
                    tracer.root_s += dur
            if post is not None:
                post(args, kwargs, result)
            return result

        self._wrapped[id(fn)] = (fn, traced)
        return traced

    def install(self):
        hooks = self._post_hooks()
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module("plattice." + layer)
            except ImportError:
                self.absent.append(layer)
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or _attr(obj, "__module__") != module.__name__:
                    continue
                qual = "%s.%s" % (layer, name)
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    setattr(module, name, self.wrap(qual, obj, hooks.get(qual)))
        for qual in hooks:
            if qual not in self.records:
                self.absent.append(qual)
        # rebind `from .x import f` aliases held anywhere in the package
        for modname, module in list(sys.modules.items()):
            if modname != "plattice" and not modname.startswith("plattice."):
                continue
            for name, obj in list(vars(module).items()):
                entry = self._wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, name, entry[1])

    def _wrap_class(self, layer: str, cls):
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name not in WRAPPED_DUNDERS:
                continue
            qual = "%s.%s.%s" % (layer, cls.__name__, name)
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, name, type(raw)(self.wrap(qual, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, name, self.wrap(qual, raw))

    def cache_totals(self, layer: str) -> tuple[int, int]:
        hits = misses = 0
        try:
            module = importlib.import_module("plattice." + layer)
        except ImportError:
            return 0, 0
        for obj in vars(module).values():
            # a wrapped lru_cache keeps its cache_info one level down
            info = getattr(obj, "cache_info", None) or _attr(obj, "__wrapped__", "cache_info")
            if callable(info):
                stats = info()
                hits += stats.hits
                misses += stats.misses
        return hits, misses

    def report(self, import_s: float, wall_s: float, exit_code) -> dict:
        layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        layers["cli"]["self_s"] += import_s
        for qual, (calls, self_s, _, _) in self.records.items():
            layer = layers[qual.split(".", 1)[0]]
            layer["calls"] += calls
            layer["self_s"] += self_s
        hits, misses = self.cache_totals("groupsys")
        return {
            "exit_code": exit_code,
            "wall_s": wall_s,
            "import_s": import_s,
            "launcher_s": wall_s - import_s - self.root_s,
            "layers": layers,
            "callables": {q: {"calls": r[0], "self_s": r[1], "inclusive_s": r[2]}
                          for q, r in sorted(self.records.items())},
            "quotients": self.quotients,
            "hypercircle_members": self.hypercircle_members,
            "series_terms": self.series_terms,
            "groupsys_cache": {"hits": hits, "misses": misses},
            "absent": self.absent,
        }


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    start = time.perf_counter()
    cli = importlib.import_module("plattice.cli")
    import_s = time.perf_counter() - start
    tracer.install()
    code = None
    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        wall_s = time.perf_counter() - T0
        with open(out_path, "w") as fh:
            json.dump(tracer.report(import_s, wall_s, code), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
