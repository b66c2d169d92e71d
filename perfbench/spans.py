"""Spans around the library's public functions, recorded from the benchmark.

``Tracer.install`` rebinds every public function of the six modules, in
every ``padic_kas`` module that holds it, to a wrapper; ``src/`` is not
edited.  Calls between layers (``superpose2 -> interleave``,
``run_verify -> build_g``) therefore get spans too.  The core value types
are the core layer's public surface, so their constructors and methods are
wrapped as well: their allocations are what the codec spends its time on.

Spans are aggregated per (function, caller) into count, total seconds and
self seconds (total minus the time of child spans), kept in memory and
written out when the run ends.
"""

import inspect
import sys
from time import perf_counter

MODULES = ("core", "cantor", "interleave", "superposition", "verify", "cli")

# Public classes whose constructors and methods get spans, by module.
CORE_TYPES = ("TruncatedPadicInt", "PadicPoint", "PadicScalar")
CYLINDER_CONSTRUCTORS = ("from_table", "from_builtin")

# Functions whose result's table size is added up as ``<name>.entries``.
COUNTED_TABLES = ("superposition.build_g", "superposition.build_h")


def _public_functions(mod):
    """(name, function) for each public function a module defines or exports."""
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [
            n for n, v in vars(mod).items()
            if not n.startswith("_") and getattr(v, "__module__", None) == mod.__name__
        ]
    for name in names:
        obj = getattr(mod, name)
        if callable(obj) and not inspect.isclass(obj):
            yield name, obj


class Tracer:
    def __init__(self):
        self.stack = [["benchmark", 0.0]]
        self.spans = {}
        self.entries = dict.fromkeys(COUNTED_TABLES, 0)
        self._undo = []

    def wrap(self, fn, name):
        stack, spans, clock = self.stack, self.spans, perf_counter
        entries = self.entries if name in COUNTED_TABLES else None

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                caller = stack[-1]
                caller[1] += elapsed
                rec = spans.get((name, caller[0]))
                if rec is None:
                    spans[(name, caller[0])] = [1, elapsed, elapsed - frame[1]]
                else:
                    rec[0] += 1
                    rec[1] += elapsed
                    rec[2] += elapsed - frame[1]
            if entries is not None:
                entries[name] += len(result.table)
            return result

        return wrapper

    def install(self, lib):
        """Wrap the public functions of every layer in ``lib``."""
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "padic_kas"]
        for layer in MODULES:
            mod = getattr(lib, layer)
            for attr, obj in _public_functions(mod):
                wrapped = self.wrap(obj, f"{layer}.{attr}")
                for m in modules:
                    for alias, value in list(vars(m).items()):
                        if value is obj:
                            self._set(m, alias, wrapped)
        for cls_name in CORE_TYPES:
            cls = getattr(lib.core, cls_name)
            for attr, raw in list(vars(cls).items()):
                name = f"core.{cls_name}.{attr}"
                if attr.startswith("_") and attr != "__new__":
                    continue
                if attr == "__new__":
                    self._set(cls, attr, staticmethod(self.wrap(raw.__func__, name)))
                elif isinstance(raw, classmethod):
                    self._set(cls, attr, classmethod(self.wrap(raw.__func__, name)))
                elif inspect.isfunction(raw):
                    self._set(cls, attr, self.wrap(raw, name))
        cls = lib.superposition.CylinderFunction
        for attr in CYLINDER_CONSTRUCTORS:
            raw = vars(cls)[attr]
            self._set(cls, attr, classmethod(self.wrap(raw.__func__, f"superposition.{attr}")))

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def reset(self):
        """Drop the spans and counts recorded so far."""
        self.spans.clear()
        for name in self.entries:
            self.entries[name] = 0

    def records(self):
        """The aggregated spans, one dict per (function, caller)."""
        return [
            {"function": name, "caller": caller, "count": c, "total_s": t, "self_s": s}
            for (name, caller), (c, t, s) in sorted(self.spans.items())
        ]

    def layer_metrics(self):
        """The per-layer metrics that the spans give, as name -> (value, unit)."""
        per_function = {}
        per_layer = {}
        for (name, _), (count, _, self_s) in self.spans.items():
            for key, table in ((name, per_function), (name.split(".")[0], per_layer)):
                acc = table.setdefault(key, [0, 0.0])
                acc[0] += count
                acc[1] += self_s

        out = {}
        for layer in ("core", "cantor", "interleave"):
            calls, self_s = per_layer.get(layer, (0, 0.0))
            out[f"{layer}.calls"] = (calls, "count")
            out[f"{layer}.self_s"] = (self_s, "s")
            if layer != "core":
                out[f"{layer}.ns_per_call"] = (self_s / calls * 1e9 if calls else 0.0, "ns")
        for name, fields in (
            ("superposition.build_g", ("entries", "self_s")),
            ("superposition.build_h", ("entries", "self_s")),
            ("superposition.eval_g", ("calls", "self_s", "us_per_call")),
            ("superposition.superpose1", ("calls", "self_s")),
            ("superposition.superpose2", ("calls", "self_s")),
            ("superposition.from_table", ("self_s",)),
            ("verify.run_verify", ("calls", "self_s")),
            ("verify.load_table_json", ("self_s",)),
        ):
            calls, self_s = per_function.get(name, (0, 0.0))
            values = {
                "entries": (self.entries.get(name), "count"),
                "calls": (calls, "count"),
                "self_s": (self_s, "s"),
                "us_per_call": (self_s / calls * 1e6 if calls else 0.0, "us"),
            }
            for field in fields:
                out[f"{name}.{field}"] = values[field]
        return out


class GcWatch:
    """Counts cyclic-GC collections and their pauses through ``gc.callbacks``."""

    def __init__(self):
        self.collections = 0
        self.pause_s = 0.0
        self._t0 = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._t0 = perf_counter()
        else:
            self.collections += 1
            self.pause_s += perf_counter() - self._t0
