"""Traced child: run one ``rtflab`` CLI invocation with span recorders.

    python3 bench/trace_boot.py SPANS_PATH INVOCATION_ID -- CLI_ARGS...

After ``import rtflab.cli`` (itself recorded as the span ``cli.import``) every
public function, every public method, and ``__init__``/``__call__``/
``__post_init__`` of the classes defined in each ``rtflab`` module is
replaced by a recorder, on the module and in every ``rtflab`` namespace that
imported the name.  A call records a span (name, start, end, parent span)
when it crosses from one module into another, or when its name is in
``ALWAYS_SPAN``; a call inside its own module only bumps a counter, which
leaves every module's self time unchanged.  Spans and counters stay in
memory and are written to SPANS_PATH (``.npz``) when the CLI returns.
Nothing under ``src/`` changes; this file is the only instrumentation.
"""

from __future__ import annotations

import sys
import time
import types

perf = time.perf_counter

# Names whose spans give inclusive times, hooked results or distinct-argument counts.
INCLUSIVE = {
    "characters.bruteforce_s": ("characters.brute_force_character_table",),
    "characters.gauss_s": ("characters.gauss_sums_for_modulus", "characters.gauss_sum"),
    "rtf_constants.eta_context_s": ("rtf_constants.eta_context",),
    "rtf_constants.edge_constant_s": ("rtf_constants.spectral_edge_constant",),
    "empirical.ingest_s": ("empirical.read_sample_csv",),
    "empirical.cdf_s": ("empirical.CdfInterpolator.__init__",),
    "empirical.ks_s": ("empirical.ks_distance",),
}
DISTINCT = ("lfunctions.laurent_at_1", "rtf_constants.edge_product_taylor",
            "empirical.CdfInterpolator.__init__")


def _add(counters: dict, key: str, value) -> None:
    counters[key] = counters.get(key, 0) + int(value)


RESULT_HOOKS = {
    "characters.brute_force_character_table":
        lambda c, r: _add(c, "characters.bruteforce_tables", len(r)),
    "rtf_constants.enumerate_rho": lambda c, r: _add(c, "rtf_constants.assignments", len(r)),
    "quadrature.integrate": lambda c, r: _add(c, "quadrature.panels", r.subdivisions),
    "empirical.read_sample_csv": lambda c, r: (_add(c, "empirical.rows_ingested", len(r[0])),
                                               _add(c, "empirical.rows_rejected", r[1])),
    "checks.run_all_checks": lambda c, r: (_add(c, "checks.results", len(r)),
                                           _add(c, "checks.failed", sum(not x.passed for x in r))),
}
ALWAYS_SPAN = {n for names in INCLUSIVE.values() for n in names} | set(DISTINCT) | set(RESULT_HOOKS)
SPECIAL_METHODS = ("__init__", "__call__", "__post_init__")


def _key(args: tuple, kwargs: dict):
    key = (args, tuple(sorted(kwargs.items())))
    try:
        hash(key)
    except TypeError:
        return repr(key)
    return key


class Tracer:
    def __init__(self, error_base: type, invocation: int):
        from array import array

        self.error_base = error_base
        self.invocation = invocation
        self.names: list[str] = []
        self.modules: list[str] = []
        self.calls: list[int] = []
        self.distinct: dict[str, set] = {name: set() for name in DISTINCT}
        self.counters: dict[str, int] = {}
        self.errors: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.stack_mod: list[str | None] = [None]
        self.caches: dict[str, object] = {}

    def _name_id(self, qual: str, module: str) -> int:
        self.names.append(qual)
        self.modules.append(module)
        self.calls.append(0)
        return len(self.names) - 1

    def add_span(self, qual: str, module: str, start: float, end: float) -> None:
        self.span_name.append(self._name_id(qual, module))
        self.span_parent.append(self.stack[-1])
        self.span_start.append(start)
        self.span_end.append(end)

    def note_error(self, exc: BaseException) -> None:
        if isinstance(exc, self.error_base) and not getattr(exc, "_bench_counted", False):
            exc._bench_counted = True
            name = type(exc).__name__
            self.errors[name] = self.errors.get(name, 0) + 1

    def wrap(self, fn, qual: str, module: str, skip: int):
        import functools

        nid = self._name_id(qual, module)
        always = qual in ALWAYS_SPAN
        hook = RESULT_HOOKS.get(qual)
        distinct = self.distinct.get(qual)
        calls, stack, stack_mod = self.calls, self.stack, self.stack_mod
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        counters, note_error, error_base = self.counters, self.note_error, self.error_base

        @functools.wraps(fn)
        def recorder(*args, **kwargs):
            calls[nid] += 1
            if not always and stack_mod[-1] is module:
                try:
                    return fn(*args, **kwargs)
                except error_base as exc:
                    note_error(exc)
                    raise
            if distinct is not None:
                distinct.add(_key(args[skip:], kwargs))
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            stack_mod.append(module)
            starts[idx] = perf()
            try:
                result = fn(*args, **kwargs)
            except error_base as exc:
                note_error(exc)
                raise
            finally:
                ends[idx] = perf()
                stack.pop()
                stack_mod.pop()
            if hook is not None:
                hook(counters, result)
            return result

        return recorder

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name.startswith("rtflab.") and mod is not None}
        replaced: dict[int, tuple[object, object]] = {}
        for modname, mod in sorted(modules.items()):
            if modname == "rtflab.errors":
                continue
            short = modname.split(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(obj, f"{short}.{name}", short)
                elif isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info"):
                    if hasattr(obj, "cache_info"):
                        self.caches[f"{short}.{name}"] = obj
                    replaced[id(obj)] = (obj, self.wrap(obj, f"{short}.{name}", short, 0))
        for mod in [*modules.values(), sys.modules["rtflab"]]:
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

    def _wrap_class(self, cls: type, qual: str, module: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in SPECIAL_METHODS:
                continue
            if isinstance(attr, classmethod):
                new = classmethod(self.wrap(attr.__func__, f"{qual}.{name}", module, 1))
            elif isinstance(attr, staticmethod):
                new = staticmethod(self.wrap(attr.__func__, f"{qual}.{name}", module, 0))
            elif isinstance(attr, types.FunctionType):
                new = self.wrap(attr, f"{qual}.{name}", module, 1)
            else:
                continue
            setattr(cls, name, new)

    def dump(self, path: str) -> None:
        import json

        import numpy as np

        meta = {
            "invocation": self.invocation,
            "names": self.names,
            "modules": self.modules,
            "calls": self.calls,
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "counters": self.counters,
            "errors": self.errors,
            "caches": {k: list(c.cache_info()[:2]) for k, c in self.caches.items()},
        }
        np.savez(
            path,
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            meta=np.array(json.dumps(meta)),
        )


def main() -> int:
    spans_path, invocation, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    start = perf()
    # The standard modules the tracer needs are loaded by this import too, so
    # importing them lazily keeps the bootstrap's own start-up out of the trace.
    import rtflab.cli
    from rtflab.errors import RtflabError

    tracer = Tracer(RtflabError, invocation)
    tracer.add_span("cli.import", "cli", start, perf())
    tracer.install()
    try:
        return rtflab.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
