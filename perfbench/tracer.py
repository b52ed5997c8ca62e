"""Run-time span tracing of the milne_lab layers, from outside the package.

:func:`tracing` wraps every public function of each layer module and
installs the wrapper at every module attribute of the package that binds
the function (so ``homogeneous.sasaki_energy`` and
``energies.sasaki_energy`` both record), then restores the originals.
Nothing under ``src/`` is edited.  Each call records one span::

    (id, name, parent, thread, run, start, end, cpu, extra)

``start``/``end`` are ``time.perf_counter`` readings, ``cpu`` the
``time.thread_time`` the calling thread spent inside the call, ``extra``
an optional dict of sizes (bytes produced, steps, particles).  A span
opened on a worker thread with no open span of its own takes the
innermost open span of the client thread as parent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time

import numpy as np

LAYERS = ("harness", "geometry", "massshell", "transport", "matter",
          "homogeneous", "energies", "modes", "_quadrature")

# scalar kernels called at every RK4 stage of a scalar loop (4 x 10^4
# calls per mode run); a span each would cost more than the work it times
UNTRACED = frozenset({"modes.mode_rhs"})

SPAN_FIELDS = ("id", "name", "parent", "thread", "run", "start", "end",
               "cpu", "extra")


class Tracer:
    """Collects spans in memory; ``run`` tags the spans of one scenario run."""

    def __init__(self) -> None:
        self.spans: list = []
        self.run = 0
        self._ids = itertools.count(1)
        self._stacks: dict = {}
        self._client = threading.get_ident()

    def _parent(self, stack: list):
        if stack:
            return stack[-1]
        client = self._stacks.get(self._client)
        return client[-1] if client else None

    def wrap(self, name: str, fn, measure=None):
        """``fn`` wrapped to record a span named ``name`` per call.

        ``measure(fn, args, kwargs, result)`` returns the span's ``extra``.
        """
        tracer = self

        @functools.wraps(fn)  # also copies attributes such as norm_envelopes
        def traced(*args, **kwargs):
            ident = threading.get_ident()
            stack = tracer._stacks.setdefault(ident, [])
            parent = tracer._parent(stack)
            sid = next(tracer._ids)
            stack.append(sid)
            out = extra = None
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                c1 = time.thread_time()
                stack.pop()
                if measure is not None and out is not None:
                    extra = measure(fn, args, kwargs, out)
                tracer.spans.append((sid, name, parent, ident, tracer.run,
                                     t0, t1, c1 - c0, extra))
            return out

        return traced

    def dump(self, path: str, header: dict) -> None:
        """Write the header and every span as JSON to ``path``."""
        with open(path, "w") as fh:
            json.dump({"header": header, "fields": SPAN_FIELDS,
                       "spans": self.spans}, fh)
            fh.write("\n")


# ---------------------------------------------------------------------------
# sizes recorded with a span
# ---------------------------------------------------------------------------


def array_bytes(values) -> int:
    """Bytes held by the arrays among ``values``.

    Broadcast views (a zero stride) share one small buffer and count 0.
    """
    return sum(v.nbytes for v in values
               if isinstance(v, np.ndarray) and 0 not in v.strides)


def _arguments(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _integrate_sizes(fn, args, kwargs, out) -> dict:
    a = _arguments(fn, args, kwargs)
    return {"particles": int(a["ensemble"].size),
            "steps": int(round((a["Tend"] - a["frame0"].T) / a["h"])),
            "log_bytes": array_bytes(vars(out[0]).values())}


def _provider_bytes(fn, args, kwargs, out) -> dict:
    return {"bytes": array_bytes(vars(out).values())}


# what a span of these functions records besides its times
MEASURES = {
    "transport.characteristic_rhs":
        lambda fn, args, kwargs, out: {"bytes": array_bytes(out)},
    "transport.background_fields": _provider_bytes,
    "transport.integrate_characteristics": _integrate_sizes,
    "homogeneous.evolve_homogeneous":
        lambda fn, args, kwargs, out: {
            "steps": int(_arguments(fn, args, kwargs)["n_steps"]),
            "log_points": int(out.T.size)},
    "modes.integrate_mode":
        lambda fn, args, kwargs, out: {
            "steps": int(_arguments(fn, args, kwargs)["n_steps"])},
    "harness.emit_report":
        lambda fn, args, kwargs, out: {
            "bytes": sum(os.path.getsize(p) for p in out.values())},
}

# span names that are not "<layer>.<function>"
RENAMED = {"transport.background_fields": "transport.provider"}


def _wrap_factory(tracer: Tracer, name: str, factory):
    """Trace a provider factory and every provider it returns."""
    traced_factory = tracer.wrap(name, factory)

    @functools.wraps(factory)
    def make(*args, **kwargs):
        provider = traced_factory(*args, **kwargs)
        return tracer.wrap("transport.provider", provider,
                           measure=_provider_bytes)
    return make


FACTORIES = frozenset({"transport.manufactured_lapse_fields"})


def public_functions(package) -> dict:
    """``{span name: function}`` for each traced function of the layers."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{package.__name__}.{layer}")
        for attr, fn in vars(mod).items():
            name = f"{layer}.{attr}"
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and not attr.startswith("_") and name not in UNTRACED):
                found[name] = fn
    return found


@contextlib.contextmanager
def tracing(tracer: Tracer, package):
    """Install span wrappers on ``package`` for the duration of the block."""
    wrappers = {}
    for name, fn in public_functions(package).items():
        if name in FACTORIES:
            wrapper = _wrap_factory(tracer, name, fn)
        else:
            wrapper = tracer.wrap(RENAMED.get(name, name), fn,
                                  measure=MEASURES.get(name))
        wrappers[id(fn)] = wrapper
    modules = [package] + [importlib.import_module(f"{package.__name__}.{m}")
                           for m in LAYERS]
    bindings = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                bindings.append((mod, attr, value))
                setattr(mod, attr, wrapper)
    try:
        yield bindings
    finally:
        for mod, attr, value in bindings:
            setattr(mod, attr, value)
