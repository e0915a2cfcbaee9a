"""Wrap spinbath functions from outside the package: spans and observers.

Layers are the modules of ``src/spinbath``.  A function is replaced in every
spinbath module namespace that binds it (``build_sector``, for instance, is
imported into ``cli``, ``spectra``, ``dynamics``, ``closed_forms`` and
``verification``), so calls between modules are seen as well as calls from the
CLI.  Patches are undone when the ``Patch`` context exits.

A span records (id, name, start, end, parent id, thread).  Observers run after
a call returns, inside a span named ``_observe`` that is a child of the caller,
so the time they take counts against no layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import pkgutil
import threading
import time

OBSERVE = "_observe"

# names outside the modules' __all__ that the per-layer metrics need
EXTRA = {"dynamics": ("expm",), "cli": ("_pool_map",)}


def arg(args, kwargs, index, name):
    """Argument ``name`` of a wrapped call, given by position or by keyword."""
    return args[index] if len(args) > index else kwargs[name]


def spinbath_modules() -> list:
    import spinbath

    names = [m.name for m in pkgutil.iter_modules(spinbath.__path__) if m.name != "__main__"]
    return [spinbath] + [importlib.import_module(f"spinbath.{n}") for n in sorted(names)]


def layer_functions() -> dict:
    """Span name ('module.function') -> function, for every public function."""
    out = {}
    for mod in spinbath_modules()[1:]:
        short = mod.__name__.rsplit(".", 1)[1]
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out[f"{short}.{name}"] = obj
        for name in EXTRA.get(short, ()):
            out[f"{short}.{name}"] = getattr(mod, name)
    return out


class Recorder:
    """Spans kept in memory; one parent stack per thread."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()

    def stack(self) -> list:
        """(span id, name) of the open spans of the calling thread."""
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def span_wrapper(self, fn, name, observer=None, before=None, root=(None, None)):
        """``fn`` recording a span; ``before(args, kwargs)`` may rewrite the
        arguments inside the span, ``observer`` sees the result after it.
        ``root`` is the (id, name) parent for calls on a thread with no open
        span, such as tasks handed to a thread pool."""
        clock = time.perf_counter_ns
        spans, ids = self.spans, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self.stack()
            parent, parent_name = stack[-1] if stack else root
            sid = next(ids)
            stack.append((sid, name))
            t0 = clock()
            try:
                if before is not None:
                    args, kwargs = before(args, kwargs)
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, threading.get_ident()))
            if observer is not None:
                observer(args, kwargs, result, parent_name)
                spans.append((next(ids), OBSERVE, t1, clock(), parent, threading.get_ident()))
            return result

        return traced


def _observed(fn, observer):
    @functools.wraps(fn)
    def observed(*args, **kwargs):
        result = fn(*args, **kwargs)
        observer(args, kwargs, result, None)
        return result

    return observed


class Patch:
    """Context manager installing wrappers on the layer functions.

    ``observers`` maps span names to callbacks ``(args, kwargs, result,
    parent_name)``; ``before`` maps span names to argument rewriters.  With a
    recorder every layer function gets a span; without one only the observed
    functions are wrapped.
    """

    def __init__(self, observers=None, recorder=None, before=None):
        self.functions = layer_functions()
        self.observers = dict(observers or {})
        unknown = set(self.observers) - set(self.functions)
        if unknown:
            raise KeyError(f"not spinbath functions: {sorted(unknown)}")
        self.recorder = recorder
        self.before = dict(before or {})
        self._undo = []

    def __enter__(self):
        wrappers = {}
        for name, fn in self.functions.items():
            observer = self.observers.get(name)
            if self.recorder is not None:
                wrappers[name] = self.recorder.span_wrapper(fn, name, observer, self.before.get(name))
            elif observer is not None:
                wrappers[name] = _observed(fn, observer)
        by_id = {id(self.functions[n]): n for n in wrappers}
        for mod in spinbath_modules():
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, val in list(vars(mod).items()):
                name = by_id.get(id(val))
                if name is None:
                    continue
                # a third-party function (scipy's expm) is a layer only where listed
                if not val.__module__.startswith("spinbath") and name.split(".")[0] != short:
                    continue
                self._undo.append((mod, attr, val))
                setattr(mod, attr, wrappers[name])
        return self

    def __exit__(self, *exc):
        for mod, attr, val in reversed(self._undo):
            setattr(mod, attr, val)
        self._undo.clear()
        return False
