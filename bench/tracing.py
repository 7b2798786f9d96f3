"""Span tracing of torusmf from outside the package.

`install` wraps every public function of every loaded torusmf module, the
`Field` constructor, numpy's n-D FFT entry points and the scipy Krylov
routines torusmf imports.  A wrapper is bound under every torusmf module
name that refers to the original, so a function imported by name (as
`mountainpass` imports `energy_value`) is traced at every call site.

Each call records a span: name, start, end, parent span and whether it
raised.  Spans stay in memory in flat arrays and are written out once, when
the run ends.  A span's self time is its duration minus the durations of
its direct children; a layer's self time sums the self times of the spans
of functions defined in that torusmf module, so time in numpy FFTs and in
scipy's MINRES/eigsh is not part of any layer's self time (it is reported
under `field.fft` and `solver.minres` / `solver.eigsh`).  Private helpers
are not wrapped: their time counts toward the nearest wrapped caller.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

FFT_ENTRY_POINTS = ("fftn", "ifftn", "rfftn", "irfftn", "fft2", "ifft2", "rfft2", "irfft2")
PACKAGE = "torusmf"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.foreign: list[bool] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.stack: list[int] = []
        self.extra: dict[str, int] = {}

    def _name(self, name: str, foreign: bool) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.foreign.append(foreign)
        return self._ids[name]

    def add(self, key: str, amount: int) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount

    def wrap(self, name: str, fn, *, foreign: bool = False, after=None):
        """Span-recording wrapper; `after(args, result)` may add extra counts.

        Foreign functions (numpy, scipy) are recorded only when called from
        inside a torusmf span, i.e. as torusmf calls them.
        """
        nid = self._name(name, foreign)
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if foreign and not stack:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.raised.append(0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[idx] = 1
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def summary(self) -> dict[str, float]:
        """Per-name calls/s/failed, per-layer self_s, plus the extra counts."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        raised = np.frombuffer(self.raised, dtype=np.int8)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child_time
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=dur, minlength=k)
        failed = np.bincount(name_id, weights=raised, minlength=k)
        own = np.bincount(name_id, weights=self_time, minlength=k)
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.s"] = float(total[i])
            out[f"{name}.failed"] = int(failed[i])
            if not self.foreign[i]:
                layer = name.split(".", 1)[0] + ".self_s"
                out[layer] = out.get(layer, 0.0) + float(own[i])
        for key, value in self.extra.items():
            out[key] = value
        return out

    def dump(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            raised=np.frombuffer(self.raised, dtype=np.int8),
        )


def install(tracer: Tracer) -> None:
    """Wrap torusmf (all modules already imported) and the foreign calls it makes."""
    import numpy.fft
    import scipy.sparse.linalg as spla

    # work read off arguments and results: FFT bytes (input plus output
    # nbytes), Newton steps and relaxation sweeps
    after = {
        "field.fft":
            lambda args, res: tracer.add("field.fft.bytes", np.asarray(args[0]).nbytes + res.nbytes),
        "solver.newton_solve":
            lambda args, res: tracer.add("solver.newton_solve.iterations", res.iterations),
        "mountainpass.relax_path":
            lambda args, res: tracer.add("mountainpass.relax_path.sweeps", res[1].sweeps),
    }
    modules = [mod for name, mod in sorted(sys.modules.items())
               if name.startswith(PACKAGE + ".") and mod is not None]
    replacements: dict[int, object] = {}
    for mod in modules:
        layer = mod.__name__.split(".", 1)[1]
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                span = f"{layer}.{name}"
                replacements[id(obj)] = tracer.wrap(span, obj, after=after.get(span))

    for name in FFT_ENTRY_POINTS:
        original = getattr(numpy.fft, name)
        wrapped = tracer.wrap("field.fft", original, foreign=True, after=after["field.fft"])
        replacements[id(original)] = wrapped
        setattr(numpy.fft, name, wrapped)
    replacements[id(spla.minres)] = tracer.wrap("solver.minres", _counting_minres(tracer),
                                                foreign=True)
    replacements[id(spla.eigsh)] = tracer.wrap("solver.eigsh", spla.eigsh, foreign=True)

    for mod in [sys.modules[PACKAGE]] + modules:
        for name, obj in list(vars(mod).items()):
            if id(obj) in replacements:
                setattr(mod, name, replacements[id(obj)])

    field_cls = sys.modules[PACKAGE + ".field"].Field
    field_cls.__init__ = tracer.wrap("field.Field", field_cls.__init__)


def _counting_minres(tracer: Tracer):
    """scipy's minres with a matvec counter on the operator it is handed."""
    import scipy.sparse.linalg as spla
    minres = spla.minres

    def counted(A, b, *args, **kwargs):
        op = spla.aslinearoperator(A)

        def matvec(x):
            tracer.add("solver.minres.matvecs", 1)
            return op.matvec(x)

        counting = spla.LinearOperator(op.shape, matvec=matvec, dtype=op.dtype)
        return minres(counting, b, *args, **kwargs)

    return counted
