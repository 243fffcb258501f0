"""Span recorder wrapped around pkmkin's public functions from outside the package.

`Tracer.install` replaces every public function of the traced modules at
every module attribute that binds it (``rootfind.real_roots`` is also bound
as ``parallel_fk.real_roots``, ``machine.real_roots`` and
``pkmkin.real_roots``), so a call is recorded whichever name the caller
used.  Leaf helpers that other layers call (`INLINE`) are left unwrapped.
A span is recorded only while an item is active (`item_id >= 0`);
outside an item the wrapper calls straight through.  Spans live in flat
typed arrays so that a run of a million spans stays a few tens of MB.
`Tracer.restore` puts every original back and reports any attribute that
is not identical to the original afterwards.
"""

import array
import functools
import inspect
import time

import numpy as np

# error codes stored per span
OK, AMBIGUOUS, INTERPOLATION, OTHER_ERROR = 0, 1, 2, 3
# size codes for results that are not sequences
SIZE_NONE, SIZE_SCALAR = -2, -1

WRAPPED_MARK = "__perfbench_span__"

# Leaf helpers that other layers call inside their own solvers: the FK
# prefilter and polish call constraint_residuals, and every PlatformPose and
# ToolPose wraps its angles.  They stay unwrapped, so their time is self time
# of the calling span and layer, not of the module that defines them.
INLINE = frozenset({"parallel_ik.wrap_angle", "parallel_ik.constraint_residuals"})


def public_functions(module):
    """Public functions defined in `module` (not those it imports)."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")}


def _degree(args, kwargs):
    p = args[0] if args else kwargs["p"]
    return p.degree if hasattr(p, "degree") else len(p) - 1


# extra per-span numbers taken from a call's arguments
ARG_PROBES = {"rootfind.real_roots": _degree}


class Tracer:
    """Records name, start, end, parent span and item id of every call."""

    def __init__(self, error_codes=None):
        self.error_codes = dict(error_codes or {})
        self.names = []
        self._name_ids = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.item = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.size = array.array("i")
        self.aux = array.array("i")
        self.error = array.array("b")
        self._stack = [-1]
        self.item_id = -1
        self._patches = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _error_code(self, exc):
        for cls, code in self.error_codes.items():
            if isinstance(exc, cls):
                return code
        return OTHER_ERROR

    def wrap(self, name, fn):
        nid = self._name_id(name)
        probe = ARG_PROBES.get(name)
        perf = time.perf_counter
        stack = self._stack
        # bound methods and arrays as closure locals keep the per-call cost low
        push, pop = stack.append, stack.pop
        name_add, parent_add, item_add = self.name.append, self.parent.append, self.item.append
        aux_add, start_add, end_add = self.aux.append, self.start.append, self.end.append
        size_add, error_add = self.size.append, self.error.append
        ends, sizes, errors = self.end, self.size, self.error

        @functools.wraps(fn)
        def span(*args, **kwargs):
            item = self.item_id
            if item < 0:
                return fn(*args, **kwargs)
            sid = len(ends)
            name_add(nid)
            parent_add(stack[-1])
            item_add(item)
            aux_add(probe(args, kwargs) if probe else 0)
            end_add(0.0)
            size_add(SIZE_SCALAR)
            error_add(OK)
            push(sid)
            start_add(perf())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[sid] = perf()
                pop()
                errors[sid] = self._error_code(exc)
                raise
            ends[sid] = perf()
            pop()
            if isinstance(result, (list, tuple)):
                sizes[sid] = len(result)
            elif result is None:
                sizes[sid] = SIZE_NONE
            return result

        setattr(span, WRAPPED_MARK, name)
        return span

    def install(self, traced_modules, binding_modules):
        """Wrap the public functions of `traced_modules` at every binding.

        A function's span is named ``<defining module>.<function>``; every
        attribute of `binding_modules` that is the function object gets the
        same wrapper.  Functions named in INLINE are not wrapped.
        """
        wrappers = {}
        for module in traced_modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for fname, fn in public_functions(module).items():
                if f"{layer}.{fname}" not in INLINE:
                    wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{fname}", fn))
        for module in binding_modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)][1])

    def restore(self):
        """Put every original back; return the attributes left changed."""
        for module, attr, original in self._patches:
            setattr(module, attr, original)
        left = [f"{module.__name__}.{attr}" for module, attr, original in self._patches
                if getattr(module, attr) is not original]
        self._patches = []
        return left

    def arrays(self):
        """The recorded spans as numpy arrays (span id = index)."""
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "item": np.array(self.item, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "size": np.array(self.size, dtype=np.int32),
            "aux": np.array(self.aux, dtype=np.int32),
            "error": np.array(self.error, dtype=np.int8),
        }


def wrapped_attributes(modules):
    """Attributes of `modules` that still hold a span wrapper."""
    return [f"{m.__name__}.{attr}" for m in modules
            for attr, obj in vars(m).items() if hasattr(obj, WRAPPED_MARK)]


def self_times(start, end, parent):
    """Per-span self time: duration minus the time covered by child spans.

    Children of one span run sequentially (single thread), so their
    durations sum to the time they cover.
    """
    dur = end - start
    if dur.size == 0:
        return dur
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=dur.size)
    return dur - covered


def summarize(spans, names):
    """Per span name: calls, self-time sum, size sum, None count, error counts."""
    self_t = self_times(spans["start"], spans["end"], spans["parent"])
    out = {}
    for nid, name in enumerate(names):
        mask = spans["name"] == nid
        sizes = spans["size"][mask]
        errors = spans["error"][mask]
        out[name] = {
            "calls": int(mask.sum()),
            "self_s": float(self_t[mask].sum()),
            "size_sum": int(sizes[sizes >= 0].sum()),
            "none": int((sizes == SIZE_NONE).sum()),
            "aux_sum": int(spans["aux"][mask].sum()),
            "errors": {code: int((errors == code).sum())
                       for code in (AMBIGUOUS, INTERPOLATION, OTHER_ERROR)},
        }
    return out, self_t
