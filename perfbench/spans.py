"""In-memory spans around the public functions of the ymesh layers.

The tracer measures each layer from outside: it replaces a function at every
module attribute that holds it (``ymesh.mesh.meet_point`` as well as
``ymesh.projective.meet_point``), and a method on its class.  A span records
its name, start, end, parent span and job id in flat arrays; self time is
derived afterwards as duration minus the part covered by child spans.
Count-only boundaries increment a counter and open no span.
"""

import functools
import sys
from array import array
from time import perf_counter

PACKAGE = "ymesh"


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job = array("i")
        self.counts = {}
        self.active = False
        self.job_id = -1
        self._stack = []
        self._undo = []

    def __len__(self):
        return len(self.start)

    def _intern(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span_wrapper(self, name, fn, observe=None):
        """A function that runs fn inside a span while the tracer is active;
        observe(args, result) runs after the span has closed."""
        nid = self._intern(name)
        names, parent, job = self.name_id, self.parent, self.job
        start, end, stack = self.start, self.end, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            job.append(self.job_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def count_wrapper(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def replace_function(self, module, attr, wrapper_of):
        """Replace module.attr at every module of the library that holds the
        same object (its import sites), including the defining module."""
        original = getattr(module, attr)
        wrapper = wrapper_of(original)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "") or ""
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def replace_method(self, cls, attr, wrapper_of):
        original = cls.__dict__[attr]
        setattr(cls, attr, wrapper_of(original))
        self._undo.append((cls, attr, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()
        self.active = False

    def aggregate(self):
        """Per span name: calls and self seconds; plus the seconds covered
        by root spans."""
        own = self_times(self.start, self.end, self.parent)
        calls, self_s = {}, {}
        rooted = 0.0
        for k in range(len(self)):
            name = self.names[self.name_id[k]]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own[k]
            if self.parent[k] < 0:
                rooted += self.end[k] - self.start[k]
        return calls, self_s, rooted

    def write(self, path):
        """Write the spans as tab-separated text: name, start, end, parent
        span index, job id (times relative to the first span)."""
        t0 = self.start[0] if len(self) else 0.0
        with open(path, "w") as fh:
            fh.write("name\tstart_s\tend_s\tparent\tjob\n")
            for k in range(len(self)):
                fh.write("%s\t%.9f\t%.9f\t%d\t%d\n" % (
                    self.names[self.name_id[k]], self.start[k] - t0,
                    self.end[k] - t0, self.parent[k], self.job[k]))


def self_times(start, end, parent):
    """Self time of each span: its duration minus the time covered by its
    direct children (parent -1 marks a root).  Spans of one thread nest, so
    children never overlap."""
    cover = [0.0] * len(start)
    for k, p in enumerate(parent):
        if p >= 0:
            cover[p] += end[k] - start[k]
    return [end[k] - start[k] - cover[k] for k in range(len(start))]
