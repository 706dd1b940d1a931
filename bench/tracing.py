"""Span tracing from outside the package.

The tracer replaces a function with a timing wrapper at the place where
its caller looks the name up (a module attribute), so the package itself
is untouched.  Every call becomes a span with a name, start and end
(perf_counter_ns), the span that was open when it started, and the id of
the instance being processed.  Spans are kept in flat arrays in memory
and written out once the run is over.
"""

from __future__ import annotations

import gzip
import time
from array import array

# (module, attribute, span name).  The module is where the caller binds the
# name: analysis calls `primitive_idempotents` through its own globals, the
# other modules call `linalg.mat_mul` through the linalg module, and the
# benchmark calls `analysis.analyze_instance` and the renderers itself.
PATCHES = (
    ("campaign", "sample_spec", "sampling.sample_spec"),
    ("campaign", "build_parameter_array", "parray.build_parameter_array"),
    ("campaign", "verify_pi2", "analysis.verify_pi2"),
    ("campaign", "analyze_instance", "analysis.analyze_instance"),
    ("campaign", "render_report", "campaign.render_report"),
    ("sampling", "validate_spec", "parray.validate_spec"),
    ("parray", "validate_spec", "parray.validate_spec"),
    ("analysis", "build_parameter_array", "parray.build_parameter_array"),
    ("analysis", "analyze_instance", "analysis.analyze_instance"),
    ("analysis", "primitive_idempotents", "realization.primitive_idempotents"),
    ("analysis", "standard_basis_rep", "realization.standard_basis_rep"),
    ("analysis", "intersection_a_trace", "realization.intersection_a_trace"),
    ("analysis", "verify_axioms", "realization.verify_axioms"),
    ("cli", "analyze_instance", "analysis.analyze_instance"),
    ("cli", "render_analysis", "cli.render_analysis"),
    ("zerodiag", "z_basis_kernel", "zerodiag.z_basis_kernel"),
    ("zerodiag", "x_space_basis", "zerodiag.x_space_basis"),
    ("zerodiag", "has_zero_diagonal", "zerodiag.has_zero_diagonal"),
    ("zerodiag", "dependence_equivalences", "zerodiag.dependence_equivalences"),
    ("linalg", "mat_mul", "linalg.mat_mul"),
    ("linalg", "solve_matrix", "linalg.solve_matrix"),
    ("linalg", "rank", "linalg.rank"),
    ("linalg", "nullspace", "linalg.nullspace"),
    ("linalg", "det", "linalg.det"),
)


class Tracer:
    """Collects spans from the wrappers it installs; undo with uninstall().

    Each call of the span named `instance_span` starts a new instance id.
    """

    def __init__(self, instance_span):
        self.instance_span = instance_span
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.instance = array("i")
        self.start = array("q")
        self.end = array("q")
        self.raised = set()
        self.instance_id = -1
        self._stack = []
        self._saved = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        nid = self._name_id(name)
        starts_instance = name == self.instance_span
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if starts_instance:
                self.instance_id += 1
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.instance.append(self.instance_id)
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised.add(idx)
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self, package):
        for module_name, attr, span_name in PATCHES:
            module = getattr(package, module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(span_name, original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def self_times(self):
        """Per span name: (self seconds, calls).

        Self time is a span's duration minus the durations of its direct
        children, so nested layers are not counted twice.
        """
        n = len(self.start)
        child = [0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        self_ns = [0] * len(self.names)
        calls = [0] * len(self.names)
        for i in range(n):
            nid = self.name_id[i]
            self_ns[nid] += end[i] - start[i] - child[i]
            calls[nid] += 1
        return {name: (self_ns[i] / 1e9, calls[i])
                for i, name in enumerate(self.names)}

    def count_children(self, parent_name, child_name):
        """(parent spans that returned, child spans directly under any parent span)."""
        pid = self._ids.get(parent_name)
        cid = self._ids.get(child_name)
        if pid is None:
            return 0, 0
        parents = [i for i in range(len(self.start)) if self.name_id[i] == pid]
        returned = sum(1 for i in parents if i not in self.raised)
        under = set(parents)
        children = sum(1 for i in range(len(self.start))
                       if self.name_id[i] == cid and self.parent[i] in under)
        return returned, children

    def write(self, path):
        """Write every span as CSV: id, parent, instance, name, start_ns, end_ns, raised."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,instance,name,start_ns,end_ns,raised\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.parent[i]},{self.instance[i]},"
                         f"{self.names[self.name_id[i]]},{self.start[i]},"
                         f"{self.end[i]},{int(i in self.raised)}\n")
