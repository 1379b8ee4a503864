"""In-memory spans recorded around calls into freshsched, from outside.

Each layer boundary is patched on the module where callers look the name up:
``experiment`` and ``cli`` hold from-imported copies of ``run_replication``,
``aggregate`` and ``parse_config``, so patching only the defining module would
miss those calls. Engine calls ("items": one replication, one chain result,
one closed form) are always timed, because the pass times and item latencies
come from them. Every other boundary gets a span only when tracing is on.

After each engine call inside a pass, and after each chain build and solve
within one, the recorder times a fixed reference sample, so the speed of the
machine is sampled all through the run. Its time is kept out of every pass,
item and span time.
"""
from __future__ import annotations

import json
from time import perf_counter_ns

REF_LOOP_N = 30000     # iterations of the pure-Python loop
REF_GRID = 40          # the sparse solve is a REF_GRID x REF_GRID five-point Laplacian
# One reference sample's time on the development host (2-vCPU Xeon VM) in its
# fastest spells. End-to-end times are rescaled to this machine speed.
REF_S = 5.0e-3
REF_SPAN = "bench.reference"


class Reference:
    """Fixed work whose time tracks the machine's speed.

    One sample is a pure-Python integer loop (interpreter-bound, like
    ``build_ctmc``, ``decide`` and the simulator) followed by a sparse LU solve
    (like ``solve_stationary``). numpy and scipy are imported on first use, so
    the launcher can import this module without them.
    """

    def __init__(self):
        self._solve = None

    def _setup(self):
        import numpy as np
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla
        line = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(REF_GRID, REF_GRID))
        near = sp.diags([-1.0, -1.0], [-1, 1], shape=(REF_GRID, REF_GRID))
        grid = (sp.kron(sp.eye(REF_GRID), line) + sp.kron(near, sp.eye(REF_GRID))).tocsc()
        rhs = np.ones(REF_GRID * REF_GRID)
        self._solve = lambda: spla.spsolve(grid, rhs)
        self.run()  # warm up

    def ready(self):
        if self._solve is None:
            self._setup()

    def run(self):
        self.ready()
        total = 0
        for i in range(REF_LOOP_N):
            total += i * i
        self._solve()
        return total

    def sample_ns(self):
        t0 = perf_counter_ns()
        self.run()
        return perf_counter_ns() - t0

    def median_ns(self, samples):
        times = sorted(self.sample_ns() for _ in range(samples))
        return times[len(times) // 2]


class SetupDone(BaseException):
    """Raised at the first engine call of a set-up probe.

    A BaseException, so ``cli.main`` and ``run_experiment`` let it through.
    """


class Recorder:
    def __init__(self, spans_on: bool, stop_at_first_item: bool = False):
        self.spans_on = spans_on
        self.stop_at_first_item = stop_at_first_item
        # span: [name, parent index, start ns, end ns, pass index, info dict]
        self.spans: list = []
        # item: (name, pass index, start ns, end ns, args, result or None)
        self.items: list = []
        self.first_item_ns = None
        self.pass_idx = None
        self.overhead_ns = 0
        # reference: (pass index, start ns, end ns) per sample, and all time
        # spent on it
        self.ref = Reference()
        self.ref_samples: list = []
        self.ref_ns = 0
        self._stack: list = []
        self._restore: list = []

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, 0, 0, self.pass_idx, {}])
        self._stack.append(idx)
        return idx

    def _close(self, idx, t0, t1):
        self._stack.pop()
        span = self.spans[idx]
        span[2], span[3] = t0, t1

    def wrap(self, fn, name, item=False, info=None, sample=False):
        """Return ``fn`` wrapped in a span (or, untraced, in an item timer).

        An item, or a call marked ``sample``, is followed by a reference
        sample when it returns inside a pass.
        """
        rec = self

        def wrapper(*args, **kwargs):
            t_in = perf_counter_ns()
            if item and rec.first_item_ns is None:
                rec.first_item_ns = t_in
                if rec.stop_at_first_item:
                    raise SetupDone
            idx = rec._open(name) if rec.spans_on else None
            ref_before = rec.ref_ns
            t0 = perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter_ns()
                if idx is not None:
                    rec._close(idx, t0, t1)
                    if info is not None and result is not None:
                        rec.spans[idx][5] = info(args, result)
                if item:
                    # samples taken inside the call are not part of it
                    end = t1 - (rec.ref_ns - ref_before)
                    rec.items.append((name, rec.pass_idx, t0, end, args, result))
                rec.overhead_ns += (t0 - t_in) + (perf_counter_ns() - t1)
                if (item or sample) and rec.pass_idx is not None:
                    rec.reference()

        return wrapper

    def reference(self):
        """Time one reference sample, under its own span when tracing."""
        t_in = perf_counter_ns()
        self.ref.ready()
        idx = self._open(REF_SPAN) if self.spans_on else None
        t0 = perf_counter_ns()
        self.ref.run()
        t1 = perf_counter_ns()
        if idx is not None:
            self._close(idx, t0, t1)
        self.ref_samples.append((self.pass_idx, t0, t1))
        self.ref_ns += perf_counter_ns() - t_in

    def patch(self, module, attr, name, item=False, info=None, sample=False):
        """Replace ``module.attr`` by its wrapped form until ``unpatch``."""
        if not (item or sample or self.spans_on):
            return
        original = getattr(module, attr)
        self._restore.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, item, info, sample))

    def unpatch(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def span(self, name):
        """Context manager for a span the benchmark opens itself."""
        return _Span(self, name)

    # -- derived numbers -------------------------------------------------

    def durations(self):
        """Per span: (name, pass index, duration ns, self ns, info).

        A duration leaves out the reference samples taken inside the span.
        """
        child_ns = [0] * len(self.spans)
        ref_ns = [0] * len(self.spans)
        for name, parent, t0, t1, _p, _i in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
            while name == REF_SPAN and parent >= 0:
                ref_ns[parent] += t1 - t0
                parent = self.spans[parent][1]
        return [(name, p, t1 - t0 - ref_ns[i], t1 - t0 - child_ns[i], info)
                for i, (name, _parent, t0, t1, p, info) in enumerate(self.spans)]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "parent", "start_ns", "end_ns", "pass", "info"],
                       "spans": self.spans}, handle)


class _Span:
    def __init__(self, rec: Recorder, name: str):
        self.rec, self.name, self.idx = rec, name, None

    def __enter__(self):
        if self.rec.spans_on:
            self.idx = self.rec._open(self.name)
        self.t0 = perf_counter_ns()
        return self

    def __exit__(self, *exc):
        if self.idx is not None:
            self.rec._close(self.idx, self.t0, perf_counter_ns())
        return False
