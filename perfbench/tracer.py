"""Span recorder for the traced benchmark run.

Each wrapper replaces a public name in the module namespace where its
caller looks it up (for example ``concavelab.scenarios.solve_trajectory``
or ``concavelab.operators.splu``).  A call records a span
``(name, start, end, parent, item)`` in memory; counters are bumped at
the same boundaries.  Self time is a span's duration minus the time its
child spans cover; calls are single-threaded and nested, so the children
of a span never overlap and their durations simply add up.
"""

import functools
import importlib
import json
import math
import os
import time
from collections import Counter, defaultdict


# counter hooks: (counts, args, kwargs, result) -> None

def _count_factorization(counts, args, kwargs, result):
    counts["operators.factorizations"] += 1


def _interp_points(args, kwargs):
    """(single point?, point count) of bilinear_interp(dom, grid, pts)."""
    pts = args[2] if len(args) > 2 else kwargs["pts"]
    shape = getattr(pts, "shape", None) or (len(pts),)
    return len(shape) == 1, math.prod(shape[:-1])


def _count_points(counts, args, kwargs, result):
    counts["operators.bilinear_interp.points"] += \
        _interp_points(args, kwargs)[1]


def _count_audit_points(counts, args, kwargs, result):
    single, n = _interp_points(args, kwargs)
    counts["audit.scalar_evals" if single else "audit.batched_evals"] += 1
    counts["operators.bilinear_interp.points"] += n


def _count_weight_pairs(counts, args, kwargs, result):
    """Node pairs times the 15 interior lambdas the defect scan visits."""
    dom = args[1] if len(args) > 1 else kwargs["dom"]
    mask = kwargs.get("mask", args[3] if len(args) > 3 else None)
    stride = kwargs.get("stride", args[4] if len(args) > 4 else 1)
    n = dom.n_interior if mask is None else int(mask.sum())
    n = -(-n // stride)
    counts["problems.weight_pair_evals"] += n * (n - 1) // 2 * 15


def _count_domain(counts, args, kwargs, result):
    counts["domains.interior_nodes"] += result.n_interior
    counts["domains.cut_fractions"] += int((result.fractions < 1.0).sum())


def _count_stationary(counts, args, kwargs, result):
    counts["stationary.iterations"] += result.iterations


def _count_samples(counts, args, kwargs, result):
    counts["audit.samples"] += result.samples


def _count_bytes(counts, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    counts["parabolic.bytes_written"] += os.path.getsize(path)


def _count_step(counts, args, kwargs, result):
    counts["parabolic.steps"] += 1


#: (module, attribute, span name or None for a counter only, hook)
WRAPPED = (
    ("concavelab.scenarios", "run_scenario", "scenarios.run_scenario", None),
    ("concavelab.scenarios", "build_discretization",
     "domains.build_discretization", _count_domain),
    ("concavelab.domains", "build_discretization",
     "domains.build_discretization", _count_domain),
    ("concavelab.operators", "neg_laplacian_matrix",
     "operators.neg_laplacian_matrix", None),
    ("concavelab.stationary", "neg_laplacian_matrix",
     "operators.neg_laplacian_matrix", None),
    ("concavelab.scenarios", "principal_eigenpair",
     "operators.principal_eigenpair", None),
    ("concavelab.parabolic", "principal_eigenpair",
     "operators.principal_eigenpair", None),
    ("concavelab.operators", "splu", "operators.factorize",
     _count_factorization),
    ("concavelab.parabolic", "solve_shifted_poisson",
     "operators.solve_shifted_poisson", None),
    ("concavelab.stationary", "poisson_solve", "operators.poisson_solve",
     None),
    ("concavelab.operators", "bilinear_interp", "operators.bilinear_interp",
     _count_points),
    ("concavelab.audit", "bilinear_interp", "operators.bilinear_interp",
     _count_audit_points),
    ("concavelab.scenarios", "check_hypotheses", "problems.check_hypotheses",
     None),
    ("concavelab.parabolic", "check_hypotheses", "problems.check_hypotheses",
     None),
    ("concavelab.scenarios", "weight_concavity_defect",
     "problems.weight_concavity_defect", _count_weight_pairs),
    ("concavelab.problems", "weight_concavity_defect",
     "problems.weight_concavity_defect", _count_weight_pairs),
    ("concavelab.scenarios", "solve_trajectory", "parabolic.solve_trajectory",
     None),
    ("concavelab.parabolic", "advance", None, _count_step),
    ("concavelab.parabolic", "dump_field_csv", "parabolic.dump",
     _count_bytes),
    ("concavelab.parabolic", "dump_field_binary", "parabolic.dump",
     _count_bytes),
    ("concavelab.parabolic", "load_field_csv", "parabolic.load", None),
    ("concavelab.scenarios", "solve_stationary", "stationary.solve_stationary",
     _count_stationary),
    ("concavelab.stationary", "solve_stationary",
     "stationary.solve_stationary", _count_stationary),
    ("concavelab.scenarios", "min_defect", "audit.min_defect",
     _count_samples),
    ("concavelab.audit", "min_defect", "audit.min_defect", _count_samples),
    ("concavelab.envelope", "concave_approximation",
     "envelope.concave_approximation", None),
    ("concavelab.scenarios", "quantitative_rhs", "bounds", None),
    ("concavelab.scenarios", "log_concavity_rhs", "bounds", None),
    ("concavelab.scenarios", "boundary_lower_bound", "bounds", None),
    ("concavelab.scenarios", "spacetime_alpha_window", "bounds", None),
)

#: counters the hooks above bump
COUNTERS = ("operators.factorizations", "operators.bilinear_interp.points",
            "audit.scalar_evals", "audit.batched_evals", "audit.samples",
            "problems.weight_pair_evals", "domains.interior_nodes",
            "domains.cut_fractions", "stationary.iterations",
            "parabolic.bytes_written", "parabolic.steps")

#: span opened by the benchmark around each workload item
ITEM_SPAN = "bench.item"


class Recorder:
    """In-memory spans and counters; install() swaps in the wrappers."""

    def __init__(self):
        self.spans = []      # (name, start, end, parent, item, self_s)
        self.counts = Counter()
        self.item = None
        self._open = []      # [span index, child time] of open spans
        self._saved = []     # (module, attribute, original)

    def _wrap(self, name, fn, hook):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
                hook(rec.counts, args, kwargs, result)
                return result
            parent = rec._open[-1][0] if rec._open else -1
            idx = len(rec.spans)
            rec.spans.append(None)
            frame = [idx, 0.0]
            rec._open.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                rec._open.pop()
                dur = end - start
                if rec._open:
                    rec._open[-1][1] += dur
                rec.spans[idx] = (name, start, end, parent, rec.item,
                                  dur - frame[1])
            if hook is not None:
                hook(rec.counts, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for modname, attr, name, hook in WRAPPED:
            mod = importlib.import_module(modname)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(name, original, hook))

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def run_item(self, item_id, fn, *args):
        """Run one workload item inside a root span tagged with its id."""
        self.item = item_id
        try:
            return self._wrap(ITEM_SPAN, fn, None)(*args)
        finally:
            self.item = None

    def layers(self, item=None):
        """{span name: [inclusive s, self s, calls]}, optionally for one
        item only."""
        agg = defaultdict(lambda: [0.0, 0.0, 0])
        for name, start, end, _parent, it, self_s in self.spans:
            if item is not None and it != item:
                continue
            a = agg[name]
            a[0] += end - start
            a[1] += self_s
            a[2] += 1
        return dict(agg)

    def write(self, path):
        """Write the spans as JSON lines [name, start, end, parent, item]."""
        with open(path, "w") as fh:
            for name, start, end, parent, item, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, item]) + "\n")
