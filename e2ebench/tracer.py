"""Outside-in span tracer for the tdks package.

The tracer wraps named functions and methods without editing the package:
a function is replaced in every ``tdks.*`` module attribute that *is* that
function object (modules import ``synthesize``, ``hartree`` and others by
name, so patching the defining module alone would miss those call sites),
and a method is replaced on its class.  A name that no longer exists is
recorded as absent instead of raising.

Every call becomes one span ``(name, start, end, parent)``; spans stay in
memory and are summarised (and optionally written out) once at the end.
Self time is a span's duration minus the durations of its direct children.
"""

import functools
import importlib
import json
import sys
import time
import tracemalloc
from types import FunctionType

# every traced target, as "<module>.<function>" or "<module>.<Class>.<method>"
SETUP_TARGETS = (
    "cli.parse_config",
    "domain.build_basis",
    "potentials.sample_field",
    "potentials.build_coulomb_kernel",
)

LAYER_TARGETS = SETUP_TARGETS + (
    "domain.synthesize",
    "domain.project",
    "potentials.hartree",
    "potentials.ks_potential",
    "potentials.density_from_grid",
    "potentials.vxc_rho_derivative",
    "_kernels.phase_apply",
    "system.bilinear_B",
    "system.bound_constants",
    "system.SystemContext.lambda_at",
    "signals.ControlSignal.value",
    "propagate.step",
    "propagate.solve_forward",
    "propagate.solve_adjoint",
    "propagate.Trajectory.export_csv",
    "propagate.Trajectory.export_diagnostics_csv",
    "control.optimize",
    "control.reduced_gradient",
    "control.backward_sweep",
    "verify.check_coulomb_lp",
    "verify.check_hartree_lipschitz",
    "verify.check_energy_estimates",
    "verify.check_form_bounds",
    "verify.check_uniqueness_gronwall",
    "verify.check_galerkin_convergence",
    "verify.check_potential_continuity",
    "verify.check_coefficient_lipschitz",
)

# targets whose tracemalloc peak is recorded (tracing is on only inside the call)
MEMORY_TARGETS = ("domain.build_basis", "potentials.build_coulomb_kernel")

# targets whose per-call durations are kept for percentiles
DURATION_TARGETS = ("propagate.step",)


def _percentile(sorted_values, q):
    """Linear-interpolation percentile of an already sorted list."""
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (pos - lo) * (sorted_values[hi] - sorted_values[lo])


class Tracer:
    """Records a span for every call of the installed targets."""

    def __init__(self, targets, memory_targets=()):
        self.targets = tuple(targets)
        self.memory_targets = set(memory_targets)
        self.names = []
        self.spans = []  # [name_id, start, end, parent_index]; parent -1 is the root
        self.absent = []
        self.peak_bytes = {}
        self._stack = []
        self._undo = []

    # -- installation --------------------------------------------------------

    def install(self):
        for target in self.targets:
            if not self._install_one(target):
                self.absent.append(target)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _install_one(self, target):
        module_name, _, rest = target.partition(".")
        try:
            module = importlib.import_module(f"tdks.{module_name}")
        except ImportError:
            return False
        parts = rest.split(".")
        if len(parts) == 2:  # a method on a class
            cls = getattr(module, parts[0], None)
            original = vars(cls).get(parts[1]) if isinstance(cls, type) else None
            if not isinstance(original, FunctionType):
                return False
            self._rebind(cls, parts[1], original, self._wrap(target, original))
            return True
        original = getattr(module, parts[0], None)
        if not isinstance(original, FunctionType):
            return False
        wrapper = self._wrap(target, original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "tdks" or name.startswith("tdks.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._rebind(mod, attr, original, wrapper)
        return True

    def _rebind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def _wrap(self, target, fn):
        name_id = len(self.names)
        self.names.append(target)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        track_memory = target in self.memory_targets

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            started_memory = track_memory and not tracemalloc.is_tracing()
            if started_memory:
                tracemalloc.start()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                if started_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak_bytes[target] = max(self.peak_bytes.get(target, 0), peak)
                stack.pop()
                spans[index] = (name_id, start, end, parent)

        return traced

    # -- results ---------------------------------------------------------------

    def summary(self):
        """Per-target calls, total and self time, plus derived per-layer counts."""
        spans = [s for s in self.spans if s is not None]  # an unfinished span has no end
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names
        }
        durations = {name: [] for name in DURATION_TARGETS}
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            name_id, start, end, _ = span
            name = self.names[name_id]
            row = stats[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[index]
            if name in durations:
                durations[name].append(end - start)
        for name, values in durations.items():
            if name in stats:
                values.sort()
                stats[name]["p50_ms"] = 1e3 * _percentile(values, 0.5)
                stats[name]["p90_ms"] = 1e3 * _percentile(values, 0.9)
        for name, peak in self.peak_bytes.items():
            stats[name]["peak_mb"] = peak / 2**20
        return {"layers": stats, "derived": self._derived(), "absent": list(self.absent)}

    def _parent_name(self, span):
        parent = span[3]
        if parent < 0 or self.spans[parent] is None:
            return None
        return self.names[self.spans[parent][0]]

    def _count(self, name, parent_name):
        return sum(
            1
            for s in self.spans
            if s is not None
            and self.names[s[0]] == name
            and self._parent_name(s) == parent_name
        )

    def _derived(self):
        adjoint_steps = self._count("propagate.step", "propagate.solve_adjoint")
        evals = self._count("system.SystemContext.lambda_at", "propagate.step")
        return {
            "propagate.fixed_point_evals_per_step": evals / adjoint_steps if adjoint_steps else 0.0,
            "control.line_search_solves": self._count("propagate.solve_forward", "control.optimize"),
        }

    def setup_seconds(self):
        """Time inside outermost set-up calls (config parsing, basis, fields, kernel)."""
        setup = {i for i, name in enumerate(self.names) if name in SETUP_TARGETS}
        total, covered_until = 0.0, float("-inf")
        for span in self.spans:  # in start order, so a nested span starts before its parent ends
            if span is not None and span[0] in setup and span[1] >= covered_until:
                total += span[2] - span[1]
                covered_until = span[2]
        return total

    def write_spans(self, path, run_id):
        """Dump every span once, tagged with the run it belongs to.

        Each span is ``[name index, start, end, parent index]`` (parent -1 is
        the root); an unfinished span is null, so parent indices stay valid.
        """
        payload = {"run": run_id, "names": self.names, "spans": self.spans}
        with open(path, "w") as fh:
            json.dump(payload, fh)
