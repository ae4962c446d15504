"""Per-layer tracing of slqheat from outside the package.

`Tracer.install` replaces the public functions of each module under
src/slqheat with timing wrappers.  A function imported by value into
another module (``from .mesh import l2_norm_sq_batch``) is replaced in
every namespace that holds it, and methods are replaced on their class.
Wrapped calls form a stack; a frame's self time is its duration minus
the time of the wrapped frames it encloses, so the self times of all
frames add up to the traced study call.  For generators each ``next()``
is one frame, which leaves the consumer's work between items out.

A target that no longer exists (renamed or deleted by a refactor) is
recorded in ``Tracer.absent``; its metrics read 0 and the run goes on.
"""

import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

_perf = time.perf_counter


def _rows(arr):
    shape = getattr(arr, "shape", ())
    return shape[0] if len(shape) >= 2 else 1


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _shifted_rows(args, kwargs):
    return {"rows": _rows(_arg(args, kwargs, 2, "b"))}


def _norm_rows(args, kwargs):
    return {"rows": _rows(_arg(args, kwargs, 1, "v"))}


def _a0_rows_bytes(args, kwargs):
    v = _arg(args, kwargs, 2, "v")
    rows = _rows(v)
    dim = v.shape[-1] if getattr(v, "ndim", 0) else 1
    # computed traffic: one read and one write of float64 rows x d
    return {"rows": rows, "bytes": rows * dim * 8 * 2}


def _driver_paths(args, kwargs):
    return {"paths": int(_arg(args, kwargs, 1, "n_paths"))}


def _gd_iters(result):
    return {"optimizer.gd_iters": len(result[1].cost)}


def _moment_entries(item):
    idx, _, S = item
    return {"riccati.moment_entries": S.size} if idx > 0 else {}


@dataclass(frozen=True)
class Target:
    module: str
    attr: str  # function name, or Class.method
    label: str
    calls: bool = False
    on_call: object = None  # (args, kwargs) -> {stat: increment} under label
    on_return: object = None  # result -> {metric: increment}
    on_yield: object = None  # item -> {metric: increment}


TARGETS = (
    Target("mesh", "build_fem_space", "mesh.build_fem_space"),
    Target("mesh", "FemSpace.shifted_solve", "mesh.shifted_solve", True, _shifted_rows),
    Target("mesh", "l2_norm_sq_batch", "mesh.l2_norm_sq_batch", True, _norm_rows),
    Target("mesh", "FemSpace.to_eigen", "mesh.to_eigen", True),
    Target("noise", "gaussian_driver", "noise.gaussian_driver", False, _driver_paths),
    Target("noise", "refine_common_path", "noise.refine_common_path", True),
    Target("noise", "tree_condexp", "noise.tree_condexp", True),
    Target("forward", "solve_forward", "forward.solve_forward", True),
    Target("forward", "apply_L", "forward.apply_L", True),
    Target("forward", "a0_apply", "forward.a0_apply", True, _a0_rows_bytes),
    Target("forward", "backward_kernel", "forward.backward_kernel"),
    Target("adjoint", "k_htau_sweep", "adjoint.k_htau_sweep"),
    Target("adjoint", "k_htau", "adjoint.k_htau", True),
    Target("adjoint", "RegressionCondexp.condexp", "adjoint.condexp", True),
    Target("adjoint", "regression_condexp", "adjoint.regression_condexp"),
    Target("optimizer", "gradient_descent", "optimizer.gradient_descent", True,
           on_return=_gd_iters),
    Target("optimizer", "direct_solve", "optimizer.direct_solve"),
    Target("optimizer", "cost", "optimizer.cost", True),
    Target("optimizer", "control_inner", "optimizer.control_inner", True),
    Target("riccati", "solve_riccati", "riccati.solve_riccati"),
    Target("riccati", "solve_phi", "riccati.solve_phi"),
    Target("riccati", "_closed_loop_stream", "riccati.closed_loop_stream",
           on_yield=_moment_entries),
    Target("experiments", "_joint_errors", "experiments.joint_errors"),
    Target("experiments", "_write_text_atomic", "experiments.io"),
    Target("experiments", "_write_manifest", "experiments.io"),
)

ROOT_LABEL = "experiments.self"
# optimizer.cg_iters counts apply_L calls made inside direct_solve: one per
# conjugate-gradient iteration.
_CG_OUTER, _CG_INNER = "optimizer.direct_solve", "forward.apply_L"


class Tracer:
    """Timing wrappers, a frame stack and the accumulated statistics."""

    def __init__(self):
        self.stats = defaultdict(float)
        self.absent = []
        self._stack = []  # [label, seconds covered by child frames]

    def reset(self):
        """Forget the statistics gathered so far (the wrappers stay)."""
        self.stats = defaultdict(float)
        self._stack = []

    # -- frames -------------------------------------------------------------

    def _enter(self, label):
        self._stack.append([label, 0.0])
        return _perf()

    def _exit(self, started):
        elapsed = _perf() - started
        label, covered = self._stack.pop()
        self.stats[label + ".s"] += elapsed - covered
        if self._stack:
            self._stack[-1][1] += elapsed

    def call_root(self, fn, *args, **kwargs):
        """Call fn as the root frame; its self time is ROOT_LABEL.s."""
        started = self._enter(ROOT_LABEL)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(started)

    def _add(self, prefix, hook, *args):
        """Accumulate a hook's counts; a hook that no longer fits the
        target's signature or result marks the stat absent instead of
        failing the run."""
        try:
            increments = hook(*args)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError):
            if f"{prefix}{hook.__name__}" not in self.absent:
                self.absent.append(f"{prefix}{hook.__name__}")
            return
        for key, value in increments.items():
            self.stats[prefix + key] += value

    def _on_call(self, target, args, kwargs):
        if target.calls:
            self.stats[target.label + ".calls"] += 1
        if target.on_call is not None:
            self._add(target.label + ".", target.on_call, args, kwargs)
        if target.label == _CG_INNER and any(f[0] == _CG_OUTER for f in self._stack):
            self.stats["optimizer.cg_iters"] += 1

    # -- wrappers -------------------------------------------------------------

    def _wrap_function(self, fn, target):
        tracer = self

        def traced(*args, **kwargs):
            tracer._on_call(target, args, kwargs)
            started = tracer._enter(target.label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(started)
            if target.on_return is not None:
                tracer._add("", target.on_return, result)
            return result

        return traced

    def _wrap_generator(self, fn, target):
        tracer = self

        def traced(*args, **kwargs):
            tracer._on_call(target, args, kwargs)
            return tracer._drive(fn(*args, **kwargs), target)

        return traced

    def _drive(self, items, target):
        while True:
            started = self._enter(target.label)
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                self._exit(started)
            if target.on_yield is not None:
                self._add("", target.on_yield, item)
            yield item

    def install(self):
        """Wrap every target that exists in the imported slqheat modules."""
        for target in TARGETS:
            try:
                owner = importlib.import_module("slqheat." + target.module)
            except ImportError:
                self.absent.append(target.module + "." + target.attr)
                continue
            *path, name = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            orig = getattr(owner, name, None)
            if not callable(orig):
                self.absent.append(target.module + "." + target.attr)
                continue
            wrap = self._wrap_generator if inspect.isgeneratorfunction(orig) else self._wrap_function
            traced = wrap(orig, target)
            if path:
                setattr(owner, name, traced)
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name == "slqheat" or mod_name.startswith("slqheat."):
                    for key, value in list(vars(module).items()):
                        if value is orig:
                            setattr(module, key, traced)
        return self
