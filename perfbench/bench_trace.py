"""In-memory span tracer that wraps lcv's functions from outside the package.

Each target names a function by the module that defines it.  Tracing
replaces every module-level binding of that function object in the loaded
``lcv`` modules (the defining module and every module that imported it),
so callers that resolve the name at call time go through the wrapper and
no file of the package changes.  A target whose function no longer exists
is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

# Computed work, from array shapes only.  Byte counts assume every operand
# is streamed from memory once per pass (no cache reuse) and are labelled
# computed; float64 is 8 bytes.


def _cost_volume_work(f1, f2, W, u, v):
    # g2 = W @ f2 is 2 c^2 hw flop; each of the u*v window offsets is one
    # multiply-add over c*h*w.  Bytes: W, f1, f2 once, then per offset one
    # pass over f1, one over the shifted g2 and one cost plane written.
    c, h, w = f1.data.shape
    flop = 2 * c * c * h * w + 2 * u * v * c * h * w
    nbytes = 8 * (c * c + 2 * c * h * w + u * v * (2 * c * h * w + h * w))
    return flop, nbytes


def _grad_w_work(f1, f2, dC):
    # Per window offset one multiply-add of a cost plane into c*h*w, then
    # the (c, hw) @ (hw, c) product: 2 u v c h w + 2 c^2 h w.
    u, v = dC.shape[:2]
    c, h, w = f1.shape
    return 2 * u * v * c * h * w + 2 * c * c * h * w, 0


def _kernel_grad_work(kernel, dL_dW):
    # n = channels.  P (G + G^T): 2 n^3; the einsum diag(P G^T P^T) without
    # contraction order: 3 n^3; (I + P)^T dL/dP: 2 n^3; solve with n
    # right-hand sides: 2/3 n^3 (LU) + 2 n^3.  Total 29/3 n^3.
    n = kernel.dim
    return 29 * n**3 // 3, 0


def _cayley_forward_work(S):
    # solve(I + S, I - S): 2/3 n^3 (LU) + 2 n^3 (n right-hand sides).
    n = S.shape[0]
    return 8 * n**3 // 3, 0


# (span name, defining module, function name, computed-work formula)
TARGETS = (
    ("harness.run_experiment", "lcv.harness", "run_experiment", None),
    ("harness.train_kernel", "lcv.harness", "train_kernel", None),
    ("harness.generate", "lcv.harness", "generate", None),
    ("harness.perturb", "lcv.harness", "perturb", None),
    ("harness.matching_loss", "lcv.harness", "matching_loss", None),
    # The only private name wrapped: the gradient back to W has no public one.
    ("harness.grad_w", "lcv.harness", "_grad_w_from_costs", _grad_w_work),
    ("costvolume.cost_volume_bilinear", "lcv.costvolume", "cost_volume_bilinear", _cost_volume_work),
    ("costvolume.decode_flow_argmax", "lcv.costvolume", "decode_flow_argmax", None),
    ("costvolume.epe", "lcv.costvolume", "epe", None),
    ("costvolume.fl_all", "lcv.costvolume", "fl_all", None),
    ("costvolume.read_tensor", "lcv.costvolume", "read_tensor", None),
    ("costvolume.write_tensor", "lcv.costvolume", "write_tensor", None),
    ("kernel.kernel_grad", "lcv.kernel", "kernel_grad", _kernel_grad_work),
    ("kernel.assemble_kernel", "lcv.kernel", "assemble_kernel", None),
    ("kernel.load_kernel", "lcv.kernel", "load_kernel", None),
    ("kernel.save_kernel", "lcv.kernel", "save_kernel", None),
    ("cayley.cayley_forward", "lcv.cayley", "cayley_forward", _cayley_forward_work),
    ("cayley.lambda_from_t", "lcv.cayley", "lambda_from_t", None),
    ("cayley.dlambda_dt", "lcv.cayley", "dlambda_dt", None),
    ("optim.cayley_sgd_step", "lcv.optim", "cayley_sgd_step", None),
    ("cli.main", "lcv.cli", "main", None),
)

WORK_SPANS = tuple(name for name, _, _, work in TARGETS if work is not None)
BYTES_SPANS = ("costvolume.cost_volume_bilinear",)


class Tracer:
    """Context manager that records spans ``[name, start, end, parent]``.

    ``parent`` is the index of the enclosing span in :attr:`spans`, or -1.
    Computed work is summed per span name in :attr:`flop` and :attr:`nbytes`.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.flop: dict[str, int] = defaultdict(int)
        self.nbytes: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, work):
        spans, stack = self.spans, self._stack
        flop, nbytes = self.flop, self.nbytes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
                if work is not None:
                    f, b = work(*args, **kwargs)
                    flop[name] += f
                    nbytes[name] += b

        return wrapper

    def __enter__(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "lcv" or key.startswith("lcv."))]
        for name, module_name, attr, work in self.targets:
            try:
                fn = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn, work)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patched.append((module, key, fn))
                        setattr(module, key, wrapper)
        return self

    def __exit__(self, *exc):
        for module, key, fn in reversed(self._patched):
            setattr(module, key, fn)
        self._patched.clear()
        return False

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls and self seconds per span name; absent targets read zero."""
        out = {name: {"calls": 0, "self_s": 0.0} for name, *_ in self.targets}
        for (name, *_), own in zip(self.spans, self.self_times()):
            out[name]["calls"] += 1
            out[name]["self_s"] += own
        return out
