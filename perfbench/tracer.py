"""Spans around the program's public functions, recorded from outside.

Tracer replaces a function in every program module that binds it (so both
`network.conv_mamba_layer` and `layers.selective_scan_seq` style look-ups
are caught), and wraps each adjoint handed to `tensor._finish` so backward
work gets its own span named after the op. Spans are kept in memory as
[name, start, end, parent, request] and written out once, at the end.

StepClock is the only hook the untraced run installs: one timestamp per
Adam step and the audio length of each training batch, so steady-state
steps can be told apart from initialisation, validation and checkpointing.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from pathlib import Path

import spec

# adjoint span names for ops that are not in the tensor module
_BWD_LAYER = {"selective_scan": "scan.selective_scan",
              "depthwise_conv1d": "layers.depthwise_conv1d"}


class _Patches:
    """Module attributes replaced for the lifetime of a `with` block."""

    def __init__(self, modules):
        self.modules = modules
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, original, make_wrapper) -> None:
        wrapper = make_wrapper(original)
        functools.update_wrapper(wrapper, original)
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()


class Tracer:
    def __init__(self, program):
        """program: namespace of the imported convmamba modules."""
        self.program = program
        self.spans: list[list] = []
        self.request = -1
        self.slab_bytes: list[int] = []
        self.tape_ops: list[int] = []
        self._stack: list[int] = []
        self._patches = _Patches([getattr(program, m) for m in program.MODULES])

    # -- recording --------------------------------------------------------

    def _enter(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.request]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _exit(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def timed(self, fn, name: str, probe=None):
        def wrapper(*args, **kwargs):
            if probe is not None:
                probe(*args)
            rec = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(rec)
        return wrapper

    @contextlib.contextmanager
    def root(self, name: str, request: int):
        """Span of one benchmark operation; its descendants share its id."""
        self.request = request
        rec = self._enter(name)
        try:
            yield
        finally:
            self._exit(rec)

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        prog = self.program
        for layer, fn_name, kind in spec.TRACED:
            fn = getattr(getattr(prog, layer), fn_name)
            prefix = spec.metric_prefix(layer, fn_name)
            name = f"{prefix}.fwd" if kind == "fb" else prefix
            probe = None
            if (layer, fn_name) == ("scan", "selective_scan_seq"):
                probe = self._probe_scan
            elif (layer, fn_name) == ("tensor", "backward"):
                probe = self._probe_tape
            self._patches.replace(
                fn, lambda f, name=name, probe=probe: self.timed(f, name, probe))
        self._patches.replace(prog.tensor._finish, self._wrap_finish)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()

    def _wrap_finish(self, finish):
        def traced_finish(op_name, out_data, inputs, backward_fn):
            prefix = _BWD_LAYER.get(op_name, f"tensor.{op_name}")
            return finish(op_name, out_data, inputs,
                          self.timed(backward_fn, f"{prefix}.bwd"))
        return traced_finish

    def _probe_scan(self, u, si, p, *rest) -> None:
        length, d_inner = u.data.shape
        self.slab_bytes.append(length * d_inner * p.a_log.data.shape[1]
                               * u.data.dtype.itemsize)

    def _probe_tape(self, loss, tape, *rest) -> None:
        self.tape_ops.append(len(tape))

    # -- results ----------------------------------------------------------

    def self_times(self) -> tuple[dict, dict]:
        """(summed self seconds, call count) per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
        return self_s, calls

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer timing and call count named in spec.TRACED."""
        self_s, calls = self.self_times()
        out = {}
        for layer, fn_name, kind in spec.TRACED:
            prefix = spec.metric_prefix(layer, fn_name)
            if kind == "fb":
                out[f"{prefix}.fwd_ms"] = 1e3 * self_s.get(f"{prefix}.fwd", 0.0)
                out[f"{prefix}.bwd_ms"] = 1e3 * self_s.get(f"{prefix}.bwd", 0.0)
                out[f"{prefix}.calls"] = calls.get(f"{prefix}.fwd", 0)
            else:
                out[f"{prefix}.ms"] = 1e3 * self_s.get(prefix, 0.0)
                out[f"{prefix}.calls"] = calls.get(prefix, 0)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_us,end_us,parent,request\n")
            for i, (name, start, end, parent, req) in enumerate(self.spans):
                fh.write(f"{i},{name},{1e6 * (start - t0):.1f},"
                         f"{1e6 * (end - t0):.1f},{parent},{req}\n")


class StepClock:
    """Timestamps at the end of every Adam step inside a `with` block, each
    paired with the item count and audio seconds of that step's batch.

    between_steps, if given, runs after step 1 and then after every
    `every`-th step; its time is left out of both neighbouring steps.
    """

    def __init__(self, program, between_steps=None, every: int = 1):
        self.program = program
        self.between_steps = between_steps
        self.every = every
        self.steps: list[tuple[float, float, int, float]] = []  # (start, end, items, audio s)
        self._pending = (0, 0.0)
        self._patches = _Patches([program.training])

    def __enter__(self) -> "StepClock":
        self._resume = time.perf_counter()

        def make_batch(fn):
            def wrapper(items):
                self._pending = (len(items),
                                 sum(it.meta["n_samples"] for it in items) / 16000.0)
                return fn(items)
            return wrapper

        def adam_step(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.steps.append((self._resume, time.perf_counter()) + self._pending)
                if self.between_steps is not None and (len(self.steps) - 1) % self.every == 0:
                    self.between_steps()
                self._resume = time.perf_counter()
                return out
            return wrapper

        self._patches.replace(self.program.training.make_batch, make_batch)
        self._patches.replace(self.program.training.adam_step, adam_step)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()

    def durations(self) -> list[tuple[float, int, float]]:
        """(seconds, items, audio s) per step; step 1 runs from the start of
        the block, so it also holds model init and validation sampling."""
        return [(end - start, items, audio_s) for start, end, items, audio_s in self.steps]
