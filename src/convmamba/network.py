"""The mask-estimation network: configuration, weights, init, forward pass.

Input is an (L, 257) magnitude spectrogram. A pointwise convolution (with a
frame-wise layer norm in front and ReLU behind) lifts it to d_model channels,
a stack of Mamba-plus-depthwise-conv layers follows, and a pointwise
convolution with sigmoid produces the estimated mask.

forward is the whole-sequence network, the same taped or untaped. Long files
stream through stream_mask (pipeline.enhance_waveform's network stage),
which runs a unidirectional model one time block (block_frames) at a time,
pipelined over the usable cores, and hands each block of mask rows on as
soon as it is done.
"""

from __future__ import annotations

import math
import os
import queue
import threading
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tz
from .layers import LayerState, LayerWeights, MambaWeights, conv_mamba_layer
from .scan import SsmParams, a_log_init, dt_bias_init, dt_rank_for
from .tensor import Parameter, Tensor

PRESETS = {
    "mamba-4": dict(n_layers=4, conv_refine=False),
    "mamba-7": dict(n_layers=7, conv_refine=False),
    "convmamba-4": dict(n_layers=4, conv_refine=True),
    "convmamba-7": dict(n_layers=7, conv_refine=True),
    "convmamba-13": dict(n_layers=13, conv_refine=True),
}


@dataclass
class ModelConfig:
    d_model: int = 256
    n_layers: int = 4
    n_state: int = 16
    inner_conv_width: int = 4
    expansion: int = 2
    outer_dw_kernel: int = 3
    bins: int = 257
    bidirectional: bool = False
    learnable_skip: bool = False
    conv_refine: bool = True
    outer_conv_causal: bool = False

    def __post_init__(self):
        for name in ("d_model", "n_layers", "n_state", "inner_conv_width",
                     "expansion", "outer_dw_kernel", "bins"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.conv_refine and not self.outer_conv_causal and self.outer_dw_kernel % 2 == 0:
            raise ValueError("a centred outer conv needs an odd outer_dw_kernel")

    @property
    def d_inner(self) -> int:
        return self.expansion * self.d_model

    @property
    def dt_rank(self) -> int:
        return dt_rank_for(self.d_model)

    @classmethod
    def preset(cls, name: str, **overrides) -> "ModelConfig":
        if name not in PRESETS:
            raise ValueError(f"unknown preset {name!r} (have {sorted(PRESETS)})")
        kwargs = dict(PRESETS[name])
        kwargs.update(overrides)
        return cls(**kwargs)


@dataclass
class NetworkWeights:
    in_ln_gamma: Tensor
    in_ln_beta: Tensor
    in_weight: Tensor
    in_bias: Tensor
    layers: list[LayerWeights]
    out_weight: Tensor
    out_bias: Tensor
    _named: list[Parameter] = field(default_factory=list, repr=False)
    # every trainable value, in canonical order; each parameter's data is a
    # view into it
    flat: np.ndarray | None = field(default=None, repr=False)
    # the summed batch gradient, laid out like flat
    flat_grad: np.ndarray | None = field(default=None, repr=False)

    def named_parameters(self) -> list[Parameter]:
        return self._named


# ---------------------------------------------------------------------------
# structural walk shared by init, building, and counting
# ---------------------------------------------------------------------------

def _walk(cfg: ModelConfig, alloc) -> NetworkWeights:
    """Build the weight tree from what alloc(name, shape, init, trainable)
    returns for each tensor.

    init is one of ("uniform", fan_in), ("zeros",), ("ones",), ("a_log",),
    ("dt_bias",). Call order is the canonical parameter order.
    """

    def mamba_block(prefix: str) -> MambaWeights:
        d_in = cfg.d_inner
        ssm = SsmParams(
            a_log=alloc(f"{prefix}.ssm.a_log", (d_in, cfg.n_state), ("a_log",)),
            d_skip=alloc(f"{prefix}.ssm.d_skip", (d_in,),
                         ("ones",) if cfg.learnable_skip else ("zeros",),
                         trainable=cfg.learnable_skip),
            x_proj_weight=alloc(f"{prefix}.ssm.x_proj.weight",
                                (d_in, cfg.dt_rank + 2 * cfg.n_state),
                                ("uniform", d_in)),
            dt_proj_weight=alloc(f"{prefix}.ssm.dt_proj.weight",
                                 (cfg.dt_rank, d_in), ("uniform", cfg.dt_rank)),
            dt_proj_bias=alloc(f"{prefix}.ssm.dt_proj.bias", (d_in,), ("dt_bias",)))
        return MambaWeights(
            in_proj_x=alloc(f"{prefix}.in_proj_x.weight", (cfg.d_model, d_in),
                            ("uniform", cfg.d_model)),
            in_proj_gate=alloc(f"{prefix}.in_proj_gate.weight", (cfg.d_model, d_in),
                               ("uniform", cfg.d_model)),
            conv_kernel=alloc(f"{prefix}.conv.kernel", (d_in, cfg.inner_conv_width),
                              ("uniform", cfg.inner_conv_width)),
            conv_bias=alloc(f"{prefix}.conv.bias", (d_in,), ("zeros",)),
            ssm=ssm,
            ln_gamma=alloc(f"{prefix}.ln.gamma", (d_in,), ("ones",)),
            ln_beta=alloc(f"{prefix}.ln.beta", (d_in,), ("zeros",)),
            out_proj=alloc(f"{prefix}.out_proj.weight", (d_in, cfg.d_model),
                           ("uniform", d_in)))

    layers = []
    in_ln_gamma = alloc("input_ln.gamma", (cfg.bins,), ("ones",))
    in_ln_beta = alloc("input_ln.beta", (cfg.bins,), ("zeros",))
    in_weight = alloc("input_proj.weight", (cfg.bins, cfg.d_model),
                      ("uniform", cfg.bins))
    in_bias = alloc("input_proj.bias", (cfg.d_model,), ("zeros",))
    for i in range(cfg.n_layers):
        prefix = f"layers.{i}"
        layer = LayerWeights(
            mamba_ln_gamma=alloc(f"{prefix}.mamba_ln.gamma", (cfg.d_model,), ("ones",)),
            mamba_ln_beta=alloc(f"{prefix}.mamba_ln.beta", (cfg.d_model,), ("zeros",)),
            mamba=mamba_block(f"{prefix}.mamba"))
        if cfg.bidirectional:
            layer.mamba_rev = mamba_block(f"{prefix}.mamba_rev")
        if cfg.conv_refine:
            layer.conv_ln_gamma = alloc(f"{prefix}.conv_ln.gamma", (cfg.d_model,), ("ones",))
            layer.conv_ln_beta = alloc(f"{prefix}.conv_ln.beta", (cfg.d_model,), ("zeros",))
            layer.conv_kernel = alloc(f"{prefix}.conv.kernel",
                                      (cfg.d_model, cfg.outer_dw_kernel),
                                      ("uniform", cfg.outer_dw_kernel))
            layer.conv_bias = alloc(f"{prefix}.conv.bias", (cfg.d_model,), ("zeros",))
            layer.lookahead = 0 if cfg.outer_conv_causal else (cfg.outer_dw_kernel - 1) // 2
        layers.append(layer)
    out_weight = alloc("output_proj.weight", (cfg.d_model, cfg.bins),
                       ("uniform", cfg.d_model))
    out_bias = alloc("output_proj.bias", (cfg.bins,), ("zeros",))
    return NetworkWeights(in_ln_gamma, in_ln_beta, in_weight, in_bias,
                          layers, out_weight, out_bias)


def parameter_shapes(cfg: ModelConfig) -> list[tuple[str, tuple]]:
    """Canonical (name, shape) list of the trainable parameters."""
    shapes: list[tuple[str, tuple]] = []

    def alloc(name, shape, init, trainable=True):
        if trainable:
            shapes.append((name, tuple(shape)))
        # the tree is discarded

    _walk(cfg, alloc)
    if len(dict(shapes)) != len(shapes):
        raise AssertionError("duplicate parameter name")
    return shapes


def count_params(cfg: ModelConfig) -> int:
    return sum(math.prod(s) for _, s in parameter_shapes(cfg))


def new_weights(cfg: ModelConfig, dtype, buffer=None, fill=None) -> NetworkWeights:
    """The weight tree of cfg over one flat array of dtype, new or laid over
    the start of a writable buffer. Its trainable tensors wrap consecutive
    views of it in parameter_shapes order, each filled by fill(view, init)
    in that order when fill is given (init as _walk describes), else left
    as the memory holds them. A non-trainable d_skip holds zeros outside
    the flat array."""
    size = count_params(cfg)
    flat = (np.empty(size, dtype=dtype) if buffer is None
            else np.frombuffer(buffer, dtype=dtype, count=size))
    named: list[Parameter] = []
    start = 0

    def alloc(name, shape, init, trainable=True):
        nonlocal start
        if not trainable:
            return Tensor(np.zeros(shape), dtype=dtype)
        view = flat[start:start + math.prod(shape)].reshape(shape)
        start += view.size
        if fill is not None:
            fill(view, init)
        t = Tensor._checked(view, requires_grad=True)
        named.append(Parameter(name, t))
        return t

    weights = _walk(cfg, alloc)
    weights._named = named
    weights.flat = flat
    return weights


def init_params(cfg: ModelConfig, seed: int, dtype=None) -> NetworkWeights:
    """Deterministic initialization: fan-in uniform projections, unit layer
    norms, log-spaced state decays, log-uniform softplus step sizes."""
    rng = np.random.default_rng(seed)

    def fill(view, init):
        kind = init[0]
        if kind == "uniform":
            view[...] = rng.uniform(-1.0, 1.0, view.shape) / np.sqrt(init[1])
        elif kind == "a_log":
            view[...] = a_log_init(*view.shape)
        elif kind == "dt_bias":
            view[...] = dt_bias_init(view.shape[0], rng)
        else:
            view[...] = {"zeros": 0.0, "ones": 1.0}[kind]

    return new_weights(cfg, dtype or tz.default_dtype(), fill=fill)


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

def block_frames(d_inner: int, itemsize: int) -> int:
    """Frames per time block of stream_mask: as many as fit a (frames,
    d_inner) buffer in 256 KiB, so a block's intermediates stay in L2 where a
    whole long file's spill out of it (128 frames at d_inner 512 in float32).
    Of 64, 128, 256 and 512 frames there, 128 and 256 enhanced 1-32 s files
    fastest, and a shorter block fills the layer-group pipeline sooner."""
    return max(1, 256 * 1024 // (d_inner * itemsize))


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def forward(y_mag: Tensor, w: NetworkWeights, cfg: ModelConfig) -> Tensor:
    """Estimate an (L, bins) time-frequency mask in [0, 1] from an (L, bins)
    magnitude input: the embedding, every layer over the whole sequence
    with no carried state, and the mask projection."""
    if y_mag.data.ndim != 2 or y_mag.data.shape[1] != cfg.bins:
        raise ValueError(f"expected (L, {cfg.bins}) input, got {y_mag.data.shape}")
    x = _embed(y_mag, w)
    for layer in w.layers:
        x = conv_mamba_layer(x, layer)
    return _mask(x, w)


def _embed(y: Tensor, w: NetworkWeights) -> Tensor:
    """Input layer norm, projection to d_model and ReLU."""
    x = tz.layer_norm(y, w.in_ln_gamma, w.in_ln_beta)
    return tz.relu(tz.add(tz.matmul(x, w.in_weight), w.in_bias))


def _mask(x: Tensor, w: NetworkWeights) -> Tensor:
    """Projection to bins and sigmoid."""
    return tz.sigmoid(tz.add(tz.matmul(x, w.out_weight), w.out_bias))


# spans a layer group may finish ahead of the next one: enough to keep both
# busy, few enough that a long file's spans never pile up between them
_QUEUED_SPANS = 2


def _received(inbox: queue.Queue):
    """The blocks put in inbox, up to the None that ends them."""
    while (block := inbox.get()) is not None:
        yield block


def stream_mask(source, w: NetworkWeights, cfg: ModelConfig, sink) -> np.ndarray:
    """The untaped (frames, bins) mask of the len(source) magnitude frames
    that source gives, with sink(rows) called on each span of mask rows that
    has any, in frame order, as soon as the span is written.

    source[t:t + n] gives the magnitude rows of frames t to t + n, in
    source.dtype, and is read one time block of block_frames frames at a
    time, in frame order. A bidirectional model reads the whole input at
    once, runs forward and hands the whole mask to sink.

    A unidirectional model runs block by block. The first layer group reads
    each block from source and embeds it; the last one turns each span of
    its output into mask rows, writes them into the mask and passes them to
    sink. Each layer carries a LayerState from one span to the next, so the
    result is forward's up to the rounding of row-blocked matmuls. A centred
    outer conv makes each layer's output lag its input by its lookahead, so
    layer i's spans end i * (outer_dw_kernel - 1) / 2 frames before each
    multiple of the block; with a causal one they end on them. The spans
    depend only on the frame count, the config and the dtype.

    The layers split into min(usable cores, n_layers, blocks) contiguous
    groups, so a one-block input runs on the calling thread alone. The
    calling thread runs the first group; each other group runs on a thread
    of its own, and takes each span from the group before it as soon as that
    span is done, at most _QUEUED_SPANS behind it. A group's error stops
    every group, and once all threads have ended, the error of the failing
    group nearest the input is raised.
    """
    if cfg.bidirectional:
        mask = forward(Tensor._checked(source[0:len(source)], False), w, cfg).data
        sink(mask)
        return mask
    dtype = np.result_type(source.dtype, w.in_weight.data)
    block = block_frames(cfg.d_inner, dtype.itemsize)
    starts = range(0, len(source), block)
    n_groups = min(_usable_cores(), len(w.layers), len(starts))
    cuts = [len(w.layers) * g // n_groups for g in range(n_groups + 1)]
    inboxes = [queue.Queue(_QUEUED_SPANS) for _ in range(n_groups)]
    mask = np.empty((len(source), cfg.bins), dtype=dtype)
    errors: list[BaseException | None] = [None] * n_groups
    failed = threading.Event()

    def run(g: int, blocks) -> None:
        layers = w.layers[cuts[g]:cuts[g + 1]]
        states = [LayerState.zeros(layer, dtype) for layer in layers]
        done = 0    # mask rows written, by the last group
        try:
            for k, h in enumerate(blocks):
                if failed.is_set():
                    break
                if g == 0:
                    h = _embed(Tensor._checked(source[h:h + block], False), w)
                else:
                    h = Tensor._checked(h, False)
                for layer, state in zip(layers, states):
                    h = conv_mamba_layer(h, layer, state, final=k == len(starts) - 1)
                if g + 1 < n_groups:
                    inboxes[g + 1].put(h.data)
                    continue
                rows = mask[done:done + len(h.data)]
                rows[...] = _mask(h, w).data
                if len(rows):
                    sink(rows)
                done += len(rows)
        except BaseException as exc:
            errors[g] = exc
            failed.set()
        finally:
            if g + 1 < n_groups:
                inboxes[g + 1].put(None)
            if g > 0:
                # a group that stopped early takes the rest, so the one
                # before it is never left waiting for room
                for _ in blocks:
                    pass

    threads = [threading.Thread(target=run, args=(g, _received(inboxes[g])),
                                name=f"convmamba-layers-{g}")
               for g in range(1, n_groups)]
    for thread in threads:
        thread.start()
    run(0, starts)
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return mask
