"""The mask-estimation network: configuration, weights, init, forward pass.

Input is an (L, 257) magnitude spectrogram. A pointwise convolution (with a
frame-wise layer norm in front and ReLU behind) lifts it to d_model channels,
a stack of Mamba-plus-depthwise-conv layers follows, and a pointwise
convolution with sigmoid produces the estimated mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tz
from .layers import LayerWeights, MambaWeights, conv_mamba_layer
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
    # the summed batch gradient, laid out like flat (see grad_views)
    flat_grad: np.ndarray | None = field(default=None, repr=False)
    _grad_views: list[np.ndarray] = field(default_factory=list, repr=False)

    def named_parameters(self) -> list[Parameter]:
        return self._named

    def grad_views(self) -> list[np.ndarray]:
        """One view per parameter into flat_grad; both are made on the first
        call and reused after it."""
        if self.flat_grad is None:
            self.flat_grad, self._grad_views = new_flat(
                [p.tensor.data.shape for p in self._named], self.flat.dtype)
        return self._grad_views


def new_flat(shapes, dtype) -> tuple[np.ndarray, list[np.ndarray]]:
    """A new, unfilled flat array and its consecutive views, one of each
    shape."""
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    flat = np.empty(int(ends[-1]), dtype=dtype)
    return flat, [part.reshape(shape)
                  for part, shape in zip(np.split(flat, ends[:-1]), shapes)]


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
    return shapes


def count_params(cfg: ModelConfig) -> int:
    return sum(int(np.prod(s)) for _, s in parameter_shapes(cfg))


def build_weights(cfg: ModelConfig, flat: np.ndarray,
                  views: list[np.ndarray]) -> NetworkWeights:
    """The weight tree over flat whose trainable tensors wrap views, which
    are consecutive views of flat in parameter_shapes order; a non-trainable
    d_skip holds zeros outside flat."""
    remaining = iter(views)
    named: list[Parameter] = []

    def alloc(name, shape, init, trainable=True):
        if not trainable:
            return Tensor(np.zeros(shape), dtype=flat.dtype)
        t = Tensor._checked(next(remaining), requires_grad=True)
        named.append(Parameter(name, t))
        return t

    weights = _walk(cfg, alloc)
    weights._named = named
    weights.flat = flat
    return weights


def init_params(cfg: ModelConfig, seed: int, dtype=None) -> NetworkWeights:
    """Deterministic initialization: fan-in uniform projections, unit layer
    norms, log-spaced state decays, log-uniform softplus step sizes."""
    flat, views = new_flat([shape for _, shape in parameter_shapes(cfg)],
                           dtype or tz.default_dtype())
    remaining = iter(views)
    rng = np.random.default_rng(seed)
    names: set[str] = set()

    def draw(name, shape, init, trainable=True):
        if not trainable:
            return
        if name in names:
            raise AssertionError(f"duplicate parameter name {name}")
        names.add(name)
        kind = init[0]
        if kind == "uniform":
            data = rng.uniform(-1.0, 1.0, shape) / np.sqrt(init[1])
        elif kind == "zeros":
            data = np.zeros(shape)
        elif kind == "ones":
            data = np.ones(shape)
        elif kind == "a_log":
            data = a_log_init(*shape)
        elif kind == "dt_bias":
            data = dt_bias_init(shape[0], rng)
        else:
            raise AssertionError(kind)
        next(remaining)[...] = data

    _walk(cfg, draw)
    return build_weights(cfg, flat, views)


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

def forward(y_mag: Tensor, w: NetworkWeights, cfg: ModelConfig) -> Tensor:
    """Estimate an (L, bins) time-frequency mask in [0, 1] from an (L, bins)
    magnitude input."""
    if y_mag.data.ndim != 2 or y_mag.data.shape[1] != cfg.bins:
        raise ValueError(f"expected (L, {cfg.bins}) input, got {y_mag.data.shape}")
    outer_padding = "causal" if cfg.outer_conv_causal else "centered"
    x = tz.layer_norm(y_mag, w.in_ln_gamma, w.in_ln_beta)
    x = tz.relu(tz.add(tz.matmul(x, w.in_weight), w.in_bias))
    for layer in w.layers:
        x = conv_mamba_layer(x, layer, outer_padding)
    logits = tz.add(tz.matmul(x, w.out_weight), w.out_bias)
    return tz.sigmoid(logits)
