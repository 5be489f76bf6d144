"""Dynamic-mixing training: sampling, batching, Adam, schedule, loop.

Each step draws clean utterances (epoch-shuffled), mixes each with a random
noise segment at an integer SNR drawn uniformly from the configured range,
builds the mask target, and takes one clipped Adam step on the mask MSE.
The items of a batch run forward and backward on their own tapes, side by
side on one worker thread per usable core, and their gradients are summed in
item order, so the step does not depend on the worker count. The learning
rate follows the inverse-sqrt warm-up schedule unless disabled, in which
case the fixed base rate applies. Validation pairs are premixed
once from a derived seed and scored after every epoch; the best checkpoint
is the one with the lowest validation loss.
"""

from __future__ import annotations

import contextlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as tz
from .audio import (DegenerateSignalError, StftConfig, Waveform, load_wav,
                    magnitude, mix_at_snr)
from .checkpoint import save_checkpoint
from .masks import MaskKind, mask_mse_loss, mask_target
from .network import ModelConfig, NetworkWeights, forward, init_params
from .tensor import Tape, Tensor, backward


@dataclass
class TrainConfig:
    batch_size: int = 10
    snr_lo: int = -10
    snr_hi: int = 20
    target: MaskKind = MaskKind.IRM
    lr_base: float = 1e-3
    lr_scale: float = 1.0
    use_warmup: bool = True
    warmup_steps: int = 40_000
    epochs: int = 150
    seed: int = 0
    max_steps: int = 0        # 0 = run all epochs
    val_items: int = 4
    val_every: int = 1         # epochs between validation passes
    checkpoint_every: int = 1  # epochs; 0 = only best and final

    def __post_init__(self):
        if self.batch_size < 1 or self.warmup_steps < 1:
            raise ValueError("batch_size and warmup_steps must be >= 1")
        if self.snr_lo > self.snr_hi:
            raise ValueError("snr range must be ordered")


# ---------------------------------------------------------------------------
# schedule / optimizer
# ---------------------------------------------------------------------------

def warmup_lr(step: int, d_model: int, warmup_steps: int) -> float:
    """Inverse-sqrt warm-up: d_model^-0.5 * min(step^-0.5, step*warmup^-1.5).

    The linear branch is evaluated as (step/warmup) * warmup^-0.5 so the two
    branches agree exactly at the crossover step.
    """
    if step < 1:
        raise ValueError("step must be >= 1")
    return d_model ** -0.5 * min(step ** -0.5,
                                 (step / warmup_steps) * warmup_steps ** -0.5)


def lr_for_step(step: int, d_model: int, cfg: TrainConfig) -> float:
    if cfg.use_warmup:
        return cfg.lr_scale * warmup_lr(step, d_model, cfg.warmup_steps)
    return cfg.lr_base


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
CLIP = 1.0   # the paper clips gradients elementwise to [-1, 1]


@dataclass
class AdamState:
    m: np.ndarray | None = None   # moments, laid out like the flat parameters
    v: np.ndarray | None = None
    step: int = 0


# elements per Adam pass: the six block-sized arrays a pass touches fit a
# 2 MB L2 at float32; whole-array passes over a 1.9M-parameter model would
# stream every operand from memory and take about twice as long
ADAM_BLOCK = 1 << 16


def adam_step(params: np.ndarray, grad: np.ndarray, state: AdamState,
              lr: float) -> None:
    """Bias-corrected Adam update of a flat parameter array in place, one
    cache-sized block at a time."""
    if grad.shape != params.shape:
        raise ValueError(f"gradient shape {grad.shape} does not match"
                         f" parameters {params.shape}")
    if state.m is None:
        state.m = np.zeros_like(params)
        state.v = np.zeros_like(params)
    state.step += 1
    b1 = ADAM_BETA1
    b2 = ADAM_BETA2
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    tmp_block = np.empty(min(params.size, ADAM_BLOCK), dtype=params.dtype)
    update_block = np.empty_like(tmp_block)
    for start in range(0, params.size, ADAM_BLOCK):
        block = slice(start, start + ADAM_BLOCK)
        p, g, m, v = params[block], grad[block], state.m[block], state.v[block]
        tmp, update = tmp_block[:p.size], update_block[:p.size]
        # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
        # p -= lr (m / c1) / (sqrt(v / c2) + eps), in place, each product and
        # quotient taken in the order these expressions give
        m *= b1
        np.multiply(g, 1.0 - b1, out=tmp)
        m += tmp
        v *= b2
        np.multiply(g, 1.0 - b2, out=tmp)
        tmp *= g
        v += tmp
        np.divide(v, c2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        np.divide(m, c1, out=update)
        update *= lr
        update /= tmp
        p -= update


def clip_gradients(grad: np.ndarray) -> np.ndarray:
    """Clip a flat gradient to [-CLIP, CLIP] in place."""
    return np.clip(grad, -CLIP, CLIP, out=grad)


# ---------------------------------------------------------------------------
# data sampling and batching
# ---------------------------------------------------------------------------

class WavPool:
    """A list of WAV paths with cached decoding."""

    def __init__(self, paths):
        self.paths = [Path(p) for p in paths]
        if not self.paths:
            raise ValueError("empty pool")
        self._cache: dict[Path, Waveform] = {}

    def __len__(self):
        return len(self.paths)

    def load(self, index: int) -> Waveform:
        path = self.paths[index]
        if path not in self._cache:
            self._cache[path] = load_wav(path)
        return self._cache[path]


def list_pool(root, manifest=None) -> list[Path]:
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"data root not found: {root}")
    if manifest is not None:
        lines = Path(manifest).read_text(encoding="utf-8").splitlines()
        paths = [root / line.strip() for line in lines if line.strip()]
    else:
        paths = sorted(root.rglob("*.wav"))
    if not paths:
        raise FileNotFoundError(f"no wav files under {root}")
    return paths


@dataclass
class TrainItem:
    noisy_mag: np.ndarray   # (frames, bins)
    target: np.ndarray      # (frames, bins)
    meta: dict


def sample_mixture(clean_pool: WavPool, noise_pool: WavPool, cfg: TrainConfig,
                   rng: np.random.Generator, clean_index: int | None = None,
                   stft_cfg: StftConfig | None = None) -> TrainItem:
    """Mix one clean utterance with a random noise clip at a random integer
    SNR and build the mask target. Degenerate draws are retried 10 times."""
    stft_cfg = stft_cfg or StftConfig()
    for attempt in range(10):
        ci = int(rng.integers(0, len(clean_pool))) if clean_index is None else clean_index
        ni = int(rng.integers(0, len(noise_pool)))
        snr_db = int(rng.integers(cfg.snr_lo, cfg.snr_hi + 1))
        try:
            clean = clean_pool.load(ci)
            noisy, _ = mix_at_snr(clean, noise_pool.load(ni), snr_db, rng)
        except DegenerateSignalError:
            continue
        spec_y, target = mask_target(clean, noisy, cfg.target, stft_cfg)
        meta = dict(clean=str(clean_pool.paths[ci]), noise=str(noise_pool.paths[ni]),
                    snr_db=snr_db, n_samples=len(clean), frames=spec_y.shape[0])
        return TrainItem(magnitude(spec_y), target, meta)
    raise DegenerateSignalError("10 consecutive degenerate mixture draws")


def make_batch(items: list[TrainItem]) -> list[TrainItem]:
    """One train step's items, each at its own frame count; nothing is
    padded."""
    if not items:
        raise ValueError("empty batch")
    return list(items)


def _item_loss(item: TrainItem, weights: NetworkWeights,
               cfg: ModelConfig) -> Tensor:
    return mask_mse_loss(forward(Tensor(item.noisy_mag), weights, cfg), item.target)


def batch_loss(batch: list[TrainItem], weights: NetworkWeights,
               cfg: ModelConfig) -> Tensor:
    """Mean of per-utterance mask MSE, each item run at its own length."""
    total = None
    for item in batch:
        loss = _item_loss(item, weights, cfg)
        total = loss if total is None else tz.add(total, loss)
    return tz.scale(total, 1.0 / len(batch))


def _item_gradients(weights: NetworkWeights, item: TrainItem, n_items: int,
                    cfg: ModelConfig) -> tuple[np.ndarray, list]:
    """The item's loss, and the gradients of its 1/n_items share of the batch
    loss, one per parameter in named_parameters order (None for a parameter
    the loss does not reach). Only the item's own tape and the dict that
    backward returns hold them, so threads may share weights."""
    with Tape() as tape:
        loss = _item_loss(item, weights, cfg)
        share = tz.scale(loss, 1.0 / n_items)
    grads = backward(share, tape)
    return loss.data, [grads.get(p.tensor) for p in weights.named_parameters()]


def batch_gradients(batch: list[TrainItem], weights: NetworkWeights,
                    cfg: ModelConfig, workers: ThreadPoolExecutor | None = None) -> float:
    """Sum the gradient of batch_loss into weights.flat_grad, whose
    per-parameter views are weights.grad_views(), and return that loss.

    Each item runs forward and backward on its own tape: on the workers,
    which all share these weights, when given and the batch has more than
    one item, else one after another on the calling thread. The item
    gradients are summed in item order either way, so the result does not
    depend on the worker count. An item's exception is raised here, and
    items not yet started are dropped.
    """
    n = len(batch)
    run = map if workers is None or n == 1 else workers.map
    results = run(lambda item: _item_gradients(weights, item, n, cfg), batch)
    views = weights.grad_views()
    total = None
    for loss, grads in results:
        first = total is None
        total = loss if first else total + loss
        for view, g in zip(views, grads):
            if first:
                view[...] = 0.0 if g is None else g
            elif g is not None:
                view += g
    # the same additions and scaling as batch_loss's forward pass
    return float(total * total.dtype.type(1.0 / n))


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    steps: int
    final_train_loss: float
    best_epoch: int
    best_val_loss: float
    final_checkpoint: Path
    best_checkpoint: Path
    metrics_csv: Path


def train_loop(model_cfg: ModelConfig, train_cfg: TrainConfig,
               clean_pool: WavPool, noise_pool: WavPool, out_dir,
               stft_cfg: StftConfig | None = None) -> TrainResult:
    stft_cfg = stft_cfg or StftConfig()
    out_dir = Path(out_dir)
    ckpt_dir = out_dir / "checkpoints"
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    weights = init_params(model_cfg, train_cfg.seed)
    adam = AdamState()
    rng = np.random.default_rng(train_cfg.seed)
    val_rng = np.random.default_rng(train_cfg.seed + 1)
    val_items = [sample_mixture(clean_pool, noise_pool, train_cfg, val_rng,
                                stft_cfg=stft_cfg)
                 for _ in range(train_cfg.val_items)]

    csv_path = out_dir / "metrics.csv"
    best_val = math.inf
    best_epoch = 0
    best_path = ckpt_dir / "best.ckpt"
    final_path = ckpt_dir / "final.ckpt"
    step = 0
    last_loss = math.nan
    stop = False
    threads = min(_usable_cores(), train_cfg.batch_size)
    with open(csv_path, "w", encoding="utf-8") as log, (
            ThreadPoolExecutor(threads, thread_name_prefix="convmamba-item")
            if threads > 1 else contextlib.nullcontext()) as workers:
        log.write("step,epoch,split,loss,lr\n")
        for epoch in range(1, train_cfg.epochs + 1):
            order = rng.permutation(len(clean_pool))
            for start in range(0, len(order), train_cfg.batch_size):
                chunk = order[start:start + train_cfg.batch_size]
                items = [sample_mixture(clean_pool, noise_pool, train_cfg, rng,
                                        clean_index=int(ci), stft_cfg=stft_cfg)
                         for ci in chunk]
                batch = make_batch(items)
                last_loss = batch_gradients(batch, weights, model_cfg, workers)
                clip_gradients(weights.flat_grad)
                step += 1
                lr = lr_for_step(step, model_cfg.d_model, train_cfg)
                adam_step(weights.flat, weights.flat_grad, adam, lr)
                log.write(f"{step},{epoch},train,{last_loss:.10e},{lr:.10e}\n")
                if train_cfg.max_steps and step >= train_cfg.max_steps:
                    stop = True
                    break
            if stop or epoch % train_cfg.val_every == 0 or epoch == train_cfg.epochs:
                val_loss = batch_loss(val_items, weights, model_cfg).item()
                lr = lr_for_step(max(step, 1), model_cfg.d_model, train_cfg)
                log.write(f"{step},{epoch},val,{val_loss:.10e},{lr:.10e}\n")
                if val_loss < best_val:
                    best_val = val_loss
                    best_epoch = epoch
                    save_checkpoint(best_path, weights, model_cfg)
            if train_cfg.checkpoint_every and epoch % train_cfg.checkpoint_every == 0:
                save_checkpoint(ckpt_dir / f"epoch-{epoch:04d}.ckpt", weights, model_cfg)
            if stop:
                break
    save_checkpoint(final_path, weights, model_cfg)
    return TrainResult(step, last_loss, best_epoch, best_val, final_path,
                       best_path, csv_path)
