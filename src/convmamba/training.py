"""Dynamic-mixing training: sampling, batching, Adam, schedule, loop.

Each step draws clean utterances (epoch-shuffled), mixes each with a random
noise segment at an integer SNR drawn uniformly from the configured range,
builds the mask target, and takes one clipped Adam step on the mask MSE.
The items of a batch run forward and backward on their own tapes, side by
side in one worker process per usable core (ItemWorkers), and their
gradients are summed in item order, so the step does not depend on the worker
count. The learning rate follows the inverse-sqrt warm-up schedule unless
disabled, in which case the fixed base rate applies. Validation pairs are
premixed once from a derived seed and scored after every epoch; the best checkpoint
is the one with the lowest validation loss.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import pickle
import signal
import threading
import traceback
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import network
from . import tensor as tz
from .audio import (DegenerateSignalError, StftConfig, Waveform, decode_wav,
                    magnitude, mix_at_snr, read_wav)
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
        if self.snr_lo > self.snr_hi:
            raise ValueError(f"snr_lo {self.snr_lo} must be <= snr_hi {self.snr_hi}")
        for name, least in (("batch_size", 1), ("warmup_steps", 1), ("epochs", 1),
                            ("val_items", 1), ("val_every", 1), ("max_steps", 0),
                            ("checkpoint_every", 0), ("seed", 0)):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        for name in ("lr_base", "lr_scale"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")


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
    c1 = 1.0 - ADAM_BETA1 ** state.step
    c2 = 1.0 - ADAM_BETA2 ** state.step
    # elementwise formulas, so the bits do not depend on the blocking
    for start in range(0, params.size, ADAM_BLOCK):
        block = slice(start, start + ADAM_BLOCK)
        m, v, g = state.m[block], state.v[block], grad[block]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        params[block] -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


def clip_gradients(grad: np.ndarray) -> np.ndarray:
    """Clip a flat gradient to [-CLIP, CLIP] in place."""
    return np.clip(grad, -CLIP, CLIP, out=grad)


# ---------------------------------------------------------------------------
# data sampling and batching
# ---------------------------------------------------------------------------

# bytes of encoded samples one WavPool keeps: about 4.6 hours of PCM16, where
# float64 waveforms would take 4 times as much
POOL_BYTES = 512 << 20


class WavPool:
    """A list of WAV paths. Each file's samples are kept as the file encodes
    them (int16 or float32), the least recently loaded dropped first once more
    than POOL_BYTES are held, and every load decodes them to a new Waveform
    as load_wav does."""

    def __init__(self, paths):
        self.paths = [Path(p) for p in paths]
        if not self.paths:
            raise ValueError("empty pool")
        self._cache: OrderedDict[Path, tuple[np.ndarray, float]] = OrderedDict()
        self.held_bytes = 0

    def __len__(self):
        return len(self.paths)

    def load(self, index: int) -> Waveform:
        path = self.paths[index]
        entry = self._cache.get(path)
        if entry is None:
            entry = self._cache[path] = read_wav(path)
            self.held_bytes += entry[0].nbytes
            while self.held_bytes > POOL_BYTES:
                self.held_bytes -= self._cache.popitem(last=False)[1][0].nbytes
        else:
            self._cache.move_to_end(path)
        return decode_wav(path, *entry)


def list_pool(root, manifest=None) -> list[Path]:
    """The WAV files under root, or the ones a manifest names one per line
    relative to root, each of which must be a file that does not leave root
    by its path (symlinks are not resolved)."""
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"data root not found: {root}")
    if manifest is not None:
        try:
            lines = Path(manifest).read_text(encoding="utf-8").splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise ValueError(f"manifest {manifest} cannot be read: {exc}") from None
        names = [line.strip() for line in lines if line.strip()]
        for name in names:
            if os.path.isabs(name) or os.path.normpath(name).split(os.sep)[0] == "..":
                raise ValueError(f"manifest {manifest}: entry {name!r} leaves {root}")
            if not (root / name).is_file():
                raise ValueError(f"manifest {manifest}: entry {name!r} is not a file"
                                 f" under {root}")
        paths = [root / name for name in names]
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
                    cfg: ModelConfig, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The item's loss, and out holding the gradient of its 1/n_items share
    of the batch loss, laid out like weights.flat; every trainable parameter
    gets one. Until they are written there, only the item's own tape and the
    dict that backward returns hold the per-parameter gradients."""
    with Tape() as tape:
        loss = _item_loss(item, weights, cfg)
        share = tz.scale(loss, 1.0 / n_items)
    grads = backward(share, tape)
    return loss.data, np.concatenate(
        [grads[p.tensor] for p in weights.named_parameters()], axis=None, out=out)


class WorkerError(RuntimeError):
    """An item worker exited, or raised an exception that could not be sent
    back whole."""


def _portable(exc: Exception) -> tuple:
    """exc if it survives pickling, else its type and message; either way
    with the worker's traceback."""
    tb = "".join(traceback.format_exception(exc))
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return f"{type(exc).__module__}.{type(exc).__qualname__}: {exc}", tb
    return exc, tb


def _serve_items(conn, weights: NetworkWeights, cfg: ModelConfig,
                 slots: np.ndarray, parent_ends: list) -> None:
    """An item worker: for each (index, slot, n_items, item) it receives, it
    writes the item's gradient into row slot of slots and replies (index,
    loss, None), or (index, None, the error). It exits when its pipe
    closes."""
    for end in parent_ends:   # held open here, no pipe would ever read as closed
        end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)   # the parent stops us
    while True:
        try:
            index, slot, n_items, item = conn.recv()
        except EOFError:
            return
        try:
            reply = index, _item_gradients(weights, item, n_items, cfg, slots[slot])[0], None
        except Exception as exc:
            reply = (index, None, _portable(exc))
        conn.send(reply)


class ItemWorkers:
    """count processes, forked once, that run items' forward and backward.

    The weights they read are a copy of the given ones in an anonymous shared
    mapping (self.weights), so an in-place update there, such as Adam's, is
    what the next item sees. An item travels to an idle worker over its pipe;
    the worker writes the item's gradient into one slot of a shared ring of
    2 * count, a flat array laid out like the weights' flat one, and replies
    with its loss. No gradient goes through a pipe.
    """

    def __init__(self, weights: NetworkWeights, cfg: ModelConfig, count: int):
        flat = weights.flat
        self.weights = network.new_weights(cfg, flat.dtype, mmap.mmap(-1, flat.nbytes))
        self.weights.flat[...] = flat
        self._slots = np.frombuffer(mmap.mmap(-1, 2 * count * flat.nbytes),
                                    flat.dtype).reshape(2 * count, flat.size)
        self._conns: list = []
        self._procs: list = []
        self._broken = ""
        import multiprocessing   # see _item_worker_count
        fork = multiprocessing.get_context("fork")
        try:
            for _ in range(count):
                ours, theirs = fork.Pipe()
                proc = fork.Process(target=_serve_items, name="convmamba-item", daemon=True,
                                    args=(theirs, self.weights, cfg, self._slots,
                                          [*self._conns, ours]))
                proc.start()
                theirs.close()
                self._conns.append(ours)
                self._procs.append(proc)
        except BaseException:
            self._broken = "failed to start"
            self.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        """Stop every worker: an idle one exits once its pipe closes, and one
        still busy after an interrupted batch is terminated."""
        for conn in self._conns:
            conn.close()
        for proc in self._procs:
            if self._broken:
                proc.terminate()
            proc.join(5.0)
            if proc.exitcode is None:
                proc.kill()
                proc.join()

    def _replies(self, busy: list):
        """(pipe, reply) for each busy worker that has replied, its pipe taken
        off busy."""
        from multiprocessing.connection import wait
        for conn in wait(busy):
            try:
                reply = conn.recv()
            except EOFError:
                raise self._exited(conn) from None
            busy.remove(conn)
            yield conn, reply

    def _exited(self, conn) -> WorkerError:
        proc = self._procs[self._conns.index(conn)]
        proc.join(5.0)
        code = proc.exitcode
        if code is not None and code < 0:
            code = f"{code} ({signal.Signals(-code).name})"
        self._broken = f"item worker {proc.pid} exited with code {code}"
        return WorkerError(self._broken)

    def gradients(self, batch: list[TrainItem], weights: NetworkWeights):
        """Yield each item's loss and gradient (its slot) in item order. A
        slot is written again only after the item it holds has been yielded
        and the next one asked for. The first failed item in item order raises its exception,
        once the busy workers are idle again."""
        if weights is not self.weights:
            raise ValueError("the workers read their own shared copy of the weights")
        if self._broken:
            raise WorkerError(self._broken)
        n, n_slots = len(batch), len(self._slots)
        idle, busy = list(self._conns), []
        done: dict[int, tuple] = {}
        sent = 0
        failed = False
        try:
            for index in range(n):
                while index not in done:
                    while idle and not failed and sent < min(n, index + n_slots):
                        conn = idle.pop()
                        try:
                            conn.send((sent, sent % n_slots, n, batch[sent]))
                        except OSError:
                            raise self._exited(conn) from None
                        busy.append(conn)
                        sent += 1
                    for conn, reply in self._replies(busy):
                        idle.append(conn)
                        done[reply[0]] = reply[1:]
                        failed |= reply[2] is not None
                loss, error = done.pop(index)
                if error is not None:
                    while busy:
                        list(self._replies(busy))
                    exc, tb = error
                    if isinstance(exc, str):
                        raise WorkerError(f"{exc}\n\nworker traceback:\n{tb}")
                    raise exc from WorkerError(f"worker traceback:\n{tb}")
                yield loss, self._slots[index % n_slots]
        finally:
            if busy and not self._broken:
                self._broken = "a batch was interrupted"


def batch_gradients(batch: list[TrainItem], weights: NetworkWeights,
                    cfg: ModelConfig, workers: ItemWorkers | None = None) -> float:
    """Sum the gradient of batch_loss into weights.flat_grad, laid out like
    weights.flat and made on the first call, and return that loss.

    Each item runs forward and backward on its own tape: on the workers,
    whose shared weights these must be, when given and the batch has more
    than one item, else one after another on the calling thread, the first
    item's gradient written straight into flat_grad and each later one's
    into one scratch array. The item gradients are summed in item order
    either way, so the result does not depend on the worker count. An item's
    exception is raised here, and items not yet started are dropped.
    """
    n = len(batch)
    if weights.flat_grad is None:
        weights.flat_grad = np.empty_like(weights.flat)
    flat_grad = weights.flat_grad
    if workers is None or n == 1:
        scratch = np.empty_like(flat_grad) if n > 1 else None
        results = (_item_gradients(weights, item, n, cfg, scratch if k else flat_grad)
                   for k, item in enumerate(batch))
    else:
        results = workers.gradients(batch, weights)
    total = None
    for loss, grad in results:
        if total is None:
            total = loss
            flat_grad[...] = grad   # no copy where grad is flat_grad itself
        else:
            total = total + loss
            flat_grad += grad
    # the same additions and scaling as batch_loss's forward pass
    return float(total * total.dtype.type(1.0 / n))


def _item_worker_count(batch_size: int) -> int:
    """Worker processes for train_loop: one per usable core, at most one per
    item, and none (the calling thread runs the items) for one core or one
    item, where fork is not offered, or where another thread is alive, whose
    locks a forked child could inherit held."""
    count = min(network._usable_cores(), batch_size)
    if count < 2:
        return 0
    # imported here, so that a run with one core or a batch of one does not
    # pay the 10-15 ms its import takes
    import multiprocessing
    if ("fork" not in multiprocessing.get_all_start_methods()
            or threading.active_count() > 1):
        return 0
    return count


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
    count = _item_worker_count(train_cfg.batch_size)
    with open(csv_path, "w", encoding="utf-8") as log, (
            ItemWorkers(weights, model_cfg, count) if count
            else contextlib.nullcontext()) as workers:
        if workers is not None:
            weights = workers.weights
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
