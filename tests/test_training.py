"""Schedule, optimizer, mixing pipeline, batching, and the training loop."""

import contextlib
import hashlib
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from convmamba.audio import (AudioError, DegenerateSignalError, StftConfig, Waveform,
                             load_wav, save_wav)
from convmamba.masks import MaskKind
from convmamba.network import ModelConfig, init_params
from convmamba import network, training
from convmamba.tensor import Parameter, Tape, Tensor, backward
from convmamba.training import (ADAM_BETA1, ADAM_BETA2, ADAM_BLOCK, ADAM_EPS,
                                CLIP, AdamState, ItemWorkers, TrainConfig,
                                WavPool, WorkerError, adam_step, batch_gradients, batch_loss,
                                clip_gradients, list_pool, make_batch,
                                sample_mixture, train_loop, warmup_lr,
                                lr_for_step)

from conftest import write_nan_wav


def test_warmup_reference_values():
    assert abs(warmup_lr(40_000, 256, 40_000) - 3.125e-4) < 1e-9
    assert abs(warmup_lr(1, 256, 40_000) - 7.8125e-9) < 1e-15


def test_warmup_crossover_branches_equal_exactly():
    w = 40_000
    decay = w ** -0.5
    linear = (w / w) * w ** -0.5
    assert decay == linear
    assert warmup_lr(w, 256, w) == 256 ** -0.5 * decay


def test_warmup_rejects_step_zero():
    with pytest.raises(ValueError):
        warmup_lr(0, 256, 40_000)


def test_lr_mode_selection():
    cfg = TrainConfig(use_warmup=False, lr_base=1e-3)
    assert lr_for_step(123, 256, cfg) == 1e-3
    cfg = TrainConfig(use_warmup=True, lr_scale=2.0)
    assert lr_for_step(10, 256, cfg) == 2.0 * warmup_lr(10, 256, cfg.warmup_steps)


def _param(value):
    t = Tensor(np.asarray(value, dtype=np.float64), requires_grad=True,
               dtype=np.float64)
    return Parameter("x", t)


def test_adam_first_step_is_signed_lr():
    p = _param([1.0])
    state = AdamState()
    adam_step(p.tensor.data, np.array([2.0]), state, 0.1)  # d(x^2)/dx at x=1
    assert p.tensor.data[0] == pytest.approx(0.9, abs=1e-8)
    assert state.step == 1


def test_adam_zero_gradient_is_noop():
    p = _param([0.7])
    adam_step(p.tensor.data, np.zeros(1), AdamState(), 0.1)
    assert p.tensor.data[0] == 0.7


def test_adam_converges_on_quadratic():
    p = _param([1.0])
    state = AdamState()
    for _ in range(200):
        adam_step(p.tensor.data, 2.0 * p.tensor.data, state, 0.1)
    assert abs(p.tensor.data[0]) < 1e-2


def _reference_adam(params, grads, state, lr):
    """Adam one parameter at a time, as the optimizer ran before its state
    became flat."""
    state["step"] += 1
    c1 = 1.0 - ADAM_BETA1 ** state["step"]
    c2 = 1.0 - ADAM_BETA2 ** state["step"]
    for p, g in zip(params, grads):
        data = p.tensor.data
        m = state["m"].setdefault(p.name, np.zeros_like(data))
        v = state["v"].setdefault(p.name, np.zeros_like(data))
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        data -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_flat_adam_matches_per_parameter_reference_bitwise(dtype):
    rng = np.random.default_rng(17)
    # (300, 250) spans more than one ADAM_BLOCK and ends in a partial block
    shapes = [(3,), (4, 5), (2, 3, 2), (1,), (7, 1), (300, 250), (33,)]
    assert ADAM_BLOCK < 300 * 250 < 2 * ADAM_BLOCK
    # values near the size of one update, so a rounding change in it shows
    ref = [Parameter(f"p{i}", Tensor(1e-3 * rng.standard_normal(s), dtype=dtype))
           for i, s in enumerate(shapes)]
    flat = np.concatenate([p.tensor.data.ravel() for p in ref])
    ref_state = dict(m={}, v={}, step=0)
    state = AdamState()
    zero = 2   # a parameter whose gradient is zero at every step
    for step in range(5):
        grads = [np.zeros(s, dtype) if i == zero else
                 (rng.standard_normal(s) * 10.0 ** rng.integers(-6, 2)).astype(dtype)
                 for i, s in enumerate(shapes)]
        flat_grad = np.concatenate([g.ravel() for g in grads])
        lr = 1e-3 * (step + 1)
        _reference_adam(ref, grads, ref_state, lr)
        adam_step(flat, flat_grad, state, lr)
        assert state.step == ref_state["step"] == step + 1
        for name, got in (("params", flat), ("m", state.m), ("v", state.v)):
            want = (np.concatenate([p.tensor.data.ravel() for p in ref]) if name == "params"
                    else np.concatenate([ref_state[name][p.name].ravel() for p in ref]))
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes(), (name, step)


def test_adam_rejects_mismatched_gradient():
    with pytest.raises(ValueError, match="does not match"):
        adam_step(np.zeros(4), np.zeros(3), AdamState(), 0.1)


def test_clip_gradients():
    grad = np.array([5.0, -3.0, 0.25])
    assert CLIP == 1.0  # the paper's [-1, 1]
    clip_gradients(grad)
    np.testing.assert_array_equal(grad, [1.0, -1.0, 0.25])
    before = grad.copy()
    clip_gradients(grad)  # idempotent
    np.testing.assert_array_equal(grad, before)


def pools(corpus):
    clean_dir, noise_dir = corpus
    return WavPool(list_pool(clean_dir)), WavPool(list_pool(noise_dir))


def test_list_pool_errors(tmp_path):
    with pytest.raises(FileNotFoundError, match="not found"):
        list_pool(tmp_path / "missing")
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(FileNotFoundError, match="no wav files"):
        list_pool(empty)


def test_list_pool_manifest(corpus, tmp_path):
    clean_dir, _ = corpus
    manifest = tmp_path / "subset.txt"
    manifest.write_text("clean_01.wav\n", encoding="utf-8")
    paths = list_pool(clean_dir, manifest)
    assert [p.name for p in paths] == ["clean_01.wav"]


def test_sample_mixture_deterministic(corpus):
    clean, noise = pools(corpus)
    cfg = TrainConfig()
    a = sample_mixture(clean, noise, cfg, np.random.default_rng(99))
    b = sample_mixture(clean, noise, cfg, np.random.default_rng(99))
    assert a.meta == b.meta
    np.testing.assert_array_equal(a.noisy_mag, b.noisy_mag)
    np.testing.assert_array_equal(a.target, b.target)


def test_sample_mixture_snr_histogram(corpus):
    clean, noise = pools(corpus)
    cfg = TrainConfig()
    rng = np.random.default_rng(123)
    counts = np.zeros(31, dtype=int)
    for _ in range(10_000):
        snr = int(rng.integers(cfg.snr_lo, cfg.snr_hi + 1))
        counts[snr + 10] += 1
    p = 1.0 / 31.0
    sigma = np.sqrt(10_000 * p * (1 - p))
    assert (np.abs(counts - 10_000 * p) <= 4 * sigma).all()


def test_sample_mixture_psm_target(corpus):
    clean, noise = pools(corpus)
    item = sample_mixture(clean, noise, TrainConfig(target=MaskKind.PSM),
                          np.random.default_rng(0))
    assert item.target.min() >= 0.0 and item.target.max() <= 1.0


def test_wav_pool_keeps_encoded_samples_within_its_byte_bound(tmp_path, monkeypatch):
    rng = np.random.default_rng(6)
    paths = []
    for i, (n, encoding) in enumerate([(1000, "pcm16"), (1500, "pcm16"),
                                       (800, "float32")]):
        paths.append(tmp_path / f"{i}.wav")
        save_wav(paths[-1], Waveform(0.3 * rng.standard_normal(n)), encoding=encoding)
    reads = []
    read_wav = training.read_wav
    monkeypatch.setattr(training, "read_wav", lambda p: reads.append(p) or read_wav(p))
    monkeypatch.setattr(training, "POOL_BYTES", 6000)
    pool = WavPool(paths)
    held = []
    for i in (0, 1, 0, 2, 0, 1, 2):
        wav = pool.load(i)
        assert wav.samples.dtype == np.float64
        assert wav.samples.tobytes() == load_wav(paths[i]).samples.tobytes()
        held.append(pool.held_bytes)
    # 2 and 4 bytes a sample, as the files store them. File 2 drops file 1,
    # which was loaded less recently than file 0; file 1 then drops file 2,
    # and file 2 drops both
    assert held == [2000, 5000, 5000, 5200, 5200, 5000, 3200]
    assert all(h <= 6000 for h in held)
    assert [p.name for p in reads] == ["0.wav", "1.wav", "2.wav", "1.wav", "2.wav"]
    # each load is its own waveform
    assert pool.load(2).samples is not pool.load(2).samples

    bad = WavPool([write_nan_wav(tmp_path / "nan.wav")])
    for _ in range(2):
        with pytest.raises(AudioError, match="non-finite") as err:
            bad.load(0)
        assert str(tmp_path / "nan.wav") in str(err.value)


def test_sample_mixture_silent_pool_errors(tmp_path):
    silent_dir = tmp_path / "silent"
    live_dir = tmp_path / "live"
    silent_dir.mkdir()
    live_dir.mkdir()
    save_wav(silent_dir / "z.wav", Waveform(np.zeros(8000)))
    save_wav(live_dir / "a.wav", Waveform(0.3 * np.ones(16000)))
    clean = WavPool(list_pool(silent_dir))
    noise = WavPool(list_pool(live_dir))
    with pytest.raises(DegenerateSignalError, match="degenerate"):
        sample_mixture(clean, noise, TrainConfig(), np.random.default_rng(0))


def small_model():
    return ModelConfig(d_model=8, n_layers=1, n_state=4, bins=257)


def test_batched_loss_is_mean_of_items(corpus):
    from conftest import f64_mode
    from convmamba.masks import mask_mse_loss
    from convmamba.network import forward
    clean, noise = pools(corpus)
    cfg = TrainConfig()
    rng = np.random.default_rng(6)
    items = [sample_mixture(clean, noise, cfg, rng) for _ in range(3)]
    items[1].noisy_mag = items[1].noisy_mag[:7]
    items[1].target = items[1].target[:7]
    mcfg = small_model()
    with f64_mode():
        weights = init_params(mcfg, 0)
        total = batch_loss(make_batch(items), weights, mcfg).item()
        singles = []
        for item in items:
            pred = forward(Tensor(item.noisy_mag), weights, mcfg)
            singles.append(mask_mse_loss(pred, item.target).item())
    assert abs(total - float(np.mean(singles))) < 1e-10


def _weights_digest(weights):
    h = hashlib.sha256()
    for p in weights.named_parameters():
        h.update(p.tensor.data.tobytes())
    return h.hexdigest()


def test_train_loop_smoke_and_determinism(corpus, tmp_path):
    clean, noise = pools(corpus)
    mcfg = small_model()
    tcfg = TrainConfig(batch_size=2, epochs=3, seed=77, val_items=2,
                       use_warmup=False, lr_base=1e-3, checkpoint_every=1)
    res1 = train_loop(mcfg, tcfg, clean, noise, tmp_path / "run1")
    res2 = train_loop(mcfg, tcfg, clean, noise, tmp_path / "run2")
    assert res1.steps == res2.steps > 0
    assert res1.final_train_loss == res2.final_train_loss
    assert res1.metrics_csv.read_bytes() == res2.metrics_csv.read_bytes()
    assert res1.final_checkpoint.read_bytes() == res2.final_checkpoint.read_bytes()
    assert (tmp_path / "run1" / "checkpoints" / "epoch-0001.ckpt").exists()
    header, first = res1.metrics_csv.read_text().splitlines()[:2]
    assert header == "step,epoch,split,loss,lr"
    assert first.startswith("1,1,train,")


def test_validation_does_not_touch_weights(corpus):
    clean, noise = pools(corpus)
    cfg = TrainConfig()
    rng = np.random.default_rng(3)
    items = [sample_mixture(clean, noise, cfg, rng) for _ in range(2)]
    mcfg = small_model()
    weights = init_params(mcfg, 5)
    before = _weights_digest(weights)
    batch_loss(items, weights, mcfg).item()
    assert _weights_digest(weights) == before


def test_train_loop_starts_no_thread(corpus, tmp_path, monkeypatch):
    """Training and its validation run forward, the whole-sequence network,
    on the calling thread even where every input spans several time blocks;
    only stream_mask runs blocks on layer-group threads."""
    clean, noise = pools(corpus)
    mcfg = ModelConfig(d_model=8, n_layers=2, n_state=4, bins=257)
    monkeypatch.setattr(network, "block_frames", lambda *shape: 8)
    monkeypatch.setattr(network, "_usable_cores", lambda: 2)
    started, lengths = [], []
    real_start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self.name) or real_start(self))
    real_forward = training.forward
    monkeypatch.setattr(training, "forward",
                        lambda y, *args: lengths.append(len(y.data)) or real_forward(y, *args))
    tcfg = TrainConfig(batch_size=1, epochs=1, max_steps=2, seed=3, val_items=1,
                       use_warmup=False, lr_base=1e-3, checkpoint_every=0)
    train_loop(mcfg, tcfg, clean, noise, tmp_path / "run")
    assert len(lengths) == 3 and min(lengths) >= 3 * 8, lengths   # 2 steps, 1 validation
    item = sample_mixture(clean, noise, tcfg, np.random.default_rng(0))
    w = init_params(mcfg, 0)
    network.forward(Tensor(item.noisy_mag), w, mcfg)
    assert started == []
    # the patches give a pipeline: stream_mask starts the second group
    network.stream_mask(item.noisy_mag, w, mcfg, lambda rows: None)
    assert started == ["convmamba-layers-1"]


def test_loss_trend_downward_across_seeds(corpus, tmp_path):
    clean, noise = pools(corpus)
    mcfg = small_model()
    wins = 0
    for seed in range(10):
        tcfg = TrainConfig(batch_size=1, epochs=50, max_steps=50, seed=seed,
                           snr_lo=0, snr_hi=0, val_items=1, use_warmup=False,
                           checkpoint_every=0)
        res = train_loop(mcfg, tcfg, clean, noise, tmp_path / f"s{seed}")
        losses = [float(line.split(",")[3])
                  for line in res.metrics_csv.read_text().splitlines()[1:]
                  if line.split(",")[2] == "train"]
        assert len(losses) == 50
        if np.mean(losses[25:]) < np.mean(losses[:25]):
            wins += 1
    assert wins >= 9


def _uneven_batch(corpus, count, seed):
    clean, noise = pools(corpus)
    rng = np.random.default_rng(seed)
    items = [sample_mixture(clean, noise, TrainConfig(), rng) for _ in range(count)]
    for i, item in enumerate(items):  # a different length for every item
        n = item.noisy_mag.shape[0] - 3 * i
        item.noisy_mag, item.target = item.noisy_mag[:n], item.target[:n]
    return make_batch(items)


@contextlib.contextmanager
def _deadline(seconds):
    def expired(*_):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_worker_gradients_match_single_tape(corpus):
    from conftest import f64_mode
    batch = _uneven_batch(corpus, 3, 8)
    mcfg = small_model()
    with f64_mode():
        weights = init_params(mcfg, 2)
        with Tape() as tape:
            loss = batch_loss(batch, weights, mcfg)
        grads = backward(loss, tape)
        want = {p.name: grads[p.tensor] for p in weights.named_parameters()}
        with ItemWorkers(weights, mcfg, 2) as workers:
            shared = workers.weights
            got = batch_gradients(batch, shared, mcfg, workers)
    assert shared.flat.dtype == np.float64
    assert abs(got - loss.item()) <= 1e-12 * abs(loss.item())
    start = 0
    for p in shared.named_parameters():
        g = want[p.name]
        got_p = shared.flat_grad[start:start + g.size].reshape(g.shape)
        start += g.size
        assert np.max(np.abs(got_p - g)) <= 1e-12 * np.max(np.abs(g)), p.name
    assert start == shared.flat_grad.size


def test_gradients_bitwise_equal_under_worker_contention(corpus, monkeypatch):
    # more workers than cores, and more items than the 8 gradient slots, the
    # first one slow, so that the other workers run ahead of the sum: two
    # workers sharing one slot, or a slot written again before its item was
    # summed, would show as a bit difference
    batch = _uneven_batch(corpus, 10, 9)
    batch[0].meta["slow"] = True
    real = training._item_gradients

    def slow_first(weights, item, n_items, cfg, *rest):
        if item.meta.get("slow"):
            time.sleep(0.2)
        return real(weights, item, n_items, cfg, *rest)

    monkeypatch.setattr(training, "_item_gradients", slow_first)
    mcfg = small_model()
    weights = init_params(mcfg, 3)
    want_loss = batch_gradients(batch, weights, mcfg)
    want = weights.flat_grad.copy()
    with _deadline(120), ItemWorkers(weights, mcfg, 4) as workers:
        for _ in range(3):
            assert batch_gradients(batch, workers.weights, mcfg, workers) == want_loss
            np.testing.assert_array_equal(workers.weights.flat_grad, want)


def test_worker_failure_raises_and_leaves_weights(corpus):
    batch = _uneven_batch(corpus, 3, 10)
    batch[1].noisy_mag[0, 0] = np.inf
    mcfg = small_model()
    weights = init_params(mcfg, 4)
    before = _weights_digest(weights)
    with pytest.raises(ValueError) as single:
        batch_loss(batch, weights, mcfg)
    with ItemWorkers(weights, mcfg, 2) as workers:
        with pytest.raises(ValueError) as forked:
            batch_gradients(batch, workers.weights, mcfg, workers)
        assert _weights_digest(workers.weights) == before
        # the workers are idle again, and the next batch runs
        clean = _uneven_batch(corpus, 3, 11)
        want = batch_gradients(clean, weights, mcfg)
        assert batch_gradients(clean, workers.weights, mcfg, workers) == want
        np.testing.assert_array_equal(workers.weights.flat_grad, weights.flat_grad)
    assert str(forked.value) == str(single.value)
    assert isinstance(forked.value.__cause__, WorkerError)
    assert "worker traceback" in str(forked.value.__cause__)
    assert _weights_digest(weights) == before


def test_workers_refuse_weights_they_do_not_share(corpus):
    batch = _uneven_batch(corpus, 2, 10)
    mcfg = small_model()
    weights = init_params(mcfg, 4)
    with ItemWorkers(weights, mcfg, 2) as workers:
        with pytest.raises(ValueError, match="shared copy"):
            batch_gradients(batch, weights, mcfg, workers)


def test_unpicklable_worker_exception_arrives_whole(corpus, monkeypatch):
    class LocalError(Exception):   # a local class cannot be pickled
        pass

    def failing(weights, item, n_items, cfg, *rest):
        raise LocalError("cannot travel")

    batch = _uneven_batch(corpus, 2, 10)
    mcfg = small_model()
    monkeypatch.setattr(training, "_item_gradients", failing)
    with ItemWorkers(init_params(mcfg, 4), mcfg, 2) as workers:
        with pytest.raises(WorkerError) as err:
            batch_gradients(batch, workers.weights, mcfg, workers)
    message = str(err.value)
    assert "LocalError: cannot travel" in message
    assert "worker traceback" in message and "in failing" in message


def test_killed_worker_raises_naming_its_exit_code(corpus, tmp_path, monkeypatch):
    clean, noise = pools(corpus)
    real_make_batch, real_item_gradients = training.make_batch, training._item_gradients

    def marked(items):
        batch = real_make_batch(items)
        batch[1].meta["kill"] = True
        return batch

    def killing(weights, item, n_items, cfg, *rest):
        if item.meta.get("kill"):
            os.kill(os.getpid(), signal.SIGKILL)
        return real_item_gradients(weights, item, n_items, cfg, *rest)

    monkeypatch.setattr(network, "_usable_cores", lambda: 2)
    monkeypatch.setattr(training, "make_batch", marked)
    monkeypatch.setattr(training, "_item_gradients", killing)
    tcfg = TrainConfig(batch_size=3, epochs=1, seed=5, val_items=1, checkpoint_every=0)
    with _deadline(60):
        with pytest.raises(WorkerError, match=r"exited with code -9 \(SIGKILL\)"):
            train_loop(small_model(), tcfg, clean, noise, tmp_path / "run")
    assert multiprocessing.active_children() == []


def test_worker_exits_when_its_pipe_closes():
    mcfg = small_model()
    workers = ItemWorkers(init_params(mcfg, 0), mcfg, 2)
    try:
        # the second worker was forked after the first one's pipe was made,
        # so this also checks that it does not hold the parent's end open
        first, second = workers._procs
        workers._conns[0].close()
        first.join(30)
        assert first.exitcode == 0
        assert second.is_alive()
    finally:
        workers.close()
    assert multiprocessing.active_children() == []


def test_train_loop_worker_failure_stops_before_adam(corpus, tmp_path, monkeypatch):
    clean, noise = pools(corpus)
    steps = []
    real_make_batch, real_adam_step = training.make_batch, training.adam_step

    def poisoned(items):
        batch = real_make_batch(items)
        batch[1].noisy_mag[0, 0] = np.nan
        return batch

    def counted(*args, **kwargs):
        steps.append(1)
        return real_adam_step(*args, **kwargs)

    monkeypatch.setattr(network, "_usable_cores", lambda: 2)
    monkeypatch.setattr(training, "make_batch", poisoned)
    monkeypatch.setattr(training, "adam_step", counted)
    threads = threading.active_count()
    tcfg = TrainConfig(batch_size=3, epochs=1, seed=5, val_items=1, checkpoint_every=0)
    with pytest.raises(ValueError, match="non-finite") as err:
        train_loop(small_model(), tcfg, clean, noise, tmp_path / "run")
    assert isinstance(err.value.__cause__, WorkerError)   # raised in a worker
    assert steps == []
    assert threading.active_count() == threads
    assert multiprocessing.active_children() == []


def _counting_workers(monkeypatch):
    """The worker counts of the ItemWorkers that train_loop starts."""
    started = []

    class Counted(ItemWorkers):
        def __init__(self, weights, cfg, count):
            started.append(count)
            super().__init__(weights, cfg, count)

    monkeypatch.setattr(training, "ItemWorkers", Counted)
    return started


_SAME_BYTES = TrainConfig(batch_size=3, epochs=2, seed=11, val_items=1,
                          use_warmup=False, lr_base=1e-3, checkpoint_every=0)


def test_train_loop_same_bytes_for_any_worker_count(corpus, tmp_path, monkeypatch):
    clean, noise = pools(corpus)
    mcfg = small_model()
    started = _counting_workers(monkeypatch)
    runs = []
    for cores in (1, 2, 3):
        monkeypatch.setattr(network, "_usable_cores", lambda: cores)
        threads = threading.active_count()
        runs.append(train_loop(mcfg, _SAME_BYTES, clean, noise, tmp_path / f"cores{cores}"))
        assert threading.active_count() == threads
        assert multiprocessing.active_children() == []
    assert started == [2, 3]
    one = runs[0]
    for other in runs[1:]:
        assert one.steps == other.steps == 2
        assert one.metrics_csv.read_bytes() == other.metrics_csv.read_bytes()
        assert one.final_checkpoint.read_bytes() == other.final_checkpoint.read_bytes()


@pytest.mark.parametrize("reason", ["no fork", "another thread"])
def test_train_loop_without_fork_runs_items_on_the_calling_thread(
        corpus, tmp_path, monkeypatch, reason):
    clean, noise = pools(corpus)
    mcfg = small_model()
    monkeypatch.setattr(network, "_usable_cores", lambda: 2)
    started = _counting_workers(monkeypatch)
    callers = []
    real = training._item_gradients
    monkeypatch.setattr(training, "_item_gradients",
                        lambda *args: callers.append(os.getpid()) or real(*args))
    forked = train_loop(mcfg, _SAME_BYTES, clean, noise, tmp_path / "forked")
    assert started == [2] and callers == []   # every item ran in a worker
    if reason == "no fork":
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        here = train_loop(mcfg, _SAME_BYTES, clean, noise, tmp_path / "here")
    else:
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            here = train_loop(mcfg, _SAME_BYTES, clean, noise, tmp_path / "here")
        finally:
            release.set()
            other.join()
    assert started == [2]
    assert callers == [os.getpid()] * 6   # 2 steps of 3 items
    assert here.metrics_csv.read_bytes() == forked.metrics_csv.read_bytes()
    assert here.final_checkpoint.read_bytes() == forked.final_checkpoint.read_bytes()


def test_batch_gradients_sum_into_one_flat_gradient(corpus):
    batch = _uneven_batch(corpus, 3, 12)
    mcfg = small_model()
    with ItemWorkers(init_params(mcfg, 7), mcfg, 2) as workers:
        weights = workers.weights
        assert weights.flat_grad is None   # made by the first call
        batch_gradients(batch, weights, mcfg, workers)
        flat_grad = weights.flat_grad
        assert flat_grad.shape == weights.flat.shape
        assert flat_grad.dtype == weights.flat.dtype
        first = flat_grad.copy()
        batch_gradients(batch, weights, mcfg, workers)  # the buffer is reused
        assert weights.flat_grad is flat_grad
        np.testing.assert_array_equal(flat_grad, first)
        flat_grad *= 1e3  # so that the fixed clip cuts some entries
        assert np.abs(flat_grad).max() > CLIP
        clip_gradients(flat_grad)
        assert np.abs(flat_grad).max() <= CLIP


@pytest.mark.parametrize("variant", [
    {}, dict(bidirectional=True), dict(learnable_skip=True), dict(conv_refine=False),
    dict(outer_conv_causal=True),
    dict(bidirectional=True, learnable_skip=True, outer_conv_causal=True),
    dict(bidirectional=True, learnable_skip=True, conv_refine=False)],
    ids=["default", "bidirectional", "learnable-skip", "no-conv-refine", "causal",
         "all", "all-no-conv-refine"])
def test_every_trainable_parameter_gets_a_gradient(variant):
    # item gradients are handed over whole, laid out like the flat weights,
    # which relies on the loss reaching every trainable parameter, on an item
    # of one frame as on one of several scan chunks
    mcfg = ModelConfig(**variant)
    weights = init_params(mcfg, 0)
    rng = np.random.default_rng(6)
    for frames in (1, 40):
        item = training.TrainItem(rng.random((frames, 257)).astype(np.float32),
                                  rng.random((frames, 257)).astype(np.float32), {})
        with Tape() as tape:
            loss = training._item_loss(item, weights, mcfg)
        grads = backward(loss, tape)
        missing = [p.name for p in weights.named_parameters() if p.tensor not in grads]
        assert missing == [], frames


def test_item_gradients_peak_is_one_tape_not_tape_and_gradients():
    # backward frees each op as it passes it, so the gradients it returns
    # replace the activations the tape held at the forward/backward turn,
    # rather than adding to them
    mcfg = ModelConfig.preset("convmamba-4")
    weights = init_params(mcfg, 0)
    rng = np.random.default_rng(9)
    item = training.TrainItem(rng.random((62, 257)).astype(np.float32),
                              rng.random((62, 257)).astype(np.float32), {})
    out = np.empty_like(weights.flat)   # as a gradient slot, made beforehand
    training._item_gradients(weights, item, 1, mcfg, out)  # the scan's reused blocks
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            loss = training._item_loss(item, weights, mcfg)
        turn = tracemalloc.get_traced_memory()[0] - base
        backward(loss, tape)  # which hands the scan's blocks back for reuse
        del tape, loss
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        training._item_gradients(weights, item, 1, mcfg, out)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    grad_bytes = weights.flat.nbytes
    assert turn > grad_bytes, (turn, grad_bytes)
    assert peak < turn + grad_bytes / 2, (peak / 2**20, turn / 2**20, grad_bytes / 2**20)


_TRAIN_THEN_ENHANCE = """
import sys
from pathlib import Path
from convmamba import network
from convmamba.audio import load_wav
from convmamba.checkpoint import load_checkpoint
from convmamba.network import ModelConfig
from convmamba.pipeline import enhance_waveform
from convmamba.training import TrainConfig, WavPool, list_pool, train_loop

clean_dir, noise_dir, out = (Path(a) for a in sys.argv[1:])
network._usable_cores = lambda: 2
clean, noise = WavPool(list_pool(clean_dir)), WavPool(list_pool(noise_dir))
res = train_loop(ModelConfig(d_model=8, n_layers=1, n_state=4),
                 TrainConfig(batch_size=3, epochs=1, max_steps=2, val_items=1,
                             checkpoint_every=0, seed=3),
                 clean, noise, out)
assert res.steps == 2, res.steps
weights, cfg = load_checkpoint(res.final_checkpoint)
enhance_waveform(load_wav(clean.paths[0]), weights, cfg)
print("done")
"""


def test_train_then_enhance_process_exits(tmp_path):
    # workers that outlive train_loop would keep the interpreter from
    # exiting
    import convmamba
    from conftest import write_corpus
    clean_dir, noise_dir = write_corpus(tmp_path / "corpus", n_clean=6)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(convmamba.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", _TRAIN_THEN_ENHANCE, str(clean_dir),
                           str(noise_dir), str(tmp_path / "run")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "done"


_SIGTERM_MID_STEP = """
import os
import signal
import sys
import time
from pathlib import Path
from convmamba import network, training
from convmamba.network import ModelConfig
from convmamba.training import TrainConfig, WavPool, list_pool, train_loop

# as a benchmark runner does, so that a terminated run unwinds
signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
clean_dir, noise_dir, out = (Path(a) for a in sys.argv[1:])
network._usable_cores = lambda: 2
real = training._item_gradients


def slow(*args):
    os.write(1, f"{os.getpid()}\\n".encode())   # one write: the workers share the pipe
    time.sleep(60)
    return real(*args)


training._item_gradients = slow
clean, noise = WavPool(list_pool(clean_dir)), WavPool(list_pool(noise_dir))
train_loop(ModelConfig(d_model=8, n_layers=1, n_state=4),
           TrainConfig(batch_size=3, epochs=1, val_items=1, checkpoint_every=0),
           clean, noise, out)
"""


def test_sigterm_mid_step_leaves_no_worker(tmp_path):
    import convmamba
    from conftest import write_corpus
    clean_dir, noise_dir = write_corpus(tmp_path / "corpus", n_clean=6)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(convmamba.__file__).resolve().parent.parent))
    proc = subprocess.Popen([sys.executable, "-c", _SIGTERM_MID_STEP, str(clean_dir),
                             str(noise_dir), str(tmp_path / "run")],
                            env=env, stdout=subprocess.PIPE, text=True)
    try:
        # each worker prints its pid as it starts its first item
        pids = [int(proc.stdout.readline()) for _ in range(2)]
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 128 + signal.SIGTERM
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    assert len(set(pids)) == 2 and proc.pid not in pids
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
