"""Schedule, optimizer, mixing pipeline, batching, and the training loop."""

import hashlib
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from convmamba.audio import DegenerateSignalError, StftConfig, Waveform, save_wav
from convmamba.masks import MaskKind
from convmamba.network import ModelConfig, init_params
from convmamba import training
from convmamba.tensor import Parameter, Tape, Tensor, backward
from convmamba.training import (ADAM_BETA1, ADAM_BETA2, ADAM_BLOCK, ADAM_EPS,
                                CLIP, AdamState, TrainConfig,
                                WavPool, adam_step, batch_gradients, batch_loss,
                                clip_gradients, list_pool, make_batch,
                                sample_mixture, train_loop, warmup_lr,
                                lr_for_step)


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
    q = _param([0.7])  # batch_gradients fills a missing gradient with zeros
    adam_step(q.tensor.data, np.zeros(1), AdamState(), 0.1)
    assert q.tensor.data[0] == 0.7


def test_adam_converges_on_quadratic():
    p = _param([1.0])
    state = AdamState()
    for _ in range(200):
        adam_step(p.tensor.data, 2.0 * p.tensor.data, state, 0.1)
    assert abs(p.tensor.data[0]) < 1e-2


def _reference_adam(params, grads, state, lr):
    """Adam one parameter at a time, as the optimizer ran before its state
    became flat; a missing (None) gradient counts as zero."""
    state["step"] += 1
    c1 = 1.0 - ADAM_BETA1 ** state["step"]
    c2 = 1.0 - ADAM_BETA2 ** state["step"]
    for p, g in zip(params, grads):
        data = p.tensor.data
        if g is None:
            g = np.zeros_like(data)
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
    missing = 2
    for step in range(5):
        grads = [None if i == missing else
                 (rng.standard_normal(s) * 10.0 ** rng.integers(-6, 2)).astype(dtype)
                 for i, s in enumerate(shapes)]
        # batch_gradients fills a missing gradient with zeros
        flat_grad = np.concatenate([np.zeros(s, dtype).ravel() if g is None
                                    else g.ravel() for s, g in zip(shapes, grads)])
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


def test_threaded_gradients_match_single_tape(corpus):
    from conftest import f64_mode
    batch = _uneven_batch(corpus, 3, 8)
    mcfg = small_model()
    with f64_mode():
        weights = init_params(mcfg, 2)
        with Tape() as tape:
            loss = batch_loss(batch, weights, mcfg)
        grads = backward(loss, tape)
        want = {p.name: grads[p.tensor] for p in weights.named_parameters()}
        with ThreadPoolExecutor(2) as workers:
            got = batch_gradients(batch, weights, mcfg, workers)
    assert abs(got - loss.item()) <= 1e-12 * abs(loss.item())
    for p, g in zip(weights.named_parameters(), weights.grad_views()):
        scale = np.max(np.abs(want[p.name]))
        assert np.max(np.abs(g - want[p.name])) <= 1e-12 * scale, p.name


def test_gradients_bitwise_equal_under_thread_contention(corpus):
    # more workers than cores and a short switch interval: two threads
    # sharing one gradient store would show as a bit difference
    batch = _uneven_batch(corpus, 6, 9)
    mcfg = small_model()
    weights = init_params(mcfg, 3)
    want_loss = batch_gradients(batch, weights, mcfg)
    want = weights.flat_grad.copy()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as workers:
            for _ in range(3):
                assert batch_gradients(batch, weights, mcfg, workers) == want_loss
                np.testing.assert_array_equal(weights.flat_grad, want)
    finally:
        sys.setswitchinterval(interval)


def test_worker_failure_raises_and_leaves_weights(corpus):
    batch = _uneven_batch(corpus, 3, 10)
    batch[1].noisy_mag[0, 0] = np.inf
    mcfg = small_model()
    weights = init_params(mcfg, 4)
    before = _weights_digest(weights)
    with pytest.raises(ValueError) as single:
        batch_loss(batch, weights, mcfg)
    with ThreadPoolExecutor(2) as workers:
        with pytest.raises(ValueError) as threaded:
            batch_gradients(batch, weights, mcfg, workers)
    assert str(threaded.value) == str(single.value)
    assert _weights_digest(weights) == before


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

    monkeypatch.setattr(training, "_usable_cores", lambda: 2)
    monkeypatch.setattr(training, "make_batch", poisoned)
    monkeypatch.setattr(training, "adam_step", counted)
    threads = threading.active_count()
    tcfg = TrainConfig(batch_size=3, epochs=1, seed=5, val_items=1, checkpoint_every=0)
    with pytest.raises(ValueError, match="non-finite"):
        train_loop(small_model(), tcfg, clean, noise, tmp_path / "run")
    assert steps == []
    assert threading.active_count() == threads


def test_train_loop_same_bytes_for_any_worker_count(corpus, tmp_path, monkeypatch):
    clean, noise = pools(corpus)
    mcfg = small_model()
    tcfg = TrainConfig(batch_size=3, epochs=2, seed=11, val_items=1,
                       use_warmup=False, lr_base=1e-3, checkpoint_every=0)
    runs = []
    for cores in (1, 2):
        monkeypatch.setattr(training, "_usable_cores", lambda: cores)
        threads = threading.active_count()
        runs.append(train_loop(mcfg, tcfg, clean, noise, tmp_path / f"cores{cores}"))
        assert threading.active_count() == threads
    one, two = runs
    assert one.steps == two.steps == 2
    assert one.metrics_csv.read_bytes() == two.metrics_csv.read_bytes()
    assert one.final_checkpoint.read_bytes() == two.final_checkpoint.read_bytes()


def test_batch_gradients_are_views_into_one_flat_gradient(corpus):
    batch = _uneven_batch(corpus, 3, 12)
    mcfg = small_model()
    weights = init_params(mcfg, 7)
    with ThreadPoolExecutor(2) as workers:
        batch_gradients(batch, weights, mcfg, workers)
        flat_grad = weights.flat_grad
        assert flat_grad.shape == weights.flat.shape
        assert flat_grad.dtype == weights.flat.dtype
        start = 0
        for p, g in zip(weights.named_parameters(), weights.grad_views()):
            assert g.base is flat_grad and g.shape == p.tensor.data.shape, p.name
            np.testing.assert_array_equal(g.ravel(), flat_grad[start:start + g.size])
            start += g.size
        assert start == flat_grad.size
        first = flat_grad.copy()
        batch_gradients(batch, weights, mcfg, workers)  # the buffer is reused
        assert weights.flat_grad is flat_grad
        np.testing.assert_array_equal(flat_grad, first)
        flat_grad *= 1e3  # so that the fixed clip cuts some entries
        assert np.abs(flat_grad).max() > CLIP
        clip_gradients(flat_grad)
        assert all(np.abs(g).max() <= CLIP for g in weights.grad_views())


def test_batch_gradients_count_a_missing_gradient_as_zero(corpus, monkeypatch):
    batch = _uneven_batch(corpus, 2, 13)
    mcfg = small_model()
    weights = init_params(mcfg, 8)
    real = training._item_gradients
    second_item = real(weights, batch[1], 2, mcfg)[1]

    def dropped(w, item, n_items, cfg):
        loss, grads = real(w, item, n_items, cfg)
        grads[0] = None                  # no item has a gradient for param 0
        if item is batch[0]:
            grads[1] = None              # only the second item has one for param 1
        return loss, grads

    monkeypatch.setattr(training, "_item_gradients", dropped)
    batch_gradients(batch, weights, mcfg)
    views = weights.grad_views()
    assert not views[0].any()
    np.testing.assert_array_equal(views[1], second_item[1])


_TRAIN_THEN_ENHANCE = """
import sys
from pathlib import Path
from convmamba import training
from convmamba.audio import load_wav
from convmamba.checkpoint import load_checkpoint
from convmamba.network import ModelConfig
from convmamba.pipeline import enhance_waveform
from convmamba.training import TrainConfig, WavPool, list_pool, train_loop

clean_dir, noise_dir, out = (Path(a) for a in sys.argv[1:])
training._usable_cores = lambda: 2
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
    # worker threads that outlive train_loop would keep the interpreter
    # from exiting
    import os
    import subprocess
    from pathlib import Path
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
