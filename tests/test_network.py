"""Full network: forward contracts, init, parameter counts, checkpoints."""

import sys
import threading
from contextlib import nullcontext

import numpy as np
import pytest

from convmamba import network
from convmamba.audio import StftConfig, Waveform, istft, magnitude, stft
from convmamba.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from convmamba.masks import apply_mask
from convmamba.network import (ModelConfig, block_frames, count_params, forward,
                               init_params, parameter_shapes)
from convmamba.pipeline import enhance_waveform
from convmamba.tensor import Tensor, finite_diff_check

from conftest import f64_mode, paired_time_ratios


def t64(a):
    return Tensor(np.asarray(a, dtype=np.float64), dtype=np.float64)


def tiny_cfg(**kwargs):
    base = dict(d_model=8, n_layers=2, n_state=4, inner_conv_width=4, bins=17)
    base.update(kwargs)
    return ModelConfig(**base)


def test_forward_mask_range_and_shape():
    cfg = tiny_cfg()
    w = init_params(cfg, 0, dtype=np.float64)
    rng = np.random.default_rng(1)
    mask = forward(t64(np.abs(rng.standard_normal((12, 17)))), w, cfg)
    v = mask.data
    assert v.shape == (12, 17)
    assert v.min() > 0.0 and v.max() < 1.0


def test_forward_rejects_wrong_bin_count():
    cfg = tiny_cfg()
    w = init_params(cfg, 0, dtype=np.float64)
    with pytest.raises(ValueError, match="expected"):
        forward(t64(np.zeros((4, 16))), w, cfg)


def test_forward_deterministic_bitwise():
    cfg = tiny_cfg()
    w = init_params(cfg, 3, dtype=np.float64)
    rng = np.random.default_rng(2)
    y = np.abs(rng.standard_normal((9, 17)))
    m1 = forward(t64(y), w, cfg).data
    m2 = forward(t64(y), w, cfg).data
    np.testing.assert_array_equal(m1, m2)


def test_forward_fully_causal_config():
    cfg = tiny_cfg(outer_conv_causal=True)
    w = init_params(cfg, 5, dtype=np.float64)
    rng = np.random.default_rng(4)
    y1 = np.abs(rng.standard_normal((14, 17)))
    y2 = y1.copy()
    t0 = 9
    y2[t0] += 1.0
    m1 = forward(t64(y1), w, cfg).data
    m2 = forward(t64(y2), w, cfg).data
    np.testing.assert_array_equal(m1[:t0], m2[:t0])
    assert np.abs(m1[t0:] - m2[t0:]).max() > 0


def test_forward_centered_conv_leaks_one_frame_back():
    cfg = tiny_cfg()  # default outer conv is centered with width 3
    w = init_params(cfg, 5, dtype=np.float64)
    rng = np.random.default_rng(4)
    y1 = np.abs(rng.standard_normal((14, 17)))
    y2 = y1.copy()
    t0 = 9
    y2[t0] += 1.0
    m1 = forward(t64(y1), w, cfg).data
    m2 = forward(t64(y2), w, cfg).data
    # two centered width-3 convs reach two frames back, no further
    np.testing.assert_array_equal(m1[:t0 - 2], m2[:t0 - 2])


def test_bidirectional_palindrome_probe():
    cfg = tiny_cfg(bidirectional=True)
    w = init_params(cfg, 7, dtype=np.float64)
    for layer in w.layers:
        # mirror tying: reverse stream shares the forward weights and the
        # outer kernel is made flip-symmetric
        fwd, rev = layer.mamba, layer.mamba_rev
        for name in ("in_proj_x", "in_proj_gate", "conv_kernel", "conv_bias",
                     "ln_gamma", "ln_beta", "out_proj"):
            getattr(rev, name).data[:] = getattr(fwd, name).data
        for name in ("a_log", "d_skip", "x_proj_weight", "dt_proj_weight",
                     "dt_proj_bias"):
            getattr(rev.ssm, name).data[:] = getattr(fwd.ssm, name).data
        layer.conv_kernel.data[:] = 0.5 * (layer.conv_kernel.data
                                           + layer.conv_kernel.data[:, ::-1])
    rng = np.random.default_rng(8)
    half = np.abs(rng.standard_normal((6, 17)))
    y = np.vstack([half, half[::-1]])
    mask = forward(t64(y), w, cfg).data
    np.testing.assert_allclose(mask, mask[::-1], atol=1e-10)


def test_bidirectional_reduces_to_unidirectional_with_zero_reverse():
    cfg = tiny_cfg(bidirectional=True)
    w = init_params(cfg, 9, dtype=np.float64)
    uni_cfg = tiny_cfg(bidirectional=False)
    uni = init_params(uni_cfg, 9, dtype=np.float64)
    for layer, uni_layer in zip(w.layers, uni.layers):
        rev = layer.mamba_rev
        for name in ("in_proj_x", "in_proj_gate", "conv_kernel", "conv_bias",
                     "out_proj", "ln_gamma", "ln_beta"):
            getattr(rev, name).data[:] = 0.0
        # copy forward path so the two models share every active weight
        fwd, uf = layer.mamba, uni_layer.mamba
        for name in ("in_proj_x", "in_proj_gate", "conv_kernel", "conv_bias",
                     "ln_gamma", "ln_beta", "out_proj"):
            getattr(uf, name).data[:] = getattr(fwd, name).data
        for name in ("a_log", "d_skip", "x_proj_weight", "dt_proj_weight",
                     "dt_proj_bias"):
            getattr(uf.ssm, name).data[:] = getattr(fwd.ssm, name).data
        for name in ("mamba_ln_gamma", "mamba_ln_beta", "conv_ln_gamma",
                     "conv_ln_beta", "conv_kernel", "conv_bias"):
            getattr(uni_layer, name).data[:] = getattr(layer, name).data
    for name in ("in_ln_gamma", "in_ln_beta", "in_weight", "in_bias",
                 "out_weight", "out_bias"):
        getattr(uni, name).data[:] = getattr(w, name).data
    rng = np.random.default_rng(10)
    y = np.abs(rng.standard_normal((11, 17)))
    m_bi = forward(t64(y), w, cfg).data
    m_uni = forward(t64(y), uni, uni_cfg).data
    np.testing.assert_allclose(m_bi, m_uni, atol=1e-12)
    assert m_bi.shape == (11, 17)


# the time block of the streamed masks below: at these widths the byte
# rule gives one block, so the block128 fixture forces this one
EDGE_BLOCK = 128


@pytest.fixture
def block128(monkeypatch):
    monkeypatch.setattr(network, "block_frames", lambda *shape: EDGE_BLOCK)


def test_block_frames_fit_256_kib():
    assert block_frames(512, 4) == 128   # convmamba-4 in float32
    assert block_frames(512, 8) == 64
    assert block_frames(64, 4) == 1024   # d_model 32
    assert block_frames(1 << 20, 8) == 1


def _streamed(y, w, cfg, groups, monkeypatch):
    """stream_mask of the ndarray y's rows with this many layer groups,
    checking that the rows it handed the sink, in order, are its mask."""
    spans = []
    with monkeypatch.context() as m:
        m.setattr(network, "_usable_cores", lambda: groups)
        mask = network.stream_mask(y, w, cfg, lambda rows: spans.append(rows.copy()))
    np.testing.assert_array_equal(np.concatenate(spans), mask)
    return mask


# the streamed mask against forward: row-blocked matmuls may round
# differently, nothing else does
BLOCKED_TOL = {np.float64: 1e-12, np.float32: 1e-6}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("causal", [False, True])
@pytest.mark.parametrize("n_layers", [1, 2, 4])
def test_blocked_forward_matches_one_block(dtype, causal, n_layers, block128, monkeypatch):
    cfg = ModelConfig(d_model=16, n_layers=n_layers, n_state=4, bins=17,
                      outer_conv_causal=causal)
    w = init_params(cfg, 3, dtype=dtype)
    rng = np.random.default_rng(n_layers)
    for length in (EDGE_BLOCK - 1, EDGE_BLOCK, EDGE_BLOCK + 1, 2 * EDGE_BLOCK + 3,
                   5 * EDGE_BLOCK):
        y = np.abs(rng.standard_normal((length, 17))).astype(dtype)
        one = _streamed(y, w, cfg, 1, monkeypatch)
        two = _streamed(y, w, cfg, 2, monkeypatch)
        np.testing.assert_array_equal(one, two, err_msg=f"L {length}")
        whole = forward(Tensor(y, dtype=dtype), w, cfg).data
        assert one.dtype == whole.dtype == dtype
        np.testing.assert_allclose(one, whole, rtol=0, atol=BLOCKED_TOL[dtype],
                                   err_msg=f"L {length}")


def test_blocked_forward_groups_under_thread_contention(block128, monkeypatch):
    """Four groups on one thread each, switched every microsecond, hand
    their blocks on without loss or reordering."""
    cfg = tiny_cfg(n_layers=4)
    w = init_params(cfg, 5, dtype=np.float64)
    y = np.abs(np.random.default_rng(9).standard_normal((6 * EDGE_BLOCK + 7, 17)))
    want = _streamed(y, w, cfg, 1, monkeypatch)
    np.testing.assert_allclose(want, forward(t64(y), w, cfg).data, rtol=0,
                               atol=BLOCKED_TOL[np.float64])
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(
            target=lambda: got.append(_streamed(y, w, cfg, 4, monkeypatch)),
            daemon=True)
        runner.start()
        runner.join(120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive(), "4-group stream_mask hung"
    np.testing.assert_array_equal(got[0], want)


def _error(call, groups, monkeypatch) -> ValueError:
    """The error of call on its own thread with this many layer groups,
    which must end within 60 s and leave no thread behind."""
    caught = []

    def run():
        try:
            with monkeypatch.context() as m:
                m.setattr(network, "_usable_cores", lambda: groups)
                call()
        except ValueError as exc:
            caught.append(exc)

    before = threading.active_count()
    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(60.0)
    assert not runner.is_alive(), f"{groups}-group call hung"
    assert threading.active_count() == before
    assert len(caught) == 1
    return caught[0]


@pytest.mark.parametrize("layer", [0, 3])
def test_blocked_forward_stage_failure_raises_and_ends(layer, block128, monkeypatch):
    """A NaN weight in either group's layers raises forward's error, from
    stream_mask and from a streamed enhance_waveform; a failing first group
    does not leave the second waiting for input."""
    cfg = tiny_cfg(n_layers=4)
    w = init_params(cfg, 8, dtype=np.float64)
    w.layers[layer].mamba.in_proj_x.data[1, 2] = np.nan
    y = np.abs(np.random.default_rng(7).standard_normal((3 * EDGE_BLOCK + 5, 17)))
    noisy = _noisy_frames(3 * EDGE_BLOCK + 5, np.random.default_rng(7))
    with pytest.raises(ValueError) as whole:
        forward(t64(y), w, cfg)
    assert str(whole.value) == "non-finite values produced by matmul"
    for call in (lambda: network.stream_mask(y, w, cfg, lambda rows: None),
                 lambda: enhance_waveform(noisy, w, cfg, SMALL_STFT)):
        one = _error(call, 1, monkeypatch)
        two = _error(call, 2, monkeypatch)
        assert str(two) == str(one) == str(whole.value)


# an STFT with the tiny models' 17 bins
SMALL_STFT = StftConfig(win_length=32, hop=16, fft_size=32)


def _noisy_frames(frames, rng) -> Waveform:
    """Noise that SMALL_STFT cuts into this many frames, the last one
    zero-padded."""
    n = (frames - 1) * SMALL_STFT.hop + SMALL_STFT.win_length - 5
    return Waveform(0.3 * rng.standard_normal(n))


def _enhance(noisy, w, cfg, groups, monkeypatch, block=None):
    """enhance_waveform's samples and mask with this many layer groups, and
    time blocks of block frames if given."""
    with monkeypatch.context() as m:
        m.setattr(network, "_usable_cores", lambda: groups)
        if block is not None:
            m.setattr(network, "block_frames", lambda *shape: block)
        enhanced, mask = enhance_waveform(noisy, w, cfg, SMALL_STFT)
    return enhanced.samples, mask


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("causal", [False, True])
def test_streamed_enhance_matches_one_block(dtype, causal, monkeypatch):
    """Each block's STFT, network and overlap-add in the pipeline give the
    one-block enhance: the same bits in float32, and in float64 up to the
    rounding of row-blocked matmuls. Blocks of 1, 2 and 4 frames are no
    longer than the centred stack's 4-frame lookahead, so some of their
    spans have no rows."""
    cfg = tiny_cfg(n_layers=4, outer_conv_causal=causal)
    w = init_params(cfg, 13, dtype=dtype)
    rng = np.random.default_rng(14)
    # enhance_waveform feeds the network magnitudes in the default dtype
    with f64_mode() if dtype == np.float64 else nullcontext():
        for block, frames in [(b, f) for b in (EDGE_BLOCK, 1, 2, 4)
                              for f in (b - 1, b, b + 1, 2 * b + 3, 5 * b) if f]:
            noisy = _noisy_frames(frames, rng)
            whole = _enhance(noisy, w, cfg, 1, monkeypatch, block=frames)
            assert whole[1].shape == (frames, 17) and whole[1].dtype == dtype
            for groups in (1, 2):
                got = _enhance(noisy, w, cfg, groups, monkeypatch, block=block)
                for part, want in zip(got, whole):
                    msg = f"block {block}, L {frames}, {groups} groups"
                    if dtype == np.float32:
                        np.testing.assert_array_equal(part, want, err_msg=msg)
                    else:
                        np.testing.assert_allclose(part, want, rtol=0, atol=1e-12,
                                                   err_msg=msg)


def test_blocked_groups_run_at_most_a_few_blocks_apart(block128, monkeypatch):
    """A first group that outpaces the last waits for room, so the blocks
    between them, and the spectra an enhance keeps for them, stay few; a
    last group that fails meanwhile does not leave it waiting."""
    import time

    class Source:
        def __init__(self, y):
            self.y, self.dtype, self.reads = y, y.dtype, 0

        def __len__(self):
            return len(self.y)

        def __getitem__(self, span):
            self.reads += 1
            return self.y[span]

    cfg = tiny_cfg()
    w = init_params(cfg, 18, dtype=np.float64)
    source = Source(np.abs(np.random.default_rng(19).standard_normal((12 * EDGE_BLOCK, 17))))
    ahead = []

    def slow_sink(rows):
        ahead.append(source.reads - len(ahead))
        time.sleep(0.02)

    monkeypatch.setattr(network, "_usable_cores", lambda: 2)
    network.stream_mask(source, w, cfg, slow_sink)
    assert len(ahead) == 12
    assert max(ahead) <= network._QUEUED_SPANS + 2, ahead

    def failing_sink(rows):
        time.sleep(0.05)
        raise ValueError("sink failed")

    error = _error(lambda: network.stream_mask(source, w, cfg, failing_sink), 2, monkeypatch)
    assert str(error) == "sink failed"


def test_bidirectional_enhance_stays_whole_sequence(block128, monkeypatch):
    cfg = tiny_cfg(bidirectional=True)
    w = init_params(cfg, 4, dtype=np.float32)
    noisy = _noisy_frames(2 * EDGE_BLOCK + 3, np.random.default_rng(15))
    spec = stft(noisy, SMALL_STFT)
    mask = forward(Tensor(magnitude(spec)), w, cfg).data
    want = istft(apply_mask(spec, mask), SMALL_STFT, out_len=len(noisy)).samples
    for groups in (1, 2):
        samples, got = _enhance(noisy, w, cfg, groups, monkeypatch)
        np.testing.assert_array_equal(got, mask)
        np.testing.assert_array_equal(samples, want)


def test_enhance_memory_grows_only_with_its_outputs(block128, monkeypatch):
    """Past the samples and the mask, a streamed enhance holds only per-block
    arrays: between 8 and 72 blocks on two layer groups, its peak allocation
    grows by at most 1.25 times the growth of those two outputs. Which
    per-block arrays the two threads hold at once depends on their timing,
    so each length takes the largest peak of three runs, and the lengths
    are far enough apart for the outputs' growth to dwarf that spread."""
    import tracemalloc
    cfg = tiny_cfg()
    w = init_params(cfg, 16)
    rng = np.random.default_rng(17)
    peaks, outputs = {}, {}
    monkeypatch.setattr(network, "_usable_cores", lambda: 2)
    for frames in (8 * EDGE_BLOCK, 72 * EDGE_BLOCK):
        noisy = _noisy_frames(frames, rng)
        enhance_waveform(noisy, w, cfg, SMALL_STFT)
        peaks[frames] = 0
        for _ in range(3):
            tracemalloc.start()
            enhanced, mask = enhance_waveform(noisy, w, cfg, SMALL_STFT)
            peaks[frames] = max(peaks[frames], tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        outputs[frames] = enhanced.samples.nbytes + mask.nbytes
    small, large = sorted(peaks)
    growth = peaks[large] - peaks[small]
    assert growth <= 1.25 * (outputs[large] - outputs[small]), (peaks, outputs)


def test_init_deterministic_and_bounded():
    cfg = tiny_cfg()
    w1 = init_params(cfg, 42)
    w2 = init_params(cfg, 42)
    for p1, p2 in zip(w1.named_parameters(), w2.named_parameters()):
        assert p1.name == p2.name
        np.testing.assert_array_equal(p1.tensor.data, p2.tensor.data)
    w3 = init_params(cfg, 43)
    assert any(not np.array_equal(p1.tensor.data, p3.tensor.data)
               for p1, p3 in zip(w1.named_parameters(), w3.named_parameters()))
    for p in w1.named_parameters():
        assert np.isfinite(p.tensor.data).all()
        # fan-in scaled and norm parameters stay inside the unit ball; the
        # state-decay logs and softplus-inverted step biases necessarily don't
        if not (p.name.endswith("a_log") or p.name.endswith("dt_proj.bias")):
            assert np.max(np.abs(p.tensor.data)) <= 1.0, p.name


def test_init_matches_declared_parameter_shapes():
    for cfg in (tiny_cfg(), tiny_cfg(bidirectional=True),
                tiny_cfg(conv_refine=False), tiny_cfg(learnable_skip=True)):
        w = init_params(cfg, 0)
        got = [(p.name, p.tensor.data.shape) for p in w.named_parameters()]
        assert got == parameter_shapes(cfg)


def test_preset_parameter_counts_match_published_sizes():
    published = {"mamba-4": 1.88e6, "convmamba-4": 1.92e6,
                 "convmamba-7": 3.26e6, "convmamba-13": 5.94e6}
    for name, want in published.items():
        got = count_params(ModelConfig.preset(name))
        assert abs(got - want) / want < 0.05, f"{name}: {got} vs {want}"


def test_count_params_layer_doubling_audit():
    c4 = count_params(tiny_cfg(n_layers=4))
    c8 = count_params(tiny_cfg(n_layers=8))
    fixed = count_params(tiny_cfg(n_layers=4)) - 4 * ((c8 - c4) // 4)
    per_layer = (c8 - c4) // 4
    assert c4 == fixed + 4 * per_layer
    assert c8 == fixed + 8 * per_layer


def test_learnable_skip_adds_parameters():
    base = count_params(tiny_cfg())
    with_skip = count_params(tiny_cfg(learnable_skip=True))
    assert with_skip == base + 2 * tiny_cfg().d_inner


def test_bidirectional_with_skip_gradients():
    from convmamba.masks import mask_mse_loss
    cfg = tiny_cfg(n_layers=1, bidirectional=True, learnable_skip=True)
    w = init_params(cfg, 11, dtype=np.float64)
    rng = np.random.default_rng(2)
    y = Tensor(np.abs(rng.standard_normal((5, 17))) + 0.1, dtype=np.float64)
    target = rng.uniform(0, 1, (5, 17))

    def loss():
        return mask_mse_loss(forward(y, w, cfg), target)

    tensors = [p.tensor for p in w.named_parameters()] + [y]
    assert max(finite_diff_check(lambda _: loss(), t) for t in tensors) < 1e-4


def test_forward_time_and_memory_scale_linearly():
    import time
    import tracemalloc
    cfg = ModelConfig(d_model=8, n_layers=1, n_state=4, bins=33)
    w = init_params(cfg, 0)
    rng = np.random.default_rng(3)
    lengths = [512, 1024, 2048]
    inputs = {n: Tensor(np.abs(rng.standard_normal((n, 33))).astype(np.float32))
              for n in lengths}
    peaks = {}
    for n, y in inputs.items():
        forward(y, w, cfg)
        tracemalloc.start()
        forward(y, w, cfg)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peaks[n] = peak
    ratios = paired_time_ratios(lambda n: forward(inputs[n], w, cfg), lengths,
                                rounds=5, budget=2048, clock=time.perf_counter)
    for a, b, ratio in zip(lengths, lengths[1:], ratios):
        assert ratio <= 2.4, f"time ratio {a}->{b}: {ratio:.2f}"
        assert peaks[b] / peaks[a] <= 2.4, f"memory ratio {a}->{b}"


def test_checkpoint_round_trip_bitwise(tmp_path):
    cfg = tiny_cfg()
    w = init_params(cfg, 11)  # default float32: stored exactly
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, w, cfg)
    w2, cfg2 = load_checkpoint(path)
    assert cfg2 == cfg
    rng = np.random.default_rng(1)
    y = Tensor(np.abs(rng.standard_normal((6, 17))))
    m1 = forward(y, w, cfg).data
    m2 = forward(y, w2, cfg2).data
    np.testing.assert_array_equal(m1, m2)


def _assert_flat_store(w, cfg, dtype):
    """Every trainable parameter is a view into w.flat, in parameter_shapes
    order, and together they cover it exactly."""
    flat = w.flat
    assert flat.ndim == 1 and flat.dtype == dtype and flat.flags.c_contiguous
    named = w.named_parameters()
    assert [(p.name, p.tensor.data.shape) for p in named] == parameter_shapes(cfg)
    start = 0
    for p in named:
        data = p.tensor.data
        assert data.base is flat, p.name
        offset = (data.__array_interface__["data"][0]
                  - flat.__array_interface__["data"][0]) // flat.itemsize
        assert offset == start and data.flags.c_contiguous, p.name
        start += data.size
    assert start == flat.size == count_params(cfg)


def test_parameters_are_views_into_one_flat_buffer():
    for cfg in (tiny_cfg(), tiny_cfg(bidirectional=True, conv_refine=False)):
        for dtype in (np.float32, np.float64):
            w = init_params(cfg, 3, dtype=dtype)
            _assert_flat_store(w, cfg, dtype)
            assert w.flat_grad is None
            # non-trainable tensors stay outside the buffer
            assert not np.shares_memory(w.layers[0].mamba.ssm.d_skip.data, w.flat)


def test_checkpoint_round_trip_fills_flat_buffer(tmp_path):
    cfg = tiny_cfg(learnable_skip=True)
    w = init_params(cfg, 12)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, w, cfg)
    for dtype in (np.float32, np.float64):
        w2, cfg2 = load_checkpoint(path, dtype=dtype)
        _assert_flat_store(w2, cfg2, dtype)
        # float32 values survive the round trip exactly in either dtype
        np.testing.assert_array_equal(w2.flat, w.flat.astype(dtype))
        again = tmp_path / f"again-{np.dtype(dtype).name}.ckpt"
        save_checkpoint(again, w2, cfg2)
        assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_checkpoint_non_finite_record_names_file_and_parameter(tmp_path, bad):
    cfg = tiny_cfg()
    w = init_params(cfg, 0)
    w.layers[1].mamba.out_proj.data[2, 3] = bad
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, w, cfg)
    with pytest.raises(CheckpointError, match="non-finite") as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)
    assert "layers.1.mamba.out_proj.weight" in str(err.value)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    cfg = tiny_cfg()
    w = init_params(cfg, 0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, w, cfg)
    path.write_bytes(path.read_bytes()[:100])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    cfg = tiny_cfg()
    w = init_params(cfg, 0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, w, cfg)
    path.write_bytes(path.read_bytes() + b"\x00" * 3)
    with pytest.raises(CheckpointError, match="3 trailing bytes"):
        load_checkpoint(path)


def test_checkpoint_config_mismatch_names_offender(tmp_path):
    cfg = tiny_cfg()
    w = init_params(cfg, 0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, w, cfg)
    raw = bytearray(path.read_bytes())
    # flip the stored d_model so every parameter shape disagrees
    key = b"d_model"
    at = raw.index(key) + len(key) + 1
    raw[at:at + 4] = (16).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="input_proj.weight"):
        load_checkpoint(path)


def test_checkpoint_config_that_fails_validation_names_file(tmp_path):
    cfg = tiny_cfg()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_params(cfg, 0), cfg)
    raw = bytearray(path.read_bytes())
    # an even outer_dw_kernel with the default centred outer conv
    key = b"outer_dw_kernel"
    at = raw.index(key) + len(key) + 1
    raw[at:at + 4] = (2).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="odd outer_dw_kernel") as err:
        load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: ")


@pytest.mark.parametrize("name", [b"d_model", b"input_proj.weight"])
def test_checkpoint_name_that_is_not_utf8_names_file(tmp_path, name):
    cfg = tiny_cfg()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_params(cfg, 0), cfg)
    raw = bytearray(path.read_bytes())
    raw[raw.index(name)] = 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="not UTF-8") as err:
        load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: ")
