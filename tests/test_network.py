"""Full network: forward contracts, init, parameter counts, checkpoints."""

import numpy as np
import pytest

from convmamba.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from convmamba.network import (ModelConfig, count_params, forward,
                               init_params, parameter_shapes)
from convmamba.tensor import Tensor, finite_diff_check


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
    import gc
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
    times = {n: np.inf for n in lengths}
    gc.collect()
    gc.disable()
    try:
        for _ in range(5):
            for n, y in inputs.items():
                calls = max(1, 2048 // n)
                start = time.perf_counter()
                for _ in range(calls):
                    forward(y, w, cfg)
                times[n] = min(times[n], (time.perf_counter() - start) / calls)
    finally:
        gc.enable()
    for a, b in zip(lengths, lengths[1:]):
        assert times[b] / times[a] <= 2.4, f"time ratio {a}->{b}"
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
