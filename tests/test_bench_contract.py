"""The names that perfbench binds in the package, the call shapes it uses,
and the calls it counts.

perfbench/spec.py lists the functions a traced run wraps, and its StepClock
wraps training.make_batch and training.adam_step in every run; a missing
name fails the benchmark before it measures anything.
"""

import importlib
import runpy
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import convmamba
from convmamba import masks, training
from convmamba.audio import StftConfig
from convmamba.network import ModelConfig, init_params
from convmamba.pipeline import enhance_waveform
from convmamba.tensor import Tensor
from convmamba.training import (TrainConfig, WavPool, list_pool, sample_mixture,
                                train_loop)

from conftest import synth_speechlike

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPEC = runpy.run_path(str(PERFBENCH / "spec.py"))
# the modules perfbench/run.py hands to its Tracer, as import_program names them
PROGRAM_MODULES = ("audio", "checkpoint", "layers", "masks", "metrics",
                   "network", "pipeline", "scan", "tensor", "training")


def test_every_bound_name_exists():
    bound = [(layer, fn) for layer, fn, _ in SPEC["TRACED"]]
    bound += [("training", "make_batch"), ("training", "adam_step")]  # StepClock
    missing = [f"{layer}.{fn}" for layer, fn in bound
               if not callable(getattr(importlib.import_module(f"convmamba.{layer}"),
                                       fn, None))]
    assert missing == []


def test_make_batch_runs_once_per_train_step(corpus, tmp_path, monkeypatch):
    # StepClock reads each step's item count from make_batch's argument, so
    # validation must not call it
    calls = []
    real = training.make_batch
    monkeypatch.setattr(training, "make_batch",
                        lambda items: calls.append(len(items)) or real(items))
    clean_dir, noise_dir = corpus
    tcfg = TrainConfig(batch_size=1, epochs=1, seed=2, val_items=2,
                       checkpoint_every=0)
    result = train_loop(ModelConfig(d_model=8, n_layers=1, n_state=4), tcfg,
                        WavPool(list_pool(clean_dir)), WavPool(list_pool(noise_dir)),
                        tmp_path / "run")
    assert result.steps == 3
    assert calls == [1, 1, 1]


def test_enhance_waveform_call_shape():
    # the enhance workload calls it positionally with a fresh StftConfig and
    # checks the samples and the mask it returns
    cfg = ModelConfig(d_model=8, n_layers=1, n_state=4)
    noisy = synth_speechlike(np.random.default_rng(3), seconds=0.25)
    enhanced, mask = enhance_waveform(noisy, init_params(cfg, 0), cfg, StftConfig())
    assert isinstance(enhanced.samples, np.ndarray) and len(enhanced) == len(noisy)
    assert isinstance(mask, np.ndarray) and mask.shape[1] == cfg.bins
    assert 0.0 <= mask.min() and mask.max() <= 1.0


def test_sample_mixture_reports_n_samples(corpus):
    # StepClock reads each item's meta["n_samples"] to count audio seconds
    clean_dir, noise_dir = corpus
    clean = WavPool(list_pool(clean_dir))
    item = sample_mixture(clean, WavPool(list_pool(noise_dir)), TrainConfig(),
                          np.random.default_rng(0), clean_index=0)
    assert item.meta["n_samples"] == len(clean.load(0))


def test_traced_mask_functions_take_arrays():
    s_mag = np.array([[3.0, 0.0]])
    mask = masks.irm(s_mag, np.array([[4.0, 1.0]]))
    spec = masks.apply_mask(np.array([[1.0 + 2.0j, 3.0 - 1.0j]]), mask)
    assert spec.shape == (1, 2) and np.iscomplexobj(spec)
    pred = Tensor(mask, dtype=np.float64)
    assert masks.mask_mse_loss(pred, mask).item() == 0.0


def _tracer_class(monkeypatch):
    """perfbench's Tracer, imported from its own directory; the modules it
    brings in are dropped again so no other test sees them."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    try:
        from tracer import Tracer
    finally:
        for name in ("spec", "tracer"):
            if name not in before:
                sys.modules.pop(name, None)
    return Tracer


def test_traced_adjoints_pass_gradients_through(corpus, monkeypatch):
    # the Tracer wraps each adjoint that tensor._finish records, and the
    # gradients travel back through the wrapper's return value
    Tracer = _tracer_class(monkeypatch)
    program = SimpleNamespace(
        package=convmamba, MODULES=("package",) + PROGRAM_MODULES,
        **{m: importlib.import_module(f"convmamba.{m}") for m in PROGRAM_MODULES})
    clean_dir, noise_dir = corpus
    clean, noise = WavPool(list_pool(clean_dir)), WavPool(list_pool(noise_dir))
    rng = np.random.default_rng(6)
    batch = [sample_mixture(clean, noise, TrainConfig(), rng) for _ in range(2)]
    cfg = ModelConfig(d_model=8, n_layers=1, n_state=4)
    weights = init_params(cfg, 1)
    with Tracer(program) as tracer:
        traced_loss = training.batch_gradients(batch, weights, cfg)
    traced = weights.flat_grad.copy()
    assert tracer.self_times()[1]["tensor.matmul.bwd"] > 0
    assert training.batch_gradients(batch, weights, cfg) == traced_loss
    assert weights.flat_grad.tobytes() == traced.tobytes()
    assert traced.any()
