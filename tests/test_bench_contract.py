"""The names that perfbench binds in the package, and the calls it counts.

perfbench/spec.py lists the functions a traced run wraps, and its StepClock
wraps training.make_batch and training.adam_step in every run; a missing
name fails the benchmark before it measures anything.
"""

import importlib
import runpy
from pathlib import Path

from convmamba import training
from convmamba.network import ModelConfig
from convmamba.training import TrainConfig, WavPool, list_pool, train_loop

SPEC = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "spec.py"))


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
