"""What the benchmark measures: workloads, end-to-end and per-layer metrics.

BENCHMARK.json at the repository root is generated from these tables
(`python3 perfbench/run.py --write-spec`), so the file and the code that
fills it cannot drift apart.
"""

from __future__ import annotations

import json
from pathlib import Path

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

WORKLOADS = [
    ("enhance_mixed_len",
     "inference path: convmamba-4 enhance on 1-32 s files at -10..20 dB; scan "
     "slab spans L2 to beyond LLC and the shape-keyed workspace keeps changing"),
    ("train_c4_b10",
     "taped path: convmamba-4 at batch 10 on 1-3 s utterances; scan adjoint, "
     "tape memory, Adam on 1.9M parameters and the per-item batch_loss loop"),
    ("train_tiny",
     "dispatch-bound path: d_model 32, 2 layers, batch 1, 1 s at 0 dB; many "
     "small ops, so per-op Python cost and mixing/STFT dominate"),
]

# (name, unit, better, bound). Every workload reports every metric; see
# README.md for what each one means on the enhance and the train workloads.
# The bounds are wide because the run-to-run spread on a shared 2-core host
# is 0.03-0.08 even after rescaling (README.md, "Speed probe").
END_TO_END = [
    ("rtf_p50", "s/s", "lower", 0.25),
    ("audio_s_per_s", "s/s", "higher", 0.25),
    ("items_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
]

# Public functions timed by the traced run, as (layer, function, kind):
# "fb" has forward and backward spans, "call" has one span per call.
TENSOR_OPS = ["matmul", "add", "mul", "sub", "scale", "sum_all", "relu",
              "sigmoid", "silu", "softplus", "layer_norm", "slice_cols"]

TRACED = (
    [("audio", fn, "call") for fn in
     ("load_wav", "save_wav", "stft", "istft", "mix_at_snr")]
    + [("masks", fn, "call") for fn in ("irm", "apply_mask", "mask_mse_loss")]
    + [("tensor", op, "fb") for op in TENSOR_OPS]
    + [("tensor", "backward", "call")]
    + [("scan", "ssm_parameterize", "call"),
       ("scan", "selective_scan_seq", "fb")]
    + [("layers", "depthwise_conv1d", "fb"),
       ("layers", "mamba_layer", "call"),
       ("layers", "conv_mamba_layer", "call")]
    + [("network", fn, "call") for fn in ("forward", "init_params")]
    + [("training", fn, "call") for fn in
       ("sample_mixture", "make_batch", "batch_loss", "clip_gradients",
        "adam_step", "train_loop")]
    + [("checkpoint", fn, "call") for fn in ("load_checkpoint", "save_checkpoint")]
    + [("pipeline", "enhance_waveform", "call")]
)

# Metric prefix of a traced function where it differs from layer.function.
METRIC_NAME = {("scan", "selective_scan_seq"): "scan.selective_scan"}

# Counts and checks that the traced run adds next to the timings.
EXTRA_PER_LAYER = [
    ("tensor.ops_per_step", "count", "lower"),
    ("scan.slab_bytes", "bytes", "lower"),
    ("scan.slab_bytes_max", "bytes", "lower"),
    ("training.loss_at_end", "mse", "lower"),
    ("bench.self_ms", "ms", "lower"),
    ("trace.ops", "count", "higher"),
    ("trace.untraced_s", "s", "lower"),
    ("trace.traced_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.self_sum_ratio", "ratio", "higher"),
]


def metric_prefix(layer: str, fn: str) -> str:
    return METRIC_NAME.get((layer, fn), f"{layer}.{fn}")


def per_layer() -> list[tuple[str, str, str]]:
    out = []
    for layer, fn, kind in TRACED:
        prefix = metric_prefix(layer, fn)
        if kind == "fb":
            out += [(f"{prefix}.fwd_ms", "ms", "lower"),
                    (f"{prefix}.bwd_ms", "ms", "lower")]
        else:
            out.append((f"{prefix}.ms", "ms", "lower"))
        out.append((f"{prefix}.calls", "count", "lower"))
    return out + EXTRA_PER_LAYER


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in per_layer()],
    }


def write_benchmark_json(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n", encoding="utf-8")
    return path
