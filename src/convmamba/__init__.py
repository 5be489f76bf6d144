"""Selective state-space speech enhancement with conv-augmented Mamba layers."""

from .audio import (StftConfig, Waveform, istft, load_wav, magnitude,
                    mix_at_snr, save_wav, stft)
from .checkpoint import load_checkpoint, save_checkpoint
from .masks import MaskKind, apply_mask, irm, mask_mse_loss, psm
from .metrics import seg_snr, si_sdr
from .network import (ModelConfig, NetworkWeights, count_params, forward,
                      init_params)
from .pipeline import enhance_waveform
from .scan import (SelectiveInputs, SsmParams, selective_scan_seq,
                   ssm_parameterize)
from .tensor import (Parameter, Tape, Tensor, backward, finite_diff_check,
                     set_default_dtype)
from .training import (AdamState, TrainConfig, WavPool, adam_step,
                       clip_gradients, make_batch, sample_mixture, train_loop,
                       warmup_lr)

__version__ = "0.1.0"
