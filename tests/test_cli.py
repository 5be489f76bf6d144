"""Command-line surface: config handling, exit codes, file outputs."""

import numpy as np
import pytest

from convmamba import cli
from convmamba import tensor as tz
from convmamba.audio import Waveform, load_wav, save_wav
from convmamba.checkpoint import save_checkpoint
from convmamba.network import ModelConfig, init_params
from convmamba.runconfig import (ConfigError, build_run_config,
                                 parse_config_text, parse_overrides)

from conftest import synth_speechlike, write_corpus, write_nan_wav


def run(*argv):
    return cli.main(list(argv))


def small_ckpt(tmp_path, seed=0, zero_output=False):
    cfg = ModelConfig(d_model=8, n_layers=1, n_state=4)
    w = init_params(cfg, seed)
    if zero_output:
        w.out_weight.data[:] = 0.0
        w.out_bias.data[:] = 0.0
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, w, cfg)
    return path


def test_config_text_round_trip():
    rc = build_run_config(parse_config_text(
        "model.preset = convmamba-4\n"
        "model.d_model = 64   # override inside a preset\n"
        "train.target = psm\n"
        "train.epochs = 2\n"
        "stft.hop = 256\n"))
    assert rc.model.d_model == 64 and rc.model.n_layers == 4
    assert rc.model.conv_refine is True
    assert rc.train.epochs == 2
    from convmamba.masks import MaskKind
    assert rc.train.target is MaskKind.PSM


def test_config_unknown_key_rejected():
    with pytest.raises(ConfigError, match="model.dmodel"):
        parse_config_text("model.dmodel = 3\n")
    with pytest.raises(ConfigError, match="foo.bar"):
        parse_overrides(["foo.bar=1"])
    # Adam's constants and the paper's [-1, 1] clip are fixed in training
    for key in ("beta1", "beta2", "adam_eps", "clip_lo", "clip_hi"):
        with pytest.raises(ConfigError, match=f"train.{key}"):
            parse_overrides([f"train.{key}=0.9"])


def test_config_bad_values():
    with pytest.raises(ConfigError, match="train.epochs"):
        build_run_config({"train.epochs": "many"})
    with pytest.raises(ConfigError, match="train.target"):
        build_run_config({"train.target": "binary"})
    with pytest.raises(ConfigError, match="bins"):
        build_run_config({"stft.fft_size": "256", "stft.win_length": "256"})


def test_cli_unknown_config_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("model.nonsense = 1\n", encoding="utf-8")
    assert run("--config", str(cfg), "train") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "model.nonsense" in err
    assert run("--set", "train.beta1=0.9", "train") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unknown config key 'train.beta1'" in err


def test_cli_missing_noise_dir_exit_2(tmp_path, capsys):
    clean_dir, _ = write_corpus(tmp_path / "data", n_clean=1, n_noise=1)
    code = run("--set", f"data.clean_dir={clean_dir}",
               "--set", f"data.noise_dir={tmp_path/'nope'}",
               "--set", "train.epochs=1", "train")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "noise root not found" in err


def test_cli_train_smoke(tmp_path, capsys):
    clean_dir, noise_dir = write_corpus(tmp_path / "data", n_clean=2, n_noise=1)
    out = tmp_path / "run"
    code = run("--set", f"data.clean_dir={clean_dir}",
               "--set", f"data.noise_dir={noise_dir}",
               "--set", f"out.dir={out}",
               "--set", "model.d_model=8", "--set", "model.n_layers=1",
               "--set", "train.epochs=2", "--set", "train.batch_size=2",
               "--set", "train.val_items=1", "--seed", "3", "train")
    assert code == 0
    assert (out / "metrics.csv").exists()
    assert (out / "checkpoints" / "final.ckpt").exists()
    assert "trained" in capsys.readouterr().out


def test_cli_enhance_duration_and_determinism(tmp_path):
    ckpt = small_ckpt(tmp_path, seed=1)
    rng = np.random.default_rng(0)
    wav_in = tmp_path / "in.wav"
    save_wav(wav_in, synth_speechlike(rng, seconds=1.0))
    out1 = tmp_path / "out1.wav"
    out2 = tmp_path / "out2.wav"
    assert run("enhance", str(ckpt), str(wav_in), str(out1)) == 0
    assert run("enhance", str(ckpt), str(wav_in), str(out2)) == 0
    original = load_wav(wav_in)
    enhanced = load_wav(out1)
    assert len(enhanced) == len(original)
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_enhance_zero_output_conv_halves_signal(tmp_path):
    ckpt = small_ckpt(tmp_path, zero_output=True)  # mask == sigmoid(0) == 0.5
    rng = np.random.default_rng(1)
    wav_in = tmp_path / "in.wav"
    save_wav(wav_in, synth_speechlike(rng, seconds=0.5))
    wav_out = tmp_path / "out.wav"
    assert run("enhance", str(ckpt), str(wav_in), str(wav_out)) == 0
    x = load_wav(wav_in).samples
    y = load_wav(wav_out).samples
    assert np.max(np.abs(y[1:] - 0.5 * x[1:])) < 3.0 / 32768.0


def test_cli_enhance_rejects_bad_inputs(tmp_path, capsys):
    ckpt = small_ckpt(tmp_path)
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"not audio")
    assert run("enhance", str(ckpt), str(bad), str(tmp_path / "o.wav")) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert run("enhance", str(tmp_path / "missing.ckpt"),
               str(bad), str(tmp_path / "o.wav")) == 2


def test_cli_non_finite_wav_names_the_file(tmp_path, capsys):
    bad = write_nan_wav(tmp_path / "nan.wav")
    ckpt = small_ckpt(tmp_path)
    assert run("enhance", str(ckpt), str(bad), str(tmp_path / "o.wav")) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and str(bad) in err[0]
    clean_dir, noise_dir = write_corpus(tmp_path / "data", n_clean=1, n_noise=1)
    bad_clean = write_nan_wav(clean_dir / "clean_00.wav", n=8000)
    assert run("--set", f"data.clean_dir={clean_dir}",
               "--set", f"data.noise_dir={noise_dir}",
               "--set", f"out.dir={tmp_path / 'run'}",
               "--set", "model.d_model=8", "--set", "model.n_layers=1",
               "--set", "train.epochs=1", "--set", "train.val_items=1",
               "train") == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and str(bad_clean) in err[0]


def test_cli_eval_oracle_gain_and_determinism(tmp_path):
    clean_dir, noise_dir = write_corpus(tmp_path / "data", n_clean=2,
                                        n_noise=1, seconds=1.0)
    out1 = tmp_path / "eval1.csv"
    out2 = tmp_path / "eval2.csv"
    args = ("--seed", "5", "eval", "--mode", "oracle", "--clean-dir",
            str(clean_dir), "--noise-dir", str(noise_dir), "--snrs", "0")
    assert run(*args, "--out", str(out1)) == 0
    assert run(*args, "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = out1.read_text().splitlines()
    assert rows[0] == "clean,noise,snr_db,si_sdr_noisy_db,si_sdr_db,seg_snr_db,mask_mse"
    mean = rows[-1].split(",")
    gain = float(mean[4]) - float(mean[3])
    assert gain >= 5.0


def test_cli_eval_passthrough_tracks_mixing_snr(tmp_path):
    clean_dir, noise_dir = write_corpus(tmp_path / "data", n_clean=2,
                                        n_noise=1, seconds=1.0)
    out = tmp_path / "eval.csv"
    assert run("--seed", "1", "eval", "--mode", "passthrough",
               "--clean-dir", str(clean_dir), "--noise-dir", str(noise_dir),
               "--snrs", "0,10", "--out", str(out)) == 0
    for line in out.read_text().splitlines()[1:-1]:
        parts = line.split(",")
        assert abs(float(parts[3]) - float(parts[2])) < 0.5
        assert abs(float(parts[4]) - float(parts[2])) < 0.5


def test_cli_eval_model_mode_requires_checkpoint(tmp_path, capsys):
    clean_dir, noise_dir = write_corpus(tmp_path / "data", n_clean=1, n_noise=1)
    assert run("eval", "--clean-dir", str(clean_dir),
               "--noise-dir", str(noise_dir)) == 2
    assert "checkpoint" in capsys.readouterr().err


def test_cli_gradcheck_negative_control(monkeypatch, capsys):
    real_finish = tz._finish
    real_sigmoid = tz.sigmoid

    def sabotaged_sigmoid(x):
        s = tz._sigmoid(x.data)

        def bwd(g):
            return (-g * s * (1.0 - s),)  # wrong sign

        return real_finish("sigmoid", s, (x,), bwd)

    monkeypatch.setattr(tz, "sigmoid", sabotaged_sigmoid)
    assert run("gradcheck") == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "sigmoid" in out
    monkeypatch.setattr(tz, "sigmoid", real_sigmoid)


def test_cli_usage_error_is_single_line(capsys):
    assert run("no-such-command") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
