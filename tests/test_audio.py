"""WAV I/O, STFT round trips, Parseval consistency, SNR mixing."""

import numpy as np
import pytest

from convmamba.audio import (AudioError, DegenerateSignalError, OverlapAdd,
                             StftConfig, Waveform, istft, load_wav, magnitude,
                             mix_at_snr, num_frames, save_wav, stft, stft_frames)

from conftest import write_nan_wav


def rand_wave(rng, seconds=1.0, rate=16000):
    n = int(seconds * rate)
    return Waveform(rng.uniform(-0.9, 0.9, size=n), rate)


def test_pcm16_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    wav = rand_wave(rng)
    path = tmp_path / "a.wav"
    save_wav(path, wav, encoding="pcm16")
    back = load_wav(path)
    assert len(back) == len(wav)
    assert np.max(np.abs(back.samples - wav.samples)) <= 1.0 / 32768.0


def test_float32_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    wav = rand_wave(rng, seconds=0.25)
    path = tmp_path / "f.wav"
    save_wav(path, wav, encoding="float32")
    back = load_wav(path)
    np.testing.assert_array_equal(back.samples,
                                  wav.samples.astype(np.float32).astype(np.float64))


def test_stereo_rejected(tmp_path):
    import struct
    payload = np.zeros(64, dtype="<i2").tobytes()
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload),
                         b"WAVE", b"fmt ", 16, 1, 2, 16000, 64000, 4, 16,
                         b"data", len(payload))
    path = tmp_path / "stereo.wav"
    path.write_bytes(header + payload)
    with pytest.raises(AudioError, match="unsupported channel count"):
        load_wav(path)


def test_wrong_rate_rejected(tmp_path):
    wav = Waveform(np.zeros(100) + 0.1, sample_rate=8000)
    path = tmp_path / "8k.wav"
    save_wav(path, wav)
    with pytest.raises(AudioError, match="unsupported sample rate"):
        load_wav(path)


def test_not_a_wav_rejected(tmp_path):
    path = tmp_path / "x.wav"
    path.write_bytes(b"garbage bytes here")
    with pytest.raises(AudioError, match="not a RIFF/WAVE"):
        load_wav(path)


def test_wav_data_shorter_than_declared_rejected(tmp_path):
    path = tmp_path / "short.wav"
    save_wav(path, Waveform(np.zeros(1000)))
    path.write_bytes(path.read_bytes()[:-500])
    with pytest.raises(AudioError, match="truncated") as err:
        load_wav(path)
    assert str(path) in str(err.value)


def test_wav_odd_pcm16_byte_count_rejected(tmp_path):
    path = tmp_path / "odd.wav"
    save_wav(path, Waveform(np.zeros(1000)))
    raw = bytearray(path.read_bytes())
    raw[40:44] = (2001).to_bytes(4, "little")   # data chunk size field
    path.write_bytes(bytes(raw) + b"\x00\x00")   # one more data byte, then the pad byte
    with pytest.raises(AudioError, match="whole number") as err:
        load_wav(path)
    assert str(path) in str(err.value)


def test_wav_fmt_chunk_shorter_than_16_bytes_rejected(tmp_path):
    import struct
    payload = np.zeros(64, dtype="<i2").tobytes()
    # a 14-byte fmt chunk: everything up to the block align, no bits field
    fmt = struct.pack("<HHIIH", 1, 1, 16000, 32000, 2)
    path = tmp_path / "short_fmt.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(payload))
                     + b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
                     + b"data" + struct.pack("<I", len(payload)) + payload)
    with pytest.raises(AudioError, match="fmt chunk of 14 bytes") as err:
        load_wav(path)
    assert str(path) in str(err.value)


def test_non_finite_wav_rejected_naming_the_file(tmp_path):
    path = write_nan_wav(tmp_path / "nan.wav")
    with pytest.raises(AudioError, match="non-finite") as err:
        load_wav(path)
    assert str(path) in str(err.value)
    with pytest.raises(AudioError, match="non-finite"):
        Waveform(np.array([0.0, np.inf]))


def test_stft_zero_input():
    spec = stft(Waveform(np.zeros(4000)))
    assert np.max(np.abs(spec.real)) == 0.0 and np.max(np.abs(spec.imag)) == 0.0
    assert spec.shape[1] == 257


def test_frame_count_formula():
    cfg = StftConfig()
    assert num_frames(1024, cfg) == 3
    assert stft(Waveform(np.ones(1024) * 0.1), cfg).shape[0] == 3
    assert num_frames(512, cfg) == 1
    assert num_frames(100, cfg) == 1
    assert num_frames(513, cfg) == 2


def test_sinusoid_hits_expected_bin():
    # 1000 Hz at 16 kHz with a 512-point DFT lands exactly on bin 32
    t = np.arange(16000) / 16000.0
    spec = stft(Waveform(0.5 * np.sin(2 * np.pi * 1000.0 * t)))
    mags = magnitude(spec)
    assert (mags.argmax(axis=1) == 32).all()


def test_istft_round_trip_exact_on_covered_samples():
    rng = np.random.default_rng(5)
    for seconds in (0.5, 1.0):
        wav = rand_wave(rng, seconds=seconds)
        rec = istft(stft(wav), StftConfig(), out_len=len(wav))
        # sample 0 carries zero sqrt-Hann weight and is unrecoverable
        err = np.abs(rec.samples[1:] - wav.samples[1:])
        assert err.max() < 1e-6
        rel = np.linalg.norm(rec.samples[1:] - wav.samples[1:]) / np.linalg.norm(wav.samples[1:])
        assert rel < 1e-10


# the index-gather framing and np.add.at overlap-add that stft and istft
# replaced, kept as oracles: same values bit for bit

def _gather_stft(x, cfg):
    frames = num_frames(x.size, cfg)
    padded = np.zeros((frames - 1) * cfg.hop + cfg.win_length)
    padded[:x.size] = x
    idx = np.arange(frames)[:, None] * cfg.hop + np.arange(cfg.win_length)[None, :]
    spec = np.fft.rfft(padded[idx] * cfg.window_values(), n=cfg.fft_size, axis=1)
    return spec.real, spec.imag


def _add_at_istft(spec, cfg):
    win = cfg.window_values()
    frames_td = np.fft.irfft(spec, n=cfg.fft_size, axis=1)
    frames_td = frames_td[:, :cfg.win_length] * win
    total = (spec.shape[0] - 1) * cfg.hop + cfg.win_length
    out = np.zeros(total)
    wsum = np.zeros(total)
    idx = np.arange(spec.shape[0])[:, None] * cfg.hop + np.arange(cfg.win_length)[None, :]
    np.add.at(out, idx, frames_td)
    np.add.at(wsum, idx, np.broadcast_to(win ** 2, idx.shape))
    covered = wsum > 1e-10
    out[covered] /= wsum[covered]
    out[~covered] = 0.0
    return out


@pytest.mark.parametrize("win,hop", [(512, 256), (512, 128), (400, 160)])
def test_stft_and_istft_match_gather_and_add_at_oracles_bitwise(win, hop):
    rng = np.random.default_rng(win + hop)
    cfg = StftConfig(win_length=win, hop=hop, fft_size=512)
    for n in (1, win - 1, win, win + 1, 7 * hop + 3, 16000):
        x = rng.uniform(-0.9, 0.9, n)
        spec = stft(Waveform(x), cfg)
        re, im = _gather_stft(x, cfg)
        assert spec.real.tobytes() == re.tobytes() and spec.imag.tobytes() == im.tobytes()
        assert istft(spec, cfg).samples.tobytes() == _add_at_istft(spec, cfg).tobytes()


@pytest.mark.parametrize("win,hop", [(512, 256), (512, 128), (400, 160)])
def test_overlap_add_in_blocks_matches_istft_bitwise(win, hop):
    # blocks shorter than a frame's hop count (1 and 2 at hop 128) carry
    # window sums over more than one block
    cfg = StftConfig(win_length=win, hop=hop, fft_size=512)
    x = np.random.default_rng(win - hop).uniform(-0.9, 0.9, 7 * hop + 3)
    spec = stft(Waveform(x), cfg)
    want = istft(spec, cfg, out_len=x.size).samples.tobytes()
    for sizes in ([1] * len(spec), [2, 1, len(spec) - 3], [len(spec) - 1, 1]):
        synth = OverlapAdd(len(spec), cfg, out_len=x.size)
        for t0, t1 in zip(np.cumsum([0] + sizes[:-1]), np.cumsum(sizes)):
            synth.add(spec[t0:t1])
        assert synth.result().samples.tobytes() == want, sizes
    assert stft_frames(x, 2, 3, cfg).tobytes() == spec[2:5].tobytes()


def test_istft_zero_spectrogram():
    spec = stft(Waveform(np.zeros(2048)))
    out = istft(spec, StftConfig(), out_len=2048)
    assert np.max(np.abs(out.samples)) == 0.0


def test_istft_out_len_limit():
    spec = stft(Waveform(np.ones(1000) * 0.1))
    with pytest.raises(AudioError, match="reconstructable"):
        istft(spec, StftConfig(), out_len=10 ** 6)


def test_istft_rejects_bin_count_mismatch():
    # irfft(n=fft_size) would silently pad or truncate a mismatched spectrum
    spec = stft(Waveform(np.ones(1000) * 0.1), StftConfig(256, 128, 256))
    assert spec.shape[1] == 129
    with pytest.raises(AudioError, match="257"):
        istft(spec, StftConfig())


def test_istft_requires_the_analysis_config():
    # hop 128 has the default's bin count, so only the config tells the hops apart
    cfg = StftConfig(512, 128, 512)
    wav = rand_wave(np.random.default_rng(11), seconds=1.0)
    spec = stft(wav, cfg)
    rec = istft(spec, cfg, out_len=len(wav))
    assert np.max(np.abs(rec.samples[1:] - wav.samples[1:])) < 1e-12
    with pytest.raises(TypeError):
        istft(spec)


def test_stft_istft_stft_idempotent():
    rng = np.random.default_rng(9)
    wav = rand_wave(rng, seconds=0.5)
    s1 = stft(wav)
    wav2 = istft(s1, StftConfig(), out_len=len(wav))
    s2 = stft(wav2)
    scale = np.max(np.hypot(s1.real, s1.imag))
    assert np.max(np.abs(s2.real - s1.real)) / scale < 1e-6
    assert np.max(np.abs(s2.imag - s1.imag)) / scale < 1e-6


def test_parseval_per_frame():
    rng = np.random.default_rng(11)
    cfg = StftConfig()
    wav = rand_wave(rng, seconds=0.3)
    spec = stft(wav, cfg)
    win = cfg.window_values()
    padded = np.zeros((spec.shape[0] - 1) * cfg.hop + cfg.win_length)
    padded[:len(wav)] = wav.samples
    weights = np.full(cfg.bins, 2.0)
    weights[0] = weights[-1] = 1.0  # conjugate-symmetry weights for one-sided spectra
    for l in range(spec.shape[0]):
        frame = padded[l * cfg.hop:l * cfg.hop + cfg.win_length] * win
        time_energy = np.sum(frame ** 2)
        spec_energy = np.sum(weights * (spec.real[l] ** 2 + spec.imag[l] ** 2)) / cfg.fft_size
        assert abs(time_energy - spec_energy) <= 1e-8 * max(1.0, time_energy)


def test_magnitude_conventions():
    mags = magnitude(np.array([[3.0 + 4.0j, 0.0]]))
    assert mags[0, 0] == 5.0 and mags[0, 1] == 0.0
    rng = np.random.default_rng(3)
    re = rng.standard_normal((4, 257))
    im = rng.standard_normal((4, 257))
    np.testing.assert_allclose(magnitude(re + 1j * im), np.sqrt(re ** 2 + im ** 2), atol=1e-15)


def test_mix_gain_closed_form():
    rng = np.random.default_rng(2)
    base = rng.standard_normal(8000)
    clean = Waveform(base)
    noise = Waveform(np.roll(base, 1234))  # equal power
    noisy, used = mix_at_snr(clean, noise, 0.0, np.random.default_rng(0))
    assert abs(used.power() - clean.power()) < 1e-12  # g = 1
    _, used20 = mix_at_snr(clean, noise, 20.0, np.random.default_rng(0))
    g = np.sqrt(used20.power() / noise.power())
    assert abs(g - 0.1) < 1e-12


def measured_snr_db(clean: Waveform, noise_used: Waveform) -> float:
    return 10.0 * np.log10(clean.power() / noise_used.power())


def test_mix_measured_snr_exact_over_100_cases():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        clean = Waveform(rng.standard_normal(4000) * rng.uniform(0.1, 1.0))
        noise = Waveform(rng.standard_normal(9000) * rng.uniform(0.1, 1.0))
        snr = rng.uniform(-10, 20)
        _, used = mix_at_snr(clean, noise, snr, rng)
        worst = max(worst, abs(measured_snr_db(clean, used) - snr))
    assert worst < 0.01


def test_mix_rejects_silence():
    rng = np.random.default_rng(0)
    live = Waveform(np.ones(1000) * 0.5)
    with pytest.raises(DegenerateSignalError):
        mix_at_snr(live, Waveform(np.zeros(2000)), 0.0, rng)
    with pytest.raises(DegenerateSignalError):
        mix_at_snr(Waveform(np.zeros(1000)), live, 0.0, rng)


def test_mix_requires_noise_at_least_clean_length():
    rng = np.random.default_rng(0)
    with pytest.raises(AudioError):
        mix_at_snr(Waveform(np.ones(1000)), Waveform(np.ones(500)), 0.0, rng)
