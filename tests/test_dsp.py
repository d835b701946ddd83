"""Tests for audio I/O, resampling, STFT features, and augmentation."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import upfirdn

from seldkit import dsp
from seldkit.errors import (
    DegenerateInputError,
    FormatError,
    InputError,
    SeldError,
    TruncatedFileError,
    UnsupportedError,
)
from traced_memory import traced_peak


def tone(freq_hz, sr, dur_s, n_channels=1, amp=0.5):
    t = np.arange(int(dur_s * sr)) / sr
    x = amp * np.sin(2 * np.pi * freq_hz * t)
    return dsp.AudioClip(
        samples=np.tile(x, (n_channels, 1)).astype(np.float32), sample_rate_hz=sr
    )


# ---------------------------------------------------------------------------
# WAV I/O
# ---------------------------------------------------------------------------

class TestWavIO:
    def test_pcm16_shape_and_rate(self, tmp_path):
        clip = tone(440, 44100, 1.0, n_channels=4)
        path = tmp_path / "t.wav"
        dsp.write_wav(path, clip, encoding="pcm16")
        back = dsp.read_wav(path)
        assert back.samples.shape == (4, 44100)
        assert back.sample_rate_hz == 44100

    def test_int16_min_scales_to_minus_one(self, tmp_path):
        path = tmp_path / "m.wav"
        payload = struct.pack("<2h", -32768, 32767)
        _write_raw_wav(path, payload, audio_format=1, bits=16, channels=1, rate=8000)
        clip = dsp.read_wav(path)
        assert clip.samples[0, 0] == -1.0
        assert clip.samples[0, 1] == pytest.approx(32767 / 32768)

    @pytest.mark.parametrize("encoding", ["pcm16", "pcm24", "float32"])
    def test_roundtrip_tolerance(self, tmp_path, encoding):
        rng = np.random.default_rng(3)
        clip = dsp.AudioClip(
            samples=rng.uniform(-0.99, 0.99, (2, 2000)).astype(np.float32),
            sample_rate_hz=16000,
        )
        path = tmp_path / "r.wav"
        dsp.write_wav(path, clip, encoding=encoding)
        back = dsp.read_wav(path)
        tol = {"pcm16": 2 / 32768, "pcm24": 2 / (1 << 23), "float32": 0.0}[encoding]
        assert np.max(np.abs(back.samples - clip.samples)) <= tol

    def test_float32_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        clip = dsp.AudioClip(
            samples=rng.uniform(-1, 1, (3, 777)).astype(np.float32),
            sample_rate_hz=22050,
        )
        path = tmp_path / "f.wav"
        dsp.write_wav(path, clip, encoding="float32")
        assert np.array_equal(dsp.read_wav(path).samples, clip.samples)

    def test_8bit_rejected(self, tmp_path):
        path = tmp_path / "b.wav"
        _write_raw_wav(path, b"\x80" * 30, audio_format=1, bits=8, channels=3, rate=8000)
        with pytest.raises(FormatError):
            dsp.read_wav(path)

    def test_not_riff_rejected(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"OggS" + b"\x00" * 40)
        with pytest.raises(FormatError):
            dsp.read_wav(path)

    def test_truncated_data_chunk(self, tmp_path):
        clip = tone(440, 8000, 0.5)
        path = tmp_path / "t.wav"
        dsp.write_wav(path, clip, encoding="pcm16")
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) - 101])
        with pytest.raises(TruncatedFileError):
            dsp.read_wav(path)

    def test_nine_channels_rejected(self, tmp_path):
        path = tmp_path / "n.wav"
        _write_raw_wav(path, b"\x00" * 36, audio_format=1, bits=16, channels=9, rate=8000)
        with pytest.raises(FormatError):
            dsp.read_wav(path)

    @pytest.mark.parametrize("audio_format, bits, channels, payload", [
        (1, 16, 1, b"\x00" * 3),    # half a sample
        (3, 32, 1, b"\x00" * 6),
        (1, 24, 2, b"\x00" * 9),    # whole samples, half a frame
    ])
    def test_partial_frame_with_zero_block_align(self, tmp_path, audio_format, bits,
                                                 channels, payload):
        path = tmp_path / "p.wav"
        _write_raw_wav(path, payload, audio_format=audio_format, bits=bits,
                       channels=channels, rate=8000, block_align=0)
        with pytest.raises(TruncatedFileError):
            dsp.read_wav(path)

    def test_zero_sample_rate_rejected(self, tmp_path):
        path = tmp_path / "z.wav"
        _write_raw_wav(path, b"\x00" * 8, audio_format=1, bits=16, channels=2, rate=0)
        with pytest.raises(FormatError):
            dsp.read_wav(path)

    @pytest.mark.parametrize("audio_format, bits", [(1, 16), (1, 24), (3, 32)])
    def test_decode_matches_reference(self, tmp_path, audio_format, bits):
        # Oracle: every integer code or float value decoded on its own;
        # scaling by a power of two and the float32 clip are exact.
        rng = np.random.default_rng(5)
        if bits == 32:
            values = np.concatenate([rng.uniform(-1.5, 1.5, 56),
                                     [np.inf, -np.inf, -0.0, 1.0]]).astype("<f4")
            expected = np.clip(values, -1.0, 1.0).astype(np.float32)
            payload = values.tobytes()
        else:
            ints = rng.integers(-(1 << (bits - 1)), 1 << (bits - 1), 60)
            ints[:2] = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
            expected = (ints / float(1 << (bits - 1))).astype(np.float32)
            if bits == 16:
                payload = ints.astype("<i2").tobytes()
            else:
                payload = b"".join(int(v).to_bytes(3, "little", signed=True) for v in ints)
        path = tmp_path / "d.wav"
        _write_raw_wav(path, payload, audio_format=audio_format, bits=bits,
                       channels=3, rate=8000)
        clip = dsp.read_wav(path)
        assert clip.samples.dtype == np.float32
        assert np.array_equal(clip.samples, expected.reshape(-1, 3).T)

    def test_pcm24_read_matches_byte_shuffle_reference(self, tmp_path):
        # every one of the 2**24 codes, in eight files of 2**21 samples
        # with 1, 2 or 4 channels
        codes = np.arange(1 << 24, dtype=np.int32)
        np.random.default_rng(7).shuffle(codes)
        for i, chunk in enumerate(np.split(codes, 8)):
            channels = (1, 2, 4)[i % 3]
            payload = chunk.astype("<i4").view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
            path = tmp_path / "c.wav"
            _write_raw_wav(path, payload, audio_format=1, bits=24, channels=channels,
                           rate=8000)
            got = dsp.read_wav(path).samples
            assert got.dtype == np.float32
            assert np.array_equal(got, byte_shuffle_pcm24_decode(payload, channels))

    def test_pcm24_write_matches_byte_shuffle_reference(self, tmp_path):
        rng = np.random.default_rng(6)
        special = [1.0, -1.0, 2.0 ** -24, -2.0 ** -24, 2.0 ** -23, 0.0, -0.0, 1.5, -1.5,
                   1 - 2.0 ** -24, -1 + 2.0 ** -24, 3.0 * 2.0 ** -24, 1e30, -1e30,
                   np.inf, -np.inf]
        samples = np.concatenate([special, rng.uniform(-1.1, 1.1, 4 * 1000 - len(special))])
        for channels in (1, 2, 4):
            clip = dsp.AudioClip(samples.reshape(channels, -1).astype(np.float32), 8000)
            path = tmp_path / "w.wav"
            dsp.write_wav(path, clip, encoding="pcm24")
            payload = path.read_bytes()[44:]
            assert payload == byte_shuffle_pcm24_encode(clip)

    def test_nan_sample_rejected(self, tmp_path):
        path = tmp_path / "nan.wav"
        _write_raw_wav(path, struct.pack("<2f", float("nan"), 0.5), audio_format=3,
                       bits=32, channels=1, rate=8000)
        with pytest.raises(FormatError):
            dsp.read_wav(path)

    @settings(max_examples=200, deadline=None)
    @given(tail=st.binary(max_size=96))
    def test_fuzz_bytes_after_riff(self, tmp_path_factory, tail):
        path = tmp_path_factory.mktemp("fuzz") / "bytes.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(tail)) + b"WAVE" + tail)
        self.parse_or_seld_error(path)

    @settings(max_examples=200, deadline=None)
    @given(audio_format=st.sampled_from([0, 1, 2, 3]),
           bits=st.sampled_from([0, 8, 16, 24, 32]),
           channels=st.integers(0, 9),
           rate=st.sampled_from([0, 1, 8000, 2 ** 32 - 1]),
           block_align=st.integers(0, 40),
           payload=st.binary(max_size=48))
    def test_fuzz_fmt_fields(self, tmp_path_factory, audio_format, bits, channels, rate,
                             block_align, payload):
        path = tmp_path_factory.mktemp("fuzz") / "fmt.wav"
        _write_raw_wav(path, payload, audio_format=audio_format, bits=bits,
                       channels=channels, rate=rate, block_align=block_align)
        self.parse_or_seld_error(path)

    @staticmethod
    def parse_or_seld_error(path):
        try:
            clip = dsp.read_wav(path)
        except SeldError:
            return
        assert clip.samples.dtype == np.float32
        assert 1 <= clip.n_channels <= 8 and clip.sample_rate_hz > 0


def byte_shuffle_pcm24_decode(payload, channels):
    """Reference decoder: each sample assembled from its three bytes by hand."""
    raw = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3)
    ints = (
        raw[:, 0].astype(np.int32)
        | (raw[:, 1].astype(np.int32) << 8)
        | (raw[:, 2].astype(np.int32) << 16)
    )
    ints = np.where(ints >= 1 << 23, ints - (1 << 24), ints)
    samples = np.empty((channels, len(ints) // channels), dtype=np.float32)
    samples[:] = ints.reshape(-1, channels).T
    samples /= float(1 << 23)
    return samples


def byte_shuffle_pcm24_encode(clip):
    """Reference encoder: the payload's three bytes per sample split out by hand."""
    interleaved = np.asarray(clip.samples, dtype=np.float64).T.reshape(-1)
    ints = np.clip(np.round(interleaved * (1 << 23)), -(1 << 23), (1 << 23) - 1)
    ints = ints.astype(np.int64)
    buf = np.empty((len(ints), 3), dtype=np.uint8)
    buf[:, 0] = ints & 0xFF
    buf[:, 1] = (ints >> 8) & 0xFF
    buf[:, 2] = (ints >> 16) & 0xFF
    return buf.tobytes()


def _write_raw_wav(path, payload, audio_format, bits, channels, rate, block_align=None):
    if block_align is None:
        block_align = channels * bits // 8
    header = b"".join([
        b"RIFF",
        struct.pack("<I", 36 + len(payload)),
        b"WAVE",
        b"fmt ",
        struct.pack("<IHHIIHH", 16, audio_format, channels, rate,
                    rate * block_align % 2 ** 32, block_align, bits),
        b"data",
        struct.pack("<I", len(payload)),
    ])
    path.write_bytes(header + payload)


# ---------------------------------------------------------------------------
# Resampling
# ---------------------------------------------------------------------------

class TestResample:
    def test_identity_is_bit_exact(self):
        clip = tone(997, 44100, 0.3)
        out = dsp.resample(clip, 44100)
        assert np.array_equal(out.samples, clip.samples)

    def test_upsampling_rejected(self):
        with pytest.raises(UnsupportedError):
            dsp.resample(tone(440, 16000, 0.2), 44100)

    def test_dc_preserved_in_interior(self):
        clip = dsp.AudioClip(
            samples=np.full((1, 44100), 0.5, dtype=np.float32), sample_rate_hz=44100
        )
        out = dsp.resample(clip, 16000)
        assert out.samples.shape == (1, 16000)
        interior = out.samples[0, 1000:-1000]
        assert np.max(np.abs(interior - 0.5)) < 1e-3

    @pytest.mark.parametrize("source_hz, target_hz", [(48000, 16000), (44100, 16000)])
    def test_matches_concatenated_copy_reference(self, source_hz, target_hz):
        # Oracle: each channel filtered from its own zero-padded float64 copy
        rng = np.random.default_rng(32)
        clip = dsp.AudioClip(rng.uniform(-1, 1, (3, 9001)).astype(np.float32), source_hz)
        g = np.gcd(target_hz, source_hz)
        up, down = target_hz // g, source_hz // g
        h = dsp._design_polyphase_filter(up, down)
        half_len = (len(h) - 1) // 2
        n_pre = (down - (half_len % down)) % down
        h = np.concatenate([np.zeros(n_pre), h])
        offset = (half_len + n_pre) // down
        n_out = clip.n_samples * up // down
        pad = int(np.ceil(len(h) / up)) + 1
        expected = np.stack([
            upfirdn(h, np.concatenate([ch.astype(np.float64), np.zeros(pad)]),
                    up=up, down=down)[offset:offset + n_out].astype(np.float32)
            for ch in clip.samples])
        assert np.array_equal(dsp.resample(clip, target_hz).samples, expected)

    def test_output_length_floor(self):
        clip = dsp.AudioClip(
            samples=np.zeros((1, 44101), dtype=np.float32), sample_rate_hz=44100
        )
        out = dsp.resample(clip, 16000)
        assert out.n_samples == 44101 * 16000 // 44100

    def test_output_length_formula_property(self):
        rng = np.random.default_rng(31)
        for _ in range(12):
            n = int(rng.integers(2000, 90000))
            src, dst = [int(v) for v in rng.choice([44100, 32000, 22050, 16000], 2)]
            if dst > src:
                src, dst = dst, src
            clip = dsp.AudioClip(rng.uniform(-0.5, 0.5, (2, n)).astype(np.float32), src)
            out = dsp.resample(clip, dst)
            assert out.n_samples == n * dst // src
            assert out.samples.shape[0] == 2
            assert np.all(np.isfinite(out.samples))

    def test_sine_lands_in_same_bin_as_direct_synthesis(self):
        # Oracle: synthesize the same sine directly at the target rate and
        # compare the dominant DFT bins.
        resampled = dsp.resample(tone(1000, 44100, 1.0), 16000)
        direct = tone(1000, 16000, 1.0)
        n = min(resampled.n_samples, direct.n_samples)
        bin_resampled = np.argmax(np.abs(np.fft.rfft(resampled.samples[0, :n])))
        bin_direct = np.argmax(np.abs(np.fft.rfft(direct.samples[0, :n])))
        assert abs(int(bin_resampled) - int(bin_direct)) <= 1
        assert bin_direct == pytest.approx(1000 * n / 16000, abs=1)

    @pytest.mark.parametrize("freq", [500, 2000, 6000])
    def test_bandlimited_rms_preserved(self, freq):
        # Property: tones below 0.9 * target Nyquist keep their RMS within 5%.
        clip = tone(freq, 44100, 1.0)
        out = dsp.resample(clip, 16000)
        rms_in = np.sqrt(np.mean(clip.samples[0] ** 2))
        rms_out = np.sqrt(np.mean(out.samples[0, 500:-500].astype(np.float64) ** 2))
        assert abs(rms_out - rms_in) / rms_in < 0.05


# ---------------------------------------------------------------------------
# STFT features
# ---------------------------------------------------------------------------

def ref_stft_features(clip):
    """Frames gathered through an explicit (frames, WIN_LEN) index array."""
    n_frames = 1 + (clip.n_samples - dsp.WIN_LEN) // dsp.HOP
    window = np.hamming(dsp.WIN_LEN).astype(np.float64)
    c = clip.n_channels
    values = np.empty((2 * c, n_frames, dsp.N_BINS), dtype=np.float32)
    idx = (np.arange(n_frames) * dsp.HOP)[:, None] + np.arange(dsp.WIN_LEN)[None, :]
    for ch in range(c):
        spec = np.fft.rfft(clip.samples[ch][idx] * window, axis=1)[:, 1:dsp.N_BINS + 1]
        values[ch] = np.abs(spec)
        values[c + ch] = np.angle(spec)
    return values


class TestStftFeatures:
    @pytest.mark.parametrize("n", [512, 513, 767, 768, 480000])
    def test_matches_index_array_reference(self, n):
        rng = np.random.default_rng(n)
        clip = dsp.AudioClip(rng.uniform(-1, 1, (2, n)).astype(np.float32), 16000)
        assert np.array_equal(dsp.stft_features(clip).values, ref_stft_features(clip))

    def test_frame_count_example(self):
        n = 512 + 255 * 256
        clip = dsp.AudioClip(np.zeros((1, n), np.float32), 44100)
        feats = dsp.stft_features(clip)
        assert feats.n_frames == 256
        assert feats.values.shape == (2, 256, 256)

    def test_frame_count_formula_property(self):
        rng = np.random.default_rng(11)
        for n in rng.integers(512, 50000, size=25):
            clip = dsp.AudioClip(np.zeros((1, int(n)), np.float32), 44100)
            assert dsp.stft_features(clip).n_frames == 1 + (int(n) - 512) // 256

    def test_too_short_rejected(self):
        clip = dsp.AudioClip(np.zeros((1, 511), np.float32), 44100)
        with pytest.raises(InputError):
            dsp.stft_features(clip)

    def test_zero_input_gives_zero_magnitude_and_phase(self):
        clip = dsp.AudioClip(np.zeros((2, 2048), np.float32), 44100)
        feats = dsp.stft_features(clip)
        assert np.all(feats.values == 0.0)

    def test_magnitude_nonneg_phase_range(self):
        rng = np.random.default_rng(12)
        clip = dsp.AudioClip(
            rng.uniform(-1, 1, (3, 4096)).astype(np.float32), 44100
        )
        feats = dsp.stft_features(clip)
        c = 3
        assert np.all(feats.values[:c] >= 0.0)
        assert np.all(feats.values[c:] > -np.pi - 1e-6)
        assert np.all(feats.values[c:] <= np.pi + 1e-6)

    @pytest.mark.parametrize("k", [3, 40, 170, 255])
    def test_sine_at_bin_center_peaks_at_that_bin(self, k):
        # Oracle: a direct DFT of one Hamming-windowed frame. Feature bin k
        # corresponds to FFT bin k+1 (the DC bin is dropped).
        sr = 44100
        freq = (k + 1) * sr / 512
        clip = tone(freq, sr, 0.2)
        feats = dsp.stft_features(clip)
        mags = feats.values[0]
        interior = mags[1:-1]
        assert np.all(np.argmax(interior, axis=1) == k)

        frame = clip.samples[0, 256:768].astype(np.float64) * np.hamming(512)
        bins = np.arange(512)
        dft = np.array([
            np.sum(frame * np.exp(-2j * np.pi * m * bins / 512)) for m in range(1, 257)
        ])
        assert np.argmax(np.abs(dft)) == k

    def test_channel_stacking_order(self):
        rng = np.random.default_rng(13)
        quiet = rng.uniform(-0.01, 0.01, 2048)
        loud = rng.uniform(-0.9, 0.9, 2048)
        clip = dsp.AudioClip(np.stack([quiet, loud]).astype(np.float32), 44100)
        feats = dsp.stft_features(clip)
        assert feats.values.shape[0] == 4
        assert feats.values[1].sum() > feats.values[0].sum()


# ---------------------------------------------------------------------------
# Noise injection
# ---------------------------------------------------------------------------

def ref_box_muller(rng, n):
    """Box-Muller with out-of-place temporaries and one concatenation."""
    m = (n + 1) // 2
    u1 = 1.0 - rng.random(m)
    u2 = rng.random(m)
    r = np.sqrt(-2.0 * np.log(u1))
    return np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])[:n]


class TestAddNoise:
    @pytest.mark.parametrize("kind", ["awgn", "reverb"])
    @pytest.mark.parametrize("seed", [-1, 2.0])
    def test_bad_seed_is_input_error(self, kind, seed):
        # numpy's own error for -1, raised once the RNG is seeded, is a bare ValueError
        with pytest.raises(InputError, match="rng_seed"):
            dsp.AugmentSpec(kind=kind, snr_db=10.0, reverb_strength=30.0, rng_seed=seed)

    @pytest.mark.parametrize("n", [1, 2, 7, 4096, 96001])
    def test_box_muller_matches_reference(self, n):
        got = dsp._box_muller(np.random.default_rng(n), n)
        assert np.array_equal(got, ref_box_muller(np.random.default_rng(n), n))

    def test_snr_zero_matches_power(self):
        clip = tone(800, 16000, 1.0, n_channels=2)
        spec = dsp.AugmentSpec(kind="awgn", snr_db=0.0, rng_seed=5)
        noisy = dsp.add_noise(clip, spec)
        noise = noisy.samples.astype(np.float64) - clip.samples
        p_sig = np.mean(clip.samples.astype(np.float64) ** 2)
        p_noise = np.mean(noise ** 2)
        assert p_noise == pytest.approx(p_sig, rel=1e-6)

    def test_snr_20_db(self):
        clip = tone(800, 16000, 1.0)
        noisy = dsp.add_noise(clip, dsp.AugmentSpec(kind="awgn", snr_db=20.0, rng_seed=5))
        noise = noisy.samples.astype(np.float64) - clip.samples
        p_sig = np.mean(clip.samples.astype(np.float64) ** 2)
        assert np.mean(noise ** 2) == pytest.approx(p_sig / 100.0, rel=1e-6)

    def test_deterministic_given_seed(self):
        clip = tone(440, 16000, 0.5)
        spec = dsp.AugmentSpec(kind="awgn", snr_db=10.0, rng_seed=99)
        a = dsp.add_noise(clip, spec)
        b = dsp.add_noise(clip, spec)
        assert np.array_equal(a.samples, b.samples)

    def test_empirical_snr_within_tenth_db(self):
        # Property: measured SNR of the injected noise hits the target
        # within 0.1 dB for clips of at least one second.
        for snr in (0.0, 10.0, 20.0):
            clip = tone(523, 44100, 1.2, n_channels=4)
            noisy = dsp.add_noise(clip, dsp.AugmentSpec(kind="awgn", snr_db=snr, rng_seed=8))
            noise = noisy.samples.astype(np.float64) - clip.samples
            measured = 10 * np.log10(
                np.mean(clip.samples.astype(np.float64) ** 2) / np.mean(noise ** 2)
            )
            assert abs(measured - snr) < 0.1

    @pytest.mark.parametrize("snr_db", [1e308, -1e308, 3100.0, -3300.0])
    def test_snr_outside_float_range_rejected(self, snr_db):
        # 10^(snr/10) overflows (a Python OverflowError) or underflows to 0
        clip = tone(440, 8000, 0.25)
        with pytest.raises(InputError, match="snr_db"):
            dsp.add_noise(clip, dsp.AugmentSpec(kind="awgn", snr_db=snr_db, rng_seed=1))

    def test_noise_power_times_scale_underflow_rejected(self):
        # 1e-60 * 1e-299 underflows to 0, although each factor is a positive float
        clip = tone(440, 8000, 0.25)
        noise = dsp.AudioClip(np.full((1, 2000), 1e-30, np.float32), 8000)
        with pytest.raises(DegenerateInputError, match="gain"):
            dsp.add_noise(clip, dsp.AugmentSpec(kind="noise_file", snr_db=-2990.0), noise=noise)

    @pytest.mark.parametrize("snr_db", [-800.0, -3000.0])
    def test_noise_past_float32_range_rejected(self, snr_db):
        # a finite gain whose noisy samples do not fit the float32 output
        clip = tone(440, 8000, 0.25)
        with pytest.raises(DegenerateInputError, match="float32"):
            dsp.add_noise(clip, dsp.AugmentSpec(kind="awgn", snr_db=snr_db, rng_seed=1))

    def test_noise_file_kind_tiles(self):
        clip = tone(440, 8000, 1.0, n_channels=2)
        rng = np.random.default_rng(21)
        noise = dsp.AudioClip(
            rng.uniform(-0.5, 0.5, (2, 1000)).astype(np.float32), 8000
        )
        spec = dsp.AugmentSpec(kind="noise_file", snr_db=6.0, rng_seed=0)
        noisy = dsp.add_noise(clip, spec, noise=noise)
        added = noisy.samples.astype(np.float64) - clip.samples
        measured = 10 * np.log10(
            np.mean(clip.samples.astype(np.float64) ** 2) / np.mean(added ** 2)
        )
        assert measured == pytest.approx(6.0, abs=1e-6)
        # tiled noise repeats with period 1000
        assert np.allclose(added[:, :1000], added[:, 1000:2000], atol=1e-7)

    def test_matches_out_of_place_reference(self):
        rng = np.random.default_rng(22)
        clip = dsp.AudioClip(rng.uniform(-0.8, 0.8, (3, 5000)).astype(np.float32), 8000)
        noise = dsp.AudioClip(rng.uniform(-0.5, 0.5, (3, 1300)).astype(np.float32), 8000)
        spec = dsp.AugmentSpec(kind="noise_file", snr_db=3.0)
        x = clip.samples.astype(np.float64)
        n = np.tile(noise.samples.astype(np.float64), (1, 4))[:, :5000]
        gain = np.sqrt(np.mean(x ** 2) / (np.mean(n ** 2) * 10.0 ** 0.3))
        expected = (x + gain * n).astype(np.float32)
        assert np.array_equal(dsp.add_noise(clip, spec, noise=noise).samples, expected)

    def test_awgn_transient_memory(self):
        # the float64 noise and Box-Muller's scratch (4x the float32 clip)
        # bound the peak; a float64 copy of the clip would add 2x more
        clip = dsp.AudioClip(
            np.random.default_rng(23).uniform(-0.8, 0.8, (4, 480000)).astype(np.float32), 16000)
        spec = dsp.AugmentSpec(kind="awgn", snr_db=10.0, rng_seed=3)
        noisy, peak, _ = traced_peak(dsp.add_noise, clip, spec)
        x = clip.samples.astype(np.float64)
        n = ref_box_muller(np.random.default_rng(3), x.size).reshape(x.shape)
        expected = (x + np.sqrt(np.mean(x ** 2) / (np.mean(n ** 2) * 10.0)) * n).astype(np.float32)
        assert np.array_equal(noisy.samples, expected)
        assert peak <= 4.5 * clip.samples.nbytes

    def test_channel_count_mismatch_rejected(self):
        clip = tone(440, 8000, 0.5, n_channels=2)
        noise = tone(100, 8000, 0.5, n_channels=1)
        with pytest.raises(InputError):
            dsp.add_noise(clip, dsp.AugmentSpec(kind="noise_file", snr_db=0.0), noise=noise)

    def test_silent_signal_rejected(self):
        clip = dsp.AudioClip(np.zeros((1, 8000), np.float32), 8000)
        with pytest.raises(DegenerateInputError):
            dsp.add_noise(clip, dsp.AugmentSpec(kind="awgn", snr_db=0.0))

    def test_wrong_kind_rejected(self):
        clip = tone(440, 8000, 0.5)
        with pytest.raises(InputError):
            dsp.add_noise(clip, dsp.AugmentSpec(kind="reverb", reverb_strength=50))


# ---------------------------------------------------------------------------
# Reverb
# ---------------------------------------------------------------------------

# FFT overlap-add against direct convolution: each float32 output sample
# may differ by at most this fraction of the input peak. The float64 FFT's
# roundoff (~1e-16) can only flip a sample's final float32 rounding, a step
# of at most 2**-23 of the peak; a float32 FFT misses it by 3 to 6 times.
REVERB_TOL = 2.0 ** -23


def direct_reverb(clip, spec):
    """Oracle: np.convolve per channel, truncated and peak-normalized."""
    ir = dsp.make_reverb_ir(spec.reverb_strength, clip.sample_rate_hz, spec.rng_seed)
    x = clip.samples.astype(np.float64)
    wet = np.stack([np.convolve(ch, ir)[:clip.n_samples] for ch in x])
    peak_out = np.max(np.abs(wet))
    if peak_out > 0.0:
        wet *= np.max(np.abs(x)) / peak_out
    return wet.astype(np.float32)


class TestReverb:
    @staticmethod
    def check_against_direct(clip, spec):
        out = dsp.apply_reverb(clip, spec).samples
        expected = direct_reverb(clip, spec)
        assert out.dtype == np.float32 and out.shape == expected.shape
        peak_in = np.max(np.abs(clip.samples))
        assert np.max(np.abs(out - expected)) <= REVERB_TOL * peak_in
        return out

    def test_leading_and_trailing_silence(self):
        sr = 16000
        x = np.zeros((1, 20000), np.float32)
        x[0, 5000:9000] = np.random.default_rng(41).uniform(-0.6, 0.6, 4000)
        spec = dsp.AugmentSpec(kind="reverb", reverb_strength=20.0, rng_seed=2)
        out = self.check_against_direct(dsp.AudioClip(x, sr), spec)
        n_ir = len(dsp.make_reverb_ir(20.0, sr, rng_seed=2))
        # direct convolution is exactly zero outside the span plus the IR
        assert np.all(out[0, :5000] == 0.0)
        assert np.all(out[0, 9000 + n_ir - 1:] == 0.0)
        assert out[0, 9000 + n_ir - 2] != 0.0

    def test_four_channels(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(-0.9, 0.9, (4, 12000)).astype(np.float32)
        x[1, :3000] = 0.0   # leading silence
        x[2] = 0.0          # silent channel
        x[3, 7000:] = 0.0   # trailing silence
        spec = dsp.AugmentSpec(kind="reverb", reverb_strength=30.0, rng_seed=4)
        out = self.check_against_direct(dsp.AudioClip(x, 16000), spec)
        assert np.all(out[1, :3000] == 0.0) and np.all(out[2] == 0.0)

    def test_ir_longer_than_clip(self):
        rng = np.random.default_rng(43)
        clip = dsp.AudioClip(rng.uniform(-0.5, 0.5, (2, 3000)).astype(np.float32), 16000)
        spec = dsp.AugmentSpec(kind="reverb", reverb_strength=50.0, rng_seed=5)
        assert len(dsp.make_reverb_ir(50.0, 16000, rng_seed=5)) > 3000
        self.check_against_direct(clip, spec)

    def test_all_zero_clip_stays_zero(self):
        clip = dsp.AudioClip(np.zeros((4, 8000), np.float32), 16000)
        out = dsp.apply_reverb(clip, dsp.AugmentSpec(kind="reverb", reverb_strength=50.0))
        assert out.samples.dtype == np.float32 and np.all(out.samples == 0.0)

    def test_transient_memory_bounded(self):
        # channels are convolved one at a time: the peak stays under three
        # float64 copies of the clip
        rng = np.random.default_rng(44)
        clip = dsp.AudioClip(rng.uniform(-0.5, 0.5, (4, 480000)).astype(np.float32), 16000)
        spec = dsp.AugmentSpec(kind="reverb", reverb_strength=50.0)
        assert traced_peak(dsp.apply_reverb, clip, spec).peak < 3 * clip.samples.size * 8

    def test_strength_zero_is_identity(self):
        clip = tone(440, 16000, 0.5, n_channels=4)
        out = dsp.apply_reverb(clip, dsp.AugmentSpec(kind="reverb", reverb_strength=0.0))
        assert np.max(np.abs(out.samples - clip.samples)) < 1e-6

    def test_unit_impulse_yields_ir(self):
        sr = 16000
        x = np.zeros((1, sr), np.float32)
        x[0, 0] = 1.0
        clip = dsp.AudioClip(x, sr)
        spec = dsp.AugmentSpec(kind="reverb", reverb_strength=60.0, rng_seed=7)
        out = dsp.apply_reverb(clip, spec)
        ir = dsp.make_reverb_ir(60.0, sr, rng_seed=7)
        assert out.samples[0, 0] == pytest.approx(1.0)
        assert np.allclose(out.samples[0, :len(ir)], ir, atol=1e-6)
        assert np.all(out.samples[0, len(ir):] == 0.0)

    def test_tail_energy_below_one_percent(self):
        # Oracle: for envelope exp(-t/tau) the energy fraction beyond
        # t0 = tau*ln(100)/2 is ~1/100; the IR is cut at 3*tau so the
        # realized tail fraction stays below 1%.
        sr = 44100
        for strength in (25.0, 50.0, 100.0):
            ir = dsp.make_reverb_ir(strength, sr, rng_seed=3)
            tau = strength / 100.0 * dsp.REVERB_MAX_DECAY_S
            cut = int(np.ceil(tau * np.log(100.0) / 2.0 * sr))
            total = np.sum(ir ** 2)
            tail = np.sum(ir[cut:] ** 2)
            assert tail / total < 0.01

    def test_peak_matches_input_peak(self):
        clip = tone(440, 16000, 0.5, amp=0.7)
        out = dsp.apply_reverb(
            clip, dsp.AugmentSpec(kind="reverb", reverb_strength=80.0, rng_seed=1)
        )
        assert np.max(np.abs(out.samples)) == pytest.approx(0.7, rel=1e-4)

    def test_strength_out_of_range_rejected(self):
        with pytest.raises(InputError):
            dsp.AugmentSpec(kind="reverb", reverb_strength=101.0)

    def test_ir_stream_is_its_own(self):
        # same IR for one seed, another for the next, and no AWGN draws in
        # the tail: add_noise's first raw doubles u would give a tail of
        # (-0.9 + 1.8 u) exp(-t / tau)
        sr, strength = 16000, 30.0
        ir = dsp.make_reverb_ir(strength, sr, rng_seed=4)
        assert ir.tobytes() == dsp.make_reverb_ir(strength, sr, rng_seed=4).tobytes()
        assert not np.array_equal(ir, dsp.make_reverb_ir(strength, sr, rng_seed=5))
        n = len(ir) - 1
        tau = strength / 100.0 * dsp.REVERB_MAX_DECAY_S
        envelope = np.exp(-np.arange(1, n + 1) / sr / tau)
        shared = np.random.default_rng(4).uniform(-0.9, 0.9, n) * envelope
        assert not np.any(ir[1:] == shared)

    def test_deterministic(self):
        clip = tone(440, 16000, 0.4)
        spec = dsp.AugmentSpec(kind="reverb", reverb_strength=40.0, rng_seed=11)
        a = dsp.apply_reverb(clip, spec)
        b = dsp.apply_reverb(clip, spec)
        assert np.array_equal(a.samples, b.samples)


def _const_clip(value=0.5, rate=8000):
    return dsp.AudioClip(np.full((1, 80), value), rate)


def _read_short_fmt_wav(tmp_path):
    path = tmp_path / "short_fmt.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", 20) + b"WAVE"
                     + b"fmt " + struct.pack("<I", 8) + bytes(8))
    return dsp.read_wav(path)


_NOISE_FILE = dict(kind="noise_file", snr_db=10.0)


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda tmp: dsp.AugmentSpec(kind="echo"),
                 InputError, "unknown augmentation kind", id="augment-kind"),
    pytest.param(lambda tmp: dsp.AugmentSpec(kind="awgn", snr_db=float("nan")),
                 InputError, "snr_db must be finite", id="augment-snr-nan"),
    pytest.param(_read_short_fmt_wav, TruncatedFileError, "fmt chunk truncated",
                 id="read-wav-short-fmt"),
    pytest.param(lambda tmp: dsp.write_wav(tmp / "x.wav", _const_clip(), "pcm8"),
                 InputError, "unknown encoding", id="write-wav-encoding"),
    pytest.param(lambda tmp: dsp.resample(_const_clip(), 0),
                 InputError, "target_hz must be positive", id="resample-zero-rate"),
    pytest.param(lambda tmp: dsp.add_noise(_const_clip(), dsp.AugmentSpec(**_NOISE_FILE)),
                 InputError, "requires a noise clip", id="noise-file-no-clip"),
    pytest.param(lambda tmp: dsp.add_noise(_const_clip(), dsp.AugmentSpec(**_NOISE_FILE),
                                           _const_clip(rate=16000)),
                 InputError, "sample rate must match", id="noise-file-rate"),
    pytest.param(lambda tmp: dsp.add_noise(_const_clip(), dsp.AugmentSpec(**_NOISE_FILE),
                                           _const_clip(0.0)),
                 DegenerateInputError, "noise power is zero", id="noise-file-silent"),
    pytest.param(lambda tmp: dsp.apply_reverb(_const_clip(), dsp.AugmentSpec(kind="awgn")),
                 InputError, "apply_reverb cannot apply", id="reverb-noise-spec"),
])
def test_library_raise_sites(tmp_path, call, error, match):
    with pytest.raises(error, match=match) as exc:
        call(tmp_path)
    assert isinstance(exc.value, SeldError)
