"""Audio ingestion, resampling, STFT features, and noise/reverb augmentation.

All audio is handled as float arrays shaped (channel, time) with samples in
[-1, 1]. Features follow the stacked magnitude/phase layout the models expect:
(2 * n_audio_channels, frame, bin) with magnitudes first, phases second.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import oaconvolve, resample_poly

from .errors import (
    DegenerateInputError,
    FormatError,
    InputError,
    TruncatedFileError,
    UnsupportedError,
    check_seed,
)

# STFT geometry: Hamming window of 512 samples at 50% overlap; the DC bin is
# dropped so the 256 remaining bins divide evenly through the 8*8*2 pooling.
WIN_LEN = 512
HOP = 256
N_BINS = WIN_LEN // 2

# Polyphase resampler: 64 taps per phase under a Kaiser window.
RESAMPLE_TAPS_PER_PHASE = 64
RESAMPLE_KAISER_BETA = 8.0

# Reverb impulse response: decay constant grows linearly with strength up to
# this many seconds; the IR is cut at 3 decay constants (-26 dB amplitude).
REVERB_MAX_DECAY_S = 0.3
REVERB_IR_DECAYS = 3.0


@dataclass
class AudioClip:
    """Multichannel time-domain audio.

    samples: float array (n_channels, n_samples), values in [-1, 1]
    sample_rate_hz: positive sampling rate
    """

    samples: np.ndarray
    sample_rate_hz: int

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate_hz


@dataclass
class FeatureTensor:
    """Stacked per-channel magnitude/phase spectrogram frames.

    values: (n_feature_channels, n_frames, n_bins); channels 0..C-1 hold
    magnitudes, channels C..2C-1 the matching phases in (-pi, pi].
    """

    values: np.ndarray

    @property
    def n_feature_channels(self) -> int:
        return self.values.shape[0]

    @property
    def n_frames(self) -> int:
        return self.values.shape[1]

    @property
    def n_bins(self) -> int:
        return self.values.shape[2]


@dataclass
class AugmentSpec:
    """Parameters for one augmentation pass.

    kind: "awgn", "noise_file" or "reverb"
    snr_db: target signal-to-noise ratio for the noise kinds
    reverb_strength: 0..100, scales the IR decay time (0 = dry)
    rng_seed: seed for the augmentation's private RNG
    """

    kind: str
    snr_db: float = 0.0
    reverb_strength: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.kind not in ("awgn", "noise_file", "reverb"):
            raise InputError(f"unknown augmentation kind: {self.kind!r}")
        if not np.isfinite(self.snr_db):
            raise InputError("snr_db must be finite")
        if not 0.0 <= self.reverb_strength <= 100.0:
            raise InputError("reverb_strength must lie in [0, 100]")
        check_seed(self.rng_seed, "rng_seed")


# ---------------------------------------------------------------------------
# RIFF/WAVE I/O (PCM16, PCM24, float32; little-endian)
# ---------------------------------------------------------------------------

def read_wav(path) -> AudioClip:
    """Read a RIFF/WAVE file into an AudioClip.

    Supports PCM 16/24-bit and IEEE float32 with 1-8 channels. Integer
    samples are scaled by 1 / 2^(bits-1) so the output lies in [-1, 1);
    float samples are clipped to [-1, 1], and a NaN sample is a FormatError.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[0:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise FormatError(f"{path}: not a RIFF/WAVE file")
    view = memoryview(data)  # chunk bodies are slices of it, not copies

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body = view[pos + 8:pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise TruncatedFileError(f"{path}: fmt chunk truncated")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            if len(body) < chunk_size:
                raise TruncatedFileError(f"{path}: data chunk truncated")
            payload = body
        pos += 8 + chunk_size + (chunk_size & 1)

    if fmt is None or payload is None:
        raise TruncatedFileError(f"{path}: missing fmt or data chunk")

    audio_format, n_channels, rate, _, _, bits = fmt
    if not 1 <= n_channels <= 8:
        raise FormatError(f"{path}: unsupported channel count {n_channels}")
    if rate == 0:
        raise FormatError(f"{path}: sample rate is 0")
    if (audio_format, bits) not in ((1, 16), (1, 24), (3, 32)):
        raise FormatError(
            f"{path}: unsupported encoding (format={audio_format}, bits={bits})"
        )
    # checked against the encoding, not the header's block_align field, which
    # may be 0 or disagree with it
    frame_bytes = n_channels * bits // 8
    if len(payload) % frame_bytes:
        raise TruncatedFileError(f"{path}: data ends mid-frame")
    # decoded straight into the (channel, time) layout, without an
    # interleaved float copy
    samples = np.empty((n_channels, len(payload) // frame_bytes), dtype=np.float32)
    if bits == 16:
        samples[:] = np.frombuffer(payload, dtype="<i2").reshape(-1, n_channels).T
        samples /= 32768.0
    elif bits == 24:
        # each 3-byte code fills the top of a little-endian int32, whose
        # arithmetic shift back down sign-extends it
        wide = np.zeros((len(payload) // 3, 4), dtype=np.uint8)
        wide[:, 1:] = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3)
        samples[:] = (wide.view("<i4") >> 8).reshape(-1, n_channels).T
        samples /= float(1 << 23)
    else:
        flat = np.frombuffer(payload, dtype="<f4")
        np.clip(flat.reshape(-1, n_channels).T, -1.0, 1.0, out=samples)
        if np.isnan(samples).any():
            raise FormatError(f"{path}: NaN sample in float data")
    return AudioClip(samples=samples, sample_rate_hz=rate)


def write_wav(path, clip: AudioClip, encoding: str = "float32") -> None:
    """Write an AudioClip as RIFF/WAVE ("pcm16", "pcm24" or "float32")."""
    x = np.asarray(clip.samples, dtype=np.float64)
    interleaved = x.T.reshape(-1)
    if encoding == "pcm16":
        ints = np.clip(np.round(interleaved * 32768.0), -32768, 32767)
        payload = ints.astype("<i2").tobytes()
        audio_format, bits = 1, 16
    elif encoding == "pcm24":
        ints = np.clip(np.round(interleaved * (1 << 23)), -(1 << 23), (1 << 23) - 1)
        # the low three bytes of each little-endian int32
        payload = ints.astype("<i4").view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
        audio_format, bits = 1, 24
    elif encoding == "float32":
        payload = interleaved.astype("<f4").tobytes()
        audio_format, bits = 3, 32
    else:
        raise InputError(f"unknown encoding: {encoding!r}")

    n_channels = clip.n_channels
    block_align = n_channels * bits // 8
    byte_rate = clip.sample_rate_hz * block_align
    header = b"".join([
        b"RIFF",
        struct.pack("<I", 4 + 8 + 16 + 8 + len(payload)),
        b"WAVE",
        b"fmt ",
        struct.pack(
            "<IHHIIHH", 16, audio_format, n_channels,
            clip.sample_rate_hz, byte_rate, block_align, bits,
        ),
        b"data",
        struct.pack("<I", len(payload)),
    ])
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


# ---------------------------------------------------------------------------
# Resampling
# ---------------------------------------------------------------------------

def _design_polyphase_filter(up: int, down: int) -> np.ndarray:
    """Windowed-sinc lowpass for an up/down polyphase stage.

    64 taps per phase, Kaiser window beta=8, cutoff at the tighter of the
    two Nyquist limits, unity passband gain after upsampling by `up`.
    """
    n_taps = RESAMPLE_TAPS_PER_PHASE * up
    half = (n_taps - 1) / 2.0
    t = np.arange(n_taps) - half
    cutoff = 1.0 / (2.0 * max(up, down))  # cycles per sample at the high rate
    h = 2.0 * cutoff * np.sinc(2.0 * cutoff * t)
    h *= np.kaiser(n_taps, RESAMPLE_KAISER_BETA)
    h *= up / np.sum(h)  # exact DC gain of `up` compensates the zero stuffing
    return h


def resample(clip: AudioClip, target_hz: int) -> AudioClip:
    """Downsample a clip with a windowed-sinc polyphase filter.

    Output length is floor(n * target / source). Upsampling is out of scope
    and raises UnsupportedError.
    """
    if target_hz <= 0:
        raise InputError("target_hz must be positive")
    if target_hz > clip.sample_rate_hz:
        raise UnsupportedError("upsampling is not supported")
    if target_hz == clip.sample_rate_hz:
        return AudioClip(clip.samples.copy(), clip.sample_rate_hz)

    g = np.gcd(target_hz, clip.sample_rate_hz)
    up, down = target_hz // g, clip.sample_rate_hz // g
    # resample_poly applies the gain `up` itself
    h = _design_polyphase_filter(up, down) / up

    n_out = clip.n_samples * up // down
    out = np.empty((clip.n_channels, n_out), dtype=np.float32)
    for c in range(clip.n_channels):
        out[c] = resample_poly(clip.samples[c], up, down, window=h)[:n_out]
    return AudioClip(samples=out, sample_rate_hz=target_hz)


# ---------------------------------------------------------------------------
# STFT features
# ---------------------------------------------------------------------------

def stft_features(clip: AudioClip) -> FeatureTensor:
    """Extract stacked magnitude/phase spectrogram features.

    Per channel: Hamming-windowed frames of WIN_LEN samples at hop HOP,
    one-sided FFT, DC bin dropped (bins 1..N_BINS kept). Magnitudes for all
    channels come first, then the phases, giving 2 * n_channels feature
    channels. Phase of an exactly-zero cell is 0.
    """
    if clip.n_samples < WIN_LEN:
        raise InputError(
            f"clip has {clip.n_samples} samples; need at least {WIN_LEN}"
        )
    n_frames = 1 + (clip.n_samples - WIN_LEN) // HOP
    window = np.hamming(WIN_LEN).astype(np.float64)

    c = clip.n_channels
    values = np.empty((2 * c, n_frames, N_BINS), dtype=np.float32)
    for ch in range(c):
        frames = sliding_window_view(clip.samples[ch], WIN_LEN)[::HOP] * window
        spec = np.fft.rfft(frames, axis=1)[:, 1:N_BINS + 1]
        values[ch] = np.abs(spec)
        values[c + ch] = np.angle(spec)
    return FeatureTensor(values=values)


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------

def _box_muller(rng: np.random.Generator, n: int) -> np.ndarray:
    """Standard normal samples via the Box-Muller transform.

    Computed in place, so the transient peak is twice the output's size.
    """
    m = (n + 1) // 2
    r = 1.0 - rng.random(m)  # (0, 1]: keeps the log finite
    theta = rng.random(m)
    theta *= 2.0 * np.pi
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    z = np.empty(2 * m)
    np.multiply(r, np.cos(theta, out=z[:m]), out=z[:m])
    np.multiply(r, np.sin(theta, out=z[m:]), out=z[m:])
    return z[:n]


def add_noise(clip: AudioClip, spec: AugmentSpec, noise: AudioClip | None = None) -> AudioClip:
    """Mix noise into a clip at the SNR requested by `spec`.

    kind "awgn" draws white Gaussian noise from the spec's seed; kind
    "noise_file" tiles/truncates `noise` to the clip length. The noise is
    scaled so 10*log10(P_signal / P_noise) equals spec.snr_db over the
    whole clip.
    """
    if spec.kind not in ("awgn", "noise_file"):
        raise InputError(f"add_noise cannot apply kind {spec.kind!r}")
    try:  # the noise power scale must be a finite positive float
        scale = 10.0 ** (float(spec.snr_db) / 10.0)
    except OverflowError:
        scale = np.inf
    if not 0.0 < scale < np.inf:
        raise InputError(f"snr_db {spec.snr_db:g} is out of range: 10^(snr_db/10) = {scale:g}")
    p_signal = np.mean(np.square(clip.samples, dtype=np.float64))
    if p_signal <= 0.0:
        raise DegenerateInputError("signal power is zero; SNR is undefined")

    if spec.kind == "awgn":
        rng = np.random.default_rng(spec.rng_seed)
        n = _box_muller(rng, clip.samples.size).reshape(clip.samples.shape)
    else:
        if noise is None:
            raise InputError("noise_file kind requires a noise clip")
        if noise.n_channels != clip.n_channels:
            raise InputError("noise channel count must match the signal")
        if noise.sample_rate_hz != clip.sample_rate_hz:
            raise InputError("noise sample rate must match the signal")
        reps = int(np.ceil(clip.n_samples / noise.n_samples))
        n = np.tile(noise.samples.astype(np.float64), (1, reps))[:, :clip.n_samples]

    p_noise = np.mean(n ** 2)
    if p_noise <= 0.0:
        raise DegenerateInputError("noise power is zero")
    # p_noise * scale can underflow to 0 and the quotient overflow, although
    # each factor is a positive float: both give a gain that is not finite
    with np.errstate(divide="ignore", over="ignore"):
        gain = np.sqrt(p_signal / (p_noise * scale))
    if not gain < np.inf:
        raise DegenerateInputError(
            f"snr_db {spec.snr_db:g} needs a noise gain of {gain:g}, past the float range")
    n *= gain
    n += clip.samples  # float32 into float64, exact: no float64 copy of the clip
    with np.errstate(over="ignore"):
        samples = n.astype(np.float32)
    if not np.isfinite(samples).all():
        raise DegenerateInputError(
            f"snr_db {spec.snr_db:g} scales the noise past the float32 range")
    return AudioClip(samples=samples, sample_rate_hz=clip.sample_rate_hz)


def make_reverb_ir(strength: float, sample_rate_hz: int, rng_seed: int = 0) -> np.ndarray:
    """Synthetic impulse response: exponentially decaying uniform noise.

    The decay constant is strength/100 * REVERB_MAX_DECAY_S seconds and the
    IR is truncated at REVERB_IR_DECAYS decay constants. Strength 0 gives a
    unit impulse. The direct-path sample is pinned to 1 and later samples
    stay strictly below 1, so the IR peak is exactly its first sample. The
    tail draws from a stream of its own, (rng_seed, 1), so it shares no
    draws with the AWGN that add_noise makes from the same seed.
    """
    tau = strength / 100.0 * REVERB_MAX_DECAY_S
    n_ir = int(round(REVERB_IR_DECAYS * tau * sample_rate_hz))
    if n_ir < 1:
        return np.ones(1, dtype=np.float64)
    rng = np.random.default_rng((rng_seed, 1))
    t = np.arange(1, n_ir + 1) / sample_rate_hz
    tail = rng.uniform(-0.9, 0.9, n_ir) * np.exp(-t / tau)
    return np.concatenate([[1.0], tail])


def apply_reverb(clip: AudioClip, spec: AugmentSpec) -> AudioClip:
    """Convolve every channel with a shared synthetic IR.

    Output is truncated to the input length and rescaled so its peak matches
    the input peak. Strength 0 returns the input unchanged (unit impulse).

    The convolution is FFT overlap-add, one channel at a time, over the
    channel's nonzero span plus the IR length; outside that span the output
    is exactly 0, as direct convolution gives. Inside it the output matches
    direct convolution to within 2**-23 of the input peak: one float32
    rounding step.
    """
    if spec.kind != "reverb":
        raise InputError(f"apply_reverb cannot apply kind {spec.kind!r}")
    ir = make_reverb_ir(spec.reverb_strength, clip.sample_rate_hz, spec.rng_seed)
    if len(ir) == 1:
        return AudioClip(clip.samples.copy(), clip.sample_rate_hz)

    n = clip.n_samples
    # the long-lived output is allocated before the float64 scratch, so that
    # freeing the scratch leaves no hole beneath the output on the heap
    out = np.empty(clip.samples.shape, dtype=np.float32)
    wet = np.zeros(clip.samples.shape, dtype=np.float64)
    for c in range(clip.n_channels):
        nonzero = clip.samples[c] != 0
        if not nonzero.any():
            continue
        lo = int(nonzero.argmax())
        hi = n - int(nonzero[::-1].argmax())
        end = min(hi + len(ir) - 1, n)
        # convolved from a float64 copy, staged in `wet`: scipy.fft would
        # transform float32 in single precision
        wet[c, lo:hi] = clip.samples[c, lo:hi]
        wet[c, lo:end] = oaconvolve(wet[c, lo:hi], ir)[:end - lo]
    peak_in = float(np.max(np.abs(clip.samples)))
    peak_out = np.max(np.abs(wet))
    np.multiply(wet, peak_in / peak_out if peak_out > 0.0 else 1.0, out=out)
    return AudioClip(samples=out, sample_rate_hz=clip.sample_rate_hz)
