"""SELDnet and SELD-TCN assembly: forward passes for both, backprop and
training for the TCN variant, complexity counters, and weight persistence.

Both models share a convolutional front-end (three conv/BN/pool/ReLU blocks
that collapse the frequency axis) and twin fully-connected heads (sigmoid
SED activities, tanh Cartesian DOA coordinates). They differ only in the
temporal block between the two: stacked bidirectional GRUs in the baseline,
a stack of dilated non-causal residual blocks in the TCN variant.
"""

from __future__ import annotations

import math
import struct
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
from scipy.special import expit as _sigmoid

from . import dsp, nn, synth
from .errors import (
    ConfigError,
    DataError,
    FormatError,
    InputError,
    ShapeError,
    StateError,
    TruncatedFileError,
    UnsupportedError,
    check_seed,
)

MODEL_KINDS = ("seldnet", "seldtcn")
WEIGHTS_MAGIC = b"SELDW1\x00"
_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_GRU_KEYS = ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_h", "u_h", "b_h")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class ModelConfig:
    """Architecture hyperparameters shared by both model kinds."""

    n_sed: int
    n_feature_channels: int = 8
    n_bins: int = 256
    conv_filters: int = 64
    pool_schedule: tuple = (8, 8, 2)
    rnn_hidden: int = 128
    tcn_filters: int = 256
    tcn_blocks: int = 10
    tcn_out_filters: int = 128
    fc_units: int = 128
    seq_len: int = 512
    dropout_rate: float = 0.5
    loss_weight_doa: float = 1.0

    def __post_init__(self):
        self.pool_schedule = tuple(int(p) for p in self.pool_schedule)
        if self.n_sed < 1:
            raise ConfigError("n_sed must be >= 1")
        if any(v < 1 for v in (self.n_feature_channels, self.n_bins, self.conv_filters,
                               self.rnn_hidden, self.tcn_filters, self.tcn_out_filters,
                               self.fc_units, self.seq_len)):
            raise ConfigError("all width/length fields must be >= 1")
        if not self.pool_schedule or any(p < 1 for p in self.pool_schedule):
            raise ConfigError("pool_schedule needs one or more widths, each >= 1")
        pool_total = math.prod(self.pool_schedule)
        if self.n_bins % pool_total != 0:
            raise ConfigError(
                f"n_bins={self.n_bins} not divisible by pooling factor {pool_total}")
        if not 1 <= self.tcn_blocks <= 16:
            raise ConfigError("tcn_blocks must lie in 1..16")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError("dropout_rate must lie in [0, 1)")
        if not 0.0 <= self.loss_weight_doa < math.inf:
            raise ConfigError("loss_weight_doa must be finite and >= 0")

    @property
    def dilations(self):
        return [2 ** k for k in range(self.tcn_blocks)]

    @property
    def temporal_in_width(self):
        """Width of the flattened front-end output, the temporal block input."""
        return self.conv_filters * (self.n_bins // math.prod(self.pool_schedule))


# Value parsers by type name: under `from __future__ import annotations` the
# ModelConfig field types are the strings "int", "float" and "tuple".
_PARSERS = {"int": int, "float": float, "str": str,
            "tuple": lambda value: tuple(int(v) for v in value.split(","))}
EXTRA_CONFIG_KEYS = {"sample_rate_hz": "int", "dataset_dir": "str"}


def load_config(path):
    """Parse a flat `key = value` config file into (ModelConfig, extras).

    Recognized keys are exactly the ModelConfig field names plus
    sample_rate_hz and dataset_dir; `#` starts a comment.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a UTF-8 text file: {exc}") from exc
    raw = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value

    cfg_types = {f.name: f.type for f in fields(ModelConfig)}
    cfg_kwargs = {}
    extras = {}
    for key, value in raw.items():
        if key in cfg_types:
            target, type_name = cfg_kwargs, cfg_types[key]
        elif key in EXTRA_CONFIG_KEYS:
            target, type_name = extras, EXTRA_CONFIG_KEYS[key]
        else:
            raise ConfigError(f"{path}: unknown config key {key!r}")
        try:
            target[key] = _PARSERS[type_name](value)
        except ValueError as exc:
            raise ConfigError(f"{path}: bad value for {key!r}: {value!r}") from exc
    if "n_sed" not in cfg_kwargs:
        raise ConfigError(f"{path}: missing required key n_sed")
    return ModelConfig(**cfg_kwargs), extras


def write_kv(path, pairs):
    """Write (key, value) pairs as a UTF-8 text file of `key = value` lines."""
    Path(path).write_text("".join(f"{key} = {value}\n" for key, value in pairs), "utf-8")


def save_config(path, cfg: ModelConfig, extras=None):
    """Write a config file that load_config reads back to (cfg, extras)."""
    pairs = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.type == "tuple":
            value = ",".join(str(v) for v in value)
        pairs.append((f.name, value))
    for key, value in (extras or {}).items():
        if key not in EXTRA_CONFIG_KEYS:
            raise ConfigError(f"unknown extra config key {key!r}")
        pairs.append((key, value))
    write_kv(path, pairs)


# ---------------------------------------------------------------------------
# Prediction and weight storage
# ---------------------------------------------------------------------------

@dataclass
class Prediction:
    """Per-frame outputs: sed (T, N) in [0,1], doa (T, 3N) in [-1,1]."""

    sed: np.ndarray
    doa: np.ndarray

    @property
    def n_frames(self):
        return self.sed.shape[0]


def save_weights(store, path):
    """Write a name -> float32/float64 array dict as SELDW1, in dict and C order.

    Rank 0 is written as shape (1,); what the format cannot hold is a FormatError.
    """
    parts = [WEIGHTS_MAGIC, struct.pack("<I", len(store))]
    for name, array in store.items():
        array = np.atleast_1d(array)
        if array.dtype not in (np.float32, np.float64):
            raise FormatError(f"{name!r}: only float32/float64 tensors are storable")
        code = 0 if array.dtype == np.float32 else 1
        try:  # a name over 65,535 UTF-8 bytes or a dimension >= 2**32 does not fit
            encoded = name.encode("utf-8")
            parts.append(struct.pack(f"<H{len(encoded)}sBB{array.ndim}I", len(encoded),
                                     encoded, code, array.ndim, *array.shape))
        except (UnicodeEncodeError, struct.error) as exc:
            raise FormatError(f"{name[:40]!r}: not storable in SELDW1: {exc}") from exc
        parts.append(array.astype(_DTYPE_CODES[code], copy=False).tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_weights(path) -> dict:
    """Read a SELDW1 file into a name -> array dict in file order.

    Arrays are writable C-order copies, rank 0 as (1,); bad files raise FormatError.
    """
    # Entries are parsed from bytes slices and then copied. Copying each tensor
    # once from a memoryview slice raised the peak RSS of repeated `seld infer`
    # runs by about 11 MB through glibc's dynamic mmap threshold.
    data = Path(path).read_bytes()
    if len(data) < len(WEIGHTS_MAGIC) + 4:
        raise TruncatedFileError(f"{path}: file too short")
    if data[:len(WEIGHTS_MAGIC)] != WEIGHTS_MAGIC:
        raise FormatError(f"{path}: bad magic bytes")
    pos = len(WEIGHTS_MAGIC)
    (count,) = struct.unpack_from("<I", data, pos)
    pos += 4

    def need(nbytes):
        nonlocal pos
        if pos + nbytes > len(data):
            raise TruncatedFileError(f"{path}: truncated at byte {pos}")
        start = pos
        pos += nbytes
        return data[start:pos]

    store = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", need(2))
        try:
            name = need(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: entry name is not UTF-8: {exc}") from exc
        code, rank = struct.unpack("<BB", need(2))
        if code not in _DTYPE_CODES:
            raise FormatError(f"{path}: unknown dtype code {code}")
        shape = struct.unpack(f"<{rank}I", need(4 * rank))
        dtype = _DTYPE_CODES[code]
        # Python ints: a crafted shape must not wrap around to a small size
        raw = need(math.prod(shape) * dtype.itemsize)
        try:
            array = np.frombuffer(raw, dtype=dtype).reshape(shape)
        except ValueError as exc:  # an empty entry whose other dims overflow numpy
            raise FormatError(f"{path}: entry {name!r} has unsupported shape {shape}") from exc
        if name in store:
            raise FormatError(f"{path}: duplicate entry {name!r}")
        store[name] = np.array(array, ndmin=1)
    return store


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

def _glorot(rng, shape, fan_in, fan_out, dtype):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape).astype(dtype)


class SeldModel:
    """A built SELDnet or SELD-TCN with named parameters and BN states.

    `params` maps names to trainable arrays (conv/dense weights and biases,
    BN gamma/beta); `bn_states` holds the matching running statistics. The
    TCN variant additionally supports backward() for training.
    """

    def __init__(self, cfg: ModelConfig, kind: str, seed: int = 0, dtype=np.float32):
        if kind not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind {kind!r}")
        check_seed(seed)
        self.cfg = cfg
        self.kind = kind
        self.dtype = np.dtype(dtype)
        self.mode = "train"
        self.params: dict[str, np.ndarray] = {}
        self.bn_states: dict[str, nn.BatchNormState] = {}
        self.feature_mean = None
        self.feature_std = None
        self._rng = np.random.default_rng((seed, 1))  # dropout draws apart from init's
        self._init_params(np.random.default_rng(seed))

    # -- construction -------------------------------------------------------

    def _add_bn(self, name, channels):
        state = nn.BatchNormState.create(channels, dtype=self.dtype)
        self.params[f"{name}.gamma"] = state.gamma
        self.params[f"{name}.beta"] = state.beta
        self.bn_states[name] = state

    def _init_params(self, rng):
        cfg = self.cfg
        dt = self.dtype
        c_in = cfg.n_feature_channels
        for i in range(len(cfg.pool_schedule)):
            shape = (cfg.conv_filters, c_in, 3, 3)
            self.params[f"conv{i}.w"] = _glorot(rng, shape, c_in * 9, cfg.conv_filters * 9, dt)
            self.params[f"conv{i}.b"] = np.zeros(cfg.conv_filters, dt)
            self._add_bn(f"bn{i}", cfg.conv_filters)
            c_in = cfg.conv_filters

        width = cfg.temporal_in_width
        if self.kind == "seldnet":
            n_in = width
            for layer in range(2):
                for direction in ("fwd", "bwd"):
                    pre = f"gru{layer}.{direction}"
                    h = cfg.rnn_hidden
                    for gate in ("z", "r", "h"):
                        self.params[f"{pre}.w_{gate}"] = _glorot(rng, (n_in, h), n_in, h, dt)
                        self.params[f"{pre}.u_{gate}"] = _glorot(rng, (h, h), h, h, dt)
                        self.params[f"{pre}.b_{gate}"] = np.zeros(h, dt)
                n_in = 2 * cfg.rnn_hidden
            fc_in = 2 * cfg.rnn_hidden
        else:
            f = cfg.tcn_filters
            self.params["proj.w"] = _glorot(rng, (f, width), width, f, dt)
            self.params["proj.b"] = np.zeros(f, dt)
            for k in range(cfg.tcn_blocks):
                self.params[f"block{k}.conv.w"] = _glorot(rng, (f, f, 3), f * 3, f * 3, dt)
                self.params[f"block{k}.conv.b"] = np.zeros(f, dt)
                self._add_bn(f"block{k}.bn", f)
                self.params[f"block{k}.skip.w"] = _glorot(rng, (f, f), f, f, dt)
                self.params[f"block{k}.skip.b"] = np.zeros(f, dt)
            out_f = cfg.tcn_out_filters
            self.params["out1.w"] = _glorot(rng, (out_f, f), f, out_f, dt)
            self.params["out1.b"] = np.zeros(out_f, dt)
            self.params["out2.w"] = _glorot(rng, (out_f, out_f), out_f, out_f, dt)
            self.params["out2.b"] = np.zeros(out_f, dt)
            fc_in = out_f

        for branch, n_out in (("sed", cfg.n_sed), ("doa", 3 * cfg.n_sed)):
            self.params[f"{branch}_fc.w"] = _glorot(rng, (fc_in, cfg.fc_units), fc_in, cfg.fc_units, dt)
            self.params[f"{branch}_fc.b"] = np.zeros(cfg.fc_units, dt)
            self.params[f"{branch}_out.w"] = _glorot(rng, (cfg.fc_units, n_out), cfg.fc_units, n_out, dt)
            self.params[f"{branch}_out.b"] = np.zeros(n_out, dt)

    def num_params(self):
        return sum(p.size for p in self.params.values())

    def set_feature_stats(self, mean, std):
        self.feature_mean = np.asarray(mean, dtype=self.dtype)
        self.feature_std = np.asarray(std, dtype=self.dtype)

    # -- forward ------------------------------------------------------------

    def _check_input(self, features):
        x = features.values if isinstance(features, dsp.FeatureTensor) else np.asarray(features)
        if x.ndim != 3:
            raise ShapeError(f"expected (channels, frames, bins), got {x.shape}")
        if x.shape[0] != self.cfg.n_feature_channels:
            raise ShapeError(
                f"expected {self.cfg.n_feature_channels} feature channels, got {x.shape[0]}")
        if x.shape[2] != self.cfg.n_bins:
            raise ShapeError(f"expected {self.cfg.n_bins} bins, got {x.shape[2]}")
        if x.shape[1] < 1:
            raise ShapeError("need at least one frame")
        x = x.astype(self.dtype, copy=False)
        if self.feature_mean is not None:
            x = (x - self.feature_mean[:, None, None]) / self.feature_std[:, None, None]
        return x

    def _front_forward(self, x, cache):
        P = self.params
        if self.mode == "infer":
            # fused fast path: BN constants fold into the conv, and the
            # conv/ReLU/pool run tile-wise without the full activation
            for i, width in enumerate(self.cfg.pool_schedule):
                scale, shift = nn.batchnorm_affine(self.bn_states[f"bn{i}"], self.dtype)
                x = nn.conv2d_relu_pool(x, P[f"conv{i}.w"] * scale[:, None, None, None],
                                        P[f"conv{i}.b"] * scale + shift, width)
            return x
        for i, width in enumerate(self.cfg.pool_schedule):
            cols, stats, winners = ([], [], []) if cache is not None else (None, None, None)
            # one name for the full-resolution stages, so each is freed once used
            x = nn.conv2d(x, P[f"conv{i}.w"], P[f"conv{i}.b"], cols_out=cols)
            x = nn.batchnorm(x, self.bn_states[f"bn{i}"], self.mode, stats_out=stats)
            p = nn.maxpool_freq(x, width, winners_out=winners)
            if cache is not None:
                cache["front"].append((p, cols[0], winners[0], stats[0]))
            x = nn.relu(p)
        return x

    def _temporal_forward(self, h, cache, dropout_rng):
        if self.kind == "seldnet":
            h1 = nn.bigru_forward(h, self._gru_params(0, "fwd"), self._gru_params(0, "bwd"))
            return nn.bigru_forward(h1, self._gru_params(1, "fwd"), self._gru_params(1, "bwd"))
        return self.tcn_forward(h, cache=cache, dropout_rng=dropout_rng)

    def _heads_forward(self, q, cache):
        P = self.params
        sed_h = nn.dense(q, P["sed_fc.w"], P["sed_fc.b"])
        sed_z = nn.dense(sed_h, P["sed_out.w"], P["sed_out.b"])
        doa_h = nn.dense(q, P["doa_fc.w"], P["doa_fc.b"])
        doa_z = nn.dense(doa_h, P["doa_out.w"], P["doa_out.b"])
        pred = Prediction(sed=_sigmoid(sed_z), doa=np.tanh(doa_z))
        if cache is not None:
            cache["heads"] = (q, sed_h, doa_h)
        return pred

    def forward(self, features, dropout_rng=None) -> Prediction:
        """Run the model on (C, T, F) features; frame count is preserved."""
        pred, _ = self._forward_impl(features, cache=None, dropout_rng=dropout_rng)
        return pred

    def forward_cached(self, features, dropout_rng=None):
        """Train-mode forward pass that also returns the cache backward() needs.

        The cache holds only what backward reads: per front-end layer the
        pooled output, the patch matrix, the pool winners and BN's (centred
        input, var), but not the full-resolution conv or BN output. backward
        consumes it.
        """
        if self.mode != "train":
            raise StateError(
                f"forward_cached needs train mode (model is in {self.mode!r} mode): "
                "backward() uses the batch statistics only training computes")
        cache = {"front": [], "blocks": [], "tcn": None, "heads": None}
        return self._forward_impl(features, cache, dropout_rng)

    def _forward_impl(self, features, cache, dropout_rng):
        x = self._check_input(features)
        t_len = x.shape[1]
        x3 = self._front_forward(x, cache)
        h = x3.transpose(1, 0, 2).reshape(t_len, -1)
        q = self._temporal_forward(h, cache, dropout_rng)
        return self._heads_forward(q, cache), cache

    def _gru_params(self, layer, direction):
        pre = f"gru{layer}.{direction}"
        return nn.GruParams(**{k: self.params[f"{pre}.{k}"] for k in _GRU_KEYS})

    # -- TCN temporal block --------------------------------------------------

    def resblock_forward(self, x, k, cache=None, dropout_rng=None):
        """One residual block: returns (residual_out, skip_out) for (C, T) input."""
        if self.kind != "seldtcn":
            raise UnsupportedError("resblock_forward requires a seldtcn model")
        P = self.params
        d = self.cfg.dilations[k]
        rng = dropout_rng if dropout_rng is not None else self._rng
        stats = [] if cache is not None else None
        z = nn.dilated_conv1d(x, P[f"block{k}.conv.w"], P[f"block{k}.conv.b"], d)
        bn_out = nn.batchnorm(z, self.bn_states[f"block{k}.bn"], self.mode, stats_out=stats)
        g = nn.gated_activation(bn_out)
        dropped, mask = nn.spatial_dropout(g, self.cfg.dropout_rate, self.mode, rng)
        s = nn.conv1x1(dropped, P[f"block{k}.skip.w"], P[f"block{k}.skip.b"])
        if cache is not None:
            cache["blocks"].append((x, bn_out, dropped, mask, stats[0]))
        return x + s, s

    def tcn_forward(self, h, cache=None, dropout_rng=None):
        """Temporal TCN block over (T, width) input -> (T, tcn_out_filters)."""
        if self.kind != "seldtcn":
            raise UnsupportedError("tcn_forward requires a seldtcn model")
        P = self.params
        h_t = np.ascontiguousarray(h.T)
        u = nn.conv1x1(h_t, P["proj.w"], P["proj.b"])
        skip_sum = None
        for k in range(self.cfg.tcn_blocks):
            u, s = self.resblock_forward(u, k, cache=cache, dropout_rng=dropout_rng)
            skip_sum = s if skip_sum is None else skip_sum + s
        v1 = nn.relu(skip_sum)
        v2 = nn.conv1x1(v1, P["out1.w"], P["out1.b"])
        v3 = nn.relu(v2)
        v4 = nn.conv1x1(v3, P["out2.w"], P["out2.b"])
        if cache is not None:
            cache["tcn"] = (h_t, skip_sum, v1, v2, v3)
        return np.ascontiguousarray(v4.T)

    # -- backward (SELD-TCN only) --------------------------------------------

    def backward(self, cache, d_sed_z, d_doa_z):
        """Gradients w.r.t. every parameter from head pre-activation grads.

        Consumes `cache`: each layer's record is popped when its gradients
        are taken, so its saved tensors are freed as the pass goes (BN's
        centred inputs are overwritten). A consumed cache raises StateError.
        """
        if self.kind != "seldtcn":
            raise UnsupportedError("backward is only implemented for seldtcn")
        if cache.get("heads") is None:
            raise StateError("backward: the cache was already consumed; "
                             "run forward_cached again")
        P = self.params
        grads = {}
        q, sed_h, doa_h = cache.pop("heads")

        d_sed_h, grads["sed_out.w"], grads["sed_out.b"] = nn.dense_backward(
            d_sed_z, sed_h, P["sed_out.w"])
        d_q, grads["sed_fc.w"], grads["sed_fc.b"] = nn.dense_backward(
            d_sed_h, q, P["sed_fc.w"])
        d_doa_h, grads["doa_out.w"], grads["doa_out.b"] = nn.dense_backward(
            d_doa_z, doa_h, P["doa_out.w"])
        d_q_doa, grads["doa_fc.w"], grads["doa_fc.b"] = nn.dense_backward(
            d_doa_h, q, P["doa_fc.w"])
        d_q += d_q_doa

        # TCN output stack
        h_t, skip_sum, v1, v2, v3 = cache.pop("tcn")
        d_v4 = np.ascontiguousarray(d_q.T)
        d_v3, grads["out2.w"], grads["out2.b"] = nn.conv1x1_backward(d_v4, v3, P["out2.w"])
        d_v2 = nn.relu_backward(d_v3, v2)
        d_v1, grads["out1.w"], grads["out1.b"] = nn.conv1x1_backward(d_v2, v1, P["out1.w"])
        d_skip = nn.relu_backward(d_v1, skip_sum)

        # Residual blocks, last to first. The final residual output is unused,
        # so the residual gradient enters the chain as zero.
        d_u = np.zeros_like(d_skip)
        for k in reversed(range(self.cfg.tcn_blocks)):
            x_in, bn_out, dropped, mask, bn_saved = cache["blocks"].pop()
            d_s = d_skip + d_u
            d_dropped, grads[f"block{k}.skip.w"], grads[f"block{k}.skip.b"] = \
                nn.conv1x1_backward(d_s, dropped, P[f"block{k}.skip.w"])
            d_g = nn.spatial_dropout_backward(d_dropped, mask)
            d_bn = nn.gated_activation_backward(d_g, bn_out)
            d_z, grads[f"block{k}.bn.gamma"], grads[f"block{k}.bn.beta"] = \
                nn.batchnorm_backward(d_bn, self.bn_states[f"block{k}.bn"], bn_saved)
            d_x, grads[f"block{k}.conv.w"], grads[f"block{k}.conv.b"] = \
                nn.dilated_conv1d_backward(d_z, x_in, P[f"block{k}.conv.w"],
                                           self.cfg.dilations[k])
            d_u = d_u + d_x

        d_ht, grads["proj.w"], grads["proj.b"] = nn.conv1x1_backward(d_u, h_t, P["proj.w"])

        # undo reshape: (T, W) -> (C_f, T, F3); one name for the front-end
        # gradient, so each full-resolution stage is freed once used
        c_f = self.cfg.conv_filters
        d = np.ascontiguousarray(
            d_ht.T.reshape(-1, c_f, self.cfg.temporal_in_width // c_f).transpose(1, 0, 2))
        for i in reversed(range(len(self.cfg.pool_schedule))):
            p, cols, winners, bn_saved = cache["front"].pop()
            d = nn.relu_backward(d, p)
            d = nn.maxpool_freq_backward(d, winners, self.cfg.pool_schedule[i])
            d, grads[f"bn{i}.gamma"], grads[f"bn{i}.beta"] = \
                nn.batchnorm_backward(d, self.bn_states[f"bn{i}"], bn_saved)
            d, grads[f"conv{i}.w"], grads[f"conv{i}.b"] = \
                nn.conv2d_backward(d, cols, P[f"conv{i}.w"], need_dx=(i > 0))
        return grads

    # -- persistence ----------------------------------------------------------

    def _stored_tensors(self):
        """(name, array) per stored tensor in file order: parameters, then BN running stats."""
        yield from self.params.items()
        for name, state in self.bn_states.items():
            yield f"{name}.running_mean", state.running_mean
            yield f"{name}.running_var", state.running_var

    def to_store(self) -> dict:
        """Copies of the stored tensors by name, in file order, so they do not follow training."""
        updates = max(s.num_updates for s in self.bn_states.values())
        tensors = [*self._stored_tensors(),
                   ("meta.bn_updates", np.array([float(updates)], dtype=np.float64))]
        if self.feature_mean is not None:
            tensors += [("features.mean", self.feature_mean), ("features.std", self.feature_std)]
        return {name: np.array(array, order="C", ndmin=1) for name, array in tensors}

    def load_store(self, store: dict):
        """Copy a store into the model. Names and shapes must match (else ConfigError);
        values must be finite, running_var and meta.bn_updates >= 0 and features.std > 0
        (else FormatError)."""
        shapes = {name: array.shape for name, array in self._stored_tensors()}
        shapes["meta.bn_updates"] = (1,)
        optional = {"features.mean", "features.std"}
        present = set(store)
        if present & optional:  # the feature statistics come as a pair
            shapes.update(dict.fromkeys(optional, (self.cfg.n_feature_channels,)))
        missing = shapes.keys() - present
        extra = present - shapes.keys() - optional
        if missing or extra:
            raise ConfigError(
                f"weights do not match the model: missing={sorted(missing)[:4]} "
                f"extra={sorted(extra)[:4]}")
        for name, shape in shapes.items():
            array = store[name]
            if array.shape != shape:
                raise ConfigError(f"{name}: stored shape {array.shape} != {shape}")
            if not np.isfinite(array).all():
                raise FormatError(f"{name}: stored values must be finite")
            if name == "features.std" and not (array > 0).all():
                raise FormatError(f"{name}: stored values must be > 0")
            # 0 is allowed: a constant channel's running variance decays to exactly 0
            if (name.endswith(".running_var") or name == "meta.bn_updates") and (array < 0).any():
                raise FormatError(f"{name}: stored values must be >= 0")
        for name, array in self._stored_tensors():
            array[:] = store[name]
        updates = int(store["meta.bn_updates"][0])
        for state in self.bn_states.values():
            state.num_updates = updates
        if "features.mean" in store:
            self.set_feature_stats(store["features.mean"], store["features.std"])


def build_model(cfg: ModelConfig, kind: str, seed: int = 0, dtype=np.float32) -> SeldModel:
    """Construct a model with Glorot-uniform weights from the given seed."""
    return SeldModel(cfg, kind, seed=seed, dtype=dtype)


def model_from_store(cfg: ModelConfig, store: dict) -> SeldModel:
    """Rebuild a model from stored weights; the kind is inferred from names."""
    kind = "seldtcn" if "proj.w" in store else "seldnet"
    model = build_model(cfg, kind, seed=0)
    model.load_store(store)
    model.mode = "infer"
    return model


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

BCE_CLIP = 1e-7


def bce_loss(pred, target):
    """Mean binary cross-entropy with predictions clipped away from {0, 1}."""
    p = np.clip(pred, BCE_CLIP, 1.0 - BCE_CLIP)
    return float(-np.mean(target * np.log(p) + (1.0 - target) * np.log(1.0 - p)))


def mse_loss(pred, target):
    return float(np.mean((pred - target) ** 2))


def loss(pred: Prediction, target_sed, target_doa, loss_weight_doa=1.0):
    """BCE over SED activities plus weighted MSE over DOA coordinates."""
    if pred.sed.shape != np.shape(target_sed) or pred.doa.shape != np.shape(target_doa):
        raise ShapeError("prediction and target shapes differ")
    return bce_loss(pred.sed, target_sed) + loss_weight_doa * mse_loss(pred.doa, target_doa)


def loss_and_grads(model: SeldModel, features, target_sed, target_doa, dropout_rng=None):
    """Forward + backward in one call; returns (loss_value, grads dict)."""
    target_sed = np.asarray(target_sed, dtype=model.dtype)
    target_doa = np.asarray(target_doa, dtype=model.dtype)
    pred, cache = model.forward_cached(features, dropout_rng=dropout_rng)
    value = loss(pred, target_sed, target_doa, model.cfg.loss_weight_doa)
    d_sed_z = (pred.sed - target_sed) / target_sed.size
    d_doa_z = (model.cfg.loss_weight_doa * 2.0 / target_doa.size) \
        * (pred.doa - target_doa) * (1.0 - pred.doa ** 2)
    return value, model.backward(cache, d_sed_z, d_doa_z)


# ---------------------------------------------------------------------------
# Dataset plumbing and training
# ---------------------------------------------------------------------------

@dataclass
class Sequence:
    """One training sequence: raw features plus frame-aligned targets."""

    features: np.ndarray  # (C, seq_len, n_bins), unstandardized
    sed: np.ndarray       # (seq_len, n_sed) in {0, 1}
    doa: np.ndarray       # (seq_len, 3 * n_sed)


@dataclass
class SequenceDataset:
    train: list
    val: list
    test: list = field(default_factory=list)


def load_sequence_dataset(dataset_dir, cfg: ModelConfig, sample_rate_hz) -> SequenceDataset:
    """Load a synthetic dataset directory into fixed-length sequences.

    Scenes are resampled to `sample_rate_hz` when they were stored at a
    higher rate, featurized, and chopped into non-overlapping windows of
    cfg.seq_len frames (the trailing remainder is dropped).
    """
    splits = {split: [] for split in synth.SPLITS}
    for split, clip, events in synth.read_dataset(dataset_dir):
        if clip.sample_rate_hz != sample_rate_hz:
            clip = dsp.resample(clip, sample_rate_hz)
        feats = dsp.stft_features(clip)
        sed, doa = synth.frame_targets(
            events, feats.n_frames, dsp.HOP / sample_rate_hz, cfg.n_sed)
        for j in range(feats.n_frames // cfg.seq_len):
            lo, hi = j * cfg.seq_len, (j + 1) * cfg.seq_len
            splits[split].append(Sequence(
                features=feats.values[:, lo:hi],
                sed=sed[lo:hi],
                doa=doa[lo:hi],
            ))
    if not splits["train"] or not splits["val"]:
        raise DataError("train and validation splits must be non-empty")
    return SequenceDataset(**splits)


def feature_stats(sequences):
    """Per-feature-channel mean/std over a list of sequences."""
    n_channels = sequences[0].features.shape[0]
    total = np.zeros(n_channels)
    total_sq = np.zeros(n_channels)
    count = 0
    for seq in sequences:
        x = seq.features.astype(np.float64)
        total += x.sum(axis=(1, 2))
        total_sq += (x ** 2).sum(axis=(1, 2))
        count += x.shape[1] * x.shape[2]
    mean = total / count
    var = np.maximum(total_sq / count - mean ** 2, 0.0)
    return mean, np.maximum(np.sqrt(var), 1e-6)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    seconds: float


@dataclass
class TrainLog:
    records: list = field(default_factory=list)
    best_epoch: int = 0
    best_val_loss: float = float("inf")
    stopped_early: bool = False

    def to_csv(self, path):
        lines = ["epoch,train_loss,val_loss,seconds"]
        for r in self.records:
            lines.append(f"{r.epoch},{r.train_loss:.8f},{r.val_loss:.8f},{r.seconds:.3f}")
        Path(path).write_text("".join(line + "\n" for line in lines))


def _mean_val_loss(model, sequences):
    model.mode = "infer"
    total = 0.0
    for seq in sequences:
        pred = model.forward(seq.features)
        total += loss(pred, seq.sed.astype(model.dtype), seq.doa.astype(model.dtype),
                      model.cfg.loss_weight_doa)
    return total / len(sequences)


def train(model: SeldModel, dataset: SequenceDataset, epochs=500, batch_size=16,
          patience=50, seed=0) -> TrainLog:
    """Adam training with early stopping on validation loss.

    Stops once `patience` consecutive epochs bring no improvement (patience 0
    stops after the first non-improving epoch). The best-validation weights
    are restored into the model before returning.
    """
    if model.kind != "seldtcn":
        raise UnsupportedError("training is only supported for seldtcn "
                               "(the recurrent baseline is inference-only)")
    if not 1 <= epochs <= 500:
        raise InputError("epochs must lie in 1..500")
    if batch_size < 1 or patience < 0:
        raise InputError("batch_size must be >= 1 and patience >= 0")
    if not dataset.train or not dataset.val:
        raise DataError("train and validation splits must be non-empty")

    mean, std = feature_stats(dataset.train)
    model.set_feature_stats(mean, std)
    dropout_rng = np.random.default_rng(seed)
    shuffle_rng = np.random.default_rng(seed)
    adam = nn.AdamState.create(model.params)

    log = TrainLog()
    best = None
    wait = 0
    for epoch in range(1, epochs + 1):
        t0 = time.perf_counter()
        model.mode = "train"
        order = shuffle_rng.permutation(len(dataset.train))
        epoch_loss = 0.0
        for start in range(0, len(order), batch_size):
            batch = [dataset.train[i] for i in order[start:start + batch_size]]
            grads_acc = None
            batch_loss = 0.0
            for seq in batch:
                value, grads = loss_and_grads(model, seq.features, seq.sed, seq.doa, dropout_rng)
                batch_loss += value
                if grads_acc is None:
                    grads_acc = grads
                else:
                    for name, g in grads.items():
                        grads_acc[name] += g
            scale = 1.0 / len(batch)
            for name in grads_acc:
                grads_acc[name] *= scale
            nn.adam_step(model.params, grads_acc, adam)
            epoch_loss += batch_loss
        train_loss = epoch_loss / len(dataset.train)
        val_loss = _mean_val_loss(model, dataset.val)
        log.records.append(EpochRecord(epoch, train_loss, val_loss,
                                       time.perf_counter() - t0))
        if val_loss < log.best_val_loss:
            log.best_val_loss = val_loss
            log.best_epoch = epoch
            best = model.to_store()
            wait = 0
        else:
            wait += 1
            if wait >= max(patience, 1):
                log.stopped_early = True
                break
    if best is not None:
        model.load_store(best)
    model.mode = "infer"
    return log


# ---------------------------------------------------------------------------
# Complexity counters
# ---------------------------------------------------------------------------
# Per-layer accounting. Parameters count weights plus biases (and gamma/beta
# for BN); MACs follow the convention that pooling, activations, and
# normalization contribute nothing.

def params_conv2d(c_in, c_out, kernel=3):
    return c_out * c_in * kernel * kernel + c_out


def params_conv1d(c_in, c_out, kernel=3):
    return c_out * c_in * kernel + c_out


def params_conv1x1(c_in, c_out):
    return c_out * c_in + c_out


def params_dense(n_in, n_out):
    return n_in * n_out + n_out


def params_gru_direction(n_in, hidden):
    return 3 * (n_in * hidden + hidden * hidden + hidden)


def params_batchnorm(channels):
    return 2 * channels


def macs_conv2d(c_in, c_out, t, f, kernel=3):
    return c_out * c_in * kernel * kernel * t * f


def macs_conv1d(c_in, c_out, t, kernel=3):
    return c_out * c_in * kernel * t


def macs_dense(n_in, n_out, t):
    return n_in * n_out * t


def macs_gru_direction(n_in, hidden, t):
    return 3 * hidden * (n_in + hidden) * t


def _layer_costs(cfg: ModelConfig, kind: str):
    """Yield (parameters, MACs per frame) for each layer, front-end to heads."""
    if kind not in MODEL_KINDS:
        raise ConfigError(f"unknown model kind {kind!r}")
    c_in, f_bins = cfg.n_feature_channels, cfg.n_bins
    for width in cfg.pool_schedule:
        yield (params_conv2d(c_in, cfg.conv_filters) + params_batchnorm(cfg.conv_filters),
               macs_conv2d(c_in, cfg.conv_filters, 1, f_bins))
        c_in, f_bins = cfg.conv_filters, f_bins // width

    n_in = cfg.temporal_in_width
    if kind == "seldnet":
        for _ in range(2):
            yield (2 * params_gru_direction(n_in, cfg.rnn_hidden),
                   2 * macs_gru_direction(n_in, cfg.rnn_hidden, 1))
            n_in = 2 * cfg.rnn_hidden
    else:
        f = cfg.tcn_filters
        yield params_conv1x1(n_in, f), macs_dense(n_in, f, 1)  # 1x1 projection
        for _ in range(cfg.tcn_blocks):
            yield (params_conv1d(f, f) + params_batchnorm(f) + params_conv1x1(f, f),
                   macs_conv1d(f, f, 1) + macs_dense(f, f, 1))
        out_f = cfg.tcn_out_filters
        yield params_conv1x1(f, out_f), macs_dense(f, out_f, 1)
        yield params_conv1x1(out_f, out_f), macs_dense(out_f, out_f, 1)
        n_in = out_f

    for n_out in (cfg.n_sed, 3 * cfg.n_sed):
        yield params_dense(n_in, cfg.fc_units), macs_dense(n_in, cfg.fc_units, 1)
        yield params_dense(cfg.fc_units, n_out), macs_dense(cfg.fc_units, n_out, 1)


def count_params(cfg: ModelConfig, kind: str) -> int:
    """Closed-form trainable parameter count (weights, biases, BN gamma/beta)."""
    return sum(p for p, _ in _layer_costs(cfg, kind))


def count_macs(cfg: ModelConfig, kind: str, t_frames: int) -> int:
    """Closed-form multiply-accumulate count for a T-frame forward pass.

    Every layer's MACs are linear in T, so this is T times the per-frame sum.
    """
    return t_frames * sum(m for _, m in _layer_costs(cfg, kind))
