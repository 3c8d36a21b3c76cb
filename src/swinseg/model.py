"""Hierarchical 3D shifted-window transformer encoder with a U-shaped CNN
decoder (residual instance-norm blocks, skip connections, 2x up-sampling
as a per-voxel linear map followed by depth-to-space) and a per-channel
sigmoid segmentation head.

Token layout inside the encoder is (D, H, W, C); feature maps at the
encoder/decoder boundary are channel-first (C, D, H, W). Every resolution
change is a reshape plus a matmul: the patch embedding and patch merging
use ``space_to_depth``, the decoder's up-sampling ``depth_to_space``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .volio import FormatError, LabelMap, read_container, write_container

CKPT_MAGIC = b"MCKP0001"
MASK_NEG = -1e9


class ConfigError(ValueError):
    pass


@dataclass
class ModelConfig:
    num_classes: int
    in_channels: int = 1
    embed_dim: int = 24
    patch_size: int = 2
    window: int = 4
    depths: list[int] = field(default_factory=lambda: [2, 2, 2, 2])
    heads: list[int] = field(default_factory=lambda: [3, 6, 12, 24])
    mlp_ratio: float = 4.0
    use_rel_pos_bias: bool = True

    def __post_init__(self):
        if min(self.num_classes, self.in_channels, self.embed_dim, self.patch_size) < 1:
            raise ConfigError("num_classes, in_channels, embed_dim, patch_size must be positive")
        if not (math.isfinite(self.mlp_ratio) and self.mlp_ratio * self.embed_dim >= 1):
            raise ConfigError(f"mlp_ratio {self.mlp_ratio} gives an empty or unbounded MLP "
                              f"at embed_dim {self.embed_dim}")
        if self.window < 2:
            raise ConfigError(f"window must be >= 2, got {self.window}")
        if len(self.depths) != len(self.heads):
            raise ConfigError("depths and heads must have the same length")
        if any(n < 1 for n in (*self.depths, *self.heads)):
            raise ConfigError(f"depths {self.depths} and heads {self.heads} must all be >= 1")
        for i, h in enumerate(self.heads):
            if (self.embed_dim * 2 ** i) % h != 0:
                raise ConfigError(
                    f"stage {i}: dim {self.embed_dim * 2 ** i} not divisible by {h} heads")

    @property
    def num_stages(self):
        return len(self.depths)

    @property
    def downsample_factor(self):
        return self.patch_size * 2 ** self.num_stages

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**check_keys(cls, d))


def check_keys(cls, d):
    """``d`` itself if every key names a field of dataclass ``cls``, else a
    ConfigError naming the other keys."""
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys: {', '.join(unknown)}")
    return d


# ---------------------------------------------------------------------------
# resolution changes and window utilities
# ---------------------------------------------------------------------------

def _pad_to_multiple(t: Tensor, m: int):
    """Zero-pad the three leading spatial axes of (D,H,W,C) to multiples of m."""
    d, h, w, _ = t.shape
    pads = [(0, (-d) % m), (0, (-h) % m), (0, (-w) % m), (0, 0)]
    if any(p[1] for p in pads):
        t = ad.pad(t, pads)
    return t, t.shape[:3]


def space_to_depth(t: Tensor, m: int) -> Tensor:
    """(D,H,W,C) -> (D/m, H/m, W/m, m^3 C); pads to multiples of m first.
    Each m^3 block's features are concatenated in (d, h, w, c) order."""
    t, (dp, hp, wp) = _pad_to_multiple(t, m)
    c = t.shape[3]
    t = ad.reshape(t, (dp // m, m, hp // m, m, wp // m, m, c))
    t = ad.permute(t, (0, 2, 4, 1, 3, 5, 6))
    return ad.reshape(t, (dp // m, hp // m, wp // m, m ** 3 * c))


def depth_to_space(t: Tensor, m: int) -> Tensor:
    """(D,H,W,m^3 C) -> (mD, mH, mW, C); inverse of space_to_depth."""
    d, h, w, c = t.shape
    c //= m ** 3
    t = ad.reshape(t, (d, h, w, m, m, m, c))
    t = ad.permute(t, (0, 3, 1, 4, 2, 5, 6))
    return ad.reshape(t, (m * d, m * h, m * w, c))


def patch_embed(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Non-overlapping p^3 patch embedding, (Cin,D,H,W) -> tokens
    (D/p, H/p, W/p, C), of w:(C,Cin,p,p,p) and b:(C,): space-to-depth, then
    one linear map. Pads D, H, W to multiples of p first."""
    c, cin, p = w.shape[:3]
    t = space_to_depth(ad.permute(x, (1, 2, 3, 0)), p)
    w = ad.reshape(ad.permute(w, (2, 3, 4, 1, 0)), (p ** 3 * cin, c))
    out = ad.matmul(ad.reshape(t, (-1, t.shape[3])), w) + b
    return ad.reshape(out, t.shape[:3] + (c,))


def upsample(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Learned k-fold up-sampling, (Cin,D,H,W) -> (Cout, kD, kH, kW), of
    w:(Cout,Cin,k,k,k) and b:(Cout,): a linear map of each voxel to its k^3
    children, then depth-to-space."""
    cout, cin, k = w.shape[:3]
    c, d, h, wd = x.shape
    w = ad.reshape(ad.permute(w, (1, 2, 3, 4, 0)), (cin, k ** 3 * cout))
    t = ad.matmul(ad.reshape(ad.permute(x, (1, 2, 3, 0)), (-1, c)), w)
    t = depth_to_space(ad.reshape(t, (d, h, wd, k ** 3 * cout)), k) + b
    return ad.permute(t, (3, 0, 1, 2))


def window_partition(t: Tensor, m: int):
    """(D,H,W,C) -> (num_windows, m^3, C); pads to multiples of m first.

    Returns (windows, padded_dims)."""
    t = space_to_depth(t, m)
    return (ad.reshape(t, (-1, m ** 3, t.shape[3] // m ** 3)),
            tuple(m * n for n in t.shape[:3]))


def window_reverse(windows: Tensor, padded_dims, m: int) -> Tensor:
    """Inverse of window_partition on the padded grid."""
    dp, hp, wp = padded_dims
    return depth_to_space(ad.reshape(windows, (dp // m, hp // m, wp // m, -1)), m)


def cyclic_shift(t: Tensor, shift: int) -> Tensor:
    """Roll the three spatial axes of (D,H,W,C) by -shift (shift >= 0 rolls
    content toward the origin); shift < 0 rolls back."""
    if shift == 0:
        return t
    for ax in range(3):
        n = t.shape[ax]
        s = shift % n
        if s == 0:
            continue
        idx_a = [slice(None)] * 4
        idx_b = [slice(None)] * 4
        idx_a[ax] = slice(s, None)
        idx_b[ax] = slice(0, s)
        t = ad.concat([t[tuple(idx_a)], t[tuple(idx_b)]], axis=ax)
    return t


def build_shift_mask(dims, m: int, shift: int) -> np.ndarray:
    """Additive attention mask (num_windows, m^3, m^3) for cyclic-shift
    window attention over a token grid of `dims` (pre-padding extents).

    After rolling by -shift and partitioning, token pairs coming from
    different pre-shift window regions (or involving a padded token) get a
    large negative bias; same-region pairs get 0. shift == 0 on an aligned
    grid yields an all-zero mask.
    """
    if shift >= m:
        raise ConfigError(f"shift {shift} must be < window {m}")
    dims = tuple(int(x) for x in dims)
    padded = tuple(d + (-d) % m for d in dims)
    # per-axis region id: shifted-window piece index. Rolling by -shift puts
    # original coordinate p+shift at position p, so window boundaries fall on
    # coordinates k*m + shift; the wrap-around block [0, shift) is its own
    # piece. Padded coordinates get a sentinel id so they never match a real
    # token.
    axes_ids = []
    for ax, (d, dp) in enumerate(zip(dims, padded)):
        coord = np.arange(dp, dtype=np.int64)
        piece = (coord - shift + m) // m + 1   # real pieces >= 1, pad sentinel 0
        piece[d:] = 0
        shp = [1, 1, 1]
        shp[ax] = dp
        axes_ids.append(np.broadcast_to(piece.reshape(shp), padded))
    combined = (axes_ids[0] * 8192 + axes_ids[1]) * 8192 + axes_ids[2]

    if shift:
        combined = np.roll(combined, (-shift, -shift, -shift), axis=(0, 1, 2))
    dp, hp, wp = padded
    win = combined.reshape(dp // m, m, hp // m, m, wp // m, m)
    win = win.transpose(0, 2, 4, 1, 3, 5).reshape(-1, m ** 3)
    same = win[:, :, None] == win[:, None, :]
    return np.where(same, 0.0, MASK_NEG).astype(np.float32)


def _rel_pos_index(m: int) -> np.ndarray:
    """(m^3, m^3) index into the (2m-1)^3 relative-position bias table."""
    coords = np.stack(np.meshgrid(*([np.arange(m)] * 3), indexing="ij"), axis=-1)
    coords = coords.reshape(-1, 3)
    rel = coords[:, None, :] - coords[None, :, :] + (m - 1)
    return ((rel[..., 0] * (2 * m - 1) + rel[..., 1]) * (2 * m - 1) + rel[..., 2])


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

class SwinSegModel:
    """Parameter container plus forward passes for the full network."""

    def __init__(self, cfg: ModelConfig, seed: int = 0, dtype=np.float32,
                 params: dict[str, Tensor] | None = None):
        self.cfg = cfg
        self.dtype = np.dtype(dtype)
        self._mask_cache: dict[tuple, np.ndarray] = {}
        self._rel_index = _rel_pos_index(cfg.window)
        if params is not None:
            self.params = params
        else:
            self.params = {}
            self._init_params(np.random.Generator(np.random.PCG64(seed)))

    # -- parameter creation ------------------------------------------------
    def _he(self, rng, shape, fan_in):
        std = np.sqrt(2.0 / fan_in)
        return Tensor(rng.normal(0.0, std, size=shape).astype(self.dtype),
                      requires_grad=True, dtype=self.dtype)

    def _zeros(self, shape):
        return Tensor(np.zeros(shape, dtype=self.dtype), requires_grad=True,
                      dtype=self.dtype)

    def _ones(self, shape):
        return Tensor(np.ones(shape, dtype=self.dtype), requires_grad=True,
                      dtype=self.dtype)

    def _add_linear(self, rng, name, cin, cout):
        self.params[f"{name}.w"] = self._he(rng, (cin, cout), cin)
        self.params[f"{name}.b"] = self._zeros((cout,))

    def _add_norm(self, name, c):
        self.params[f"{name}.g"] = self._ones((c,))
        self.params[f"{name}.b"] = self._zeros((c,))

    def _add_conv(self, rng, name, cin, cout, k):
        self.params[f"{name}.w"] = self._he(rng, (cout, cin, k, k, k), cin * k ** 3)
        self.params[f"{name}.b"] = self._zeros((cout,))

    def _add_resblock(self, rng, name, cin, cout):
        self._add_conv(rng, f"{name}.conv1", cin, cout, 3)
        self._add_norm(f"{name}.in1", cout)
        self._add_conv(rng, f"{name}.conv2", cout, cout, 3)
        self._add_norm(f"{name}.in2", cout)
        if cin != cout:
            self._add_conv(rng, f"{name}.proj", cin, cout, 1)

    def _init_params(self, rng):
        cfg = self.cfg
        c = cfg.embed_dim
        p = cfg.patch_size
        self._add_conv(rng, "embed", cfg.in_channels, c, p)
        for i, depth in enumerate(cfg.depths):
            dim = c * 2 ** i
            for l in range(depth):
                blk = f"enc{i}.blk{l}"
                self._add_norm(f"{blk}.ln1", dim)
                self._add_linear(rng, f"{blk}.qkv", dim, 3 * dim)
                self._add_linear(rng, f"{blk}.proj", dim, dim)
                self._add_norm(f"{blk}.ln2", dim)
                hidden = int(cfg.mlp_ratio * dim)
                self._add_linear(rng, f"{blk}.mlp1", dim, hidden)
                self._add_linear(rng, f"{blk}.mlp2", hidden, dim)
                if cfg.use_rel_pos_bias:
                    self.params[f"{blk}.relpos"] = self._zeros(
                        ((2 * cfg.window - 1) ** 3, cfg.heads[i]))
            merge = f"merge{i}"
            self._add_norm(f"{merge}.ln", 8 * dim)
            self._add_linear(rng, f"{merge}.lin", 8 * dim, 2 * dim)

        # decoder: levels num_stages..0, level i carries c * 2^(i-1) channels
        s = cfg.num_stages
        bott = c * 2 ** s
        self._add_resblock(rng, "dec.bottleneck", bott, bott)
        ch_hi = bott
        for i in range(s, 0, -1):
            ch = c * 2 ** (i - 1)
            self._add_conv(rng, f"dec.up{i}", ch_hi, ch, 2)  # 2x up-sampling
            self._add_resblock(rng, f"dec.res{i}", 2 * ch, ch)
            ch_hi = ch
        self._add_conv(rng, f"dec.up0", ch_hi, c, 2)
        self._add_resblock(rng, "dec.res0", c + cfg.in_channels, c)
        self._add_conv(rng, "head", c, cfg.num_classes + 1, 1)

    def parameters(self) -> dict[str, Tensor]:
        return self.params

    def set_requires_grad(self, flag: bool):
        for t in self.params.values():
            t.requires_grad = flag

    # -- building blocks -----------------------------------------------------
    def _linear(self, name, x):
        return ad.matmul(x, self.params[f"{name}.w"]) + self.params[f"{name}.b"]

    def _layer_norm(self, name, x):
        return ad.layer_norm(x, self.params[f"{name}.g"], self.params[f"{name}.b"])

    def _attn_mask(self, dims, shift):
        key = (tuple(dims), self.cfg.window, shift)
        if key not in self._mask_cache:
            self._mask_cache[key] = build_shift_mask(dims, self.cfg.window, shift)
        return self._mask_cache[key]

    def window_attention(self, blk, x: Tensor, heads: int, shift: int) -> Tensor:
        """(S)W-MSA over (D,H,W,C) tokens; cyclic shift + additive mask."""
        m = self.cfg.window
        d0, h0, w0, c = x.shape
        mask = self._attn_mask((d0, h0, w0), shift)
        # pad to window multiples first, then shift: wrap-around pieces must
        # stay contiguous so the mask regions line up with whole windows
        x, padded = _pad_to_multiple(x, m)
        if shift:
            x = cyclic_shift(x, shift)
        windows, _ = window_partition(x, m)
        nw, nt, _ = windows.shape
        dh = c // heads

        qkv = self._linear(f"{blk}.qkv", windows)                 # (nw, nt, 3c)
        qkv = ad.reshape(qkv, (nw, nt, 3, heads, dh))
        qkv = ad.permute(qkv, (2, 0, 3, 1, 4))                    # (3, nw, heads, nt, dh)
        q, k, v = qkv[0], qkv[1], qkv[2]
        attn = ad.matmul(q, ad.permute(k, (0, 1, 3, 2))) * (dh ** -0.5)
        attn = attn + Tensor(mask[:, None, :, :], dtype=attn.dtype)
        if self.cfg.use_rel_pos_bias:
            table = self.params[f"{blk}.relpos"]                  # ((2m-1)^3, heads)
            bias = table[self._rel_index]                         # (nt, nt, heads)
            attn = attn + ad.permute(bias, (2, 0, 1))
        attn = ad.softmax(attn, axis=-1)
        out = ad.matmul(attn, v)                                  # (nw, heads, nt, dh)
        out = ad.reshape(ad.permute(out, (0, 2, 1, 3)), (nw, nt, c))
        out = self._linear(f"{blk}.proj", out)
        out = window_reverse(out, padded, m)
        if shift:
            out = cyclic_shift(out, -shift)
        if padded != (d0, h0, w0):
            out = out[:d0, :h0, :w0, :]
        return out

    def swin_block(self, x: Tensor, stage: int, layer: int) -> Tensor:
        """Pre-norm transformer block; even layers W-MSA, odd layers SW-MSA."""
        blk = f"enc{stage}.blk{layer}"
        heads = self.cfg.heads[stage]
        shift = 0 if layer % 2 == 0 else self.cfg.window // 2
        x = x + self.window_attention(blk, self._layer_norm(f"{blk}.ln1", x), heads, shift)
        h = self._layer_norm(f"{blk}.ln2", x)
        h = self._linear(f"{blk}.mlp2", ad.gelu(self._linear(f"{blk}.mlp1", h)))
        return x + h

    def patch_merging(self, x: Tensor, stage: int) -> Tensor:
        """Concatenate 2^3 neighborhoods, LayerNorm, project 8C -> 2C."""
        x = self._layer_norm(f"merge{stage}.ln", space_to_depth(x, 2))
        return self._linear(f"merge{stage}.lin", x)

    def _resblock(self, name, x: Tensor) -> Tensor:
        h = ad.conv3d(x, self.params[f"{name}.conv1.w"],
                      self.params[f"{name}.conv1.b"], padding=1)
        h = ad.instance_norm(h, self.params[f"{name}.in1.g"], self.params[f"{name}.in1.b"])
        h = ad.conv3d(h, self.params[f"{name}.conv2.w"],
                      self.params[f"{name}.conv2.b"], padding=1)
        h = ad.instance_norm(h, self.params[f"{name}.in2.g"], self.params[f"{name}.in2.b"])
        if f"{name}.proj.w" in self.params:
            x = ad.conv3d(x, self.params[f"{name}.proj.w"], self.params[f"{name}.proj.b"])
        return x + h

    # -- forward ---------------------------------------------------------------
    def encoder_forward(self, x: Tensor) -> list[Tensor]:
        """Returns the skip pyramid: [input, stage outputs..., bottleneck],
        all channel-first (C_i, D_i, H_i, W_i)."""
        cfg = self.cfg
        if x.ndim != 4 or x.shape[0] != cfg.in_channels:
            raise ad.ShapeError(f"encoder: expected ({cfg.in_channels},D,H,W), got {x.shape}")
        if min(x.shape[1:]) < cfg.downsample_factor:
            raise ConfigError(
                f"input dims {x.shape[1:]} smaller than total downsampling factor "
                f"{cfg.downsample_factor}")
        feats = [x]
        t = patch_embed(x, self.params["embed.w"], self.params["embed.b"])  # (D/p,H/p,W/p,C)
        for i, depth in enumerate(cfg.depths):
            for l in range(depth):
                t = self.swin_block(t, i, l)
            feats.append(ad.permute(t, (3, 0, 1, 2)))
            t = self.patch_merging(t, i)
        feats.append(ad.permute(t, (3, 0, 1, 2)))   # bottleneck
        return feats

    def decoder_forward(self, feats: list[Tensor]):
        """Bottom-up decoding over the skip pyramid; returns (logits, probs)."""
        cfg = self.cfg
        s = cfg.num_stages
        if len(feats) != s + 2:
            raise ad.ShapeError(f"decoder: expected {s + 2} pyramid levels, got {len(feats)}")
        x = self._resblock("dec.bottleneck", feats[-1])
        for i in range(s, -1, -1):
            skip = feats[i]
            x = upsample(x, self.params[f"dec.up{i}.w"], self.params[f"dec.up{i}.b"])
            ds, hs, ws = skip.shape[1:]
            if x.shape[1:] != (ds, hs, ws):
                x = x[:, :ds, :hs, :ws]
            x = ad.concat([x, skip], axis=0)
            x = self._resblock(f"dec.res{i}", x)
        logits = ad.conv3d(x, self.params["head.w"], self.params["head.b"])
        return logits, ad.sigmoid(logits)

    def forward(self, x: Tensor):
        """Full pass; output spatial dims equal input dims."""
        d, h, w = x.shape[1:]
        logits, probs = self.decoder_forward(self.encoder_forward(x))
        if logits.shape[1:] != (d, h, w):
            logits = logits[:, :d, :h, :w]
            probs = probs[:, :d, :h, :w]
        return logits, probs


def predict_labels(probs: np.ndarray, spacing_mm, num_classes: int) -> LabelMap:
    """Argmax fusion of per-channel probabilities (channel 0 = background);
    ties resolve to the lowest class index."""
    labels = np.argmax(probs, axis=0).astype(np.uint8)
    return LabelMap(labels, spacing_mm, num_classes,
                    available=frozenset(range(1, num_classes + 1)))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    cfg: ModelConfig
    params: dict[str, np.ndarray]
    step: int = 0
    opt_state: dict | None = None   # {"t": int, "m": {...}, "v": {...}}

    def to_model(self, dtype=np.float32) -> SwinSegModel:
        params = {k: Tensor(v.astype(dtype), requires_grad=True, dtype=dtype)
                  for k, v in self.params.items()}
        return SwinSegModel(self.cfg, params=params, dtype=dtype)

    @classmethod
    def from_model(cls, model: SwinSegModel, step=0, opt_state=None):
        return cls(model.cfg, {k: t.data.copy() for k, t in model.params.items()},
                   step=step, opt_state=opt_state)


def save_checkpoint(ckpt: Checkpoint, path):
    entries = []
    blobs = []
    offset = 0

    def push(name, arr):
        nonlocal offset
        arr = np.ascontiguousarray(arr)
        le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        raw = le.tobytes()
        entries.append({"name": name, "shape": list(arr.shape),
                        "dtype": arr.dtype.name, "offset": offset,
                        "nbytes": len(raw)})
        blobs.append(raw)
        offset += len(raw)

    for name in sorted(ckpt.params):
        push(name, ckpt.params[name])
    header = {"config": ckpt.cfg.to_dict(), "step": ckpt.step, "tensors": entries}
    if ckpt.opt_state is not None:
        header["opt_t"] = ckpt.opt_state["t"]
        for name in sorted(ckpt.opt_state["m"]):
            push(f"__opt_m__/{name}", ckpt.opt_state["m"][name])
        for name in sorted(ckpt.opt_state["v"]):
            push(f"__opt_v__/{name}", ckpt.opt_state["v"][name])
    write_container(path, CKPT_MAGIC, header, blobs)


def load_checkpoint(path) -> Checkpoint:
    """Read a ``.mckp``; a malformed file raises ``FormatError``."""
    header, payload, base = read_container(path, CKPT_MAGIC)
    try:
        cfg = ModelConfig.from_dict(header["config"])
        entries = [(str(e["name"]), [int(n) for n in e["shape"]], e["dtype"],
                    int(e["offset"]), int(e["nbytes"])) for e in header["tensors"]]
        step = int(header["step"])
        opt_t = int(header["opt_t"]) if "opt_t" in header else None
        shapes = {k: list(t.shape) for k, t in SwinSegModel(cfg).params.items()}
    except (ValueError, KeyError, TypeError) as e:   # also ConfigError
        raise FormatError(f"{path}: malformed checkpoint header: {e!r}", offset=12)
    if opt_t is not None:
        shapes.update({f"{pre}{k}": v for pre in ("__opt_m__/", "__opt_v__/")
                       for k, v in list(shapes.items())})
    names = [e[0] for e in entries]
    if len(set(names)) != len(names) or set(names) != set(shapes):
        dup = sorted({n for n in names if names.count(n) > 1})
        raise FormatError(f"{path}: tensor table does not match the model: missing "
                          f"{sorted(set(shapes) - set(names))}, unexpected "
                          f"{sorted(set(names) - set(shapes))}, repeated {dup}", offset=12)
    params = {}
    opt_m, opt_v = {}, {}
    for name, shape, dtype, offset, nbytes in entries:
        if shape != shapes[name] or dtype not in ("float32", "float64"):
            raise FormatError(f"{path}: tensor {name!r} is {dtype} {shape}, the model needs "
                              f"float32 or float64 {shapes[name]}", offset=12)
        dtype = np.dtype(dtype)
        if min(offset, nbytes) < 0 or offset + nbytes > len(payload):
            raise FormatError(f"{path}: tensor {name!r} bytes [{offset}, {offset + nbytes}) "
                              f"run past the {len(payload)}-byte payload", offset=base)
        if nbytes != math.prod(shape) * dtype.itemsize:
            raise FormatError(f"{path}: tensor {name!r} holds {nbytes} bytes, not shape "
                              f"{shape} of {dtype.name}", offset=base + offset)
        raw = payload[offset: offset + nbytes]
        arr = np.frombuffer(raw, dtype=dtype.newbyteorder("<")).reshape(shape).astype(dtype)
        if name.startswith("__opt_m__/"):
            opt_m[name[len("__opt_m__/"):]] = arr
        elif name.startswith("__opt_v__/"):
            opt_v[name[len("__opt_v__/"):]] = arr
        else:
            params[name] = arr
    opt_state = None
    if opt_t is not None:
        opt_state = {"t": opt_t, "m": opt_m, "v": opt_v}
    return Checkpoint(cfg, params, step=step, opt_state=opt_state)
