import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swinseg import autodiff as ad
from swinseg.autodiff import ShapeError, Tensor
from swinseg.model import (
    MASK_NEG, Checkpoint, ConfigError, ModelConfig, SwinSegModel,
    build_shift_mask, cyclic_shift, depth_to_space, load_checkpoint, patch_embed,
    predict_labels, save_checkpoint, space_to_depth, upsample, window_partition,
    window_reverse,
)
from swinseg.volio import FormatError
from conftest import grad_check, rel_err
from test_autodiff import t64


def small_cfg(**kw):
    base = dict(num_classes=2, embed_dim=8, patch_size=2, window=4,
                depths=[1, 1], heads=[2, 4])
    base.update(kw)
    return ModelConfig(**base)


class TestConfig:
    def test_defaults(self):
        cfg = ModelConfig(num_classes=13)
        assert cfg.embed_dim == 24 and cfg.depths == [2, 2, 2, 2]
        assert cfg.downsample_factor == 32

    def test_head_divisibility(self):
        with pytest.raises(ConfigError, match="divisible"):
            ModelConfig(num_classes=2, embed_dim=10, heads=[3], depths=[1])

    def test_roundtrip(self):
        cfg = small_cfg()
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("kw", [dict(heads=[0]), dict(depths=[-1]), dict(depths=[0]),
                                    dict(in_channels=0), dict(mlp_ratio=0.0)])
    def test_nonpositive_sizes(self, kw):
        with pytest.raises(ConfigError):
            ModelConfig(**{"num_classes": 2, "embed_dim": 8, "depths": [1], "heads": [2], **kw})

    def test_unknown_keys_named(self):
        with pytest.raises(ConfigError, match="embedz, zzz"):
            ModelConfig.from_dict({"num_classes": 2, "zzz": 1, "embedz": 3})


class TestWindowOps:
    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(2, 9), h=st.integers(2, 9), w=st.integers(2, 9),
           m=st.sampled_from([2, 3, 4]), seed=st.integers(0, 999))
    def test_partition_reverse_roundtrip(self, d, h, w, m, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(d, h, w, 3)))
        win, padded = window_partition(x, m)
        assert win.shape == (np.prod([p // m for p in padded]), m ** 3, 3)
        back = window_reverse(win, padded, m)
        np.testing.assert_array_equal(back.data[:d, :h, :w], x.data)
        # padding region is zero
        assert np.all(back.data[d:] == 0)

    def test_window_contents(self):
        # (4,2,2) grid, m=2 -> 2 windows split along the leading axis
        x = Tensor(np.arange(16, dtype=np.float64).reshape(4, 2, 2, 1))
        win, padded = window_partition(x, 2)
        assert padded == (4, 2, 2)
        np.testing.assert_array_equal(win.data[0, :, 0], np.arange(8))
        np.testing.assert_array_equal(win.data[1, :, 0], np.arange(8, 16))

    def test_space_to_depth_order_and_inverse(self, rng):
        # one 2^3 block: features concatenated in (d, h, w, c) order
        x = t64(np.arange(16).reshape(2, 2, 2, 2), rg=False)
        np.testing.assert_array_equal(space_to_depth(x, 2).data, x.data.reshape(1, 1, 1, 16))
        y = t64(rng.normal(size=(4, 6, 2, 3)), rg=False)
        s = space_to_depth(y, 2)
        assert s.shape == (2, 3, 1, 24)
        np.testing.assert_array_equal(depth_to_space(s, 2).data, y.data)

    def test_cyclic_shift_matches_roll(self, rng):
        x = rng.normal(size=(5, 6, 7, 2))
        out = cyclic_shift(Tensor(x, dtype=np.float64), 2).data
        np.testing.assert_array_equal(out, np.roll(x, (-2, -2, -2), axis=(0, 1, 2)))
        back = cyclic_shift(Tensor(out, dtype=np.float64), -2).data
        np.testing.assert_array_equal(back, x)

    def test_shift_roundtrip_grad(self, rng):
        x = Tensor(rng.normal(size=(4, 4, 4, 2)), requires_grad=True)
        y = cyclic_shift(cyclic_shift(x, 3), -3)
        ad.backward(ad.reduce_sum(y * y))
        np.testing.assert_allclose(x.grad, 2 * x.data, rtol=1e-12)


class TestShiftMask:
    def test_no_shift_aligned_is_zero(self):
        mask = build_shift_mask((8, 8, 8), 4, 0)
        assert mask.shape == (8, 64, 64)
        assert np.all(mask == 0)

    def test_shift_allowed_pair_counts(self):
        # every region of the shifted tiling lands inside exactly one window,
        # so the number of unmasked (token, token) pairs across all windows
        # must equal sum over regions of |region|^2
        for dims, m, s in [((8, 8, 8), 4, 2), ((4, 4, 8), 4, 2),
                           ((8, 8, 8), 4, 1), ((6, 6, 6), 3, 1)]:
            mask = build_shift_mask(dims, m, s)
            allowed = int((mask == 0).sum())
            want = sum(
                np.prod([sl.stop - sl.start for sl in cell]) ** 2
                for cell in region_cells(dims, m, s))
            assert allowed == want, (dims, m, s)

    def test_shift_clean_window_count(self):
        # 8^3 grid, m=4, s=2: per axis the rolled grid has one uncut window
        # and one window split in half, so exactly 1 of 8 windows is clean
        mask = build_shift_mask((8, 8, 8), 4, 2)
        assert mask.shape == (8, 64, 64)
        clean = sum(bool(np.all(w == 0)) for w in mask)
        assert clean == 1

    def test_mask_symmetric_and_two_valued(self):
        for dims in [(8, 8, 8), (6, 7, 9), (4, 4, 12)]:
            mask = build_shift_mask(dims, 4, 2)
            assert set(np.unique(mask)) <= {0.0, np.float32(MASK_NEG)}
            for w in mask:
                np.testing.assert_array_equal(w, w.T)
                assert np.all(np.diag(w) == 0)

    def test_shift_ge_window_rejected(self):
        with pytest.raises(ConfigError):
            build_shift_mask((8, 8, 8), 4, 4)


def region_cells(dims, m, shift):
    """Cells of the shifted-window tiling on the unpadded grid: each axis is
    cut at k*m + shift for k >= 0 (the wrap block [0, shift) stands alone)."""
    axes = []
    for d in dims:
        cuts = [0] + [c for c in range(1, d) if (c - shift) % m == 0] + [d]
        axes.append([(a, b) for a, b in zip(cuts, cuts[1:])])
    cells = []
    for za, zb in axes[0]:
        for ya, yb in axes[1]:
            for xa, xb in axes[2]:
                cells.append((slice(za, zb), slice(ya, yb), slice(xa, xb)))
    return cells


def gather_attention_oracle(model, blk, x, heads, shift):
    """Dense multi-head attention computed independently inside every
    shifted-tiling region, via explicit token gathering (plain numpy)."""
    m = model.cfg.window
    c = x.shape[3]
    dh = c // heads
    wqkv = model.params[f"{blk}.qkv.w"].data
    bqkv = model.params[f"{blk}.qkv.b"].data
    wp = model.params[f"{blk}.proj.w"].data
    bp = model.params[f"{blk}.proj.b"].data
    out = np.zeros_like(x)
    for cell in region_cells(x.shape[:3], m, shift):
        toks = x[cell].reshape(-1, c)
        qkv = toks @ wqkv + bqkv
        q, k, v = qkv[:, :c], qkv[:, c:2 * c], qkv[:, 2 * c:]
        res = np.zeros_like(toks)
        for h in range(heads):
            sl = slice(h * dh, (h + 1) * dh)
            a = (q[:, sl] @ k[:, sl].T) * dh ** -0.5
            a = a - a.max(axis=-1, keepdims=True)
            e = np.exp(a)
            p = e / e.sum(axis=-1, keepdims=True)
            res[:, sl] = p @ v[:, sl]
        out[cell] = (res @ wp + bp).reshape(out[cell].shape)
    return out


class TestWindowAttention:
    def test_matches_region_gather_oracle(self):
        """Shifted-window attention with additive masks equals dense attention
        gathered per tiling region, to 1e-6 in float64, over 50 random
        dims/heads/shift configurations."""
        rng = np.random.default_rng(0)
        worst = 0.0
        for trial in range(50):
            m = int(rng.choice([2, 3, 4]))
            dims = tuple(int(rng.integers(2, 3 * m + 1)) for _ in range(3))
            heads = int(rng.choice([1, 2, 4]))
            c = heads * int(rng.choice([2, 4]))
            shift = int(rng.integers(0, m)) if trial % 2 else 0
            cfg = ModelConfig(num_classes=1, embed_dim=c, window=m,
                              depths=[1], heads=[heads], use_rel_pos_bias=False)
            model = SwinSegModel(cfg, seed=trial, dtype=np.float64)
            x = rng.normal(size=dims + (c,))
            with ad.no_grad():
                got = model.window_attention(
                    "enc0.blk0", Tensor(x, dtype=np.float64), heads, shift).data
            want = gather_attention_oracle(model, "enc0.blk0", x, heads, shift)
            worst = max(worst, np.abs(got - want).max())
        assert worst <= 1e-6, f"worst abs deviation {worst:.3g}"

    def test_window_permutation_equivariance(self, rng):
        # W-MSA treats windows independently: permuting whole windows along
        # an axis permutes the outputs identically
        cfg = small_cfg(use_rel_pos_bias=True)
        model = SwinSegModel(cfg, seed=1, dtype=np.float64)
        m = cfg.window
        x = rng.normal(size=(2 * m, m, m, cfg.embed_dim))
        x2 = np.concatenate([x[m:], x[:m]], axis=0)
        with ad.no_grad():
            y = model.window_attention("enc0.blk0", Tensor(x), 2, 0).data
            y2 = model.window_attention("enc0.blk0", Tensor(x2), 2, 0).data
        np.testing.assert_allclose(y2, np.concatenate([y[m:], y[:m]], axis=0),
                                   atol=1e-12)

    def test_rel_pos_bias_changes_output(self, rng):
        cfg = small_cfg()
        model = SwinSegModel(cfg, seed=0, dtype=np.float64)
        x = Tensor(rng.normal(size=(4, 4, 4, cfg.embed_dim)))
        with ad.no_grad():
            y0 = model.window_attention("enc0.blk0", x, 2, 0).data.copy()
            model.params["enc0.blk0.relpos"].data[:] = rng.normal(
                size=model.params["enc0.blk0.relpos"].shape)
            y1 = model.window_attention("enc0.blk0", x, 2, 0).data
        assert np.abs(y1 - y0).max() > 1e-6


class TestBlocksAndStages:
    def test_zero_projections_make_block_identity(self, rng):
        cfg = small_cfg()
        model = SwinSegModel(cfg, seed=0, dtype=np.float64)
        for name in ["enc0.blk0.proj.w", "enc0.blk0.proj.b",
                     "enc0.blk0.mlp2.w", "enc0.blk0.mlp2.b"]:
            model.params[name].data[:] = 0.0
        x = rng.normal(size=(4, 4, 4, cfg.embed_dim))
        with ad.no_grad():
            y = model.swin_block(Tensor(x), 0, 0).data
        np.testing.assert_allclose(y, x, atol=1e-12)

    def test_patch_merging_shapes(self, rng):
        cfg = small_cfg()
        model = SwinSegModel(cfg, seed=0)
        x = Tensor(rng.normal(size=(4, 6, 8, cfg.embed_dim)).astype(np.float32))
        with ad.no_grad():
            y = model.patch_merging(x, 0)
        assert y.shape == (2, 3, 4, 2 * cfg.embed_dim)

    def test_patch_merging_concat_order(self):
        # identity-ish probe: with LN gamma=1 beta=0 and lin = identity slice,
        # checking only shape/grouping via a constant volume
        cfg = small_cfg()
        model = SwinSegModel(cfg, seed=0, dtype=np.float64)
        x = Tensor(np.full((2, 2, 2, cfg.embed_dim), 3.0))
        with ad.no_grad():
            y = model.patch_merging(x, 0)
        # constant input -> LN output is beta (zero) -> linear output is bias
        np.testing.assert_allclose(
            y.data, np.broadcast_to(model.params["merge0.lin.b"].data, y.shape),
            atol=1e-12)

    def test_resblock_zero_weights_identity(self, rng):
        cfg = small_cfg()
        model = SwinSegModel(cfg, seed=0, dtype=np.float64)
        for suffix in ["conv1.w", "conv1.b", "in2.b", "conv2.w", "conv2.b"]:
            model.params[f"dec.bottleneck.{suffix}"].data[:] = 0.0
        x = rng.normal(size=(cfg.embed_dim * 4, 3, 3, 3))
        with ad.no_grad():
            y = model._resblock("dec.bottleneck", Tensor(x)).data
        np.testing.assert_allclose(y, x, atol=1e-12)

    def test_encoder_pyramid_shapes(self):
        cfg = small_cfg()
        model = SwinSegModel(cfg, seed=0)
        x = Tensor(np.zeros((1, 32, 32, 32), dtype=np.float32))
        with ad.no_grad():
            feats = model.encoder_forward(x)
        shapes = [f.shape for f in feats]
        c = cfg.embed_dim
        assert shapes == [(1, 32, 32, 32), (c, 16, 16, 16),
                          (2 * c, 8, 8, 8), (4 * c, 4, 4, 4)]

    def test_input_too_small(self):
        cfg = small_cfg()
        model = SwinSegModel(cfg, seed=0)
        with pytest.raises(ConfigError, match="downsampling"):
            model.encoder_forward(Tensor(np.zeros((1, 4, 32, 32), dtype=np.float32)))

    def test_forward_output_shape_and_range(self, rng):
        cfg = small_cfg()
        model = SwinSegModel(cfg, seed=0)
        x = Tensor(rng.normal(size=(1, 16, 16, 16)).astype(np.float32))
        with ad.no_grad():
            logits, probs = model.forward(x)
        assert logits.shape == (cfg.num_classes + 1, 16, 16, 16)
        assert probs.data.min() >= 0 and probs.data.max() <= 1


def embed_oracle(x, w, b):
    """The strided-conv formula written out: token (i, j, k) is the einsum of
    w with the zero-padded p^3 input block at (i, j, k), plus the bias."""
    c, _, p = w.shape[:3]
    xp = np.pad(x, [(0, 0)] + [(0, (-n) % p) for n in x.shape[1:]])
    dims = tuple(n // p for n in xp.shape[1:])
    out = np.zeros(dims + (c,))
    for i, j, k in np.ndindex(*dims):
        blk = xp[:, i * p:(i + 1) * p, j * p:(j + 1) * p, k * p:(k + 1) * p]
        out[i, j, k] = np.einsum("oiabc,iabc->o", w, blk) + b
    return out


def upsample_oracle(x, w, b):
    """The transposed-conv formula written out: every input voxel scatters
    w, weighted by its features, into its k^3 output block."""
    cout, _, k = w.shape[:3]
    _, d, h, wd = x.shape
    out = np.zeros((cout, k * d, k * h, k * wd)) + b[:, None, None, None]
    for i, j, l in np.ndindex(d, h, wd):
        out[:, i * k:(i + 1) * k, j * k:(j + 1) * k, l * k:(l + 1) * k] += \
            np.einsum("oiabc,i->oabc", w, x[:, i, j, l])
    return out


class TestPatchEmbed:
    def test_halves_extent(self):
        w = t64(np.zeros((2, 1, 2, 2, 2)), rg=False)
        b = t64(np.zeros(2), rg=False)
        assert patch_embed(t64(np.zeros((1, 4, 4, 4)), rg=False), w, b).shape == (2, 2, 2, 2)
        # non-multiple extents are zero-padded up
        assert patch_embed(t64(np.zeros((1, 5, 4, 3)), rg=False), w, b).shape == (3, 2, 2, 2)

    def test_matches_strided_conv_oracle(self, rng):
        for p in (2, 3):
            x = rng.normal(size=(2, 5, 6, 3))
            w = rng.normal(size=(3, 2, p, p, p))
            b = rng.normal(size=3)
            got = patch_embed(t64(x, rg=False), t64(w, rg=False), t64(b, rg=False)).data
            assert np.abs(got - embed_oracle(x, w, b)).max() <= 1e-12

    def test_channel_mismatch(self):
        w = t64(np.zeros((2, 2, 2, 2, 2)), rg=False)
        with pytest.raises(ShapeError):
            patch_embed(t64(np.zeros((3, 4, 4, 4)), rg=False), w, t64(np.zeros(2), rg=False))

    def test_grad(self, rng):
        x = t64(rng.normal(size=(2, 4, 4, 3)))
        w = t64(rng.normal(size=(3, 2, 2, 2, 2)))
        b = t64(rng.normal(size=3))
        grad_check(lambda: ad.reduce_sum(ad.sigmoid(patch_embed(x, w, b))),
                   [x, w, b], samples=20, rng=rng)


class TestUpsample:
    def test_doubles_extent(self, rng):
        x = t64(rng.normal(size=(2, 8, 8, 8)), rg=False)
        w = t64(rng.normal(size=(3, 2, 2, 2, 2)), rg=False)
        assert upsample(x, w, t64(np.zeros(3), rg=False)).shape == (3, 16, 16, 16)

    def test_delta_scatter(self):
        x = np.zeros((1, 2, 2, 2))
        x[0, 0, 0, 0] = 1.0
        w = t64(np.ones((1, 1, 2, 2, 2)), rg=False)
        out = upsample(t64(x, rg=False), w, t64(np.zeros(1), rg=False))
        expect = np.zeros((1, 4, 4, 4))
        expect[0, :2, :2, :2] = 1.0
        np.testing.assert_array_equal(out.data, expect)

    def test_matches_transposed_conv_oracle(self, rng):
        for k in (2, 3):
            x = rng.normal(size=(2, 3, 4, 2))
            w = rng.normal(size=(3, 2, k, k, k))
            b = rng.normal(size=3)
            got = upsample(t64(x, rg=False), t64(w, rg=False), t64(b, rg=False)).data
            assert np.abs(got - upsample_oracle(x, w, b)).max() <= 1e-12

    def test_channel_mismatch(self):
        x = t64(np.zeros((2, 4, 4, 4)), rg=False)
        w = t64(np.zeros((1, 3, 2, 2, 2)), rg=False)
        with pytest.raises(ShapeError):
            upsample(x, w, t64(np.zeros(1), rg=False))

    def test_grad(self, rng):
        x = t64(rng.normal(size=(2, 3, 3, 3)))
        w = t64(rng.normal(size=(2, 2, 2, 2, 2)))
        b = t64(rng.normal(size=2))
        grad_check(lambda: ad.reduce_sum(ad.sigmoid(upsample(x, w, b))),
                   [x, w, b], samples=20, rng=rng)


class TestFullModelGradients:
    def test_toy_model_fd_gradcheck(self, rng):
        """Finite-difference check of d(mean sigmoid output)/d(theta) for a
        16^3 toy network, spot-checking every parameter tensor."""
        cfg = ModelConfig(num_classes=2, embed_dim=8, patch_size=2, window=4,
                          depths=[1, 1], heads=[2, 2])
        model = SwinSegModel(cfg, seed=0, dtype=np.float64)
        x = rng.normal(size=(1, 16, 16, 16))

        def loss_value():
            with ad.no_grad():
                _, probs = model.forward(Tensor(x))
            return float(probs.data.mean())

        _, probs = model.forward(Tensor(x))
        loss = ad.reduce_mean(probs)
        ad.backward(loss)

        fd_rng = np.random.default_rng(7)
        worst = 0.0
        for name, p in model.params.items():
            flat = p.data.reshape(-1)
            gflat = p.grad.reshape(-1)
            n_probe = min(3, flat.size)
            for j in fd_rng.choice(flat.size, size=n_probe, replace=False):
                old = flat[j]
                h = 1e-5 * max(1.0, abs(old))
                flat[j] = old + h
                up = loss_value()
                flat[j] = old - h
                dn = loss_value()
                flat[j] = old
                fd = (up - dn) / (2 * h)
                worst = max(worst, rel_err(gflat[j], fd))
        assert worst <= 1e-4, f"worst parameter grad rel err {worst:.3g}"


class TestPredictLabels:
    def test_argmax_and_tie_rule(self):
        probs = np.zeros((3, 1, 1, 3), dtype=np.float32)
        probs[:, 0, 0, 0] = [0.2, 0.9, 0.1]   # clear class 1
        probs[:, 0, 0, 1] = [0.5, 0.5, 0.5]   # three-way tie -> background
        probs[:, 0, 0, 2] = [0.1, 0.7, 0.7]   # tie between 1 and 2 -> 1
        lab = predict_labels(probs, (1, 1, 1), 2)
        np.testing.assert_array_equal(lab.labels[0, 0], [1, 0, 1])
        assert lab.available == frozenset({1, 2})


def _doubled_bias(header):
    t = next(e for e in header["tensors"] if e["name"].endswith(".b"))
    t["shape"] = [2 * n for n in t["shape"]]
    t["nbytes"] *= 2


# checkpoint tensor tables that do not match the model the header's config builds
TABLE_FAULTS = {
    "dtype_u1": lambda h: h["tensors"][0].update(dtype="U1"),   # itemsize 4, as float32
    "missing_tensor": lambda h: h["tensors"].pop(),
    "doubled_bias": _doubled_bias,
    "duplicate_entry": lambda h: h["tensors"].append(dict(h["tensors"][0])),
}


class TestCheckpoint:
    def test_roundtrip_bit_identical(self, tmp_path, rng):
        cfg = small_cfg()
        model = SwinSegModel(cfg, seed=3)
        opt = {"t": 5,
               "m": {k: rng.normal(size=v.shape).astype(np.float32)
                     for k, v in model.params.items()},
               "v": {k: np.abs(rng.normal(size=v.shape)).astype(np.float32)
                     for k, v in model.params.items()}}
        ck = Checkpoint.from_model(model, step=42, opt_state=opt)
        path = tmp_path / "m.mckp"
        save_checkpoint(ck, path)
        back = load_checkpoint(path)
        assert back.step == 42 and back.cfg == cfg
        assert back.opt_state["t"] == 5
        for k, v in ck.params.items():
            assert back.params[k].tobytes() == v.tobytes()
            assert back.opt_state["m"][k].tobytes() == opt["m"][k].tobytes()
            assert back.opt_state["v"][k].tobytes() == opt["v"][k].tobytes()

    def test_roundtrip_identical_inference(self, tmp_path, rng):
        cfg = small_cfg()
        model = SwinSegModel(cfg, seed=1)
        ck = Checkpoint.from_model(model)
        save_checkpoint(ck, tmp_path / "m.mckp")
        model2 = load_checkpoint(tmp_path / "m.mckp").to_model()
        x = Tensor(rng.normal(size=(1, 16, 16, 16)).astype(np.float32))
        with ad.no_grad():
            _, p1 = model.forward(x)
            _, p2 = model2.forward(x)
        assert p1.data.tobytes() == p2.data.tobytes()

    def test_save_is_deterministic(self, tmp_path):
        cfg = small_cfg()
        ck = Checkpoint.from_model(SwinSegModel(cfg, seed=9), step=1)
        save_checkpoint(ck, tmp_path / "a.mckp")
        save_checkpoint(ck, tmp_path / "b.mckp")
        assert (tmp_path / "a.mckp").read_bytes() == (tmp_path / "b.mckp").read_bytes()

    @pytest.mark.parametrize("fault", ["too_short", "bad_magic", "header_past_end",
                                       "header_not_json", "tensor_past_payload",
                                       "nbytes_mismatch", *TABLE_FAULTS])
    def test_malformed_raises_format_error(self, tmp_path, fault):
        path = tmp_path / "m.mckp"
        save_checkpoint(Checkpoint.from_model(SwinSegModel(small_cfg(), seed=2)), path)
        blob = path.read_bytes()
        (hlen,) = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12:12 + hlen])
        if fault == "too_short":
            blob = blob[:10]
        elif fault == "bad_magic":
            blob = b"X" + blob[1:]
        elif fault == "header_past_end":
            blob = blob[:8] + struct.pack("<I", len(blob)) + blob[12:]
        elif fault == "header_not_json":
            blob = blob[:12] + b"\xff" + blob[13:]
        elif fault == "tensor_past_payload":
            blob = blob[:-1001]
        else:
            if fault in TABLE_FAULTS:
                TABLE_FAULTS[fault](header)
            else:
                header["tensors"][0]["nbytes"] -= 4
            hj = json.dumps(header).encode()
            blob = blob[:8] + struct.pack("<I", len(hj)) + hj + blob[12 + hlen:]
        path.write_bytes(blob)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_init_is_seed_deterministic(self):
        cfg = small_cfg()
        a = SwinSegModel(cfg, seed=4)
        b = SwinSegModel(cfg, seed=4)
        for k in a.params:
            assert a.params[k].data.tobytes() == b.params[k].data.tobytes()
