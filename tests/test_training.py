import json

import numpy as np
import pytest
from scipy.ndimage import map_coordinates

from swinseg import autodiff as ad
from swinseg.autodiff import Tensor
from swinseg.lossmetrics import OneHotTarget, soft_dice_loss
from swinseg.model import Checkpoint, ConfigError, ModelConfig, SwinSegModel
from swinseg.phantom import PhantomConfig, build_dataset, generate_phantom
from swinseg.training import (
    OptimizerState, TrainConfig, TrainingError, _rot_matrix, adamw_step,
    augment, class_voxels, finetune_mixed, generate_pseudo_labels, run_training,
    sample_patch, sliding_window_infer, train, warp_patch,
)
from swinseg.volio import LabelMap, Volume, load_manifest, read_mvol


def reference_warp(vol, lab, angles_rad, translation):
    """The whole volume under the rigid transform, every voxel warped: image
    trilinear, labels nearest, out-of-field voxels zero/background. The oracle
    for warp_patch, which builds only one window of it."""
    dims = np.asarray(vol.dims)
    r = _rot_matrix(angles_rad)
    c = (dims - 1) / 2.0
    t = np.asarray(translation, dtype=np.float64)
    grid = np.stack(np.meshgrid(*[np.arange(n) for n in dims], indexing="ij"))
    pts = grid.reshape(3, -1).astype(np.float64)
    src = (r.T @ (pts - (c + t)[:, None]) + c[:, None]).reshape(3, *dims)
    out_v = map_coordinates(vol.voxels.astype(np.float64), src, order=1,
                            mode="constant", cval=0.0).astype(np.float32)
    idx = np.rint(src).astype(np.int64)
    inside = np.all((idx >= 0) & (idx < dims[:, None, None, None]), axis=0)
    idxc = np.clip(idx, 0, (dims - 1)[:, None, None, None])
    out_l = np.where(inside, lab.labels[idxc[0], idxc[1], idxc[2]], 0).astype(np.uint8)
    return out_v, out_l


def reference_crop(vol, lab, patch, pos_prob, rng):
    """Zero-pad to the patch, then crop a patch^3 window about a class-balanced
    foreground centre (probability pos_prob) or a uniform one: the unwarped
    sampler, with the same draws as sample_patch."""
    pads = [(0, max(0, patch - n)) for n in vol.dims]
    vox, labels = np.pad(vol.voxels, pads), np.pad(lab.labels, pads)
    center = None
    if pos_prob > 0 and rng.random() < pos_prob:
        fg = class_voxels(labels)
        if fg:
            vlist = fg[sorted(fg)[rng.integers(len(fg))]]
            center = vlist[rng.integers(len(vlist))]
    if center is None:
        center = np.array([rng.integers(n) for n in vox.shape])
    lo = np.clip(center - patch // 2, 0, np.asarray(vox.shape) - patch)
    sl = tuple(slice(int(a), int(a) + patch) for a in lo)
    return vox[sl], labels[sl]


def toy_cfg():
    return ModelConfig(num_classes=3, embed_dim=8, patch_size=2, window=4,
                       depths=[1, 1], heads=[2, 2])


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    cfg = PhantomConfig(dims=(32, 32, 32), num_classes=3, seed=21)
    man = build_dataset(2, 1, 1, cfg, out, partial_prob=0.5)
    return man


class TestTrainConfig:
    def test_from_dict_roundtrip(self):
        cfg = TrainConfig(steps=7, betas=(0.8, 0.9))
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_keys_named(self):
        with pytest.raises(ConfigError, match="stepz"):
            TrainConfig.from_dict({"steps": 3, "stepz": 3})

    @pytest.mark.parametrize("field,value", [
        ("steps", -3), ("steps", 2.0), ("warmup_steps", -1), ("checkpoint_every", -1),
        ("trans_vox", 2.5), ("trans_vox", -1), ("seed", -1), ("seed", True),
        ("patch_size", 0), ("batch_size", 0), ("batch_size", 1.5),
        ("lr", "x"), ("lr", -1e-3), ("lr", float("nan")),
        pytest.param("lr", 10 ** 400, id="lr-huge_int"), ("weight_decay", "a"),
        ("rot_deg", 1e309), ("rot_deg", -5.0), ("adam_eps", -1.0), ("adam_eps", None),
        ("betas", [0.9]), ("betas", [0.9, 1.0]), ("betas", "ab"), ("betas", 0.9),
        ("betas", [0.9, float("inf")]), ("pos_sample_prob", 1.5), ("overlap", "0.5"),
        ("lr_decay", "linear"), ("augment", 1),
    ])
    def test_bad_value_names_field(self, field, value):
        with pytest.raises(ConfigError, match=f"TrainConfig.{field} "):
            TrainConfig.from_dict({field: value})

    def test_valid_edges_accepted(self):
        cfg = TrainConfig.from_dict({"steps": 0, "trans_vox": 0, "rot_deg": 0, "lr": 0,
                                     "betas": [0, 0.5], "patch_size": 1,
                                     "batch_size": 1, "pos_sample_prob": 1})
        assert cfg.betas == (0, 0.5)


class TestAdamW:
    def test_first_step_hand_value(self):
        # single scalar parameter theta=1, grad=1, lr=0.01, wd=0:
        # m_hat = g, v_hat = g^2 -> update = 1/(1+eps) ~ 1, theta' ~ 0.99
        p = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        p.grad = np.array([1.0], dtype=np.float32)
        params = {"p": p}
        state = OptimizerState.for_params(params)
        cfg = TrainConfig(lr=0.01, weight_decay=0.0)
        adamw_step(params, state, cfg)
        assert p.data[0] == pytest.approx(0.99, abs=1e-5)
        assert state.t == 1 and p.grad is None

    def test_decoupled_decay_hand_value(self):
        # grad = 0: only weight decay acts, theta' = theta * (1 - lr*wd)
        p = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        params = {"p": p}
        state = OptimizerState.for_params(params)
        cfg = TrainConfig(lr=0.1, weight_decay=0.05)
        for _ in range(3):
            adamw_step(params, state, cfg)
        assert p.data[0] == pytest.approx(2.0 * (1 - 0.1 * 0.05) ** 3, rel=1e-6)

    def test_first_step_magnitude_is_lr(self):
        # with any nonzero constant gradient the first Adam step is ~lr
        rng = np.random.default_rng(0)
        p = Tensor(rng.normal(size=(5,)).astype(np.float32), requires_grad=True)
        p.grad = rng.normal(size=(5,)).astype(np.float32) * 10
        before = p.data.copy()
        params = {"p": p}
        adamw_step(params, OptimizerState.for_params(params),
                   TrainConfig(lr=0.002, weight_decay=0.0))
        np.testing.assert_allclose(np.abs(p.data - before), 0.002, rtol=1e-3)

    def test_nan_gradient_raises(self):
        p = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        p.grad = np.array([0.0, np.nan, 0.0], dtype=np.float32)
        params = {"theta": p}
        with pytest.raises(TrainingError, match="theta"):
            adamw_step(params, OptimizerState.for_params(params), TrainConfig())

    def test_deterministic(self):
        def one(seed):
            rng = np.random.default_rng(seed)
            p = Tensor(rng.normal(size=(4,)).astype(np.float32), requires_grad=True)
            params = {"p": p}
            st = OptimizerState.for_params(params)
            cfg = TrainConfig(lr=0.01)
            for i in range(5):
                p.grad = (np.arange(4, dtype=np.float32) + i)
                adamw_step(params, st, cfg)
            return p.data.tobytes()
        assert one(3) == one(3)


class TestAugment:
    """warp_patch over a window that covers the whole volume is the
    full-volume warp."""

    def _case(self, rng):
        vox = rng.normal(size=(16, 16, 16)).astype(np.float32)
        lab = np.zeros((16, 16, 16), np.uint8)
        lab[4:9, 5:10, 6:11] = 1
        return (Volume(vox, (1, 1, 1)),
                LabelMap(lab, (1, 1, 1), 1, frozenset({1})))

    def test_identity_transform(self, rng):
        vol, lab = self._case(rng)
        v2, l2 = warp_patch(vol, lab, 16, (0, 0, 0), (0.0, 0.0, 0.0), (0, 0, 0))
        np.testing.assert_array_equal(v2.voxels, vol.voxels)
        np.testing.assert_array_equal(l2.labels, lab.labels)

    def test_pure_translation(self, rng):
        vol, lab = self._case(rng)
        v2, l2 = warp_patch(vol, lab, 16, (0, 0, 0), (0.0, 0.0, 0.0), (2, 0, 0))
        # content moves +2 along the first axis; the interior matches exactly
        np.testing.assert_allclose(v2.voxels[2:], vol.voxels[:-2], atol=1e-5)
        np.testing.assert_array_equal(l2.labels[2:], lab.labels[:-2])
        assert np.all(l2.labels[:2] == 0)

    def test_quarter_turn_preserves_volume(self, rng):
        vol, lab = self._case(rng)
        _, l2 = warp_patch(vol, lab, 16, (0, 0, 0), (np.pi / 2, 0.0, 0.0), (0, 0, 0))
        # rigid rotation with nearest labels keeps the voxel count close
        n0, n1 = (lab.labels == 1).sum(), (l2.labels == 1).sum()
        assert abs(int(n0) - int(n1)) <= 0.1 * n0

    def test_augment_zero_ranges_identity(self, rng):
        # zero ranges draw the identity transform: the plain crop, same draws
        vol, lab = self._case(rng)
        for seed in range(10):
            draws, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            rigid = augment(draws, rot_deg=0, trans_vox=0)
            augment(ref, rot_deg=0, trans_vox=0)
            v2, l2 = sample_patch(vol, lab, 8, 0.5, draws, rigid=rigid)
            rv, rl = reference_crop(vol, lab, 8, 0.5, ref)
            np.testing.assert_array_equal(v2.voxels, rv)
            np.testing.assert_array_equal(l2.labels, rl)

    def test_augment_label_values_preserved(self, rng):
        vol, lab = self._case(rng)
        draws = np.random.default_rng(1)
        _, l2 = sample_patch(vol, lab, 16, 0.5, draws, rigid=augment(draws))
        assert set(np.unique(l2.labels).tolist()) <= {0, 1}
        assert l2.available == lab.available


class TestSamplePatch:
    def test_exact_size_and_containment(self, rng):
        vol = Volume(rng.normal(size=(20, 24, 28)).astype(np.float32), (1, 1, 1))
        for _ in range(20):
            pv, _ = sample_patch(vol, None, 8, 0.0, rng)
            assert pv.dims == (8, 8, 8)

    def test_small_volume_zero_padded(self, rng):
        vol = Volume(rng.normal(size=(4, 4, 4)).astype(np.float32), (1, 1, 1))
        pv, _ = sample_patch(vol, None, 8, 0.0, rng)
        assert pv.dims == (8, 8, 8)
        np.testing.assert_array_equal(pv.voxels[:4, :4, :4], vol.voxels)
        assert np.all(pv.voxels[4:] == 0)

    def test_positive_bias(self, rng):
        # single foreground voxel: with pos_prob=1 every patch contains it
        vox = np.zeros((32, 32, 32), np.float32)
        lab = np.zeros((32, 32, 32), np.uint8)
        lab[20, 7, 25] = 1
        vol = Volume(vox, (1, 1, 1))
        lm = LabelMap(lab, (1, 1, 1), 1, frozenset({1}))
        for _ in range(10):
            _, pl = sample_patch(vol, lm, 8, 1.0, rng)
            assert pl.labels.sum() == 1

    def test_pos_prob_zero_is_uniform(self):
        # statistical check: foreground hit rate stays near the
        # unbiased expectation when pos_prob == 0
        rng = np.random.default_rng(5)
        vox = np.zeros((32, 32, 32), np.float32)
        lab = np.zeros((32, 32, 32), np.uint8)
        lab[:16] = 1
        vol = Volume(vox, (1, 1, 1))
        lm = LabelMap(lab, (1, 1, 1), 1, frozenset({1}))
        hits = sum(sample_patch(vol, lm, 8, 0.0, rng)[1].labels.any()
                   for _ in range(300))
        assert 0.4 < hits / 300 < 0.8


def _box_case(dims, boxes):
    """Random image; label k inside the k-th (z, y, x) slice box."""
    vox = np.random.default_rng(sum(dims)).normal(size=dims).astype(np.float32)
    labels = np.zeros(dims, np.uint8)
    for k, box in enumerate(boxes, 1):
        labels[box] = k
    return (Volume(vox, (1, 1, 1)),
            LabelMap(labels, (1, 1, 1), len(boxes), frozenset(range(1, len(boxes) + 1))))


@pytest.fixture(scope="module")
def phantom64():
    cfg = PhantomConfig(dims=(64, 64, 64), num_classes=3, seed=4)
    return generate_phantom(cfg, np.random.default_rng(4))


class TestPatchWarp:
    """Oracles for the patch-only warp: the plain crop at zero transform, the
    same window of the full-volume warp at any other."""

    @pytest.mark.parametrize("dims", [(64, 64, 64), (40, 24, 36)])
    def test_zero_transform_is_plain_crop(self, dims):
        vol, lab = _box_case(dims, [np.s_[5:12, 3:9, 10:20], np.s_[20:30, 15:22, 2:6]])
        for seed in range(20):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            pv, pl = sample_patch(vol, lab, 32, 0.5, a, rigid=((0.0, 0.0, 0.0), (0, 0, 0)))
            rv, rl = reference_crop(vol, lab, 32, 0.5, b)
            np.testing.assert_array_equal(pv.voxels, rv)
            np.testing.assert_array_equal(pl.labels, rl)
            assert a.random() == b.random()   # the same number of draws

    def test_random_transform_matches_full_warp(self, phantom64):
        vol, lab = phantom64
        rng = np.random.default_rng(12)
        for rot_deg in (15.0, 15.0, 15.0, 40.0, 40.0):
            angles, trans = augment(rng, rot_deg, 4)
            ref_v, ref_l = reference_warp(vol, lab, angles, trans)
            lo = rng.integers(0, 64 - 32 + 1, size=3)
            pv, pl = warp_patch(vol, lab, 32, lo, angles, trans)
            sl = tuple(slice(a, a + 32) for a in lo)
            assert np.abs(pv.voxels - ref_v[sl]).max() <= 1e-6
            np.testing.assert_array_equal(pl.labels, ref_l[sl])

    def test_volume_smaller_than_patch_matches_warp_then_pad(self):
        dims = (40, 24, 36)
        vol, lab = _box_case(dims, [np.s_[5:30, 3:20, 10:30], np.s_[30:38, 15:22, 2:6]])
        pads = [(0, max(0, 32 - n)) for n in dims]
        rng = np.random.default_rng(13)
        for _ in range(6):
            angles, trans = augment(rng, 15.0, 4)
            ref_v, ref_l = (np.pad(x, pads) for x in reference_warp(vol, lab, angles, trans))
            lo = [rng.integers(0, max(n, 32) - 32 + 1) for n in dims]
            pv, pl = warp_patch(vol, lab, 32, lo, angles, trans)
            sl = tuple(slice(a, a + 32) for a in lo)
            assert np.abs(pv.voxels - ref_v[sl]).max() <= 1e-6
            np.testing.assert_array_equal(pl.labels, ref_l[sl])
            assert not pl.labels[:, 24:].any() and not pv.voxels[:, 24:].any()

    def test_positive_patches_hold_foreground(self):
        # a 3^3 blob off the rotation centre; its mapped centre never needs
        # clipping, so the warped blob sits about the middle of the patch
        vol, lab = _box_case((64, 64, 64), [np.s_[36:39, 25:28, 35:38]])
        fg = class_voxels(lab.labels)
        for seed in range(30):
            rng = np.random.default_rng(seed)
            rigid = augment(rng, 15.0, 4)
            _, pl = sample_patch(vol, lab, 32, 1.0, rng, fg_voxels=fg, rigid=rigid)
            assert pl.labels.any(), seed
            assert np.abs(np.argwhere(pl.labels).mean(axis=0) - 16).max() <= 2.5, seed


class TestTrainLoop:
    def test_loss_decreases_and_logs(self, dataset):
        losses = []
        cfg = TrainConfig(patch_size=16, batch_size=1, lr=2e-3, steps=30,
                          augment=False, seed=1)
        ck = train(dataset, toy_cfg(), cfg, log_fn=lambda r: losses.append(r))
        assert len(losses) == 30
        assert all({"step", "loss", "lr", "seconds"} <= set(r) for r in losses)
        assert np.mean([r["loss"] for r in losses[-10:]]) \
            < np.mean([r["loss"] for r in losses[:10]])
        assert ck.step == 30 and ck.opt_state["t"] == 30

    def test_deterministic_across_runs(self, dataset):
        cfg = TrainConfig(patch_size=16, batch_size=1, lr=1e-3, steps=5, seed=7)
        a = train(dataset, toy_cfg(), cfg)
        b = train(dataset, toy_cfg(), cfg)
        for k in a.params:
            assert a.params[k].tobytes() == b.params[k].tobytes()

    @staticmethod
    def _assert_resume_exact(dataset, augment):
        kw = dict(patch_size=16, batch_size=1, lr=1e-3, seed=7, augment=augment)
        full = train(dataset, toy_cfg(), TrainConfig(steps=10, **kw))
        half = train(dataset, toy_cfg(), TrainConfig(steps=5, **kw))
        resumed = train(dataset, toy_cfg(), TrainConfig(steps=10, **kw),
                        init=half, resume=True)
        for k in full.params:
            assert resumed.params[k].tobytes() == full.params[k].tobytes(), k

    def test_resume_matches_straight_run(self, dataset):
        self._assert_resume_exact(dataset, augment=False)

    def test_resume_matches_straight_run_augmented(self, dataset):
        self._assert_resume_exact(dataset, augment=True)

    def test_masked_class_params_only_decay(self, dataset, tmp_path):
        # a label map with class 3 unavailable: the head row for class 3
        # receives zero gradient, so after one step it changes only by the
        # weight-decay factor
        model_cfg = toy_cfg()
        model = SwinSegModel(model_cfg, seed=0)
        vol = Volume(np.random.default_rng(0).normal(size=(16, 16, 16))
                     .astype(np.float32), (1, 1, 1))
        lab = np.zeros((16, 16, 16), np.uint8)
        lab[2:8] = 1
        target = OneHotTarget.from_labelmap(
            LabelMap(lab, (1, 1, 1), 3, frozenset({1})))
        _, probs = model.forward(Tensor(vol.voxels[None], dtype=model.dtype))
        loss = soft_dice_loss(probs, target)
        ad.backward(loss)
        head_w = model.params["head.w"]
        assert np.all(head_w.grad[0] == 0)      # background channel
        assert np.all(head_w.grad[2] == 0)      # class 2 masked
        assert np.all(head_w.grad[3] == 0)      # class 3 masked
        assert np.any(head_w.grad[1] != 0)

        before = head_w.data.copy()
        tc = TrainConfig(lr=0.01, weight_decay=0.05)
        adamw_step(model.params, OptimizerState.for_params(model.params), tc)
        np.testing.assert_allclose(head_w.data[3],
                                   before[3] * (1 - tc.lr * tc.weight_decay),
                                   rtol=1e-5)

    def test_checkpoint_files_written(self, dataset, tmp_path):
        cfg = TrainConfig(patch_size=16, batch_size=1, lr=1e-3, steps=4,
                          seed=0, checkpoint_every=2)
        train(dataset, toy_cfg(), cfg, out_dir=tmp_path)
        names = sorted(p.name for p in (tmp_path / "checkpoints").iterdir())
        assert names == ["final.mckp", "step000002.mckp", "step000004.mckp"]

    def test_unlabeled_split_rejected(self, dataset):
        with pytest.raises(TrainingError):
            run_training(dataset, toy_cfg(), TrainConfig(steps=1),
                         splits=("unlabeled",))


class TestSlidingWindow:
    def test_single_window_equals_direct_forward(self, rng):
        cfg = toy_cfg()
        model = SwinSegModel(cfg, seed=2)
        vol = Volume(rng.normal(size=(16, 16, 16)).astype(np.float32), (1, 1, 1))
        probs = sliding_window_infer(model, vol, 16, 0.5)
        with ad.no_grad():
            _, direct = model.forward(Tensor(vol.voxels[None], dtype=model.dtype))
        np.testing.assert_allclose(probs, direct.data, atol=1e-6)

    def test_constant_model_uniform_average(self, rng):
        # zero head weights force sigmoid(bias) everywhere; averaging over
        # overlapping windows must keep that value exactly
        cfg = toy_cfg()
        model = SwinSegModel(cfg, seed=0)
        model.params["head.w"].data[:] = 0.0
        model.params["head.b"].data[:] = 0.3
        vol = Volume(rng.normal(size=(24, 20, 18)).astype(np.float32), (1, 1, 1))
        probs = sliding_window_infer(model, vol, 16, 0.5)
        expected = 1.0 / (1.0 + np.exp(-0.3))
        np.testing.assert_allclose(probs, expected, atol=1e-6)
        assert probs.shape == (4, 24, 20, 18)

    def test_coverage_with_edge_clamp(self, rng):
        # the last window is clamped to the volume edge, so every voxel is
        # covered at least once even when dims are not stride multiples
        cfg = toy_cfg()
        model = SwinSegModel(cfg, seed=0)
        vol = Volume(rng.normal(size=(21, 16, 27)).astype(np.float32), (1, 1, 1))
        probs = sliding_window_infer(model, vol, 16, 0.25)
        assert probs.shape == (4, 21, 16, 27)
        assert np.all(np.isfinite(probs))

    def test_overlap_validation(self, rng):
        model = SwinSegModel(toy_cfg(), seed=0)
        vol = Volume(np.zeros((16, 16, 16), np.float32), (1, 1, 1))
        with pytest.raises(ValueError):
            sliding_window_infer(model, vol, 16, 1.0)


class TestPseudoLabels:
    def test_generation_and_split_conversion(self, dataset, tmp_path):
        cfg = TrainConfig(patch_size=16, batch_size=1, steps=3, seed=0)
        ck = train(dataset, toy_cfg(), cfg)
        man2 = generate_pseudo_labels(ck, dataset, tmp_path, cfg)
        assert len(man2.split("unlabeled")) == 0
        assert len(man2.split("pseudo")) == 1
        entry = man2.split("pseudo")[0]
        lab = read_mvol(man2.label_path(entry))
        # pseudo labels always claim full availability
        assert lab.available == frozenset({1, 2, 3})
        assert lab.dims == (32, 32, 32)
        # labeled and val entries untouched
        assert len(man2.split("labeled")) == 2
        assert len(man2.split("val")) == 1

    def test_no_unlabeled_is_noop(self, dataset, tmp_path):
        only_labeled = type(dataset)(
            [e for e in dataset.cases if e.split != "unlabeled"],
            root=dataset.root)
        ck = train(dataset, toy_cfg(),
                   TrainConfig(patch_size=16, batch_size=1, steps=1, seed=0))
        out = generate_pseudo_labels(ck, only_labeled, tmp_path, TrainConfig())
        assert out is only_labeled


class TestFinetune:
    def test_mixed_uses_labeled_and_pseudo(self, dataset, tmp_path):
        tcfg = TrainConfig(patch_size=16, batch_size=1, steps=3, seed=0)
        ck = train(dataset, toy_cfg(), tcfg)
        man2 = generate_pseudo_labels(ck, dataset, tmp_path, tcfg)
        ck2 = finetune_mixed(ck, man2, TrainConfig(patch_size=16, batch_size=1,
                                                   steps=2, seed=1))
        assert ck2.step == 2
        changed = any(ck2.params[k].tobytes() != ck.params[k].tobytes()
                      for k in ck.params)
        assert changed

    def test_requires_cases(self, dataset):
        ck = Checkpoint(toy_cfg(), {k: v.data.copy() for k, v in
                                    SwinSegModel(toy_cfg(), seed=0).params.items()})
        empty = type(dataset)([e for e in dataset.cases if e.split == "val"],
                              root=dataset.root)
        with pytest.raises(TrainingError):
            finetune_mixed(ck, empty, TrainConfig(steps=1))
