import numpy as np
import pytest

from swinseg.phantom import (
    PhantomConfig, _ellipsoid_box, build_dataset, generate_phantom, make_partial,
)
from swinseg.volio import load_manifest, read_mvol


class TestConfig:
    def test_default_means_spread(self):
        cfg = PhantomConfig(num_classes=4)
        assert cfg.class_means == pytest.approx([0.2, 0.2 + 0.8 / 3, 0.2 + 1.6 / 3, 1.0])

    def test_separation_validation(self):
        # 13 classes spread the means 0.8/12 apart, under 2*noise_std
        with pytest.raises(ValueError, match="noise_std"):
            PhantomConfig(num_classes=13)
        PhantomConfig(num_classes=12)


class TestGenerate:
    def test_single_class_histogram(self):
        cfg = PhantomConfig(dims=(32, 32, 32), num_classes=1)
        vol, lab = generate_phantom(cfg, np.random.default_rng(0))
        fg = lab.labels == 1
        assert fg.any() and (~fg).any()
        assert abs(vol.voxels[fg].mean() - cfg.class_means[0]) < 3 * cfg.noise_std
        assert abs(vol.voxels[~fg].mean() - cfg.background_mean) < 3 * cfg.noise_std

    def test_all_classes_present_and_disjoint(self):
        cfg = PhantomConfig(dims=(48, 48, 48), num_classes=4)
        _, lab = generate_phantom(cfg, np.random.default_rng(1))
        present = set(np.unique(lab.labels).tolist())
        assert present == {0, 1, 2, 3, 4}
        assert lab.available == frozenset({1, 2, 3, 4})

    def test_organs_separated(self):
        # organs classes 1..J-1 keep at least min_separation empty voxels
        # between each other, so 26-dilating one never touches another
        from scipy.ndimage import binary_dilation
        cfg = PhantomConfig(dims=(48, 48, 48), num_classes=4)
        _, lab = generate_phantom(cfg, np.random.default_rng(2))
        for a in (1, 2, 3):
            grown = binary_dilation(lab.labels == a, iterations=2)
            for b in (1, 2, 3):
                if a != b:
                    assert not (grown & ((lab.labels == b))).any()

    def test_tumor_inside_organ1(self):
        from scipy.ndimage import binary_dilation
        cfg = PhantomConfig(dims=(48, 48, 48), num_classes=4)
        _, lab = generate_phantom(cfg, np.random.default_rng(3))
        tumor = lab.labels == 4
        assert tumor.any()
        # every tumor voxel is surrounded by tumor or organ 1
        shell = binary_dilation(tumor) & ~tumor
        assert np.all(lab.labels[shell] == 1)

    def test_deterministic(self):
        cfg = PhantomConfig(dims=(32, 32, 32), num_classes=3)
        v1, l1 = generate_phantom(cfg, np.random.default_rng(9))
        v2, l2 = generate_phantom(cfg, np.random.default_rng(9))
        assert v1.voxels.tobytes() == v2.voxels.tobytes()
        assert l1.labels.tobytes() == l2.labels.tobytes()

    def test_class_intensities_ordered(self):
        cfg = PhantomConfig(dims=(48, 48, 48), num_classes=4)
        vol, lab = generate_phantom(cfg, np.random.default_rng(4))
        means = [vol.voxels[lab.labels == c].mean() for c in (1, 2, 3, 4)]
        assert all(a < b for a, b in zip(means, means[1:]))


def test_ellipsoid_box_matches_full_volume(rng):
    dims = (20, 17, 13)
    zz, yy, xx = np.meshgrid(*[np.arange(n) for n in dims], indexing="ij")
    for _ in range(200):
        # centres may sit near or past the border, so boxes get clipped
        center = rng.uniform(-3, np.asarray(dims) + 3)
        semi = rng.uniform(0.3, 9.0, size=3)
        full = (((zz - center[0]) / semi[0]) ** 2 + ((yy - center[1]) / semi[1]) ** 2 +
                ((xx - center[2]) / semi[2]) ** 2) <= 1.0
        sl, mask = _ellipsoid_box(dims, center, semi)
        boxed = np.zeros(dims, dtype=bool)
        boxed[sl] = mask
        np.testing.assert_array_equal(boxed, full)


class TestMakePartial:
    def test_drops_classes_to_background(self):
        cfg = PhantomConfig(dims=(32, 32, 32), num_classes=3)
        _, lab = generate_phantom(cfg, np.random.default_rng(5))
        part = make_partial(lab, {2})
        assert part.available == frozenset({2})
        assert set(np.unique(part.labels).tolist()) <= {0, 2}
        np.testing.assert_array_equal(part.labels == 2, lab.labels == 2)

    def test_validation(self):
        cfg = PhantomConfig(dims=(32, 32, 32), num_classes=2)
        _, lab = generate_phantom(cfg, np.random.default_rng(6))
        with pytest.raises(ValueError):
            make_partial(lab, set())
        with pytest.raises(ValueError):
            make_partial(lab, {5})


class TestBuildDataset:
    def test_splits_and_files(self, tmp_path):
        cfg = PhantomConfig(dims=(32, 32, 32), num_classes=3, seed=11)
        man = build_dataset(3, 2, 1, cfg, tmp_path, partial_prob=1.0)
        assert len(man.split("labeled")) == 3
        assert len(man.split("unlabeled")) == 2
        assert len(man.split("val")) == 1
        for e in man.cases:
            img = read_mvol(man.image_path(e))
            assert img.dims == (32, 32, 32)
            if e.split == "unlabeled":
                assert e.label is None
            else:
                lab = read_mvol(man.label_path(e))
                assert lab.dims == (32, 32, 32)
        # val labels always carry full availability
        val = man.split("val")[0]
        assert read_mvol(man.label_path(val)).available == frozenset({1, 2, 3})
        # manifest on disk reloads identically
        again = load_manifest(tmp_path / "manifest.json")
        assert [e.case_id for e in again.cases] == [e.case_id for e in man.cases]

    def test_partial_prob_extremes(self, tmp_path):
        cfg = PhantomConfig(dims=(32, 32, 32), num_classes=3, seed=12)
        man0 = build_dataset(4, 0, 0, cfg, tmp_path / "full", partial_prob=0.0)
        for e in man0.split("labeled"):
            assert read_mvol(man0.label_path(e)).available == frozenset({1, 2, 3})
        man1 = build_dataset(6, 0, 0, cfg, tmp_path / "part", partial_prob=1.0)
        avails = [read_mvol(man1.label_path(e)).available for e in man1.split("labeled")]
        # every partialized case keeps a nonempty proper subset
        assert all(0 < len(a) < 3 for a in avails)

    def test_deterministic_bytes(self, tmp_path):
        cfg = PhantomConfig(dims=(32, 32, 32), num_classes=3, seed=13)
        build_dataset(2, 1, 1, cfg, tmp_path / "a", partial_prob=0.5)
        build_dataset(2, 1, 1, cfg, tmp_path / "b", partial_prob=0.5)
        for f in sorted((tmp_path / "a").iterdir()):
            if f.suffix == ".mvol":
                assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()

    def test_needs_cases(self, tmp_path):
        cfg = PhantomConfig(dims=(32, 32, 32))
        with pytest.raises(ValueError):
            build_dataset(0, 2, 0, cfg, tmp_path)
