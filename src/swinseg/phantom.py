"""Synthetic CT-like phantoms: Gaussian background, non-overlapping
ellipsoid "organs" with class-specific intensities, and a small "tumor"
sphere inside organ 1. Ground truth is analytic, so the whole pipeline is
testable without clinical data."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .volio import CaseEntry, DatasetManifest, LabelMap, Volume, save_manifest, write_mvol


class GenerationError(RuntimeError):
    pass


@dataclass
class PhantomConfig:
    dims: tuple[int, int, int] = (64, 64, 64)
    spacing_mm: tuple[float, float, float] = (1.0, 1.0, 1.0)
    num_classes: int = 5
    class_means: list[float] | None = None     # length num_classes; defaults spread
    class_stds: list[float] | None = None
    background_mean: float = 0.0
    background_std: float = 0.05
    noise_std: float = 0.035
    organ_frac: tuple[float, float] = (0.11, 0.18)  # semi-axis range, fraction of dims
    center_frac: float = 0.22      # organ centers stay within dims*(0.5 +- this)
    tumor_frac: float = 0.55       # tumor radius as a fraction of organ 1's min semi-axis
    min_separation: int = 2                    # voxel gap enforced between organs
    max_retries: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if self.class_means is None:
            self.class_means = [0.2 + 0.8 * i / max(1, self.num_classes - 1)
                                for i in range(self.num_classes)]
        if self.class_stds is None:
            self.class_stds = [self.noise_std] * self.num_classes
        if len(self.class_means) != self.num_classes:
            raise ValueError("class_means length must equal num_classes")
        means = [self.background_mean] + list(self.class_means)
        gap = 2.0 * self.noise_std
        for i in range(len(means)):
            for j in range(i + 1, len(means)):
                if abs(means[i] - means[j]) < gap:
                    raise ValueError(
                        f"intensity means {means[i]} and {means[j]} closer than 2*noise_std={gap}")


def _ellipsoid_box(dims, center, semi):
    """Rasterise an ellipsoid over its integer bounding box clipped to dims.

    Returns (slices, mask): ``mask`` is the ellipsoid inside ``volume[slices]``.
    A voxel outside the box lies at least one voxel beyond a semi-axis, so the
    box holds every voxel the full-volume formula would select.
    """
    sl = tuple(slice(*np.clip([math.floor(c - s), math.ceil(c + s) + 1], 0, n))
               for n, c, s in zip(dims, center, semi))
    zz, yy, xx = np.meshgrid(*[np.arange(s.start, s.stop) for s in sl], indexing="ij")
    return sl, (((zz - center[0]) / semi[0]) ** 2 +
                ((yy - center[1]) / semi[1]) ** 2 +
                ((xx - center[2]) / semi[2]) ** 2) <= 1.0


def generate_phantom(cfg: PhantomConfig, rng: np.random.Generator):
    """Returns (Volume, LabelMap) with full availability."""
    dims = tuple(cfg.dims)
    j = cfg.num_classes
    labels = np.zeros(dims, dtype=np.uint8)
    n_organs = j if j == 1 else j - 1
    occupied = np.zeros(dims, dtype=bool)

    organ1 = None
    for organ in range(1, n_organs + 1):
        placed = False
        for attempt in range(cfg.max_retries):
            semi = rng.uniform(*cfg.organ_frac, size=3) * np.asarray(dims)
            lo = semi + 1
            hi = np.asarray(dims) - semi - 1
            if np.any(lo >= hi):
                continue
            # keep centers near the middle so organs co-occur in crops; the
            # box widens with failed attempts so tight volumes stay feasible
            frac = cfg.center_frac + (0.5 - cfg.center_frac) * attempt / cfg.max_retries
            mid = 0.5 * np.asarray(dims)
            spread = frac * np.asarray(dims)
            lo = np.maximum(lo, mid - spread)
            hi = np.minimum(hi, mid + spread)
            if np.any(lo >= hi):
                continue
            center = rng.uniform(lo, hi)
            sl, mask = _ellipsoid_box(dims, center, semi)
            if mask.sum() < 8:
                continue
            gsl, grown = _ellipsoid_box(dims, center, semi + cfg.min_separation)
            if (grown & occupied[gsl]).any():
                continue
            labels[sl][mask] = organ
            occupied[gsl] |= grown
            if organ == 1:
                organ1 = (center, semi)
            placed = True
            break
        if not placed:
            raise GenerationError(
                f"could not place organ {organ} after {cfg.max_retries} tries; "
                "reduce organ count or size")

    if j >= 2:
        # tumor sphere strictly inside organ 1; placed organs never overlap, so
        # organ 1's voxels are exactly those labelled 1
        center, semi = organ1
        r = cfg.tumor_frac * semi.min()
        if r < 1.0:
            raise GenerationError("organ 1 too small to host a tumor sphere")
        tsl, tumor = _ellipsoid_box(dims, center, np.full(3, r))
        if not (labels[tsl][tumor] == 1).all():
            raise GenerationError("tumor sphere escaped organ 1")
        labels[tsl][tumor] = j

    vox = rng.normal(cfg.background_mean, cfg.background_std, size=dims)
    for c in range(1, j + 1):
        m = labels == c
        if m.any():
            vox[m] = rng.normal(cfg.class_means[c - 1], cfg.class_stds[c - 1],
                                size=int(m.sum()))
    vox = vox.astype(np.float32)

    vol = Volume(vox, cfg.spacing_mm)
    lab = LabelMap(labels, cfg.spacing_mm, j, available=frozenset(range(1, j + 1)))
    # learnability: per-class mean intensity separated from background
    for c in range(1, j + 1):
        m = labels == c
        if m.any():
            diff = abs(float(vox[m].mean()) - cfg.background_mean)
            if diff < cfg.noise_std:
                raise GenerationError(f"class {c} intensity not separated from background")
    return vol, lab


def make_partial(lab: LabelMap, keep) -> LabelMap:
    """Drop all classes outside `keep`: their voxels become background and
    availability shrinks to `keep`."""
    keep = frozenset(int(c) for c in keep)
    if not keep:
        raise ValueError("keep must be a nonempty class subset")
    if not keep <= frozenset(range(1, lab.num_classes + 1)):
        raise ValueError(f"keep {sorted(keep)} outside 1..{lab.num_classes}")
    out = lab.labels.copy()
    drop_mask = ~np.isin(out, [0] + sorted(keep))
    out[drop_mask] = 0
    return LabelMap(out, lab.spacing_mm, lab.num_classes, available=keep & lab.available)


def build_dataset(n_labeled: int, n_unlabeled: int, n_val: int,
                  cfg: PhantomConfig, out_dir, partial_prob: float = 0.5) -> DatasetManifest:
    """Generate phantom cases, write MVOL files + manifest.json under out_dir.

    Labeled cases are independently partialized with probability partial_prob
    (a random nonempty proper class subset is kept); val cases stay fully
    labeled; unlabeled cases get no label file.
    """
    if n_labeled + n_val < 1:
        raise ValueError("need at least one labeled or val case")
    os.makedirs(out_dir, exist_ok=True)
    root_rng = np.random.Generator(np.random.PCG64(cfg.seed))
    cases = []
    idx = 0

    def gen_case(split, with_label, partialize):
        nonlocal idx
        case_rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([cfg.seed, idx])))
        vol, lab = generate_phantom(cfg, case_rng)
        cid = f"c{idx:03d}"
        img_name = f"{cid}_img.mvol"
        write_mvol(vol, os.path.join(out_dir, img_name))
        label_name = None
        if with_label:
            if partialize and cfg.num_classes >= 2 and root_rng.random() < partial_prob:
                all_classes = list(range(1, cfg.num_classes + 1))
                n_keep = int(root_rng.integers(1, cfg.num_classes))
                keep = root_rng.choice(all_classes, size=n_keep, replace=False)
                lab = make_partial(lab, keep.tolist())
            label_name = f"{cid}_lab.mvol"
            write_mvol(lab, os.path.join(out_dir, label_name))
        cases.append(CaseEntry(cid, img_name, label_name, split))
        idx += 1

    for _ in range(n_labeled):
        gen_case("labeled", True, True)
    for _ in range(n_unlabeled):
        gen_case("unlabeled", False, False)
    for _ in range(n_val):
        gen_case("val", True, False)

    manifest = DatasetManifest(cases, root=str(out_dir))
    save_manifest(manifest, os.path.join(out_dir, "manifest.json"))
    return manifest
