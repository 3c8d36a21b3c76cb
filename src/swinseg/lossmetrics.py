"""Soft Dice loss with partial-label class masking, plus evaluation
metrics: Dice similarity coefficient and normalized surface Dice."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from . import autodiff as ad
from .volio import LabelMap, ValidationError

DICE_EPS = 1e-5


@dataclass
class OneHotTarget:
    """One-hot ground truth (J+1, D, H, W) with a class-availability mask."""
    onehot: np.ndarray
    available: frozenset[int]
    num_classes: int

    @classmethod
    def from_labelmap(cls, labels: LabelMap) -> "OneHotTarget":
        j = labels.num_classes
        oh = np.zeros((j + 1,) + labels.dims, dtype=np.float32)
        for c in range(j + 1):
            oh[c] = labels.labels == c
        return cls(oh, labels.available, j)


def soft_dice_loss(probs: ad.Tensor, target: OneHotTarget,
                   include_background: bool = False) -> ad.Tensor:
    """Voxel-wise soft Dice loss over the available classes.

    L = 1 - (2/J_eff) * sum_j  sum_i(G_ij Y_ij) / (sum_i G_ij^2 + sum_i Y_ij^2 + eps)
    where j ranges over available classes (optionally plus background).
    Unavailable classes contribute nothing, to the sum or to J_eff, so their
    gradients are identically zero.
    """
    j = target.num_classes
    if probs.shape != target.onehot.shape:
        raise ad.ShapeError(
            f"soft_dice_loss: probs {probs.shape} vs target {target.onehot.shape}")
    if probs.data.min() < -1e-6 or probs.data.max() > 1 + 1e-6:
        raise ValueError("soft_dice_loss: probs outside [0,1]")
    classes = sorted(target.available)
    if include_background:
        classes = [0] + classes
    if not classes:
        raise ValueError("soft_dice_loss: no available classes")

    total = None
    for c in classes:
        y = probs[c]
        g = target.onehot[c]
        num = ad.reduce_sum(y * ad.Tensor(g, dtype=y.dtype))
        den = ad.reduce_sum(y * y) + float((g * g).sum()) + DICE_EPS
        term = ad.div(num, den)
        total = term if total is None else total + term
    return 1.0 + total * (-2.0 / len(classes))


def dsc(pred: LabelMap, ref: LabelMap, cls: int) -> float:
    """Dice coefficient 2|P&R| / (|P|+|R|); both empty -> 1, one empty -> 0."""
    if pred.dims != ref.dims:
        raise ValidationError(f"dsc: dims mismatch {pred.dims} vs {ref.dims}")
    p = pred.labels == cls
    r = ref.labels == cls
    np_, nr = int(p.sum()), int(r.sum())
    if np_ == 0 and nr == 0:
        return 1.0
    if np_ == 0 or nr == 0:
        return 0.0
    return 2.0 * int((p & r).sum()) / (np_ + nr)


def extract_surface(mask: np.ndarray) -> np.ndarray:
    """Boundary voxels: in mask with a 6-neighbor outside mask or on the
    volume border. Returns an (N,3) int array of voxel indices."""
    mask = np.asarray(mask).astype(bool)
    interior = np.ones_like(mask)
    for ax in range(3):
        lo = np.roll(mask, 1, axis=ax)
        hi = np.roll(mask, -1, axis=ax)
        # rolled-in wrap values mark border voxels as non-interior
        lo_idx = [slice(None)] * 3
        lo_idx[ax] = 0
        hi_idx = [slice(None)] * 3
        hi_idx[ax] = -1
        lo[tuple(lo_idx)] = False
        hi[tuple(hi_idx)] = False
        interior &= lo & hi
    return np.argwhere(mask & ~interior)


def nsd(pred: LabelMap, ref: LabelMap, cls: int, tau_mm: float = 1.0) -> float:
    """Normalized surface Dice at tolerance tau (mm): fraction of boundary
    voxels of each surface lying within tau of the other surface."""
    if pred.dims != ref.dims:
        raise ValidationError(f"nsd: dims mismatch {pred.dims} vs {ref.dims}")
    if pred.spacing_mm != ref.spacing_mm:
        raise ValidationError(f"nsd: spacing mismatch {pred.spacing_mm} vs {ref.spacing_mm}")
    if tau_mm <= 0:
        raise ValueError(f"nsd: tau must be positive, got {tau_mm}")
    sp = np.asarray(pred.spacing_mm, dtype=np.float64)
    surf_p = extract_surface(pred.labels == cls) * sp
    surf_r = extract_surface(ref.labels == cls) * sp
    if len(surf_p) == 0 and len(surf_r) == 0:
        return 1.0
    if len(surf_p) == 0 or len(surf_r) == 0:
        return 0.0
    d_pr = cKDTree(surf_r).query(surf_p)[0]
    d_rp = cKDTree(surf_p).query(surf_r)[0]
    hits = int((d_pr <= tau_mm).sum()) + int((d_rp <= tau_mm).sum())
    return hits / (len(surf_p) + len(surf_r))


@dataclass
class SegReport:
    case_id: str
    per_class: dict[int, dict[str, float]] = field(default_factory=dict)
    tau_mm: float = 1.0

    @property
    def mean_dsc(self) -> float:
        vals = [v["dsc"] for v in self.per_class.values()]
        return float(np.mean(vals)) if vals else float("nan")

    @property
    def mean_nsd(self) -> float:
        vals = [v["nsd"] for v in self.per_class.values()]
        return float(np.mean(vals)) if vals else float("nan")

    def to_dict(self) -> dict:
        return {
            "case": self.case_id,
            "per_class": [
                {"class": c, "dsc": v["dsc"], "nsd": v["nsd"]}
                for c, v in sorted(self.per_class.items())
            ],
            "mean_dsc": self.mean_dsc,
            "mean_nsd": self.mean_nsd,
            "tau_mm": self.tau_mm,
        }


def evaluate_pair(pred: LabelMap, ref: LabelMap, case_id: str = "",
                  tau_mm: float = 1.0, classes=None) -> SegReport:
    """DSC/NSD for every evaluated foreground class of a prediction/reference pair."""
    if classes is None:
        classes = sorted(ref.available) if ref.available else list(range(1, ref.num_classes + 1))
    if not classes:
        raise ValidationError(f"evaluate_pair: {case_id or 'reference'} has no class to evaluate")
    report = SegReport(case_id, tau_mm=tau_mm)
    for c in classes:
        report.per_class[int(c)] = {
            "dsc": dsc(pred, ref, c),
            "nsd": nsd(pred, ref, c, tau_mm),
        }
    return report
