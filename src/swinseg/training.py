"""Training protocol: positive-biased patch sampling with rigid
augmentation (each sample warps only its patch^3 window, not the whole
volume), AdamW with decoupled weight decay, soft-Dice training on partial
labels, sliding-window inference, one segmentation routine (``segment``),
and pseudo-label generation for the semi-supervised fine-tuning round."""

from __future__ import annotations

import json
import math
import numbers
import os
import sys
import time
from dataclasses import dataclass, field, asdict

import numpy as np
from scipy.ndimage import map_coordinates

from . import autodiff as ad
from .autodiff import Tensor
from .lossmetrics import OneHotTarget, soft_dice_loss
from .model import (Checkpoint, ConfigError, ModelConfig, SwinSegModel, check_keys,
                    predict_labels, save_checkpoint)
from .postprocess import keep_largest_per_label
from .preprocess import zscore
from .volio import CaseEntry, DatasetManifest, LabelMap, Volume, read_mvol, write_mvol


class TrainingError(RuntimeError):
    pass


def _finite(v, kind=numbers.Real) -> bool:
    """v is a ``kind`` number, not a bool, that a float holds finitely."""
    return isinstance(v, kind) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


@dataclass
class TrainConfig:
    patch_size: int = 32           # paper-scale preset is 96
    batch_size: int = 2
    lr: float = 1e-4
    weight_decay: float = 0.05
    betas: tuple[float, float] = (0.9, 0.999)
    adam_eps: float = 1e-8
    steps: int = 200
    warmup_steps: int = 0          # linear lr ramp over the first N steps
    lr_decay: str = "none"         # "none" or "cosine" (to zero after warmup)
    pos_sample_prob: float = 0.5
    rot_deg: float = 15.0
    trans_vox: int = 4
    augment: bool = True
    normalize: bool = True
    include_background: bool = False
    seed: int = 0
    overlap: float = 0.5           # sliding-window inference
    checkpoint_every: int = 0      # 0 = final only

    def __post_init__(self):
        def bad(name, want):
            return ConfigError(f"TrainConfig.{name} must be {want}, "
                               f"got {getattr(self, name)!r}")

        for name, low in (("steps", 0), ("warmup_steps", 0), ("checkpoint_every", 0),
                          ("trans_vox", 0), ("seed", 0), ("patch_size", 1),
                          ("batch_size", 1)):
            v = getattr(self, name)
            if not (_finite(v, numbers.Integral) and v >= low):
                raise bad(name, f"an integer >= {low}")
        for name in ("lr", "weight_decay", "rot_deg", "adam_eps"):
            v = getattr(self, name)
            if not (_finite(v) and v >= 0.0):
                raise bad(name, "a finite number >= 0")
        if not (_finite(self.pos_sample_prob) and 0.0 <= self.pos_sample_prob <= 1.0):
            raise bad("pos_sample_prob", "a number in [0, 1]")
        if not (_finite(self.overlap) and 0.0 <= self.overlap < 1.0):
            raise bad("overlap", "a number in [0, 1)")
        if not (isinstance(self.betas, (list, tuple)) and len(self.betas) == 2
                and all(_finite(b) and 0.0 <= b < 1.0 for b in self.betas)):
            raise bad("betas", "two numbers in [0, 1)")
        self.betas = tuple(self.betas)
        if self.lr_decay not in ("none", "cosine"):
            raise bad("lr_decay", "'none' or 'cosine'")
        for name in ("augment", "normalize", "include_background"):
            if not isinstance(getattr(self, name), bool):
                raise bad(name, "true or false")

    def lr_at(self, step: int) -> float:
        """Scheduled learning rate for a 1-based step."""
        if self.warmup_steps and step <= self.warmup_steps:
            return self.lr * step / self.warmup_steps
        if self.lr_decay == "cosine":
            span = max(1, self.steps - self.warmup_steps)
            frac = (step - self.warmup_steps) / span
            return self.lr * 0.5 * (1.0 + math.cos(math.pi * min(1.0, frac)))
        return self.lr

    def to_dict(self):
        d = asdict(self)
        d["betas"] = list(self.betas)
        return d

    @classmethod
    def from_dict(cls, d):
        return cls(**check_keys(cls, d))


@dataclass
class OptimizerState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0

    @classmethod
    def for_params(cls, params):
        return cls(m={k: np.zeros_like(p.data) for k, p in params.items()},
                   v={k: np.zeros_like(p.data) for k, p in params.items()})

    def to_dict(self):
        return {"t": self.t, "m": self.m, "v": self.v}

    @classmethod
    def from_dict(cls, d):
        return cls(m=dict(d["m"]), v=dict(d["v"]), t=int(d["t"]))


# ---------------------------------------------------------------------------
# augmentation and sampling
# ---------------------------------------------------------------------------

def _rot_matrix(angles_rad):
    az, ay, ax_ = angles_rad
    cz, sz = math.cos(az), math.sin(az)
    cy, sy = math.cos(ay), math.sin(ay)
    cx, sx = math.cos(ax_), math.sin(ax_)
    # axes are (z, y, x); rotation "about axis k" mixes the other two
    r_about_z = np.array([[1, 0, 0], [0, cz, -sz], [0, sz, cz]])
    r_about_y = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    r_about_x = np.array([[cx, -sx, 0], [sx, cx, 0], [0, 0, 1]])
    return r_about_z @ r_about_y @ r_about_x


def augment(rng: np.random.Generator, rot_deg: float = 15.0, trans_vox: int = 4):
    """Draw one random rigid transform: rotation angles (radians) about the
    three axes, then an integer translation (voxels)."""
    angles = np.deg2rad(rng.uniform(-rot_deg, rot_deg, size=3))
    trans = rng.integers(-trans_vox, trans_vox + 1, size=3)
    return angles, trans


def class_voxels(labels: np.ndarray) -> dict[int, np.ndarray]:
    """Coordinates of every voxel, grouped by (nonzero) class."""
    out = {}
    for cls in np.unique(labels):
        if cls > 0:
            out[int(cls)] = np.argwhere(labels == cls)
    return out


def warp_patch(vol: Volume, lab: LabelMap | None, patch: int, origin,
               angles_rad, translation):
    """The patch^3 window at ``origin`` of the volume rotated about its centre
    c and then translated by t: output voxel p samples the source at
    R^T (p - c - t) + c, the image trilinearly and the labels by nearest
    neighbour. Points mapped outside the source, and output points at or
    beyond the volume's own extent (the zero padding of a volume smaller than
    the patch), are zero/background."""
    dims = np.asarray(vol.dims)
    lo = np.asarray(origin)
    ext = np.clip(dims - lo, 0, patch)
    r = _rot_matrix(angles_rad)
    c = (dims - 1) / 2.0
    t = np.asarray(translation, dtype=np.float64)
    axes = [np.arange(a, a + n, dtype=np.float64) for a, n in zip(lo, ext)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij")).reshape(3, -1)
    src = (r.T @ (pts - (c + t)[:, None]) + c[:, None]).reshape(3, *ext)
    inner = tuple(slice(0, n) for n in ext)

    out_v = np.zeros((patch,) * 3, np.float32)
    out_v[inner] = map_coordinates(vol.voxels, src, order=1, mode="constant",
                                   cval=0.0, output=np.float32)
    pv = Volume(out_v, vol.spacing_mm)
    pl = None
    if lab is not None:
        idx = np.rint(src).astype(np.int64)
        inside = np.all((idx >= 0) & (idx < dims[:, None, None, None]), axis=0)
        idxc = np.clip(idx, 0, (dims - 1)[:, None, None, None])
        out_l = np.zeros((patch,) * 3, np.uint8)
        out_l[inner] = np.where(inside, lab.labels[idxc[0], idxc[1], idxc[2]], 0)
        pl = LabelMap(out_l, lab.spacing_mm, lab.num_classes, lab.available)
    return pv, pl


def sample_patch(vol: Volume, lab: LabelMap | None, patch: int, pos_prob: float,
                 rng: np.random.Generator,
                 fg_voxels: dict[int, np.ndarray] | None = None, rigid=None):
    """A patch^3 sample of the volume under the rigid transform ``rigid``
    (``(angles_rad, translation)`` as ``augment`` draws it; None is the
    identity, a plain crop). With probability pos_prob the centre is a
    foreground voxel, chosen class-balanced in the source frame: first a
    present foreground class uniformly at random, then a uniform voxel of
    that class, mapped forward to R (v - c) + c + t and rounded. Balancing
    keeps small structures from being starved of centered patches by large
    ones. Otherwise the centre is uniform over the output frame, which is the
    volume zero-padded to at least the patch. Only the patch is warped."""
    angles, trans = rigid if rigid is not None else ((0.0, 0.0, 0.0), (0, 0, 0))
    dims = tuple(max(n, patch) for n in vol.dims)

    center = None
    if lab is not None and pos_prob > 0 and rng.random() < pos_prob:
        if fg_voxels is None:
            fg_voxels = class_voxels(lab.labels)
        if fg_voxels:
            cls = sorted(fg_voxels)[rng.integers(len(fg_voxels))]
            vlist = fg_voxels[cls]
            c = (np.asarray(vol.dims) - 1) / 2.0
            v = vlist[rng.integers(len(vlist))]
            center = np.rint(_rot_matrix(angles) @ (v - c) + c + trans).astype(np.int64)
    if center is None:
        center = np.array([rng.integers(n) for n in dims])

    lo = np.clip(center - patch // 2, 0, np.asarray(dims) - patch)
    return warp_patch(vol, lab, patch, lo, angles, trans)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def adamw_step(params: dict[str, Tensor], state: OptimizerState, cfg: TrainConfig,
               lr: float | None = None):
    """Decoupled AdamW: theta -= lr * (m_hat / (sqrt(v_hat) + eps) + wd * theta).

    Missing gradients count as zero, so weight decay still applies. ``lr``
    overrides cfg.lr when a schedule is in effect."""
    if lr is None:
        lr = cfg.lr
    b1, b2 = cfg.betas
    state.t += 1
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for name in sorted(params):
        p = params[name]
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"NaN/Inf gradient for parameter {name!r}")
        m = state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        v = state.v[name] = b2 * state.v[name] + (1.0 - b2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + cfg.adam_eps) + cfg.weight_decay * p.data
        p.data = (p.data - lr * update).astype(p.data.dtype)
        p.grad = None


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------

@dataclass
class _Case:
    entry: CaseEntry
    vol: Volume
    lab: LabelMap | None
    fg: np.ndarray | None


def _load_cases(manifest: DatasetManifest, splits, normalize: bool) -> list[_Case]:
    cases = []
    for entry in manifest.cases:
        if entry.split not in splits:
            continue
        vol = read_mvol(manifest.image_path(entry))
        if normalize:
            vol, _ = zscore(vol)
        lab = read_mvol(manifest.label_path(entry)) if entry.label else None
        fg = class_voxels(lab.labels) if lab is not None else None
        cases.append(_Case(entry, vol, lab, fg))
    return cases


def run_training(manifest: DatasetManifest, model_cfg: ModelConfig,
                 tcfg: TrainConfig, splits=("labeled",),
                 init: Checkpoint | None = None, resume: bool = False,
                 log_fn=None, out_dir=None) -> Checkpoint:
    """Core loop: sample case -> draw a rigid transform -> sample and warp
    one patch -> forward -> availability-masked soft Dice -> backward ->
    AdamW. Augmentation warps only the patch^3 window, never the whole
    volume, and the patch centre comes from each case's foreground index,
    built once. Fully deterministic for a fixed (seed, manifest, configs)."""
    cases = _load_cases(manifest, splits, tcfg.normalize)
    if not cases:
        raise TrainingError(f"no training cases in splits {splits}")
    if any(c.lab is None for c in cases):
        raise TrainingError("training cases must carry labels")

    if init is not None:
        model = init.to_model()
        start_step = init.step if resume else 0
        if resume and init.opt_state is not None:
            opt = OptimizerState.from_dict(init.opt_state)
        else:
            opt = OptimizerState.for_params(model.params)
    else:
        model = SwinSegModel(model_cfg, seed=tcfg.seed)
        start_step = 0
        opt = OptimizerState.for_params(model.params)

    for c in cases:
        if c.lab.num_classes != model.cfg.num_classes:
            raise ConfigError(f"model has {model.cfg.num_classes} classes but the label map of "
                              f"case {c.entry.case_id} has {c.lab.num_classes}")

    ckpt_dir = None
    if out_dir is not None:
        ckpt_dir = os.path.join(out_dir, "checkpoints")
        os.makedirs(ckpt_dir, exist_ok=True)

    for step in range(start_step + 1, tcfg.steps + 1):
        t0 = time.perf_counter()
        # a fresh generator per step makes checkpoint resume draw-exact
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([tcfg.seed, 1, step])))
        loss_t = None
        for _ in range(tcfg.batch_size):
            case = cases[rng.integers(len(cases))]
            rigid = augment(rng, tcfg.rot_deg, tcfg.trans_vox) if tcfg.augment else None
            pv, pl = sample_patch(case.vol, case.lab, tcfg.patch_size,
                                  tcfg.pos_sample_prob, rng, fg_voxels=case.fg,
                                  rigid=rigid)
            x = Tensor(pv.voxels[None], dtype=model.dtype)
            _, probs = model.forward(x)
            target = OneHotTarget.from_labelmap(pl)
            loss = soft_dice_loss(probs, target,
                                  include_background=tcfg.include_background)
            loss_t = loss if loss_t is None else loss_t + loss
        loss_t = loss_t * (1.0 / tcfg.batch_size)
        loss_val = float(loss_t.item())
        ad.backward(loss_t)
        lr = tcfg.lr_at(step)
        adamw_step(model.params, opt, tcfg, lr=lr)
        if log_fn is not None:
            log_fn({"step": step, "loss": loss_val, "lr": lr,
                    "seconds": time.perf_counter() - t0})
        if ckpt_dir and tcfg.checkpoint_every and step % tcfg.checkpoint_every == 0:
            ck = Checkpoint.from_model(model, step=step, opt_state=opt.to_dict())
            save_checkpoint(ck, os.path.join(ckpt_dir, f"step{step:06d}.mckp"))

    final = Checkpoint.from_model(model, step=tcfg.steps, opt_state=opt.to_dict())
    if ckpt_dir:
        save_checkpoint(final, os.path.join(ckpt_dir, "final.mckp"))
    return final


def train(manifest: DatasetManifest, model_cfg: ModelConfig, tcfg: TrainConfig,
          log_fn=None, out_dir=None, init: Checkpoint | None = None,
          resume: bool = False) -> Checkpoint:
    """Supervised pretraining on the partially labeled split."""
    return run_training(manifest, model_cfg, tcfg, splits=("labeled",),
                        init=init, resume=resume, log_fn=log_fn, out_dir=out_dir)


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------

def sliding_window_infer(model: SwinSegModel, vol: Volume, patch: int,
                         overlap: float = 0.5) -> np.ndarray:
    """Tile the volume with overlapping patch^3 windows, average the sigmoid
    probabilities per voxel, crop to the original dims.

    Returns probs of shape (num_classes + 1, D, H, W)."""
    if not 0.0 <= overlap < 1.0:
        raise ValueError("overlap must be in [0,1)")
    vox = vol.voxels
    pads = [(0, max(0, patch - n)) for n in vox.shape]
    if any(p[1] for p in pads):
        vox = np.pad(vox, pads)
    dims = vox.shape
    stride = max(1, int(round(patch * (1.0 - overlap))))
    starts = []
    for n in dims:
        pos = list(range(0, n - patch + 1, stride))
        if pos[-1] != n - patch:
            pos.append(n - patch)
        starts.append(pos)

    j1 = model.cfg.num_classes + 1
    acc = np.zeros((j1,) + dims, dtype=np.float64)
    cnt = np.zeros(dims, dtype=np.float64)
    with ad.no_grad():
        for z in starts[0]:
            for y in starts[1]:
                for x in starts[2]:
                    sl = (slice(z, z + patch), slice(y, y + patch), slice(x, x + patch))
                    inp = Tensor(vox[sl][None], dtype=model.dtype)
                    _, probs = model.forward(inp)
                    acc[(slice(None),) + sl] += probs.data
                    cnt[sl] += 1.0
    out = (acc / cnt).astype(np.float32)
    d, h, w = vol.dims
    return out[:, :d, :h, :w]


def segment(model: SwinSegModel, vol: Volume, patch: int, overlap: float = 0.5,
            normalize: bool = True, postprocess: bool = True,
            connectivity: int = 26, min_size: int = 0) -> LabelMap:
    """Hard labels for one volume: z-score (if normalize) -> sliding-window
    probabilities -> per-voxel argmax -> keep the largest component per label
    (if postprocess). The one segmentation path behind ``segctl infer`` and
    pseudo-labelling."""
    if normalize:
        vol, _ = zscore(vol)
    probs = sliding_window_infer(model, vol, patch, overlap)
    lab = predict_labels(probs, vol.spacing_mm, model.cfg.num_classes)
    if postprocess:
        lab = keep_largest_per_label(lab, connectivity=connectivity, min_size=min_size)
    return lab


def generate_pseudo_labels(ckpt: Checkpoint, manifest: DatasetManifest,
                           out_dir, tcfg: TrainConfig,
                           connectivity: int = 26, min_size: int = 0) -> DatasetManifest:
    """Segment every unlabeled case with ``segment`` (post-processing on),
    write the labels with full availability, and return a manifest where
    those cases moved to the 'pseudo' split."""
    unlabeled = manifest.split("unlabeled")
    model = ckpt.to_model()
    os.makedirs(out_dir, exist_ok=True)
    new_cases = []
    for entry in manifest.cases:
        if entry.split != "unlabeled":
            new_cases.append(entry)
            continue
        lab = segment(model, read_mvol(manifest.image_path(entry)), tcfg.patch_size,
                      tcfg.overlap, normalize=tcfg.normalize,
                      connectivity=connectivity, min_size=min_size)
        label_name = f"{entry.case_id}_pseudo.mvol"
        write_mvol(lab, os.path.join(out_dir, label_name))
        rel = os.path.relpath(os.path.join(out_dir, label_name), manifest.root)
        new_cases.append(CaseEntry(entry.case_id, entry.image, rel, "pseudo"))
    if not unlabeled:
        return manifest
    return DatasetManifest(new_cases, root=manifest.root)
