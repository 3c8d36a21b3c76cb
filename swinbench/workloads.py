"""The three workloads, their inputs, their timed stages and their checks.

Every workload runs in one process with BLAS capped at one thread. The
timed set-up builds a fixed reference phantom set and the fixture and warms
up; the inputs are then built from the seed; the timed part runs whole units
(training steps, segmented volumes, semi-supervised rounds) until
``--seconds`` have passed; the checks then compare the outputs with
independent computations.

Each end-to-end rate is the median of per-unit times, each unit scaled by
the machine-speed gauge sampled around it (``spans.Gauge``), never a run
total: the shared core's speed drifts by up to a third within a minute, and
neither run totals nor unscaled medians are steady from run to run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import statistics
import time

import numpy as np
from scipy import ndimage

import fixture
from swinseg import autodiff as ad
from swinseg import cli, lossmetrics, model as mdl, postprocess, preprocess, training, volio
from swinseg.autodiff import Tensor
from swinseg.lossmetrics import OneHotTarget
from swinseg.phantom import PhantomConfig, build_dataset, generate_phantom

CLASSES = fixture.MODEL["num_classes"]
PATCH = fixture.TRAIN["patch_size"]
BATCH = fixture.TRAIN["batch_size"]
OVERLAP = 0.5
DSC_GATE = 0.60           # acceptance gate on phantom DSC
FINETUNE_DSC_SLACK = 0.05  # fine-tune may lose at most this much val DSC
FD_TOL = 1e-4             # finite-difference gate

# the semi-supervised round: the acceptance pipeline's 64^3 phantoms and its
# 8 labeled / 4 unlabeled / 2 val split, halved so that a 30-s run holds two
# whole rounds; per round, 2 pseudo-labelled volumes, 1 val volume and a
# fine-tune of FINETUNE_STEPS steps on 4 labeled + 2 pseudo cases
PIPE_DIM, PIPE_LABELED, PIPE_UNLABELED, PIPE_VAL = 64, 4, 2, 1
FINETUNE_STEPS = 6
# a five-step fine-tune starts from a fresh optimizer state, whose first
# steps move every weight by about the learning rate: at 1e-3 the round lost
# 0.057 val DSC on seed 102, at 2e-4 up to 0.041 over 30 seeds; at 1e-4 the
# six worst of those lost at most 0.012
FINETUNE_LR = 1e-4
# train: the acceptance data make-up
TRAIN_DIM, TRAIN_LABELED = 64, 8
# segment: 64^3 plus a larger non-cubic extent; its 28-voxel axis is padded
# to the patch and its 72-voxel axis ends on a clamped window
SEGMENT_SHAPES = ((64, 64, 64), (80, 72, 28))
SEGMENT_PER_SHAPE = 2

# seed offsets keep every workload's phantoms apart from the fixture's
# training phantoms (seed 0)
PIPE_SEED, TRAIN_SEED, SEGMENT_SEED = 10_000, 20_000, 30_000
# the timed set-up builds one fixed phantom set (1 labeled, 1 unlabeled,
# 1 val, 64^3) whatever the seed: placement retries make the cost of a
# phantom depend on its seed, so the seed's own inputs are built after the
# timed set-up
REFERENCE_SEED = 40_000


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def _sha(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


class Check:
    """Named pass/fail records; the run is correct when all pass."""

    def __init__(self):
        self.results: list[dict] = []

    def __call__(self, name, ok, detail=""):
        self.results.append({"check": name, "ok": bool(ok), "detail": str(detail)})

    @property
    def ok(self):
        return bool(self.results) and all(r["ok"] for r in self.results)


class Bench:
    """State shared by the workloads of one run."""

    def __init__(self, seed, workdir, clocks):
        self.seed = seed
        self.work = workdir
        self.clocks = clocks
        self.attempted = 0
        self.failed = 0
        self.check = Check()
        self.gauge = clocks.gauge
        self.rounds = 0                    # rounds started
        self.round_units: list[tuple[float, float, float]] = []   # start, end, seconds
        self.round_dirs: list[str] = []    # rounds completed
        # the units of the main stage, for the traced per-unit table
        self.table_steps = self.table_volumes = slice(None)

    # -- set-up -------------------------------------------------------------
    def setup(self):
        """The timed set-up: the fixed reference phantoms, the fixture as
        .mckp, warm-up."""
        ref = build_dataset(1, 1, 1, PhantomConfig(dims=(PIPE_DIM,) * 3, num_classes=CLASSES,
                                                   seed=REFERENCE_SEED),
                            os.path.join(self.work, "reference"), partial_prob=0.5)
        self.gauge.sample()
        self.fixture = fixture.write_mckp(os.path.join(self.work, "fixture.mckp"))
        self.fixture_ckpt = mdl.load_checkpoint(self.fixture)
        self._warm_up(ref.split("val")[0], ref)

    def _warm_up(self, case, manifest):
        """One forward+backward and one no-grad window, so the first timed
        unit does not pay for first-touch allocation."""
        model = self.fixture_ckpt.to_model()
        vol = volio.read_mvol(manifest.image_path(case))
        lab = volio.read_mvol(manifest.label_path(case))
        pv, pl = training.sample_patch(vol, lab, PATCH, 1.0, np.random.default_rng(0))
        _, probs = model.forward(Tensor(pv.voxels[None]))
        ad.backward(lossmetrics.soft_dice_loss(probs, OneHotTarget.from_labelmap(pl)))
        with ad.no_grad():
            model.forward(Tensor(pv.voxels[None]))

    def round_inputs(self):
        """The round's phantoms from the seed, on disk, and its run config."""
        self.data = os.path.join(self.work, "data")
        pcfg = PhantomConfig(dims=(PIPE_DIM,) * 3, num_classes=CLASSES,
                             seed=PIPE_SEED + self.seed)
        manifest = build_dataset(PIPE_LABELED, PIPE_UNLABELED, PIPE_VAL, pcfg,
                                 self.data, partial_prob=0.5)
        self.manifest_path = os.path.join(self.data, "manifest.json")
        self.unlabeled_ids = [c.case_id for c in manifest.split("unlabeled")]
        self.val = manifest.split("val")
        self.gt = os.path.join(self.work, "gt")
        os.makedirs(self.gt)
        for c in self.val:
            with open(manifest.label_path(c), "rb") as src, \
                    open(os.path.join(self.gt, f"{c.case_id}.mvol"), "wb") as dst:
                dst.write(src.read())
        self.config = os.path.join(self.work, "run_config.json")
        with open(self.config, "w") as f:
            json.dump({"model": fixture.MODEL,
                       "train": dict(fixture.TRAIN, lr=FINETUNE_LR)}, f)

    # -- the semi-supervised round through segctl's entry point -----------
    def segctl(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main([str(a) for a in argv])
        return rc, err.getvalue()

    def semi_supervised_round(self):
        """pseudolabel -> finetune -> infer val -> evaluate, from the fixture."""
        rdir = os.path.join(self.work, f"round{self.rounds}")
        self.rounds += 1
        pseudo, ft, pred = (os.path.join(rdir, d) for d in ("pseudo", "ft", "pred"))
        ft_ckpt = os.path.join(ft, "checkpoints", "final.mckp")
        calls = [["pseudolabel", "--ckpt", self.fixture, "--data", self.manifest_path,
                  "--out", pseudo, "--config", self.config],
                 ["finetune", "--ckpt", self.fixture, "--data",
                  os.path.join(pseudo, "manifest.json"), "--out", ft,
                  "--config", self.config, "--steps", FINETUNE_STEPS]]
        calls += [["infer", "--ckpt", ft_ckpt, "--in", os.path.join(self.data, c.image),
                   "--out", os.path.join(pred, f"{c.case_id}.mvol")] for c in self.val]
        calls.append(["evaluate", "--pred", pred, "--gt", self.gt,
                      "--report", os.path.join(rdir, "report.json")])
        t0, spent = time.perf_counter(), self.gauge.spent
        os.makedirs(pred)
        for argv in calls:
            self.gauge.sample()
            self.attempted += 1
            rc, err = self.segctl(argv)
            if rc != 0:
                self.failed += 1
                self.check(f"segctl {argv[0]} exits 0", False, f"exit {rc}: {err.strip()}")
                return
        t1 = time.perf_counter()
        self.round_units.append((t0, t1, t1 - t0 - (self.gauge.spent - spent)))
        self.round_dirs.append(rdir)

    def run_rounds(self, n=None, deadline=None):
        """Run n rounds, or whole rounds until the deadline (at least two)."""
        mark = self.clocks.mark()
        while True:
            self.semi_supervised_round()
            if n is not None and self.rounds >= n:
                break
            typical = _median([u[2] for u in self.round_units] or [0.0])
            if deadline is not None and self.rounds >= 2 and \
                    time.perf_counter() + 0.5 * typical > deadline:
                break
        return self.clocks.since(mark)

    def check_rounds(self):
        """Pseudo split, fine-tuned checkpoint, val DSC, and that every round
        produced the same bytes."""
        if not self.round_dirs:
            self.check("at least one round completed", False)
            return
        rdir = self.round_dirs[-1]
        pman = volio.load_manifest(os.path.join(rdir, "pseudo", "manifest.json"))
        by_id = {c.case_id: c for c in pman.cases}
        full = frozenset(range(1, CLASSES + 1))
        for cid in self.unlabeled_ids:
            c = by_id.get(cid)
            ok = c is not None and c.split == "pseudo" and \
                volio.read_mvol(pman.label_path(c)).available == full
            self.check(f"unlabeled {cid} pseudo-labelled with full availability", ok)

        ft = mdl.load_checkpoint(os.path.join(rdir, "ft", "checkpoints", "final.mckp"))
        self.check("fine-tuned checkpoint has the requested step",
                   ft.step == FINETUNE_STEPS, ft.step)
        self.check("fine-tuned parameters are finite",
                   all(np.all(np.isfinite(v)) for v in ft.params.values()))
        self.check("fine-tuned parameters differ from the fixture",
                   any(not np.array_equal(v, self.fixture_ckpt.params[k])
                       for k, v in ft.params.items()))
        dsc_ft = self._report_dsc(os.path.join(rdir, "report.json"))
        dsc_fx = self._fixture_val_dsc()
        self.check("val DSC after fine-tune >= fixture DSC - 0.05",
                   dsc_ft >= dsc_fx - FINETUNE_DSC_SLACK, f"{dsc_ft:.4f} vs {dsc_fx:.4f}")
        for rel in ("ft/checkpoints/final.mckp", "report.json"):
            digests = {_sha(os.path.join(d, rel)) for d in self.round_dirs}
            self.check(f"every round writes the same {rel}", len(digests) == 1)

    @staticmethod
    def _report_dsc(path):
        with open(path) as f:
            return json.load(f)["mean_dsc"]

    def _fixture_val_dsc(self):
        pred = os.path.join(self.work, "fixture_pred")
        os.makedirs(pred, exist_ok=True)
        for c in self.val:
            rc, err = self.segctl(["infer", "--ckpt", self.fixture, "--in",
                                   os.path.join(self.data, c.image),
                                   "--out", os.path.join(pred, f"{c.case_id}.mvol")])
            self.check("fixture infer exits 0", rc == 0, err.strip())
        report = os.path.join(self.work, "fixture_report.json")
        rc, err = self.segctl(["evaluate", "--pred", pred, "--gt", self.gt,
                               "--report", report])
        self.check("fixture evaluate exits 0", rc == 0, err.strip())
        return self._report_dsc(report) if rc == 0 else float("nan")


# ---------------------------------------------------------------------------
# metrics from per-unit times
# ---------------------------------------------------------------------------

def e2e_rates(b: Bench, steps, windows, volumes, scaled=True):
    """train_samples_per_s, segment_mvox_per_s and round_s from the median
    per-unit times, each unit scaled by the gauge around it (``scaled=False``
    gives the raw wall-time figures).

    A volume's time is its windows at the median window time plus its own
    median remainder (z-score, padding, averaging, argmax, keep-largest), so
    the segmentation rate rests on hundreds of windows, not on a handful of
    volumes; it is taken over one volume of each extent run."""
    def scale(lo, hi):
        return b.gauge.scale(lo, hi) if scaled else 1.0

    def times(units):
        return [secs * scale(lo, hi) for lo, hi, secs in units]

    rest: dict[tuple, list[float]] = {}
    for lo, hi, secs, dims, n_windows, in_windows in volumes:
        rest.setdefault((dims, n_windows), []).append((secs - in_windows) * scale(lo, hi))
    t_window = _median(times(windows))
    vox = sum(math.prod(dims) for dims, _ in rest)
    vol_s = sum(n * t_window + _median(r) for (_, n), r in rest.items())
    return {"train_samples_per_s": BATCH / _median(times(steps)),
            "segment_mvox_per_s": vox / vol_s / 1e6,
            "round_s": _median(times(b.round_units))}


def measured(b: Bench, report, steps, windows, volumes):
    report["raw_metrics"] = e2e_rates(b, steps, windows, volumes, scaled=False)
    return e2e_rates(b, steps, windows, volumes)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def run_train(b: Bench, seconds, report):
    """Pretraining from fresh weights at the acceptance preset."""
    data = os.path.join(b.work, "train_data")
    pcfg = PhantomConfig(dims=(TRAIN_DIM,) * 3, num_classes=CLASSES,
                         seed=TRAIN_SEED + b.seed)
    manifest = build_dataset(TRAIN_LABELED, 0, 0, pcfg, data, partial_prob=0.5)
    model_cfg = mdl.ModelConfig(**fixture.MODEL)
    yield "inputs"

    t_start = time.perf_counter()
    ft_steps, round_windows, round_vols = b.run_rounds(n=1)
    # size the pretraining run from the round's fine-tune steps, 64^3 steps
    # of the same preset; the margin covers data loading and the gauge
    est = 1.05 * _median([u[2] for u in ft_steps]) if ft_steps else 1.0
    n_steps = max(6, int((t_start + seconds - time.perf_counter()) / est))
    tcfg = training.TrainConfig.from_dict(dict(fixture.TRAIN, steps=n_steps, seed=b.seed))
    losses = []
    mark = b.clocks.mark()
    ckpt = training.train(manifest, model_cfg, tcfg,
                          log_fn=lambda rec: losses.append(rec["loss"]))
    steps, _, _ = b.clocks.since(mark)
    b.table_steps = slice(mark[0], None)
    b.attempted += n_steps
    report.update(pretrain_steps=n_steps)
    yield measured(b, report, steps, round_windows, round_vols)

    c = b.check
    c("every logged loss lies in [0, 1]",
      len(losses) == n_steps and all(0.0 <= x <= 1.0 for x in losses),
      f"{min(losses):.4f}..{max(losses):.4f}")
    c("checkpoint step equals the steps run", ckpt.step == n_steps, ckpt.step)
    cases = [(preprocess.zscore(volio.read_mvol(manifest.image_path(e)))[0],
              volio.read_mvol(manifest.label_path(e))) for e in manifest.split("labeled")]
    rng = np.random.default_rng(b.seed)
    patches = [training.sample_patch(vol, lab, PATCH, 1.0, rng) for vol, lab in cases[:4]]
    init = mdl.SwinSegModel(model_cfg, seed=tcfg.seed)
    final = ckpt.to_model()

    def mean_loss(model):
        with ad.no_grad():
            return float(np.mean([
                lossmetrics.soft_dice_loss(model.forward(Tensor(pv.voxels[None]))[1],
                                           OneHotTarget.from_labelmap(pl)).item()
                for pv, pl in patches]))

    l0, l1 = mean_loss(init), mean_loss(final)
    c("soft-Dice loss on fixed unaugmented patches falls", l1 < l0, f"{l0:.4f} -> {l1:.4f}")
    worst = fd_gradient_check(ckpt, cases[0], rng)
    c("autodiff gradients match central differences (float64)", worst <= FD_TOL,
      f"worst relative error {worst:.2e}")
    b.check_rounds()


def fd_gradient_check(ckpt, case, rng, per_tensor=2, h=1e-5):
    """Worst relative error between autodiff and central differences on a
    16^3 patch, at the largest-gradient entries of a spread of tensors."""
    model = ckpt.to_model(dtype=np.float64)
    pv, pl = training.sample_patch(*case, 16, 1.0, rng)
    x = Tensor(pv.voxels[None], dtype=np.float64)
    target = OneHotTarget.from_labelmap(pl)

    def loss():
        return lossmetrics.soft_dice_loss(model.forward(x)[1], target)

    ad.backward(loss())
    worst = 0.0
    for name in ("embed.w", "enc0.blk0.qkv.w", "enc1.blk0.relpos", "dec.up0.w",
                 "dec.res0.conv1.w", "head.w"):
        p = model.params[name]
        grad = p.grad.reshape(-1).copy()
        flat = p.data.reshape(-1)
        for j in np.argsort(-np.abs(grad))[:per_tensor]:
            old = flat[j]
            with ad.no_grad():
                flat[j] = old + h
                up = loss().item()
                flat[j] = old - h
                dn = loss().item()
            flat[j] = old
            fd = (up - dn) / (2 * h)
            worst = max(worst, abs(fd - grad[j]) / max(abs(fd), abs(grad[j]), 1e-4))
    return worst


# ---------------------------------------------------------------------------
# segment
# ---------------------------------------------------------------------------

def segment_volume(model, vol):
    """What `segctl infer` does to a volume, called in-process."""
    z, _ = preprocess.zscore(vol)
    probs = training.sliding_window_infer(model, z, PATCH, OVERLAP)
    lab = mdl.predict_labels(probs, z.spacing_mm, CLASSES)
    return postprocess.keep_largest_per_label(lab, connectivity=26)


def run_segment(b: Bench, seconds, report):
    """Forward-only segmentation of held-out phantoms of mixed extent."""
    cases = []
    for dims in SEGMENT_SHAPES:
        for i in range(SEGMENT_PER_SHAPE):
            rng = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence([SEGMENT_SEED + b.seed, len(cases)])))
            cases.append(generate_phantom(
                PhantomConfig(dims=dims, num_classes=CLASSES), rng))
    # interleave extents so each gets timed throughout the run
    order = [cases[s * SEGMENT_PER_SHAPE + i] for i in range(SEGMENT_PER_SHAPE)
             for s in range(len(SEGMENT_SHAPES))]
    model = b.fixture_ckpt.to_model()
    yield "inputs"

    t_start = time.perf_counter()
    ft_steps, _, _ = b.run_rounds(n=1)
    deadline = t_start + seconds
    mark = b.clocks.mark()
    v0 = mark[2]
    preds, digests = [], [set() for _ in order]
    k = 0
    while k < len(order) or time.perf_counter() < deadline:
        lab = segment_volume(model, order[k % len(order)][0])
        digests[k % len(order)].add(hashlib.sha256(lab.labels.tobytes()).digest())
        if k < len(order):
            preds.append(lab)
        k += 1
    b.attempted += k
    _, windows, vols = b.clocks.since(mark)
    b.table_volumes = slice(v0, None)
    yield measured(b, report, ft_steps, windows, vols)

    c = b.check
    for i, ((vol, ref), pred) in enumerate(zip(order, preds)):
        c(f"case {i}: repeated segmentations are identical", len(digests[i]) == 1)
        rep = lossmetrics.evaluate_pair(pred, ref, case_id=str(i))
        c(f"case {i} {vol.dims}: mean DSC >= {DSC_GATE}", rep.mean_dsc >= DSC_GATE,
          f"{rep.mean_dsc:.4f}")
        for cls, v in rep.per_class.items():
            p, r = pred.labels == cls, ref.labels == cls
            n = int(p.sum()) + int(r.sum())
            want = 1.0 if n == 0 else 2.0 * int((p & r).sum()) / n
            c(f"case {i} class {cls}: evaluate_pair DSC equals 2|P&R|/(|P|+|R|)",
              abs(v["dsc"] - want) <= 1e-12, f"{v['dsc']} vs {want}")
        for cls in sorted(set(np.unique(pred.labels).tolist()) - {0}):
            _, ncomp = ndimage.label(pred.labels == cls, structure=np.ones((3, 3, 3)))
            c(f"case {i} class {cls}: one 26-connected component", ncomp == 1, ncomp)
    # the padded, clamped extent against the benchmark's own tiling
    vol = preprocess.zscore(order[-1][0])[0]
    got = training.sliding_window_infer(model, vol, PATCH, OVERLAP)
    want = tile_and_average(model, vol.voxels, PATCH, OVERLAP)
    err = float(np.abs(got - want).max())
    c("sliding_window_infer matches an independent tile-and-average",
      err <= 1e-6, f"max abs diff {err:.2e}")
    b.check_rounds()


def tile_and_average(model, vox, patch, overlap):
    """Mean of model.forward over every window that covers a voxel."""
    shape = vox.shape
    padded = np.zeros([max(n, patch) for n in shape], np.float32)
    padded[:shape[0], :shape[1], :shape[2]] = vox
    step = max(1, int(round(patch * (1.0 - overlap))))
    axes = [sorted({min(i * step, n - patch) for i in range(-(-(n - patch) // step) + 1)})
            for n in padded.shape]
    acc = np.zeros((CLASSES + 1,) + padded.shape)
    hits = np.zeros(padded.shape)
    with ad.no_grad():
        for z in axes[0]:
            for y in axes[1]:
                for x in axes[2]:
                    win = np.s_[z:z + patch, y:y + patch, x:x + patch]
                    acc[(slice(None),) + win] += model.forward(Tensor(padded[win][None]))[1].data
                    hits[win] += 1
    return (acc / hits)[:, :shape[0], :shape[1], :shape[2]]


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def run_pipeline(b: Bench, seconds, report):
    """Whole semi-supervised rounds through segctl's entry point."""
    yield "inputs"
    t_start = time.perf_counter()
    steps, windows, vols = b.run_rounds(deadline=t_start + seconds)
    yield measured(b, report, steps, windows, vols)
    b.check_rounds()


# Each workload is a generator: it builds its inputs from the seed and
# yields, runs its timed part and yields the end-to-end figures, then runs
# its checks.
WORKLOADS = {"train": run_train, "segment": run_segment, "pipeline": run_pipeline}
