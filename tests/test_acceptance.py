"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

The end-to-end pipeline criteria drive the real ``segctl`` CLI on generated
phantom data and share a module-scoped run directory.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from swinseg import autodiff as ad
from swinseg.autodiff import Tensor
from swinseg.lossmetrics import DICE_EPS, OneHotTarget, dsc, nsd, soft_dice_loss
from swinseg.model import (Checkpoint, ModelConfig, SwinSegModel, load_checkpoint,
                           save_checkpoint, upsample)
from swinseg.postprocess import connected_components_3d, keep_largest_per_label
from swinseg.preprocess import crop_nonzero, embed, resample, zscore
from swinseg.volio import LabelMap, Volume, load_manifest, read_mvol

from conftest import rel_err
from test_lossmetrics import nsd_brute_force
from test_model import gather_attention_oracle
from test_postprocess import bfs_components

# settings for the end-to-end run (model/optimizer choices are free; data
# sizes, step counts and thresholds are part of the criteria)
E2E_MODEL = {"num_classes": 4, "embed_dim": 12, "patch_size": 2, "window": 4,
             "depths": [1, 1], "heads": [2, 4]}
E2E_TRAIN = {"patch_size": 32, "batch_size": 3, "lr": 5e-3,
             "pos_sample_prob": 0.8, "seed": 0}
E2E_PRETRAIN_STEPS = 500
E2E_FINETUNE_STEPS = 200
E2E_BUDGET_S = 15 * 60
DSC_THRESHOLD = 0.60


def criterion(name):
    """Mark a test as one acceptance criterion; conftest prints a PASS/FAIL
    line with this name through the terminal reporter."""
    return pytest.mark.criterion(name)


def segctl(*args):
    return subprocess.run([sys.executable, "-m", "swinseg.cli", *map(str, args)],
                          capture_output=True, text=True)


# ---------------------------------------------------------------------------
# numerics criteria
# ---------------------------------------------------------------------------

@criterion("gradient suite: primitives + toy model FD checks (<=1e-4, <=2min)")
def test_gradient_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)

    def fd_check(build, params, tol=1e-4, samples=4):
        for p in params:
            p.grad = None
        out = build()
        loss = ad.reduce_sum(out * out)
        ad.backward(loss)
        worst = 0.0
        for p in params:
            flat = p.data.reshape(-1)
            gflat = p.grad.reshape(-1)
            for j in rng.choice(flat.size, size=min(samples, flat.size),
                                replace=False):
                old = flat[j]
                h = 1e-5 * max(1.0, abs(old))
                flat[j] = old + h
                with ad.no_grad():
                    up = float((build().data ** 2).sum())
                flat[j] = old - h
                with ad.no_grad():
                    dn = float((build().data ** 2).sum())
                flat[j] = old
                worst = max(worst, rel_err(gflat[j], (up - dn) / (2 * h)))
        assert worst <= tol, worst

    def t(shape):
        return Tensor(rng.normal(size=shape), requires_grad=True, dtype=np.float64)

    # every primitive
    x = t((2, 3, 4))
    y = t((2, 3, 4))
    fd_check(lambda: x + y, [x, y])
    fd_check(lambda: x * y, [x, y])
    den = Tensor(rng.uniform(1, 2, (2, 3, 4)), dtype=np.float64)
    fd_check(lambda: ad.div(x, den), [x])
    fd_check(lambda: ad.sigmoid(x), [x])
    fd_check(lambda: ad.gelu(x), [x])
    fd_check(lambda: ad.softmax(x, axis=-1), [x])
    fd_check(lambda: ad.reshape(x, (4, 6)), [x])
    fd_check(lambda: ad.permute(x, (2, 0, 1)), [x])
    fd_check(lambda: ad.pad(x, [(1, 0), (0, 2), (1, 1)]), [x])
    fd_check(lambda: ad.concat([x, y], axis=1), [x, y])
    fd_check(lambda: x[:, 1:, ::2], [x])
    fd_check(lambda: ad.reduce_sum(x * x), [x])
    fd_check(lambda: ad.reduce_mean(x), [x])
    a, b = t((3, 4)), t((4, 5))
    fd_check(lambda: ad.matmul(a, b), [a, b])
    cx, cw, cb = t((2, 6, 6, 6)), t((3, 2, 3, 3, 3)), t((3,))
    fd_check(lambda: ad.conv3d(cx, cw, cb, padding=1), [cx, cw, cb])
    dw, db = t((3, 2, 2, 2, 2)), t((3,))
    fd_check(lambda: upsample(cx, dw, db), [cx, dw, db])
    nx, ng, nb = t((3, 4, 4, 4)), t((3,)), t((3,))
    fd_check(lambda: ad.instance_norm(nx, ng, nb), [nx, ng, nb])
    lx, lg, lb = t((5, 6)), t((6,)), t((6,))
    fd_check(lambda: ad.layer_norm(lx, lg, lb), [lx, lg, lb])

    # full toy model: 16^3 input, C=8, depths [1,1]
    cfg = ModelConfig(num_classes=2, embed_dim=8, patch_size=2, window=4,
                      depths=[1, 1], heads=[2, 2])
    model = SwinSegModel(cfg, seed=0, dtype=np.float64)
    inp = rng.normal(size=(1, 16, 16, 16))
    _, probs = model.forward(Tensor(inp))
    ad.backward(ad.reduce_mean(probs))

    def loss_value():
        with ad.no_grad():
            _, p = model.forward(Tensor(inp))
        return float(p.data.mean())

    worst = 0.0
    for name, p in model.params.items():
        flat = p.data.reshape(-1)
        gflat = p.grad.reshape(-1)
        for j in rng.choice(flat.size, size=min(2, flat.size), replace=False):
            old = flat[j]
            h = 1e-5 * max(1.0, abs(old))
            flat[j] = old + h
            up = loss_value()
            flat[j] = old - h
            dn = loss_value()
            flat[j] = old
            worst = max(worst, rel_err(gflat[j], (up - dn) / (2 * h)))
    assert worst <= 1e-4, f"toy model worst rel err {worst:.3g}"
    assert time.perf_counter() - t0 <= 120, "gradient suite exceeded 2 minutes"


@criterion("shifted-window equivalence: 50 configs vs region-gather oracle (<=1e-6, f64)")
def test_swmsa_equivalence():
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(50):
        m = int(rng.choice([2, 3, 4]))
        dims = tuple(int(rng.integers(2, 3 * m + 1)) for _ in range(3))
        heads = int(rng.choice([1, 2, 4]))
        c = heads * int(rng.choice([2, 4]))
        shift = int(rng.integers(0, m)) if trial % 2 else 0
        cfg = ModelConfig(num_classes=1, embed_dim=c, window=m, depths=[1],
                          heads=[heads], use_rel_pos_bias=False)
        model = SwinSegModel(cfg, seed=trial, dtype=np.float64)
        x = rng.normal(size=dims + (c,))
        with ad.no_grad():
            got = model.window_attention("enc0.blk0", Tensor(x, dtype=np.float64),
                                         heads, shift).data
        want = gather_attention_oracle(model, "enc0.blk0", x, heads, shift)
        worst = max(worst, np.abs(got - want).max())
    assert worst <= 1e-6, f"worst abs deviation {worst:.3g}"


@criterion("loss identities: L(G,G)<=1e-4, disjoint>=1-1e-4, 0.3333 hand value, masked grads zero")
def test_loss_identities():
    rng = np.random.default_rng(1)
    g = rng.choice([0, 1, 2], size=(6, 6, 6)).astype(np.uint8)
    lab = LabelMap(g, (1, 1, 1), 2, frozenset({1, 2}))
    tgt = OneHotTarget.from_labelmap(lab)
    perfect = Tensor(tgt.onehot, dtype=np.float64)
    assert soft_dice_loss(perfect, tgt).item() <= 1e-4

    gd = np.zeros((4, 4, 4), np.uint8)
    gd[:2] = 1
    pd = np.zeros((2, 4, 4, 4))
    pd[1, 2:] = 1.0
    tgt_d = OneHotTarget.from_labelmap(LabelMap(gd, (1, 1, 1), 1, frozenset({1})))
    assert soft_dice_loss(Tensor(pd, dtype=np.float64), tgt_d).item() >= 1 - 1e-4

    # hand example: |G| = 200, Y = 1 on G plus 200 false positives, so the
    # dice term is 200/(200 + 400) and the loss is exactly 1/3 up to epsilon
    gh = np.zeros((10, 10, 6), np.uint8)
    gh[:, :, :2] = 1
    yh = np.zeros((2, 10, 10, 6))
    yh[1, :, :, :4] = 1.0
    tgt_h = OneHotTarget.from_labelmap(LabelMap(gh, (1, 1, 1), 1, frozenset({1})))
    val = soft_dice_loss(Tensor(yh, dtype=np.float64), tgt_h).item()
    assert abs(val - 1.0 / 3.0) <= 1e-6

    g3 = rng.choice([0, 1, 3], size=(4, 4, 4)).astype(np.uint8)
    lab3 = LabelMap(g3, (1, 1, 1), 3, frozenset({1, 3}))
    y = Tensor(rng.uniform(0.01, 0.99, size=(4, 4, 4, 4)), requires_grad=True,
               dtype=np.float64)
    ad.backward(soft_dice_loss(y, OneHotTarget.from_labelmap(lab3)))
    assert np.all(y.grad[2] == 0.0) and np.all(y.grad[0] == 0.0)


@criterion("metrics: DSC/NSD identities, NSD monotone in tau (100 pairs), shifted-cube oracle")
def test_metrics():
    rng = np.random.default_rng(2)
    arr = rng.choice([0, 1], size=(8, 8, 8)).astype(np.uint8)
    lab = LabelMap(arr, (1, 1, 1), 1, frozenset({1}))
    assert dsc(lab, lab, 1) == 1.0 and nsd(lab, lab, 1, 1.0) == 1.0
    empty = LabelMap(np.zeros((8, 8, 8), np.uint8), (1, 1, 1), 1, frozenset({1}))
    assert dsc(empty, empty, 1) == 1.0 and nsd(empty, empty, 1) == 1.0
    assert dsc(empty, lab, 1) == 0.0 and nsd(empty, lab, 1) == 0.0

    taus = [0.5, 1.0, 2.0, 3.0]
    for _ in range(100):
        a = LabelMap((rng.random((7, 7, 7)) < 0.3).astype(np.uint8),
                     (1, 1, 1), 1, frozenset({1}))
        b = LabelMap((rng.random((7, 7, 7)) < 0.3).astype(np.uint8),
                     (1, 1, 1), 1, frozenset({1}))
        vals = [nsd(a, b, 1, t) for t in taus]
        assert all(u <= v + 1e-12 for u, v in zip(vals, vals[1:]))

    a = np.zeros((10, 10, 10), np.uint8)
    b = np.zeros((10, 10, 10), np.uint8)
    a[2:6, 2:6, 2:6] = 1
    b[3:7, 2:6, 2:6] = 1
    la = LabelMap(a, (1, 1, 1), 1, frozenset({1}))
    lb = LabelMap(b, (1, 1, 1), 1, frozenset({1}))
    got = nsd(la, lb, 1, 1.0)
    assert got == nsd_brute_force(a == 1, b == 1, (1, 1, 1), 1.0) == 1.0


@criterion("connected components: BFS oracle agreement on 100 masks, both connectivities")
def test_connected_components():
    rng = np.random.default_rng(3)
    for trial in range(100):
        mask = rng.random((16, 16, 16)) < rng.uniform(0.05, 0.5)
        for conn in (6, 26):
            comps, ids = connected_components_3d(mask, conn)
            oracle = bfs_components(mask, conn)
            got = {frozenset((int(z), int(y), int(x))
                             for z, y, x in np.argwhere(ids == c.comp_id))
                   for c in comps}
            assert got == set(map(frozenset, oracle))
        lab = LabelMap((mask.astype(np.uint8) * rng.integers(1, 3)),
                       (1, 1, 1), 2, frozenset({1, 2}))
        out = keep_largest_per_label(lab, 26)
        again = keep_largest_per_label(out, 26)
        assert np.array_equal(out.labels, again.labels)
        for cls in (1, 2):
            comps, _ = connected_components_3d(out.labels == cls, 26)
            assert len(comps) <= 1


@criterion("preprocess: identity resample bit-exact, zscore mean <=1e-6, crop/embed roundtrip")
def test_preprocess():
    rng = np.random.default_rng(4)
    v = Volume(rng.normal(size=(6, 7, 8)).astype(np.float32), (1.5, 1.0, 2.0))
    out = resample(v, (1.5, 1.0, 2.0))
    assert out.voxels.tobytes() == v.voxels.tobytes()

    z, _ = zscore(v)
    assert abs(float(z.voxels.mean(dtype=np.float64))) <= 1e-6

    data = np.zeros((8, 8, 8), np.float32)
    data[2:5, 1:7, 3:6] = rng.uniform(1, 2, size=(3, 6, 3))
    vol = Volume(data, (1, 1, 1))
    cropped, box = crop_nonzero(vol)
    back = embed(cropped, box, vol.dims)
    assert np.array_equal(back.voxels, vol.voxels)


@criterion("checkpoint roundtrip: save -> load -> infer bit-identical")
def test_checkpoint_roundtrip(tmp_path):
    cfg = ModelConfig(**E2E_MODEL)
    model = SwinSegModel(cfg, seed=11)
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(1, 32, 32, 32)).astype(np.float32))
    with ad.no_grad():
        _, before = model.forward(x)
    save_checkpoint(Checkpoint.from_model(model), tmp_path / "m.mckp")
    model2 = load_checkpoint(tmp_path / "m.mckp").to_model()
    with ad.no_grad():
        _, after = model2.forward(x)
    assert before.data.tobytes() == after.data.tobytes()


# ---------------------------------------------------------------------------
# end-to-end pipeline criteria
# ---------------------------------------------------------------------------

def run_pipeline(base: Path, pretrain_steps, finetune_steps, dim=64, extra=()):
    """phantom -> train -> infer/evaluate val -> pseudolabel -> finetune ->
    infer/evaluate val, all through the CLI. Returns a result dict."""
    data = base / "data"
    r = segctl(*extra, "phantom", "--labeled", 8, "--unlabeled", 4, "--val", 2,
               "--classes", 4, "--dim", dim, "--seed", 0, "--partial-prob", 0.5,
               "--out", data)
    assert r.returncode == 0, r.stderr
    cfg_path = base / "run_config.json"
    cfg_path.write_text(json.dumps({"model": E2E_MODEL, "train": E2E_TRAIN}))

    run_pre = base / "pretrain"
    r = segctl(*extra, "train", "--data", data / "manifest.json", "--out", run_pre,
               "--config", cfg_path, "--steps", pretrain_steps)
    assert r.returncode == 0, r.stderr
    ck_pre = run_pre / "checkpoints" / "final.mckp"

    def eval_val(ckpt, tag):
        man = load_manifest(data / "manifest.json")
        pred_dir = base / f"preds_{tag}"
        gt_dir = base / f"gt_{tag}"
        pred_dir.mkdir(exist_ok=True)
        gt_dir.mkdir(exist_ok=True)
        for e in man.split("val"):
            r = segctl(*extra, "infer", "--ckpt", ckpt, "--in", man.image_path(e),
                       "--out", pred_dir / f"{e.case_id}.mvol",
                       "--patch", E2E_TRAIN["patch_size"])
            assert r.returncode == 0, r.stderr
            (gt_dir / f"{e.case_id}.mvol").write_bytes(
                Path(man.label_path(e)).read_bytes())
        report = base / f"report_{tag}.json"
        r = segctl(*extra, "evaluate", "--pred", pred_dir, "--gt", gt_dir,
                   "--report", report)
        assert r.returncode == 0, r.stderr
        return json.loads(report.read_text())

    rep_pre = eval_val(ck_pre, "pretrain")

    pl_dir = base / "pseudo"
    r = segctl(*extra, "pseudolabel", "--ckpt", ck_pre,
               "--data", data / "manifest.json", "--out", pl_dir,
               "--config", cfg_path)
    assert r.returncode == 0, r.stderr

    run_ft = base / "finetune"
    r = segctl(*extra, "finetune", "--ckpt", ck_pre,
               "--data", pl_dir / "manifest.json", "--out", run_ft,
               "--config", cfg_path, "--steps", finetune_steps)
    assert r.returncode == 0, r.stderr
    ck_ft = run_ft / "checkpoints" / "final.mckp"
    rep_ft = eval_val(ck_ft, "final")

    return {"ck_pre": ck_pre, "ck_ft": ck_ft,
            "dsc_pre": rep_pre["mean_dsc"], "dsc_ft": rep_ft["mean_dsc"],
            "report_pre": base / "report_pretrain.json",
            "report_ft": base / "report_final.json"}


@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    base = tmp_path_factory.mktemp("e2e")
    t0 = time.perf_counter()
    result = run_pipeline(base, E2E_PRETRAIN_STEPS, E2E_FINETUNE_STEPS)
    result["seconds"] = time.perf_counter() - t0
    return result


@criterion("end-to-end: pipeline completes within the 15 min CPU budget")
def test_e2e_budget(e2e):
    assert e2e["seconds"] <= E2E_BUDGET_S, f"took {e2e['seconds']:.0f}s"


@criterion("end-to-end: pretrain val mean DSC >= 0.60")
def test_e2e_pretrain_dsc(e2e):
    assert e2e["dsc_pre"] >= DSC_THRESHOLD, f"pretrain mean DSC {e2e['dsc_pre']:.3f}"


@criterion("end-to-end: pseudo-label fine-tune completes, final DSC >= pretrain - 0.05")
def test_e2e_finetune_dsc(e2e):
    assert e2e["dsc_ft"] >= e2e["dsc_pre"] - 0.05, \
        f"final {e2e['dsc_ft']:.3f} vs pretrain {e2e['dsc_pre']:.3f}"


@criterion("determinism: pipeline with --threads 1 byte-identical across two runs")
def test_determinism(tmp_path_factory):
    # same pipeline and comparisons at reduced step count: determinism does
    # not depend on how many optimizer steps run, and the full-scale double
    # run would not fit a CI budget single-threaded
    outs = []
    for run in ("a", "b"):
        base = tmp_path_factory.mktemp(f"det_{run}")
        res = run_pipeline(base, pretrain_steps=20, finetune_steps=10,
                           extra=("--threads", "1"))
        outs.append(res)
    a, b = outs
    assert a["ck_pre"].read_bytes() == b["ck_pre"].read_bytes()
    assert a["ck_ft"].read_bytes() == b["ck_ft"].read_bytes()
    assert a["report_pre"].read_bytes() == b["report_pre"].read_bytes()
    assert a["report_ft"].read_bytes() == b["report_ft"].read_bytes()
