import json
import subprocess
import sys

import numpy as np
import pytest

from swinseg.model import Checkpoint, ModelConfig, SwinSegModel, save_checkpoint
from swinseg.volio import LabelMap, Volume, load_manifest, read_mvol, write_mvol
from conftest import edit_header
from test_model import TABLE_FAULTS
from test_volio import BAD_LABEL_HEADERS, BAD_MANIFESTS, mvol_bytes


# a config that trains on tiny_data; the run-config tests break one field of it
TINY_MODEL = {"num_classes": 3, "embed_dim": 8, "depths": [1], "heads": [2]}
TINY_TRAIN = {"patch_size": 16, "batch_size": 1, "steps": 1}

# one bad train field each, rejected by TrainConfig before the run starts
BAD_TRAIN = {"steps_negative": {"steps": -3}, "batch_size_0": {"batch_size": 0},
             "batch_size_float": {"batch_size": 1.5}, "lr_string": {"lr": "x"},
             "weight_decay_string": {"weight_decay": "a"}, "rot_deg_inf": {"rot_deg": 1e309},
             "trans_vox_float": {"trans_vox": 2.5}, "betas_one": {"betas": [0.9]}}


def segctl(*args, **kw):
    return subprocess.run([sys.executable, "-m", "swinseg.cli", *map(str, args)],
                          capture_output=True, text=True, **kw)


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_data")
    r = segctl("phantom", "--labeled", 2, "--unlabeled", 1, "--val", 1,
               "--classes", 3, "--dim", 32, "--seed", 5, "--out", out)
    assert r.returncode == 0, r.stderr
    return out


@pytest.fixture(scope="module")
def tiny_run(tiny_data, tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("cli_run")
    cfg = {"model": {"num_classes": 3, "embed_dim": 8, "patch_size": 2,
                     "window": 4, "depths": [1, 1], "heads": [2, 2]},
           "train": {"steps": 3, "patch_size": 16, "batch_size": 1, "lr": 1e-3,
                     "seed": 0}}
    cfg_path = run_dir / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    r = segctl("train", "--data", tiny_data / "manifest.json",
               "--out", run_dir, "--config", cfg_path)
    assert r.returncode == 0, r.stderr
    return run_dir


class TestUsageErrors:
    def test_no_command(self):
        assert segctl().returncode == 2

    def test_unknown_command(self):
        assert segctl("frobnicate").returncode == 2

    def test_missing_required_flag(self):
        assert segctl("phantom").returncode == 2

    def test_help_all_subcommands(self):
        for cmd in ["phantom", "preprocess", "train", "pseudolabel", "finetune",
                    "infer", "postprocess", "evaluate"]:
            r = segctl(cmd, "--help")
            assert r.returncode == 0 and "--" in r.stdout, cmd


class TestDataErrors:
    def test_missing_manifest(self, tmp_path):
        r = segctl("train", "--data", tmp_path / "nope.json", "--out", tmp_path)
        assert r.returncode == 4
        assert "error" in r.stderr.lower()

    def test_corrupt_mvol(self, tmp_path):
        bad = tmp_path / "bad.mvol"
        bad.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        r = segctl("postprocess", "--in", bad, "--out", tmp_path / "o.mvol")
        assert r.returncode == 4

    @pytest.mark.parametrize("fault", ["no_spacing", "header_list", "dims_negative",
                                       "dims_not_int", "spacing_str", "available_str"])
    def test_malformed_mvol_header(self, tmp_path, fault):
        bad = tmp_path / "bad.mvol"
        bad.write_bytes(mvol_bytes(BAD_LABEL_HEADERS[fault], bytes([1, 2])))
        r = segctl("postprocess", "--in", bad, "--out", tmp_path / "o.mvol")
        assert r.returncode == 4, r.stderr

    @pytest.mark.parametrize("fault", BAD_MANIFESTS)
    def test_malformed_manifest(self, tmp_path, fault):
        mp = tmp_path / "manifest.json"
        mp.write_text(BAD_MANIFESTS[fault])
        r = segctl("train", "--data", mp, "--out", tmp_path / "run")
        assert r.returncode == 4, r.stderr

    def test_config_error(self, tiny_data, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"num_classes": 3, "embed_dim": 7,
                                             "depths": [1], "heads": [2]}}))
        r = segctl("train", "--data", tiny_data / "manifest.json",
                   "--out", tmp_path, "--config", cfg, "--steps", 1)
        assert r.returncode == 3

    @pytest.mark.parametrize("section,key", [({"train": {"stepz": 3}}, "stepz"),
                                             ({"model": {"embedz": 3}}, "embedz")])
    def test_unknown_config_key(self, tiny_data, tmp_path, section, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(section))
        r = segctl("train", "--data", tiny_data / "manifest.json",
                   "--out", tmp_path, "--config", cfg, "--steps", 1)
        assert r.returncode == 3, r.stderr
        assert key in r.stderr

    @pytest.mark.parametrize("cfg", [
        {"model": {**TINY_MODEL, "heads": [0]}, "train": TINY_TRAIN},
        {"model": {**TINY_MODEL, "depths": [-1]}, "train": TINY_TRAIN},
        {"model": {**TINY_MODEL, "in_channels": 0}, "train": TINY_TRAIN},
        {"model": 5, "train": TINY_TRAIN},
        [],
        *({"model": TINY_MODEL, "train": {**TINY_TRAIN, **bad}} for bad in BAD_TRAIN.values()),
    ], ids=["heads_0", "depths_negative", "in_channels_0", "model_not_object", "list",
            *BAD_TRAIN])
    def test_malformed_run_config(self, tiny_data, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        r = segctl("train", "--data", tiny_data / "manifest.json",
                   "--out", tmp_path / "run", "--config", path)
        assert r.returncode == 3, r.stderr
        assert not (tmp_path / "run").exists()   # rejected before anything is written

    @pytest.mark.parametrize("fault", ["truncated", "bad_magic", *TABLE_FAULTS])
    def test_corrupt_checkpoint(self, tmp_path, fault):
        cfg = ModelConfig(num_classes=2, embed_dim=8, depths=[1, 1], heads=[2, 2])
        ck = tmp_path / "m.mckp"
        save_checkpoint(Checkpoint.from_model(SwinSegModel(cfg, seed=0)), ck)
        if fault in TABLE_FAULTS:
            edit_header(ck, TABLE_FAULTS[fault])
        else:
            blob = ck.read_bytes()
            ck.write_bytes(blob[:-1001] if fault == "truncated" else b"X" + blob[1:])
        write_mvol(Volume(np.zeros((16, 16, 16), np.float32), (1, 1, 1)), tmp_path / "in.mvol")
        r = segctl("infer", "--ckpt", ck, "--in", tmp_path / "in.mvol",
                   "--out", tmp_path / "out.mvol", "--patch", 16)
        assert r.returncode == 4, r.stderr

    @pytest.mark.parametrize("other", [dict(dims=(8, 8, 9)), dict(spacing=(2, 1, 1))])
    def test_evaluate_mismatched_pair(self, tmp_path, other):
        def label_dir(name, dims=(8, 8, 8), spacing=(1, 1, 1)):
            d = tmp_path / name
            d.mkdir()
            write_mvol(LabelMap(np.zeros(dims, np.uint8), spacing, 1), d / "c.mvol")
            return d
        r = segctl("evaluate", "--pred", label_dir("pred", **other), "--gt", label_dir("gt"),
                   "--report", tmp_path / "rep.json")
        assert r.returncode == 4, r.stderr


    def test_evaluate_no_class(self, tmp_path):
        # a reference with no class at all used to give a NaN mean and exit 0
        for name in ("pred", "gt"):
            (tmp_path / name).mkdir()
            write_mvol(LabelMap(np.zeros((4, 4, 4), np.uint8), (1, 1, 1), 0),
                       tmp_path / name / "c.mvol")
        r = segctl("evaluate", "--pred", tmp_path / "pred", "--gt", tmp_path / "gt",
                   "--report", tmp_path / "rep.json")
        assert r.returncode == 4, r.stderr
        assert "no class to evaluate" in r.stderr
        assert not (tmp_path / "rep.json").exists()

    @pytest.mark.parametrize("command", ["train", "finetune"])
    def test_class_count_mismatch(self, tiny_data, tmp_path, command):
        # the model's class count (5 by default, 2 in the checkpoint) against
        # 3-class label maps: named before the first step
        cfg = tmp_path / "cfg.json"
        model = {k: v for k, v in TINY_MODEL.items() if k != "num_classes"}
        cfg.write_text(json.dumps({"model": model, "train": TINY_TRAIN}))
        args = ["--data", tiny_data / "manifest.json", "--out", tmp_path / "run",
                "--config", cfg, "--steps", 1]
        want = 5
        if command == "finetune":
            want = 2
            ck = tmp_path / "m.mckp"
            mcfg = ModelConfig(**{**model, "num_classes": want})
            save_checkpoint(Checkpoint.from_model(SwinSegModel(mcfg, seed=0)), ck)
            args += ["--ckpt", ck]
        r = segctl(command, *args)
        assert r.returncode == 3, r.stderr
        assert f"model has {want} classes" in r.stderr and "has 3" in r.stderr
        assert not (tmp_path / "run" / "checkpoints").exists()


class TestPhantom:
    def test_dataset_layout(self, tiny_data):
        man = load_manifest(tiny_data / "manifest.json")
        assert len(man.split("labeled")) == 2
        assert len(man.split("unlabeled")) == 1
        assert len(man.split("val")) == 1
        img = read_mvol(man.image_path(man.cases[0]))
        assert img.dims == (32, 32, 32)


class TestPreprocess:
    def test_roundtrip_run(self, tiny_data, tmp_path):
        man = load_manifest(tiny_data / "manifest.json")
        src = man.image_path(man.cases[0])
        out = tmp_path / "pp.mvol"
        r = segctl("preprocess", "--in", src, "--out", out)
        assert r.returncode == 0, r.stderr
        vol = read_mvol(out)
        assert abs(float(vol.voxels.mean())) < 1e-5


class TestTrainRunDir:
    def test_artifacts(self, tiny_run):
        assert (tiny_run / "config.json").exists()
        assert (tiny_run / "checkpoints" / "final.mckp").exists()
        logs = [json.loads(l) for l in (tiny_run / "logs.jsonl").read_text().splitlines()]
        assert len(logs) == 3 and logs[-1]["step"] == 3

    def test_flag_overrides_echoed(self, tiny_data, tmp_path):
        # --steps/--lr flags win over the config file values
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"model": {"num_classes": 3, "embed_dim": 8,
                                             "depths": [1, 1], "heads": [2, 2]},
                                   "train": {"steps": 9, "patch_size": 16,
                                             "batch_size": 1}}))
        r = segctl("train", "--data", tiny_data / "manifest.json", "--out", tmp_path,
                   "--config", cfg, "--steps", 2, "--lr", 5e-4)
        assert r.returncode == 0, r.stderr
        echoed = json.loads((tmp_path / "config.json").read_text())
        assert echoed["train"]["steps"] == 2
        assert echoed["train"]["lr"] == pytest.approx(5e-4)


class TestInferencePipeline:
    def test_infer_postprocess_evaluate(self, tiny_data, tiny_run, tmp_path):
        man = load_manifest(tiny_data / "manifest.json")
        val = man.split("val")[0]
        pred_dir = tmp_path / "preds"
        gt_dir = tmp_path / "gt"
        pred_dir.mkdir(), gt_dir.mkdir()
        r = segctl("infer", "--ckpt", tiny_run / "checkpoints" / "final.mckp",
                   "--in", man.image_path(val), "--out", pred_dir / "v.mvol",
                   "--patch", 16)
        assert r.returncode == 0, r.stderr
        pred = read_mvol(pred_dir / "v.mvol")
        assert pred.dims == (32, 32, 32)

        # postprocess is idempotent on an already-postprocessed prediction
        r = segctl("postprocess", "--in", pred_dir / "v.mvol",
                   "--out", tmp_path / "pp.mvol")
        assert r.returncode == 0, r.stderr
        assert np.array_equal(read_mvol(tmp_path / "pp.mvol").labels, pred.labels)

        import shutil
        shutil.copy(man.label_path(val), gt_dir / "v.mvol")
        report = tmp_path / "report.json"
        r = segctl("evaluate", "--pred", pred_dir, "--gt", gt_dir,
                   "--report", report)
        assert r.returncode == 0, r.stderr
        rep = json.loads(report.read_text())
        assert {"cases", "mean_dsc", "mean_nsd", "tau_mm"} <= set(rep)
        assert len(rep["cases"]) == 1

    def test_evaluate_identity_is_perfect(self, tiny_data, tmp_path):
        man = load_manifest(tiny_data / "manifest.json")
        val = man.split("val")[0]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        d1.mkdir(), d2.mkdir()
        import shutil
        shutil.copy(man.label_path(val), d1 / "x.mvol")
        shutil.copy(man.label_path(val), d2 / "x.mvol")
        report = tmp_path / "rep.json"
        r = segctl("evaluate", "--pred", d1, "--gt", d2, "--report", report)
        assert r.returncode == 0, r.stderr
        rep = json.loads(report.read_text())
        assert rep["mean_dsc"] == 1.0 and rep["mean_nsd"] == 1.0


class TestPseudolabelFinetune:
    def test_full_semi_supervised_round(self, tiny_data, tiny_run, tmp_path):
        ck = tiny_run / "checkpoints" / "final.mckp"
        pl_dir = tmp_path / "pseudo"
        r = segctl("pseudolabel", "--ckpt", ck, "--data",
                   tiny_data / "manifest.json", "--out", pl_dir,
                   "--config", tiny_run / "config.json")
        assert r.returncode == 0, r.stderr
        man2 = load_manifest(pl_dir / "manifest.json")
        assert len(man2.split("pseudo")) == 1
        assert len(man2.split("unlabeled")) == 0

        ft_dir = tmp_path / "ft"
        r = segctl("finetune", "--ckpt", ck, "--data", pl_dir / "manifest.json",
                   "--out", ft_dir, "--config", tiny_run / "config.json",
                   "--steps", 2)
        assert r.returncode == 0, r.stderr
        assert (ft_dir / "checkpoints" / "final.mckp").exists()


class TestThreads:
    def test_threads_flag_accepted(self, tiny_data, tmp_path):
        r = segctl("--threads", 1, "phantom", "--labeled", 1, "--unlabeled", 0,
                   "--val", 0, "--classes", 2, "--dim", 32,
                   "--out", tmp_path / "d")
        assert r.returncode == 0, r.stderr
