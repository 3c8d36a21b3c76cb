"""Fixture weights for the benchmark: the acceptance preset, pretrained.

The weights are kept as a plain ``.npz`` of float32 arrays plus a JSON
record holding the preset, the recipe and the sha256 of the array content.
At set-up the benchmark verifies the hash and turns the arrays into a
``.mckp`` through the program's own ``Checkpoint``/``save_checkpoint``, so the
file always follows the current checkpoint layout.

Run this file to remake the weights from their seed by pretraining:

    python3 swinbench/fixture.py            # 500 steps, about 9 min on one core

With one BLAS thread the training is deterministic, so a remake on the same
numpy/BLAS build reproduces the recorded sha256.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
WEIGHTS = os.path.join(HERE, "fixture", "weights.npz")
RECORD = os.path.join(HERE, "fixture", "weights.json")

# the acceptance preset (tests/test_acceptance.py: E2E_MODEL, E2E_TRAIN)
MODEL = {"num_classes": 4, "embed_dim": 12, "patch_size": 2, "window": 4,
         "depths": [1, 1], "heads": [2, 4]}
TRAIN = {"patch_size": 32, "batch_size": 3, "lr": 5e-3, "pos_sample_prob": 0.8,
         "seed": 0}
# pretraining of the fixture: the acceptance data make-up and step count,
# with a cosine learning-rate decay so that the weights end at a settled
# point (with a constant rate one phantom in 300 fell to 0.52 DSC)
RECIPE = {"steps": 500, "labeled": 8, "dim": 64, "partial_prob": 0.5,
          "phantom_seed": 0, "lr_decay": "cosine"}


class FixtureError(RuntimeError):
    pass


def params_sha256(params) -> str:
    """Hash of the array content: names, shapes, dtypes and little-endian
    bytes in name order. Independent of the container's own bytes."""
    import numpy as np
    h = hashlib.sha256()
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name])
        h.update(name.encode("utf-8") + b"\0")
        h.update(json.dumps([list(arr.shape), arr.dtype.str]).encode("ascii"))
        h.update(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())
    return h.hexdigest()


def load_checkpoint_params():
    """(ModelConfig, params, step) of the fixture, hash-verified."""
    import numpy as np
    from swinseg.model import ModelConfig
    with open(RECORD) as f:
        record = json.load(f)
    with np.load(WEIGHTS, allow_pickle=False) as z:
        params = {k: z[k] for k in z.files}
    digest = params_sha256(params)
    if digest != record["sha256"]:
        raise FixtureError(f"fixture weights hash {digest} != recorded {record['sha256']}")
    return ModelConfig.from_dict(record["model"]), params, record["recipe"]["steps"]


def write_mckp(path) -> str:
    """Write the fixture as a .mckp through the program's checkpoint code."""
    from swinseg.model import Checkpoint, save_checkpoint
    cfg, params, step = load_checkpoint_params()
    save_checkpoint(Checkpoint(cfg, params, step=step), path)
    return path


def remake():
    """Pretrain the preset from its seed by RECIPE and store the weights +
    record."""
    import numpy as np
    from swinseg.model import ModelConfig
    from swinseg.phantom import PhantomConfig, build_dataset
    from swinseg.training import TrainConfig, train

    steps = RECIPE["steps"]
    runs = os.path.join(HERE, "runs")
    os.makedirs(runs, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=runs) as tmp:
        pcfg = PhantomConfig(dims=(RECIPE["dim"],) * 3, num_classes=MODEL["num_classes"],
                             seed=RECIPE["phantom_seed"])
        manifest = build_dataset(RECIPE["labeled"], 0, 0, pcfg, tmp,
                                 partial_prob=RECIPE["partial_prob"])
        tcfg = TrainConfig.from_dict(dict(TRAIN, steps=steps, lr_decay=RECIPE["lr_decay"]))

        def log(rec):
            if rec["step"] % 50 == 0 or rec["step"] == steps:
                print(f"step {rec['step']:4d} loss {rec['loss']:.4f}", flush=True)

        ckpt = train(manifest, ModelConfig(**MODEL), tcfg, log_fn=log)
    params = {k: v.astype(np.float32) for k, v in ckpt.params.items()}
    os.makedirs(os.path.dirname(WEIGHTS), exist_ok=True)
    np.savez(WEIGHTS, **params)
    record = {"model": MODEL, "train": TRAIN, "recipe": RECIPE,
              "sha256": params_sha256(params)}
    with open(RECORD, "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {WEIGHTS} sha256={record['sha256']}")


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    remake()
