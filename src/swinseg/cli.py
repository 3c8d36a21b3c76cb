"""segctl: single executable orchestrating the pipeline end-to-end.

Subcommands: phantom | preprocess | train | pseudolabel | finetune | infer
| postprocess | evaluate. ``train`` and ``finetune`` share one handler:
``finetune`` starts from ``--ckpt`` (whose model config wins over the run
config's) and trains on the labeled and pseudo splits. ``infer`` and
``pseudolabel`` segment through ``training.segment``. Exit codes: 0 success,
2 usage, 3 config, 4 data, 5 runtime. Heavy imports happen after --threads
is applied so the BLAS thread cap actually takes effect.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_DATA = 4
EXIT_RUNTIME = 5


def _apply_threads(argv):
    n = os.environ.get("SEGCTL_THREADS")
    if "--threads" in argv:
        i = argv.index("--threads")
        if i + 1 < len(argv):
            n = argv[i + 1]
    if n is not None:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(n)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="segctl",
                                description="Phantom segmentation pipeline driver")
    p.add_argument("--threads", type=int, default=None,
                   help="cap worker/BLAS threads (1 gives the determinism guarantee); "
                        "env fallback SEGCTL_THREADS")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("phantom", help="generate a synthetic phantom dataset")
    sp.add_argument("--labeled", type=int, default=4, help="number of labeled cases")
    sp.add_argument("--unlabeled", type=int, default=2, help="number of unlabeled cases")
    sp.add_argument("--val", type=int, default=2, help="number of validation cases")
    sp.add_argument("--out", required=True, help="output dataset directory")
    sp.add_argument("--seed", type=int, default=0, help="generation seed")
    sp.add_argument("--classes", type=int, default=5, help="number of foreground classes J")
    sp.add_argument("--dim", type=int, default=64, help="cubic volume extent")
    sp.add_argument("--partial-prob", type=float, default=0.5,
                    help="probability a labeled case is partialized")

    sp = sub.add_parser("preprocess", help="crop non-zero, resample, z-score one volume")
    sp.add_argument("--in", dest="inp", required=True, help="input image .mvol")
    sp.add_argument("--out", required=True, help="output image .mvol")
    sp.add_argument("--spacing", type=float, nargs=3, default=None,
                    help="target spacing (sz sy sx) in mm; default keeps source")
    sp.add_argument("--no-crop", action="store_true", help="skip non-zero cropping")
    sp.add_argument("--no-zscore", action="store_true", help="skip z-score normalization")

    for name, descr in (("train", "pretrain on the labeled split"),
                        ("finetune", "fine-tune on labeled + pseudo splits")):
        sp = sub.add_parser(name, help=descr)
        sp.add_argument("--data", required=True, help="dataset manifest JSON")
        sp.add_argument("--out", required=True, help="run directory")
        sp.add_argument("--config", default=None, help="run config JSON (model/train sections)")
        sp.add_argument("--steps", type=int, default=None, help="override training steps")
        sp.add_argument("--patch", type=int, default=None, help="override patch size")
        sp.add_argument("--lr", type=float, default=None, help="override learning rate")
        sp.add_argument("--seed", type=int, default=None, help="override seed")
        if name == "finetune":
            sp.add_argument("--ckpt", required=True, help="pretrained checkpoint")

    sp = sub.add_parser("pseudolabel", help="predict labels for the unlabeled split")
    sp.add_argument("--ckpt", required=True, help="trained checkpoint")
    sp.add_argument("--data", required=True, help="dataset manifest JSON")
    sp.add_argument("--out", required=True, help="directory for pseudo labels + manifest")
    sp.add_argument("--config", default=None, help="run config JSON")
    sp.add_argument("--connectivity", type=int, choices=(6, 26), default=26,
                    help="component adjacency for post-processing")
    sp.add_argument("--min-size", type=int, default=0, help="drop components below this size")

    sp = sub.add_parser("infer", help="segment one volume with a checkpoint")
    sp.add_argument("--ckpt", required=True, help="trained checkpoint")
    sp.add_argument("--in", dest="inp", required=True, help="input image .mvol")
    sp.add_argument("--out", required=True, help="output label .mvol")
    sp.add_argument("--patch", type=int, default=32, help="sliding window patch size")
    sp.add_argument("--overlap", type=float, default=0.5, help="window overlap in [0,1)")
    sp.add_argument("--no-normalize", action="store_true", help="skip z-score on the input")
    sp.add_argument("--no-postprocess", action="store_true",
                    help="skip keep-largest-component post-processing")
    sp.add_argument("--connectivity", type=int, choices=(6, 26), default=26,
                    help="component adjacency for post-processing")
    sp.add_argument("--min-size", type=int, default=0, help="drop components below this size")

    sp = sub.add_parser("postprocess", help="keep largest connected component per label")
    sp.add_argument("--in", dest="inp", required=True, help="input label .mvol")
    sp.add_argument("--out", required=True, help="output label .mvol")
    sp.add_argument("--connectivity", type=int, choices=(6, 26), default=26,
                    help="component adjacency")
    sp.add_argument("--min-size", type=int, default=0, help="drop components below this size")

    sp = sub.add_parser("evaluate", help="DSC/NSD report for prediction vs reference labels")
    sp.add_argument("--pred", required=True, help="directory of predicted label .mvol files")
    sp.add_argument("--gt", required=True, help="directory of reference label .mvol files")
    sp.add_argument("--nsd-tol", type=float, default=1.0, help="NSD tolerance tau in mm")
    sp.add_argument("--report", required=True, help="output report JSON path")
    return p


def _load_run_config(path, args):
    """Merge config file sections with CLI flag overrides. The file holds at
    most a 'model' and a 'train' section; any other top-level key is a
    ConfigError naming it."""
    from .model import ConfigError, ModelConfig
    from .training import TrainConfig

    raw = {}
    if path is not None:
        with open(path) as f:
            raw = json.load(f)
    if not (isinstance(raw, dict)
            and all(isinstance(raw.get(k, {}), dict) for k in ("model", "train"))):
        raise ConfigError(f"{path}: run config must be a JSON object whose 'model' and "
                          "'train' sections are objects")
    unknown = sorted(set(raw) - {"model", "train"})
    if unknown:
        raise ConfigError(f"{path}: unknown run config sections {', '.join(unknown)} "
                          "(expected 'model' and 'train')")
    mdl = {"num_classes": 5, **raw.get("model", {})}
    trn = dict(raw.get("train", {}))
    for key, attr in (("steps", "steps"), ("patch", "patch_size"),
                      ("lr", "lr"), ("seed", "seed")):
        v = getattr(args, key, None)
        if v is not None:
            trn[attr] = v
    return ModelConfig.from_dict(mdl), TrainConfig.from_dict(trn)


def _jsonl_logger(path):
    f = open(path, "w")

    def log(rec):
        f.write(json.dumps(rec, sort_keys=True) + "\n")
        f.flush()

    return log, f


def cmd_phantom(args):
    from .phantom import PhantomConfig, build_dataset
    cfg = PhantomConfig(dims=(args.dim,) * 3, num_classes=args.classes, seed=args.seed)
    build_dataset(args.labeled, args.unlabeled, args.val, cfg, args.out,
                  partial_prob=args.partial_prob)
    print(f"wrote {args.labeled + args.unlabeled + args.val} cases to {args.out}")


def cmd_preprocess(args):
    from .preprocess import crop_nonzero, resample, zscore
    from .volio import read_mvol, write_mvol
    vol = read_mvol(args.inp)
    if not args.no_crop:
        vol, _ = crop_nonzero(vol)
    if args.spacing is not None:
        vol = resample(vol, tuple(args.spacing))
    if not args.no_zscore:
        vol, _ = zscore(vol)
    write_mvol(vol, args.out)
    print(f"wrote {args.out} dims={vol.dims} spacing={vol.spacing_mm}")


def cmd_train(args):
    """``train`` from fresh weights on the labeled split, or ``finetune``
    from ``--ckpt`` on the labeled and pseudo splits."""
    from .model import load_checkpoint
    from .training import run_training
    from .volio import load_manifest, write_json
    manifest = load_manifest(args.data)
    init = load_checkpoint(args.ckpt) if args.command == "finetune" else None
    model_cfg, tcfg = _load_run_config(args.config, args)
    splits = ("labeled",)
    if init is not None:
        model_cfg, splits = init.cfg, ("labeled", "pseudo")
    os.makedirs(args.out, exist_ok=True)
    write_json(os.path.join(args.out, "config.json"),
               {"model": model_cfg.to_dict(), "train": tcfg.to_dict()})
    log, fh = _jsonl_logger(os.path.join(args.out, "logs.jsonl"))
    try:
        ckpt = run_training(manifest, model_cfg, tcfg, splits=splits, init=init,
                            log_fn=log, out_dir=args.out)
    finally:
        fh.close()
    print(f"{args.command}: {ckpt.step} steps -> "
          f"{os.path.join(args.out, 'checkpoints/final.mckp')}")


def cmd_pseudolabel(args):
    from .model import load_checkpoint
    from .training import generate_pseudo_labels
    from .volio import load_manifest, save_manifest
    manifest = load_manifest(args.data)
    if not manifest.split("unlabeled"):
        print("warning: no unlabeled cases; manifest unchanged", file=sys.stderr)
    ckpt = load_checkpoint(args.ckpt)
    _, tcfg = _load_run_config(args.config, args)
    updated = generate_pseudo_labels(ckpt, manifest, args.out, tcfg,
                                     connectivity=args.connectivity,
                                     min_size=args.min_size)
    save_manifest(updated, os.path.join(args.out, "manifest.json"))
    print(f"wrote pseudo labels + manifest to {args.out}")


def cmd_infer(args):
    from .model import load_checkpoint
    from .training import segment
    from .volio import read_mvol, write_mvol
    ckpt = load_checkpoint(args.ckpt)
    vol = read_mvol(args.inp)
    lab = segment(ckpt.to_model(), vol, args.patch, args.overlap,
                  normalize=not args.no_normalize, postprocess=not args.no_postprocess,
                  connectivity=args.connectivity, min_size=args.min_size)
    write_mvol(lab, args.out)
    print(f"wrote {args.out}")


def cmd_postprocess(args):
    from .postprocess import keep_largest_per_label
    from .volio import read_mvol, write_mvol
    lab = read_mvol(args.inp)
    lab = keep_largest_per_label(lab, connectivity=args.connectivity,
                                 min_size=args.min_size)
    write_mvol(lab, args.out)
    print(f"wrote {args.out}")


def cmd_evaluate(args):
    from .lossmetrics import evaluate_pair
    from .volio import read_mvol, write_json
    names = sorted(n for n in os.listdir(args.gt) if n.endswith(".mvol"))
    if not names:
        raise FileNotFoundError(f"no .mvol label files in {args.gt}")
    reports = []
    for name in names:
        pred_path = os.path.join(args.pred, name)
        if not os.path.exists(pred_path):
            raise FileNotFoundError(f"missing prediction {pred_path}")
        ref = read_mvol(os.path.join(args.gt, name))
        pred = read_mvol(pred_path)
        reports.append(evaluate_pair(pred, ref, case_id=name, tau_mm=args.nsd_tol))
    agg = {
        "cases": [r.to_dict() for r in reports],
        "mean_dsc": sum(r.mean_dsc for r in reports) / len(reports),
        "mean_nsd": sum(r.mean_nsd for r in reports) / len(reports),
        "tau_mm": args.nsd_tol,
    }
    write_json(args.report, agg)
    print(f"mean_dsc={agg['mean_dsc']:.4f} mean_nsd={agg['mean_nsd']:.4f} -> {args.report}")


COMMANDS = {
    "phantom": cmd_phantom,
    "preprocess": cmd_preprocess,
    "train": cmd_train,
    "finetune": cmd_train,
    "pseudolabel": cmd_pseudolabel,
    "infer": cmd_infer,
    "postprocess": cmd_postprocess,
    "evaluate": cmd_evaluate,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    _apply_threads(argv)
    parser = build_parser()
    args = parser.parse_args(argv)  # exits 2 on usage errors

    from .volio import FormatError, ValidationError

    try:
        COMMANDS[args.command](args)
        return 0
    except (FormatError, ValidationError, OSError) as e:
        print(f"error: data: {e}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as e:   # ConfigError and other bad settings
        print(f"error: config: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as e:  # noqa: BLE001
        print(f"error: runtime: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
