"""Command-line entry points: train, evaluate, export-confidence, synth.

Configuration precedence: explicit flags > config file > defaults.  The
config file is flat `key=value` lines (# comments allowed); unknown keys are
rejected.  Every run writes a manifest.json capturing the fully resolved
configuration, so a run can be reproduced from its output directory alone.

Exit codes: 0 success, 1 configuration errors, 2 data errors, 3 numeric or
checkpoint failures.
"""

import argparse
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import List, Optional, Tuple

from . import data as data_mod
from . import denoiser as denoiser_mod
from . import evaluation, trainer
from .errors import CheckpointError, ConfigError, DataError, GbsrError, NumericError
from .ioutil import atomic_write_text


@dataclass
class RunConfig:
    train: trainer.TrainConfig
    interactions: Optional[str] = None
    social: Optional[str] = None
    out: Optional[str] = None
    checkpoint: Optional[str] = None
    seeds: Tuple[int, ...] = (0,)
    split_ratio: float = 0.8
    # synthetic generator knobs
    clusters: int = 2
    users_per_cluster: int = 100
    items_per_cluster: int = 100
    interaction_rate: float = 0.15
    social_rate: float = 0.1
    noise_fraction: float = 0.5
    # train-config keys the user set explicitly (file or flag); these override
    # a checkpoint's embedded config during evaluate/export
    explicit_train: frozenset = frozenset()


_TRAIN_KEYS = {f.name for f in fields(trainer.TrainConfig)}
_RUN_KEYS = {f.name for f in fields(RunConfig)} - {"train"}


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _parse_int_list(raw: str) -> Tuple[int, ...]:
    try:
        return tuple(int(part) for part in str(raw).split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"expected a comma-separated integer list, got {raw!r}") from None


def _coerce_key(key: str, raw: str):
    int_keys = {"embedding_dim", "layers", "batch_size", "epochs", "eval_every",
                "patience", "seed", "clusters", "users_per_cluster",
                "items_per_cluster"}
    float_keys = {"learning_rate", "reg_lambda", "beta", "sigma_sq",
                  "temperature", "epsilon", "validation_ratio", "split_ratio",
                  "interaction_rate", "social_rate", "noise_fraction"}
    bool_keys = {"detach_original", "kernel_normalize"}
    try:
        if key in int_keys:
            return int(raw)
        if key in float_keys:
            return float(raw)
        if key in bool_keys:
            return _parse_bool(raw)
        if key in ("cutoffs", "seeds"):
            return _parse_int_list(raw)
    except ValueError:
        raise ConfigError(f"bad value for {key}: {raw!r}") from None
    return raw  # path-like keys stay strings


def read_config_file(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"missing config file: {p}")
    out = {}
    for lineno, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{p}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _TRAIN_KEYS and key not in _RUN_KEYS:
            raise ConfigError(f"{p}:{lineno}: unknown config key {key!r}")
        out[key] = _coerce_key(key, raw.strip())
    return out


def resolve_config(file_values: dict, flag_values: dict) -> RunConfig:
    """defaults < config file < explicit flags"""
    merged = dict(file_values)
    for key, value in flag_values.items():
        if value is not None:
            merged[key] = value
    train_kwargs = {k: v for k, v in merged.items() if k in _TRAIN_KEYS}
    run_kwargs = {k: v for k, v in merged.items() if k in _RUN_KEYS - {"explicit_train"}}
    if "seeds" in run_kwargs:
        run_kwargs["seeds"] = tuple(run_kwargs["seeds"])
        if not run_kwargs["seeds"]:
            raise ConfigError("at least one seed is required")
        train_kwargs.setdefault("seed", run_kwargs["seeds"][0])
    elif "seed" in train_kwargs:
        run_kwargs["seeds"] = (train_kwargs["seed"],)
    try:
        train = trainer.TrainConfig(**train_kwargs)
    except TypeError as err:
        raise ConfigError(str(err)) from None
    train.validate()
    cfg = RunConfig(train=train, explicit_train=frozenset(train_kwargs),
                    **run_kwargs)
    if not (0.0 < cfg.split_ratio <= 1.0):
        raise ConfigError(f"split_ratio must lie in (0, 1], got {cfg.split_ratio}")
    return cfg


def _require(cfg: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) in (None, ""):
            raise ConfigError(f"--{name.replace('_', '-')} is required for this command")


def _load_dataset(cfg: RunConfig) -> data_mod.Dataset:
    return data_mod.load_dataset(cfg.interactions, cfg.social,
                                 split_ratio=cfg.split_ratio,
                                 seed=cfg.train.seed)


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _write_manifest(cfg: RunConfig, command: str, outputs: List[str]) -> None:
    manifest = {
        "command": command,
        "effective_config": trainer.config_as_dict(cfg.train),
        "inputs": {"interactions": cfg.interactions, "social": cfg.social,
                   "checkpoint": cfg.checkpoint, "split_ratio": cfg.split_ratio},
        "seeds": list(cfg.seeds),
        "synthetic": {"clusters": cfg.clusters,
                      "users_per_cluster": cfg.users_per_cluster,
                      "items_per_cluster": cfg.items_per_cluster,
                      "interaction_rate": cfg.interaction_rate,
                      "social_rate": cfg.social_rate,
                      "noise_fraction": cfg.noise_fraction},
        "outputs": sorted(outputs),
    }
    atomic_write_text(Path(cfg.out) / "manifest.json", _json_text(manifest))


def run_train(cfg: RunConfig) -> None:
    _require(cfg, "interactions", "social", "out")
    dataset = _load_dataset(cfg)
    out_dir = Path(cfg.out)
    outputs: List[str] = []
    runs: List[evaluation.RunMetrics] = []
    users = 0
    for seed in cfg.seeds:
        train_cfg = replace(cfg.train, seed=int(seed))
        best, log = trainer.fit(train_cfg, dataset)
        ckpt_name = f"checkpoint_seed{seed}.bin"
        log_name = f"train_log_seed{seed}.jsonl"
        trainer.save_checkpoint(best, train_cfg, out_dir / ckpt_name)
        atomic_write_text(out_dir / log_name,
                          "".join(json.dumps(r, sort_keys=True) + "\n" for r in log))
        report = trainer.evaluate_state(best, dataset, train_cfg)
        runs.append(evaluation.RunMetrics(int(seed), dict(report.recall),
                                          dict(report.ndcg)))
        users = report.evaluated_user_count
        outputs += [ckpt_name, log_name]
    cutoffs = tuple(cfg.train.cutoffs)
    combined = evaluation.MetricsReport(
        recall={n: sum(r.recall[n] for r in runs) / len(runs) for n in cutoffs},
        ndcg={n: sum(r.ndcg[n] for r in runs) / len(runs) for n in cutoffs},
        evaluated_user_count=users, per_run=tuple(runs))
    atomic_write_text(out_dir / "metrics.json", _json_text(combined.to_json_dict()))
    outputs.append("metrics.json")
    _write_manifest(cfg, "train", outputs)


def _load_checkpoint_and_data(cfg: RunConfig):
    _require(cfg, "checkpoint", "interactions", "social", "out")
    state, ckpt_cfg = trainer.load_checkpoint(cfg.checkpoint)
    # the checkpoint's embedded config governs evaluation; explicitly given
    # keys (file or flag) override it
    overrides = {k: getattr(cfg.train, k) for k in cfg.explicit_train}
    merged = replace(ckpt_cfg, **overrides) if overrides else ckpt_cfg
    merged.validate()
    dataset = data_mod.load_dataset(cfg.interactions, cfg.social,
                                    split_ratio=cfg.split_ratio,
                                    seed=merged.seed)
    rows = state.embeddings.matrix.shape[0]
    if rows != dataset.node_count:
        raise DataError(
            f"checkpoint {cfg.checkpoint} has {rows} embedding rows but the dataset "
            f"has {dataset.node_count} users + items; it was trained on other data")
    return state, merged, dataset


def run_evaluate(cfg: RunConfig) -> None:
    state, ckpt_cfg, dataset = _load_checkpoint_and_data(cfg)
    report = trainer.evaluate_state(state, dataset, ckpt_cfg)
    atomic_write_text(Path(cfg.out) / "metrics.json",
                      _json_text(report.to_json_dict()))
    merged = replace(cfg, train=ckpt_cfg)
    _write_manifest(merged, "evaluate", ["metrics.json"])


def run_export_confidence(cfg: RunConfig) -> None:
    state, ckpt_cfg, dataset = _load_checkpoint_and_data(cfg)
    cmap = denoiser_mod.denoise(state.denoiser, state.embeddings.matrix,
                                dataset, mode="deterministic")
    text = denoiser_mod.confidence_csv(cmap)
    if len(cmap):
        conf = cmap.confidence
        text += (f"# edges={len(cmap)} mean_confidence={float(conf.mean())!r} "
                 f"min={float(conf.min())!r} max={float(conf.max())!r}\n")
    else:
        text += "# edges=0\n"
    atomic_write_text(Path(cfg.out) / "confidence.csv", text)
    merged = replace(cfg, train=ckpt_cfg)
    _write_manifest(merged, "export-confidence", ["confidence.csv"])


def run_synth(cfg: RunConfig) -> None:
    _require(cfg, "out")
    spec = data_mod.SyntheticSpec(
        cluster_count=cfg.clusters,
        users_per_cluster=cfg.users_per_cluster,
        items_per_cluster=cfg.items_per_cluster,
        interaction_rate=cfg.interaction_rate,
        intra_social_rate=cfg.social_rate,
        noise_edge_fraction=cfg.noise_fraction,
        seed=cfg.train.seed,
    )
    dataset, labels = data_mod.generate_synthetic(spec)
    out_dir = Path(cfg.out)
    atomic_write_text(out_dir / "interactions.tsv", data_mod.interactions_text(dataset))
    atomic_write_text(out_dir / "social.tsv", data_mod.social_text(dataset))
    atomic_write_text(out_dir / "noise_labels.tsv",
                      data_mod.noise_labels_text(dataset, labels))
    _write_manifest(cfg, "synth",
                    ["interactions.tsv", "social.tsv", "noise_labels.tsv"])


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; usage errors are config errors
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gbsr", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="flat key=value config file")
        sp.add_argument("--out", help="output directory")
        sp.add_argument("--seed", dest="seeds", type=_parse_int_list,
                        help="comma-separated seed list")

    def add_data(sp):
        sp.add_argument("--interactions", help="user-item edge file (TSV)")
        sp.add_argument("--social", help="user-user edge file (TSV)")
        sp.add_argument("--split-ratio", dest="split_ratio", type=float,
                        help="per-user train fraction (default 0.8)")

    def add_train_flags(sp):
        sp.add_argument("--beta", type=float, help="bottleneck weight")
        sp.add_argument("--sigma2", dest="sigma_sq", type=float,
                        help="RBF kernel bandwidth (sigma squared)")
        sp.add_argument("--layers", type=int, help="propagation depth")
        sp.add_argument("--lr", dest="learning_rate", type=float)
        sp.add_argument("--batch-size", dest="batch_size", type=int)
        sp.add_argument("--lambda", dest="reg_lambda", type=float,
                        help="L2 weight on the embedding table")
        sp.add_argument("--epsilon", type=float,
                        help="additive floor on relaxed social weights")
        sp.add_argument("--temperature", type=float,
                        help="relaxation temperature")
        sp.add_argument("--epochs", type=int)
        sp.add_argument("--eval-every", dest="eval_every", type=int)
        sp.add_argument("--patience", type=int,
                        help="evaluations without improvement before stopping")
        sp.add_argument("--dim", dest="embedding_dim", type=int)
        sp.add_argument("--cutoffs", type=_parse_int_list,
                        help="comma-separated ranking cutoffs")
        sp.add_argument("--validation-ratio", dest="validation_ratio", type=float,
                        help="carve this per-user train fraction out for model selection")
        sp.add_argument("--detach-original", dest="detach_original",
                        action="store_const", const=True,
                        help="hold the original-graph branch constant in the bottleneck")
        sp.add_argument("--no-kernel-normalize", dest="kernel_normalize",
                        action="store_const", const=False,
                        help="feed raw rows to the kernels instead of L2-normalized ones")

    sp_train = sub.add_parser("train", help="fit on an interaction + social dataset")
    add_common(sp_train)
    add_data(sp_train)
    add_train_flags(sp_train)

    sp_eval = sub.add_parser("evaluate", help="rank with a saved checkpoint")
    add_common(sp_eval)
    add_data(sp_eval)
    sp_eval.add_argument("--checkpoint", help="checkpoint file from train")
    sp_eval.add_argument("--cutoffs", type=_parse_int_list)

    sp_conf = sub.add_parser("export-confidence",
                             help="write per-social-edge confidence CSV")
    add_common(sp_conf)
    add_data(sp_conf)
    sp_conf.add_argument("--checkpoint", help="checkpoint file from train")

    sp_synth = sub.add_parser("synth", help="generate a planted-noise dataset")
    add_common(sp_synth)
    sp_synth.add_argument("--clusters", type=int)
    sp_synth.add_argument("--users-per-cluster", dest="users_per_cluster", type=int)
    sp_synth.add_argument("--items-per-cluster", dest="items_per_cluster", type=int)
    sp_synth.add_argument("--interaction-rate", dest="interaction_rate", type=float)
    sp_synth.add_argument("--social-rate", dest="social_rate", type=float)
    sp_synth.add_argument("--noise-fraction", dest="noise_fraction", type=float)
    return parser


_COMMANDS = {
    "train": run_train,
    "evaluate": run_evaluate,
    "export-confidence": run_export_confidence,
    "synth": run_synth,
}


def run(argv=None) -> None:
    parser = build_parser()
    args = vars(parser.parse_args(argv))
    command = args.pop("command")
    config_path = args.pop("config", None)
    file_values = read_config_file(config_path) if config_path else {}
    cfg = resolve_config(file_values, args)
    _COMMANDS[command](cfg)


def main(argv=None) -> int:
    try:
        run(argv)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2
    except (NumericError, CheckpointError) as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return 3
    except GbsrError as err:  # catch-all for any future taxonomy growth
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
