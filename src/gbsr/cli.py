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
import typing
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
    # train-config keys the user set explicitly (file or flag); evaluate and
    # export check them against a checkpoint's embedded config
    explicit_train: frozenset = frozenset()

    def __post_init__(self):
        if not (0.0 < self.split_ratio <= 1.0):
            raise ConfigError(f"split_ratio must lie in (0, 1], got {self.split_ratio}")


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


# every config key, file or flag, parses by the type its dataclass field declares
_PARSERS = {int: int, float: float, bool: _parse_bool,
            Tuple[int, ...]: _parse_int_list, Optional[str]: str}
_TRAIN_KEYS = {f.name for f in fields(trainer.TrainConfig)}
_KEY_TYPES = {**typing.get_type_hints(trainer.TrainConfig),
              **{k: t for k, t in typing.get_type_hints(RunConfig).items()
                 if k not in ("train", "explicit_train")}}


def _coerce_key(key: str, raw: str):
    try:
        return _PARSERS[_KEY_TYPES[key]](raw)
    except ValueError:
        raise ConfigError(f"bad value for {key}: {raw!r}") from None


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
        if key not in _KEY_TYPES:
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
    run_kwargs = {k: v for k, v in merged.items() if k not in _TRAIN_KEYS}
    if "seeds" in run_kwargs:
        if not run_kwargs["seeds"]:
            raise ConfigError("at least one seed is required")
        train_kwargs.setdefault("seed", run_kwargs["seeds"][0])
    elif "seed" in train_kwargs:
        run_kwargs["seeds"] = (train_kwargs["seed"],)
    return RunConfig(train=trainer.TrainConfig(**train_kwargs),
                     explicit_train=frozenset(train_kwargs), **run_kwargs)


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
    # the loaded state carries every other key, so of the explicitly given
    # ones (file or flag) only cutoffs and the split seed can change anything
    overrides = {k: getattr(cfg.train, k) for k in cfg.explicit_train}
    clashes = [k for k in sorted(overrides) if k not in ("cutoffs", "seed")
               and overrides[k] != getattr(ckpt_cfg, k)]
    if clashes:
        raise ConfigError(
            f"checkpoint {cfg.checkpoint} was trained with "
            + ", ".join(f"{k}={getattr(ckpt_cfg, k)!r}, not {overrides[k]!r}"
                        for k in clashes)
            + "; only cutoffs and seed can be set for a saved model")
    merged = replace(ckpt_cfg, **overrides)
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
    atomic_write_text(Path(cfg.out) / "confidence.csv",
                      denoiser_mod.confidence_csv(cmap))
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

    def key(sp, flag, dest=None, **kwargs):
        """A flag for a config key, parsed by the key's declared type."""
        dest = dest or flag[2:].replace("-", "_")
        sp.add_argument(flag, dest=dest, type=_PARSERS[_KEY_TYPES[dest]], **kwargs)

    def add_common(sp):
        sp.add_argument("--config", help="flat key=value config file")
        key(sp, "--out", help="output directory")
        key(sp, "--seed", "seeds", help="comma-separated seed list")

    def add_data(sp):
        key(sp, "--interactions", help="user-item edge file (TSV)")
        key(sp, "--social", help="user-user edge file (TSV)")
        key(sp, "--split-ratio", help="per-user train fraction (default 0.8)")

    def add_train_flags(sp):
        key(sp, "--beta", help="bottleneck weight")
        key(sp, "--sigma2", "sigma_sq", help="RBF kernel bandwidth (sigma squared)")
        key(sp, "--layers", help="propagation depth")
        key(sp, "--lr", "learning_rate")
        key(sp, "--batch-size")
        key(sp, "--lambda", "reg_lambda", help="L2 weight on the embedding table")
        key(sp, "--epsilon", help="additive floor on relaxed social weights")
        key(sp, "--temperature", help="relaxation temperature")
        key(sp, "--epochs")
        key(sp, "--eval-every")
        key(sp, "--patience", help="evaluations without improvement before stopping")
        key(sp, "--dim", "embedding_dim")
        key(sp, "--cutoffs", help="comma-separated ranking cutoffs")
        key(sp, "--validation-ratio",
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
    key(sp_eval, "--checkpoint", help="checkpoint file from train")
    key(sp_eval, "--cutoffs")

    sp_conf = sub.add_parser("export-confidence",
                             help="write per-social-edge confidence CSV")
    add_common(sp_conf)
    add_data(sp_conf)
    key(sp_conf, "--checkpoint", help="checkpoint file from train")

    sp_synth = sub.add_parser("synth", help="generate a planted-noise dataset")
    add_common(sp_synth)
    for flag in ("--clusters", "--users-per-cluster", "--items-per-cluster",
                 "--interaction-rate", "--social-rate", "--noise-fraction"):
        key(sp_synth, flag)
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
