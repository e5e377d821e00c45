"""Command-line entry points: train, evaluate, export-confidence, synth.

Configuration precedence: explicit flags > config file > defaults.  The
config file is flat `key=value` lines (# comments allowed); unknown keys are
rejected.  Each key's flag is `--` plus the key with `_` turned into `-`
(`embedding_dim` is `--embedding-dim`).  Every run writes a manifest.json
capturing the fully resolved configuration, so a run can be reproduced from
its output directory alone.

Exit codes: 0 success, 1 configuration errors, 2 data errors, 3 numeric or
checkpoint failures.
"""

import argparse
import json
import sys
import typing
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Optional, Tuple

from . import data as data_mod
from . import denoiser as denoiser_mod
from . import evaluation, graph, trainer
from .errors import CheckpointError, ConfigError, DataError, GbsrError, NumericError
from .ioutil import atomic_write_text


@dataclass
class RunConfig:
    train: trainer.TrainConfig
    synthetic: data_mod.SyntheticSpec
    interactions: Optional[str] = None
    social: Optional[str] = None
    out: Optional[str] = None
    checkpoint: Optional[str] = None
    # only train takes several, one model each; the first seeds split and synth
    seed: Tuple[int, ...] = (0,)
    split_ratio: float = 0.8
    # train-config keys the user set explicitly (file or flag); evaluate and
    # export check them against a checkpoint's embedded config
    explicit_train: frozenset = frozenset()

    def __post_init__(self):
        if not (0.0 < self.split_ratio <= 1.0):
            raise ConfigError(f"split_ratio must lie in (0, 1], got {self.split_ratio}")
        if any(s < 0 for s in self.seed):
            raise ConfigError(f"every seed must be >= 0, got {list(self.seed)}")


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
_RUN_KEYS = {k: t for k, t in typing.get_type_hints(RunConfig).items()
             if k not in ("train", "synthetic", "explicit_train")}
# `seed` is a RunConfig list; TrainConfig.seed and SyntheticSpec.seed are
# only ever its first entry
_TRAIN_KEYS, _SYNTH_KEYS = ({k: t for k, t in typing.get_type_hints(cls).items()
                             if k != "seed"}
                            for cls in (trainer.TrainConfig, data_mod.SyntheticSpec))
_KEY_TYPES = {**_TRAIN_KEYS, **_SYNTH_KEYS, **_RUN_KEYS}


def _coerce_key(key: str, raw: str):
    try:
        return _PARSERS[_KEY_TYPES[key]](raw)
    except ValueError:
        raise ConfigError(f"bad value for {key}: {raw!r}") from None


def read_config_file(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"missing config file: {p}")
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config file {p}: {err}") from None
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
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
    merged.update((k, v) for k, v in flag_values.items() if v is not None)
    run_kwargs, synth_kwargs, train_kwargs = (
        {k: v for k, v in merged.items() if k in keys}
        for keys in (_RUN_KEYS, _SYNTH_KEYS, _TRAIN_KEYS))
    if "seed" in run_kwargs:
        if not run_kwargs["seed"]:
            raise ConfigError("at least one seed is required")
        train_kwargs["seed"] = synth_kwargs["seed"] = run_kwargs["seed"][0]
    return RunConfig(train=trainer.TrainConfig(**train_kwargs),
                     synthetic=data_mod.SyntheticSpec(**synth_kwargs),
                     explicit_train=frozenset(train_kwargs), **run_kwargs)


def _require(cfg: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) in (None, ""):
            raise ConfigError(f"--{name.replace('_', '-')} is required for this command")


def _check_out(out: str) -> None:
    """Fail before any work when --out cannot become a directory."""
    for p in (Path(out), *Path(out).parents):
        if p.exists() and not p.is_dir():
            raise ConfigError(f"--out {out}: {p} exists and is not a directory")


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
        "seeds": list(cfg.seed),
        "outputs": sorted(outputs),
        # the thread counts the run had; neither changes a result
        "blas_threads": graph.BLAS_THREADS,
        "workers": graph.WORKERS,
    }
    if command == "synth":  # the other commands read edge files
        manifest["synthetic"] = {k: getattr(cfg.synthetic, k) for k in _SYNTH_KEYS}
    atomic_write_text(Path(cfg.out) / "manifest.json", _json_text(manifest))


def run_train(cfg: RunConfig) -> None:
    _require(cfg, "interactions", "social", "out")
    dataset = _load_dataset(cfg)
    # the final evaluation scores the full split: fail before training
    evaluation.require_test_pairs(dataset)
    out_dir = Path(cfg.out)
    outputs: List[str] = []
    reports: List[evaluation.MetricsReport] = []
    for seed in cfg.seed:
        train_cfg = replace(cfg.train, seed=int(seed))
        best, log = trainer.fit(train_cfg, dataset)
        ckpt_name = f"checkpoint_seed{seed}.bin"
        log_name = f"train_log_seed{seed}.jsonl"
        trainer.save_checkpoint(best, train_cfg, out_dir / ckpt_name)
        atomic_write_text(out_dir / log_name,
                          "".join(json.dumps(r, sort_keys=True) + "\n" for r in log))
        reports.append(trainer.evaluate_state(best, dataset, train_cfg))
        outputs += [ckpt_name, log_name]
    cutoffs = tuple(cfg.train.cutoffs)
    metrics = evaluation.MetricsReport(
        recall={n: sum(r.recall[n] for r in reports) / len(reports) for n in cutoffs},
        ndcg={n: sum(r.ndcg[n] for r in reports) / len(reports) for n in cutoffs},
        evaluated_user_count=reports[-1].evaluated_user_count).to_json_dict()
    metrics["per_seed"] = [
        {"seed": int(seed), "recall": {str(n): r.recall[n] for n in cutoffs},
         "ndcg": {str(n): r.ndcg[n] for n in cutoffs}}
        for seed, r in zip(cfg.seed, reports)]
    atomic_write_text(out_dir / "metrics.json", _json_text(metrics))
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
    train = replace(ckpt_cfg, **overrides)
    cfg = replace(cfg, train=train, seed=(train.seed,))
    dataset = _load_dataset(cfg)
    rows = state.embeddings.matrix.shape[0]
    if rows != dataset.node_count:
        raise DataError(
            f"checkpoint {cfg.checkpoint} has {rows} embedding rows but the dataset "
            f"has {dataset.node_count} users + items; it was trained on other data")
    return state, cfg, dataset


def run_evaluate(cfg: RunConfig) -> None:
    state, cfg, dataset = _load_checkpoint_and_data(cfg)
    report = trainer.evaluate_state(state, dataset, cfg.train)
    atomic_write_text(Path(cfg.out) / "metrics.json",
                      _json_text(report.to_json_dict()))
    _write_manifest(cfg, "evaluate", ["metrics.json"])


def run_export_confidence(cfg: RunConfig) -> None:
    state, cfg, dataset = _load_checkpoint_and_data(cfg)
    cmap = denoiser_mod.denoise(state.denoiser, state.embeddings.matrix, dataset)
    atomic_write_text(Path(cfg.out) / "confidence.csv",
                      denoiser_mod.confidence_csv(cmap))
    _write_manifest(cfg, "export-confidence", ["confidence.csv"])


def run_synth(cfg: RunConfig) -> None:
    _require(cfg, "out")
    dataset, labels = data_mod.generate_synthetic(cfg.synthetic)
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


# flag help by config key; a key without an entry gets none
_HELP = {
    "out": "output directory",
    "seed": "comma-separated seed list",
    "interactions": "user-item edge file (TSV)",
    "social": "user-user edge file (TSV)",
    "split_ratio": "per-user train fraction (default 0.8)",
    "checkpoint": "checkpoint file from train",
    "beta": "bottleneck weight",
    "sigma_sq": "RBF kernel bandwidth (sigma squared)",
    "layers": "propagation depth",
    "reg_lambda": "L2 weight on the embedding table",
    "epsilon": "additive floor on relaxed social weights",
    "temperature": "relaxation temperature",
    "patience": "evaluations without improvement before stopping",
    "cutoffs": "comma-separated ranking cutoffs",
    "validation_ratio": "carve this per-user train fraction out for model selection",
    "detach_original": "hold the original-graph branch constant in the bottleneck",
    "kernel_normalize": "L2-normalize rows before the kernels (false feeds raw rows)",
}
# the keys of every command that reads the edge files
_DATA_KEYS = ("out", "seed", "interactions", "social", "split_ratio")
# subcommand -> (runner, help, the config keys it takes as flags)
_COMMANDS = {
    "train": (run_train, "fit on an interaction + social dataset",
              _DATA_KEYS + tuple(_TRAIN_KEYS)),
    "evaluate": (run_evaluate, "rank with a saved checkpoint",
                 _DATA_KEYS + ("checkpoint", "cutoffs")),
    "export-confidence": (run_export_confidence,
                          "write per-social-edge confidence CSV",
                          _DATA_KEYS + ("checkpoint",)),
    "synth": (run_synth, "generate a planted-noise dataset",
              ("out", "seed") + tuple(_SYNTH_KEYS)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gbsr", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, keys) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text, allow_abbrev=False)
        sp.add_argument("--config", help="flat key=value config file")
        for key in keys:
            sp.add_argument("--" + key.replace("_", "-"), dest=key,
                            type=_PARSERS[_KEY_TYPES[key]], help=_HELP.get(key))
    return parser


def run(argv=None) -> None:
    args = vars(build_parser().parse_args(argv))
    command = args.pop("command")
    config_path = args.pop("config", None)
    file_values = read_config_file(config_path) if config_path else {}
    cfg = resolve_config(file_values, args)
    if command != "train" and len(cfg.seed) > 1:
        raise ConfigError(f"{command} takes one seed, got {list(cfg.seed)}; "
                          "only train fits one model per seed")
    if cfg.out:
        _check_out(cfg.out)
    _COMMANDS[command][0](cfg)


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
