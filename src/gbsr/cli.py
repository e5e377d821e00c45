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
import itertools
import json
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import List, Tuple

from . import data as data_mod
from . import denoiser as denoiser_mod
from . import evaluation, graph, trainer
from .config import RunConfig, SyntheticSpec, TrainConfig
from .errors import CheckpointError, ConfigError, DataError, GbsrError, NumericError
from .ioutil import atomic_write_text


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


# every config key, file or flag, parses by the type its field's annotation spells
_PARSERS = {"int": int, "float": float, "bool": _parse_bool,
            "Tuple[int, ...]": _parse_int_list, "Optional[str]": str}
# each key's `config_field`: its type, default, interval and help.  `seed`
# is a RunConfig list; TrainConfig.seed and SyntheticSpec.seed are only
# ever its first entry
_TRAIN_KEYS, _SYNTH_KEYS, _RUN_KEYS = ({f.name: f for f in fields(cls) if f.metadata
                                        and (cls is RunConfig or f.name != "seed")}
                                       for cls in (TrainConfig, SyntheticSpec, RunConfig))
_KEY_FIELDS = {**_TRAIN_KEYS, **_SYNTH_KEYS, **_RUN_KEYS}


def _coerce_key(key: str, raw: str):
    try:
        return _PARSERS[_KEY_FIELDS[key].type](raw)
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
        if key not in _KEY_FIELDS:
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
    return RunConfig(train=TrainConfig(**train_kwargs),
                     synthetic=SyntheticSpec(**synth_kwargs),
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
        train_cfg = replace(cfg.train, seed=seed)
        ckpt_name = f"checkpoint_seed{seed}.bin"
        log_name = f"train_log_seed{seed}.jsonl"
        records = trainer.epochs(train_cfg, dataset)
        first = next(records)  # the input checks run here: a failure writes nothing
        out_dir.mkdir(parents=True, exist_ok=True)
        # an earlier run's manifest would vouch for this run's files until it ends
        (out_dir / "manifest.json").unlink(missing_ok=True)
        # flushed per record: a killed run leaves a byte prefix of the full log
        with open(out_dir / log_name, "w", encoding="utf-8", newline="\n") as log:
            for record, best in itertools.chain([first], records):
                log.write(json.dumps(record, sort_keys=True) + "\n")
                log.flush()
        trainer.save_checkpoint(best, train_cfg, out_dir / ckpt_name)
        reports.append(trainer.evaluate_state(best, dataset, train_cfg))
        outputs += [ckpt_name, log_name]
    cutoffs = cfg.train.cutoffs
    metrics = evaluation.MetricsReport(
        recall={n: sum(r.recall[n] for r in reports) / len(reports) for n in cutoffs},
        ndcg={n: sum(r.ndcg[n] for r in reports) / len(reports) for n in cutoffs},
        evaluated_user_count=reports[-1].evaluated_user_count).to_json_dict()
    metrics["per_seed"] = [
        {"seed": seed, "recall": {str(n): r.recall[n] for n in cutoffs},
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


def _flag_help(key: str) -> str:
    """The key's help, its interval if it has one, and its default unless
    None, written as the flag takes it (`10,20`, `false`)."""
    f = _KEY_FIELDS[key]
    default = (",".join(map(str, f.default)) if isinstance(f.default, tuple)
               else str(f.default).lower() if isinstance(f.default, bool) else f.default)
    parts = [f.metadata["help"], f.metadata["interval"] and f"in {f.metadata['interval']}",
             default is not None and f"default {default}"]
    return "; ".join(part for part in parts if part)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gbsr", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, keys) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text, allow_abbrev=False)
        sp.add_argument("--config", help="flat key=value config file")
        for key in keys:
            sp.add_argument("--" + key.replace("_", "-"), dest=key,
                            type=_PARSERS[_KEY_FIELDS[key].type], help=_flag_help(key))
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


# the stderr label and exit code of each error type; the first that matches
# wins, and GbsrError catches any future growth of the taxonomy
_EXITS = ((ConfigError, "config error", 1), (DataError, "data error", 2),
          (NumericError, "numeric error", 3), (CheckpointError, "checkpoint error", 3),
          (GbsrError, "error", 1))


def main(argv=None) -> int:
    try:
        run(argv)
    except GbsrError as err:
        label, code = next((label, code) for kind, label, code in _EXITS
                           if isinstance(err, kind))
        print(f"{label}: {err}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
