"""Pinned workloads and their input generation.

Sizes are fixed here once and never resized or re-seeded; only the workload
seed passed on the command line varies.  Run as a script, this module writes
one workload's inputs (the two TSV files and, for eval-full, a checkpoint)
into a directory, so the measured process sees only generated files:

    python3 perfbench/workloads.py --workload eval-full --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str              # "train" or "eval"
    spec_args: tuple       # SyntheticSpec fields before the seed
    detach_original: bool
    traced_ops: int        # operations per half of a traced run

    def spec(self, seed: int):
        from gbsr.data import SyntheticSpec
        return SyntheticSpec(*self.spec_args, seed)

    def config(self, seed: int):
        from gbsr.trainer import TrainConfig
        return TrainConfig(detach_original=self.detach_original, seed=seed)


WORKLOADS = {w.name: w for w in (
    # ROADMAP bench size, the paper's full objective: HSIC on ~1270 distinct
    # batch users plus the tape original-graph branch dominate a step
    Workload("train-paper", "train", (4, 500, 500, 0.05, 0.02, 0.5),
             detach_original=False, traced_ops=1),
    # social-heavy graph: the edge MLP over ~135k pairs and propagation over
    # ~314k entries dominate; the only plain_original_readout path
    Workload("train-social", "train", (4, 1500, 500, 0.01, 0.02, 0.5),
             detach_original=True, traced_ops=1),
    # the `gbsr evaluate` read path on the train-paper dataset; ranking
    # dominates and the tape is never touched
    Workload("eval-full", "eval", (4, 500, 500, 0.05, 0.02, 0.5),
             detach_original=False, traced_ops=5),
)}

INTERACTIONS = "interactions.tsv"
SOCIAL = "social.tsv"
CHECKPOINT = "checkpoint.bin"


def write_inputs(workload: Workload, seed: int, out: Path) -> None:
    from gbsr import data, trainer
    import numpy as np

    dataset, _ = data.generate_synthetic(workload.spec(seed))
    out.mkdir(parents=True, exist_ok=True)
    (out / INTERACTIONS).write_text(data.interactions_text(dataset))
    (out / SOCIAL).write_text(data.social_text(dataset))
    if workload.kind == "eval":
        # the checkpoint is a fresh init state for the dataset as the
        # measured process will load it (same re-indexing, same split seed)
        loaded = data.load_dataset(out / INTERACTIONS, out / SOCIAL, seed=seed)
        config = workload.config(seed)
        state = trainer.init(config, loaded, np.random.default_rng(seed))
        trainer.save_checkpoint(state, config, out / CHECKPOINT)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    write_inputs(WORKLOADS[args.workload], args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
