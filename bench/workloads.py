"""The benchmark's workloads: input size, the five CLI steps, check floors.

Sizes are chosen so one round of the five steps takes 5-10 s on a 2-core
machine, so a 30 s run holds three to five rounds; steps much shorter than
a second are repeated inside a round so their medians hold steady.
"""

from __future__ import annotations

from dataclasses import dataclass, field

STEPS = ("featurize", "gram", "evaluate", "train", "report")


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    input_file: str
    featurize: tuple[str, ...]
    heights: tuple[int, ...]
    distances: tuple[int, ...]
    learner: tuple[str, ...]  # flags shared by evaluate and train
    protocol: str
    trials: int
    threads: int  # --threads of the timed run; traced runs use 1
    auroc_floor: float  # mean validation AUROC of evaluate
    roc_floor: float  # area of the ROC that report writes
    repeats: dict[str, int] = field(default_factory=dict)

    def argv(self, step: str, d: dict[str, str], seed: int, threads: int) -> list[str]:
        """Arguments of one CLI step; ``d`` maps artifact names to paths."""
        data = ["--features", d["features"], "--vocab", d["vocab"]]
        fit = [*data, *self.learner, "--seed", str(seed), "--threads", str(threads)]
        return {
            "featurize": ["featurize", "--input", d["input"], *self.featurize,
                          "--out-features", d["features"], "--out-vocab", d["vocab"]],
            "gram": ["gram", *data, "--kernel", "nspdk", "--out", d["gram"]],
            "evaluate": ["evaluate", *fit, "--protocol", self.protocol,
                         "--out-metrics", d["metrics"], "--out-summary", d["summary"]],
            "train": ["train", *fit, "--model-out", d["model"]],
            "report": ["report", "--model", d["model"], *data, "--out", d["roc"]],
        }[step]


#: Which artifacts each step writes.
OUTPUTS = {
    "featurize": ("features", "vocab"),
    "gram": ("gram",),
    "evaluate": ("metrics", "summary"),
    "train": ("model",),
    "report": ("roc",),
}

WORKLOADS = {
    w.name: w
    for w in (
        # The forest and SDF parsing do most of the work, and the trials
        # use both cores; kernels and the canonical search do little.
        Workload(
            name="mutagenicity_sdf",
            rows=1000,
            input_file="input.sdf",
            featurize=("--format", "sdf", "--heights", "1",
                       "--label-key", "Ames", "--positive-value", "mutagen"),
            heights=(1,),
            distances=(0,),
            learner=("--algo", "rf", "--trees", "8"),
            protocol="shuffle:4:2/3",
            trials=4,
            threads=2,
            auroc_floor=0.75,
            roc_floor=0.95,
            repeats={"report": 6},
        ),
        # A wide pair-feature vocabulary: the dense kernels and the
        # kernelized model file dominate time and peak RSS; no forest.
        Workload(
            name="interaction_pairs",
            rows=240,
            input_file="input.csv",
            featurize=("--format", "pairs", "--mode", "pair",
                       "--heights", "0-2", "--distances", "0-5"),
            heights=(0, 1, 2),
            distances=(0, 1, 2, 3, 4, 5),
            # At C=1 the SVM's step count, and so train_s, moved by a third
            # between seeds; at C=0.1 it is the same work for every seed.
            learner=("--algo", "svm", "--kernel", "nspdk", "--cost", "0.1"),
            protocol="kfold:3",
            trials=3,
            threads=1,
            auroc_floor=0.85,
            roc_floor=0.9,
        ),
        # A few symmetric molecules make canonical_key most of featurize;
        # the small partitioned nets do little.
        Workload(
            name="symmetric_smiles",
            rows=250,
            input_file="input.smi",
            featurize=("--format", "smiles", "--heights", "0-2"),
            heights=(0, 1, 2),
            distances=(0,),
            # One epoch gives every seed the same amount of net training; with
            # early stopping the epoch count moved evaluate_s and train_s by
            # half between seeds.  A small validation split leaves the rows
            # to the one epoch.
            learner=("--algo", "pnet", "--epochs", "1", "--val-fraction", "0.05"),
            protocol="kfold:5",
            trials=5,
            threads=1,
            auroc_floor=0.55,
            roc_floor=0.55,
            repeats={"gram": 3, "evaluate": 3, "train": 3, "report": 10},
        ),
    )
}
