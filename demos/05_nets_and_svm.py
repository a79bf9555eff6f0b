"""Walkthrough: the three from-scratch learners beyond the forest.

Run with ``python3 demos/05_nets_and_svm.py``.

All learners consume the same ``DatasetMatrix`` and expose the same scoring
interface, so they are interchangeable inside the evaluation protocol:

* a small MLP (3 hidden units) trained by backpropagation with momentum and
  an early stop on a held-out slice of the training data,
* a partitioned net (4 hidden units) whose input connections are masked by
  subgraph mass: the feature columns are sorted by mass and cut into three
  bands, and each hidden unit only sees one or two adjacent bands,
* a soft-margin SVM solved by second-order working-set selection (each
  step moves the pair of multipliers that most improves the dual), with an
  asymmetric box (factor j) for the positive class.
"""

import random

import numpy as np

from submol import (
    NetConfig,
    SvmConfig,
    auroc,
    build_matrix,
    height_features,
    parse_smiles,
    partition_bounds,
    train_mlp,
    train_partitioned_net,
    train_svm,
)

BACKBONES = ["C", "CC", "CCC", "CCO", "CC(C)C", "CCCC", "c1ccccc1", "CCN"]


def toy_dataset(rnd, n_each=30):
    smiles, labels = [], []
    for _ in range(n_each):
        smiles.append("O=N(=O)" + rnd.choice(BACKBONES))
        labels.append(1)
        smiles.append("O=NO" + rnd.choice(BACKBONES))
        labels.append(-1)
    return smiles, labels


def report(name, model, data):
    scores = model.score_rows(data.X)
    above = scores >= model.threshold
    acc = float(np.mean(above == (np.asarray(data.y) > 0)))
    print(f"  {name:<18s} train AUROC {auroc(scores, data.y):.3f}, "
          f"train accuracy {acc:.3f}")
    return scores


def main():
    rnd = random.Random(21)
    smiles, labels = toy_dataset(rnd)
    vectors = [height_features(parse_smiles(s), [0, 1]) for s in smiles]
    data = build_matrix(vectors, labels)
    n, f = data.X.shape
    print(f"dataset: {n} molecules, {f} feature columns "
          f"(nitro group vs its O=N-O isomer)\n")

    print("-- multilayer perceptron --")
    cfg = NetConfig(max_epochs=100)
    mlp = train_mlp(data, cfg, seed=1)
    print(f"  ran {mlp.epochs_run} epochs (cap {cfg.max_epochs}; training "
          f"stops early when a held-out slice stops improving)")
    report("plain", mlp, data)
    voted = train_mlp(data, NetConfig(max_epochs=100, voted=True), seed=1)
    print(f"  the voted variant averages {len(voted.snapshots)} per-epoch "
          f"weight snapshots when scoring")
    report("voted (averaged)", voted, data)
    print()

    print("-- mass-partitioned net --")
    p1, p2, p3 = partition_bounds(f)
    print(f"  mass-sorted columns cut into bands of {p1}/{p2}/{p3}; hidden")
    print(f"  units see band 1, bands 1-2, bands 2-3, band 3 respectively")
    pnet = train_partitioned_net(data, NetConfig(max_epochs=100), seed=1)
    masked = int(np.sum(pnet.params.mask == 0.0))
    print(f"  {masked} of {pnet.params.W1.size} input weights are masked "
          f"and stay exactly zero")
    report("partitioned", pnet, data)
    print()

    print("-- support vector machine --")
    svm = train_svm(data, SvmConfig(kernel="linear", C=1.0, pos_cost_factor=2.0))
    on_margin = int(np.sum(svm.alphas > 1e-8))
    print(f"  {on_margin} of {n} training rows are support vectors; scores")
    print(f"  are signed distances to the hyperplane (|w| = {svm.norm_w:.3f})")
    report("svm (j=2)", svm, data)
    print()
    print("Same data, same scoring interface: any of these can replace the")
    print("forest inside the cross-validation protocol.")


if __name__ == "__main__":
    main()
