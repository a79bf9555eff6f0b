"""Acceptance gate: one verdict line per criterion.

Each test prints a single ``[PASS]``/``[FAIL]``/``[SKIP]`` line naming the
property it checked and the measured values, so a full run reads as a
checklist.  Criterion 1 needs the public mutagenicity SDF; point
``SUBMOL_BURSI_SDF`` at it to enable that run.
"""

import hashlib
import itertools
import math
import os
import random
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.integrate

from submol.cli import main
from submol.evaluate import MetricSample, auroc, welch_t
from submol.features import (
    build_matrix,
    height_features,
    pair_features,
)
from submol.forest import ForestConfig
from submol.graph import parse_smiles
from submol.ingest import featurize_pairs, load_bursi, load_pairs
from submol.kernels import ZeroRowWarning, gram_matrix
from submol.neural import (
    MLP_HIDDEN,
    PARTITIONED_HIDDEN,
    init_params,
    net_gradients,
    partition_mask,
)
from submol.protocol import PipelineSpec, Protocol, run_protocol
from submol.signatures import canonical_key

from helpers import (
    auroc_by_pair_counting,
    nitro_smiles_dataset,
    permuted_graph,
    random_labeled_graph,
    random_molecule_smiles,
)
from test_neural import assert_gradients_match, numeric_gradients

DATA = os.path.join(os.path.dirname(__file__), "data")
BURSI_ENV = "SUBMOL_BURSI_SDF"


class _Info:
    def __init__(self, line):
        self.line = line


@contextmanager
def criterion(capsys, num, default_line):
    info = _Info(default_line)
    try:
        yield info
    except BaseException:
        with capsys.disabled():
            print(f"[FAIL] criterion {num}: {info.line}", flush=True)
        raise
    with capsys.disabled():
        print(f"[PASS] criterion {num}: {info.line}", flush=True)


# --- criterion 1: mutagenicity benchmark (conditional on the dataset) -------


def test_criterion_01_mutagenicity_benchmark(capsys):
    path = os.environ.get(BURSI_ENV, "")
    if not path or not os.path.exists(path):
        with capsys.disabled():
            print(
                f"[SKIP] criterion 1: mutagenicity benchmark run "
                f"(set {BURSI_ENV} to the labeled 4337-compound SDF to enable)",
                flush=True,
            )
        pytest.skip("benchmark dataset not supplied")
    label_key = os.environ.get("SUBMOL_BURSI_LABEL_KEY", "Ames")
    positive = os.environ.get("SUBMOL_BURSI_POSITIVE", "mutagen")
    with criterion(capsys, 1, "mutagenicity benchmark run") as info:
        with open(path, encoding="utf-8", errors="replace") as handle:
            loaded = load_bursi(handle, label_key, positive)
        vectors = [height_features(g, [1]) for g in loaded.graphs]
        data = build_matrix(vectors, loaded.labels)
        result = run_protocol(
            data,
            PipelineSpec(
                "rf",
                ForestConfig(trees=100),
                threads=min(8, os.cpu_count() or 1),
            ),
            Protocol.parse("shuffle:100:2/3"),
            seed=0,
        )
        mean_auroc = result.samples["auroc"].mean
        mean_acc = result.samples["val_acc"].mean
        info.line = (
            f"mutagenicity benchmark: mean AUROC {mean_auroc:.5f} in "
            f"[0.87, 0.92], mean val accuracy {mean_acc:.5f} in [0.80, 0.85] "
            f"over 100 shuffle trials"
        )
        assert 0.87 <= mean_auroc <= 0.92
        assert 0.80 <= mean_acc <= 0.85


# --- criterion 2: synthetic interaction fixture -----------------------------


def test_criterion_02_interaction_fixture(capsys):
    with criterion(capsys, 2, "synthetic drug-target fixture") as info:
        with open(
            os.path.join(DATA, "interaction_200.csv"), encoding="utf-8", newline=""
        ) as handle:
            dataset = load_pairs(handle)
        assert len(dataset.pairs) == 200
        vectors, labels, ids = featurize_pairs(dataset, heights=[0, 1])
        data = build_matrix(vectors, labels, ids=ids)
        result = run_protocol(
            data,
            PipelineSpec("rf", ForestConfig(trees=100)),
            Protocol.parse("kfold:10"),
            seed=0,
        )
        mean_auroc = result.samples["auroc"].mean
        info.line = (
            f"forest on 200 synthetic interaction pairs: 10-fold mean AUROC "
            f"{mean_auroc:.5f} >= 0.95"
        )
        assert mean_auroc >= 0.95


# --- criterion 3: feature-count conservation --------------------------------


def test_criterion_03_feature_conservation(capsys):
    with criterion(capsys, 3, "height-feature conservation") as info:
        rnd = random.Random(303)
        molecules = 1000
        for _ in range(molecules):
            graph = parse_smiles(random_molecule_smiles(rnd))
            for h in (0, 1, 2, 3):
                vector = height_features(graph, [h])
                assert sum(vector.entries.values()) == len(graph)
        info.line = (
            f"height-h feature counts sum exactly to the heavy-atom count "
            f"({molecules} random molecules x heights 0-3)"
        )


# --- criterion 4: isomorphism invariance ------------------------------------


def test_criterion_04_isomorphism_invariance(capsys):
    with criterion(capsys, 4, "feature invariance under relabeling") as info:
        rnd = random.Random(404)
        graphs = 500
        for _ in range(graphs):
            graph = random_labeled_graph(rnd)
            perm = list(range(len(graph)))
            rnd.shuffle(perm)
            twin = permuted_graph(graph, perm)
            ours = height_features(graph, [0, 1, 2, 3])
            theirs = height_features(twin, [0, 1, 2, 3])
            assert ours.entries == theirs.entries
            assert ours.masses == theirs.masses
            ours_p = pair_features(graph, [0, 1], [0, 1, 2])
            theirs_p = pair_features(twin, [0, 1], [0, 1, 2])
            assert ours_p.entries == theirs_p.entries
        info.line = (
            f"feature dictionaries identical under random node relabelings "
            f"({graphs} graphs, height and pair modes)"
        )


# --- criterion 5: canonicalization vs exhaustive search ---------------------


def _connected_masks(n, pairs):
    """Edge bitmasks whose graphs on ``n`` vertices are connected."""
    masks = []
    for mask in range(1 << len(pairs)):
        adj = [0] * n
        for b, (i, j) in enumerate(pairs):
            if mask >> b & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        seen = frontier = 1
        while frontier:
            grown = 0
            for v in range(n):
                if frontier >> v & 1:
                    grown |= adj[v]
            frontier = grown & ~seen
            seen |= grown
        if seen == (1 << n) - 1:
            masks.append(mask)
    return masks


def _oracle_forms(n, pairs, masks):
    """Minimum serialization over every root-preserving vertex bijection.

    Returns an int array indexed ``[mask, labeling, root]`` where two entries
    are equal exactly when some permutation maps one rooted labeled graph
    onto the other carrying root to root.
    """
    n_edges = len(pairs)
    edge_index = {p: b for b, p in enumerate(pairs)}
    masks_arr = np.asarray(masks, dtype=np.int64)
    edge_bits = (masks_arr[:, None] >> np.arange(n_edges)) & 1
    label_bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    out = np.full((len(masks), 1 << n, n), np.iinfo(np.int64).max, dtype=np.int64)
    for sigma in itertools.permutations(range(n)):
        edge_weights = np.zeros(max(n_edges, 1), dtype=np.int64)
        for b, (i, j) in enumerate(pairs):
            a, c = sigma[i], sigma[j]
            edge_weights[b] = 1 << edge_index[(min(a, c), max(a, c))]
        new_edges = edge_bits @ edge_weights[:n_edges]
        label_weights = np.asarray([1 << sigma[v] for v in range(n)], dtype=np.int64)
        new_labels = label_bits @ label_weights
        candidate = (new_edges[:, None] << n) | new_labels[None, :]
        root = sigma.index(0)  # this permutation carries `root` to position 0
        np.minimum(out[:, :, root], candidate, out=out[:, :, root])
    return out


def _signature_hashes(n, pairs, masks):
    """Stable 64-bit hashes of ``canonical_key`` over the same index grid."""
    out = np.empty((len(masks), 1 << n, n), dtype=np.uint64)
    labelings = [
        ["N" if lm >> v & 1 else "C" for v in range(n)] for lm in range(1 << n)
    ]
    for mi, mask in enumerate(masks):
        edges = [(i, j, 1) for b, (i, j) in enumerate(pairs) if mask >> b & 1]
        for lm, labels in enumerate(labelings):
            for root in range(n):
                key = canonical_key(labels, edges, root)
                digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
                out[mi, lm, root] = int.from_bytes(digest, "big")
    return out


@pytest.mark.slow
def test_criterion_05_canonicalization_oracle(capsys):
    with criterion(capsys, 5, "canonical keys vs exhaustive search") as info:
        all_oracle = []
        all_keys = []
        total = 0
        for n in range(1, 7):
            pairs = list(itertools.combinations(range(n), 2))
            masks = _connected_masks(n, pairs)
            oracle = _oracle_forms(n, pairs, masks)
            keys = _signature_hashes(n, pairs, masks)
            total += oracle.size
            # namespace the oracle forms by n; graphs of different sizes are
            # never isomorphic, while key hashes are globally comparable
            all_oracle.append(oracle.ravel().astype(np.uint64) | np.uint64(n) << np.uint64(56))
            all_keys.append(keys.ravel())
        oracle_flat = np.concatenate(all_oracle)
        keys_flat = np.concatenate(all_keys)
        classes = len(np.unique(oracle_flat))
        distinct_keys = len(np.unique(keys_flat))
        joint = len(np.unique(np.stack([oracle_flat, keys_flat], axis=1), axis=0))
        info.line = (
            f"canonical keys and exhaustive-permutation classes agree on all "
            f"{total} rooted 2-label graphs with <=6 nodes ({classes} classes)"
        )
        # equal keys <=> same class: the (class, key) relation is a bijection
        assert joint == classes, "some class maps to more than one key"
        assert joint == distinct_keys, "some key appears in more than one class"


# --- criterion 6: AUROC rank formula vs pair counting -----------------------


def test_criterion_06_auroc_oracle(capsys):
    with criterion(capsys, 6, "AUROC vs exhaustive pair counting") as info:
        rnd = random.Random(606)
        instances = 200
        worst = 0.0
        for _ in range(instances):
            n = rnd.randint(2, 50)
            grid = [rnd.uniform(-2, 2) for _ in range(rnd.randint(2, 8))]
            scores = [rnd.choice(grid) for _ in range(n)]
            labels = [rnd.choice((1, -1)) for _ in range(n)]
            labels[0], labels[1] = 1, -1  # both classes present
            ours = auroc(scores, labels)
            oracle = auroc_by_pair_counting(scores, labels)
            worst = max(worst, abs(ours - oracle))
            assert abs(ours - oracle) <= 1e-12
        info.line = (
            f"rank-based AUROC matches pair counting on {instances} tied "
            f"instances (max |diff| {worst:.2e} <= 1e-12)"
        )


# --- criterion 7: gradient checks -------------------------------------------


def test_criterion_07_gradient_checks(capsys):
    with criterion(capsys, 7, "network gradients vs finite differences") as info:
        rng = np.random.default_rng(707)
        instances = 20
        for _ in range(instances):
            features = int(rng.integers(4, 9))
            p = init_params(features, MLP_HIDDEN, rng)
            x = rng.normal(size=features)
            target = float(rng.integers(0, 2))
            assert_gradients_match(
                net_gradients(p, x, target), numeric_gradients(p, x, target)
            )
        for _ in range(instances):
            features = int(rng.integers(4, 9))
            mask = partition_mask(features)
            p = init_params(features, PARTITIONED_HIDDEN, rng, mask)
            x = rng.normal(size=features)
            target = float(rng.integers(0, 2))
            gW1, gb1, gW2, gb2 = net_gradients(p, x, target)
            assert np.all(gW1[mask == 0.0] == 0.0)
            assert_gradients_match((gW1, gb1, gW2, gb2), numeric_gradients(p, x, target))
        info.line = (
            f"analytic gradients within 1e-4 of central differences on "
            f"{instances} instances per net; masked weights get exactly zero"
        )


# --- criterion 8: kernel matrix properties ----------------------------------


def test_criterion_08_kernel_properties(capsys):
    with criterion(capsys, 8, "Gram matrix properties") as info:
        rnd = random.Random(808)
        datasets = 50
        worst_asym, worst_eig, worst_diag = 0.0, 0.0, 0.0
        for _ in range(datasets):
            n = rnd.randint(2, 20)
            vectors = [
                height_features(parse_smiles(random_molecule_smiles(rnd)), [0, 1])
                for _ in range(n)
            ]
            data = build_matrix(vectors, [1] * n)
            for kernel in ("cosine", "nspdk"):
                gram = gram_matrix(data, kernel).values
                asym = float(np.max(np.abs(gram - gram.T)))
                min_eig = float(np.linalg.eigvalsh(gram).min())
                diag = float(np.max(np.abs(np.diag(gram) - 1.0)))
                worst_asym = max(worst_asym, asym)
                worst_eig = min(worst_eig, min_eig)
                worst_diag = max(worst_diag, diag)
                assert asym <= 1e-12
                assert min_eig >= -1e-8
                assert diag <= 1e-12
        # an all-unseen row goes to zero: flagged, and its diagonal is 0
        vocab = build_matrix([height_features(parse_smiles("CC"), [0])], [1]).vocab
        frozen = build_matrix(
            [height_features(parse_smiles(s), [0]) for s in ("CC", "O")],
            [1, -1],
            vocab=vocab,
        )
        with pytest.warns(ZeroRowWarning):
            gram = gram_matrix(frozen, "cosine").values
        assert gram[1, 1] == 0.0
        assert gram[0, 1] == 0.0
        info.line = (
            f"{datasets} random Gram matrices per kernel: max asymmetry "
            f"{worst_asym:.1e} <= 1e-12, min eigenvalue {worst_eig:.1e} >= -1e-8, "
            f"unit diagonal within {worst_diag:.1e}; zero rows flagged"
        )


# --- criterion 9: CLI determinism -------------------------------------------


def _cli_round(base, corpus, threads):
    out = os.path.join(base, f"t{threads}")
    os.makedirs(out, exist_ok=True)
    features = os.path.join(out, "features.txt")
    vocab = os.path.join(out, "vocab.txt")
    model = os.path.join(out, "model.json")
    metrics = os.path.join(out, "metrics.csv")
    summary = os.path.join(out, "summary.json")
    assert main([
        "featurize", "--input", corpus, "--format", "smiles", "--heights", "0-1",
        "--out-features", features, "--out-vocab", vocab,
    ]) == 0
    assert main([
        "train", "--features", features, "--vocab", vocab, "--algo", "rf",
        "--trees", "20", "--seed", "7", "--model-out", model,
    ]) == 0
    assert main([
        "evaluate", "--features", features, "--vocab", vocab, "--algo", "rf",
        "--trees", "20", "--seed", "7", "--protocol", "shuffle:5",
        "--threads", str(threads), "--out-metrics", metrics,
        "--out-summary", summary,
    ]) == 0
    return {
        name: open(path, "rb").read()
        for name, path in [
            ("features", features), ("vocab", vocab), ("model", model),
            ("metrics", metrics), ("summary", summary),
        ]
    }


def test_criterion_09_cli_determinism(capsys, tmp_path):
    with criterion(capsys, 9, "CLI pipeline determinism") as info:
        smiles, labels = nitro_smiles_dataset(random.Random(909), n_each=15)
        corpus = tmp_path / "mols.smi"
        corpus.write_text(
            "".join(f"{s} {y:+d}\n" for s, y in zip(smiles, labels)),
            encoding="utf-8",
        )
        first = _cli_round(str(tmp_path / "run1"), str(corpus), threads=1)
        second = _cli_round(str(tmp_path / "run2"), str(corpus), threads=1)
        eight = _cli_round(str(tmp_path / "run3"), str(corpus), threads=8)
        assert first == second, "rerun with the same seed changed an output file"
        assert first == eight, "thread count changed an output file"
        info.line = (
            "featurize->train->evaluate twice and with --threads 1 vs 8: "
            "all output files byte-identical"
        )


# --- criterion 10: Welch t-test ---------------------------------------------


def _t_density(df):
    const = math.gamma((df + 1.0) / 2.0) / (
        math.sqrt(df * math.pi) * math.gamma(df / 2.0)
    )
    return lambda x: const * (1.0 + x * x / df) ** (-(df + 1.0) / 2.0)


def test_criterion_10_welch_ttest(capsys):
    with criterion(capsys, 10, "Welch t-test vs integration oracle") as info:
        flat = MetricSample("auroc", (0.9, 0.9, 0.9))
        spread = MetricSample("auroc", (0.88, 0.90, 0.92, 0.91))
        for sample in (flat, spread):
            result = welch_t(sample, sample)
            assert result.t == 0.0
            assert result.p == 1.0
            assert not result.significant

        rng = np.random.default_rng(1010)
        trials = 50
        worst = 0.0
        for _ in range(trials):
            na, nb = int(rng.integers(3, 30)), int(rng.integers(3, 30))
            a = rng.normal(rng.uniform(0.5, 0.9), rng.uniform(0.01, 0.1), na)
            b = rng.normal(rng.uniform(0.5, 0.9), rng.uniform(0.01, 0.1), nb)
            result = welch_t(
                MetricSample("auroc", tuple(a)), MetricSample("auroc", tuple(b))
            )
            va, vb = a.var(ddof=1), b.var(ddof=1)
            se_sq = va / na + vb / nb
            t_oracle = (a.mean() - b.mean()) / math.sqrt(se_sq)
            df_oracle = se_sq**2 / (
                (va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1)
            )
            assert abs(result.t - t_oracle) <= 1e-12 * max(1.0, abs(t_oracle))
            assert abs(result.df - df_oracle) <= 1e-12 * df_oracle
            p_oracle = 2.0 * scipy.integrate.quad(
                _t_density(result.df), abs(result.t), np.inf
            )[0]
            worst = max(worst, abs(result.p - p_oracle))
            assert abs(result.p - p_oracle) <= 1e-8
            assert result.significant == (result.p < 0.05)
        info.line = (
            f"identical samples give t=0, p=1; on {trials} random pairs the "
            f"p-value matches numeric integration (max |diff| {worst:.1e} <= "
            f"1e-8) and the alpha=0.05 verdict follows p"
        )
