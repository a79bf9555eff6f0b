"""Labeled-graph molecule representations, neighborhood-subgraph count
features, kernels, from-scratch learners and an evaluation protocol.

The usual flow: parse molecules (:func:`parse_smiles`, :func:`parse_sdf`,
:func:`protein_to_chain_graph`, or :func:`load_pairs` for interaction
pairs, whose blank structures a :class:`Resolver` reads from a read-only
cache directory), extract count features
(:func:`height_features`, :func:`pair_features`), assemble a
:class:`DatasetMatrix`, then train (:func:`fit` for a :class:`PipelineSpec`,
or :func:`train_forest`, :func:`train_mlp`, :func:`train_partitioned_net`,
:func:`train_svm` directly) and evaluate
(:func:`run_protocol`, :func:`auroc`, :func:`welch_t`).
"""

from .elements import ATOMIC_MASSES, RESIDUE_MASSES
from .errors import ConfigError, TrainingError
from .evaluate import (
    MetricSample,
    TTestResult,
    accuracy,
    auroc,
    kfold_indices,
    roc_points,
    shuffle_split_indices,
    welch_t,
)
from .features import (
    DatasetMatrix,
    FeatureVector,
    FeatureVocabulary,
    build_matrix,
    height_features,
    load_sparse,
    load_vocab,
    pair_features,
    save_sparse,
    save_vocab,
)
from .forest import ForestConfig, ForestModel, train_forest
from .graph import (
    AtomNode,
    MolecularGraph,
    ParseError,
    SkippedRecord,
    parse_sdf,
    parse_smiles,
    protein_to_chain_graph,
    sequence_from_fasta,
)
from .ingest import (
    IngestError,
    InteractionPair,
    PairDataset,
    ResolutionError,
    Resolver,
    StructureRecord,
    featurize_pair,
    featurize_pairs,
    label_records,
    load_pairs,
)
from .kernels import (
    KernelError,
    KernelizedModel,
    ZeroRowWarning,
    gram_matrix,
    kernel_block_ids,
    kernel_feature_rows,
    save_gram,
)
from .neural import (
    NetConfig,
    NetModel,
    partition_bounds,
    partition_mask,
    train_mlp,
    train_partitioned_net,
)
from .persist import load_model, save_model
from .protocol import (
    PipelineSpec,
    Protocol,
    ProtocolResult,
    fit,
    read_metrics_csv,
    run_protocol,
    write_metrics_csv,
    write_roc_csv,
    write_summary_json,
)
from .signatures import (
    SubgraphTooLargeError,
    neighborhood_subgraph,
)
from .svm import SvmConfig, SvmModel, train_svm

__version__ = "0.1.0"

__all__ = [
    "ATOMIC_MASSES",
    "AtomNode",
    "ConfigError",
    "DatasetMatrix",
    "FeatureVector",
    "FeatureVocabulary",
    "ForestConfig",
    "ForestModel",
    "IngestError",
    "InteractionPair",
    "KernelError",
    "KernelizedModel",
    "MetricSample",
    "MolecularGraph",
    "NetConfig",
    "NetModel",
    "PairDataset",
    "ParseError",
    "PipelineSpec",
    "Protocol",
    "ProtocolResult",
    "RESIDUE_MASSES",
    "ResolutionError",
    "Resolver",
    "SkippedRecord",
    "StructureRecord",
    "SubgraphTooLargeError",
    "SvmConfig",
    "SvmModel",
    "TTestResult",
    "TrainingError",
    "ZeroRowWarning",
    "accuracy",
    "auroc",
    "build_matrix",
    "featurize_pair",
    "featurize_pairs",
    "fit",
    "gram_matrix",
    "height_features",
    "kernel_block_ids",
    "kernel_feature_rows",
    "kfold_indices",
    "label_records",
    "load_model",
    "load_pairs",
    "load_sparse",
    "load_vocab",
    "neighborhood_subgraph",
    "pair_features",
    "parse_sdf",
    "parse_smiles",
    "partition_bounds",
    "partition_mask",
    "protein_to_chain_graph",
    "read_metrics_csv",
    "roc_points",
    "run_protocol",
    "save_gram",
    "save_model",
    "save_sparse",
    "save_vocab",
    "sequence_from_fasta",
    "shuffle_split_indices",
    "train_forest",
    "train_mlp",
    "train_partitioned_net",
    "train_svm",
    "welch_t",
    "write_metrics_csv",
    "write_roc_csv",
    "write_summary_json",
]
