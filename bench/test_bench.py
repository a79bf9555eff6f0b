"""Fast tests of the benchmark itself: python3 -m pytest bench -q

The generator must be a pure function of its seed, and every output check
must pass on real artifacts and reject a deliberately corrupted copy.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from gen import (  # noqa: E402
    GENERATORS, generate, symmetric_kinds, symmetric_molecule, to_smiles,
)
from workloads import STEPS, WORKLOADS  # noqa: E402


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_generator_is_deterministic_per_seed(workload):
    text, facts = generate(workload, 5, 50)
    again, facts_again = generate(workload, 5, 50)
    other, _ = generate(workload, 6, 50)
    assert text == again and facts == facts_again
    assert other != text
    assert len(facts) == 50


def test_symmetric_molecules_have_the_intended_shape():
    rnd = random.Random(0)
    tetra = to_smiles(symmetric_molecule(rnd, "tetra_tbu"))
    assert tetra == "C(C(C)(C)C)(C(C)(C)C)(C(C)(C)C)C(C)(C)C"
    neo = to_smiles(symmetric_molecule(rnd, "tetra_neopentyl"))
    assert neo == "C(CC(C)(C)C)(CC(C)(C)C)(CC(C)(C)C)CC(C)(C)C"
    assert symmetric_kinds(10).count("tetra_tbu") == 1


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Artifacts of one tiny mutagenicity_sdf round, read back as text."""
    from submol import cli

    wl = dataclasses.replace(WORKLOADS["mutagenicity_sdf"], rows=40,
                             learner=("--algo", "rf", "--trees", "3"),
                             protocol="shuffle:2:2/3", trials=2, threads=1)
    work = tmp_path_factory.mktemp("round")
    names = ("input", "features", "vocab", "gram", "metrics", "summary", "model", "roc")
    paths = {name: str(work / name) for name in names}
    text, facts = generate(wl.name, 1, wl.rows)
    (work / "input").write_text(text)
    for step in STEPS:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(wl.argv(step, paths, 1, 1)) == 0, step
    read = {name: (work / name).read_text() for name in names}
    return wl, facts, read


def _run_check(name, wl, facts, art):
    from submol import persist

    blocks = checks.check_vocab(art["vocab"])
    if name == "vocab":
        return
    if name == "features":
        checks.check_features(art["features"], blocks, facts,
                              list(wl.heights), list(wl.distances))
    elif name == "gram":
        checks.check_gram(art["gram"], art["features"], blocks)
    elif name == "metrics":
        checks.check_metrics(art["metrics"], art["summary"], wl.trials, 0.0)
    elif name == "roc":
        positives = sum(f.label == 1 for f in facts)
        checks.check_roc(art["roc"], 0.0, positives, len(facts) - positives)
    elif name == "model":
        checks.check_model_roundtrip(art["model"], persist.load_model, persist.save_model)


CHECKS = ("vocab", "features", "gram", "metrics", "roc", "model")


@pytest.mark.parametrize("name", CHECKS)
def test_checks_pass_on_real_artifacts(artifacts, name):
    wl, facts, art = artifacts
    _run_check(name, wl, facts, art)


def _asymmetric_gram(art):
    lines = art["gram"].splitlines()
    row = lines[2].split()
    row[0] = repr(float(row[0]) / 2 + 0.01)
    lines[2] = " ".join(row)
    return {**art, "gram": "\n".join(lines) + "\n"}


def _dropped_count(art):
    lines = art["features"].splitlines()
    lines[0] = lines[0].rsplit(" ", 1)[0]
    return {**art, "features": "\n".join(lines) + "\n"}


def _non_monotone_roc(art):
    lines = art["roc"].splitlines()
    lines[2], lines[3] = lines[3], lines[2]
    return {**art, "roc": "\n".join(lines) + "\n"}


def _off_lattice_roc(art):
    lines = art["roc"].splitlines()
    fpr, tpr, threshold = lines[2].split(",")
    lines[2] = ",".join((repr(float(fpr) * 0.999), repr(float(tpr) * 0.999), threshold))
    return {**art, "roc": "\n".join(lines) + "\n"}


def _swapped_vocab(art):
    lines = art["vocab"].splitlines()
    a, b = lines[0].split("\t"), lines[1].split("\t")
    lines[0] = "\t".join((a[0], b[1], b[2]))
    lines[1] = "\t".join((b[0], a[1], a[2]))
    return {**art, "vocab": "\n".join(lines) + "\n"}


def _summary_off(art):
    return {**art, "summary": art["summary"].replace('"trials": 2', '"trials": 3', 1)}


def _model_reformatted(art):
    return {**art, "model": art["model"].replace(",", ", ", 1)}


@pytest.mark.parametrize("name, corrupt, reason", [
    ("gram", _asymmetric_gram, "not symmetric"),
    ("features", _dropped_count, "counts"),
    ("roc", _non_monotone_roc, "not monotone"),
    ("roc", _off_lattice_roc, "whole number"),
    ("vocab", _swapped_vocab, "order"),
    ("metrics", _summary_off, "summary"),
    ("model", _model_reformatted, "load -> save"),
])
def test_checks_reject_corrupted_artifacts(artifacts, name, corrupt, reason):
    wl, facts, art = artifacts
    with pytest.raises(checks.CheckError, match=reason):
        _run_check(name, wl, facts, corrupt(art))
