"""The package namespace: everything public is exported."""

import importlib.util
import pathlib
import types

import submol


def test_all_lists_every_public_name():
    public = {
        name
        for name, value in vars(submol).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(submol.__all__) == sorted(public)


def test_star_import_provides_the_parsers():
    namespace: dict = {}
    exec("from submol import *", namespace)
    assert namespace["parse_smiles"]("CO").nodes[1].hydrogens == 1
    assert namespace["parse_sdf"] is submol.parse_sdf


def test_benchmark_tracer_finds_every_name_it_patches():
    # bench/spans.py looks names up on submol modules with getattr, so a
    # renamed or dropped name breaks traced benchmark runs
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        spans.instrument(tracer)
        patched = list(tracer._patched)
    finally:
        tracer.restore()
    assert patched
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)
