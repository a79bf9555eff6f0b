"""The package namespace: everything public is exported and used."""

import ast
import importlib.util
import pathlib
import re
import subprocess
import sys
import types

import submol

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_all_lists_every_public_name():
    public = {
        name
        for name, value in vars(submol).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(submol.__all__) == sorted(public)


def test_every_exported_name_is_used_by_the_program():
    # an export earns its place when the package itself uses it, outside
    # __init__.py and beyond its own definition, or a demo or the
    # benchmark does; names that only tests call do not belong here
    used = set()
    for path in (ROOT / "src" / "submol").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.asname or node.name)
    outside = [
        path.read_text(encoding="utf-8")
        for folder in ("demos", "bench")
        for path in sorted((ROOT / folder).iterdir())
        if path.suffix in (".py", ".sh")
    ]
    unused = [
        name
        for name in submol.__all__
        if name not in used
        and not any(re.search(rf"\b{re.escape(name)}\b", text) for text in outside)
    ]
    assert unused == []


def test_star_import_provides_the_parsers():
    namespace: dict = {}
    exec("from submol import *", namespace)
    assert namespace["parse_smiles"]("CO").nodes[1].hydrogens == 1
    assert namespace["parse_sdf"] is submol.parse_sdf


def test_benchmark_tracer_finds_every_name_it_patches():
    # bench/spans.py looks names up on submol modules with getattr, so a
    # renamed or dropped name breaks traced benchmark runs
    path = ROOT / "bench" / "spans.py"
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


def test_cli_import_leaves_the_slow_scipy_modules_unloaded():
    # every command pays for what submol.cli imports: scipy.special costs
    # about 0.09 s and scipy.stats 0.56 s, so only the ttest loads them
    probe = (
        "import sys; import submol.cli; "
        "print(sorted(m for m in ('scipy.special', 'scipy.stats') if m in sys.modules))"
    )
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": ""}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"
