"""The package namespace: everything public is exported."""

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
