"""Walkthrough: from a SMILES string to neighborhood-subgraph count features.

Run with ``python3 demos/01_features_walkthrough.py``.

The core idea: every atom becomes the root of a small induced subgraph (its
neighborhood up to a height bound), each such rooted subgraph is reduced to a
canonical string key, and a molecule's feature vector is simply the count of
each key.  Two molecules share a feature exactly when they contain the same
rooted neighborhood shape, regardless of atom numbering.
"""

from submol import height_features, pair_features, parse_smiles
from submol.features import signature_table


def show(title):
    print()
    print(title)
    print("-" * len(title))


def main():
    smiles = "OC(=O)c1ccccc1"  # benzoic acid
    graph = parse_smiles(smiles)

    show(f"1. Parsing {smiles!r}")
    print(f"heavy atoms: {len(graph)}, bonds: {len(graph.edges)}")
    for i, atom in enumerate(graph.nodes):
        marks = []
        if atom.aromatic:
            marks.append("aromatic")
        if atom.hydrogens:
            marks.append(f"{atom.hydrogens}H")
        print(f"  atom {i}: {atom.label:2s}  mass {atom.mass():7.3f}  "
              f"{', '.join(marks) if marks else ''}")

    show("2. One rooted neighborhood, growing with the height bound")
    root = 1  # the carboxyl carbon
    # what featurization computes: every root's (feature key, canonical
    # key, mass) at each height, with each height cut from one ball
    table, _ = signature_table(graph, [0, 1, 2], {}, [0])
    for height, entries in table.items():
        feature_key, key, mass = entries[root]
        print(f"  height {height}, mass {mass:.3f}")
        print(f"    feature key    {feature_key}")
        print(f"    canonical key  {key}")
    print("The canonical key encodes the root position, the atom tokens and")
    print("the edge list of the canonical form, so it is the same for every")
    print("isomorphic copy of this neighborhood; the feature key prefixes")
    print("the height.")

    show("3. The molecule's feature vector (heights 0 and 1)")
    vector = height_features(graph, [0, 1])
    for key, count in sorted(vector.entries.items()):
        print(f"  x{count}  {key}")
    print(f"total count: {sum(vector.entries.values())} "
          f"(= heavy atoms x number of heights, here {len(graph)} x 2)")

    show("4. Pair features: two neighborhoods at a fixed root distance")
    pairs = pair_features(graph, heights=[0], distances=[2])
    print("Each key below is 'height|distance|key_a|key_b' for two")
    print("neighborhoods whose roots sit exactly that far apart:")
    for key, count in sorted(pairs.entries.items())[:6]:
        print(f"  x{count}  {key}")
    print(f"  ... {len(pairs.entries)} distinct keys in total")

    show("5. Invariance check: a relabeled copy gives the same vector")
    relabeled = parse_smiles("c1ccccc1C(O)=O")
    same = height_features(relabeled, [0, 1]).entries == vector.entries
    print(f"feature dictionaries equal: {same}")


if __name__ == "__main__":
    main()
