"""Output checks for the benchmark's artifacts.

Every check compares an artifact with facts the generator computed on its own
(atom counts, BFS pair counts, labels) or with a property the method must
have (ordering, symmetry, bounds, positive semidefiniteness, monotone ROC).
None compares with a stored copy of an earlier output.  Each check raises
:class:`CheckError` naming the first violation it finds.
"""

from __future__ import annotations

import io
import json
import math

import numpy as np

#: Absolute slack for float properties that hold exactly in real arithmetic.
EPS = 1e-9


class CheckError(AssertionError):
    """An artifact violates a property the benchmark checks."""


def key_block(key: str) -> tuple[str, int, int]:
    """(namespace, height, distance) of a feature key, parsed independently.

    Keys are ``[ns:]h|sig`` or ``[ns:]h|d|sigA|sigB``; signatures start with
    ``@``, so a purely numeric second field is a root distance.
    """
    head, _, rest = key.partition("|")
    ns, _, height = head.rpartition(":")
    second = rest.split("|", 1)[0]
    return ns, int(height), int(second) if second.isdigit() else 0


def check_vocab(text: str) -> list[tuple[str, int, int]]:
    """Columns 1..n in strictly ascending (mass, key) order, no duplicate key.

    Returns the block of every column for the other checks.
    """
    last: tuple[float, str] | None = None
    keys: set[str] = set()
    blocks = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split("\t")
        if len(fields) != 3:
            raise CheckError(f"vocab line {lineno}: want col, key, mass")
        col, key, mass = fields
        if int(col) != lineno:
            raise CheckError(f"vocab line {lineno}: column {col} out of sequence")
        if key in keys:
            raise CheckError(f"vocab line {lineno}: duplicate key {key!r}")
        keys.add(key)
        here = (float(mass), key)
        if last is not None and not last < here:
            raise CheckError(f"vocab line {lineno}: not in (mass, key) order")
        last = here
        blocks.append(key_block(key))
    if not blocks:
        raise CheckError("vocab is empty")
    return blocks


def parse_features(text: str) -> list[tuple[int, dict[int, float]]]:
    """Rows of ``(label, {0-based column: count})`` from a features file."""
    rows = []
    for line in text.splitlines():
        fields = line.split()
        entries: dict[int, float] = {}
        for item in fields[1:]:
            col, _, value = item.partition(":")
            entries[int(col) - 1] = float(value)
        rows.append((int(fields[0]), entries))
    return rows


def check_features(text: str, blocks: list[tuple[str, int, int]], facts,
                   heights: list[int], distances: list[int]) -> None:
    """Per-row counts match the generator's atoms and BFS pair counts.

    At every requested height each namespace's distance-0 counts sum to its
    node count (every node roots one neighborhood); at distance ``d > 0``
    they sum to its number of node pairs ``d`` apart.  Labels must match.
    """
    rows = parse_features(text)
    if len(rows) != len(facts):
        raise CheckError(f"features have {len(rows)} rows, the input {len(facts)}")
    for r, ((label, entries), fact) in enumerate(zip(rows, facts)):
        if label != fact.label:
            raise CheckError(f"row {r}: label {label:+d}, the input says {fact.label:+d}")
        sums: dict[tuple[str, int, int], float] = {}
        for col, count in entries.items():
            if not 0 <= col < len(blocks):
                raise CheckError(f"row {r}: column {col + 1} is not in the vocab")
            sums[blocks[col]] = sums.get(blocks[col], 0.0) + count
        want = {}
        for ns in fact.atoms:
            for h in heights:
                for d in distances:
                    n = fact.atoms[ns] if d == 0 else fact.pairs[ns].get(d, 0)
                    if n:
                        want[(ns, h, d)] = float(n)
        if sums != want:
            b = min(b for b in set(sums) | set(want) if sums.get(b) != want.get(b))
            raise CheckError(
                f"row {r}: block {b} counts {sums.get(b, 0.0)}, want {want.get(b, 0.0)}"
            )


def check_gram(text: str, features_text: str, blocks: list[tuple[str, int, int]]) -> None:
    """Square, symmetric, in [0, 1], PSD, nspdk diagonal = share of non-empty blocks."""
    lines = text.splitlines()
    n = int(lines[0])
    if len(lines) != n + 1:
        raise CheckError(f"gram has {len(lines) - 1} rows, header says {n}")
    try:
        G = np.loadtxt(io.StringIO("\n".join(lines[1:])), ndmin=2)
    except ValueError as exc:
        raise CheckError(f"gram rows are ragged or malformed: {exc}") from None
    if G.shape != (n, n):
        raise CheckError(f"gram is {G.shape}, want ({n}, {n})")
    asym = np.abs(G - G.T)
    if asym.max() > EPS:
        i, j = np.unravel_index(int(asym.argmax()), asym.shape)
        raise CheckError(
            f"gram not symmetric at ({i}, {j}): {float(G[i, j])!r} vs {float(G[j, i])!r}"
        )
    if G.min() < -EPS or G.max() > 1 + EPS:
        raise CheckError(
            f"gram entries leave [0, 1]: min {float(G.min())!r} max {float(G.max())!r}"
        )
    all_blocks = set(blocks)
    rows = parse_features(features_text)
    if len(rows) != n:
        raise CheckError(f"gram has {n} rows, the features {len(rows)}")
    for r, (_, entries) in enumerate(rows):
        share = len({blocks[c] for c, v in entries.items() if v}) / len(all_blocks)
        if abs(G[r, r] - share) > EPS:
            raise CheckError(f"gram diagonal {r} is {float(G[r, r])!r}, want {share!r}")
    lowest = float(np.linalg.eigvalsh(G).min())
    if lowest < -EPS * n:
        raise CheckError(f"gram is not positive semidefinite: eigenvalue {lowest!r}")


def _csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = [line for line in text.splitlines() if line]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def check_metrics(csv_text: str, summary_text: str, trials: int, auroc_floor: float) -> float:
    """One row per trial; summary means and extremes equal the rows'; AUROC floor.

    Returns the mean AUROC.
    """
    header, rows = _csv(csv_text)
    if header != ["trial", "auroc", "train_acc", "val_acc"]:
        raise CheckError(f"metrics header is {header}")
    if [int(r[0]) for r in rows] != list(range(trials)):
        raise CheckError(f"metrics have trials {[r[0] for r in rows]}, want 0..{trials - 1}")
    summary = json.loads(summary_text)["metrics"]
    for k, name in enumerate(header[1:], start=1):
        values = [float(r[k]) for r in rows]
        if not all(0.0 <= v <= 1.0 for v in values):
            raise CheckError(f"{name} values leave [0, 1]")
        mean = math.fsum(values) / len(values)
        got = summary[name]
        if abs(got["mean"] - mean) > EPS or got["trials"] != trials:
            raise CheckError(f"summary {name} mean {got['mean']!r}, rows give {mean!r}")
        if got["min"] != min(values) or got["max"] != max(values):
            raise CheckError(f"summary {name} min/max disagree with the rows")
    auroc = math.fsum(float(r[1]) for r in rows) / len(rows)
    if auroc < auroc_floor:
        raise CheckError(f"mean AUROC {auroc:.4f} is below the floor {auroc_floor}")
    return auroc


def check_roc(text: str, area_floor: float, positives: int, negatives: int) -> float:
    """Monotone from (0, 0) to (1, 1) with falling thresholds; area floor.

    Every point must count whole rows: ``fpr * negatives`` and
    ``tpr * positives`` are integers, for the generator's label counts.
    Returns the trapezoid area under the curve.
    """
    header, rows = _csv(text)
    if header != ["fpr", "tpr", "threshold"]:
        raise CheckError(f"roc header is {header}")
    points = [(float(f), float(t), float(h)) for f, t, h in rows]
    if points[0][:2] != (0.0, 0.0) or not math.isinf(points[0][2]):
        raise CheckError(f"roc starts at {points[0]}, want (0, 0, inf)")
    if points[-1][:2] != (1.0, 1.0):
        raise CheckError(f"roc ends at {points[-1][:2]}, want (1, 1)")
    for k, (f1, t1, h1) in enumerate(points):
        fp, tp = f1 * negatives, t1 * positives
        if abs(fp - round(fp)) > 1e-6 or abs(tp - round(tp)) > 1e-6:
            raise CheckError(f"roc point {k} counts no whole number of rows")
        if k and (f1 < points[k - 1][0] or t1 < points[k - 1][1] or not h1 < points[k - 1][2]):
            raise CheckError(f"roc is not monotone at point {k}")
    area = math.fsum((f1 - f0) * (t0 + t1) / 2
                     for (f0, t0, _), (f1, t1, _) in zip(points, points[1:]))
    if area < area_floor:
        raise CheckError(f"roc area {area:.4f} is below the floor {area_floor}")
    return area


def check_model_roundtrip(text: str, load_model, save_model) -> None:
    """save -> load -> save of the model file reproduces it byte for byte."""
    again = io.StringIO()
    save_model(again, load_model(io.StringIO(text)))
    if again.getvalue() != text:
        raise CheckError("model file changes on load -> save")
