"""Offline, in-process benchmark of the submol featurize -> evaluate pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark writes a seeded input with
its own generator, imports ``submol.cli`` from ``src/`` and calls
``submol.cli.main(argv)`` for featurize, gram, evaluate, train and report,
in rounds, until ``--seconds`` of steps have run.  Each CLI call is one
operation; a nonzero exit code counts as a failed one.  It then checks every
artifact (see ``checks.py``), prints the sha256 of the input and of every
artifact, and prints as its last line one JSON object with the operation
counts and the metrics that ``BENCHMARK.json`` lists: the end-to-end ones
with ``--trace 0``, the per-layer ones with ``--trace 1``.

A traced run wraps the ``submol`` layers (see ``spans.py``), writes its spans
to ``bench/out/trace-<workload>-s<seed>.jsonl`` and ends with one untraced
round whose artifacts must be byte-identical to the traced ones.
"""

from __future__ import annotations

import os

# One BLAS thread: the only parallelism is the program's own --threads, so at
# most two threads run on a 2-core machine.  Must precede the NumPy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import spans  # noqa: E402
from gen import generate  # noqa: E402
from workloads import OUTPUTS, STEPS, WORKLOADS, Workload  # noqa: E402

#: Fresh interpreters that time ``import submol.cli``, besides this process.
SETUP_PROBES = 5
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import submol.cli; print(time.perf_counter() - t)"
)
_FILES = {
    "features": "features.txt", "vocab": "vocab.txt", "gram": "gram.txt",
    "metrics": "metrics.csv", "summary": "summary.json", "model": "model.json",
    "roc": "roc.csv",
}


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


class Pipeline:
    """Runs rounds of the five CLI steps and keeps their measurements."""

    def __init__(self, cli, wl: Workload, paths: dict[str, str], seed: int):
        self.cli, self.wl, self.paths, self.seed = cli, wl, paths, seed
        self.wall: dict[str, list[float]] = {s: [] for s in STEPS}
        self.cpu: dict[str, list[float]] = {s: [] for s in STEPS}
        self.attempted = 0
        self.failed = 0
        self.failed_steps: set[str] = set()
        self.hashes: dict[str, str] = {}
        self.unstable: set[str] = set()  # artifacts whose bytes changed

    def round(self, threads: int, tracer: spans.Tracer | None = None) -> float:
        """One round; returns the wall time of its steps."""
        total = 0.0
        for step in STEPS:
            argv = self.wl.argv(step, self.paths, self.seed, threads)
            for _ in range(self.wl.repeats.get(step, 1)):
                log = io.StringIO()
                with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                    span = tracer.open(f"cli.{step}") if tracer else None
                    c0, t0 = time.process_time(), time.perf_counter()
                    try:
                        code = self.cli.main(argv)
                    except Exception:  # the console script would exit with 1
                        traceback.print_exc()
                        code = 1
                    t1, c1 = time.perf_counter(), time.process_time()
                    if span is not None:
                        tracer.close(span)
                self.wall[step].append(t1 - t0)
                self.cpu[step].append(c1 - c0)
                total += t1 - t0
                self.attempted += 1
                if code != 0:
                    self.failed += 1
                    self.failed_steps.add(step)
                    print(f"{step} exited {code}: {log.getvalue().strip()[-300:]}",
                          file=sys.stderr)
                    continue
                for name in OUTPUTS[step]:
                    digest = sha256(self.paths[name])
                    if self.hashes.setdefault(name, digest) != digest:
                        self.unstable.add(name)
        return total

    def median(self, step: str, table: dict[str, list[float]] | None = None) -> float:
        return statistics.median((table or self.wall)[step])


def verify(pipe: Pipeline, facts) -> list[str]:
    """Every output check whose artifacts were written; returns the failures."""
    from submol import persist

    wl, p = pipe.wl, pipe.paths
    found = [f"determinism: {name} differs between runs of the step that writes it"
             for name in sorted(pipe.unstable)]

    def attempt(name: str, check, *needs: str):
        if pipe.failed_steps.intersection(needs):
            return None
        try:
            return check()
        except (checks.CheckError, ValueError, LookupError, OSError) as exc:
            found.append(f"{name}: {type(exc).__name__}: {exc}")
            return None

    blocks = attempt("vocab", lambda: checks.check_vocab(read(p["vocab"])), "featurize")
    if blocks:
        attempt("features", lambda: checks.check_features(
            read(p["features"]), blocks, facts, list(wl.heights), list(wl.distances)),
            "featurize")
        attempt("gram", lambda: checks.check_gram(
            read(p["gram"]), read(p["features"]), blocks), "featurize", "gram")
    attempt("metrics", lambda: checks.check_metrics(
        read(p["metrics"]), read(p["summary"]), wl.trials, wl.auroc_floor), "evaluate")
    attempt("model", lambda: checks.check_model_roundtrip(
        read(p["model"]), persist.load_model, persist.save_model), "train")
    positives = sum(f.label == 1 for f in facts)
    attempt("roc", lambda: checks.check_roc(
        read(p["roc"]), wl.roc_floor, positives, len(facts) - positives), "train", "report")
    return found


def describe_inputs(pipe: Pipeline, facts) -> str:
    """Make-up of the inputs and artifacts, for the README's tables."""
    atoms = statistics.fmean(sum(f.atoms.values()) for f in facts)
    line = f"inputs: rows={len(facts)} mean_nodes_per_row={atoms:.2f}"
    if not pipe.failed_steps.intersection(("featurize", "train")):
        vocab = read(pipe.paths["vocab"]).count("\n")
        nnz = sum(len(row.split()) - 1 for row in read(pipe.paths["features"]).splitlines())
        model = json.loads(read(pipe.paths["model"]))
        line += f" vocab_columns={vocab} nnz={nnz} model_kind={model['kind']}"
        if model["kind"] == "forest":
            nodes = sum(len(t["nodes"]) for t in model["payload"]["trees"])
            line += f" forest_nodes={nodes}"
    return line


def setup_probe() -> float:
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, SRC],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def timed(pipe: Pipeline, seconds: float, setup: list[float]) -> dict[str, float]:
    measured = 0.0
    while True:
        took = pipe.round(pipe.wl.threads)
        measured += took
        if measured + took > seconds:
            break
    med = {step: pipe.median(step) for step in STEPS}
    setup_s = statistics.median(setup)
    metrics = {f"{step}_s": med[step] for step in STEPS}
    metrics.update(
        setup_s=setup_s,
        total_s=setup_s + sum(med.values()),
        cpu_s=sum(pipe.median(step, pipe.cpu) for step in STEPS),
        peak_rss_mb=spans.peak_rss_mb(),
        model_kb=os.path.getsize(pipe.paths["model"]) / 1024.0,
    )
    print(f"rounds: {len(pipe.wall['featurize'])}")
    return metrics


def traced(pipe: Pipeline, seconds: float, trace_path: str) -> dict[str, float]:
    tracer = spans.Tracer()
    per_round: list[dict[str, float]] = []
    measured = 0.0
    while True:
        first = len(tracer.spans)
        spans.instrument(tracer)
        try:
            took = pipe.round(1, tracer)
        finally:
            tracer.restore()
        for span in tracer.spans[first:]:
            span["round"] = len(per_round)
        per_round.append(spans.layer_metrics(tracer.spans[first:]))
        measured += took
        if measured + 2 * took > seconds:
            break
    plain = pipe.round(pipe.wl.threads)
    tracer.write(trace_path, workload=pipe.wl.name, seed=pipe.seed)
    print(f"traced rounds: {len(per_round)}; last traced round {took:.4f} s at --threads 1, "
          f"untraced round {plain:.4f} s at --threads {pipe.wl.threads}")
    metrics = {name: statistics.median_low(r[name] for r in per_round)
               for name in per_round[0]}
    # ru_maxrss only rises, so the gram step's own peak is the first round's.
    metrics["kernels.gram_peak_rss_mb"] = per_round[0]["kernels.gram_peak_rss_mb"]
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "submol", "cli.py")):
        print(f"bench: no submol sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    wl = WORKLOADS[args.workload]
    out = os.path.join(HERE, "out")
    work = os.path.join(out, f"{wl.name}-s{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        text, facts = generate(wl.name, args.seed, wl.rows)
        paths = {name: os.path.join(work, f) for name, f in _FILES.items()}
        paths["input"] = os.path.join(work, wl.input_file)
        with open(paths["input"], "w", encoding="utf-8") as handle:
            handle.write(text)

        setup = [] if args.trace else [setup_probe() for _ in range(SETUP_PROBES)]
        t0 = time.perf_counter()
        sys.path.insert(0, SRC)
        import submol.cli as cli

        setup.append(time.perf_counter() - t0)

        pipe = Pipeline(cli, wl, paths, args.seed)
        if args.trace:
            trace_path = os.path.join(out, f"trace-{wl.name}-s{args.seed}.jsonl")
            metrics = traced(pipe, args.seconds, trace_path)
        else:
            metrics = timed(pipe, args.seconds, setup)
        problems = verify(pipe, facts)
        print(describe_inputs(pipe, facts))
        for name in ("input", *_FILES):
            if os.path.exists(paths[name]):
                print(f"sha256 {sha256(paths[name])}  {name}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": pipe.attempted,
        "failed": pipe.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
