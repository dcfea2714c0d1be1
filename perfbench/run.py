"""Benchmark of the holovec pipeline, end to end and layer by layer.

Run from the root of a holovec checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 36 --trace 0

The untraced run (``--trace 0``) drives the ``holovec`` CLI as a user would:
one child process per command, one at a time (a closed loop with a single
client), over inputs generated from ``--seed``. It repeats whole rounds of
the workload's commands, each followed by a batch of ``k_nearest`` queries,
for about ``--seconds`` seconds. It checks every output against the
benchmark's own computation and prints one JSON object as its last line.

The traced run (``--trace 1``) calls the same commands in this process
through ``holovec.cli.main``, alternating untraced rounds with rounds whose
calls into each holovec layer are recorded as spans by ``spans.Tracer``. It
reports per-layer times, self times, call counts and bytes, and the tracing
overhead as the difference between the two kinds of round.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
from spans import Tracer  # noqa: E402

# Why each workload: see README.md. Sizes are fixed; only the draws follow --seed.
WORKLOADS = {
    "corpus": gen.Spec(words=700, tokens=2100, norm="gauss5", ner_fraction=0.5, cores=5, knn_queries=100),
    "neighborhoods": gen.Spec(words=500, tokens=0, norm="glove", ner_fraction=0.15, cores=400,
                              knn_queries=100, profiles=(2, 3)),
    "small": gen.Spec(words=300, tokens=1000, norm="unit", ner_fraction=0.5, cores=5, knn_queries=100,
                      word2vec_header=True),
}
# The CLI commands of one round, in order; a batch of k_nearest queries follows them.
ROUNDS = {
    "corpus": ("build_codebook", "compress", "decode", "decode_bare", "orthogonality", "neighborhoods",
               "selftest"),
    "neighborhoods": ("build_codebook", "neighborhoods"),
    "small": ("build_codebook", "compress", "decode", "decode_bare", "selftest", "word2vec_compress"),
}
K = 10  # neighbors, the CLI's default
# compress of a word2vec-text file ("N 300" header line); fails while the
# header is read as a one-value record, so it is counted but not timed
WORD2VEC = "word2vec_compress"

END_TO_END_UNITS = {
    "setup_s": "s", "pipeline_s": "s", "knn_query_p50_s": "s", "peak_rss_mb": "MB", "vocab_bytes": "bytes",
}
COMMANDS = ("build_codebook", "compress", "decode", "analyze_orthogonality", "analyze_neighborhoods", "self_test")
PER_LAYER = (
    ("hrr.circular_convolve_fft", ("calls", "s")),
    ("hrr.circular_correlate_fft", ("calls", "s")),
    ("encoder.compress_token", ("calls",)),
    ("encoder.build_vocabulary", ("s", "self_s")),
    ("encoder.write_vocabulary", ("s",)),
    ("encoder.write_sidecar", ("s",)),
    ("encoder.read_vectors", ("s", "bytes")),
    ("encoder.read_annotations", ("s",)),
    ("encoder.load_vocabulary", ("s",)),
    ("decoder.decode_attributes", ("calls", "s")),
    ("codebook.cleanup", ("calls", "s")),
    ("codebook.build_codebook", ("s",)),
    ("codebook.save_codebook", ("s",)),
    ("codebook.load_codebook", ("s",)),
    ("analysis.classify_neighborhoods", ("s",)),
    ("analysis.k_nearest", ("s",)),
    ("analysis.sample_orthogonality", ("s",)),
    ("analysis.pairwise_cosine_stats", ("s",)),
    ("fileio.atomic_write_text", ("s", "bytes")),
    ("selftest.run_self_test", ("s",)),
    *((f"cli.cmd_{command}", ("s", "self_s")) for command in COMMANDS),
)
KIND_UNITS = {"s": "s", "self_s": "s", "calls": "count", "bytes": "bytes"}


@dataclass
class Result:
    rc: int
    wall: float
    rss_mb: float
    output: str


class Subprocesses:
    """Each command is its own ``python -m holovec.cli`` process, waited for before the next."""

    def __init__(self, src: Path, work: Path) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.work = work

    def python(self, args: list[str]) -> Result:
        log = self.work / "child.log"
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=self.work)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Result(proc.returncode, wall, usage.ru_maxrss / 1024.0, log.read_text(encoding="utf-8"))

    def __call__(self, label: str, argv: list[str]) -> Result:
        return self.python(["-m", "holovec.cli", *argv])


class InProcess:
    """Calls ``holovec.cli.main`` in this process, inside a span when tracing."""

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer

    def __call__(self, label: str, argv: list[str]) -> Result:
        from holovec import cli

        out = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(out):
            try:
                if self.tracer is None:
                    rc = cli.main(argv)
                else:
                    rc = self.tracer.span(f"op.{label}", cli.main, argv)
            except SystemExit as exc:  # argparse rejects the command line
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed operation; the run goes on
                traceback.print_exc()
                rc = 1
        return Result(rc, time.perf_counter() - start, 0.0, out.getvalue())


@dataclass
class Plan:
    """Everything a round needs, made during set-up."""

    spec: gen.Spec
    codebook: Path
    cb: check.Codebook
    inputs: gen.Inputs
    word2vec: gen.Inputs | None
    ops: list[tuple[str, list[str]]]
    out: dict[str, Path]
    space: dict
    setup: list[Result]  # the set-up build-codebook and compress
    vocab_digest: list[str]  # of the set-up compress's vocabulary and sidecar


@dataclass
class Round:
    results: dict[str, Result]
    knn: list[float]
    knn_results: list
    wall: float
    traced: bool
    digest: list[str]


def knn_batch(space, queries: list[str], tracer: Tracer | None):
    """Time each query; a query that raises is kept as a failed operation."""
    from holovec import analysis

    latencies, results = [], []
    for query in queries:
        start = time.perf_counter()
        try:
            if tracer is None:
                got = analysis.k_nearest(space, query, K)
            else:
                got = tracer.span("op.knn", analysis.k_nearest, space, query, K)
        except Exception as exc:  # reported with the run, which goes on
            got = exc
        latencies.append(time.perf_counter() - start)
        results.append((query, got))
    return latencies, results


def digest(paths: list[Path]) -> list[str]:
    return [hashlib.sha256(p.read_bytes()).hexdigest() if p.exists() else "" for p in paths]


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def prepare(workload: str, seed: int, work: Path, children: Subprocesses) -> Plan:
    """Codebook, inputs, and the compressed vocabulary the analyses and k_nearest read; untimed."""
    spec = WORKLOADS[workload]
    codebook = work / "codebook.json"
    build = children("build_codebook", ["build-codebook", str(codebook), "--seed", str(seed)])
    if build.rc != 0:
        raise SystemExit(f"error: set-up build-codebook failed:\n{build.output}")
    try:
        cb = check.read_codebook(codebook, seed)
    except check.CheckFailed as exc:
        raise SystemExit(f"error: {exc}") from exc

    inputs = gen.generate(spec, seed, cb.pos_tags, cb.ner_types)
    gen.write_inputs(inputs, work)
    out = {name: work / name for name in (
        "vocab.txt", "vocab.txt.meta.json", "decoded.tsv", "decoded_bare.tsv", "orthogonality.json",
        "neighborhoods.json", "round_codebook.json", "w2v_vocab.txt")}
    cb_arg, emb, corpus, vocab, meta = (str(x) for x in (
        codebook, inputs.paths["embeddings"], inputs.paths["corpus"], out["vocab.txt"], out["vocab.txt.meta.json"]))
    commands = {
        "build_codebook": ["build-codebook", str(out["round_codebook.json"]), "--seed", str(seed)],
        "compress": ["compress", cb_arg, emb, corpus, vocab],
        "decode": ["decode", cb_arg, vocab, "--sidecar", meta, "--out", str(out["decoded.tsv"])],
        "decode_bare": ["decode", cb_arg, vocab, "--out", str(out["decoded_bare.tsv"])],
        "orthogonality": ["analyze", "orthogonality", vocab, "--out", str(out["orthogonality.json"])],
        "neighborhoods": ["analyze", "neighborhoods", emb, vocab, meta, "--cores", str(inputs.paths["cores"]),
                          "--out", str(out["neighborhoods.json"])],
        "selftest": ["self-test"],
    }
    word2vec = None
    if spec.word2vec_header:
        word2vec = gen.word2vec_inputs(cb.pos_tags, cb.ner_types)
        gen.write_inputs(word2vec, work, prefix="w2v_", header=True)
        commands[WORD2VEC] = ["compress", cb_arg, str(word2vec.paths["embeddings"]),
                              str(word2vec.paths["corpus"]), str(out["w2v_vocab.txt"])]
    ops = [(label, commands[label]) for label in ROUNDS[workload]]

    compress = children("compress", commands["compress"])
    if compress.rc != 0:
        raise SystemExit(f"error: set-up compress failed:\n{compress.output}")
    from holovec import encoder

    # the k_nearest space, loaded as a library user would
    space = encoder.load_vocabulary(vocab, meta).as_space()
    for _ in range(3):  # warm-up: the first batches run slower than later ones
        knn_batch(space, inputs.queries, None)
    return Plan(spec, codebook, cb, inputs, word2vec, ops, out, space, [build, compress],
                digest([out["vocab.txt"], out["vocab.txt.meta.json"]]))


def run_rounds(plan: Plan, children: Subprocesses, tracer: Tracer | None, seconds: float) -> list[Round]:
    """Whole rounds while the next one is expected to end within ``seconds``.

    Untraced: every command a child process. Traced: in-process, alternating
    untraced and traced rounds, at least one of each.
    """
    compared = [plan.out[name] for name in (
        "vocab.txt", "vocab.txt.meta.json", "decoded.tsv", "decoded_bare.tsv", "orthogonality.json",
        "neighborhoods.json", "round_codebook.json")]
    # keep the collector off the benchmark's own objects while k_nearest is timed
    gc.collect()
    gc.freeze()
    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        runner = children if tracer is None else InProcess(tracer if traced else None)
        if traced:
            tracer.install()
            tracer.begin_round()
        round_start = time.perf_counter()
        results = {label: runner(label, argv) for label, argv in plan.ops}
        # untimed: the first dozen queries after the commands run up to 3x slower
        knn_batch(plan.space, plan.inputs.queries[:20], None)
        latencies, knn_results = knn_batch(plan.space, plan.inputs.queries, tracer if traced else None)
        wall = time.perf_counter() - round_start
        if traced:
            tracer.uninstall()
        rounds.append(Round(results, latencies, knn_results, wall, traced, digest(compared)))
        enough = tracer is None or len(rounds) >= 2
        if enough and time.perf_counter() - start + wall > seconds:
            return rounds


def check_outputs(plan: Plan, rounds: list[Round]) -> list[str]:
    """Failures of the last round's outputs against the benchmark's own computation."""
    failures = []
    if any(r.digest != rounds[0].digest for r in rounds) or rounds[0].digest[:2] != plan.vocab_digest:
        failures.append("outputs differ between rounds over the same inputs")
    if digest([plan.out["round_codebook.json"]]) != digest([plan.codebook]):
        failures.append("build-codebook is not byte-identical across runs with one seed")
    last = rounds[-1].results
    out = plan.out

    def ran(label: str) -> bool:
        return label in last and last[label].rc == 0

    try:
        vocab = check.check_vocabulary(out["vocab.txt"], out["vocab.txt.meta.json"], plan.inputs, plan.cb)
        check.check_knn([x for x in rounds[-1].knn_results if not isinstance(x[1], Exception)], vocab, K)
        if ran("decode"):
            check.check_decode(out["decoded.tsv"], last["decode"].output, vocab, plan.cb, with_sidecar=True)
        if ran("decode_bare"):
            check.check_decode(out["decoded_bare.tsv"], "", vocab, plan.cb, with_sidecar=False)
        if ran("orthogonality"):
            check.check_orthogonality(out["orthogonality.json"], len(vocab.keys), norm5=plan.spec.norm != "unit")
        if ran("neighborhoods"):
            check.check_neighborhoods(out["neighborhoods.json"], plan.inputs, vocab, K)
        if ran(WORD2VEC):
            w2v = out["w2v_vocab.txt"]
            check.check_vocabulary(w2v, Path(f"{w2v}.meta.json"), plan.word2vec, plan.cb)
    except Exception as exc:  # a malformed output fails its check; the run still reports
        failures.append(f"{type(exc).__name__}: {exc}")
    return failures


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "holovec" / "cli.py").is_file():
        print(f"error: {src / 'holovec'} not found; run from the root of a holovec checkout", file=sys.stderr)
        return 2
    work = Path.cwd() / "perfbench" / "_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    children = Subprocesses(src, work)
    # compile the sources once, and make sure the checkout's holovec is the one imported
    probe = children.python(["-c", "import holovec.cli; print(holovec.cli.__file__)"])
    sys.path.insert(0, str(src))
    import holovec.cli

    for where in (probe.output.strip(), holovec.cli.__file__):
        if probe.rc != 0 or Path(where).resolve() != (src / "holovec" / "cli.py").resolve():
            print(f"error: holovec imported from {where!r}, not from {src}", file=sys.stderr)
            return 2

    plan = prepare(args.workload, args.seed, work, children)
    tracer = Tracer() if args.trace else None
    rounds = run_rounds(plan, children, tracer, args.seconds)
    for label, result in rounds[-1].results.items():
        if result.rc != 0 and label != WORD2VEC:
            print(f"note: {label} failed:\n{result.output.strip()}", file=sys.stderr)
    for query, got in rounds[-1].knn_results:
        if isinstance(got, Exception):
            print(f"note: k_nearest({query!r}) failed: {got!r}", file=sys.stderr)
    failures = check_outputs(plan, rounds)
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)

    (work / "rounds.json").write_text(json.dumps(
        [{"traced": r.traced, "wall": r.wall, "knn": r.knn,
          "stages": {label: res.wall for label, res in r.results.items()}} for r in rounds]))
    # for reading only, too unsteady to gate: per-command medians and the k_nearest p90
    for label, _ in plan.ops:
        print(f"{label + ' median':40s} {statistics.median(r.results[label].wall for r in rounds):>16.6f} s",
              file=sys.stderr)
    p90 = statistics.median(statistics.quantiles(r.knn, n=10, method="inclusive")[-1] for r in rounds)
    print(f"{'knn_query p90':40s} {p90:>16.6f} s", file=sys.stderr)
    if tracer is None:
        metrics = end_to_end(plan, rounds)
    else:
        metrics = per_layer(tracer, rounds, work / "trace.json")
    attempted = sum(len(r.results) + len(r.knn) for r in rounds)
    failed = sum(res.rc != 0 for r in rounds for res in r.results.values())
    failed += sum(isinstance(got, Exception) for r in rounds for _, got in r.knn_results)
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:>16.6f} {metric['unit']}", file=sys.stderr)
    print(f"rounds {len(rounds)}, operations {attempted} attempted, {failed} failed", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def end_to_end(plan: Plan, rounds: list[Round]) -> dict:
    timed = [label for label, _ in plan.ops if label != WORD2VEC]
    values = {
        "setup_s": statistics.median(r.results["build_codebook"].wall for r in rounds),
        "pipeline_s": statistics.median(sum(r.results[label].wall for label in timed) for r in rounds),
        # median of each round's 100 queries, median over rounds: a round that
        # the host slows as a whole moves it no more than it moves pipeline_s
        "knn_query_p50_s": statistics.median(statistics.median(r.knn) for r in rounds),
        "peak_rss_mb": max(x.rss_mb for x in plan.setup + [res for r in rounds for res in r.results.values()]),
        "vocab_bytes": sum(plan.out[n].stat().st_size for n in ("vocab.txt", "vocab.txt.meta.json")),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def per_layer(tracer: Tracer, rounds: list[Round], trace_path: Path) -> dict:
    totals = tracer.layer_totals()
    metrics = {}
    for name, kinds in PER_LAYER:
        for kind in kinds:
            value = totals.get(name, {}).get(kind, 0.0)  # a layer not called, or gone, counts 0
            metrics[f"{name}.{kind}"] = {"value": value, "unit": KIND_UNITS[kind]}
    untraced = statistics.median(r.wall for r in rounds if not r.traced)
    traced = statistics.median(r.wall for r in rounds if r.traced)
    overhead = {"trace.untraced_round_s": untraced, "trace.traced_round_s": traced,
                "trace.overhead_s": traced - untraced}
    metrics.update({name: {"value": value, "unit": "s"} for name, value in overhead.items()})
    tracer.write(trace_path, {"layers": totals, "overhead": overhead})
    return metrics


if __name__ == "__main__":
    sys.exit(main())
