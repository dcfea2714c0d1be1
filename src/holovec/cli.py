"""Command-line pipeline: build-codebook, compress, decode, analyze, self-test.

Every subcommand exits 0 on success and 1 with a single-line diagnostic on
failure. Output files are written to temp files and renamed on success, all
of a command's together, so failures never leave partial outputs behind.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from ._fileio import atomic_write_lines, atomic_writes
from .analysis import (
    DEFAULT_K,
    DEFAULT_SAMPLE_SIZE,
    DEFAULT_THRESHOLD,
    classify_neighborhoods,
    pairwise_cosine_stats,
    sample_orthogonality,
)
from .codebook import (
    DEFAULT_DIMENSION,
    DEFAULT_SEED,
    build_codebook,
    load_codebook,
    read_tag_list,
    save_codebook,
)
from .decoder import decode_and_score, decode_vocabulary
from .encoder import (
    build_vocabulary,
    load_vocabulary,
    read_annotations,
    read_embeddings,
    read_vectors,
    write_sidecar,
    write_vocabulary,
)
from .errors import DimensionMismatchError, HolovecError, UnknownKeyError
from .selftest import run_self_test


def cmd_build_codebook(args) -> int:
    pos_tags = read_tag_list(args.pos_tags) if args.pos_tags else None
    ner_types = read_tag_list(args.ner_types) if args.ner_types else None
    cb = build_codebook(pos_tags, ner_types, dimension=args.dim, seed=args.seed)
    save_codebook(cb, args.output)
    stats = pairwise_cosine_stats(cb.all_vectors())
    print(f"codebook written to {args.output}")
    print(f"vectors: {cb.vector_count} (dimension {cb.dimension}, seed {cb.seed})")
    print(f"max pairwise |cosine|: {stats.max_abs_cosine:.6f}")
    print(f"pairs with |cosine| < {DEFAULT_THRESHOLD}: {stats.fraction_below:.4f}")
    return 0


def cmd_compress(args) -> int:
    cb = load_codebook(args.codebook)
    table = read_embeddings(args.embeddings)
    tokens = read_annotations(args.annotations)
    vocab = build_vocabulary(tokens, table, cb)
    sidecar = args.sidecar or args.output + ".meta.json"
    with atomic_writes():
        write_vocabulary(args.output, vocab)
        write_sidecar(sidecar, vocab)
    st = vocab.stats
    growth = "null" if st.growth_ratio is None else f"{st.growth_ratio:.4f}"
    print(f"vocabulary written to {args.output} (metadata: {sidecar})")
    print(f"input tokens:        {st.input_tokens}")
    print(f"distinct word types: {st.distinct_word_types}")
    print(f"distinct keys:       {st.distinct_keys}")
    print(f"growth ratio:        {growth}")
    print(f"unknown fillers:     {st.unknown_filler_entries}")
    return 0


def cmd_decode(args) -> int:
    cb = load_codebook(args.codebook)
    have_truth = args.sidecar is not None
    if have_truth:
        vocab = load_vocabulary(args.vocabulary, args.sidecar)
        if vocab.dimension != cb.dimension:
            raise DimensionMismatchError(
                f"vocabulary dimension {vocab.dimension} differs from "
                f"codebook dimension {cb.dimension}"
            )
        keys = list(vocab.entries)
        counts = [e.component_count for e in vocab.entries.values()]
        decoded_all, (pos_ok, pos_total, ner_ok, ner_total) = decode_and_score(vocab, cb)
    else:
        # without the sidecar the component count is unknown, so unbind
        # without the frame subtraction (cosine cleanup is scale-invariant)
        _, vectors = read_vectors(args.vocabulary, expected_dimension=cb.dimension)
        keys = list(vectors)
        counts = ["-"] * len(keys)
        decoded_all = decode_vocabulary(list(vectors.values()), None, cb)

    def rows():
        yield "#key\tm\tpos\tpos_similarity\tner\tner_similarity\n"
        for key, m, decoded in zip(keys, counts, decoded_all):
            ner = decoded.ner_type or "-"
            ner_sim = "-" if decoded.ner_similarity is None else f"{decoded.ner_similarity:.6f}"
            yield f"{key}\t{m}\t{decoded.pos_tag}\t{decoded.pos_similarity:.6f}\t{ner}\t{ner_sim}\n"

    if args.out:
        atomic_write_lines(args.out, rows())
        print(f"decoded attributes written to {args.out}")
    else:
        sys.stdout.writelines(rows())
    if have_truth:
        if pos_total:
            print(f"POS accuracy: {pos_ok / pos_total:.4f} ({pos_ok}/{pos_total})")
        else:
            print("POS accuracy: n/a (0/0)")
        if ner_total:
            print(f"NER accuracy: {ner_ok / ner_total:.4f} ({ner_ok}/{ner_total})")
        else:
            print("NER accuracy: n/a (no m=4 entries)")
    return 0


def cmd_analyze_orthogonality(args) -> int:
    _, vectors = read_vectors(args.vectors)
    report = sample_orthogonality(
        vectors, sample_size=args.sample_size, threshold=args.threshold, seed=args.seed
    )
    report.write(args.out)
    clamp = " (clamped)" if report.clamped else ""
    print(f"orthogonality report written to {args.out}")
    print(f"sampled pairs: {report.sample_pairs}{clamp}")
    print(f"fraction with |cosine| < {report.threshold}: {report.fraction_below:.4f}")
    return 0


def cmd_analyze_neighborhoods(args) -> int:
    table = read_embeddings(args.embeddings)
    vocab = load_vocabulary(args.vocabulary, args.sidecar)
    cores = read_tag_list(args.cores)
    key_to_word = {key: e.word_type for key, e in vocab.entries.items()}
    vocab_words = set(key_to_word.values())
    for word in cores:
        if word not in table:
            raise UnknownKeyError(f"core word {word!r} is not in the original embeddings")
        if word not in vocab_words:
            raise UnknownKeyError(f"core word {word!r} is not in the compressed vocabulary")
    universe = vocab_words & set(table)
    original = {w: table[w] for w in universe}
    compressed = {
        key: e.vector for key, e in vocab.entries.items() if e.word_type in universe
    }
    report = classify_neighborhoods(
        original,
        compressed,
        cores,
        k=args.k,
        compressed_key_to_word=key_to_word,
    )
    report.write(args.out)
    print(f"neighborhood report written to {args.out}")
    print(f"cores: {len(report.core_tokens)}, k: {report.k}")
    print(
        f"fractions: same_position {report.fraction_same_position:.4f}, "
        f"shifted {report.fraction_shifted:.4f}, "
        f"disjoint {report.fraction_disjoint:.4f}"
    )
    return 0


def cmd_self_test(args) -> int:
    results = run_self_test(dimension=args.dim, seed=args.seed)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"self-test: {len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holovec",
        description=(
            "Compress annotated word embeddings into fixed-dimension holographic "
            "vectors, decode the annotations back out, and analyze orthogonality "
            "and neighborhood preservation."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build-codebook", help="generate and save the label-vector codebook")
    b.add_argument("output", help="codebook JSON path")
    b.add_argument("--dim", type=int, default=DEFAULT_DIMENSION, help="vector dimension")
    b.add_argument("--seed", type=int, default=DEFAULT_SEED, help="generator seed")
    b.add_argument("--pos-tags", metavar="FILE", help="POS tag list, one per line")
    b.add_argument("--ner-types", metavar="FILE", help="NER type list, one per line")
    b.set_defaults(func=cmd_build_codebook)

    c = sub.add_parser("compress", help="build the compressed vocabulary from a corpus")
    c.add_argument("codebook")
    c.add_argument("embeddings", help="text embeddings, one 'word v1..vn' per line")
    c.add_argument("annotations", help="TSV: surface, POS tag, NER type or '-'")
    c.add_argument("output", help="compressed vocabulary path")
    c.add_argument("--sidecar", help="metadata path (default: OUTPUT.meta.json)")
    c.set_defaults(func=cmd_compress)

    d = sub.add_parser("decode", help="decode POS/NER attributes from a vocabulary")
    d.add_argument("codebook")
    d.add_argument("vocabulary")
    d.add_argument("--sidecar", help="metadata path; enables exact m and accuracy")
    d.add_argument("--out", help="write TSV here instead of stdout")
    d.set_defaults(func=cmd_decode)

    a = sub.add_parser("analyze", help="run the orthogonality or neighborhood analysis")
    asub = a.add_subparsers(dest="analysis", required=True)

    ao = asub.add_parser("orthogonality", help="sampled disjoint-pair cosine statistics")
    ao.add_argument("vectors", help="any text vector file (vocabulary or embeddings)")
    ao.add_argument("--out", required=True, help="report JSON path")
    ao.add_argument("--sample-size", type=int, default=DEFAULT_SAMPLE_SIZE)
    ao.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    ao.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ao.set_defaults(func=cmd_analyze_orthogonality)

    an = asub.add_parser("neighborhoods", help="top-k neighborhood preservation")
    an.add_argument("embeddings", help="original embeddings file")
    an.add_argument("vocabulary", help="compressed vocabulary file")
    an.add_argument("sidecar", help="vocabulary metadata file")
    an.add_argument("--cores", required=True, metavar="FILE", help="core words, one per line")
    an.add_argument("--k", type=int, default=DEFAULT_K)
    an.add_argument("--out", required=True, help="report JSON path")
    an.set_defaults(func=cmd_analyze_neighborhoods)

    s = sub.add_parser("self-test", help="synthetic round-trip against frozen floors")
    s.add_argument(
        "--dim",
        type=int,
        default=DEFAULT_DIMENSION,
        help="vector dimension; the floors are calibrated at 300, and at much smaller "
        "dimensions (64, say) the orthogonality checks can fail",
    )
    s.add_argument("--seed", type=int, default=DEFAULT_SEED)
    s.set_defaults(func=cmd_self_test)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (HolovecError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
