"""Command line interface.

Every subcommand writes one CSV table to stdout (or --out) and keeps
human-oriented summaries on stderr, so outputs can be piped or
committed as experiment artifacts.  All randomness is controlled by
--seed (default 42); identical invocations produce identical bytes.

Exit codes: 0 success, 1 usage or invalid arguments, 2 I/O failure,
3 bad input data (unknown word, malformed corpus, text that is not
UTF-8, empty query, ...).
"""

import argparse
import contextlib
import csv
import functools
import sys

from .context import ContextModel, build_context_model, context_arithmetic, context_stats, similar_words
from .core import DEFAULT_SEED, analytics_for_sigma
from .errors import DataError
from .experiments import MembershipSimConfig, RhoCurveConfig, membership_sim, rho_curve
from .sentences import build_sentence_index, query_sentences
from .spam import VOCAB_MODES, cross_validate, ingest_lingspam
from .textpipe import (
    LEMMATIZER_NAMES,
    PipelineConfig,
    build_vocabulary,
    load_stopwords,
    preprocess,
)

DEFAULT_STATS_THRESHOLD = 375


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(x, spec=".6g"):
    if x is None:
        return "NA"
    return format(float(x), spec)


def _write_csv(path, header, rows):
    """Write one CSV table to path, or to stdout when path is None."""
    out = contextlib.nullcontext(sys.stdout) if path is None else open(path, "w", newline="", encoding="utf-8")
    with out as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _pipeline_config(args, stopwords_by_default):
    """Resolve --stopwords/--lemmatizer into a PipelineConfig.

    --stopwords takes a file path or the literal "none"; when absent,
    commands that analyze running text use the bundled list and the
    spam command uses none.
    """
    if args.stopwords is None:
        stopwords = load_stopwords() if stopwords_by_default else frozenset()
    elif args.stopwords == "none":
        stopwords = frozenset()
    else:
        stopwords = load_stopwords(args.stopwords)
    return PipelineConfig(stopwords=stopwords, lemmatizer=args.lemmatizer)


def _add_pipeline_args(p):
    p.add_argument("--stopwords", metavar="PATH|none", help="stop list file, or 'none' to disable")
    p.add_argument("--lemmatizer", choices=LEMMATIZER_NAMES, default="identity")


# ------------------------------------------------------------ subcommands


def cmd_membership_sim(args):
    cfg = MembershipSimConfig(dim=args.dim, k=args.k, trials=args.trials, seed=args.seed)
    res = membership_sim(cfg)
    rows = [[t, _fmt(res.member_scores[t]), _fmt(res.nonmember_scores[t])] for t in range(cfg.trials)]
    rows.append(["mean", _fmt(res.member_mean), _fmt(res.nonmember_mean)])
    rows.append(["std", _fmt(res.member_std), _fmt(res.nonmember_std)])
    _write_csv(args.out, ["trial", "member_score", "nonmember_score"], rows)
    print(
        f"membership-sim: dim={cfg.dim} k={cfg.k} trials={cfg.trials} seed={cfg.seed} "
        f"member {res.member_mean:.4f}+-{res.member_std:.4f} "
        f"nonmember {res.nonmember_mean:.4f}+-{res.nonmember_std:.4f}",
        file=sys.stderr,
    )
    return 0


def _resolve_ks(args):
    if args.k is not None and (args.k_min is not None or args.k_max is not None):
        raise ValueError("--k conflicts with --k-min/--k-max")
    if args.k is not None:
        try:
            ks = tuple(int(s) for s in args.k.split(",") if s.strip())
        except ValueError:
            raise ValueError(f"--k expects a comma-separated list of integers, got {args.k!r}")
        if not ks:
            raise ValueError("--k produced no bundle sizes")
        return ks
    lo = 2 if args.k_min is None else args.k_min
    hi = args.dim if args.k_max is None else args.k_max
    if lo < 1:
        raise ValueError(f"--k-min must be >= 1, got {lo}")
    if lo > hi:
        raise ValueError(f"--k-min {lo} exceeds --k-max {hi}")
    return tuple(range(lo, hi + 1))


def _worst_deviation(points, target):
    """Largest |precision_emp or recall_emp - target(point)| and its k."""
    return max(
        (
            max(
                (abs(v - target(p)) for v in (p.precision_emp, p.recall_emp) if v is not None),
                default=0.0,
            ),
            p.k,
        )
        for p in points
    )


def cmd_rho_curve(args):
    cfg = RhoCurveConfig(
        dim=args.dim, ks=_resolve_ks(args), trials=args.trials, seed=args.seed, threshold=args.threshold
    )
    points = rho_curve(cfg)
    _write_csv(
        args.out,
        ["k", "sigma", "rho_analytic", "precision_emp", "recall_emp"],
        ([p.k, _fmt(p.sigma), _fmt(p.rho_analytic), _fmt(p.precision_emp), _fmt(p.recall_emp)] for p in points),
    )
    # the estimators converge to 1 - fn_rate, which exceeds the paper's rho
    # by s^2 / (2 (2 - s)); at threshold 1/2 the first distance is sampling
    # noise only
    noise = _worst_deviation(points, lambda p: 1.0 - analytics_for_sigma(p.sigma).fn_rate)
    gap = _worst_deviation(points, lambda p: p.rho_analytic)
    print(
        f"rho-curve: dim={cfg.dim} trials={cfg.trials} seed={cfg.seed} points={len(points)} "
        f"max |empirical - (1 - fn_rate)| = {noise[0]:.4f} at k={noise[1]}, "
        f"max |empirical - rho| = {gap[0]:.4f} at k={gap[1]}",
        file=sys.stderr,
    )
    return 0


def cmd_context_build(args):
    if args.window < 2 or args.window % 2:
        raise ValueError("--window is the total window span and must be an even number >= 2")
    with open(args.input, encoding="utf-8-sig") as fh:
        text = fh.read()
    config = _pipeline_config(args, stopwords_by_default=True)
    tokens = preprocess(text, config)
    vocab = build_vocabulary(tokens, args.dim, args.seed, config=config)
    model = build_context_model(tokens, vocab, half_window=args.window // 2)
    model.save(args.out)
    print(
        f"context build: {len(tokens)} tokens, {len(vocab)} words, window={args.window} "
        f"dim={args.dim} seed={args.seed} -> {args.out}",
        file=sys.stderr,
    )
    return 0


def cmd_context_similar(args):
    model = ContextModel.load(args.model)
    matches = similar_words(model, args.word, top_n=args.top)
    _write_csv(args.out, ["rank", "word", "score"], ([m.rank, m.word, _fmt(m.score)] for m in matches))
    return 0


def _parse_arith_terms(terms):
    plus, minus = [], []
    bucket = None
    for t in terms:
        if t == "plus":
            bucket = plus
        elif t == "minus":
            bucket = minus
        elif bucket is None:
            raise ValueError("arithmetic terms must start with 'plus' or 'minus'")
        else:
            bucket.append(t)
    return plus, minus


def cmd_context_arith(args):
    model = ContextModel.load(args.model)
    plus, minus = _parse_arith_terms(args.terms)
    matches = context_arithmetic(model, plus, minus, top_n=args.top)
    _write_csv(args.out, ["rank", "word", "score"], ([m.rank, m.word, _fmt(m.score)] for m in matches))
    return 0


def cmd_context_stats(args):
    model = ContextModel.load(args.model)
    rows = context_stats(model)
    _write_csv(
        args.out,
        ["word", "total_context_words", "distinct_context_words"],
        ([r.word, r.total_context_words, r.distinct_context_words] for r in rows),
    )
    above = sum(1 for r in rows if r.total_context_words > args.threshold)
    print(
        f"context stats: {above} of {len(rows)} words have total context > {args.threshold}",
        file=sys.stderr,
    )
    return 0


def cmd_sentence_query(args):
    with open(args.input, encoding="utf-8-sig") as fh:
        text = fh.read()
    config = _pipeline_config(args, stopwords_by_default=True)
    index = build_sentence_index(text, args.dim, args.seed, config=config)
    outcome = query_sentences(index, args.query, top_n=args.top, normalize=not args.no_normalize)
    _write_csv(
        args.out,
        ["rank", "score", "sentence_index", "text"],
        ([m.rank, format(m.score, ".6f"), m.sentence_index, m.text] for m in outcome.matches),
    )
    note = f"sentence-query: {len(index)} sentences, dim={args.dim} seed={args.seed}"
    if outcome.dropped_tokens:
        note += f"; dropped unknown tokens: {' '.join(outcome.dropped_tokens)}"
    print(note, file=sys.stderr)
    return 0


def cmd_spam_eval(args):
    config = _pipeline_config(args, stopwords_by_default=False)
    folds = ingest_lingspam(args.corpus_dir, config=config)
    print(
        f"spam-eval: {sum(len(f) for f in folds)} messages, dim={args.dim} "
        f"seed={args.seed} vocab={args.vocab_mode}",
        file=sys.stderr,
    )

    def progress(r):
        print(
            f"  fold {r.fold}: tp={r.tp} fp={r.fp} fn={r.fn} tn={r.tn} "
            f"precision={_fmt(r.spam_precision)} recall={_fmt(r.spam_recall)}",
            file=sys.stderr,
        )

    report = cross_validate(folds, args.dim, args.seed, vocab_mode=args.vocab_mode, progress=progress)
    rows = [
        [r.fold, report.dim, report.seed, r.tp, r.fp, r.fn, r.tn, _fmt(r.spam_precision), _fmt(r.spam_recall)]
        for r in report.fold_results
    ]
    rows.append(
        ["avg", report.dim, report.seed, report.total_tp, report.total_fp, report.total_fn, report.total_tn,
         _fmt(report.avg_spam_precision), _fmt(report.avg_spam_recall)]
    )
    _write_csv(args.out, ["fold", "dim", "seed", "tp", "fp", "fn", "tn", "spam_precision", "spam_recall"], rows)
    return 0


# ----------------------------------------------------------------- parser


@functools.cache
def build_parser():
    parser = _Parser(prog="hdsem", description="high-dimensional vector semantics toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("membership-sim", help="bundle membership score distributions")
    p.add_argument("--dim", type=int, default=10_000)
    p.add_argument("--k", type=int, default=1000, help="bundle size")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", help="CSV destination (default stdout)")
    p.set_defaults(handler="cmd_membership_sim")

    p = sub.add_parser("rho-curve", help="empirical vs analytic retrieval quality by bundle size")
    p.add_argument("--dim", type=int, default=1000)
    p.add_argument("--k", help="comma-separated bundle sizes (default 2..dim)")
    p.add_argument("--k-min", type=int)
    p.add_argument("--k-max", type=int)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out")
    p.set_defaults(handler="cmd_rho_curve")

    ctx = sub.add_parser("context", help="context embedding models")
    ctxsub = ctx.add_subparsers(dest="context_command", required=True, parser_class=_Parser)

    p = ctxsub.add_parser("build", help="build and save a context model")
    p.add_argument("--input", required=True, help="text file")
    p.add_argument("--out", required=True, help="model file (.npz)")
    p.add_argument("--dim", type=int, default=1000)
    p.add_argument("--window", type=int, default=10,
                   help="total context window span, split evenly on both sides of the center")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_pipeline_args(p)
    p.set_defaults(handler="cmd_context_build")

    p = ctxsub.add_parser("similar", help="words with the most similar contexts")
    p.add_argument("--model", required=True)
    p.add_argument("--top", type=int, default=5)
    p.add_argument("--out")
    p.add_argument("word")
    p.set_defaults(handler="cmd_context_similar")

    p = ctxsub.add_parser("arith", help="rank words against plus/minus context sums")
    p.add_argument("--model", required=True)
    p.add_argument("--top", type=int, default=5)
    p.add_argument("--out")
    p.add_argument("terms", nargs="+", metavar="TERM", help="e.g. plus king woman minus man")
    p.set_defaults(handler="cmd_context_arith")

    p = ctxsub.add_parser("stats", help="context size per word")
    p.add_argument("--model", required=True)
    p.add_argument("--threshold", type=int, default=DEFAULT_STATS_THRESHOLD)
    p.add_argument("--out")
    p.set_defaults(handler="cmd_context_stats")

    p = sub.add_parser("sentence-query", help="retrieve sentences from a document")
    p.add_argument("--input", required=True, help="document file")
    p.add_argument("--dim", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--top", type=int, default=3)
    p.add_argument("--no-normalize", action="store_true", help="raw dot scores instead of cosine")
    p.add_argument("--out")
    _add_pipeline_args(p)
    p.add_argument("query")
    p.set_defaults(handler="cmd_sentence_query")

    p = sub.add_parser("spam-eval", help="cross-validate the spam filter on a ten-part corpus")
    p.add_argument("--corpus-dir", required=True)
    p.add_argument("--dim", type=int, default=3000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--vocab-mode", choices=VOCAB_MODES, default="per-fold")
    p.add_argument("--out")
    _add_pipeline_args(p)
    p.set_defaults(handler="cmd_spam_eval")

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # the cached parser names its handler, so a patched or traced one runs
        return globals()[args.handler](args)
    except (DataError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # the arguments sized the allocation, so it is a usage error
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
