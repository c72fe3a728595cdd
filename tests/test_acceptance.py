"""End-to-end acceptance tests, one per shipped claim about the toolkit.

Each test here asserts a stated tolerance or budget and nothing else;
the [ACCEPTANCE] summary block printed after the run (see conftest)
gives the one-line verdict per claim.  Two advertised formulas are not
what random sign vectors obey: the tail bound exp(-d*delta^2) lies below
the exact binomial tail, and the measured precision/recall follow
1 - s/2 rather than rho = 1 - s/(2 - s).  Claims 1 and 4 assert the
correct forms, and each asserts the deviation of the advertised one as
a fact; see the README section on known deviations.

The two corpus-scale tests skip themselves when the corpora are not on
disk; scripts/fetch_data.py downloads and unpacks both.
"""

import contextlib
import io
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    brute_bundle,
    brute_context_counts,
    brute_membership,
    mirror_counts,
    reference_signs,
)

from hdsem.cli import main as cli_main
from hdsem.context import build_context_model, context_stats
from hdsem.core import (
    analytics_for_sigma,
    dot_int_rows,
    exact_dots,
    generate_packed,
    nearest,
    packed_signs,
    squared_norms,
)
from hdsem.experiments import (
    MembershipSimConfig,
    RhoCurveConfig,
    _prefix_scores,
    membership_sim,
    rho_curve,
)
from hdsem.sentences import build_sentence_index, query_sentences
from hdsem.spam import cross_validate, ingest_lingspam
from hdsem.textpipe import (
    PipelineConfig,
    Vocabulary,
    build_vocabulary,
    load_stopwords,
    preprocess,
    strip_gutenberg_boilerplate,
)

pytestmark = pytest.mark.acceptance

DATA = Path(__file__).resolve().parent.parent / "data"
SHERLOCK = DATA / "sherlock.txt"
LINGSPAM = DATA / "lingspam"

needs_book = pytest.mark.skipif(
    not SHERLOCK.exists(),
    reason="data/sherlock.txt missing; run scripts/fetch_data.py",
)
needs_mail = pytest.mark.skipif(
    not (LINGSPAM / "part1").is_dir(),
    reason="data/lingspam missing; run scripts/fetch_data.py",
)

# Exact two-sided tail of the scaled dot at d = 1200, delta = 0.05:
# |dot| > 0.05 iff the match count leaves [570, 630], and
# 2 * P[Binom(1200, 1/2) <= 569] = 0.078209 to six digits.
EXACT_TAIL_D1200 = 0.07820872784345652


def test_almost_orthogonality_bound():
    dim, delta, pairs, seed = 1200, 0.05, 10_000, 42
    t0 = time.perf_counter()
    a = generate_packed(dim, seed, np.arange(pairs))
    b = generate_packed(dim, seed, np.arange(pairs, 2 * pairs))
    dots = dot_int_rows(a, b, dim) / dim
    rate = float(np.mean(np.abs(dots) > delta))
    elapsed = time.perf_counter() - t0
    advertised = math.exp(-dim * delta**2)
    hoeffding = 2 * math.exp(-dim * delta**2 / 2)
    sd = math.sqrt(EXACT_TAIL_D1200 * (1 - EXACT_TAIL_D1200) / pairs)
    story = (
        f"measured Pr(|dot| > {delta}) = {rate:.4f} over {pairs} pairs at "
        f"d = {dim}; exact binomial tail {EXACT_TAIL_D1200:.4f} "
        f"(5 sd = {5 * sd:.4f}), Hoeffding bound 2*exp(-d*delta^2/2) = "
        f"{hoeffding:.4f}, advertised exp(-d*delta^2) = {advertised:.4f}"
    )

    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"
    # The advertised form drops the factor 2 and doubles the exponent; at
    # these parameters it sits below the true tail, so no correct
    # generator can meet it.  The tests below hold the generator to the
    # true law instead.
    assert advertised < EXACT_TAIL_D1200, story
    assert rate <= hoeffding, story
    # two-sided: a biased or correlated generator moves the tail either way
    assert abs(rate - EXACT_TAIL_D1200) <= 5 * sd, story


def test_dot_product_statistics():
    dim, pairs, seed = 1000, 10_000, 42
    a = generate_packed(dim, seed, np.arange(pairs))
    b = generate_packed(dim, seed, np.arange(pairs, 2 * pairs))
    dots = dot_int_rows(a, b, dim) / dim
    mean = float(dots.mean())
    var = float(dots.var(ddof=1))

    assert abs(mean) <= 0.01, f"mean {mean:+.5f} outside +-0.01"
    assert abs(var - 1 / dim) <= 0.2 / dim, (
        f"variance {var:.6f} outside 1/d = {1 / dim:.6f} +-20%"
    )


def test_membership_score_distributions():
    t0 = time.perf_counter()
    res = membership_sim(MembershipSimConfig(dim=10_000, k=1000, trials=1000, seed=42))
    elapsed = time.perf_counter() - t0
    target_std = math.sqrt(1000 / 10_000)

    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
    assert abs(res.member_mean - 1.0) <= 0.05, res.member_mean
    assert abs(res.nonmember_mean) <= 0.05, res.nonmember_mean
    assert abs(res.member_std - target_std) <= 0.15 * target_std, res.member_std
    assert abs(res.nonmember_std - target_std) <= 0.15 * target_std, res.nonmember_std


def test_precision_recall_curve_agreement():
    spot99 = analytics_for_sigma(0.215).precision_recall
    spot90 = analytics_for_sigma(0.375).precision_recall
    assert abs(spot99 - 0.99) <= 0.005, spot99
    assert abs(spot90 - 0.90) <= 0.005, spot90

    t0 = time.perf_counter()
    points = rho_curve(
        RhoCurveConfig(dim=1000, ks=(10, 25, 46, 70, 100, 140, 200, 300),
                       trials=10_000, seed=42)
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"took {elapsed:.1f}s, budget 5min"

    # One member and one outsider probe per trial at threshold 1/2 put
    # error mass s/2 on each side, so the conventional estimators converge
    # to precision = recall = 1 - s/2 = 1 - fn_rate, not to the paper's
    # design figure rho = 1 - s/(2 - s); the two differ by s^2/(2(2 - s)).
    rows = []
    bad = []
    for p in points:
        fa = analytics_for_sigma(p.sigma)
        target = 1.0 - fa.fn_rate
        dev_p = p.precision_emp - target
        dev_r = p.recall_emp - target
        rows.append(
            f"  k={p.k:3d}  rho={p.rho_analytic:.4f}  1-s/2={target:.4f}  "
            f"precision={p.precision_emp:.4f} ({dev_p:+.4f})  "
            f"recall={p.recall_emp:.4f} ({dev_r:+.4f})"
        )
        if abs(dev_p) > 0.02 or abs(dev_r) > 0.02:
            bad.append(p.k)
    table = "\n".join(rows)

    assert not bad, (
        f"empirical precision/recall leave the +-0.02 band around "
        f"1 - s/2 at k = {bad} (deviations in brackets):\n{table}"
    )

    # At k = 300 (sigma = 0.548) the predicted gap to rho is 0.040, so the
    # measurements must clear rho by more than the band: the curve that
    # the estimators follow is 1 - s/2, and rho would not pass in its place.
    last = points[-1]
    s = analytics_for_sigma(last.sigma).overlap
    gap = s * s / (2 * (2 - s))
    assert last.k == 300 and gap > 0.02, (last.k, gap)
    assert last.precision_emp - last.rho_analytic > 0.02, (gap, table)
    assert last.recall_emp - last.rho_analytic > 0.02, (gap, table)


def _check_bundle_instance(dim, k, seed):
    # word i of the vocabulary owns vector i: k bundled vectors, then the
    # outsider probe k, one more probe and the nearest-exemplar query
    vocab = Vocabulary([f"v{i}" for i in range(k + 3)], dim, seed)
    signs = [reference_signs(dim, seed, i) for i in range(k + 3)]
    unpacked = packed_signs(vocab.packed(), dim)
    assert unpacked.tolist() == signs

    bundle = vocab.bow_matrix([np.arange(k)])
    comps = brute_bundle(signs[:k])
    assert bundle[0].tolist() == comps

    scores = exact_dots(bundle, squared_norms(bundle), unpacked[: k + 2])[:, 0] / dim
    assert scores.tolist() == [brute_membership(comps, ps) for ps in signs[: k + 2]]

    # the Monte Carlo engine: trial 0 bundles vectors [0, j) for every
    # prefix size j, probes member 0 and outsider k
    [(member, outsider)] = _prefix_scores(dim, seed, list(range(1, k + 1)), 1)
    prefixes = [brute_bundle(signs[:j]) for j in range(1, k + 1)]
    assert member[0].tolist() == [brute_membership(c, signs[0]) for c in prefixes]
    assert outsider[0].tolist() == [brute_membership(c, signs[k]) for c in prefixes]

    qs = signs[k + 2]
    dots = [sum(a * b for a, b in zip(qs, s)) for s in signs[:k]]
    best = max(range(k), key=lambda i: (dots[i], -i))
    rows = unpacked[:k]
    [[(nearest_row, _)]] = nearest(rows, squared_norms(rows), unpacked[k + 2 :], 1, normalize=False)
    assert nearest_row == best


def test_exact_small_instance_oracles():
    for dim in range(1, 17):
        for k in range(1, 5):
            _check_bundle_instance(dim, k, seed=1000 * dim + k)

    rng = random.Random(5150)
    for _ in range(150):
        _check_bundle_instance(
            rng.randint(1, 64), rng.randint(1, 8), rng.randrange(2**32)
        )

    rng = random.Random(8282)
    for case in range(8):
        n_words = rng.randint(2, 12)
        alphabet = [f"w{i}" for i in range(n_words)]
        stream = [rng.choice(alphabet) for _ in range(rng.randint(1, 200))]
        half_window = rng.randint(1, 7)
        vocab = build_vocabulary(stream, dim=32, seed=case)
        model = build_context_model(stream, vocab, half_window=half_window)
        expected_counts = brute_context_counts(stream, half_window)
        signs = vocab.sign_matrix(slice(None)).astype(np.int64)
        counts = mirror_counts(model.upper)
        matrix = vocab.bundle(counts)
        totals = np.asarray(counts.sum(axis=1)).ravel()
        distinct = np.diff(counts.indptr)
        for word, ctr in expected_counts.items():
            i = vocab.index_of(word)
            row = np.zeros(32, dtype=np.int64)
            for other, c in ctr.items():
                row += c * signs[vocab.index_of(other)]
            assert np.array_equal(matrix[i], row), (case, word)
            assert totals[i] == sum(ctr.values())
            assert distinct[i] == len(ctr)


@needs_book
def test_book_retrieval_targets():
    text = strip_gutenberg_boilerplate(SHERLOCK.read_text(encoding="utf-8"))
    config = PipelineConfig(stopwords=load_stopwords(), lemmatizer="suffix")
    index = build_sentence_index(text, dim=10_000, seed=42, config=config)
    assert len(index) > 1000, f"only {len(index)} sentences indexed"

    # (a) every sampled sentence comes back with an exact unit score
    step = max(1, len(index) // 100)
    for i in list(range(0, len(index), step)) + [len(index) - 1]:
        outcome = query_sentences(index, index.sentences[i], top_n=1)
        assert outcome.matches[0].score == 1.0, (i, outcome.matches[0])

    # (b) the naive question about Irene retrieves the expected sentence
    question = (
        "Who is the woman Irene in the photograph, and what is her "
        "special connection to Sherlock?"
    )
    outcome = query_sentences(index, question, top_n=3, normalize=True)
    found = [" ".join(m.text.split()) for m in outcome.matches]
    assert any("And when he speaks of Irene Adler" in t for t in found), found

    # (c) heavy-context words stay a small fraction of the vocabulary
    tokens = preprocess(text, config)
    vocab = build_vocabulary(tokens, dim=1000, seed=42, config=config)
    model = build_context_model(tokens, vocab, half_window=5)
    rows = context_stats(model)
    tail = sum(1 for r in rows if r.total_context_words > 375)
    assert tail <= 0.10 * len(rows), (
        f"{tail} of {len(rows)} words above 375 context words "
        f"({tail / len(rows):.1%}, budget 10%)"
    )


@needs_mail
def test_spam_crossval_targets():
    t0 = time.perf_counter()
    folds = ingest_lingspam(LINGSPAM)
    reports = {d: cross_validate(folds, dim=d, seed=42) for d in (1000, 2000, 3000)}
    elapsed = time.perf_counter() - t0

    assert elapsed < 1800.0, f"took {elapsed:.0f}s, budget 30min"
    r3 = reports[3000]
    assert abs(r3.avg_spam_recall - 0.967) <= 0.05, r3.avg_spam_recall
    assert abs(r3.avg_spam_precision - 0.946) <= 0.05, r3.avg_spam_precision

    recalls = [r.avg_spam_recall for r in reports.values()]
    precisions = [r.avg_spam_precision for r in reports.values()]
    assert max(recalls) - min(recalls) <= 0.05, recalls
    assert max(precisions) - min(precisions) <= 0.05, precisions


def _capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    assert code == 0, (argv, err.getvalue())
    return out.getvalue()


def _write_mini_corpus(root):
    spam = ["cash", "winner", "prize", "claim", "offer"]
    ham = ["meeting", "corpus", "draft", "review", "notes"]
    for p in range(1, 11):
        part = root / f"part{p}"
        part.mkdir(parents=True)
        (part / f"spmsg{p}.txt").write_text(
            "Subject: win\n\n" + " ".join(spam[p % 3 :] + [f"token{p}"])
        )
        (part / f"{p}legit.txt").write_text(
            "Subject: agenda\n\n" + " ".join(ham[p % 3 :] + [f"token{p}"])
        )


def test_seeded_determinism(tmp_path):
    doc = tmp_path / "doc.txt"
    doc.write_text(
        "The cat sat on the mat. The dog ran away! A small bird sang "
        "near the cat. Did the dog sleep? The cat and the bird met.\n"
    )
    model = tmp_path / "ctx.npz"
    corpus = tmp_path / "mail"
    _write_mini_corpus(corpus)

    build_argv = [
        "context", "build", "--input", str(doc), "--out", str(model),
        "--dim", "256", "--window", "4", "--seed", "3",
    ]
    invocations = [
        ["membership-sim", "--dim", "2000", "--k", "100", "--trials", "200", "--seed", "7"],
        ["rho-curve", "--dim", "300", "--k", "2,50,200", "--trials", "64", "--seed", "9"],
        build_argv,
        ["context", "similar", "--model", str(model), "--top", "5", "cat"],
        ["context", "arith", "--model", str(model), "plus", "cat", "minus", "dog"],
        ["context", "stats", "--model", str(model)],
        ["sentence-query", "--input", str(doc), "--dim", "512", "--seed", "11", "--top", "2", "the cat"],
        ["sentence-query", "--input", str(doc), "--dim", "512", "--seed", "11", "--no-normalize", "the cat"],
        ["spam-eval", "--corpus-dir", str(corpus), "--dim", "64", "--seed", "5"],
    ]
    for argv in invocations:
        assert _capture(argv) == _capture(argv), argv

    # the persisted model artifact is byte-stable across rebuilds too
    first = model.read_bytes()
    _capture(build_argv)
    assert model.read_bytes() == first

    # thread counts must not leak into any output byte
    def env_with(n):
        env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(n)
        return env

    for cmd in (
        ["rho-curve", "--dim", "300", "--k", "2,50,200", "--trials", "64", "--seed", "9"],
        ["membership-sim", "--dim", "1000", "--k", "64", "--trials", "100", "--seed", "7"],
        ["sentence-query", "--input", str(doc), "--dim", "512", "--seed", "11", "the cat"],
    ):
        full = [sys.executable, "-m", "hdsem", *cmd]
        runs = {
            n: subprocess.run(full, capture_output=True, env=env_with(n), check=True)
            for n in (1, 4)
        }
        assert runs[1].stdout == runs[4].stdout, cmd
