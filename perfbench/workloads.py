"""The benchmark's three sections and the checks on their outputs.

A section is one pass over a slice of the toolkit's real traffic, the
same calls scripts/run_experiments.py makes:

* book: CLI `context build`, a stream of CLI `context similar` and
  `context arith` calls (each reloads the model, as the CLI does), one
  `context stats`, then `build_sentence_index` at d = 10 000 and a
  stream of `query_sentences`.
* spam: CLI `spam-eval --dim 3000` in per-fold and then global mode.
* mc: CLI `membership-sim` and `rho-curve`, each at two shapes.

Every section has two sizes: "full", the size a workload runs its own
section at, and "probe", a small fixed-shape pass that the other
workloads run so that every end-to-end metric has a value on every
workload.  A pass yields after every op, so that run.py can interleave
the sections op by op.  Ops call the program through module attributes
looked up at call time, so the tracer's wrappers (tracer.py) see every
call.
"""

import contextlib
import csv
import hashlib
import io
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import synth

# Section sizes.  The full book keeps split_sentences the largest layer
# of the build phase at the seed; the full spam tree keeps the
# Ling-Spam layout and its 1:5 spam-to-ham ratio at a size where one
# spam-eval call takes a few seconds, so that a run holds several calls
# of each mode.  A book pass runs the whole section `rounds` times over
# `distinct` queries per stream, so every book op runs at least twice in
# a run, seconds apart (run.py keeps each op's fastest run), and a p90
# over 100 distinct queries keeps ten beyond it.
SIZES = {
    "book": {
        "full": dict(tokens=9_000, vocab=1900, n_twins=12, n_planted=25,
                     rounds=2, distinct=100),
        "probe": dict(tokens=1_500, vocab=600, n_twins=4, n_planted=10, long_paragraph=50,
                      rounds=2, distinct=100),
    },
    "spam": {"full": dict(messages=180), "probe": dict(messages=36)},
    "mc": {
        "full": dict(sim=[(10_000, 1000, 1000), (1000, 100, 10_000)],
                     rho=[(1000, None, 1000), (1000, "10,25,46,70,100,140,200,300", 1000)]),
        "probe": dict(sim=[(10_000, 1000, 50), (1000, 100, 500)],
                      rho=[(1000, "2,5,10,20,50,100,200", 100), (1000, "10,25,46,70,100,140,200,300", 100)]),
    },
}
TOP = 10  # --top used by scripts/run_experiments.py
SENT_TOP = 3
SENT_DIM = 10_000
VECTOR_SEED = 42  # the CLI's default --seed


@dataclass
class Op:
    name: str
    seconds: float
    error: str | None
    sha: str


@dataclass
class Recorder:
    """Runs one section's ops, times them, and keeps failures and digests.

    The sections of a run share `ops` and `seen`; `busy` sums this
    section's op time, which is its wall time even when other sections'
    ops run in between.
    """

    hd: object  # namespace holding the hdsem modules
    scope: str  # section and size, prefixed to every op name
    ops: list = field(default_factory=list)
    seen: dict = field(default_factory=dict)  # op name -> stdout sha within this run
    busy: float = 0.0

    def record(self, name, seconds, text, error):
        name = f"{self.scope} {name}"
        self.busy += seconds
        sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if error is None and name in self.seen and self.seen[name] != sha:
            error = "stdout differs from an earlier run of the same op"
        self.seen.setdefault(name, sha)
        self.ops.append(Op(name, seconds, error, sha))

    def cli(self, name, argv, check):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.hd.cli.main(argv)
            error = None if code == 0 else f"exit {code}: {err.getvalue().strip()[-300:]}"
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            error = f"raised {exc!r}"
        seconds = time.perf_counter() - t0
        text = out.getvalue()
        if error is None:
            error = _run_check(check, text)
        self.record(name, seconds, text, error)

    def call(self, name, fn, render, check):
        """Time fn(); render its result to text the way the CLI would."""
        t0 = time.perf_counter()
        try:
            result = fn()
            error = None
        except Exception as exc:
            result, error = None, f"raised {exc!r}"
        seconds = time.perf_counter() - t0
        text = render(result) if error is None else ""
        if error is None:
            error = _run_check(check, text)
        self.record(name, seconds, text, error)
        return result


def _run_check(check, text):
    try:
        return check(text)
    except (ValueError, IndexError, KeyError) as exc:
        return f"unparseable output: {exc!r}"


def _rows(text):
    return list(csv.reader(io.StringIO(text)))


def percentile(values, q):
    """Nearest-rank percentile: at q = 0.9 and n = 100, ten values lie beyond it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ------------------------------------------------------------------ book


def _check_ranking(text, excluded=(), expect_top=None):
    rows = _rows(text)
    if rows[0] != ["rank", "word", "score"] or len(rows) < 2:
        return f"bad header or no rows: {rows[:2]}"
    scores = [float(r[2]) for r in rows[1:]]
    if [int(r[0]) for r in rows[1:]] != list(range(1, len(rows))):
        return "ranks not consecutive"
    if any(b > a for a, b in zip(scores, scores[1:])) or not all(-1 <= s <= 1 for s in scores):
        return "scores not a descending list of cosines"
    if any(r[1] in excluded for r in rows[1:]):
        return "an operand word is ranked"
    if expect_top is not None and rows[1][1:] != [expect_top, "1"]:
        return f"planted twin {expect_top} is not the top hit at 1: {rows[1]}"
    return None


def _check_stats(text):
    rows = _rows(text)
    if rows[0] != ["word", "total_context_words", "distinct_context_words"]:
        return "bad header"
    totals = [int(r[1]) for r in rows[1:]]
    if any(b > a for a, b in zip(totals, totals[1:])):
        return "totals not descending"
    if any(int(r[2]) > int(r[1]) for r in rows[1:]):
        return "more distinct context words than total"
    return None


def _render_outcome(outcome):
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["rank", "score", "sentence_index", "text"])
    for m in outcome.matches:
        w.writerow([m.rank, format(m.score, ".6f"), m.sentence_index, m.text])
    w.writerow(["dropped"] + list(outcome.dropped_tokens))
    return out.getvalue()


def _check_planted(text, sentence):
    rows = _rows(text)
    top = rows[1]
    if top[1] != "1.000000" or " ".join(top[3].split()) != sentence:
        return f"planted sentence did not retrieve itself at 1.000000: {top[:3]}"
    return None


def _check_free(text, unknown):
    rows = _rows(text)
    scores = [float(r[1]) for r in rows[1:-1]]
    if not 1 <= len(scores) <= SENT_TOP or any(b > a for a, b in zip(scores, scores[1:])):
        return "bad ranking"
    if not all(-1 <= s <= 1 for s in scores):
        return "cosine out of range"
    if rows[-1][1:] != unknown:
        return f"dropped tokens {rows[-1][1:]} != unknown words {unknown}"
    return None


@dataclass(frozen=True)
class BookInputs:
    path: Path
    book: synth.Book
    ctx_queries: tuple  # (name, argv-tail, check)
    sent_queries: tuple  # (name, query text, check)


def make_book_inputs(workdir, seed, size):
    params = dict(SIZES["book"][size])
    half = params.pop("distinct")
    del params["rounds"]
    book = synth.make_book(seed, **params)
    path = Path(workdir) / "book.txt"
    path.write_text(book.text, encoding="utf-8")
    rng = random.Random(f"book-queries:{seed}")
    words = list(book.content_words)

    # query name -> (name, argv tail or text, check); names are distinct
    ctx = {}
    for a, b in book.twins:
        ctx[f"similar:{a}"] = (f"similar:{a}", ["similar", a], lambda t, b=b, a=a: _check_ranking(t, (a,), b))
        ctx[f"similar:{b}"] = (f"similar:{b}", ["similar", b], lambda t, b=b, a=a: _check_ranking(t, (b,), a))
    while len(ctx) < half:
        if rng.random() < 0.6:
            w = rng.choice(words)
            ctx.setdefault(f"similar:{w}", (f"similar:{w}", ["similar", w], lambda t, w=w: _check_ranking(t, (w,))))
        else:
            plus = rng.sample(words, 2)
            minus = [w for w in rng.sample(words, 2) if w not in plus][:1]
            terms = ["plus", *plus, "minus", *minus]
            name = f"arith:{' '.join(terms)}"
            ctx.setdefault(name, (name, ["arith", *terms], lambda t, ex=tuple(plus + minus): _check_ranking(t, ex)))
    ctx = list(ctx.values())[:half]

    sent = {}
    for s in book.planted[:half // 2]:
        sent[f"planted:{s}"] = (f"planted:{s}", s, lambda t, s=s: _check_planted(t, s))
    while len(sent) < half:
        unknown = [synth.unknown_word(rng) for _ in range(rng.randint(1, 2))]
        known = rng.sample(words, rng.randint(3, 8))
        toks = known + unknown
        rng.shuffle(toks)
        q = " ".join(toks).capitalize() + "?"
        order = [t for t in toks if t in unknown]
        sent.setdefault(f"free:{q}", (f"free:{q}", q, lambda t, u=order: _check_free(t, u)))
    sent = list(sent.values())
    return BookInputs(path, book, tuple(ctx), tuple(sent))


def book_pass(rec, inputs, size):
    """One pass of the book section, yielding after every op.

    Each round builds the context model and the sentence index, then
    runs the context and sentence queries in turn, one of each, so that
    both streams spread over the whole round; `context stats` ends the
    first round.  A repeated op must print what it printed the first
    time.
    """
    hd = rec.hd
    model = inputs.path.with_name("model.npz")
    config = hd.textpipe.PipelineConfig(stopwords=hd.textpipe.load_stopwords(), lemmatizer="suffix")
    for rnd in range(SIZES["book"][size]["rounds"]):
        rec.cli("context-build", ["context", "build", "--input", str(inputs.path),
                                  "--out", str(model), "--lemmatizer", "suffix"],
                lambda t: None if t == "" else "unexpected stdout")
        yield
        index = rec.call(
            "build-sentence-index",
            lambda: hd.sentences.build_sentence_index(inputs.book.text, SENT_DIM, VECTOR_SEED, config=config),
            lambda ix: f"{len(ix)} sentences, {len(ix.vocabulary)} words\n",
            lambda t: None,
        )
        yield
        for (name, tail, check), (sname, query, scheck) in zip(inputs.ctx_queries, inputs.sent_queries, strict=True):
            argv = ["context", tail[0], "--model", str(model), "--top", str(TOP), *tail[1:]]
            rec.cli(name, argv, check)
            yield
            if index is not None:
                rec.call(sname, lambda q=query: hd.sentences.query_sentences(index, q, top_n=SENT_TOP),
                         _render_outcome, scheck)
                yield
        if rnd == 0:
            rec.cli("context-stats", ["context", "stats", "--model", str(model)], _check_stats)
            yield


# ------------------------------------------------------------------ spam


def _check_spam_eval(text, tree):
    rows = _rows(text)
    if rows[0] != ["fold", "dim", "seed", "tp", "fp", "fn", "tn", "spam_precision", "spam_recall"]:
        return "bad header"
    folds = rows[1:11]
    if [r[0] for r in folds] != [str(k) for k in range(1, 11)] or rows[11][0] != "avg":
        return "fold rows missing"
    totals = [0, 0, 0, 0]
    for r, size in zip(folds, tree.fold_sizes):
        counts = [int(x) for x in r[3:7]]
        if sum(counts) != size:
            return f"fold {r[0]} classifies {sum(counts)} of {size} messages"
        totals = [a + b for a, b in zip(totals, counts)]
    if [int(x) for x in rows[11][3:7]] != totals:
        return "avg row does not sum the folds"
    if totals[0] + totals[2] != tree.spam:
        return "spam count differs from the corpus"
    return None


def make_spam_inputs(workdir, seed, size):
    return synth.make_spam_tree(Path(workdir) / "lingspam", seed, **SIZES["spam"][size])


def spam_pass(rec, tree, size):
    for mode in ("per-fold", "global"):
        rec.cli(f"spam-eval:{mode}",
                ["spam-eval", "--corpus-dir", str(tree.root), "--dim", "3000", "--vocab-mode", mode],
                lambda t: _check_spam_eval(t, tree))
        yield


# -------------------------------------------------------------- monte carlo


def _check_membership(text, trials):
    rows = _rows(text)
    if rows[0] != ["trial", "member_score", "nonmember_score"] or len(rows) != trials + 3:
        return "bad layout"
    mean = rows[-2]
    if mean[0] != "mean" or abs(float(mean[1]) - 1) > 0.25 or abs(float(mean[2])) > 0.25:
        return f"member/non-member means off: {mean}"
    return None


def _check_rho(text, ks):
    rows = _rows(text)
    if rows[0] != ["k", "sigma", "rho_analytic", "precision_emp", "recall_emp"]:
        return "bad header"
    if [int(r[0]) for r in rows[1:]] != ks:
        return "k column differs from the request"
    for r in rows[1:]:
        if any(x != "NA" and not 0 <= float(x) <= 1 for x in r[2:]):
            return f"rate out of [0, 1] at k={r[0]}"
    return None


def mc_ops(seed, size):
    """(name, argv, vectors generated, check) for every op of the section."""
    ops = []
    for dim, k, trials in SIZES["mc"][size]["sim"]:
        shape = ["membership-sim", "--dim", str(dim), "--k", str(k), "--trials", str(trials)]
        ops.append((" ".join(shape), shape + ["--seed", str(seed)], trials * (k + 1),
                    lambda t, n=trials: _check_membership(t, n)))
    for dim, klist, trials in SIZES["mc"][size]["rho"]:
        ks = list(range(2, dim + 1)) if klist is None else [int(k) for k in klist.split(",")]
        shape = ["rho-curve", "--dim", str(dim), "--trials", str(trials)] + ([] if klist is None else ["--k", klist])
        ops.append((" ".join(shape), shape + ["--seed", str(seed)], trials * (max(ks) + 1),
                    lambda t, ks=ks: _check_rho(t, ks)))
    return ops


def mc_pass(rec, ops, size):
    for name, argv, n, check in ops:
        rec.cli(name, argv, check)
        yield


SECTIONS = {
    "book": (make_book_inputs, book_pass),
    "spam": (make_spam_inputs, spam_pass),
    "mc": (lambda workdir, seed, size: mc_ops(seed, size), mc_pass),
}
