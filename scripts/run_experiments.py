#!/usr/bin/env python3
"""Regenerate the standard result tables under results/.

Always produced:
  results/membership_scores.csv   score distributions at d=10^4, k=10^3
  results/rho_curve.csv           empirical vs analytic retrieval quality

With data/sherlock.txt present (scripts/fetch_data.py):
  results/sherlock_ctx.npz        context model, window 10, d=1000
  results/sherlock_similar_*.csv  context neighbors for a few probe words
  results/sherlock_arith.csv      context arithmetic: plus accent minus german
  results/sherlock_stats.csv      per-word context totals
  results/sherlock_irene.csv      top sentences for the Irene question

With data/lingspam present:
  results/spam_eval_d{1000,2000,3000}.csv   10-fold cross-validation

Everything goes through the CLI so the tables match what a user would
get from the commands quoted in the README.
"""

import sys
from pathlib import Path

from hdsem.cli import main as cli

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
RESULTS = ROOT / "results"

IRENE_QUESTION = (
    "Who is the woman Irene in the photograph, and what is her "
    "special connection to Sherlock?"
)


def run(argv):
    print("hdsem " + " ".join(argv))
    code = cli(argv)
    if code != 0:
        raise SystemExit(code)


def main():
    RESULTS.mkdir(exist_ok=True)

    run(["membership-sim", "--out", str(RESULTS / "membership_scores.csv")])
    run(["rho-curve", "--k", "10,25,46,70,100,140,200,300",
         "--out", str(RESULTS / "rho_curve.csv")])

    book = DATA / "sherlock.txt"
    if book.exists():
        model = RESULTS / "sherlock_ctx.npz"
        run(["context", "build", "--input", str(book), "--out", str(model),
             "--lemmatizer", "suffix"])
        for word in ("arm", "boat", "woman"):
            run(["context", "similar", "--model", str(model), "--top", "10",
                 "--out", str(RESULTS / f"sherlock_similar_{word}.csv"), word])
        run(["context", "arith", "--model", str(model), "--top", "10",
             "--out", str(RESULTS / "sherlock_arith.csv"),
             "plus", "accent", "minus", "german"])
        run(["context", "stats", "--model", str(model),
             "--out", str(RESULTS / "sherlock_stats.csv")])
        run(["sentence-query", "--input", str(book), "--lemmatizer", "suffix",
             "--out", str(RESULTS / "sherlock_irene.csv"), IRENE_QUESTION])
    else:
        print("data/sherlock.txt missing, skipping the book experiments", file=sys.stderr)

    mail = DATA / "lingspam"
    if (mail / "part1").is_dir():
        for dim in (1000, 2000, 3000):
            run(["spam-eval", "--corpus-dir", str(mail), "--dim", str(dim),
                 "--out", str(RESULTS / f"spam_eval_d{dim}.csv")])
    else:
        print("data/lingspam missing, skipping the spam experiments", file=sys.stderr)


if __name__ == "__main__":
    main()
