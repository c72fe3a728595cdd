"""Seeded synthetic corpora with planted structure, for the benchmark.

Two generators stand in for corpora that are not in the repository:

* make_book: a Zipf-distributed text shaped like a Gutenberg novel
  (sentence terminators, "Mr."/"Dr." abbreviations, uppercase initials,
  closing quotes and brackets after terminators, one very long
  paragraph).  It plants two kinds of structure whose answers are known
  without an oracle:
    - twin words: each pair (a, b) occurs only inside mirrored sentences
      "w1..w5 a w6..w10." / "w1..w5 b w6..w10.", so a and b have equal
      context rows and must be each other's top `similar` hit at 1;
    - planted sentences: unique bags of content words that must retrieve
      themselves at exactly 1.000000.
* make_spam_tree: a ten-part Ling-Spam-layout directory (part1..part10,
  spam files named spmsg*) with overlapping class vocabularies,
  lognormal message lengths, and edge files: an empty message, a message made
  only of words found nowhere else, latin-1 bytes, and a message with
  no Subject: line.

Content words are consonant-vowel syllables ending in a vowel, so no
rule of the suffix lemmatizer rewrites them and no English stop word
collides with them.  Words meant to be unknown contain "q", which no
generated vocabulary word does.  Everything is drawn from
random.Random seeded by the caller, so one seed gives byte-identical
files on every run.  The amount of work a corpus asks for does not
drift with the seed: lengths sit at fixed quantiles, word lengths
follow the word's rank, the book's vocabulary size is exact, and
decorations come in fixed proportions.
"""

import math
import random
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

_CONSONANTS = "bdfgklmnprtvz"
_VOWELS = "aiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]

# English function words; the pipeline's stop list removes most of them.
_FUNCTION_WORDS = (
    "the and of to a in that it was he i his you with had as for her at "
    "not but is she be on my him they have all this by which said from so "
    "were we there one what an me would no when then been their could if "
    "upon into very more some out now your our who only over"
).split()
_ABBREVIATED = ("Mr.", "Mrs.", "Dr.", "St.", "Capt.")
_UNKNOWN_SYLLABLES = ["q" + v for v in _VOWELS] + ["qu" + c for c in "bdgkr"]


def _word(rng, syllables):
    return "".join(rng.choice(_SYLLABLES) for _ in range(syllables))


def _distinct_words(rng, count, taken, min_syl=2, max_syl=4):
    """Fresh words; the i-th has a syllable count fixed by i, not drawn."""
    out = []
    for _ in range(100 * count):
        if len(out) == count:
            break
        w = _word(rng, min_syl + len(out) % (max_syl - min_syl + 1))
        if w not in taken:
            taken.add(w)
            out.append(w)
    if len(out) < count:
        raise ValueError(f"cannot draw {count} distinct words of {min_syl}-{max_syl} syllables")
    return out


def unknown_word(rng):
    """A lowercase word that no generated vocabulary contains."""
    return "".join(rng.choice(_UNKNOWN_SYLLABLES) for _ in range(rng.randint(2, 3))) + "o"


def _cumulative(n, exponent):
    total = 0.0
    cum = []
    for r in range(1, n + 1):
        total += r ** -exponent
        cum.append(total)
    return cum


def _wrap(text, width=72):
    lines, line = [], []
    size = 0
    for tok in text.split(" "):
        if line and size + 1 + len(tok) > width:
            lines.append(" ".join(line))
            line, size = [], 0
        size += len(tok) + (1 if line else 0)
        line.append(tok)
    if line:
        lines.append(" ".join(line))
    return "\n".join(lines)


@dataclass(frozen=True)
class Book:
    text: str
    twins: tuple  # (a, b) pairs with identical contexts
    planted: tuple  # sentences that must retrieve themselves at 1.0
    content_words: tuple  # base words that occur uninflected at least 3 times
    tokens: int  # raw word count of the text


def _lognormal_lengths(rng, n, mu, sigma, low, high):
    """n lengths at the lognormal's quantiles (i + 1/2) / n, shuffled.

    Every seed gets the same multiset of lengths, so the total work a
    corpus asks for does not drift with the seed.
    """
    z = NormalDist()
    out = [min(high, max(low, int(math.exp(mu + sigma * z.inv_cdf((i + 0.5) / n))))) for i in range(n)]
    rng.shuffle(out)
    return out


def _shares(rng, n, shares):
    """n labels holding each share exactly (the rest is None), shuffled."""
    out = [label for label, share in shares for _ in range(round(share * n))]
    out += [None] * (n - len(out))
    rng.shuffle(out)
    return out


def make_book(seed, tokens=25_000, vocab=4000, exponent=1.07, function_share=0.42,
              n_twins=12, twin_reps=3, n_planted=25, long_paragraph=300):
    """Zipf text of about `tokens` words with planted twins and sentences.

    Exactly `vocab` content words occur, each at least once, so the
    vocabulary size does not move with the seed.  Frequent words are
    shorter than rare ones, and sentences run about 20 words.
    """
    rng = random.Random(f"book:{seed}")
    taken = set()
    pool = _distinct_words(rng, min(vocab, 3000), taken, 2, 3) + _distinct_words(rng, max(0, vocab - 3000), taken, 2, 4)
    cum = _cumulative(vocab, exponent)
    fcum = _cumulative(len(_FUNCTION_WORDS), 1.0)
    names = [w.capitalize() for w in _distinct_words(rng, 20, taken, 2, 3)]
    twin_words = _distinct_words(rng, 2 * n_twins, taken, 3, 4)
    twins = tuple((twin_words[2 * i], twin_words[2 * i + 1]) for i in range(n_twins))
    mu, sigma = 2.9, 0.45
    lengths = _lognormal_lengths(rng, round(tokens / math.exp(mu + sigma * sigma / 2)), mu, sigma, 3, 200)
    n_content = [round(n * (1 - function_share)) for n in lengths]
    stream = pool + rng.choices(pool, cum_weights=cum, k=max(0, sum(n_content) - vocab))
    rng.shuffle(stream)
    used = {}

    def content():
        w = stream.pop()
        r = rng.random()
        if r < 0.06 and not w.endswith("u"):  # "-us" is terminal for the lemmatizer
            return w + "s"
        if r < 0.09:
            return w + "ing"
        used[w] = used.get(w, 0) + 1
        return w

    # how many sentences carry each decoration is fixed; only where is drawn
    inserts = _shares(rng, len(lengths), [("abbreviation", 0.12), ("initial", 0.06)])
    commas = _shares(rng, len(lengths), [(True, 0.1)])
    endings = _shares(rng, len(lengths), [("said", 0.1), ('?"', 0.06), ('!"', 0.04), (".)", 0.04),
                                          ("?", 0.06), ("!", 0.03)])

    def sentence(i):
        n, k = lengths[i], n_content[i]
        words = [content() for _ in range(k)] + rng.choices(_FUNCTION_WORDS, cum_weights=fcum, k=n - k)
        rng.shuffle(words)
        if inserts[i] == "abbreviation":
            words.insert(rng.randrange(len(words)), f"{rng.choice(_ABBREVIATED)} {rng.choice(names)}")
        elif inserts[i] == "initial":
            words.insert(rng.randrange(len(words)), f"{rng.choice('ABCDEFGHJKLMNOPRSTW')}. {rng.choice(names)}")
        if commas[i]:
            k = rng.randrange(1, len(words))
            words[k] = words[k] + ","
        body = " ".join(words)
        body = body[0].upper() + body[1:]
        end = endings[i]
        if end == "said":
            return f'"{body}," said {rng.choice(_ABBREVIATED)} {rng.choice(names)}.'
        if end in ('?"', '!"'):
            return f'"{body}{end[0]}"'
        if end == ".)":
            return f"({body}.)"
        return body + (end or ".")

    def content_sentence(words):
        s = " ".join(words)
        return s[0].upper() + s[1:] + "."

    # planted sentences and twin passages use only frequent base words
    frequent = pool[:2000]
    planted = []
    seen_bags = set()
    while len(planted) < n_planted:
        words = rng.sample(frequent, rng.randint(8, 12))
        bag = frozenset(words)
        if bag not in seen_bags:
            seen_bags.add(bag)
            planted.append(content_sentence(words))
    specials = list(planted)
    for a, b in twins:
        for _ in range(twin_reps):
            ctx = rng.sample(frequent, 10)
            for w in ctx:
                used[w] = used.get(w, 0) + 1
            specials.append(content_sentence(ctx[:5] + [a] + ctx[5:]))
            specials.append(content_sentence(ctx[:5] + [b] + ctx[5:]))
    for s in planted:
        for w in s.rstrip(".").lower().split():
            used[w] = used.get(w, 0) + 1

    sentences = [sentence(i) for i in range(len(lengths))]
    for s in specials:
        sentences.insert(rng.randrange(len(sentences) + 1), s)

    paragraphs = []
    i = 0
    long_at = len(sentences) // 3
    while i < len(sentences):
        n = long_paragraph if long_at <= i < long_at + long_paragraph else rng.randint(2, 8)
        paragraphs.append(_wrap(" ".join(sentences[i : i + n])))
        i += n
    text = "\n\n".join(paragraphs) + "\n"
    content_words = tuple(sorted(w for w, c in used.items() if c >= 3))
    return Book(text, twins, tuple(planted), content_words, len(text.split()))


@dataclass(frozen=True)
class SpamTree:
    root: Path
    messages: int
    spam: int
    fold_sizes: tuple


class _Pool:
    """Words drawn with Zipf weights, so frequent words recur across messages."""

    def __init__(self, words, exponent=1.0):
        self.words = words
        self.cum = _cumulative(len(words), exponent)

    def draw(self, rng):
        return rng.choices(self.words, cum_weights=self.cum)[0]


def _spam_body(rng, shared, own, other, n):
    words = []
    for _ in range(n):
        r = rng.random()
        pool = shared if r < 0.5 else own if r < 0.85 else other
        words.append(pool.draw(rng))
    return words


def make_spam_tree(root, seed, messages=2900, spam_ratio=1 / 6):
    """Write a ten-part Ling-Spam-layout tree under root; returns its shape.

    About spam_ratio of the messages are spam (1:5 spam to ham at the
    default), spread evenly over the ten parts.  Edge files land in
    part 10: an empty message, one made only of words found nowhere
    else, one with latin-1 bytes, and one without a Subject: line.
    """
    rng = random.Random(f"spam:{seed}")
    root = Path(root)
    taken = set()
    shared = _Pool(_distinct_words(rng, 3000, taken))
    spam_words = _Pool(_distinct_words(rng, 1200, taken, 3, 4))
    ham_words = _Pool(_distinct_words(rng, 4000, taken, 3, 4))
    latin = ["caf\xe9", "na\xefve", "\xfcber", "se\xf1or", "fa\xe7ade"]
    n_spam = round(messages * spam_ratio)
    labels = [1] * n_spam + [0] * (messages - n_spam)
    rng.shuffle(labels)
    lengths = _lognormal_lengths(rng, messages, 5.0, 0.8, 1, 2000)
    fold_sizes = [0] * 10
    for p in range(1, 11):
        (root / f"part{p}").mkdir(parents=True, exist_ok=True)
    for i, label in enumerate(labels):
        p = i % 10 + 1
        fold_sizes[p - 1] += 1
        n = lengths[i]
        own, other = (spam_words, ham_words) if label else (ham_words, spam_words)
        subject = " ".join(_spam_body(rng, shared, own, other, rng.randint(2, 8)))
        body = _wrap(" ".join(_spam_body(rng, shared, own, other, n)))
        name = f"spmsg{i:05d}.txt" if label else f"{p}-{i:05d}msg.txt"
        (root / f"part{p}" / name).write_bytes(f"Subject: {subject}\n\n{body}\n".encode("latin-1"))
    edge = root / "part10"
    (edge / "9-90000msg.txt").write_bytes(b"")
    unknown = " ".join(unknown_word(rng) for _ in range(12))
    (edge / "9-90001msg.txt").write_bytes(f"Subject: {unknown}\n\n{unknown}\n".encode("latin-1"))
    words = _spam_body(rng, shared, spam_words, ham_words, 40) + latin
    (edge / "spmsg90002.txt").write_bytes(f"Subject: {' '.join(latin)}\n\n{_wrap(' '.join(words))}\n".encode("latin-1"))
    words = _spam_body(rng, shared, ham_words, spam_words, 60)
    (edge / "9-90003msg.txt").write_bytes(f"{_wrap(' '.join(words))}\n".encode("latin-1"))
    fold_sizes[9] += 4
    return SpamTree(root, messages + 4, n_spam + 1, tuple(fold_sizes))
