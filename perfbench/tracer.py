"""Spans around calls into the program's layers, recorded from outside.

The program carries no instrumentation, so the benchmark wraps the
public functions and methods of each layer module under src/hdsem/ in
place: every module namespace that imported a function by name gets
the wrapper, and every class gets wrapped methods.  Each call records a
span (name, start, end, parent); parents come from a call stack, so a
span's self time is its duration minus its children's.  Spans stay in
memory until the run writes them out.  Counters ride on the same
wrappers: a per-function hook sees the arguments, the result and the
span's duration.
"""

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("core", "experiments", "textpipe", "sentences", "context", "spam", "cli")


class Tracer:
    def __init__(self, hooks=None):
        self.spans = []  # [name, layer, start, end, parent index or -1]
        self.counts = Counter()
        self.state = defaultdict(set)  # hook scratch space, e.g. distinct keys
        self._hooks = hooks or {}
        self._stack = []
        self._undo = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name, layer, fn):
        hook = self._hooks.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result, span[3] - span[2])
            return result

        return traced

    def install(self, package="hdsem"):
        """Wrap every public function and method of the layer modules."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == package or n.startswith(package + ".")]
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(f"{layer}.{attr}", layer, obj)
                    for ns in modules:
                        for key, value in list(vars(ns).items()):
                            if value is obj:
                                self._set(ns, key, wrapper, obj)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)

    def _wrap_class(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(name, layer, raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(name, layer, raw)
            else:
                continue
            self._set(cls, attr, wrapped, raw)

    def _set(self, owner, attr, new, old):
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # ---------------------------------------------------------- reporting

    def totals(self):
        """Inclusive seconds per span name and self seconds per layer."""
        inclusive = Counter()
        child = [0.0] * len(self.spans)
        for name, _, start, end, parent in self.spans:
            inclusive[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own = Counter({layer: 0.0 for layer in LAYERS})
        for (name, layer, start, end, _), kids in zip(self.spans, child):
            own[layer] += end - start - kids
        return inclusive, own

    def write(self, path):
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": [[n, round(s - t0, 7), round(e - t0, 7), p] for n, _, s, e, p in self.spans]}, fh)


# --------------------------------------------------------------- counters


def _count(key, amount):
    def hook(tracer, args, kwargs, result, seconds):
        tracer.counts[key] += amount(args, kwargs, result)
    return hook


def _split(tracer, args, kwargs, result, seconds):
    tracer.counts["sentences.split_sentences.sentences"] += len(result)
    chars = len(args[0])
    if chars >= tracer.counts["split.largest_chars"]:
        tracer.counts["split.largest_chars"] = chars
        tracer.counts["split.largest_s"] = seconds


def _vocab_seen(tracer, vocab):
    tracer.counts["textpipe.vocab_size"] = max(tracer.counts["textpipe.vocab_size"], len(vocab))


def _encode(tracer, args, kwargs, result, seconds):
    tracer.counts["textpipe.Vocabulary.encode.calls"] += 1
    tracer.counts["textpipe.Vocabulary.encode.tokens"] += len(args[1])
    _vocab_seen(tracer, args[0])


def _sign_matrix(tracer, args, kwargs, result, seconds):
    vocab = args[0]
    tracer.counts["textpipe.Vocabulary.sign_matrix.calls"] += 1
    tracer.state["vocabularies"].add((vocab.dim, vocab.seed, hash(vocab.words)))
    _vocab_seen(tracer, vocab)


def _bow(tracer, args, kwargs, result, seconds):
    tracer.counts["textpipe.Vocabulary.bow_matrix.rows"] += len(args[1])
    _vocab_seen(tracer, args[0])


def _bundled(key):
    def hook(tracer, args, kwargs, result, seconds):
        messages = args[1] if key == "classify" else args[0]
        tracer.counts["spam.bundles"] += len(messages)
        tracer.state["messages"].update(m.message_id for m in messages)
        if key == "train":
            tracer.counts["spam.train_filter.rows"] += result.matrix.shape[0]
        else:
            tracer.counts["spam.classify_many.unclassifiable"] += sum(r.unclassifiable for r in result)
    return hook


HOOKS = {
    "sentences.split_sentences": _split,
    "sentences.query_sentences": _count("sentences.query_sentences.dropped_tokens",
                                        lambda a, k, r: len(r.dropped_tokens)),
    "textpipe.preprocess": _count("textpipe.preprocess.tokens_kept", lambda a, k, r: len(r)),
    "textpipe.Vocabulary.encode": _encode,
    "textpipe.Vocabulary.sign_matrix": _sign_matrix,
    "textpipe.Vocabulary.bow_matrix": _bow,
    "spam.ingest_lingspam": _count("spam.ingest_lingspam.messages", lambda a, k, r: sum(len(f) for f in r)),
    "spam.train_filter": _bundled("train"),
    "spam.classify_many": _bundled("classify"),
    "spam.cross_validate": _count("spam.cv_runs", lambda a, k, r: 1),
    "core.generate_packed": _count("core.generate_packed.vectors", lambda a, k, r: r.shape[0]),
    "core.packed_signs": _count("core.packed_signs.bytes_out", lambda a, k, r: r.nbytes),
    "experiments.membership_sim": _count("experiments.membership_sim.trials", lambda a, k, r: a[0].trials),
}
