#!/usr/bin/env python3
"""hdsem benchmark: one workload per run, from a fresh process.

    python3 perfbench/run.py --workload book --seed 42 --seconds 20 --trace 0

Workloads (BENCHMARK.json says why each was chosen):
  book         the context-model and sentence-retrieval section at full size
  spam-cv      ten-fold spam-eval in per-fold and global vocabulary mode
  monte-carlo  membership-sim and rho-curve at two shapes each

A workload runs its own section at full size and the two other
sections at a small "probe" size, so that every end-to-end metric has a
value on every workload.  For --seconds the three are interleaved op by
op, each taking a fixed share of the time, and then each goes on until
it has finished its minimum passes (timed_run).  wall_s covers only the
workload's own section.  Inputs are generated from --seed under
.perfbench/ in the checkout; the program sees only those files.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced
and one traced pass of every section, checks that their outputs are
byte-identical, and prints the per-layer metrics (tracer.py).

Every op's output is checked; at the default seed its sha256 must also
equal the pin in pins.json, taken from the unmodified program.  The
last stdout line is one JSON object with keys correct, attempted,
failed and metrics.  The exit code is 1 when any check failed, 2 when
the program source is missing.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import tracer as tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = {"book": "book", "spam-cv": "spam", "monte-carlo": "mc"}  # workload -> own section
# Share of a run's op time that each section gets when it is a probe
# (the home section gets the rest), and the passes each section must
# finish, so that every op runs at least twice (a book pass runs each of
# its ops twice itself) and each spam-eval mode three times.
PROBE_SHARES = {"book": 0.4, "spam": 0.15, "mc": 0.06}
MIN_PASSES = {"book": 1, "spam": 3, "mc": 2}
DEFAULT_SEED = 42
SETUP_SAMPLES = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on a small machine shared with other tenants, a
# two-thread BLAS call stalls whenever a neighbour holds one CPU, which
# made model-query latency jump between runs.  The benchmark's BLAS
# calls (one matrix-vector product per context query, one small
# matrix product per spam fold) gain little from a second thread.
BLAS_THREADS = 1


# glibc raises its mmap threshold each time a large block is freed, so
# whether a 4-30 MB array is mmapped (and page-faulted afresh on every
# call) depended on what had run earlier in the process: context-query
# latency moved by half between workloads.  The benchmark fixes the
# allocator in the state such a process converges to.
MMAP_THRESHOLD = 32 << 20  # glibc's ceiling for the dynamic threshold
TRIM_THRESHOLD = 64 << 20  # twice the threshold, as glibc sets it


def _fix_allocator():
    """Pin glibc's malloc thresholds; returns False where mallopt is absent."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(mallopt(m_trim_threshold, TRIM_THRESHOLD) and mallopt(m_mmap_threshold, MMAP_THRESHOLD))


def _nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def setup():
    """Imports, bundled data and one tiny call through every layer."""
    sys.path.insert(0, str(SRC))
    import hdsem.cli
    import hdsem.context
    import hdsem.core
    import hdsem.experiments
    import hdsem.sentences
    import hdsem.spam
    import hdsem.textpipe

    hd = types.SimpleNamespace(**{layer: getattr(hdsem, layer) for layer in tracing.LAYERS})
    config = hd.textpipe.PipelineConfig(stopwords=hd.textpipe.load_stopwords(), lemmatizer="suffix")
    hd.textpipe.load_suffix_rules()
    text = "Mr. Holmes lit the lamp. Dr. Watson read the papers by the lamp! The lamp burned."
    index = hd.sentences.build_sentence_index(text, 256, 42, config=config)
    hd.sentences.query_sentences(index, "the lamp papers")
    tokens = hd.textpipe.preprocess(text, config)
    model = hd.context.build_context_model(tokens, hd.textpipe.build_vocabulary(tokens, 256, 42), half_window=2)
    hd.context.similar_words(model, "lamp")
    messages = [hd.spam.Message("s", 1, ("cash", "prize")), hd.spam.Message("h", 0, ("paper", "draft"))]
    hd.spam.classify_many(hd.spam.train_filter(messages, 256, 42), messages)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        hd.cli.main(["rho-curve", "--dim", "64", "--k", "2", "--trials", "2"])
    return hd


def setup_seconds():
    """Fresh interpreter to the end of setup(), timed from outside."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--setup-only"],
                          stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
        line = child.stdout.readline()
        seconds = time.perf_counter() - t0
        child.stdout.read()
        child.wait(timeout=120)
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"setup probe failed with exit code {child.returncode}")
    return seconds


def environment(args, nproc):
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "hdsem").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".txt"):
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": nproc, "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "commit": commit or "unknown (not a git checkout)", "source_sha256": digest.hexdigest(),
    }


# ------------------------------------------------------------------ passes


class Runner:
    def __init__(self, hd, workdir, seed, home):
        self.sizes = {sec: "full" if sec == home else "probe" for sec in workloads.SECTIONS}
        self.ops, seen = [], {}
        self.recs = {sec: workloads.Recorder(hd, f"{sec}/{size}", self.ops, seen) for sec, size in self.sizes.items()}
        self.pass_walls = {sec: [] for sec in self.sizes}  # busy seconds of each finished pass
        self.inputs = {}
        for sec, (make, _) in workloads.SECTIONS.items():
            d = workdir / sec
            d.mkdir(parents=True)
            self.inputs[sec] = make(d, seed, self.sizes[sec])

    def steps(self, sec):
        """The section's ops, one per next(), over pass after pass without end."""
        _, section_pass = workloads.SECTIONS[sec]
        rec = self.recs[sec]
        while True:
            busy = rec.busy
            yield from section_pass(rec, self.inputs[sec], self.sizes[sec])
            self.pass_walls[sec].append(rec.busy - busy)

    def one_pass(self, sec):
        _, section_pass = workloads.SECTIONS[sec]
        for _ in section_pass(self.recs[sec], self.inputs[sec], self.sizes[sec]):
            pass


def timed_run(runner, home, seconds):
    """Interleave the sections op by op for `seconds`, then until each has its minimum.

    Each step runs the next op of the section whose busy time lies
    furthest below its share of the run (PROBE_SHARES; the home section
    gets the rest), so each section's ops spread over the whole run and
    the runs of one op land seconds apart.  Past `seconds`, only a
    section short of its minimum passes (MIN_PASSES) goes on; an
    unfinished pass of another section is dropped, though its ops count.
    The SETUP_SAMPLES fresh-interpreter set-ups are spread over
    `seconds` too, and returned.
    """
    shares = {sec: PROBE_SHARES[sec] for sec in runner.sizes if sec != home}
    shares[home] = 1 - sum(shares.values())
    steps = {sec: runner.steps(sec) for sec in shares}
    setups = []
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if len(setups) < SETUP_SAMPLES and elapsed >= len(setups) * seconds / SETUP_SAMPLES:
            setups.append(setup_seconds())
            continue
        due = [sec for sec in shares if elapsed < seconds or len(runner.pass_walls[sec]) < MIN_PASSES[sec]]
        if not due:
            return setups
        next(steps[min(due, key=lambda sec: runner.recs[sec].busy / shares[sec])])


def fastest(runner, sec):
    """Each distinct op of a section -> the seconds of its fastest run.

    Every op runs at least twice in a run, seconds apart.  Load from
    other tenants of the machine only ever adds time, and it comes and
    goes in stretches of a second or more, so an op's fastest run is the
    closest reading of its own cost.
    """
    prefix = runner.recs[sec].scope + " "
    best = {}
    for op in runner.ops:
        if op.name.startswith(prefix):
            name = op.name[len(prefix):]
            best[name] = min(op.seconds, best.get(name, op.seconds))
    return best


def end_to_end(runner, home):
    walls = runner.pass_walls[home]
    book, spam, mc = fastest(runner, "book"), fastest(runner, "spam"), fastest(runner, "mc")
    model = runner.inputs["book"].path.with_name("model.npz")
    messages = runner.inputs["spam"].messages
    mc_ops = runner.inputs["mc"]
    metrics = {
        "wall_s": (statistics.median(walls), f"median of {len(walls)} passes of the {home} section"),
        "build_s": (book["context-build"] + book["build-sentence-index"], "context build + sentence index"),
        "model_bytes": (model.stat().st_size, "saved context model"),
        "perfold_msgs_per_s": (messages / spam["spam-eval:per-fold"], f"{messages} messages"),
        "global_msgs_per_s": (messages / spam["spam-eval:global"], f"{messages} messages"),
        "vectors_per_s": (sum(op[2] for op in mc_ops) / sum(mc[op[0]] for op in mc_ops),
                          f"{len(mc_ops)} membership-sim and rho-curve calls"),
    }
    for name, kinds in (("ctx_query", ("similar:", "arith:")), ("sent_query", ("planted:", "free:"))):
        xs = [1000 * seconds for op, seconds in book.items() if op.startswith(kinds)]
        metrics[f"{name}_p50_ms"] = (statistics.median(xs), f"n={len(xs)} distinct queries")
        metrics[f"{name}_p90_ms"] = (workloads.percentile(xs, 0.9), f"n={len(xs)} distinct queries")
    return metrics


def traced_run(runner, hd):
    """One untraced and one traced pass of every section."""
    t0 = time.perf_counter()
    for sec in runner.sizes:
        runner.one_pass(sec)
    untraced_s = time.perf_counter() - t0
    first = len(runner.ops)
    untraced = [(op.name, op.sha) for op in runner.ops]

    tracer = tracing.Tracer(tracing.HOOKS)
    tracer.install()
    try:
        t0 = time.perf_counter()
        for sec in runner.sizes:
            runner.one_pass(sec)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    for op, (name, sha) in zip(runner.ops[first:], untraced):
        if (op.name, op.sha) != (name, sha) and op.error is None:
            op.error = "traced stdout differs from untraced stdout"

    # growth of split_sentences: time per char on the largest text split
    # in the traced pass, over time per char on its first half
    chars = int(tracer.counts["split.largest_chars"])
    text = runner.inputs["book"].book.text[: chars // 2]
    t0 = time.perf_counter()
    hd.sentences.split_sentences(text)
    half_s = time.perf_counter() - t0
    growth = (tracer.counts["split.largest_s"] / chars) / (half_s / len(text)) if text else 0.0

    inclusive, own = tracer.totals()
    c = tracer.counts
    metrics = {f"{layer}.self_s": own[layer] for layer in tracing.LAYERS}
    metrics.update({f"{name}.s": seconds for name, seconds in inclusive.items()})
    metrics.update(c)
    metrics["sentences.split_sentences.growth"] = growth
    metrics["textpipe.sign_matrix_per_vocab"] = (
        c["textpipe.Vocabulary.sign_matrix.calls"] / max(1, len(tracer.state["vocabularies"])))
    # message bundles built per message per cross-validation run: 10 when
    # every fold re-bundles its nine training parts and its test part
    metrics["spam.bundles_per_message"] = c["spam.bundles"] / max(1, len(tracer.state["messages"]) * c["spam.cv_runs"])
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.spans"] = len(tracer.spans)
    return metrics, tracer


# -------------------------------------------------------------------- main


def check_pins(ops):
    pins = json.loads((BENCH / "pins.json").read_text(encoding="utf-8"))["ops"]
    for op in ops:
        if op.error is None and pins.get(op.name) != op.sha:
            op.error = "stdout differs from its pin" if op.name in pins else "op has no pin"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "hdsem" / "__init__.py").is_file():
        print(f"error: program source not found at {SRC / 'hdsem'}", file=sys.stderr)
        return 2
    allocator_fixed = _fix_allocator()
    nproc = _nproc()
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if args.setup_only:
        setup()
        print("ready", flush=True)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = environment(args, nproc)
    env["malloc_thresholds"] = f"mmap {MMAP_THRESHOLD}, trim {TRIM_THRESHOLD}" if allocator_fixed else "default"
    hd = setup()
    home = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    t0 = time.perf_counter()
    runner = Runner(hd, workdir, args.seed, home)
    env["corpus_generation_s"] = round(time.perf_counter() - t0, 3)

    if args.trace:
        values, tracer = traced_run(runner, hd)
        tracer.write(workdir / "spans.json")
        notes = {}
        wanted = spec["per_layer"]
    else:
        setup_times = timed_run(runner, home, args.seconds)
        found = end_to_end(runner, home)
        values = {k: v for k, (v, _) in found.items()}
        notes = {k: note for k, (_, note) in found.items()}
        values["setup_s"] = statistics.median(setup_times)
        notes["setup_s"] = f"median of {SETUP_SAMPLES} fresh interpreters"
        values["peak_rss_mb"] = _peak_rss_mb()
        wanted = spec["end_to_end"]

    ops = runner.ops
    if args.seed == DEFAULT_SEED:
        check_pins(ops)
    failed = [op for op in ops if op.error is not None]
    values["ok_share"] = (len(ops) - len(failed)) / len(ops)
    notes["ok_share"] = f"{len(ops) - len(failed)} of {len(ops)} ops passed"
    # a layer the workload never called has no spans: its per-layer values are 0
    metrics = {m["name"]: {"value": values[m["name"]] if not args.trace else values.get(m["name"], 0),
                           "unit": m["unit"]} for m in wanted}

    print(f"hdsem benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for op in failed[:20]:
        print(f"FAILED {op.name}: {op.error}")
    for name, m in metrics.items():
        print(f"  {name:<42} {m['value']:>14.6g} {m['unit']:<6} {notes.get(name, '')}")
    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed), "metrics": metrics}
    timings = [[op.name, round(op.seconds, 6), op.error] for op in ops]
    (workdir / "result.json").write_text(json.dumps({"env": env, "notes": notes, **result, "ops": timings}, indent=1)
                                         + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 1 if failed else 0


def _peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


if __name__ == "__main__":
    sys.exit(main())
