"""talarescore benchmark: closed-loop decode workloads with per-layer tracing.

Run from the repository root:

    python3 perfbench/run.py --workload rescore-adaptive --seed 2024 --seconds 30 --trace 0
    python3 perfbench/run.py --workload acoustic-io --seed 7 --seconds 30 --trace 1
    python3 perfbench/run.py --write-reference

One process, one caller, no threads: each decode is issued only after the
previous one returned (a closed loop).  A decode is one (lattice, config) ->
hypothesis: ``loads_lattice`` of the lattice text, the decoder, and ``ser``
against the true sequence.

``--trace 0`` measures the end-to-end metrics with tracing off: it sets the
model up several times (train, dump, load) and reports the median, then
decodes in a loop for ``--seconds`` seconds, finishing the current round.
The loop makes at least the workload's fixed number of decodes first; ``ser``
and ``peak_rss_mb`` are taken over exactly those, so that they do not depend
on how many decodes fit in the time.
``--trace 1`` decodes a fixed number of decodes three times, untraced, traced
by wrapping the program's layer functions (see ``tracing.py``), and untraced
again; it checks that all three give identical hypotheses and reports
per-layer counts and times.

Timings are reported at a reference machine speed: while the benchmark
sets up and decodes, a fixed reference kernel measures ten times a second how
fast the machine runs, and each time is scaled by the speed around it (see
``machine.py``).  The values as measured are printed too, on a comment line.

Every hypothesis is checked: it must spell a start-to-final path of its
lattice, and ``ser`` must agree with an independent edit distance.  At the
reference seed each hypothesis must also match the digest recorded in
``reference.json``, which ``--write-reference`` regenerates after checking
the standard suite's pooled SER against the published report.

The metric names and units are those of ``BENCHMARK.json``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace

import numpy

sys.dont_write_bytecode = True

import checks  # noqa: E402
import machine  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPEC_PATH = HERE.parent / "BENCHMARK.json"
REFERENCE_PATH = HERE / "reference.json"
REFERENCE_SEED = 2024

# The six lambda modes of the ``bench`` sweep, in its order.
SWEEP_MODES = ("fixed:0", "fixed:0.25", "fixed:0.5", "fixed:0.75", "fixed:1", "adaptive")
BASELINE = "baseline"
# Pooled SER of the standard suite at seed 2024, as the report.tsv of
# ``talarescore bench --seed 2024`` prints it (4 decimals).
REPORT_SER = {"baseline": 0.3385, "fixed:0": 0.2821, "fixed:1": 0.3305, "adaptive": 0.2803}
SETUP_REPEATS = 25
# The standard suite's seed streams for test truths and lattice noise.
TEST_STREAM, LATTICE_STREAM = 1, 2


@dataclass(frozen=True)
class Workload:
    modes: tuple[str, ...]
    talas: tuple[str, ...]  # a subset of the suite's talas; empty for all
    per_tala: int  # lattices per tala; index i < 13 is the standard suite's
    p_edit: float  # p_del = p_ins of the generated lattices
    index_base: int  # offset into the suite's per-tala seed index
    count: int  # decodes every timed run makes first, in whole rounds
    trace_decodes: int  # decodes per pass of a traced run
    tail_bp: int  # the decode_ms.tail percentile over distinct decodes, in basis points


WORKLOADS = {
    # The rescore path, where every decode layer works.  40 lattices per tala
    # (13 in the standard suite) so that a run never re-decodes a lattice with
    # a warm memo.
    "rescore-adaptive": Workload(
        modes=("adaptive",),
        talas=(),
        per_tala=40,
        p_edit=0.0,
        index_base=0,
        count=48,
        trace_decodes=16,
        tail_bp=7500,
    ),
    # The bench inner loop: one shared model, so the memo is warm across modes.
    # Tintal only, so that every round has the same cost mix.
    "bench-sweep": Workload(
        modes=(BASELINE,) + SWEEP_MODES,
        talas=("tintal",),
        per_tala=30,
        p_edit=0.0,
        index_base=0,
        count=49,
        trace_decodes=14,
        tail_bp=7500,
    ),
    # rescore --baseline + ser: parse and SER do the work, the rescorer none.
    # No program state survives a decode, so 500 distinct lattices are cycled.
    "acoustic-io": Workload(
        modes=(BASELINE,),
        talas=(),
        per_tala=125,
        p_edit=0.1,
        index_base=5000,
        count=12_000,
        trace_decodes=4000,
        tail_bp=9800,
    ),
}

# The standard suite's 52 test lattices under the configs REPORT_SER names.
STANDARD_SUITE = Workload(
    modes=tuple(REPORT_SER),
    talas=(),
    per_tala=13,
    p_edit=0.0,
    index_base=0,
    count=0,
    trace_decodes=0,
    tail_bp=0,
)

# Diagnostics counters summed over a traced run (max_queue takes the max).
DIAG_COUNTERS = ("pops", "pushes", "pruned_capacity", "pruned_band")


@dataclass(frozen=True)
class Item:
    key: str  # "<kind>:<tala>:<index>"
    truth: object  # the StrokeSequence the lattice was generated around
    arcs: tuple[tuple[int, int, int], ...]  # (src, dst, label) as generated
    start: int
    finals: frozenset[int]
    text: str  # the lattice file contents the decode parses


@dataclass
class Outcome:
    index: int  # position in the decode list
    hyp: tuple[int, ...] | None  # None when the decode raised
    errors: int = 0
    n_ref: int = 0
    ms: float = 0.0
    at: float = 0.0  # clock when the decode started


def load_program() -> SimpleNamespace:
    """Import talarescore from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "talarescore" / "__init__.py").is_file():
        sys.exit(f"error: no talarescore sources under {SRC}")
    sys.path.insert(0, str(SRC))
    names = ("core", "eval", "lattice", "model", "rescorer")
    prog = SimpleNamespace(**{n: importlib.import_module(f"talarescore.{n}") for n in names})
    if not Path(prog.core.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: talarescore imported from {prog.core.__file__}, not {SRC}")
    return prog


def make_items(prog: SimpleNamespace, suite, wl: Workload) -> list[Item]:
    """The workload's lattices, round-robin over the suite's talas.

    Truths and lattice noise come from the standard suite's seed streams, so
    with ``index_base=0`` the first 13 lattices per tala are exactly the
    standard suite's test lattices.  Round-robin order gives every prefix the
    same tala mix.
    """
    vocab = prog.core.default_vocabulary()
    talas = []
    for t_idx, name in enumerate(suite.talas):
        if wl.talas and name not in wl.talas:
            continue
        tala = prog.core.builtin_tala(name, vocab)
        dev = suite.deviation
        if dev.p_tihai > 0 and not prog.core.can_host_tihai(tala, dev.tihai):
            dev = replace(dev, p_tihai=0.0)
        talas.append((t_idx, tala, dev))
    kind = "suite" if wl.index_base == 0 and wl.p_edit == 0 else f"edit{wl.p_edit}"
    items = []
    for i in range(wl.per_tala):
        for t_idx, tala, dev in talas:
            idx = t_idx * 10_000 + wl.index_base + i
            truth = prog.core.generate_sequence(
                tala, suite.cycles, dev, prog.eval.split_seed(suite.seed, TEST_STREAM, idx), vocab
            )
            cfg = prog.lattice.LatticeGenConfig(
                rng_seed=prog.eval.split_seed(suite.seed, LATTICE_STREAM, idx),
                branching=suite.branching,
                noise_sigma=suite.noise_sigma,
                margin=suite.margin,
                p_del=wl.p_edit,
                p_ins=wl.p_edit,
            )
            lat = prog.lattice.generate_lattice(truth, cfg, vocab)
            items.append(
                Item(
                    key=f"{kind}:{tala.name}:{i}",
                    truth=truth,
                    arcs=tuple((a.src, a.dst, a.label) for a in lat.arcs),
                    start=lat.start,
                    finals=frozenset(lat.finals),
                    text=prog.lattice.dumps_lattice(lat),
                )
            )
    return items


def stopwatch(probe: machine.SpeedProbe):
    """Start timing; the returned function gives the seconds since, without
    the time ``probe`` spent sampling meanwhile."""
    t0, spent0 = time.perf_counter(), probe.spent
    return lambda: time.perf_counter() - t0 - (probe.spent - spent0)


def set_up(prog: SimpleNamespace, suite, corpus, vocab, repeats: int, probe: machine.SpeedProbe):
    """Train, dump and load the model ``repeats`` times (the ``train`` +
    ``rescore --model`` path) while ``probe`` samples the machine's speed;
    returns the last loaded model, whose memos are cold, and the median
    set-up time in seconds at the reference speed."""
    intervals = []
    with probe.running():
        for _ in range(repeats):
            t0, elapsed = time.perf_counter(), stopwatch(probe)
            model = prog.model.train_model(
                corpus, vocab, n=suite.n, laplace_k=suite.laplace_k, w_tau=suite.w_tau, eps_dir=suite.eps_dir
            )
            model = prog.model.loads_model(prog.model.dumps_model(model))
            intervals.append((t0, t0 + elapsed()))
    scales = probe.scales_over(intervals)
    return model, statistics.median((end - t0) * scale for (t0, end), scale in zip(intervals, scales))


def run_loop(prog, model, decodes, configs, probe, *, count=0, seconds=0.0, round_size=1, counters=None):
    """Decode in a closed loop, cycling through ``decodes``, until at least
    ``count`` decodes and ``seconds`` seconds are done and the decodes make
    whole rounds of ``round_size``, while ``probe`` samples the machine's
    speed.  Returns the outcomes, the wall time of the loop, and the peak RSS
    in MB once ``count`` decodes were done; times leave out the probe's.
    With ``counters``, sums the rescorer's diagnostics."""
    clock = time.perf_counter
    outcomes: list[Outcome] = []
    rss_mb = peak_rss_mb()
    with probe.running():
        start, wall = clock(), stopwatch(probe)
        i = 0
        while i < count or i % round_size or clock() - start < seconds:
            index = i % len(decodes)
            item, mode = decodes[index]
            t0, elapsed = clock(), stopwatch(probe)
            try:
                lat = prog.lattice.loads_lattice(item.text, vocab=model.vocab)
                if mode == BASELINE:
                    hyp = prog.lattice.viterbi_acoustic(lat)
                else:
                    hyp, expanded, diag = prog.rescorer.rescore(lat, model, configs[mode])
                stats = prog.eval.ser(item.truth, hyp)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                outcomes.append(Outcome(index, None, ms=1000 * elapsed(), at=t0))
            else:
                ms = 1000 * elapsed()
                outcomes.append(Outcome(index, tuple(hyp.strokes), stats.total_errors, stats.n_ref, ms, t0))
                if counters is not None and mode != BASELINE:
                    for name in DIAG_COUNTERS:
                        counters[name] += getattr(diag, name, 0)
                    counters["max_queue"] = max(counters["max_queue"], getattr(diag, "max_queue_size", 0))
                    counters["states"] += len(getattr(expanded, "states", ()))
            i += 1
            if i == count:
                rss_mb = peak_rss_mb()
        return outcomes, wall(), rss_mb


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def check_outcomes(outcomes, decodes, vocab, reference) -> tuple[list[bool], int]:
    """Whether each decode passed its output checks, and how many decodes were
    checked against ``reference``.

    A decode fails when it raised, when its hypothesis is no start-to-final
    path of its lattice, when ``ser`` disagrees with an independent edit
    distance, or when it differs from the reference hypothesis.
    """
    verdicts: dict[tuple[int, tuple[int, ...]], tuple[bool, int]] = {}
    passed = []
    referenced = 0
    for o in outcomes:
        if o.hyp is None:
            passed.append(False)
            continue
        item, mode = decodes[o.index]
        expected = reference.get(f"{item.key}/{mode}")
        referenced += expected is not None
        verdict = verdicts.get((o.index, o.hyp))
        if verdict is None:
            path_ok = checks.is_lattice_path(item.arcs, item.start, item.finals, o.hyp)
            ref_ok = expected is None or expected == digest(o.hyp, vocab)
            distance = checks.edit_distance(item.truth.strokes, o.hyp)
            verdict = verdicts[(o.index, o.hyp)] = (path_ok and ref_ok, distance)
        ok, distance = verdict
        passed.append(ok and o.n_ref == len(item.truth.strokes) and o.errors == distance)
    return passed, referenced


def digest(hyp: tuple[int, ...], vocab) -> str:
    return checks.hyp_digest([vocab.symbol_of(s) for s in hyp])


def prepare(prog, wl: Workload, seed: int):
    suite = prog.eval.standard_suite(seed)
    vocab = prog.core.default_vocabulary()
    corpus = prog.eval.build_training_corpus(suite, vocab)
    items = make_items(prog, suite, wl)
    decodes = [(item, mode) for item in items for mode in wl.modes]
    configs = {m: prog.rescorer.RescoreConfig(lambda_mode=m) for m in wl.modes if m != BASELINE}
    return suite, vocab, corpus, decodes, configs


def load_reference(seed: int) -> dict[str, str]:
    if seed != REFERENCE_SEED:
        return {}
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))["hypotheses"]


def timings(outcomes, scales: list[float], wall: float, tail_bp: int) -> tuple[dict[str, float], int]:
    """decodes_per_s, decode_ms.p50 and decode_ms.tail, each decode's time
    multiplied by its scale, and how many distinct decodes lie beyond the tail.

    The latency percentiles range over the distinct decodes, each at the
    median of its repeats: repeats of one decode do the same work, so their
    median drops the pauses the machine adds to single calls.  The wall time
    is scaled by the mean of the scales, weighted by decode time."""
    repeats: dict[int, list[float]] = {}
    for o, scale in zip(outcomes, scales):
        if o.hyp is not None:
            repeats.setdefault(o.index, []).append(o.ms * scale)
    ms = sorted(statistics.median(v) for v in repeats.values()) or [float("nan")]
    rank = checks.rank_at(len(ms), tail_bp)
    weighted = sum(o.ms * scale for o, scale in zip(outcomes, scales)) / sum(o.ms for o in outcomes)
    values = {
        "decodes_per_s": sum(len(v) for v in repeats.values()) / (wall * weighted),
        "decode_ms.p50": statistics.median(ms),
        "decode_ms.tail": ms[rank - 1],
    }
    return values, len(ms) - rank


def per_layer(tracer: Tracer, counters: Counter, vocab, scale: float, overhead: float) -> dict[str, float]:
    """The per-layer metrics; times are scaled to the reference speed by ``scale``."""
    calls, total, own = tracer.calls, tracer.total, tracer.self_time

    def ms(seconds: float) -> float:
        return 1000 * seconds * scale

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "lattice.parse_calls": calls["lattice.parse"],
        "lattice.parse_ms": ms(total["lattice.parse"]),
        "lattice.viterbi_calls": calls["lattice.viterbi"],
        "lattice.viterbi_ms": ms(total["lattice.viterbi"]),
        "model.train_ms": ms(total["model.train"]),
        "model.dump_ms": ms(total["model.dump"]),
        "model.load_ms": ms(total["model.load"]),
        "static_prior.prob_calls": calls["static_prior.prob"],
        "static_prior.prob_ms": ms(own["static_prior.prob"]),
        "static_prior.posterior_calls": calls["static_prior.posterior"],
        "static_prior.posterior_ms": ms(total["static_prior.posterior"]),
        "static_prior.distribution_calls": calls["static_prior.distribution"],
        "static_prior.distribution_ms": ms(total["static_prior.distribution"]),
        "static_prior.miss_ratio": ratio(calls["static_prior.posterior"], calls["static_prior.prob"]),
        "dynamic_model.update_calls": calls["dynamic_model.update"],
        "dynamic_model.update_ms": ms(total["dynamic_model.update"]),
        "dynamic_model.predict_calls": calls["dynamic_model.predict"],
        "dynamic_model.predict_ms": ms(total["dynamic_model.predict"]),
        # Computed, not measured: one float64 alpha matrix written per update.
        "dynamic_model.update_bytes": calls["dynamic_model.update"] * vocab.num_symbols * vocab.num_playable * 8,
        "fusion.jsd_calls": calls["fusion.jsd"],
        "fusion.jsd_ms": ms(total["fusion.jsd"]),
        "fusion.confidence_calls": calls["fusion.confidence"],
        "fusion.combine_calls": calls["fusion.combine"],
        "fusion.combine_ms": ms(total["fusion.combine"]),
        "fusion.lambda_ms": ms(total["fusion.lambda"]),
        "rescorer.rescore_calls": calls["rescorer.rescore"],
        "rescorer.self_ms": ms(own["rescorer.rescore"]),
        "rescorer.select_ms": ms(total["rescorer.select"]),
        "rescorer.pops": counters["pops"],
        "rescorer.pushes": counters["pushes"],
        "rescorer.states": counters["states"],
        "rescorer.pruned_capacity": counters["pruned_capacity"],
        "rescorer.pruned_band": counters["pruned_band"],
        "rescorer.max_queue": counters["max_queue"],
        "rescorer.expand_ratio": ratio(counters["pops"], counters["pushes"]),
        "eval.ser_calls": calls["eval.ser"],
        "eval.ser_ms": ms(total["eval.ser"]),
        "trace.overhead": overhead,
    }


def machine_facts() -> str:
    return f"cores={os.cpu_count()} python={platform.python_version()} numpy={numpy.__version__}"


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics of BENCHMARK.json."""
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def run(prog, workload: str, seed: int, seconds: float, trace: bool) -> int:
    wl = WORKLOADS[workload]
    suite, vocab, corpus, decodes, configs = prepare(prog, wl, seed)
    reference = load_reference(seed)
    print(f"# {machine_facts()}")
    print(f"# workload={workload} seed={seed} closed loop, 1 caller, {len(decodes)} distinct decodes")
    if not trace:
        model, setup_s = set_up(prog, suite, corpus, vocab, SETUP_REPEATS, machine.SpeedProbe())
        # Whole rounds (one lattice per tala, every mode) give every run the
        # same tala and mode mix.
        round_size = len(decodes) // wl.per_tala
        probe = machine.SpeedProbe()
        outcomes, wall, rss_mb = run_loop(
            prog, model, decodes, configs, probe, count=wl.count, seconds=seconds, round_size=round_size
        )
        passed, referenced = check_outcomes(outcomes, decodes, model.vocab, reference)
        failed = passed.count(False)
        scales = probe.scales_over([(o.at, o.at + o.ms / 1000) for o in outcomes])
        values, beyond = timings(outcomes, scales, wall, wl.tail_bp)
        measured, _ = timings(outcomes, [1.0] * len(outcomes), wall, wl.tail_bp)
        # ser pools the first count decodes only, so that every run at a seed
        # scores the same lattices however fast it decodes.
        scored = [o for o in outcomes[: wl.count] if o.hyp is not None]
        values.update(
            peak_rss_mb=rss_mb,
            setup_s=setup_s,
            ser=sum(o.errors for o in scored) / max(sum(o.n_ref for o in scored), 1),
        )
        units = metric_units("end_to_end")
        print(
            f"# decodes={len(outcomes)} wall_s={wall:.3f} decode_ms.tail=p{wl.tail_bp / 100:g} "
            f"with {beyond} distinct decodes beyond it; ser and peak_rss_mb over the first {wl.count}"
            + ("" if beyond >= checks.TAIL_BEYOND else f" (fewer than {checks.TAIL_BEYOND})")
        )
        print(
            f"# timings at the reference speed: the speed kernel took {1 / probe.scale():.4f} x its reference "
            f"time over {len(probe.samples)} samples; as measured, "
            + ", ".join(f"{name} {value:.6g}" for name, value in measured.items())
        )
        print(f"fail_frac {failed / max(len(outcomes), 1):.6f} ratio")
    else:
        # Untraced passes before and after the traced one, each on a fresh
        # model with cold memos; each pass is scaled by its own speed samples.
        count = wl.trace_decodes

        def untraced_pass():
            probe = machine.SpeedProbe()
            model, _ = set_up(prog, suite, corpus, vocab, 1, probe)
            outcomes, wall, _ = run_loop(prog, model, decodes, configs, probe, count=count)
            return outcomes, wall * probe.scale()

        before, wall_before = untraced_pass()
        tracer, counters, probe = Tracer(), Counter(), machine.SpeedProbe()
        with tracer.installed():
            model, _ = set_up(prog, suite, corpus, vocab, SETUP_REPEATS, probe)
            outcomes, wall, _ = run_loop(prog, model, decodes, configs, probe, count=count, counters=counters)
        scale = probe.scale()
        wall *= scale
        after, wall_after = untraced_pass()
        passed, referenced = check_outcomes(outcomes, decodes, model.vocab, reference)
        same = [a.hyp == b.hyp == c.hyp for a, b, c in zip(before, outcomes, after)]
        failed = sum(not (ok and eq) for ok, eq in zip(passed, same))
        values = per_layer(tracer, counters, model.vocab, scale, 2 * wall / (wall_before + wall_after))
        units = metric_units("per_layer")
        print(
            f"# traced {count} decodes at the reference speed: untraced {wall_before:.3f} s and "
            f"{wall_after:.3f} s, traced {wall:.3f} s, {same.count(False)} hypotheses differ; "
            "update_bytes is computed"
        )
    if reference:
        print(f"# {referenced} decodes checked against {REFERENCE_PATH.name}")
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def write_reference(prog) -> int:
    """Decode the standard suite and every workload's list once at the
    reference seed, check the standard suite's pooled SER against the report,
    and write the hypothesis digests."""
    seed = REFERENCE_SEED
    probe = machine.SpeedProbe()
    hypotheses: dict[str, str] = {}
    pooled: dict[str, list[int]] = {}
    for wl in (STANDARD_SUITE, *WORKLOADS.values()):
        suite, vocab, corpus, decodes, configs = prepare(prog, wl, seed)
        model, _ = set_up(prog, suite, corpus, vocab, 1, probe)
        for item, mode in decodes:
            key = f"{item.key}/{mode}"
            if key in hypotheses:
                continue
            outcomes, _, _ = run_loop(prog, model, [(item, mode)], configs, probe, count=1)
            (ok,), _ = check_outcomes(outcomes, [(item, mode)], model.vocab, {})
            if not ok:
                print(f"error: {key} fails its output check", file=sys.stderr)
                return 1
            (o,) = outcomes
            hypotheses[key] = digest(o.hyp, model.vocab)
            if wl is STANDARD_SUITE:
                tot = pooled.setdefault(mode, [0, 0])
                tot[0] += o.errors
                tot[1] += o.n_ref
    report = {mode: errors / n for mode, (errors, n) in sorted(pooled.items())}
    for mode, want in REPORT_SER.items():
        if round(report[mode], 4) != want:
            print(f"error: pooled SER {mode} = {report[mode]:.6f}, report says {want}", file=sys.stderr)
            return 1
    text = json.dumps(hypotheses, sort_keys=True)
    REFERENCE_PATH.write_text(
        json.dumps(
            {
                "seed": seed,
                "standard_suite_ser": report,
                "digest": hashlib.sha256(text.encode()).hexdigest(),
                "hypotheses": hypotheses,
            },
            indent=1,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(hypotheses)} reference hypotheses to {REFERENCE_PATH}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    prog = load_program()
    if args.write_reference:
        return write_reference(prog)
    return run(prog, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
