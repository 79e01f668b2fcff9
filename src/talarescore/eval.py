"""Stroke error rate and the synthetic benchmark harness.

SER = (substitutions + deletions + insertions) / reference length, computed
from a minimal Levenshtein alignment with unit costs.  Aggregate SER pools
the error counts over the whole test set (the WER convention) rather than
averaging per-sequence ratios; report headers say so.

``run_benchmark`` trains on a suite's corpus and decodes each test pair
with the acoustic baseline and each lambda mode.  It keeps one
``BenchRecord`` per decode, and ``BenchmarkReport`` folds the report rows
from those records.  ``bench --data-efficiency`` runs it once per training
subset in ``DATA_EFFICIENCY_SUBSETS``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Hashable, Iterator, Sequence, get_type_hints

from .core import (
    DeviationConfig,
    StrokeSequence,
    StrokeVocabulary,
    builtin_tala,
    can_host_tihai,
    default_vocabulary,
    generate_sequence,
)
from .fusion import parse_lambda_mode
from .lattice import Lattice, LatticeGenConfig, generate_lattice, viterbi_acoustic
from .model import train_model
from .rescorer import RescoreConfig, rescore

BASELINE_LABEL = "baseline"
DEFAULT_LAMBDA_SWEEP = ("fixed:0", "fixed:0.25", "fixed:0.5", "fixed:0.75", "fixed:1", "adaptive")
# The ``bench --data-efficiency`` training subsets: name and train_fraction.
DATA_EFFICIENCY_SUBSETS = (("small", 1 / 3), ("medium", 2 / 3), ("large", 1.0))


@dataclass(frozen=True)
class EditStats:
    """Levenshtein alignment error counts against a reference of length n_ref."""

    substitutions: int = 0
    deletions: int = 0
    insertions: int = 0
    n_ref: int = 0

    @property
    def total_errors(self) -> int:
        return self.substitutions + self.deletions + self.insertions

    @property
    def ser(self) -> float:
        if self.n_ref == 0:
            raise ValueError("SER undefined for an empty reference")
        return self.total_errors / self.n_ref

    def __add__(self, other: "EditStats") -> "EditStats":
        return EditStats(
            self.substitutions + other.substitutions,
            self.deletions + other.deletions,
            self.insertions + other.insertions,
            self.n_ref + other.n_ref,
        )


def ser(ref: Sequence[Hashable] | StrokeSequence, hyp: Sequence[Hashable] | StrokeSequence) -> EditStats:
    """Minimal-edit S/D/I decomposition of hyp against ref.

    The unit-cost distance matrix ``D[i][j]`` (the first ``i`` ref items
    against the first ``j`` hyp items) is filled one hyp item at a time.  Each
    column is held as two bit vectors over the reference: the rows where
    ``D`` rises by one going down the column, and the rows where it falls by
    one.  This is the bit-parallel edit distance of Myers (JACM 1999) in
    Hyyrö's global-distance form, where row 0 is ``D[0][j] = j``.  The
    backtrace reads exact cells from those vectors with ``int.bit_count()``.
    When several moves achieve the optimal cost it prefers the diagonal
    (match or substitution), then insertion, then deletion; only the total
    enters SER, so any optimal decomposition would give the same rate.

    Items are matched through a dict keyed by the reference items, so they
    must be hashable, with ``==`` consistent with their hash; the dict also
    takes an item as equal to itself, even a NaN.
    """
    r = _items(ref)
    h = _items(hyp)
    if not r:
        raise ValueError("reference sequence must be non-empty")
    # Bit i-1 of a mask stands for row i, that is ref item i.
    peq: dict[Hashable, int] = {}
    for bit, item in enumerate(r):
        peq[item] = peq.get(item, 0) | 1 << bit
    mask = (1 << len(r)) - 1
    # Per column j: the rows where D[i][j] - D[i-1][j] is +1 and where it is
    # -1, and the rows whose ref item equals hyp item j.  Column 0 is D[i][0] = i.
    pv, mv = mask, 0
    pvs, mvs, eqs = [pv], [mv], [0]
    for item in h:
        eq = peq.get(item, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        # The +1 and -1 rows of D[i][j] - D[i][j-1], shifted down one row so
        # they meet the vertical deltas below them; row 0's is +1.
        ph = (mv | ~(xh | pv)) << 1 | 1
        mh = (pv & xh) << 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
        pvs.append(pv)
        mvs.append(mv)
        eqs.append(eq)
    s = d = ins_n = 0
    i, j = len(r), len(h)
    cur = j + pv.bit_count() - mv.bit_count()
    while i and j:
        pv, mv = pvs[j - 1], mvs[j - 1]
        rows = (1 << i) - 1
        left = j - 1 + (pv & rows).bit_count() - (mv & rows).bit_count()
        k = i - 1
        diag = left - (pv >> k & 1) + (mv >> k & 1)
        miss = 1 - (eqs[j] >> k & 1)
        if cur == diag + miss:
            s += miss
            i -= 1
            j -= 1
            cur = diag
        elif cur == left + 1:
            ins_n += 1
            j -= 1
            cur = left
        else:
            d += 1
            i -= 1
            cur -= 1
    # On row 0 only insertions remain, on column 0 only deletions.
    return EditStats(substitutions=s, deletions=d + i, insertions=ins_n + j, n_ref=len(r))


def _items(seq: Sequence[Hashable] | StrokeSequence) -> tuple:
    if isinstance(seq, StrokeSequence):
        return seq.strokes
    return tuple(seq)


@dataclass(frozen=True, kw_only=True)
class BenchmarkSuiteConfig:
    """Everything a benchmark run needs, rooted in one seed.

    Per-sequence randomness is split deterministically from ``seed`` by
    stream and index, so reruns are byte-identical.  Talas that cannot host
    their default tihai run with ``p_tihai`` forced to zero.
    """

    talas: tuple[str, ...] = ("tintal", "jhaptal", "rupak", "ektal")
    train_per_tala: int = 24
    test_per_tala: int = 13
    cycles: int = 3
    deviation: DeviationConfig = field(default_factory=lambda: DeviationConfig(p_tihai=0.4, p_sub=0.03))
    branching: int = 3
    noise_sigma: float = 0.95
    margin: float = 1.0
    p_del: float = 0.0
    p_ins: float = 0.0
    n: int = 3
    laplace_k: float = 1.0
    w_tau: int = 16
    eps_dir: float = 1.0
    rescore: RescoreConfig = field(default_factory=RescoreConfig)
    lambda_modes: tuple[str, ...] = DEFAULT_LAMBDA_SWEEP
    seed: int = 2024
    train_fraction: float = 1.0

    def __post_init__(self) -> None:
        if not self.talas:
            raise ValueError("suite needs at least one tala")
        if self.train_per_tala < 1 or self.test_per_tala < 1:
            raise ValueError("need at least one training and one test sequence per tala")
        if not 0.0 < self.train_fraction <= 1.0:
            raise ValueError("train_fraction must lie in (0, 1]")
        # Each mode is one report row; two with one label share a weight.
        if len({parse_lambda_mode(m) for m in self.lambda_modes}) < len(self.lambda_modes):
            raise ValueError(f"lambda_modes repeats a weight: {self.lambda_modes!r}")


def standard_suite(seed: int = 2024) -> BenchmarkSuiteConfig:
    """The tuned default suite: baseline SER in the 20-40% band."""
    return BenchmarkSuiteConfig(seed=seed)


def suite_from_config(values: dict[str, str], seed_override: int | None = None) -> BenchmarkSuiteConfig:
    """The standard suite with the ``key=value`` strings of a suite file applied.

    ``talas`` takes comma-separated tala names.  Every other key is an
    ``int`` or ``float`` field of the suite, of its ``deviation`` or of its
    ``rescore``, and its value is converted by that type.
    """
    suite = standard_suite()
    keys = {
        name: (part, hint)
        for part, cls in (("", BenchmarkSuiteConfig), ("deviation", DeviationConfig), ("rescore", RescoreConfig))
        for name, hint in get_type_hints(cls).items()
        if hint in (int, float)
    }
    changes: dict[str, dict[str, object]] = {"": {}, "deviation": {}, "rescore": {}}
    for key, value in values.items():
        if key == "talas":
            changes[""][key] = tuple(t.strip() for t in value.split(",") if t.strip())
        elif key in keys:
            part, convert = keys[key]
            changes[part][key] = convert(value)
        else:
            raise ValueError(f"unknown suite config key {key!r}")
    top = changes.pop("")
    for part, part_changes in changes.items():
        top[part] = replace(getattr(suite, part), **part_changes)
    if seed_override is not None:
        top["seed"] = seed_override
    return replace(suite, **top)


@dataclass(frozen=True)
class BenchRecord:
    """One decode of one test pair: its report row's label and its errors."""

    label: str
    stats: EditStats


@dataclass(frozen=True)
class BenchmarkReport:
    """One record per (test pair, report row), in pair order and, within a
    pair, in row order: the baseline first, then one row per lambda mode.
    Every per-label value is folded from the records."""

    suite_seed: int
    train_strokes: int
    records: tuple[BenchRecord, ...]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(r.label for r in self.records))

    def per_sequence(self, label: str) -> tuple[EditStats, ...]:
        stats = tuple(r.stats for r in self.records if r.label == label)
        if not stats:
            raise KeyError(label)
        return stats

    def pooled(self, label: str) -> EditStats:
        return sum(self.per_sequence(label), EditStats())

    def improvement_abs(self, label: str) -> float:
        return self.pooled(BASELINE_LABEL).ser - self.pooled(label).ser

    def improvement_rel(self, label: str) -> float:
        base = self.pooled(BASELINE_LABEL).ser
        if base == 0:
            return 0.0
        return (base - self.pooled(label).ser) / base

    def to_tsv(self) -> str:
        lines = ["config\tser\timprovement_abs\timprovement_rel"]
        for label in self.labels:
            lines.append(
                f"{label}\t{self.pooled(label).ser:.6f}\t{self.improvement_abs(label):.6f}"
                f"\t{self.improvement_rel(label):.6f}"
            )
        return "".join(f"{l}\n" for l in lines)

    def to_table(self) -> str:
        header = (
            f"# seed={self.suite_seed} train_strokes={self.train_strokes} "
            "aggregate=pooled S+D+I over pooled N"
        )
        width = max(map(len, self.labels))
        lines = [header, f"{'config':<{width}}  {'SER%':>7}  {'abs':>7}  {'rel%':>7}"]
        for label in self.labels:
            ser_pct = 100 * self.pooled(label).ser
            if label == BASELINE_LABEL:
                lines.append(f"{label:<{width}}  {ser_pct:7.2f}  {'-':>7}  {'-':>7}")
            else:
                lines.append(
                    f"{label:<{width}}  {ser_pct:7.2f}  "
                    f"{100 * self.improvement_abs(label):7.2f}  "
                    f"{100 * self.improvement_rel(label):7.2f}"
                )
        return "".join(f"{l}\n" for l in lines)


# Deterministic seed splitting: one root seed, disjoint streams per purpose.
_TRAIN_STREAM = 0
_TEST_STREAM = 1
_LATTICE_STREAM = 2
_MASK = (1 << 63) - 1


def split_seed(root: int, stream: int, index: int) -> int:
    return (root * 1_000_003 + stream * 7_919 + index * 104_729 + 12_345) & _MASK


def _suite_sequences(
    suite: BenchmarkSuiteConfig, vocab: StrokeVocabulary, stream: int, count: int
) -> Iterator[tuple[int, StrokeSequence]]:
    """Each tala's first ``count`` sequences drawn from seed ``stream``, tala
    by tala, with the index their seed was split at (``t_idx * 10_000 + i``).
    A tala that cannot host its default tihai plays with ``p_tihai`` zero."""
    for t_idx, name in enumerate(suite.talas):
        tala = builtin_tala(name, vocab)
        dev = suite.deviation
        if dev.p_tihai > 0 and not can_host_tihai(tala, dev.tihai):
            dev = replace(dev, p_tihai=0.0)
        for i in range(count):
            idx = t_idx * 10_000 + i
            yield idx, generate_sequence(tala, suite.cycles, dev, split_seed(suite.seed, stream, idx), vocab)


def build_training_corpus(
    suite: BenchmarkSuiteConfig,
    vocab: StrokeVocabulary | None = None,
) -> list[StrokeSequence]:
    """The suite's training split; ``train_fraction`` subsets per tala."""
    vocab = vocab or default_vocabulary()
    count = max(1, round(suite.train_per_tala * suite.train_fraction))
    return [seq for _, seq in _suite_sequences(suite, vocab, _TRAIN_STREAM, count)]


def suite_test_set(suite: BenchmarkSuiteConfig, vocab: StrokeVocabulary) -> list[tuple[StrokeSequence, Lattice]]:
    """The suite's ``(truth, lattice)`` test pairs, tala by tala.

    Truths come from seed stream 1 and each lattice's noise from stream 2,
    both split at the pair's index.
    """
    pairs = []
    for idx, truth in _suite_sequences(suite, vocab, _TEST_STREAM, suite.test_per_tala):
        lat_cfg = LatticeGenConfig(
            rng_seed=split_seed(suite.seed, _LATTICE_STREAM, idx),
            branching=suite.branching,
            noise_sigma=suite.noise_sigma,
            margin=suite.margin,
            p_del=suite.p_del,
            p_ins=suite.p_ins,
        )
        pairs.append((truth, generate_lattice(truth, lat_cfg, vocab)))
    return pairs


def run_benchmark(suite: BenchmarkSuiteConfig) -> BenchmarkReport:
    """Train on the suite's corpus, then decode every test pair with the
    acoustic baseline and each lambda mode, one record per decode."""
    vocab = default_vocabulary()
    corpus = build_training_corpus(suite, vocab)
    model = train_model(
        corpus,
        vocab,
        n=suite.n,
        laplace_k=suite.laplace_k,
        w_tau=suite.w_tau,
        eps_dir=suite.eps_dir,
    )
    rows = [(BASELINE_LABEL, None)]
    rows += [(_sweep_label(m), replace(suite.rescore, lambda_mode=m)) for m in suite.lambda_modes]
    records = tuple(
        BenchRecord(label, ser(truth, viterbi_acoustic(lat) if cfg is None else rescore(lat, model, cfg)[0]))
        for truth, lat in suite_test_set(suite, vocab)
        for label, cfg in rows
    )
    return BenchmarkReport(suite.seed, sum(len(s) for s in corpus), records)


def _sweep_label(mode: str) -> str:
    # The weight's shortest repr tells every accepted weight apart; 1.0 reads 1.
    weight = parse_lambda_mode(mode)
    return "adaptive" if weight is None else f"lambda={weight!r}".removesuffix(".0")
