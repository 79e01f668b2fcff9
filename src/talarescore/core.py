"""Stroke vocabularies, talas, corpus generation, and the rhythm model's hyperparameter bounds.

Id conventions used across the package:

- Stroke ids are dense integers.  Id 0 is the reserved start sentinel ``<s>``;
  playable strokes occupy ids ``1..num_playable``.
- Probability vectors over playable strokes are indexed by ``stroke_id - 1``.

All types here are immutable after construction and safe to share across
threads.  Sequence generation is pure given its seed.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import VocabularyError

SENTINEL = "<s>"
SENTINEL_ID = 0


@dataclass(frozen=True)
class StrokeVocabulary:
    """Interned stroke symbols; ``symbols[0]`` is always the start sentinel."""

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.symbols or self.symbols[SENTINEL_ID] != SENTINEL:
            raise VocabularyError(f"symbol {SENTINEL_ID} must be the start sentinel {SENTINEL!r}")
        if len(self.symbols) < 2:
            raise VocabularyError("vocabulary needs at least one playable stroke")
        seen: set[str] = set()
        for name in self.symbols:
            # Every sequence and vocabulary file reads a line that begins
            # with '#' as a comment.
            if not name or name.split() != [name] or name.startswith("#"):
                raise VocabularyError(f"invalid symbol name: {name!r}")
            if name in seen:
                raise VocabularyError(f"duplicate symbol: {name!r}")
            seen.add(name)

    @classmethod
    def of(cls, playable: Iterable[str]) -> "StrokeVocabulary":
        """Build a vocabulary from playable symbols; the sentinel is implicit."""
        return cls((SENTINEL, *playable))

    @property
    def num_playable(self) -> int:
        return len(self.symbols) - 1

    @property
    def num_symbols(self) -> int:
        """Playable strokes plus the sentinel."""
        return len(self.symbols)

    @property
    def playable_symbols(self) -> tuple[str, ...]:
        return self.symbols[1:]

    @property
    def playable_ids(self) -> range:
        return range(1, len(self.symbols))

    def id_of(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise VocabularyError(f"unknown stroke symbol: {symbol!r}") from None

    def symbol_of(self, stroke_id: int) -> str:
        if not 0 <= stroke_id < len(self.symbols):
            raise VocabularyError(f"stroke id out of range: {stroke_id}")
        return self.symbols[stroke_id]

    def __contains__(self, symbol: str) -> bool:
        return symbol in self.symbols


def default_vocabulary() -> StrokeVocabulary:
    """The stroke alphabet used by the builtin talas; user-extensible via files."""
    return StrokeVocabulary.of(("Dha", "Dhin", "Na", "Tin", "Ta"))


@dataclass(frozen=True)
class StrokeSequence:
    """A sequence of playable stroke ids, optionally labeled with its tala."""

    strokes: tuple[int, ...]
    tala_label: str | None = None

    def __post_init__(self) -> None:
        if len(self.strokes) < 1:
            raise ValueError("stroke sequence must contain at least one stroke")
        for sid in self.strokes:
            if sid <= SENTINEL_ID:
                raise ValueError(f"stroke sequences hold playable ids only, got {sid}")

    def __len__(self) -> int:
        return len(self.strokes)

    def __iter__(self):
        return iter(self.strokes)

    @classmethod
    def from_symbols(
        cls,
        vocab: StrokeVocabulary,
        names: Iterable[str],
        tala_label: str | None = None,
    ) -> "StrokeSequence":
        return cls(tuple(vocab.id_of(n) for n in names), tala_label=tala_label)

    def to_symbols(self, vocab: StrokeVocabulary) -> tuple[str, ...]:
        return tuple(vocab.symbol_of(s) for s in self.strokes)


# The static prior's ``n``, ``laplace_k`` and ``w_tau`` and the Dirichlet model's
# ``eps_dir``, each with the type its model-file header line holds.
_HYPERPARAMETERS = {"n": int, "laplace_k": float, "w_tau": int, "eps_dir": float}
# The largest count, laplace_k, n or w_tau: with tala priors in (0, 1], every
# n-gram row total and tala posterior weight stays finite.  n and w_tau share
# the bound so that no header value is too large for a float.
_MAX_COUNT = 2**53
# The largest n-gram order.  Every decode state pads its context to n - 1
# strokes, so decode time and memory grow with n even where no count line
# reads that far back.
_MAX_ORDER = 32


def _check_hyperparameter(kind: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` lies in the ``kind`` hyperparameter's bounds."""
    if _HYPERPARAMETERS[kind] is int and (isinstance(value, bool) or not isinstance(value, int)):
        raise ValueError(f"{kind} must be an integer")
    # Unlike math.isfinite, a comparison takes an int too large for a float.
    if not 0 < value < math.inf:
        raise ValueError(f"{kind} must be positive and finite")
    if kind != "eps_dir" and value > _MAX_COUNT:
        raise ValueError(f"{kind} must not exceed 2**53")
    if kind == "n" and value > _MAX_ORDER:
        raise ValueError(f"n must not exceed {_MAX_ORDER}")


@dataclass(frozen=True)
class TalaSpec:
    """A tala: cycle length in beats, vibhag start beats, and canonical theka."""

    name: str
    matras: int
    vibhag_boundaries: tuple[int, ...]
    theka: StrokeSequence

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tala name must be non-empty")
        _check_matras(self.matras)
        _check_theka(self.theka, self.matras)
        _check_vibhag(self.vibhag_boundaries, self.matras)


# A tala's structural rules, one per field; ``load_tala_specs`` checks each on
# the line that sets the field.


def _check_matras(matras: int) -> None:
    if matras < 1:
        raise ValueError("matras must be positive")


def _check_theka(theka: StrokeSequence, matras: int) -> None:
    if len(theka) != matras:
        raise ValueError(f"theka length {len(theka)} differs from matras {matras}")


def _check_vibhag(boundaries: tuple[int, ...], matras: int) -> None:
    prev = 0
    for b in boundaries:
        if not 1 <= b <= matras or b <= prev:
            raise ValueError(f"vibhag boundaries must be strictly increasing in [1, {matras}]")
        prev = b


@dataclass(frozen=True)
class TihaiSpec:
    """A thrice-repeated cadential phrase joined by connector strokes.

    The structure spans ``3 * |phrase| + 2 * |connector|`` beats in total, but
    only the first ``total_span - |phrase|`` beats replace the tail of the host
    cycle: the final repetition begins on the next cycle's first beat (the
    sam), which is where the cadence resolves.
    """

    phrase: StrokeSequence
    connector: StrokeSequence

    @property
    def total_span(self) -> int:
        return 3 * len(self.phrase) + 2 * len(self.connector)

    @property
    def in_cycle_span(self) -> int:
        """Beats replaced inside the host cycle (excludes the resolving repetition)."""
        return self.total_span - len(self.phrase)

    def expansion(self) -> tuple[int, ...]:
        """The strokes written into the host cycle: (phrase + connector) repeated."""
        return (self.phrase.strokes + self.connector.strokes) * 2


@dataclass(frozen=True)
class DeviationConfig:
    """Controls local deviations layered over cyclic theka repetition.

    A substituted stroke is replaced uniformly by one of the other playable
    strokes.  ``tihai`` overrides the tala's default tihai.
    """

    p_tihai: float = 0.0
    p_sub: float = 0.0
    tihai: TihaiSpec | None = None

    def __post_init__(self) -> None:
        for name, p in (("p_tihai", self.p_tihai), ("p_sub", self.p_sub)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p}")


def _theka(vocab: StrokeVocabulary, name: str, names: Sequence[str]) -> StrokeSequence:
    return StrokeSequence.from_symbols(vocab, names, tala_label=name)


def builtin_talas(vocab: StrokeVocabulary | None = None) -> list[TalaSpec]:
    """The six common talas.

    Only the Tintal theka is canonical.  The other five carry the correct
    cycle lengths and vibhag structure but placeholder stroke patterns drawn
    from the default alphabet; they are stand-ins for algorithm testing, not
    musicological references.
    """
    vocab = vocab or default_vocabulary()
    tintal = [
        "Dha", "Dhin", "Dhin", "Dha",
        "Dha", "Dhin", "Dhin", "Dha",
        "Na", "Tin", "Tin", "Na",
        "Dha", "Tin", "Tin", "Na",
    ]
    specs = [
        TalaSpec("tintal", 16, (1, 5, 9, 13), _theka(vocab, "tintal", tintal)),
        TalaSpec("dadra", 6, (1, 4), _theka(vocab, "dadra", ["Dha", "Dhin", "Na", "Dha", "Tin", "Na"])),
        TalaSpec("rupak", 7, (1, 4, 6), _theka(vocab, "rupak", ["Tin", "Tin", "Na", "Dhin", "Na", "Dhin", "Na"])),
        TalaSpec("keherva", 8, (1, 5), _theka(vocab, "keherva", ["Dha", "Ta", "Dhin", "Na", "Dha", "Ta", "Tin", "Na"])),
        TalaSpec(
            "jhaptal", 10, (1, 3, 6, 8),
            _theka(vocab, "jhaptal", ["Dhin", "Na", "Dhin", "Dhin", "Na", "Tin", "Na", "Dhin", "Dhin", "Na"]),
        ),
        TalaSpec(
            "ektal", 12, (1, 3, 5, 7, 9, 11),
            _theka(vocab, "ektal", ["Dhin", "Dhin", "Na", "Ta", "Tin", "Na", "Dha", "Ta", "Dhin", "Na", "Tin", "Ta"]),
        ),
    ]
    return specs


def builtin_tala(name: str, vocab: StrokeVocabulary | None = None) -> TalaSpec:
    for spec in builtin_talas(vocab):
        if spec.name == name:
            return spec
    known = ", ".join(t.name for t in builtin_talas(vocab))
    raise ValueError(f"unknown tala {name!r}; builtins: {known}")


def default_tihai(tala: TalaSpec) -> TihaiSpec:
    """Derive a tala's default tihai from its theka.

    The phrase is the theka's last vibhag; the connector repeats the theka's
    final stroke for half the phrase length.  For Tintal this reproduces the
    classic 4 + 2 + 4 + 2 + 4 layout (phrase Dha Tin Tin Na, connector Na Na).
    """
    if tala.vibhag_boundaries:
        start = tala.vibhag_boundaries[-1]
    else:
        start = max(1, tala.matras - 3)
    phrase = StrokeSequence(tala.theka.strokes[start - 1:])
    connector = StrokeSequence((tala.theka.strokes[-1],) * max(1, len(phrase) // 2))
    return TihaiSpec(phrase=phrase, connector=connector)


def can_host_tihai(tala: TalaSpec, tihai: TihaiSpec | None = None) -> bool:
    tihai = tihai or default_tihai(tala)
    return 1 <= tihai.in_cycle_span <= tala.matras


def generate_sequence(
    tala: TalaSpec,
    cycles: int,
    deviation: DeviationConfig | None,
    rng_seed: int,
    vocab: StrokeVocabulary | None = None,
) -> StrokeSequence:
    """Generate ``cycles * matras`` strokes of theka with optional deviations.

    Each cycle independently receives a tihai with probability ``p_tihai``:
    the cycle tail is replaced by the tihai expansion so the resolving
    repetition falls on the next sam.  Remaining beats are substituted
    independently with ``p_sub``.  Deterministic given ``rng_seed``.
    """
    vocab = vocab or default_vocabulary()
    if isinstance(cycles, bool) or not isinstance(cycles, int):
        raise ValueError(f"cycles must be an integer, got {cycles!r}")
    if cycles < 1:
        raise ValueError("cycles must be >= 1")
    dev = deviation or DeviationConfig()
    for sid in tala.theka.strokes:
        if sid not in vocab.playable_ids:
            raise VocabularyError(f"theka stroke id {sid} not in vocabulary")

    tihai: TihaiSpec | None = None
    if dev.p_tihai > 0:
        tihai = dev.tihai or default_tihai(tala)
        if not can_host_tihai(tala, tihai):
            raise ValueError(
                f"tala {tala.name!r} ({tala.matras} matras) cannot host this tihai: "
                f"it needs a cycle of at least {tihai.in_cycle_span} beats"
            )

    rng = random.Random(rng_seed)
    out: list[int] = []
    for _ in range(cycles):
        beats = list(tala.theka.strokes)
        place = tihai is not None and rng.random() < dev.p_tihai
        tail_start = tala.matras - tihai.in_cycle_span if place else tala.matras
        if dev.p_sub > 0:
            for i in range(tail_start):
                if rng.random() < dev.p_sub:
                    beats[i] = _substitute(rng, beats[i], vocab)
        if place:
            beats[tail_start:] = tihai.expansion()
        out.extend(beats)
    return StrokeSequence(tuple(out), tala_label=tala.name)


def _substitute(rng: random.Random, sid: int, vocab: StrokeVocabulary) -> int:
    others = [p for p in vocab.playable_ids if p != sid]
    if not others:
        return sid
    return others[rng.randrange(len(others))]


# ---------------------------------------------------------------------------
# File formats: vocabularies, tala specs, and sequence corpora.


def save_vocabulary(vocab: StrokeVocabulary, path: str | Path) -> None:
    """One playable symbol per line; the sentinel is implicit."""
    Path(path).write_text("".join(f"{s}\n" for s in vocab.playable_symbols), encoding="utf-8")


def load_vocabulary(path: str | Path) -> StrokeVocabulary:
    playable = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        name = line.strip()
        if not name or name.startswith("#"):
            continue
        if name == SENTINEL:
            raise VocabularyError(f"{SENTINEL!r} is reserved and implicit")
        playable.append(name)
    return StrokeVocabulary.of(playable)


def save_tala_specs(specs: Sequence[TalaSpec], path: str | Path, vocab: StrokeVocabulary) -> None:
    lines = []
    for spec in specs:
        lines.append(f"tala {spec.name} {spec.matras}")
        lines.append("vibhag " + " ".join(str(b) for b in spec.vibhag_boundaries))
        lines.append("theka " + " ".join(spec.theka.to_symbols(vocab)))
    Path(path).write_text("".join(f"{l}\n" for l in lines), encoding="utf-8")


def load_tala_specs(path: str | Path, vocab: StrokeVocabulary) -> list[TalaSpec]:
    specs: list[TalaSpec] = []
    name = None
    matras = 0
    boundaries: tuple[int, ...] = ()
    theka: StrokeSequence | None = None

    def flush() -> None:
        if name is None:
            return
        if theka is None:
            raise ValueError(f"tala {name!r} has no theka line")
        specs.append(TalaSpec(name, matras, boundaries, theka))

    seen: set[str] = set()  # the current tala's directives
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "tala":
            flush()
            if len(parts) != 3:
                raise ValueError(f"bad tala line: {line!r}")
            if any(spec.name == parts[1] for spec in specs):
                raise ValueError(f"repeated tala name: {line!r}")
            name, (matras,) = parts[1], _ints(line, parts[2:])
            with _in_tala(lineno, name):
                _check_matras(matras)
            boundaries, theka = (), None
            seen.clear()
        elif kind not in ("vibhag", "theka"):
            raise ValueError(f"unknown directive in tala file: {kind!r}")
        elif name is None:
            raise ValueError(f"{kind} line before the first tala line: {line!r}")
        elif kind in seen:
            raise ValueError(f"repeated {kind} line in tala {name!r}: {line!r}")
        else:
            seen.add(kind)
            if kind == "vibhag":
                boundaries = _ints(line, parts[1:])
                with _in_tala(lineno, name):
                    _check_vibhag(boundaries, matras)
            else:
                strokes = _playable_strokes(vocab, parts[1:], lineno)
                with _in_tala(lineno, name):
                    theka = StrokeSequence(strokes, tala_label=name)
                    _check_theka(theka, matras)
    flush()
    if not specs:
        raise ValueError(f"no tala specs found in {path}")
    return specs


@contextmanager
def _in_tala(lineno: int, name: str) -> Iterator[None]:
    # A tala's structural fault, prefixed with the line that set the field and the tala's name.
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"line {lineno}: tala {name}: {exc}") from None


def _ints(line: str, fields: list[str]) -> tuple[int, ...]:
    try:
        return tuple(int(f) for f in fields)
    except ValueError:
        raise ValueError(f"bad {line.split()[0]} line, want integers: {line!r}") from None


def save_sequences(seqs: Sequence[StrokeSequence], path: str | Path, vocab: StrokeVocabulary) -> None:
    """Whitespace-separated symbols, one sequence per line.

    A labeled sequence is preceded by its ``#tala=<name>`` comment line.
    """
    lines = []
    for seq in seqs:
        if seq.tala_label:
            lines.append(f"#tala={seq.tala_label}")
        lines.append(" ".join(seq.to_symbols(vocab)))
    Path(path).write_text("".join(f"{l}\n" for l in lines), encoding="utf-8")


def _playable_strokes(vocab: StrokeVocabulary, names: Sequence[str], lineno: int) -> tuple[int, ...]:
    """The ids of ``names``; a symbol that is no playable stroke raises ``VocabularyError`` naming the line."""
    try:
        strokes = tuple(map(vocab.id_of, names))
    except VocabularyError as exc:
        raise VocabularyError(f"line {lineno}: {exc}") from None
    if SENTINEL_ID in strokes:
        raise VocabularyError(f"line {lineno}: {SENTINEL!r} is not a playable stroke")
    return strokes


def load_sequences(path: str | Path, vocab: StrokeVocabulary) -> list[StrokeSequence]:
    """Raises ``VocabularyError`` naming the line for a symbol that is not a playable stroke."""
    seqs: list[StrokeSequence] = []
    label: str | None = None
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#tala="):
            label = line[len("#tala="):].strip() or None
            continue
        if line.startswith("#"):
            continue
        seqs.append(StrokeSequence(_playable_strokes(vocab, line.split(), lineno), tala_label=label))
        label = None
    return seqs
