"""Acoustic decoding lattices: structure, text format, Viterbi, generation.

A lattice is a DAG of stroke-labeled arcs carrying acoustic log-scores in the
natural-log domain.  Every path from the start node to a final node is a
candidate stroke sequence whose acoustic score is the sum of its arc scores.
Lattices are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import SENTINEL, StrokeSequence, StrokeVocabulary, default_vocabulary, load_vocabulary
from .errors import LatticeFormatError, VocabularyError

FORMAT_HEADER = "lattice v1"


class Arc(NamedTuple):
    """One stroke-labeled arc from ``src`` to ``dst`` with acoustic log-score ``w_ac``.

    A named tuple: immutable, and it equals, hashes and unpacks like the
    plain 4-tuple ``(src, dst, label, w_ac)``.
    """

    src: int
    dst: int
    label: int
    w_ac: float


@dataclass(frozen=True, eq=False)
class Lattice:
    """Validated stroke lattice; node ids are dense ``0..n_nodes-1``.

    ``vocab_ref`` is the verbatim argument of the file header's ``vocab``
    directive (a path or an inline playable-symbol count) and is re-emitted
    unchanged on save so round-trips are byte-identical.

    Construction freezes ``arcs`` to a tuple and ``finals`` to a frozenset,
    and the pass that checks them also sets two attributes that are not
    fields: ``outgoing``, the arc ids leaving each node in arc-id order, and
    ``topological_order``, the nodes in the order Kahn's algorithm with a
    stack visits them.
    """

    vocab: StrokeVocabulary
    n_nodes: int
    arcs: tuple[Arc, ...]
    start: int
    finals: frozenset[int]
    vocab_ref: str = ""

    def __post_init__(self) -> None:
        # An exact tuple or frozenset is kept as it is, not copied.
        object.__setattr__(self, "arcs", tuple(self.arcs))
        object.__setattr__(self, "finals", frozenset(self.finals))
        if not self.vocab_ref:
            object.__setattr__(self, "vocab_ref", str(self.vocab.num_playable))
        self._validate()

    def _validate(self) -> None:
        n = self.n_nodes
        if not _is_index(n):
            raise LatticeFormatError(f"node count {n!r} is not an integer")
        if n < 1:
            raise LatticeFormatError("lattice needs at least one node")
        start = self.start
        if not _is_index(start):
            raise LatticeFormatError(f"start node {start!r} is not an integer")
        if not 0 <= start < n:
            raise LatticeFormatError(f"start node {start} out of range")
        if not self.finals:
            raise LatticeFormatError("lattice needs at least one final node")
        if start in self.finals:
            raise LatticeFormatError("start node may not be final (paths must carry strokes)")
        for f in self.finals:
            if not _is_index(f):
                raise LatticeFormatError(f"final node {f!r} is not an integer")
            if not 0 <= f < n:
                raise LatticeFormatError(f"final node {f} out of range")
        # The bound is StrokeVocabulary.playable_ids's, inlined.
        n_symbols = self.vocab.num_symbols
        isfinite, arc_type = math.isfinite, Arc
        arcs = self.arcs
        outgoing: list[list[int]] = [[] for _ in range(n)]
        indeg = [0] * n
        for i, arc in enumerate(arcs):
            if type(arc) is not arc_type:
                raise LatticeFormatError(f"arc {i} is not an Arc")
            src, dst, label, w_ac = arc
            if not (0 <= src < n and 0 <= dst < n):
                raise LatticeFormatError(f"arc {i} endpoint out of range")
            if not 1 <= label < n_symbols:
                raise LatticeFormatError(f"arc {i} label {label} is not a playable stroke")
            if not isfinite(w_ac):
                raise LatticeFormatError(f"arc {i} score {w_ac!r} is not finite")
            outgoing[src].append(i)
            indeg[dst] += 1
        if indeg[start]:
            raise LatticeFormatError("start node has incoming arcs")
        ready = [v for v in range(n) if not indeg[v]]
        order = []
        while ready:
            v = ready.pop()
            order.append(v)
            for aid in outgoing[v]:
                d = arcs[aid].dst
                indeg[d] -= 1
                if not indeg[d]:
                    ready.append(d)
        if len(order) != n:
            raise LatticeFormatError("lattice contains a cycle")
        # On a DAG one sweep in topological order settles what the start
        # reaches, and one in reverse order what reaches a final node.
        fwd = [False] * n
        fwd[start] = True
        for v in order:
            if fwd[v]:
                for aid in outgoing[v]:
                    fwd[arcs[aid].dst] = True
        bwd = [False] * n
        for f in self.finals:
            bwd[f] = True
        for v in reversed(order):
            if not bwd[v]:
                for aid in outgoing[v]:
                    if bwd[arcs[aid].dst]:
                        bwd[v] = True
                        break
        for v in range(n):
            if not (fwd[v] and bwd[v]):
                raise LatticeFormatError(f"node {v} lies on no start-to-final path")
        object.__setattr__(self, "outgoing", tuple(map(tuple, outgoing)))
        object.__setattr__(self, "topological_order", tuple(order))


def _is_index(value: object) -> bool:
    """Whether ``value`` can be a node id or count: ``operator.index`` takes
    it, and it is no bool."""
    try:
        operator.index(value)
    except TypeError:
        return False
    return not isinstance(value, bool)


def viterbi_acoustic(lat: Lattice) -> StrokeSequence:
    """Best start-to-final path by total acoustic score.

    Of the best-scoring paths, the one with the lexicographically smallest
    arc-id sequence wins, a prefix before its extensions, as in the
    rescorer's ``viterbi_expanded``.  No tie is settled during the search: a
    forward pass keeps each node's best score, and one descent from the
    start reads off the winner.
    """
    arcs, order, outgoing = lat.arcs, lat.topological_order, lat.outgoing
    # Validation makes the start the one node without incoming arcs: first.
    score = [-math.inf] * lat.n_nodes
    score[lat.start] = 0.0
    for v in order:
        score_v = score[v]
        for aid in outgoing[v]:
            arc = arcs[aid]
            dst = arc.dst
            cand = score_v + arc.w_ac
            if cand > score[dst]:
                score[dst] = cand
    # A path scores the top score exactly when every arc on it is tight (its
    # source's score plus w_ac is its destination's).  A node's step is its
    # smallest tight arc toward a top-scoring final, -1 at such a final (a
    # prefix sorts first), and None where no tight path leads to one.
    top = max(map(score.__getitem__, lat.finals))
    step: list[int | None] = [None] * lat.n_nodes
    for f in lat.finals:
        if score[f] == top:
            step[f] = -1
    for v in reversed(order):
        if step[v] is None:
            score_v = score[v]
            for aid in outgoing[v]:
                arc = arcs[aid]
                dst = arc.dst
                if step[dst] is not None and score_v + arc.w_ac == score[dst]:
                    step[v] = aid
                    break
    labels = []
    v = lat.start
    while (aid := step[v]) >= 0:
        labels.append(arcs[aid].label)
        v = arcs[aid].dst
    return StrokeSequence(tuple(labels))


@dataclass(frozen=True, kw_only=True)
class LatticeGenConfig:
    """Synthetic acoustic-lattice generation knobs.

    ``margin`` is the clean log-score separation between the true arc (0.0)
    and competitor arcs (-margin) before Gaussian perturbation by
    ``noise_sigma``; larger noise relative to the margin yields more
    acoustic-only errors.
    """

    rng_seed: int
    branching: int = 1
    noise_sigma: float = 0.0
    p_del: float = 0.0
    p_ins: float = 0.0
    margin: float = 1.0

    def __post_init__(self) -> None:
        if isinstance(self.branching, bool) or not isinstance(self.branching, int):
            raise ValueError(f"branching must be an integer, got {self.branching!r}")
        if self.branching < 1:
            raise ValueError("branching must be >= 1")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        for name, value in (("noise_sigma", self.noise_sigma), ("margin", self.margin)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name, p in (("p_del", self.p_del), ("p_ins", self.p_ins)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p}")


def generate_lattice(
    truth: StrokeSequence,
    cfg: LatticeGenConfig,
    vocab: StrokeVocabulary | None = None,
) -> Lattice:
    """Emulate a decoder's stroke lattice around a known true sequence.

    The true path is always present.  Each position carries the true arc plus
    ``branching - 1`` distinct competitor arcs; deletion branches skip a
    stroke and insertion branches route through an extra node.  Deterministic
    given ``cfg.rng_seed``.
    """
    vocab = vocab or default_vocabulary()
    if cfg.branching > vocab.num_playable:
        raise ValueError(
            f"branching {cfg.branching} exceeds vocabulary size {vocab.num_playable}"
        )
    rng = np.random.default_rng(cfg.rng_seed)
    k_total = len(truth)
    arcs: list[Arc] = []
    next_node = k_total + 1

    def noise() -> float:
        return float(rng.normal(0.0, cfg.noise_sigma))

    for k in range(1, k_total + 1):
        true_label = truth.strokes[k - 1]
        arcs.append(Arc(k - 1, k, true_label, noise()))
        for comp in _competitors(rng, true_label, cfg.branching - 1, vocab):
            arcs.append(Arc(k - 1, k, comp, -cfg.margin + noise()))
        if k < k_total and cfg.p_del > 0 and rng.random() < cfg.p_del:
            arcs.append(Arc(k - 1, k + 1, truth.strokes[k], -cfg.margin + noise()))
        if cfg.p_ins > 0 and rng.random() < cfg.p_ins:
            mid = next_node
            next_node += 1
            inserted = _competitors(rng, true_label, 1, vocab)
            arcs.append(Arc(k - 1, mid, true_label, noise()))
            arcs.append(Arc(mid, k, inserted[0], -cfg.margin + noise()))
    return Lattice(
        vocab=vocab,
        n_nodes=next_node,
        arcs=tuple(arcs),
        start=0,
        finals=frozenset({k_total}),
    )


def _competitors(rng: np.random.Generator, true_label: int, count: int, vocab: StrokeVocabulary) -> list[int]:
    """Up to ``count`` distinct competitor labels for one position, drawn uniformly."""
    if count <= 0:
        return []
    ids = [p for p in vocab.playable_ids if p != true_label]
    want = min(count, len(ids))
    probs = np.ones(len(ids)) / len(ids)
    chosen = rng.choice(len(ids), size=want, replace=False, p=probs)
    return [ids[int(i)] for i in chosen]


# ---------------------------------------------------------------------------
# Text serialization (UTF-8, line-oriented, bit-exact round-trips).


def dumps_lattice(lat: Lattice) -> str:
    lines = [FORMAT_HEADER, f"vocab {lat.vocab_ref}", f"start {lat.start}"]
    lines.append("final " + " ".join(str(f) for f in sorted(lat.finals)))
    for arc in lat.arcs:
        lines.append(f"arc {arc.src} {arc.dst} {lat.vocab.symbol_of(arc.label)} {float(arc.w_ac)!r}")
    return "".join(f"{l}\n" for l in lines)


def save_lattice(lat: Lattice, path: str | Path) -> None:
    Path(path).write_text(dumps_lattice(lat), encoding="utf-8")


def load_lattice(path: str | Path, vocab: StrokeVocabulary | None = None) -> Lattice:
    """Parse a lattice file.

    Symbol resolution order: the explicit ``vocab`` argument, then a vocab
    path in the header (relative to the lattice file), then a vocabulary
    reconstructed from the arc symbols themselves when the header carries an
    inline count.
    """
    path = Path(path)
    return loads_lattice(path.read_text(encoding="utf-8"), vocab=vocab, base_dir=path.parent)


def loads_lattice(
    text: str,
    vocab: StrokeVocabulary | None = None,
    base_dir: Path | None = None,
) -> Lattice:
    lines = iter(text.splitlines())
    for line in lines:
        line = line.strip()
        if line and not line.startswith("#"):
            break
    else:
        line = ""
    if line != FORMAT_HEADER:
        raise LatticeFormatError(f"expected header {FORMAT_HEADER!r}")
    vocab_ref = ""
    start: int | None = None
    finals: set[int] = set()
    srcs: list[int] = []
    dsts: list[int] = []
    symbols: list[str] = []
    scores: list[float] = []
    # One pass over the remaining lines; arc lines are nearly all of them.
    for line in lines:
        fields = line.split()
        if not fields:
            continue
        kind = fields[0]
        # Tuple unpacking checks each directive's arity; it and every numeric
        # conversion raise ValueError, reported below with the line.
        try:
            if kind == "arc":
                src, dst, symbol, score = fields[1:]
                srcs.append(int(src))
                dsts.append(int(dst))
                symbols.append(symbol)
                scores.append(float(score))
            elif kind.startswith("#"):
                continue
            elif kind == "vocab":
                (ref,) = fields[1:]
                if vocab_ref:
                    raise ValueError("repeated vocab line")
                if ref.isdigit():
                    # An inline count; digits such as '²' pass isdigit but not int.
                    int(ref)
                vocab_ref = ref
            elif kind == "start":
                (raw,) = fields[1:]
                value = int(raw)
                if start is not None:
                    raise ValueError("repeated start line")
                start = value
            elif kind == "final":
                finals.update(int(p) for p in fields[1:])
            else:
                raise LatticeFormatError(f"unknown directive: {kind!r}")
        except ValueError as exc:
            raise LatticeFormatError(f"bad {kind} line {line.strip()!r}: {exc}") from None
    if start is None or not finals:
        raise LatticeFormatError("missing start or final directive")

    if vocab is None:
        vocab = _resolve_vocab(vocab_ref, symbols, base_dir)
    # The table maps the sentinel too, so the validator names its arc.
    table = {symbol: i for i, symbol in enumerate(vocab.symbols)}
    labels = list(map(table.get, symbols))
    if None in labels:
        # id_of raises the vocabulary's own error for the first unknown symbol.
        try:
            vocab.id_of(symbols[labels.index(None)])
        except VocabularyError as exc:
            raise LatticeFormatError(str(exc)) from exc
    # Per-node structures are sized by the largest id, so a sparse id would
    # cost memory and time before validation could reject its phantom nodes.
    ids = {start, *finals}
    ids.update(srcs)
    ids.update(dsts)
    n_nodes = 1 + max(ids)
    if n_nodes > len(ids):
        raise LatticeFormatError(
            f"node id {n_nodes - 1} is not dense: {len(ids)} distinct node ids must be 0..{len(ids) - 1}"
        )
    return Lattice(
        vocab=vocab,
        n_nodes=n_nodes,
        # Arc._make's own construction, without a Python-level call per arc.
        arcs=tuple(map(tuple.__new__, repeat(Arc), zip(srcs, dsts, labels, scores))),
        start=start,
        finals=frozenset(finals),
        vocab_ref=vocab_ref,
    )


def _resolve_vocab(
    vocab_ref: str,
    symbols: list[str],
    base_dir: Path | None,
) -> StrokeVocabulary:
    if not vocab_ref:
        raise LatticeFormatError("no vocab directive and no vocabulary supplied")
    if vocab_ref.isdigit():
        declared = int(vocab_ref)
        # An arc naming the implicit sentinel is left to the validator, as
        # with a vocabulary.  Arcs that name no playable stroke fail it under
        # any vocabulary, so then the default one stands in.
        seen = [sym for sym in dict.fromkeys(symbols) if sym != SENTINEL]
        if len(seen) > declared:
            raise LatticeFormatError(
                f"vocab count {declared} smaller than {len(seen)} distinct arc symbols"
            )
        return StrokeVocabulary.of(seen) if seen else default_vocabulary()
    vocab_path = Path(vocab_ref)
    if base_dir is not None and not vocab_path.is_absolute():
        vocab_path = base_dir / vocab_path
    return load_vocabulary(vocab_path)
