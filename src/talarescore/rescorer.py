"""History-preserving lattice rescoring via state expansion and beam search.

The acoustic lattice merges paths regardless of stroke history, which makes
history-dependent rhythmic scoring ill-defined at merged nodes.  Rescoring
therefore expands each (lattice node, stroke history, Dirichlet snapshot)
triple into its own state: a best-first traversal pops the top-scoring state,
forms the combined rhythmic distribution for its history, rescores every
outgoing arc with the acoustic score plus the scaled log rhythmic probability,
and pushes the successor states.  After every expansion batch the queue is
cut to its ``k_beam`` best states; the answer is the history of the best
terminal state in the expanded lattice.

Because the dynamic model evolves along each path, the expanded lattice is a
tree rooted at the start state.  Pruning only stops further expansion: states
already added to the expanded lattice keep competing in the final selection.

A pushed state is one row of parallel columns (node, parent, arc, stroke,
weight, accumulated score).  Its static-prior state and Dirichlet snapshot
are built from its parent's only when it is popped with outgoing arcs, and
ride in its children's queue entries only, so a decode holds at most
``k_beam + 1`` snapshots.  The static prior is the model's ``prior``, a
:class:`~talarescore.static_prior.TalaIndependentPrior`; its state is a node
of an automaton over the model's tala windows, shared by every decode, so a
pop copies no path history and, once the node exists, advancing it is one
list read and its distribution one attribute read.  Most pushed states are
cut by the capacity rule and never popped, so they cost only their row;
histories (the winner's, the dump's) are rebuilt from the parent column.

The push rule: a child whose key ``(-acc_score, id)`` sorts after the
``k_beam``-th entry of a full queue is past the cut whatever else the pop
pushes, since later children only push entries back; and its id is the
largest yet, so a tie with that entry puts it after.  Such a child gets its
row and, on a final node, its place in ``terminals``, but no queue entry.

Everything a popped state costs beyond the queue is one step.  The state
observes its Dirichlet transition (``dynamic_model._observe``) and advances
the static prior, whose ``dist`` it reads; ``_Scorer.fuse`` predicts and
takes the divergence and the interpolation weight; ``_Scorer.weights`` gives
the outgoing arcs' weights, read from a per-node arc table built once per
decode, each from its own cell of the combination.  :func:`rescore` runs the
step for every popped state and only searches; :func:`path_terms` runs it for
every arc of a given path and reports each arc's terms, with the whole
combination from ``fusion._combine``, so both give the same bits.

``fuse`` and ``weights`` read the history through two values only: row
``stroke`` of the state's Dirichlet snapshot and its static distribution.
Two states on one node whose histories differ in neither get the same
weights, bit for bit, so :func:`rescore` keeps a memo from
``(node, stroke, alpha[stroke].tobytes(), p_static)`` to the node's arc
weights and scores each distinct key once.  A hit is bit-exact because the
key holds every input of ``fuse`` and ``weights``: the row's bytes, the
static distribution's values (each weight is the same for equal values), and
the node, which fixes the arcs and their acoustic confidence.  The first state
with a key is the one that scores it, so a failing step raises at the same
state, with the same message.  The memo is local to one call and dies with
it; it holds one weights tuple per scored key.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import SENTINEL_ID, StrokeSequence, StrokeVocabulary
from .dynamic_model import _observe, _predict
from .errors import RescoreError, VocabularyMismatchError
from .fusion import _combine, _jsd, _jsd_half, acoustic_confidence, lambda_k, parse_lambda_mode
from .lattice import Lattice
from .model import RhythmModel


@dataclass(frozen=True, kw_only=True)
class RescoreConfig:
    """Decode-time hyperparameters.

    After each expansion the queue keeps its ``k_beam`` best states.  The
    static prior's tala window is the model's, set at training.
    """

    rho: float = 0.03
    beta: float = 0.5
    k_beam: int = 150
    lambda_mode: str = "adaptive"

    def __post_init__(self) -> None:
        if not isinstance(self.k_beam, int) or isinstance(self.k_beam, bool) or self.k_beam < 1:
            raise ValueError("k_beam must be an integer >= 1")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")
        if not 0 <= self.beta < math.inf:  # NaN fails too
            raise ValueError("beta must be non-negative and finite")
        parse_lambda_mode(self.lambda_mode)


class _StateColumns:
    """The expanded states as parallel columns indexed by state id.

    ``node`` is the state's lattice node, ``parent`` the id of the state it
    was pushed from, ``arc_id`` the lattice arc between them (both None at
    the root), ``stroke`` that arc's model stroke id (the start sentinel at
    the root), ``weight`` its rescored weight (0.0 at the root) and
    ``acc_score`` the sum of those weights along the backpointer chain.
    """

    __slots__ = ("node", "parent", "arc_id", "stroke", "weight", "acc_score")

    def __init__(self) -> None:
        self.node: list[int] = []
        self.parent: list[int | None] = []
        self.arc_id: list[int | None] = []
        self.stroke: list[int] = []
        self.weight: list[float] = []
        self.acc_score: list[float] = []

    def __len__(self) -> int:
        return len(self.node)


@dataclass(eq=False)
class ExpandedLattice:
    """Tree of expanded states; terminals sit on final acoustic nodes.

    The root is state 0.  Each non-root state is the head of exactly one
    expanded arc, the one from its parent; a parent's id is always below its
    children's.  ``states`` holds one list per field (``states.node``,
    ``states.parent``, ..., ``states.acc_score``).  No state's Dirichlet or
    static-prior snapshot is kept: during the decode it lives in its
    children's queue entries, and :func:`path_terms` rebuilds it by replay.
    """

    vocab: StrokeVocabulary
    states: _StateColumns = field(default_factory=_StateColumns)
    terminals: list[int] = field(default_factory=list)

    def _walk(self, state_id: int) -> list[int]:
        # The state ids from the root to ``state_id``, root first.
        parent = self.states.parent
        ids = [state_id]
        while (sid := parent[ids[-1]]) is not None:
            ids.append(sid)
        ids.reverse()
        return ids

    def history(self, state_id: int) -> tuple[int, ...]:
        """Stroke ids from the root to ``state_id``, led by the start sentinel."""
        stroke = self.states.stroke
        return tuple(stroke[sid] for sid in self._walk(state_id))

    def arc_chain(self, state_id: int) -> tuple[int, ...]:
        """Original lattice arc ids from the root to ``state_id``."""
        arc_id = self.states.arc_id
        return tuple(arc_id[sid] for sid in self._walk(state_id)[1:])


@dataclass(frozen=True)
class StepTrace:
    """The terms of one arc of a replayed path: ``depth`` is its position on
    the path, ``node`` the node it leaves and ``stroke`` its model stroke id.

    The confidence and divergence are NaN under a fixed weight, which never
    computes them; the distributions are the step's own sequences.
    """

    depth: int
    node: int
    arc_id: int
    stroke: int
    w_ac: float
    confidence: float
    divergence: float
    lam: float
    p_static: tuple[float, ...]
    p_dyn: list[float]
    p_comb: list[float]
    weight: float


@dataclass(frozen=True)
class RescoreDiagnostics:
    """One decode's beam counters and the terminal state it selected.

    ``scored`` counts the popped states whose arc weights were computed, the
    memo's misses; every other popped state with outgoing arcs reused the
    weights of an earlier state with the same key.  ``max_queue_size`` is
    the queue's length before a cut, and ``pruned_capacity`` counts the
    states the cut drops; both include the children the push rule records
    but never queues.
    """

    pops: int
    pushes: int
    pruned_capacity: int
    max_queue_size: int
    best_state: int
    scored: int


class _Scorer:
    """One decode's scoring constants, its per-node arc table, and the step's scoring.

    ``arcs[node]`` lists the node's outgoing arcs, in arc-id order, as
    ``(arc id, dst, model stroke, w_ac, dst is final)``; ``confidence[node]``
    is the acoustic confidence of their scores, NaN where no step reads it
    (under a fixed weight, or on a node without outgoing arcs).
    ``halves`` maps each static distribution the decode has met, a tuple
    from the prior's memo, to the static half of its divergence, so it is
    bounded by that memo.
    """

    __slots__ = (
        "vocab", "rho", "beta", "halves", "fixed_lam", "arcs", "confidence",
    )

    def __init__(self, lat: Lattice, model: RhythmModel, cfg: RescoreConfig) -> None:
        label_map = _map_labels(lat, model.vocab)
        self.vocab = model.vocab
        self.rho, self.beta = cfg.rho, cfg.beta
        self.fixed_lam = parse_lambda_mode(cfg.lambda_mode)
        adaptive = self.fixed_lam is None
        self.halves: dict[tuple[float, ...], tuple[list[float], list[float]]] = {}
        arcs, finals = lat.arcs, lat.finals
        self.arcs = [
            tuple((a, arcs[a].dst, label_map[arcs[a].label], arcs[a].w_ac, arcs[a].dst in finals) for a in out)
            for out in lat.outgoing
        ]
        self.confidence = [
            acoustic_confidence([arcs[a].w_ac for a in out]) if out and adaptive else math.nan
            for out in lat.outgoing
        ]

    def fuse(
        self, sid: int, node: int, alpha: np.ndarray, stroke: int, p_static: tuple[float, ...]
    ) -> tuple[list[float], float, float, float]:
        """The dynamic distribution and ``(confidence, divergence, lam)`` of
        the state ``sid`` on ``node``, reached by ``stroke``.

        ``alpha`` and ``p_static`` are the state's snapshot and static
        distribution; only row ``stroke`` of ``alpha`` is read.  The
        confidence and divergence are NaN where a fixed weight skips them.
        """
        try:
            p_dyn = _predict(alpha, stroke)
        except ZeroDivisionError:
            # Forgetting decays a row that is never observed towards zero.
            raise RescoreError(
                f"state {sid} (node {node}): the Dirichlet row after {self.vocab.symbol_of(stroke)} "
                f"underflowed to zero (rho={self.rho!r})"
            ) from None
        lam = self.fixed_lam
        if lam is None:
            conf = self.confidence[node]
            half = self.halves.get(p_static)
            if half is None:
                half = self.halves[p_static] = _jsd_half(p_static)
            div = _jsd(p_dyn, half)
            lam = lambda_k(conf, div)
        else:
            conf = div = math.nan
        return p_dyn, conf, div, lam

    def weights(
        self, sid: int, node: int, p_static: tuple[float, ...], p_dyn: list[float], lam: float
    ) -> tuple[float, ...]:
        """The weight of each of ``arcs[node]`` for the state ``sid``, given
        the terms :meth:`fuse` gives it.

        Each arc's combined probability is ``fusion._combine``'s cell, taken
        at that arc alone.
        """
        keep, beta = 1.0 - lam, self.beta
        weights = []
        for arc_id, _, q, w_ac, _ in self.arcs[node]:
            p = keep * p_static[q - 1] + lam * p_dyn[q - 1]
            if not 0.0 < p < math.inf:  # NaN fails too
                raise RescoreError(
                    f"state {sid} (node {node}), arc {arc_id}: combined probability "
                    f"{p!r} of {self.vocab.symbol_of(q)} is not a finite positive number"
                )
            weight = w_ac + beta * math.log(p)
            if not -math.inf < weight < math.inf:
                raise RescoreError(
                    f"state {sid} (node {node}), arc {arc_id}: rescored weight {weight!r} "
                    f"of {self.vocab.symbol_of(q)} is not finite (beta={beta!r})"
                )
            weights.append(weight)
        return tuple(weights)


def rescore(
    lat: Lattice,
    model: RhythmModel,
    cfg: RescoreConfig | None = None,
) -> tuple[StrokeSequence, ExpandedLattice, RescoreDiagnostics]:
    """Rhythmically rescore a lattice; returns the best path, the expanded
    lattice, and diagnostics, which name the winner's terminal state.

    Every lattice arc symbol must exist in the model vocabulary; the returned
    sequence uses model stroke ids.
    """
    cfg = cfg or RescoreConfig()
    scorer = _Scorer(lat, model, cfg)
    fuse, arc_weights, table = scorer.fuse, scorer.weights, scorer.arcs
    advance, dist, rho = model.prior.advance, model.prior.dist, scorer.rho
    k_beam = cfg.k_beam
    last = k_beam - 1
    # Each scored key's arc weights; see the module docstring.
    scored: dict[tuple[int, int, bytes, tuple[float, ...]], tuple[float, ...]] = {}

    exp = ExpandedLattice(vocab=model.vocab)
    cols, terminals = exp.states, exp.terminals
    nodes, parents, strokes, accs = cols.node, cols.parent, cols.stroke, cols.acc_score
    add_node, add_parent, add_arc = nodes.append, parents.append, cols.arc_id.append
    add_stroke, add_weight, add_acc = strokes.append, cols.weight.append, accs.append
    add_node(lat.start)
    add_parent(None)
    add_arc(None)
    add_stroke(SENTINEL_ID)
    add_weight(0.0)
    add_acc(0.0)

    pops = max_queue = 0
    # Ascending on (-acc_score, state id): the best state is first, exact ties
    # pop FIFO since ids are given in push order, and pruning cuts the tail.
    # Each entry carries its parent's snapshot (the start's at the root); the
    # ids are unique, so no comparison reaches it.
    queue: list[tuple[float, int, np.ndarray, object]] = [(-0.0, 0, model.alpha0, model.prior.start())]
    insort = bisect.insort

    while queue:
        _, sid, alpha, prior_state = queue.pop(0)
        pops += 1
        node = nodes[sid]
        out = table[node]
        if not out:
            continue
        stroke = strokes[sid]
        parent = parents[sid]
        if parent is not None:
            alpha = _observe(alpha, rho, strokes[parent], stroke)
            prior_state = advance(prior_state, stroke)
        p_static = dist(prior_state)
        key = (node, stroke, alpha[stroke].tobytes(), p_static)
        weights = scored.get(key)
        if weights is None:
            p_dyn, _, _, lam = fuse(sid, node, alpha, stroke, p_static)
            weights = scored[key] = arc_weights(sid, node, p_static, p_dyn, lam)

        # The queue's length before the cut counts every child, queued or not.
        queued = len(queue) + len(out)
        if queued > max_queue:
            max_queue = queued
        acc = accs[sid]
        for (arc_id, dst, q, _, final), weight in zip(out, weights):
            child = len(nodes)
            child_acc = acc + weight
            add_node(dst)
            add_parent(sid)
            add_arc(arc_id)
            add_stroke(q)
            add_weight(weight)
            add_acc(child_acc)
            if final:
                terminals.append(child)
            # A child that sorts after a full queue's k_beam-th entry (its id
            # is the largest yet, so a tie puts it after) stays past the cut
            # whatever follows it: it is recorded and never queued.
            if len(queue) < k_beam or -child_acc < queue[last][0]:
                insort(queue, (-child_acc, child, alpha, prior_state))
        del queue[k_beam:]

    # ``terminals`` is not empty: the queue empties only after a pop that
    # pushes nothing (k_beam is at least 1), and validation puts every node on
    # a start-to-final path, so that pop is at a final node, whose state
    # became a terminal when it was pushed.

    # Finite weights can still sum past the float range, and tied infinite
    # scores would leave the choice to the arc-id tie-break.
    overflowed = next((t for t in terminals if not -math.inf < accs[t] < math.inf), None)
    if overflowed is not None:
        raise RescoreError(
            f"terminal state {overflowed}: accumulated score {accs[overflowed]!r} is not finite "
            f"(beta={cfg.beta!r})"
        )
    best = viterbi_expanded(exp)
    # Every state, the root included, leaves the queue once, popped or cut,
    # and the queue ends empty.
    pushes = len(nodes) - 1
    diag = RescoreDiagnostics(pops, pushes, pushes + 1 - pops, max_queue, best, len(scored))
    return StrokeSequence(exp.history(best)[1:]), exp, diag


def path_terms(lat: Lattice, model: RhythmModel, cfg: RescoreConfig, arc_ids: Sequence[int]) -> list[StepTrace]:
    """The terms of each arc of the path ``arc_ids`` from the start node.

    The path is replayed through the same step :func:`rescore` runs,
    without its memo, so each arc's terms and weight are the decode's own
    bits; the path need not end on a final node.  The
    step's errors name the arc's position on the path as the state.  Raises
    ``ValueError`` when an arc does not leave the node the path has reached.
    """
    scorer = _Scorer(lat, model, cfg)
    node, alpha, prior_state = lat.start, model.alpha0, model.prior.start()
    prev, stroke = None, SENTINEL_ID
    terms: list[StepTrace] = []
    for depth, arc_id in enumerate(arc_ids):
        out = scorer.arcs[node]
        pos = next((i for i, arc in enumerate(out) if arc[0] == arc_id), None)
        if pos is None:
            raise ValueError(f"arc {arc_id} does not leave node {node}")
        if prev is not None:
            alpha = _observe(alpha, scorer.rho, prev, stroke)
            prior_state = model.prior.advance(prior_state, stroke)
        p_static = model.prior.dist(prior_state)
        p_dyn, conf, div, lam = scorer.fuse(depth, node, alpha, stroke, p_static)
        weights = scorer.weights(depth, node, p_static, p_dyn, lam)
        _, dst, q, w_ac, _ = out[pos]
        p_comb = _combine(p_static, p_dyn, lam)
        terms.append(StepTrace(depth, node, arc_id, q, w_ac, conf, div, lam, p_static, p_dyn, p_comb, weights[pos]))
        prev, stroke, node = stroke, q, dst
    return terms


def path_score(lat: Lattice, model: RhythmModel, cfg: RescoreConfig, arc_ids: Sequence[int]) -> float:
    """Rescored score of a path: its :func:`path_terms` weights added left
    to right, which equals bit for bit the ``acc_score`` a decode gives the
    state at the path's end."""
    acc = 0.0
    for term in path_terms(lat, model, cfg, arc_ids):
        acc += term.weight
    return acc


def viterbi_expanded(exp: ExpandedLattice) -> int:
    """Id of the best-scoring terminal state.

    Of the top-scoring terminals, the one with the lexicographically smallest
    chain of lattice arc ids wins, a prefix first, as in ``viterbi_acoustic``.
    No chain is built: each top terminal walks up to the first marked state,
    marking each parent with its smallest-arc child toward a top terminal,
    and one descent from the root reads off the winner.
    """
    if not exp.terminals:
        raise RescoreError("expanded lattice has no terminal state")
    acc, parent, arc_id = exp.states.acc_score, exp.states.parent, exp.states.arc_id
    top = max(acc[sid] for sid in exp.terminals)
    # Each marked state's child; a top terminal's -1 ends the descent there.
    down: dict[int, int] = {}
    for sid in exp.terminals:
        if acc[sid] != top:
            continue
        down[sid] = -1
        while (up := parent[sid]) is not None:
            child = down.get(up)
            if child is None or (child >= 0 and arc_id[sid] < arc_id[child]):
                down[up] = sid
            if child is not None:
                break
            sid = up
    sid = 0
    while (child := down[sid]) >= 0:
        sid = child
    return sid


def _map_labels(lat: Lattice, vocab: StrokeVocabulary) -> dict[int, int]:
    """Lattice stroke ids -> model stroke ids, by symbol."""
    missing = sorted(symbol for symbol in lat.vocab.playable_symbols if symbol not in vocab)
    if missing:
        raise VocabularyMismatchError(f"lattice strokes missing from model vocabulary: {', '.join(missing)}")
    return {sid: vocab.id_of(symbol) for sid, symbol in enumerate(lat.vocab.symbols) if sid}


def dumps_expanded(exp: ExpandedLattice) -> str:
    """Debug dump in the lattice text format plus per-state history comments.

    Node ids are expanded-state ids.  Not loadable as a model input.
    """
    lines = ["lattice v1", f"vocab {exp.vocab.num_playable}", "start 0"]
    if exp.terminals:
        lines.append("final " + " ".join(str(t) for t in exp.terminals))
    cols = exp.states
    histories: list[tuple[str, ...]] = [()]
    for sid in range(1, len(cols)):
        parent = cols.parent[sid]
        symbol = exp.vocab.symbol_of(cols.stroke[sid])
        lines.append(f"arc {parent} {sid} {symbol} {float(cols.weight[sid])!r}")
        histories.append(histories[parent] + (symbol,))
    for sid, syms in enumerate(histories):
        lines.append(f"# history {sid} {' '.join(syms)}".rstrip())
    return "".join(f"{l}\n" for l in lines)


def save_expanded(exp: ExpandedLattice, path: str | Path) -> None:
    Path(path).write_text(dumps_expanded(exp), encoding="utf-8")
