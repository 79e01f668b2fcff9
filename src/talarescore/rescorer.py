"""History-preserving lattice rescoring via state expansion and beam search.

The acoustic lattice merges paths regardless of stroke history, which makes
history-dependent rhythmic scoring ill-defined at merged nodes.  Rescoring
therefore expands each (lattice node, stroke history, Dirichlet snapshot)
triple into its own state: a best-first traversal pops the top-scoring state,
forms the combined rhythmic distribution for its history, rescores every
outgoing arc with the acoustic score plus the scaled log rhythmic probability,
and pushes the successor states.  The queue is pruned to a score band and a
capacity after every expansion batch; the answer is the history of the best
terminal state in the expanded lattice.

Because the dynamic model evolves along each path, the expanded lattice is a
tree rooted at the start state.  Pruning only stops further expansion: states
already added to the expanded lattice keep competing in the final selection.

A pushed state is one row of parallel columns (node, parent, arc, stroke,
weight, accumulated score).  Its static-prior state and Dirichlet snapshot
are built from its parent's only when it is popped with outgoing arcs, and
are kept in two dicts by state id, as the prior state and the bare
pseudo-count array.  The static prior is the model's
:class:`~talarescore.static_prior.TalaIndependentPrior`; its state is the
tuple of the last ``max(w_tau, n - 1)`` strokes, ``w_tau`` being the model's
trained tala window, so a pop copies no path history.  Most pushed states are
cut by the capacity rule and never popped, so they cost only their row;
histories (the winner's, the dump's, a trace's depth) are rebuilt from the
parent column.

Everything a popped state costs beyond the queue is one step,
``_Scorer.step``: Dirichlet observe, predict, static ``dist``, divergence,
interpolation weight, combination and the outgoing arcs' weights, read from
a per-node arc table built once per decode.  :func:`rescore` runs it for
every popped state and :func:`path_score` for every arc of a given path, so
both give the same bits.
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
from .fusion import (
    _combine,
    _jsd,
    _jsd_half,
    acoustic_confidence,
    lambda_k,
    parse_lambda_mode,
)
from .lattice import Lattice
from .model import RhythmModel


@dataclass(frozen=True, kw_only=True)
class RescoreConfig:
    """Decode-time hyperparameters.

    ``delta_beam`` is a natural-log score band and ``k_beam`` the queue
    capacity.  The static prior's tala window is the model's, set at training.
    """

    rho: float = 0.03
    beta: float = 0.5
    k_beam: int = 150
    delta_beam: float = 10.0
    lambda_mode: str = "adaptive"
    eps_jsd: float = 1e-8
    collect_traces: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.k_beam, int) or isinstance(self.k_beam, bool) or self.k_beam < 1:
            raise ValueError("k_beam must be an integer >= 1")
        if not self.delta_beam >= 0:  # NaN fails too
            raise ValueError("delta_beam must be non-negative")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")
        if not 0 <= self.beta < math.inf:  # NaN fails too
            raise ValueError("beta must be non-negative and finite")
        if not 0 < self.eps_jsd < math.inf:  # NaN fails too
            raise ValueError("eps_jsd must be positive and finite")
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
    ``states.parent``, ..., ``states.acc_score``).  ``prior_states`` and
    ``alphas`` map the id of each state popped with outgoing arcs (the root
    included) to its static-prior state, the last ``max(w_tau, n - 1)``
    strokes of its playable history, and its bare Dirichlet pseudo-count
    array; states never expanded have neither.
    """

    vocab: StrokeVocabulary
    states: _StateColumns = field(default_factory=_StateColumns)
    terminals: list[int] = field(default_factory=list)
    prior_states: dict[int, tuple[int, ...]] = field(default_factory=dict)
    alphas: dict[int, np.ndarray] = field(default_factory=dict)

    def history(self, state_id: int) -> tuple[int, ...]:
        """Stroke ids from the root to ``state_id``, led by the start sentinel."""
        parent, stroke = self.states.parent, self.states.stroke
        strokes: list[int] = []
        sid: int | None = state_id
        while sid is not None:
            strokes.append(stroke[sid])
            sid = parent[sid]
        strokes.reverse()
        return tuple(strokes)

    def arc_chain(self, state_id: int) -> tuple[int, ...]:
        """Original lattice arc ids from the root to ``state_id``."""
        parent, arc_id = self.states.parent, self.states.arc_id
        chain: list[int] = []
        sid = state_id
        while arc_id[sid] is not None:
            chain.append(arc_id[sid])
            sid = parent[sid]
        chain.reverse()
        return tuple(chain)


@dataclass(frozen=True)
class StepTrace:
    """Per-expansion instrumentation for one popped state.

    The distributions are the sequences the decode computed, not copies.
    """

    state_id: int
    node: int
    depth: int
    confidence: float
    divergence: float
    lam: float
    p_static: tuple[float, ...]
    p_dyn: list[float]
    p_comb: list[float]


@dataclass(eq=False)
class RescoreDiagnostics:
    pops: int = 0
    pushes: int = 0
    pruned_band: int = 0
    pruned_capacity: int = 0
    max_queue_size: int = 0
    traces: list[StepTrace] = field(default_factory=list)


class _Scorer:
    """One decode's scoring constants, its per-node arc table, and the step.

    ``arcs[node]`` lists the node's outgoing arcs, in arc-id order, as
    ``(arc id, dst, model stroke, w_ac, dst is final)``; ``confidence[node]``
    is the acoustic confidence of their scores, NaN where no step reads it
    (a fixed weight without traces, or a node without outgoing arcs).
    ``halves`` maps each static distribution the decode has met, a tuple
    from the prior's memo, to the static half of its divergence, so it is
    bounded by that memo.
    """

    __slots__ = (
        "vocab", "rho", "beta", "eps", "scale", "halves", "fixed_lam", "needs_div",
        "advance", "dist", "start", "alpha0", "arcs", "confidence",
    )

    def __init__(self, lat: Lattice, model: RhythmModel, cfg: RescoreConfig) -> None:
        label_map = _map_labels(lat, model.vocab)
        self.vocab = model.vocab
        self.rho, self.beta, self.eps = cfg.rho, cfg.beta, cfg.eps_jsd
        self.fixed_lam = parse_lambda_mode(cfg.lambda_mode)
        self.needs_div = self.fixed_lam is None or cfg.collect_traces
        n = model.vocab.num_playable
        self.scale = 1.0 + n * cfg.eps_jsd
        if self.needs_div and self.scale == math.inf:
            raise RescoreError(f"eps_jsd={cfg.eps_jsd!r} overflows the divergence's smoothing of {n} cells")
        self.halves: dict[tuple[float, ...], tuple[list[float], list[float]]] = {}
        static = model.static_prior()
        self.advance, self.dist = static.advance, static.dist
        self.start = static.start()
        self.alpha0 = model.initial_dirichlet(cfg.rho).alpha
        arcs, finals = lat.arcs, lat.finals
        self.arcs = [
            tuple((a, arcs[a].dst, label_map[arcs[a].label], arcs[a].w_ac, arcs[a].dst in finals) for a in out)
            for out in lat.outgoing
        ]
        self.confidence = [
            acoustic_confidence([arcs[a].w_ac for a in out]) if out and self.needs_div else math.nan
            for out in lat.outgoing
        ]

    def step(
        self, sid: int, node: int, alpha: np.ndarray, prior_state: tuple[int, ...], prev: int | None, stroke: int
    ) -> tuple[np.ndarray, tuple[int, ...], list[float], tuple]:
        """Score the state ``sid`` on ``node``, reached by ``stroke``.

        ``alpha`` and ``prior_state`` are the parent's snapshot and ``prev``
        the parent's stroke; at the root ``prev`` is None, the snapshot is the
        start's and ``stroke`` the sentinel.  Returns the state's snapshot,
        the weight of each of ``arcs[node]`` and the trace values
        ``(confidence, divergence, lam, p_static, p_dyn, p_comb)``; the
        divergence and confidence are NaN where a fixed weight skips them.
        """
        if prev is not None:
            alpha = _observe(alpha, self.rho, prev, stroke)
            prior_state = self.advance(prior_state, stroke)
        try:
            p_dyn = _predict(alpha, stroke)
        except ZeroDivisionError:
            # Forgetting decays a row that is never observed towards zero.
            raise RescoreError(
                f"state {sid} (node {node}): the Dirichlet row after {self.vocab.symbol_of(stroke)} "
                f"underflowed to zero (rho={self.rho!r})"
            ) from None
        p_static = self.dist(prior_state)
        lam = self.fixed_lam
        if self.needs_div:
            conf = self.confidence[node]
            half = self.halves.get(p_static)
            if half is None:
                half = self.halves[p_static] = _jsd_half(p_static, self.eps, self.scale)
            div = _jsd(p_dyn, half, self.eps, self.scale)
            if lam is None:
                lam = lambda_k(conf, div)
        else:
            conf = div = math.nan
        probs = _combine(p_static, p_dyn, lam)
        beta = self.beta
        weights = []
        for arc_id, _, q, w_ac, _ in self.arcs[node]:
            p = probs[q - 1]
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
        return alpha, prior_state, weights, (conf, div, lam, p_static, p_dyn, probs)


def rescore(
    lat: Lattice,
    model: RhythmModel,
    cfg: RescoreConfig | None = None,
) -> tuple[StrokeSequence, ExpandedLattice, RescoreDiagnostics]:
    """Rhythmically rescore a lattice; returns the best path, the expanded
    lattice, and diagnostics.

    Every lattice arc symbol must exist in the model vocabulary; the returned
    sequence uses model stroke ids.
    """
    cfg = cfg or RescoreConfig()
    scorer = _Scorer(lat, model, cfg)
    step, table = scorer.step, scorer.arcs
    collect = cfg.collect_traces
    delta_beam, k_beam = cfg.delta_beam, cfg.k_beam

    exp = ExpandedLattice(vocab=model.vocab)
    diag = RescoreDiagnostics()
    cols, terminals = exp.states, exp.terminals
    nodes, parents, strokes, accs = cols.node, cols.parent, cols.stroke, cols.acc_score
    add_node, add_parent, add_arc = nodes.append, parents.append, cols.arc_id.append
    add_stroke, add_weight, add_acc = strokes.append, cols.weight.append, accs.append
    prior_snaps, alpha_snaps = exp.prior_states, exp.alphas
    add_node(lat.start)
    add_parent(None)
    add_arc(None)
    add_stroke(SENTINEL_ID)
    add_weight(0.0)
    add_acc(0.0)
    prior_snaps[0], alpha_snaps[0] = scorer.start, scorer.alpha0

    pops = pruned_band = pruned_capacity = max_queue = 0
    # Ascending on (-acc_score, state id): the best state is first, exact
    # ties pop FIFO since ids are given in push order, and both pruning rules
    # cut a suffix.
    queue: list[tuple[float, int]] = [(-0.0, 0)]
    insort, bisect_right, inf = bisect.insort, bisect.bisect_right, math.inf

    while queue:
        sid = queue.pop(0)[1]
        pops += 1
        node = nodes[sid]
        out = table[node]
        if not out:
            continue
        parent = parents[sid]
        src, prev = (sid, None) if parent is None else (parent, strokes[parent])
        alpha, prior_state, weights, fused = step(sid, node, alpha_snaps[src], prior_snaps[src], prev, strokes[sid])
        alpha_snaps[sid], prior_snaps[sid] = alpha, prior_state
        if collect:
            diag.traces.append(StepTrace(sid, node, len(exp.history(sid)) - 1, *fused))

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
            insort(queue, (-child_acc, child))

        queued = len(queue)
        if queued > max_queue:
            max_queue = queued
        del queue[bisect_right(queue, (queue[0][0] + delta_beam, inf)) :]
        in_band = len(queue)
        del queue[k_beam:]
        pruned_band += queued - in_band
        pruned_capacity += in_band - len(queue)

    diag.pops, diag.pushes = pops, len(nodes) - 1
    diag.pruned_band, diag.pruned_capacity, diag.max_queue_size = pruned_band, pruned_capacity, max_queue
    if not terminals:
        raise RescoreError(
            "no terminal state survived pruning; widen k_beam or delta_beam"
        )
    # Finite weights can still sum past the float range, and tied infinite
    # scores would leave the choice to the arc-id tie-break.
    overflowed = next((t for t in terminals if not -inf < accs[t] < inf), None)
    if overflowed is not None:
        raise RescoreError(
            f"terminal state {overflowed}: accumulated score {accs[overflowed]!r} is not finite "
            f"(beta={cfg.beta!r})"
        )
    best = viterbi_expanded(exp)
    return best, exp, diag


def path_score(lat: Lattice, model: RhythmModel, cfg: RescoreConfig, arc_ids: Sequence[int]) -> float:
    """Rescored score of the path ``arc_ids`` from the start node: the sum of
    its rescored arc weights.

    The path is replayed through the same per-state step :func:`rescore`
    runs, so the score equals bit for bit the ``acc_score`` a decode gives
    the state at the path's end; the path need not end on a final node.
    The step's errors name the arc's position on the path as the state.
    Raises ``ValueError`` when an arc does not leave the node the path has
    reached.
    """
    scorer = _Scorer(lat, model, cfg)
    node, alpha, prior_state = lat.start, scorer.alpha0, scorer.start
    prev, stroke = None, SENTINEL_ID
    acc = 0.0
    for depth, arc_id in enumerate(arc_ids):
        out = scorer.arcs[node]
        pos = next((i for i, arc in enumerate(out) if arc[0] == arc_id), None)
        if pos is None:
            raise ValueError(f"arc {arc_id} does not leave node {node}")
        alpha, prior_state, weights, _ = scorer.step(depth, node, alpha, prior_state, prev, stroke)
        acc += weights[pos]
        prev, stroke, node = stroke, out[pos][2], out[pos][1]
    return acc


def viterbi_expanded(exp: ExpandedLattice) -> StrokeSequence:
    """History of the best-scoring terminal state.

    Ties break on the lexicographically smallest chain of original lattice
    arc ids, matching the acoustic Viterbi tie-break.
    """
    if not exp.terminals:
        raise RescoreError("expanded lattice has no terminal state")
    acc = exp.states.acc_score
    best_id: int | None = None
    best_chain: tuple[int, ...] | None = None
    for sid in exp.terminals:
        if best_id is None or acc[sid] > acc[best_id]:
            best_id, best_chain = sid, None
        elif acc[sid] == acc[best_id]:
            if best_chain is None:
                best_chain = exp.arc_chain(best_id)
            chain = exp.arc_chain(sid)
            if chain < best_chain:
                best_id, best_chain = sid, chain
    return StrokeSequence(exp.history(best_id)[1:])


def _map_labels(lat: Lattice, vocab: StrokeVocabulary) -> dict[int, int]:
    """Lattice stroke ids -> model stroke ids, by symbol."""
    if lat.vocab.symbols == vocab.symbols:
        return {sid: sid for sid in lat.vocab.playable_ids}
    mapping: dict[int, int] = {}
    missing: list[str] = []
    for sid in lat.vocab.playable_ids:
        symbol = lat.vocab.symbol_of(sid)
        if symbol in vocab:
            mapping[sid] = vocab.id_of(symbol)
        else:
            missing.append(symbol)
    if missing:
        raise VocabularyMismatchError(
            f"lattice strokes missing from model vocabulary: {', '.join(sorted(missing))}"
        )
    return mapping


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
