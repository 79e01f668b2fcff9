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

A pushed state is a backpointer record (node, parent, arc, stroke, scores).
Its static-prior state and Dirichlet snapshot are built from its parent's
only when it is popped with outgoing arcs: the prior state advances by the
state's stroke and the snapshot observes the transition into it.  The prior
is stepped through the :class:`~talarescore.static_prior.NextStrokePrior`
protocol, whose state holds only the strokes the prior reads (the built-in
prior keeps the last ``max(w_tau, n - 1)``, with the model's trained tala
window ``w_tau``), so a pop copies no path history.  Most pushed
states are cut by the capacity rule and never popped, so they cost only the
record; histories (the winner's, the dump's, a trace's depth) are rebuilt
from the backpointers.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .core import SENTINEL_ID, StrokeSequence, StrokeVocabulary
from .dynamic_model import DirichletState, predict, update
from .errors import RescoreError, VocabularyMismatchError
from .fusion import acoustic_confidence, combine, jsd, lambda_k, parse_lambda_mode
from .lattice import Lattice
from .model import RhythmModel
from .static_prior import NextStrokePrior


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
        if self.k_beam < 1:
            raise ValueError("k_beam must be >= 1")
        if not self.delta_beam >= 0:  # NaN fails too
            raise ValueError("delta_beam must be non-negative")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")
        if not self.beta >= 0:
            raise ValueError("beta must be non-negative")
        if not self.eps_jsd > 0:
            raise ValueError("eps_jsd must be positive")
        parse_lambda_mode(self.lambda_mode)


@dataclass(slots=True, eq=False)
class ExpandedState:
    """One decoding state, as pushed: a backpointer record.

    ``stroke`` is the model stroke id of the arc from ``parent`` (the start
    sentinel at the root), ``weight`` that arc's rescored weight (0.0 at the
    root) and ``acc_score`` the sum of those weights along the backpointer
    chain.  The state's history is the chain's strokes; see
    ``ExpandedLattice.history``.
    """

    id: int
    node: int
    parent: int | None
    arc_id: int | None
    stroke: int
    weight: float
    acc_score: float


@dataclass(eq=False)
class ExpandedLattice:
    """Tree of expanded states; terminals sit on final acoustic nodes.

    Each non-root state is the head of exactly one expanded arc, the one from
    its ``parent``; the tree's arcs are therefore ``states[1:]``.  A parent's
    id is always below its children's.  ``snapshots`` maps the id of each
    state popped with outgoing arcs (the root included) to its static-prior
    state and Dirichlet snapshot; states never expanded have none.  For the
    built-in prior the prior state is the last ``max(w_tau, n - 1)`` strokes
    of the state's playable history, ``w_tau`` being the model's tala window.
    """

    vocab: StrokeVocabulary
    states: list[ExpandedState] = field(default_factory=list)
    terminals: list[int] = field(default_factory=list)
    snapshots: dict[int, tuple[object, DirichletState]] = field(default_factory=dict)

    @property
    def start_state(self) -> int:
        return 0

    def history(self, state_id: int) -> tuple[int, ...]:
        """Stroke ids from the root to ``state_id``, led by the start sentinel."""
        strokes: list[int] = []
        st = self.states[state_id]
        while st.parent is not None:
            strokes.append(st.stroke)
            st = self.states[st.parent]
        strokes.append(st.stroke)
        strokes.reverse()
        return tuple(strokes)

    def arc_chain(self, state_id: int) -> tuple[int, ...]:
        """Original lattice arc ids from the root to ``state_id``."""
        chain: list[int] = []
        st = self.states[state_id]
        while st.arc_id is not None:
            chain.append(st.arc_id)
            st = self.states[st.parent]
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
    p_static: Sequence[float]
    p_dyn: Sequence[float]
    p_comb: Sequence[float]


@dataclass(eq=False)
class RescoreDiagnostics:
    pops: int = 0
    pushes: int = 0
    pruned_band: int = 0
    pruned_capacity: int = 0
    max_queue_size: int = 0
    traces: list[StepTrace] = field(default_factory=list)


def rescore(
    lat: Lattice,
    model: RhythmModel,
    cfg: RescoreConfig | None = None,
    static_prior: "NextStrokePrior | None" = None,
) -> tuple[StrokeSequence, ExpandedLattice, RescoreDiagnostics]:
    """Rhythmically rescore a lattice; returns the best path, the expanded
    lattice, and diagnostics.

    Every lattice arc symbol must exist in the model vocabulary; the returned
    sequence uses model stroke ids.  ``static_prior`` swaps in a replacement
    next-stroke model, stepped by playable model ids (see
    :class:`~talarescore.static_prior.NextStrokePrior`); by default the
    model's own marginalized n-gram prior is used.
    """
    cfg = cfg or RescoreConfig()
    label_map = _map_labels(lat, model.vocab)
    static = static_prior if static_prior is not None else model.static_prior()
    advance, dist = static.advance, static.dist
    fixed_lam = parse_lambda_mode(cfg.lambda_mode)
    beta = cfg.beta
    collect = cfg.collect_traces

    exp = ExpandedLattice(vocab=model.vocab)
    diag = RescoreDiagnostics()
    states, terminals, snapshots = exp.states, exp.terminals, exp.snapshots
    states.append(ExpandedState(0, lat.start, None, None, SENTINEL_ID, 0.0, 0.0))
    snapshots[0] = (static.start(), model.initial_dirichlet(cfg.rho))

    node_confidence: dict[int, float] = {}
    # Ascending on (-acc_score, state id): the best state is first, exact
    # ties pop FIFO since ids are given in push order, and both pruning rules
    # cut a suffix.
    queue: list[tuple[float, int]] = [(-0.0, 0)]

    while queue:
        _, sid = queue.pop(0)
        diag.pops += 1
        state = states[sid]
        out_arcs = lat.outgoing[state.node]
        if not out_arcs:
            continue

        prev = state.stroke
        if state.parent is None:
            prior_state, dirichlet = snapshots[sid]
        else:
            prior_state, dirichlet = snapshots[state.parent]
            dirichlet = update(dirichlet, states[state.parent].stroke, prev)
            prior_state = advance(prior_state, prev)
            snapshots[sid] = (prior_state, dirichlet)
        p_dyn = predict(dirichlet, prev)
        p_static = dist(prior_state)
        try:
            if fixed_lam is None or collect:
                conf = node_confidence.get(state.node)
                if conf is None:
                    conf = acoustic_confidence([lat.arcs[a].w_ac for a in out_arcs])
                    node_confidence[state.node] = conf
                div = jsd(p_dyn, p_static, cfg.eps_jsd)
            else:
                conf = float("nan")
                div = float("nan")
            lam = fixed_lam if fixed_lam is not None else lambda_k(conf, div)
            probs = combine(p_static, p_dyn, lam)
        except ValueError as err:
            # A custom static prior of the wrong length, or with a NaN that
            # makes the adaptive weight NaN.
            raise RescoreError(
                f"state {sid} (node {state.node}): static prior {p_static!r} does not "
                f"combine with the dynamic prediction: {err}"
            ) from None
        if collect:
            diag.traces.append(
                StepTrace(
                    state_id=sid,
                    node=state.node,
                    depth=len(exp.history(sid)) - 1,
                    confidence=conf,
                    divergence=div,
                    lam=lam,
                    p_static=p_static,
                    p_dyn=p_dyn,
                    p_comb=probs,
                )
            )

        for arc_id in out_arcs:
            arc = lat.arcs[arc_id]
            q = label_map[arc.label]
            p = probs[q - 1]
            if not 0.0 < p < math.inf:  # NaN fails too
                raise RescoreError(
                    f"state {sid} (node {state.node}), arc {arc_id}: combined probability "
                    f"{p!r} of {model.vocab.symbol_of(q)} is not a finite positive number"
                )
            weight = arc.w_ac + beta * math.log(p)
            child_id = len(states)
            acc = state.acc_score + weight
            states.append(ExpandedState(child_id, arc.dst, sid, arc_id, q, weight, acc))
            if arc.dst in lat.finals:
                terminals.append(child_id)
            bisect.insort(queue, (-acc, child_id))

        queued = len(queue)
        diag.max_queue_size = max(diag.max_queue_size, queued)
        del queue[bisect.bisect_right(queue, (queue[0][0] + cfg.delta_beam, math.inf)) :]
        in_band = len(queue)
        del queue[cfg.k_beam :]
        diag.pruned_band += queued - in_band
        diag.pruned_capacity += in_band - len(queue)

    diag.pushes = len(states) - 1
    if not exp.terminals:
        raise RescoreError(
            "no terminal state survived pruning; widen k_beam or delta_beam"
        )
    best = viterbi_expanded(exp)
    return best, exp, diag


def viterbi_expanded(exp: ExpandedLattice) -> StrokeSequence:
    """History of the best-scoring terminal state.

    Ties break on the lexicographically smallest chain of original lattice
    arc ids, matching the acoustic Viterbi tie-break.
    """
    if not exp.terminals:
        raise RescoreError("expanded lattice has no terminal state")
    best_id: int | None = None
    best_chain: tuple[int, ...] | None = None
    for sid in exp.terminals:
        st = exp.states[sid]
        if best_id is None or st.acc_score > exp.states[best_id].acc_score:
            best_id, best_chain = sid, None
        elif st.acc_score == exp.states[best_id].acc_score:
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
    lines = ["lattice v1", f"vocab {exp.vocab.num_playable}", f"start {exp.start_state}"]
    if exp.terminals:
        lines.append("final " + " ".join(str(t) for t in exp.terminals))
    histories: list[tuple[str, ...]] = [()]
    for st in exp.states[1:]:
        symbol = exp.vocab.symbol_of(st.stroke)
        lines.append(f"arc {st.parent} {st.id} {symbol} {float(st.weight)!r}")
        histories.append(histories[st.parent] + (symbol,))
    for sid, syms in enumerate(histories):
        lines.append(f"# history {sid} {' '.join(syms)}".rstrip())
    return "".join(f"{l}\n" for l in lines)


def save_expanded(exp: ExpandedLattice, path: str | Path) -> None:
    Path(path).write_text(dumps_expanded(exp), encoding="utf-8")
