"""Plain beams that define a search: the global beam :func:`rescore` runs,
and the per-node beam it is to run.

They are not in ``oracles.py``, whose rule is that nothing there shares code
with the program: these beams score every path with the program's own
:func:`~talarescore.rescorer.path_score`, so they check the search alone.  The
step's formulas are checked against the oracles separately.  ``path_score``
replays each path from the root, so both are quadratic in the lattice's
length; keep their inputs short.
"""

from __future__ import annotations

import math

from talarescore.rescorer import path_score, rescore


def reference_beam(lat, model, cfg):
    """Decode ``lat`` as a list of arc chains, with no memo, snapshot or column.

    Each state is ``(score, id, arc chain)``; the root is ``(0.0, 0, ())``
    and each pushed child takes the next id.  The best state by score, then
    by the lower id, is popped; a state with outgoing arcs pushes one child
    per arc in arc-id order, scored by ``path_score``; then the whole list
    is sorted again, and cut to ``k_beam`` states.  The winner is the
    terminal child with the highest score, then the smallest arc chain.

    Returns ``(hypothesis in model stroke ids, winner's arc chain, winner's
    score, pops, pushes, max_queue)``, where ``max_queue`` is the longest
    list before a cut.
    """
    beam = [(0.0, 0, ())]
    terminals = []
    pops = pushes = max_queue = 0
    while beam:
        _, _, chain = beam.pop(0)
        pops += 1
        node = lat.arcs[chain[-1]].dst if chain else lat.start
        out = [arc_id for arc_id, arc in enumerate(lat.arcs) if arc.src == node]
        if not out:
            continue
        for arc_id in out:
            pushes += 1
            child = chain + (arc_id,)
            score = path_score(lat, model, cfg, child)
            beam.append((score, pushes, child))
            if lat.arcs[arc_id].dst in lat.finals:
                terminals.append((score, child))
        beam.sort(key=lambda state: (-state[0], state[1]))
        max_queue = max(max_queue, len(beam))
        del beam[cfg.k_beam :]
    score, chain = min(terminals, key=lambda terminal: (-terminal[0], terminal[1]))
    hypothesis = tuple(model.vocab.id_of(lat.vocab.symbol_of(lat.arcs[a].label)) for a in chain)
    return hypothesis, chain, score, pops, pushes, max_queue


def assert_rescore_equals_reference(lat, model, cfg):
    """``rescore`` and :func:`reference_beam` agree bit for bit on the
    hypothesis, the winner's arc chain and ``acc_score``, pops, pushes and
    ``max_queue``; the arc chain checks the tie rule where tied paths carry
    the same labels."""
    hyp, exp, diag = rescore(lat, model, cfg)
    best = diag.best_state
    decoded = (
        hyp.strokes, exp.arc_chain(best), exp.states.acc_score[best], diag.pops, diag.pushes, diag.max_queue_size
    )
    assert decoded == reference_beam(lat, model, cfg)


def per_node_reference(lat, model, cfg):
    """Decode ``lat`` node by node as lists of arc chains, with no memo,
    snapshot or column.

    The nodes are visited in ``lat.topological_order``.  The arc chains that
    arrive at a node (the empty chain at the start) are scored by
    ``path_score`` and sorted by (-score, chain); the first ``k_beam`` of
    them each extend by every arc that leaves the node, in arc-id order.
    Every arrival at a final node is a terminal, even one the cut drops, and
    the winner is the first terminal by (-score, chain).

    Returns ``(hypothesis in model stroke ids, winner's arc chain, winner's
    score, margin)``.  ``margin`` is the smallest score gap the search's
    choices rest on: between the top two terminals, and at each node that
    cuts, between its ``k_beam``-th and ``k_beam + 1``-th arrivals.  It is
    inf where no choice is made.
    """
    arrivals = {lat.start: [()]}
    terminals = []
    margin = math.inf
    for node in lat.topological_order:
        ranked = sorted(
            ((path_score(lat, model, cfg, chain), chain) for chain in arrivals.pop(node, ())),
            key=lambda arrival: (-arrival[0], arrival[1]),
        )
        if node in lat.finals:
            terminals += [arrival for arrival in ranked if arrival[1]]
        if len(ranked) > cfg.k_beam:
            margin = min(margin, ranked[cfg.k_beam - 1][0] - ranked[cfg.k_beam][0])
        out = [arc_id for arc_id, arc in enumerate(lat.arcs) if arc.src == node]
        for _, chain in ranked[: cfg.k_beam]:
            for arc_id in out:
                arrivals.setdefault(lat.arcs[arc_id].dst, []).append(chain + (arc_id,))
    terminals.sort(key=lambda terminal: (-terminal[0], terminal[1]))
    score, chain = terminals[0]
    if len(terminals) > 1:
        margin = min(margin, score - terminals[1][0])
    hypothesis = tuple(model.vocab.id_of(lat.vocab.symbol_of(lat.arcs[a].label)) for a in chain)
    return hypothesis, chain, score, margin
