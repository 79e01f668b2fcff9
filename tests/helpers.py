"""Shared test helpers: how the tests step the prior, replay a decode, take
the divergence, and draw small lattices.

Test modules import these from here, never from one another, so that one
module that fails to import stops only itself from being collected.
"""

from __future__ import annotations

import functools

from hypothesis import settings
from hypothesis import strategies as st

from talarescore.core import default_vocabulary
from talarescore.fusion import _jsd, _jsd_half
from talarescore.lattice import Arc, Lattice
from talarescore.rescorer import path_terms

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=150)
TIED_SCORES = (0.0, -0.5, -1.0, -2.5)
VOCAB = default_vocabulary()


def dist_after(ti, history):
    """The prior's next-stroke mixture after ``history``, stepped as ``rescore`` steps it."""
    return ti.dist(functools.reduce(ti.advance, history, ti.start()))


def two_part_jsd(p, q):
    """The divergence as the decode takes it: q's half, then the rest."""
    return _jsd(p, _jsd_half(q))


def replayed_steps(lat, model, cfg, exp):
    """The replayed terms at every state the decode popped with outgoing
    arcs, keyed by state id: the expanded states, those with a child.

    Each expanded state none of whose children was expanded ends one chain,
    extended by the arc to its first child; :func:`path_terms` replays each
    such chain once, and its record at depth ``d`` is the step of the chain's
    ``d``-th state.  Every replayed arc must leave that state's node and
    carry the weight the decode gave the child, bit for bit.
    """
    cols = exp.states
    first_child = {}
    for sid in range(len(cols) - 1, 0, -1):
        first_child[cols.parent[sid]] = sid
    expanded = first_child.keys()
    inner = {cols.parent[sid] for sid in expanded if sid}
    steps = {}
    for leaf in expanded - inner:
        ids = [first_child[leaf]]
        while ids[-1]:
            ids.append(cols.parent[ids[-1]])
        ids.reverse()
        terms = path_terms(lat, model, cfg, exp.arc_chain(ids[-1]))
        assert len(terms) == len(ids) - 1
        for sid, child, term in zip(ids, ids[1:], terms):
            assert (term.node, term.arc_id, term.stroke) == (cols.node[sid], cols.arc_id[child], cols.stroke[child])
            assert term.weight == cols.weight[child]
            steps[sid] = term
    assert steps.keys() == expanded
    return steps


@st.composite
def small_dags(draw):
    """Small lattices over the default vocabulary: several final nodes (some
    with outgoing arcs), parallel arcs, skip arcs, detours through extra
    nodes whose ids do not follow the topological order, and tied scores."""
    labels = st.integers(1, VOCAB.num_playable)
    scores = st.sampled_from(TIED_SCORES)
    spine = draw(st.integers(1, 4))  # nodes 0..spine joined by parallel arcs
    arcs = [
        Arc(i, i + 1, draw(labels), draw(scores))
        for i in range(spine)
        for _ in range(draw(st.integers(1, 2)))
    ]
    if spine >= 2:  # skip arcs jump over at least one spine node
        for _ in range(draw(st.integers(0, 2))):
            src = draw(st.integers(0, spine - 2))
            arcs.append(Arc(src, draw(st.integers(src + 2, spine)), draw(labels), draw(scores)))
    n_nodes = spine + 1
    for _ in range(draw(st.integers(0, 2))):  # detours through nodes numbered after the spine
        src = draw(st.integers(0, spine - 1))
        dst = draw(st.integers(src + 1, spine))
        arcs.append(Arc(src, n_nodes, draw(labels), draw(scores)))
        arcs.append(Arc(n_nodes, dst, draw(labels), draw(scores)))
        n_nodes += 1
    finals = {spine, *draw(st.lists(st.integers(1, n_nodes - 1), max_size=2))}
    return Lattice(
        vocab=VOCAB,
        n_nodes=n_nodes,
        arcs=tuple(draw(st.permutations(arcs))),
        start=0,
        finals=frozenset(finals),
    )
