"""Property tests on lattice shapes the fixed ensembles miss.

The generated lattices are small DAGs with several final nodes (some of which
have outgoing arcs), parallel arcs, skip arcs, detours through extra nodes
whose ids do not follow the topological order, and arc scores drawn from a
handful of values so that exact ties are common.  Examples are derandomized,
so every run checks the same lattices.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talarescore.core import default_vocabulary
from talarescore.eval import ser
from talarescore.lattice import Arc, Lattice, dumps_lattice, loads_lattice, viterbi_acoustic
from talarescore.rescorer import RescoreConfig, rescore

from .oracles import best_path_by_replay, levenshtein_distance

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=150)
EXHAUSTIVE = RescoreConfig(k_beam=10**9, delta_beam=math.inf)
TIED_SCORES = (0.0, -0.5, -1.0, -2.5)
VOCAB = default_vocabulary()


@st.composite
def small_dags(draw):
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


@pytest.mark.parametrize("mode", ["adaptive", "fixed:0.5"])
@PROPERTY_SETTINGS
@given(lat=small_dags())
def test_exhaustive_rescore_equals_replay_oracle(small_model, mode, lat):
    cfg = replace(EXHAUSTIVE, lambda_mode=mode)
    hyp, exp, _ = rescore(lat, small_model, cfg)
    oracle_labels, oracle_score = best_path_by_replay(lat, small_model, cfg)
    assert hyp.strokes == oracle_labels
    assert max(exp.states[t].acc_score for t in exp.terminals) == pytest.approx(oracle_score, abs=1e-9)


@PROPERTY_SETTINGS
@given(lat=small_dags())
def test_beta_zero_equals_acoustic_viterbi(small_model, lat):
    hyp, _, _ = rescore(lat, small_model, replace(EXHAUSTIVE, beta=0.0))
    assert hyp.strokes == viterbi_acoustic(lat).strokes


@PROPERTY_SETTINGS
@given(lat=small_dags())
def test_lattice_text_round_trip_is_exact(lat):
    text = dumps_lattice(lat)
    again = loads_lattice(text, vocab=lat.vocab)
    assert dumps_lattice(again) == text
    assert (again.n_nodes, again.arcs, again.start, again.finals) == (
        lat.n_nodes, lat.arcs, lat.start, lat.finals
    )
    # Without a vocabulary the symbols are re-numbered but the text is unchanged.
    assert dumps_lattice(loads_lattice(text)) == text


@PROPERTY_SETTINGS
@given(
    ref=st.lists(st.sampled_from("abc"), min_size=1, max_size=9),
    hyp=st.lists(st.sampled_from("abc"), max_size=9),
)
def test_ser_total_equals_independent_edit_distance(ref, hyp):
    stats = ser(ref, hyp)
    assert stats.total_errors == levenshtein_distance(ref, hyp)
    assert stats.n_ref == len(ref)
    assert len(hyp) == len(ref) - stats.deletions + stats.insertions
