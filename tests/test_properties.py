"""Property tests on lattice shapes and prior tables the fixed ensembles miss.

The generated lattices are small DAGs with several final nodes (some of which
have outgoing arcs), parallel arcs, skip arcs, detours through extra nodes
whose ids do not follow the topological order, and arc scores drawn from a
handful of values so that exact ties are common.  The generated static priors
step their state along random histories, on trained and hand-edited tables.
Examples are derandomized, so every run checks the same inputs.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talarescore.core import StrokeSequence, StrokeVocabulary, default_vocabulary
from talarescore.errors import VocabularyError
from talarescore.eval import ser
from talarescore.lattice import Arc, Lattice, dumps_lattice, loads_lattice, viterbi_acoustic
from talarescore.rescorer import RescoreConfig, rescore
from talarescore.static_prior import TalaIndependentPrior, train_prior, train_tala_table

from .oracles import best_path_by_replay, levenshtein_distance
from .test_static_prior import dist_after

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
    assert max(exp.states.acc_score[t] for t in exp.terminals) == pytest.approx(oracle_score, abs=1e-9)


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


ABC = StrokeVocabulary.of(["A", "B", "C"])
STROKES = st.integers(1, ABC.num_playable)
TALAS = ("t1", "t2")


@st.composite
def stepped_priors(draw, case):
    """A prior, possibly on a hand-edited table, and a history to step along.

    ``case`` fixes the shape: ``"unigram"`` has n=1, ``"short_window"`` a
    tala window shorter than the n-gram context, ``"not_closed"`` a window
    table that holds windows without their sub-windows.
    """
    n = 1 if case == "unigram" else draw(st.integers(3 if case == "short_window" else 2, 4))
    w_tau = draw(st.integers(1, n - 2)) if case == "short_window" else draw(st.integers(1, 5))
    laplace_k = draw(st.sampled_from((1.0, 0.3)))
    corpus = [
        StrokeSequence(tuple(draw(st.lists(STROKES, min_size=1, max_size=12))), tala_label=tala)
        for tala in TALAS
    ]
    prior = train_prior(corpus, ABC, n=n, laplace_k=laplace_k)
    table = train_tala_table(corpus, w_tau=w_tau, laplace_k=laplace_k)
    if case == "not_closed":
        for tala in TALAS:
            for window in [w for w in table.counts[tala] if len(w) < w_tau and draw(st.booleans())]:
                del table.counts[tala][window]
        for _ in range(draw(st.integers(1, 4))):
            window = tuple(draw(st.lists(STROKES, min_size=2, max_size=w_tau))) if w_tau > 1 else (1,)
            table.counts[draw(st.sampled_from(TALAS))][window] = draw(st.integers(1, 5))
    history = tuple(draw(st.lists(STROKES, max_size=20)))
    return prior, table, history


def reference_mixture(ti, history) -> tuple[float, ...]:
    """The mixture from the tables, without the state or the memo."""
    w_tau = ti.table.w_tau
    window = history[len(history) - w_tau :] if len(history) > w_tau else history
    ctx = ti.prior.context_of(history)
    mix = np.zeros(ti.prior.num_playable)
    for weight, tala in zip(ti.table.posterior(window), ti.table.talas):
        mix += weight * ti.prior.distribution(tala, ctx)
    return tuple(mix.tolist())


@pytest.mark.parametrize("case", ["unigram", "short_window", "not_closed", "trained"])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_stepped_prior_state_equals_the_mixture_of_the_history(case, data):
    prior, table, history = data.draw(stepped_priors(case))
    stepped = TalaIndependentPrior(prior, table)
    fresh = TalaIndependentPrior(prior, table)  # its own memo
    suffix = max(table.w_tau, prior.n - 1)
    state = stepped.start()
    for i in range(len(history) + 1):
        seen = history[:i]
        if i:
            state = stepped.advance(state, history[i - 1])
        assert state == seen[max(0, len(seen) - suffix) :]
        assert stepped.dist(state) == dist_after(fresh, seen) == reference_mixture(stepped, seen)


@PROPERTY_SETTINGS
@given(
    history=st.lists(STROKES, max_size=8),
    foreign=st.sampled_from((0, -1, ABC.num_playable + 1, 99)),
)
def test_advance_rejects_a_foreign_stroke(history, foreign):
    corpus = [StrokeSequence((1, 2, 3, 1), tala_label="t1")]
    ti = TalaIndependentPrior(train_prior(corpus, ABC, n=3), train_tala_table(corpus, w_tau=2))
    state = ti.start()
    for stroke in history:
        state = ti.advance(state, stroke)
    with pytest.raises(VocabularyError):
        ti.advance(state, foreign)


@PROPERTY_SETTINGS
@given(
    corpus=st.lists(
        st.tuples(st.sampled_from(TALAS), st.lists(STROKES, min_size=1, max_size=12)), min_size=1, max_size=4
    ),
    wide=st.integers(1, 8),
)
def test_window_tables_nest(corpus, wide):
    # A table trained at window w is the wider table's windows of length <= w,
    # so the window a model was trained with fixes every narrower one.
    seqs = [StrokeSequence(tuple(strokes), tala_label=tala) for tala, strokes in corpus]
    full = train_tala_table(seqs, w_tau=wide).counts
    for w in range(1, wide + 1):
        nested = {tala: {u: c for u, c in windows.items() if len(u) <= w} for tala, windows in full.items()}
        assert train_tala_table(seqs, w_tau=w).counts == nested
