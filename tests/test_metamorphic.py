"""Metamorphic relations: renumbering a lattice, or shifting every path's
score by one constant, leaves the decode's answer where it was.

Each relation changes a lattice in a way that no path's symbols or (for the
renumberings) no path's score can see, and checks that ``viterbi_acoustic``
and ``rescore`` answer alike on both lattices:

1. shuffling the arc ids: the same hypothesis, and ``rescore``'s winner is
   the same arc chain, read through the permutation;
2. shuffling the node ids, the start and the finals with them: the same
   hypothesis (and, as no arc id moves, the same winning chain);
3. shuffling the order of the lattice's vocabulary: the same hypothesis by
   symbol, and for ``rescore`` the same diagnostics and the same expanded
   dump, byte for byte;
4. adding a constant to every arc that leaves the middle node of the
   topological order, which every path of a sausage passes: the same
   ``viterbi_acoustic`` hypothesis, and the same winning chain of the
   per-node reference beam, which only ranks paths that meet at one node.
   The global queue of ``rescore`` ranks states of different depths against
   each other, so this relation does not hold for it.

The inputs are the seed-7 standard lattices, which carry continuous noise and
so no exact ties.  Relation 3 also runs on the small tied DAGs of
``helpers.small_dags``: it renumbers no arc and no node, so the tie-break
sees the same ids.  The per-node reference replays every path from the
root, so relation 4 runs on it only on one-cycle seed-7 lattices.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from talarescore.core import StrokeVocabulary, default_vocabulary
from talarescore.eval import DEFAULT_LAMBDA_SWEEP, build_training_corpus, standard_suite, suite_test_set
from talarescore.lattice import Arc, viterbi_acoustic
from talarescore.model import train_model
from talarescore.rescorer import RescoreConfig, dumps_expanded, rescore

from .helpers import PROPERTY_SETTINGS, small_dags
from .reference_beam import per_node_reference

RESCORE_MODES = ("adaptive", "fixed:0", "fixed:1")


@pytest.fixture(scope="module")
def suite():
    return standard_suite(7)


@pytest.fixture(scope="module")
def lattices(suite):
    return [lat for _, lat in suite_test_set(suite, default_vocabulary())]


@pytest.fixture(scope="module")
def suite_model(suite):
    vocab = default_vocabulary()
    return train_model(
        build_training_corpus(suite, vocab), vocab,
        n=suite.n, laplace_k=suite.laplace_k, w_tau=suite.w_tau, eps_dir=suite.eps_dir,
    )


@pytest.fixture(scope="module")
def decoded(suite, lattices, suite_model):
    """Every fourth suite lattice, each decoded once per mode:
    ``(lattice, cfg, hypothesis, winner's arc chain, diagnostics, dump)``."""
    out = {}
    for mode in RESCORE_MODES:
        cfg = replace(suite.rescore, lambda_mode=mode)
        rows = []
        for lat in lattices[::4]:
            hyp, exp, diag = rescore(lat, suite_model, cfg)
            rows.append((lat, cfg, hyp, exp.arc_chain(diag.best_state), diag, dumps_expanded(exp)))
        out[mode] = rows
    return out


def shuffle_arcs(lat, rng):
    """The lattice with its arcs in a random order, and each old arc id's new id."""
    order = list(range(len(lat.arcs)))
    rng.shuffle(order)
    new_id = {old: new for new, old in enumerate(order)}
    return replace(lat, arcs=tuple(lat.arcs[old] for old in order)), new_id


def shuffle_nodes(lat, rng):
    """The lattice with its node ids permuted; arcs keep their ids."""
    ids = list(range(lat.n_nodes))
    rng.shuffle(ids)
    arcs = tuple(Arc(ids[a.src], ids[a.dst], a.label, a.w_ac) for a in lat.arcs)
    return replace(lat, arcs=arcs, start=ids[lat.start], finals=frozenset(ids[f] for f in lat.finals))


def reorder_vocabulary(lat, symbols):
    """The lattice over a vocabulary of ``symbols``, in that order, with
    every arc relabeled to the same symbol."""
    vocab = StrokeVocabulary.of(symbols)
    arcs = tuple(a._replace(label=vocab.id_of(lat.vocab.symbol_of(a.label))) for a in lat.arcs)
    return replace(lat, vocab=vocab, arcs=arcs)


def best_score_spelling(lat, labels):
    """The best score of a start-to-final path whose labels are ``labels``."""
    best = {(lat.start, 0): 0.0}
    for node in lat.topological_order:
        for i, label in enumerate(labels):
            here = best.get((node, i))
            if here is None:
                continue
            for aid in lat.outgoing[node]:
                arc = lat.arcs[aid]
                if arc.label == label:
                    key = (arc.dst, i + 1)
                    best[key] = max(best.get(key, -math.inf), here + arc.w_ac)
    return max(best.get((f, len(labels)), -math.inf) for f in lat.finals)


def test_viterbi_ignores_arc_node_and_vocabulary_order(lattices):
    rng = random.Random(20)
    for lat in lattices:
        want = viterbi_acoustic(lat).to_symbols(lat.vocab)
        shuffled, _ = shuffle_arcs(lat, rng)
        assert viterbi_acoustic(shuffled).to_symbols(lat.vocab) == want
        assert viterbi_acoustic(shuffle_nodes(lat, rng)).to_symbols(lat.vocab) == want
        symbols = list(lat.vocab.playable_symbols)
        rng.shuffle(symbols)
        relabeled = reorder_vocabulary(lat, symbols)
        assert viterbi_acoustic(relabeled).to_symbols(relabeled.vocab) == want


@pytest.mark.parametrize("mode", RESCORE_MODES)
def test_rescore_ignores_arc_ids(decoded, suite_model, mode):
    rng = random.Random(1)
    for lat, cfg, hyp, chain, _, _ in decoded[mode]:
        shuffled, new_id = shuffle_arcs(lat, rng)
        hyp2, exp2, diag2 = rescore(shuffled, suite_model, cfg)
        assert hyp2 == hyp
        assert exp2.arc_chain(diag2.best_state) == tuple(new_id[aid] for aid in chain)


@pytest.mark.parametrize("mode", RESCORE_MODES)
def test_rescore_ignores_node_ids(decoded, suite_model, mode):
    rng = random.Random(2)
    for lat, cfg, hyp, chain, _, _ in decoded[mode]:
        hyp2, exp2, diag2 = rescore(shuffle_nodes(lat, rng), suite_model, cfg)
        assert hyp2 == hyp
        assert exp2.arc_chain(diag2.best_state) == chain


@pytest.mark.parametrize("mode", RESCORE_MODES)
def test_rescore_ignores_the_lattice_vocabulary_order(decoded, suite_model, mode):
    # The decode maps lattice strokes to model strokes by symbol, so nothing
    # it records may move.
    rng = random.Random(3)
    for lat, cfg, hyp, _, diag, dump in decoded[mode]:
        symbols = list(lat.vocab.playable_symbols)
        rng.shuffle(symbols)
        hyp2, exp2, diag2 = rescore(reorder_vocabulary(lat, symbols), suite_model, cfg)
        assert (hyp2, diag2) == (hyp, diag)
        assert dumps_expanded(exp2) == dump


@PROPERTY_SETTINGS
@given(lat=small_dags(), symbols=st.permutations(default_vocabulary().playable_symbols))
def test_vocabulary_order_changes_nothing_on_tied_lattices(small_model, lat, symbols):
    relabeled = reorder_vocabulary(lat, symbols)
    assert viterbi_acoustic(relabeled).to_symbols(relabeled.vocab) == viterbi_acoustic(lat).to_symbols(lat.vocab)
    for mode in DEFAULT_LAMBDA_SWEEP:
        cfg = RescoreConfig(lambda_mode=mode)
        hyp, exp, diag = rescore(lat, small_model, cfg)
        hyp2, exp2, diag2 = rescore(relabeled, small_model, cfg)
        assert (hyp2, diag2) == (hyp, diag), mode
        assert dumps_expanded(exp2) == dumps_expanded(exp), mode


def shift_middle_node(lat, c):
    """The lattice with ``c`` added to every arc that leaves the middle node
    of its topological order."""
    order = lat.topological_order
    mid = order[len(order) // 2]
    assert mid not in (lat.start, *lat.finals)
    return replace(lat, arcs=tuple(a._replace(w_ac=a.w_ac + c) if a.src == mid else a for a in lat.arcs))


@pytest.mark.parametrize("c", [3.0, -3.0])
def test_viterbi_ignores_a_constant_at_a_cut_node(lattices, c):
    # Every path of a sausage passes its middle node, so the constant moves
    # every path's score alike.  A changed hypothesis is let pass only as a
    # rounding tie: both winners score within 1e-9 on the original lattice.
    skips = 0
    for lat in lattices:
        shifted = shift_middle_node(lat, c)
        want, got = viterbi_acoustic(lat), viterbi_acoustic(shifted)
        if got != want:
            gap = best_score_spelling(lat, want.strokes) - best_score_spelling(lat, got.strokes)
            assert abs(gap) <= 1e-9, f"hypothesis moved by a constant, original scores {gap} apart"
            skips += 1
    print(f"constant {c:+}: {skips} of {len(lattices)} lattices skipped as rounding ties")


@pytest.mark.parametrize("mode", ["adaptive", "fixed:0"])
@pytest.mark.parametrize("c", [3.0, -3.0])
def test_per_node_reference_ignores_a_constant_at_a_cut_node(suite, suite_model, mode, c):
    # Two one-cycle lattices of each tala, 7 to 16 strokes, with far more
    # histories than the beam keeps.  The constant reaches every arrival at a
    # node after the middle one, so it reorders nothing the per-node cut
    # compares.  A case where some compared pair lies within 1e-9, on either
    # lattice, is skipped and counted: the constant may move such a pair by
    # a last bit.
    cfg = RescoreConfig(k_beam=10, lambda_mode=mode)
    short = replace(suite, cycles=1, test_per_tala=2)
    skips = 0
    for _, lat in suite_test_set(short, default_vocabulary()):
        hyp, chain, score, margin = per_node_reference(lat, suite_model, cfg)
        hyp2, chain2, score2, margin2 = per_node_reference(shift_middle_node(lat, c), suite_model, cfg)
        if min(margin, margin2) <= 1e-9:
            skips += 1
            continue
        assert (hyp2, chain2) == (hyp, chain)
        assert score2 == pytest.approx(score + c, abs=1e-9)
    total = len(short.talas) * short.test_per_tala
    assert skips < total
    print(f"{mode}, constant {c:+}: {skips} of {total} lattices skipped as near ties")
