from __future__ import annotations

import dataclasses
import hashlib
import math
import random
import re

import pytest

from talarescore.core import StrokeSequence
from talarescore.dynamic_model import init_alpha
from talarescore.errors import ModelFormatError, VocabularyError, VocabularyMismatchError
from talarescore.eval import build_training_corpus, standard_suite
from talarescore.lattice import LatticeGenConfig, generate_lattice
from talarescore.model import RhythmModel, dumps_model, load_model, loads_model, save_model, train_model
from talarescore.rescorer import rescore
from talarescore.static_prior import TalaIndependentPrior, train_static_prior

from .helpers import dist_after
from .oracles import ngram_prob


def test_round_trip_structural_equality(small_corpus, vocab, tmp_path):
    model = train_model(small_corpus, vocab)
    path = tmp_path / "model.tiprior"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded == model


def test_round_trip_byte_identity(small_corpus, vocab, tmp_path):
    model = train_model(small_corpus, vocab)
    first = dumps_model(model)
    again = dumps_model(loads_model(first))
    assert again == first


def test_comment_lines_are_skipped_indented_or_not(small_corpus, vocab):
    model = train_model(small_corpus, vocab)
    header, rest = dumps_model(model).split("\n", 1)
    assert loads_model(f"{header}\n# note\n  # note\n{rest}") == model


@pytest.mark.parametrize(
    "seed, lines, digest",
    [
        (2024, 7441, "74ef80dce377b501082c08ff3d69700ea6535b1420d272720ca1e6bc0ad86884"),
        (7, 7578, "c227570fb91cd8c887dcef5cf3179f9de831a7e4b6f56ab53e782ca1f1020597"),
    ],
)
def test_standard_suite_model_text_is_pinned(vocab, seed, lines, digest):
    suite = standard_suite(seed)
    model = train_model(
        build_training_corpus(suite, vocab), vocab,
        n=suite.n, laplace_k=suite.laplace_k, w_tau=suite.w_tau, eps_dir=suite.eps_dir,
    )
    text = dumps_model(model)
    assert (len(text.splitlines()), hashlib.sha256(text.encode("utf-8")).hexdigest()) == (lines, digest)
    loaded = loads_model(text)
    assert loaded == model
    assert dumps_model(loaded) == text


def test_header_carries_training_settings(small_corpus, vocab):
    model = train_model(small_corpus, vocab, n=2, laplace_k=0.5, w_tau=8, eps_dir=2.0)
    text = dumps_model(model)
    head = text.splitlines()[:6]
    assert head[0] == "tiprior v1"
    assert "n 2" in head
    assert "laplace_k 0.5" in head
    assert "w_tau 8" in head
    assert "eps_dir 2.0" in head
    loaded = loads_model(text)
    assert loaded.prior.n == 2
    assert loaded.prior.w_tau == 8
    assert loaded.eps_dir == 2.0


def test_alpha_defaults_not_stored(vocab):
    corpus = [StrokeSequence((1, 2), tala_label="t1")]
    model = train_model(corpus, vocab)
    text = dumps_model(model)
    alpha_lines = [l for l in text.splitlines() if l.startswith("alpha ")]
    # Only the single observed transition deviates from the defaults.
    assert alpha_lines == ["alpha Dha Dhin 2.0"]
    assert loads_model(text) == model


def test_single_tala_model_prior_equals_its_ngram(vocab):
    corpus = [StrokeSequence((1, 2, 1, 2, 3), tala_label="solo")]
    model = train_model(corpus, vocab, n=2)
    prior = model.prior
    # After (1, 2) the context is (2,), and the one tala's weight is 1.
    ngram = tuple(ngram_prob(prior.counts, vocab.num_playable, 1.0, "solo", (2,), q) for q in vocab.playable_ids)
    assert dist_after(prior, (1, 2)) == ngram


def test_static_prior_cache_is_shared(small_corpus, vocab):
    # Every decode steps the model's one prior, so its memo stays warm across decodes.
    model = train_model(small_corpus, vocab)
    lat = generate_lattice(small_corpus[0], LatticeGenConfig(rng_seed=1), vocab)
    rescore(lat, model)
    warm = dict(model.prior._cache)
    assert warm
    rescore(lat, model)
    assert model.prior._cache == warm


def test_malformed_model_files():
    with pytest.raises(ModelFormatError, match="header"):
        loads_model("nope\n")
    with pytest.raises(ModelFormatError, match="missing header"):
        loads_model("tiprior v1\nvocab Dha\ntala t1 1.0\n")
    with pytest.raises(ModelFormatError, match="vocab"):
        loads_model("tiprior v1\nn 2\nlaplace_k 1.0\nw_tau 4\neps_dir 1.0\ntala t1 1.0\n")
    with pytest.raises(ModelFormatError, match="unknown"):
        loads_model(
            "tiprior v1\nn 2\nlaplace_k 1.0\nw_tau 4\neps_dir 1.0\n"
            "vocab Dha\ntala t1 1.0\nbogus x\n"
        )


VALID_MODEL = "tiprior v1\nn 2\nlaplace_k 1.0\nw_tau 4\neps_dir 1.0\nvocab Dha Na\ntala t 1.0\n"


@pytest.mark.parametrize(
    "bad",
    [
        # wrong arity or a non-numeric field
        "n", "n three", "w_tau 2.5", "tala t", "alpha Dha Na", "count t Na", "taucount t 3",
        "count t Dha Na many",
        # values no trained model can hold
        "count t Dha Na -5", "count t Dha Na 2.5", "count t Dha <s> 1", "taucount t Na -1",
        "alpha Dha Na nan", "alpha Dha Na inf", "alpha Dha Na 0.0", "alpha Dha Na -1.0",
        "alpha Dha <s> 2.0", "tala t -1.0", "tala t 0", "tala t nan", "eps_dir 0", "laplace_k inf",
        # counts and tala priors whose row totals or posterior weights could overflow
        "count t Dha Na 9007199254740993", "taucount t Na 9007199254740993", "tala u 1.5",
        # keys the n-gram and window tables of an n=2, w_tau=4 model never read
        "count t Na 7", "count t Dha Na Na 7", "taucount t Dha Na Dha Na Dha 1",
        # a header value redefined after count keys were checked against it
        "n 3",
        # a second vocab or tala line, and counts for a tala with no tala line
        "vocab Dha Na", "tala t 1.0", "count u Dha Na 1", "taucount u Dha 1",
        # stroke symbols the vocab line does not hold
        "count t Dha Bol 1", "taucount t Xyz 1", "alpha Bol Na 2.0",
    ],
)
def test_malformed_model_lines_name_the_line(bad):
    loads_model(VALID_MODEL)
    with pytest.raises(ModelFormatError) as exc:
        loads_model(VALID_MODEL + bad + "\n")
    assert repr(bad) in str(exc.value)


@pytest.mark.parametrize(
    "bad",
    [
        "laplace_k 1e308", "laplace_k 9007199254740994.0", "laplace_k inf", "eps_dir 0",
        # integers too large for a float
        pytest.param("n 1" + "0" * 400, id="n=10**400"), pytest.param("w_tau 1" + "0" * 400, id="w_tau=10**400"),
    ],
)
def test_out_of_range_header_values_name_the_line(bad):
    # Appended, a header line would be a repeat; here it replaces the valid one.
    kind = bad.split()[0]
    lines = [bad if line.startswith(kind + " ") else line for line in VALID_MODEL.splitlines()]
    with pytest.raises(ModelFormatError) as exc:
        loads_model("\n".join(lines) + "\n")
    assert f"{bad!r}: {kind} must" in str(exc.value)


def test_n_gram_order_is_bounded():
    # Each decode state pads its context to n - 1 strokes, so n alone sets
    # the cost of a decode.
    for n in (1, 32):
        assert loads_model(VALID_MODEL.replace("n 2", f"n {n}")).prior.n == n
    for bad in ("n 33", "n 30000"):
        with pytest.raises(ModelFormatError) as exc:
            loads_model(VALID_MODEL.replace("n 2", bad))
        assert f"bad n line {bad!r}: n must not exceed 32" in str(exc.value)


def test_train_rejects_an_n_gram_order_above_the_bound(small_corpus, vocab):
    assert train_model(small_corpus, vocab, n=32).prior.n == 32
    with pytest.raises(ValueError, match="^n must not exceed 32$"):
        train_model(small_corpus, vocab, n=33)


@pytest.mark.parametrize("kind, value", [("n", 2.5), ("n", True), ("n", 3.0), ("w_tau", 2.5), ("w_tau", False)])
def test_train_rejects_a_non_integer_order_or_window(small_corpus, vocab, kind, value):
    # The model file's n and w_tau lines hold integers, so a model trained
    # with anything else could not load back.
    with pytest.raises(ValueError, match=f"^{kind} must be an integer$"):
        train_model(small_corpus, vocab, **{kind: value})


@pytest.mark.parametrize(
    "kind, value, raw",
    [
        ("laplace_k", math.inf, "inf"), ("laplace_k", math.nan, "nan"), ("n", 10**6, "1000000"),
        ("w_tau", 2**60, str(2**60)), ("eps_dir", math.nan, "nan"), ("eps_dir", math.inf, "inf"),
        # A header line holds no fractional n: its integer parse fails first.
        ("n", 2.5, None),
    ],
)
def test_direct_construction_applies_the_model_files_bounds(small_corpus, vocab, kind, value, raw):
    with pytest.raises(ValueError) as direct:
        if kind == "eps_dir":
            init_alpha(small_corpus, vocab, eps_dir=value)
        else:
            tables = {"counts": {"t": {}}, "window_counts": {"t": {}}, "tala_priors": {"t": 1.0}}
            TalaIndependentPrior(**{"n": 2, "laplace_k": 1.0, "w_tau": 4, "num_playable": 2, **tables, kind: value})
    with pytest.raises(ValueError) as trained:
        train_model(small_corpus, vocab, **{kind: value})
    assert str(direct.value) == str(trained.value)
    if raw is not None:
        line = f"{kind} {raw}"
        lines = [line if old.startswith(kind + " ") else old for old in VALID_MODEL.splitlines()]
        with pytest.raises(ModelFormatError) as loaded:
            loads_model("\n".join(lines) + "\n")
        assert str(loaded.value) == f"bad {kind} line {line!r}: {direct.value}"


def test_model_rejects_a_prior_over_another_vocabulary(small_model, vocab):
    four = train_static_prior([StrokeSequence((1, 2, 3, 4), tala_label="t")], 4, n=2, laplace_k=1.0, w_tau=4)
    with pytest.raises(VocabularyMismatchError, match="^the prior covers 4 strokes, the vocabulary 5$"):
        RhythmModel(vocab=vocab, prior=four, alpha0=small_model.alpha0, eps_dir=1.0)


def test_model_rejects_pseudo_counts_of_another_shape(small_model, vocab):
    with pytest.raises(VocabularyMismatchError, match=r"^alpha0 has shape \(6, 4\), the vocabulary needs \(6, 5\)$"):
        RhythmModel(vocab=vocab, prior=small_model.prior, alpha0=small_model.alpha0[:, :4], eps_dir=1.0)


def test_counts_and_laplace_k_load_up_to_the_bound():
    top = 2**53
    text = VALID_MODEL.replace("laplace_k 1.0", f"laplace_k {float(top)!r}")
    model = loads_model(text + f"count t Dha Na {top}\ntaucount t Na {top}\n")
    assert model.prior.counts["t"][(1,)][2] == model.prior.window_counts["t"][(2,)] == top
    prior = model.prior
    for history in ((), (1,), (2, 1), (2, 2)):
        assert all(0.0 < p < 1.0 for p in dist_after(prior, history))


@pytest.mark.parametrize("laplace_k, prior", [("1e-300", "1e-300"), ("5e-324", "0.5")])
def test_tala_weights_that_all_underflow_are_rejected(laplace_k, prior):
    # (0 + laplace_k) * P(tala) would be 0 for every tala, so the posterior
    # of a window seen in no tala would be 0 / 0.
    text = VALID_MODEL.replace("laplace_k 1.0", f"laplace_k {laplace_k}").replace("tala t 1.0", f"tala t {prior}")
    with pytest.raises(ModelFormatError, match=f"laplace_k={laplace_k} times every tala prior underflows to 0"):
        loads_model(text)
    # One tala whose weight stays positive is enough.
    loads_model(text + "tala u 1.0\n")


@pytest.mark.parametrize("line", ["count t Dha Na 1", "taucount t Dha Na 1", "alpha Dha Na 2.0"])
def test_repeated_model_keys_name_the_line(line):
    loads_model(VALID_MODEL + line + "\n")
    with pytest.raises(ModelFormatError) as exc:
        loads_model(VALID_MODEL + line + "\n" + line + "\n")
    assert f"{line!r}: repeated" in str(exc.value)


def test_count_keys_are_checked_against_the_header():
    # An order-3 model reads contexts of exactly two strokes.
    header = "tiprior v1\nn 3\nlaplace_k 1.0\nw_tau 2\neps_dir 1.0\nvocab Dha Na\ntala t 1.0\n"
    loads_model(header + "count t Dha Na Na 7\ntaucount t Dha Na 2\n")
    for bad in ("count t Dha Na 7", "taucount t Dha Na Dha 2"):
        with pytest.raises(ModelFormatError, match=f"bad .*{bad!r}"):
            loads_model(header + bad + "\n")
    # Count keys can only be checked once n and w_tau are known.
    early = "tiprior v1\nn 3\nlaplace_k 1.0\nvocab Dha Na\nw_tau 2\neps_dir 1.0\ntala t 1.0\n"
    with pytest.raises(ModelFormatError, match=r"missing header fields \['eps_dir', 'w_tau'\] before the vocab"):
        loads_model(early + "count t Dha Na Na 7\n")


def model_of_tables(vocab, counts=None, window_counts=None, n=2, w_tau=2):
    """A model whose prior is built directly from one tala's hand-written tables."""
    prior = TalaIndependentPrior(
        n=n, laplace_k=1.0, w_tau=w_tau, num_playable=vocab.num_playable,
        counts={"t": counts or {}}, window_counts={"t": window_counts or {}}, tala_priors={"t": 1.0},
    )
    alpha0 = init_alpha([StrokeSequence((1, 2), tala_label="t")], vocab, eps_dir=1.0)
    return RhythmModel(vocab=vocab, prior=prior, alpha0=alpha0, eps_dir=1.0)


@pytest.mark.parametrize(
    "tables, message",
    [
        # stroke ids the vocabulary of 5 strokes does not hold, negative ones
        # included, which a list would read from its end
        ({"window_counts": {(-1,): 4}}, "window (-1,) holds a stroke id not in 1..5"),
        ({"window_counts": {(9,): 1}}, "window (9,) holds a stroke id not in 1..5"),
        ({"window_counts": {(0,): 1}}, "window (0,) holds a stroke id not in 1..5"),
        ({"window_counts": {(1,): 1, (1, -1): 1}}, "window (1, -1) holds a stroke id not in 1..5"),
        ({"counts": {(1,): {-1: 2}}}, "n-gram (1,) -> -1: next stroke id not in 1..5"),
        ({"counts": {(1,): {0: 2}}}, "n-gram (1,) -> 0: next stroke id not in 1..5"),
        ({"counts": {(-1,): {1: 2}}}, "n-gram context (-1,) holds a stroke id not in 0..5"),
        ({"counts": {(6,): {1: 2}}}, "n-gram context (6,) holds a stroke id not in 0..5"),
        # keys of a length the file cannot hold
        ({"window_counts": {(1, 2, 1): 1}}, "window (1, 2, 1) is not 1..w_tau = 2 strokes long"),
        ({"window_counts": {(): 3}}, "window () is not 1..w_tau = 2 strokes long"),
        ({"counts": {(1, 1): {1: 2}}}, "n-gram context (1, 1) is not n - 1 = 1 strokes long"),
        # counts that are not integers in 0..2**53
        ({"window_counts": {(1,): -2}}, "window (1,): count -2 is not an int in 0..2**53"),
        ({"window_counts": {(1,): 2**53 + 1}}, f"window (1,): count {2**53 + 1} is not an int in 0..2**53"),
        ({"window_counts": {(1,): 2.0}}, "window (1,): count 2.0 is not an int in 0..2**53"),
        ({"window_counts": {(1,): True}}, "window (1,): count True is not an int in 0..2**53"),
        ({"counts": {(1,): {2: -2}}}, "n-gram (1,) -> 2: count -2 is not an int in 0..2**53"),
    ],
)
def test_dump_rejects_tables_the_file_cannot_hold(vocab, tables, message):
    # Each of these used to be written as a line that loads as another key
    # or that the loader refuses.
    # The prior's constructor refuses a next stroke outside 1..V, before a dump.
    with pytest.raises(ValueError, match="^" + re.escape(f"tala 't': {message}") + "$"):
        dumps_model(model_of_tables(vocab, **tables))


def test_dump_writes_the_bounds_of_the_file(vocab):
    model = model_of_tables(vocab, counts={(0,): {5: 2**53}}, window_counts={(5,): 0, (5, 1): 2**53})
    text = dumps_model(model)
    assert "count t <s> Ta 9007199254740992\n" in text
    assert loads_model(text) == model


@pytest.mark.parametrize(
    "field, value, message",
    [
        *[("tala", v, f"tala 'u': prior {v!r} does not lie in (0, 1]") for v in (1.5, 0.0, math.inf, math.nan)],
        *[("alpha0", v, f"alpha0[1, 1] = {v!r} is not positive and finite") for v in (-2.0, 0.0, math.inf, math.nan)],
        *[("eps_dir", v, "eps_dir must be positive and finite") for v in (0.0, -1.0, math.nan)],
    ],
)
def test_dump_rejects_values_the_loader_refuses(vocab, field, value, message):
    # Each of these used to be written as a line that the loader refuses.
    model = model_of_tables(vocab)
    if field == "tala":
        priors = {"t": 0.5, "u": value}  # next to a positive prior, which the prior itself asks for
        prior = TalaIndependentPrior(
            n=2, laplace_k=1.0, w_tau=2, num_playable=vocab.num_playable,
            counts={tala: {} for tala in priors}, window_counts={tala: {} for tala in priors}, tala_priors=priors,
        )
        model = dataclasses.replace(model, prior=prior)
    elif field == "alpha0":
        alpha0 = model.alpha0.copy()
        alpha0[1, 1] = value
        model = dataclasses.replace(model, alpha0=alpha0)
    else:
        model = dataclasses.replace(model, eps_dir=value)
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        dumps_model(model)


@pytest.mark.parametrize("lines", ["taucount t <s> 1", "taucount t Dha <s> 1", "taucount t Dha 1\ntaucount t Dha <s> 1"])
def test_a_window_holding_the_start_sentinel_fails_to_load(lines):
    # The last case reads the window from its prefix's line.
    bad = lines.splitlines()[-1]
    message = f"bad taucount line {bad!r}: '<s>' is not a playable stroke"
    with pytest.raises(ModelFormatError, match="^" + re.escape(message) + "$"):
        loads_model(VALID_MODEL + lines + "\n")


def test_train_rejects_empty_corpus(vocab):
    with pytest.raises(ValueError, match="empty"):
        train_model([], vocab)


def test_train_rejects_a_stroke_id_outside_the_vocabulary(vocab):
    corpus = [StrokeSequence((1, 2, 3), tala_label="t"), StrokeSequence((1, 2, 9), tala_label="t")]
    with pytest.raises(VocabularyError, match="stroke id out of range: 9"):
        train_model(corpus, vocab)


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "tiprior v1\nn 2\nlaplace_k 1.0\nw_tau 4\neps_dir 1.0\ncount t Dha Na 1\nvocab Dha Na\ntala t 1.0\n",
            "count line before vocab line",
        ),
        ("tiprior v1\ntala t 1.0\n", "missing header fields: ['eps_dir', 'laplace_k', 'n', 'w_tau']"),
        ("tiprior v1\nn 2\nlaplace_k 1.0\nw_tau 4\neps_dir 1.0\ntala t 1.0\n", "missing vocab line"),
        ("tiprior v1\nn 2\nlaplace_k 1.0\nw_tau 4\neps_dir 1.0\nvocab Dha Na\n", "no tala lines"),
    ],
    ids=["count-before-vocab", "no-header-no-vocab", "no-vocab", "no-tala"],
)
def test_model_files_missing_a_section_fail(text, message):
    with pytest.raises(ModelFormatError) as exc:
        loads_model(text)
    assert str(exc.value) == message


@pytest.fixture(scope="module")
def standard_model_text(vocab):
    suite = standard_suite(2024)
    model = train_model(
        build_training_corpus(suite, vocab), vocab,
        n=suite.n, laplace_k=suite.laplace_k, w_tau=suite.w_tau, eps_dir=suite.eps_dir,
    )
    return model, dumps_model(model)


def test_window_lines_in_any_order_load_to_the_same_model(standard_model_text):
    # The loader reads a window from its prefix's line only when that line
    # came first; in any other order it parses the window in full.
    model, text = standard_model_text
    lines = text.splitlines()
    slots = [i for i, line in enumerate(lines) if line.startswith("taucount ")]
    shuffled = [lines[i] for i in slots]
    random.Random(3).shuffle(shuffled)
    for i, line in zip(slots, shuffled):
        lines[i] = line
    assert lines != text.splitlines()
    assert loads_model("\n".join(lines) + "\n") == model


def test_window_lines_with_tabs_and_runs_of_spaces_load_to_the_same_model(standard_model_text):
    model, text = standard_model_text
    rng = random.Random(5)
    lines = [
        "".join(token + rng.choice(("\t", "  ", " \t ", " ")) for token in line.split()).rstrip(" ")
        if line.startswith("taucount ") else line
        for line in text.splitlines()
    ]
    assert sum("\t" in line for line in lines) > 1000
    assert loads_model("\n".join(lines) + "\n") == model


def test_a_window_table_without_a_prefix_loads_and_dumps_the_same_text(standard_model_text):
    # A hand-edited table may lack a window whose longer windows it holds:
    # the loader parses those in full, and the dump spells them in full,
    # so the edited text comes back byte for byte.
    model, text = standard_model_text
    windows = model.prior.window_counts["tintal"]
    # Not the first window of its length, whose line would follow no window of that length.
    prefix = max(u for u in windows if len(u) == 3 and sum(w[:3] == u for w in windows) > 3)
    line = f"taucount tintal {' '.join(model.vocab.symbol_of(c) for c in prefix)} {windows[prefix]}\n"
    assert text.count(line) == 1
    edited = text.replace(line, "")
    prior = model.prior
    window_counts = {**prior.window_counts, "tintal": {u: c for u, c in windows.items() if u != prefix}}
    without = TalaIndependentPrior(
        n=prior.n, laplace_k=prior.laplace_k, w_tau=prior.w_tau, num_playable=prior.num_playable,
        counts=prior.counts, window_counts=window_counts, tala_priors=prior.tala_priors,
    )
    loaded = loads_model(edited)
    assert loaded == RhythmModel(vocab=model.vocab, prior=without, alpha0=model.alpha0, eps_dir=model.eps_dir)
    assert dumps_model(loaded) == edited


def test_model_compared_with_another_type_is_unequal(small_model):
    assert small_model.__eq__(small_model.prior) is NotImplemented
    assert small_model != small_model.prior
    assert not small_model == "model"
