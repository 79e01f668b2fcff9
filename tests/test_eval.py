from __future__ import annotations

import random

import pytest

from talarescore.core import DeviationConfig, StrokeSequence, default_vocabulary
from talarescore.eval import (
    BASELINE_LABEL,
    BenchmarkSuiteConfig,
    EditStats,
    run_benchmark,
    ser,
    split_seed,
    standard_suite,
    suite_from_config,
    suite_test_set,
)
from talarescore.lattice import viterbi_acoustic
from talarescore.rescorer import RescoreConfig

from .oracles import levenshtein_distance


def test_identity_has_no_errors():
    stats = ser(["Dha", "Tin"], ["Dha", "Tin"])
    assert (stats.substitutions, stats.deletions, stats.insertions) == (0, 0, 0)
    assert stats.ser == 0.0


def test_spec_example_sub_and_del():
    ref = ["Dha", "Dhin", "Dhin", "Dha"]
    hyp = ["Dha", "Tin", "Dhin"]
    stats = ser(ref, hyp)
    assert stats.substitutions == 1
    assert stats.deletions == 1
    assert stats.insertions == 0
    assert stats.ser == 0.5


def test_pure_insertions_can_exceed_one():
    stats = ser(["A"], ["A", "B", "C"])
    assert stats.insertions == 2
    assert stats.ser == 2.0


def test_empty_hypothesis_is_all_deletions():
    stats = ser(["A", "B"], [])
    assert stats.deletions == 2
    assert stats.ser == 1.0


def test_empty_reference_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        ser([], ["A"])


def test_accepts_stroke_sequences(vocab):
    a = StrokeSequence((1, 2, 3))
    b = StrokeSequence((1, 3))
    assert ser(a, b).total_errors == 1


def test_totals_match_independent_levenshtein():
    rng = random.Random(13)
    alphabet = list(range(1, 6))
    for _ in range(300):
        ref = [rng.choice(alphabet) for _ in range(rng.randrange(1, 30))]
        hyp = [rng.choice(alphabet) for _ in range(rng.randrange(0, 30))]
        stats = ser(ref, hyp)
        assert stats.total_errors == levenshtein_distance(ref, hyp)


def test_distance_symmetry_and_triangle():
    rng = random.Random(29)
    alphabet = list(range(1, 5))
    for _ in range(100):
        a = [rng.choice(alphabet) for _ in range(rng.randrange(1, 15))]
        b = [rng.choice(alphabet) for _ in range(rng.randrange(1, 15))]
        c = [rng.choice(alphabet) for _ in range(rng.randrange(1, 15))]
        dab = ser(a, b).total_errors
        dba = ser(b, a).total_errors
        assert dab == dba
        assert dab <= ser(a, c).total_errors + ser(c, b).total_errors


def test_pooling_is_exact():
    parts = [
        EditStats(1, 2, 3, 10),
        EditStats(0, 0, 0, 5),
        EditStats(4, 0, 1, 20),
    ]
    pooled = sum(parts, EditStats())
    assert pooled == EditStats(5, 2, 4, 35)
    assert pooled.ser == (5 + 2 + 4) / 35


def test_split_seed_is_stable_and_spread():
    seen = {split_seed(7, s, i) for s in range(3) for i in range(50)}
    assert len(seen) == 150
    assert split_seed(7, 1, 4) == split_seed(7, 1, 4)


def tiny_suite(**overrides):
    base = dict(
        talas=("tintal", "jhaptal"),
        train_per_tala=3,
        test_per_tala=2,
        cycles=2,
        noise_sigma=0.0,
        branching=1,
        deviation=DeviationConfig(),
        lambda_modes=("fixed:0", "adaptive"),
        seed=5,
        rescore=RescoreConfig(k_beam=40),
    )
    base.update(overrides)
    return BenchmarkSuiteConfig(**base)


def test_zero_noise_suite_has_zero_error_everywhere():
    report = run_benchmark(tiny_suite())
    for label in report.labels:
        assert report.pooled(label).total_errors == 0
        assert report.pooled(label).ser == 0.0


def test_beta_zero_row_equals_baseline_row():
    suite = tiny_suite(
        noise_sigma=0.9,
        branching=3,
        rescore=RescoreConfig(beta=0.0),
        lambda_modes=("adaptive",),
    )
    report = run_benchmark(suite)
    assert report.per_sequence("adaptive") == report.per_sequence("baseline")


def test_benchmark_report_is_deterministic():
    suite = tiny_suite(noise_sigma=0.8, branching=2)
    r1 = run_benchmark(suite)
    r2 = run_benchmark(suite)
    assert r1.to_tsv() == r2.to_tsv()
    assert r1.to_table() == r2.to_table()


def test_report_shape_and_labels():
    suite = tiny_suite(lambda_modes=("fixed:0", "fixed:0.5", "adaptive"))
    report = run_benchmark(suite)
    assert list(report.labels) == [
        "baseline",
        "lambda=0",
        "lambda=0.5",
        "adaptive",
    ]
    tsv = report.to_tsv().splitlines()
    assert tsv[0] == "config\tser\timprovement_abs\timprovement_rel"
    assert len(tsv) == 5


def test_report_holds_one_record_per_pair_and_row_in_order():
    suite = tiny_suite(noise_sigma=0.9, branching=3)
    report = run_benchmark(suite)
    pairs = suite_test_set(suite, default_vocabulary())
    rows = (BASELINE_LABEL, "lambda=0", "adaptive")
    assert len(report.records) == len(pairs) * (1 + len(suite.lambda_modes))
    assert [r.label for r in report.records] == list(rows) * len(pairs)
    assert report.labels == rows
    assert list(report.per_sequence(BASELINE_LABEL)) == [ser(t, viterbi_acoustic(l)) for t, l in pairs]
    for read in (report.per_sequence, report.pooled, report.improvement_abs):
        with pytest.raises(KeyError):
            read("lambda=0.5")


@pytest.mark.parametrize(
    ("mode", "label"),
    [
        ("adaptive", "adaptive"),
        (" adaptive", "adaptive"),
        ("fixed:0", "lambda=0"),
        ("fixed: 0.5", "lambda=0.5"),
        ("fixed:1.0", "lambda=1"),
        ("0.25", "lambda=0.25"),
        ("fixed:0.1234567", "lambda=0.1234567"),
        ("fixed:0.1234568", "lambda=0.1234568"),
    ],
)
def test_row_label_is_read_from_the_parsed_weight(mode, label):
    report = run_benchmark(tiny_suite(lambda_modes=(mode,)))
    assert report.labels == (BASELINE_LABEL, label)


@pytest.mark.parametrize(
    ("modes", "message"),
    [
        (("fixed:0", "fixed:0"), "repeats a weight"),
        (("fixed:0", "fixed:0.0", "0"), "repeats a weight"),
        (("adaptive", "fixed:0.5", "adaptive"), "repeats a weight"),
        (("fixed:2",), "must lie in"),
        (("fixed:0", "static"), "bad lambda mode"),
    ],
)
def test_suite_rejects_invalid_and_repeated_lambda_modes(modes, message):
    with pytest.raises(ValueError, match=message):
        tiny_suite(lambda_modes=modes)


def test_standard_suite_covers_four_talas():
    suite = standard_suite()
    assert len(suite.talas) == 4
    assert suite.test_per_tala * len(suite.talas) >= 50
    assert suite.cycles >= 3


# The keys a ``bench --suite`` file may set besides ``talas``: the int and
# float fields of the suite, of its deviation and of its rescore config.
SUITE_KEYS = {
    "": (
        "train_per_tala", "test_per_tala", "cycles", "branching", "noise_sigma", "margin", "p_del",
        "p_ins", "n", "laplace_k", "w_tau", "eps_dir", "seed", "train_fraction",
    ),
    "deviation": ("p_tihai", "p_sub"),
    "rescore": ("rho", "beta", "k_beam"),
}


def test_every_suite_key_written_at_its_standard_value_gives_the_standard_suite():
    suite = standard_suite()
    values = {"talas": ",".join(suite.talas)}
    for part, keys in SUITE_KEYS.items():
        owner = getattr(suite, part) if part else suite
        values.update((key, str(getattr(owner, key))) for key in keys)
    assert len(values) == 20
    assert suite_from_config(values) == suite
    assert suite_from_config(values, seed_override=7) == standard_suite(7)


@pytest.mark.parametrize("key", ["eps_jsd", "lambda_mode", "lambda_modes", "tihai", "deviation", "rescore"])
def test_suite_keys_that_are_no_int_or_float_field_are_unknown(key):
    with pytest.raises(ValueError, match=rf"^unknown suite config key '{key}'$"):
        suite_from_config({key: "1"})
