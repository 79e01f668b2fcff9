from __future__ import annotations

import types

import pytest

import talarescore
from talarescore.core import (
    SENTINEL,
    SENTINEL_ID,
    DeviationConfig,
    StrokeSequence,
    StrokeVocabulary,
    TalaSpec,
    TihaiSpec,
    builtin_tala,
    builtin_talas,
    can_host_tihai,
    default_tihai,
    generate_sequence,
    load_sequences,
    load_tala_specs,
    load_vocabulary,
    save_sequences,
    save_tala_specs,
    save_vocabulary,
)
from talarescore.errors import VocabularyError
from talarescore.lattice import loads_lattice
from talarescore.model import loads_model

TINTAL_THEKA = (
    "Dha Dhin Dhin Dha Dha Dhin Dhin Dha Na Tin Tin Na Dha Tin Tin Na"
).split()


def test_vocabulary_ids_dense_with_sentinel_at_zero(vocab):
    assert vocab.symbols[SENTINEL_ID] == SENTINEL
    assert list(vocab.playable_ids) == list(range(1, vocab.num_playable + 1))
    for sid in vocab.playable_ids:
        assert vocab.id_of(vocab.symbol_of(sid)) == sid
    assert SENTINEL_ID not in vocab.playable_ids


def test_vocabulary_rejects_duplicates_and_bad_names():
    with pytest.raises(VocabularyError):
        StrokeVocabulary.of(["Dha", "Dha"])
    with pytest.raises(VocabularyError):
        StrokeVocabulary.of(["Dha", ""])
    with pytest.raises(VocabularyError):
        StrokeVocabulary.of(["Dha", "bad name"])
    with pytest.raises(VocabularyError):
        StrokeVocabulary.of([])


def test_vocabulary_refuses_a_symbol_that_reads_as_a_comment():
    # Sequence and vocabulary files drop a line that begins with '#', so a
    # saved sequence that began with such a symbol would not load back.
    message = r"^invalid symbol name: '#x'$"
    with pytest.raises(VocabularyError, match=message):
        StrokeVocabulary.of(["Dha", "#x"])
    with pytest.raises(VocabularyError, match=message):
        loads_lattice("lattice v1\nvocab 2\nstart 0\nfinal 2\narc 0 1 #x -1.0\narc 1 2 Dha -1.0\n")
    with pytest.raises(VocabularyError, match=message):
        loads_model("tiprior v1\nn 2\nlaplace_k 1.0\nw_tau 2\neps_dir 1.0\nvocab #x Dha\ntala t 1.0\n")


def test_stroke_sequence_rejects_sentinel_and_empty():
    with pytest.raises(ValueError):
        StrokeSequence(())
    with pytest.raises(ValueError):
        StrokeSequence((SENTINEL_ID, 1))


def test_builtin_tintal_matches_canonical_theka(vocab, tintal):
    assert tintal.matras == 16
    assert list(tintal.theka.to_symbols(vocab)) == TINTAL_THEKA


def test_builtin_talas_have_consistent_specs(vocab):
    talas = builtin_talas(vocab)
    names = [t.name for t in talas]
    assert "tintal" in names
    assert len(set(t.matras for t in talas)) >= 4
    for t in talas:
        assert len(t.theka) == t.matras


def test_tala_spec_validation(vocab, tintal):
    with pytest.raises(ValueError):
        TalaSpec("bad", 3, (1,), tintal.theka)
    with pytest.raises(ValueError):
        TalaSpec("bad", 16, (5, 5), tintal.theka)
    with pytest.raises(ValueError):
        TalaSpec("bad", 16, (0, 4), tintal.theka)


def test_default_tihai_matches_appendix_layout(vocab, tintal):
    tihai = default_tihai(tintal)
    assert tihai.phrase.to_symbols(vocab) == ("Dha", "Tin", "Tin", "Na")
    assert tihai.connector.to_symbols(vocab) == ("Na", "Na")
    assert tihai.total_span == 16  # 4 + 2 + 4 + 2 + 4
    assert tihai.in_cycle_span == 12


def test_zero_deviation_is_pure_theka_repetition(vocab, tintal):
    for seed in (0, 1, 12345):
        seq = generate_sequence(tintal, 2, None, seed, vocab)
        assert seq.strokes == tintal.theka.strokes * 2
        assert seq.tala_label == "tintal"


def test_generation_length_law_and_determinism(vocab):
    dev = DeviationConfig(p_tihai=0.5, p_sub=0.2)
    for tala in builtin_talas(vocab):
        use = dev if can_host_tihai(tala) else DeviationConfig(p_sub=0.2)
        for cycles in (1, 2, 4):
            a = generate_sequence(tala, cycles, use, 42, vocab)
            b = generate_sequence(tala, cycles, use, 42, vocab)
            assert a == b
            assert len(a) == cycles * tala.matras


def test_forced_tihai_on_cycle_three_matches_worked_example(vocab, tintal):
    dev = DeviationConfig(p_tihai=1.0)
    seq = generate_sequence(tintal, 3, dev, 0, vocab)
    assert len(seq) == 48
    symbols = seq.to_symbols(vocab)
    # Every cycle, the third included, keeps the theka's first vibhag, then
    # beats 5-16 play phrase, connector, phrase, connector.
    expected_cycle = (
        "Dha Dhin Dhin Dha Dha Tin Tin Na Na Na Dha Tin Tin Na Na Na"
    ).split()
    assert list(symbols) == expected_cycle * 3


def test_tihai_rejected_when_cycle_too_short(vocab):
    dadra = builtin_tala("dadra", vocab)
    assert not can_host_tihai(dadra)
    with pytest.raises(ValueError, match="at least"):
        generate_sequence(dadra, 2, DeviationConfig(p_tihai=1.0), 0, vocab)


def test_tihai_span_invariant():
    phrase = StrokeSequence((1, 2, 3, 4))
    conn = StrokeSequence((3, 3))
    tihai = TihaiSpec(phrase=phrase, connector=conn)
    assert tihai.total_span == 3 * 4 + 2 * 2
    assert len(tihai.expansion()) == tihai.in_cycle_span


def test_sequence_file_round_trip(tmp_path, vocab, tintal, jhaptal):
    seqs = [
        generate_sequence(tintal, 2, None, 1, vocab),
        generate_sequence(jhaptal, 1, None, 2, vocab),
        StrokeSequence((1, 2, 3)),  # unlabeled
    ]
    path = tmp_path / "seqs.txt"
    save_sequences(seqs, path, vocab)
    loaded = load_sequences(path, vocab)
    assert loaded == seqs
    # byte-stable rewrite
    save_sequences(loaded, tmp_path / "again.txt", vocab)
    assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()


def test_vocabulary_file_round_trip(tmp_path, vocab):
    path = tmp_path / "vocab.txt"
    save_vocabulary(vocab, path)
    assert load_vocabulary(path) == vocab


def test_tala_file_round_trip(tmp_path, vocab):
    talas = builtin_talas(vocab)
    path = tmp_path / "talas.txt"
    save_tala_specs(talas, path, vocab)
    assert load_tala_specs(path, vocab) == talas


TALA_LINES = "tala t 4\nvibhag 1 3\ntheka Dha Na Tin Na\n"


@pytest.mark.parametrize("line", ["vibhag 1 3", "theka Dha Na Tin Na"])
def test_tala_file_line_before_the_first_tala_fails(tmp_path, vocab, line):
    path = tmp_path / "talas.txt"
    path.write_text(f"{line}\n" + TALA_LINES, encoding="utf-8")
    with pytest.raises(ValueError, match=f"before the first tala line: {line!r}"):
        load_tala_specs(path, vocab)


@pytest.mark.parametrize("line", ["vibhag 1", "theka Na Na Na Na"])
def test_tala_file_repeated_line_within_a_tala_fails(tmp_path, vocab, line):
    path = tmp_path / "talas.txt"
    path.write_text(TALA_LINES + f"{line}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"repeated {line.split()[0]} line in tala 't': {line!r}"):
        load_tala_specs(path, vocab)


def test_tala_file_repeated_tala_name_fails(tmp_path, vocab):
    path = tmp_path / "talas.txt"
    path.write_text(TALA_LINES + TALA_LINES.replace("Tin", "Dhin"), encoding="utf-8")
    with pytest.raises(ValueError, match="repeated tala name: 'tala t 4'"):
        load_tala_specs(path, vocab)


@pytest.mark.parametrize("bad", ["tala t x", "tala t 4.0", "vibhag 1 y"])
def test_tala_file_bad_number_names_the_line(tmp_path, vocab, bad):
    path = tmp_path / "talas.txt"
    kind = bad.split()[0]
    lines = [bad if line.startswith(kind + " ") else line for line in TALA_LINES.splitlines()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^bad {kind} line, want integers: {bad!r}$"):
        load_tala_specs(path, vocab)


def test_package_public_names_are_pinned():
    public = sorted(
        name
        for name, value in vars(talarescore).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert public == [
        "Arc", "BenchmarkReport", "BenchmarkSuiteConfig", "DeviationConfig", "EditStats",
        "ExpandedLattice", "Lattice", "LatticeFormatError", "LatticeGenConfig", "ModelFormatError",
        "RescoreConfig", "RescoreDiagnostics", "RescoreError", "RhythmModel", "SENTINEL", "SENTINEL_ID",
        "StrokeSequence", "StrokeVocabulary", "TalaIndependentPrior", "TalaSpec", "TalarescoreError",
        "TihaiSpec", "VocabularyError", "VocabularyMismatchError", "acoustic_confidence",
        "builtin_tala", "builtin_talas", "default_tihai", "default_vocabulary", "generate_lattice",
        "generate_sequence", "init_alpha", "lambda_k", "load_lattice", "load_model", "path_score",
        "path_terms", "rescore", "run_benchmark", "save_lattice", "save_model", "ser", "standard_suite",
        "train_model", "viterbi_acoustic", "viterbi_expanded",
    ]


@pytest.mark.parametrize(
    "text, message",
    [
        ("Dha Na\n#tala=t\nNa Foo\n", "line 3: unknown stroke symbol: 'Foo'"),
        ("Dha Na\nNa <s> Dha\n", "line 2: '<s>' is not a playable stroke"),
    ],
)
def test_sequence_file_errors_name_the_line_and_symbol(tmp_path, vocab, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(VocabularyError) as exc:
        load_sequences(path, vocab)
    assert str(exc.value) == message


def test_unknown_symbol_in_sequence_file(tmp_path, vocab):
    path = tmp_path / "bad.txt"
    path.write_text("Dha Zzz\n", encoding="utf-8")
    with pytest.raises(VocabularyError, match="Zzz"):
        load_sequences(path, vocab)


@pytest.mark.parametrize(
    "theka, message",
    [
        ("Dha Foo", "line 3: unknown stroke symbol: 'Foo'"),
        ("Dha <s>", "line 3: '<s>' is not a playable stroke"),
    ],
)
def test_tala_file_theka_errors_name_the_line_and_symbol(tmp_path, vocab, theka, message):
    path = tmp_path / "talas.txt"
    path.write_text(f"tala t 2\nvibhag 1\ntheka {theka}\n", encoding="utf-8")
    with pytest.raises(VocabularyError) as exc:
        load_tala_specs(path, vocab)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("tala t 4\nvibhag 1 3\n", "tala 't' has no theka line"),
        ("tala t\n", "bad tala line: 'tala t'"),
        ("tala t 4\nbol Dha\n", "unknown directive in tala file: 'bol'"),
        ("", "no tala specs found in {path}"),
        # A tala's structural fault names the line that set the field.
        ("tala t 4\ntheka Dha Na\n", "line 2: tala t: theka length 2 differs from matras 4"),
        ("tala t 4\ntheka\n", "line 2: tala t: stroke sequence must contain at least one stroke"),
        (
            "tala t 4\nvibhag 3 1\ntheka Dha Na Tin Na\n",
            "line 2: tala t: vibhag boundaries must be strictly increasing in [1, 4]",
        ),
        ("tala t 0\ntheka Dha\n", "line 1: tala t: matras must be positive"),
    ],
    ids=[
        "no-theka", "bad-tala-line", "unknown-directive", "empty",
        "theka-length", "empty-theka", "vibhag-order", "matras",
    ],
)
def test_malformed_tala_files_fail(tmp_path, vocab, text, message):
    path = tmp_path / "talas.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        load_tala_specs(path, vocab)
    assert type(exc.value) is ValueError
    assert str(exc.value) == message.format(path=path)


def test_tala_without_vibhag_takes_the_last_four_beats_as_its_tihai_phrase(tmp_path, vocab):
    path = tmp_path / "talas.txt"
    path.write_text("tala t 8\ntheka Dha Ta Dhin Na Dha Ta Tin Na\n", encoding="utf-8")
    (tala,) = load_tala_specs(path, vocab)
    assert tala.vibhag_boundaries == ()
    tihai = default_tihai(tala)
    assert tihai.phrase.to_symbols(vocab) == ("Dha", "Ta", "Tin", "Na")
    assert tihai.connector.to_symbols(vocab) == ("Na", "Na")


def test_vocabulary_file_naming_the_sentinel_fails(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("Dha\n<s>\n", encoding="utf-8")
    with pytest.raises(VocabularyError) as exc:
        load_vocabulary(path)
    assert str(exc.value) == "'<s>' is reserved and implicit"
