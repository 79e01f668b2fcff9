from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from talarescore import cli
from talarescore.cli import main
from talarescore.core import default_vocabulary, load_sequences
from talarescore.eval import build_training_corpus, standard_suite, suite_test_set
from talarescore.lattice import load_lattice, save_lattice
from talarescore.model import load_model, save_model, train_model
from talarescore.rescorer import RescoreConfig, rescore

try:
    from numpy._core._multiarray_umath import __cpu_features__ as CPU_FEATURES
    CPU_FEATURES_MODULE = "numpy._core._multiarray_umath"
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__ as CPU_FEATURES
    CPU_FEATURES_MODULE = "numpy.core._multiarray_umath"


def run(argv):
    return main(argv)


def gen_corpus(tmp_path, name="corpus.txt", tala="tintal", count=4, extra=()):
    out = tmp_path / name
    code = run(
        [
            "gen-corpus",
            "--tala", tala,
            "--cycles", "2",
            "--count", str(count),
            "--seed", "11",
            "--p-sub", "0.05",
            "--out", str(out),
            *extra,
        ]
    )
    assert code == 0
    return out


def test_gen_corpus_writes_labeled_sequences(tmp_path):
    out = gen_corpus(tmp_path)
    seqs = load_sequences(out, default_vocabulary())
    assert len(seqs) == 4
    assert all(s.tala_label == "tintal" for s in seqs)
    assert all(len(s) == 32 for s in seqs)


def test_gen_corpus_missing_seed_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["gen-corpus", "--tala", "tintal", "--out", str(tmp_path / "x.txt")])
    assert exc.value.code == 2


def test_gen_corpus_unknown_tala_lists_builtins(tmp_path, capsys):
    code = run(
        ["gen-corpus", "--tala", "wat", "--seed", "1", "--out", str(tmp_path / "x.txt")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "tintal" in err and "jhaptal" in err


def test_train_rescore_ser_round_trip(tmp_path, capsys):
    corpus = gen_corpus(tmp_path, count=6)
    model_path = tmp_path / "model.tiprior"
    assert run(["train", "--corpus", str(corpus), "--out", str(model_path)]) == 0
    assert model_path.exists()

    truth = gen_corpus(tmp_path, name="truth.txt", count=2)
    lat_dir = tmp_path / "lats"
    assert (
        run(
            [
                "gen-lattice",
                "--sequences", str(truth),
                "--out-dir", str(lat_dir),
                "--seed", "3",
                "--branching", "3",
                "--noise-sigma", "0.8",
            ]
        )
        == 0
    )
    lats = sorted(lat_dir.glob("*.lat"))
    assert len(lats) == 2

    hyp_path = tmp_path / "hyp.txt"
    code = run(
        ["rescore", *map(str, lats), "--model", str(model_path), "--out", str(hyp_path)]
    )
    assert code == 0
    hyps = load_sequences(hyp_path, default_vocabulary())
    assert len(hyps) == 2

    assert run(["ser", "--ref", str(truth), "--hyp", str(hyp_path)]) == 0
    out = capsys.readouterr().out
    assert "total:" in out and "SER=" in out


def test_rescore_beta_zero_equals_baseline(tmp_path):
    corpus = gen_corpus(tmp_path, count=5)
    model_path = tmp_path / "model.tiprior"
    run(["train", "--corpus", str(corpus), "--out", str(model_path)])
    truth = gen_corpus(tmp_path, name="t.txt", count=2)
    lat_dir = tmp_path / "lats"
    run(
        [
            "gen-lattice",
            "--sequences", str(truth),
            "--out-dir", str(lat_dir),
            "--seed", "9",
            "--branching", "3",
            "--noise-sigma", "0.9",
        ]
    )
    lats = sorted(map(str, lat_dir.glob("*.lat")))
    base_out = tmp_path / "base.txt"
    beta0_out = tmp_path / "beta0.txt"
    assert run(["rescore", *lats, "--model", str(model_path), "--out", str(base_out), "--baseline"]) == 0
    assert run(["rescore", *lats, "--model", str(model_path), "--out", str(beta0_out), "--beta", "0"]) == 0
    assert base_out.read_text() == beta0_out.read_text()


def test_rescore_fixed_lambda_flags(tmp_path):
    corpus = gen_corpus(tmp_path, count=5)
    model_path = tmp_path / "model.tiprior"
    run(["train", "--corpus", str(corpus), "--out", str(model_path)])
    truth = gen_corpus(tmp_path, name="t.txt", count=1)
    lat_dir = tmp_path / "lats"
    run(
        [
            "gen-lattice",
            "--sequences", str(truth),
            "--out-dir", str(lat_dir),
            "--seed", "4",
            "--branching", "2",
            "--noise-sigma", "0.6",
        ]
    )
    lat = str(next(lat_dir.glob("*.lat")))
    for mode in ("fixed:0", "fixed:1", "adaptive"):
        out = tmp_path / f"out_{mode.replace(':', '_')}.txt"
        assert run(["rescore", lat, "--model", str(model_path), "--out", str(out), "--lambda", mode]) == 0
        assert out.exists()


def test_rescore_diagnostics_file(tmp_path):
    corpus = gen_corpus(tmp_path, count=4)
    model_path = tmp_path / "model.tiprior"
    run(["train", "--corpus", str(corpus), "--out", str(model_path)])
    truth = gen_corpus(tmp_path, name="t.txt", count=1)
    lat_dir = tmp_path / "lats"
    run(
        [
            "gen-lattice",
            "--sequences", str(truth),
            "--out-dir", str(lat_dir),
            "--seed", "2",
            "--branching", "2",
            "--noise-sigma", "0.5",
        ]
    )
    lat = str(next(lat_dir.glob("*.lat")))
    out = tmp_path / "hyp.txt"
    diag = tmp_path / "diag.txt"
    assert run(
        ["rescore", lat, "--model", str(model_path), "--out", str(out), "--diagnostics", str(diag)]
    ) == 0
    text = diag.read_text()
    assert "summary pops=" in text
    assert "lambda=" in text and "p_comb=" in text


@pytest.mark.parametrize("mode", ["adaptive", "fixed:0.5"])
def test_rescore_diagnostics_write_the_winners_path_term_by_term(tmp_path, mode):
    corpus = gen_corpus(tmp_path, count=4)
    model_path = tmp_path / "model.tiprior"
    assert run(["train", "--corpus", str(corpus), "--out", str(model_path)]) == 0
    # Three positions of two competitors each, plus a skip arc; the winner
    # takes the second arc out of each node it passes.
    lat_path = tmp_path / "small.lat"
    lat_path.write_text(
        "lattice v1\nvocab 5\nstart 0\nfinal 3\n"
        "arc 0 1 Na -0.6\narc 0 1 Dha -0.4\narc 1 2 Tin -0.9\narc 1 2 Dhin -0.2\n"
        "arc 2 3 Ta -0.5\narc 2 3 Dhin -0.3\narc 1 3 Na -1.7\n",
        encoding="utf-8",
    )
    out, diag = tmp_path / "hyp.txt", tmp_path / "diag.txt"
    argv = ["rescore", str(lat_path), "--model", str(model_path), "--out", str(out),
            "--lambda", mode, "--diagnostics", str(diag)]
    assert run(argv) == 0

    model = load_model(model_path)
    lat = load_lattice(lat_path, vocab=model.vocab)
    hyp, exp, result = rescore(lat, model, RescoreConfig(lambda_mode=mode))
    lines = diag.read_text().splitlines()
    assert lines[0] == f"# lattice {lat_path}"
    assert lines[1].startswith("summary pops=")
    arcs = [dict(field.split("=", 1) for field in line.split()[1:]) for line in lines[2:]]
    assert all(line.startswith("arc ") for line in lines[2:])
    assert [a["stroke"] for a in arcs] == list(hyp.to_symbols(model.vocab))
    assert [int(a["id"]) for a in arcs] == list(exp.arc_chain(result.best_state)) == [1, 3, 5]
    acc = 0.0
    for a in arcs:
        acc += float(a["weight"])
    assert acc == exp.states.acc_score[result.best_state]
    assert all((a["C"] == "nan") == (mode != "adaptive") for a in arcs)


@pytest.mark.parametrize("flag", ["--diagnostics", "--dump-expanded-dir"])
def test_rescore_baseline_with_a_rescoring_output_is_a_usage_error(tmp_path, capsys, flag):
    lat = tmp_path / "a.lat"
    lat.write_text("lattice v1\nvocab 5\nstart 0\nfinal 1\narc 0 1 Dha -1.0\n", encoding="utf-8")
    target = tmp_path / "diag"
    with pytest.raises(SystemExit) as exc:
        # The model is never read: the usage is refused before any decode.
        run(["rescore", str(lat), "--model", str(tmp_path / "missing.tiprior"),
             "--out", str(tmp_path / "h.txt"), "--baseline", flag, str(target)])
    assert exc.value.code == 2
    assert "--baseline" in capsys.readouterr().err
    assert not target.exists() and not (tmp_path / "h.txt").exists()


def test_rescore_reports_failed_lattices(tmp_path, capsys):
    corpus = gen_corpus(tmp_path, count=4)
    model_path = tmp_path / "model.tiprior"
    run(["train", "--corpus", str(corpus), "--out", str(model_path)])
    bad = tmp_path / "bad.lat"
    bad.write_text("not a lattice\n", encoding="utf-8")
    out = tmp_path / "hyp.txt"
    code = run(["rescore", str(bad), "--model", str(model_path), "--out", str(out)])
    assert code == 1
    assert "bad.lat" in capsys.readouterr().err

    # A failure in the middle of the list would shift every later hypothesis
    # up one line, so no output file is written at all.
    truth = gen_corpus(tmp_path, name="t.txt", count=2)
    lat_dir = tmp_path / "lats"
    run(["gen-lattice", "--sequences", str(truth), "--out-dir", str(lat_dir), "--seed", "5"])
    first, last = sorted(map(str, lat_dir.glob("*.lat")))
    bare_start = tmp_path / "bare_start.lat"
    bare_start.write_text("lattice v1\nvocab 5\nstart\nfinal 1\narc 0 1 Dha -1.0\n", encoding="utf-8")
    diag = tmp_path / "diag.txt"
    dump_dir = tmp_path / "dump"
    code = run(
        ["rescore", first, str(bare_start), last, "--model", str(model_path),
         "--out", str(out), "--diagnostics", str(diag), "--dump-expanded-dir", str(dump_dir)]
    )
    assert code == 1
    assert "bare_start.lat" in capsys.readouterr().err
    assert not out.exists() and not diag.exists()
    assert not list(dump_dir.rglob("*.exp"))

    # Without the failing lattice, every dump lands under its input's index.
    assert run(["rescore", first, last, "--model", str(model_path), "--out", str(out),
                "--dump-expanded-dir", str(dump_dir)]) == 0
    assert sorted(p.relative_to(dump_dir).as_posix() for p in dump_dir.rglob("*")) == ["0000.exp", "0001.exp"]


def test_rescore_reports_a_dirichlet_row_underflow(tmp_path, capsys):
    corpus = gen_corpus(tmp_path, count=4)
    model_path = tmp_path / "model.tiprior"
    assert run(["train", "--corpus", str(corpus), "--out", str(model_path)]) == 0
    # Under --rho 0.9 the Ta row, not observed in 400 steps, decays to zeros.
    labels = ["Dha"] * 400 + ["Ta", "Dha"]
    lat = tmp_path / "long.lat"
    lat.write_text(
        f"lattice v1\nvocab 5\nstart 0\nfinal {len(labels)}\n"
        + "".join(f"arc {i} {i + 1} {s} -0.5\n" for i, s in enumerate(labels)),
        encoding="utf-8",
    )
    out = tmp_path / "hyp.txt"
    code = run(["rescore", str(lat), "--model", str(model_path), "--out", str(out), "--rho", "0.9"])
    assert code == 1
    assert f"error: {lat}: state 401 (node 401): the Dirichlet row after Ta underflowed" in capsys.readouterr().err
    assert not out.exists()


def test_train_rejects_a_laplace_k_that_underflows_every_tala_weight(tmp_path, capsys):
    # Three talas whose stroke shares all lie below 1/2, so 5e-324 times
    # each share rounds to 0.
    parts = [gen_corpus(tmp_path, name=f"{t}.txt", tala=t, count=1) for t in ("tintal", "jhaptal", "ektal")]
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("".join(p.read_text(encoding="utf-8") for p in parts), encoding="utf-8")
    model_path = tmp_path / "model.tiprior"
    code = run(["train", "--corpus", str(corpus), "--out", str(model_path), "--laplace-k", "5e-324"])
    assert code == 1
    assert "error: laplace_k=5e-324 times every tala prior underflows to 0" in capsys.readouterr().err
    assert not model_path.exists()
    assert run(["train", "--corpus", str(corpus), "--out", str(model_path), "--laplace-k", "1e-300"]) == 0


@pytest.mark.parametrize(
    ("flag", "value", "message"),
    [
        ("--laplace-k", "1e300", "laplace_k must not exceed 2**53"),
        ("--laplace-k", "inf", "laplace_k must be positive and finite"),
        ("--laplace-k", "nan", "laplace_k must be positive and finite"),
        ("--eps-dir", "inf", "eps_dir must be positive and finite"),
        ("--eps-dir", "nan", "eps_dir must be positive and finite"),
        ("--w-tau", "9007199254740993", "w_tau must not exceed 2**53"),
    ],
    ids=["laplace_k=1e300", "laplace_k=inf", "laplace_k=nan", "eps_dir=inf", "eps_dir=nan", "w_tau=2**53+1"],
)
def test_train_rejects_settings_the_model_file_refuses(tmp_path, capsys, flag, value, message):
    parts = [gen_corpus(tmp_path, name=f"{t}.txt", tala=t, count=1) for t in ("tintal", "jhaptal")]
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("".join(p.read_text(encoding="utf-8") for p in parts), encoding="utf-8")
    model_path = tmp_path / "model.tiprior"
    assert run(["train", "--corpus", str(corpus), "--out", str(model_path), flag, value]) == 1
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not model_path.exists()


def test_train_rejects_an_n_gram_order_above_the_bound_before_training(tmp_path, capsys):
    corpus = gen_corpus(tmp_path, count=1)
    model_path = tmp_path / "model.tiprior"
    assert run(["train", "--corpus", str(corpus), "--out", str(model_path), "--n", "30000"]) == 1
    assert capsys.readouterr().err == "error: n must not exceed 32\n"
    assert not model_path.exists()


def test_train_rejects_a_tala_label_that_holds_whitespace(tmp_path, capsys):
    # The model's tala line would read "tala jhap tal 1.0", which no loader splits back.
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("#tala=jhap tal\nDha Dhin Na Dha Dhin\n", encoding="utf-8")
    model_path = tmp_path / "model.tiprior"
    assert run(["train", "--corpus", str(corpus), "--out", str(model_path)]) == 1
    assert capsys.readouterr().err == "error: tala name 'jhap tal' is empty or holds whitespace\n"
    assert not model_path.exists()


def test_rescore_model_with_an_n_gram_order_above_the_bound_fails(tmp_path, capsys):
    corpus = gen_corpus(tmp_path, count=1)
    model_path = tmp_path / "model.tiprior"
    assert run(["train", "--corpus", str(corpus), "--out", str(model_path)]) == 0
    text = model_path.read_text(encoding="utf-8")
    model_path.write_text(text.replace("\nn 3\n", "\nn 30000\n"), encoding="utf-8")
    lat = tmp_path / "a.lat"
    lat.write_text("lattice v1\nvocab 5\nstart 0\nfinal 1\narc 0 1 Dha -1.0\n", encoding="utf-8")
    hyp_path = tmp_path / "h.txt"
    assert run(["rescore", str(lat), "--model", str(model_path), "--out", str(hyp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad n line 'n 30000': n must not exceed 32")
    assert not hyp_path.exists()


def test_ser_pins_the_substitution_deletion_insertion_split(tmp_path, capsys):
    # Where alignments tie, substitutions are counted before insertions and
    # insertions before deletions: "Na Dha" against "Dha Na" is S=2, not D=1 I=1.
    ref = tmp_path / "ref.txt"
    hyp = tmp_path / "hyp.txt"
    ref.write_text("Dha Dhin Dhin Dha Dha Dhin Na Tin Ta\nNa Dha\nDha Dha Tin Ta Ta\n", encoding="utf-8")
    hyp.write_text("Dhin Dhin Dha Dha Dhin Na Na Ta\nDha Na\nDha Tin Na Ta Ta Dhin\n", encoding="utf-8")
    assert run(["ser", "--ref", str(ref), "--hyp", str(hyp)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "seq 0: S=1 D=1 I=0 N=9 SER=0.2222",
        "seq 1: S=2 D=0 I=0 N=2 SER=1.0000",
        "seq 2: S=2 D=0 I=1 N=5 SER=0.6000",
        "total: S=5 D=1 I=1 N=16 SER=0.4375",
    ]


def test_rescore_model_with_an_integer_header_too_large_for_a_float_fails(tmp_path, capsys):
    model_path = tmp_path / "model.tiprior"
    model_path.write_text("tiprior v1\nn 1" + "0" * 400 + "\n", encoding="utf-8")
    lat = tmp_path / "a.lat"
    lat.write_text("lattice v1\nvocab 5\nstart 0\nfinal 1\narc 0 1 Dha -1.0\n", encoding="utf-8")
    code = run(["rescore", str(lat), "--model", str(model_path), "--out", str(tmp_path / "h.txt")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad n line 'n 10") and "n must not exceed 2**53" in err
    assert "Traceback" not in err


def suite_rescore_argv(tmp_path):
    """A ``rescore`` command line for the standard suite's first tintal test
    lattice under a model trained on the suite, both written to ``tmp_path``."""
    suite = standard_suite()
    vocab = default_vocabulary()
    save_model(train_model(build_training_corpus(suite, vocab), vocab), tmp_path / "m.tiprior")
    _, lat = suite_test_set(suite, vocab)[0]
    save_lattice(lat, tmp_path / "a.lat")
    return ["rescore", str(tmp_path / "a.lat"), "--model", str(tmp_path / "m.tiprior"),
            "--out", str(tmp_path / "h.txt")]


def test_expanded_dump_is_pinned_on_a_standard_suite_lattice(tmp_path):
    """``--dump-expanded-dir`` bytes and beam counters for the standard suite's
    first tintal test lattice, pinned under adaptive and fixed interpolation."""
    rescore_argv = suite_rescore_argv(tmp_path)
    pinned = {
        "adaptive": (
            "fd831d7d6efd72a3e718de5e7055dd0510319cde4448a15c320bd8a8514ef33b",
            "summary pops=6117 pushes=17601 pruned_capacity=11485 max_queue=152",
        ),
        "fixed:0": (
            "01d2918df177089739c2b1c2b2dc90e262c4c73a94636c9ba77df32f63621508",
            "summary pops=6483 pushes=18822 pruned_capacity=12340 max_queue=152",
        ),
    }
    for mode, (digest, summary) in pinned.items():
        dump_dir = tmp_path / mode.replace(":", "_")
        diag = dump_dir / "diag.txt"
        argv = [*rescore_argv, "--lambda", mode, "--dump-expanded-dir", str(dump_dir), "--diagnostics", str(diag)]
        assert run(argv) == 0
        assert hashlib.sha256((dump_dir / "0000.exp").read_bytes()).hexdigest() == digest
        assert diag.read_text().splitlines()[1] == summary


# The names NPY_DISABLE_CPU_FEATURES takes for numpy's AVX-512 kernels, which
# numpy picks at run time (NEP 38) where the CPU has them.
AVX512_FEATURES = ("AVX512F", "AVX512CD", "AVX512_SKX", "AVX512_CLX", "AVX512_CNL", "AVX512_ICL", "AVX512_SPR", "X86_V4")


def test_expanded_dump_does_not_depend_on_numpy_simd_kernels(tmp_path):
    """The pinned adaptive decode gives the same dump bytes in a process that
    switches off numpy's AVX-512 kernels, so its pins hold on any x86 CPU."""
    present = [name for name in AVX512_FEATURES if CPU_FEATURES.get(name)]
    argv = [*suite_rescore_argv(tmp_path), "--lambda", "adaptive"]
    assert run([*argv, "--dump-expanded-dir", str(tmp_path / "here")]) == 0
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "NPY_DISABLE_CPU_FEATURES": " ".join(present),
        "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])),
    }
    script = (
        "import os, sys\n"
        f"from {CPU_FEATURES_MODULE} import __cpu_features__\n"
        "from talarescore.cli import main\n"
        "named = os.environ['NPY_DISABLE_CPU_FEATURES'].split()\n"
        "assert not ('X86_V4' in named and __cpu_features__['X86_V4']), 'numpy kept its AVX-512 kernels'\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    done = subprocess.run([sys.executable, "-c", script, *argv, "--dump-expanded-dir", str(tmp_path / "there")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    here = (tmp_path / "here" / "0000.exp").read_bytes()
    assert (tmp_path / "there" / "0000.exp").read_bytes() == here


def test_bench_emits_seven_rows_and_is_byte_stable(tmp_path):
    suite = tmp_path / "suite.cfg"
    suite.write_text(
        "talas=tintal,jhaptal\n"
        "train_per_tala=3\n"
        "test_per_tala=2\n"
        "cycles=2\n"
        "branching=2\n"
        "noise_sigma=0.7\n"
        "p_tihai=0.2\n"
        "p_sub=0.05\n"
        "k_beam=60\n"
        "seed=13\n",
        encoding="utf-8",
    )
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert run(["bench", "--suite", str(suite), "--out-dir", str(out1)]) == 0
    assert run(["bench", "--suite", str(suite), "--out-dir", str(out2)]) == 0
    tsv1 = (out1 / "report.tsv").read_bytes()
    tsv2 = (out2 / "report.tsv").read_bytes()
    assert tsv1 == tsv2
    lines = tsv1.decode().splitlines()
    assert len(lines) == 1 + 7  # header + baseline + 5 fixed + adaptive
    labels = [l.split("\t")[0] for l in lines[1:]]
    assert labels == [
        "baseline",
        "lambda=0",
        "lambda=0.25",
        "lambda=0.5",
        "lambda=0.75",
        "lambda=1",
        "adaptive",
    ]
    assert (out1 / "report.txt").exists()


def test_bench_data_efficiency_mode(tmp_path):
    suite = tmp_path / "suite.cfg"
    suite.write_text(
        "talas=tintal\ntrain_per_tala=3\ntest_per_tala=1\ncycles=2\n"
        "branching=2\nnoise_sigma=0.5\nk_beam=40\nseed=3\n",
        encoding="utf-8",
    )
    out = tmp_path / "r"
    assert run(["bench", "--suite", str(suite), "--out-dir", str(out), "--data-efficiency"]) == 0
    tsv = (out / "report.tsv").read_text().splitlines()
    assert tsv[0].startswith("subset\t")
    subsets = {l.split("\t")[0] for l in tsv[1:]}
    assert subsets == {"small", "medium", "large"}
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ("report.tsv", "report.txt")}
    assert digests == {
        "report.tsv": "744ae83f79a66ffd457d3ae1d3ab5abde011a81b4eef1499fc2a373ccca0e416",
        "report.txt": "89996ee99bc850a170ec9e6917f04ff5d9e4d7946a29271598cf6ca197446d9b",
    }


def test_bench_data_efficiency_decodes_a_repeated_subset_once(tmp_path, monkeypatch):
    # With two sequences per tala, "small" and "medium" both train on one:
    # that subset is decoded once and its report printed under both names.
    real_run_benchmark = cli.evaluation.run_benchmark
    sizes = []

    def counting_run_benchmark(suite):
        sizes.append(suite.train_per_tala)
        return real_run_benchmark(suite)

    monkeypatch.setattr(cli.evaluation, "run_benchmark", counting_run_benchmark)
    suite = tmp_path / "suite.cfg"
    suite.write_text(
        "talas=tintal\ntrain_per_tala=2\ntest_per_tala=1\ncycles=2\n"
        "branching=2\nnoise_sigma=0.5\nk_beam=40\nseed=3\n",
        encoding="utf-8",
    )
    out = tmp_path / "r"
    assert run(["bench", "--suite", str(suite), "--out-dir", str(out), "--data-efficiency"]) == 0
    assert sizes == [1, 2]
    rows = [l.split("\t", 1) for l in (out / "report.tsv").read_text().splitlines()[1:]]
    assert [r for name, r in rows if name == "small"] == [r for name, r in rows if name == "medium"]
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ("report.tsv", "report.txt")}
    assert digests == {
        "report.tsv": "00c00c4d19e0cc908c3ae300d1488f60b7f7c62b26bfd6a2649a61c9c5bc311c",
        "report.txt": "53ae8d7f39424706e3fddf4787e7fc6dde6bbac75883ea6161c66b9771fcd0e9",
    }


def test_config_file_provides_defaults_flags_override(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("tala=tintal\ncycles=2\ncount=3\nseed=11\n", encoding="utf-8")
    out = tmp_path / "seqs.txt"
    code = run(["gen-corpus", "--config", str(cfg), "--out", str(out), "--count", "1"])
    assert code == 0
    seqs = load_sequences(out, default_vocabulary())
    assert len(seqs) == 1  # flag overrode the file's count=3
    assert len(seqs[0]) == 32  # file's cycles=2 applied


def test_config_file_given_with_equals_sign_is_applied(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("tala=tintal\ncycles=2\ncount=3\nseed=11\n", encoding="utf-8")
    out = tmp_path / "seqs.txt"
    assert run(["gen-corpus", f"--config={cfg}", "--out", str(out)]) == 0
    assert len(load_sequences(out, default_vocabulary())) == 3
    # A bad value in the file is a usage error under either spelling.
    bad = tmp_path / "bad.cfg"
    bad.write_text("k_beam=bogus\n", encoding="utf-8")
    for spelling in (["--config", str(bad)], [f"--config={bad}"]):
        with pytest.raises(SystemExit) as exc:
            run(["rescore", "x.lat", "--model", "m", "--out", str(tmp_path / "o"), *spelling])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    ("content", "named"),
    [(None, "gen.cfg"), ("tala=tintal\ncycles\n", "'cycles'"), ("cycles=2\ncycles = 3\n", "'cycles'")],
    ids=["missing", "no-equals", "repeated-key"],
)
def test_unreadable_config_file_is_a_usage_error(tmp_path, capsys, content, named):
    cfg = tmp_path / "gen.cfg"
    if content is not None:
        cfg.write_text(content, encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        run(["gen-corpus", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "s.txt")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: --config: " in err and "Traceback" not in err
    assert named in err


def test_bench_suite_file_with_a_repeated_key_fails(tmp_path, capsys):
    suite = tmp_path / "suite.cfg"
    suite.write_text("rho=0.1\nrho=0.5\n", encoding="utf-8")
    assert run(["bench", "--suite", str(suite), "--out-dir", str(tmp_path / "out")]) == 1
    assert "repeated config key 'rho'" in capsys.readouterr().err


def test_bench_suite_file_with_the_removed_delta_beam_key_fails(tmp_path, capsys):
    suite = tmp_path / "suite.cfg"
    suite.write_text("delta_beam=10\n", encoding="utf-8")
    assert run(["bench", "--suite", str(suite), "--out-dir", str(tmp_path / "out")]) == 1
    assert "unknown suite config key 'delta_beam'" in capsys.readouterr().err


def test_rescore_delta_beam_flag_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["rescore", "x.lat", "--model", "m", "--out", str(tmp_path / "o"), "--delta-beam", "5"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "spelling",
    [["--conf", "{cfg}"], ["--config", "{cfg}", "--config", "{cfg}2"]],
    ids=["abbreviated", "repeated"],
)
def test_config_file_not_applied_is_a_usage_error(tmp_path, spelling):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("tala=tintal\ncycles=2\ncount=3\nseed=11\n", encoding="utf-8")
    (tmp_path / "gen.cfg2").write_text("count=1\n", encoding="utf-8")
    argv = ["gen-corpus", "--tala", "tintal", "--seed", "1", "--out", str(tmp_path / "s.txt")]
    with pytest.raises(SystemExit) as exc:
        run(argv + [token.format(cfg=cfg) for token in spelling])
    assert exc.value.code == 2


def test_decode_defaults_pin_standard_hyperparameters():
    from talarescore.cli import build_parser

    args = build_parser().parse_args(
        ["rescore", "x.lat", "--model", "m", "--out", "o"]
    )
    assert args.rho == 0.03
    assert args.beta == 0.5
    assert args.k_beam == 150
    assert args.lambda_mode == "adaptive"

    train = build_parser().parse_args(["train", "--corpus", "c", "--out", "m"])
    assert train.n == 3
    assert train.laplace_k == 1.0
    assert train.w_tau == 16
    assert train.eps_dir == 1.0


def test_gen_corpus_reads_the_tala_from_a_talas_file(tmp_path, capsys):
    talas = tmp_path / "talas.txt"
    talas.write_text("tala t 4\nvibhag 1 3\ntheka Dha Na Tin Na\n", encoding="utf-8")
    out = gen_corpus(tmp_path, tala="t", count=2, extra=("--talas-file", str(talas)))
    seqs = load_sequences(out, default_vocabulary())
    assert [(s.tala_label, len(s)) for s in seqs] == [("t", 8), ("t", 8)]
    capsys.readouterr()
    argv = ["gen-corpus", "--tala", "tintal", "--seed", "1", "--out", str(tmp_path / "x.txt")]
    assert run([*argv, "--talas-file", str(talas)]) == 1
    assert capsys.readouterr().err == f"error: tala 'tintal' not in {talas}\n"


def test_config_file_true_value_sets_the_flag(tmp_path, capsys):
    corpus = gen_corpus(tmp_path, count=3)
    model_path = tmp_path / "model.tiprior"
    assert run(["train", "--corpus", str(corpus), "--out", str(model_path)]) == 0
    lat_dir = tmp_path / "lats"
    assert run(["gen-lattice", "--sequences", str(corpus), "--out-dir", str(lat_dir), "--seed", "9",
                "--branching", "3", "--noise-sigma", "0.9"]) == 0
    lats = sorted(map(str, lat_dir.glob("*.lat")))
    cfg = tmp_path / "rescore.cfg"
    cfg.write_text("baseline=true\n", encoding="utf-8")
    flag_out, file_out = tmp_path / "flag.txt", tmp_path / "file.txt"
    assert run(["rescore", *lats, "--model", str(model_path), "--out", str(flag_out), "--baseline"]) == 0
    assert run(["rescore", *lats, "--model", str(model_path), "--out", str(file_out), "--config", str(cfg)]) == 0
    assert file_out.read_text() == flag_out.read_text()
    # The file's flag meets --diagnostics like the spelled-out one.
    with pytest.raises(SystemExit) as exc:
        run(["rescore", *lats, "--model", str(model_path), "--out", str(file_out), "--config", str(cfg),
             "--diagnostics", str(tmp_path / "d.txt")])
    assert exc.value.code == 2
    assert "--baseline does not rescore" in capsys.readouterr().err


def test_gen_lattice_on_a_file_with_no_sequences_fails(tmp_path, capsys):
    seqs = tmp_path / "empty.txt"
    seqs.write_text("# no sequences\n", encoding="utf-8")
    out_dir = tmp_path / "lats"
    assert run(["gen-lattice", "--sequences", str(seqs), "--out-dir", str(out_dir), "--seed", "1"]) == 1
    assert capsys.readouterr().err == f"error: no sequences in {seqs}\n"
    assert not out_dir.exists()


def test_ser_with_more_references_than_hypotheses_fails(tmp_path, capsys):
    ref, hyp = tmp_path / "ref.txt", tmp_path / "hyp.txt"
    ref.write_text("Dha Na\nTin Na\n", encoding="utf-8")
    hyp.write_text("Dha Na\n", encoding="utf-8")
    assert run(["ser", "--ref", str(ref), "--hyp", str(hyp)]) == 1
    assert capsys.readouterr().err == "error: 2 references vs 1 hypotheses\n"


def test_bench_seed_flag_overrides_the_suite_files_seed(tmp_path):
    text = "talas=tintal\ntrain_per_tala=3\ntest_per_tala=1\ncycles=2\nbranching=2\nnoise_sigma=0.5\nk_beam=40\n"
    flagged, keyed = tmp_path / "flagged.cfg", tmp_path / "keyed.cfg"
    flagged.write_text(text + "seed=3\n", encoding="utf-8")
    keyed.write_text(text + "seed=7\n", encoding="utf-8")
    assert run(["bench", "--suite", str(flagged), "--seed", "7", "--out-dir", str(tmp_path / "flag")]) == 0
    assert run(["bench", "--suite", str(keyed), "--out-dir", str(tmp_path / "key")]) == 0
    for name in ("report.tsv", "report.txt"):
        assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "key" / name).read_bytes()
    assert (tmp_path / "flag" / "report.txt").read_text().startswith("# seed=7 ")
