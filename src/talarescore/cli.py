"""Command-line interface: corpus/lattice generation, training, rescoring,
evaluation, and ablation sweeps.

Exit codes: 0 success, 1 runtime failure, 2 usage error.  A ``--config PATH``
(or ``--config=PATH``) file holds flat ``key=value`` pairs (keys are flag
names with dashes or underscores); explicit flags override file values.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

from . import core, eval as evaluation, lattice as lattice_mod, model as model_mod, rescorer
from .errors import TalarescoreError


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        argv, config = _apply_config_file(argv)
    except (ValueError, OSError) as exc:
        parser.error(f"--config: {exc}")
    args = parser.parse_args(argv)
    if getattr(args, "config", None) != config:
        parser.error("give --config once, as --config PATH or --config=PATH")
    if getattr(args, "baseline", False) and (args.diagnostics or args.dump_expanded_dir):
        parser.error("--baseline does not rescore, so it has no --diagnostics or --dump-expanded-dir to write")
    try:
        return args.func(args)
    except (TalarescoreError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="talarescore", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="generate tala-structured stroke sequences")
    p.add_argument("--tala", required=True, help="builtin tala name")
    p.add_argument("--cycles", type=int, default=3)
    p.add_argument("--count", type=int, default=1, help="sequences to generate")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--p-tihai", type=float, default=0.0)
    p.add_argument("--p-sub", type=float, default=0.0)
    p.add_argument("--vocab", type=Path, default=None, help="vocabulary file")
    p.add_argument("--talas-file", type=Path, default=None, help="tala spec file overriding builtins")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--config", type=Path, default=None)
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser("gen-lattice", help="generate synthetic lattices for a sequence file")
    p.add_argument("--sequences", type=Path, required=True)
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--branching", type=int, default=3)
    p.add_argument("--noise-sigma", type=float, default=0.85)
    p.add_argument("--margin", type=float, default=1.0)
    p.add_argument("--p-del", type=float, default=0.0)
    p.add_argument("--p-ins", type=float, default=0.0)
    p.add_argument("--vocab", type=Path, default=None)
    p.add_argument("--config", type=Path, default=None)
    p.set_defaults(func=cmd_gen_lattice)

    p = sub.add_parser("train", help="train a rhythm model from a labeled corpus")
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--n", type=int, default=3, help="n-gram order, at most 32")
    p.add_argument("--laplace-k", type=float, default=1.0)
    p.add_argument("--w-tau", type=int, default=16)
    p.add_argument("--eps-dir", type=float, default=1.0)
    p.add_argument("--vocab", type=Path, default=None)
    p.add_argument("--config", type=Path, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("rescore", help="rescore lattice files with a trained model")
    p.add_argument("lattices", type=Path, nargs="+")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--baseline", action="store_true", help="acoustic-only Viterbi instead")
    _add_rescore_flags(p)
    p.add_argument("--dump-expanded-dir", type=Path, default=None)
    p.add_argument("--diagnostics", type=Path, default=None, help="beam counters and the winner's path, term by term")
    p.add_argument("--config", type=Path, default=None)
    p.set_defaults(func=cmd_rescore)

    p = sub.add_parser("bench", help="run the benchmark sweep and write reports")
    p.add_argument("--suite", type=Path, default=None, help="suite config file (key=value)")
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--seed", type=int, default=None, help="override suite seed")
    p.add_argument("--data-efficiency", action="store_true")
    p.add_argument("--config", type=Path, default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("ser", help="stroke error rate between reference and hypothesis files")
    p.add_argument("--ref", type=Path, required=True)
    p.add_argument("--hyp", type=Path, required=True)
    p.add_argument("--vocab", type=Path, default=None)
    p.add_argument("--config", type=Path, default=None)
    p.set_defaults(func=cmd_ser)
    return parser


def _add_rescore_flags(p: argparse.ArgumentParser) -> None:
    defaults = rescorer.RescoreConfig()
    p.add_argument("--rho", type=float, default=defaults.rho)
    p.add_argument("--beta", type=float, default=defaults.beta)
    p.add_argument("--k-beam", type=int, default=defaults.k_beam)
    p.add_argument("--lambda", dest="lambda_mode", default=defaults.lambda_mode, help="adaptive or fixed:<v>")


def _apply_config_file(argv: list[str]) -> tuple[list[str], Path | None]:
    """Insert file-provided values as flags before the explicit ones.

    Returns the new argument list and the file read, if any.
    """
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            path = Path(argv[i + 1])
            break
        if token.startswith("--config="):
            path = Path(token.split("=", 1)[1])
            break
    else:
        return argv, None
    injected: list[str] = []
    for key, value in read_config_file(path).items():
        flag = "--" + key.replace("_", "-")
        if value.lower() in ("true", "false"):
            if value.lower() == "true":
                injected.append(flag)
        else:
            injected += [flag, value]
    # argparse lets later occurrences win, so explicit flags override the file.
    return argv[:1] + injected + argv[1:], path


def read_config_file(path: Path) -> dict[str, str]:
    values: dict[str, str] = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (want key=value): {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise ValueError(f"repeated config key {key!r}")
        values[key] = value
    return values


def _load_vocab(path: Path | None) -> core.StrokeVocabulary:
    return core.load_vocabulary(path) if path else core.default_vocabulary()


def _resolve_tala(name: str, vocab: core.StrokeVocabulary, talas_file: Path | None) -> core.TalaSpec:
    if talas_file:
        specs = core.load_tala_specs(talas_file, vocab)
        for spec in specs:
            if spec.name == name:
                return spec
        raise ValueError(f"tala {name!r} not in {talas_file}")
    return core.builtin_tala(name, vocab)


def cmd_gen_corpus(args: argparse.Namespace) -> int:
    vocab = _load_vocab(args.vocab)
    tala = _resolve_tala(args.tala, vocab, args.talas_file)
    deviation = core.DeviationConfig(p_tihai=args.p_tihai, p_sub=args.p_sub)
    seqs = [
        core.generate_sequence(tala, args.cycles, deviation, args.seed + i, vocab)
        for i in range(args.count)
    ]
    core.save_sequences(seqs, args.out, vocab)
    print(f"wrote {len(seqs)} sequence(s) to {args.out}")
    return 0


def cmd_gen_lattice(args: argparse.Namespace) -> int:
    vocab = _load_vocab(args.vocab)
    seqs = core.load_sequences(args.sequences, vocab)
    if not seqs:
        raise ValueError(f"no sequences in {args.sequences}")
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for i, seq in enumerate(seqs):
        cfg = lattice_mod.LatticeGenConfig(
            rng_seed=evaluation.split_seed(args.seed, 2, i),
            branching=args.branching,
            noise_sigma=args.noise_sigma,
            margin=args.margin,
            p_del=args.p_del,
            p_ins=args.p_ins,
        )
        lat = lattice_mod.generate_lattice(seq, cfg, vocab)
        lattice_mod.save_lattice(lat, args.out_dir / f"{i:04d}.lat")
    print(f"wrote {len(seqs)} lattice(s) to {args.out_dir}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    vocab = _load_vocab(args.vocab)
    corpus = core.load_sequences(args.corpus, vocab)
    model = model_mod.train_model(
        corpus,
        vocab,
        n=args.n,
        laplace_k=args.laplace_k,
        w_tau=args.w_tau,
        eps_dir=args.eps_dir,
    )
    model_mod.save_model(model, args.out)
    print(f"trained on {len(corpus)} sequence(s); model written to {args.out}")
    return 0


def cmd_rescore(args: argparse.Namespace) -> int:
    model = model_mod.load_model(args.model)
    # Every decode setting is a flag of the same name.
    cfg = rescorer.RescoreConfig(**{f.name: getattr(args, f.name) for f in fields(rescorer.RescoreConfig)})
    if args.dump_expanded_dir is None:
        return _rescore_files(args, model, cfg, None)
    args.dump_expanded_dir.mkdir(parents=True, exist_ok=True)
    # The dumps are staged beside their destination and moved into place only
    # when every lattice decodes, like the other outputs.
    with tempfile.TemporaryDirectory(prefix=".staging-", dir=args.dump_expanded_dir) as staging:
        return _rescore_files(args, model, cfg, Path(staging))


def _rescore_files(
    args: argparse.Namespace, model: model_mod.RhythmModel, cfg: rescorer.RescoreConfig, staging: Path | None
) -> int:
    outputs: list[core.StrokeSequence] = []
    failures: list[tuple[Path, Exception]] = []
    diag_lines: list[str] = []
    for i, path in enumerate(args.lattices):
        try:
            lat = lattice_mod.load_lattice(path, vocab=model.vocab)
            if args.baseline:
                outputs.append(lattice_mod.viterbi_acoustic(lat))
            else:
                hyp, expanded, diag = rescorer.rescore(lat, model, cfg)
                outputs.append(hyp)
                if staging is not None:
                    rescorer.save_expanded(expanded, staging / f"{i:04d}.exp")
                if args.diagnostics is not None:
                    terms = rescorer.path_terms(lat, model, cfg, expanded.arc_chain(diag.best_state))
                    diag_lines += _diagnostic_lines(path, diag, terms, model.vocab)
        except (TalarescoreError, ValueError, OSError) as exc:
            failures.append((path, exc))
    if failures:
        # Hypothesis line i must belong to lattice i, so a partial run writes
        # no output file and no dump.
        for path, exc in failures:
            print(f"error: {path}: {exc}", file=sys.stderr)
        return 1
    core.save_sequences(outputs, args.out, model.vocab)
    if args.diagnostics is not None:
        args.diagnostics.write_text("".join(f"{l}\n" for l in diag_lines), encoding="utf-8")
    if staging is not None:
        for dump in sorted(staging.iterdir()):
            dump.replace(args.dump_expanded_dir / dump.name)
    print(f"rescored {len(outputs)} lattice(s) into {args.out}")
    return 0


def _diagnostic_lines(
    path: Path, diag: rescorer.RescoreDiagnostics, terms: list[rescorer.StepTrace], vocab: core.StrokeVocabulary
) -> list[str]:
    lines = [
        f"# lattice {path}",
        f"summary pops={diag.pops} pushes={diag.pushes} "
        f"pruned_capacity={diag.pruned_capacity} max_queue={diag.max_queue_size}",
    ]
    for t in terms:
        p_static, p_dyn, p_comb = (",".join(f"{p:.6f}" for p in dist) for dist in (t.p_static, t.p_dyn, t.p_comb))
        lines.append(
            f"arc depth={t.depth} node={t.node} id={t.arc_id} stroke={vocab.symbol_of(t.stroke)} w_ac={t.w_ac!r} "
            f"C={t.confidence:.6f} D={t.divergence:.6f} lambda={t.lam:.6f} "
            f"p_static={p_static} p_dyn={p_dyn} p_comb={p_comb} weight={t.weight!r}"
        )
    return lines


def cmd_bench(args: argparse.Namespace) -> int:
    values = read_config_file(args.suite) if args.suite else {}
    suite = evaluation.suite_from_config(values, seed_override=args.seed)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    if args.data_efficiency:
        tsv = "subset\tconfig\tser\timprovement_abs\timprovement_rel\n"
        tables = []
        for name, fraction in evaluation.DATA_EFFICIENCY_SUBSETS:
            report = evaluation.run_benchmark(replace(suite, train_fraction=fraction))
            tsv += "".join(f"{name}\t{line}" for line in report.to_tsv().splitlines(keepends=True)[1:])
            tables.append(f"== training subset: {name} ==\n{report.to_table()}")
        table = "\n".join(tables)
    else:
        report = evaluation.run_benchmark(suite)
        tsv, table = report.to_tsv(), report.to_table()
    (args.out_dir / "report.tsv").write_text(tsv, encoding="utf-8")
    (args.out_dir / "report.txt").write_text(table, encoding="utf-8")
    print(f"reports written to {args.out_dir}")
    return 0


def cmd_ser(args: argparse.Namespace) -> int:
    vocab = _load_vocab(args.vocab)
    refs = core.load_sequences(args.ref, vocab)
    hyps = core.load_sequences(args.hyp, vocab)
    if len(refs) != len(hyps):
        raise ValueError(f"{len(refs)} references vs {len(hyps)} hypotheses")
    pooled = evaluation.EditStats()
    for i, (ref, hyp) in enumerate(zip(refs, hyps)):
        stats = evaluation.ser(ref, hyp)
        pooled = pooled + stats
        print(
            f"seq {i}: S={stats.substitutions} D={stats.deletions} "
            f"I={stats.insertions} N={stats.n_ref} SER={stats.ser:.4f}"
        )
    print(
        f"total: S={pooled.substitutions} D={pooled.deletions} "
        f"I={pooled.insertions} N={pooled.n_ref} SER={pooled.ser:.4f}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
