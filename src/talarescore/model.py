"""The trained rhythm model: static prior tables plus dynamic initialization.

Persists to a versioned line-oriented text file that round-trips exactly:

    tiprior v1
    n 3
    laplace_k 1.0
    w_tau 16
    eps_dir 1.0
    vocab Dha Dhin Na Tin Ta
    tala jhaptal 0.38...
    tala tintal 0.61...
    count <tala> <ctx...> <next> <count>
    taucount <tala> <window...> <count>
    alpha <prev> <next> <value>

``alpha`` lines carry only entries that differ from their defaults (``eps_dir``
on playable rows, 1 on the sentinel row).  Counts and ``laplace_k`` are at
most 2**53, tala priors lie in (0, 1], and ``laplace_k`` times at least one tala
prior is positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import SENTINEL_ID, StrokeSequence, StrokeVocabulary
from .dynamic_model import DirichletState, init_alpha
from .errors import ModelFormatError
from .static_prior import (
    NGramPrior,
    TalaIndependentPrior,
    TalaPosteriorTable,
    train_prior,
    train_tala_table,
)

FORMAT_HEADER = "tiprior v1"


@dataclass(eq=False)
class RhythmModel:
    """Immutable bundle of trained tables; share freely across threads."""

    vocab: StrokeVocabulary
    prior: NGramPrior
    tala_table: TalaPosteriorTable
    alpha0: np.ndarray
    eps_dir: float
    _static: TalaIndependentPrior | None = field(default=None, repr=False)

    def static_prior(self) -> TalaIndependentPrior:
        """The memoizing next-stroke prior, built once and shared by every decode."""
        if self._static is None:
            self._static = TalaIndependentPrior(self.prior, self.tala_table)
        return self._static

    def initial_dirichlet(self, rho: float) -> DirichletState:
        return DirichletState(alpha=self.alpha0.copy(), rho=rho)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RhythmModel):
            return NotImplemented
        return (
            self.vocab == other.vocab
            and self.prior == other.prior
            and self.tala_table == other.tala_table
            and np.array_equal(self.alpha0, other.alpha0)
            and self.eps_dir == other.eps_dir
        )


def train_model(
    corpus: Sequence[StrokeSequence],
    vocab: StrokeVocabulary,
    n: int = 3,
    laplace_k: float = 1.0,
    w_tau: int = 16,
    eps_dir: float = 1.0,
) -> RhythmModel:
    """Train all tables from a tala-labeled corpus."""
    if not corpus:
        raise ValueError("empty training corpus")
    prior = train_prior(corpus, vocab, n=n, laplace_k=laplace_k)
    table = train_tala_table(corpus, w_tau=w_tau, laplace_k=laplace_k)
    alpha0 = init_alpha(corpus, vocab, eps_dir=eps_dir)
    return RhythmModel(vocab=vocab, prior=prior, tala_table=table, alpha0=alpha0, eps_dir=eps_dir)


def dumps_model(model: RhythmModel) -> str:
    vocab = model.vocab
    lines = [
        FORMAT_HEADER,
        f"n {model.prior.n}",
        f"laplace_k {model.prior.laplace_k!r}",
        f"w_tau {model.tala_table.w_tau}",
        f"eps_dir {model.eps_dir!r}",
        "vocab " + " ".join(vocab.playable_symbols),
    ]
    for tala in model.tala_table.talas:
        lines.append(f"tala {tala} {model.tala_table.priors[tala]!r}")
    for tala in sorted(model.prior.counts):
        table = model.prior.counts[tala]
        for ctx in sorted(table):
            for nxt in sorted(table[ctx]):
                ctx_syms = " ".join(vocab.symbol_of(c) for c in ctx)
                parts = ["count", tala]
                if ctx_syms:
                    parts.append(ctx_syms)
                parts += [vocab.symbol_of(nxt), str(table[ctx][nxt])]
                lines.append(" ".join(parts))
    for tala in sorted(model.tala_table.counts):
        windows = model.tala_table.counts[tala]
        for window in sorted(windows):
            win_syms = " ".join(vocab.symbol_of(c) for c in window)
            lines.append(f"taucount {tala} {win_syms} {windows[window]}")
    defaults = np.full_like(model.alpha0, model.eps_dir)
    defaults[SENTINEL_ID, :] = 1.0
    rows, cols = np.nonzero(model.alpha0 != defaults)
    for r, c in zip(rows.tolist(), cols.tolist()):
        lines.append(
            f"alpha {vocab.symbol_of(r)} {vocab.symbol_of(c + 1)} {float(model.alpha0[r, c])!r}"
        )
    return "".join(f"{l}\n" for l in lines)


def save_model(model: RhythmModel, path: str | Path) -> None:
    Path(path).write_text(dumps_model(model), encoding="utf-8")


def load_model(path: str | Path) -> RhythmModel:
    return loads_model(Path(path).read_text(encoding="utf-8"))


def loads_model(text: str) -> RhythmModel:
    lines = [l.strip() for l in text.splitlines() if l.strip() and not l.startswith("#")]
    if not lines or lines[0] != FORMAT_HEADER:
        raise ModelFormatError(f"expected header {FORMAT_HEADER!r}")
    header: dict[str, float] = {}
    vocab: StrokeVocabulary | None = None
    priors: dict[str, float] = {}
    ngram_counts: dict[str, dict[tuple[int, ...], dict[int, int]]] = {}
    tau_counts: dict[str, dict[tuple[int, ...], int]] = {}
    alphas: dict[tuple[int, int], float] = {}
    tala_uses: dict[str, str] = {}  # tala -> the first count line naming it
    for line in lines[1:]:
        kind, *args = line.split()
        # Tuple unpacking checks each directive's arity; it and every numeric
        # conversion raise ValueError, reported below with the line.
        try:
            if kind in _HEADER_FIELDS:
                if kind in header:
                    raise ValueError(f"repeated {kind} line")
                (raw,) = args
                value = _HEADER_FIELDS[kind](raw)
                if not (value > 0 and math.isfinite(value)):
                    raise ValueError(f"{kind} must be positive and finite")
                if kind == "laplace_k" and value > _MAX_COUNT:
                    raise ValueError("laplace_k must not exceed 2**53")
                header[kind] = value
            elif kind == "vocab":
                if vocab is not None:
                    raise ValueError("repeated vocab line")
                # Count keys, which follow the vocab line, are checked
                # against n and w_tau as they are read.
                missing = set(_HEADER_FIELDS) - set(header)
                if missing:
                    raise ModelFormatError(f"missing header fields {sorted(missing)} before the vocab line")
                vocab = StrokeVocabulary.of(args)
            elif kind in ("count", "taucount", "alpha") and vocab is None:
                raise ModelFormatError(f"{kind} line before vocab line")
            elif kind == "tala":
                tala, raw = args
                prior = float(raw)
                if not 0 < prior <= 1:
                    raise ValueError("tala prior must lie in (0, 1]")
                if tala in priors:
                    raise ValueError(f"repeated tala {tala!r}")
                priors[tala] = prior
            elif kind == "count":
                tala, *ctx_syms, nxt_sym, raw = args
                if len(ctx_syms) != header["n"] - 1:
                    raise ValueError(f"want a context of n-1 = {header['n'] - 1} strokes")
                ctx = tuple(vocab.id_of(s) for s in ctx_syms)
                nxt = _playable_id(vocab, nxt_sym)
                count = int(raw)
                if not 0 <= count <= _MAX_COUNT:
                    raise ValueError("count must lie in 0..2**53")
                row = ngram_counts.setdefault(tala, {}).setdefault(ctx, {})
                if nxt in row:
                    raise ValueError("repeated count key")
                row[nxt] = count
                tala_uses.setdefault(tala, line)
            elif kind == "taucount":
                tala, *win_syms, raw = args
                window = tuple(vocab.id_of(s) for s in win_syms)
                count = int(raw)
                if not (0 <= count <= _MAX_COUNT and 0 < len(window) <= header["w_tau"]):
                    raise ValueError("want a window of 1..w_tau strokes and a count in 0..2**53")
                windows = tau_counts.setdefault(tala, {})
                if window in windows:
                    raise ValueError("repeated taucount key")
                windows[window] = count
                tala_uses.setdefault(tala, line)
            elif kind == "alpha":
                prev_sym, next_sym, raw = args
                value = float(raw)
                if not (value > 0 and math.isfinite(value)):
                    raise ValueError("alpha must be positive and finite")
                key = (vocab.id_of(prev_sym), _playable_id(vocab, next_sym))
                if key in alphas:
                    raise ValueError("repeated alpha key")
                alphas[key] = value
            else:
                raise ModelFormatError(f"unknown directive: {kind!r}")
        except ValueError as exc:
            raise ModelFormatError(f"bad {kind} line {line!r}: {exc}") from None
    missing = set(_HEADER_FIELDS) - set(header)
    if missing:
        raise ModelFormatError(f"missing header fields: {sorted(missing)}")
    if vocab is None:
        raise ModelFormatError("missing vocab line")
    if not priors:
        raise ModelFormatError("no tala lines")
    for tala, line in tala_uses.items():
        if tala not in priors:
            raise ModelFormatError(f"bad {line.split()[0]} line {line!r}: no tala line for {tala!r}")
    eps_dir = header["eps_dir"]
    for tala in priors:
        ngram_counts.setdefault(tala, {})
        tau_counts.setdefault(tala, {})
    prior = NGramPrior(header["n"], header["laplace_k"], vocab.num_playable, ngram_counts)
    try:
        table = TalaPosteriorTable(header["w_tau"], header["laplace_k"], tau_counts, priors)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None
    alpha0 = np.full((vocab.num_symbols, vocab.num_playable), eps_dir, dtype=float)
    alpha0[SENTINEL_ID, :] = 1.0
    for (prev, nxt), value in alphas.items():
        alpha0[prev, nxt - 1] = value
    return RhythmModel(vocab=vocab, prior=prior, tala_table=table, alpha0=alpha0, eps_dir=eps_dir)


_HEADER_FIELDS = {"n": int, "laplace_k": float, "w_tau": int, "eps_dir": float}
# The largest count or laplace_k: with tala priors in (0, 1], every n-gram row
# total and tala posterior weight stays finite.
_MAX_COUNT = 2**53


def _playable_id(vocab: StrokeVocabulary, symbol: str) -> int:
    stroke_id = vocab.id_of(symbol)
    if stroke_id == SENTINEL_ID:
        raise ValueError(f"{symbol!r} is not a playable stroke")
    return stroke_id
