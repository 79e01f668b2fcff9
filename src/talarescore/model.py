"""The trained rhythm model: the static prior plus the Dirichlet initialization.

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
on playable rows, 1 on the sentinel row).  ``n`` is at most 32.  Counts,
``w_tau`` and ``laplace_k`` are at most 2**53, tala priors lie in (0, 1],
``laplace_k`` times at least one tala prior is positive, and every stroke
symbol is on the ``vocab`` line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import SENTINEL_ID, StrokeSequence, StrokeVocabulary
from .dynamic_model import init_alpha
from .errors import ModelFormatError, VocabularyError, VocabularyMismatchError
from .static_prior import TalaIndependentPrior, train_static_prior

FORMAT_HEADER = "tiprior v1"


@dataclass(eq=False)
class RhythmModel:
    """Immutable bundle of trained tables; share freely across threads.  Every
    decode steps the one ``prior``, so its memo stays warm across decodes."""

    vocab: StrokeVocabulary
    prior: TalaIndependentPrior
    alpha0: np.ndarray
    eps_dir: float

    def __post_init__(self) -> None:
        if self.prior.num_playable != self.vocab.num_playable:
            raise VocabularyMismatchError(
                f"the prior covers {self.prior.num_playable} strokes, the vocabulary {self.vocab.num_playable}"
            )
        shape = (self.vocab.num_symbols, self.vocab.num_playable)
        if self.alpha0.shape != shape:
            raise VocabularyMismatchError(f"alpha0 has shape {self.alpha0.shape}, the vocabulary needs {shape}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RhythmModel):
            return NotImplemented
        return (
            self.vocab == other.vocab
            and self.prior == other.prior
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
    """Train all tables from a tala-labeled corpus; ``n``, ``laplace_k``,
    ``w_tau`` and ``eps_dir`` must lie in the model file's header bounds, and
    every stroke id in ``vocab``, so it loads back."""
    _check_header_field("n", n)
    _check_header_field("laplace_k", laplace_k)
    _check_header_field("w_tau", w_tau)
    _check_header_field("eps_dir", eps_dir)
    if not corpus:
        raise ValueError("empty training corpus")
    top = max(max(seq.strokes) for seq in corpus)
    if top > vocab.num_playable:
        raise VocabularyError(f"stroke id out of range: {top} (the vocabulary has {vocab.num_playable} strokes)")
    prior = train_static_prior(corpus, vocab.num_playable, n=n, laplace_k=laplace_k, w_tau=w_tau)
    alpha0 = init_alpha(corpus, vocab, eps_dir=eps_dir)
    return RhythmModel(vocab=vocab, prior=prior, alpha0=alpha0, eps_dir=eps_dir)


def dumps_model(model: RhythmModel) -> str:
    symbols, prior = model.vocab.symbols, model.prior
    lines = [
        FORMAT_HEADER,
        f"n {prior.n}",
        f"laplace_k {prior.laplace_k!r}",
        f"w_tau {prior.w_tau}",
        f"eps_dir {model.eps_dir!r}",
        "vocab " + " ".join(model.vocab.playable_symbols),
    ]
    for tala in prior.talas:
        lines.append(f"tala {tala} {prior.tala_priors[tala]!r}")
    for tala in prior.talas:
        table = prior.counts[tala]
        for ctx in sorted(table):
            row = table[ctx]
            head = " ".join(["count", tala, *[symbols[c] for c in ctx]])
            lines += [f"{head} {symbols[nxt]} {row[nxt]}" for nxt in sorted(row)]
    for tala in prior.talas:
        windows = prior.window_counts[tala]
        lines += [
            f"taucount {tala} {' '.join([symbols[c] for c in window])} {windows[window]}"
            for window in sorted(windows)
        ]
    defaults = np.full_like(model.alpha0, model.eps_dir)
    defaults[SENTINEL_ID, :] = 1.0
    rows, cols = np.nonzero(model.alpha0 != defaults)
    for r, c in zip(rows.tolist(), cols.tolist()):
        lines.append(f"alpha {symbols[r]} {symbols[c + 1]} {float(model.alpha0[r, c])!r}")
    return "\n".join(lines) + "\n"


def save_model(model: RhythmModel, path: str | Path) -> None:
    Path(path).write_text(dumps_model(model), encoding="utf-8")


def load_model(path: str | Path) -> RhythmModel:
    return loads_model(Path(path).read_text(encoding="utf-8"))


def loads_model(text: str) -> RhythmModel:
    lines = [s for l in text.splitlines() if (s := l.strip()) and not s.startswith("#")]
    if not lines or lines[0] != FORMAT_HEADER:
        raise ModelFormatError(f"expected header {FORMAT_HEADER!r}")
    header: dict[str, float] = {}
    vocab: StrokeVocabulary | None = None
    ids: dict[str, int] = {}  # symbol -> stroke id, filled by the vocab line
    priors: dict[str, float] = {}
    ngram_counts: dict[str, dict[tuple[int, ...], dict[int, int]]] = {}
    tau_counts: dict[str, dict[tuple[int, ...], int]] = {}
    alphas: dict[tuple[int, int], float] = {}
    tala_uses: dict[str, str] = {}  # tala -> the first count line naming it
    for line in lines[1:]:
        kind, *args = line.split()
        # Tuple unpacking checks each directive's arity; it and every numeric
        # conversion raise ValueError, and a symbol not in ``ids`` KeyError,
        # both reported below with the line.
        try:
            if vocab is None and kind in ("count", "taucount", "alpha"):
                raise ModelFormatError(f"{kind} line before vocab line")
            if kind == "taucount":  # nearly every line of a trained model
                tala, *win_syms, raw = args
                window = tuple([ids[s] for s in win_syms])
                count = int(raw)
                if not (0 <= count <= _MAX_COUNT and 0 < len(window) <= header["w_tau"]):
                    raise ValueError("want a window of 1..w_tau strokes and a count in 0..2**53")
                windows = tau_counts.get(tala)
                if windows is None:
                    windows = tau_counts[tala] = {}
                    tala_uses.setdefault(tala, line)
                if window in windows:
                    raise ValueError("repeated taucount key")
                windows[window] = count
            elif kind == "count":
                tala, *ctx_syms, nxt_sym, raw = args
                if len(ctx_syms) != header["n"] - 1:
                    raise ValueError(f"want a context of n-1 = {header['n'] - 1} strokes")
                ctx = tuple([ids[s] for s in ctx_syms])
                nxt = _playable_id(ids, nxt_sym)
                count = int(raw)
                if not 0 <= count <= _MAX_COUNT:
                    raise ValueError("count must lie in 0..2**53")
                row = ngram_counts.setdefault(tala, {}).setdefault(ctx, {})
                if nxt in row:
                    raise ValueError("repeated count key")
                row[nxt] = count
                tala_uses.setdefault(tala, line)
            elif kind == "alpha":
                prev_sym, next_sym, raw = args
                value = float(raw)
                if not (value > 0 and math.isfinite(value)):
                    raise ValueError("alpha must be positive and finite")
                key = (ids[prev_sym], _playable_id(ids, next_sym))
                if key in alphas:
                    raise ValueError("repeated alpha key")
                alphas[key] = value
            elif kind in _HEADER_FIELDS:
                if kind in header:
                    raise ValueError(f"repeated {kind} line")
                (raw,) = args
                value = _HEADER_FIELDS[kind](raw)
                _check_header_field(kind, value)
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
                ids = {s: i for i, s in enumerate(vocab.symbols)}
            elif kind == "tala":
                tala, raw = args
                prior = float(raw)
                if not 0 < prior <= 1:
                    raise ValueError("tala prior must lie in (0, 1]")
                if tala in priors:
                    raise ValueError(f"repeated tala {tala!r}")
                priors[tala] = prior
            else:
                raise ModelFormatError(f"unknown directive: {kind!r}")
        except ValueError as exc:
            raise ModelFormatError(f"bad {kind} line {line!r}: {exc}") from None
        except KeyError as exc:
            raise ModelFormatError(f"bad {kind} line {line!r}: unknown stroke symbol {exc.args[0]!r}") from None
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
    try:
        prior = TalaIndependentPrior(
            n=header["n"], laplace_k=header["laplace_k"], w_tau=header["w_tau"], num_playable=vocab.num_playable,
            counts=ngram_counts, window_counts=tau_counts, tala_priors=priors,
        )
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None
    alpha0 = np.full((vocab.num_symbols, vocab.num_playable), eps_dir, dtype=float)
    alpha0[SENTINEL_ID, :] = 1.0
    for (prev, nxt), value in alphas.items():
        alpha0[prev, nxt - 1] = value
    return RhythmModel(vocab=vocab, prior=prior, alpha0=alpha0, eps_dir=eps_dir)


_HEADER_FIELDS = {"n": int, "laplace_k": float, "w_tau": int, "eps_dir": float}
# The largest count, laplace_k, n or w_tau: with tala priors in (0, 1], every
# n-gram row total and tala posterior weight stays finite.  n and w_tau share
# the bound so that no header value is too large for a float.
_MAX_COUNT = 2**53
# The largest n-gram order.  Every decode state pads its context to n - 1
# strokes, so decode time and memory grow with n even where no count line
# reads that far back.
_MAX_ORDER = 32


def _check_header_field(kind: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` lies in the ``kind`` header's bounds."""
    if _HEADER_FIELDS[kind] is int and (isinstance(value, bool) or not isinstance(value, int)):
        raise ValueError(f"{kind} must be an integer")
    # Unlike math.isfinite, a comparison takes an int too large for a float.
    if not 0 < value < math.inf:
        raise ValueError(f"{kind} must be positive and finite")
    if kind != "eps_dir" and value > _MAX_COUNT:
        raise ValueError(f"{kind} must not exceed 2**53")
    if kind == "n" and value > _MAX_ORDER:
        raise ValueError(f"n must not exceed {_MAX_ORDER}")


def _playable_id(ids: dict[str, int], symbol: str) -> int:
    stroke_id = ids[symbol]
    if stroke_id == SENTINEL_ID:
        raise ValueError(f"{symbol!r} is not a playable stroke")
    return stroke_id
