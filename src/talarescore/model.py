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
symbol is on the ``vocab`` line; only an n-gram context and an ``alpha``
line's ``prev`` may hold the start sentinel ``<s>``.

A trained ``taucount`` table is prefix-closed, and :func:`dumps_model` writes
its lines sorted, so each window's line follows its prefix's and is spelled
as that line plus one symbol.  :func:`loads_model` accepts the lines in any
order and with any whitespace between fields; only its speed relies on the
order: it builds a window from its prefix's when the prefix's line, spelled
the same, is the last line before it with a window of that length, and
parses the window in full otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import _HYPERPARAMETERS, _MAX_COUNT, SENTINEL_ID, StrokeSequence, StrokeVocabulary, _check_hyperparameter
from .dynamic_model import _untrained_alpha, init_alpha
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
    for kind, value in (("n", n), ("laplace_k", laplace_k), ("w_tau", w_tau), ("eps_dir", eps_dir)):
        _check_hyperparameter(kind, value)
    if not corpus:
        raise ValueError("empty training corpus")
    top = max(max(seq.strokes) for seq in corpus)
    if top > vocab.num_playable:
        raise VocabularyError(f"stroke id out of range: {top} (the vocabulary has {vocab.num_playable} strokes)")
    prior = train_static_prior(corpus, vocab.num_playable, n=n, laplace_k=laplace_k, w_tau=w_tau)
    alpha0 = init_alpha(corpus, vocab, eps_dir=eps_dir)
    return RhythmModel(vocab=vocab, prior=prior, alpha0=alpha0, eps_dir=eps_dir)


def dumps_model(model: RhythmModel) -> str:
    """The model file's text.

    Raises ``ValueError`` for what :func:`loads_model` would refuse, naming
    the field, tala, cell or key: an ``eps_dir`` out of bounds, a tala prior
    outside (0, 1], an ``alpha0`` cell that is not positive and finite, or a
    count table with a stroke id outside the vocabulary (a window stroke
    outside 1..V, a context stroke outside 0..V), a context that is not
    ``n - 1`` strokes long, a window that is empty or longer than
    ``w_tau``, or a count that is not an ``int`` in 0..2**53.
    """
    _check_hyperparameter("eps_dir", model.eps_dir)
    prior = model.prior
    # Stroke id -> symbol as dicts, so that no id is read from the list's end.
    symbols = dict(enumerate(model.vocab.symbols))
    playable = {i: s for i, s in symbols.items() if i != SENTINEL_ID}
    lines = [
        FORMAT_HEADER,
        f"n {prior.n}",
        f"laplace_k {prior.laplace_k!r}",
        f"w_tau {prior.w_tau}",
        f"eps_dir {model.eps_dir!r}",
        "vocab " + " ".join(model.vocab.playable_symbols),
    ]
    for tala, p in sorted(prior.tala_priors.items()):
        if not 0 < p <= 1:
            raise ValueError(f"tala {tala!r}: prior {p!r} does not lie in (0, 1]")
        lines.append(f"tala {tala} {p!r}")
    top = model.vocab.num_playable
    for tala in prior.talas:
        table = prior.counts[tala]
        for ctx in sorted(table):
            row = table[ctx]
            if len(ctx) != prior.n - 1:
                raise ValueError(f"tala {tala!r}: n-gram context {ctx!r} is not n - 1 = {prior.n - 1} strokes long")
            try:
                head = " ".join(["count", tala, *[symbols[c] for c in ctx]])
            except KeyError:
                raise ValueError(f"tala {tala!r}: n-gram context {ctx!r} holds a stroke id not in 0..{top}") from None
            for nxt in sorted(row):
                count = row[nxt]
                if type(count) is not int or not 0 <= count <= _MAX_COUNT:
                    raise ValueError(
                        f"tala {tala!r}: n-gram {ctx!r} -> {nxt!r}: count {count!r} is not an int in 0..2**53"
                    )
                # The prior's constructor refused a next stroke outside 1..V.
                lines.append(f"{head} {playable[nxt]} {count}")
    w_tau = prior.w_tau
    for tala in prior.talas:
        windows = prior.window_counts[tala]
        # In sorted order, the last window one stroke shorter than a window
        # is its prefix whenever the table holds the prefix, as a trained
        # table does: the window is spelled as that line plus one symbol,
        # the only one not checked with the prefix.  A window whose prefix
        # is missing, as in a hand-edited table, is spelled in full.
        last: dict[int, tuple[tuple[int, ...], str]] = {}  # window length -> the last such window and its spelling
        for window in sorted(windows):
            count = windows[window]
            if not 0 < len(window) <= w_tau:
                raise ValueError(f"tala {tala!r}: window {window!r} is not 1..w_tau = {w_tau} strokes long")
            if type(count) is not int or not 0 <= count <= _MAX_COUNT:
                raise ValueError(f"tala {tala!r}: window {window!r}: count {count!r} is not an int in 0..2**53")
            prev = last.get(len(window) - 1)
            try:
                if prev is not None and prev[0] == window[:-1]:
                    text = f"{prev[1]} {playable[window[-1]]}"
                else:
                    text = f"taucount {tala} {' '.join([playable[c] for c in window])}"
            except KeyError:
                raise ValueError(f"tala {tala!r}: window {window!r} holds a stroke id not in 1..{top}") from None
            last[len(window)] = (window, text)
            lines.append(f"{text} {count}")
    rows, cols = np.nonzero(model.alpha0 != _untrained_alpha(model.vocab.num_playable, model.eps_dir))
    for r, c in zip(rows.tolist(), cols.tolist()):
        value = float(model.alpha0[r, c])
        if not 0 < value < math.inf:
            raise ValueError(f"alpha0[{r}, {c}] = {value!r} is not positive and finite")
        lines.append(f"alpha {symbols[r]} {symbols[c + 1]} {value!r}")
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
    playable: dict[str, int] = {}  # the same without the sentinel
    priors: dict[str, float] = {}
    ngram_counts: dict[str, dict[tuple[int, ...], dict[int, int]]] = {}
    tau_counts: dict[str, dict[tuple[int, ...], int]] = {}
    alphas: dict[tuple[int, int], float] = {}
    tala_uses: dict[str, str] = {}  # tala -> the first count line naming it
    # Window length -> the last taucount line read with a window of that
    # length, spelled "taucount <tala> <window...>", its window and its table.
    last: dict[int, tuple[str, tuple[int, ...], dict[tuple[int, ...], int]]] = {}
    for line in lines[1:]:
        # A taucount line that spells an earlier line's window plus one
        # symbol takes that window and parses only the symbol and the count;
        # any other line is split in full.  The earlier line is looked for
        # only among the last of each window length, by the spaces in the
        # text: in the order dumps_model writes, that is the prefix's line.
        parts = line.rsplit(None, 2)
        prefix = last.get(parts[0].count(" ") - 1) if len(parts) == 3 else None
        if prefix is None or prefix[0] != parts[0]:
            prefix = None
            kind, *args = line.split()
        else:
            kind = "taucount"
        # Tuple unpacking checks each directive's arity; it and every numeric
        # conversion raise ValueError, and a symbol not in ``ids`` or, where
        # only a playable stroke fits, not in ``playable`` KeyError, both
        # reported below with the line.
        try:
            if vocab is None and kind in ("count", "taucount", "alpha"):
                raise ModelFormatError(f"{kind} line before vocab line")
            if kind == "taucount":  # nearly every line of a trained model
                if prefix is None:
                    tala, *win_syms, raw = args
                    window = tuple([playable[s] for s in win_syms])
                    windows = tau_counts.get(tala)
                    if windows is None:
                        windows = tau_counts[tala] = {}
                        tala_uses.setdefault(tala, line)
                else:
                    _, window, windows = prefix
                    window += (playable[parts[1]],)
                    raw = parts[2]
                count = int(raw)
                if not (0 <= count <= _MAX_COUNT and 0 < len(window) <= header["w_tau"]):
                    raise ValueError("want a window of 1..w_tau strokes and a count in 0..2**53")
                if window in windows:
                    raise ValueError("repeated taucount key")
                windows[window] = count
                last[len(window)] = (f"{parts[0]} {parts[1]}", window, windows)
            elif kind == "count":
                tala, *ctx_syms, nxt_sym, raw = args
                if len(ctx_syms) != header["n"] - 1:
                    raise ValueError(f"want a context of n-1 = {header['n'] - 1} strokes")
                ctx = tuple([ids[s] for s in ctx_syms])
                nxt = playable[nxt_sym]
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
                key = (ids[prev_sym], playable[next_sym])
                if key in alphas:
                    raise ValueError("repeated alpha key")
                alphas[key] = value
            elif kind in _HYPERPARAMETERS:
                if kind in header:
                    raise ValueError(f"repeated {kind} line")
                (raw,) = args
                value = _HYPERPARAMETERS[kind](raw)
                _check_hyperparameter(kind, value)
                header[kind] = value
            elif kind == "vocab":
                if vocab is not None:
                    raise ValueError("repeated vocab line")
                # Count keys, which follow the vocab line, are checked
                # against n and w_tau as they are read.
                missing = set(_HYPERPARAMETERS) - set(header)
                if missing:
                    raise ModelFormatError(f"missing header fields {sorted(missing)} before the vocab line")
                vocab = StrokeVocabulary.of(args)
                ids = {s: i for i, s in enumerate(vocab.symbols)}
                playable = {s: i for s, i in ids.items() if i != SENTINEL_ID}
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
            symbol = exc.args[0]
            why = f"{symbol!r} is not a playable stroke" if symbol in ids else f"unknown stroke symbol {symbol!r}"
            raise ModelFormatError(f"bad {kind} line {line!r}: {why}") from None
    missing = set(_HYPERPARAMETERS) - set(header)
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
    alpha0 = _untrained_alpha(vocab.num_playable, eps_dir)
    for (prev, nxt), value in alphas.items():
        alpha0[prev, nxt - 1] = value
    return RhythmModel(vocab=vocab, prior=prior, alpha0=alpha0, eps_dir=eps_dir)

