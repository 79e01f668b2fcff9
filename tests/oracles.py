"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from scratch against the defining
formulas, using plain Python dicts and math, and reads only raw count tables;
none of it shares code with the implementation paths it verifies.
The package objects here are ``EXHAUSTIVE``, the decode setting whose beam
never cuts, against which the oracles are compared, and the divergence's
smoothing constant ``_EPS_JSD``.
"""

from __future__ import annotations

import math

from talarescore.fusion import _EPS_JSD
from talarescore.rescorer import RescoreConfig

SENTINEL_ID = 0
EXHAUSTIVE = RescoreConfig(k_beam=10**9)


def levenshtein_distance(a, b) -> int:
    """Rolling-array unit-cost edit distance (distance only)."""
    a = list(a)
    b = list(b)
    if len(a) > len(b):
        a, b = b, a
    prev = list(range(len(a) + 1))
    for j, y in enumerate(b, start=1):
        cur = [j] + [0] * len(a)
        for i, x in enumerate(a, start=1):
            cur[i] = min(prev[i] + 1, cur[i - 1] + 1, prev[i - 1] + (x != y))
        prev = cur
    return prev[-1]


def edit_decomposition(ref, hyp) -> tuple[int, int, int]:
    """(substitutions, deletions, insertions) of one minimal alignment.

    ``cost[i, j]`` is the unit-cost edit distance between the first ``i``
    items of ``ref`` and the first ``j`` of ``hyp``, every cell filled.  The
    walk back from the full corner takes, among the moves that reach it at
    optimal cost, a diagonal step (match or substitution) first, then an
    insertion (a hyp item with no ref partner), then a deletion.
    """
    ref = list(ref)
    hyp = list(hyp)
    cost = {}
    for i in range(len(ref) + 1):
        for j in range(len(hyp) + 1):
            if i == 0 or j == 0:
                cost[i, j] = i + j
                continue
            diagonal = cost[i - 1, j - 1] + (0 if ref[i - 1] == hyp[j - 1] else 1)
            cost[i, j] = min(diagonal, cost[i, j - 1] + 1, cost[i - 1, j] + 1)
    counts = {"sub": 0, "del": 0, "ins": 0}
    i, j = len(ref), len(hyp)
    while (i, j) != (0, 0):
        same = i > 0 and j > 0 and ref[i - 1] == hyp[j - 1]
        if i > 0 and j > 0 and cost[i, j] == cost[i - 1, j - 1] + (0 if same else 1):
            if not same:
                counts["sub"] += 1
            i, j = i - 1, j - 1
        elif j > 0 and cost[i, j] == cost[i, j - 1] + 1:
            counts["ins"] += 1
            j -= 1
        else:
            counts["del"] += 1
            i -= 1
    return counts["sub"], counts["del"], counts["ins"]


def all_paths(lat):
    """Every start-to-final path as (arc_id_tuple, label_tuple, score).

    Straightforward worklist enumeration over explicit prefixes.
    """
    prefixes = [(lat.start, (), (), 0.0)]
    done = []
    while prefixes:
        node, arc_ids, labels, score = prefixes.pop()
        if node in lat.finals and arc_ids:
            done.append((arc_ids, labels, score))
        for aid, arc in enumerate(lat.arcs):
            if arc.src == node:
                prefixes.append(
                    (arc.dst, arc_ids + (aid,), labels + (arc.label,), score + arc.w_ac)
                )
    done.sort(key=lambda t: t[0])
    return done


def path_count(lat) -> int:
    """Number of start-to-final paths, without listing them: the number of
    ways to reach each node, pushed forward along the arcs in Kahn order."""
    indeg = [0] * lat.n_nodes
    succ = [[] for _ in range(lat.n_nodes)]
    for arc in lat.arcs:
        indeg[arc.dst] += 1
        succ[arc.src].append(arc.dst)
    ways = [0] * lat.n_nodes
    ways[lat.start] = 1
    ready = [lat.start]
    while ready:
        node = ready.pop()
        for dst in succ[node]:
            ways[dst] += ways[node]
            indeg[dst] -= 1
            if indeg[dst] == 0:
                ready.append(dst)
    return sum(ways[f] for f in lat.finals)


def window_counts(corpus, w_tau):
    """Per tala, how often each stroke window of 1..w_tau strokes occurs in
    ``corpus``, a list of ``(tala, strokes)`` pairs: every window of every
    length at every start is sliced and counted."""
    table = {}
    for tala, strokes in corpus:
        counts = table.setdefault(tala, {})
        for length in range(1, w_tau + 1):
            for start in range(len(strokes) - length + 1):
                window = tuple(strokes[start : start + length])
                counts[window] = counts.get(window, 0) + 1
    return table


def prior_state_key(window_counts, w_tau, n, history):
    """The static prior's state after ``history`` as ``(q, full, ctx)``, by
    brute force from the history.

    ``q`` is the longest suffix of the last ``w_tau`` strokes that equals the
    start of some window of some tala; ``full`` is False only while the
    history is ``q`` itself and shorter than ``w_tau``; ``ctx`` is the last
    ``n - 1`` strokes, sentinel-padded on the left.
    """
    history = tuple(history)
    tail = history[max(0, len(history) - w_tau) :]
    windows = [w for table in window_counts.values() for w in table]
    q = ()
    for start in range(len(tail)):
        suffix = tail[start:]
        if any(w[: len(suffix)] == suffix for w in windows):
            q = suffix
            break
    full = not (history == q and len(history) < w_tau)
    padded = (SENTINEL_ID,) * (n - 1) + history
    ctx = padded[len(padded) - (n - 1) :]
    return q, full, ctx


def ngram_prob(counts, num_playable, laplace_k, tala, context, nxt) -> float:
    """Laplace-smoothed P(nxt | tala, context) from raw n-gram counts."""
    table = counts.get(tala, {}).get(context, {})
    total = sum(table.values())
    return (table.get(nxt, 0) + laplace_k) / (total + laplace_k * num_playable)


def tala_posterior(window_counts, tala_priors, laplace_k, u) -> dict[str, float]:
    """P(tala | window) from raw window counts; prior when u is empty/unseen."""
    weights = {}
    for tala in tala_priors:
        c = window_counts.get(tala, {}).get(tuple(u), 0) if u else 0
        weights[tala] = (c + laplace_k) * tala_priors[tala] if u else tala_priors[tala]
    z = sum(weights.values())
    return {t: w / z for t, w in weights.items()}


def ti_prior_dist(model, history) -> list[float]:
    """Mixture prior over playable strokes from raw model tables."""
    prior = model.prior
    u = tuple(history[-prior.w_tau:])
    post = tala_posterior(prior.window_counts, prior.tala_priors, prior.laplace_k, u)
    need = prior.n - 1
    ctx = tuple(history[-need:]) if need else ()
    if len(ctx) < need:
        ctx = (SENTINEL_ID,) * (need - len(ctx)) + ctx
    out = []
    for q in range(1, prior.num_playable + 1):
        out.append(
            sum(
                post[t] * ngram_prob(prior.counts, prior.num_playable, prior.laplace_k, t, ctx, q)
                for t in post
            )
        )
    return out


def jsd_nats(p, q, eps) -> float:
    scale = 1.0 + len(p) * eps
    ps = [(x + eps) / scale for x in p]
    qs = [(x + eps) / scale for x in q]
    m = [(x + y) / 2 for x, y in zip(ps, qs)]
    kl_pm = sum(x * math.log(x / z) for x, z in zip(ps, m))
    kl_qm = sum(x * math.log(x / z) for x, z in zip(qs, m))
    return 0.5 * kl_pm + 0.5 * kl_qm


def confidence(scores) -> float:
    n = len(scores)
    if n == 1:
        return 1.0
    mx = max(scores)
    exps = [math.exp(s - mx) for s in scores]
    z = sum(exps)
    probs = [e / z for e in exps]
    entropy = -sum(p * math.log(p) for p in probs if p > 0)
    return 1.0 - entropy / math.log(max(n, 2))


def dirichlet_observe(alpha, rho, prev, nxt):
    """Pseudo-count rows (lists) after the transition prev -> nxt: every cell
    decays by ``1 - rho``, then the observed cell gains ``rho``."""
    keep = 1.0 - rho
    out = [[x * keep for x in row] for row in alpha]
    out[prev][nxt - 1] += rho
    return out


def dirichlet_predict(alpha, prev) -> list[float]:
    """The ``prev`` row of pseudo-counts over its explicit left-to-right sum."""
    row = alpha[prev]
    total = 0.0
    for x in row:
        total += x
    return [x / total for x in row]


def replay_path_score(lat, model, cfg, arc_ids) -> float:
    """Total rescored score of one lattice path, replaying the probability
    chain stroke by stroke: dynamic prediction, tala posterior, mixture
    prior, divergence, confidence, interpolation, combination, and the
    acoustic-plus-scaled-log-rhythmic arc weight with the decayed
    pseudo-count update.
    """
    from talarescore.fusion import parse_lambda_mode

    fixed = parse_lambda_mode(cfg.lambda_mode)
    alpha = model.alpha0.tolist()
    history: list[int] = []
    total = 0.0
    prev = SENTINEL_ID
    log2 = math.log(2.0)
    num_playable = model.vocab.num_playable
    for aid in arc_ids:
        arc = lat.arcs[aid]
        q = arc.label
        p_dyn = dirichlet_predict(alpha, prev)
        p_ti = ti_prior_dist(model, history)
        if fixed is None:
            d = jsd_nats(p_dyn, p_ti, _EPS_JSD)
            out_scores = [lat.arcs[a].w_ac for a in lat.outgoing[arc.src]]
            if len(out_scores) > 1 and all(s == out_scores[0] for s in out_scores):
                c = 0.0
            else:
                c = confidence(out_scores)
            lam = min(max(c * d / log2, 0.0), 1.0)
        else:
            lam = fixed
        p_comb = [(1 - lam) * a_ + lam * b_ for a_, b_ in zip(p_ti, p_dyn)]
        total += arc.w_ac + cfg.beta * math.log(p_comb[q - 1])
        alpha = dirichlet_observe(alpha, cfg.rho, prev, q)
        history.append(q)
        prev = q
    return total


def best_path_by_replay(lat, model, cfg, max_paths=100_000):
    """Argmax path labels under the replayed scores; first wins on ties."""
    best_labels = None
    best_score = -math.inf
    for arc_ids, labels, _ in all_paths(lat):
        if len(arc_ids) > max_paths:
            raise AssertionError("unexpectedly long path")
        score = replay_path_score(lat, model, cfg, arc_ids)
        if score > best_score:
            best_score = score
            best_labels = labels
    return best_labels, best_score
