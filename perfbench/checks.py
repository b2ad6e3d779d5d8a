"""Output checks. Each returns None when the output is right, else a reason.

The checks run outside the timed calls. They rebuild the expected answer
independently where that is cheap (numpy's SVD for the completion models)
and otherwise hold the program to its own contract: a recommend list
equals sorting the model's predictions over the user's unseen items, by
score descending and then item index ascending.
"""

import json
import math

import numpy as np

# the Jacobi SVD orthogonalises to 1e-12; ratings are on a 1-5 scale
SVD_TOLERANCE = 1e-6
# recommend prints scores with four decimals
SCORE_TOLERANCE = 5.1e-5


def parse_recommend(stdout):
    """'token<TAB>score' lines -> [(token, score)]; raises ValueError."""
    listed = []
    for line in stdout.splitlines():
        token, score = line.split("\t")
        listed.append((token, float(score)))
    return listed


def recommend_list(listed, seen, k):
    """Well-formed top-k list for a user who rated `seen` tokens."""
    tokens = [t for t, _ in listed]
    if not 1 <= len(listed) <= k:
        return f"{len(listed)} items listed for k={k}"
    if len(set(tokens)) != len(tokens):
        return "an item is listed twice"
    if not all(math.isfinite(s) for _, s in listed):
        return "non-finite score"
    repeated = seen.intersection(tokens)
    if repeated:
        return f"seen items recommended: {sorted(repeated)[:3]}"
    return None


def _excluded(bundle, u):
    """Item indices the model leaves out of user u's recommendations."""
    model = bundle.model
    if bundle.algorithm == "svd":
        return set(np.flatnonzero(model.mask[u] != 0.0).tolist())
    if bundle.algorithm in ("funk", "svdpp"):
        return set() if model.N is None else set(model.N[u].tolist())
    if bundle.algorithm == "itemcf":
        return set(model.ratings[u])
    return set() if bundle.observed is None else set(bundle.observed[u])


def recommend_matches_predict(bundle, user, listed, k):
    """The list equals sorting bundle.predict over the unseen items.

    Ensembles rank by member votes, not by predict, so only single models
    are held to this.
    """
    if bundle.algorithm == "ensemble":
        return None
    u = bundle.user_index[user]
    tokens = {at: t for t, at in bundle.item_index.items()}
    skip = _excluded(bundle, u)
    scored = [(bundle.predict(user, tokens[i]), i)
              for i in range(len(tokens)) if i not in skip]
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    expected = [(tokens[i], s) for s, i in scored[:k]]
    if [t for t, _ in expected] != [t for t, _ in listed]:
        return "list differs from sorting predict over unseen items"
    if any(abs(a - b) > SCORE_TOLERANCE for (_, a), (_, b) in zip(expected, listed)):
        return "listed score differs from predict"
    return None


def svd_reconstruction(bundle, rows):
    """r_star is the rank-f truncation of numpy's SVD of the imputed matrix.

    The imputed matrix is rebuilt from the training rows with the per-user
    mean fill that `train --algo svd` uses by default.
    """
    model = bundle.model
    m, n = len(bundle.user_index), len(bundle.item_index)
    dense = np.zeros((m, n))
    mask = np.zeros((m, n))
    for user, item, rating in rows:
        u, i = bundle.user_index[user], bundle.item_index[item]
        dense[u, i] = rating
        mask[u, i] = 1.0
    if not np.array_equal(mask, model.mask):
        return "stored mask differs from the training cells"
    counts = mask.sum(axis=1)
    means = np.where(counts > 0, dense.sum(axis=1) / np.maximum(counts, 1),
                     dense.sum() / mask.sum())
    filled = np.where(mask == 1.0, dense, means[:, None])
    u_, s, vt = np.linalg.svd(filled, full_matrices=False)
    f = model.f
    expected = (u_[:, :f] * s[:f]) @ vt[:f]
    error = float(np.max(np.abs(expected - model.r_star)))
    if not error <= SVD_TOLERANCE:
        return f"r_star is {error:.3e} from numpy's rank-{f} truncation"
    return None


def evaluate_report(stdout, pairs, cutoffs):
    """evaluate --json parses, counts every pair and has finite figures."""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return None, f"evaluate output is not JSON: {exc}"
    if report.get("pairs") != pairs:
        return None, f"evaluate scored {report.get('pairs')} pairs, expected {pairs}"
    figures = [report.get("rmse"), report.get("mae")]
    figures += [report.get("recall_at_k", {}).get(str(k)) for k in cutoffs]
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in figures):
        return None, "evaluate reported a missing or non-finite figure"
    return report, None
