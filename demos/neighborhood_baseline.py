"""Rank items with the co-rating neighborhood baseline.

The model is two artifacts: an item-to-item weight matrix
W[i, j] = |N(i) & N(j)| / |N(i)| built from who rated what, and each
user's own ratings. A candidate item j is scored by the weighted sum of
the user's ratings over the K items most similar to j. The sum is left
unnormalized on purpose: it is a ranking score, not a rating estimate,
so this script evaluates it with top-n precision and recall.
"""

import numpy as np

from latentrec import RatingDataset, itemcf_similarity, split, topn_metrics
from latentrec.factor import itemcf_predict_with_info


def make_ratings(m=24, n=16, seed=5):
    rng = np.random.default_rng(seed)
    taste = rng.uniform(1.0, 2.2, size=(m, 2))
    appeal = rng.uniform(0.6, 1.6, size=(n, 2))
    full = np.clip(taste @ appeal.T, 1.0, 5.0)
    triples = [
        (f"u{u:02d}", f"i{i:02d}", float(full[u, i]))
        for u in range(m)
        for i in range(n)
        if rng.random() < 0.75
    ]
    return RatingDataset(triples, scale=(1.0, 5.0))


def main():
    ds = make_ratings()
    train, test = split(ds, 0.25, seed=3)
    model = itemcf_similarity(train, k=8)
    print(f"weight matrix: {model.W.shape[0]}x{model.W.shape[1]}, "
          f"scoring over the top {model.K} neighbors")

    # weights are asymmetric: they divide by the first item's rater count
    print(f"W[0, 1] = {model.W[0, 1]:.3f}   W[1, 0] = {model.W[1, 0]:.3f}")

    # one scored cell with its diagnostics
    u = train.user_index["u03"]
    j = train.item_index["i05"]
    info = itemcf_predict_with_info(model, u, j)
    print(f"\nscore for u03 on i05: {info.value:.3f} "
          f"from {info.used} rated neighbors")

    # a tiny neighborhood can leave nothing to sum over
    starved = itemcf_similarity(train, k=1)
    flags = sum(
        itemcf_predict_with_info(starved, u, j).empty_neighborhood
        for u in range(train.n_users)
        for j in range(train.n_items)
    )
    print(f"with k=1, {flags} of {train.n_users * train.n_items} cells "
          f"have an empty neighborhood and score 0")

    # treat held-out ratings of 4 and up as the relevant items
    users, items, truth = test.indexed()
    positives = {}
    for u, i, r in zip(users, items, truth):
        if r >= 4.0:
            positives.setdefault(int(u), set()).add(int(i))
    recommendations = {u: model.recommend(u, k=5) for u in positives}
    precision, recall = topn_metrics(recommendations, positives, k=5)
    print(f"\nprecision@5: {precision:.4f}")
    print(f"recall@5:    {recall:.4f}")

    hits = sorted(recommendations)[:3]
    print("\nfirst three evaluated users (recommended items, relevant items):")
    for u in hits:
        recs = [i for i, _ in recommendations[u]]
        print(f"  user {u}: {recs} vs {sorted(positives[u])}")


if __name__ == "__main__":
    main()
