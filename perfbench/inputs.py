"""Seeded synthetic inputs for the benchmark workloads.

Every generator takes a numpy Generator and returns plain (user, item,
rating) rows over string tokens, so the program under test only ever sees
the CSV files written from them. Users and items fall into taste groups:
a user picks items of its own group more often (and, for explicit data,
rates them higher), so a model that learns anything ranks held-out items
above chance and quality figures stay steady from seed to seed.
"""

import numpy as np


def _groups(rng, count, n_groups):
    """Random balanced assignment of count members to n_groups groups."""
    return rng.permutation(np.arange(count) % n_groups)


def _user_token(u):
    return f"u{u:04d}"


def _item_token(i):
    return f"i{i:04d}"


def explicit_groups(rng, n_users, n_items, n_groups, rated, held_out,
                    test_users, popularity=0.8):
    """Explicit 1-5 ratings, missing not at random, with a holdout.

    Items have a Zipf-like popularity (exponent `popularity`), and a
    popular item is also rated higher. Each user rates `rated` items,
    drawn with probability rising with popularity and four times higher
    inside its own group, and likes its own group's items more. The first
    `test_users` users in a seeded order hold out `held_out` of their
    rated items. Every item keeps a training rating, so each test token
    also appears in training.

    Returns (train_rows, test_rows).
    """
    user_group = _groups(rng, n_users, n_groups)
    item_group = _groups(rng, n_items, n_groups)
    weight = 1.0 / np.arange(1, n_items + 1) ** popularity
    weight = weight[rng.permutation(n_items)]
    quality = np.log(weight)
    quality = (quality - quality.mean()) / quality.std()
    user_bias = rng.normal(0.0, 0.4, n_users)
    testers = set(rng.permutation(n_users)[:test_users].tolist())
    train, test = [], []
    covered = np.zeros(n_items, dtype=bool)
    for u in range(n_users):
        home = item_group == user_group[u]
        w = weight * np.where(home, 4.0, 1.0)
        hold = held_out if u in testers else 0
        picked = rng.choice(n_items, rated + hold, replace=False, p=w / w.sum())
        for k, i in enumerate(picked.tolist()):
            raw = (3.0 + 0.8 * quality[i] + 0.8 * home[i] + user_bias[u]
                   + rng.normal(0.0, 0.5))
            rating = float(min(5.0, max(1.0, round(raw))))
            (test if k < hold else train).append((u, i, rating))
            covered[i] |= k >= hold
    _cover(rng, train, test, covered)
    return _tokens(train), _tokens(test)


def duplicated_profiles(rng, n_users, n_items, n_profiles, rated, held_out):
    """Explicit ratings where users are exact copies of a few profiles.

    User u copies profile u mod n_profiles: the same rated cells, the same
    ratings and the same held-out cells. After mean imputation the rating
    matrix has rank at most n_profiles, far below min(n_users, n_items).

    Returns (train_rows, test_rows).
    """
    profiles = []
    covered = np.zeros(n_items, dtype=bool)
    for p in range(n_profiles):
        picked = rng.choice(n_items, rated + held_out, replace=False)
        ratings = rng.integers(1, 6, picked.size).astype(float)
        profiles.append(list(zip(picked.tolist(), ratings.tolist())))
        covered[picked[held_out:]] = True
    # every item needs a training rating: hand uncovered items to profiles
    for i in np.flatnonzero(~covered):
        p = int(i) % n_profiles
        profiles[p].append((int(i), float(rng.integers(1, 6))))
    train, test = [], []
    for u in range(n_users):
        for k, (i, r) in enumerate(profiles[u % n_profiles]):
            (test if k < held_out else train).append((u, i, r))
    return _tokens(train), _tokens(test)


def implicit_groups(rng, n_users, n_items, n_groups, positives, held_out,
                    test_users, popularity=0.3, home=80.0):
    """Implicit 0/1 interactions with popularity-skewed positives.

    Each user interacts with `positives` items, drawn mostly from its own
    group with probability rising with item popularity (a Zipf-like
    weight with exponent `popularity`). The first `test_users` users in a
    seeded order hold out `held_out` positives each, plus as many
    never-seen items labelled 0.

    Returns (train_rows, test_rows).
    """
    user_group = _groups(rng, n_users, n_groups)
    item_group = _groups(rng, n_items, n_groups)
    weight = 1.0 / np.arange(1, n_items + 1) ** popularity
    weight = weight[rng.permutation(n_items)]
    testers = set(rng.permutation(n_users)[:test_users].tolist())
    train, test = [], []
    covered = np.zeros(n_items, dtype=bool)
    for u in range(n_users):
        own = item_group == user_group[u]
        w = weight * np.where(own, home, 1.0)
        hold = held_out if u in testers else 0
        picked = rng.choice(n_items, positives + hold, replace=False, p=w / w.sum())
        for k, i in enumerate(picked.tolist()):
            (test if k < hold else train).append((u, i, 1.0))
            covered[i] |= k >= hold
        if hold:
            unseen = np.setdiff1d(np.arange(n_items), picked)
            for i in rng.choice(unseen, hold, replace=False).tolist():
                test.append((u, i, 0.0))
    _cover(rng, train, test, covered, rating=1.0)
    return _tokens(train), _tokens(test)


def _cover(rng, train, test, covered, rating=None):
    """Give every item without a training row one, from a random user."""
    seen = {(u, i) for u, i, _ in train} | {(u, i) for u, i, _ in test}
    users = sorted({u for u, _, _ in train})
    for i in np.flatnonzero(~covered).tolist():
        for u in rng.permutation(users).tolist():
            if (u, i) not in seen:
                r = rating if rating is not None else float(rng.integers(1, 6))
                train.append((u, i, r))
                break


def _tokens(rows):
    return [(_user_token(u), _item_token(i), r) for u, i, r in rows]


def write_csv(path, rows):
    """Write rows as "user,item,rating" lines with a header."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("user,item,rating\n")
        for u, i, r in rows:
            handle.write(f"{u},{i},{r:g}\n")
