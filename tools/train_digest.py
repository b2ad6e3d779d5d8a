"""Print one sha256 per training case, to check that a change keeps every
trainer's trajectory bit for bit.

    python tools/train_digest.py [SRC]

latentrec is imported from SRC (default ./src). Each case below trains
through the library on fixed seeded data and prints two columns: its name
and the sha256 of every float field of the trained model (parameter
arrays and scalars, in field order, as float64 bytes), then its per-epoch
trace. A diverging case digests the epoch its DivergenceError names, and
a negative_sample case the sampled dataset's columns and its counters.
Run it on two source trees and compare the lines.
"""

import dataclasses
import hashlib
import itertools
import sys
from pathlib import Path

import numpy as np

OPTIMIZERS = ("sgd", "momentum", "adaptive")
LOSSES = ("squared", "logistic")
# epochs are few because only the bits of the trajectory matter
EPOCHS = 4
# a learning rate per trainer at which it diverges after its first epoch,
# so that the divergence epoch depends on the trajectory before it
DIVERGING_ALPHA = {"funk": 0.15, "svdpp": 0.3, "fm": 0.3, "ffm": 0.3}
# negatives per positive: most users are served, or every user runs out
RATIOS = (("negative_sample", 2.0), ("negative_sample-capped", 40.0))


def ratings_csv(kind):
    """Each of 30 users rates a seeded random third of 20 items, 1-5 in
    halves for the explicit kind, 1 for the implicit one."""
    rng = np.random.default_rng(7)
    rated = rng.random((30, 20)) < 1 / 3
    ratings = rng.integers(2, 11, size=(30, 20)) / 2
    value = ratings if kind == "explicit" else np.ones_like(ratings)
    return "user,item,rating\n" + "".join(f"u{u:02d},i{i:02d},{value[u, i]}\n"
                                         for u, i in np.argwhere(rated).tolist())


def general_samples(loss):
    """(feature vector, target) pairs over 12 features in 3 fields, each
    row with a seeded random set of real-valued nonzeros: the general
    packed batch, unlike the one-hot rows of from_codes."""
    from latentrec.fm import FeatureVector

    rng = np.random.default_rng(11)
    x = np.where(rng.random((60, 12)) < 0.4, rng.normal(size=(60, 12)), 0.0)
    x[np.arange(60), rng.integers(0, 12, 60)] = 1.0  # no row is empty
    targets = (rng.random(60) < 0.5).astype(float) if loss == "logistic" else rng.normal(3, 1, 60)
    fields = np.repeat(np.arange(3), 4)
    return [(FeatureVector.from_dense(row, fields), y) for row, y in zip(x, targets)]


def one_hot_batch(ds):
    """The two-column one-hot batch the command line trains fm and ffm on."""
    from latentrec.fm import SampleBatch, one_hot_layout

    user_tokens, item_tokens = ds.tokens()
    users, items, ratings = ds.indexed()
    return SampleBatch.from_codes(one_hot_layout(ds.user_index, ds.item_index),
                                  [(user_tokens, users), (item_tokens, items)], ratings)


def cases():
    """(name, thunk) pairs; each thunk trains and returns what is digested."""
    from latentrec.data import CsvSchema, negative_sample, parse_csv
    from latentrec.factor import TrainConfig, funk_train, svdpp_train
    from latentrec.fm import SampleBatch, ffm_train, fm_train

    explicit = parse_csv(ratings_csv("explicit"))
    implicit = parse_csv(ratings_csv("implicit"), CsvSchema(kind="implicit", scale=(0.0, 1.0)))
    sampled = negative_sample(implicit, ratio=2.0, seed=3)

    def config(optimizer="sgd", alpha=0.01, **extra):
        return TrainConfig(f=3, alpha=alpha, epochs=EPOCHS, seed=5, optimizer=optimizer, **extra)

    def batch(kind, loss):
        if kind == "pack":
            return SampleBatch.pack(general_samples(loss))
        return one_hot_batch(sampled if loss == "logistic" else explicit)

    out = []
    # the sequential strategy moves one scalar of p and q at a time and
    # reads no simultaneous flag
    for opt, strategy, simultaneous in itertools.product(
            OPTIMIZERS, ("all", "sequential"), (False, True)):
        if strategy == "sequential" and simultaneous:
            continue
        name = f"funk-{opt}-{strategy}" + "-simultaneous" * simultaneous
        out.append((name, lambda c=config(opt, strategy=strategy, simultaneous=simultaneous):
                    funk_train(explicit, c)))
    for opt, freeze_y in itertools.product(OPTIMIZERS, (False, True)):
        out.append((f"svdpp-{opt}" + "-freeze_y" * freeze_y,
                    lambda c=config(opt), f=freeze_y: svdpp_train(explicit, c, freeze_y=f)))
    for (algo, trainer), opt, loss, kind in itertools.product(
            (("fm", fm_train), ("ffm", ffm_train)), OPTIMIZERS, LOSSES, ("from_codes", "pack")):
        out.append((f"{algo}-{opt}-{loss}-{kind}",
                    lambda t=trainer, c=config(opt), loss=loss, kind=kind:
                    t(batch(kind, loss), loss=loss, config=c)))
    for name, ratio in RATIOS:
        out.append((name, lambda r=ratio: negative_sample(implicit, ratio=r, seed=3)))
    diverging = {algo: config(alpha=alpha) for algo, alpha in DIVERGING_ALPHA.items()}
    out += [
        ("funk-diverges", lambda: funk_train(explicit, diverging["funk"])),
        ("svdpp-diverges", lambda: svdpp_train(explicit, diverging["svdpp"])),
        ("fm-diverges", lambda: fm_train(batch("from_codes", "squared"), config=diverging["fm"])),
        ("ffm-diverges", lambda: ffm_train(batch("from_codes", "squared"),
                                           config=diverging["ffm"])),
    ]
    return out


def digest(result):
    """sha256 of a trained model's float fields and trace, or of a
    sampled dataset's columns and counters."""
    sha = hashlib.sha256()
    if hasattr(result, "indexed"):
        for column in result.indexed():
            sha.update(np.asarray(column).astype("<f8").tobytes())
        for key in ("negative_users_skipped", "negative_users_capped", "negatives_added"):
            sha.update(f"{key}={result.metadata[key]};".encode())
        return sha.hexdigest()
    for f in dataclasses.fields(result):
        value = getattr(result, f.name)
        if f.name == "trace" or isinstance(value, float) or (
                isinstance(value, np.ndarray) and value.dtype.kind == "f"):
            sha.update(f.name.encode() + np.asarray(value, dtype="<f8").tobytes())
    return sha.hexdigest()


def digests():
    """(name, sha256 hex digest) of each case."""
    from latentrec.errors import DivergenceError

    lines = []
    for name, train in cases():
        try:
            result = digest(train())
        except DivergenceError as exc:
            result = hashlib.sha256(f"diverged at epoch {exc.epoch}".encode()).hexdigest()
        else:
            if name.endswith("-diverges"):
                raise RuntimeError(f"{name} trained {EPOCHS} epochs without diverging")
        lines.append((name, result))
    return lines


def main(argv):
    sys.path.insert(0, str(Path(argv[0] if argv else "src").resolve()))
    lines = digests()
    width = max(len(name) for name, _ in lines)
    for name, value in lines:
        print(f"{name:{width}s}  {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
