"""Print one sha256 of every model's scores and one of its recommend
lists, to check that a change keeps scoring and ranking bit for bit.

    python tools/score_digest.py [SRC]

latentrec is imported from SRC (default ./src). The script writes a fixed,
seeded explicit CSV and implicit CSV to a temporary directory, trains one
model of each case below on them through cli.main, loads each file with
persist.load_model and prints two lines per case: its name and the
sha256 of scores(u, every item) for every user in turn, taken as float64
bytes; then <name>/recommend and the sha256 of the bundle's
recommend(user, 5) for every user in turn, each item token as UTF-8
followed by its score as float64 bytes. The BLENDS cases then blend the
files of earlier cases with `ensemble blend` and digest the blend the
same way. Run it on two source trees and compare the lines.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

# (name, input, train arguments); epochs are few because only the bits of
# the scores matter, not how well the models fit
CASES = (
    ("svd", "explicit", ["--algo", "svd"]),
    ("svd-neighborhood", "explicit", ["--algo", "svd", "--neighborhood", "4"]),
    ("svd-cosine", "explicit", ["--algo", "svd", "--similarity-mode", "cosine"]),
    ("svd-cosine-neighborhood", "explicit", ["--algo", "svd", "--similarity-mode", "cosine",
                                             "--neighborhood", "4"]),
    ("funk", "explicit", ["--algo", "funk", "--epochs", "5"]),
    ("svdpp", "explicit", ["--algo", "svdpp", "--epochs", "5"]),
    ("itemcf", "explicit", ["--algo", "itemcf"]),
    ("itemcf-neighborhood", "explicit", ["--algo", "itemcf", "--neighborhood", "3"]),
    # the shape the benchmark scores: 0/1 ratings, K = n - 1
    ("itemcf-implicit", "implicit", ["--algo", "itemcf", "--kind", "implicit"]),
    # 0/1 ratings tie most neighbour slots, so this pins that ranking the
    # co-occurrence counts picks the neighbours W's rows pick
    ("itemcf-implicit-neighborhood", "implicit", ["--algo", "itemcf", "--kind", "implicit",
                                                  "--neighborhood", "3"]),
    ("fm", "explicit", ["--algo", "fm", "--epochs", "5"]),
    ("ffm", "explicit", ["--algo", "ffm", "--epochs", "5"]),
    ("fm-logistic", "implicit", ["--algo", "fm", "--kind", "implicit", "--scale", "0:1",
                                 "--loss", "logistic", "--neg-ratio", "2", "--epochs", "5"]),
    # wide factors reach numpy's 8-way pairwise sum and BLAS ddot's
    # unrolled blocks, where a rewritten kernel could round differently
    ("fm-f12", "explicit", ["--algo", "fm", "--epochs", "5", "--factors", "12"]),
    ("ffm-f12", "explicit", ["--algo", "ffm", "--epochs", "5", "--factors", "12"]),
    ("fm-logistic-f33", "implicit", ["--algo", "fm", "--kind", "implicit", "--scale", "0:1",
                                     "--loss", "logistic", "--neg-ratio", "2", "--epochs", "5",
                                     "--factors", "33"]),
)
# the length of each recommend list digested
RECOMMEND_K = 5
# (name, member cases): an equal-weight `ensemble blend` of those cases'
# files, which share the explicit CSV and so its index maps; the digest
# pins how a blend holds and scores its members, the fm and ffm member
# blocks read back from an ensemble file among them
BLENDS = (
    ("blend", ("itemcf", "fm")),
    ("blend-machines", ("fm", "ffm")),
)


def write_inputs(folder):
    """The explicit and implicit CSVs, keyed by kind: each of 30 users
    rates a seeded random third of 20 items, 1-5 in halves, or marks
    them 1."""
    rng = np.random.default_rng(7)
    rated = rng.random((30, 20)) < 1 / 3
    ratings = rng.integers(2, 11, size=(30, 20)) / 2
    rows = np.argwhere(rated).tolist()
    paths = {kind: Path(folder) / f"{kind}.csv" for kind in ("explicit", "implicit")}
    paths["explicit"].write_text("user,item,rating\n" + "".join(
        f"u{u},i{i},{ratings[u, i]}\n" for u, i in rows))
    paths["implicit"].write_text("user,item,rating\n" + "".join(
        f"u{u},i{i},1\n" for u, i in rows))
    return paths


def digests(folder):
    """(name, sha256 hex digest) of each case's scores and then of its
    recommend lists, trained in folder."""
    from latentrec.cli import main
    from latentrec.persist import load_model

    inputs = write_inputs(folder)
    commands = [(name, ["train", "--input", str(inputs[kind]), "--seed", "3", *args])
                for name, kind, args in CASES]
    commands += [(name, ["ensemble", "blend", *(str(Path(folder) / f"{case}.json")
                                                for case in members)])
                 for name, members in BLENDS]
    out = []
    for name, argv in commands:
        model = Path(folder) / f"{name}.json"
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            code = main([*argv, "--output", str(model)])
        if code != 0:
            raise RuntimeError(f"{argv[0]} of {name} exited {code}: {log.getvalue().strip()}")
        bundle = load_model(model)
        items = np.arange(len(bundle.item_index))
        scores, ranked = hashlib.sha256(), hashlib.sha256()
        for u, user in enumerate(sorted(bundle.user_index, key=bundle.user_index.get)):
            scores.update(np.asarray(bundle.scorer.scores(u, items), dtype="<f8").tobytes())
            for item, score in bundle.recommend(user, RECOMMEND_K):
                ranked.update(item.encode("utf-8") + np.array(score, dtype="<f8").tobytes())
        out += [(name, scores.hexdigest()), (f"{name}/recommend", ranked.hexdigest())]
    return out


def main(argv):
    sys.path.insert(0, str(Path(argv[0] if argv else "src").resolve()))
    with tempfile.TemporaryDirectory() as folder:
        lines = digests(folder)
        width = max(len(name) for name, _ in lines)
        for name, digest in lines:
            print(f"{name:{width}s}  {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
