"""Print one sha256 of every model's scores, to check that a change keeps
scoring bit for bit.

    python tools/score_digest.py [SRC]

latentrec is imported from SRC (default ./src). The script writes a fixed,
seeded explicit CSV and implicit CSV to a temporary directory, trains one
model of each case below on them through cli.main, loads each file with
persist.load_model and prints one line per case: its name and the sha256
of scores(u, every item) for every user in turn, taken as float64 bytes.
Run it on two source trees and compare the lines.
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
    ("funk", "explicit", ["--algo", "funk", "--epochs", "5"]),
    ("svdpp", "explicit", ["--algo", "svdpp", "--epochs", "5"]),
    ("itemcf", "explicit", ["--algo", "itemcf"]),
    ("itemcf-neighborhood", "explicit", ["--algo", "itemcf", "--neighborhood", "3"]),
    ("fm", "explicit", ["--algo", "fm", "--epochs", "5"]),
    ("ffm", "explicit", ["--algo", "ffm", "--epochs", "5"]),
    ("fm-logistic", "implicit", ["--algo", "fm", "--kind", "implicit", "--scale", "0:1",
                                 "--loss", "logistic", "--neg-ratio", "2", "--epochs", "5"]),
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
    """(name, sha256 hex digest) of each case, trained in folder."""
    from latentrec.cli import main
    from latentrec.persist import load_model

    inputs = write_inputs(folder)
    out = []
    for name, kind, args in CASES:
        model = Path(folder) / f"{name}.json"
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            code = main(["train", "--input", str(inputs[kind]), "--output", str(model),
                         "--seed", "3", *args])
        if code != 0:
            raise RuntimeError(f"training {name} exited {code}: {log.getvalue().strip()}")
        bundle = load_model(model)
        items = np.arange(len(bundle.item_index))
        digest = hashlib.sha256()
        for u in range(len(bundle.user_index)):
            digest.update(np.asarray(bundle.scorer.scores(u, items), dtype="<f8").tobytes())
        out.append((name, digest.hexdigest()))
    return out


def main(argv):
    sys.path.insert(0, str(Path(argv[0] if argv else "src").resolve()))
    with tempfile.TemporaryDirectory() as folder:
        for name, digest in digests(folder):
            print(f"{name:20s}  {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
