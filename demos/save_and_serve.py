"""Train a model, save it as a gzip-compressed JSON header and block
bytes, reload it, and serve token queries.

A model file carries the algorithm tag, the rating scale, the user and
item tokens in index order, front-coded (each token as the length of the
prefix it shares with the token before it, then the rest), and every
learned parameter at full precision: each array is one block, its dtype
("<f8" for floats, the narrowest of "<i1" ... "<i8" for ints), its shape
and, as its "data", the offset of its little-endian bytes after the
header line, grouped in byte planes (byte 0 of every value, then byte 1,
...), so a reloaded model predicts bit-for-bit what the original did.
Each user's rated items are gap-coded: a count per user, then every item
as its difference from the one before it in the same user's list; each
distinct set of such lists is stored once in the file's "lists" table,
which the model's "rated" names by index. The JSON header line, a
newline and the block bytes are stored in a gzip stream (inspect the
header with ``zcat m.json | head -n 1 | python -m json.tool``). The same
files back the command line:

    latentrec train --input ratings.csv --output m.json --algo funk
    latentrec predict m.json 4 2
    latentrec recommend m.json 4 --k 2
    latentrec evaluate m.json --test holdout.csv
"""

import gzip
import json
import math
import tempfile

import numpy as np

from latentrec import (
    ModelBundle,
    TrainConfig,
    funk_train,
    load_model,
    parse_csv,
    save_model,
)

CSV = """user,item,rating
1,1,1
1,2,3
1,4,4
2,1,5
2,3,5
2,4,4
3,1,4
3,3,1
3,4,1
4,3,4
4,4,5
"""


def main():
    ds = parse_csv(CSV)
    model = funk_train(ds, TrainConfig(f=2, alpha=0.02, lam=0.01,
                                       epochs=150, seed=3))
    bundle = ModelBundle(
        algorithm="funk",
        model=model,
        user_index=ds.user_index,
        item_index=ds.item_index,
        scale=ds.scale,
        # a fixed creation time (save_model fills the current one when
        # this is empty), so the file's bytes depend on the model alone
        created="2026-01-01T00:00:00+00:00",
    )

    with tempfile.TemporaryDirectory() as outdir:
        name = "funk.json"
        path = save_model(bundle, f"{outdir}/{name}")
        with open(path, "rb") as handle:
            packed = handle.read()
        header, _, tail = gzip.decompress(packed).partition(b"\n")
        doc = json.loads(header)

        def array(block):
            """The array of a block: its bytes at its offset in the tail,
            in byte planes."""
            dtype = np.dtype(block["dtype"])
            size = dtype.itemsize * math.prod(block["shape"])
            raw = np.frombuffer(tail, np.uint8, size, block["data"])
            return raw.reshape(dtype.itemsize, -1).T.copy().view(dtype).reshape(block["shape"])

        print(f"wrote {name}: {len(packed)} bytes of gzip holding a "
              f"{len(header)}-byte JSON header line and {len(tail)} bytes of blocks "
              "(inspect the header with zcat | head -n 1 | python -m json.tool)")
        for key in ("format_version", "algorithm", "library", "scale"):
            print(f"  {key}: {doc[key]}")
        print(f"  parameters: {', '.join(sorted(doc['parameters']))}")
        coded = doc["user_tokens"]
        print(f"  user_tokens: shared {coded['shared']}, suffixes {coded['suffixes']}")
        rated = doc["lists"][doc["parameters"]["rated"]]
        print(f"  rated: lists[{doc['parameters']['rated']}], items per user "
              f"{array(rated['lengths']).tolist()}, gaps {array(rated['gaps']).tolist()} "
              f"({rated['gaps']['dtype']})")
        block = doc["parameters"]["q"]
        print(f"  q: {block['dtype']} block of shape {block['shape']}, "
              f"its bytes at offset {block['data']} of the blocks, in byte planes; "
              f"equals the trained Q: {np.array_equal(array(block), model.Q)}")

        reloaded = load_model(path)

    print(f"\nalgorithm: {reloaded.algorithm}, scale {reloaded.scale}")
    for user, item in (("4", "1"), ("4", "2"), ("1", "3")):
        a = bundle.predict(user, item)
        b = reloaded.predict(user, item)
        print(f"user {user}, item {item}: trained {a:.6f}, reloaded {b:.6f}, "
              f"gap {abs(a - b):.1e}")

    print("\ntop 2 unrated items for user 4 (token, score):")
    for token, score in reloaded.recommend("4", k=2):
        print(f"  {token}\t{score:.4f}")


if __name__ == "__main__":
    main()
