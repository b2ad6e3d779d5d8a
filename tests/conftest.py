"""Shared fixtures: the 4x4 worked rating example and synthetic generators.

The 4x4 example threads through the whole suite: a rating matrix on a 1-5
scale with missing cells, its observation mask, the rank-2 reconstruction,
and the printed rank-2 factors.  Expected numbers quoted in the tests
(global mean 37/11, retained energy 99.42%, similarity total 13.94,
prediction 1.4 for cell (3, 2)) were derived from these matrices by hand
and cross-checked with an independent implementation.
"""

import base64
import gzip
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

# Ratings with 0 standing for "not rated" (scale is 1-5, so 0 is free).
FOUR_BY_FOUR_RATINGS = np.array(
    [
        [1.0, 3.0, 0.0, 4.0],
        [5.0, 0.0, 5.0, 4.0],
        [4.0, 0.0, 1.0, 1.0],
        [0.0, 0.0, 4.0, 5.0],
    ]
)

FOUR_BY_FOUR_MASK = np.array(
    [
        [1.0, 1.0, 0.0, 1.0],
        [1.0, 0.0, 1.0, 1.0],
        [1.0, 0.0, 1.0, 1.0],
        [0.0, 0.0, 1.0, 1.0],
    ]
)

# Rank-2 reconstruction of the user-mean-imputed matrix, rounded to the
# printed precision used in the docs.
FOUR_BY_FOUR_RSTAR = np.array(
    [
        [0.98, 2.87, 2.96, 3.88],
        [5.14, 4.70, 4.32, 4.46],
        [3.94, 1.88, 1.45, 0.76],
        [4.39, 4.60, 4.33, 4.71],
    ]
)

# Singular values of the user-mean-imputed matrix, rounded to 2 decimals.
FOUR_BY_FOUR_SINGULAR = np.array([14.59, 3.22, 1.11, 0.23])

# The rank-2 factors as printed at 2-decimal precision.
FOUR_BY_FOUR_U2 = np.array(
    [
        [-0.37, 0.67],
        [-0.64, -0.15],
        [-0.28, -0.72],
        [-0.62, 0.08],
    ]
)
FOUR_BY_FOUR_S2 = np.diag([14.59, 3.22])
FOUR_BY_FOUR_V2T = np.array(
    [
        [-0.51, -0.51, -0.47, -0.51],
        [-0.81, 0.07, 0.20, 0.55],
    ]
)

# The same ratings as a CSV stream with 1-based user/item tokens.
FOUR_BY_FOUR_CSV = (
    "user,item,rating\n"
    "1,1,1\n"
    "1,2,3\n"
    "1,4,4\n"
    "2,1,5\n"
    "2,3,5\n"
    "2,4,4\n"
    "3,1,4\n"
    "3,3,1\n"
    "3,4,1\n"
    "4,3,4\n"
    "4,4,5\n"
)


@pytest.fixture
def four_by_four():
    """Dict with fresh copies of every piece of the 4x4 example."""
    return {
        "ratings": FOUR_BY_FOUR_RATINGS.copy(),
        "mask": FOUR_BY_FOUR_MASK.copy(),
        "r_star": FOUR_BY_FOUR_RSTAR.copy(),
        "singular": FOUR_BY_FOUR_SINGULAR.copy(),
        "u2": FOUR_BY_FOUR_U2.copy(),
        "s2": FOUR_BY_FOUR_S2.copy(),
        "v2t": FOUR_BY_FOUR_V2T.copy(),
        "csv": FOUR_BY_FOUR_CSV,
    }


def make_rank2_ratings(m=50, n=40, density=0.6, seed=42, noise=0.0, scale=(1.0, 5.0)):
    """Build an explicit dataset sampled from a known rank-2 model.

    The factors are drawn positive so their products already land inside
    the scale; an additive shift would sneak a rank-raising constant into
    the matrix. The generating matrix is returned for held-out checks.
    """
    from latentrec.data import RatingDataset

    rng = np.random.default_rng(seed)
    lo, hi = scale
    p = rng.uniform(0.8, 1.2, size=(m, 2))
    q = rng.uniform(0.7, 1.8, size=(n, 2))
    # products lie in [1.12, 4.32]; rescaling by hi/5 keeps them in scale
    full = (p @ q.T) * (hi / 5.0)
    if noise:
        full = full + rng.normal(scale=noise, size=full.shape)
        full = np.clip(full, lo, hi)
    assert lo <= full.min() and full.max() <= hi
    observed = rng.random((m, n)) < density
    # keep every user and item populated so index maps stay complete
    for u in range(m):
        if not observed[u].any():
            observed[u, rng.integers(n)] = True
    for i in range(n):
        if not observed[:, i].any():
            observed[rng.integers(m), i] = True
    triples = [
        (f"u{u:03d}", f"i{i:03d}", float(full[u, i]))
        for u in range(m)
        for i in range(n)
        if observed[u, i]
    ]
    ds = RatingDataset(triples, kind="explicit", scale=scale)
    return ds, full


def make_svdpp_ratings(m=30, n=20, density=0.7, seed=3):
    """Dataset generated by a known biased implicit-factor model.

    Every observed value is the exact model output (bias terms plus
    q . (p + implicit sum) with N(u) taken from the observation mask), so
    a trainer of the same form can drive held-out error toward zero. The
    dense truth matrix is returned alongside the dataset.
    """
    import math

    from latentrec.data import RatingDataset

    rng = np.random.default_rng(seed)
    f = 2
    root = math.sqrt(f)
    mu = 3.0
    b_u = rng.normal(scale=0.3, size=m)
    b_i = rng.normal(scale=0.3, size=n)
    p = rng.random((f, m)) / root
    q = rng.random((f, n)) / root
    y = rng.random((f, n)) / root
    observed = rng.random((m, n)) < density
    for u in range(m):
        if not observed[u].any():
            observed[u, rng.integers(n)] = True
    for i in range(n):
        if not observed[:, i].any():
            observed[rng.integers(m), i] = True
    full = np.zeros((m, n))
    for u in range(m):
        rated = np.flatnonzero(observed[u])
        z = p[:, u] + y[:, rated].sum(axis=1) / math.sqrt(rated.size)
        full[u] = mu + b_u[u] + b_i + z @ q
    lo, hi = math.floor(full.min()) - 1.0, math.ceil(full.max()) + 1.0
    triples = [
        (f"u{u:03d}", f"i{i:03d}", float(full[u, i]))
        for u in range(m)
        for i in range(n)
        if observed[u, i]
    ]
    ds = RatingDataset(triples, kind="explicit", scale=(lo, hi))
    return ds, full


def dataset_from_dense(ratings, scale=(1.0, 5.0)):
    """Explicit dataset from a dense matrix where 0 marks a missing cell."""
    from latentrec.data import RatingDataset

    m, n = ratings.shape
    triples = [
        (f"{u + 1}", f"{i + 1}", float(ratings[u, i]))
        for u in range(m)
        for i in range(n)
        if ratings[u, i] != 0
    ]
    return RatingDataset(triples, kind="explicit", scale=scale)


def overlap_weights(ratings, n):
    """The test oracle of itemcf's n x n overlap weights
    W[i, j] = |N(i) & N(j)| / |N(i)|, N(i) the rows of ratings (a
    UserItems) that hold item i: the product of the dense 0/1 rater
    matrix with itself, exact for integer counts, divided by the rater
    counts, as format 2 stored it. The diagonal is 0, and an item nobody
    rated gets an all-zero row."""
    b = np.zeros((len(ratings), n))
    b[ratings.rows(), ratings.items] = 1.0
    counts = b.T @ b
    raters = np.diag(counts).copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        w = counts / raters[:, None]
    w[raters == 0.0, :] = 0.0
    np.fill_diagonal(w, 0.0)
    return w


def without_created(text):
    """Model file text with the "created" value blanked; it must be there once."""
    kept, hits = re.subn(r'"created":"[^"]*"', '"created":""', text)
    assert hits == 1
    return kept


def model_bytes(path):
    """What a saved model file holds, inflated from its gzip stream: from
    format 11 a JSON header line, a newline and the block bytes.

    gzip.decompress raises for a file that is not gzip, so a test reading
    a saved file through this also checks that it was compressed.
    """
    return gzip.decompress(Path(path).read_bytes())


def model_text(path):
    """The JSON line a saved model file holds: its header from format 11."""
    return model_bytes(path).partition(b"\n")[0].decode("utf-8")


def blocks_in(value):
    """The blocks (JSON objects with a "data" key) of a document, in the
    order its compact key-sorted text names them."""
    if isinstance(value, dict):
        if "data" in value:
            yield value
        for key in sorted(value):
            yield from blocks_in(value[key])
    elif isinstance(value, list):
        for item in value:
            yield from blocks_in(item)


def model_doc(path):
    """The document a model file holds, each block's data its bytes as
    base64 text, as format 10 stored them; read apart from the code under
    test. A format 11 file's header line names each block's bytes by
    their offset in the tail after the line, and its dtype and shape give
    their length; a file of an earlier version (gzip or plain) is one
    JSON document. write_model writes such a document back."""
    data = Path(path).read_bytes()
    data = gzip.decompress(data) if data[:2] == b"\x1f\x8b" else data
    head, _, tail = data.partition(b"\n")
    try:
        doc = json.loads(head)
    except ValueError:  # a document written across lines
        return json.loads(data)
    if doc.get("format_version") == 11:
        for block in blocks_in(doc):
            start = block["data"]
            end = start + np.dtype(block["dtype"]).itemsize * math.prod(block["shape"])
            block["data"] = base64.b64encode(tail[start:end]).decode("ascii")
    return doc


def packed(doc):
    """(header, tail) of doc, a document as model_doc gives it, laid out
    as format 11, apart from the code under test: a copy of doc in which
    each block whose data is base64 text holds the offset of those bytes
    in the tail instead, and the tail, the bytes in header order."""
    doc, tail = json.loads(json.dumps(doc)), bytearray()
    for block in blocks_in(doc):
        if isinstance(block["data"], str):
            block["data"], raw = len(tail), base64.b64decode(block["data"])
            tail += raw
    return doc, bytes(tail)


def compact(doc):
    """The compact key-sorted JSON text of doc, UTF-8 encoded."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def write_model(path, doc):
    """Write doc, a document as model_doc gives it, to path. A document of
    format_version 1 to 10 is written as its JSON text, as those versions
    could be; any other as a format 11 file: the header and tail of
    packed(doc), a newline between them, gzip-compressed."""
    if doc.get("format_version") in range(1, 11):
        Path(path).write_text(json.dumps(doc))
        return
    header, tail = packed(doc)
    Path(path).write_bytes(gzip.compress(compact(header) + b"\n" + tail, mtime=0))


def _moved(header, tail, by, insert=b""):
    """header and tail with the last block (by offset) of those that do
    not start the tail moved by bytes, and insert put before its bytes."""
    block = max((b for b in blocks_in(header) if b["data"] > 0), key=lambda b: b["data"])
    start, block["data"] = block["data"], block["data"] + by
    return compact(header) + b"\n" + tail[:start] + insert + tail[start:]


def _damaged(doc, damage):
    """What a format 11 file of doc inflates to with the fault damage,
    one of DAMAGES."""
    header, tail = packed(doc)
    first = next(blocks_in(header))
    if damage == "short tail":
        return compact(header) + b"\n" + tail[:-1]
    if damage == "long tail":
        return compact(header) + b"\n" + tail + b"\0"
    if damage == "overlap":
        return _moved(header, tail, -1)
    if damage == "gap":
        return _moved(header, tail, 1, insert=b"\0")
    if damage == "offset past the end":
        return _moved(header, tail, len(tail))
    if damage == "no newline":
        return compact(header)
    if damage == "text data":
        first["data"] = base64.b64encode(tail).decode("ascii")
        return compact(header) + b"\n" + tail
    doc = format10(doc)  # "format 10 int data"
    next(blocks_in(doc))["data"] = 0
    return compact(doc) + b"\n"


# each way a format 11 file's tail can fail its header, and a fragment of
# the refusal load_model gives: a tail short or long of the blocks by a
# byte, a block moved back onto the one before it, a byte between two
# blocks, a block past the end, a header with no newline and no tail, a
# block whose data is base64 text, and a format 10 block whose data is
# an int offset
DAMAGES = {
    "short tail": "follow the header line",
    "long tail": "follow the header line",
    "overlap": "where the blocks before it end",
    "gap": "where the blocks before it end",
    "offset past the end": "where the blocks before it end",
    "no newline": "no newline ends the header line",
    "text data": "block data must be an int offset",
    "format 10 int data": "not 'int'",
}


def write_damaged(path, doc, damage):
    """Write doc (model_doc's layout) to path as a format 11 file with the
    fault damage, one of DAMAGES, gzip-compressed."""
    Path(path).write_bytes(gzip.compress(_damaged(doc, damage), mtime=0))


def document(bundle):
    """model_doc of the file save_model writes for bundle."""
    from latentrec.persist import save_model

    with tempfile.TemporaryDirectory() as folder:
        return model_doc(save_model(bundle, Path(folder) / "m.json"))


def rows_of(form):
    """The per-user lists a model file's gap-coded form holds: lists of
    item indices, or of [item, value] pairs when the form has values.

    Decoded entry by entry, apart from the code under test: each row's
    items are the running sums of its gaps from 0. The lengths and gaps
    are JSON lists or, as in format 10, int blocks.
    """
    lengths, gaps = (block_ints(a) if isinstance(a, dict) else a
                     for a in (form["lengths"], form["gaps"]))
    gaps, values = iter(gaps), iter(form.get("values", ()))
    rows = []
    for length in lengths:
        row, item = [], 0
        for _ in range(length):
            item += next(gaps)
            row.append([item, next(values)] if "values" in form else item)
        rows.append(row)
    return rows


def form_of(rows, valued=False):
    """The gap-coded model-file form of per-user lists (lists of [item,
    value] pairs when valued), the inverse of rows_of."""
    form = {"lengths": [len(row) for row in rows], "gaps": []}
    if valued:
        form["values"] = [value for row in rows for _, value in row]
        rows = [[item for item, _ in row] for row in rows]
    for row in rows:
        form["gaps"] += [item - before for before, item in zip([0] + row, row)]
    return form


def edit_rows(form, edit):
    """form with edit applied in place to the per-user lists it holds."""
    rows = rows_of(form)
    edit(rows)
    return form_of(rows, valued="values" in form)


def tokens_of(coded):
    """The tokens a front-coded token list (format 9) holds, decoded apart
    from the code under test: token k is the first shared[k] characters
    of token k - 1, then suffixes[k]."""
    tokens = []
    for shared, suffix in zip(coded["shared"], coded["suffixes"]):
        tokens.append((tokens[-1][:shared] if tokens else "") + suffix)
    return tokens


def coded_of(tokens):
    """The front-coded form of a token list, the inverse of tokens_of."""
    coded, before = {"shared": [], "suffixes": []}, ""
    for token in tokens:
        shared = 0
        while shared < min(len(before), len(token)) and before[shared] == token[shared]:
            shared += 1
        coded["shared"].append(shared)
        coded["suffixes"].append(token[shared:])
        before = token
    return coded


# the per-user list field of each algorithm's parameter block
LIST_FIELDS = {"svd": "rated", "funk": "rated", "svdpp": "rated", "itemcf": "ratings",
               "fm": "observed", "ffm": "observed"}


def member_blocks(doc):
    """(algorithm, parameter block) of each member of a model document."""
    members = doc["ensemble"]["members"] if "ensemble" in doc else [doc]
    return [(member["algorithm"], member["parameters"]) for member in members]


def int_block(values):
    """The int block (format 10) of a list of ints: the narrowest of the
    little-endian signed dtypes "<i1" ... "<i8" that holds them, its
    bytes in byte planes; built apart from the code under test."""
    assert all(type(v) is int for v in values), "an int block holds only ints"
    dtype = next(d for d in ("<i1", "<i2", "<i4", "<i8")
                 if all(np.iinfo(d).min <= v <= np.iinfo(d).max for v in values))
    raw = np.array(values, dtype=dtype).view(np.uint8).reshape(-1, np.dtype(dtype).itemsize)
    return {"data": base64.b64encode(raw.T.tobytes()).decode("ascii"), "dtype": dtype,
            "shape": [len(values)]}


def block_ints(block):
    """The list of ints an int block holds, the inverse of int_block."""
    raw = np.frombuffer(base64.b64decode(block["data"]), np.uint8)
    return raw.reshape(np.dtype(block["dtype"]).itemsize, -1).T.copy().view(
        block["dtype"]).reshape(-1).tolist()


def format10(doc):
    """A copy of a format 11 document (model_doc's) in the layout of
    format 10: each itemcf block's values as a JSON list of floats."""
    doc = json.loads(json.dumps(doc))
    doc["format_version"] = 10
    for algorithm, block in member_blocks(doc):
        if algorithm == "itemcf":
            block["values"] = block_array(block["values"]).tolist()
    return doc


def format11(doc):
    """A copy of a format 10 document in the layout of format 11 (as
    model_doc gives it), the inverse of format10: each itemcf block's
    values as a float block."""
    doc = json.loads(json.dumps(doc))
    doc["format_version"] = 11
    for algorithm, block in member_blocks(doc):
        if algorithm == "itemcf":
            block["values"] = array_block(block["values"])
    return doc


def flat(doc):
    """A copy of a format 10 or 11 document in the layout of format 9:
    each lists entry's lengths and gaps as JSON lists of ints."""
    doc = format10(doc) if doc["format_version"] == 11 else json.loads(json.dumps(doc))
    doc["format_version"] = 9
    doc["lists"] = [{key: block_ints(block) for key, block in entry.items()}
                    for entry in doc["lists"]]
    return doc


def blocked(doc):
    """A copy of a format 9 document in the layout of format 10, the
    inverse of flat: each lists entry's lengths and gaps as int blocks."""
    doc = json.loads(json.dumps(doc))
    doc["format_version"] = 10
    doc["lists"] = [{key: int_block(values) for key, values in entry.items()}
                    for entry in doc["lists"]]
    return doc


def inline(doc):
    """A copy of a format 9, 10 or 11 document in the layout of format 8:
    each token list whole, each per-user list in the field that names its
    lists entry (an itemcf block's "values" back in its ratings), and no
    lists table."""
    doc = flat(doc) if doc["format_version"] >= 10 else json.loads(json.dumps(doc))
    lists = doc.pop("lists")
    doc["format_version"] = 8
    for role in ("user", "item"):
        doc[f"{role}_tokens"] = tokens_of(doc[f"{role}_tokens"])
    for algorithm, block in member_blocks(doc):
        key = LIST_FIELDS[algorithm]
        if block.get(key) is not None:
            block[key] = dict(lists[block[key]])
            if algorithm == "itemcf":
                block[key]["values"] = block.pop("values")
    return doc


def outline(doc, version=10):
    """A copy of a document in inline's layout in that of format 10 (or,
    with version 9 or 11, of that format), the inverse of inline: tokens
    front-coded, and each distinct per-user list (its lengths and gaps,
    int blocks from format 10) once in the lists table, in the order
    first named, where its field names it by index."""
    doc = json.loads(json.dumps(doc))
    doc["format_version"], lists = 9, []
    for role in ("user", "item"):
        doc[f"{role}_tokens"] = coded_of(doc[f"{role}_tokens"])
    for algorithm, block in member_blocks(doc):
        key = LIST_FIELDS[algorithm]
        if block.get(key) is not None:
            if algorithm == "itemcf":
                block["values"] = block[key].pop("values")
            if block[key] not in lists:
                lists.append(block[key])
            block[key] = lists.index(block[key])
    doc["lists"] = lists
    if version == 9:
        return doc
    return format11(blocked(doc)) if version == 11 else blocked(doc)


def block_array(block, planes=True):
    """The array a "<f8" float block holds, its bytes in byte planes (from
    format 5) or, with planes=False, value by value (format 4); decoded
    apart from the code under test."""
    raw = np.frombuffer(base64.b64decode(block["data"]), np.uint8)
    values = raw.reshape(8, -1).T.copy() if planes else raw
    return values.view("<f8").reshape(block["shape"])


def array_block(a, planes=True):
    """The "<f8" float block of array a, the inverse of block_array."""
    a = np.ascontiguousarray(a, dtype="<f8")
    raw = a.reshape(-1).view(np.uint8)
    data = raw.reshape(-1, 8).T.tobytes() if planes else raw.tobytes()
    return {"data": base64.b64encode(data).decode("ascii"), "dtype": "<f8",
            "shape": list(a.shape)}


def whole_ffm_v(block, n_users):
    """The float block of the (dimension, 2, k) V that a version 1-7 file
    stores for the cross-field table in block: row j of the table goes to
    V[j, 1] in the user block (its first n_users + 1 features) and to
    V[j, 0] in the item block, and the same-field blocks are 0.0."""
    table = block_array(block)
    v = np.zeros((len(table), 2, table.shape[1]))
    v[:n_users + 1, 1], v[n_users + 1:, 0] = table[:n_users + 1], table[n_users + 1:]
    return array_block(v)


def with_encoders(doc, version=6):
    """A current model document as version (6 or earlier) stores its fm
    and ffm members: each such member block holds the encoder its token
    lists imply, a categorical user column then an item column, each
    listing its role's tokens in sorted order, and each ffm member's v is
    the whole V (whole_ffm_v) in place of its cross-field table. Nothing
    else changes, the header and per-user lists in inline's layout."""
    doc = inline(doc)
    doc["format_version"] = version
    for member in doc["ensemble"]["members"] if "ensemble" in doc else [doc]:
        if member["algorithm"] in ("fm", "ffm"):
            member["encoder"] = {"columns": [
                {"name": role, "kind": "categorical",
                 "categories": sorted(doc[f"{role}_tokens"])}
                for role in ("user", "item")]}
        if member["algorithm"] == "ffm":
            block = member["parameters"]
            block["v"] = whole_ffm_v(block["v"], len(doc["user_tokens"]))
    return doc
