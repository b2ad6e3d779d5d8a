"""Model files: save and load every trained model type.

README's model-file paragraph is the one full account of the format
(format_version 11). What the code here relies on:

- A file is a single gzip member (level GZIP_LEVEL, mtime 0) that
  inflates to one compact, key-sorted JSON header line, a newline, then
  the tail: the raw bytes of every block, as a .npy file puts its data
  after a text header (NEP 1). A block's "data" in the header is the
  byte offset of its bytes in the tail, whose length its dtype and shape
  give; load hands each block its slice (_tail_slices), and the blocks,
  sorted by offset, must cover the tail with no gap, overlap or byte left
  over. Before version 11 a file is one JSON document, each block's data
  base64 text; a file without the gzip magic bytes is read as plain
  UTF-8, as files were written before compression.
- Every float array is a float block (_floats, _array): its row-major
  "<f8" bytes, grouped in byte planes (byte 0 of every value, then byte
  1, ...) from version 5 and value by value in version 4. Versions 1 to
  3 hold nested decimal lists. Loading gives every bit back. From version
  10 a lists entry's lengths and gaps are int blocks (_ints), the same
  layout with the narrowest of INT_DTYPES that holds the array's least
  and greatest value; one writer and one reader (_planes, _array) serve
  both kinds, and a field reads only its own kind.
- save_model builds and checks the whole document before it opens the
  file, then deflates the header in pieces (_json_chunks) that join to
  its one json.dumps, and each block's byte planes PIECE_BYTES at a time;
  no string of the header or copy of a whole block is made.
- FIELDS is the one statement of each algorithm's parameter block:
  _parameters writes it and _model_from reads it, checking each scalar's
  JSON kind, by walking that table. Only svd's factors, itemcf's rating
  values, fm/ffm's observed lists and ffm's v have a branch of their own.
- A file stores only what a model cannot rebuild: loading rebuilds svd
  r_star and mask with the function training used, so saving refuses an
  r_star that does not follow from the stored factors. An itemcf model
  holds no weights to store: scoring counts what it needs from its
  ratings. A version 2 itemcf file stores the n x n overlap weights w,
  and loads only when w is the one its ratings give.
- A ModelBundle is frozen and builds its scorer once: the model itself,
  or for fm and ffm an IndexedModel, the one-hot view of the machine,
  built from the token lists alone (its encoder is fm.one_hot_layout of
  them: a categorical user column, then an item column, each holding its
  sorted tokens). An ensemble's members are such scorers. _member is the
  one member check, run by save_model on every member it writes and by
  load_model on every member it builds, the one member of a single-model
  file included: it names the algorithm from the member's type and
  refuses a foreign type, tables that do not fit the token lists, and an
  fm or ffm view built for other tokens than the bundle's or in another
  order, which would reload as another model; load builds every view
  from the file's own tokens.
- From version 7 an fm or ffm member block stores no encoder. Versions 1
  to 6 store it, and load only when it is fm.one_hot_layout of the
  tokens.
- From version 8 an ffm member's v is its cross-field table, shaped like
  an fm v: row j is V[j, 1 - field(j)], field 0 for the user block (the
  first len(user_tokens) + 1 features, reserved slot included) and 1 for
  the item block. A one-hot pair (a, b) scores V[a, field(b)].V[b,
  field(a)], so a feature never meets its own field and the same-field
  vectors enter no score: load sets them to 0.0. Versions 1 to 7 store
  the whole (dimension, 2, k) V.
- The header holds the user and item tokens in index order, from
  version 9 front-coded (_front_coded: shared[k], the length of the
  prefix token k shares with token k - 1, and suffixes[k], the rest of
  it, as in a sorted lexicon), in versions 6 to 8 as two plain lists and
  before as token -> index maps. A ModelBundle holds one data.Tokens
  table per role: a map given to it is checked once (Tokens.of), and load
  hands it tables of the lists it decoded and checked (_token_list),
  which pass no second check.
- Models hold every per-user item list (svd rated, funk/svdpp N, itemcf
  ratings, fm/ffm observed) as a data.UserItems. Its form() is what the
  writer stores from version 6: each user's item count, every item as
  the gap from the one before it in its row (d-gaps, as inverted indexes
  store posting lists), and itemcf's ratings. From version 9 the
  document's "lists" table holds each distinct lengths + gaps form once,
  in the order members first name it, and each item-list field is the
  index of its entry; an itemcf block keeps its ratings as "values", a
  float block from version 11 and a JSON list before. The entry's lengths
  and gaps are int blocks from version 10 and JSON lists in version 9.
  Load decodes each entry once, so members that name it share its
  arrays. UserItems.of, the one check of
  such lists (lengths >= 0 that sum to the gap count, each gap less than
  n_items away from 0), is the only way the loader reads them back: as
  table entries from version 9, in the form inside each field in
  versions 6 to 8 and as nested lists in versions 1 to 5 (_field refuses
  another layout); the svd mask goes to and from its rated lists in one
  array operation each way.
"""

import base64
import functools
import json
import math
import os
import zlib
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .data import Tokens, UserItems, check_cells, checked_scale, json_array
from .ensemble import BlendModel
from .errors import CapacityError, PersistenceError, ValidationError
from .factor import FactorModel, ItemCfModel, cooccurrence
# encode is not called here, but perfbench's tracer counts calls to
# persist.encode, so the name stays importable from this module
from .fm import (EncoderSpec, FfmModel, FmModel, encode,  # noqa: F401
                 one_hot_features, one_hot_layout, one_hot_scores)
from .linalg import SvdResult
from .metrics import Scorer, check_choice, in_range
from .svdcf import SvdCfModel, reconstruct

FORMAT_VERSION = 11
# version 1 stored the svd block as the dense r_star and mask; version 2
# stored the itemcf weights "w"; versions 1-3 store floats as nested lists,
# and version 4 float blocks hold their bytes value by value; versions 1-5
# store token index maps and per-user lists as nested lists; versions 1-6
# store each fm/ffm member's encoder, which later ones derive; versions 1-7
# store each ffm member's whole V, where later ones store its cross-field
# table; versions 1-8 store tokens whole and each per-user list in its field,
# where later ones front-code tokens and name an entry of the lists table;
# versions 6-9 store a lists entry's lengths and gaps as JSON lists, where
# later ones store int blocks; versions 1-10 are one JSON document, each
# block's data base64 text, where later ones put the bytes after the header
# line, and versions 9-10 store itemcf values as a JSON list
READABLE_VERSIONS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, FORMAT_VERSION)
# the one dtype of a float block: little-endian IEEE 754 binary64
FLOAT_DTYPE = "<f8"
# the dtypes of an int block, narrowest first: little-endian signed ints
INT_DTYPES = ("<i1", "<i2", "<i4", "<i8")
# each algorithm's parameter block as (file key, model field, kind): a
# "floats" block, an "items" per-user item list (an index into the lists
# table, null allowed; the model checks it), or a scalar of one of the
# JSON kinds in _SCALARS
FIELDS = {
    "svd": (("f", "f", "int"), ("similarity_mode", "similarity_mode", "str"),
            ("neighborhood", "neighborhood", "int?")),
    "funk": (("p", "P", "floats"), ("q", "Q", "floats"), ("f", "f", "int"),
             ("rated", "N", "items")),
    "svdpp": (("p", "P", "floats"), ("q", "Q", "floats"), ("y", "Y", "floats"),
              ("b_u", "b_u", "floats"), ("b_i", "b_i", "floats"),
              ("mu", "mu", "number"), ("f", "f", "int"), ("rated", "N", "items")),
    "itemcf": (("k", "K", "int"), ("ratings", "ratings", "items")),
    "fm": (("w0", "w0", "number"), ("w", "w", "floats"), ("v", "V", "floats"),
           ("k", "k", "int")),
    "ffm": (("w0", "w0", "number"), ("w", "w", "floats"), ("k", "k", "int"),
            ("n_fields", "n_fields", "int")),
}
ALGORITHMS = (*FIELDS, "ensemble")
# list items or dict entries that one json.dumps call encodes
BLOCK_ROWS = 64
# block bytes the writer deflates per piece: on a 500 x 300 fm file, save
# peaks at 353 KB under tracemalloc with 4 KB pieces and 464 KB with 32 KB
PIECE_BYTES = 4096
# deflate level of saved files: on the benchmark's factor-train models,
# level 9 saves 0.35% of the bytes for 1.3x the time, level 1 writes 4.9%
# more bytes in 0.4x the time
GZIP_LEVEL = 6
# window bits of a gzip member (16 + 15): header and CRC-32 trailer around
# DEFLATE with a 32 KB window
GZIP_WBITS = 31
GZIP_MAGIC = b"\x1f\x8b"

_dumps = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))


class IndexedModel(Scorer):
    """The index-space view of an fm or ffm machine: its one-hot rows.

    Every other model scores (u, items) in index space by itself; a
    machine scores feature vectors. Over two one-hot fields, user then
    item, a vector is one user feature and one item feature. The view is
    its tokens: encoder is fm.one_hot_layout of them, the layout training
    uses, and building the view runs fm.one_hot_features once, which
    checks the machine against that layout (ShapeError or EncodingError
    on a mismatch) and maps every user index and every item index to its
    feature index, in the tokens' own order, sorted or not. observed is
    checked once, with UserItems.of. scores then runs the one pair
    kernel, fm.one_hot_scores, on those indices, and recommend ranks the
    items outside observed. perfbench's tracer times
    IndexedModel.recommend, so the class keeps its name while the
    benchmark patches it.
    """

    def __init__(self, model, tokens, observed=None):
        self.model, self.tokens = model, tokens
        self.n_users, self.n_items = map(len, tokens)
        self.observed = UserItems.of(observed, self.n_users, self.n_items, "observed")
        self.encoder = one_hot_layout(*tokens)
        self.user_features, self.item_features = one_hot_features(model, self.encoder, *tokens)

    def scores(self, u, items):
        """Scores of user u for each item index in items, as an array:
        predict of the vector encode makes for each (user token, item
        token) pair, bit for bit."""
        items = in_range(u, items, self.n_users, self.n_items)
        return one_hot_scores(self.model, self.user_features[u], self.item_features[items])

    def seen(self, u):
        """The items user u rated, which recommend leaves out; with no
        observed lists every item is a candidate."""
        return [] if self.observed is None else self.observed[u]


def _scorer(algorithm, tokens, model, observed=None):
    """The index-space scorer of a model over tokens, the (user, item)
    pair of token lists: an IndexedModel for fm and ffm, the model itself
    for every other algorithm, whose scorer reads no observed lists: it
    raises ValidationError when given some."""
    if algorithm in ("fm", "ffm"):
        return IndexedModel(model, tokens, observed)
    if observed is not None:
        raise ValidationError(f"{algorithm} bundles take no observed lists; "
                              "only fm and ffm recommend from them")
    return model


@dataclass(frozen=True)
class ModelBundle:
    """A trained model plus everything needed to serve token queries.

    The bundle is frozen: assigning a field raises FrozenInstanceError,
    and dataclasses.replace builds a new, checked bundle.

    Attributes:
        algorithm: one of svd, funk, svdpp, itemcf, fm, ffm, ensemble.
        model: the trained model object for the algorithm.
        user_index / item_index: each role's tokens from training: a
            token -> index map, which must map string tokens one to one
            onto 0..n-1 (data.Tokens.of checks it), or a data.Tokens
            table, taken as it is. The bundle keeps the table
            (user_table, item_table) and its dict (user_index,
            item_index).
        scale: rating bounds used for rounding and recommendation, two
            finite numbers lo < hi (data.checked_scale).
        observed: the items each user rated, fm and ffm only (ValidationError
            for any other algorithm); lets them exclude seen items when
            recommending. A plain per-user list is checked and converted
            to a UserItems here, once.
        created: ISO timestamp; filled at save time when empty.
        scorer: not a constructor argument; the index-space predictor,
            built once here: the model itself, or for fm and ffm its
            IndexedModel (so a machine that does not fit the tokens'
            one-hot layout raises here).
        encoder: not a constructor argument; for fm and ffm
            fm.one_hot_layout of the tokens, the layout the machine is
            scored through, and None for every other algorithm.
    """

    algorithm: str
    model: object
    user_index: dict
    item_index: dict
    scale: tuple = (1.0, 5.0)
    observed: UserItems = None
    created: str = ""

    def __post_init__(self):
        check_choice(self.algorithm, "algorithm tag", ALGORITHMS)
        scale = checked_scale(self.scale)
        users = Tokens.of(self.user_index, "user_index")
        items = Tokens.of(self.item_index, "item_index")
        scorer = _scorer(self.algorithm, (users.tokens, items.tokens), self.model, self.observed)
        observed, encoder = ((scorer.observed, scorer.encoder)
                             if isinstance(scorer, IndexedModel) else (None, None))
        for name, value in (("scale", scale), ("observed", observed), ("encoder", encoder),
                            ("user_table", users), ("item_table", items),
                            ("user_index", users.index), ("item_index", items.index),
                            ("scorer", scorer)):
            object.__setattr__(self, name, value)

    def indices(self, user, item):
        """(user index, item index) of a token pair; raises ValidationError
        naming an unknown token, the user's first."""
        return self.user_table.at(user, "user"), self.item_table.at(item, "item")

    def predict(self, user, item):
        """Raw prediction for a (user token, item token) pair."""
        return self.scorer.predict(*self.indices(user, item))

    def recommend(self, user, k):
        """Top-k unseen items for a user token as (item token, score).

        Raises ValidationError for an unknown user, a k that is not a
        count, or a score that is not finite, which it names by the user's
        and the item's tokens (a member's too, in a vote)."""
        u, items = self.user_table.at(user, "user"), self.item_table.tokens
        try:
            ranked = self.scorer.recommend(u, k)
        except ValidationError as exc:
            if hasattr(exc, "where"):  # a non-finite score, placed by index
                tokens = f"user {str(user)!r} at item {items[exc.item]!r}"
                exc.args = (str(exc).replace(exc.where, tokens),)
            raise
        return [(items[i], float(score)) for i, score in ranked]


def _floats(a):
    """The float block of array a, its data still the array: a row-major
    little-endian float64 array (a itself when it already is one), whose
    byte planes the writer puts in the tail."""
    a = np.ascontiguousarray(a, dtype=FLOAT_DTYPE)
    return {"data": a, "dtype": FLOAT_DTYPE, "shape": list(a.shape)}


def _ints(a):
    """The int block of int array a, its data an array of the narrowest
    of INT_DTYPES that holds a's least and greatest value (the first when
    a is empty)."""
    low, high = (a.min(), a.max()) if a.size else (0, 0)
    dtype = next(d for d in INT_DTYPES if np.iinfo(d).min <= low and high <= np.iinfo(d).max)
    return {"data": a.astype(dtype), "dtype": dtype, "shape": list(a.shape)}


def _planes(a):
    """The a.itemsize x a.size byte planes of a row-major array of a
    little-endian dtype, as a view: row k holds byte k of every value."""
    return a.reshape(-1).view(np.uint8).reshape(-1, a.itemsize).T


def _extent(value, dtypes):
    """(dtype, shape, byte count) of a block whose dtype is one of dtypes
    and whose shape is a list of sizes; raises ValueError (or KeyError)
    for anything else."""
    dtype = value.get("dtype") if isinstance(value, dict) else None
    if dtype not in dtypes:
        raise ValueError(f"expected a {' or '.join(dtypes)} block, got {value!r:.60}")
    shape = value["shape"]
    if not (isinstance(shape, list) and all(
            type(d) is int and d >= 0 for d in shape)):
        raise ValueError(f"{dtype} block shape must be a list of sizes, got {shape!r}")
    return dtype, shape, np.dtype(dtype).itemsize * math.prod(shape)


def _array(value, version, dtypes=(FLOAT_DTYPE,)):
    """A stored array as a writable native array: float64 from a float
    block, int64 from an int block.

    Versions 1 to 3 hold nested lists of floats; later versions a block
    from _floats or _ints whose dtype is one of dtypes and whose shape
    and data length agree (_extent): its bytes from the tail (a
    memoryview _tail_slices hands it) from version 11 and base64 text
    before, in value order in version 4 and in byte planes from version
    5. Raises ValueError (or TypeError, KeyError) for anything else.
    """
    if version < 4:
        return np.array(value, dtype=float)
    dtype, shape, size = _extent(value, dtypes)
    data = value["data"]
    raw = np.frombuffer(data if version >= 11 else base64.b64decode(data, validate=True),
                        np.uint8)
    if raw.size != size:
        raise ValueError(f"{dtype} block of shape {shape} holds {raw.size} bytes")
    values = raw.reshape(np.dtype(dtype).itemsize, -1).T if version >= 5 else raw
    # the one copy puts the bytes in value order, in memory the array owns
    return values.copy().view(dtype).reshape(shape).astype(
        float if dtype == FLOAT_DTYPE else np.int64, copy=False)


def _tail_slices(blocks, tail):
    """Hands each block of a version 11 header its bytes: the block's data,
    the offset of its bytes in tail, becomes their memoryview. Sorted by
    offset, the blocks must cover tail exactly: no gap, no overlap and no
    byte left over. Raises ValueError for a tail they do not cover, no
    tail (None: no newline ends the header), a data that is not an int or
    a block whose size _extent refuses."""
    if tail is None:
        raise ValueError("no newline ends the header line")
    for block in blocks:
        if type(block["data"]) is not int:
            raise ValueError(f"block data must be an int offset of its bytes after the "
                             f"header line, got {block['data']!r:.60}")
    end = 0
    for block in sorted(blocks, key=lambda block: block["data"]):
        if block["data"] != end:
            raise ValueError(f"a block starts at byte {block['data']} after the header line, "
                             f"where the blocks before it end at byte {end}")
        size = _extent(block, (FLOAT_DTYPE, *INT_DTYPES))[2]
        block["data"], end = tail[end:end + size], end + size
    if end != len(tail):
        raise ValueError(f"the blocks cover {end} bytes where {len(tail)} follow the header line")


def _front_coded(tokens):
    """The list of string tokens as two parallel lists: shared[k], the
    length of the prefix token k shares with token k - 1 (0 for the
    first), and suffixes[k], the rest of token k."""
    shared = [len(os.path.commonprefix(pair)) for pair in zip(["", *tokens], tokens)]
    return {"shared": shared, "suffixes": [token[n:] for token, n in zip(tokens, shared)]}


def _token_list(raw, role, version):
    """The header's tokens of one role, in index order: front-coded from
    version 9, a list in versions 6 to 8, an index map before. Raises
    ValueError unless they decode to a list of distinct strings."""
    if version < 6:
        return Tokens.of(raw[f"{role}_index"], f"{role}_index").tokens
    name = f"{role}_tokens"
    tokens = raw[name]
    if version >= 9:
        if not (type(tokens) is dict and tokens.keys() == {"shared", "suffixes"}
                and type(tokens["shared"]) is type(tokens["suffixes"]) is list
                and len(tokens["shared"]) == len(tokens["suffixes"])):
            raise ValueError(f"{name} must be two lists of one length, shared and suffixes")
        coded, tokens, before = tokens, [], ""
        for at, (length, suffix) in enumerate(zip(coded["shared"], coded["suffixes"])):
            if type(length) is not int or not 0 <= length <= len(before) or type(suffix) is not str:
                raise ValueError(f"{name} shared[{at}] must be an int in [0, {len(before)}] and "
                                 f"suffixes[{at}] a string, got {length!r} and {suffix!r:.60}")
            before = before[:length] + suffix
            tokens.append(before)
    if not (isinstance(tokens, list) and set(map(type, tokens)) <= {str}
            and len(set(tokens)) == len(tokens)):
        raise ValueError(f"{name} must be a list of distinct strings")
    return tokens


def _listed(lists, rows):
    """The index into the lists table (a dict from each entry's lengths
    and gaps, as bytes, to its index and entry, in the order added) of
    the lengths and gaps of rows, each an int block, added when new; None
    for no rows."""
    if rows is not None:
        form = UserItems(rows.offsets, rows.items).form()
        entry = {key: _ints(a) for key, a in form.items()}
        return lists.setdefault(tuple(a.tobytes() for a in form.values()),
                                (len(lists), entry))[0]


def _lists_from(entries, n_items, version):
    """The lists table of a version 9 or later document, each entry a
    UserItems decoded and checked once, so the fields that name it share
    its arrays; raises ValueError for an entry that is not the JSON
    object of its lengths and gaps, from version 10 each an int block."""
    for at, entry in enumerate(entries):
        if type(entry) is not dict or set(entry) != {"lengths", "gaps"}:
            raise ValueError(f"lists[{at}] must be a JSON object of lengths and gaps")
    if version >= 10:
        entries = [{key: _array(block, version, INT_DTYPES) for key, block in entry.items()}
                   for entry in entries]
    return [UserItems.of(entry, None, n_items, f"lists[{at}]") for at, entry in enumerate(entries)]


def _encoder_from(doc):
    """The encoder a version 1-6 fm/ffm member block stores."""
    return EncoderSpec([(c["name"], c["kind"], c["categories"]) for c in doc["columns"]])


# the JSON types each scalar kind accepts (a bool is not an int)
_SCALARS = {"int": (int,), "number": (int, float), "str": (str,),
            "int?": (int, type(None))}
_WRITERS = {
    "floats": _floats, "int": int, "number": float, "str": str,
    "int?": lambda value: None if value is None else int(value),
}
_MODELS = {
    "svd": SvdCfModel, "itemcf": ItemCfModel, "fm": FmModel, "ffm": FfmModel,
    "funk": functools.partial(FactorModel, kind="funk"),
    "svdpp": functools.partial(FactorModel, kind="svdpp"),
}


def _cross_fields(V, n_users):
    """The cross-field table of an ffm V over the one-hot layout: row j is
    V[j, 1], the vector feature j meets the item field with, in the user
    block (n_users + 1 features) and V[j, 0] in the item block."""
    return np.concatenate((V[:n_users + 1, 1], V[n_users + 1:, 0]))


def _from_cross_fields(table, n_users):
    """The (dimension, 2, k) V of a (dimension, k) cross-field table: the
    table's rows in the cross-field blocks, 0.0 in the same-field blocks
    no score reads. A table of another rank gives a V FfmModel refuses."""
    V = np.zeros((len(table), 2, *table.shape[1:]))
    V[:n_users + 1, 1], V[n_users + 1:, 0] = table[:n_users + 1], table[n_users + 1:]
    return V


def _parameters(algorithm, model, n_users, lists, observed=None):
    writers = dict(_WRITERS, items=functools.partial(_listed, lists))
    block = {key: writers[kind](getattr(model, name))
             for key, name, kind in FIELDS[algorithm]}
    if algorithm == "svd" and model.factors is None:
        block.update(r_star=_floats(model.r_star), mask=_floats(model.mask))
    elif algorithm == "svd":
        if not np.array_equal(model.r_star, reconstruct(model.factors)):
            raise PersistenceError("svd r_star values do not follow from the stored "
                                   "factors; the file could not reproduce them on load")
        block.update((key, _floats(a)) for key, a in zip("usv", model.factors))
        block["rated"] = _listed(lists, UserItems.from_columns(*np.nonzero(model.mask),
                                                               *model.mask.shape))
    elif algorithm == "itemcf":
        block["values"] = _floats(model.ratings.values)
    elif algorithm in ("fm", "ffm"):
        block["observed"] = _listed(lists, observed)
    if algorithm == "ffm":
        block["v"] = _floats(_cross_fields(model.V, n_users))
    return block


def _field(kind, value, version, key, lists=()):
    """A parameter block entry of the given FIELDS kind, checked; a
    per-user item list only for the layout its version names (null
    passes, and UserItems.of checks the rest): from version 9 the lists
    entry its index names, in versions 6 to 8 the dict of
    UserItems.form(), nested lists before."""
    if kind == "floats":
        return _array(value, version)
    if kind == "items" and value is not None:
        layout = (version >= 6) + (version >= 9)
        if type(value) is not (list, dict, int)[layout] or (
                layout == 2 and not 0 <= value < len(lists)):
            expected = ("a JSON array", "a JSON object", "an index into lists")[layout]
            raise ValueError(f"{key} must be {expected} in format_version {version}, "
                             f"got {value!r:.60}")
        return lists[value] if layout == 2 else value
    if kind != "items" and type(value) not in _SCALARS[kind]:
        kind = kind.replace("?", " or null")
        raise ValueError(f"parameter {key} must be a JSON {kind}, got {value!r}")
    return value


def _model_from(algorithm, block, n_users, n_items, version, lists):
    fields = {name: _field(kind, block[key], version, key, lists)
              for key, name, kind in FIELDS[algorithm]}
    if algorithm == "svd" and "r_star" in block:  # version 1, or built without factors
        fields.update(r_star=_array(block["r_star"], version),
                      mask=_array(block["mask"], version))
    elif algorithm == "svd":
        factors = SvdResult(*(_array(block[key], version) for key in "usv"))
        if block["rated"] is None:
            raise ValueError("svd rated must be one list per user, got null")
        rated = UserItems.of(_field("items", block["rated"], version, "svd rated", lists),
                             factors.u.shape[0], n_items, "svd rated")
        shape = (factors.u.shape[0], factors.v.shape[0])
        # mask and reconstruct are m x n, as to_dense's matrices are in training
        check_cells("dense matrix", shape, "use a factor model instead")
        mask = np.zeros(shape)
        mask[rated.rows(), rated.items] = 1.0
        fields.update(r_star=reconstruct(factors), mask=mask, factors=factors)
    elif algorithm == "ffm":
        v = _array(block["v"], version)
        fields["V"] = v if version < 8 else _from_cross_fields(v, n_users)
    elif algorithm == "itemcf":
        if fields["ratings"] is None:
            raise ValueError("itemcf ratings must be one list per user, got null")
        if version >= 9:  # the values of the lists entry's items
            rated, values = fields["ratings"], block["values"]
            fields["ratings"] = UserItems(rated.offsets, rated.items, _array(values, version)
                                          if version >= 11 else json_array(values))
        fields["n_items"] = n_items
    model = _MODELS[algorithm](**fields)
    # version 2 itemcf files store the n x n weights w, which load only as
    # the weights the ratings give: row t is C[t] / max(|N(t)|, 1) for the
    # co-occurrence counts C, checked a block of rows at a time
    if algorithm == "itemcf" and "w" in block:
        w, n = _array(block["w"], version), model.n_items
        divisor = np.maximum(np.diff(model.raters.offsets), 1)
        if w.shape != (n, n) or not all(
                np.array_equal(w[at], counts / divisor[at, None])
                for at, counts in cooccurrence(model.ratings, model.raters, np.arange(n))):
            raise ValueError("itemcf weights w do not follow from the stored ratings")
    return model


# the algorithm tag of each model type a file holds; a FactorModel's is its kind
_TAGS = {SvdCfModel: "svd", ItemCfModel: "itemcf", FmModel: "fm", FfmModel: "ffm"}


def _member(member, tokens):
    """(algorithm, model, observed) of a scorer as a file holds it, for
    tokens, the (user, item) pair of token lists: a trained svd, funk, svdpp or itemcf model, or
    the IndexedModel of an fm or ffm machine. Its tables must hold one row
    per token and an fm or ffm view must be built for these very tokens,
    in this order: load builds every view from the file's tokens, so a
    view of another token order would reload as another model. Raises
    PersistenceError."""
    model = member.model if isinstance(member, IndexedModel) else member
    algorithm = model.kind if isinstance(model, FactorModel) else _TAGS.get(type(model))
    # a machine scores only through its IndexedModel, and only a machine has one
    if algorithm is None or (algorithm in ("fm", "ffm")) != (model is not member):
        raise PersistenceError("only file-backed members can be persisted inside an ensemble")
    for role, listed in zip(("user", "item"), tokens):
        held = getattr(member, f"n_{role}s")
        if held != len(listed):
            raise PersistenceError(f"{algorithm} tables hold {held} {role}s where "
                                   f"the {role} index has {len(listed)}")
    if model is not member and member.tokens != tokens:
        raise PersistenceError(f"{algorithm} member was built for another token order")
    return algorithm, model, None if model is member else member.observed


def _member_doc(member, tokens, lists):
    algorithm, model, observed = _member(member, tokens)
    return {"algorithm": algorithm,
            "parameters": _parameters(algorithm, model, len(tokens[0]), lists, observed)}


def _member_from(doc, tokens, version, lists):
    """The model and, for fm and ffm, the observed lists of a member
    block, as ModelBundle takes them (the view checks the lists). An fm or
    ffm block before version 7 stores its encoder, which must be
    fm.one_hot_layout of the tokens, the one later files imply."""
    algorithm, block = doc["algorithm"], doc["parameters"]
    parts = {"model": _model_from(algorithm, block, *map(len, tokens), version, lists)}
    if algorithm in ("fm", "ffm"):
        if version < 7 and _encoder_from(doc["encoder"]) != one_hot_layout(*tokens):
            raise PersistenceError(f"{algorithm} encoder must be a categorical user column, "
                                   "then an item column, each holding its sorted tokens")
        parts["observed"] = _field("items", block.get("observed"), version, "observed", lists)
    return parts


def _members(bundle):
    """The scorers a file of the bundle holds, one per member block."""
    return bundle.model.members if bundle.algorithm == "ensemble" else [bundle.scorer]


def _document(bundle):
    """The bundle's document with float block data still arrays; runs every
    check and fills a creation timestamp."""
    created = bundle.created or datetime.now(timezone.utc).isoformat(timespec="seconds")
    tokens, lists = (bundle.user_table.tokens, bundle.item_table.tokens), {}
    doc = {
        "format_version": FORMAT_VERSION,
        "algorithm": bundle.algorithm,
        "created": created,
        "library": f"latentrec {__version__}",
        "scale": [bundle.scale[0], bundle.scale[1]],
        "user_tokens": _front_coded(tokens[0]),
        "item_tokens": _front_coded(tokens[1]),
    }
    members = [_member_doc(m, tokens, lists) for m in _members(bundle)]
    doc["lists"] = [form for _, form in lists.values()]
    if bundle.algorithm == "ensemble":
        model = bundle.model
        doc["ensemble"] = {
            "kind": model.kind,
            "weights": [float(w) for w in model.weights],
            "intercept": float(model.intercept),
            "members": members,
        }
    elif members[0]["algorithm"] != bundle.algorithm:
        raise PersistenceError(f"{bundle.algorithm} bundle holds a "
                               f"{members[0]['algorithm']} model")
    else:
        doc.update(members[0])
    return doc


def _json_chunks(value, blocks):
    """The compact, key-sorted JSON text of value, in consecutive pieces,
    each block's data array written as the offset of its bytes in the
    tail: blocks (a list) gains the arrays in the order the text names
    them, so each one's bytes follow those of the one before.

    A dict is walked key by key and a list of dicts item by item; any
    other list goes BLOCK_ROWS items (rows, numbers) per _dumps call, so
    the pieces join to the one _dumps of the header.
    """
    if isinstance(value, dict):
        yield "{"
        for n, (key, item) in enumerate(sorted(value.items())):
            yield ("," if n else "") + _dumps(key) + ":"
            yield from _json_chunks(item, blocks)
        yield "}"
    elif isinstance(value, list) and value and isinstance(value[0], dict):
        yield "["
        for n, item in enumerate(value):
            yield "," if n else ""
            yield from _json_chunks(item, blocks)
        yield "]"
    elif isinstance(value, list):
        yield "["
        for start in range(0, len(value), BLOCK_ROWS):
            yield ("," if start else "") + _dumps(value[start:start + BLOCK_ROWS])[1:-1]
        yield "]"
    elif isinstance(value, np.ndarray):
        yield str(sum(a.nbytes for a in blocks))
        blocks.append(value)
    else:
        yield _dumps(value)


def _tail_pieces(blocks):
    """The byte planes of each array of blocks in turn, PIECE_BYTES per
    piece, read through the plane view; a piece may span two planes."""
    for planes in map(_planes, blocks):
        for start in range(0, planes.size, PIECE_BYTES):
            yield planes.flat[start:start + PIECE_BYTES]


def save_model(bundle, path):
    """Write the bundle to path as one gzip member; returns the path.

    The document is built and checked in full before the file is opened,
    so a refused save creates no file and leaves an existing one alone.
    The file inflates to the compact, key-sorted JSON header line (each
    block's data the offset of its bytes in the tail), a newline, then
    the tail: each block's byte planes, in the order the header names
    them. Both are fed to one deflate stream a piece at a time (other
    lists BLOCK_ROWS items, block bytes PIECE_BYTES per piece), so the
    memory a save takes beyond the model is about the document's index
    lists and token lists plus zlib's fixed state (about 260 KB at these
    settings).

    Raises PersistenceError for a model the file format cannot reproduce:
    a member _member refuses (a foreign type, tables that do not fit the
    token lists, an fm or ffm member built for another token order than
    the bundle's), a single-model bundle whose tag names another
    algorithm than its model, or an svd r_star that does not follow from
    its factors; and for a path that cannot be written, such as one in a
    missing folder or a folder itself.
    """
    doc, blocks = _document(bundle), []
    deflate = zlib.compressobj(GZIP_LEVEL, zlib.DEFLATED, GZIP_WBITS)
    try:
        with open(path, "wb") as handle:
            for piece in _json_chunks(doc, blocks):
                handle.write(deflate.compress(piece.encode("utf-8")))
            handle.write(deflate.compress(b"\n"))
            for piece in _tail_pieces(blocks):
                handle.write(deflate.compress(piece))
            handle.write(deflate.flush())
    except OSError as exc:
        raise PersistenceError(f"cannot write model file {path}: "
                               f"{exc.strerror or exc}") from exc
    return path


def _parsed(data):
    """(document, blocks, tail) of an inflated file: the JSON document of
    its first line, the JSON objects in it that hold a "data" key (in
    parse order) and the memoryview of the bytes after the line, None
    when no newline ends it. A first line that is no JSON document starts
    a document written across lines, as files before version 11 may be,
    read whole, with no blocks and no tail."""
    blocks, end = [], data.find(b"\n")

    def collect(obj):
        if "data" in obj:
            blocks.append(obj)
        return obj

    try:
        head = (data[:end] if end >= 0 else data).decode("utf-8")
        return (json.loads(head, object_hook=collect), blocks,
                None if end < 0 else memoryview(data)[end + 1:])
    except ValueError:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        return json.loads(data.decode("utf-8")), [], None


def load_model(path):
    """Read a model file of any readable format_version into a ModelBundle.

    A file that starts with the gzip magic bytes 1f 8b is inflated first;
    any other file is read as it is, as every version before compression
    was written. From version 11 the file is a JSON header line, a
    newline and the tail of block bytes, which the header's blocks cover
    exactly (_tail_slices); before, it is one UTF-8 JSON document whose
    blocks hold base64 text. Float arrays come back bit for bit as
    writable float64 arrays: from byte-plane float blocks from version 5,
    from value-order blocks in version 4, from nested decimal lists in
    versions 1-3; itemcf ratings from a float block from version 11 and a
    JSON list in versions 9 and 10. Front-coded token lists and the lists table, whose
    entries the per-user list fields name by index, are read from version
    9, each entry's lengths and gaps int blocks from version 10 and JSON
    lists in version 9; plain token lists and gap-coded per-user lists in
    each field in versions 6 to 8; token index maps and nested per-user
    lists before. An
    fm or ffm member is scored through fm.one_hot_layout of the token
    lists; before version 7 its block also stores that layout as its
    encoder. An ffm member's V
    is read whole before version 8; from version 8 its cross-field table
    is read into the cross-field blocks, and the same-field blocks, which
    no score reads, are 0.0.

    Raises PersistenceError for a file that cannot be read, a gzip stream
    that is corrupt, truncated or followed by other bytes, a header or
    document that is not UTF-8 JSON, a format_version that is not one of
    the readable ints (a JSON true or 4.0 is not), an unknown algorithm
    tag, a version 11 file with no newline after its header or whose
    blocks do not cover its tail exactly (a block whose data is not an
    int offset, or one at an offset other than where the blocks before it
    end: a gap, an overlap or an offset past the end; or a tail shorter or
    longer than the blocks), a document of an earlier version followed by
    more than whitespace, a malformed header (a scale that is not a list
    of two finite numbers lo < hi; a user or item token list that is not a list of distinct
    strings, from version 9 one whose front coding is not two lists of
    one length with each shared length an int from 0 to the length of the
    token before and each suffix a string, or before version 6 an index
    map that does not take its tokens one to one onto the JSON ints
    0..n-1; from version 9 a lists entry that is not the JSON object of
    its lengths and gaps, from version 10 each an int block whose dtype is
    one of INT_DTYPES and whose data holds exactly its shape's product of
    values, or that UserItems.of refuses) or a malformed member
    block (a missing key; a scalar of the wrong JSON kind for its FIELDS
    entry, such as an int field holding 1.5, "3" or true; a per-user
    index list in the layout of another version (from version 9 anything
    but null or the index of a lists entry), or one that
    UserItems.of refuses, such as one holding 1.5, "3", true, null or a
    list, lengths that do not split its gaps, a gap of n_items or
    more from 0, an itemcf list that repeats an item or holds a rating
    that is not a finite number, or a null svd rated or itemcf ratings;
    an fm or ffm block before version 7 without its encoder, or whose
    encoder is not fm.one_hot_layout of the token lists; a machine that
    does not fit that layout (fm.one_hot_features: the dimension, and two
    fields for ffm; from version 8, an ffm v that is not a (dimension,
    k) table); an svd,
    funk, svdpp or itemcf table that does not fit the token lists; a
    float array of version 4 or later that is not a block of dtype "<f8"
    whose data holds exactly its shape's product of 8-byte values (in
    versions 4 to 10 base64 text, refused from version 11);
    a value the model refuses, such as an svd neighborhood below 1, a
    table metrics.check_table refuses or svd factors whose reconstruction
    overflows float64 (svdcf.reconstruct); a
    JSON integer too large for a float where a float is read; a version 2
    itemcf w that is not the n x n weights its ratings give), and
    CapacityError when the co-occurrence counts an itemcf scoring call
    makes (ItemCfModel), or the m x n arrays an svd file is scored from,
    would exceed the dense cell cap.
    """
    try:
        data = Path(path).read_bytes()
        if data[:2] == GZIP_MAGIC:
            inflate = zlib.decompressobj(GZIP_WBITS)
            data = inflate.decompress(data)
            if not inflate.eof or inflate.unused_data:
                raise zlib.error("gzip stream is truncated or followed by "
                                 "other bytes")
        raw, blocks, tail = _parsed(data)
    except (OSError, UnicodeDecodeError, zlib.error,
            json.JSONDecodeError) as exc:
        raise PersistenceError(f"cannot read model file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise PersistenceError(f"model file {path} is not a JSON object")
    version = raw.get("format_version")
    if type(version) is not int or version not in READABLE_VERSIONS:
        raise PersistenceError(
            f"unsupported format_version {version!r}, "
            f"expected one of {', '.join(map(str, READABLE_VERSIONS))}"
        )
    algorithm = raw.get("algorithm")
    if algorithm not in ALGORITHMS:
        raise PersistenceError(f"unknown algorithm tag {algorithm!r}")
    try:
        if version >= 11:
            _tail_slices(blocks, tail)
        elif tail and bytes(tail).strip(b" \t\n\r"):
            raise ValueError(f"a format_version {version} document is followed by "
                             f"{len(tail)} more bytes")
        scale = checked_scale(raw["scale"])
        # the decoded lists are checked, so the tables take them unchecked
        users, items = (Tokens(_token_list(raw, role, version)) for role in ("user", "item"))
        tokens = users.tokens, items.tokens
        lists = _lists_from(raw["lists"], len(tokens[1]), version) if version >= 9 else ()
        if algorithm == "ensemble":
            spec = raw["ensemble"]
            members = [_scorer(m["algorithm"], tokens, **_member_from(m, tokens, version, lists))
                       for m in spec["members"]]
            parts = {"model": BlendModel(
                members=members,
                weights=[_field("number", w, version, "weights") for w in spec["weights"]],
                intercept=_field("number", spec["intercept"], version, "intercept"),
                kind=spec["kind"],
            )}
        else:
            parts = _member_from(raw, tokens, version, lists)
        bundle = ModelBundle(algorithm=algorithm, user_index=users, item_index=items,
                             scale=scale, created=str(raw.get("created", "")), **parts)
        for member in _members(bundle):
            _member(member, tokens)
    except CapacityError:
        raise
    except (KeyError, IndexError, OverflowError, TypeError, ValueError) as exc:
        raise PersistenceError(f"malformed model file {path}: {exc}") from exc
    return bundle
