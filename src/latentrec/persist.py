"""Model files: save and load every trained model type.

A model file is one gzip-compressed JSON document (format_version 4): a
header (algorithm tag, creation metadata, rating scale, token index maps)
and member blocks. A member block holds "algorithm", the "parameters"
block and, for fm and ffm, the feature "encoder". A single-model file is
the header plus one member block; an ensemble file lists one per member
under "ensemble", beside its kind, weights and intercept. The document is
one compact line of JSON, deflated (RFC 1951) into a single gzip member
(RFC 1952) at level GZIP_LEVEL with mtime 0; inspect one with
``zcat model.json | python -m json.tool``.

Every float array a model holds (svd "u", "s", "v", or "r_star" and
"mask"; funk and svdpp "p", "q", "y", "b_u", "b_i"; fm and ffm "w", "v")
is stored as one float block,

    {"data": <base64 of the little-endian float64 bytes>, "dtype": "<f8",
     "shape": [...]}

with the values in row-major order, so loading gives back every bit,
NaN payloads and -0.0 included. Scalars ("mu", "w0", "scale", ensemble
weights and intercept) are JSON numbers in Python's shortest round-trip
decimals, and integer index lists stay JSON lists. Keys are sorted, so
saving the same model twice yields the same document except for the
"created" timestamp, and with the same "created" the same file bytes
(for one zlib build: the gzip header names the operating system and the
deflate output is zlib's). Loading reproduces predictions exactly.
Saving builds the whole document and runs every check before the file is
opened, so a refused save leaves the path as it was; the line is then
compressed a piece at a time, each piece the very text json.dumps gives
for that part of the document, and float block data is encoded from the
array a slice at a time, so no string of the whole file or of a whole
float block is ever made. Loading rejects per-user index lists that do
not fit the index maps: fm/ffm "observed" and svd "rated" need one list
per user, each index in [0, n_items), and every item index of itemcf
"ratings" lies in [0, n_items), in version 2 files with "w" too.

The svd block stores the rank-f factors "u" (m x f), "s" (f) and "v"
(n x f) plus "rated", each user's observed item indices; loading rebuilds
the dense reconstruction with the same function training used and the
0/1 mask from the index lists. A model built by hand without factors is
written with the dense "r_star" and "mask" matrices instead.

The itemcf block stores "k" and each user's "ratings"; loading rebuilds
the overlap weights W with factor.overlap_weights, the function training
used, so saving refuses a model whose W does not follow from its ratings.

Uncompressed files of every version still load: the same document as
plain UTF-8 JSON. Versions 1 to 3 store each float array as nested JSON
lists of decimals. Version 1 stored the svd block as the dense "r_star"
and "mask", and version 2 itemcf blocks carry "w", which is read as
stored.
"""

import base64
import functools
import json
import math
import zlib
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .data import tokens_by_index
from .ensemble import BlendModel
from .errors import CapacityError, PersistenceError, ValidationError
from .factor import FactorModel, ItemCfModel, overlap_weights
# encode is not called here, but perfbench's tracer counts calls to
# persist.encode, so the name stays importable from this module
from .fm import EncoderSpec, FfmModel, FmModel, SampleBatch, batch_scores, encode  # noqa: F401
from .linalg import SvdResult
from .metrics import in_range, rank_unseen
from .svdcf import SvdCfModel, reconstruct

FORMAT_VERSION = 4
# version 1 stored the svd block as the dense r_star and mask; version 2
# stored the itemcf weights "w"; versions 1-3 store floats as nested lists
READABLE_VERSIONS = (1, 2, 3, FORMAT_VERSION)
# the one dtype of a float block: little-endian IEEE 754 binary64
FLOAT_DTYPE = "<f8"
ALGORITHMS = ("svd", "funk", "svdpp", "itemcf", "fm", "ffm", "ensemble")
# list items or dict entries that one json.dumps call encodes; float
# block data goes 3 * BLOCK_ROWS values (a multiple of 3 bytes) per piece
BLOCK_ROWS = 64
# deflate level of saved files: on the benchmark's factor-train models,
# level 9 saves 0.35% of the bytes for 1.3x the time, level 1 writes 4.9%
# more bytes in 0.4x the time
GZIP_LEVEL = 6
# window bits of a gzip member (16 + 15): header and CRC-32 trailer around
# DEFLATE with a 32 KB window
GZIP_WBITS = 31
GZIP_MAGIC = b"\x1f\x8b"

_dumps = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))


class IndexedModel:
    """Uniform index-space view over one trained model.

    The factor and similarity models already speak scores(u, items),
    predict(u, i) and recommend(u, k) in index space; the feature-based
    models score one-hot user/item rows built from the token lists. This
    wrapper hides the difference so ensembles and the CLI can treat every
    member alike.
    """

    def __init__(self, algorithm, model, encoder=None, user_tokens=None,
                 item_tokens=None, observed=None):
        self.algorithm = algorithm
        self.model = model
        self.encoder = encoder
        self.user_tokens = user_tokens
        self.item_tokens = item_tokens
        self.observed = observed

    @property
    def n_items(self):
        return len(self.item_tokens)

    def scores(self, u, items):
        """Scores of user u for each item index in items, as an array.

        fm and ffm score the rows SampleBatch.from_codes makes for the
        (user token, item token) pairs, which are the rows encode makes.
        """
        if self.algorithm not in ("fm", "ffm"):
            return self.model.scores(u, items)
        items = in_range(u, items, len(self.user_tokens), self.n_items)
        if not items.size:
            return np.empty(0)
        batch = SampleBatch.from_codes(self.encoder, [
            ([self.user_tokens[u]], np.zeros(items.size, dtype=np.int64)),
            ([self.item_tokens[i] for i in items.tolist()], np.arange(items.size)),
        ], np.zeros(items.size))
        return batch_scores(self.model, batch)

    def predict(self, u, i):
        return float(self.scores(u, [i])[0])

    def recommend(self, u, k):
        if self.algorithm not in ("fm", "ffm"):
            return self.model.recommend(u, k)
        in_range(u, [], len(self.user_tokens), self.n_items)
        return rank_unseen(self, u, [] if self.observed is None else self.observed[u], k)


@dataclass
class ModelBundle:
    """A trained model plus everything needed to serve token queries.

    Attributes:
        algorithm: one of svd, funk, svdpp, itemcf, fm, ffm, ensemble.
        model: the trained model object for the algorithm.
        user_index / item_index: token -> index maps from training.
        scale: rating bounds used for rounding and recommendation.
        encoder: feature layout, required for fm and ffm.
        observed: per-user lists of rated item indices; lets the
            feature-based models exclude seen items when recommending.
        created: ISO timestamp; filled at save time when empty.
    """

    algorithm: str
    model: object
    user_index: dict
    item_index: dict
    scale: tuple = (1.0, 5.0)
    encoder: EncoderSpec = None
    observed: list = None
    created: str = ""

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValidationError(f"unknown algorithm tag {self.algorithm!r}")
        if self.algorithm in ("fm", "ffm") and self.encoder is None:
            raise ValidationError(f"{self.algorithm} bundles need an encoder spec")
        self.scale = (float(self.scale[0]), float(self.scale[1]))
        self._user_tokens = tokens_by_index(self.user_index)
        self._item_tokens = tokens_by_index(self.item_index)

    @property
    def scorer(self):
        """Index-space predictor for this bundle."""
        if self.algorithm == "ensemble":
            return self.model
        return IndexedModel(
            self.algorithm,
            self.model,
            encoder=self.encoder,
            user_tokens=self._user_tokens,
            item_tokens=self._item_tokens,
            observed=self.observed,
        )

    def indices(self, user, item):
        """(user index, item index) of a token pair; raises ValidationError
        naming an unknown token, the user's first."""
        return (self._lookup(self.user_index, user, "user"),
                self._lookup(self.item_index, item, "item"))

    def predict(self, user, item):
        """Raw prediction for a (user token, item token) pair."""
        return self.scorer.predict(*self.indices(user, item))

    def recommend(self, user, k):
        """Top-k unseen items for a user token as (item token, score)."""
        u = self._lookup(self.user_index, user, "user")
        ranked = self.scorer.recommend(u, k)
        return [(self._item_tokens[i], float(score)) for i, score in ranked]

    @staticmethod
    def _lookup(index, token, role):
        token = str(token)
        if token not in index:
            raise ValidationError(f"unknown {role} {token!r}")
        return index[token]


def _index_lists(rows, n_rows, n_items, name):
    """Check per-user item index lists: n_rows of them, each in [0, n_items)."""
    if len(rows) != n_rows or any(not 0 <= i < n_items for row in rows for i in row):
        raise ValueError(f"{name} must hold {n_rows} lists of item indices "
                         f"in [0, {n_items})")


def _floats(a):
    """The float block of array a, its data still the array.

    The data is a row-major little-endian float64 array (a itself when it
    already is one), which the writer encodes in base64 a slice at a time
    and document() in one piece.
    """
    a = np.ascontiguousarray(a, dtype=FLOAT_DTYPE)
    return {"data": a, "dtype": FLOAT_DTYPE, "shape": list(a.shape)}


def _array(value, version):
    """A stored float array as a writable native float64 array.

    Versions 1 to 3 hold nested lists; version 4 a block from _floats,
    whose dtype, shape and data length must agree. Raises ValueError
    (or TypeError, KeyError) for anything else.
    """
    if version < 4:
        return np.array(value, dtype=float)
    if not isinstance(value, dict) or value.get("dtype") != FLOAT_DTYPE:
        raise ValueError(f"expected a {FLOAT_DTYPE} float block, got {value!r:.60}")
    shape = value["shape"]
    if not (isinstance(shape, list) and all(
            type(d) is int and d >= 0 for d in shape)):
        raise ValueError(f"float block shape must be a list of sizes, got {shape!r}")
    raw = base64.b64decode(value["data"], validate=True)
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"float block of shape {shape} holds {len(raw)} bytes")
    # astype copies, so the array owns writable memory in native order
    return np.frombuffer(raw, dtype=FLOAT_DTYPE).reshape(shape).astype(float)


def _int_rows(rows):
    return [[int(v) for v in row] for row in rows]


def _encoder_doc(spec):
    return {
        "columns": [
            {
                "name": c.name,
                "kind": c.kind,
                "categories": list(c.categories) if c.categories else None,
            }
            for c in spec.columns
        ]
    }


def _encoder_from(doc):
    return EncoderSpec(
        [(c["name"], c["kind"], c["categories"]) for c in doc["columns"]]
    )


def _parameters(algorithm, model, observed=None):
    if algorithm == "svd":
        block = {
            "f": int(model.f),
            "similarity_mode": model.similarity_mode,
            "neighborhood": model.neighborhood,
        }
        if model.factors is None:
            block.update(r_star=_floats(model.r_star), mask=_floats(model.mask))
        else:
            block.update(
                u=_floats(model.factors.u),
                s=_floats(model.factors.s),
                v=_floats(model.factors.v),
                rated=[np.flatnonzero(row).tolist() for row in model.mask],
            )
        return block
    if algorithm == "funk":
        return {
            "p": _floats(model.P),
            "q": _floats(model.Q),
            "f": int(model.f),
            "rated": None if model.N is None else _int_rows(model.N),
        }
    if algorithm == "svdpp":
        return {
            "p": _floats(model.P),
            "q": _floats(model.Q),
            "y": _floats(model.Y),
            "b_u": _floats(model.b_u),
            "b_i": _floats(model.b_i),
            "mu": float(model.mu),
            "f": int(model.f),
            "rated": _int_rows(model.N),
        }
    if algorithm == "itemcf":
        if not np.array_equal(model.W, overlap_weights(model.ratings,
                                                       model.n_items)):
            raise PersistenceError(
                "itemcf weights do not follow from the stored ratings; "
                "the file could not reproduce them on load"
            )
        return {
            "k": int(model.K),
            "ratings": [
                sorted([int(i), float(r)] for i, r in user.items())
                for user in model.ratings
            ],
        }
    if algorithm in ("fm", "ffm"):
        block = {
            "w0": float(model.w0),
            "w": _floats(model.w),
            "v": _floats(model.V),
            "k": int(model.k),
            "observed": None if observed is None else _int_rows(observed),
        }
        if algorithm == "ffm":
            block["n_fields"] = int(model.n_fields)
        return block
    raise PersistenceError(f"no parameter block for algorithm {algorithm!r}")


def _model_from(algorithm, block, scale, n_items, version):
    if algorithm == "svd":
        common = {
            "f": int(block["f"]),
            "similarity_mode": block["similarity_mode"],
            "scale": scale,
            "neighborhood": block["neighborhood"],
        }
        if "r_star" in block:  # version 1, or a model built without factors
            return SvdCfModel(
                r_star=_array(block["r_star"], version),
                mask=_array(block["mask"], version),
                **common,
            )
        factors = SvdResult(
            u=_array(block["u"], version),
            s=_array(block["s"], version),
            v=_array(block["v"], version),
        )
        _index_lists(block["rated"], factors.u.shape[0], n_items, "svd rated")
        mask = np.zeros((factors.u.shape[0], factors.v.shape[0]))
        for user, items in enumerate(block["rated"]):
            mask[user, np.asarray(items, dtype=np.int64)] = 1.0
        return SvdCfModel(r_star=reconstruct(factors), mask=mask,
                          factors=factors, **common)
    if algorithm in ("funk", "svdpp"):
        common = {
            "kind": algorithm,
            "P": _array(block["p"], version),
            "Q": _array(block["q"], version),
            "f": int(block["f"]),
            "N": block.get("rated"),  # FactorModel makes int64 arrays of them
        }
        if algorithm == "svdpp":
            common.update(
                mu=float(block["mu"]),
                b_u=_array(block["b_u"], version),
                b_i=_array(block["b_i"], version),
                Y=_array(block["y"], version),
            )
        return FactorModel(**common)
    if algorithm == "itemcf":
        ratings = [
            {int(i): float(r) for i, r in user} for user in block["ratings"]
        ]
        if "w" in block:  # version 2; overlap_weights checks the other path
            _index_lists(ratings, len(ratings), n_items, "itemcf ratings")
            w = _array(block["w"], version)
        else:
            w = overlap_weights(ratings, n_items)
        return ItemCfModel(W=w, K=int(block["k"]), ratings=ratings)
    if algorithm == "fm":
        return FmModel(
            w0=float(block["w0"]),
            w=_array(block["w"], version),
            V=_array(block["v"], version),
            k=int(block["k"]),
        )
    if algorithm == "ffm":
        return FfmModel(
            w0=float(block["w0"]),
            w=_array(block["w"], version),
            V=_array(block["v"], version),
            k=int(block["k"]),
            n_fields=int(block["n_fields"]),
        )
    raise PersistenceError(f"cannot rebuild algorithm {algorithm!r}")


def _member_doc(member):
    if not isinstance(member, IndexedModel):
        raise PersistenceError(
            "only file-backed members can be persisted inside an ensemble"
        )
    doc = {
        "algorithm": member.algorithm,
        "parameters": _parameters(member.algorithm, member.model,
                                  observed=member.observed),
    }
    if member.encoder is not None:
        doc["encoder"] = _encoder_doc(member.encoder)
    return doc


def _member_from(doc, scale, user_tokens, item_tokens, version):
    algorithm = doc["algorithm"]
    block = doc["parameters"]
    model = _model_from(algorithm, block, scale, len(item_tokens), version)
    encoder = _encoder_from(doc["encoder"]) if "encoder" in doc else None
    observed = block.get("observed")
    if observed is not None:
        _index_lists(observed, len(user_tokens), len(item_tokens), "observed")
    return IndexedModel(
        algorithm,
        model,
        encoder=encoder,
        user_tokens=user_tokens,
        item_tokens=item_tokens,
        observed=observed,
    )


def _document(bundle):
    """The bundle's document with float block data still arrays; runs every
    check and fills a creation timestamp."""
    created = bundle.created or datetime.now(timezone.utc).isoformat(
        timespec="seconds"
    )
    doc = {
        "format_version": FORMAT_VERSION,
        "algorithm": bundle.algorithm,
        "created": created,
        "library": f"latentrec {__version__}",
        "scale": [bundle.scale[0], bundle.scale[1]],
        "user_index": {t: int(v) for t, v in bundle.user_index.items()},
        "item_index": {t: int(v) for t, v in bundle.item_index.items()},
    }
    if bundle.algorithm == "ensemble":
        model = bundle.model
        doc["ensemble"] = {
            "kind": model.kind,
            "weights": [float(w) for w in model.weights],
            "intercept": float(model.intercept),
            "members": [_member_doc(m) for m in model.members],
        }
    else:
        doc.update(_member_doc(bundle.scorer))
    return doc


def document(bundle):
    """The bundle as a JSON-ready dict; fills a creation timestamp."""
    return _ready(_document(bundle))


def _ready(value):
    """value with the data array of each float block as its base64 text."""
    if isinstance(value, np.ndarray):
        return base64.b64encode(value.tobytes()).decode("ascii")
    if isinstance(value, dict):
        return {key: _ready(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_ready(item) for item in value]
    return value


def _json_chunks(value):
    """The compact, key-sorted JSON text of value, in consecutive pieces.

    The pieces join to exactly _dumps(_ready(value)). A dict holding
    containers is walked key by key and a list of dicts item by item; any
    other dict or list goes BLOCK_ROWS items (key-value pairs, rows,
    numbers) per _dumps call. The data array of a float block goes
    3 * BLOCK_ROWS values per piece: 24 * BLOCK_ROWS bytes, a multiple of
    3, so the base64 pieces join to the base64 of the whole array.
    """
    if isinstance(value, dict):
        pairs = sorted(value.items())
        if not any(isinstance(item, (dict, list, np.ndarray))
                   for _, item in pairs):
            yield from _blocks(pairs, dict, "{}")
            return
        yield "{"
        for n, (key, item) in enumerate(pairs):
            yield ("," if n else "") + _dumps(key) + ":"
            yield from _json_chunks(item)
        yield "}"
    elif isinstance(value, list) and value and isinstance(value[0], dict):
        yield "["
        for n, item in enumerate(value):
            yield "," if n else ""
            yield from _json_chunks(item)
        yield "]"
    elif isinstance(value, list):
        yield from _blocks(value, list, "[]")
    elif isinstance(value, np.ndarray):
        values = value.reshape(-1)
        step = 3 * BLOCK_ROWS
        yield '"'
        for start in range(0, values.size, step):
            yield base64.b64encode(values[start:start + step]).decode("ascii")
        yield '"'
    else:
        yield _dumps(value)


def _blocks(items, container, brackets):
    yield brackets[0]
    for start in range(0, len(items), BLOCK_ROWS):
        block = _dumps(container(items[start:start + BLOCK_ROWS]))
        yield ("," if start else "") + block[1:-1]
    yield brackets[1]


def save_model(bundle, path):
    """Write the bundle to path as one gzip-compressed JSON line; returns
    the path.

    The document is built and checked in full before the file is opened,
    so a refused save creates no file and leaves an existing one alone.
    The line is then fed to one deflate stream a piece at a time (float
    block data 3 * BLOCK_ROWS values per piece, other lists BLOCK_ROWS
    items per piece), so the memory a save takes beyond the model is about
    the document's index lists and token maps plus zlib's fixed state
    (about 260 KB at these settings).
    The file inflates to json.dumps(document(bundle), sort_keys=True,
    separators=(",", ":")) plus a newline, UTF-8 encoded.

    Raises PersistenceError for a model the file format cannot reproduce.
    """
    doc = _document(bundle)
    deflate = zlib.compressobj(GZIP_LEVEL, zlib.DEFLATED, GZIP_WBITS)
    with open(path, "wb") as handle:
        for piece in _json_chunks(doc):
            handle.write(deflate.compress(piece.encode("utf-8")))
        handle.write(deflate.compress(b"\n"))
        handle.write(deflate.flush())
    return path


def load_model(path):
    """Read a model file of any readable format_version into a ModelBundle.

    A file that starts with the gzip magic bytes 1f 8b is inflated first;
    any other file is read as plain UTF-8 JSON, as every version before
    compression was written. Float arrays come back bit for bit as
    writable float64 arrays: from float blocks in version 4, from nested
    decimal lists in versions 1-3.

    Raises PersistenceError for a file that cannot be read, a gzip stream
    that is corrupt, truncated or followed by other bytes, a document
    that is not UTF-8 JSON, a format_version that is not one of the
    readable ints (a JSON true or 4.0 is not), an unknown algorithm tag,
    or a malformed member block (a missing key; a per-user index list that
    does not fit the index maps; a version-4 float array that is not a
    block of dtype "<f8" whose base64 data holds exactly its shape's
    product of 8-byte values), and CapacityError when the itemcf weights
    to rebuild exceed the dense cell cap.
    """
    try:
        data = Path(path).read_bytes()
        if data[:2] == GZIP_MAGIC:
            inflate = zlib.decompressobj(GZIP_WBITS)
            data = inflate.decompress(data)
            if not inflate.eof or inflate.unused_data:
                raise zlib.error("gzip stream is truncated or followed by "
                                 "other bytes")
        raw = json.loads(data.decode("utf-8"))
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
        scale = (float(raw["scale"][0]), float(raw["scale"][1]))
        user_index = {str(t): int(v) for t, v in raw["user_index"].items()}
        item_index = {str(t): int(v) for t, v in raw["item_index"].items()}
        user_tokens = tokens_by_index(user_index)
        item_tokens = tokens_by_index(item_index)
        if algorithm == "ensemble":
            spec = raw["ensemble"]
            members = [
                _member_from(m, scale, user_tokens, item_tokens, version)
                for m in spec["members"]
            ]
            model = BlendModel(
                members=members,
                weights=np.array(spec["weights"], dtype=float),
                intercept=float(spec["intercept"]),
                kind=spec["kind"],
            )
            encoder = observed = None
        else:
            member = _member_from(raw, scale, user_tokens, item_tokens, version)
            model, encoder, observed = member.model, member.encoder, member.observed
    except CapacityError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise PersistenceError(f"malformed model file {path}: {exc}") from exc
    return ModelBundle(
        algorithm=algorithm,
        model=model,
        user_index=user_index,
        item_index=item_index,
        scale=scale,
        encoder=encoder,
        observed=observed,
        created=str(raw.get("created", "")),
    )
