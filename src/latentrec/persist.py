"""JSON model files: save and load every trained model type.

A model file is a single JSON document (format_version 3): a header
(algorithm tag, creation metadata, rating scale, token index maps) and
member blocks. A member block holds "algorithm", the "parameters" block
and, for fm and ffm, the feature "encoder". A single-model file is the
header plus one member block; an ensemble file lists one per member under
"ensemble", beside its kind, weights and intercept. It is written on one
compact line (pretty-print it with ``python -m json.tool``). Keys are
sorted and numbers use Python's shortest round-trip decimals, so saving
the same model twice yields byte-identical files except for the "created"
timestamp, and loading reproduces predictions exactly. Saving builds the
whole document and runs every check before the file is opened, so a
refused save leaves the path as it was; the line is then written a block
of rows at a time, each block the very text json.dumps gives for that
part of the document, so no string of the whole file is ever made.
Loading rejects
per-user index lists that do not fit the index maps: fm/ffm "observed"
and svd "rated" need one list per user, each index in [0, n_items).

The svd block stores the rank-f factors "u" (m x f), "s" (f) and "v"
(n x f) plus "rated", each user's observed item indices; loading rebuilds
the dense reconstruction with the same function training used and the
0/1 mask from the index lists. A model built by hand without factors is
written with the dense "r_star" and "mask" matrices instead.

The itemcf block stores "k" and each user's "ratings"; loading rebuilds
the overlap weights W with factor.overlap_weights, the function training
used, so saving refuses a model whose W does not follow from its ratings.

Versions 1 and 2 still load: version 1 stored the svd block as the dense
"r_star" and "mask", and version 2 itemcf blocks carry "w", which is read
as stored.
"""

import functools
import json
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .data import tokens_by_index
from .ensemble import BlendModel
from .errors import CapacityError, PersistenceError, ValidationError
from .factor import FactorModel, ItemCfModel, overlap_weights
from .fm import EncoderSpec, FfmModel, FmModel, encode
from .linalg import SvdResult
from .metrics import top_k
from .svdcf import SvdCfModel, reconstruct

FORMAT_VERSION = 3
# version 1 stored the svd block as the dense r_star and mask; version 2
# stored the itemcf weights "w"
READABLE_VERSIONS = (1, 2, FORMAT_VERSION)
ALGORITHMS = ("svd", "funk", "svdpp", "itemcf", "fm", "ffm", "ensemble")
# list items or dict entries that one json.dumps call encodes
BLOCK_ROWS = 64

_dumps = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))


class IndexedModel:
    """Uniform index-space view over one trained model.

    The factor and similarity models already speak predict(u, i) and
    recommend(u, k) in index space; the feature-based models need their
    inputs encoded first. This wrapper hides the difference so ensembles
    and the CLI can treat every member alike.
    """

    def __init__(self, algorithm, model, encoder=None, user_tokens=None,
                 item_tokens=None, observed=None):
        self.algorithm = algorithm
        self.model = model
        self.encoder = encoder
        self.user_tokens = user_tokens
        self.item_tokens = item_tokens
        self.observed = observed

    def predict(self, u, i):
        if self.algorithm in ("fm", "ffm"):
            pair = (_token(self.user_tokens, u, "user"),
                    _token(self.item_tokens, i, "item"))
            return float(self.model.predict(encode(pair, self.encoder)))
        return float(self.model.predict(u, i))

    def recommend(self, u, k):
        if self.algorithm in ("fm", "ffm"):
            _token(self.user_tokens, u, "user")
            rated = set() if self.observed is None else set(self.observed[u])
            candidates = [i for i in range(len(self.item_tokens)) if i not in rated]
            return top_k(candidates, lambda i: self.predict(u, i), k)
        return self.model.recommend(u, k)


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

    def predict(self, user, item):
        """Raw prediction for a (user token, item token) pair."""
        u = self._lookup(self.user_index, user, "user")
        i = self._lookup(self.item_index, item, "item")
        return self.scorer.predict(u, i)

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


def _token(tokens, at, role):
    """tokens[at], refusing the negative indices Python would wrap."""
    if not 0 <= at < len(tokens):
        raise IndexError(f"{role} index {at} out of range for {len(tokens)}")
    return tokens[at]


def _index_lists(rows, n_rows, n_items, name):
    """Check per-user item index lists: n_rows of them, each in [0, n_items)."""
    if len(rows) != n_rows or any(not 0 <= i < n_items for row in rows for i in row):
        raise ValueError(f"{name} must hold {n_rows} lists of item indices "
                         f"in [0, {n_items})")


def _nested(a):
    return np.asarray(a, dtype=float).tolist()


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
            block.update(r_star=_nested(model.r_star), mask=_nested(model.mask))
        else:
            block.update(
                u=_nested(model.factors.u),
                s=_nested(model.factors.s),
                v=_nested(model.factors.v),
                rated=[np.flatnonzero(row).tolist() for row in model.mask],
            )
        return block
    if algorithm == "funk":
        return {
            "p": _nested(model.P),
            "q": _nested(model.Q),
            "f": int(model.f),
            "rated": None if model.N is None else _int_rows(model.N),
        }
    if algorithm == "svdpp":
        return {
            "p": _nested(model.P),
            "q": _nested(model.Q),
            "y": _nested(model.Y),
            "b_u": _nested(model.b_u),
            "b_i": _nested(model.b_i),
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
            "w": _nested(model.w),
            "v": _nested(model.V),
            "k": int(model.k),
            "observed": None if observed is None else _int_rows(observed),
        }
        if algorithm == "ffm":
            block["n_fields"] = int(model.n_fields)
        return block
    raise PersistenceError(f"no parameter block for algorithm {algorithm!r}")


def _model_from(algorithm, block, scale, n_items):
    if algorithm == "svd":
        common = {
            "f": int(block["f"]),
            "similarity_mode": block["similarity_mode"],
            "scale": scale,
            "neighborhood": block["neighborhood"],
        }
        if "r_star" in block:  # version 1, or a model built without factors
            return SvdCfModel(
                r_star=np.array(block["r_star"], dtype=float),
                mask=np.array(block["mask"], dtype=float),
                **common,
            )
        factors = SvdResult(
            u=np.array(block["u"], dtype=float),
            s=np.array(block["s"], dtype=float),
            v=np.array(block["v"], dtype=float),
        )
        _index_lists(block["rated"], factors.u.shape[0], n_items, "svd rated")
        mask = np.zeros((factors.u.shape[0], factors.v.shape[0]))
        for user, items in enumerate(block["rated"]):
            mask[user, np.asarray(items, dtype=np.int64)] = 1.0
        return SvdCfModel(r_star=reconstruct(factors), mask=mask,
                          factors=factors, **common)
    if algorithm in ("funk", "svdpp"):
        rated = block.get("rated")
        n_sets = None
        if rated is not None:
            n_sets = [np.array(row, dtype=np.int64) for row in rated]
        common = {
            "kind": algorithm,
            "P": np.array(block["p"], dtype=float),
            "Q": np.array(block["q"], dtype=float),
            "f": int(block["f"]),
            "N": n_sets,
        }
        if algorithm == "svdpp":
            common.update(
                mu=float(block["mu"]),
                b_u=np.array(block["b_u"], dtype=float),
                b_i=np.array(block["b_i"], dtype=float),
                Y=np.array(block["y"], dtype=float),
            )
        return FactorModel(**common)
    if algorithm == "itemcf":
        ratings = [
            {int(i): float(r) for i, r in user} for user in block["ratings"]
        ]
        if "w" in block:  # version 2
            w = np.array(block["w"], dtype=float)
        else:
            w = overlap_weights(ratings, n_items)
        return ItemCfModel(W=w, K=int(block["k"]), ratings=ratings)
    if algorithm == "fm":
        return FmModel(
            w0=float(block["w0"]),
            w=np.array(block["w"], dtype=float),
            V=np.array(block["v"], dtype=float),
            k=int(block["k"]),
        )
    if algorithm == "ffm":
        return FfmModel(
            w0=float(block["w0"]),
            w=np.array(block["w"], dtype=float),
            V=np.array(block["v"], dtype=float),
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


def _member_from(doc, scale, user_tokens, item_tokens):
    algorithm = doc["algorithm"]
    block = doc["parameters"]
    model = _model_from(algorithm, block, scale, len(item_tokens))
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


def document(bundle):
    """The bundle as a JSON-ready dict; fills a creation timestamp."""
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


def _json_chunks(value):
    """The compact, key-sorted JSON text of value, in consecutive pieces.

    The pieces join to exactly _dumps(value). A dict holding containers is
    walked key by key and a list of dicts item by item; any other dict or
    list goes BLOCK_ROWS items (key-value pairs, rows, numbers) per _dumps
    call, so no piece holds more than one block.
    """
    if isinstance(value, dict):
        pairs = sorted(value.items())
        if not any(isinstance(item, (dict, list)) for _, item in pairs):
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
    else:
        yield _dumps(value)


def _blocks(items, container, brackets):
    yield brackets[0]
    for start in range(0, len(items), BLOCK_ROWS):
        block = _dumps(container(items[start:start + BLOCK_ROWS]))
        yield ("," if start else "") + block[1:-1]
    yield brackets[1]


def save_model(bundle, path):
    """Write the bundle to path as one compact JSON line; returns the path.

    The document is built and checked in full before the file is opened,
    so a refused save creates no file and leaves an existing one alone.
    The line is then written a block of rows at a time; the bytes equal
    json.dumps(document(bundle), sort_keys=True, separators=(",", ":"))
    plus a newline.

    Raises PersistenceError for a model the file format cannot reproduce.
    """
    doc = document(bundle)
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(_json_chunks(doc))
        handle.write("\n")
    return path


def load_model(path):
    """Read a model file back into a ModelBundle.

    Raises PersistenceError for a file that cannot be read or is not
    UTF-8 JSON, an unsupported format_version, an unknown algorithm tag,
    or a malformed member block (a missing key, a per-user index list that
    does not fit the index maps), and CapacityError when the itemcf
    weights to rebuild exceed the dense cell cap.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise PersistenceError(f"cannot read model file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise PersistenceError(f"model file {path} is not a JSON object")
    version = raw.get("format_version")
    if version not in READABLE_VERSIONS:
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
                _member_from(m, scale, user_tokens, item_tokens)
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
            member = _member_from(raw, scale, user_tokens, item_tokens)
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
