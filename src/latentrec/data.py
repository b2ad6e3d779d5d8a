"""Rating data model: ingestion, dense conversion, imputation, sampling.

A dataset is columnar: three aligned arrays, the user index, the item index
(both int64) and the rating (float64) of each rating, plus the dense maps
from opaque string tokens to those indices. Index maps are built in sorted
token order so the same input always produces the same indexing. Rows keep
their input order. No Python object is kept per rating: the
(user, item, rating) tuples of ``RatingDataset.triples`` are built when
asked for. Datasets are treated as immutable after construction; every
transformation returns a new object.
"""

import math
import numbers
import sys
from array import array
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import (
    CapacityError,
    MagnitudeError,
    NoDataError,
    ParseError,
    ValidationError,
)

DENSE_CELL_CAP = 100_000_000


def _round_half_up(x):
    return int(math.floor(x + 0.5))


@dataclass
class CsvSchema:
    """Describes how to read a rating CSV.

    Attributes:
        kind: "explicit" (scaled ratings) or "implicit" (0/1 interactions).
        scale: inclusive [lo, hi] rating bounds for explicit data.
        has_header: True/False, or None to auto-detect a header on line 1
            (a first line whose rating field is not numeric).
        duplicate_policy: what to do with a repeated (user, item) pair:
            "last" keeps the latest value, "first" the earliest, "error"
            raises.
    """

    kind: str = "explicit"
    scale: tuple = (1.0, 5.0)
    has_header: bool | None = None
    duplicate_policy: str = "last"


def checked_scale(scale):
    """scale as a (lo, hi) pair of floats: the one check of rating bounds.

    Raises:
        ValidationError: unless scale is a list or tuple of two finite
            real numbers (not bools or strings) with lo < hi.
    """
    # the bound test also refuses NaN and an int too large for a float
    if not (isinstance(scale, (list, tuple)) and len(scale) == 2
            and all(isinstance(b, numbers.Real) and not isinstance(b, bool)
                    and abs(b) <= sys.float_info.max for b in scale)
            and scale[0] < scale[1]):
        raise ValidationError(f"scale must be two finite numbers lo < hi, got {scale!r}")
    return float(scale[0]), float(scale[1])


def tokens_by_index(index, name="index map"):
    """The tokens of a dense index map, as a list ordered by index.

    Raises:
        ValidationError: naming name, unless index is a dict that maps its
            n tokens one to one onto the integers 0..n-1 (a bool or a
            float such as 1.0 is not one).
    """
    # a type test per distinct type, then one set comparison: a check per
    # value through the numbers ABCs costs about 0.5 us each
    if not (isinstance(index, dict)
            and all(issubclass(t, numbers.Integral) and t is not bool
                    for t in set(map(type, index.values())))
            and set(index.values()) == set(range(len(index)))):
        raise ValidationError(f"{name} must map its tokens one to one onto 0..n-1")
    tokens = [None] * len(index)
    for token, at in index.items():
        tokens[at] = token
    return tokens


class _Interner:
    """Gives each distinct token a code in first-seen order and records the
    code of every token added."""

    def __init__(self):
        self.codes = array("q")
        self.ids = {}

    def add(self, token):
        self.codes.append(self.ids.setdefault(token, len(self.ids)))

    def columns(self):
        """(codes as an int64 array, tokens in code order)."""
        return np.frombuffer(self.codes, dtype=np.int64), list(self.ids)


def _pair_runs(users, items, n_items):
    """Rows stably sorted by (user, item) code pair.

    Returns (order, starts): the row positions in pair order, and a mask
    over that order that is True at the first row of each pair.
    """
    keys = users * n_items + items
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    return order, starts


def _first_repeat(order, starts):
    """Earliest row whose pair an earlier row already has, or None."""
    repeats = order[~starts]
    return int(repeats.min()) if repeats.size else None


class UserItems:
    """Per-user item index lists in CSR form.

    User u's items are items[offsets[u]:offsets[u + 1]] (int64), and
    values, when given, is a float array aligned with items (itemcf's
    ratings). x[u] is that slice of items, a view; len and iteration go
    over users, as for a list of arrays.
    """

    def __init__(self, offsets, items, values=None):
        self.offsets, self.items, self.values = offsets, items, values

    def __len__(self):
        return self.offsets.size - 1

    def __getitem__(self, u):
        # offsets[u + 1] raises IndexError past the last user, which also
        # ends iteration
        return self.items[self.offsets[u]:self.offsets[u + 1]]

    def rows(self):
        """The user index of each entry of items."""
        return np.repeat(np.arange(len(self)), np.diff(self.offsets))

    def take(self, users):
        """The items of each of users (an int array) in turn, as one array,
        and how many each has."""
        starts = self.offsets[users]
        lengths = self.offsets[users + 1] - starts
        at = np.repeat(starts - lengths.cumsum() + lengths, lengths) + np.arange(lengths.sum())
        return self.items[at], lengths

    def form(self):
        """The model-file form, as arrays: "lengths", each user's item
        count; "gaps", every user's items in row order, each less the item
        before it in its row (the first less 0); and with values, "values"
        aligned with the gaps."""
        lengths = np.diff(self.offsets)
        gaps = np.diff(self.items, prepend=0)
        starts = self.offsets[:-1][lengths > 0]
        gaps[starts] = self.items[starts]
        form = {"lengths": lengths, "gaps": gaps}
        if self.values is not None:
            form["values"] = self.values
        return form

    @classmethod
    def from_columns(cls, users, items, n_users, n_items, values=None):
        """Aligned user and item columns grouped by user, each user's items
        ascending (a stable sort, so repeats keep column order). With
        values, a repeated (user, item) pair is held once, with its last
        value."""
        order, starts = _pair_runs(users, items, n_items)
        if values is not None:
            order = order[np.roll(starts, -1)]  # the last row of each pair
            values = values[order]
        return cls(np.searchsorted(users[order], np.arange(n_users + 1)), items[order], values)

    @classmethod
    def of(cls, rows, n_users, n_items, name="item lists", valued=False):
        """rows as a checked UserItems: the one check of per-user item
        lists that come from outside (model files, hand-built models).

        rows is None (returned as is), a UserItems, a dict in the form
        form() gives (arrays, or the JSON lists of versions 6 to 9 of the
        model file), or a sequence of per-user lists: n_users of them,
        unless n_users is None. Every item is an int in [0, n_items),
        never a float, string, bool or null. Unvalued rows keep their
        order and may repeat an item. With valued, a row is a dict from
        item to value or a list of [item, value] pairs (in the dict form,
        a "values" list) whose values are finite real numbers, not bools;
        a dict is taken in item order, and the items of every row must be
        strictly increasing. The dict form's lengths must be ints >= 0
        that sum to the number of gaps, and each gap an int less than
        n_items away from 0, which is tested before the gaps are summed.

        Raises:
            ValueError: naming name, for any list that breaks these rules.
        """
        if rows is None:
            return None
        if isinstance(rows, dict):
            rows = cls._decoded(rows, n_items)
        elif not isinstance(rows, cls):
            rows = cls._nested(rows, valued)
        items, values = (None, None) if rows is None else (rows.items, rows.values)
        # a clause is reached only when all before it are false, so the
        # key test sees int items in range; row-major keys rise iff the
        # items of every row do
        if (rows is None or n_users not in (None, len(rows)) or items.shape != (rows.offsets[-1],)
                or items.size and (items.dtype.kind not in "iu" or items.min() < 0
                                   or items.max() >= n_items)
                or valued and (values is None or values.shape != items.shape
                               or values.dtype.kind not in "iuf" or not np.isfinite(values).all()
                               or np.any(np.diff(rows.rows() * n_items + items) <= 0))):
            raise ValueError(f"{name} must be one list per user of {'strictly increasing ' * valued}"
                             f"integer item indices in [0, {n_items}){' with finite values' * valued}")
        return cls(rows.offsets, items.astype(np.int64, copy=False),
                   values.astype(float, copy=False) if valued else None)

    @classmethod
    def _decoded(cls, form, n_items):
        """The rows of form() output, its lengths and gaps as int arrays
        (decoded int blocks) or JSON lists, or None when they are not ints
        or break the rules of the dict form in of."""
        lengths, gaps = (a if isinstance(a, np.ndarray) else json_array(a)
                         for a in (form.get("lengths"), form.get("gaps")))
        # a float, a string, null or an int past the int64 range makes an
        # array of another kind
        if (any(a is None or a.ndim != 1 or a.dtype.kind != "i" for a in (lengths, gaps))
                or lengths.size and (lengths.min() < 0 or lengths.max() > gaps.size)
                or lengths.sum() != gaps.size
                or gaps.size and (gaps.min() <= -n_items or gaps.max() >= n_items)):
            return None
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        # item k of a row is the sum of the row's gaps up to k: one running
        # sum, less its value where the row starts
        sums = np.concatenate(([0], np.cumsum(gaps)))
        values = form.get("values")
        return cls(offsets, sums[1:] - np.repeat(sums[offsets[:-1]], lengths),
                   None if values is None else json_array(values))

    @classmethod
    def _nested(cls, rows, valued):
        """The rows of a sequence of per-user lists, or None when an entry
        is a bool."""
        rows = [sorted(r.items()) if isinstance(r, dict) else r for r in rows]
        flat = list(chain.from_iterable(rows))
        items, values = zip(*flat) if valued and flat else (flat, ())
        arrays = json_array(items), json_array(values)
        return None if arrays[0] is None or arrays[1] is None else cls(
            np.cumsum([0] + [len(r) for r in rows]), *arrays)


def json_array(entries):
    """entries (JSON values) as an array, int64 when there are none, or
    None when one of them is a bool or they are ragged (a list beside a
    number, or lists of unequal lengths)."""
    try:
        a = np.array(entries) if entries != [] else np.zeros(0, np.int64)
    except ValueError:  # numpy's "inhomogeneous shape"
        return None
    # numpy reads a bool among numbers as 0 or 1
    if a.ndim == 1 and a.dtype.kind in "iuf" and bool in set(map(type, entries)):
        return None
    return a


class RatingDataset:
    """Sparse ratings as aligned index columns with dense index maps.

    Attributes:
        users / items: int64 arrays, the user and item index of each rating.
        ratings: float64 array of the rating values.
        user_index / item_index: token-to-index maps; each maps its n
            tokens onto 0..n-1.
        triples: (user_token, item_token, rating) tuples in row order,
            built on each access for small callers; trainers read
            ``indexed()``.

    Args:
        triples: iterable of (user_token, item_token, rating).
        kind: "explicit" or "implicit".
        scale: rating bounds for explicit data; implicit ratings are 0/1.
        user_index / item_index: optional precomputed token-to-index maps.
            When omitted they are built over the tokens present, in sorted
            order. Subset datasets (from splits) pass the parent maps so
            indices stay aligned.
        metadata: free-form dict for warnings and counters.
        allow_duplicate_pairs: internal escape hatch for bootstrap
            resamples, which legitimately repeat pairs.
    """

    def __init__(
        self,
        triples,
        kind="explicit",
        scale=(1.0, 5.0),
        user_index=None,
        item_index=None,
        metadata=None,
        allow_duplicate_pairs=False,
    ):
        users, items, ratings = _Interner(), _Interner(), array("d")
        for u, i, r in triples:
            users.add(str(u))
            items.add(str(i))
            ratings.append(float(r))
        self._set(users.columns(), items.columns(), np.frombuffer(ratings),
                  kind, scale, user_index=user_index, item_index=item_index,
                  metadata=metadata, allow_duplicate_pairs=allow_duplicate_pairs)

    @classmethod
    def _of(cls, *args, **kwargs):
        """A dataset from ``_set``'s arguments, validated as __init__ does."""
        ds = cls.__new__(cls)
        ds._set(*args, **kwargs)
        return ds

    def _set(self, users, items, ratings, kind, scale, user_index=None,
             item_index=None, metadata=None, allow_duplicate_pairs=False):
        """Validate and store the columns.

        users and items are (codes, tokens) pairs: an int64 array of codes
        per rating and the list of tokens the codes point into.
        """
        (user_codes, user_tokens), (item_codes, item_tokens) = users, items

        def pair(k):
            return user_tokens[user_codes[k]], item_tokens[item_codes[k]]

        if ratings.size == 0:
            raise NoDataError("dataset has no triples")
        if kind not in ("explicit", "implicit"):
            raise ValidationError(f"unknown dataset kind {kind!r}")
        lo, hi = checked_scale(scale)
        if kind == "explicit":
            bad = ~((ratings >= lo) & (ratings <= hi))
        else:
            bad = (ratings != 0.0) & (ratings != 1.0)
        if bad.any():
            k = int(bad.argmax())
            (u, i), r = pair(k), float(ratings[k])
            if kind == "explicit":
                raise ValidationError(
                    f"rating {r} for ({u}, {i}) outside scale [{lo}, {hi}]"
                )
            raise ValidationError(
                f"implicit rating for ({u}, {i}) must be 0 or 1, got {r}"
            )
        if not allow_duplicate_pairs:
            k = _first_repeat(*_pair_runs(user_codes, item_codes, len(item_tokens)))
            if k is not None:
                raise ValidationError("duplicate (user, item) pair ({}, {})".format(*pair(k)))

        if user_index is None:
            user_index = {u: k for k, u in enumerate(sorted(user_tokens))}
        if item_index is None:
            item_index = {i: k for k, i in enumerate(sorted(item_tokens))}
        user_at = np.array([user_index.get(u, -1) for u in user_tokens], dtype=np.int64)
        item_at = np.array([item_index.get(i, -1) for i in item_tokens], dtype=np.int64)
        self.users = user_at[user_codes]
        self.items = item_at[item_codes]
        missing = (self.users < 0) | (self.items < 0)
        if missing.any():
            raise ValidationError(
                "triple ({}, {}) not covered by index maps".format(*pair(int(missing.argmax())))
            )
        # a copy, so that freezing the columns never freezes a caller's array
        self.ratings = np.array(ratings, dtype=np.float64)
        for column in (self.users, self.items, self.ratings):
            column.flags.writeable = False
        self.kind = kind
        self.scale = (lo, hi)
        self.user_index = dict(user_index)
        self.item_index = dict(item_index)
        self.metadata = dict(metadata or {})

    @property
    def n_users(self):
        return len(self.user_index)

    @property
    def n_items(self):
        return len(self.item_index)

    def __len__(self):
        return self.ratings.size

    def indexed(self):
        """The (user index, item index, rating) columns as aligned arrays."""
        return self.users, self.items, self.ratings

    def tokens(self):
        """User and item tokens as lists ordered by index."""
        return tokens_by_index(self.user_index), tokens_by_index(self.item_index)

    @property
    def triples(self):
        """(user, item, rating) tuples in row order, built on each access."""
        user_tokens, item_tokens = self.tokens()
        return tuple(
            (user_tokens[u], item_tokens[i], r)
            for u, i, r in zip(self.users.tolist(), self.items.tolist(),
                               self.ratings.tolist())
        )

    def items_by_user(self, positive_only=False, with_ratings=False):
        """The items each user rated, as a UserItems: every user's item
        indices ascending, a repeated pair (in a bootstrap resample) as
        often as it occurs.

        With positive_only, ratings of 0 (implicit negatives) are left
        out. with_ratings makes the ratings the values, and then each
        (user, item) pair is held once, with its last row's rating.
        """
        u, i, r = self.indexed()
        if positive_only:
            keep = r != 0.0
            u, i, r = u[keep], i[keep], r[keep]
        return UserItems.from_columns(u, i, self.n_users, self.n_items,
                                      r if with_ratings else None)

    def replace(self, columns=None, metadata=None, allow_duplicate_pairs=False,
                user_index=None, item_index=None):
        """Copy with new columns, metadata or index maps.

        columns: (users, items, ratings) arrays under this dataset's index
        maps, as ``indexed()`` returns them. With new index maps each
        rating moves to its tokens' indices there; a token a new map lacks
        raises ValidationError.
        """
        users, items, ratings = self.indexed() if columns is None else columns
        user_tokens, item_tokens = self.tokens()
        return RatingDataset._of(
            (np.asarray(users, dtype=np.int64), user_tokens),
            (np.asarray(items, dtype=np.int64), item_tokens),
            np.asarray(ratings, dtype=np.float64),
            self.kind,
            self.scale,
            user_index=self.user_index if user_index is None else user_index,
            item_index=self.item_index if item_index is None else item_index,
            metadata=self.metadata if metadata is None else metadata,
            allow_duplicate_pairs=allow_duplicate_pairs,
        )


def _csv_rows(lines, has_header):
    """Yield (line number, user, item, rating, timestamp or None) for each
    data line; raise ParseError for a malformed one."""
    saw_data_line = False
    expect_header = has_header
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) not in (3, 4):
            raise ParseError(
                f"line {line_no}: expected 3 or 4 comma-separated fields, got {len(parts)}",
                line_number=line_no,
            )
        if expect_header is not False and not saw_data_line:
            if expect_header is True:
                expect_header = False
                continue
            # auto-detect: a first line whose rating field is not numeric
            try:
                float(parts[2])
                expect_header = False
            except ValueError:
                expect_header = False
                continue
        user, item = parts[0], parts[1]
        if not user or not item:
            raise ParseError(f"line {line_no}: empty user or item token", line_number=line_no)
        try:
            rating = float(parts[2])
        except ValueError:
            raise ParseError(
                f"line {line_no}: rating {parts[2]!r} is not a number", line_number=line_no
            ) from None
        ts = None
        if len(parts) == 4:
            try:
                ts = float(parts[3])
            except ValueError:
                raise ParseError(
                    f"line {line_no}: timestamp {parts[3]!r} is not a number",
                    line_number=line_no,
                ) from None
        saw_data_line = True
        yield line_no, user, item, rating, ts


def parse_csv(source, schema=None):
    """Parse "user,item,rating[,timestamp]" lines into a RatingDataset.

    Lines are read one at a time; tokens become first-seen codes in typed
    buffers and duplicate pairs are resolved over the whole column at the
    end, so nothing is kept per line but the codes, rating and line number.

    Args:
        source: a string, or any iterable of lines (e.g. an open file).
        schema: CsvSchema; defaults to explicit ratings on a 1-5 scale.

    Returns:
        RatingDataset with rows in first-occurrence order. Timestamps, when
        present, are kept in metadata["timestamps"] keyed by (user, item)
        but play no role in modeling.

    Raises:
        ParseError: malformed line (with its 1-based line number).
        ValidationError: out-of-scale rating, or a duplicate pair under the
            "error" policy.
        NoDataError: no data lines at all.
    """
    schema = schema or CsvSchema()
    policy = schema.duplicate_policy
    lines = source.splitlines() if isinstance(source, str) else source
    users, items = _Interner(), _Interner()
    ratings, line_numbers = array("d"), array("q")
    stamped, stamps = array("q"), array("d")  # row positions with a timestamp

    def runs():
        user_codes, user_tokens = users.columns()
        item_codes, item_tokens = items.columns()
        order, starts = _pair_runs(user_codes, item_codes, len(item_tokens))
        if policy == "error":
            row = _first_repeat(order, starts)
            if row is not None:
                raise ValidationError(
                    f"line {line_numbers[row]}: duplicate pair "
                    f"({user_tokens[user_codes[row]]}, {item_tokens[item_codes[row]]})"
                )
        return order, starts

    try:
        for line_no, user, item, rating, ts in _csv_rows(lines, schema.has_header):
            if ts is not None:
                stamped.append(len(ratings))
                stamps.append(ts)
            users.add(user)
            items.add(item)
            ratings.append(rating)
            line_numbers.append(line_no)
    except ParseError:
        if policy == "error" and ratings:
            runs()  # a duplicate on an earlier line is reported first
        raise

    if not ratings:
        raise NoDataError("csv stream contains no rating lines")
    order, starts = runs()
    first = order[starts]
    last = order[np.append(starts[1:], True)]
    by_first = np.argsort(first)
    kept = first[by_first]
    values = (first if policy == "first" else last)[by_first]

    user_codes, user_tokens = users.columns()
    item_codes, item_tokens = items.columns()
    timestamps = {}
    if stamped:
        is_first = np.zeros(len(ratings), dtype=bool)
        is_first[first] = True
        for row, ts in zip(stamped, stamps):
            # "first" skips a repeated line whole, timestamp included
            if policy != "first" or is_first[row]:
                key = (user_tokens[user_codes[row]], item_tokens[item_codes[row]])
                timestamps[key] = ts
    metadata = {"timestamps": timestamps} if timestamps else {}
    return RatingDataset._of(
        (user_codes[kept], user_tokens),
        (item_codes[kept], item_tokens),
        np.frombuffer(ratings)[values],
        schema.kind,
        schema.scale,
        metadata=metadata,
    )


def check_cells(what, shape, advice):
    """Refuse an array of this shape above DENSE_CELL_CAP cells.

    Every dense table sized from the input (the dense rating matrix, the
    factor and latent tables) is checked here before anything of it is
    allocated, and so are the item co-occurrence counts an itemcf scoring
    call makes (factor.ItemCfModel), against the cap as it is when
    called. Raises CapacityError naming what, its shape and the advice.
    """
    cells = math.prod(shape)
    if cells > DENSE_CELL_CAP:
        raise CapacityError(
            f"{what} of {' x '.join(map(str, shape))} = {cells} cells "
            f"exceeds the cap of {DENSE_CELL_CAP}; {advice}"
        )


def to_dense(ds):
    """Materialize a dataset as (dense matrix, mask matrix).

    Missing cells hold NaN in the dense matrix and 0 in the mask. Refuses
    to build matrices above DENSE_CELL_CAP cells (check_cells); factor
    models handle that scale.
    """
    m, n = ds.n_users, ds.n_items
    check_cells("dense matrix", (m, n), "use a factor model instead")
    dense = np.full((m, n), np.nan)
    mask = np.zeros((m, n))
    u, i, r = ds.indexed()
    dense[u, i] = r
    mask[u, i] = 1.0
    return dense, mask


# a sum of ratings near the float maximum overflows, and one of both signs
# can then make inf - inf: such a mean is refused below, not warned of
@np.errstate(over="ignore", invalid="ignore")
def impute(matrix, mask, strategy="global"):
    """Fill unobserved cells with a global, per-user, or per-item mean.

    Observed cells are returned unchanged. Rows (or columns) with no
    observation fall back to the global mean.

    Raises:
        NoDataError: the mask has no observed cell.
        MagnitudeError: a mean overflows float64, as the sum of ratings
            near the float maximum does.
        ValueError: unknown strategy or mismatched shapes.
    """
    matrix = np.asarray(matrix, dtype=float)
    mask = np.asarray(mask, dtype=float)
    if matrix.shape != mask.shape:
        raise ValueError(f"matrix {matrix.shape} and mask {mask.shape} differ in shape")
    if strategy not in ("global", "user", "item"):
        raise ValueError(f"unknown imputation strategy {strategy!r}")
    observed = mask == 1.0
    if not observed.any():
        raise NoDataError("cannot impute: no observed entries")
    fill = np.full(matrix.shape, matrix[observed].mean())
    if strategy != "global":
        # item means run over the columns: the rows of the .T views, so
        # the means are written through fill.T into the one C-order fill
        views = (matrix, observed, fill) if strategy == "user" else (matrix.T, observed.T, fill.T)
        for values, obs, out in zip(*views):
            if obs.any():
                out[:] = values[obs].mean()
    # two reductions rather than an m x n isfinite mask: an inf mean is
    # the fill's max (-inf its min), and a NaN one makes both NaN
    if not np.isfinite([fill.min(), fill.max()]).all():
        raise MagnitudeError("the mean of the observed ratings overflows float64")
    np.copyto(fill, matrix, where=observed)
    return fill


def negative_sample(ds, ratio=3.0, seed=0):
    """Add popularity-weighted zero ratings to an implicit dataset.

    For each user, round(ratio * positives) items the user has never
    interacted with are drawn without replacement, with probability
    proportional to each item's global interaction count. Users with no
    unseen items are skipped; users with fewer unseen items than the target
    are capped. Both cases are counted in the result metadata
    ("negative_users_skipped" / "negative_users_capped").

    Args:
        ds: implicit dataset (positives rated 1).
        ratio: negatives per positive, default 3; finite and above 0.
        seed: rng seed; the result is a pure function of (ds, ratio, seed).
    """
    if ds.kind != "implicit":
        raise ValidationError("negative sampling needs an implicit dataset")
    if not (math.isfinite(ratio) and ratio > 0):
        raise ValidationError(f"negative ratio must be finite and above 0, got {ratio}")
    rng = np.random.default_rng(seed)
    n = ds.n_items
    u_idx, i_idx, r_val = ds.indexed()
    popularity = np.zeros(n)
    np.add.at(popularity, i_idx[r_val > 0], 1.0)

    seen = ds.items_by_user(positive_only=False)
    positives = ds.items_by_user(positive_only=True)

    new_users, new_items = array("q"), array("q")
    skipped = capped = 0
    for u in range(ds.n_users):
        target = _round_half_up(ratio * len(positives[u]))
        if target == 0:
            continue
        candidates = np.setdiff1d(np.arange(n), seen[u])
        if candidates.size == 0:
            skipped += 1
            continue
        if candidates.size < target:
            capped += 1
            target = int(candidates.size)
        weights = popularity[candidates].astype(float)
        for _ in range(target):
            total = weights.sum()
            if total > 0:
                probs = weights / total
                pick = int(rng.choice(candidates.size, p=probs))
            else:
                pick = int(rng.integers(candidates.size))
            new_users.append(u)
            new_items.append(int(candidates[pick]))
            candidates = np.delete(candidates, pick)
            weights = np.delete(weights, pick)

    added = len(new_users)
    metadata = dict(ds.metadata)
    metadata.update(
        negative_users_skipped=skipped,
        negative_users_capped=capped,
        negatives_added=added,
    )
    columns = (
        np.concatenate([u_idx, np.frombuffer(new_users, dtype=np.int64)]),
        np.concatenate([i_idx, np.frombuffer(new_items, dtype=np.int64)]),
        np.concatenate([r_val, np.zeros(added)]),
    )
    return ds.replace(columns, metadata=metadata)


def split(ds, fraction, seed=0):
    """Per-user stratified train/test split.

    The global test size is round(fraction * len(ds)), apportioned across
    users by largest remainder, with the constraint that every user keeps
    at least one training rating. When the caps make the global target
    unreachable the shortfall is recorded in both datasets' metadata under
    "stratification_short". Deterministic for a fixed seed; the two parts
    are disjoint, their union is the input, and both keep the parent index
    maps.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"holdout fraction must be in (0, 1), got {fraction}")
    rng = np.random.default_rng(seed)
    target = _round_half_up(fraction * len(ds))

    # rows of each user, in dataset order
    counts = np.bincount(ds.users, minlength=ds.n_users)
    by_user = np.split(np.argsort(ds.users, kind="stable"), np.cumsum(counts)[:-1])
    sizes = counts.tolist()
    users = np.flatnonzero(counts).tolist()

    quotas = {u: fraction * sizes[u] for u in users}
    base = {u: min(int(math.floor(quotas[u])), sizes[u] - 1) for u in users}
    remaining = target - sum(base.values())
    by_remainder = sorted(users, key=lambda u: (-(quotas[u] - math.floor(quotas[u])), u))
    progressed = True
    while remaining > 0 and progressed:
        progressed = False
        for u in by_remainder:
            if remaining == 0:
                break
            if base[u] < sizes[u] - 1:
                base[u] += 1
                remaining -= 1
                progressed = True

    in_test = np.zeros(len(ds), dtype=bool)
    for u in users:
        take = base[u]
        if take == 0:
            continue
        perm = rng.permutation(sizes[u])
        in_test[by_user[u][perm[:take]]] = True

    metadata = dict(ds.metadata)
    if remaining > 0:
        metadata["stratification_short"] = remaining
    if not in_test.any():
        raise ValidationError(
            "holdout fraction leaves an empty test set; every user has a single rating"
        )
    columns = ds.indexed()
    return (
        ds.replace([c[~in_test] for c in columns], metadata=metadata),
        ds.replace([c[in_test] for c in columns], metadata=metadata),
    )
