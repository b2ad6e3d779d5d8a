"""Rating data model: ingestion, dense conversion, imputation, sampling.

A dataset is a list of (user, item, rating) triples over opaque string
tokens plus dense integer index maps. Index maps are built in sorted token
order so the same input always produces the same indexing. Datasets are
treated as immutable after construction; every transformation returns a new
object.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CapacityError,
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


class RatingDataset:
    """Sparse (user, item, rating) triples with dense index maps.

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
        triples = [(str(u), str(i), float(r)) for u, i, r in triples]
        if not triples:
            raise NoDataError("dataset has no triples")
        if kind not in ("explicit", "implicit"):
            raise ValidationError(f"unknown dataset kind {kind!r}")
        lo, hi = float(scale[0]), float(scale[1])
        if not lo < hi:
            raise ValidationError(f"scale low must be below high, got [{lo}, {hi}]")
        for u, i, r in triples:
            if kind == "explicit":
                if not lo <= r <= hi:
                    raise ValidationError(
                        f"rating {r} for ({u}, {i}) outside scale [{lo}, {hi}]"
                    )
            elif r not in (0.0, 1.0):
                raise ValidationError(
                    f"implicit rating for ({u}, {i}) must be 0 or 1, got {r}"
                )
        if not allow_duplicate_pairs:
            seen = set()
            for u, i, _ in triples:
                if (u, i) in seen:
                    raise ValidationError(f"duplicate (user, item) pair ({u}, {i})")
                seen.add((u, i))

        if user_index is None:
            user_index = {u: k for k, u in enumerate(sorted({t[0] for t in triples}))}
        if item_index is None:
            item_index = {i: k for k, i in enumerate(sorted({t[1] for t in triples}))}
        for u, i, _ in triples:
            if u not in user_index or i not in item_index:
                raise ValidationError(f"triple ({u}, {i}) not covered by index maps")

        self.triples = tuple(triples)
        self.kind = kind
        self.scale = (lo, hi)
        self.user_index = dict(user_index)
        self.item_index = dict(item_index)
        self.metadata = dict(metadata or {})
        self._arrays = None

    @property
    def n_users(self):
        return len(self.user_index)

    @property
    def n_items(self):
        return len(self.item_index)

    def __len__(self):
        return len(self.triples)

    def indexed(self):
        """Triples as three aligned arrays (user idx, item idx, rating)."""
        if self._arrays is None:
            u = np.fromiter((self.user_index[t[0]] for t in self.triples), dtype=np.int64)
            i = np.fromiter((self.item_index[t[1]] for t in self.triples), dtype=np.int64)
            r = np.fromiter((t[2] for t in self.triples), dtype=float)
            self._arrays = (u, i, r)
        return self._arrays

    def items_by_user(self, positive_only=False):
        """Per-user arrays of rated item indices, ascending.

        With positive_only, triples rated 0 (implicit negatives) are left
        out; for explicit data the two variants coincide.
        """
        u, i, r = self.indexed()
        sets = [[] for _ in range(self.n_users)]
        for k in range(len(u)):
            if positive_only and r[k] == 0.0:
                continue
            sets[u[k]].append(i[k])
        return [np.array(sorted(s), dtype=np.int64) for s in sets]

    def replace(self, triples=None, metadata=None, allow_duplicate_pairs=False):
        """Copy with new triples and/or metadata, keeping the index maps."""
        return RatingDataset(
            triples if triples is not None else self.triples,
            kind=self.kind,
            scale=self.scale,
            user_index=self.user_index,
            item_index=self.item_index,
            metadata=metadata if metadata is not None else self.metadata,
            allow_duplicate_pairs=allow_duplicate_pairs,
        )


def parse_csv(source, schema=None):
    """Parse "user,item,rating[,timestamp]" lines into a RatingDataset.

    Args:
        source: a string, or any iterable of lines (e.g. an open file).
        schema: CsvSchema; defaults to explicit ratings on a 1-5 scale.

    Returns:
        RatingDataset. Timestamps, when present, are kept in
        metadata["timestamps"] keyed by (user, item) but play no role in
        modeling.

    Raises:
        ParseError: malformed line (with its 1-based line number).
        ValidationError: out-of-scale rating, or a duplicate pair under the
            "error" policy.
        NoDataError: no data lines at all.
    """
    schema = schema or CsvSchema()
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = [line.rstrip("\n") for line in source]

    kept = {}  # (user, item) -> (order, rating)
    timestamps = {}
    order = 0
    saw_data_line = False
    expect_header = schema.has_header
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
        key = (user, item)
        if key in kept:
            if schema.duplicate_policy == "error":
                raise ValidationError(
                    f"line {line_no}: duplicate pair ({user}, {item})"
                )
            if schema.duplicate_policy == "first":
                continue
            kept[key] = (kept[key][0], rating)  # keep-last: value replaced in place
        else:
            kept[key] = (order, rating)
            order += 1
        if ts is not None:
            timestamps[key] = ts

    if not kept:
        raise NoDataError("csv stream contains no rating lines")
    ordered = sorted(kept.items(), key=lambda kv: kv[1][0])
    triples = [(u, i, r) for (u, i), (_, r) in ordered]
    metadata = {"timestamps": timestamps} if timestamps else {}
    return RatingDataset(triples, kind=schema.kind, scale=schema.scale, metadata=metadata)


def to_dense(ds, cap=DENSE_CELL_CAP):
    """Materialize a dataset as (dense matrix, mask matrix).

    Missing cells hold NaN in the dense matrix and 0 in the mask. Refuses
    to build matrices above ``cap`` cells; factor models handle that scale.
    """
    m, n = ds.n_users, ds.n_items
    if m * n > cap:
        raise CapacityError(
            f"dense matrix of {m} x {n} = {m * n} cells exceeds the cap of {cap}; "
            "use a factor model instead"
        )
    dense = np.full((m, n), np.nan)
    mask = np.zeros((m, n))
    u, i, r = ds.indexed()
    dense[u, i] = r
    mask[u, i] = 1.0
    return dense, mask


def impute(matrix, mask, strategy="global"):
    """Fill unobserved cells with a global, per-user, or per-item mean.

    Observed cells are returned unchanged. Rows (or columns) with no
    observation fall back to the global mean.

    Raises:
        NoDataError: the mask has no observed cell.
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
    global_mean = float(matrix[observed].mean())
    if strategy == "global":
        fill = np.full(matrix.shape, global_mean)
    elif strategy == "user":
        fill = np.empty(matrix.shape)
        for row in range(matrix.shape[0]):
            obs = observed[row]
            fill[row, :] = matrix[row, obs].mean() if obs.any() else global_mean
    else:
        fill = np.empty(matrix.shape)
        for col in range(matrix.shape[1]):
            obs = observed[:, col]
            fill[:, col] = matrix[obs, col].mean() if obs.any() else global_mean
    return np.where(observed, matrix, fill)


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
        ratio: negatives per positive, default 3.
        seed: rng seed; the result is a pure function of (ds, ratio, seed).
    """
    if ds.kind != "implicit":
        raise ValidationError("negative sampling needs an implicit dataset")
    if ratio <= 0:
        raise ValueError(f"ratio must be positive, got {ratio}")
    rng = np.random.default_rng(seed)
    n = ds.n_items
    u_idx, i_idx, r_val = ds.indexed()
    popularity = np.zeros(n)
    np.add.at(popularity, i_idx[r_val > 0], 1.0)

    seen = ds.items_by_user(positive_only=False)
    positives = ds.items_by_user(positive_only=True)
    inv_user = {v: k for k, v in ds.user_index.items()}
    inv_item = {v: k for k, v in ds.item_index.items()}

    new_triples = list(ds.triples)
    skipped = capped = added = 0
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
            new_triples.append((inv_user[u], inv_item[int(candidates[pick])], 0.0))
            candidates = np.delete(candidates, pick)
            weights = np.delete(weights, pick)
            added += 1

    metadata = dict(ds.metadata)
    metadata.update(
        negative_users_skipped=skipped,
        negative_users_capped=capped,
        negatives_added=added,
    )
    return ds.replace(triples=new_triples, metadata=metadata)


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
    n_total = len(ds.triples)
    target = _round_half_up(fraction * n_total)

    by_user = {}
    for pos, (u, _, _) in enumerate(ds.triples):
        by_user.setdefault(ds.user_index[u], []).append(pos)
    users = sorted(by_user)

    quotas = {u: fraction * len(by_user[u]) for u in users}
    base = {u: min(int(math.floor(quotas[u])), len(by_user[u]) - 1) for u in users}
    remaining = target - sum(base.values())
    by_remainder = sorted(users, key=lambda u: (-(quotas[u] - math.floor(quotas[u])), u))
    progressed = True
    while remaining > 0 and progressed:
        progressed = False
        for u in by_remainder:
            if remaining == 0:
                break
            if base[u] < len(by_user[u]) - 1:
                base[u] += 1
                remaining -= 1
                progressed = True

    test_positions = set()
    for u in users:
        take = base[u]
        if take == 0:
            continue
        perm = rng.permutation(len(by_user[u]))
        for k in perm[:take]:
            test_positions.add(by_user[u][k])

    train = [t for p, t in enumerate(ds.triples) if p not in test_positions]
    test = [t for p, t in enumerate(ds.triples) if p in test_positions]
    metadata = dict(ds.metadata)
    if remaining > 0:
        metadata["stratification_short"] = remaining
    if not test:
        raise ValidationError(
            "holdout fraction leaves an empty test set; every user has a single rating"
        )
    return ds.replace(triples=train, metadata=metadata), ds.replace(
        triples=test, metadata=metadata
    )
