"""Acceptance checks: the eleven end-to-end criteria for this package.

Each criterion lives in one check function that asserts at the stated
tolerance and returns a short summary. The pytest wrappers print one
PASS line per criterion; running this file directly (or via
``python3 -m tests.test_acceptance``) prints the same lines standalone,
with FAIL lines and a nonzero exit code on any regression.
"""

import math
import sys
import tempfile
import time

import numpy as np

from latentrec import linalg, svdcf
from latentrec.data import RatingDataset, impute, negative_sample, parse_csv, split
from latentrec.ensemble import BlendModel
from latentrec.factor import (
    FactorModel,
    TrainConfig,
    funk_loss,
    funk_loss_gradient,
    funk_train,
    itemcf_similarity,
    svdpp_loss,
    svdpp_loss_gradient,
    svdpp_train,
)
from latentrec.fm import (
    EncoderSpec,
    FeatureVector,
    FfmModel,
    FmModel,
    encode,
    ffm_gradient,
    ffm_predict,
    ffm_train,
    fm_gradient,
    fm_predict_fast,
    fm_predict_naive,
    fm_train,
)
from latentrec.persist import ModelBundle, load_model, save_model

try:
    from tests.conftest import (
        FOUR_BY_FOUR_CSV,
        FOUR_BY_FOUR_MASK,
        FOUR_BY_FOUR_RATINGS,
        FOUR_BY_FOUR_RSTAR,
        make_rank2_ratings,
        make_svdpp_ratings,
    )
except ImportError:  # running the file directly from inside tests/
    from conftest import (
        FOUR_BY_FOUR_CSV,
        FOUR_BY_FOUR_MASK,
        FOUR_BY_FOUR_RATINGS,
        FOUR_BY_FOUR_RSTAR,
        make_rank2_ratings,
        make_svdpp_ratings,
    )


def _close(analytic, numeric, tol):
    return abs(analytic - numeric) <= tol * (1.0 + abs(numeric))


def check_01_worked_example():
    """Printed reconstruction + mask reproduce the worked prediction."""
    start = time.perf_counter()
    model = svdcf.SvdCfModel(
        r_star=FOUR_BY_FOUR_RSTAR,
        mask=FOUR_BY_FOUR_MASK,
        f=2,
        similarity_mode="paper-dot",
    )
    info = svdcf.predict_with_info(model, 2, 1)
    rounded = svdcf.round_to_scale(info.value, (1.0, 5.0))
    elapsed = time.perf_counter() - start
    assert abs(info.similarity_total - 13.94) <= 0.05, info.similarity_total
    assert abs(info.value - 1.4) <= 0.05, info.value
    assert rounded == 1.0, rounded
    assert elapsed < 1.0, f"{elapsed:.3f}s"
    return (f"similarity_total {info.similarity_total:.4f}, "
            f"prediction {info.value:.4f} -> {int(rounded)}, {elapsed:.3f}s")


def check_02_imputation():
    """Global and user mean fills match the worked averages."""
    filled_global = impute(FOUR_BY_FOUR_RATINGS, FOUR_BY_FOUR_MASK, "global")
    filled_user = impute(FOUR_BY_FOUR_RATINGS, FOUR_BY_FOUR_MASK, "user")
    global_fill = filled_global[0, 2]
    user_fill = filled_user[0, 2]
    assert abs(global_fill - 37.0 / 11.0) <= 1e-12, global_fill
    assert abs(global_fill - 3.36) <= 0.005, global_fill
    assert abs(user_fill - 2.67) <= 0.005, user_fill
    return f"global fill {global_fill:.4f}, user-1 fill {user_fill:.4f}"


def check_03_rank_selection():
    """Energy threshold 0.95 keeps two of the printed singular values."""
    values = np.array([14.59, 3.22, 1.11, 0.23])
    f = linalg.rank_by_energy(values, 0.95)
    energy = float(np.sum(values[:2] ** 2) / np.sum(values ** 2))
    assert f == 2, f
    assert abs(energy - 0.9942) <= 0.0005, energy
    return f"f = {f}, retained energy {100 * energy:.2f}%"


def check_04_printed_factors():
    """Inner products of the printed example factors are exact."""
    model = FactorModel(
        kind="funk",
        P=np.array([[1.2], [0.8]]),
        Q=np.array([[1.0, 0.8], [1.1, 0.4]]),
        f=2,
    )
    first = model.predict(0, 0)
    second = model.predict(0, 1)
    assert first == 2.08, first
    assert second == 1.28, second
    return f"predictions {first} and {second}, exact"


def check_05_svd_properties():
    """Factor orthonormality and reconstruction on 200 random matrices."""
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    worst_orth = 0.0
    worst_rec = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 65))
        n = int(rng.integers(1, 65))
        a = rng.normal(size=(m, n))
        res = linalg.svd(a)
        r = res.s.size
        worst_orth = max(
            worst_orth,
            float(np.abs(res.u.T @ res.u - np.eye(r)).max()),
            float(np.abs(res.v.T @ res.v - np.eye(r)).max()),
        )
        recon = (res.u * res.s) @ res.v.T
        worst_rec = max(
            worst_rec, float(np.linalg.norm(recon - a) / np.linalg.norm(a))
        )
    elapsed = time.perf_counter() - start
    assert worst_orth <= 1e-10, worst_orth
    assert worst_rec <= 1e-8, worst_rec
    assert elapsed < 30.0, f"{elapsed:.1f}s"
    return (f"orthonormality {worst_orth:.2e}, reconstruction {worst_rec:.2e}, "
            f"{elapsed:.1f}s")


def check_06_fm_identity():
    """Linear-time FM evaluation equals the double loop on 1000 instances."""
    rng = np.random.default_rng(20)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(1000):
        n = int(rng.integers(2, 65))
        k = int(rng.integers(1, 9))
        model = FmModel(
            w0=float(rng.normal()),
            w=rng.normal(size=n),
            V=rng.normal(size=(n, k)),
            k=k,
        )
        x = rng.normal(size=n) * (rng.random(n) < 0.5)
        naive = fm_predict_naive(model, x)
        fast = fm_predict_fast(model, x)
        worst = max(worst, abs(fast - naive) / (1.0 + abs(naive)))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10, worst
    assert elapsed < 10.0, f"{elapsed:.1f}s"
    return f"worst relative gap {worst:.2e} over 1000 instances, {elapsed:.1f}s"


def _fm_gradient_gap(rng):
    n = int(rng.integers(2, 9))
    k = int(rng.integers(1, 4))
    model = FmModel(w0=float(rng.normal()), w=rng.normal(size=n),
                    V=rng.normal(size=(n, k)), k=k)
    x = rng.normal(size=n) * (rng.random(n) < 0.6)
    if not np.any(x):
        x[0] = 1.0
    vec = FeatureVector.from_dense(x)
    grad = fm_gradient(model, vec)
    h = 1e-5
    gaps = []
    for a, i in enumerate(vec.indices):
        orig = model.w[i]
        model.w[i] = orig + h
        up = fm_predict_fast(model, vec)
        model.w[i] = orig - h
        down = fm_predict_fast(model, vec)
        model.w[i] = orig
        fd = (up - down) / (2 * h)
        gaps.append(0.0 if _close(grad.w[a], fd, 1e-6) else abs(grad.w[a] - fd))
        for c in range(k):
            orig = model.V[i, c]
            model.V[i, c] = orig + h
            up = fm_predict_fast(model, vec)
            model.V[i, c] = orig - h
            down = fm_predict_fast(model, vec)
            model.V[i, c] = orig
            fd = (up - down) / (2 * h)
            gaps.append(0.0 if _close(grad.v[a, c], fd, 1e-6)
                        else abs(grad.v[a, c] - fd))
    return max(gaps)


def _ffm_gradient_gap(rng):
    n, n_fields = 6, 3
    k = int(rng.integers(1, 4))
    model = FfmModel(w0=float(rng.normal()), w=rng.normal(size=n),
                     V=rng.normal(size=(n, n_fields, k)), k=k,
                     n_fields=n_fields)
    x = rng.normal(size=n) * (rng.random(n) < 0.6)
    if not np.any(x):
        x[0] = 1.0
    base = FeatureVector.from_dense(x)
    vec = FeatureVector(base.indices, base.values, n,
                        fields=rng.integers(0, n_fields, size=base.nnz))
    grad = ffm_gradient(model, vec)
    h = 1e-5
    worst = 0.0
    for a, i in enumerate(grad.indices):
        for f in range(n_fields):
            for c in range(k):
                orig = model.V[i, f, c]
                model.V[i, f, c] = orig + h
                up = ffm_predict(model, vec)
                model.V[i, f, c] = orig - h
                down = ffm_predict(model, vec)
                model.V[i, f, c] = orig
                fd = (up - down) / (2 * h)
                if not _close(grad.v[a, f, c], fd, 1e-4):
                    worst = max(worst, abs(grad.v[a, f, c] - fd))
    return worst


def _array_fd_gap(loss_fn, arrays, analytic, tol):
    """Worst finite-difference mismatch over every entry of every array."""
    h = 1e-5
    worst = 0.0
    for name, arr in arrays.items():
        grad = analytic[name]
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            at = it.multi_index
            orig = arr[at]
            arr[at] = orig + h
            up = loss_fn()
            arr[at] = orig - h
            down = loss_fn()
            arr[at] = orig
            fd = (up - down) / (2 * h)
            if not _close(grad[at], fd, tol):
                worst = max(worst, abs(grad[at] - fd))
            it.iternext()
    return worst


def _funk_loss_gap(rng):
    m = int(rng.integers(2, 6))
    n = int(rng.integers(2, 6))
    f = int(rng.integers(1, 4))
    model = FactorModel(kind="funk", P=rng.normal(size=(f, m)),
                        Q=rng.normal(size=(f, n)), f=f)
    triples = [
        (int(rng.integers(m)), int(rng.integers(n)), float(rng.uniform(1, 5)))
        for _ in range(6)
    ]
    lam = 0.1
    d_p, d_q = funk_loss_gradient(model, triples, lam)
    return _array_fd_gap(
        lambda: funk_loss(model, triples, lam),
        {"P": model.P, "Q": model.Q},
        {"P": d_p, "Q": d_q},
        1e-4,
    )


def _svdpp_loss_gap(rng):
    m = int(rng.integers(2, 5))
    n = int(rng.integers(2, 5))
    f = int(rng.integers(1, 3))
    sets = [
        np.array(sorted(rng.choice(n, size=rng.integers(0, n + 1),
                                   replace=False)), dtype=np.int64)
        for _ in range(m)
    ]
    model = FactorModel(
        kind="svdpp",
        P=rng.normal(size=(f, m)),
        Q=rng.normal(size=(f, n)),
        f=f,
        mu=float(rng.normal()),
        b_u=rng.normal(size=m),
        b_i=rng.normal(size=n),
        Y=rng.normal(size=(f, n)),
        N=sets,
    )
    triples = [
        (int(rng.integers(m)), int(rng.integers(n)), float(rng.uniform(1, 5)))
        for _ in range(5)
    ]
    lam = 0.05
    grads = svdpp_loss_gradient(model, triples, lam)
    return _array_fd_gap(
        lambda: svdpp_loss(model, triples, lam),
        {"P": model.P, "Q": model.Q, "Y": model.Y,
         "b_u": model.b_u, "b_i": model.b_i},
        grads,
        1e-4,
    )


def check_07_gradient_suite():
    """Analytic gradients match central differences for all four models."""
    worst = {
        "fm": max(_fm_gradient_gap(np.random.default_rng(100 + t))
                  for t in range(50)),
        "funk": max(_funk_loss_gap(np.random.default_rng(200 + t))
                    for t in range(50)),
        "svdpp": max(_svdpp_loss_gap(np.random.default_rng(300 + t))
                     for t in range(50)),
        "ffm": max(_ffm_gradient_gap(np.random.default_rng(400 + t))
                   for t in range(50)),
    }
    assert all(v == 0.0 for v in worst.values()), worst
    return "fm, funk, svdpp, ffm each clean on 50 instances"


def check_08_desk_scale_learning():
    """Both factor trainers recover their synthetic generators."""
    ds, _ = make_rank2_ratings()
    train, test = split(ds, 0.2, seed=7)
    start = time.perf_counter()
    funk = funk_train(train, TrainConfig(f=2, alpha=0.01, lam=0.02,
                                         epochs=200, seed=42))
    funk_time = time.perf_counter() - start
    users, items, ratings = test.indexed()
    preds = np.array([funk.predict(int(u), int(i)) for u, i in zip(users, items)])
    funk_rmse = float(np.sqrt(np.mean((ratings - preds) ** 2)))
    assert funk_rmse < 0.1, funk_rmse
    assert funk_time < 10.0, f"{funk_time:.1f}s"

    ds2, _ = make_svdpp_ratings(m=30, n=20, density=0.7, seed=3)
    train2, test2 = split(ds2, 0.2, seed=11)
    model2 = svdpp_train(train2, TrainConfig(f=2, alpha=0.02, lam=0.005,
                                             epochs=200, seed=42))
    users2, items2, ratings2 = test2.indexed()
    preds2 = np.array(
        [model2.predict(int(u), int(i)) for u, i in zip(users2, items2)]
    )
    svdpp_rmse = float(np.sqrt(np.mean((ratings2 - preds2) ** 2)))
    assert svdpp_rmse < 0.15, svdpp_rmse
    return (f"funk held-out rmse {funk_rmse:.4f} in {funk_time:.1f}s, "
            f"svdpp held-out rmse {svdpp_rmse:.4f}")


def check_09_optimizer_equivalence():
    """The optimizer-routed trainer matches the raw update loop bit for bit."""
    ds, _ = make_rank2_ratings(m=10, n=8, density=0.8, seed=5)
    cfg = TrainConfig(f=2, alpha=0.02, lam=0.01, epochs=3, seed=9)
    model = funk_train(ds, cfg)

    users, items, ratings = ds.indexed()
    rng = np.random.default_rng(cfg.seed)
    root = math.sqrt(cfg.f)
    pt = rng.random((ds.n_users, cfg.f)) / root
    qt = rng.random((ds.n_items, cfg.f)) / root
    for _ in range(cfg.epochs):
        for t in range(len(users)):
            u = users[t]
            i = items[t]
            p = pt[u].copy()
            q = qt[i].copy()
            err = ratings[t] - float(np.dot(p, q))
            pt[u] = p + cfg.alpha * (err * q - cfg.lam * p)
            qt[i] = q + cfg.alpha * (err * pt[u] - cfg.lam * q)
    assert np.array_equal(model.P, pt.T), "P trajectories differ"
    assert np.array_equal(model.Q, qt.T), "Q trajectories differ"
    return "funk trajectory identical to the hand-coded loop"


def check_10_negative_sampling():
    """Per-user balance within rounding and popularity-proportional draws."""
    rng = np.random.default_rng(3)
    pairs = set()
    for u in range(8):
        for i in rng.choice(30, size=int(rng.integers(1, 8)), replace=False):
            pairs.add((f"u{u}", f"i{i:02d}"))
    ds = RatingDataset(
        [(u, i, 1.0) for u, i in sorted(pairs)],
        kind="implicit",
        item_index={f"i{k:02d}": k for k in range(30)},
    )
    for ratio in (0.5, 1.0, 2.5, 3.0):
        out = negative_sample(ds, ratio=ratio, seed=7)
        positives = {}
        negatives = {}
        for u, _, r in out.triples:
            bucket = positives if r > 0 else negatives
            bucket[u] = bucket.get(u, 0) + 1
        for u, npos in positives.items():
            assert abs(negatives.get(u, 0) - ratio * npos) < 1.0, (ratio, u)

    crowd = [(f"p{k}", "A", 1.0) for k in range(9)] + [("p9", "B", 1.0)]
    crowd += [(f"t{k:05d}", "C", 1.0) for k in range(10_000)]
    pop = RatingDataset(crowd, kind="implicit")
    drawn = negative_sample(pop, ratio=1.0, seed=42)
    draws = [t for t in drawn.triples if t[2] == 0.0 and t[0].startswith("t")]
    assert len(draws) == 10_000, len(draws)
    share_a = sum(1 for t in draws if t[1] == "A") / len(draws)
    assert abs(share_a - 0.9) <= 0.02, share_a
    return f"balance within rounding, popular item drawn at {100 * share_a:.2f}%"


def check_11_persistence():
    """Save/load round-trips preserve predictions for every algorithm."""
    ds = parse_csv(FOUR_BY_FOUR_CSV)
    spec = EncoderSpec([
        ("user", "categorical", sorted(ds.user_index)),
        ("item", "categorical", sorted(ds.item_index)),
    ])
    samples = [(encode((u, i), spec), r) for u, i, r in ds.triples]
    observed = [row.tolist() for row in ds.items_by_user()]
    cfg = TrainConfig(f=2, alpha=0.02, lam=0.01, epochs=10, seed=3)

    def bundle(algorithm, model, obs=None):
        return ModelBundle(
            algorithm=algorithm,
            model=model,
            user_index=ds.user_index,
            item_index=ds.item_index,
            scale=ds.scale,
            observed=obs,
        )

    bundles = {
        "svd": bundle("svd", svdcf.fit(ds, rank_rule="fixed:2")),
        "funk": bundle("funk", funk_train(ds, cfg)),
        "svdpp": bundle("svdpp", svdpp_train(ds, cfg)),
        "itemcf": bundle("itemcf", itemcf_similarity(ds)),
        "fm": bundle("fm", fm_train(samples, config=cfg), observed),
        "ffm": bundle("ffm", ffm_train(samples, config=cfg), observed),
    }
    bundles["ensemble"] = bundle(
        "ensemble",
        BlendModel(
            members=[bundles["funk"].scorer, bundles["svd"].scorer],
            weights=[0.5, 0.5],
        ),
    )
    worst = 0.0
    with tempfile.TemporaryDirectory() as outdir:
        for name, before in bundles.items():
            after = load_model(save_model(before, f"{outdir}/{name}.json"))
            for u in ds.user_index:
                for i in ds.item_index:
                    gap = abs(before.predict(u, i) - after.predict(u, i))
                    worst = max(worst, gap)
                    assert gap <= 1e-12, (name, u, i, gap)
    return f"7 model types round-trip, worst gap {worst:.1e}"


CRITERIA = (
    (1, "worked example prediction", check_01_worked_example),
    (2, "imputation averages", check_02_imputation),
    (3, "rank selection energy", check_03_rank_selection),
    (4, "printed factor products", check_04_printed_factors),
    (5, "svd factor properties", check_05_svd_properties),
    (6, "fm evaluation identity", check_06_fm_identity),
    (7, "gradient suite", check_07_gradient_suite),
    (8, "desk-scale learning", check_08_desk_scale_learning),
    (9, "optimizer equivalence", check_09_optimizer_equivalence),
    (10, "negative sampling", check_10_negative_sampling),
    (11, "persistence round-trip", check_11_persistence),
)


def _execute(number):
    label, fn = next((lbl, f) for num, lbl, f in CRITERIA if num == number)
    print(f"criterion {number:02d} PASS: {label}: {fn()}")


def test_criterion_01_worked_example():
    _execute(1)


def test_criterion_02_imputation():
    _execute(2)


def test_criterion_03_rank_selection():
    _execute(3)


def test_criterion_04_printed_factors():
    _execute(4)


def test_criterion_05_svd_properties():
    _execute(5)


def test_criterion_06_fm_identity():
    _execute(6)


def test_criterion_07_gradient_suite():
    _execute(7)


def test_criterion_08_desk_scale_learning():
    _execute(8)


def test_criterion_09_optimizer_equivalence():
    _execute(9)


def test_criterion_10_negative_sampling():
    _execute(10)


def test_criterion_11_persistence():
    _execute(11)


def main():
    failures = 0
    for number, label, fn in CRITERIA:
        try:
            message = fn()
        except Exception as exc:
            failures += 1
            print(f"criterion {number:02d} FAIL: {label}: {exc}")
        else:
            print(f"criterion {number:02d} PASS: {label}: {message}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
