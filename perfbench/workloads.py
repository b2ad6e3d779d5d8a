"""The three benchmark workloads: their inputs, commands and queries.

A workload is data, not code: which inputs it generates, which models it
trains with which flags, which models it evaluates, and which models the
recommend queries go to. The harness turns it into `latentrec` command
lines. Each workload puts a different layer in front:

    svd-complete   Jacobi SVD completion (linalg, svdcf, data.to_dense and
                   impute, persist on a large dense model file)
    factor-train   per-triple training (factor, fm, optim, fm.encode)
    implicit-topn  per-item scoring and top-k (ItemCF, fm, ensemble vote,
                   data.negative_sample)
"""

from dataclasses import dataclass

import inputs

# svd completion flags: a fixed rank and a neighbourhood cut, so that
# recommend lists depend on the user (the default energy rule keeps rank 1
# on these inputs, which ranks items the same for everyone)
SVD_FLAGS = ("--algo", "svd", "--rank-rule", "fixed:10", "--neighborhood", "40")
FACTOR_FLAGS = ("--factors", "8", "--epochs", "2")


@dataclass(frozen=True)
class Train:
    """One `latentrec train` command: model file stem, input set, flags."""

    model: str
    data: str
    flags: tuple


@dataclass(frozen=True)
class Workload:
    """Everything the harness needs to run one workload.

    Attributes:
        name: workload name on the command line.
        generate: rng -> {input set: (train rows, test rows)}.
        kind: "explicit" or "implicit", the kind of every input set.
        trains: train commands, in order.
        blends: (ensemble file stem, member stems) for `ensemble blend`.
        evaluated: (model stem, input set) pairs for `evaluate`.
        cutoffs: the --k value of every evaluate command, or None for
            rating pairs only.
        queries: recommend queries per pass, round robin over the
            evaluated models.
    """

    name: str
    generate: object
    kind: str
    trains: tuple
    blends: tuple
    evaluated: tuple
    cutoffs: str | None
    queries: int


def _svd_inputs(rng):
    return {
        # ~10% dense, full rank after user-mean imputation
        "a": inputs.explicit_groups(rng, 400, 200, n_groups=8, rated=20,
                                    held_out=5, test_users=200),
        # users copy 12 profiles, so the imputed matrix has rank <= 12
        "b": inputs.duplicated_profiles(rng, 120, 60, n_profiles=12,
                                        rated=15, held_out=2),
    }


def _factor_inputs(rng):
    return {
        "f": inputs.explicit_groups(rng, 500, 300, n_groups=10, rated=20,
                                    held_out=6, test_users=100),
    }


def _implicit_inputs(rng):
    return {
        "m": inputs.implicit_groups(rng, 500, 300, n_groups=10, positives=10,
                                    held_out=4, test_users=60),
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="svd-complete",
            generate=_svd_inputs,
            kind="explicit",
            trains=(Train("svd_a", "a", SVD_FLAGS),
                    Train("svd_b", "b", SVD_FLAGS)),
            blends=(),
            evaluated=(("svd_a", "a"),),
            cutoffs=None,
            queries=34,
        ),
        Workload(
            name="factor-train",
            generate=_factor_inputs,
            kind="explicit",
            trains=(
                Train("funk_sgd", "f", ("--algo", "funk", "--optimizer", "sgd",
                                        "--alpha", "0.05") + FACTOR_FLAGS),
                Train("funk_adaptive", "f", ("--algo", "funk", "--optimizer",
                                             "adaptive", "--alpha", "0.01")
                      + FACTOR_FLAGS),
                Train("svdpp", "f", ("--algo", "svdpp", "--alpha", "0.05")
                      + FACTOR_FLAGS),
                Train("fm", "f", ("--algo", "fm", "--alpha", "0.05")
                      + FACTOR_FLAGS),
                Train("ffm", "f", ("--algo", "ffm", "--alpha", "0.05")
                      + FACTOR_FLAGS),
            ),
            blends=(),
            evaluated=tuple((m, "f") for m in ("funk_sgd", "funk_adaptive",
                                               "svdpp", "fm", "ffm")),
            cutoffs=None,
            queries=40,
        ),
        Workload(
            name="implicit-topn",
            generate=_implicit_inputs,
            kind="implicit",
            trains=(
                Train("itemcf", "m", ("--algo", "itemcf", "--kind", "implicit")),
                Train("fm_logistic", "m", ("--algo", "fm", "--kind", "implicit",
                                           "--neg-ratio", "3", "--loss",
                                           "logistic", "--alpha", "0.01")
                      + FACTOR_FLAGS),
            ),
            blends=(("blend", ("itemcf", "fm_logistic")),),
            evaluated=(("itemcf", "m"), ("fm_logistic", "m"), ("blend", "m")),
            cutoffs="5,10",
            queries=34,
        ),
    )
}
