"""Command line interface: train, predict, recommend, evaluate, ensemble.

Every command is deterministic given its flags (seeds default to 42), and
identical invocations write model files whose (gzip-compressed) JSON is
byte-identical except for the creation timestamp. Exit codes: 0 success,
2 argument or config problems, 3 data problems, 4 training divergence.
Per-epoch trace lines go to standard error; result summaries go to
standard output.

A flat key=value config file (--config) can hold any flag value; explicit
command line flags override it. Unknown keys are rejected with a nearest
known key suggested.

The argument parser is built once per process (build_parser is cached), so
a program that calls main many times, as the benchmark does, parses each
command line with the same parser and leaves no argparse reference cycles
behind per call. Each subcommand stores its handler's name, and main looks
the handler up in this module when the command runs, so a cmd_* function
replaced on the module (a tracer's wrapper, a test's stub) is the one called.
"""

import argparse
import difflib
import functools
import sys
from dataclasses import dataclass

import numpy as np

from . import optim, svdcf
from .data import CsvSchema, checked_scale, negative_sample, parse_csv
from .ensemble import BlendModel, bag_train, stack_fit
from .errors import (
    ConfigError,
    ConvergenceError,
    DataError,
    DivergenceError,
    LatentRecError,
    ValidationError,
)
from .factor import TrainConfig, funk_train, itemcf_similarity, svdpp_train
# encode is not called here, but perfbench's tracer counts calls to cli.encode
from .fm import LOSSES, SampleBatch, encode, ffm_train, fm_train, one_hot_layout  # noqa: F401
from .metrics import MetricReport, check_choice, mae, pair_scores, rmse, topn_metrics
from .persist import FIELDS, ModelBundle, load_model, save_model

EXIT_OK = 0
EXIT_ARGS = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4

ALGO_CHOICES = tuple(FIELDS)


def _parse_bool(text):
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_scale(text):
    parts = str(text).split(":")
    if len(parts) != 2:
        raise ValueError(f"expected LO:HI, got {text!r}")
    return checked_scale([float(part) for part in parts])


def _parse_int_list(text):
    return [int(part) for part in str(text).split(",") if part.strip()]


def _parse_float_list(text):
    return [float(part) for part in str(text).split(",") if part.strip()]


@dataclass(frozen=True)
class Opt:
    """One configurable flag: its name, parser, default, and metadata.

    low, when set, is the least value the flag takes (each value, for a
    list); resolve checks it whichever source the value came from.
    """

    name: str
    parse: callable
    default: object = None
    flag: str = None
    choices: tuple = None
    help: str = ""
    required: bool = False
    is_switch: bool = False
    low: int = None

    @property
    def key(self):
        """Config-file spelling: the flag without dashes."""
        return (self.flag or f"--{self.name}").lstrip("-").replace("-", "_")

    def add_to(self, parser):
        flag = self.flag or f"--{self.name}"
        if self.is_switch:
            # None when absent, so a config value or the default fills it
            parser.add_argument(flag, dest=self.name, action="store_true",
                                default=None, help=self.help)
        else:
            parser.add_argument(flag, dest=self.name, type=self.parse,
                                choices=self.choices, default=None,
                                help=self.help)


HYPER_OPTIONS = (
    Opt("factors", int, TrainConfig.f, low=1, help="latent dimension (funk, svdpp, fm, ffm)"),
    Opt("alpha", float, TrainConfig.alpha, help="learning rate"),
    Opt("lam", float, TrainConfig.lam, flag="--lambda", help="regularization strength"),
    Opt("epochs", int, TrainConfig.epochs, low=0, help="training epochs"),
    Opt("seed", int, TrainConfig.seed, low=0, help="random seed"),
    Opt("optimizer", str, TrainConfig.optimizer, choices=optim.KINDS,
        help="update rule for the gradient trainers"),
    Opt("impute", str, "user", choices=("global", "user", "item"),
        help="mean-fill strategy for svd"),
    Opt("rank_rule", str, "energy:0.95", flag="--rank-rule",
        help="svd rank selection: energy:T, ratio:C, or fixed:F"),
    Opt("similarity_mode", str, "paper-dot", flag="--similarity-mode",
        choices=("paper-dot", "cosine"), help="svd item similarity"),
    Opt("neighborhood", int, None, low=1, help="neighbor cut for svd and itemcf"),
    Opt("neg_ratio", float, None, flag="--neg-ratio",
        help="negatives per positive for implicit data"),
    Opt("kind", str, "explicit", choices=("explicit", "implicit"),
        help="rating kind of the input csv"),
    Opt("loss", str, "squared", choices=LOSSES,
        help="training loss for fm and ffm"),
    Opt("scale", _parse_scale, (1.0, 5.0), help="rating bounds as LO:HI"),
)

TRAIN_OPTIONS = (
    Opt("input", str, required=True, help="ratings csv"),
    Opt("output", str, required=True, help="model file to write"),
    Opt("algo", str, required=True, choices=ALGO_CHOICES,
        help="algorithm to train"),
) + HYPER_OPTIONS

RECOMMEND_OPTIONS = (
    Opt("k", int, 10, low=1, help="list length"),
)

EVALUATE_OPTIONS = (
    Opt("test", str, required=True, help="held-out ratings csv"),
    Opt("k", _parse_int_list, None, low=1,
        help="top-N cutoffs, comma separated (e.g. 5,10)"),
    Opt("kind", str, "explicit", choices=("explicit", "implicit"),
        help="rating kind of the test csv"),
    Opt("json", _parse_bool, False, is_switch=True,
        help="print the report as JSON instead of a table"),
)

BLEND_OPTIONS = (
    Opt("output", str, required=True, help="ensemble file to write"),
    Opt("weights", _parse_float_list, None,
        help="member weights, comma separated; default uniform"),
)

VOTE_OPTIONS = (
    Opt("user", str, required=True, help="user token to recommend for"),
    Opt("k", int, 10, low=1, help="list length"),
)

BAG_OPTIONS = (
    Opt("input", str, required=True, help="ratings csv"),
    Opt("output", str, required=True, help="ensemble file to write"),
    Opt("algo", str, required=True, choices=ALGO_CHOICES,
        help="member algorithm"),
    Opt("members", int, 5, low=1, help="number of bootstrap members"),
) + HYPER_OPTIONS

STACK_OPTIONS = (
    Opt("output", str, required=True, help="ensemble file to write"),
    Opt("holdout", str, required=True,
        help="held-out ratings csv for fitting the coefficients"),
)

ALL_CONFIG_KEYS = sorted(
    {
        opt.key
        for options in (TRAIN_OPTIONS, RECOMMEND_OPTIONS, EVALUATE_OPTIONS,
                        BLEND_OPTIONS, VOTE_OPTIONS, BAG_OPTIONS, STACK_OPTIONS)
        for opt in options
    }
)


def read_config(path):
    """Parse a key=value config file into a string dict.

    Blank lines and # comments are skipped. Keys are validated against
    the full flag namespace; an unknown key is rejected with the nearest
    known key suggested.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    entries = {}
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(
                f"{path}:{line_no}: expected key=value, got {line!r}"
            )
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in ALL_CONFIG_KEYS:
            close = difflib.get_close_matches(key, ALL_CONFIG_KEYS, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise ConfigError(f"unknown config key {key!r}{hint}")
        entries[key] = value.strip()
    return entries


def resolve(args, options):
    """Final option values: command line, then config file, then default.

    Raises ConfigError for a missing required option, for a config value
    that its option cannot parse or that is not one of its choices
    (metrics.check_choice), and for a value below its option's low bound.
    """
    config = read_config(args.config) if getattr(args, "config", None) else {}
    values = {}
    for opt in options:
        given = getattr(args, opt.name)
        if given is not None:
            values[opt.name] = given
        elif opt.key in config:
            try:
                parsed = opt.parse(config[opt.key])
                if opt.choices:
                    check_choice(parsed, opt.key, opt.choices)
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for config key {opt.key!r}: {exc}"
                ) from exc
            values[opt.name] = parsed
        else:
            values[opt.name] = opt.default
    for opt in options:
        value, flag = values[opt.name], f"--{opt.key.replace('_', '-')}"
        if opt.required and value is None:
            raise ConfigError(f"missing required option {flag}")
        for each in value if isinstance(value, list) else [value]:
            if opt.low is not None and each is not None and each < opt.low:
                raise ConfigError(f"{flag} must be >= {opt.low}, got {each}")
    return values


def _read_ratings(path, schema):
    try:
        with open(path, encoding="utf-8") as handle:
            return parse_csv(handle, schema)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read ratings file {path}: {exc}") from exc


def _train_config(values):
    try:
        return TrainConfig(
            f=values["factors"],
            alpha=values["alpha"],
            lam=values["lam"],
            epochs=values["epochs"],
            seed=values["seed"],
            optimizer=values["optimizer"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _train_bundle(algo, ds, values, rated=None):
    """Train one model on ds; returns (ModelBundle, per-epoch trace).

    rated, the dataset as read when ds adds sampled negatives to it, gives
    the fm/ffm lists of items recommend leaves out (default ds), so an
    item drawn as a negative can still be recommended.
    """
    observed = None
    trace = []
    if algo == "svd":
        try:
            svdcf.parse_rank_rule(
                values["rank_rule"], max_rank=min(ds.n_users, ds.n_items)
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        model = svdcf.fit(
            ds,
            impute_strategy=values["impute"],
            rank_rule=values["rank_rule"],
            similarity_mode=values["similarity_mode"],
            neighborhood=values["neighborhood"],
        )
    elif algo == "itemcf":
        model = itemcf_similarity(ds, k=values["neighborhood"])
    else:
        config = _train_config(values)
        if algo == "funk":
            model = funk_train(ds, config)
        elif algo == "svdpp":
            model = svdpp_train(ds, config)
        else:
            trainer = fm_train if algo == "fm" else ffm_train
            user_tokens, item_tokens = ds.tokens()
            users, items, ratings = ds.indexed()
            # a OneHotBatch: the code columns and ratings as views, plus one
            # feature index per token, which the trainer reads row by row
            # with no CSR array; no name holds it, so it is freed when
            # training returns
            model = trainer(
                SampleBatch.from_codes(
                    one_hot_layout(ds.user_index, ds.item_index),
                    [(user_tokens, users), (item_tokens, items)], ratings,
                ),
                loss=values["loss"],
                config=config,
            )
            rated = ds if rated is None else rated
            observed = rated.items_by_user()
        trace = model.trace
    bundle = ModelBundle(
        algorithm=algo,
        model=model,
        user_index=ds.user_table,
        item_index=ds.item_table,
        scale=ds.scale,
        observed=observed,
    )
    return bundle, trace


def _print_trace(trace):
    for epoch, value in enumerate(trace, start=1):
        print(f"epoch {epoch} loss {value:.6f}", file=sys.stderr)


def _format_rounded(value):
    return str(int(value)) if float(value).is_integer() else f"{value:g}"


def _read_training_data(values):
    """(ratings as read, training data): the input csv, plus --neg-ratio
    sampled negatives in the training data when the flag is given."""
    schema = CsvSchema(kind=values["kind"], scale=values["scale"])
    read = _read_ratings(values["input"], schema)
    if values["neg_ratio"] is None:
        return read, read
    if values["kind"] != "implicit":
        raise ConfigError("--neg-ratio requires --kind implicit")
    try:
        return read, negative_sample(read, ratio=values["neg_ratio"],
                                     seed=values["seed"])
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_train(args):
    values = resolve(args, TRAIN_OPTIONS)
    read, ds = _read_training_data(values)
    algo = values["algo"]
    bundle, trace = _train_bundle(algo, ds, values, rated=read)
    _print_trace(trace)
    save_model(bundle, values["output"])
    print(f"trained {algo}: {ds.n_users} users x {ds.n_items} items, "
          f"{len(ds)} ratings")
    if trace:
        print(f"final loss {trace[-1]:.6f}")
    elif algo == "svd":
        print(f"retained rank {bundle.model.f}")
    elif algo == "itemcf":
        print(f"neighborhood size {bundle.model.K}")
    print(f"wrote {values['output']}")
    return EXIT_OK


def cmd_predict(args):
    resolve(args, ())  # reads and checks --config, which no option of predict uses
    bundle = load_model(args.model)
    value = bundle.predict(args.user, args.item)
    rounded = svdcf.round_to_scale(value, bundle.scale)
    print(f"{value:.2f} (rounded: {_format_rounded(rounded)})")
    return EXIT_OK


def cmd_recommend(args):
    values = resolve(args, RECOMMEND_OPTIONS)
    bundle = load_model(args.model)
    for token, score in bundle.recommend(args.user, values["k"]):
        print(f"{token}\t{score:.4f}")
    return EXIT_OK


def cmd_evaluate(args):
    values = resolve(args, EVALUATE_OPTIONS)
    cutoffs = values["k"] or []
    bundle = load_model(args.model)
    schema = CsvSchema(kind=values["kind"], scale=bundle.scale)
    test = _read_ratings(values["test"], schema)
    user_tokens, item_tokens = test.tokens()
    users, items, truth = test.indexed()
    pairs = np.array([bundle.indices(user_tokens[u], item_tokens[i])
                      for u, i in zip(users, items)], dtype=np.int64).reshape(-1, 2)
    preds = pair_scores(bundle.scorer, pairs[:, 0], pairs[:, 1])
    precision = {}
    recall = {}
    n_users = 0
    if cutoffs:
        positives = {}
        for u, i, r in zip(users, items, truth):
            if r > 0:
                positives.setdefault(user_tokens[u], set()).add(item_tokens[i])
        deepest = max(cutoffs)
        recs = {u: [t for t, _ in bundle.recommend(u, deepest)]
                for u in sorted(test.user_index)}
        for k in cutoffs:
            precision[k], recall[k] = topn_metrics(recs, positives, k)
        n_users = len(positives)
    report = MetricReport(
        rmse=rmse(preds, truth),
        mae=mae(preds, truth),
        precision_at_k=precision,
        recall_at_k=recall,
        n_pairs=len(test),
        n_users=n_users,
    )
    print(report.to_json() if values["json"] else report.format_table())
    return EXIT_OK


def _load_members(paths):
    bundles = [load_model(path) for path in paths]
    first = bundles[0]
    for path, bundle in zip(paths[1:], bundles[1:]):
        if (bundle.user_index != first.user_index
                or bundle.item_index != first.item_index):
            raise ValidationError(
                f"member {path} has different index maps than {paths[0]}"
            )
        if bundle.scale != first.scale:
            raise ValidationError(
                f"member {path} has scale {bundle.scale}, "
                f"expected {first.scale}"
            )
    return bundles


def _ensemble(model, reference):
    """The ensemble bundle of model, with reference's token tables and scale."""
    return ModelBundle("ensemble", model, reference.user_table, reference.item_table,
                       reference.scale)


def cmd_ensemble_blend(args):
    values = resolve(args, BLEND_OPTIONS)
    bundles = _load_members(args.members)
    weights = values["weights"]
    if weights is None:
        weights = [1.0 / len(bundles)] * len(bundles)
    try:
        model = BlendModel(members=[b.scorer for b in bundles],
                           weights=weights)
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc
    save_model(_ensemble(model, bundles[0]), values["output"])
    print(f"blended {len(bundles)} members")
    print(f"wrote {values['output']}")
    return EXIT_OK


def cmd_ensemble_vote(args):
    values = resolve(args, VOTE_OPTIONS)
    bundles = _load_members(args.members)
    # a blend recommends by its members' votes, whatever the weights
    blend = BlendModel([b.scorer for b in bundles], [1.0] * len(bundles))
    for token, votes in _ensemble(blend, bundles[0]).recommend(values["user"], values["k"]):
        print(f"{token}\t{int(votes)}")
    return EXIT_OK


def cmd_ensemble_bag(args):
    values = resolve(args, BAG_OPTIONS)
    # negatives are drawn once, before the bootstrap; every member leaves
    # out the items each user rated in the input, as a trained model does
    read, ds = _read_training_data(values)

    def trainer(resampled):
        bundle, _ = _train_bundle(values["algo"], resampled, values, rated=read)
        return bundle.scorer

    bag = bag_train(trainer, ds, b=values["members"], seed=values["seed"])
    save_model(_ensemble(bag, ds), values["output"])
    print(f"bagged {values['members']} members")
    print(f"wrote {values['output']}")
    return EXIT_OK


def cmd_ensemble_stack(args):
    values = resolve(args, STACK_OPTIONS)
    bundles = _load_members(args.members)
    first = bundles[0]
    schema = CsvSchema(kind="explicit", scale=first.scale)
    raw = _read_ratings(values["holdout"], schema)
    holdout = raw.replace(user_index=first.user_table, item_index=first.item_table)
    model = stack_fit([b.scorer for b in bundles], holdout)
    save_model(_ensemble(model, first), values["output"])
    coefficients = ", ".join(f"{w:.6f}" for w in model.weights)
    print(f"stacked {len(bundles)} members: "
          f"coefficients [{coefficients}] intercept {model.intercept:.6f}")
    print(f"wrote {values['output']}")
    return EXIT_OK


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="latentrec",
        description="Train, apply, evaluate, and combine recommender models.",
    )
    commands = parser.add_subparsers(dest="command", metavar="command")

    def command(group, name, handler, options=(), positionals=(), help=""):
        sub = group.add_parser(name, help=help)
        for spec in positionals:
            sub.add_argument(**spec)
        sub.add_argument("--config", default=None,
                         help="key=value file providing flag defaults")
        for opt in options:
            opt.add_to(sub)
        sub.set_defaults(handler=handler.__name__)

    model = {"dest": "model", "help": "model file"}
    user = {"dest": "user", "help": "user token"}
    command(commands, "train", cmd_train, TRAIN_OPTIONS,
            help="train a model from a csv")
    command(commands, "predict", cmd_predict,
            positionals=(model, user, {"dest": "item", "help": "item token"}),
            help="print one prediction")
    command(commands, "recommend", cmd_recommend, RECOMMEND_OPTIONS,
            positionals=(model, user), help="print top-N unseen items")
    command(commands, "evaluate", cmd_evaluate, EVALUATE_OPTIONS,
            positionals=(model,), help="score a model on held-out ratings")

    ensemble = commands.add_parser("ensemble", help="combine trained models")
    methods = ensemble.add_subparsers(dest="subcommand", metavar="method")
    members = ({"dest": "members", "nargs": "+", "help": "member model files"},)
    command(methods, "blend", cmd_ensemble_blend, BLEND_OPTIONS, members,
            help="weighted average of member predictions")
    command(methods, "vote", cmd_ensemble_vote, VOTE_OPTIONS, members,
            help="rank items by member top-k votes")
    command(methods, "bag", cmd_ensemble_bag, BAG_OPTIONS,
            help="train members on bootstrap resamples")
    command(methods, "stack", cmd_ensemble_stack, STACK_OPTIONS, members,
            help="fit least-squares blend coefficients on a holdout")
    return parser


def main(argv=None):
    """Entry point; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_ARGS
    if not hasattr(args, "handler"):
        parser.print_usage(sys.stderr)
        return EXIT_ARGS
    try:
        return globals()[args.handler](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGS
    except (DivergenceError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except LatentRecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
