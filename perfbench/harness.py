"""Run one workload in-process through `latentrec.cli.main` and measure it.

The load is a closed loop with one caller: each command starts after the
previous one returned, in this process, with no extra threads. A pass runs
the workload's train (and blend) commands, then its evaluate commands,
then its recommend queries. Passes repeat while the next one still fits in
the run time, and always at least three times. Every command is
one operation; it fails on a non-zero exit code, an exception, or a failed
output check, and the checks run outside the timed calls.

With tracing on, the run alternates untraced and traced passes, and the
difference of their mean command time is the tracing overhead.
"""

import contextlib
import io
import resource
import shutil
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import inputs
from tracer import Tracer

SETUP_REPEATS = 3
FULL_CHECKS_PER_MODEL = 2
TRACED_PASSES = 2
# the median of three passes or more is not moved by one pass that ran
# through a slow or fast stretch of machine time
MIN_PASSES = 3
K = 10


class Ledger:
    """Invokes CLI commands and keeps one entry per operation."""

    def __init__(self, main):
        self.main = main
        self.ops = []

    def call(self, kind, label, argv):
        out, err = io.StringIO(), io.StringIO()
        problem = None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.main(argv)
        except Exception as exc:  # an exception is a failed operation, not a crash
            code = None
            problem = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
        if problem is None and code != 0:
            last = err.getvalue().strip().splitlines()[-1:] or [""]
            problem = f"exit {code}: {last[0]}"
        op = {"kind": kind, "label": label, "seconds": seconds, "code": code,
              "problem": problem, "check_failed": False, "stdout": out.getvalue()}
        self.ops.append(op)
        return op

    @staticmethod
    def fail_check(op, problem):
        if problem is not None and op["problem"] is None:
            op["problem"] = f"check: {problem}"
            op["check_failed"] = True

    def summary(self):
        failed = [op for op in self.ops if op["problem"] is not None]
        return {
            "attempted": len(self.ops),
            "failed": len(failed),
            "failures": sorted({f"{op['kind']} {op['label']}: {op['problem']}"
                                for op in failed}),
        }


class WorkloadRun:
    """One workload at one seed: set-up, passes, checks and figures."""

    def __init__(self, workload, seed, workdir):
        from latentrec import cli

        self.workload = workload
        self.seed = seed
        self.workdir = Path(workdir)
        self.ledger = Ledger(cli.main)
        self.sets = None
        self.setup_times = []
        self.queries = []
        self.passes = []

    # -- set-up -----------------------------------------------------------

    def setup(self):
        """Generate and write the inputs, keep them, and time more set-ups."""
        self.inputs = self.workdir / "inputs"
        self.sets = self._setup_into(self.inputs)
        self.extra_setups(SETUP_REPEATS - 1)
        self.models = self.workdir / "models"
        self.models.mkdir()
        self.seen = {}
        for name, (train, _) in self.sets.items():
            seen = {}
            for user, item, rating in train:
                if rating > 0 or self.workload.kind == "explicit":
                    seen.setdefault(user, set()).add(item)
            self.seen[name] = seen
        self._plan_queries()

    def _setup_into(self, folder):
        start = perf_counter()
        sets = self.workload.generate(np.random.default_rng(self.seed))
        folder.mkdir(parents=True)
        for name, (train, test) in sets.items():
            inputs.write_csv(folder / f"{name}_train.csv", train)
            inputs.write_csv(folder / f"{name}_test.csv", test)
        self.setup_times.append(perf_counter() - start)
        return sets

    def extra_setups(self, count):
        """Repeat the set-up into a scratch folder, for its timing only.

        The repeats are spread over the run, between passes, so the median
        does not rest on one short stretch of machine time.
        """
        for _ in range(count):
            folder = self.workdir / "setup-repeat"
            self._setup_into(folder)
            shutil.rmtree(folder)

    def _plan_queries(self):
        """A seeded list of (model, user) queries, round robin over models."""
        data_of = {t.model: t.data for t in self.workload.trains}
        for stem, members in self.workload.blends:
            data_of[stem] = data_of[members[0]]
        rng = np.random.default_rng([self.seed, 1])
        queried = [stem for stem, _ in self.workload.evaluated]
        for q in range(self.workload.queries):
            stem = queried[q % len(queried)]
            users = sorted(self.seen[data_of[stem]])
            self.queries.append((stem, users[int(rng.integers(len(users)))]))
        self.data_of = data_of

    def model_path(self, stem):
        return str(self.models / f"{stem}.json")

    def csv(self, name, part):
        return str(self.inputs / f"{name}_{part}.csv")

    # -- one pass -----------------------------------------------------------

    def run_pass(self, tracer=None):
        for old in self.models.iterdir():
            old.unlink()
        if tracer is not None:
            tracer.install()
        try:
            record = self._commands()
        finally:
            if tracer is not None:
                tracer.uninstall()
        record["traced"] = tracer is not None
        self.passes.append(record)

    def _commands(self):
        """One pass, with the recommend queries spread between the commands.

        After each train, blend or evaluate command comes a slice of the
        queries whose model this pass has already written, so every figure
        samples the whole pass rather than one stretch of it.
        """
        w = self.workload
        tally = {"train_s": 0.0, "evaluate_s": 0.0, "latencies": [],
                 "reports": {}, "written": {}, "checked": {}, "bundles": {}}
        steps = ([(self._train, t) for t in w.trains]
                 + [(self._blend, b) for b in w.blends]
                 + [(self._evaluate, e) for e in w.evaluated])
        queue = list(self.queries)
        per_step = -(-len(queue) // len(steps))
        for step, spec in steps:
            step(spec, tally)
            ready = [q for q in queue if q[0] in tally["written"]][:per_step]
            for query in ready:
                queue.remove(query)
                self._recommend(query, tally)
        for query in queue:  # queries on models that were never written
            self._recommend(query, tally)
        return {"train_s": tally["train_s"], "evaluate_s": tally["evaluate_s"],
                "latencies": tally["latencies"], "reports": tally["reports"],
                "model_bytes": sum(tally["written"].values()),
                "command_s": (tally["train_s"] + tally["evaluate_s"]
                              + sum(tally["latencies"]))}

    def _wrote(self, op, stem, tally):
        path = Path(self.model_path(stem))
        if op["problem"] is None and not path.is_file():
            self.ledger.fail_check(op, f"{path.name} was not written")
        if op["problem"] is None:
            tally["written"][stem] = path.stat().st_size

    def _train(self, t, tally):
        from latentrec.persist import load_model

        argv = ["train", "--input", self.csv(t.data, "train"),
                "--output", self.model_path(t.model)] + list(t.flags)
        op = self.ledger.call("train", t.model, argv)
        tally["train_s"] += op["seconds"]
        if op["problem"] is None and "svd" in t.flags:
            bundle = load_model(self.model_path(t.model))
            self.ledger.fail_check(op, checks.svd_reconstruction(
                bundle, self.sets[t.data][0]))
        self._wrote(op, t.model, tally)

    def _blend(self, blend, tally):
        stem, members = blend
        argv = (["ensemble", "blend"] + [self.model_path(m) for m in members]
                + ["--output", self.model_path(stem)])
        op = self.ledger.call("blend", stem, argv)
        tally["train_s"] += op["seconds"]
        self._wrote(op, stem, tally)

    def _evaluate(self, evaluated, tally):
        stem, data = evaluated
        w = self.workload
        cutoffs = [] if w.cutoffs is None else [int(k) for k in w.cutoffs.split(",")]
        argv = ["evaluate", self.model_path(stem), "--test", self.csv(data, "test"),
                "--kind", w.kind, "--json"]
        if cutoffs:
            argv += ["--k", w.cutoffs]
        op = self.ledger.call("evaluate", stem, argv)
        tally["evaluate_s"] += op["seconds"]
        if op["problem"] is None:
            report, problem = checks.evaluate_report(
                op["stdout"], len(self.sets[data][1]), cutoffs)
            self.ledger.fail_check(op, problem)
            if report is not None:
                tally["reports"][stem] = report

    def _recommend(self, query, tally):
        from latentrec.persist import load_model

        stem, user = query
        argv = ["recommend", self.model_path(stem), user, "--k", str(K)]
        op = self.ledger.call("recommend", stem, argv)
        tally["latencies"].append(op["seconds"])
        if op["problem"] is not None:
            return
        try:
            listed = checks.parse_recommend(op["stdout"])
        except ValueError as exc:
            self.ledger.fail_check(op, f"unparsable recommend output: {exc}")
            return
        seen = self.seen[self.data_of[stem]].get(user, set())
        problem = checks.recommend_list(listed, seen, K)
        checked = tally["checked"]
        if problem is None and checked.get(stem, 0) < FULL_CHECKS_PER_MODEL:
            checked[stem] = checked.get(stem, 0) + 1
            if stem not in tally["bundles"]:
                tally["bundles"][stem] = load_model(self.model_path(stem))
            problem = checks.recommend_matches_predict(
                tally["bundles"][stem], user, listed, K)
        self.ledger.fail_check(op, problem)

    # -- driving ------------------------------------------------------------

    def measure(self, seconds):
        """Untraced passes while the next fits in `seconds`, at least MIN_PASSES."""
        start = perf_counter()
        while True:
            self.run_pass()
            self.extra_setups(SETUP_REPEATS)
            elapsed = perf_counter() - start
            mean = elapsed / len(self.passes)
            if len(self.passes) >= MIN_PASSES and elapsed + mean > seconds:
                break

    def measure_traced(self):
        """Untraced and traced passes in turn; returns the tracer."""
        tracer = Tracer()
        for _ in range(TRACED_PASSES):
            self.run_pass()
            self.run_pass(tracer)
        return tracer

    # -- figures --------------------------------------------------------------

    def end_to_end(self):
        """Gated end-to-end figures as {name: (value, unit)}."""
        passes = [p for p in self.passes if not p["traced"]]
        ops = self.ledger.summary()
        rmse = [r["rmse"] for r in passes[0]["reports"].values()]
        return {
            "setup_s": (statistics.median(self.setup_times), "s"),
            "model_bytes": (float(passes[-1]["model_bytes"]), "bytes"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "holdout_rmse": (max(rmse) if rmse else float("nan"), "score"),
            "success_rate": (1.0 - ops["failed"] / ops["attempted"], "ratio"),
        }

    def ungated(self):
        """Figures printed, recorded and compared, but not gated.

        On a small shared machine the speed of a whole run moves: the host
        switches between states about 1.4x apart for minutes at a time, so
        the run-to-run spread of every time figure (15-35% between the
        quartiles over ten seeds) exceeds a third of the largest bound the
        benchmark may set. Judge them with --compare over paired runs.
        recall@10 (top-N workloads only) moves by a tenth or more between
        seeds for the same reason as the bounds.
        """
        passes = [p for p in self.passes if not p["traced"]]
        latencies = [s * 1000.0 for p in passes for s in p["latencies"]]
        deciles = statistics.quantiles(latencies, n=10, method="inclusive")
        ops = self.ledger.summary()
        figures = {
            "train_s": (statistics.median(p["train_s"] for p in passes), "s"),
            "recommend_p50_ms": (statistics.median(latencies), "ms"),
            "recommend_p90_ms": (deciles[8], "ms"),
            "evaluate_s": (statistics.median(p["evaluate_s"] for p in passes), "s"),
            "error_rate": (ops["failed"] / ops["attempted"], "ratio"),
        }
        recall = [r["recall_at_k"]["10"] for r in passes[0]["reports"].values()
                  if "10" in r["recall_at_k"]]
        if recall:
            figures["recall_at_10"] = (min(recall), "ratio")
        return figures

    def samples(self):
        passes = [p for p in self.passes if not p["traced"]]
        latencies = [s * 1000.0 for p in passes for s in p["latencies"]]
        p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
        return {"passes": len(passes),
                "traced_passes": len(self.passes) - len(passes),
                "recommend_samples": len(latencies),
                "recommend_beyond_p90": sum(1 for s in latencies if s > p90),
                "per_pass": [{"traced": p["traced"], "train_s": p["train_s"],
                              "evaluate_s": p["evaluate_s"],
                              "recommend_ms": [s * 1000.0 for s in p["latencies"]]}
                             for p in self.passes]}

    def trace_overhead(self):
        plain = [p["command_s"] for p in self.passes if not p["traced"]]
        traced = [p["command_s"] for p in self.passes if p["traced"]]
        return statistics.mean(traced) - statistics.mean(plain)

    def properties(self):
        """Input properties reported next to the figures."""
        from latentrec.data import CsvSchema, negative_sample, parse_csv

        out = {}
        for name, (train, test) in self.sets.items():
            users = {u for u, _, _ in train}
            items = {i for _, i, _ in train}
            prop = {
                "users": len(users),
                "items": len(items),
                "ratings": len(train),
                "density": len(train) / (len(users) * len(items)),
                "holdout_pairs": len(test),
                "test_users": len({u for u, _, _ in test}),
                "holdout_tokens_in_training": all(
                    u in users and i in items for u, i, _ in test),
            }
            flags = [t.flags for t in self.workload.trains if t.data == name]
            if any("svd" in f for f in flags):
                prop["zero_share"] = zero_share(train)
            if any("--neg-ratio" in f for f in flags):
                with open(self.csv(name, "train"), encoding="utf-8") as handle:
                    ds = parse_csv(handle, CsvSchema(kind="implicit"))
                meta = negative_sample(ds, ratio=3.0, seed=42).metadata
                prop["negatives_added"] = meta["negatives_added"]
                prop["negative_users_capped"] = meta["negative_users_capped"]
                prop["negative_users_skipped"] = meta["negative_users_skipped"]
            out[name] = prop
        return out


def zero_share(rows):
    """Share of numpy singular values of the user-mean imputed matrix that
    fall under the Jacobi SVD's zero cutoff."""
    users = {u: k for k, u in enumerate(sorted({u for u, _, _ in rows}))}
    items = {i: k for k, i in enumerate(sorted({i for _, i, _ in rows}))}
    dense = np.zeros((len(users), len(items)))
    mask = np.zeros_like(dense)
    for u, i, r in rows:
        dense[users[u], items[i]] = r
        mask[users[u], items[i]] = 1.0
    means = dense.sum(axis=1) / mask.sum(axis=1)
    filled = np.where(mask == 1.0, dense, means[:, None])
    s = np.linalg.svd(filled, compute_uv=False)
    cutoff = max(filled.shape) * np.finfo(float).eps * s[0]
    return float(np.mean(s <= cutoff))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
