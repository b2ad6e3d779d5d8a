"""Per-layer tracing from outside the program.

The tracer wraps public functions and methods of each latentrec layer,
patching them where callers look them up (a module attribute or a class),
and restores the originals on uninstall. Coarse calls record a span:
name, start, end and the span that was open when it began. Hot calls
(optim.step, per-item predict, encode) only add to a call count and a
busy time, which also counts against the enclosing span, so memory stays
bounded however many triples a trainer visits. Spans stay in memory until
the run ends.

A span's self time is its duration minus the time its child spans and hot
calls cover; a layer's self time sums that over the layer's spans and hot
calls. The layer is the name's first component.
"""

import os
from time import perf_counter

import numpy as np

LAYERS = ("cli", "data", "linalg", "svdcf", "factor", "fm", "optim",
          "ensemble", "metrics", "persist")


class Span:
    """One traced call; child is the time covered by traced callees."""

    __slots__ = ("id", "name", "start", "end", "parent", "child", "failed")

    def __init__(self, id, name, start, parent):
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child = 0.0
        self.failed = False

    @property
    def seconds(self):
        return self.end - self.start

    def as_row(self):
        """[id, name, start, end, parent id or None, failed]"""
        parent = None if self.parent is None else self.parent.id
        return [self.id, self.name, self.start, self.end, parent, self.failed]


class Tracer:
    """Records spans, hot-call counters and named values; see module doc."""

    def __init__(self):
        self.spans = []
        self.hot = {}
        self.values = {}
        self._stack = []
        self._undo = []

    def add(self, key, amount):
        self.values[key] = self.values.get(key, 0) + amount

    def _span(self, name, fn, after):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), name, perf_counter(), parent)
            self._stack.append(span)
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child += span.seconds
            if after is not None:
                after(self, result, args)
            return result

        return traced

    def _hot(self, name, fn):
        counter = self.hot.setdefault(name, [0, 0.0])

        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = perf_counter() - start
                counter[0] += 1
                counter[1] += busy
                if self._stack:
                    self._stack[-1].child += busy

        return traced

    def patch(self, owner, attr, name, hot=False, after=None):
        original = getattr(owner, attr)
        wrapped = self._hot(name, original) if hot else self._span(name, original, after)
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def install(self):
        from latentrec import cli, ensemble, factor, fm, linalg, optim, persist, svdcf

        spans = [
            (cli, "main", "cli.main", None),
            (cli, "cmd_train", "cli.train", None),
            (cli, "cmd_evaluate", "cli.evaluate", None),
            (cli, "cmd_recommend", "cli.recommend", None),
            (cli, "cmd_ensemble_blend", "cli.blend", None),
            (cli, "parse_csv", "data.parse_csv", _count_rows),
            (svdcf, "to_dense", "data.to_dense", None),
            (svdcf, "impute", "data.impute", None),
            (cli, "negative_sample", "data.negative_sample", _count_negatives),
            (linalg, "svd", "linalg.svd", _zero_share),
            (svdcf, "fit", "svdcf.fit", None),
            (svdcf, "recommend", "svdcf.recommend", None),
            (cli, "funk_train", "factor.funk_train", _count_epochs("factor.funk_train")),
            (cli, "svdpp_train", "factor.svdpp_train", _count_epochs("factor.svdpp_train")),
            (cli, "itemcf_similarity", "factor.itemcf_similarity", None),
            (factor.FactorModel, "recommend", "factor.recommend", None),
            (factor.ItemCfModel, "recommend", "factor.recommend", None),
            (cli, "fm_train", "fm.fm_train", _count_epochs("fm.fm_train")),
            (cli, "ffm_train", "fm.ffm_train", _count_epochs("fm.ffm_train")),
            (persist.IndexedModel, "recommend", "persist.recommend", None),
            (cli, "save_model", "persist.save_model", _count_bytes),
            (cli, "load_model", "persist.load_model", None),
            (ensemble, "vote_recommend", "ensemble.vote_recommend", None),
            (cli, "rmse", "metrics.rmse", None),
            (cli, "mae", "metrics.mae", None),
            (cli, "topn_metrics", "metrics.topn_metrics", None),
        ]
        hot = [
            (svdcf, "predict", "svdcf.predict"),
            (factor.FactorModel, "predict", "factor.predict"),
            (factor.ItemCfModel, "predict", "factor.predict"),
            (fm.FmModel, "predict", "fm.predict"),
            (fm.FfmModel, "predict", "fm.predict"),
            (cli, "encode", "fm.encode"),
            (persist, "encode", "fm.encode"),
            (optim, "step", "optim.step"),
        ]
        for owner, attr, name, after in spans:
            self.patch(owner, attr, name, after=after)
        for owner, attr, name in hot:
            self.patch(owner, attr, name, hot=True)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def metrics(self, passes):
        """Per-layer figures per traced pass, as {name: (value, unit)}."""
        total = {}
        self_time = {}
        calls = {}
        failed = {}
        for span in self.spans:
            total[span.name] = total.get(span.name, 0.0) + span.seconds
            own = span.seconds - span.child
            self_time[span.name] = self_time.get(span.name, 0.0) + own
            calls[span.name] = calls.get(span.name, 0) + 1
            failed[span.name] = failed.get(span.name, 0) + int(span.failed)
        for name, (count, busy) in self.hot.items():
            total[name] = total.get(name, 0.0) + busy
            self_time[name] = self_time.get(name, 0.0) + busy
            calls[name] = calls.get(name, 0) + count

        def per_pass(value):
            return value / passes

        def seconds(*names):
            return per_pass(sum(total.get(n, 0.0) for n in names))

        def epoch_s(name):
            epochs = self.values.get(name + ".epochs", 0)
            return total.get(name, 0.0) / epochs if epochs else 0.0

        out = {}
        for layer in LAYERS:
            own = sum(v for n, v in self_time.items() if n.split(".")[0] == layer)
            out[f"{layer}.self_s"] = (per_pass(own), "s")
        out.update({
            "cli.train.self_s": (per_pass(self_time.get("cli.train", 0.0)), "s"),
            "cli.evaluate.self_s": (per_pass(self_time.get("cli.evaluate", 0.0)), "s"),
            "data.parse_csv.s": (seconds("data.parse_csv"), "s"),
            "data.parse_csv.rows": (per_pass(self.values.get("data.parse_csv.rows", 0)), "count"),
            "data.dense_impute.s": (seconds("data.to_dense", "data.impute"), "s"),
            "data.negative_sample.s": (seconds("data.negative_sample"), "s"),
            "data.negative_sample.added": (per_pass(self.values.get("data.negative_sample.added", 0)), "count"),
            "linalg.svd.s": (seconds("linalg.svd"), "s"),
            "linalg.svd.calls": (per_pass(calls.get("linalg.svd", 0)), "count"),
            "linalg.svd.failed": (per_pass(failed.get("linalg.svd", 0)), "count"),
            "linalg.svd.zero_share": (self.values.get("linalg.svd.zero_share", 0.0), "ratio"),
            "svdcf.fit.self_s": (per_pass(self_time.get("svdcf.fit", 0.0)), "s"),
            "svdcf.predict.calls": (per_pass(calls.get("svdcf.predict", 0)), "count"),
            "svdcf.predict.s": (seconds("svdcf.predict"), "s"),
            "svdcf.recommend.s": (seconds("svdcf.recommend"), "s"),
            "factor.funk_train.epoch_s": (epoch_s("factor.funk_train"), "s"),
            "factor.svdpp_train.epoch_s": (epoch_s("factor.svdpp_train"), "s"),
            "factor.itemcf_similarity.s": (seconds("factor.itemcf_similarity"), "s"),
            "factor.recommend.s": (seconds("factor.recommend"), "s"),
            "factor.predict.calls": (per_pass(calls.get("factor.predict", 0)), "count"),
            "fm.fm_train.epoch_s": (epoch_s("fm.fm_train"), "s"),
            "fm.ffm_train.epoch_s": (epoch_s("fm.ffm_train"), "s"),
            "fm.encode.calls": (per_pass(calls.get("fm.encode", 0)), "count"),
            "fm.encode.s": (seconds("fm.encode"), "s"),
            "fm.predict.calls": (per_pass(calls.get("fm.predict", 0)), "count"),
            "fm.predict.s": (seconds("fm.predict"), "s"),
            "optim.step.calls": (per_pass(calls.get("optim.step", 0)), "count"),
            "optim.step.s": (seconds("optim.step"), "s"),
            "ensemble.vote_recommend.s": (seconds("ensemble.vote_recommend"), "s"),
            "metrics.s": (seconds("metrics.rmse", "metrics.mae", "metrics.topn_metrics"), "s"),
            "persist.save_model.s": (seconds("persist.save_model"), "s"),
            "persist.save_model.bytes": (per_pass(self.values.get("persist.save_model.bytes", 0)), "bytes"),
            "persist.load_model.s": (seconds("persist.load_model"), "s"),
            "persist.load_model.calls": (per_pass(calls.get("persist.load_model", 0)), "count"),
        })
        return out


def _count_rows(tracer, dataset, args):
    tracer.add("data.parse_csv.rows", len(dataset))


def _count_negatives(tracer, dataset, args):
    tracer.add("data.negative_sample.added", dataset.metadata.get("negatives_added", 0))


def _count_bytes(tracer, path, args):
    tracer.add("persist.save_model.bytes", os.path.getsize(path))


def _count_epochs(name):
    def after(tracer, model, args):
        tracer.add(name + ".epochs", len(model.trace))

    return after


def _zero_share(tracer, result, args):
    """Largest share of singular values under the svd's own cutoff."""
    a = np.asarray(args[0])
    s = np.asarray(result.s)
    cutoff = max(a.shape) * np.finfo(float).eps * (float(s[0]) if s.size else 0.0)
    share = float(np.mean(s <= cutoff)) if s.size else 0.0
    tracer.values["linalg.svd.zero_share"] = max(
        tracer.values.get("linalg.svd.zero_share", 0.0), share)
