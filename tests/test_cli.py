"""End-to-end tests for the command line interface.

Each test drives main(argv) in process and checks exit codes, stdout,
stderr, and written model files.
"""

import contextlib
import gc
import io
import json
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latentrec import cli, linalg
from latentrec.cli import TRAIN_OPTIONS, _train_bundle, main
from latentrec.data import (CsvSchema, RatingDataset, UserItems, impute, negative_sample,
                            parse_csv, split, to_dense)
from latentrec.factor import overlap_weights
from latentrec.fm import OneHotBatch, SampleBatch, encode
from latentrec.metrics import mae, rmse
from latentrec.persist import (
    FORMAT_VERSION,
    _array,
    _floats,
    _ready,
    load_model,
    save_model,
)
from tests.conftest import (
    FOUR_BY_FOUR_CSV,
    edit_rows,
    form_of,
    inline,
    make_rank2_ratings,
    model_text,
    outline,
    rows_of,
    tokens_of,
    with_encoders,
    without_created,
)

IMPLICIT_CSV = (
    "user,item,rating\n"
    "a,x,1\na,y,1\nb,x,1\nb,z,1\nc,y,1\nc,z,1\nd,x,1\n"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_ratings(tmp_path, name="ratings.csv", text=FOUR_BY_FOUR_CSV):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def csv_from(ds):
    lines = ["user,item,rating"]
    lines += [f"{u},{i},{r}" for u, i, r in ds.triples]
    return "\n".join(lines) + "\n"


def train_fixture_model(capsys, tmp_path, algo="svd", *extra):
    data = write_ratings(tmp_path)
    out = str(tmp_path / f"{algo}.json")
    args = ["train", "--algo", algo, "--input", data, "--output", out]
    if algo == "svd":
        args += ["--rank-rule", "fixed:2"]
    else:
        args += ["--epochs", "5"]
    code, _, _ = run(capsys, *args, *extra)
    assert code == 0
    return out


class TestParsing:
    def test_bare_invocation_fails_with_usage(self, capsys):
        code, _, err = run(capsys)
        assert code == 2
        assert "usage" in err

    def test_help_exits_cleanly(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "train" in out

    def test_unknown_command_rejected(self, capsys):
        code, _, _ = run(capsys, "paint")
        assert code == 2

    def test_missing_input_flag(self, capsys, tmp_path):
        code, _, err = run(capsys, "train", "--algo", "funk",
                           "--output", str(tmp_path / "m.json"))
        assert code == 2
        assert "--input" in err

    def test_bad_algo_choice(self, capsys, tmp_path):
        code, _, err = run(capsys, "train", "--algo", "magic",
                           "--input", "x", "--output", "y")
        assert code == 2
        assert "invalid choice" in err

    def test_missing_input_file_is_a_data_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "train", "--algo", "funk",
                           "--input", str(tmp_path / "absent.csv"),
                           "--output", str(tmp_path / "m.json"))
        assert code == 3
        assert "absent.csv" in err

    def test_ratings_file_not_utf8_is_a_data_error(self, capsys, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_bytes(b"user,item,rating\nu1,i1,\xff\xfe\n")
        out = tmp_path / "m.json"
        code, stdout, err = run(capsys, "train", "--algo", "funk",
                                "--input", str(data), "--output", str(out))
        assert code == 3
        assert stdout == ""
        assert "cannot read ratings file" in err and "bad.csv" in err
        assert not out.exists()


class TestOneParser:
    """main parses every command line with one parser per process."""

    def test_reused_parses_stay_independent(self, capsys, tmp_path):
        # user a rates 2 of 8 items, so recommend lists 3 or all 6 others
        data = write_ratings(tmp_path, text="user,item,rating\n" + "".join(
            f"{u},{i},{1 + (ord(u) + i) % 5}\n"
            for u in "abcd" for i in range(8) if (ord(u) + i) % 3 == 0))
        model = str(tmp_path / "m.json")
        assert run(capsys, "train", "--algo", "funk", "--input", data,
                   "--output", model, "--epochs", "2")[0] == 0
        sequence = (
            ("evaluate", model, "--test", data, "--json"),
            ("evaluate", model, "--test", data),
            ("recommend", model, "a", "--k", "3"),
            ("recommend", model, "a"),
            ("recommend", model, "a", "--depth", "3"),
            ("--help",),
        )
        fresh = []
        for argv in sequence:
            cli.build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        reused = [run(capsys, *argv) for argv in sequence]
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 0, 0, 0, 2, 0]
        assert fresh[0][1] != fresh[1][1]  # the JSON report, then the table
        assert [len(out.splitlines()) for _, out, _ in reused[2:4]] == [3, 6]
        parse = cli.build_parser().parse_args
        assert parse(["recommend", model, "a", "--k", "3"]).k == 3
        assert parse(["recommend", model, "a"]).k is None

    @pytest.mark.parametrize("command", [*(f"train {a}" for a in cli.ALGO_CHOICES),
                                         "evaluate", "recommend", "ensemble blend"])
    def test_a_command_leaves_no_cyclic_garbage(self, capsys, tmp_path, command):
        model = train_fixture_model(capsys, tmp_path, "funk")
        argv = {
            "evaluate": ["evaluate", model, "--test", write_ratings(tmp_path, "t.csv")],
            "recommend": ["recommend", model, "1"],
            "ensemble blend": ["ensemble", "blend", model, model,
                               "--output", str(tmp_path / "blend.json")],
        }.get(command)
        if argv is None:
            algo = command.split()[1]
            argv = ["train", "--algo", algo, "--input", write_ratings(tmp_path),
                    "--output", str(tmp_path / "m.json"), "--epochs", "2"]
            argv += ["--rank-rule", "fixed:2"] if algo == "svd" else []
        assert run(capsys, *argv)[0] == 0  # warm-up: the parser, lazy imports
        gc.collect()
        gc.disable()
        try:
            code = run(capsys, *argv)[0]
        finally:
            gc.enable()
        assert code == 0
        assert gc.collect() == 0

    def test_the_handler_is_looked_up_when_the_command_runs(self, capsys, tmp_path,
                                                            monkeypatch):
        # perfbench's tracer wraps cli.cmd_* after the parser may be built
        model = train_fixture_model(capsys, tmp_path, "funk")
        assert run(capsys, "recommend", model, "1")[0] == 0
        calls = []

        def patched(args):
            calls.append((args.model, args.user))
            print("patched")
            return 0

        monkeypatch.setattr(cli, "cmd_recommend", patched)
        assert run(capsys, "recommend", model, "1") == (0, "patched\n", "")
        assert calls == [(model, "1")]


class TestConfigFile:
    def test_config_supplies_values(self, capsys, tmp_path):
        data = write_ratings(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# training setup\n"
            f"input={data}\n"
            "algo=funk\n"
            "epochs=3\n"
        )
        out = str(tmp_path / "m.json")
        code, _, err = run(capsys, "train", "--config", str(cfg),
                           "--output", out)
        assert code == 0
        assert err.count("epoch") == 3

    def test_flags_override_config(self, capsys, tmp_path):
        data = write_ratings(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input={data}\nalgo=funk\nepochs=3\n")
        code, _, err = run(capsys, "train", "--config", str(cfg),
                           "--output", str(tmp_path / "m.json"),
                           "--epochs", "1")
        assert code == 0
        assert err.count("epoch") == 1

    def test_unknown_key_suggests_nearest(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpa=0.1\n")
        code, _, err = run(capsys, "train", "--config", str(cfg),
                           "--algo", "funk", "--input", "x", "--output", "y")
        assert code == 2
        assert "alpa" in err and "'alpha'" in err

    def test_dashed_keys_accepted(self, capsys, tmp_path):
        data = write_ratings(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rank-rule=fixed:1\n")
        out = str(tmp_path / "m.json")
        code, _, _ = run(capsys, "train", "--config", str(cfg), "--algo", "svd",
                         "--input", data, "--output", out)
        assert code == 0
        assert load_model(out).model.f == 1

    def test_bad_value_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=soon\n")
        code, _, err = run(capsys, "train", "--config", str(cfg),
                           "--algo", "funk", "--input", "x", "--output", "y")
        assert code == 2
        assert "epochs" in err

    def test_malformed_line_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just a line\n")
        code, _, err = run(capsys, "train", "--config", str(cfg),
                           "--algo", "funk", "--input", "x", "--output", "y")
        assert code == 2
        assert "key=value" in err

    @pytest.mark.parametrize("text, flag", [("maybe", False), ("true", False),
                                            ("false", False), ("false", True)])
    def test_switch_read_from_config(self, capsys, tmp_path, text, flag):
        # json=maybe made evaluate exit 1 with a raw ValueError traceback
        model = train_fixture_model(capsys, tmp_path, "funk")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"json={text}\n")
        argv = ["evaluate", model, "--test", write_ratings(tmp_path), "--config", str(cfg)]
        code, stdout, err = run(capsys, *argv, *(["--json"] if flag else []))
        if text == "maybe":
            assert code == 2
            assert stdout == ""
            assert err.startswith("error: bad value for config key 'json'")
            assert len(err.splitlines()) == 1
            return
        assert code == 0
        assert stdout.startswith("{") == (text == "true" or flag)

    def test_missing_config_file_rejected(self, capsys, tmp_path):
        code, _, err = run(capsys, "train", "--config",
                           str(tmp_path / "none.cfg"),
                           "--algo", "funk", "--input", "x", "--output", "y")
        assert code == 2

    def test_config_file_not_utf8_rejected(self, capsys, tmp_path):
        data = write_ratings(tmp_path)
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"epochs=2\n\xff\xfe\n")
        out = tmp_path / "m.json"
        code, stdout, err = run(capsys, "train", "--algo", "funk",
                                "--input", data, "--output", str(out),
                                "--config", str(cfg))
        assert code == 2
        assert stdout == ""
        assert "Traceback" not in err
        assert "cannot read config file" in err and "bad.cfg" in err
        assert not out.exists()


OPTIONS = {"train": cli.TRAIN_OPTIONS, "recommend": cli.RECOMMEND_OPTIONS,
           "evaluate": cli.EVALUATE_OPTIONS, "vote": cli.VOTE_OPTIONS, "bag": cli.BAG_OPTIONS}
# the least value of each bounded option, by the command that reads it
LOWS = {
    **{(command, "k"): 1 for command in ("recommend", "evaluate", "vote")},
    **{(command, name): low for command in ("train", "bag")
       for name, low in (("factors", 1), ("epochs", 0), ("seed", 0), ("neighborhood", 1))},
    ("bag", "members"): 1,
}


def command_line(command, algo, folder):
    """The arguments of command, every file they name missing from folder."""
    missing, out = str(folder / "missing"), str(folder / "m.json")
    return {
        "train": ["train", "--algo", algo, "--input", missing, "--output", out],
        "recommend": ["recommend", missing, "u"],
        "evaluate": ["evaluate", missing, "--test", missing],
        "vote": ["ensemble", "vote", missing, "--user", "u"],
        "bag": ["ensemble", "bag", "--algo", algo, "--input", missing, "--output", out],
    }[command]


class TestFlagBounds:
    def test_each_bound_is_declared_on_its_option(self):
        declared = {(command, opt.name): opt.low for command, options in OPTIONS.items()
                    for opt in options if opt.low is not None}
        assert declared == LOWS

    @settings(max_examples=80, deadline=None)
    @given(case=st.sampled_from(sorted(LOWS)), algo=st.sampled_from(cli.ALGO_CHOICES),
           offset=st.integers(-3, 2), source=st.sampled_from(["flag", "config"]))
    # --seed -1 exited 1 with numpy's traceback; --neighborhood bound only svd and itemcf
    @example(case=("train", "seed"), algo="funk", offset=-1, source="flag")
    @example(case=("train", "neighborhood"), algo="funk", offset=-1, source="flag")
    def test_a_value_below_its_bound_exits_2_before_any_io(self, case, algo, offset, source):
        command, name = case
        opt = next(opt for opt in OPTIONS[command] if opt.name == name)
        low = LOWS[case]
        value = low + offset
        flag = f"--{opt.key.replace('_', '-')}"
        with tempfile.TemporaryDirectory() as tmp:
            folder = Path(tmp)
            argv = command_line(command, algo, folder)
            if source == "flag":
                argv += [flag, str(value)]
            else:
                (folder / "run.cfg").write_text(f"{opt.key}={value}\n")
                argv += ["--config", str(folder / "run.cfg")]
            before = sorted(folder.iterdir())
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert sorted(folder.iterdir()) == before
        err = err.getvalue()
        assert "Traceback" not in err
        if value < low:
            assert (code, err) == (2, f"error: {flag} must be >= {low}, got {value}\n")
        else:
            # the bound passes, and the missing file is the first thing read
            assert code == 3
            assert err.startswith("error: ") and err.count("\n") == 1


class TestTrain:
    @pytest.mark.parametrize("algo", ["svd", "funk", "svdpp", "itemcf",
                                      "fm", "ffm"])
    def test_every_algorithm_writes_a_loadable_model(self, capsys, tmp_path,
                                                     algo):
        out = train_fixture_model(capsys, tmp_path, algo)
        bundle = load_model(out)
        assert bundle.algorithm == algo
        assert np.isfinite(bundle.predict("1", "1"))

    @pytest.mark.parametrize("algo", ["fm", "ffm"])
    def test_fm_file_stores_no_encoder_and_reloads_the_trained_one(self, capsys,
                                                                   tmp_path, algo):
        ds, _ = make_rank2_ratings(m=8, n=6, seed=13)
        values = {opt.name: opt.default for opt in TRAIN_OPTIONS}
        values.update(epochs=3)
        bundle, _ = _train_bundle(algo, ds, values)
        path = save_model(bundle, tmp_path / "m.json")
        assert "encoder" not in json.loads(model_text(path))
        loaded = load_model(path)
        assert loaded.encoder == bundle.encoder
        for u in ds.user_index:
            assert [loaded.predict(u, i) for i in ds.item_index] == \
                [bundle.predict(u, i) for i in ds.item_index]

    @pytest.mark.parametrize("c", ["1", "10"])
    def test_svd_ratio_rule_keeps_the_rank_rank_by_ratio_gives(self, capsys, tmp_path, c):
        ds, _ = make_rank2_ratings(m=12, n=10, seed=7, noise=0.4)
        text = csv_from(ds)
        filled = impute(*to_dense(parse_csv(text)), "user")
        want = linalg.rank_by_ratio(linalg.svd(filled).s, float(c))
        out = str(tmp_path / "svd.json")
        code, stdout, _ = run(capsys, "train", "--algo", "svd", "--rank-rule", f"ratio:{c}",
                              "--input", write_ratings(tmp_path, text=text), "--output", out)
        assert code == 0
        assert f"retained rank {want}" in stdout.splitlines()
        assert load_model(out).model.f == want

    def test_trace_on_stderr_summary_on_stdout(self, capsys, tmp_path):
        data = write_ratings(tmp_path)
        out = str(tmp_path / "m.json")
        code, stdout, stderr = run(capsys, "train", "--algo", "funk",
                                   "--input", data, "--output", out,
                                   "--epochs", "4")
        assert code == 0
        assert stderr.splitlines()[0].startswith("epoch 1 loss")
        assert len(stderr.splitlines()) == 4
        assert stdout.splitlines()[0].startswith("trained funk")
        assert f"wrote {out}" in stdout

    def test_funk_fixture_reaches_low_heldout_error(self, capsys, tmp_path):
        ds, _ = make_rank2_ratings()
        train, test = split(ds, 0.2, seed=7)
        train_csv = write_ratings(tmp_path, "train.csv", csv_from(train))
        test_csv = write_ratings(tmp_path, "test.csv", csv_from(test))
        out = str(tmp_path / "funk.json")
        code, _, _ = run(capsys, "train", "--algo", "funk",
                         "--input", train_csv, "--output", out,
                         "--factors", "2", "--alpha", "0.01",
                         "--lambda", "0.02", "--epochs", "200")
        assert code == 0
        code, stdout, _ = run(capsys, "evaluate", out, "--test", test_csv,
                              "--json")
        assert code == 0
        assert json.loads(stdout)["rmse"] < 0.1

    def test_worked_example_prediction(self, capsys, tmp_path):
        model = train_fixture_model(capsys, tmp_path, "svd",
                                    "--similarity-mode", "paper-dot")
        code, out, _ = run(capsys, "predict", model, "3", "2")
        assert code == 0
        assert out == "1.40 (rounded: 1)\n"

    def test_implicit_training_with_negative_sampling(self, capsys, tmp_path):
        data = write_ratings(tmp_path, "implicit.csv", IMPLICIT_CSV)
        out = str(tmp_path / "cf.json")
        code, stdout, _ = run(capsys, "train", "--algo", "itemcf",
                              "--input", data, "--output", out,
                              "--kind", "implicit", "--neg-ratio", "1",
                              "--scale", "0:1")
        assert code == 0
        assert "trained itemcf" in stdout

    def test_neg_ratio_requires_implicit(self, capsys, tmp_path):
        data = write_ratings(tmp_path)
        code, _, err = run(capsys, "train", "--algo", "itemcf",
                           "--input", data,
                           "--output", str(tmp_path / "m.json"),
                           "--neg-ratio", "1")
        assert code == 2
        assert "implicit" in err

    def test_divergence_exits_4(self, capsys, tmp_path):
        data = write_ratings(tmp_path)
        code, _, err = run(capsys, "train", "--algo", "funk",
                           "--input", data,
                           "--output", str(tmp_path / "m.json"),
                           "--alpha", "1000", "--epochs", "50")
        assert code == 4
        assert "learning rate" in err

    def test_fm_squared_error_past_the_float_range_exits_4(self, capsys, tmp_path):
        # epoch 1 ends with finite predictions about 1e155 off their
        # ratings, whose squared error took the epoch loss to OverflowError
        data = write_ratings(tmp_path, "r.csv", (
            "user,item,rating\nzz,p,3\nu2,q,5\nu1,q,3\nu2,r,1\nzz,r,5\nu1,r,3\n"
            "u3,p,4\nu3,r,2\nzz,q,1\nu2,p,1\nu3,q,2\nu1,p,2\n"))
        code, _, err = run(capsys, "train", "--algo", "fm", "--input", data,
                           "--output", str(tmp_path / "m.json"), "--alpha", "0.5",
                           "--epochs", "20", "--factors", "2")
        assert code == 4
        assert "diverged at epoch 1" in err

    def test_reruns_are_byte_identical_except_created(self, capsys, tmp_path):
        data = write_ratings(tmp_path)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for out in (first, second):
            code, _, _ = run(capsys, "train", "--algo", "funk",
                             "--input", data, "--output", str(out),
                             "--epochs", "5")
            assert code == 0
        text_a = model_text(first).replace(str(first), "MODEL")
        text_b = model_text(second).replace(str(second), "MODEL")
        assert without_created(text_a) == without_created(text_b)

    @pytest.mark.parametrize("algo, flag, value", [
        ("itemcf", "--neighborhood", "0"),
        ("itemcf", "--neighborhood", "-3"),
        ("svd", "--neighborhood", "0"),
        ("svd", "--neighborhood", "-3"),
        ("svd", "--rank-rule", "fixed:99"),
        ("svd", "--rank-rule", "fixed:0"),
        ("svd", "--rank-rule", "energy:2"),
        ("svd", "--rank-rule", "ratio:-1"),
        ("svd", "--rank-rule", "ratio:inf"),
        ("svd", "--rank-rule", "ratio:nan"),
        ("funk", "--seed", "-1"),
        ("svdpp", "--seed", "-1"),
        ("fm", "--seed", "-1"),
        ("ffm", "--seed", "-1"),
        ("fm-negatives", "--seed", "-1"),
        ("bag", "--seed", "-1"),
        ("bag", "--members", "0"),
    ])
    def test_out_of_range_numeric_flag_is_an_argument_error(
            self, capsys, tmp_path, algo, flag, value):
        # two rows name another command line than train --algo ALGO
        command = {
            "fm-negatives": ["train", "--algo", "fm", "--kind", "implicit",
                             "--scale", "0:1", "--neg-ratio", "2"],
            "bag": ["ensemble", "bag", "--algo", "funk"],
        }.get(algo, ["train", "--algo", algo])
        data = (write_ratings(tmp_path, "implicit.csv", IMPLICIT_CSV)
                if algo == "fm-negatives" else write_ratings(tmp_path))
        out = tmp_path / "m.json"
        code, _, err = run(capsys, *command, "--input", data,
                           "--output", str(out), flag, value)
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("algo", ["funk", "svdpp", "fm", "ffm"])
    def test_huge_factor_table_is_refused_before_allocating(self, capsys,
                                                            tmp_path, algo):
        data = write_ratings(tmp_path)
        out = tmp_path / "m.json"
        start = time.perf_counter()
        code, stdout, err = run(capsys, "train", "--algo", algo, "--input", data,
                                "--output", str(out), "--factors", "100000000000")
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "exceeds the cap" in err
        assert not out.exists()

    @pytest.mark.parametrize("ratio", ["0", "-1", "nan", "inf"])
    def test_bad_neg_ratio_is_an_argument_error(self, capsys, tmp_path, ratio):
        data = write_ratings(tmp_path, "implicit.csv", IMPLICIT_CSV)
        out = tmp_path / "m.json"
        code, _, err = run(capsys, "train", "--algo", "fm", "--kind", "implicit",
                           "--scale", "0:1", "--input", data,
                           "--output", str(out), "--neg-ratio", ratio)
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "finite and above 0" in err
        assert not out.exists()

    @pytest.mark.parametrize("scale", ["1:inf", "nan:5", "5:1", "3:3"])
    @pytest.mark.parametrize("given", ["flag", "config"])
    def test_scale_that_is_not_two_finite_rising_numbers_is_an_argument_error(
            self, capsys, tmp_path, scale, given):
        # 1:inf trained and wrote "scale":[1.0,Infinity], which is not JSON;
        # the input named here does not exist, so exit 2 shows that the
        # scale was refused before any data was read
        out = tmp_path / "m.json"
        argv = ["train", "--algo", "funk", "--input", str(tmp_path / "absent.csv"),
                "--output", str(out)]
        if given == "flag":
            argv += ["--scale", scale]
        else:
            config = tmp_path / "run.cfg"
            config.write_text(f"scale = {scale}\n")
            argv += ["--config", str(config)]
        code, stdout, err = run(capsys, *argv)
        assert code == 2
        assert stdout == ""
        assert "Traceback" not in err
        assert "scale" in err
        if given == "config":
            assert "scale must be two finite numbers lo < hi" in err
        assert not out.exists()

    @pytest.mark.parametrize("algo, flag, value", [
        ("funk", "--alpha", "nan"),
        ("funk", "--alpha", "inf"),
        ("funk", "--lambda", "nan"),
        ("funk", "--lambda", "inf"),
        ("fm", "--alpha", "inf"),
        ("fm", "--lambda", "nan"),
    ])
    def test_non_finite_rate_or_regularization_is_an_argument_error(
            self, capsys, tmp_path, algo, flag, value):
        data = write_ratings(tmp_path)
        out = tmp_path / "m.json"
        code, stdout, err = run(capsys, "train", "--algo", algo, "--input", data,
                                "--output", str(out), flag, value)
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "finite" in err
        assert not out.exists()

    def test_fm_samples_are_packed_not_kept_per_record(self):
        # 20,000 one-hot (user, item) records; the samples used to live as
        # one FeatureVector each (about 13 MB here), the packed batch
        # takes about 1.3 MB
        ds = RatingDataset([(f"u{c // 150}", f"i{c % 150}", float(1 + c % 5))
                            for c in range(0, 40000, 2)])
        values = {opt.name: opt.default for opt in TRAIN_OPTIONS}
        values["epochs"] = 1
        tracemalloc.start()
        try:
            _train_bundle("fm", ds, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("algo", ["fm", "ffm"])
    def test_fm_batch_equals_packing_encoded_records(self, algo, monkeypatch):
        # index order u10, u9, u2 (and b, a, c) differs from the sorted
        # order that the encoder's categories take
        ds = RatingDataset([("u10", "b", 4.0), ("u9", "a", 2.0),
                            ("u2", "c", 5.0), ("u10", "c", 1.0),
                            ("u2", "b", 3.0), ("u9", "b", 4.0)],
                           user_index={"u10": 0, "u9": 1, "u2": 2},
                           item_index={"b": 0, "a": 1, "c": 2})
        batches = []
        trainer = getattr(cli, f"{algo}_train")

        def record(batch, **kwargs):
            batches.append(batch)
            return trainer(batch, **kwargs)

        monkeypatch.setattr(cli, f"{algo}_train", record)
        values = {opt.name: opt.default for opt in TRAIN_OPTIONS}
        values["epochs"] = 1
        bundle, _ = _train_bundle(algo, ds, values)
        want = SampleBatch.pack((encode((u, i), bundle.encoder), r)
                                for u, i, r in ds.triples)
        got = batches[0]
        for name in ("indices", "values", "fields", "offsets", "targets"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert got.n == want.n

    def test_cli_fm_samples_never_go_through_pack(self, capsys, tmp_path,
                                                  monkeypatch):
        # pack holds every (vector, target) pair until the batch is built;
        # the CLI builds its fm/ffm batches with SampleBatch.from_codes,
        # whose code columns fm_train and ffm_train read row by row
        def refuse(cls, samples):
            raise AssertionError("SampleBatch.pack called")

        monkeypatch.setattr(SampleBatch, "pack", classmethod(refuse))
        explicit = write_ratings(tmp_path)
        implicit = write_ratings(tmp_path, "implicit.csv", IMPLICIT_CSV)
        logistic = ["--kind", "implicit", "--loss", "logistic", "--neg-ratio", "1",
                    "--scale", "0:1"]
        for algo, data, user, extra in (("fm", explicit, "1", []),
                                        ("ffm", explicit, "1", []),
                                        ("fm", implicit, "a", logistic)):
            out = str(tmp_path / f"{algo}{user}.json")
            code, _, _ = run(capsys, "train", "--algo", algo, "--input", data,
                             "--output", out, "--epochs", "2", *extra)
            assert code == 0
            assert run(capsys, "recommend", out, user)[0] == 0
            code, _, _ = run(capsys, "evaluate", out, "--test", data, "--k", "5",
                             *extra[:2])
            assert code == 0

    def test_cli_fm_training_builds_no_csr_arrays(self, capsys, tmp_path, monkeypatch):
        # from_codes keeps the code columns; its CSR arrays are derived on
        # read, and the CLI's fm/ffm training reads none of them
        def refuse(self):
            raise AssertionError("CSR array of a one-hot batch read")

        for name in ("indices", "values", "offsets", "fields"):
            monkeypatch.setattr(OneHotBatch, name, property(refuse))
        explicit = write_ratings(tmp_path)
        implicit = write_ratings(tmp_path, "implicit.csv", IMPLICIT_CSV)
        logistic = ["--kind", "implicit", "--loss", "logistic", "--neg-ratio", "3",
                    "--scale", "0:1"]
        for algo, data, user, extra in (("fm", explicit, "1", []),
                                        ("ffm", explicit, "1", []),
                                        ("fm", implicit, "a", logistic),
                                        ("ffm", implicit, "a", logistic)):
            out = str(tmp_path / f"{algo}{user}.json")
            code, _, err = run(capsys, "train", "--algo", algo, "--input", data,
                               "--output", out, "--epochs", "2", *extra)
            assert code == 0, err
            assert run(capsys, "recommend", out, user)[0] == 0
            code, _, _ = run(capsys, "evaluate", out, "--test", data, "--k", "5",
                             *extra[:2])
            assert code == 0

    def test_cli_fm_scoring_builds_no_sample_batch(self, capsys, tmp_path, monkeypatch):
        # recommend and evaluate score fm/ffm in index space; only training
        # builds a SampleBatch (from_codes, or one row per FeatureVector)
        data = write_ratings(tmp_path)
        models = [train_fixture_model(capsys, tmp_path, algo) for algo in ("fm", "ffm")]

        def refuse(self):
            raise AssertionError("SampleBatch built at scoring")

        monkeypatch.setattr(SampleBatch, "__post_init__", refuse)
        for model in models:
            assert run(capsys, "recommend", model, "1")[0] == 0
            assert run(capsys, "evaluate", model, "--test", data, "--k", "2")[0] == 0

    def test_bad_rank_rule_is_an_argument_error(self, capsys, tmp_path):
        data = write_ratings(tmp_path)
        code, _, _ = run(capsys, "train", "--algo", "svd", "--input", data,
                         "--output", str(tmp_path / "m.json"),
                         "--rank-rule", "best-effort")
        assert code == 2


class TestPredict:
    def test_training_pair_matches_library_value(self, capsys, tmp_path):
        out = train_fixture_model(capsys, tmp_path, "funk")
        bundle = load_model(out)
        want = bundle.predict("2", "1")
        code, stdout, _ = run(capsys, "predict", out, "2", "1")
        assert code == 0
        assert stdout.startswith(f"{want:.2f} ")

    def test_unknown_user_exits_3(self, capsys, tmp_path):
        model = train_fixture_model(capsys, tmp_path)
        code, _, err = run(capsys, "predict", model, "9", "1")
        assert code == 3
        assert "'9'" in err

    def test_unknown_item_exits_3(self, capsys, tmp_path):
        model = train_fixture_model(capsys, tmp_path)
        code, _, err = run(capsys, "predict", model, "1", "9")
        assert code == 3
        assert "'9'" in err

    def test_integral_rounding_renders_as_integer(self, capsys, tmp_path):
        model = train_fixture_model(capsys, tmp_path)
        code, stdout, _ = run(capsys, "predict", model, "3", "2")
        assert code == 0
        assert stdout.endswith("(rounded: 1)\n")

    def test_prediction_that_overflows_exits_3(self, capsys, tmp_path):
        # finite factors of 1e200 multiply to inf, which predict rounded
        # with a raw ValueError (exit 1)
        model = train_fixture_model(capsys, tmp_path, "funk")
        doc = json.loads(model_text(model))
        block = doc["parameters"]
        for key in ("p", "q"):
            big = np.full_like(_array(block[key], FORMAT_VERSION), 1e200)
            block[key] = _ready(_floats(big))
        with open(model, "w") as handle:
            json.dump(doc, handle)
        # numpy warns of the overflow in np.dot; CI turns warnings into errors
        with np.errstate(over="ignore"):
            assert load_model(model).predict("1", "2") == np.inf
            code, stdout, err = run(capsys, "predict", model, "1", "2")
        assert code == 3
        assert stdout == ""
        assert err == "error: cannot round non-finite value inf\n"

    @pytest.mark.parametrize("text", [None, "epoch=3\n"])
    def test_config_file_that_is_missing_or_has_an_unknown_key_exits_2(
            self, capsys, tmp_path, text):
        model = train_fixture_model(capsys, tmp_path)
        cfg = tmp_path / "run.cfg"
        if text is not None:
            cfg.write_text(text)
        code, stdout, err = run(capsys, "predict", model, "1", "2",
                                "--config", str(cfg))
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        want = "cannot read config file" if text is None else "unknown config key 'epoch'"
        assert want in err


def overflowing_funk_model(capsys, tmp_path):
    """A trained funk file whose p and q are all 1e200: finite factors
    whose products overflow to inf."""
    model = train_fixture_model(capsys, tmp_path, "funk")
    doc = json.loads(model_text(model))
    block = doc["parameters"]
    for key in ("p", "q"):
        block[key] = _ready(_floats(np.full_like(_array(block[key], FORMAT_VERSION), 1e200)))
    with open(model, "w") as handle:
        json.dump(doc, handle)
    return model


class TestNonFiniteScores:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, message", [
        (["predict", "{model}", "1", "3"], "cannot round non-finite value inf"),
        (["recommend", "{model}", "1"],
         "non-finite score inf for user '1' at item '3'"),
        (["evaluate", "{model}", "--test", "{data}"], "predictions and truths must be finite"),
        (["ensemble", "vote", "{model}", "--user", "1"],
         "ensemble member 0: non-finite score inf for user '1' at item '3'"),
        (["ensemble", "stack", "{model}", "--holdout", "{data}", "--output", "{out}"],
         "member predictions contain non-finite values"),
    ], ids=["predict", "recommend", "evaluate", "vote", "stack"])
    def test_command_exits_3_without_a_warning(self, capsys, tmp_path, argv, message):
        # before, numpy warned of the overflow (an error here) and
        # recommend and vote ranked the inf scores and exited 0
        model = overflowing_funk_model(capsys, tmp_path)
        data = write_ratings(tmp_path)
        out = str(tmp_path / "out.json")
        code, stdout, err = run(capsys, *(a.format(model=model, data=data, out=out)
                                          for a in argv))
        assert (code, stdout, err) == (3, "", f"error: {message}\n")


@pytest.fixture(scope="module")
def huge_entry_models(tmp_path_factory):
    """Folder and documents of funk, svdpp, fm, ffm and blend files trained
    on the 4x4 example (the blend over the four others), with the ratings
    CSV beside them."""
    folder = tmp_path_factory.mktemp("huge-entries")
    ratings = write_ratings(folder)
    algos = ("funk", "svdpp", "fm", "ffm")
    with contextlib.redirect_stdout(io.StringIO()):
        for algo in algos:
            assert main(["train", "--algo", algo, "--input", ratings,
                         "--output", str(folder / algo), "--epochs", "3"]) == 0
        assert main(["ensemble", "blend", "--output", str(folder / "blend"),
                     *(str(folder / algo) for algo in algos)]) == 0
    return folder, {name: json.loads(model_text(folder / name)) for name in (*algos, "blend")}


def float_blocks(value):
    """Every float block of a model document, member blocks included."""
    if isinstance(value, dict) and "dtype" in value:
        yield value
    elif isinstance(value, (dict, list)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from float_blocks(item)


class TestHugeEntries:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_property_commands_exit_0_with_finite_output_or_3(self, huge_entry_models, data):
        # every float block of the file scaled so that its largest entry
        # is +-1e150 to 1e300: scores may overflow to inf or turn nan
        folder, docs = huge_entry_models
        doc = json.loads(json.dumps(docs[data.draw(st.sampled_from(sorted(docs)), label="file")]))
        for block in float_blocks(doc):
            a = _array(block, FORMAT_VERSION)
            peak = np.abs(a).max(initial=0.0)
            if peak > 0:
                scale = data.draw(st.integers(150, 300), label="exponent")
                sign = data.draw(st.sampled_from([1, -1]), label="sign")
                block.update(_ready(_floats(a * (sign * 10.0 ** scale / peak))))
        target = folder / "huge.json"
        target.write_text(json.dumps(doc))
        user = data.draw(st.sampled_from(tokens_of(doc["user_tokens"])), label="user")
        item = data.draw(st.sampled_from(tokens_of(doc["item_tokens"])), label="item")
        ratings = str(folder / "ratings.csv")
        for argv in (["predict", str(target), user, item],
                     ["recommend", str(target), user, "--k", "4"],
                     ["evaluate", str(target), "--test", ratings, "--k", "2"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                warnings.simplefilter("error")  # a numpy warning would exit 1
                code = main(argv)
            out, err = out.getvalue(), err.getvalue()
            assert code in (0, 3), (argv[0], code, err)
            if code == 0:
                assert err == "" and out, argv[0]
                assert "inf" not in out.lower() and "nan" not in out.lower(), (argv[0], out)
            else:
                assert out == "" and err.startswith("error: "), (argv[0], out, err)
                assert len(err.splitlines()) == 1, (argv[0], err)


class TestRecommend:
    def test_missing_items_ranked_by_prediction(self, capsys, tmp_path):
        model = train_fixture_model(capsys, tmp_path)
        code, stdout, _ = run(capsys, "recommend", model, "4", "--k", "2")
        assert code == 0
        lines = stdout.splitlines()
        assert [line.split("\t")[0] for line in lines] == ["2", "1"]
        scores = [float(line.split("\t")[1]) for line in lines]
        assert scores[0] >= scores[1]

    def test_zero_k_is_an_argument_error(self, capsys, tmp_path):
        model = train_fixture_model(capsys, tmp_path)
        code, _, err = run(capsys, "recommend", model, "4", "--k", "0")
        assert code == 2
        assert "k must be >= 1" in err

    def test_fully_rated_user_gets_empty_list(self, capsys, tmp_path):
        dense = "user,item,rating\nu1,a,3\nu1,b,4\nu2,a,2\nu2,b,5\n"
        data = write_ratings(tmp_path, "dense.csv", dense)
        out = str(tmp_path / "m.json")
        code, _, _ = run(capsys, "train", "--algo", "funk", "--input", data,
                         "--output", out, "--epochs", "2")
        assert code == 0
        code, stdout, _ = run(capsys, "recommend", out, "u1", "--k", "3")
        assert code == 0
        assert stdout == ""

    def test_unknown_user_exits_3(self, capsys, tmp_path):
        model = train_fixture_model(capsys, tmp_path)
        code, _, _ = run(capsys, "recommend", model, "ghost", "--k", "2")
        assert code == 3

    @pytest.mark.parametrize("algo", ["fm", "ffm"])
    def test_item_drawn_as_a_negative_can_be_recommended(self, capsys,
                                                         tmp_path, algo):
        # user a rated x and y; with one negative per positive the only
        # unseen item, z, is drawn as a's negative
        data = write_ratings(tmp_path, "implicit.csv", IMPLICIT_CSV)
        flags = ["--kind", "implicit", "--scale", "0:1", "--neg-ratio", "1"]
        with open(data, encoding="utf-8") as handle:
            read = parse_csv(handle, CsvSchema(kind="implicit", scale=(0.0, 1.0)))
        sampled = negative_sample(read, ratio=1, seed=42)
        a, z = read.user_index["a"], read.item_index["z"]
        assert (a, z, 0.0) in set(zip(*(c.tolist() for c in sampled.indexed())))
        out = str(tmp_path / "m.json")
        code, _, _ = run(capsys, "train", "--algo", algo, "--input", data,
                         "--output", out, "--epochs", "3", *flags)
        assert code == 0
        assert load_model(out).observed[a].tolist() == [read.item_index["x"],
                                                        read.item_index["y"]]
        code, stdout, _ = run(capsys, "recommend", out, "a", "--k", "3")
        assert code == 0
        assert [line.split("\t")[0] for line in stdout.splitlines()] == ["z"]

    def test_truncated_observed_lists_exit_3(self, capsys, tmp_path):
        model = train_fixture_model(capsys, tmp_path, "fm")
        doc = inline(json.loads(model_text(model)))
        doc["parameters"]["observed"] = form_of(rows_of(doc["parameters"]["observed"])[:2])
        with open(model, "w") as handle:
            json.dump(outline(doc), handle)
        code, stdout, err = run(capsys, "recommend", model, "4", "--k", "2")
        assert code == 3
        assert stdout == ""
        assert "malformed model file" in err

    @pytest.mark.parametrize("algo, edit", [
        ("fm", "numeric item column"), ("fm", "3 rows short"), ("fm", "3 rows long"),
        ("ffm", "3 rows short"), ("ffm", "1 field"),
    ])
    def test_fm_machine_that_does_not_fit_its_encoder_exits_3(self, capsys, tmp_path,
                                                               algo, edit):
        # a version 6 document, whose encoder block can be edited
        model = train_fixture_model(capsys, tmp_path, algo)
        doc = with_encoders(json.loads(model_text(model)))
        block = doc["parameters"]
        w, v = (_array(block[key], FORMAT_VERSION) for key in ("w", "v"))
        if edit == "numeric item column":
            doc["encoder"]["columns"][1].update(kind="numeric", categories=None)
        elif edit == "1 field":
            block["n_fields"], v = 1, v[:, :1]
        else:
            rows = slice(None, -3) if edit == "3 rows short" else [*range(len(w)), 0, 1, 2]
            w, v = w[rows], v[rows]
        block["w"], block["v"] = _ready(_floats(w)), _ready(_floats(v))
        with open(model, "w") as handle:
            json.dump(doc, handle)
        for argv in (["recommend", model, "1"], ["predict", model, "1", "2"]):
            code, stdout, err = run(capsys, *argv)
            assert code == 3
            assert stdout == ""
            assert err.startswith("error: ")
            assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("algo", ["itemcf", "funk", "svdpp", "svd"])
    def test_per_user_tables_short_of_the_user_index_exit_3(self, capsys,
                                                             tmp_path, algo):
        # the last user's entries go from every per-user table; the user
        # index still names that user
        model = train_fixture_model(capsys, tmp_path, algo)
        doc = inline(json.loads(model_text(model)))
        block = doc["parameters"]
        if algo == "itemcf":
            block["ratings"] = edit_rows(block["ratings"], list.pop)
        else:
            block["rated"] = edit_rows(block["rated"], list.pop)
            user_axis = {"p": 1, "b_u": 0, "u": 0}
            for key in user_axis.keys() & block.keys():
                a = _array(block[key], FORMAT_VERSION)
                block[key] = _ready(_floats(np.delete(a, -1, axis=user_axis[key])))
        with open(model, "w") as handle:
            json.dump(outline(doc), handle)
        last = doc["user_tokens"][-1]
        code, stdout, err = run(capsys, "recommend", model, last, "--k", "2")
        assert code == 3
        assert stdout == ""
        assert err.startswith("error: malformed model file")
        assert "hold 3 users where the user index has 4" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("algo, key, bad", [
        (algo, key, bad)
        for algo, key in [("svd", "rated"), ("funk", "rated"), ("svdpp", "rated"),
                          ("fm", "observed"), ("itemcf", "ratings")]
        for bad in (1.5, "3", None, True)
    ] + [("itemcf", "ratings", "repeat")])
    def test_index_list_entry_that_is_not_an_item_exits_3(self, capsys,
                                                          tmp_path, algo,
                                                          key, bad):
        # 1.5 was cut to item 1 (fm: an uncaught IndexError on recommend);
        # an itemcf list that repeats an item was merged into one entry
        model = train_fixture_model(capsys, tmp_path, algo)
        doc = inline(json.loads(model_text(model)))
        block = doc["parameters"]
        if bad == "repeat":
            block[key] = edit_rows(block[key], lambda rows: rows[0].append(list(rows[0][-1])))
        else:
            # the first gap of user 0's row is that row's first item
            assert block[key]["lengths"][0] > 0
            block[key]["gaps"][0] = bad
        with open(model, "w") as handle:
            json.dump(outline(doc), handle)
        user = doc["user_tokens"][0]
        code, stdout, err = run(capsys, "recommend", model, user, "--k", "2")
        assert code == 3
        assert stdout == ""
        assert err.startswith("error: malformed model file")
        assert "integer item indices" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("algo", ["fm", "ffm"])
    @pytest.mark.parametrize("column", ["user", "item"])
    def test_encoder_category_renamed_away_from_its_token_exits_3(
            self, capsys, tmp_path, algo, column):
        # with the category of item (or user) 1 renamed to "zzz" in a
        # version 6 file, recommend exited 0 and predict scored it through
        # the unseen-category slot
        model = train_fixture_model(capsys, tmp_path, algo)
        doc = with_encoders(json.loads(model_text(model)))
        (encoded,) = [c for c in doc["encoder"]["columns"] if c["name"] == column]
        encoded["categories"][encoded["categories"].index("1")] = "zzz"
        with open(model, "w") as handle:
            json.dump(doc, handle)
        for argv in (("predict", model, "1", "1"), ("recommend", model, "1")):
            code, stdout, err = run(capsys, *argv)
            assert code == 3
            assert stdout == ""
            assert err.startswith("error: malformed model file")
            assert (f"{algo} encoder must be a categorical user column, then an item "
                    "column, each holding its sorted tokens") in err
            assert len(err.splitlines()) == 1

    def test_model_file_not_utf8_exits_3(self, capsys, tmp_path):
        model = tmp_path / "bad.json"
        model.write_bytes(b'{"format_version": 3, "algorithm": "\xff"}\n')
        code, stdout, err = run(capsys, "recommend", str(model), "u1")
        assert code == 3
        assert stdout == ""
        assert "cannot read model file" in err and "bad.json" in err


class TestEvaluate:
    def test_training_subset_matches_training_error(self, capsys, tmp_path):
        data = write_ratings(tmp_path)
        out = str(tmp_path / "m.json")
        code, stdout, _ = run(capsys, "train", "--algo", "funk",
                              "--input", data, "--output", out,
                              "--epochs", "300")
        assert code == 0
        final = float(stdout.splitlines()[1].split()[-1])
        code, stdout, _ = run(capsys, "evaluate", out, "--test", data,
                              "--json")
        assert code == 0
        assert json.loads(stdout)["rmse"] == pytest.approx(final, abs=1e-5)

    def test_requested_cutoffs_all_reported(self, capsys, tmp_path):
        ds, _ = make_rank2_ratings(m=12, n=10, density=0.7, seed=6)
        train, test = split(ds, 0.3, seed=2)
        train_csv = write_ratings(tmp_path, "train.csv", csv_from(train))
        test_csv = write_ratings(tmp_path, "test.csv", csv_from(test))
        out = str(tmp_path / "m.json")
        code, _, _ = run(capsys, "train", "--algo", "funk",
                         "--input", train_csv, "--output", out,
                         "--epochs", "10")
        assert code == 0
        code, stdout, _ = run(capsys, "evaluate", out, "--test", test_csv,
                              "--k", "5,10")
        assert code == 0
        for label in ("precision@5", "recall@5", "precision@10", "recall@10"):
            assert label in stdout

    def test_bad_cutoff_fails_before_any_io(self, capsys, tmp_path):
        # neither the model nor the test file exists: the cutoff is checked first
        code, _, err = run(capsys, "evaluate", str(tmp_path / "m.json"),
                           "--test", str(tmp_path / "missing.csv"), "--k", "0")
        assert code == 2
        assert err == "error: --k must be >= 1, got 0\n"

    def test_empty_test_exits_3(self, capsys, tmp_path):
        model = train_fixture_model(capsys, tmp_path)
        empty = write_ratings(tmp_path, "empty.csv", "user,item,rating\n")
        code, _, _ = run(capsys, "evaluate", model, "--test", empty)
        assert code == 3

    def test_table_output_is_aligned(self, capsys, tmp_path):
        model = train_fixture_model(capsys, tmp_path)
        data = write_ratings(tmp_path)
        code, stdout, _ = run(capsys, "evaluate", model, "--test", data)
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0].startswith("rmse")
        assert len({len(line) for line in lines}) == 1

    @pytest.mark.parametrize("algo", ["svd", "svdpp", "itemcf", "fm", "ffm"])
    def test_rows_not_grouped_by_user_score_as_predict_per_pair(
            self, capsys, tmp_path, algo):
        ds, _ = make_rank2_ratings(m=8, n=6, density=0.7, seed=3)
        train_csv = write_ratings(tmp_path, "train.csv", csv_from(ds))
        rows = list(ds.triples)
        rows = [rows[t] for t in np.random.default_rng(4).permutation(len(rows))]
        runs = 1 + sum(a[0] != b[0] for a, b in zip(rows, rows[1:]))
        assert runs > len({u for u, _, _ in rows})  # some user's rows are apart
        test_csv = write_ratings(tmp_path, "test.csv", "user,item,rating\n" + "".join(
            f"{u},{i},{r}\n" for u, i, r in rows))
        out = str(tmp_path / "m.json")
        flags = ["--rank-rule", "fixed:2"] if algo == "svd" else ["--epochs", "3"]
        code, _, _ = run(capsys, "train", "--algo", algo, "--input", train_csv,
                         "--output", out, *flags)
        assert code == 0
        code, stdout, _ = run(capsys, "evaluate", out, "--test", test_csv, "--json")
        assert code == 0
        bundle = load_model(out)
        preds = [bundle.predict(u, i) for u, i, _ in rows]
        truth = [r for _, _, r in rows]
        report = json.loads(stdout)
        assert report["rmse"] == rmse(preds, truth)
        assert report["mae"] == mae(preds, truth)

    def test_unknown_test_token_named_in_row_order(self, capsys, tmp_path):
        model = train_fixture_model(capsys, tmp_path)
        # row 2 has an unknown item, row 3 an unknown user: row 2 is named
        test = write_ratings(tmp_path, "test.csv",
                             "user,item,rating\n1,1,3\n2,ghost,4\nnobody,1,2\n")
        code, stdout, err = run(capsys, "evaluate", model, "--test", test)
        assert (code, stdout) == (3, "")
        assert err == "error: unknown item 'ghost'\n"
        test = write_ratings(tmp_path, "test.csv",
                             "user,item,rating\n1,1,3\nnobody,ghost,2\n")
        code, _, err = run(capsys, "evaluate", model, "--test", test)
        assert (code, err) == (3, "error: unknown user 'nobody'\n")


class TestEnsemble:
    def test_blend_of_one_equals_the_member(self, capsys, tmp_path):
        model = train_fixture_model(capsys, tmp_path)
        out = str(tmp_path / "ens.json")
        code, _, _ = run(capsys, "ensemble", "blend", model, "--weights", "1",
                         "--output", out)
        assert code == 0
        for user, item in (("1", "2"), ("3", "2"), ("4", "1")):
            _, direct, _ = run(capsys, "predict", model, user, item)
            _, blended, _ = run(capsys, "predict", out, user, item)
            assert blended == direct

    def test_weights_of_another_count_exit_2(self, capsys, tmp_path):
        model = train_fixture_model(capsys, tmp_path)
        out = tmp_path / "ens.json"
        code, stdout, err = run(capsys, "ensemble", "blend", model, model,
                                "--weights", "1", "--output", str(out))
        assert (code, stdout, err) == (2, "", "error: 2 members but 1 weights\n")
        assert not out.exists()

    def test_mismatched_index_maps_exit_3(self, capsys, tmp_path):
        first = train_fixture_model(capsys, tmp_path)
        other_csv = write_ratings(tmp_path, "other.csv",
                                  "user,item,rating\nx,y,3\nx,z,4\nw,y,2\n")
        second = str(tmp_path / "other.json")
        code, _, _ = run(capsys, "train", "--algo", "funk",
                         "--input", other_csv, "--output", second,
                         "--epochs", "2")
        assert code == 0
        code, _, err = run(capsys, "ensemble", "blend", first, second,
                           "--output", str(tmp_path / "ens.json"))
        assert code == 3
        assert "index maps" in err

    def test_member_not_utf8_exits_3(self, capsys, tmp_path):
        good = train_fixture_model(capsys, tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe")
        out = tmp_path / "ens.json"
        code, _, err = run(capsys, "ensemble", "blend", good, str(bad),
                           "--output", str(out))
        assert code == 3
        assert "cannot read model file" in err
        assert not out.exists()

    def test_weight_count_mismatch_exits_2(self, capsys, tmp_path):
        model = train_fixture_model(capsys, tmp_path)
        code, _, _ = run(capsys, "ensemble", "blend", model,
                         "--weights", "0.5,0.5",
                         "--output", str(tmp_path / "ens.json"))
        assert code == 2

    def test_negative_weight_exits_2(self, capsys, tmp_path):
        first = train_fixture_model(capsys, tmp_path, "svd")
        second = train_fixture_model(capsys, tmp_path, "funk")
        code, _, _ = run(capsys, "ensemble", "blend", first, second,
                         "--weights", "1.5,-0.5",
                         "--output", str(tmp_path / "ens.json"))
        assert code == 2

    def test_vote_prints_ranked_tokens(self, capsys, tmp_path):
        first = train_fixture_model(capsys, tmp_path, "svd")
        second = train_fixture_model(capsys, tmp_path, "funk")
        code, stdout, _ = run(capsys, "ensemble", "vote", first, second,
                              "--user", "4", "--k", "2")
        assert code == 0
        lines = stdout.splitlines()
        assert 1 <= len(lines) <= 2
        for line in lines:
            token, votes = line.split("\t")
            assert token in ("1", "2")
            assert votes in ("1", "2")

    def test_vote_ranks_as_recommend_on_a_blend_of_the_same_files(
            self, capsys, tmp_path):
        members = [train_fixture_model(capsys, tmp_path, algo)
                   for algo in ("svd", "funk", "itemcf")]
        blend = str(tmp_path / "blend.json")
        assert run(capsys, "ensemble", "blend", *members, "--output", blend)[0] == 0
        for user in ("1", "2", "3", "4"):
            code, voted, _ = run(capsys, "ensemble", "vote", *members,
                                 "--user", user, "--k", "3")
            assert code == 0
            code, recommended, _ = run(capsys, "recommend", blend, user, "--k", "3")
            assert code == 0
            assert voted.splitlines() == [
                f"{token}\t{float(votes):.0f}" for token, votes in
                (line.split("\t") for line in recommended.splitlines())]

    def test_vote_unknown_user_exits_3(self, capsys, tmp_path):
        model = train_fixture_model(capsys, tmp_path)
        code, _, _ = run(capsys, "ensemble", "vote", model, "--user", "nope")
        assert code == 3

    def test_bag_writes_ensemble_with_members(self, capsys, tmp_path):
        data = write_ratings(tmp_path)
        out = str(tmp_path / "bag.json")
        code, _, _ = run(capsys, "ensemble", "bag", "--input", data,
                         "--algo", "funk", "--members", "3", "--epochs", "3",
                         "--output", out)
        assert code == 0
        bundle = load_model(out)
        assert bundle.algorithm == "ensemble"
        assert bundle.model.kind == "bag"
        assert len(bundle.model.members) == 3
        assert np.isfinite(bundle.predict("1", "2"))

    @pytest.mark.parametrize("algo", ["fm", "ffm"])
    def test_bag_neg_ratio_draws_negatives_once_and_keeps_rated_lists(
            self, capsys, tmp_path, algo):
        data = write_ratings(tmp_path, "implicit.csv", IMPLICIT_CSV)
        with open(data, encoding="utf-8") as handle:
            read = parse_csv(handle, CsvSchema(kind="implicit", scale=(0.0, 1.0)))
        rated = [row.tolist() for row in read.items_by_user()]
        bags = []
        for extra in ([], ["--neg-ratio", "1"]):
            out = str(tmp_path / f"bag{len(bags)}.json")
            code, _, err = run(capsys, "ensemble", "bag", "--input", data,
                               "--algo", algo, "--kind", "implicit",
                               "--scale", "0:1", "--members", "3",
                               "--epochs", "3", "--output", out, *extra)
            assert code == 0, err
            bag = load_model(out)
            # every member leaves out exactly what each user rated, once
            assert [[row.tolist() for row in m.observed]
                    for m in bag.model.members] == [rated] * 3
            bags.append(bag)
        pairs = [(u, i) for u in read.user_index for i in read.item_index]
        assert [bags[0].predict(u, i) for u, i in pairs] != \
            [bags[1].predict(u, i) for u, i in pairs]

    def test_bag_neg_ratio_needs_implicit_data(self, capsys, tmp_path):
        data = write_ratings(tmp_path)
        out = tmp_path / "bag.json"
        code, stdout, err = run(capsys, "ensemble", "bag", "--input", data,
                                "--algo", "fm", "--neg-ratio", "1",
                                "--output", str(out))
        assert code == 2
        assert stdout == ""
        assert err == "error: --neg-ratio requires --kind implicit\n"
        assert not out.exists()

    def test_stack_writes_coefficients_into_file(self, capsys, tmp_path):
        first = train_fixture_model(capsys, tmp_path, "svd")
        second = train_fixture_model(capsys, tmp_path, "funk")
        data = write_ratings(tmp_path)
        out = str(tmp_path / "stack.json")
        code, stdout, _ = run(capsys, "ensemble", "stack", first, second,
                              "--holdout", data, "--output", out)
        assert code == 0
        assert "coefficients" in stdout
        doc = json.loads(model_text(tmp_path / "stack.json"))
        assert doc["ensemble"]["kind"] == "stack"
        assert len(doc["ensemble"]["weights"]) == 2
        assert "intercept" in doc["ensemble"]

    def test_stack_holdout_with_unknown_tokens_exits_3(self, capsys, tmp_path):
        model = train_fixture_model(capsys, tmp_path)
        stranger = write_ratings(tmp_path, "stranger.csv",
                                 "user,item,rating\nmystery,1,3\n")
        code, _, _ = run(capsys, "ensemble", "stack", model,
                         "--holdout", stranger,
                         "--output", str(tmp_path / "ens.json"))
        assert code == 3

    def test_round_trip_probes_match_across_save_load(self, capsys, tmp_path):
        """Persisted predictions survive a save/load cycle bit for bit."""
        rng = np.random.default_rng(33)
        model = train_fixture_model(capsys, tmp_path, "svdpp")
        bundle = load_model(model)
        again = load_model(model)
        users = list(bundle.user_index)
        items = list(bundle.item_index)
        for _ in range(100):
            u = users[rng.integers(len(users))]
            i = items[rng.integers(len(items))]
            assert abs(bundle.predict(u, i) - again.predict(u, i)) <= 1e-12


@pytest.fixture(scope="module")
def implicit_fm():
    """The logistic fm `train` makes on implicit 500 x 300 data: 5,000
    positives plus 15,000 sampled negatives, f=8; with its positives."""
    rng = np.random.default_rng(14)
    cells = rng.choice(500 * 300, 5000, replace=False)
    positives = RatingDataset([(f"u{c // 300}", f"i{c % 300}", 1.0) for c in cells],
                              kind="implicit")
    values = {opt.name: opt.default for opt in TRAIN_OPTIONS}
    values.update(kind="implicit", loss="logistic", factors=8, epochs=1)
    ds = negative_sample(positives, ratio=3, seed=values["seed"])
    bundle, _ = _train_bundle("fm", ds, values, rated=positives)
    return bundle, positives


def traced_peak(call):
    """Peak bytes allocated while call() runs, above what was held before."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def wide_itemcf(tmp_path_factory):
    """(path, n) of the itemcf file `train` makes on implicit data over
    n = 2000 items: 300 users with 12 items each, and user "all" with every
    item."""
    folder = tmp_path_factory.mktemp("wide_itemcf")
    rng = np.random.default_rng(3)
    n = 2000
    rows = [f"u{u},i{i},1\n" for u in range(300) for i in rng.choice(n, 12, replace=False).tolist()]
    rows += [f"all,i{i},1\n" for i in range(n)]
    (folder / "r.csv").write_text("".join(rows))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--algo", "itemcf", "--kind", "implicit", "--input",
                     str(folder / "r.csv"), "--output", str(folder / "m.json")]) == 0
    return folder / "m.json", n


@pytest.fixture(scope="module")
def wide_itemcf_neighborhood(wide_itemcf):
    """(path, n) of the itemcf file `train --neighborhood 50` makes on
    wide_itemcf's data."""
    path, n = wide_itemcf
    output = path.with_name("k50.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--algo", "itemcf", "--kind", "implicit", "--neighborhood", "50",
                     "--input", str(path.with_name("r.csv")), "--output", str(output)]) == 0
    return output, n


class TestTransientMemory:
    def test_save_model_peak_stays_near_the_document(self, implicit_fm,
                                                     tmp_path):
        # writing one string of the whole file peaked at about 2.8 MB;
        # the streamed writer stays within about five times the document
        # the file inflates to (97,598 characters), zlib's deflate state
        # (about 260 KB) included
        bundle, _ = implicit_fm
        path = tmp_path / "m.json"
        assert traced_peak(lambda: save_model(bundle, path)) < 2**19
        assert len(model_text(path)) > 95_000

    def test_overlap_weights_builds_one_n_by_n_array(self, implicit_fm):
        # 300 x 300 doubles are 0.69 MB; a second array made it 1.5 MB
        _, positives = implicit_fm
        maps = [{} for _ in range(positives.n_users)]
        users, items, _ = positives.indexed()
        for u, i in zip(users.tolist(), items.tolist()):
            maps[u][i] = 1.0
        assert positives.n_items == 300
        assert traced_peak(lambda: overlap_weights(maps, 300)) < 2**20

    def test_overlap_weights_of_a_user_with_every_item(self):
        # 500 x 500 doubles are 2 MB; adding the d_u x d_u block of a user
        # who rated every item at once made a second one (4.13 MB), blocks
        # of SORT_ROWS rows peak at 2.26 MB
        rng = np.random.default_rng(4)
        n = 500
        maps = [dict.fromkeys(sorted(rng.choice(n, 12, replace=False).tolist()), 1.0)
                for _ in range(300)]
        ratings = UserItems.of(maps + [dict.fromkeys(range(n), 1.0)], None, n, valued=True)
        assert traced_peak(lambda: overlap_weights(ratings, n)) < 1.25 * n * n * 8

    def test_itemcf_load_and_recommend_build_no_n_by_n_array(self, wide_itemcf):
        # 2000 x 2000 doubles are 32 MB, which W took; the columns of one
        # user's items come a block of 32 at a time (1.05 MB with the load)
        path, n = wide_itemcf
        assert traced_peak(lambda: load_model(path).recommend("u0", 10)) < n * n

    def test_itemcf_user_with_every_item_builds_no_n_by_n_array(self, wide_itemcf):
        # predict counts the one candidate's row (0.2 MB for 20 calls), and
        # scoring every item takes the user's columns in blocks (0.65 MB)
        path, n = wide_itemcf
        bundle = load_model(path)
        u = bundle.user_index["all"]
        assert len(bundle.scorer.seen(u)) == n
        assert traced_peak(lambda: [bundle.predict("all", f"i{i}")
                                    for i in range(0, n, 100)]) < n * n
        assert traced_peak(lambda: bundle.scorer.scores(u, np.arange(n))) < n * n

    def test_itemcf_neighborhood_scores_build_no_n_by_n_array(self, wide_itemcf_neighborhood):
        # K = 50 < n - 1 built W on the first score, and the d_u x d_u
        # block of user "all" a second n x n array (64.5 MB); neighbours
        # now rank the candidates' rows of co-occurrence counts, 32 at a time
        path, n = wide_itemcf_neighborhood
        assert traced_peak(lambda: load_model(path).recommend("u0", 10)) < n * n
        assert traced_peak(lambda: load_model(path).recommend("all", 10)) < n * n
