"""Tests for the repository tools under tools/."""

import importlib.util
import json
import sys
import zlib
from pathlib import Path

from latentrec.cli import main
from tests.conftest import FOUR_BY_FOUR_CSV, model_text

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name, folder=TOOLS):
    spec = importlib.util.spec_from_file_location(name, folder / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps the line


# a comment line
def f(x):
    """One-line docstring."""
    text = """a string that is
    not a docstring"""
    return x


class C:
    """Class docstring."""

    value = 1
'''


class TestCountLines:
    def test_counts_code_outside_docstrings_comments_and_blanks(self):
        count_lines = load_tool("count_lines")
        # import, def, text (2 lines), return, class, value
        assert count_lines.code_lines(SOURCE) == 7

    def test_main_prints_each_module_and_the_total(self, tmp_path, capsys):
        count_lines = load_tool("count_lines")
        (tmp_path / "a.py").write_text(SOURCE)
        (tmp_path / "b.py").write_text("x = 1\n\n# end\n")
        assert count_lines.main([str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == ["7", "1", "8"]
        assert lines[-1].endswith("total")


class TestModelSizes:
    def test_prints_each_section_of_a_blend_file(self, tmp_path, capsys):
        model_sizes = load_tool("model_sizes")
        ratings = tmp_path / "ratings.csv"
        ratings.write_text(FOUR_BY_FOUR_CSV)
        for algo in ("funk", "fm"):
            assert main(["train", "--algo", algo, "--input", str(ratings),
                         "--output", str(tmp_path / algo), "--epochs", "2"]) == 0
        blend = tmp_path / "blend"
        assert main(["ensemble", "blend", "--output", str(blend),
                     str(tmp_path / "funk"), str(tmp_path / "fm")]) == 0
        capsys.readouterr()
        assert model_sizes.main([str(blend)]) == 0
        lines = capsys.readouterr().out.splitlines()
        text = model_text(blend)
        assert lines[0] == f"{blend}: {blend.stat().st_size} bytes on disk"
        rows = {line.split()[0] if not line.startswith("  member") else
                " ".join(line.split()[:3]): [int(n) for n in line.split()[-2:]]
                for line in lines[2:]}
        doc = json.loads(text)
        members = doc["ensemble"]["members"]
        assert set(rows) == {
            "algorithm", "created", "format_version", "library", "scale",
            "user_tokens", "item_tokens", "ensemble.intercept", "ensemble.kind",
            "ensemble.weights", "document",
            *(f"member {n} parameters.{key}" for n, member in enumerate(members)
              for key in member["parameters"])}
        # raw is the section's compact JSON; deflated is a raw deflate stream
        raw, packed = rows["member 0 parameters.rated"]
        section = json.dumps(members[0]["parameters"]["rated"], sort_keys=True,
                             separators=(",", ":")).encode()
        assert raw == len(section)
        assert packed == len(zlib.compress(section, 6)) - 6
        assert rows["document"][0] == len(text.encode())
        # the file is the deflated document plus a gzip header and trailer
        assert blend.stat().st_size == rows["document"][1] + 18

    def test_version_6_file_shows_the_encoder_of_each_machine(self, capsys):
        # files from version 7 store no encoder; earlier ones still show it
        path = Path(__file__).resolve().parent / "fixtures" / "format6_blend.json"
        assert load_tool("model_sizes").main([str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:3] for line in lines if "encoder" in line] == \
            [["member", "4", "encoder"], ["member", "5", "encoder"]]

    def test_without_files_prints_usage(self, capsys):
        assert load_tool("model_sizes").main([]) == 2
        assert "model_sizes.py" in capsys.readouterr().err


class TestScoreDigest:
    def test_prints_one_stable_digest_per_model(self, capsys, monkeypatch):
        score_digest = load_tool("score_digest")
        monkeypatch.setattr(sys, "path", sys.path[:])  # main puts SRC in front
        runs = []
        for _ in range(2):
            assert score_digest.main([str(TOOLS.parent / "src")]) == 0
            runs.append(capsys.readouterr().out.splitlines())
        assert runs[0] == runs[1]
        cases = [name for name, _, _ in score_digest.CASES] + \
            [name for name, _ in score_digest.BLENDS]
        assert len(cases) == 16
        # each case's scores line, then its recommend line
        names = [line for name in cases for line in (name, f"{name}/recommend")]
        assert [line.split()[0] for line in runs[0]] == names
        digests = [line.split()[1] for line in runs[0]]
        assert all(len(d) == 64 and set(d) <= set("0123456789abcdef") for d in digests)
        # with and without a neighbourhood cut, the scores and the lists differ
        assert len(set(digests)) == len(digests)


class TestTrainDigest:
    def test_prints_one_stable_digest_per_case(self, capsys, monkeypatch):
        train_digest = load_tool("train_digest")
        monkeypatch.setattr(sys, "path", sys.path[:])  # main puts SRC in front
        runs = []
        for _ in range(2):
            assert train_digest.main([str(TOOLS.parent / "src")]) == 0
            runs.append(capsys.readouterr().out.splitlines())
        assert runs[0] == runs[1]
        optimizers = ("sgd", "momentum", "adaptive")
        names = (
            [f"funk-{opt}-{variant}" for opt in optimizers
             for variant in ("all", "all-simultaneous", "sequential",
                             "sequential-simultaneous")]
            + [f"svdpp-{opt}{frozen}" for opt in optimizers for frozen in ("", "-freeze_y")]
            + [f"{algo}-{opt}-{loss}-{batch}" for algo in ("fm", "ffm") for opt in optimizers
               for loss in ("squared", "logistic") for batch in ("from_codes", "pack")]
            + ["negative_sample", "negative_sample-capped"]
            + [f"{algo}-diverges" for algo in ("funk", "svdpp", "fm", "ffm")]
        )
        assert [line.split()[0] for line in runs[0]] == names
        digests = dict(line.split() for line in runs[0])
        assert all(len(d) == 64 and set(d) <= set("0123456789abcdef") for d in digests.values())
        # every case that trains or samples digests its own trajectory; a
        # diverging case digests only its epoch, which two trainers may share
        trained = [d for name, d in digests.items() if not name.endswith("-diverges")]
        assert len(set(trained)) == len(trained)


class TestTracer:
    def test_install_replaces_every_patched_name_and_uninstall_restores_it(self):
        # a patched name that is deleted or renamed in src fails install
        tracer = load_tool("tracer", TOOLS.parent / "perfbench").Tracer()
        try:
            tracer.install()
            patched = list(tracer._undo)
            assert len(patched) >= 30
            for owner, attr, original in patched:
                assert getattr(owner, attr) is not original, (owner, attr)
        finally:
            tracer.uninstall()
        for owner, attr, original in patched:
            assert getattr(owner, attr) is original, (owner, attr)
