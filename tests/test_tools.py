"""Tests for the repository tools under tools/."""

import base64
import dataclasses
import importlib.util
import json
import sys
import zlib
from pathlib import Path

from latentrec.cli import main
from tests.conftest import FOUR_BY_FOUR_CSV, compact, model_bytes, model_doc

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

    def test_base_prints_one_table_of_base_head_and_difference(self, tmp_path, capsys):
        count_lines = load_tool("count_lines")
        base, head = tmp_path / "base", tmp_path / "head"
        for tree, files in ((base, {"a.py": SOURCE, "gone.py": "x = 1\n"}),
                            (head, {"a.py": "x = 1\n", "pkg/new.py": "y = 2\nz = 3\n"})):
            for name, text in files.items():
                (tree / name).parent.mkdir(parents=True, exist_ok=True)
                (tree / name).write_text(text)
        assert count_lines.main(["--base", str(base), str(head)]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert rows == [["base", "head", "diff", "module"],
                        ["7", "1", "-6", "a.py"],
                        ["1", "0", "-1", "gone.py"],
                        ["0", "2", "+2", "pkg/new.py"],
                        ["8", "3", "-5", "total"]]


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
        assert lines[0] == f"{blend}: {blend.stat().st_size} bytes on disk"
        rows = {line.split()[0] if not line.startswith("  member") else
                " ".join(line.split()[:3]): [int(n) for n in line.split()[-2:]]
                for line in lines[2:]}
        doc = model_doc(blend)
        members = doc["ensemble"]["members"]
        # funk's rated lists and fm's observed lists hold the same items in
        # the same order, so the lists table has one entry
        assert set(rows) == {
            "algorithm", "created", "format_version", "library", "scale",
            "user_tokens.shared", "user_tokens.suffixes", "item_tokens.shared",
            "item_tokens.suffixes", "lists[0].gaps", "lists[0].lengths",
            "ensemble.intercept", "ensemble.kind", "ensemble.weights", "document",
            *(f"member {n} parameters.{key}" for n, member in enumerate(members)
              for key in member["parameters"])}
        # raw is the section's compact JSON, or a block's bytes after the
        # header line; deflated is a raw deflate stream of it
        for name, section in (
                ("item_tokens.suffixes", compact(doc["item_tokens"]["suffixes"])),
                ("lists[0].gaps", base64.b64decode(doc["lists"][0]["gaps"]["data"])),
                ("member 1 parameters.v",
                 base64.b64decode(members[1]["parameters"]["v"]["data"]))):
            assert rows[name] == [len(section), len(zlib.compress(section, 6)) - 6], name
        assert rows["member 1 parameters.v"][0] == 8 * 10 * 2
        assert rows["document"][0] == len(model_bytes(blend))
        # the file is the deflated document plus a gzip header and trailer
        assert blend.stat().st_size == rows["document"][1] + 18

    def test_format_11_file_shows_each_lists_block_and_token_part(self, tmp_path, capsys):
        # a bag's members are trained on their own resamples, so each names
        # its own lists entry, whose lengths and gaps are int blocks; a
        # version 10 block is base64 text in the JSON document, a version 9
        # entry holds JSON lists, and a version 8 file keeps each list in
        # its block
        model_sizes = load_tool("model_sizes")
        ratings = tmp_path / "ratings.csv"
        ratings.write_text(FOUR_BY_FOUR_CSV)
        bag = tmp_path / "bag"
        assert main(["ensemble", "bag", "--algo", "funk", "--members", "3", "--input",
                     str(ratings), "--output", str(bag), "--epochs", "2"]) == 0
        fixtures = Path(__file__).resolve().parent / "fixtures"
        v10, v9, v8 = (fixtures / f"format{n}_blend.json" for n in (10, 9, 8))
        capsys.readouterr()
        assert model_sizes.main([str(bag), str(v10), str(v9), str(v8)]) == 0
        out = capsys.readouterr().out
        for path in (v9, v8):
            out = out.replace(f"{path}: ", f"{v10}: ")
        bag_lines, v10_lines, v9_lines, v8_lines = (part.splitlines()
                                                    for part in out.split(f"{v10}: "))
        doc = model_doc(bag)
        assert doc["format_version"] == 11 and len(doc["lists"]) == 3
        shapes = {line.split()[0]: line.split()[1] for line in bag_lines[2:]}
        assert [name for name in shapes if name.startswith(("lists", "user_tokens"))] == [
            *(f"lists[{n}].{part}" for n in range(3) for part in ("gaps", "lengths")),
            "user_tokens.shared", "user_tokens.suffixes"]
        # 4 users of 2 or 3 ratings, items 0 to 3: every value fits "<i1"
        assert shapes["lists[0].lengths"] == "[4]<i1"
        assert shapes["lists[2].gaps"] == f"[{doc['lists'][2]['gaps']['shape'][0]}]<i1"
        rows = {line.split()[0]: [int(n) for n in line.split()[-2:]] for line in bag_lines[2:]}
        for name, section in (
                ("lists[2].gaps", base64.b64decode(doc["lists"][2]["gaps"]["data"])),
                ("item_tokens.suffixes", compact(doc["item_tokens"]["suffixes"]))):
            assert rows[name] == [len(section), len(zlib.compress(section, 6)) - 6]
        # a version 10 block's raw size is its JSON text, base64 included
        old = json.loads(model_bytes(v10))
        v10_rows = {line.split()[0]: (line.split()[1], int(line.split()[-2]))
                    for line in v10_lines[2:]}
        block = old["lists"][0]["gaps"]
        assert v10_rows["lists[0].gaps"] == (f"[{block['shape'][0]}]<i1", len(compact(block)))
        v9_shapes = {line.split()[0]: line.split()[1] for line in v9_lines[2:]}
        assert v9_shapes["lists[0].gaps"] == v9_shapes["lists[0].lengths"] == "-"
        v8_names = [line.split()[0] for line in v8_lines[2:]]
        assert "user_tokens" in v8_names and not any(
            name.startswith(("lists", "user_tokens.")) for name in v8_names)

    def test_version_6_file_shows_the_encoder_of_each_machine(self, capsys):
        # files from version 7 store no encoder; earlier ones still show it
        path = Path(__file__).resolve().parent / "fixtures" / "format6_blend.json"
        assert load_tool("model_sizes").main([str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:3] for line in lines if "encoder" in line] == \
            [["member", "4", "encoder"], ["member", "5", "encoder"]]

    def test_ffm_v_shows_the_shape_each_format_stores(self, tmp_path, capsys):
        # from format 8 an ffm v is its (dimension, k) cross-field table;
        # format 6 stored the whole (dimension, 2, k) V
        model_sizes = load_tool("model_sizes")
        ratings = tmp_path / "ratings.csv"
        ratings.write_text(FOUR_BY_FOUR_CSV)
        ffm = tmp_path / "ffm"
        assert main(["train", "--algo", "ffm", "--input", str(ratings), "--output", str(ffm),
                     "--epochs", "2", "--factors", "3"]) == 0
        old = Path(__file__).resolve().parent / "fixtures" / "format6_blend.json"
        capsys.readouterr()
        assert model_sizes.main([str(ffm), str(old)]) == 0
        lines = capsys.readouterr().out.splitlines()
        shapes = {" ".join(line.split()[:-3]): line.split()[-3] for line in lines
                  if line.startswith("  ")}
        assert model_doc(ffm)["format_version"] == 11
        # 4 users and 4 items, each block with its reserved slot
        assert shapes["parameters.v"] == "[10,3]<f8"
        assert shapes["parameters.w"] == "[10]<f8"
        assert shapes["parameters.k"] == "-"
        assert shapes["member 5 parameters.v"] == "[10,2,2]<f8"
        assert shapes["member 4 parameters.v"] == "[10,2]<f8"

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
            [name for name, _ in score_digest.BLENDS + score_digest.DENSE]
        assert len(cases) == 21
        # each case's scores line, then its recommend line and its file's
        # byte count
        names = [line for name in cases
                 for line in (name, f"{name}/recommend", f"{name}/bytes")]
        assert [line.split()[0] for line in runs[0]] == names
        lines = dict(line.split() for line in runs[0])
        # a dense rebuild scores and ranks as its case, from another file
        for name, case in score_digest.DENSE:
            assert lines.pop(name) == lines[case]
            assert lines.pop(f"{name}/recommend") == lines[f"{case}/recommend"]
            assert lines[f"{name}/bytes"] != lines[f"{case}/bytes"]
        digests = [d for name, d in lines.items() if not name.endswith("/bytes")]
        assert all(len(d) == 64 and set(d) <= set("0123456789abcdef") for d in digests)
        # with and without a neighbourhood cut, the scores and the lists differ
        assert len(set(digests)) == len(digests)
        counts = [int(line.split()[1]) for line in runs[0] if line.split()[0].endswith("/bytes")]
        assert len(counts) == len(cases) and all(count > 18 for count in counts)

    def test_byte_count_is_the_file_saved_with_a_fixed_creation_time(self, tmp_path,
                                                                      monkeypatch):
        # two saves of one model in different seconds count the same bytes
        score_digest = load_tool("score_digest")
        monkeypatch.setattr(sys, "path", sys.path[:])
        monkeypatch.setattr(score_digest, "CASES", score_digest.CASES[4:5])  # funk
        monkeypatch.setattr(score_digest, "BLENDS", ())
        monkeypatch.setattr(score_digest, "DENSE", ())
        lines = score_digest.digests(tmp_path)
        assert [name for name, _ in lines] == ["funk", "funk/recommend", "funk/bytes"]
        from latentrec.persist import load_model, save_model
        bundle = load_model(tmp_path / "funk.json")
        assert bundle.created != score_digest.CREATED
        again = save_model(dataclasses.replace(bundle, created=score_digest.CREATED),
                           tmp_path / "again.json")
        assert lines[2][1] == str(again.stat().st_size)


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
