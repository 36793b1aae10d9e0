"""The paired-benchmark script's report lines, on synthetic batches."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _side(**metrics):
    return {"result_line": {"metrics": {
        name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
    }}}


def test_layer_lines_compare_both_traced_sides():
    traced = {
        "montecarlo": {
            "seed": 3,
            "parent": _side(**{"fastpath.busy_s": (0.5, "s"), "engine.steps": (100, "count"),
                               "board.cells_reanchored": (0, "count"),
                               "scenario.pava_solves": (0, "count")}),
            "change": _side(**{"fastpath.busy_s": (0.4, "s"), "engine.steps": (100, "count"),
                               "board.cells_reanchored": (0, "count"),
                               "scenario.pava_solves": (24, "count"),
                               "metrics.busy_s": (0.08, "s")}),
        },
        "long_window": {
            "seed": 3,
            "parent": _side(**{"fastpath.windows": (2, "count")}),
            "change": _side(**{"fastpath.windows": (3, "count")}),
        },
    }
    assert bench_pairs.layer_lines(traced) == [
        "montecarlo traced fastpath.busy_s (s): parent 0.5 change 0.4 (-20.0%)",
        "montecarlo traced engine.steps (count): parent 100 change 100 (+0.0%)",
        "montecarlo traced board.cells_reanchored (count): parent 0 change 0 (+0.0%)",
        "montecarlo traced scenario.pava_solves (count): parent 0 change 24 (n/a)",
        "montecarlo traced metrics.busy_s (s): parent - change 0.08 (n/a)",
        "long_window traced fastpath.windows (count): parent 2 change 3 (+50.0%)",
    ]
    assert bench_pairs.layer_lines({}) == []


def test_src_lines_count_each_module_of_both_sides(tmp_path):
    files = {
        "parent": {"engine.py": "a\nb\nc\n", "_fastpath.py": "x\n" * 5, "gone.py": "y\n"},
        "change": {"engine.py": "a\nb\n", "_fastpath.py": "x\n" * 5, "new.py": ""},
    }
    counts = {}
    for side, modules in files.items():
        package = tmp_path / side / "src" / "tacosim"
        package.mkdir(parents=True)
        (package / "notes.txt").write_text("not a module\n")
        for name, text in modules.items():
            (package / name).write_text(text)
        counts[side] = bench_pairs.src_lines(tmp_path / side)
    assert counts["parent"] == {
        "total": 9, "modules": {"_fastpath.py": 5, "engine.py": 3, "gone.py": 1}
    }
    assert counts["change"] == {
        "total": 7, "modules": {"_fastpath.py": 5, "engine.py": 2, "new.py": 0}
    }
    assert bench_pairs.src_line_lines(counts["parent"], counts["change"]) == [
        "src/tacosim lines: parent 9 change 7 (-2)",
        "src/tacosim/_fastpath.py lines: parent 5 change 5 (+0)",
        "src/tacosim/engine.py lines: parent 3 change 2 (-1)",
        "src/tacosim/gone.py lines: parent 1 change - (-1)",
        "src/tacosim/new.py lines: parent - change 0 (+0)",
    ]


def test_src_tokens_count_each_module_of_both_sides(tmp_path):
    files = {
        "parent": {"engine.py": "x = 1\n", "gone.py": "# only a comment\n"},
        "change": {"engine.py": "x = (1, 2)\ny = x\n", "new.py": ""},
    }
    counts = {}
    for side, modules in files.items():
        package = tmp_path / side / "src" / "tacosim"
        package.mkdir(parents=True)
        (package / "notes.txt").write_text("not a module\n")
        for name, text in modules.items():
            (package / name).write_text(text)
        counts[side] = bench_pairs.src_tokens(tmp_path / side)
    # ENCODING, the tokens of each line with its NEWLINE (NL after a comment), ENDMARKER.
    assert counts["parent"] == {"max": 6, "modules": {"engine.py": 6, "gone.py": 4}}
    assert counts["change"] == {"max": 14, "modules": {"engine.py": 14, "new.py": 2}}
    assert bench_pairs.src_token_lines(counts["parent"], counts["change"]) == [
        "src/tacosim largest module tokens: parent 6 change 14 (+8)",
        "src/tacosim/engine.py tokens: parent 6 change 14 (+8)",
        "src/tacosim/gone.py tokens: parent 4 change - (-4)",
        "src/tacosim/new.py tokens: parent - change 2 (+2)",
    ]
    # The repository's own modules, as the batch records them.
    repo = bench_pairs.src_tokens(Path(__file__).resolve().parents[1])
    assert repo["max"] == max(repo["modules"].values()) and "engine.py" in repo["modules"]
    # Past about 4,090 tokens CPython 3.11's parser grows a buffer for the
    # module, which raises every workload's peak RSS when compiled from source.
    assert repo["max"] < 4000, repo["modules"]
