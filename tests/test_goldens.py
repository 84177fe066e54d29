"""Byte identity of every CLI output against the committed record ``tests/goldens.json``.

The record is taken with ``python3 tools/goldens.py --out tests/goldens.json``
and holds the Python, numpy and orjson versions and numpy's CPU dispatch level
it was taken under: outputs are byte-identical only on one platform and
dispatch level.  A different version or level fails the test and names both
sets: recording again is a deliberate act, in the change that moves an output.
"""

import importlib.util
import json
import os
from pathlib import Path
from xml.etree import ElementTree

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _goldens_tool():
    spec = importlib.util.spec_from_file_location("goldens", ROOT / "tools" / "goldens.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _recorded():
    with open(ROOT / "tests" / "goldens.json", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    """The directory of every output the record covers, written once for all the tests that read them."""
    dest = tmp_path_factory.mktemp("goldens")
    _goldens_tool().emit(ROOT, dest)
    return dest


def test_outputs_match_recorded_goldens(emitted):
    tool = _goldens_tool()
    differences = tool.compare(tool.hashes(emitted), _recorded())
    assert not differences, "outputs differ from tests/goldens.json:\n" + "\n".join(differences)


def test_every_emitted_svg_parses(emitted):
    # the four scripts' plots and every workload job's: each is well-formed XML with an SVG root
    svgs = sorted(path.relative_to(emitted).as_posix() for path in emitted.rglob("*.svg"))
    assert svgs == sorted(name for name in _recorded()["files"] if name.endswith(".svg"))
    assert any(name.startswith("scripts/") for name in svgs) and any(name.startswith("jobs/") for name in svgs)
    for name in svgs:
        assert ElementTree.parse(emitted / name).getroot().tag == "{http://www.w3.org/2000/svg}svg", name


def test_comparison_names_versions_and_every_file():
    tool = _goldens_tool()
    versions = {"python": "3.0.0", "numpy": "1.0", "orjson": "3.8.3", "dispatch": "X86_V4"}
    base = {"versions": versions, "files": {"a": "1", "b": "2", "c": "3"}}
    current = {"versions": {**versions, "numpy": "2.0"}, "files": {"a": "1", "b": "9", "d": "4"}}
    lines = tool.compare(current, base)
    assert len(lines) == 4
    assert "'numpy': '1.0'" in lines[0] and "'numpy': '2.0'" in lines[0]
    assert lines[1:] == ["differs  b", "missing  c", "extra    d"]
    assert tool.compare(base, base) == []
    (line,) = tool.compare({"versions": {**versions, "dispatch": "X86_V3"}, "files": base["files"]}, base)
    assert "'dispatch': 'X86_V4'" in line and "'dispatch': 'X86_V3'" in line


def test_value_diff_names_ulps_and_peak_share(tmp_path):
    tool = _goldens_tool()
    base, current = tmp_path / "base", tmp_path / "current"
    files = {
        "a.csv": ("x,y\n1.0,2.0\n3.0,0.5\n", "x,y\n1.0,2.0\n3.0,0.5000000000000001\n"),  # one ulp in column y
        "b.json": ('{"t": 4.0, "n": 1}', '{"t": 4.000000000000002, "n": 1}'),  # two ulp of the file's peak 4
        "c.json": ('{"t": 1.0}', '{"t": 1}'),  # same value, respelled
        "d.svg": ("<a>1</a>", "<b>1</b>"),
        "e.json": ("{}", "{}"),
        "f.json": ('{"g": 0.0, "t": 2.0}', '{"g": 3e-21, "t": 2.0000000000000004}'),  # g leaves 0, t moves 1 ulp
        "g.json": ('{"g": 0.0, "p": 1e-30, "t": 1.0}', '{"g": 3e-21, "p": 0.0, "t": 1.0}'),  # g leaves 0, p reaches it
        "gone.csv": ("k\n1\n", None),
        "new.csv": (None, "k\n1\n"),
    }
    for name, (old, new) in files.items():
        for root, text in ((base, old), (current, new)):
            if text is not None:
                root.mkdir(exist_ok=True)
                (root / name).write_text(text)
    assert tool.value_diff(base, current) == [
        "differs  a.csv: max 1 ulp, 5.55e-17 of the peak",
        "differs  b.json: max 2 ulp, 4.44e-16 of the peak",
        "differs  c.json: 0 ulp (same values, spelled differently)",
        "differs  d.svg: text differs beyond its numbers",
        "differs  f.json: max 1 ulp, 1 value left 0, 2.22e-16 of the peak",
        "differs  g.json: 1 value left 0, 1 value reached 0, 3e-21 of the peak",
        "missing  gone.csv",
        "extra    new.csv",
    ]


def test_base_env_reaches_the_base_interpreter_alone(monkeypatch, tmp_path, capsys):
    tool = _goldens_tool()
    runs = []

    def fake_run(command, **kwargs):
        runs.append((command, kwargs.get("env")))
        Path(command[4]).mkdir(parents=True)  # argv: python, -c, code, root, dest, tools

    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    features = "X86_V4 AVX512_ICL AVX512_SPR"
    code = tool.main(["--diff", str(tmp_path), "--base-env", f"NPY_DISABLE_CPU_FEATURES={features}", "--base-env", "A="])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"0 files differ from {tmp_path}'s"
    (base_command, base_env), (current_command, current_env) = runs
    assert base_command[3] == str(tmp_path.resolve()) and current_command[3] == str(tool.ROOT)
    assert base_env == dict(os.environ, NPY_DISABLE_CPU_FEATURES=features, A="")
    assert current_env is None  # this checkout's side runs under the caller's own environment

    runs.clear()
    assert tool.main(["--diff", str(tmp_path)]) == 0
    assert [env for _, env in runs] == [None, None]


@pytest.mark.parametrize("argv", [["--diff", ".", "--base-env", "NOEQUALS"], ["--diff", ".", "--base-env", "=1"],
                                  ["--compare", "x.json", "--base-env", "A=1"]])
def test_base_env_needs_an_assignment_and_diff(argv):
    with pytest.raises(SystemExit) as stopped:
        _goldens_tool().main(argv)
    assert stopped.value.code == 2
