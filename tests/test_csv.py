"""The block-wise CSV writer against the serial ``repr`` writer it replaced, byte for byte."""

import errno
import json
import math
import os
import subprocess
import sys

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dirac_qca import cli

B = cli.CSV_BLOCK_ROWS
SPECIALS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308 / 3, 1e-30, -1.5, 1e300]
SMALL_B = 7  # a block size that puts block edges inside small tables
CSV_ROWS = cli._csv_rows  # the real block formatter, for the failure tests that replace it


def reference_csv(header, columns) -> bytes:
    """Oracle: the serial two-line body of ``cli._write_csv`` before large tables were split."""
    cells = [map(repr, np.asarray(column, dtype=float).tolist()) for column in columns]
    return ("\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n").encode("utf-8")


def written(tmp_path, header, columns) -> bytes:
    path = tmp_path / "table.csv"
    cli._write_csv(str(path), header, columns)
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]  # no .tmp left behind
    return path.read_bytes()


def density_columns(rows, seed=0):
    rng = np.random.default_rng(seed)
    density = rng.random(rows) * 10.0 ** rng.integers(-32, 1, rows)
    density[: len(SPECIALS)] = SPECIALS[:rows]
    return np.arange(rows), density


@pytest.mark.parametrize("rows", [1, 4 * B - 1, 4 * B, 4 * B + 1, 12 * B + 5, 65536])
def test_row_counts_match_serial_writer(tmp_path, rows):
    columns = density_columns(rows)
    assert written(tmp_path, ["x", "density"], columns) == reference_csv(["x", "density"], columns)


@pytest.mark.parametrize("rows", [0, 1, SMALL_B - 1, SMALL_B, SMALL_B + 1, 3 * SMALL_B + 5])
def test_forced_pool_matches_serial_writer(tmp_path, monkeypatch, rows):
    # named for the worker pool these small tables once forced; now they put block edges at every row count
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", SMALL_B)
    columns = density_columns(rows, seed=rows)
    assert written(tmp_path, ["x", "density"], columns) == reference_csv(["x", "density"], columns)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_blocks_match_serial_writer(tmp_path, monkeypatch, data):
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", SMALL_B)
    rows = data.draw(st.sampled_from([0, 1, SMALL_B - 1, SMALL_B, SMALL_B + 1, 3 * SMALL_B + 5]))
    width = data.draw(st.integers(1, 6))
    # st.floats() draws nan, +-inf, signed zeros and subnormals as well
    columns = [data.draw(st.lists(st.floats(), min_size=rows, max_size=rows)) for _ in range(width)]
    header = [f"c{i}" for i in range(width)]
    assert written(tmp_path, header, columns) == reference_csv(header, columns)


def test_powers_of_ten_and_the_fixed_point_band(tmp_path):
    powers = 10.0 ** np.arange(-323, 309)
    neighbours = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, math.inf)])
    band = np.concatenate([np.geomspace(1e-5, np.nextafter(1e-4, 0.0), 4001), [1.5e-5, 2e-5, 9.99e-5]])
    tails = [10.00001, 100.000015, 1.00001, 1e-6, 1.5e-7, 1e15, 1e16, 9999999999999998.0]  # no band number
    values = np.concatenate([neighbours, band, tails])
    columns = [values, -values[::-1]]
    assert written(tmp_path, ["a", "b"], columns) == reference_csv(["a", "b"], columns)


# the values at the gate's thresholds and at orjson's spelling changes, each with its two nextafter neighbours
EDGES = np.array([1e-10, 1e-9, 1e-5, 1e-4, 1e15, 1e16])
EDGE_VALUES = np.concatenate([np.nextafter(EDGES, 0.0), EDGES, np.nextafter(EDGES, math.inf)])
EDGE_VALUES = np.concatenate([EDGE_VALUES, -EDGE_VALUES])


@pytest.mark.parametrize("width", [1, 2, 3])
@pytest.mark.parametrize("cell", ["first", "middle", "last"])
def test_gate_edges(tmp_path, monkeypatch, width, cell):
    # one edge value per block, amid cells that open no gate, at the block's first, middle or last cell
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", SMALL_B)
    cells = SMALL_B * width
    blocks = np.full((len(EDGE_VALUES), cells), 0.5)
    blocks[:, {"first": 0, "middle": cells // 2, "last": cells - 1}[cell]] = EDGE_VALUES
    table = blocks.reshape(-1, width)
    columns, header = list(table.T), [f"c{i}" for i in range(width)]
    assert written(tmp_path, header, columns) == reference_csv(header, columns)


def test_band_value_after_nan(tmp_path, monkeypatch):
    # orjson writes nan as null, so a band value follows "null,": at a block's start, inside a row and across rows
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", SMALL_B)
    values = np.full(2 * 2 * SMALL_B, 0.5)
    values[[0, 5, 2 * SMALL_B, 2 * SMALL_B + 8]] = math.nan
    values[[1, 6, 2 * SMALL_B + 1, 2 * SMALL_B + 9]] = [1.5e-5, -2e-5, 9.99e-5, -1.0000000000000001e-05]
    columns = [values[0::2], values[1::2]]
    assert written(tmp_path, ["a", "b"], columns) == reference_csv(["a", "b"], columns)


class _CountingPattern:
    """Stands in for a compiled pattern and keeps the text of each ``sub`` call."""

    def __init__(self, pattern):
        self.pattern, self.texts = pattern, []

    def sub(self, repl, text):
        self.texts.append(text)
        return self.pattern.sub(repl, text)


def test_blocks_without_gated_values_run_no_regex(tmp_path, monkeypatch):
    names = ["_POSITIVE_EXPONENT", "_ONE_DIGIT_EXPONENT", "_FIXED_POINT_BAND"]
    counters = {name: _CountingPattern(getattr(cli, name)) for name in names}
    for name, counter in counters.items():
        monkeypatch.setattr(cli, name, counter)
    rng = np.random.default_rng(18)
    columns = [rng.random(65536) * 1e-10, -rng.random(65536) * 1e-10]  # every |x| below 1e-10
    columns[0][0] = 0.0
    assert written(tmp_path, ["a", "b"], columns) == reference_csv(["a", "b"], columns)
    assert [len(counters[name].texts) for name in names] == [0, 0, 0]
    columns[1][40000] = 1.5e-7
    assert written(tmp_path, ["a", "b"], columns) == reference_csv(["a", "b"], columns)
    assert [len(counters[name].texts) for name in names] == [0, 1, 1]
    block = np.column_stack(columns)[40000 // B * B :][:B].ravel()  # the one block that holds 1.5e-7
    assert counters["_ONE_DIGIT_EXPONENT"].texts == [orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)]
    assert b"1.5e-07" in counters["_FIXED_POINT_BAND"].texts[0]


@pytest.mark.parametrize("small_blocks", [False, True])
def test_special_values_and_column_types(tmp_path, monkeypatch, small_blocks):
    if small_blocks:
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", SMALL_B)
    rows = 3 * SMALL_B + 5
    values = np.resize(np.array(SPECIALS), rows)
    columns = [
        values,  # signed zeros, nan, +-inf, subnormals
        np.arange(-3, rows - 3),  # an int array
        tuple(float(v) for v in values[::-1]),  # Python floats in a tuple, as compare passes them
        list(range(rows)),  # a list of Python ints
    ]
    header = ["a", "b", "c", "d"]
    assert written(tmp_path, header, columns) == reference_csv(header, columns)


def _failing_chunk(table):
    """Fails before the first row is formatted."""
    raise OSError("synthetic failure before the first block")
    yield


def _dying_chunk(table):
    """Dies part way: one block is written, then the disk is full."""
    yield next(CSV_ROWS(table))
    raise OSError(errno.ENOSPC, "synthetic full disk after the first block")


@pytest.mark.parametrize("chunk", [_failing_chunk, _dying_chunk])
def test_worker_failure_is_exit_1_and_writes_nothing(tmp_path, capsys, monkeypatch, chunk):
    # named for the worker processes that once formatted the chunks; a failure in the stream stands for them
    out = tmp_path / "out"
    argv = ["evolve", "--preset", "fig2", "--times", "10", "--out-dir", str(out)]
    assert cli.main(argv) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", SMALL_B)
    monkeypatch.setattr(cli, "_csv_rows", chunk)
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "io"
    # neither a new CSV, nor a .tmp, nor a new summary: the files of the first run are as they were
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
    monkeypatch.undo()
    # nothing is left broken: the next table is written as usual
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", SMALL_B)
    columns = density_columns(40)
    assert written(tmp_path / "again", ["x", "density"], columns) == reference_csv(["x", "density"], columns)


def _fresh_process(code, *args) -> list:
    """The words ``code`` prints, run in a fresh interpreter: imports belong to the process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_dispersion_tables_never_build_the_pool(tmp_path):
    # tables are formatted in the calling process: no process machinery is loaded
    code = (
        "import sys; from dirac_qca import cli\n"
        "code = cli.main(['dispersion', '--preset', 'fig3', '--samples', '4096', '--svg', '--out-dir', sys.argv[1]])\n"
        "print(code, 'multiprocessing' in sys.modules, 'concurrent.futures' in sys.modules, 'orjson' in sys.modules)\n"
    )
    assert _fresh_process(code, str(tmp_path)) == ["0", "False", "False", "True"]


def test_commands_without_tables_never_import_orjson(tmp_path):
    code = (
        "import sys; from dirac_qca import cli\n"
        "imported = 'orjson' in sys.modules\n"
        "code = cli.main(['discriminate', '--m', '0.3', '--kbar', '0.5', '--solve-tmin', '--out-dir', sys.argv[1]])\n"
        "print(code, imported, 'orjson' in sys.modules)\n"
    )
    assert _fresh_process(code, str(tmp_path)) == ["0", "False", "False"]
