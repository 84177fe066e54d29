"""The chunked CSV writer against the serial writer it grew from, byte for byte."""

import json
import math
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import shutdown_csv_pool
from dirac_qca import cli

C = cli.CSV_CHUNK_ROWS
SPECIALS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308 / 3, 1e-30, -1.5, 1e300]


def reference_csv(header, columns) -> bytes:
    """Oracle: the serial two-line body of ``cli._write_csv`` before large tables were chunked."""
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


@pytest.fixture
def forced_pool(monkeypatch):
    """Chunks of 7 rows on a pool of at least two workers, whatever the machine."""
    monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 7)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)


def _failing_chunk(columns):
    raise ValueError("synthetic worker failure")


def _dying_chunk(columns):
    os._exit(3)


@pytest.mark.parametrize("rows", [1, C - 1, C, C + 1, 3 * C + 5, 65536])
def test_row_counts_match_serial_writer(tmp_path, rows):
    columns = density_columns(rows)
    assert written(tmp_path, ["x", "density"], columns) == reference_csv(["x", "density"], columns)
    if rows > C and cli._usable_cpus() >= 2:
        assert cli._csv_pool.cache_info().currsize == 1


@pytest.mark.parametrize("rows", [0, 1, 6, 7, 8, 3 * 7 + 5])
def test_forced_pool_matches_serial_writer(tmp_path, forced_pool, rows):
    columns = density_columns(rows, seed=rows)
    assert written(tmp_path, ["x", "density"], columns) == reference_csv(["x", "density"], columns)


@pytest.mark.parametrize("chunked", [False, True])
def test_special_values_and_column_types(tmp_path, monkeypatch, chunked):
    if chunked:
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 7)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    rows = 3 * 7 + 5
    values = np.resize(np.array(SPECIALS), rows)
    columns = [
        values,  # signed zeros, nan, +-inf, subnormals
        np.arange(-3, rows - 3),  # an int array
        tuple(float(v) for v in values[::-1]),  # Python floats in a tuple, as compare passes them
        list(range(rows)),  # a list of Python ints
    ]
    header = ["a", "b", "c", "d"]
    assert written(tmp_path, header, columns) == reference_csv(header, columns)


def test_dispersion_tables_never_build_the_pool(tmp_path):
    # run in a fresh process: the pool and its imports belong to the process
    code = (
        "import sys; from dirac_qca import cli\n"
        "code = cli.main(['dispersion', '--preset', 'fig3', '--samples', '4096', '--svg', '--out-dir', sys.argv[1]])\n"
        "print(code, cli._csv_pool.cache_info().currsize, 'multiprocessing' in sys.modules,"
        " 'concurrent.futures' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True, text=True)
    assert done.stdout.split() == ["0", "0", "False", "False"], done.stderr


@pytest.mark.parametrize("chunk", [_failing_chunk, _dying_chunk])
def test_worker_failure_is_exit_1_and_writes_nothing(tmp_path, capsys, monkeypatch, forced_pool, chunk):
    monkeypatch.setattr(cli, "_csv_chunk", chunk)
    out = tmp_path / "out"
    assert cli.main(["evolve", "--preset", "fig2", "--times", "10", "--out-dir", str(out)]) == 1
    record = json.loads(capsys.readouterr().out)
    assert record["error"]["type"] == "io"
    assert "worker" in record["error"]["message"]
    assert list(out.iterdir()) == []  # neither the CSV, nor a .tmp, nor the summary
    monkeypatch.undo()
    # a broken pool is replaced: the next large table is written as usual
    monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 7)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    columns = density_columns(40)
    assert written(tmp_path / "again", ["x", "density"], columns) == reference_csv(["x", "density"], columns)


def test_shutdown_leaves_no_worker_processes(tmp_path, forced_pool):
    written(tmp_path, ["x", "density"], density_columns(20))
    assert cli._csv_pool.cache_info().currsize == 1
    shutdown_csv_pool()
    assert cli._csv_pool.cache_info().currsize == 0
    assert multiprocessing.active_children() == []
