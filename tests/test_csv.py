"""The block-wise CSV writer against a value oracle: each cell is its double's shortest round-trip decimal.

The cells are in orjson's spelling (``1.5e-7``, ``1e16``, ``0.000015``), so the
oracle compares values and digit counts with ``repr``, not bytes.
"""

import errno
import json
import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dirac_qca import cli, derivatives, dirac_omega, evolve_momentum, inverse_transform, omega

B = cli.CSV_BLOCK_ROWS
SPECIALS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308 / 3, 1e-30, -1.5, 1e300]
SMALL_B = 7  # a block size that puts block edges inside small tables
CSV_ROWS = cli._csv_rows  # the real block formatter, for the failure tests that replace it


def significant_digits(cell: str) -> str:
    """The significant digits of a decimal spelling: "15" for 1.5e-05, 1.5e-5, 0.000015 and -150.0."""
    return cell.lstrip("-").partition("e")[0].replace(".", "").strip("0")


def spells(cell: str, value: float) -> bool:
    """Whether ``cell`` is ``value`` in as few significant digits as ``repr``; nan and +-inf as ``repr`` writes them."""
    if not math.isfinite(value):
        return cell == repr(value)
    same_bits = struct.pack("<d", float(cell)) == struct.pack("<d", value)  # keeps -0.0 and subnormals apart
    return same_bits and significant_digits(cell) == significant_digits(repr(value))


def assert_csv_of(data: bytes, header, columns):
    """Oracle: ``data`` is the header line, then one "\n"-ended row per entry of ``columns``, each cell ``spells`` its value."""
    values = np.column_stack([np.asarray(column, dtype=float) for column in columns])
    lines = data.decode("ascii").split("\n")
    assert lines[0] == ",".join(header) and lines[-1] == ""
    rows = [line.split(",") for line in lines[1:-1]]
    assert [len(row) for row in rows] == [len(header)] * len(values)
    cells = [cell for row in rows for cell in row]
    assert [(c, v) for c, v in zip(cells, values.ravel().tolist()) if not spells(c, v)] == []


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
    # named for the serial writer that was once the byte oracle; assert_csv_of now checks each cell's value
    columns = density_columns(rows)
    assert_csv_of(written(tmp_path, ["x", "density"], columns), ["x", "density"], columns)


@pytest.mark.parametrize("rows", [0, 1, SMALL_B - 1, SMALL_B, SMALL_B + 1, 3 * SMALL_B + 5])
def test_forced_pool_matches_serial_writer(tmp_path, monkeypatch, rows):
    # named for the worker pool these small tables once forced; now they put block edges at every row count
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", SMALL_B)
    columns = density_columns(rows, seed=rows)
    assert_csv_of(written(tmp_path, ["x", "density"], columns), ["x", "density"], columns)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_blocks_match_serial_writer(tmp_path, monkeypatch, data):
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", SMALL_B)
    rows = data.draw(st.sampled_from([0, 1, SMALL_B - 1, SMALL_B, SMALL_B + 1, 3 * SMALL_B + 5]))
    width = data.draw(st.integers(1, 6))
    # st.floats() draws nan, +-inf, signed zeros and subnormals as well
    columns = [data.draw(st.lists(st.floats(), min_size=rows, max_size=rows)) for _ in range(width)]
    header = [f"c{i}" for i in range(width)]
    assert_csv_of(written(tmp_path, header, columns), header, columns)


def test_powers_of_ten_and_the_fixed_point_band(tmp_path):
    powers = 10.0 ** np.arange(-323, 309)
    neighbours = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, math.inf)])
    band = np.concatenate([np.geomspace(1e-5, np.nextafter(1e-4, 0.0), 4001), [1.5e-5, 2e-5, 9.99e-5]])
    tails = [10.00001, 100.000015, 1.00001, 1e-6, 1.5e-7, 1e15, 1e16, 9999999999999998.0]  # band digits inside larger numbers
    values = np.concatenate([neighbours, band, tails])
    columns = [values, -values[::-1]]
    assert_csv_of(written(tmp_path, ["a", "b"], columns), ["a", "b"], columns)


# where orjson's spelling changes (a one-digit exponent from 1e-9, fixed point in [1e-5, 1e-4), a positive
# exponent from 1e16) and a decade beyond (1e-10, 1e15), each with its two nextafter neighbours
EDGES = np.array([1e-10, 1e-9, 1e-5, 1e-4, 1e15, 1e16])
EDGE_VALUES = np.concatenate([np.nextafter(EDGES, 0.0), EDGES, np.nextafter(EDGES, math.inf)])
EDGE_VALUES = np.concatenate([EDGE_VALUES, -EDGE_VALUES])


@pytest.mark.parametrize("width", [1, 2, 3])
@pytest.mark.parametrize("cell", ["first", "middle", "last"])
def test_gate_edges(tmp_path, monkeypatch, width, cell):
    # one edge value per block, amid plain cells, at the block's first, middle or last cell
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", SMALL_B)
    cells = SMALL_B * width
    blocks = np.full((len(EDGE_VALUES), cells), 0.5)
    blocks[:, {"first": 0, "middle": cells // 2, "last": cells - 1}[cell]] = EDGE_VALUES
    table = blocks.reshape(-1, width)
    columns, header = list(table.T), [f"c{i}" for i in range(width)]
    assert_csv_of(written(tmp_path, header, columns), header, columns)


def test_band_value_after_nan(tmp_path, monkeypatch):
    # orjson writes nan as null, spelled back as nan, so a band value follows "nan,": at a block's start,
    # inside a row and across rows
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", SMALL_B)
    values = np.full(2 * 2 * SMALL_B, 0.5)
    values[[0, 5, 2 * SMALL_B, 2 * SMALL_B + 8]] = math.nan
    values[[1, 6, 2 * SMALL_B + 1, 2 * SMALL_B + 9]] = [1.5e-5, -2e-5, 9.99e-5, -1.0000000000000001e-05]
    columns = [values[0::2], values[1::2]]
    assert_csv_of(written(tmp_path, ["a", "b"], columns), ["a", "b"], columns)


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
    assert_csv_of(written(tmp_path, header, columns), header, columns)


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
    assert_csv_of(written(tmp_path / "again", ["x", "density"], columns), ["x", "density"], columns)


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


def test_dispersion_values_round_trip(tmp_path):
    # an odd sample count puts k = 0 on the grid: the m = 0 cone row, whose derivative cells are nan
    samples = 257
    assert cli.main(["dispersion", "--preset", "fig3", "--samples", str(samples), "--out-dir", str(tmp_path)]) == 0
    ks = np.linspace(-math.pi, math.pi, samples)
    for m in cli.PRESETS["dispersion"]["fig3"]["m"]:
        cone = (ks == 0.0) & (m == 0.0)
        assert cone.sum() == (m == 0.0)
        derivs = np.full((3, samples), math.nan)
        derivs[:, ~cone] = derivatives(ks[~cone], m)
        data = (tmp_path / f"dispersion_m{m:g}.csv").read_bytes()
        columns = [ks, omega(ks, m), dirac_omega(ks, m), *derivs]
        assert_csv_of(data, ["k", "omega", "omega_dirac", "v", "D", "omega3"], columns)


def test_evolve_density_round_trips(tmp_path, fig4_state):
    _, params, _, spectrum = fig4_state
    assert cli.main(["evolve", "--preset", "fig4", "--times", "100", "--out-dir", str(tmp_path)]) == 0
    density = inverse_transform(evolve_momentum(spectrum, params, 100.0)).density()
    data = (tmp_path / "evolve_t100.csv").read_bytes()
    assert_csv_of(data, ["x", "density"], [np.arange(len(density)), density])
