"""The calibration table itself: bands, keys, worlds, and its EXPERIMENTS.md
block.  Nothing here runs a simulation."""

import pathlib
import re

import pytest

from repro.analysis.calibration import ROWS, WORLDS, Band
from repro.core.config import SimulationConfig

EXPERIMENTS = pathlib.Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


@pytest.mark.parametrize("band, value, inside", [
    ("[0.12, 0.32]", 0.12, True),
    ("[0.12, 0.32]", 0.32, True),
    ("(0.12, 0.32)", 0.12, False),
    ("(0.12, 0.32)", 0.32, False),
    ("(0.30, 0.95]", 0.30, False),
    ("(0.30, 0.95]", 0.95, True),
    ("[2.0, 4.5)", 4.5, False),
    ("(0, inf)", 0.0, False),
    ("(0, inf)", 5e-324, True),
    ("[0, inf)", 0.0, True),
    ("(-inf, 0.05)", 0.05, False),
    ("(-inf, 10]", 10, True),
    ("[14, 14]", 14, True),
    ("[0, 0]", 1e-12, False),
    ("[0, inf)", float("nan"), False),
    ("[-inf, inf]", 1e300, True),
])
def test_band_edges(band, value, inside):
    assert (value in Band.parse(band)) is inside


@pytest.mark.parametrize("text", [
    "0.12, 0.32", "[0.32, 0.12]", "(nan, 1)", "[0.1; 0.2]", "[0.1, 0.2"])
def test_malformed_bands_rejected(text):
    with pytest.raises(ValueError):
        Band.parse(text)


class TestTable:
    def test_keys_unique(self):
        keys = [row.key for row in ROWS]
        assert len(keys) == len(set(keys))

    def test_every_band_parses(self):
        for row in ROWS:
            Band.parse(row.band)

    def test_every_row_names_known_worlds(self):
        for row in ROWS:
            assert row.worlds, row.key
            assert len(row.worlds) == len(set(row.worlds)), row.key
            for world in row.worlds:
                assert world in WORLDS, (row.key, world)

    def test_every_world_is_used(self):
        used = {world for row in ROWS for world in row.worlds}
        assert used == set(WORLDS)

    def test_every_world_spec_builds_a_config(self):
        for world in WORLDS.values():
            configs = world.configs()
            assert configs
            assert all(isinstance(c, SimulationConfig) for c in configs)
            if world.era_pair:
                assert len(configs) == 2

    def test_no_config_is_built_twice(self):
        configs = [repr(config) for world in WORLDS.values()
                   for config in world.configs()]
        assert len(configs) == len(set(configs))

    def test_cells_fit_a_markdown_table(self):
        for row in ROWS:
            assert "|" not in row.paper and row.paper.strip(), row.key


def _experiments_block():
    text = EXPERIMENTS.read_text(encoding="utf-8")
    block = re.search(
        r"<!-- calibration:begin -->\n(.*?)<!-- calibration:end -->", text,
        re.S)
    assert block is not None, "EXPERIMENTS.md lacks the calibration block"
    lines = [line for line in block.group(1).splitlines()
             if line.startswith("|")][2:]  # header and rule
    return [tuple(cell.strip() for cell in line.strip("|").split("|"))
            for line in lines]


def test_experiments_block_matches_the_table():
    measured = _experiments_block()
    assert [cells[:4] for cells in measured] == [
        (row.key, row.paper, row.band, world)
        for row in ROWS for world in row.worlds]
    assert all(cells[5] in ("pass", "FAIL", "n/a") for cells in measured)
