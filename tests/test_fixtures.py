import numpy as np
import pytest

from crncount.fixtures import (
    NETWORK_FIXTURES,
    fixture_names,
    fixture_network,
    mapk_cube,
    thron_box,
    thron_cascade,
    unit_cube,
)


def test_every_network_fixture_parses():
    for name in NETWORK_FIXTURES:
        net = fixture_network(name)
        assert net.n >= 2


def test_fixture_listing():
    names = fixture_names()
    assert "table1-viii" in names
    assert "mapk-thron" in names and "mapk-cube" in names
    with pytest.raises(KeyError):
        fixture_network("mapk-thron")


def test_table1_species_counts():
    expected = {"table1-i": 5, "table1-ii": 7, "table1-iii": 9, "table1-iv": 5,
                "table1-v": 7, "table1-vi": 2, "table1-vii": 2, "table1-viii": 2}
    for name, n in expected.items():
        assert fixture_network(name).n == n


def test_ctf06_networks_have_seven_species():
    assert fixture_network("ctf06-4").n == 7
    assert fixture_network("ctf06-6").n == 7


def test_thron_parameter_validation():
    with pytest.raises(ValueError):
        thron_cascade([1, 1, 1, 1, 1, 0], 1.0)
    with pytest.raises(ValueError):
        thron_cascade([1] * 6, -1.0)
    with pytest.raises(ValueError):
        thron_box(0.6)


def test_mapk_cube_parameter_validation():
    with pytest.raises(ValueError):
        mapk_cube([1, 1, 0], [1] * 3, [1] * 3, [1] * 3, 1, 1)


def test_cube_is_unit():
    box = unit_cube()
    assert np.allclose(box.lo, 0) and np.allclose(box.hi, 1)
