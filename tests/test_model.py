import math

import pytest

from rltrc.model import (
    NodeState,
    ZoneState,
    distance,
    make_zones,
    power_levels,
    zone_of,
)


def test_distance():
    assert distance((0.0, 0.0), (3.0, 4.0)) == 5.0
    assert distance((1.0, 1.0), (1.0, 1.0)) == 0.0


BAD_LEVELS = "^power levels must be positive and strictly ascending$"


class TestPowerLevels:
    def test_levels_are_evenly_spaced_floats(self):
        # a float config field may hold an int; the levels are floats still
        for count, want in [(1, (25.0,)), (3, (5.0, 15.0, 25.0))]:
            levels = power_levels(count, 5, 25)
            assert levels == want and [type(p) for p in levels] == [float] * count

    def test_levels_must_be_ascending(self):
        # values an ulp apart cannot space three levels; NaN compares false
        for count, low, high in [(2, 1.0, 1.0), (3, 1.0, math.nextafter(1.0, 2.0)),
                                 (3, 5.0, math.nan)]:
            with pytest.raises(ValueError, match=BAD_LEVELS):
                power_levels(count, low, high)

    def test_levels_must_be_positive(self):
        for count, low, high in [(3, 0.0, 5.0), (3, -1.0, 5.0), (1, 5.0, -1.0),
                                 (3, math.nan, 5.0), (1, 5.0, math.nan)]:
            with pytest.raises(ValueError, match=BAD_LEVELS):
                power_levels(count, low, high)


class TestNodeState:
    def test_alive_while_energy_is_positive(self):
        n = NodeState(id=1, position=(0, 0), residual_energy=0.5, power_levels=(5.0, 10.0, 15.0))
        assert n.alive
        n.residual_energy = 0.0
        assert not n.alive


class TestZones:
    @pytest.mark.parametrize("count,rows,cols", [(3, 1, 3), (6, 2, 3), (9, 3, 3), (12, 3, 4)])
    def test_grid_shape(self, count, rows, cols):
        zones = make_zones(300.0, 200.0, count, av_rad=25.0)
        assert len(zones) == count
        assert max(z.x1 for z in zones) == 300.0
        assert max(z.y1 for z in zones) == 200.0
        widths = {round(z.x1 - z.x0, 9) for z in zones}
        heights = {round(z.y1 - z.y0, 9) for z in zones}
        assert widths == {round(300.0 / cols, 9)}
        assert heights == {round(200.0 / rows, 9)}

    def test_ids_row_major(self):
        zones = make_zones(300.0, 200.0, 6, av_rad=25.0)
        assert [z.id for z in zones] == list(range(6))
        assert zones[0].x0 == 0.0 and zones[0].y0 == 0.0
        assert zones[1].x0 == 100.0 and zones[1].y0 == 0.0
        assert zones[3].x0 == 0.0 and zones[3].y0 == 100.0

    def test_theta_starts_at_diagonal(self):
        zones = make_zones(300.0, 300.0, 9, av_rad=25.0)
        for z in zones:
            assert z.theta == pytest.approx(math.hypot(100.0, 100.0))
            assert z.av_rad == 25.0

    def test_zone_of_interior_and_boundary(self):
        zones = make_zones(300.0, 200.0, 6, av_rad=25.0)
        assert zone_of((50.0, 50.0), zones) == 0
        assert zone_of((250.0, 150.0), zones) == 5
        # shared edge goes to the lowest id
        assert zone_of((100.0, 50.0), zones) == 0
        assert zone_of((150.0, 100.0), zones) == 1

    def test_zone_of_outside_raises(self):
        zones = make_zones(300.0, 200.0, 6, av_rad=25.0)
        with pytest.raises(ValueError):
            zone_of((301.0, 50.0), zones)
        with pytest.raises(ValueError):
            zone_of((-1.0, 50.0), zones)

    def test_geometry_helpers(self):
        z = ZoneState(id=0, x0=0, y0=0, x1=30, y1=40)
        assert z.diagonal == 50.0
        assert z.contains((30.0, 40.0))
        assert not z.contains((30.1, 40.0))
