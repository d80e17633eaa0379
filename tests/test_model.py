import math

import pytest

from rltrc.model import (
    NodeState,
    ZoneState,
    checked_levels,
    distance,
    make_zones,
    zone_of,
)


def test_distance():
    assert distance((0.0, 0.0), (3.0, 4.0)) == 5.0
    assert distance((1.0, 1.0), (1.0, 1.0)) == 0.0


BAD_LEVELS = "^power levels must be positive and strictly ascending$"


class TestNodeState:
    def test_levels_must_be_ascending(self):
        with pytest.raises(ValueError, match=BAD_LEVELS):
            NodeState(id=0, position=(0, 0), power_levels=(5.0, 5.0))
        with pytest.raises(ValueError, match=BAD_LEVELS):
            NodeState(id=0, position=(0, 0), power_levels=(10.0, 5.0))

    def test_levels_must_be_positive(self):
        with pytest.raises(ValueError, match=BAD_LEVELS):
            NodeState(id=0, position=(0, 0), power_levels=(0.0, 5.0))
        with pytest.raises(ValueError, match=BAD_LEVELS):
            NodeState(id=0, position=(0, 0), power_levels=(-1.0,))
        for nan_at in range(3):
            levels = [5.0, 10.0, 15.0]
            levels[nan_at] = math.nan
            with pytest.raises(ValueError, match=BAD_LEVELS):
                NodeState(id=0, position=(0, 0), power_levels=levels)
        with pytest.raises(ValueError, match="^node 3 has no power levels$"):
            NodeState(id=3, position=(0, 0), power_levels=())
        with pytest.raises(ValueError, match="^node 4 has no power levels$"):
            NodeState(id=4, position=(0, 0), power_levels=[])

    @pytest.mark.parametrize(
        "given", [[5, 10, 15], (5, 10.0, 15), range(5, 20, 5), [5.0, 10.0, 15.0]],
        ids=["int-list", "mixed-tuple", "range", "float-list"])
    def test_any_sequence_is_stored_as_a_float_tuple(self, given):
        n = NodeState(id=0, position=(0, 0), power_levels=given)
        assert type(n.power_levels) is tuple
        assert [type(p) for p in n.power_levels] == [float] * 3
        assert n.power_levels == (5.0, 10.0, 15.0)

    def test_a_checked_tuple_is_kept_as_it_is(self):
        levels = checked_levels((7.0, 9.0, 11.0))
        assert checked_levels((7, 9, 11)) is levels
        assert NodeState(id=0, position=(0, 0), power_levels=levels).power_levels is levels
        again = NodeState(id=1, position=(0, 0), power_levels=[7.0, 9.0, 11.0])
        assert again.power_levels is levels

    def test_an_invalid_tuple_raises_after_a_valid_one(self):
        NodeState(id=0, position=(0, 0), power_levels=(5.0, 10.0))
        for _ in range(2):  # a raise is not remembered as a pass
            with pytest.raises(ValueError, match=BAD_LEVELS):
                NodeState(id=0, position=(0, 0), power_levels=(10.0, 5.0))
            with pytest.raises(ValueError, match=BAD_LEVELS):
                checked_levels((5.0, 5.0))
        ok = NodeState(id=0, position=(0, 0), power_levels=(5.0, 10.0))
        assert ok.power_levels == (5.0, 10.0)

    def test_the_level_memo_keeps_its_fixed_size(self):
        maxsize = checked_levels.cache_info().maxsize
        assert maxsize == 256
        for i in range(10_000):
            assert checked_levels((1.0 + i, 20_000.0 + i)) == (1.0 + i, 20_000.0 + i)
        assert checked_levels.cache_info().currsize == maxsize

    def test_peripheral_nodes_are_static(self):
        with pytest.raises(ValueError):
            NodeState(id=0, position=(0, 0), is_peripheral=True, max_velocity=2.0)
        NodeState(id=0, position=(0, 0), is_peripheral=True)  # ok

    def test_alive_and_power_bounds(self):
        n = NodeState(id=1, position=(0, 0), residual_energy=0.5, power_levels=(5.0, 10.0, 15.0))
        assert n.alive
        assert n.max_power == 15.0
        assert n.min_power == 5.0
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

    def test_bad_count(self):
        with pytest.raises(ValueError):
            make_zones(100.0, 100.0, 0, av_rad=25.0)

    def test_geometry_helpers(self):
        z = ZoneState(id=0, x0=0, y0=0, x1=30, y1=40)
        assert z.diagonal == 50.0
        assert z.contains((30.0, 40.0))
        assert not z.contains((30.1, 40.0))
