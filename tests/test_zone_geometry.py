"""Zone geometry computed on first read equals the eager computation.

A sync keeps the members and a `Tick`; `ZoneController.geometry` works out
theta and phi from them when a flood reads the zone. The oracle here does
the eager work at every sync, over the nodes as that sync saw them: theta
from the newest sync, phi from the newest sync whose members see anyone,
av_rad from the newest sync with members.
"""

import hashlib
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from bless_golden import golden_path
from oracles import LedgerSpy, oracle_membership_diameter, oracle_neighbor_counts

from rltrc.control import Tick, ZoneController, assign_zones
from rltrc.engine import Simulator
from rltrc.metrics import render_csv
from rltrc.model import NodeState, make_zones
from rltrc.rewards import NodeRewardState, avg_hop_count, broadcast_cost, min_hop_count
from rltrc.scenarios import scenario

def eager_sync(want: dict, zone, nodes) -> None:
    """The eager values of `zone` after a sync over `nodes` as they are now."""
    members = sorted(zone.member_nodes)
    theta, phi, av_rad = want[zone.id]
    if len(members) >= 2:
        theta = oracle_membership_diameter([nodes[m].position for m in members])
    else:
        theta = zone.diagonal
    if members:
        av_rad = math.fsum(nodes[m].radio_range for m in members) / len(members)
        counts = oracle_neighbor_counts(nodes, members)
        n_bar = math.fsum(counts[m] for m in members) / len(members)
        if n_bar > 0.0:
            phi = n_bar
    want[zone.id] = (theta, phi, av_rad)


@pytest.mark.parametrize("golden, name, overrides", [
    ("desk-converge", "desk-converge", {}),
    ("desk-compare-low-energy", "desk-compare", {"energy_min": 0.3, "energy_max": 1.0}),
    ("desk-converge-9-zones", "desk-converge", {"zones": 9}),
])
def test_every_tick_reads_the_eager_values(golden, name, overrides):
    """After every sync tick each zone, settled, holds the eager values of
    that tick, and the run still reproduces its golden digests."""
    sim = Simulator(scenario(name, seed=1, **overrides))
    want = {z.id: (z.theta, z.phi, z.av_rad) for z in sim.zones}
    for ctl in sim.controllers:
        def sync(t_now, nodes, reward_states, *, tick, _sync=ctl.sync, _zone=ctl.zone):
            # the members are those of this sync, the nodes as the tick sees them
            eager_sync(want, _zone, nodes)
            return _sync(t_now, nodes, reward_states, tick=tick)
        ctl.sync = sync
    on_sync = sim._on_controller_sync
    ticks = []

    def hooked() -> None:
        on_sync()
        for ctl in sim.controllers:
            zone = ctl.geometry()
            assert (zone.theta, zone.phi, zone.av_rad) == want[zone.id], (sim.t, zone.id)
        ticks.append(sim.t)

    sim._on_controller_sync = hooked
    report = sim.run()
    assert len(ticks) == int(sim.cfg.duration // sim.cfg.t_sync) + 1
    blessed = json.loads(golden_path(golden).read_text(encoding="utf-8"))
    assert hashlib.sha256(render_csv(report).encode()).hexdigest() == blessed["summary_sha256"]
    assert (hashlib.sha256(render_csv(report.series).encode()).hexdigest()
            == blessed["series_sha256"])


class TestUnreadTicks:
    """Several syncs with no read between them, then one read."""

    def setup_method(self):
        # zone 0 is the 100 x 100 square at the origin; ranges are 40 m
        self.zones = make_zones(300.0, 200.0, 6, av_rad=25.0)
        self.nodes = [NodeState(i, pos, power_levels=(5.0, 10.0), radio_range=40.0)
                      for i, pos in enumerate([(10.0, 50.0), (40.0, 50.0), (70.0, 50.0)])]
        self.ctl = ZoneController(self.zones[0], {})
        self.rewards = [NodeRewardState() for _ in self.nodes]
        self.want = {z.id: (z.theta, z.phi, z.av_rad) for z in self.zones}

    def sync(self, *positions):
        """Move the nodes, then sync zone 0 over them."""
        for node, pos in zip(self.nodes, positions):
            node.position = pos
        assign_zones(self.nodes, self.zones)
        eager_sync(self.want, self.ctl.zone, self.nodes)
        self.ctl.sync(0.0, self.nodes, self.rewards, tick=Tick(self.nodes))

    def read(self):
        zone = self.ctl.geometry()
        return zone.theta, zone.phi, zone.av_rad

    def test_isolated_syncs_keep_the_last_phi_that_saw_anyone(self):
        self.sync((10.0, 50.0), (40.0, 50.0), (70.0, 50.0))
        assert self.read() == self.want[0]
        assert self.want[0][1] == 4.0 / 3.0  # counts 1, 2, 1
        # all three in range of each other, then two isolated ticks
        self.sync((30.0, 50.0), (50.0, 50.0), (40.0, 60.0))
        self.sync((0.0, 0.0), (99.0, 0.0), (50.0, 99.0))
        self.sync((0.0, 99.0), (99.0, 99.0), (50.0, 0.0))
        theta, phi, av_rad = self.read()
        assert (theta, phi, av_rad) == self.want[0]
        assert phi == 2.0
        assert theta == oracle_membership_diameter([(0.0, 99.0), (99.0, 99.0), (50.0, 0.0)])

    def test_empty_syncs_keep_phi_and_av_rad(self):
        self.nodes[2].radio_range = 10.0
        # counts 2, 2, 1 with ranges 40, 40, 10
        self.sync((10.0, 50.0), (40.0, 50.0), (45.0, 50.0))
        for _ in range(3):
            self.sync((150.0, 50.0), (160.0, 50.0), (170.0, 50.0))
        assert self.read() == self.want[0]
        theta, phi, av_rad = self.want[0]
        assert theta == self.zones[0].diagonal
        assert phi == 5.0 / 3.0 and av_rad == 30.0

    def test_a_lone_member_resets_theta_and_a_pair_sets_it_again(self):
        self.sync((10.0, 50.0), (40.0, 50.0), (150.0, 50.0))
        self.sync((10.0, 50.0), (140.0, 50.0), (150.0, 50.0))
        assert self.read() == self.want[0]
        assert self.want[0][0] == self.zones[0].diagonal
        self.sync((10.0, 50.0), (140.0, 50.0), (150.0, 50.0))
        self.sync((10.0, 50.0), (25.0, 50.0), (150.0, 50.0))
        assert self.read() == self.want[0]
        assert self.want[0][0] == 15.0

    def test_values_are_those_of_the_sync_not_of_the_read(self):
        self.sync((10.0, 50.0), (40.0, 50.0), (70.0, 50.0))
        want = self.want[0]
        # the nodes move and one dies before anything reads the zone
        self.nodes[0].position = (90.0, 90.0)
        self.nodes[1].residual_energy = 0.0
        assert self.read() == want
        assert want[:2] == (60.0, 4.0 / 3.0)


def test_unread_ticks_hold_at_most_two_ticks_per_zone():
    """After a run, 40 more sync ticks that nothing reads leave each
    controller holding at most two ticks: one for theta, one for phi."""
    sim = Simulator(scenario("desk-compare", duration=10.0, energy_min=0.3, energy_max=1.0))
    sim.run()
    for _ in range(40):
        sim.t += sim.cfg.t_sync
        sim._on_controller_sync()
        for ctl in sim.controllers:
            sources = (ctl.theta_from, ctl.phi_from)
            assert all(src is None or isinstance(src[1], Tick) for src in sources)
            assert len({id(src[1]) for src in sources if src is not None}) <= 2
            # and nothing else a tick could hide in
            assert not set(vars(ctl)) - {"zone", "registry", "session_rewards",
                                         "theta_from", "phi_from"}


def test_a_zone_no_node_joins_floods_at_the_mid_radio_range():
    """`_build_world` starts every zone's av_rad at the middle of the radio
    range band. A sync overwrites it only from members, so a zone that no
    node joins keeps it for the whole run, and a flood over that zone reads
    it."""
    sim = Simulator(scenario("lossless-pair", radio_range_min=35.0, radio_range_max=45.0))
    spy = LedgerSpy(sim.ledger)
    sim.run()
    # two still nodes and no peripherals leave a zone of the three empty
    empty = [z for z in sim.zones if z.id not in {n.zone_id for n in sim.nodes}]
    assert sim.cfg.peripherals_per_zone == 0 and empty
    sn, cfg = sim.sessions[0], sim.cfg
    for zone in empty:
        assert zone.av_rad == 40.0
        spy.invest_calls.clear()
        sim._flood(sn, [], [zone.id])
        theta = zone.diagonal
        assert spy.invest_calls == [(
            sim.t, sn.home_zone,
            broadcast_cost(1.0, avg_hop_count(theta, 1.0, 40.0), cfg.broadcast_cost_cap),
            min_hop_count(theta, 1.0, 40.0) * cfg.t_hop)]
