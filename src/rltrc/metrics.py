"""Run ledger, the seven summary metrics, windowed waste series, CSV output.

The ledger is append-only during a run. Energy rows are joules and drive EC
plus the conservation check. Waste and investment rows are in the protocol's
abstract units (power levels, broadcast message counts, seconds) and drive
AWE/AWT; utilized = invested - wasted, so AWE = 100 * wasted / invested.

The three row logs are stored column by column (`RowLog`): floats in
`array('d')`, ids in `array('i')` and debit kinds as a list of the engine's
interned strings, so a row costs a few dozen bytes and no object per field.
Readers ask the ledger for counts and exact sums instead of iterating its
rows, and `invariant_problems` checks that a finished run's books balance.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field


CSV_VERSION_HEADER = "# rltrc metrics v1"


@dataclass(slots=True)
class PacketStat:
    generated_at: float
    delivered_at: float | None = None
    attempts: int = 0
    status: str = "pending"   # delivered | pending | dropped-<cause>


# every status a packet can end a run in; the engine drops for four causes
PACKET_STATUSES = frozenset(("delivered", "pending", "dropped-node-death", "dropped-session-failed",
                             "dropped-route-invalidated", "dropped-link-breakage"))


@dataclass(slots=True)
class AttemptRow:
    """One hop attempt: its ledger row, the sender's in-flight handle while
    on the air, and the payload of its arrival, ack and timeout events.

    A sent row starts `pending` and becomes `ack` or `timeout`, whichever
    event reaches the sender first; one whose debit could not be paid is
    `blocked` and stays so. A row still `pending` at the end of the run had
    its timeout fall past the duration.
    """

    t: float
    pid: int
    session: int
    node: int
    successor: int
    action: float             # power level actually paid for, 0 when blocked
    outcome: str              # pending | ack | timeout | blocked


ATTEMPT_OUTCOMES = frozenset(("pending", "ack", "timeout", "blocked"))


class RowLog:
    """An append-only table of 4-field rows, stored one column per field.

    `typecodes` gives each column's `array` typecode; None makes the column
    a list (for strings). `len` counts rows and iteration yields each row as
    a tuple in append order.
    """

    __slots__ = ("columns",)

    def __init__(self, typecodes: tuple[str | None, ...]):
        self.columns = tuple(array(tc) if tc else [] for tc in typecodes)

    def append(self, a, b, c, d) -> None:
        ca, cb, cc, cd = self.columns
        ca.append(a)
        cb.append(b)
        cc.append(c)
        cd.append(d)

    def extend(self, a: list, b: list, c: list, d: list) -> None:
        """Append the rows (a[i], b[i], c[i], d[i]) in order; the four
        lists have one entry per row."""
        for column, values in zip(self.columns, (a, b, c, d)):
            if isinstance(column, array):
                column.fromlist(values)  # array.extend takes each item in turn, 2x slower
            else:
                column.extend(values)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self):
        return zip(*self.columns)


def _debit_log() -> RowLog:
    return RowLog(("d", "i", None, "d"))     # t, node, kind, joules


def _zone_log() -> RowLog:
    return RowLog(("d", "i", "d", "d"))      # t, zone, energy, seconds


@dataclass
class MetricsLedger:
    initial_energy: dict[int, float] = field(default_factory=dict)
    final_energy: dict[int, float] = field(default_factory=dict)
    debits: RowLog = field(default_factory=_debit_log)
    message_count: int = 0
    packets: dict[int, PacketStat] = field(default_factory=dict)
    attempts: list[AttemptRow] = field(default_factory=list)
    waste_rows: RowLog = field(default_factory=_zone_log)
    invest_rows: RowLog = field(default_factory=_zone_log)
    duration: float = 0.0

    def record_debit(self, t: float, node: int, kind: str, joules: float) -> None:
        # the hottest append of a run, so it skips `RowLog.append`'s call
        ct, cn, ck, cj = self.debits.columns
        ct.append(t)
        cn.append(node)
        ck.append(kind)
        cj.append(joules)

    def record_debits(self, t: float, nodes: list[int], kind: str, joules: list[float]) -> None:
        """`record_debit(t, nodes[i], kind, joules[i])` for each i in order."""
        n = len(nodes)
        self.debits.extend([t] * n, nodes, [kind] * n, joules)

    def count_message(self, n: int = 1) -> None:
        self.message_count += n

    def record_waste(self, t: float, zone: int, energy: float, time: float) -> None:
        if energy or time:
            self.waste_rows.append(t, zone, energy, time)

    def record_invest(self, t: float, zone: int, energy: float, time: float) -> None:
        # booked on every acknowledged hop, so it skips `RowLog.append`'s call
        if energy or time:
            ct, cz, ce, cs = self.invest_rows.columns
            ct.append(t)
            cz.append(zone)
            ce.append(energy)
            cs.append(time)

    def total_debits(self) -> float:
        return math.fsum(self.debits.columns[3])

    @property
    def debit_count(self) -> int:
        return len(self.debits)

    def energy_by_node(self) -> dict[int, float]:
        """Joules debited from each node that paid any, an exact sum each."""
        paid = defaultdict(list)
        for _t, node, _kind, joules in self.debits:
            paid[node].append(joules)
        return {node: math.fsum(js) for node, js in paid.items()}

    def zone_sums(self) -> dict[int, tuple[float, float, float, float]]:
        """Per zone with any row: (waste energy, waste time, investment
        energy, investment time), each an exact sum."""
        parts = defaultdict(lambda: ([], [], [], []))
        for rows, first in ((self.waste_rows, 0), (self.invest_rows, 2)):
            for _t, zone, energy, seconds in rows:
                parts[zone][first].append(energy)
                parts[zone][first + 1].append(seconds)
        return {zone: tuple(map(math.fsum, cols)) for zone, cols in parts.items()}

    def outcome_counts(self) -> Counter:
        """Hop attempts per outcome."""
        return Counter(row.outcome for row in self.attempts)


@dataclass
class MetricsReport:
    policy: str
    omc: int
    ec: float
    ntg: float | None
    adl: float
    paln: float
    awe: float
    awt: float
    series: list[tuple[float, float, float]] = field(default_factory=list)


def compute_metrics(ledger: MetricsLedger, policy: str = "rl-trc") -> MetricsReport:
    """Summarize a finished run. Pure: same ledger, same report.

    NTG is None (reported as an empty CSV field) when nothing was ever
    transmitted; ADL averages delivered packets only.
    """
    ec = math.fsum(
        ledger.initial_energy[n] - ledger.final_energy.get(n, ledger.initial_energy[n])
        for n in ledger.initial_energy
    )
    transmitted = [p for p in ledger.packets.values() if p.attempts > 0]
    delivered = [p for p in ledger.packets.values() if p.status == "delivered"]
    ntg = 100.0 * len(delivered) / len(transmitted) if transmitted else None
    adl = (
        math.fsum(p.delivered_at - p.generated_at for p in delivered) / len(delivered)
        if delivered
        else 0.0
    )
    total = len(ledger.initial_energy)
    alive = sum(1 for n in ledger.initial_energy if ledger.final_energy.get(n, 1.0) > 0.0)
    paln = 100.0 * alive / total if total else 100.0
    waste, invest = ledger.waste_rows.columns, ledger.invest_rows.columns
    we, wt = math.fsum(waste[2]), math.fsum(waste[3])
    ie, it = math.fsum(invest[2]), math.fsum(invest[3])
    awe = 100.0 * we / ie if ie > 0.0 else 0.0
    awt = 100.0 * wt / it if it > 0.0 else 0.0
    return MetricsReport(
        policy=policy,
        omc=ledger.message_count,
        ec=ec,
        ntg=ntg,
        adl=adl,
        paln=paln,
        awe=awe,
        awt=awt,
        series=[],
    )


def invariant_problems(ledger: MetricsLedger, report: MetricsReport) -> list[str]:
    """Every way a finished run's books fail to balance; empty when sound.

    The debits re-sum to `report.ec` and to each node's energy drop, every
    packet status and attempt outcome is known, and no zone wastes more
    energy or time than it invested."""
    problems = []
    debits = ledger.total_debits()
    if not math.isclose(debits, report.ec, rel_tol=1e-9, abs_tol=1e-9):
        problems.append("debits sum to %r J but ec is %r J" % (debits, report.ec))
    paid = ledger.energy_by_node()
    for node, start in ledger.initial_energy.items():
        drop, debited = start - ledger.final_energy.get(node, start), paid.get(node, 0.0)
        if not math.isclose(debited, drop, rel_tol=1e-9, abs_tol=1e-9):
            problems.append("node %d paid %r J but its energy dropped %r J" % (node, debited, drop))
    unknown = sorted({p.status for p in ledger.packets.values()} - PACKET_STATUSES)
    if unknown:
        problems.append("packet statuses outside the known set: %s" % unknown)
    unknown = sorted(ledger.outcome_counts().keys() - ATTEMPT_OUTCOMES)
    if unknown:
        problems.append("attempt outcomes outside the known set: %s" % unknown)
    for zone, (we, wt, ie, it) in sorted(ledger.zone_sums().items()):
        for label, w, i in (("energy", we, ie), ("time", wt, it)):
            if w > i * (1.0 + 1e-9) + 1e-12:
                problems.append("zone %d wastes %r of %s but invested %r" % (zone, w, label, i))
    return problems


def windowed_waste_series(
    ledger: MetricsLedger, window_len: float
) -> list[tuple[float, float, float]]:
    """(window start, AWE, AWT) per window, each from that window's rows only.

    Windows tile [0, duration); a window with no investment reports zeros.
    """
    if window_len <= 0.0:
        raise ValueError("window_len must be positive")
    n_windows = max(1, math.ceil(ledger.duration / window_len - 1e-12))
    waste_e = [0.0] * n_windows
    waste_t = [0.0] * n_windows
    invest_e = [0.0] * n_windows
    invest_t = [0.0] * n_windows
    last = n_windows - 1
    for rows, energy, seconds in ((ledger.waste_rows, waste_e, waste_t),
                                  (ledger.invest_rows, invest_e, invest_t)):
        ct, _zone, ce, cs = rows.columns
        for t, e, tm in zip(ct, ce, cs):
            w = int(t / window_len)  # clamped into [0, last]
            if w > last:
                w = last
            elif w < 0:
                w = 0
            energy[w] += e
            seconds[w] += tm
    out = []
    for w in range(n_windows):
        awe = 100.0 * waste_e[w] / invest_e[w] if invest_e[w] > 0.0 else 0.0
        awt = 100.0 * waste_t[w] / invest_t[w] if invest_t[w] > 0.0 else 0.0
        out.append((w * window_len, awe, awt))
    return out


def _fmt(x: float | None) -> str:
    if x is None:
        return ""
    return "%.6g" % x


SUMMARY_COLUMNS = "policy,omc,ec,ntg,adl,paln,awe,awt"
SERIES_COLUMNS = "timestamp,awe,awt"


def render_csv(payload: MetricsReport | list[tuple[float, float, float]]) -> str:
    """CSV text for a summary report or a windowed series; byte-stable."""
    lines = [CSV_VERSION_HEADER]
    if isinstance(payload, MetricsReport):
        lines.append(SUMMARY_COLUMNS)
        numbers = (payload.ec, payload.ntg, payload.adl, payload.paln, payload.awe, payload.awt)
        lines.append(",".join([payload.policy, str(payload.omc)] + [_fmt(x) for x in numbers]))
    else:
        lines.append(SERIES_COLUMNS)
        for t, awe, awt in payload:
            lines.append(",".join([_fmt(t), _fmt(awe), _fmt(awt)]))
    return "\n".join(lines) + "\n"


def emit_csv(
    payload: MetricsReport | list[tuple[float, float, float]], path: str
) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_csv(payload))
