"""Run ledger, the seven summary metrics, windowed waste series, CSV output.

The ledger is append-only during a run. Energy rows are joules and drive EC
plus the conservation check. Waste and investment rows are in the protocol's
abstract units (power levels, broadcast message counts, seconds) and drive
AWE/AWT; utilized = invested - wasted, so AWE = 100 * wasted / invested.

The three row logs are stored column by column (`RowLog`): floats in
`array('d')`, ids in `array('i')` and debit kinds as a list of the engine's
interned strings, so a row costs a few dozen bytes and no object per field.
They still read as 4-tuples in append order, and the sums run over the same
floats in the same order as a list of tuples would.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field


CSV_VERSION_HEADER = "# rltrc metrics v1"


@dataclass(slots=True)
class PacketStat:
    session: int
    generated_at: float
    delivered_at: float | None = None
    attempts: int = 0
    status: str = "pending"   # delivered | pending | dropped-<cause>


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
    turn: int
    action: float             # power level actually paid for, 0 when blocked
    outcome: str              # pending | ack | timeout | blocked


class RowLog:
    """An append-only table of 4-field rows, stored one column per field.

    `typecodes` gives each column's `array` typecode; None makes the column
    a list (for strings). `len` counts rows, iteration yields each row as a
    tuple in append order, an index gives one such tuple and a slice a list
    of them.
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

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self):
        return zip(*self.columns)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(zip(*(col[index] for col in self.columns)))
        return tuple(col[index] for col in self.columns)


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
        self.debits.append(t, node, kind, joules)

    def count_message(self, n: int = 1) -> None:
        self.message_count += n

    def record_waste(self, t: float, zone: int, energy: float, time: float) -> None:
        if energy or time:
            self.waste_rows.append(t, zone, energy, time)

    def record_invest(self, t: float, zone: int, energy: float, time: float) -> None:
        if energy or time:
            self.invest_rows.append(t, zone, energy, time)

    def total_debits(self) -> float:
        return math.fsum(self.debits.columns[3])


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

    def windex(t: float) -> int:
        return min(n_windows - 1, max(0, int(t / window_len)))

    for t, _zone, e, tm in ledger.waste_rows:
        w = windex(t)
        waste_e[w] += e
        waste_t[w] += tm
    for t, _zone, e, tm in ledger.invest_rows:
        w = windex(t)
        invest_e[w] += e
        invest_t[w] += tm
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
        lines.append(
            ",".join(
                [
                    payload.policy,
                    str(payload.omc),
                    _fmt(payload.ec),
                    _fmt(payload.ntg),
                    _fmt(payload.adl),
                    _fmt(payload.paln),
                    _fmt(payload.awe),
                    _fmt(payload.awt),
                ]
            )
        )
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
