"""Run ledger, the seven summary metrics, windowed waste series, CSV output.

The ledger is append-only during a run. Debits are joules and drive the
conservation check. Waste and investment rows are in the protocol's
abstract units (power levels, broadcast message counts, seconds) and drive
AWE/AWT; utilized = invested - wasted, so AWE = 100 * wasted / invested.

Debits are not kept as rows: the `DebitBook` holds their count and, per
node, a few floats whose exact sum is the exact sum of the joules booked to
that node, so it stays the same size however long the run. The two zone
logs are stored column by column (`RowLog`): times, energies and seconds in
`array('d')` and zone ids in `array('i')`, so a row costs 28 bytes and no
object per field. Hop attempts (`AttemptLog`) stay `AttemptRow` objects
only until they settle: each controller sync counts the settled ones per
outcome and drops them. Readers ask the ledger for counts and exact
sums instead of iterating its rows, and `invariant_problems` checks that a
finished run's books balance.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter, defaultdict, deque, namedtuple
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, repeat, takewhile
from operator import attrgetter


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
    its timeout fall past the duration. The ledger holds the row itself
    only until a controller sync finds it settled (`AttemptLog.fold`).
    """

    t: float
    pid: int
    session: int
    node: int
    successor: int
    action: float             # power level actually paid for, 0 when blocked
    outcome: str              # pending | ack | timeout | blocked


ATTEMPT_OUTCOMES = frozenset(("pending", "ack", "timeout", "blocked"))

# an attempt that is still pending can yet change, so it is never folded
_SETTLED = ATTEMPT_OUTCOMES - {"pending"}

# what iterating an `AttemptLog` yields for a folded attempt: its outcome,
# the one field of an attempt the ledger keeps once it has settled
SettledAttempt = namedtuple("SettledAttempt", "outcome")


class AttemptLog:
    """Every hop attempt of a run.

    The engine appends each new `AttemptRow` to `recent` through the bound
    `append`. `fold` counts the settled prefix of `recent`, every row up to
    the first one that is still pending or has an outcome outside
    ATTEMPT_OUTCOMES, into `settled`, one count per outcome, and drops
    those rows, so a settled attempt costs no memory and only the rows of
    attempts that may still be on the air stay objects. `len` counts every
    attempt. Iteration yields one record per attempt with its `outcome`:
    the folded ones grouped by outcome, one shared `SettledAttempt` per
    outcome, then the rows of `recent` in append order.
    """

    __slots__ = ("settled", "recent", "append")

    def __init__(self):
        self.settled: Counter = Counter()
        self.recent: list[AttemptRow] = []
        self.append = self.recent.append

    # a copy's `append` must be its own list's, not the original's
    def __getstate__(self):
        return self.settled, self.recent

    def __setstate__(self, state) -> None:
        self.settled, self.recent = state
        self.append = self.recent.append

    def __len__(self) -> int:
        return self.settled.total() + len(self.recent)

    def __iter__(self):
        settled = (repeat(SettledAttempt(outcome), n) for outcome, n in self.settled.items())
        return chain(chain.from_iterable(settled), self.recent)

    def fold(self) -> None:
        # counted in C; a Python loop over the rows took about three times as long
        recent = self.recent
        counts = Counter(takewhile(_SETTLED.__contains__, map(attrgetter("outcome"), recent)))
        del recent[:counts.total()]
        self.settled.update(counts)


class RowLog:
    """An append-only table of (t, zone, energy, seconds) rows, stored one
    column per field. `len` counts rows and iteration yields each row as a
    tuple in append order.
    """

    __slots__ = ("columns",)

    def __init__(self):
        self.columns = (array("d"), array("i"), array("d"), array("d"))

    def append(self, t: float, zone: int, energy: float, seconds: float) -> None:
        ct, cz, ce, cs = self.columns
        ct.append(t)
        cz.append(zone)
        ce.append(energy)
        cs.append(seconds)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self):
        return zip(*self.columns)


# debits booked between two folds of a `DebitBook`: at most 512 KB of
# buffered joules. A fold sums each buffered debit about three times (some
# 70 ns a debit), so folds are kept rare: a run that books fewer debits
# never folds.
DEBIT_FOLD = 1 << 16

# a fold leaves a buffer shorter than this as it is: at scale most nodes pay
# a few debits between two folds, and the fsum calls and new array of a
# short buffer cost more than its floats. Short buffers hold under 1 KB of
# joules per node.
FOLD_MIN = 128


class DebitBook:
    """How many debits a run booked, and the exact joules per node.

    `paid[node]` is an `array('d')` that the ledger appends each of the
    node's debits to. `fold` replaces every buffer of FOLD_MIN floats or
    more by the partials of its exact sum (Shewchuk, "Adaptive Precision
    Floating-Point Arithmetic", 1997): s = fsum(buf), keep s, append -s to
    buf and repeat until the fsum is 0. The kept floats sum exactly to what the buffer held, and
    `fsum` rounds the exact sum once, so an fsum over a node's buffer, or
    over all of them, gives the float an fsum over every debit row would.
    `len` counts debits.
    """

    __slots__ = ("count", "due", "paid")

    def __init__(self):
        self.count = 0
        self.due = DEBIT_FOLD     # the count at which the ledger calls `fold`
        self.paid: defaultdict[int, array] = defaultdict(partial(array, "d"))

    def __len__(self) -> int:
        return self.count

    def fold(self) -> None:
        paid = self.paid
        for node, buf in paid.items():
            if len(buf) < FOLD_MIN:
                continue
            parts = []
            s = math.fsum(buf)
            if not math.isfinite(s):
                continue    # inf or nan has no partials; the buffer keeps it
            while s:
                parts.append(s)
                buf.append(-s)
                s = math.fsum(buf)
            paid[node] = array("d", parts)
        self.due = self.count + DEBIT_FOLD


@dataclass
class MetricsLedger:
    initial_energy: dict[int, float] = field(default_factory=dict)
    final_energy: dict[int, float] = field(default_factory=dict)
    debits: DebitBook = field(default_factory=DebitBook)
    message_count: int = 0
    packets: dict[int, PacketStat] = field(default_factory=dict)
    attempts: AttemptLog = field(default_factory=AttemptLog)
    waste_rows: RowLog = field(default_factory=RowLog)
    invest_rows: RowLog = field(default_factory=RowLog)
    duration: float = 0.0

    def record_debit(self, t: float, node: int, kind: str, joules: float) -> None:
        # the hottest call of a run: one lookup, one append, one add, one
        # compare; the book keeps neither `t` nor `kind`
        book = self.debits
        book.paid[node].append(joules)
        book.count += 1
        if book.count >= book.due:
            book.fold()

    def record_debits(self, t: float, nodes: list[int], kind: str, joules: list[float]) -> None:
        """`record_debit(t, nodes[i], kind, joules[i])` for each i in order."""
        book = self.debits
        # paid[nodes[i]].append(joules[i]) for each i, looped in C (the
        # `consume` recipe of itertools); a Python loop is a third slower
        deque(map(array.append, map(book.paid.__getitem__, nodes), joules), maxlen=0)
        book.count += len(nodes)
        if book.count >= book.due:
            book.fold()

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
        return math.fsum(chain.from_iterable(self.debits.paid.values()))

    @property
    def debit_count(self) -> int:
        return self.debits.count

    def energy_by_node(self) -> dict[int, float]:
        """Joules debited from each node that paid any, an exact sum each."""
        return {node: math.fsum(buf) for node, buf in self.debits.paid.items()}

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
        log = self.attempts
        return log.settled + Counter(map(attrgetter("outcome"), log.recent))


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
            w = int(t / window_len)  # t >= 0; a row at t = duration joins the last window
            if w > last:
                w = last
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
