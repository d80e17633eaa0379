"""Run ledger, the seven summary metrics, windowed waste series, CSV output.

The ledger is append-only during a run. Debits are joules and drive the
conservation check. Waste and investment rows are in the protocol's
abstract units (power levels, broadcast message counts, seconds) and drive
AWE/AWT; utilized = invested - wasted, so AWE = 100 * wasted / invested.

No book of the ledger grows with the length of a run. Each keeps counts
and, where a reader needs a sum, an `ExactSum` (exact in bounded memory),
and holds records only while they can still change:

- `DebitBook`: the debit count and, per node, the joules booked to it.
- `PacketBook`: a `PacketStat` per pid while some node holds the pid; once
  no node does, a count per status, the transmitted count and their
  attempts, and the delivered latencies.
- `AttemptLog`: the hop attempt count and a count per settled outcome,
  each counted when the engine books or settles the attempt.
- `ZoneBook`, one for waste and one for investment: the row count, per
  zone the energy and the seconds booked, and per window of the series
  their running sums.

Readers ask the ledger for counts and exact sums instead of iterating its
rows, and `invariant_problems` checks that a finished run's books balance.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter, defaultdict, namedtuple
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import attrgetter


CSV_VERSION_HEADER = "# rltrc metrics v1"

# the windowed series splits [0, duration) into this many windows
SERIES_WINDOWS = 20

# the ledger's one fold rule, applied by `ExactSum.add`: an add that brings
# a sum's buffer to ROW_FOLD floats replaces the buffer by the partials of
# its exact sum, so no buffer holds 1 KB. A buffer that sums to inf or nan
# has no partials: it stays as it is and grows past ROW_FOLD, so it is not
# summed again. Above the 40 floats that the partials of one sum can take.
ROW_FOLD = 128


def exact_partials(buf: array) -> array:
    """Floats whose exact sum is the exact sum of `buf`'s, most often one
    or two (Shewchuk, "Adaptive Precision Floating-Point Arithmetic",
    1997): s = fsum(buf), keep s, append -s to buf and repeat until the
    fsum is 0. `fsum` rounds the exact sum once, so an fsum over the
    partials, alone or among other floats, gives the float an fsum over
    every float of `buf` would. `buf` is used up, but a buffer that sums
    to inf or nan has no partials and is returned as it is.
    """
    s = math.fsum(buf)
    if not math.isfinite(s):
        return buf
    parts = array("d")
    while s:
        parts.append(s)
        buf.append(-s)
        s = math.fsum(buf)
    return parts


class ExactSum:
    """The exact sum of the floats added, kept by the ROW_FOLD rule.

    Iteration yields the buffer's floats, whose exact sum is that of every
    float added, so an fsum over them, alone or among other floats, gives
    the float an fsum over every float added would; `value()` is theirs.
    """

    __slots__ = ("buf",)

    def __init__(self):
        self.buf = array("d")

    def add(self, x: float) -> None:
        buf = self.buf
        buf.append(x)
        if len(buf) == ROW_FOLD:
            self.buf = exact_partials(buf)

    def __iter__(self):
        return iter(self.buf)

    def value(self) -> float:
        return math.fsum(self.buf)


def _settled_records(record, counts: Counter):
    """One shared `record(key)` per key of `counts`, repeated by its count."""
    return chain.from_iterable(repeat(record(key), n) for key, n in counts.items())


@dataclass(slots=True)
class PacketStat:
    """A packet's record while some node holds it.

    Each queue entry of the pid is one hold, and so is each arrival of it on
    the air. `reached` is every node its data reached, so a node never
    queues a pid twice; `(inv_e, inv_t)` is the acked-hop investment still
    eligible for write-off, zeroed when written off so waste can never
    exceed investment. Once no hold is left no node can send the pid again:
    the record is final, and retires.
    """

    generated_at: float
    delivered_at: float | None = None
    attempts: int = 0
    status: str = "pending"   # delivered | pending | dropped-<cause>
    holds: int = 1
    reached: set[int] = field(default_factory=set)
    inv_e: float = 0.0
    inv_t: float = 0.0


# every status a packet can end a run in; the engine drops for four causes
PACKET_STATUSES = frozenset(("delivered", "pending", "dropped-node-death", "dropped-session-failed",
                             "dropped-route-invalidated", "dropped-link-breakage"))

# what iterating `PacketBook.values()` yields for a retired packet: its
# status, the one field of a packet the book keeps once it is final
SettledPacket = namedtuple("SettledPacket", "status")


class PacketBook:
    """Every packet of a run.

    The engine adds each new packet's `PacketStat` to `live` under its pid.
    Every later write to the stat comes from a node that holds the pid, so
    when its last hold goes the stat is final and the engine calls
    `retire`. That folds the stat into `settled`, a count per status,
    `transmitted`, the count of retired packets sent at least once,
    `attempts`, the sum of their attempts, and `latency`, the `ExactSum`
    of `delivered_at - generated_at` over the retired delivered ones.
    `len` counts every packet.
    `values()` yields one record per packet with its `status`: one shared
    read-only `SettledPacket` per status of the retired ones, repeated by
    its count, then the live stats. A retired pid has no record to look up.
    """

    __slots__ = ("live", "settled", "transmitted", "attempts", "latency")

    def __init__(self):
        self.live: dict[int, PacketStat] = {}
        self.settled: Counter = Counter()
        self.transmitted = 0
        self.attempts = 0
        self.latency = ExactSum()

    def __len__(self) -> int:
        return self.settled.total() + len(self.live)

    def values(self):
        return chain(_settled_records(SettledPacket, self.settled), self.live.values())

    def retire(self, pid: int) -> None:
        stat = self.live.pop(pid)
        self.settled[stat.status] += 1
        if stat.attempts:
            self.transmitted += 1
            self.attempts += stat.attempts
        if stat.status == "delivered":
            self.latency.add(stat.delivered_at - stat.generated_at)


@dataclass(slots=True)
class AttemptRow:
    """One hop attempt: the sender's in-flight handle while on the air, and
    the payload of its arrival, ack and timeout events.

    A sent row starts `pending` and settles as `ack` or `timeout`, whichever
    event reaches the sender first; one whose debit could not be paid is
    `blocked`. A row still `pending` at the end of the run had its timeout
    fall past the duration. The ledger keeps only counts (`AttemptLog`).
    """

    t: float
    pid: int
    session: int
    node: int
    successor: int
    action: float             # power level actually paid for, 0 when blocked
    outcome: str              # pending | ack | timeout | blocked


ATTEMPT_OUTCOMES = frozenset(("pending", "ack", "timeout", "blocked"))

# what iterating an `AttemptLog` yields for an attempt: its outcome
SettledAttempt = namedtuple("SettledAttempt", "outcome")


class AttemptLog:
    """Every hop attempt of a run: `count`, and `settled`, a count per
    settled outcome. `book(row)` counts a new `AttemptRow`, and its outcome
    when it is settled at once (`blocked`); `settle(row, outcome)` sets a
    pending row's outcome and counts it. `settle` is the one writer of
    `row.outcome` after the row is made, so the counts cannot drift from
    the rows. Iteration yields one shared read-only `SettledAttempt` per
    attempt, grouped by outcome.
    """

    def __init__(self):
        self.count = 0
        self.settled: Counter = Counter()

    def book(self, row: AttemptRow) -> None:
        self.count += 1
        if row.outcome != "pending":
            self.settled[row.outcome] += 1

    def settle(self, row: AttemptRow, outcome: str) -> None:
        row.outcome = outcome
        self.settled[outcome] += 1

    def outcomes(self) -> Counter:
        """Attempts per outcome; `pending` counts those not yet settled."""
        return self.settled + Counter(pending=self.count - self.settled.total())

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        return _settled_records(SettledAttempt, self.outcomes())


class ZoneBook:
    """The (t, zone, energy, seconds) rows of one kind, waste or investment,
    kept as a count and sums that do not grow with the run.

    `append` books a row unless its energy and seconds are both 0. It adds
    them to `window_energy[w]` and `window_seconds[w]`, the running sums of
    window w = int(t / window) of the series (the last window also takes
    the rows at or past its end), so each is the float a sequential sum
    over its rows in append order gives. It adds them to the zone's
    `ExactSum`s, `energy[zone]` and `seconds[zone]`. `len` counts rows.
    Iteration yields one row (nan, zone, energy, seconds) per zone with any
    row: the zone's two exact sums, which have no one time.
    """

    __slots__ = ("count", "window", "window_energy", "window_seconds", "energy", "seconds")

    def __init__(self, window: float):
        self.count = 0
        self.window = window
        self.window_energy = [0.0] * SERIES_WINDOWS
        self.window_seconds = [0.0] * SERIES_WINDOWS
        self.energy: defaultdict[int, ExactSum] = defaultdict(ExactSum)
        self.seconds: defaultdict[int, ExactSum] = defaultdict(ExactSum)

    def append(self, t: float, zone: int, energy: float, seconds: float) -> None:
        # the ledger's `record_waste` and `record_invest`, called on every
        # acknowledged hop: kept to this one call
        if energy or seconds:
            self.count += 1
            w = int(t / self.window)  # t >= 0
            if w >= SERIES_WINDOWS:
                w = SERIES_WINDOWS - 1
            self.window_energy[w] += energy
            self.window_seconds[w] += seconds
            self.energy[zone].add(energy)
            self.seconds[zone].add(seconds)

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        for zone, energy in self.energy.items():
            yield math.nan, zone, energy.value(), self.seconds[zone].value()

    def totals(self) -> tuple[float, float]:
        """(energy, seconds) over every row, each an exact sum."""
        return (math.fsum(chain.from_iterable(self.energy.values())),
                math.fsum(chain.from_iterable(self.seconds.values())))


class DebitBook:
    """How many debits a run booked, and the exact joules per node.

    `paid[node]` is the `ExactSum` the ledger adds each of the node's
    debits to, so its value, or an fsum over every node's floats, gives the
    float an fsum over the debit rows would. `len` counts debits.
    """

    __slots__ = ("count", "paid")

    def __init__(self):
        self.count = 0
        self.paid: defaultdict[int, ExactSum] = defaultdict(ExactSum)

    def __len__(self) -> int:
        return self.count


class MetricsLedger:
    """Every book of one run. `duration` sets the series windows the zone
    books sum over; with no duration there is no series, and every row
    joins window 0."""

    def __init__(self, duration: float = 0.0):
        self.duration = duration
        self.initial_energy: dict[int, float] = {}
        self.final_energy: dict[int, float] = {}
        self.debits = DebitBook()
        self.message_count = 0
        self.packets = PacketBook()
        self.attempts = AttemptLog()
        window = duration / SERIES_WINDOWS if duration > 0.0 else math.inf
        self.waste_rows = ZoneBook(window)
        self.invest_rows = ZoneBook(window)
        # record_waste(t, zone, energy, seconds) and record_invest(...): a
        # row of the book, none when energy and seconds are both 0
        self.record_waste = self.waste_rows.append
        self.record_invest = self.invest_rows.append

    def record_debit(self, node: int, kind: str, joules: float) -> None:
        # the hottest call of a run; the book does not keep `kind`
        book = self.debits
        book.paid[node].add(joules)
        book.count += 1

    def record_debits(self, nodes: list[int], kind: str, joules: list[float]) -> None:
        """`record_debit(nodes[i], kind, joules[i])` for each i in order."""
        paid = self.debits.paid
        for node, x in zip(nodes, joules):
            paid[node].add(x)
        self.debits.count += len(nodes)

    def total_debits(self) -> float:
        return math.fsum(chain.from_iterable(self.debits.paid.values()))

    @property
    def debit_count(self) -> int:
        return self.debits.count

    def energy_by_node(self) -> dict[int, float]:
        """Joules debited from each node that paid any, an exact sum each."""
        return {node: paid.value() for node, paid in self.debits.paid.items()}

    def zone_sums(self) -> dict[int, tuple[float, float, float, float]]:
        """Per zone with any row: (waste energy, waste time, investment
        energy, investment time), each an exact sum."""
        waste, invest = self.waste_rows, self.invest_rows
        sums = (waste.energy, waste.seconds, invest.energy, invest.seconds)
        none = ExactSum()
        return {zone: tuple(book.get(zone, none).value() for book in sums)
                for zone in dict.fromkeys(chain(waste.energy, invest.energy))}

    def status_counts(self) -> Counter:
        """Packets per status."""
        book = self.packets
        return book.settled + Counter(map(attrgetter("status"), book.live.values()))

    def outcome_counts(self) -> Counter:
        """Hop attempts per outcome."""
        return self.attempts.outcomes()


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
    transmitted; ADL averages delivered packets only. Retired packets count
    through the book's running state, live ones stat by stat.
    """
    ec = math.fsum(
        ledger.initial_energy[n] - ledger.final_energy.get(n, ledger.initial_energy[n])
        for n in ledger.initial_energy
    )
    book = ledger.packets
    live = book.live.values()
    transmitted = book.transmitted + sum(1 for p in live if p.attempts > 0)
    delivered = [p for p in live if p.status == "delivered"]
    n_delivered = book.settled["delivered"] + len(delivered)
    ntg = 100.0 * n_delivered / transmitted if transmitted else None
    adl = (
        math.fsum(chain(book.latency, (p.delivered_at - p.generated_at for p in delivered)))
        / n_delivered
        if n_delivered
        else 0.0
    )
    total = len(ledger.initial_energy)
    alive = sum(1 for n in ledger.initial_energy if ledger.final_energy.get(n, 1.0) > 0.0)
    paln = 100.0 * alive / total if total else 100.0
    we, wt = ledger.waste_rows.totals()
    ie, it = ledger.invest_rows.totals()
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
    packet status and attempt outcome is known, the packets' attempts add
    up to the hop attempts booked, and no zone wastes more energy or time
    than it invested.

    Each debit rounds a battery by at most half an ulp of its initial
    energy, and a node's drop, initial - final, rounds by one more half ulp.
    So the debits may miss a node's drop by `debit_count` ulps of its
    initial energy, and miss `ec` by as many ulps of the largest one: that
    is the absolute slack, or 1e-9 J if more, beside a relative 1e-9."""
    problems = []
    debits, count, initial = ledger.total_debits(), ledger.debit_count, ledger.initial_energy
    slack = max(1e-9, count * math.ulp(max(initial.values(), default=0.0)))
    if not math.isclose(debits, report.ec, rel_tol=1e-9, abs_tol=slack):
        problems.append("debits sum to %r J but ec is %r J" % (debits, report.ec))
    paid = ledger.energy_by_node()
    for node, start in initial.items():
        drop, debited = start - ledger.final_energy.get(node, start), paid.get(node, 0.0)
        slack = max(1e-9, count * math.ulp(start))
        if not math.isclose(debited, drop, rel_tol=1e-9, abs_tol=slack):
            problems.append("node %d paid %r J but its energy dropped %r J" % (node, debited, drop))
    unknown = sorted(ledger.status_counts().keys() - PACKET_STATUSES)
    if unknown:
        problems.append("packet statuses outside the known set: %s" % unknown)
    unknown = sorted(ledger.outcome_counts().keys() - ATTEMPT_OUTCOMES)
    if unknown:
        problems.append("attempt outcomes outside the known set: %s" % unknown)
    book = ledger.packets
    sent = book.attempts + sum(p.attempts for p in book.live.values())
    if sent != len(ledger.attempts):
        problems.append("the packets were sent %d times but %d hop attempts were booked"
                        % (sent, len(ledger.attempts)))
    for zone, (we, wt, ie, it) in sorted(ledger.zone_sums().items()):
        for label, w, i in (("energy", we, ie), ("time", wt, it)):
            if w > i * (1.0 + 1e-9) + 1e-12:
                problems.append("zone %d wastes %r of %s but invested %r" % (zone, w, label, i))
    return problems


def windowed_waste_series(ledger: MetricsLedger) -> list[tuple[float, float, float]]:
    """(window start, AWE, AWT) per window, each from that window's rows only.

    The SERIES_WINDOWS windows of duration / SERIES_WINDOWS seconds tile
    [0, duration), and a row at the duration joins the last one; a window
    with no investment reports zeros. The ledger's duration is positive:
    `Simulator.run` asks for no series of a zero-length run.
    """
    waste, invest = ledger.waste_rows, ledger.invest_rows
    window = invest.window
    out = []
    for w, (we, wt, ie, it) in enumerate(zip(waste.window_energy, waste.window_seconds,
                                             invest.window_energy, invest.window_seconds)):
        awe = 100.0 * we / ie if ie > 0.0 else 0.0
        awt = 100.0 * wt / it if it > 0.0 else 0.0
        out.append((w * window, awe, awt))
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
