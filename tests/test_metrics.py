import copy
import dataclasses
import math
import random
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from oracles import LedgerSpy, oracle_packet_metrics, oracle_waste_fraction

from rltrc import metrics
from rltrc.engine import Simulator
from rltrc.metrics import (
    CSV_VERSION_HEADER,
    ROW_FOLD,
    SERIES_WINDOWS,
    AttemptLog,
    AttemptRow,
    ExactSum,
    MetricsLedger,
    PacketBook,
    PacketStat,
    ZoneBook,
    compute_metrics,
    emit_csv,
    invariant_problems,
    render_csv,
    windowed_waste_series,
)
from rltrc.scenarios import names, scenario


def ledger_with(
    packets=(),
    waste=(),
    invest=(),
    initial=None,
    final=None,
    duration=0.0,
    messages=0,
):
    led = MetricsLedger(duration=duration)
    led.initial_energy = dict(initial or {})
    led.final_energy = dict(final if final is not None else led.initial_energy)
    led.message_count = messages
    for pid, stat in enumerate(packets, start=1):
        led.packets.live[pid] = stat
    for row in waste:
        led.record_waste(*row)
    for row in invest:
        led.record_invest(*row)
    return led


def awkward_amount(rng, low=-9, high=9):
    """A positive float of magnitude 10**low to 10**high, often a decimal
    with no exact binary form, so that summation order and rounding show."""
    return rng.choice([0.1, 0.3, 0.7, rng.random()]) * 10.0 ** rng.randint(low, high)


def random_rows(rng, n, duration):
    """n (t, zone, energy, seconds) rows in ascending time."""
    times = sorted(rng.uniform(0.0, duration) for _ in range(n))
    return [(t, rng.randrange(12), awkward_amount(rng), awkward_amount(rng)) for t in times]


def series_of_rows(waste, invest, duration, window_len):
    """windowed_waste_series over plain lists of row tuples, summed in list
    order: the reference the column-stored ledger must reproduce."""
    n_windows = max(1, math.ceil(duration / window_len - 1e-12))
    sums = [[0.0] * n_windows for _ in range(4)]
    for rows, (e_sum, t_sum) in ((waste, sums[:2]), (invest, sums[2:])):
        for t, _zone, e, tm in rows:
            w = min(n_windows - 1, max(0, int(t / window_len)))
            e_sum[w] += e
            t_sum[w] += tm
    we, wt, ie, it = sums
    return [
        (w * window_len,
         100.0 * we[w] / ie[w] if ie[w] > 0.0 else 0.0,
         100.0 * wt[w] / it[w] if it[w] > 0.0 else 0.0)
        for w in range(n_windows)
    ]


def rows_with_borders(rng, n, duration):
    """`random_rows`, plus rows at t = 0, on window borders and at the
    duration itself, which joins the last window; in ascending time."""
    window = duration / SERIES_WINDOWS
    times = [0.0, window, 7 * window, duration]
    rows = [(t, rng.randrange(12), awkward_amount(rng), awkward_amount(rng)) for t in times]
    return sorted(rows + random_rows(rng, n, duration), key=lambda row: row[0])


def folds_of(monkeypatch, sums):
    """The keys of `sums` whose `ExactSum` buffer each later `exact_partials`
    call is given, in call order; None for a buffer no sum of `sums` holds."""
    folded = []
    fold = metrics.exact_partials

    def spy(buf):
        folded.append(next((key for key, held in sums.items() if held.buf is buf), None))
        return fold(buf)

    monkeypatch.setattr(metrics, "exact_partials", spy)
    return folded


class TestExactSum:
    def test_value_and_floats_stay_exact_across_folds(self, monkeypatch):
        """After every add, `value()` and an fsum over the floats iterated
        equal an fsum over every float added, bit for bit. The add that
        brings the buffer to ROW_FOLD floats folds it, and no other add
        does, so the buffer never holds ROW_FOLD floats. Most trials fold
        at 6 to 64 floats, read at call time; the last at the ledger's own
        ROW_FOLD."""
        rng = random.Random(27)
        sums = {}
        folded = folds_of(monkeypatch, sums)
        for trial in range(21):
            monkeypatch.setattr(metrics, "ROW_FOLD",
                                ROW_FOLD if trial == 20 else rng.choice([6, 8, 16, 64]))
            total = sums["sum"] = ExactSum()
            added = []
            for _ in range(5 * metrics.ROW_FOLD):
                folds = len(folded) + (len(total.buf) + 1 == metrics.ROW_FOLD)
                added.append(awkward_amount(rng, -12, 12))
                total.add(added[-1])
                assert len(folded) == folds and len(total.buf) < metrics.ROW_FOLD
                assert total.value() == math.fsum(total) == math.fsum(added)
            assert folded.count("sum") >= 5 * trial + 5 and None not in folded

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_a_sum_of_inf_or_nan_keeps_its_buffer_and_is_not_summed_again(self, monkeypatch, bad):
        """inf and nan have no partials: the add that brings the buffer to
        ROW_FOLD floats leaves it as it was, and later adds grow it past
        ROW_FOLD without summing it again."""
        total = ExactSum()
        kept = total.buf
        for x in [1.0] * (ROW_FOLD - 1) + [bad]:
            total.add(x)
        assert total.buf is kept and list(kept[:-1]) == [1.0] * (ROW_FOLD - 1)
        folded = folds_of(monkeypatch, {"sum": total})
        for _ in range(ROW_FOLD):
            total.add(2.0)
        assert folded == [] and total.buf is kept and len(kept) == 2 * ROW_FOLD
        assert repr(total.value()) == repr(bad)


class TestZoneBook:
    ROWS = [(0.5, 3, 0.1, 2.0), (1.25, 0, 2e-9, 0.0), (1.25, 7, 3.0e4, 0.25), (2.0, 3, 0.2, 0.0),
            (2.5, 7, 0.0, 0.0)]

    def book(self):
        book = ZoneBook(1.0)
        for row in self.ROWS:
            book.append(*row)
        return book

    def test_len_and_iteration(self, monkeypatch):
        """`len` counts rows but the all-zero one; iteration yields one row
        per zone, in the order the zones were first booked, whose energy
        and seconds are fsums over the zone's rows, and yields it again when
        repeated. A zone whose sums folded yields the same floats."""
        book = self.book()
        assert len(book) == 4 and len(ZoneBook(1.0)) == 0 and list(ZoneBook(1.0)) == []
        want = [(z, math.fsum(r[2] for r in self.ROWS if r[1] == z),
                 math.fsum(r[3] for r in self.ROWS if r[1] == z)) for z in (3, 0, 7)]
        # 0.1 + 0.2 is no float: zone 3's energy is its exact sum, rounded once
        assert want == [(3, 0.30000000000000004, 2.0), (0, 2e-9, 0.0), (7, 3.0e4, 0.25)]
        rows = list(book)
        assert [row[1:] for row in rows] == want
        assert all(math.isnan(row[0]) for row in rows)
        assert [row[1:] for row in book] == want
        # at 2, zone 3's energy folds to two partials
        for fold in (2, 3):
            monkeypatch.setattr(metrics, "ROW_FOLD", fold)
            assert [row[1:] for row in self.book()] == want

    def test_deepcopy_is_equal_and_independent(self):
        book = self.book()
        clone = copy.deepcopy(book)
        assert list(clone)[1:] == list(book)[1:]
        clone.append(9.0, 1, 1.0, 0.5)
        assert len(clone) == 5 and len(book) == 4
        assert {row[1] for row in clone} == {0, 1, 3, 7} and {row[1] for row in book} == {0, 3, 7}
        assert clone.window_energy[9] == 1.0 and book.window_energy[9] == 0.0

    def test_sums_match_fsum_over_tuples_bit_for_bit(self, monkeypatch):
        """Counts, AWE, AWT, per-zone sums and the windowed series of the
        ledger's own duration / SERIES_WINDOWS windows equal len, fsum and
        sequential sums over the rows booked, bit for bit. Most trials fold
        a zone's sums every 3 or 7 rows; the last use the ledger's own
        ROW_FOLD, and two of them book enough rows to fold at it."""
        rng = random.Random(20)
        for trial in range(24):
            monkeypatch.setattr(metrics, "ROW_FOLD",
                                ROW_FOLD if trial >= 20 else rng.choice([3, 7]))
            duration = rng.choice([1.0, 60.0, 1200.0])
            many = 40 * metrics.ROW_FOLD if trial >= 22 else 300
            waste = rows_with_borders(rng, rng.randint(0, many), duration)
            invest = rows_with_borders(rng, rng.randint(1, many), duration)
            debits = [(zone, rng.choice(["tx", "rx", "flood"]), e)
                      for _t, zone, e, _ in random_rows(rng, rng.randint(0, 300), duration)]
            led = ledger_with(waste=waste, invest=invest, duration=duration)
            for row in debits:
                led.record_debit(*row)
            assert led.total_debits() == math.fsum(r[2] for r in debits)
            assert (len(led.waste_rows), len(led.invest_rows)) == (len(waste), len(invest))
            rep = compute_metrics(led)
            ie, it = math.fsum(r[2] for r in invest), math.fsum(r[3] for r in invest)
            assert rep.awe == 100.0 * math.fsum(r[2] for r in waste) / ie
            assert rep.awt == 100.0 * math.fsum(r[3] for r in waste) / it
            assert windowed_waste_series(led) == series_of_rows(
                waste, invest, duration, duration / SERIES_WINDOWS)
            assert led.zone_sums() == {
                z: tuple(math.fsum(r[col] for r in rows if r[1] == z)
                         for rows in (waste, invest) for col in (2, 3))
                for z in {r[1] for r in waste + invest}}
            for book, rows in ((led.waste_rows, waste), (led.invest_rows, invest)):
                if metrics.ROW_FOLD == ROW_FOLD:  # far more than a sum's partials
                    assert all(len(total.buf) < ROW_FOLD
                               for total in [*book.energy.values(), *book.seconds.values()])
                booked = {r[1] for r in rows if r[2] or r[3]}
                yielded = list(book)
                assert len(yielded) == len(booked)
                assert {r[1]: r[2:] for r in yielded} == {
                    z: tuple(math.fsum(r[c] for r in rows if r[1] == z) for c in (2, 3))
                    for z in booked}

    def test_a_buffer_whose_energy_sums_to_inf_is_not_summed_again(self, monkeypatch):
        """inf has no partials: the row that brings zone 2's sums to
        ROW_FOLD floats keeps its energies as they were and folds its
        seconds. Later rows grow the energy buffer past ROW_FOLD without
        summing it again while the seconds fold on, and the sums stay
        exact."""
        book = ZoneBook(1.0)
        rows = ROW_FOLD
        book.append(0.0, 2, math.inf, 0.5)
        kept = book.energy[2].buf
        for _ in range(rows - 1):
            book.append(0.0, 2, 1.0, 0.5)
        assert book.energy[2].buf is kept and list(kept) == [math.inf] + [1.0] * (rows - 1)
        assert list(book.seconds[2]) == [0.5 * rows]
        assert [row[1:] for row in book] == [(2, math.inf, 0.5 * rows)]
        folded = folds_of(monkeypatch, {"energy": book.energy[2], "seconds": book.seconds[2]})
        for _ in range(rows):
            book.append(0.0, 2, 1.0, 0.5)
        assert folded == ["seconds"] and book.energy[2].buf is kept and len(kept) == 2 * rows
        assert book.totals() == (math.inf, 0.5 * 2 * rows)
        # a nan energy makes the zone's sum nan, which its row passes on too
        book.append(0.0, 5, math.nan, 1.0)
        book.append(0.0, 5, 1.0, 1.0)
        (_t, zone, energy, seconds), = [row for row in book if row[1] == 5]
        assert zone == 5 and math.isnan(energy) and seconds == 2.0

    def test_a_folded_row_costs_no_memory(self):
        """100 000 rows booked to four zones grow the heap by less than
        twice the four zones' energy and seconds buffers of ROW_FOLD floats;
        typed columns kept every row at 28 bytes, 2.8 MB."""
        led = MetricsLedger(duration=100.0)
        rng = random.Random(28)
        amounts = [awkward_amount(rng) for _ in range(997)]

        def book(start, stop):
            for k in range(start, stop):
                led.record_invest(k * 1e-3, k % 4, amounts[k % 997], amounts[-k % 997])

        book(0, 1_000)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            book(1_000, 101_000)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(led.invest_rows) == 101_000
        assert grown < 2 * 4 * 2 * ROW_FOLD * 8


def book_debits(led, rng, count, nodes, magnitudes):
    """Book at least `count` debits of awkward amounts to `nodes`, as a mix
    of single debits and batches of 1-40 (a node may repeat in a batch)."""
    booked = 0
    while booked < count:
        if rng.random() < 0.5:
            led.record_debit(rng.choice(nodes), "tx", awkward_amount(rng, *magnitudes))
            booked += 1
        else:
            batch = [rng.choice(nodes) for _ in range(rng.randint(1, 40))]
            led.record_debits(batch, "flood", [awkward_amount(rng, *magnitudes) for _ in batch])
            booked += len(batch)


class TestDebitBook:
    def test_answers_stay_exact_across_folds(self, monkeypatch):
        """Count, total and per-node joules equal len and fsum over every
        row booked, bit for bit, after at least three folds of every node's
        buffer, and no buffer is left holding ROW_FOLD floats or more. Most
        trials fold at 6 to 64 floats, so a batch often folds a buffer
        partway through; the last uses the ledger's own ROW_FOLD."""
        rng = random.Random(22)
        for trial in range(31):
            monkeypatch.setattr(metrics, "ROW_FOLD",
                                ROW_FOLD if trial == 30 else rng.choice([6, 8, 16, 64]))
            led = MetricsLedger()
            spy = LedgerSpy(led)
            folded = folds_of(monkeypatch, led.debits.paid)
            nodes = rng.sample(range(50), 4)
            book_debits(led, rng, 6 * len(nodes) * metrics.ROW_FOLD, nodes, (-12, 12))
            folds = Counter(folded)
            assert min(folds[n] for n in nodes) >= 3 and None not in folds
            assert all(len(paid.buf) < metrics.ROW_FOLD for paid in led.debits.paid.values())
            rows = spy.debit_calls
            assert led.debit_count == len(led.debits) == len(rows)
            assert led.total_debits() == math.fsum(r[2] for r in rows)
            paid = led.energy_by_node()
            assert paid == {n: math.fsum(r[2] for r in rows if r[0] == n) for n in nodes}
            assert list(paid) == list(dict.fromkeys(r[0] for r in rows))  # first-paid order

    def test_a_buffer_that_sums_to_inf_is_kept_as_it_is(self, monkeypatch):
        """inf has no partials: the batch that brings node 0's buffer to
        ROW_FOLD leaves it as it was and folds node 1's; the total stays
        inf. Later debits grow the kept buffer past ROW_FOLD without summing
        it again, while node 1's folds each time it reaches ROW_FOLD."""
        n = ROW_FOLD
        led = MetricsLedger()
        book = led.debits
        kept = book.paid[0].buf
        led.record_debits([0] * n + [1] * n, "tx", [1.0] * (n - 1) + [math.inf] + [0.5] * n)
        assert book.paid[0].buf is kept and list(kept) == [1.0] * (n - 1) + [math.inf]
        assert list(book.paid[1]) == [0.5 * n]
        assert led.total_debits() == math.inf
        folded = folds_of(monkeypatch, book.paid)
        for _ in range(n - 1):
            led.record_debit(0, "tx", 2.0)
            led.record_debits([1, 0, 0], "rx", [0.5, 0.25, 0.25])
        assert folded == [1]
        assert book.paid[0].buf is kept and len(kept) == 4 * n - 3
        assert list(book.paid[1]) == [0.5 * (2 * n - 1)]
        assert led.total_debits() == math.inf and led.debit_count == 6 * n - 4

    def test_memory_stays_flat_past_the_first_folds(self):
        """100 000 to 300 000 debits over 100 nodes: the book's heap grows by
        less than a fixed bound, where a row per debit took 5.6 MB. Each
        node's buffer holds fewer than ROW_FOLD joules (1 KB) at any time."""
        rng = random.Random(23)
        amounts = [awkward_amount(rng) for _ in range(997)]
        batch_nodes = [rng.randrange(100) for _ in range(30)]
        batch_joules = amounts[:30]
        led = MetricsLedger()

        def book(start, stop):
            for i in range(start, stop, 50):  # 20 single debits and a batch of 30
                for k in range(i, i + 20):
                    led.record_debit(k % 100, "tx", amounts[k % 997])
                led.record_debits(batch_nodes, "flood", batch_joules)

        tracemalloc.start()
        try:
            book(0, 100_000)
            before = tracemalloc.get_traced_memory()[0]
            book(100_000, 300_000)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert led.debit_count == 300_000
        assert all(len(paid.buf) < ROW_FOLD for paid in led.debits.paid.values())
        assert grown < 2 * 100 * ROW_FOLD * 8


@pytest.mark.parametrize("name", names())
def test_no_ledger_buffer_holds_row_fold_floats_after_a_canned_run(name):
    """The buffer of every `ExactSum` of a finished canned run's books, each
    node's debits, each zone's waste and investment energy and seconds, and
    the delivered latencies, holds fewer than ROW_FOLD floats."""
    sim = Simulator(scenario(name, seed=1))
    sim.run()
    led = sim.ledger
    sums = [*led.debits.paid.values(), led.packets.latency]
    for book in (led.waste_rows, led.invest_rows):
        sums += [*book.energy.values(), *book.seconds.values()]
    assert len(led.debits.paid) == len(sim.nodes)
    assert max(len(total.buf) for total in sums) < ROW_FOLD


def attempt_row(rng, outcome):
    """A row with awkward values in every field and the given outcome."""
    return AttemptRow(t=awkward_amount(rng, -3, 4), pid=rng.randrange(1, 1 << 40),
                      session=rng.randrange(10_000), node=rng.randrange(100_000),
                      successor=rng.randrange(100_000),
                      action=0.0 if outcome == "blocked" else awkward_amount(rng, -1, 2),
                      outcome=outcome)


class TestAttemptLog:
    def test_iteration_yields_each_booked_outcome_as_rows_settle(self):
        """Rows are booked pending or blocked and settle later, as the
        engine's do. After every round the log counts each settled outcome
        and the pending rest; `len` counts every row, and iteration yields
        one record per row with its outcome, one shared read-only record
        per outcome."""
        rng = random.Random(24)
        log = AttemptLog()
        booked = []
        for _ in range(30):
            for row in booked:
                if row.outcome == "pending" and rng.random() < 0.7:
                    outcome = rng.choice(["ack", "timeout"])
                    log.settle(row, outcome)
                    assert row.outcome == outcome
            for _ in range(rng.randrange(40)):
                row = attempt_row(rng, rng.choice(["pending", "pending", "blocked"]))
                log.book(row)
                booked.append(row)
            outcomes = Counter(row.outcome for row in booked)
            assert log.settled == outcomes - Counter(pending=outcomes["pending"])
            yielded = list(log)
            assert len(log) == len(yielded) == len(booked)
            assert Counter(r.outcome for r in yielded) == outcomes
            shared = {id(r): r for r in yielded}.values()
            assert sorted(r.outcome for r in shared) == sorted(outcomes)
            for record in shared:
                with pytest.raises(AttributeError):
                    record.outcome = "pending"
        assert log.settled.total() > len(booked) // 2  # most rows settled

    def test_pending_counts_the_attempts_not_yet_settled(self):
        rng = random.Random(25)
        rows = [attempt_row(rng, outcome) for outcome in ["ack", "pending", "timeout", "blocked"]]
        log = AttemptLog()
        for row in rows:
            log.book(row)
        assert log.settled == {"ack": 1, "timeout": 1, "blocked": 1}
        assert log.outcomes() == {"ack": 1, "pending": 1, "timeout": 1, "blocked": 1}
        log.settle(rows[1], "ack")
        assert rows[1].outcome == "ack" and len(log) == 4
        assert log.outcomes() == log.settled == {"ack": 2, "timeout": 1, "blocked": 1}
        assert Counter(r.outcome for r in log) == Counter(r.outcome for r in rows)
        assert AttemptLog().outcomes() == {} and list(AttemptLog()) == []

    def test_unknown_outcome_is_counted_and_reported(self):
        led, rep = balanced_run(outcome="nack")
        assert led.outcome_counts() == {"nack": 1, "timeout": 1, "blocked": 1, "pending": 1}
        assert invariant_problems(led, rep) == ["attempt outcomes outside the known set: ['nack']"]
        # booked among settled rows, or set by a settle
        rng = random.Random(26)
        led = MetricsLedger()
        for outcome in ["ack", "timeout", "nack", "pending"]:
            led.attempts.book(attempt_row(rng, outcome))
        row = attempt_row(rng, "pending")
        led.attempts.book(row)
        led.attempts.settle(row, "lost")
        assert led.outcome_counts() == {"ack": 1, "timeout": 1, "nack": 1, "lost": 1,
                                        "pending": 1}
        # this ledger has attempts but no packets, which is reported too
        assert invariant_problems(led, compute_metrics(led)) == [
            "attempt outcomes outside the known set: ['lost', 'nack']",
            "the packets were sent 0 times but 5 hop attempts were booked"]

    def test_deepcopy_is_equal_and_independent(self):
        rng = random.Random(29)
        log = AttemptLog()
        rows = [attempt_row(rng, outcome) for outcome in ["ack", "timeout", "pending", "ack"]]
        for row in rows:
            log.book(row)
        clone = copy.deepcopy(log)
        assert list(clone) == list(log) and clone.outcomes() == log.outcomes()
        clone.book(attempt_row(rng, "ack"))
        clone.settle(attempt_row(rng, "pending"), "ack")
        assert len(clone) == 5 and clone.outcomes() == {"ack": 4, "timeout": 1}
        assert len(log) == 4 and log.outcomes() == {"ack": 2, "timeout": 1, "pending": 1}

    def test_outcome_counts_equal_a_counter_over_the_rows(self):
        rng = random.Random(27)
        led = MetricsLedger()
        booked = []
        outcomes = ["ack"] * 6 + ["timeout", "blocked", "pending"]
        for _ in range(20):
            for _ in range(rng.randrange(30)):
                booked.append(attempt_row(rng, rng.choice(outcomes)))
                led.attempts.book(booked[-1])
            for row in [row for row in booked if row.outcome == "pending"][:5]:
                led.attempts.settle(row, "timeout")
            assert led.outcome_counts() == Counter(row.outcome for row in booked)
            assert led.outcome_counts() == Counter(row.outcome for row in led.attempts)
        assert led.attempts.settled.total() > 100

    def test_an_attempt_costs_no_memory(self):
        """100 000 rows, booked and settled, grow the heap by a few counts,
        not a byte a row; typed columns took 37 bytes a row, an
        `AttemptRow` with its floats about 120."""
        log = AttemptLog()
        outcomes = ["ack", "timeout", "blocked"] * 667
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for k in range(50):
                for outcome in outcomes[:2_000]:
                    row = AttemptRow(float(k), k, 0, 1, 2, 5.0,
                                     "blocked" if outcome == "blocked" else "pending")
                    log.book(row)
                    if outcome != "blocked":
                        log.settle(row, outcome)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(log) == log.settled.total() == 100_000
        assert log.outcomes() == {"ack": 33_350, "timeout": 33_350, "blocked": 33_300}
        assert grown < 10_000


def packet_stat(rng):
    """A stat in any known status, sent 0-3 times, delivered after an
    awkward latency when its status says so."""
    status = rng.choice(sorted(metrics.PACKET_STATUSES))
    generated = awkward_amount(rng, -3, 3)
    return PacketStat(generated_at=generated,
                      delivered_at=generated + awkward_amount(rng, -4, 1)
                      if status == "delivered" else None,
                      attempts=rng.randrange(4), status=status)


class TestPacketBook:
    def test_retired_packets_answer_as_live_ones(self, monkeypatch):
        """However many packets retire, and however often the latencies
        fold, the status counts, NTG and ADL equal the oracle's over every
        stat, bit for bit; `len` counts every packet, and `values()` yields
        one shared read-only record per retired status, then the live
        stats themselves."""
        rng = random.Random(30)
        for trial in range(20):
            monkeypatch.setattr(metrics, "ROW_FOLD", ROW_FOLD if trial >= 16 else 5)
            stats = [packet_stat(rng) for _ in range(rng.randrange(2 * metrics.ROW_FOLD))]
            led = ledger_with(packets=stats)
            retired = [pid for pid in range(1, len(stats) + 1) if rng.random() < 0.8]
            for pid in retired:
                led.packets.retire(pid)
            book = led.packets
            statuses, ntg, adl = oracle_packet_metrics(stats)
            rep = compute_metrics(led)
            assert (rep.ntg, rep.adl) == (ntg, adl)
            assert led.status_counts() == statuses
            assert book.settled == Counter(stats[pid - 1].status for pid in retired)
            assert len(book) == len(stats) and len(book.live) == len(stats) - len(retired)
            assert len(book.latency.buf) < metrics.ROW_FOLD
            yielded = list(book.values())
            assert Counter(p.status for p in yielded) == statuses
            assert all(a is b for a, b in zip(yielded[len(retired):], book.live.values()))
            for record in {id(r): r for r in yielded[:len(retired)]}.values():
                with pytest.raises(AttributeError):
                    record.status = "pending"

    def test_a_retired_packet_costs_no_memory(self):
        """100 000 packets, each retired after its last write, grow the heap
        by less than two latency buffers of ROW_FOLD floats; a `PacketStat`
        with its pid and time floats took about 140 bytes a packet."""
        book = PacketBook()
        rng = random.Random(31)
        stats = [packet_stat(rng) for _ in range(997)]

        def run(start, stop):
            for pid in range(start, stop):
                book.live[pid] = copy.copy(stats[pid % 997])
                book.retire(pid)

        run(0, 1_000)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run(1_000, 101_000)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(book) == book.settled.total() == 101_000 and book.live == {}
        assert grown < 2 * ROW_FOLD * 8


class TestLedgerAnswers:
    def test_answers_match_fsum_over_tuples_bit_for_bit(self):
        rng = random.Random(21)
        for trial in range(20):
            waste = random_rows(rng, rng.randint(0, 300), 60.0)
            invest = random_rows(rng, rng.randint(0, 300), 60.0)
            debits = [(node, "tx", e)
                      for _t, node, e, _ in random_rows(rng, rng.randint(0, 300), 60.0)]
            led = ledger_with(waste=waste, invest=invest)
            for row in debits:
                led.record_debit(*row)
            assert led.debit_count == len(debits)
            nodes = {r[0] for r in debits}
            assert led.energy_by_node() == {
                n: math.fsum(r[2] for r in debits if r[0] == n) for n in nodes}
            zones = {r[1] for r in waste + invest}
            assert led.zone_sums() == {
                z: tuple(math.fsum(r[col] for r in rows if r[1] == z)
                         for rows in (waste, invest) for col in (2, 3))
                for z in zones}

    def test_batched_debits_book_the_rows_of_single_debits(self):
        nodes, joules = [4, 0, 9, 4], [0.25, 1e-9, 3.0e4, 0.5]
        single, batched = MetricsLedger(), MetricsLedger()
        single_spy, batched_spy = LedgerSpy(single), LedgerSpy(batched)
        for node, paid in zip(nodes, joules):
            single.record_debit(node, "flood", paid)
        batched.record_debits(nodes, "flood", joules)
        assert batched_spy.debit_calls == single_spy.debit_calls
        assert batched.debit_count == single.debit_count == 4
        assert batched.total_debits() == single.total_debits() == math.fsum(joules)
        assert batched.energy_by_node() == single.energy_by_node() == {
            4: 0.75, 0: 1e-9, 9: 3.0e4}

    def test_outcome_counts(self):
        led = MetricsLedger()
        for k, outcome in enumerate(["ack", "timeout", "ack", "blocked", "pending", "ack"]):
            led.attempts.book(AttemptRow(t=k, pid=k, session=0, node=0, successor=1,
                                         action=0.0 if outcome == "blocked" else 5.0,
                                         outcome=outcome))
        assert led.outcome_counts() == {"ack": 3, "timeout": 1, "blocked": 1, "pending": 1}
        assert MetricsLedger().outcome_counts() == {}


def balanced_run(zone_of_waste=0, debit_node=1, status="dropped-link-breakage", outcome="ack",
                 waste_time=0.5, delivered_attempts=1):
    """A hand-built finished run whose books balance under the defaults.

    Node 1 pays 0.75 J and node 2 0.5 J; zone 0 invests (5, 1) and wastes
    (2, waste_time), zone 1 invests (1, 2); the packets end in every known
    status, and all but the pending one have retired; the attempts take
    every known outcome, and the packets were sent four times. Each
    argument moves one booking so that exactly one check of
    `invariant_problems` fails.
    """
    led = ledger_with(
        packets=[PacketStat(generated_at=0.0, delivered_at=1.5, attempts=delivered_attempts,
                            status="delivered"),
                 PacketStat(generated_at=2.0)]
        + [PacketStat(generated_at=1.0, attempts=attempts, status=known)
           for known, attempts in [(status, 2), ("dropped-node-death", 0),
                                   ("dropped-session-failed", 1),
                                   ("dropped-route-invalidated", 0)]],
        waste=[(1.0, zone_of_waste, 2.0, waste_time)],
        invest=[(0.5, 0, 5.0, 1.0), (1.0, 1, 1.0, 2.0)],
        initial={1: 10.0, 2: 8.0},
        final={1: 9.25, 2: 7.5},
    )
    for pid in (1, 3, 4, 5, 6):
        led.packets.retire(pid)
    for row in [(1, "tx", 0.5), (2, "rx", 0.5), (debit_node, "flood", 0.25)]:
        led.record_debit(*row)
    for k, known in enumerate([outcome, "timeout", "blocked", "pending"]):
        led.attempts.book(AttemptRow(t=0.5 + k, pid=2, session=0, node=1, successor=2,
                                     action=5.0, outcome=known))
    return led, compute_metrics(led)


class TestInvariantProblems:
    def test_balanced_run_has_none(self):
        assert invariant_problems(*balanced_run()) == []

    def test_ec_the_debits_do_not_explain(self):
        led, rep = balanced_run()
        assert invariant_problems(led, dataclasses.replace(rep, ec=rep.ec + 0.125)) == [
            "debits sum to 1.25 J but ec is 1.375 J"]

    def test_debit_booked_to_the_wrong_node(self):
        assert invariant_problems(*balanced_run(debit_node=2)) == [
            "node 1 paid 0.5 J but its energy dropped 0.75 J",
            "node 2 paid 0.75 J but its energy dropped 0.5 J"]

    def test_unknown_packet_status(self):
        assert invariant_problems(*balanced_run(status="dropped-lost")) == [
            "packet statuses outside the known set: ['dropped-lost']"]

    def test_unknown_attempt_outcome(self):
        assert invariant_problems(*balanced_run(outcome="nack")) == [
            "attempt outcomes outside the known set: ['nack']"]

    def test_packets_sent_more_often_than_attempts_booked(self):
        assert invariant_problems(*balanced_run(delivered_attempts=2)) == [
            "the packets were sent 5 times but 4 hop attempts were booked"]

    def test_waste_booked_to_the_wrong_zone(self):
        assert invariant_problems(*balanced_run(zone_of_waste=1)) == [
            "zone 1 wastes 2.0 of energy but invested 1.0"]

    def test_waste_time_over_investment(self):
        assert invariant_problems(*balanced_run(waste_time=1.5)) == [
            "zone 0 wastes 1.5 of time but invested 1.0"]


class TestComputeMetrics:
    def test_empty_ledger(self):
        rep = compute_metrics(ledger_with(initial={1: 5.0, 2: 5.0}))
        assert rep.omc == 0
        assert rep.paln == 100.0
        assert rep.ntg is None
        assert rep.ec == 0.0
        assert rep.adl == 0.0

    def test_ntg_is_delivered_over_transmitted(self):
        packets = [
            PacketStat(generated_at=0.0, attempts=1, status="delivered",
                       delivered_at=1.0)
            for _ in range(80)
        ] + [
            PacketStat(generated_at=0.0, attempts=2, status="dropped-x")
            for _ in range(20)
        ]
        rep = compute_metrics(ledger_with(packets=packets, initial={1: 1.0}))
        assert rep.ntg == pytest.approx(80.0)

    def test_untransmitted_packets_not_counted(self):
        packets = [
            PacketStat(generated_at=0.0, attempts=0, status="pending"),
            PacketStat(generated_at=0.0, attempts=1, status="delivered",
                       delivered_at=2.5),
        ]
        rep = compute_metrics(ledger_with(packets=packets, initial={1: 1.0}))
        assert rep.ntg == pytest.approx(100.0)

    def test_adl_averages_delivered_only(self):
        packets = [
            PacketStat(generated_at=1.0, attempts=1, status="delivered",
                       delivered_at=2.0),
            PacketStat(generated_at=1.0, attempts=1, status="delivered",
                       delivered_at=4.0),
            PacketStat(generated_at=0.0, attempts=3, status="dropped-x"),
        ]
        rep = compute_metrics(ledger_with(packets=packets, initial={1: 1.0}))
        assert rep.adl == pytest.approx((1.0 + 3.0) / 2.0)

    def test_waste_fractions(self):
        led = ledger_with(
            waste=[(0.0, 0, 20.0, 1.0)],
            invest=[(0.0, 0, 100.0, 10.0)],
            initial={1: 1.0},
        )
        rep = compute_metrics(led)
        assert rep.awe == pytest.approx(20.0)
        assert rep.awt == pytest.approx(10.0)

    def test_ec_sums_energy_drops(self):
        led = ledger_with(initial={1: 5.0, 2: 3.0}, final={1: 4.0, 2: 0.0})
        rep = compute_metrics(led)
        assert rep.ec == pytest.approx(4.0)
        assert rep.paln == pytest.approx(50.0)

    def test_paln_plus_dead_is_exact(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(1, 40)
            initial = {i: 1.0 for i in range(n)}
            final = {i: rng.choice([0.0, rng.random()]) for i in range(n)}
            rep = compute_metrics(ledger_with(initial=initial, final=final))
            dead = 100.0 * sum(1 for v in final.values() if v == 0.0) / n
            assert rep.paln + dead == 100.0


class TestWindowedSeries:
    # each ledger's windows are duration / SERIES_WINDOWS long: 10 s here
    DURATION = 10.0 * SERIES_WINDOWS

    def test_no_waste_is_all_zero(self):
        led = ledger_with(invest=[(t, 0, 1.0, 1.0) for t in (1.0, 11.0)], duration=self.DURATION)
        series = windowed_waste_series(led)
        assert [(awe, awt) for _, awe, awt in series] == [(0.0, 0.0)] * SERIES_WINDOWS

    def test_single_wasteful_window(self):
        led = ledger_with(
            waste=[(2.0, 0, 1.0, 0.5)],
            invest=[(t, 0, 4.0, 2.0) for t in (2.0, 12.0, 22.0)],
            duration=self.DURATION,
        )
        series = windowed_waste_series(led)
        assert series[0] == (0.0, 25.0, 25.0)
        assert series[1] == (10.0, 0.0, 0.0)
        assert series[2] == (20.0, 0.0, 0.0)

    def test_a_row_at_the_duration_joins_the_last_window(self):
        end = self.DURATION
        led = ledger_with(
            waste=[(end, 0, 1.0, 0.5)],
            invest=[(end - 5.0, 0, 2.0, 1.0), (end, 0, 2.0, 1.0)],
            duration=end,
        )
        assert windowed_waste_series(led) == (
            [(10.0 * w, 0.0, 0.0) for w in range(SERIES_WINDOWS - 1)] + [(end - 10.0, 25.0, 25.0)])

    def test_matches_flat_per_window_summation(self):
        rng = random.Random(11)
        duration = 12.5 * SERIES_WINDOWS
        waste, invest = [], []
        for _ in range(400):
            t = rng.uniform(0.0, duration)
            e, tm = rng.uniform(0.1, 5.0), rng.uniform(0.1, 2.0)
            invest.append((t, 0, e, tm))
            if rng.random() < 0.4:
                waste.append((t, 0, e * rng.random(), tm * rng.random()))
        led = ledger_with(waste=waste, invest=invest, duration=duration)
        series = windowed_waste_series(led)
        assert len(series) == SERIES_WINDOWS
        for w, (t0, awe, awt) in enumerate(series):
            lo, hi = w * 12.5, (w + 1) * 12.5
            win_w = [(r[2], r[3]) for r in waste if lo <= r[0] < hi]
            win_i = [(r[2], r[3]) for r in invest if lo <= r[0] < hi]
            exp_awe, exp_awt = oracle_waste_fraction(win_w, win_i)
            assert t0 == pytest.approx(lo)
            assert awe == pytest.approx(exp_awe, rel=1e-12)
            assert awt == pytest.approx(exp_awt, rel=1e-12)

    def test_whole_run_equals_invested_weighted_window_mean(self):
        rng = random.Random(5)
        duration = 6.0 * SERIES_WINDOWS
        waste, invest = [], []
        for _ in range(300):
            t = rng.uniform(0.0, duration)
            e, tm = rng.uniform(0.5, 3.0), rng.uniform(0.1, 1.0)
            invest.append((t, 0, e, tm))
            if rng.random() < 0.5:
                waste.append((t, 0, e * 0.3, tm * 0.2))
        led = ledger_with(waste=waste, invest=invest, duration=duration)
        rep = compute_metrics(led)
        series = windowed_waste_series(led)
        inv_e = [0.0] * len(series)
        inv_t = [0.0] * len(series)
        for t, _z, e, tm in invest:
            w = min(len(series) - 1, int(t / 6.0))
            inv_e[w] += e
            inv_t[w] += tm
        weighted_awe = math.fsum(s[1] * inv_e[i] for i, s in enumerate(series)) / math.fsum(inv_e)
        weighted_awt = math.fsum(s[2] * inv_t[i] for i, s in enumerate(series)) / math.fsum(inv_t)
        assert rep.awe == pytest.approx(weighted_awe, rel=1e-9)
        assert rep.awt == pytest.approx(weighted_awt, rel=1e-9)

    def test_recomputation_is_identical(self):
        led = ledger_with(
            waste=[(1.0, 0, 2.0, 1.0)],
            invest=[(1.0, 0, 8.0, 4.0)],
            initial={1: 2.0},
            duration=10.0,
        )
        assert compute_metrics(led) == compute_metrics(led)


class TestCsv:
    def test_summary_shape(self):
        rep = compute_metrics(ledger_with(initial={1: 1.0}))
        text = render_csv(rep)
        lines = text.splitlines()
        assert lines[0] == CSV_VERSION_HEADER
        assert lines[1] == "policy,omc,ec,ntg,adl,paln,awe,awt"
        assert len(lines) == 3
        assert text.endswith("\n")

    def test_none_ntg_is_empty_field(self):
        rep = compute_metrics(ledger_with(initial={1: 1.0}))
        row = render_csv(rep).splitlines()[2].split(",")
        assert row[3] == ""

    def test_six_significant_digits(self):
        led = ledger_with(initial={1: 10.0}, final={1: 10.0 - math.pi})
        row = render_csv(compute_metrics(led)).splitlines()[2].split(",")
        assert row[2] == "3.14159"

    def test_series_rows(self):
        series = [(0.0, 12.5, 0.0), (10.0, 0.0, 3.25)]
        lines = render_csv(series).splitlines()
        assert lines[1] == "timestamp,awe,awt"
        assert lines[2] == "0,12.5,0"
        assert lines[3] == "10,0,3.25"

    def test_equal_inputs_equal_bytes(self, tmp_path):
        rep = compute_metrics(ledger_with(initial={1: 4.0}, final={1: 1.5}))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(rep, str(a))
        emit_csv(rep, str(b))
        assert a.read_bytes() == b.read_bytes()
