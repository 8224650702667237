"""Seeded input generators for the benchmark.

Everything the program under test receives is made here, from the
``--seed`` argument alone: CSV files and append batches.  Nothing is taken
from ``repro.datasets`` or any other module of the program, so a change to
the program cannot change a workload.

Values are dyadic (multiples of 1/64): their sums are exact in binary
floating point, which lets the checker recompute averages exactly
instead of to a tolerance.
"""

from __future__ import annotations

import bisect
import csv
import random
from dataclasses import dataclass, field
from typing import Any

VALUE_SCALE = 64  # answer values are integers / 64
VALUE_UNITS = 4096  # ... in [0, 64)


@dataclass
class Table:
    """A generated answer set: attribute names, distinct rows, values."""

    attributes: list[str]
    rows: list[tuple[Any, ...]]
    values: list[float]

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(self.attributes + ["val"])
            for row, value in zip(self.rows, self.values):
                writer.writerow(list(row) + [repr(value)])


#: Rows at the head of every synthetic ranking, the same on every seed.
HEAD_ROWS = 400
#: The first attribute's value that only head rows carry.
HEAD_KEY = "a0"


def synthetic_answers(rng: random.Random, n: int, cards: list[int]) -> Table:
    """*n* distinct tuples over ``len(cards)`` string attributes.

    Each attribute value carries a fixed effect, so high values concentrate
    on a few values per attribute and summaries have real clusters to find.
    The table has two parts:

    * a head of ``HEAD_ROWS`` rows, the same on every seed, all with first
      attribute ``HEAD_KEY`` and all valued above every other row;
    * a body drawn from the seed, whose first attribute is never
      ``HEAD_KEY``.

    Every top-L element (L <= ``HEAD_ROWS``) lies in the head, and every
    cluster over the top-L keeps ``HEAD_KEY``, so summaries cover the same
    rows on every seed: each seed poses the same summarization problem
    over a different body, and costs do not swing with the seed.  Values
    are quantized to 1/64, so ties at the L-th value are common.
    """
    m = len(cards)
    letters = "abcdefghijklmnopqrstuvwxyz"
    effects = [
        [(c * 5 + j * 3) % 17 - 8 for c in range(card)]
        for j, card in enumerate(cards)
    ]

    def effect(code: tuple[int, ...]) -> int:
        return sum(effects[j][c] for j, c in enumerate(code))

    fixed = random.Random("head-%s" % cards)
    seen: set[tuple[int, ...]] = set()
    codes: list[tuple[int, ...]] = []
    values: list[float] = []
    while len(codes) < HEAD_ROWS:
        code = (0,) + tuple(fixed.randrange(card) for card in cards[1:])
        if code not in seen:
            seen.add(code)
            codes.append(code)
            values.append(_dyadic(max(
                2560, 3072 + 24 * effect(code) + fixed.randrange(-256, 257))))
    while len(codes) < n:
        code = tuple(rng.randrange(1 if j == 0 else 0, card)
                     for j, card in enumerate(cards))
        if code not in seen:
            seen.add(code)
            codes.append(code)
            values.append(_dyadic(min(
                2559, 1280 + 24 * effect(code) + rng.randrange(-256, 257))))
    rows = [
        tuple("%s%d" % (letters[j], c) for j, c in enumerate(code))
        for code in codes
    ]
    return Table(["a%d" % j for j in range(m)], rows, values)


def _dyadic(units: int) -> float:
    return min(max(units, 0), VALUE_UNITS - 1) / VALUE_SCALE


@dataclass
class AppendStream:
    """Append batches of globally new rows for one table.

    Every row's last attribute is a value never seen before (``new<i>``),
    so no appended row can collide with an existing one; the other attributes reuse the table's domains.
    Other rows never join a synthetic table's head: their first attribute
    is never ``HEAD_KEY`` and their values are drawn from the body's own
    values, so new data follows the distribution of the old.

    With a *threshold* (the current L-th largest value), how often a batch
    reaches the top-L is fixed rather than left to chance: every
    ``HOT_EVERY``-th batch carries one head row (first attribute
    ``HEAD_KEY``) valued strictly above it, and every other row is a body
    row valued strictly below it.  The head row's attributes and value
    follow from the batch number alone, so the top-L evolves the same way
    on every seed.
    """

    HOT_EVERY = 4

    rng: random.Random
    domains: list[list[Any]]
    values: list[float]
    batch_rows: int = 16
    issued: int = field(default=0)
    batches: int = field(default=0)

    @classmethod
    def for_table(
        cls, rng: random.Random, table: Table, batch_rows: int = 16
    ) -> "AppendStream":
        domains = [
            sorted({row[j] for row in table.rows})
            for j in range(len(table.attributes))
        ]
        body = sorted(value for row, value in zip(table.rows, table.values)
                      if row[0] != HEAD_KEY)
        return cls(rng, domains, body, batch_rows)

    def next_batch(
        self, threshold: float | None = None, top: float | None = None
    ) -> tuple[list[tuple[Any, ...]], list[float]]:
        """The next batch; *threshold* and *top* are the current L-th
        largest and largest values when the top-L schedule applies."""
        rows = []
        values = []
        hot = threshold is not None and self.batches % self.HOT_EVERY == 0
        self.batches += 1
        below = (len(self.values) if threshold is None
                 else bisect.bisect_left(self.values, threshold))
        body = [v for v in self.domains[0] if v != HEAD_KEY]
        for index in range(self.batch_rows):
            self.issued += 1
            fresh = "new%d" % self.issued
            if hot and index == 0:
                number = self.batches
                rows.append((HEAD_KEY,) + tuple(
                    domain[number * (2 * j + 3) % len(domain)]
                    for j, domain in enumerate(self.domains[1:-1])
                ) + (fresh,))
                steps = max(1, round((top - threshold) * VALUE_SCALE))
                values.append(
                    threshold + (number * 7 % steps + 1) / VALUE_SCALE)
                continue
            first = self.rng.choice(body)
            rows.append((first,) + tuple(
                self.rng.choice(domain) for domain in self.domains[1:-1]
            ) + (fresh,))
            values.append(self.values[self.rng.randrange(below)])
        return rows, values


# -- a raw table for a GROUP BY open ------------------------------------------

#: One extra row per this many answer rows is a single raw row of a group
#: that ``HAVING count(*) > 1`` drops.
SINGLE_EVERY = 8


def grouped_source(table: Table) -> Table:
    """Raw rows whose ``GROUP BY`` over every attribute, ``avg(val)``,
    ``HAVING count(*) > 1`` is *table*.

    Each answer row appears twice, valued 1/64 below and above its answer
    value, so the group average is the answer value exactly.  Every
    ``SINGLE_EVERY``-th answer row also gives one raw row with a fresh
    last attribute (``single<i>``), a group of one that HAVING drops.
    """
    step = 1.0 / VALUE_SCALE
    low = [(row, value - step) for row, value in zip(table.rows, table.values)]
    singles = [
        (row[:-1] + ("single%d" % i,), value)
        for i, (row, value) in enumerate(
            zip(table.rows[::SINGLE_EVERY], table.values[::SINGLE_EVERY]))
    ]
    high = [(row, value + step) for row, value in zip(table.rows,
                                                      table.values)]
    rows = low + singles + high
    return Table(list(table.attributes), [r for r, _ in rows],
                 [v for _, v in rows])


def group_by_avg(raw: Table, having: int) -> Table:
    """The benchmark's own GROUP BY over every attribute with
    ``avg(val)`` and ``HAVING count(*) > having``: groups in first-seen
    order, average = sum / count."""
    sums: dict[tuple[Any, ...], list[float]] = {}
    for row, value in zip(raw.rows, raw.values):
        sums.setdefault(row, []).append(value)
    rows = []
    values = []
    for key, measured in sums.items():
        if len(measured) > having:
            rows.append(key)
            values.append(sum(measured) / len(measured))
    return Table(list(raw.attributes), rows, values)


def group_by_sql(table: str, attributes: list[str], having: int) -> str:
    """The same query as :func:`group_by_avg`, for ``load_csv``."""
    cols = ", ".join(attributes)
    return (
        "SELECT %s, avg(val) AS val FROM %s GROUP BY %s "
        "HAVING count(*) > %d" % (cols, table, cols, having)
    )
