"""Independent output checker.

Works only from the rows and values the benchmark generated (its own
copy of every answer set, its own GROUP BY results) and from the
properties of Definition 4.1 of the paper.  It never runs the program's
algorithms and never compares against stored program output, except for
the restart probes, which compare the program with itself before and
after a crash.

Every ``check_*`` function returns a list of violation messages; an empty
list means the response passed.

No tolerance: every value the benchmark generates is dyadic, so sums
are exact in binary floating point whatever their order, and averages
and objectives must equal the checker's ``sum / count`` bit for bit.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

STAR = "*"

#: Response fields that legitimately differ between two identical
#: requests: cache state and timings.
VOLATILE_FIELDS = ("cache_hit", "init_seconds", "algo_seconds",
                   "phase_seconds", "total_seconds")


class Answers:
    """The checker's copy of one answer set, growable by appends.

    :meth:`view` gives the state after the first *n* rows, so responses
    taken at any point of an append stream can be checked later.
    """

    def __init__(
        self,
        attributes: Sequence[str],
        rows: Iterable[Sequence[Any]] = (),
        values: Iterable[float] = (),
    ) -> None:
        self.attributes = list(attributes)
        self.m = len(self.attributes)
        self._rows: list[tuple[Any, ...]] = []
        self._values: list[float] = []
        self._codes: list[list[int]] = [[] for _ in range(self.m)]
        self.domains: list[dict[Any, int]] = [{} for _ in range(self.m)]
        self._view: View | None = None
        self.extend(rows, values)

    @property
    def n(self) -> int:
        return len(self._rows)

    def extend(
        self, rows: Iterable[Sequence[Any]], values: Iterable[float]
    ) -> None:
        for row, value in zip(rows, values, strict=True):
            row = tuple(row)
            if len(row) != self.m:
                raise ValueError("row %r has arity %d, want %d"
                                 % (row, len(row), self.m))
            self._rows.append(row)
            self._values.append(float(value))
            for j, item in enumerate(row):
                domain = self.domains[j]
                self._codes[j].append(domain.setdefault(item, len(domain)))

    def view(self, n: int | None = None) -> "View":
        n = self.n if n is None else n
        if self._view is None or self._view.n != n:
            self._view = View(self, n)
        return self._view


class View:
    """Numpy arrays over the first *n* rows of an :class:`Answers`."""

    def __init__(self, answers: Answers, n: int) -> None:
        if not 0 < n <= answers.n:
            raise ValueError("view of %d rows out of %d" % (n, answers.n))
        self.n = n
        self.domains = answers.domains
        self.rows = answers._rows[:n]
        self.values = np.array(answers._values[:n], dtype=np.float64)
        self.codes = np.array(
            [column[:n] for column in answers._codes], dtype=np.int64
        ).T.reshape(n, answers.m)
        self.ascending = np.sort(self.values)
        self.descending = self.ascending[::-1]
        self.mean = float(self.values.sum()) / n
        self.value_of = dict(zip(self.rows, self.values.tolist()))

    def match(self, pattern: Sequence[Any]) -> np.ndarray:
        """Boolean mask of the rows a pattern covers."""
        mask = np.ones(self.n, dtype=bool)
        for j, item in enumerate(pattern):
            if item == STAR:
                continue
            code = self.domains[j].get(item)
            if code is None:
                return np.zeros(self.n, dtype=bool)
            mask &= self.codes[:, j] == code
        return mask


def _distance(p: Sequence[Any], q: Sequence[Any]) -> int:
    """Definition 3.1: positions where either side is * or they differ."""
    return sum(
        1 for a, b in zip(p, q) if a == STAR or b == STAR or a != b
    )


def _covers(ancestor: Sequence[Any], descendant: Sequence[Any]) -> bool:
    return all(a == STAR or a == d for a, d in zip(ancestor, descendant))


def check_summary(
    view: View,
    response: dict[str, Any],
    *,
    k: int | None,
    L: int,
    D: int,
    expand: bool = False,
) -> list[str]:
    """Check a ``summary``/``explore`` response against Definition 4.1 and
    the checker's own recomputation of every reported number."""
    problems: list[str] = []
    if response.get("kind") != "summary_response":
        return ["not a summary_response: %r" % (response.get("kind"),)]
    for name, want in (("k", k), ("L", L), ("D", D)):
        if want is not None and response.get(name) != want:
            problems.append("echoed %s=%r, requested %r"
                            % (name, response.get(name), want))
    clusters = response.get("clusters") or []
    if response.get("solution_size") != len(clusters):
        problems.append("solution_size %r but %d clusters"
                        % (response.get("solution_size"), len(clusters)))
    if not clusters:
        return problems + ["empty solution"]
    if k is not None and len(clusters) > k:
        problems.append("|O| = %d exceeds k = %d" % (len(clusters), k))
    patterns = [list(c["pattern"]) for c in clusters]
    union = np.zeros(view.n, dtype=bool)
    for cluster, pattern in zip(clusters, patterns):
        if len(pattern) != len(view.domains):
            problems.append("pattern %r has the wrong arity" % (pattern,))
            continue
        mask = view.match(pattern)
        size = int(mask.sum())
        union |= mask
        if cluster.get("size") != size:
            problems.append("cluster %r size %r, rows matching: %d"
                            % (pattern, cluster.get("size"), size))
        if size == 0:
            problems.append("cluster %r covers no row" % (pattern,))
            continue
        avg = float(view.values[mask].sum()) / size
        if float(cluster.get("avg")) != avg:
            problems.append("cluster %r avg %r, recomputed %r"
                            % (pattern, cluster.get("avg"), avg))
        if expand:
            problems.extend(_check_elements(view, pattern, mask, cluster))
    covered = int(union.sum())
    if response.get("covered_count") != covered:
        problems.append("covered_count %r, union of clusters covers %d"
                        % (response.get("covered_count"), covered))
    if covered:
        objective = float(view.values[union].sum()) / covered
        got = float(response.get("objective"))
        if got != objective:
            problems.append("objective %r, recomputed %r" % (got, objective))
        floor = view.mean
        if got < floor:
            problems.append("objective %r below the mean of all values %r"
                            % (got, floor))
    # Top-L coverage, accepting any tie-break at the L-th value.
    L_eff = min(max(L, 1), view.n)
    threshold = float(view.descending[L_eff - 1])
    above = view.values > threshold
    if not bool(union[above].all()):
        missing = int((above & ~union).sum())
        problems.append("%d top-%d elements (value > %r) uncovered"
                        % (missing, L_eff, threshold))
    need_at = L_eff - int(above.sum())
    got_at = int((union & (view.values == threshold)).sum())
    if got_at < need_at:
        problems.append("top-%d elements at the L-th value %r uncovered: "
                        "%d of %d needed" % (L_eff, threshold, got_at,
                                             need_at))
    for i in range(len(patterns)):
        for j in range(i + 1, len(patterns)):
            p, q = patterns[i], patterns[j]
            if _distance(p, q) < D:
                problems.append("distance(%r, %r) = %d < D = %d"
                                % (p, q, _distance(p, q), D))
            if _covers(p, q) or _covers(q, p):
                problems.append("cluster %r and %r are comparable" % (p, q))
    return problems


def _check_elements(
    view: View, pattern: list[Any], mask: np.ndarray, cluster: dict[str, Any]
) -> list[str]:
    """An expanded cluster lists exactly its matching rows, in value-rank
    order, each with its own value and a rank consistent with it."""
    problems: list[str] = []
    elements = cluster.get("elements") or []
    listed = [tuple(e["values"]) for e in elements]
    want = {view.rows[i] for i in np.flatnonzero(mask).tolist()}
    if len(listed) != len(set(listed)) or set(listed) != want:
        problems.append(
            "cluster %r lists %d elements (%d distinct), %d rows match"
            % (pattern, len(listed), len(set(listed)), len(want))
        )
    if not elements:
        return problems
    values = np.array([float(e["value"]) for e in elements])
    ranks = np.array([int(e["rank"]) for e in elements])
    for row, value in zip(listed, values.tolist()):
        own = view.value_of.get(row)
        if own is None or value != own:
            problems.append("element %r value %r, generated %r"
                            % (row, value, own))
    if (np.diff(values) > 0).any() or (np.diff(ranks) <= 0).any():
        problems.append("cluster %r elements out of rank order" % (pattern,))
    # A rank is consistent with a value when it falls among the ranks
    # that value's ties occupy.
    right = np.searchsorted(view.ascending, values, side="right")
    left = np.searchsorted(view.ascending, values, side="left")
    higher = view.n - right
    bad = np.flatnonzero((ranks <= higher) | (ranks > higher + right - left))
    for i in bad[:3].tolist():
        problems.append("element %r rank %d, value ranks %d..%d"
                        % (listed[i], ranks[i], higher[i] + 1,
                           view.n - left[i]))
    return problems


def check_guidance(
    response: dict[str, Any],
    explored: dict[tuple[int, int], float],
) -> list[str]:
    """Every guidance point that an ``explore`` on the same store also
    visited must equal that explore's objective.  *explored* maps
    ``(k, D)`` to the explore objective."""
    if response.get("kind") != "guidance_response":
        return ["not a guidance_response: %r" % (response.get("kind"),)]
    problems = []
    for series in response.get("series") or []:
        D = series["D"]
        for k, average in zip(series["k_values"], series["averages"]):
            want = explored.get((k, D))
            if want is not None and average != want:
                problems.append("guidance (k=%d, D=%d) = %r, explore "
                                "objective %r" % (k, D, average, want))
    return problems


def check_loaded(
    response: dict[str, Any], answer_n: int, answer_m: int
) -> list[str]:
    """A ``load_csv`` answer must have the checker's own GROUP BY size."""
    if response.get("kind") != "dataset_loaded":
        return ["not dataset_loaded: %r" % (response.get("kind"),)]
    problems = []
    if response.get("n") != answer_n:
        problems.append("loaded n=%r, own GROUP BY gives %d"
                        % (response.get("n"), answer_n))
    if response.get("m") != answer_m:
        problems.append("loaded m=%r, want %d" % (response.get("m"), answer_m))
    return problems


def check_appended(
    response: dict[str, Any], expected_n: int, batch: int
) -> list[str]:
    """After an acked batch, n is the initial size plus every acked row."""
    if response.get("kind") != "rows_appended":
        return ["not rows_appended: %r" % (response.get("kind"),)]
    problems = []
    if response.get("appended") != batch:
        problems.append("appended %r of %d rows"
                        % (response.get("appended"), batch))
    if response.get("n") != expected_n:
        problems.append("n=%r after append, expected %d"
                        % (response.get("n"), expected_n))
    return problems


def normalized(response: dict[str, Any]) -> dict[str, Any]:
    """A response without its cache and timing fields."""
    return {
        key: value for key, value in response.items()
        if key not in VOLATILE_FIELDS
    }


def check_probe(
    before: dict[str, Any], after: dict[str, Any], label: str
) -> list[str]:
    """A probe after a restart must answer exactly as before the kill."""
    if normalized(before) != normalized(after):
        return ["probe %s differs after restart" % label]
    return []
