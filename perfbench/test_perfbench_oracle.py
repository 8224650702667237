"""The checker must reject one deliberately broken response per condition.

Responses here are written by hand from the tiny tables below, so the
tests do not depend on the checker's own arithmetic.
"""

from __future__ import annotations

import copy

import pytest

# The checker works on numpy arrays; numpy is optional for the program.
pytest.importorskip("numpy")

import oracle  # noqa: E402

ROWS = [("x", "p"), ("x", "q"), ("y", "p"), ("y", "q"), ("z", "p"),
        ("z", "q")]
VALUES = [8.0, 7.0, 6.0, 2.0, 1.0, 1.0]  # mean 25/6; tie at the bottom


def view():
    return oracle.Answers(["a", "b"], ROWS, VALUES).view()


def cluster(pattern, avg, size, elements=()):
    return {"pattern": list(pattern), "avg": avg, "size": size,
            "elements": list(elements)}


def summary(clusters, objective, covered, k=2, L=2, D=1):
    return {"kind": "summary_response", "k": k, "L": L, "D": D,
            "clusters": clusters, "solution_size": len(clusters),
            "objective": objective, "covered_count": covered}


GOOD = summary([cluster(("x", "*"), 7.5, 2)], 7.5, 2)


def check(response, k=2, L=2, D=1, expand=False):
    return oracle.check_summary(view(), response, k=k, L=L, D=D,
                                expand=expand)


def broken(**changes):
    response = copy.deepcopy(GOOD)
    response.update(changes)
    return response


def test_a_correct_summary_passes():
    assert check(GOOD) == []


def test_rejects_more_clusters_than_k():
    response = summary(
        [cluster(("x", "p"), 8.0, 1), cluster(("y", "q"), 2.0, 1)],
        5.0, 2, k=1, L=1, D=1)
    assert any("exceeds k" in p for p in check(response, k=1, L=1))


def test_rejects_an_uncovered_top_l_element():
    problems = check(GOOD, L=3)
    assert any("uncovered" in p for p in problems)


def test_accepts_any_tie_break_at_the_l_th_value():
    # Top-5 is 8, 7, 6, 2 and one of the two 1.0 rows: either will do.
    response = summary(
        [cluster(("x", "*"), 7.5, 2), cluster(("y", "*"), 4.0, 2),
         cluster(("z", "q"), 1.0, 1)],
        24.0 / 5, 5, k=3, L=5, D=1)
    assert check(response, k=3, L=5) == []
    short = copy.deepcopy(response)
    short["clusters"].pop()
    short.update(solution_size=2, objective=23.0 / 4, covered_count=4)
    assert any("L-th value" in p for p in check(short, k=3, L=5))


def test_rejects_clusters_closer_than_d():
    response = summary(
        [cluster(("x", "p"), 8.0, 1), cluster(("x", "q"), 7.0, 1)],
        7.5, 2, D=2)
    assert any("< D = 2" in p for p in check(response, D=2))


def test_rejects_a_cluster_covering_another():
    response = summary(
        [cluster(("x", "*"), 7.5, 2), cluster(("x", "p"), 8.0, 1)],
        7.5, 2, D=0)
    assert any("comparable" in p for p in check(response, D=0))


def test_rejects_a_wrong_cluster_average_or_size():
    response = broken(clusters=[cluster(("x", "*"), 7.25, 2)])
    assert any("avg" in p for p in check(response))
    response = broken(clusters=[cluster(("x", "*"), 7.5, 3)])
    assert any("size" in p for p in check(response))


def test_rejects_a_wrong_objective_or_covered_count():
    assert any("objective" in p for p in check(broken(objective=7.4)))
    assert any("covered_count" in p for p in check(broken(covered_count=3)))


def test_rejects_an_objective_below_the_mean_of_all_values():
    rows = [("x", "p"), ("y", "p"), ("z", "p"), ("x", "q"), ("y", "q"),
            ("z", "q")]
    table = oracle.Answers(["a", "b"], rows, [9.0, 0.0, 0.0, 5.0, 5.0, 5.0])
    response = summary([cluster(("*", "p"), 3.0, 3)], 3.0, 3, k=1, L=1, D=0)
    problems = oracle.check_summary(table.view(), response, k=1, L=1, D=0)
    assert problems == ["objective 3.0 below the mean of all values 4.0"]


def expanded():
    return summary([cluster(("x", "*"), 7.5, 2, [
        {"rank": 1, "values": ["x", "p"], "value": 8.0},
        {"rank": 2, "values": ["x", "q"], "value": 7.0},
    ])], 7.5, 2)


def test_expand_lists_exactly_the_matching_rows_in_rank_order():
    assert check(expanded(), expand=True) == []
    missing = expanded()
    missing["clusters"][0]["elements"].pop()
    assert any("lists 1 elements" in p for p in check(missing, expand=True))
    swapped = expanded()
    elements = swapped["clusters"][0]["elements"]
    elements.reverse()
    assert any("rank order" in p for p in check(swapped, expand=True))
    wrong_value = expanded()
    wrong_value["clusters"][0]["elements"][1]["value"] = 6.0
    assert any("value 6.0" in p for p in check(wrong_value, expand=True))
    wrong_rank = expanded()
    wrong_rank["clusters"][0]["elements"][1]["rank"] = 3
    assert any("rank 3" in p for p in check(wrong_rank, expand=True))


def test_averages_must_match_bit_for_bit():
    nudged = broken(objective=7.5 * (1 + 1e-13))
    assert any("objective" in p for p in check(nudged))


def test_guidance_points_must_equal_the_explore_objectives():
    response = {"kind": "guidance_response", "series": [
        {"D": 1, "k_values": [1, 2], "averages": [7.5, 7.0]}]}
    assert oracle.check_guidance(response, {(1, 1): 7.5, (2, 1): 7.0}) == []
    problems = oracle.check_guidance(response, {(2, 1): 6.5})
    assert problems == ["guidance (k=2, D=1) = 7.0, explore objective 6.5"]


def test_an_open_must_match_the_own_group_by():
    response = {"kind": "dataset_loaded", "n": 1200, "m": 3}
    assert oracle.check_loaded(response, 1200, 3) == []
    assert oracle.check_loaded(response, 1199, 3) == [
        "loaded n=1200, own GROUP BY gives 1199"]


def test_an_append_must_grow_n_by_every_acked_row():
    response = {"kind": "rows_appended", "appended": 16, "n": 4016}
    assert oracle.check_appended(response, 4016, 16) == []
    assert oracle.check_appended(response, 4032, 16) == [
        "n=4016 after append, expected 4032"]


def test_a_probe_must_answer_as_before_the_kill():
    after = broken(cache_hit=False, init_seconds=1.5,
                   phase_seconds={"pool_build": 1.5})
    assert oracle.check_probe(GOOD, after, "p") == []
    assert oracle.check_probe(GOOD, broken(objective=7.0), "p") == [
        "probe p differs after restart"]


def test_views_follow_an_append_stream():
    answers = oracle.Answers(["a", "b"], ROWS[:4], VALUES[:4])
    answers.extend(ROWS[4:], VALUES[4:])
    assert answers.view(4).n == 4
    assert answers.view().mean == pytest.approx(25.0 / 6)
    assert not answers.view(4).match(("z", "*")).any()
