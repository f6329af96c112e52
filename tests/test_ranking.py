import json

import numpy as np
import pytest

from vocalrestore.errors import (
    ConfigError,
    ConnectivityError,
    DegenerateError,
    FormatError,
    InsufficientDataError,
)
from vocalrestore.ranking import (
    Comparison,
    ComparisonSet,
    StrengthTable,
    category_split,
    elo_scores,
    fit_bradley_terry,
    goodness_of_fit,
    rank_report,
    report_to_json,
)


def _simulate(strengths: dict, n_per_pair: int, seed: int, tie_frac=0.0) -> ComparisonSet:
    """Sample outcomes from the Bradley-Terry model itself."""
    rng = np.random.default_rng(seed)
    names = list(strengths)
    records = []
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            p = strengths[a] / (strengths[a] + strengths[b])
            for _ in range(n_per_pair):
                u = rng.random()
                if u < tie_frac:
                    records.append(Comparison(a, b, "tie"))
                elif rng.random() < p:
                    records.append(Comparison(a, b, "a"))
                else:
                    records.append(Comparison(a, b, "b"))
    return ComparisonSet(records)


def test_comparison_validation():
    with pytest.raises(FormatError):
        Comparison("x", "x", "a")
    with pytest.raises(FormatError):
        Comparison("x", "y", "draw")
    with pytest.raises(FormatError):
        Comparison("", "y", "a")


def test_csv_parsing():
    text = "system_a,system_b,outcome,category\nx,y,a,clean\ny,x,tie,\n"
    data = ComparisonSet.from_csv(text)
    assert len(data.records) == 2
    assert data.records[0].category == "clean"
    assert data.records[1].outcome == "tie"
    assert set(data.systems()) == {"x", "y"}
    with pytest.raises(FormatError):
        ComparisonSet.from_csv("foo,bar\n1,2\n")


@pytest.mark.parametrize("rows, message", [
    ("x,y,a\nx,y,c\n", "CSV line 3: outcome must be a|b|tie, got 'c'"),
    ("x,x,a\n", "CSV line 2: invalid pair ('x', 'x')"),
    ("x,y,a\n,y,b\n", "CSV line 3: invalid pair ('', 'y')"),
])
def test_csv_names_line_of_bad_record(rows, message):
    """A row that Comparison refuses is reported with its CSV line."""
    with pytest.raises(FormatError) as info:
        ComparisonSet.from_csv("system_a,system_b,outcome\n" + rows)
    assert str(info.value) == message


def test_category_split():
    text = "system_a,system_b,outcome,category\nx,y,a,c1\nx,y,b,c2\nx,y,a,\n"
    data = ComparisonSet.from_csv(text)
    assert len(category_split(data, "c1").records) == 1
    assert len(category_split(data, "c2").records) == 1
    with pytest.raises(ConfigError, match="no comparison has category 'c3'; "
                                          "categories present: 'c1', 'c2'"):
        category_split(data, "c3")


def test_closed_form_ratio():
    """Two systems where a beats b in exactly 3 of 4 games: the MLE strength
    ratio is the odds ratio 3."""
    records = [Comparison("a", "b", "a")] * 3 + [Comparison("a", "b", "b")]
    table = fit_bradley_terry(ComparisonSet(records))
    assert table.strengths["a"] / table.strengths["b"] == pytest.approx(3.0, abs=1e-6)
    # geometric mean normalization
    prod = np.prod(list(table.strengths.values()))
    assert abs(prod - 1.0) < 1e-8
    assert table.predict("a", "b") == pytest.approx(0.75, abs=1e-6)


def test_tie_half_win_equivalence():
    """Two ties carry the same information as one win each way."""
    base = [Comparison("a", "c", "a"), Comparison("c", "b", "a"),
            Comparison("b", "a", "a"), Comparison("a", "c", "b")]
    ties = ComparisonSet(base + [Comparison("a", "b", "tie")] * 2)
    split = ComparisonSet(base + [Comparison("a", "b", "a"), Comparison("a", "b", "b")])
    ta = fit_bradley_terry(ties)
    tb = fit_bradley_terry(split)
    for s in ta.strengths:
        assert ta.strengths[s] == pytest.approx(tb.strengths[s], rel=1e-8)


def test_relabel_invariance():
    truth = {"s1": 3.0, "s2": 1.0, "s3": 0.4}
    data = _simulate(truth, 60, seed=1)
    table = fit_bradley_terry(data)
    renamed = ComparisonSet(
        [Comparison("X" + r.system_a, "X" + r.system_b, r.outcome) for r in data.records]
    )
    table2 = fit_bradley_terry(renamed)
    for s in truth:
        assert table.strengths[s] == pytest.approx(table2.strengths["X" + s], rel=1e-9)


def test_order_of_records_irrelevant():
    truth = {"s1": 2.0, "s2": 1.0, "s3": 0.5}
    data = _simulate(truth, 40, seed=2, tie_frac=0.1)
    shuffled = ComparisonSet(list(reversed(data.records)))
    ta, tb = fit_bradley_terry(data), fit_bradley_terry(shuffled)
    for s in ta.strengths:
        assert ta.strengths[s] == pytest.approx(tb.strengths[s], rel=1e-8)


def test_recovers_simulated_strengths():
    truth = {"a": 4.0, "b": 2.0, "c": 1.0, "d": 0.5}
    data = _simulate(truth, 400, seed=3)
    table = fit_bradley_terry(data)
    assert table.ranking() == ["a", "b", "c", "d"]
    # strength ratios within sampling noise of the truth
    for x, y in [("a", "b"), ("b", "c"), ("c", "d")]:
        est = table.strengths[x] / table.strengths[y]
        assert est == pytest.approx(truth[x] / truth[y], rel=0.25)


def test_estimator_consistency():
    """More data per pair brings the fit closer to the truth on average,
    checked over many simulation seeds."""
    truth = {"a": 3.0, "b": 1.0, "c": 1.0 / 3.0}

    def mean_log_err(n_per_pair):
        errs = []
        for seed in range(50):
            data = _simulate(truth, n_per_pair, seed=seed)
            try:
                table = fit_bradley_terry(data)
            except DegenerateError:
                continue
            err = [
                abs(np.log(table.strengths[s]) - np.log(truth[s] / 1.0))
                for s in truth
            ]
            errs.append(np.mean(err))
        return float(np.mean(errs))

    assert mean_log_err(400) < mean_log_err(40)


def test_connectivity_error():
    records = [Comparison("a", "b", "a"), Comparison("a", "b", "b"),
               Comparison("c", "d", "a"), Comparison("c", "d", "b")]
    with pytest.raises(ConnectivityError) as info:
        fit_bradley_terry(ComparisonSet(records))
    comps = info.value.components
    assert sorted(sorted(c) for c in comps) == [["a", "b"], ["c", "d"]]


def test_degenerate_error():
    # b never wins
    records = [Comparison("a", "b", "a")] * 3
    with pytest.raises(DegenerateError):
        fit_bradley_terry(ComparisonSet(records))
    with pytest.raises(DegenerateError):
        fit_bradley_terry(ComparisonSet([]))


def test_elo_scaling():
    """A 10x strength ratio is exactly 400 ELO points; the scale is
    400/ln(10) around an anchor of 1000."""
    table = elo_scores(
        fit_bradley_terry(_simulate({"a": 10.0, "b": 1.0, "c": 1.0}, 2000, seed=5))
    )
    gap = table.elo["a"] - table.elo["b"]
    ratio = table.strengths["a"] / table.strengths["b"]
    assert gap == pytest.approx(400.0 / np.log(10.0) * np.log(ratio), abs=1e-9)
    # geometric mean 1 puts the average log-strength at the anchor
    assert np.mean(list(table.elo.values())) == pytest.approx(1000.0, abs=1e-6)


def test_goodness_of_fit_perfect_on_model_data():
    """Rates computed from the fitted model's own predictions give R^2 = 1."""
    truth = {"a": 2.0, "b": 1.0, "c": 0.5}
    data = _simulate(truth, 800, seed=6)
    table = fit_bradley_terry(data)
    r2, mae, rmse = goodness_of_fit(table, data)
    assert 0.9 < r2 <= 1.0
    assert mae < 0.05 and rmse < 0.05
    with pytest.raises(InsufficientDataError):
        goodness_of_fit(table, ComparisonSet([Comparison("a", "b", "a")]))


def test_goodness_of_fit_matches_hand_rates():
    """Per-pair rates from records in both orientations, ties counted half,
    against a fixed strength table."""
    rows = [
        ("a", "b", "a"), ("b", "a", "tie"), ("b", "a", "a"),                  # a: 1.5 of 3
        ("a", "c", "a"), ("c", "a", "b"), ("a", "c", "tie"), ("c", "a", "a"),  # a: 2.5 of 4
        ("b", "c", "a"), ("b", "c", "a"), ("c", "b", "tie"),                  # b: 2.5 of 3
    ]
    data = ComparisonSet([Comparison(*row) for row in rows])
    table = StrengthTable({"a": 2.0, "b": 1.0, "c": 0.5})
    observed = [1.5 / 3, 2.5 / 4, 2.5 / 3]
    predicted = [2.0 / 3.0, 2.0 / 2.5, 1.0 / 1.5]
    resid = [o - p for o, p in zip(observed, predicted)]
    mean = sum(observed) / 3
    r2 = 1.0 - sum(r * r for r in resid) / sum((o - mean) ** 2 for o in observed)
    mae = sum(abs(r) for r in resid) / 3
    rmse = (sum(r * r for r in resid) / 3) ** 0.5
    got = goodness_of_fit(table, data)
    assert np.allclose(got, (r2, mae, rmse), rtol=0, atol=1e-12)


def test_rank_report_structure():
    truth = {"a": 2.0, "b": 1.0, "c": 0.5}
    data = _simulate(truth, 100, seed=7)
    for r in data.records[: len(data.records) // 2]:
        object.__setattr__(r, "category", "noisy")
    report = rank_report(data)
    assert set(report["overall"]) == {"strengths", "elo", "ranking", "fit"}
    assert "noisy" in report["categories"]
    payload = json.loads(report_to_json(report))
    assert payload["overall"]["ranking"][0] == "a"
