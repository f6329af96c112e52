"""Bradley-Terry fitting over pairwise comparisons with tie handling,
ELO-scaled scores, and goodness-of-fit metrics.

Ties count as half a win for each side; strengths are the MLE of
P(a beats b) = pi_a / (pi_a + pi_b), found by the Zermelo/MM fixed point and
normalized to geometric mean 1. Fit residuals are computed per unordered
pair between observed win rates and model-predicted probabilities.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    ConnectivityError,
    DegenerateError,
    FormatError,
    InsufficientDataError,
)

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10000
ELO_ANCHOR = 1000.0
ELO_SCALE = 400.0 / np.log(10.0)


@dataclass(frozen=True)
class Comparison:
    system_a: str
    system_b: str
    outcome: str            # 'a' | 'b' | 'tie'
    category: str = ""

    def __post_init__(self):
        if not self.system_a or not self.system_b or self.system_a == self.system_b:
            raise FormatError(
                f"invalid pair ({self.system_a!r}, {self.system_b!r})"
            )
        if self.outcome not in ("a", "b", "tie"):
            raise FormatError(f"outcome must be a|b|tie, got {self.outcome!r}")


@dataclass
class ComparisonSet:
    records: list = field(default_factory=list)

    def systems(self) -> list:
        seen = {}
        for r in self.records:
            seen.setdefault(r.system_a, None)
            seen.setdefault(r.system_b, None)
        return list(seen)

    @classmethod
    def from_csv(cls, text: str) -> "ComparisonSet":
        reader = csv.DictReader(io.StringIO(text))
        required = {"system_a", "system_b", "outcome"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise FormatError(
                f"CSV header must contain {sorted(required)}, got {reader.fieldnames}"
            )
        records = []
        for row in reader:
            missing = sorted(key for key in required if row[key] is None)
            if missing:
                raise FormatError(f"CSV line {reader.line_num}: no value for {', '.join(missing)}")
            try:
                records.append(Comparison(
                    row["system_a"].strip(),
                    row["system_b"].strip(),
                    row["outcome"].strip(),
                    (row.get("category") or "").strip(),
                ))
            except FormatError as exc:
                raise FormatError(f"CSV line {reader.line_num}: {exc}") from None
        return cls(records)


def category_split(data: ComparisonSet, category: str) -> ComparisonSet:
    """Records with the given label, which at least one record must carry;
    unlabeled records only appear in the full (overall) set."""
    records = [r for r in data.records if r.category == category]
    if not records:
        present = sorted({r.category for r in data.records} - {""})
        raise ConfigError(f"no comparison has category {category!r}; categories present: "
                          f"{', '.join(map(repr, present)) or 'none'}")
    return ComparisonSet(records)


@dataclass
class StrengthTable:
    strengths: dict                  # system -> pi (geometric mean 1)
    elo: dict = field(default_factory=dict)

    def predict(self, a: str, b: str) -> float:
        pa, pb = self.strengths[a], self.strengths[b]
        return pa / (pa + pb)

    def ranking(self) -> list:
        return sorted(self.strengths, key=self.strengths.get, reverse=True)


def _win_matrix(data: ComparisonSet):
    systems = sorted(data.systems())
    index = {s: i for i, s in enumerate(systems)}
    n = len(systems)
    W = np.zeros((n, n))
    for r in data.records:
        i, j = index[r.system_a], index[r.system_b]
        if r.outcome == "a":
            W[i, j] += 1.0
        elif r.outcome == "b":
            W[j, i] += 1.0
        else:
            W[i, j] += 0.5
            W[j, i] += 0.5
    return systems, W


def fit_bradley_terry(data: ComparisonSet) -> StrengthTable:
    """MM fixed-point fit of Bradley-Terry strengths with half-win ties."""
    systems, W = _win_matrix(data)
    if len(systems) < 2:
        raise DegenerateError("need at least two systems")
    T = W + W.T
    # Imported here: the restore path, which never ranks, loads no scipy.sparse.
    from scipy.sparse.csgraph import connected_components

    n_comp, labels = connected_components(T > 0, directed=False)
    if n_comp > 1:
        raise ConnectivityError(
            [[s for s, k in zip(systems, labels) if k == c] for c in range(n_comp)])

    wins = W.sum(axis=1)
    losses = W.sum(axis=0)
    degenerate = [
        s for s, w, l in zip(systems, wins, losses) if w == 0.0 or l == 0.0
    ]
    if degenerate:
        raise DegenerateError(
            f"systems with zero effective wins or losses: {degenerate}"
        )

    p = np.ones(len(systems))
    for _ in range(DEFAULT_MAX_ITER):
        # Strengths stay positive, so T / (p_i + p_j) is 0 off the comparison graph.
        denom = (T / (p[:, None] + p[None, :])).sum(axis=1)
        p_new = wins / denom
        p_new /= np.exp(np.mean(np.log(p_new)))   # geometric mean 1
        if np.max(np.abs(p_new - p) / p) < DEFAULT_TOL:
            p = p_new
            break
        p = p_new
    return StrengthTable({s: float(v) for s, v in zip(systems, p)})


def elo_scores(table: StrengthTable) -> StrengthTable:
    """elo = ELO_ANCHOR + ELO_SCALE * ln(pi): 400 points per 10x strength
    ratio."""
    table.elo = {
        s: float(ELO_ANCHOR + ELO_SCALE * np.log(v)) for s, v in table.strengths.items()
    }
    return table


def goodness_of_fit(table: StrengthTable, data: ComparisonSet):
    """(R^2, MAE, RMSE) between observed per-pair win rates (ties half) and
    model-predicted probabilities."""
    systems, W = _win_matrix(data)
    T = W + W.T
    i, j = np.nonzero(np.triu(T))
    if len(i) < 2:
        raise InsufficientDataError(
            f"R^2 needs >= 2 distinct pairs, got {len(i)}"
        )
    observed = W[i, j] / T[i, j]
    predicted = np.array([table.predict(systems[a], systems[b]) for a, b in zip(i, j)])
    resid = observed - predicted
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((observed - observed.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else (1.0 if ss_res == 0 else 0.0)
    mae = float(np.mean(np.abs(resid)))
    rmse = float(np.sqrt(np.mean(resid ** 2)))
    return r2, mae, rmse


def rank_report(data: ComparisonSet, categories: bool = True) -> dict:
    """Full JSON-ready report: strengths, ELO, and fit metrics, overall and
    per labeled category. Residuals are per unordered pair."""
    report = {"residuals": "per-unordered-pair win rates, ties counted half"}

    def fit_block(subset: ComparisonSet):
        table = elo_scores(fit_bradley_terry(subset))
        block = {
            "strengths": dict(sorted(table.strengths.items())),
            "elo": dict(sorted(table.elo.items())),
            "ranking": table.ranking(),
        }
        try:
            r2, mae, rmse = goodness_of_fit(table, subset)
            block["fit"] = {"r2": r2, "mae": mae, "rmse": rmse}
        except InsufficientDataError:
            block["fit"] = None
        return block

    report["overall"] = fit_block(data)
    if categories:
        labels = sorted({r.category for r in data.records if r.category})
        report["categories"] = {}
        for label in labels:
            subset = category_split(data, label)
            try:
                report["categories"][label] = fit_block(subset)
            except (ConnectivityError, DegenerateError) as exc:
                report["categories"][label] = {"error": str(exc)}
    return report


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2)
